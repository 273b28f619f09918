//! **E12** — the batched path: every counter family fast-forwards
//! `increment_by(n)` in transition-count-proportional time (≥100× over
//! the increment loop at `n = 10⁷`). The engine that runs this path per
//! key is measured by the stack benchmark (`registry.apply_events_per_s`)
//! and its bookkeeping and merged aggregate are tested in
//! `crates/engine/tests/fold.rs`.
//!
//! Emits `BENCH_engine.json` via `--json` (uploaded by CI).

use ac_bench::{header, json::JsonObject, section, sized, verdict, write_json_report};
use ac_core::{ApproxCounter, CsurosCounter, MorrisCounter, MorrisPlus, NelsonYuCounter, NyParams};
use ac_randkit::Xoshiro256PlusPlus;
use ac_sim::report::Table;
use std::time::Instant;

/// One family's loop-vs-batched measurement.
struct FamilyRow {
    family: &'static str,
    params: &'static str,
    loop_s: f64,
    batched_s: f64,
    speedup: f64,
}

/// Times `n` single increments once, and `increment_by(n)` over `reps`
/// fresh counters, on independent seeded streams.
fn time_family<C, F>(make: F, n: u64, reps: u32) -> (f64, f64)
where
    C: ApproxCounter,
    F: Fn() -> C,
{
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xE12);
    let mut c = make();
    let start = Instant::now();
    for _ in 0..n {
        c.increment(&mut rng);
    }
    let loop_s = start.elapsed().as_secs_f64();
    // Keep the estimate observable so the loop cannot be optimized away.
    assert!(c.estimate() >= 0.0);

    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..reps {
        let mut c = make();
        c.increment_by(n, &mut rng);
        acc += c.estimate();
    }
    let batched_s = start.elapsed().as_secs_f64() / f64::from(reps);
    assert!(acc >= 0.0);
    (loop_s, batched_s)
}

fn main() {
    header(
        "E12",
        "batched fast-forward",
        "increment_by(n) costs O(transitions), not O(n) coin flips, for every \
         counter family",
    );

    // ----- Part 1: per-family batched vs loop ---------------------------
    let n = sized(10_000_000, 1_000_000) as u64;
    let reps = 200u32;
    section("per-family increment loop vs increment_by (fast-forward)");
    println!("n = {n} increments per measurement, batched averaged over {reps} calls\n");

    let ny_params = NyParams::new(0.1, 10).unwrap();
    let rows: Vec<FamilyRow> = vec![
        {
            let (l, b) = time_family(|| MorrisCounter::new(0.01).unwrap(), n, reps);
            FamilyRow {
                family: "morris",
                params: "a=0.01",
                loop_s: l,
                batched_s: b,
                speedup: l / b,
            }
        },
        {
            // ε=0.2, Δ=6 — the accuracy-test configuration. Batched cost
            // is O(levels) and the level count scales as 1/a, so tighter
            // (ε, δ) trades batched speed for accuracy in both paths.
            let (l, b) = time_family(|| MorrisPlus::new(0.2, 6).unwrap(), n, reps);
            FamilyRow {
                family: "morris+",
                params: "eps=0.2 delta=2^-6",
                loop_s: l,
                batched_s: b,
                speedup: l / b,
            }
        },
        {
            let (l, b) = time_family(|| NelsonYuCounter::new(ny_params), n, reps);
            FamilyRow {
                family: "nelson-yu",
                params: "eps=0.1 delta=2^-10",
                loop_s: l,
                batched_s: b,
                speedup: l / b,
            }
        },
        {
            let (l, b) = time_family(|| CsurosCounter::new(8).unwrap(), n, reps);
            FamilyRow {
                family: "csuros-float",
                params: "d=8",
                loop_s: l,
                batched_s: b,
                speedup: l / b,
            }
        },
    ];

    let mut table = Table::new(vec!["family", "params", "loop", "batched", "speedup"]);
    for r in &rows {
        table.row(vec![
            r.family.to_string(),
            r.params.to_string(),
            format!("{:.1} ms", r.loop_s * 1e3),
            format!("{:.2} us", r.batched_s * 1e6),
            format!("{:.0}x", r.speedup),
        ]);
    }
    print!("{}", table.to_markdown());
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    // The ≥100× claim is stated at n = 10⁷. Batched cost is O(levels)
    // (independent of n) while loop cost is O(n), so the quick smoke run
    // at n = 10⁶ checks a proportionally lower floor.
    let speedup_floor = if ac_bench::quick_mode() { 10.0 } else { 100.0 };
    let fast_ok = min_speedup >= speedup_floor;
    println!("\nmin speedup {min_speedup:.0}x (floor {speedup_floor:.0}x at n = {n})");

    // ----- Report -------------------------------------------------------
    let ok = fast_ok;
    let family_rows = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .str("family", r.family)
                .str("params", r.params)
                .num("loop_seconds", r.loop_s)
                .num("batched_seconds", r.batched_s)
                .num("speedup", r.speedup)
        })
        .collect();
    let report = JsonObject::new()
        .str("experiment", "E12")
        .str("title", "batched fast-forward")
        .bool("quick", ac_bench::quick_mode())
        .int("n_per_family", n)
        .rows("families", family_rows)
        .num("min_speedup", min_speedup)
        .num("speedup_floor", speedup_floor)
        .bool("reproduced", ok);
    write_json_report(&report);

    verdict(
        ok,
        "all counter families fast-forward in O(transitions) (>=100x over the \
         loop)",
    );
    if !ok {
        std::process::exit(1);
    }
}
