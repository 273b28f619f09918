//! **E5** — Remark 2.4: the Nelson–Yu counter is *fully mergeable* —
//! `merge(C(N₁), C(N₂))` has the same distribution as `C(N₁ + N₂)` — and
//! so is the Morris counter `[CY20 §2.1]`.
//!
//! Validated with two-sample KS tests between merged and sequential
//! populations, on both the level `X` and the estimate, across several
//! `(N₁, N₂)` splits.
//!
//! A many-counter case checks the engine's merged aggregate the same
//! way: thousands of keys still in the exact epoch plus a few sampled
//! ones, folded by `EngineSnapshot::merged_total` (which sums exact
//! counts and merges only the rest), against one counter fed the same
//! total and against the counter-by-counter fold. The population grows
//! over several batches, so the heavy keys leave the exact epoch
//! mid-life, and is then restored through a checkpoint, so the fold
//! runs on the books a restore rebuilds. That a fold of this population
//! merges exactly its sampled keys — the exact ones only add to a sum —
//! is a unit test of the engine's fold (`registry::tests`).
//!
//! Emits `BENCH_merge_law.json` via `--json` (gated by CI).

use ac_bench::{header, json::JsonObject, section, sized, verdict, write_json_report};
use ac_core::{
    ApproxCounter, CounterFamily, CounterSpec, MorrisCounter, NelsonYuCounter, NyParams,
};
use ac_engine::{checkpoint, restore_checkpoint, CounterEngine, EngineConfig, EngineSnapshot};
use ac_randkit::{trial_seed, Xoshiro256PlusPlus};
use ac_sim::report::{sig, Table};
use ac_stats::ks::{ks_two_sample, KsResult};
use ac_stats::Summary;

/// Keys per many-counter population still in the exact epoch (counts
/// 1..=50, far below NelsonYu(0.25, 2⁻⁸)'s exact-epoch length).
const EXACT_KEYS: u64 = 5_000;
/// The population's sampled keys: a Zipf-like head.
const SAMPLED_COUNTS: [u64; 4] = [6_000, 20_000, 60_000, 150_000];

/// Batches each key's count is split over.
const BATCHES: u64 = 4;

/// One many-counter population, sharded and seeded by `seed`: every
/// key's count arrives split over [`BATCHES`] batches, so the sampled
/// keys leave the exact epoch part-way through, and the frozen engine
/// is then restored from a checkpoint.
fn population(p: NyParams, seed: u64) -> EngineSnapshot {
    let mut engine = CounterEngine::new(
        CounterFamily::NelsonYu(NelsonYuCounter::new(p)),
        EngineConfig::new().with_shards(16).with_seed(seed),
    );
    let counts: Vec<(u64, u64)> = (0..EXACT_KEYS)
        .map(|k| (k, k % 50 + 1))
        .chain(
            SAMPLED_COUNTS
                .iter()
                .enumerate()
                .map(|(i, &n)| (EXACT_KEYS + i as u64, n)),
        )
        .collect();
    for b in 0..BATCHES {
        let batch: Vec<(u64, u64)> = counts
            .iter()
            .map(|&(key, n)| (key, n / BATCHES + u64::from(b < n % BATCHES)))
            .filter(|&(_, delta)| delta > 0)
            .collect();
        engine.apply(&batch);
    }
    let frame = checkpoint(&engine.snapshot(), None, None).unwrap();
    let spec = CounterSpec::NelsonYu {
        eps: p.eps(),
        delta_log2: p.delta_log2(),
    };
    restore_checkpoint(&[spec], &[frame.bytes()])
        .expect("the population restores")
        .snapshot()
}

/// A counter's level plus the filled share of its current epoch: at
/// these parameters the level alone is nearly deterministic, while `Y`
/// carries the spread a KS test can see.
fn progress(c: &NelsonYuCounter) -> f64 {
    c.level() as f64 + c.y() as f64 / (c.current_threshold() + 1) as f64
}

/// The Nelson–Yu counter a population holds.
fn nelson_yu(c: &CounterFamily) -> &NelsonYuCounter {
    match c {
        CounterFamily::NelsonYu(c) => c,
        _ => unreachable!("populations hold Nelson-Yu counters"),
    }
}

fn ks_row(label: &str, ks: &KsResult, ok: bool) -> JsonObject {
    JsonObject::new()
        .str("case", label)
        .num("ks_d", ks.statistic)
        .num("ks_p", ks.p_value)
        .bool("ok", ok)
}

fn main() {
    header(
        "E5",
        "full mergeability (Remark 2.4)",
        "merged counters follow the same distribution as a single counter over \
         N1 + N2 increments; nothing is lost in eps or delta",
    );
    let trials = sized(8_000, 400);

    section("Nelson-Yu merge vs sequential (KS tests on the level X)");
    let p = NyParams::new(0.25, 8).unwrap();
    let mut table = Table::new(vec![
        "N1",
        "N2",
        "KS D",
        "KS p",
        "mean merged",
        "mean sequential",
        "ok",
    ]);
    let mut all_ok = true;
    let mut rows = Vec::new();
    for (case, &(n1, n2)) in [
        (1_000u64, 1_000u64), // both likely in/near the exact epoch
        (30_000, 50_000),     // both sampled
        (500, 200_000),       // asymmetric
        (200_000, 500),       // asymmetric, reversed
    ]
    .iter()
    .enumerate()
    {
        let mut merged_levels = Vec::with_capacity(trials);
        let mut seq_levels = Vec::with_capacity(trials);
        let mut merged_mean = Summary::new();
        let mut seq_mean = Summary::new();
        for i in 0..trials {
            let mut rng =
                Xoshiro256PlusPlus::seed_from_u64(trial_seed(0xE5_00 + case as u64, i as u64));
            let mut c1 = NelsonYuCounter::new(p);
            c1.increment_by(n1, &mut rng);
            let mut c2 = NelsonYuCounter::new(p);
            c2.increment_by(n2, &mut rng);
            c1.merge_from(&c2, &mut rng).unwrap();
            merged_levels.push(c1.level() as f64);
            merged_mean.push(c1.estimate());

            let mut c = NelsonYuCounter::new(p);
            c.increment_by(n1 + n2, &mut rng);
            seq_levels.push(c.level() as f64);
            seq_mean.push(c.estimate());
        }
        let ks = ks_two_sample(&merged_levels, &seq_levels);
        let ok = ks.p_value > 0.001;
        all_ok &= ok;
        rows.push(ks_row(&format!("nelson-yu {n1}+{n2}"), &ks, ok));
        table.row(vec![
            format!("{n1}"),
            format!("{n2}"),
            sig(ks.statistic, 3),
            sig(ks.p_value, 3),
            sig(merged_mean.mean(), 4),
            sig(seq_mean.mean(), 4),
            format!("{}", if ok { "yes" } else { "NO" }),
        ]);
    }
    print!("{}", table.to_markdown());

    section("Morris merge vs sequential [CY20 §2.1]");
    let a = 0.5;
    let mut table = Table::new(vec!["N1", "N2", "KS D", "KS p", "ok"]);
    for (case, &(n1, n2)) in [(300u64, 700u64), (5_000, 5_000), (50, 20_000)]
        .iter()
        .enumerate()
    {
        let mut merged_levels = Vec::with_capacity(trials);
        let mut seq_levels = Vec::with_capacity(trials);
        for i in 0..trials {
            let mut rng =
                Xoshiro256PlusPlus::seed_from_u64(trial_seed(0xE5_80 + case as u64, i as u64));
            let mut c1 = MorrisCounter::new(a).unwrap();
            c1.increment_by(n1, &mut rng);
            let mut c2 = MorrisCounter::new(a).unwrap();
            c2.increment_by(n2, &mut rng);
            c1.merge_from(&c2, &mut rng).unwrap();
            merged_levels.push(c1.level() as f64);

            let mut c = MorrisCounter::new(a).unwrap();
            c.increment_by(n1 + n2, &mut rng);
            seq_levels.push(c.level() as f64);
        }
        let ks = ks_two_sample(&merged_levels, &seq_levels);
        let ok = ks.p_value > 0.001;
        all_ok &= ok;
        rows.push(ks_row(&format!("morris {n1}+{n2}"), &ks, ok));
        table.row(vec![
            format!("{n1}"),
            format!("{n2}"),
            sig(ks.statistic, 3),
            sig(ks.p_value, 3),
            format!("{}", if ok { "yes" } else { "NO" }),
        ]);
    }
    print!("{}", table.to_markdown());

    section("Many counters: the engine's merged aggregate (KS tests on X + Y/(threshold+1))");
    let pop_trials = sized(2_000, 300);
    let probe = population(p, 0);
    let keys = probe.len() as u64;
    let total = probe.total_events();
    let exact_keys = probe
        .iter()
        .filter(|(_, c)| c.exact_count().is_some())
        .count() as u64;
    let sampled_keys = keys - exact_keys;
    println!(
        "{keys} keys ({exact_keys} with an exact count, {sampled_keys} sampled), N = {total}, \
         grown over {BATCHES} batches and restored from a checkpoint, {pop_trials} trials per side"
    );
    let mut folded = Vec::with_capacity(pop_trials);
    let mut single = Vec::with_capacity(pop_trials);
    let mut pairwise = Vec::with_capacity(pop_trials);
    let mut folded_ratio = Summary::new();
    for i in 0..pop_trials {
        let i = i as u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(trial_seed(0xE5_C0, i));
        let merged = population(p, 3 * i).merged_total(&mut rng).unwrap();
        folded.push(progress(nelson_yu(&merged)));
        folded_ratio.push(merged.estimate() / total as f64);

        let mut c = NelsonYuCounter::new(p);
        c.increment_by(total, &mut rng);
        single.push(progress(&c));

        let mut reference = NelsonYuCounter::new(p);
        for (_, c) in population(p, 3 * i + 1).iter() {
            reference.merge_from(nelson_yu(c), &mut rng).unwrap();
        }
        pairwise.push(progress(&reference));
    }
    let mut table = Table::new(vec!["fold vs", "KS D", "KS p", "ok"]);
    let mut many = Vec::new();
    for (label, other) in [
        ("one counter fed N", &single),
        ("counter-by-counter fold", &pairwise),
    ] {
        let ks = ks_two_sample(&folded, other);
        let ok = ks.p_value > 0.001;
        all_ok &= ok;
        many.push(ks_row(label, &ks, ok));
        table.row(vec![
            label.to_string(),
            sig(ks.statistic, 3),
            sig(ks.p_value, 3),
            format!("{}", if ok { "yes" } else { "NO" }),
        ]);
    }
    print!("{}", table.to_markdown());
    println!("mean folded estimate / N = {}", sig(folded_ratio.mean(), 4));

    let report = JsonObject::new()
        .str("experiment", "E5")
        .str("title", "full mergeability (Remark 2.4)")
        .bool("quick", ac_bench::quick_mode())
        .int("trials", trials as u64)
        .rows("pairs", rows)
        .obj(
            "many_counters",
            JsonObject::new()
                .int("trials", pop_trials as u64)
                .int("keys", keys)
                .int("exact_count_keys", exact_keys)
                .int("sampled_keys", sampled_keys)
                .int("batches", BATCHES)
                .int("total_events", total)
                .num("mean_estimate_ratio", folded_ratio.mean())
                .rows("ks", many),
        )
        .bool("reproduced", all_ok);
    write_json_report(&report);

    verdict(
        all_ok,
        "merged and sequential level distributions are statistically \
         indistinguishable for both algorithms across all tested splits, \
         and the engine's many-counter fold matches one counter over the total",
    );
}
