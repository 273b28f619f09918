//! **E14** — tiered accuracy under a global memory budget: on a
//! heavy-tailed keyed workload, a [`Store`] running the default tier
//! ladder under a hard `state_bits_total` ceiling keeps the whole-run
//! footprint under the budget while cutting the hot keys' relative error
//! far below every *uniform* (untiered) allocation that fits the same
//! budget.
//!
//! The workload sits in the paper's motivating regime — many counters,
//! large counts — where exact counters for everyone would blow the
//! budget but a flat approximate tier wastes accuracy on the heavy hits
//! that dominate queries. Tiering spends the budget where the mass is.
//!
//! Emits `BENCH_tiering.json` via `--json` (gated by CI).

use ac_bench::{header, json::JsonObject, section, sized, verdict, write_json_report};
use ac_core::{ApproxCounter, TierPolicy};
use ac_engine::{CounterEngine, EngineConfig, Store};
use ac_randkit::{UniformU64, Xoshiro256PlusPlus};
use ac_sim::{report::Table, ZipfKeys};

/// Zipf exponent of the key-popularity law.
const THETA: f64 = 1.1;
/// The global ceiling, expressed per key of the universe.
const BUDGET_BITS_PER_KEY: u64 = 8;
/// Hot ranks whose error the experiment scores.
const TOP_RANKS: u64 = 100;
/// Acceptance band on the merged aggregate's relative error (the tier-1
/// rung's ε — the aggregate must do no worse than the first approximate
/// promotion rung even though most keys sit in the cheaper tier 0).
const AGGREGATE_BAND: f64 = 0.25;
/// Per-pair coalesced delta range: pairs arrive pre-aggregated (the
/// batched amortized model), pushing per-key counts into the regime
/// where exact counters for everyone exceed the budget.
const DELTA_RANGE: (u64, u64) = (1, 2_000);
/// Pairs per ingest flush / baseline apply chunk.
const CHUNK: usize = 1 << 16;

/// One configuration's measured footprint and hot-key error.
struct ConfigRow {
    label: String,
    state_bits_total: u64,
    bits_per_key: f64,
    feasible: bool,
    mean_rel_err: f64,
    max_rel_err: f64,
}

/// Mean and max relative error over the scored hot ranks.
fn score_top(
    workload: &ZipfKeys,
    exact: &[u64],
    estimate: impl Fn(u64) -> Option<f64>,
) -> (f64, f64) {
    let (mut sum, mut max, mut scored) = (0.0f64, 0.0f64, 0u32);
    for rank in 1..=TOP_RANKS.min(workload.keys()) {
        let truth = exact[(rank - 1) as usize];
        if truth == 0 {
            continue;
        }
        let est = estimate(workload.key_of_rank(rank)).unwrap_or(0.0);
        let rel = (est - truth as f64).abs() / truth as f64;
        sum += rel;
        max = max.max(rel);
        scored += 1;
    }
    assert!(scored > 0, "no hot rank received any events");
    (sum / f64::from(scored), max)
}

fn main() {
    let keys = sized(1_000_000, 50_000) as u64;
    let pairs = sized(10_000_000, 500_000) as u64;
    let ladder = TierPolicy::default_ladder();
    let store_spec = *ladder.default_spec();

    header(
        "E14",
        "tiered accuracy: per-key counter tiers under a global memory budget",
        "under one state_bits_total ceiling, promoting detected heavy hitters up \
         an estimate-preserving accuracy ladder beats every uniform allocation \
         that fits the same budget on hot-key error, without ever exceeding the \
         ceiling",
    );

    // ----- The workload: one deterministic stream, replayed per config --
    let workload = ZipfKeys::new(keys, THETA, 0xE14_5A17).expect("valid Zipf workload");
    let delta_dist = UniformU64::new(DELTA_RANGE.0, DELTA_RANGE.1).expect("valid delta range");
    let mut gen_rng = Xoshiro256PlusPlus::seed_from_u64(0xE14_5EED);
    let mut stream: Vec<(u32, u32)> = Vec::with_capacity(pairs as usize);
    let mut exact = vec![0u64; keys as usize];
    let mut total_events = 0u64;
    for _ in 0..pairs {
        let rank = workload.sample_rank(&mut gen_rng);
        let delta = delta_dist.sample(&mut gen_rng);
        stream.push((rank as u32, delta as u32));
        exact[(rank - 1) as usize] += delta;
        total_events += delta;
    }
    // The budget is "bits per key" over the keys that actually exist:
    // the engine materializes a counter only on first touch, so sizing
    // the ceiling off the universe would hand every config free slack
    // for counters that are never allocated.
    let live_keys = exact.iter().filter(|&&n| n > 0).count() as u64;
    let budget_bits = live_keys * BUDGET_BITS_PER_KEY;
    println!(
        "{keys} keys ({live_keys} touched), Zipf({THETA}) popularity, {pairs} \
         coalesced pairs with delta ~ Uniform[{}, {}], budget {budget_bits} bits \
         ({BUDGET_BITS_PER_KEY} bits per live key)",
        DELTA_RANGE.0, DELTA_RANGE.1
    );
    println!("ladder: {:?}", ladder.specs());

    // ----- Tiered run: the Store under the ladder + budget --------------
    section("tiered store (default ladder, hard ceiling)");
    let snapshot_every = (total_events / 64).max(1);
    let store = Store::builder(store_spec)
        .with_shards(16)
        .with_seed(0xE14)
        .with_snapshot_every_events(snapshot_every)
        .with_tiering(ladder.clone(), budget_bits)
        .start()
        .expect("start tiered store");
    let mut writer = store.writer();
    let mut max_observed_bits = 0u64;
    let mut ceiling_breaches = 0u32;
    for chunk in stream.chunks(CHUNK) {
        for &(rank, delta) in chunk {
            writer.record(workload.key_of_rank(u64::from(rank)), u64::from(delta));
        }
        writer.flush().expect("flush tiered batch");
        // Poll the published replica's footprint: the ceiling must hold
        // at every observation, not just at the end.
        let bits = store.stats().engine.state_bits_total;
        max_observed_bits = max_observed_bits.max(bits);
        if bits > budget_bits {
            ceiling_breaches += 1;
        }
    }
    let reader = store.reader();
    let report = store.close().expect("close tiered store");
    let mut reader = reader;
    reader.refresh();

    let final_stats = report.stats;
    max_observed_bits = max_observed_bits.max(final_stats.state_bits_total);
    if final_stats.state_bits_total > budget_bits {
        ceiling_breaches += 1;
    }
    let within_budget = ceiling_breaches == 0;
    let (tiered_mean, tiered_max) = score_top(&workload, &exact, |key| reader.estimate(key));
    let merged = reader.merged_estimate().expect("merged aggregate");
    let aggregate_rel = (merged - total_events as f64).abs() / total_events as f64;
    let aggregate_ok = aggregate_rel <= AGGREGATE_BAND;

    println!(
        "applied {} events over {} keys; state bits {} (max observed {}, ceiling {})",
        final_stats.events,
        final_stats.keys,
        final_stats.state_bits_total,
        max_observed_bits,
        budget_bits
    );
    println!(
        "tier occupancy {:?}; top-{TOP_RANKS} rel err mean {:.4} max {:.4}; \
         aggregate rel err {:.4} (band {AGGREGATE_BAND})",
        final_stats.tier_keys, tiered_mean, tiered_max, aggregate_rel
    );
    assert_eq!(final_stats.events, total_events, "exact event bookkeeping");

    let tiered_row = ConfigRow {
        label: format!("tiered ({} rungs)", ladder.tiers()),
        state_bits_total: final_stats.state_bits_total,
        bits_per_key: final_stats.bits_per_key(),
        feasible: within_budget,
        mean_rel_err: tiered_mean,
        max_rel_err: tiered_max,
    };

    // ----- Untiered baselines: each rung as a uniform allocation --------
    section("untiered baselines (one rung for every key, same stream)");
    let mut baselines: Vec<ConfigRow> = Vec::new();
    for spec in ladder.specs() {
        let template = spec.build().expect("ladder rung builds");
        let mut engine = CounterEngine::new(
            template,
            EngineConfig::new().with_shards(16).with_seed(0xE14),
        );
        let mut buf: Vec<(u64, u64)> = Vec::with_capacity(CHUNK);
        for chunk in stream.chunks(CHUNK) {
            buf.clear();
            buf.extend(
                chunk.iter().map(|&(rank, delta)| {
                    (workload.key_of_rank(u64::from(rank)), u64::from(delta))
                }),
            );
            engine.apply(&buf);
        }
        let stats = engine.stats();
        let (mean, max) = score_top(&workload, &exact, |key| {
            engine.counter(key).map(ApproxCounter::estimate)
        });
        baselines.push(ConfigRow {
            label: format!("{} {spec:?}", spec.family_name()),
            state_bits_total: stats.state_bits_total,
            bits_per_key: stats.bits_per_key(),
            feasible: stats.state_bits_total <= budget_bits,
            mean_rel_err: mean,
            max_rel_err: max,
        });
    }

    let mut table = Table::new(vec![
        "config",
        "state bits",
        "bits/key",
        "fits budget",
        "top-100 mean err",
        "top-100 max err",
    ]);
    for row in std::iter::once(&tiered_row).chain(baselines.iter()) {
        table.row(vec![
            row.label.clone(),
            format!("{}", row.state_bits_total),
            format!("{:.2}", row.bits_per_key),
            if row.feasible { "yes" } else { "no" }.into(),
            format!("{:.4}", row.mean_rel_err),
            format!("{:.4}", row.max_rel_err),
        ]);
    }
    print!("{}", table.to_markdown());

    let best_feasible = baselines
        .iter()
        .filter(|row| row.feasible)
        .map(|row| row.mean_rel_err)
        .fold(f64::INFINITY, f64::min);
    let beats_untiered = best_feasible.is_finite() && tiered_mean < best_feasible;
    println!(
        "\nbest feasible untiered top-{TOP_RANKS} mean err {best_feasible:.4} \
         vs tiered {tiered_mean:.4}"
    );

    // ----- Report -------------------------------------------------------
    let ok = within_budget && aggregate_ok && beats_untiered;
    let config_json = |row: &ConfigRow| {
        JsonObject::new()
            .str("config", &row.label)
            .int("state_bits_total", row.state_bits_total)
            .num("bits_per_key", row.bits_per_key)
            .bool("fits_budget", row.feasible)
            .num("top_mean_rel_error", row.mean_rel_err)
            .num("top_max_rel_error", row.max_rel_err)
    };
    let report = JsonObject::new()
        .str("experiment", "E14")
        .str("title", "tiered accuracy under a global memory budget")
        .bool("quick", ac_bench::quick_mode())
        .int("keys", keys)
        .int("pairs", pairs)
        .int("events", total_events)
        .num("theta", THETA)
        .int("budget_bits", budget_bits)
        .int("budget_bits_per_key", BUDGET_BITS_PER_KEY)
        .int("top_ranks", TOP_RANKS)
        .obj(
            "tiered",
            config_json(&tiered_row)
                .int("max_observed_state_bits", max_observed_bits)
                .int("ceiling_breaches", u64::from(ceiling_breaches))
                .bool("within_budget", within_budget)
                .rows(
                    "tier_occupancy",
                    final_stats
                        .tier_keys
                        .iter()
                        .enumerate()
                        .map(|(tier, &count)| {
                            JsonObject::new()
                                .int("tier", tier as u64)
                                .int("keys", count)
                        })
                        .collect(),
                )
                .num("aggregate_relative_error", aggregate_rel)
                .num("aggregate_band", AGGREGATE_BAND)
                .bool("aggregate_ok", aggregate_ok),
        )
        .rows("untiered", baselines.iter().map(config_json).collect())
        .num("best_feasible_untiered_error", best_feasible)
        .bool("tiered_beats_untiered", beats_untiered)
        .bool("reproduced", ok);
    write_json_report(&report);

    verdict(
        ok,
        "the tiered store held state_bits_total under the ceiling for the whole \
         run, kept the merged aggregate inside the band, and beat every uniform \
         allocation that fits the same budget on hot-key error",
    );
    if !ok {
        std::process::exit(1);
    }
}
