//! The merged aggregate's distribution when most keys hold an exact
//! count: a fold that sums exact-epoch counters and merges only the
//! sampled ones must be distributed like one counter fed the whole
//! stream, and like the counter-by-counter fold (Remark 2.4). Checked
//! with two-sample KS tests over fresh populations.

use ac_core::{ApproxCounter, Mergeable, NelsonYuCounter, NyParams};
use ac_engine::{CounterEngine, EngineConfig, EngineSnapshot};
use ac_randkit::{RandomSource, Xoshiro256PlusPlus};
use ac_stats::ks::ks_two_sample;

const TRIALS: u64 = 400;

fn params() -> NyParams {
    NyParams::new(0.2, 8).unwrap()
}

/// How far a counter has advanced: its level plus the filled share of
/// the current epoch. The level alone barely varies at these
/// parameters; `Y` carries the spread the KS tests need.
fn progress(c: &NelsonYuCounter) -> f64 {
    c.level() as f64 + c.y() as f64 / (c.current_threshold() + 1) as f64
}

/// Three thousand keys still in the exact epoch plus three sampled
/// ones: the shape of a Zipf key population. Returns the frozen
/// population and its exact event total.
fn mixed_population(seed: u64) -> (EngineSnapshot<NelsonYuCounter>, u64) {
    let mut e = CounterEngine::new(
        NelsonYuCounter::new(params()),
        EngineConfig::new().with_shards(8).with_seed(seed),
    );
    let mut batch: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k, k % 40 + 1)).collect();
    batch.extend([(10_001, 6_000), (10_002, 20_000), (10_003, 90_000)]);
    e.apply(&batch);
    let snap = e.snapshot();
    let sampled = snap
        .iter()
        .filter(|(_, c)| c.exact_count().is_none())
        .count();
    assert_eq!(sampled, 3, "three sampled keys, the rest exact");
    let n = snap.total_events();
    (snap, n)
}

/// The merge law's reference: every counter merged in turn into a
/// fresh counter, with no exact-count shortcut.
fn pairwise_fold(
    snap: &EngineSnapshot<NelsonYuCounter>,
    rng: &mut dyn RandomSource,
) -> NelsonYuCounter {
    let mut total = NelsonYuCounter::new(params());
    for (_, c) in snap.iter() {
        total.merge_from(c, rng).unwrap();
    }
    total
}

#[test]
fn mixed_population_fold_matches_one_counter_over_the_total() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
    let mut folded = Vec::new();
    let mut single = Vec::new();
    for trial in 0..TRIALS {
        let (snap, n) = mixed_population(1_000 + trial);
        folded.push(progress(&snap.merged_total(&mut rng).unwrap()));
        let mut c = NelsonYuCounter::new(params());
        c.increment_by(n, &mut rng);
        single.push(progress(&c));
    }
    let ks = ks_two_sample(&folded, &single);
    assert!(ks.p_value > 0.001, "KS p={} D={}", ks.p_value, ks.statistic);
}

#[test]
fn mixed_population_fold_matches_the_pairwise_fold() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(37);
    let mut summed = Vec::new();
    let mut pairwise = Vec::new();
    for trial in 0..TRIALS {
        let (snap, _) = mixed_population(5_000 + 2 * trial);
        summed.push(progress(&snap.merged_total(&mut rng).unwrap()));
        let (snap, _) = mixed_population(5_001 + 2 * trial);
        pairwise.push(progress(&pairwise_fold(&snap, &mut rng)));
    }
    let ks = ks_two_sample(&summed, &pairwise);
    assert!(ks.p_value > 0.001, "KS p={} D={}", ks.p_value, ks.statistic);
}
