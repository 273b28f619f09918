//! The cross-shard aggregates, from three sides.
//!
//! * **Distribution** — when most keys hold an exact count, the merged
//!   state (Remark 2.4), which sums exact-epoch counters and merges only
//!   the sampled ones, must be distributed like one counter fed the
//!   whole stream, and like the counter-by-counter fold. Checked with
//!   two-sample KS tests over fresh populations.
//! * **Bookkeeping** — each shard keeps one integer book, the sum of its
//!   counters' unbiased counts, as it applies writes, restores, delta
//!   folds and tier migrations, so the merged estimate reads no Exact or
//!   Nelson–Yu counter. After every such step the merged estimate must
//!   equal a from-scratch sum over every counter, and the merged state a
//!   from-scratch fold in (shard, key) order, state for state and draw
//!   for draw. Debug builds also audit every shard's book against a scan
//!   inside each merged estimate. Because the fold follows key order,
//!   not arrival order, an engine and its restored copy merge to equal
//!   states.
//! * **At scale** — a keyed workload with most keys lightly touched keeps
//!   exact event and key totals, and its merged aggregate lands within
//!   2ε of the exact event total.

use ac_core::{ApproxCounter, CounterFamily, CounterSpec, TierMove, TierPolicy};
use ac_engine::{
    checkpoint, fold_checkpoint_delta, restore_checkpoint, Checkpoint, CounterEngine, EngineConfig,
    EngineSnapshot,
};
use ac_randkit::{mix64, RandomSource, Xoshiro256PlusPlus, Zipf};
use ac_stats::ks::ks_two_sample;
use proptest::prelude::*;

const TRIALS: u64 = 400;

const EPS: f64 = 0.2;

const NY: CounterSpec = CounterSpec::NelsonYu {
    eps: EPS,
    delta_log2: 8,
};

fn ny() -> CounterFamily {
    NY.build().unwrap()
}

/// How far a Nelson–Yu counter has advanced: its level plus the filled
/// share of the current epoch. The level alone barely varies at these
/// parameters; `Y` carries the spread the KS tests need.
fn progress(c: &CounterFamily) -> f64 {
    let CounterFamily::NelsonYu(c) = c else {
        panic!("a Nelson-Yu counter");
    };
    c.level() as f64 + c.y() as f64 / (c.current_threshold() + 1) as f64
}

/// Three thousand keys still in the exact epoch plus three sampled
/// ones: the shape of a Zipf key population. Returns the frozen
/// population and its exact event total.
fn mixed_population(seed: u64) -> (EngineSnapshot, u64) {
    let mut e = CounterEngine::new(ny(), EngineConfig::new().with_shards(8).with_seed(seed));
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
fn pairwise_fold(snap: &EngineSnapshot, rng: &mut dyn RandomSource) -> CounterFamily {
    let mut total = ny();
    for (_, c) in snap.iter() {
        ac_core::Mergeable::merge_from(&mut total, c, rng).unwrap();
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
        let mut c = ny();
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

fn all_specs() -> [CounterSpec; 5] {
    [
        CounterSpec::Exact,
        CounterSpec::Morris { a: 0.5 },
        CounterSpec::MorrisPlus {
            eps: 0.2,
            delta_log2: 6,
        },
        CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 6,
        },
        CounterSpec::Csuros { mantissa_bits: 4 },
    ]
}

/// A snapshot's counters in fold order: shard by shard, ascending key
/// within each shard.
fn fold_order(snap: &EngineSnapshot) -> Vec<(u64, &CounterFamily)> {
    // The partition depends on the config alone, so a fresh engine built
    // with the snapshot's config names every key's shard.
    let router = CounterEngine::new(ny(), snap.config());
    let mut entries: Vec<_> = snap.iter().collect();
    entries.sort_unstable_by_key(|&(key, _)| (router.shard_of(key), key));
    entries
}

/// The merged aggregate by definition: scan every counter in fold
/// order, merge the ones without an exact count as they come, and apply
/// the summed exact counts once at the end.
fn reference_total(
    snap: &EngineSnapshot,
    template: &CounterFamily,
    rng: &mut dyn RandomSource,
) -> CounterFamily {
    let mut total = template.clone();
    total.reset();
    let mut exact = 0u64;
    for (_, c) in fold_order(snap) {
        match c.exact_count() {
            Some(n) => exact += n,
            None => ac_core::Mergeable::merge_from(&mut total, c, rng).unwrap(),
        }
    }
    if exact > 0 {
        total.increment_by(exact, rng);
    }
    total
}

/// The merged estimate by definition: the `u64` sum of every Exact
/// count and every Nelson–Yu `Y·2ᵗ`, plus the estimates of the other
/// families' counters, summed in ascending key order.
fn reference_estimate(snap: &EngineSnapshot) -> f64 {
    let mut counts = 0u64;
    let mut others: Vec<(u64, f64)> = Vec::new();
    for (key, c) in snap.iter() {
        match c {
            CounterFamily::Exact(c) => counts += c.exact_count().unwrap(),
            CounterFamily::NelsonYu(c) => counts += c.y() << c.sampling_exponent(),
            _ => others.push((key, c.estimate())),
        }
    }
    others.sort_unstable_by_key(|&(key, _)| key);
    counts as f64 + others.iter().map(|&(_, est)| est).sum::<f64>()
}

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

/// The engine's aggregates against the references: the merged estimate
/// equal to the from-scratch sum, and the fold, same seed, to equal
/// states and equal RNG streams afterwards.
fn assert_total_matches_reference(
    snap: &EngineSnapshot,
    template: &CounterFamily,
    seed: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snap.merged_estimate(), reference_estimate(snap));
    let (mut a, mut b) = (rng(seed), rng(seed));
    let folded = snap.merged_total(&mut a).unwrap();
    prop_assert_eq!(folded, reference_total(snap, template, &mut b));
    prop_assert_eq!(a.next_u64(), b.next_u64());
    Ok(())
}

/// Two snapshots holding the same counters merge to equal states.
fn assert_same_total(
    a: &EngineSnapshot,
    b: &EngineSnapshot,
    seed: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.merged_total(&mut rng(seed)).unwrap(),
        b.merged_total(&mut rng(seed)).unwrap()
    );
    Ok(())
}

proptest! {
    /// Writes, a delta chain folded one frame at a time, a whole-chain
    /// restore, migrations over the default ladder and back, writes into
    /// migrated keys and a tiered restore: after each step the merged
    /// estimate equals the reference sum and, before tiering, the fold
    /// equals the reference scan, for all five families.
    #[test]
    fn merged_fold_matches_a_reference_scan_through_every_state_change(
        seed in 0u64..10_000,
        spec_idx in 0usize..5,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..300, 1u64..400), 1..80),
            2..5,
        ),
        moves in proptest::collection::vec((0u64..300, 0u8..5), 1..40),
    ) {
        let spec = all_specs()[spec_idx];
        let template = spec.build().unwrap();
        let config = EngineConfig::new().with_shards(4).with_seed(seed);
        let mut engine = CounterEngine::new(template.clone(), config);
        let mut frames: Vec<Checkpoint> = Vec::new();
        let mut replica: Option<CounterEngine> = None;
        let one_rung = std::slice::from_ref(&spec);
        for batch in &batches {
            engine.apply(batch);
            let snap = engine.snapshot();
            assert_total_matches_reference(&snap, &template, seed)?;
            let frame = match frames.last() {
                None => checkpoint(&snap, None, None).unwrap(),
                Some(parent) => checkpoint(&snap, None, Some(&parent.header())).unwrap(),
            };
            match (&mut replica, frames.last()) {
                (Some(r), Some(parent)) => {
                    fold_checkpoint_delta(r, one_rung, &parent.header(), frame.bytes()).unwrap();
                }
                _ => replica = Some(restore_checkpoint(one_rung, &[frame.bytes()]).unwrap()),
            }
            let folded = replica.as_mut().unwrap().snapshot();
            assert_total_matches_reference(&folded, &template, seed)?;
            assert_same_total(&snap, &folded, seed)?;
            frames.push(frame);
        }
        let chain: Vec<&[u8]> = frames.iter().map(|f| f.bytes()).collect();
        let restored = restore_checkpoint(one_rung, &chain).unwrap().snapshot();
        assert_total_matches_reference(&restored, &template, seed)?;
        assert_same_total(&engine.snapshot(), &restored, seed)?;

        // The default ladder above the engine's own rung: migrations move
        // keys into and out of the book and between every family.
        let ladder: Vec<CounterSpec> = std::iter::once(spec)
            .chain(TierPolicy::default_ladder().specs().iter().copied())
            .collect();
        let moves: Vec<TierMove> = moves.iter().map(|&(key, tier)| TierMove { key, tier }).collect();
        for round in 0..2 {
            if round == 0 {
                engine.apply_migrations(&ladder, &moves).unwrap();
            } else {
                engine.apply(&batches[0]);
            }
            let snap = engine.snapshot();
            let merged = snap.merged_estimate();
            prop_assert_eq!(merged, reference_estimate(&snap));

            let frame = checkpoint(&snap, Some(&ladder), None).unwrap();
            let copy = restore_checkpoint(&ladder, &[frame.bytes()]).unwrap().snapshot();
            prop_assert_eq!(copy.merged_estimate(), merged);
        }
    }
}

/// `events` Zipf(1.1) draws over `keys` ranks, each rank scattered to an
/// opaque key so first-touch order has nothing to do with key order.
fn zipf_stream(keys: u64, events: usize, seed: u64) -> Vec<(u64, u64)> {
    let zipf = Zipf::new(keys, 1.1).unwrap();
    let mut r = rng(seed);
    (0..events)
        .map(|_| (mix64(zipf.sample(&mut r)), 1))
        .collect()
}

#[test]
fn an_engine_and_its_restored_copy_merge_to_equal_states() {
    let spec = CounterSpec::NelsonYu {
        eps: 0.3,
        delta_log2: 2,
    };
    for seed in 0..20u64 {
        let mut engine = CounterEngine::new(
            spec.build().unwrap(),
            EngineConfig::new().with_shards(8).with_seed(seed),
        );
        for batch in zipf_stream(20_000, 60_000, seed).chunks(1_024) {
            engine.apply(batch);
        }
        let snap = engine.snapshot();
        let sampled = snap
            .iter()
            .filter(|(_, c)| c.exact_count().is_none())
            .count();
        assert!(sampled >= 10, "seed {seed}: only {sampled} sampled keys");
        let restored =
            restore_checkpoint(&[spec], &[checkpoint(&snap, None, None).unwrap().bytes()])
                .unwrap()
                .snapshot();
        let fold_seed = mix64(seed);
        assert_eq!(
            snap.merged_total(&mut rng(fold_seed)).unwrap(),
            restored.merged_total(&mut rng(fold_seed)).unwrap(),
            "seed {seed}"
        );
    }
}

/// The keyed workload at test size: every key touched once, then the
/// rest of the event budget on hashed keys with small deltas, so most
/// counters see light traffic. Event and key totals are exact, and the
/// cross-shard merged aggregate lands within 2ε of the exact total.
#[test]
fn keyed_workload_books_exactly_and_merges_within_two_eps() {
    const KEYS: u64 = 20_000;
    const EVENTS: u64 = 200_000;
    let mut engine = CounterEngine::new(ny(), EngineConfig::new().with_shards(32).with_seed(0xE12));
    let mut pairs: Vec<(u64, u64)> = (0..KEYS).map(|key| (key, 1)).collect();
    let mut remaining = EVENTS - KEYS;
    let mut keygen = rng(0x5EED);
    while remaining > 0 {
        let key = keygen.next_u64() % KEYS;
        let delta = (1 + keygen.next_u64() % 32).min(remaining);
        pairs.push((key, delta));
        remaining -= delta;
    }
    for chunk in pairs.chunks(1 << 16) {
        engine.apply(chunk);
    }
    let stats = engine.stats();
    assert_eq!(stats.events, EVENTS, "exact event bookkeeping");
    assert_eq!(stats.keys as u64, KEYS, "every key materialized");

    let total = engine.merged_total(&mut rng(0xE12_A66)).unwrap();
    let exact = EVENTS as f64;
    let rel = (total.estimate() - exact).abs() / exact;
    assert!(rel <= 2.0 * EPS, "merged rel err {rel} past 2 eps");
}
