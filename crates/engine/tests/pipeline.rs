//! Property tests for the engine pipeline: `restore(checkpoint(engine))`
//! preserves every key's estimate, `state_bits`, and the RNG-independent
//! metadata (key count, exact event totals, config) across all five
//! counter families; the copy-on-write freeze is bit-identical to the
//! legacy deep-clone freeze under arbitrary interleavings of writes and
//! freezes; base + delta chains fold back to exactly the engine a full
//! checkpoint restores — RNG streams included; corrupted checkpoints,
//! broken chains, and mismatched restores are rejected with typed errors,
//! never a panic or a silently wrong engine; and at fleet shape a full
//! frame costs about its counters' state bits, a restore continues the
//! random stream, and a delta after touching 1% of shards costs about 1%
//! of a full frame.

use ac_bitio::{BitVec, BitWriter, StateBits};
use ac_core::{ApproxCounter, CounterFamily, CounterSpec, StateCodec};
use ac_engine::{
    checkpoint, fold_checkpoint_delta, restore_checkpoint, Checkpoint, CheckpointError,
    CounterEngine, EngineConfig,
};
use ac_randkit::{RandomSource, SplitMix64};
use proptest::prelude::*;

const EXACT: CounterSpec = CounterSpec::Exact;
const MORRIS: CounterSpec = CounterSpec::Morris { a: 0.25 };
const MORRIS_PLUS: CounterSpec = CounterSpec::MorrisPlus {
    eps: 0.2,
    delta_log2: 8,
};
const NELSON_YU: CounterSpec = CounterSpec::NelsonYu {
    eps: 0.2,
    delta_log2: 8,
};
const CSUROS: CounterSpec = CounterSpec::Csuros { mantissa_bits: 8 };

fn engine(spec: &CounterSpec, config: EngineConfig) -> CounterEngine {
    CounterEngine::new(spec.build().unwrap(), config)
}

/// Builds an engine over the given workload and checkpoints it.
fn engine_and_checkpoint(
    spec: &CounterSpec,
    shards: usize,
    seed: u64,
    events: &[(u64, u64)],
) -> (CounterEngine, Checkpoint) {
    let mut engine = engine(
        spec,
        EngineConfig::new().with_shards(shards).with_seed(seed),
    );
    engine.apply(events);
    let ck = checkpoint(&engine.snapshot(), None, None).unwrap();
    (engine, ck)
}

/// The family-generic "bit-identical persistent state" oracle.
fn encoded(c: &CounterFamily) -> BitVec {
    let mut v = BitVec::new();
    c.encode_state(&mut BitWriter::new(&mut v));
    v
}

/// The family-generic fidelity check.
fn assert_restores_exactly(
    spec: &CounterSpec,
    shards: usize,
    seed: u64,
    events: &[(u64, u64)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (engine, ck) = engine_and_checkpoint(spec, shards, seed, events);
    let restored =
        restore_checkpoint(std::slice::from_ref(spec), &[ck.bytes()]).expect("valid checkpoint");

    prop_assert_eq!(restored.len(), engine.len());
    prop_assert_eq!(restored.total_events(), engine.total_events());
    prop_assert_eq!(restored.config(), engine.config());
    prop_assert_eq!(
        restored.stats().state_bits_total,
        ck.stats().counter_state_bits
    );
    for (key, counter) in engine.iter() {
        let back = restored.counter(key);
        prop_assert!(back.is_some(), "key {} lost", key);
        let back = back.expect("checked");
        prop_assert_eq!(
            back.estimate(),
            counter.estimate(),
            "estimate for key {}",
            key
        );
        prop_assert_eq!(
            back.state_bits(),
            counter.state_bits(),
            "state bits for key {}",
            key
        );
    }
    Ok(())
}

/// Drives a random write/freeze/checkpoint schedule and proves, for one
/// family: (a) the CoW snapshot at every freeze point is bit-identical to
/// the deep-clone snapshot of a twin engine fed the same stream; (b) the
/// base + deltas chain cut along the way folds back to exactly what one
/// final full checkpoint restores — and both restored engines continue
/// the same RNG stream under a follow-up batch.
fn assert_cow_and_chain_faithful(
    spec: &CounterSpec,
    shards: usize,
    seed: u64,
    schedule: &[(Vec<(u64, u64)>, bool)],
    follow_up: &[(u64, u64)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let config = EngineConfig::new().with_shards(shards).with_seed(seed);
    let mut cow = engine(spec, config);
    let mut deep = engine(spec, config);

    let mut chain: Vec<Checkpoint> = Vec::new();
    for (batch, freeze) in schedule {
        cow.apply(batch);
        deep.apply(batch);
        if *freeze {
            let snap_cow = cow.snapshot();
            let snap_deep = deep.snapshot_deep();
            prop_assert_eq!(snap_cow.len(), snap_deep.len());
            prop_assert_eq!(snap_cow.total_events(), snap_deep.total_events());
            for (key, counter) in snap_cow.iter() {
                let twin = snap_deep.counter(key);
                prop_assert!(twin.is_some(), "key {} missing from deep freeze", key);
                prop_assert_eq!(
                    encoded(twin.expect("checked")),
                    encoded(counter),
                    "frozen state for key {}",
                    key
                );
            }
            // Extend the checkpoint chain from the CoW snapshot.
            let ck = match chain.last() {
                None => checkpoint(&snap_cow, None, None).unwrap(),
                Some(parent) => checkpoint(&snap_cow, None, Some(&parent.header()))
                    .expect("same engine lineage"),
            };
            chain.push(ck);
        }
    }

    if !chain.is_empty() {
        // The chain tip describes the engine at its *last* freeze; replay
        // the same prefix on a fresh engine to get the full-checkpoint
        // twin of that same moment.
        let segments: Vec<&[u8]> = chain.iter().map(Checkpoint::bytes).collect();
        let mut via_chain =
            restore_checkpoint(std::slice::from_ref(spec), &segments).expect("intact chain");

        // Rebuild the stream prefix up to (and including) the last frozen
        // batch on a fresh engine — freezes themselves never perturb
        // counter evolution, so this is the same moment the chain tip
        // describes.
        let last_freeze = schedule
            .iter()
            .rposition(|(_, f)| *f)
            .expect("chain exists");
        let mut at_freeze = engine(spec, config);
        for (batch, _) in &schedule[..=last_freeze] {
            at_freeze.apply(batch);
        }
        let mut via_full = restore_checkpoint(
            std::slice::from_ref(spec),
            &[checkpoint(&at_freeze.snapshot(), None, None)
                .unwrap()
                .bytes()],
        )
        .expect("valid full checkpoint");

        prop_assert_eq!(via_chain.len(), via_full.len());
        prop_assert_eq!(via_chain.total_events(), via_full.total_events());
        for (key, counter) in via_full.iter() {
            let twin = via_chain.counter(key);
            prop_assert!(twin.is_some(), "key {} missing from chain restore", key);
            prop_assert_eq!(
                encoded(twin.expect("checked")),
                encoded(counter),
                "restored state for key {}",
                key
            );
        }
        // RNG streams: both restored engines must evolve identically.
        via_chain.apply(follow_up);
        via_full.apply(follow_up);
        for &(key, _) in follow_up {
            let a = via_chain.counter(key).map(encoded);
            let b = via_full.counter(key).map(encoded);
            prop_assert_eq!(a, b, "post-restore stream for key {}", key);
        }
    }
    Ok(())
}

/// A random write/freeze schedule: a few batches, each optionally
/// followed by a freeze+checkpoint.
fn schedules() -> impl Strategy<Value = Vec<(Vec<(u64, u64)>, bool)>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u64..300, 1u64..800), 1..25),
            proptest::arbitrary::any::<bool>(),
        ),
        1..8,
    )
}

proptest! {
    #[test]
    fn exact_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&EXACT, shards, seed, &events)?;
    }

    #[test]
    fn morris_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&MORRIS, shards, seed, &events)?;
    }

    #[test]
    fn morris_plus_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&MORRIS_PLUS, shards, seed, &events)?;
    }

    #[test]
    fn nelson_yu_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&NELSON_YU, shards, seed, &events)?;
    }

    #[test]
    fn csuros_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&CSUROS, shards, seed, &events)?;
    }

    #[test]
    fn sparse_u64_keyspace_round_trips(
        // Arbitrary keys anywhere in u64: exercises the Rice gap coder's
        // sparse regime and the first-key fixed field.
        events in prop::collection::vec((proptest::arbitrary::any::<u64>(), 1u64..50), 1..80),
        shards in 1usize..5,
    ) {
        assert_restores_exactly(&EXACT, shards, 99, &events)?;
    }

    #[test]
    fn cow_freeze_and_delta_chains_are_faithful_for_every_family(
        schedule in schedules(),
        follow_up in prop::collection::vec((0u64..300, 1u64..200), 1..20),
        shards in 1usize..6,
        seed in 0u64..100_000,
    ) {
        for spec in [EXACT, MORRIS, MORRIS_PLUS, NELSON_YU, CSUROS] {
            assert_cow_and_chain_faithful(&spec, shards, seed, &schedule, &follow_up)?;
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        events in prop::collection::vec((0u64..60, 1u64..500), 1..40),
        shards in 1usize..5,
        flip in proptest::arbitrary::any::<u64>(),
    ) {
        // Checksums make corruption detection total: flipping any one bit
        // anywhere in the checkpoint must yield a typed error (or, for a
        // handful of prefix bits, a different-but-typed magic/version
        // error). Never a panic, never a silently different engine.
        let (_, ck) = engine_and_checkpoint(&NELSON_YU, shards, 5, &events);
        let mut bytes = ck.bytes().to_vec();
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            restore_checkpoint(&[NELSON_YU], &[&bytes]).is_err(),
            "flipping bit {} went undetected",
            bit
        );
    }

    #[test]
    fn any_single_bit_flip_in_a_delta_is_rejected(
        events in prop::collection::vec((0u64..60, 1u64..500), 1..40),
        extra in prop::collection::vec((0u64..60, 1u64..500), 1..20),
        flip in proptest::arbitrary::any::<u64>(),
    ) {
        let (mut engine, base) = engine_and_checkpoint(&NELSON_YU, 4, 5, &events);
        engine.apply(&extra);
        let delta = checkpoint(&engine.snapshot(), None, Some(&base.header())).unwrap();
        let mut bytes = delta.bytes().to_vec();
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            restore_checkpoint(&[NELSON_YU], &[base.bytes(), &bytes]).is_err(),
            "flipping delta bit {} went undetected",
            bit
        );
    }

    #[test]
    fn truncation_at_any_point_is_rejected(
        events in prop::collection::vec((0u64..60, 1u64..500), 1..40),
        cut in proptest::arbitrary::any::<u64>(),
    ) {
        let (_, ck) = engine_and_checkpoint(&NELSON_YU, 3, 8, &events);
        let keep = (cut % ck.bytes().len() as u64) as usize;
        let err = restore_checkpoint(&[NELSON_YU], &[&ck.bytes()[..keep]]).unwrap_err();
        prop_assert!(
            matches!(err, CheckpointError::Truncated | CheckpointError::Corrupt { .. }),
            "unexpected error for {} kept bytes: {:?}",
            keep,
            err
        );
    }
}

#[test]
fn mismatched_template_families_are_refused() {
    let events: Vec<(u64, u64)> = (0..50u64).map(|k| (k, k + 1)).collect();
    let (_, ck) = engine_and_checkpoint(&NELSON_YU, 4, 1, &events);

    assert_eq!(
        restore_checkpoint(&[CounterSpec::Morris { a: 0.5 }], &[ck.bytes()]).unwrap_err(),
        CheckpointError::ScheduleMismatch
    );
    assert_eq!(
        restore_checkpoint(&[CSUROS], &[ck.bytes()]).unwrap_err(),
        CheckpointError::ScheduleMismatch
    );
    // Same family, different schedule: also refused.
    let other = CounterSpec::NelsonYu {
        eps: 0.2,
        delta_log2: 9,
    };
    assert_eq!(
        restore_checkpoint(&[other], &[ck.bytes()]).unwrap_err(),
        CheckpointError::ScheduleMismatch
    );
}

#[test]
fn pinned_config_mismatch_is_refused() {
    // The resident engine a delta folds into pins the config: a delta cut
    // by an engine with another shard count or seed is refused.
    let ladder = &[EXACT];
    let events: Vec<(u64, u64)> = (0..30u64).map(|k| (k, 2)).collect();
    let (mut engine, ck) = engine_and_checkpoint(&EXACT, 4, 7, &events);
    let mut resident = restore_checkpoint(ladder, &[ck.bytes()]).unwrap();
    for (shards, seed) in [(5, 7), (4, 8)] {
        let (mut other, other_base) = engine_and_checkpoint(&EXACT, shards, seed, &events);
        other.apply(&events);
        let delta = checkpoint(&other.snapshot(), None, Some(&other_base.header())).unwrap();
        assert!(matches!(
            fold_checkpoint_delta(&mut resident, ladder, &ck.header(), delta.bytes()),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }
    engine.apply(&events);
    let delta = checkpoint(&engine.snapshot(), None, Some(&ck.header())).unwrap();
    fold_checkpoint_delta(&mut resident, ladder, &ck.header(), delta.bytes()).unwrap();
    assert_eq!(resident.total_events(), engine.total_events());
}

/// The fleet workload: every key touched once, then the rest of the event
/// budget on hashed keys with small deltas.
fn fleet(keys: u64, events: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = (0..keys).map(|key| (key, 1)).collect();
    let mut remaining = events - keys;
    let mut gen = SplitMix64::new(seed);
    while remaining > 0 {
        let key = gen.next_u64() % keys;
        let delta = (1 + gen.next_u64() % 32).min(remaining);
        pairs.push((key, delta));
        remaining -= delta;
    }
    pairs
}

/// A full frame of a fleet-shaped engine costs its counters' state bits
/// within 2x, plus framing, and writes exactly the state bits the
/// engine's own gauge reports.
#[test]
fn checkpoint_size_tracks_counter_state_bits() {
    let mut e = engine(
        &NELSON_YU,
        EngineConfig::new().with_shards(32).with_seed(0xE13),
    );
    e.apply(&fleet(20_000, 200_000, 0x5EED));
    let state_bits = e.stats().state_bits_total;
    let s = checkpoint(&e.snapshot(), None, None).unwrap().stats();
    assert_eq!(s.counter_state_bits, state_bits);
    assert!(
        s.total_bits <= 2 * s.counter_state_bits + s.header_bits,
        "{} bits total vs 2 x {} state bits + {} framing",
        s.total_bits,
        s.counter_state_bits,
        s.header_bits
    );
}

/// A restore from the bytes is bit-identical key for key — registers,
/// estimates, state bits, totals and config — and continues the exact
/// random stream: the same follow-up batch drives both engines to the
/// same states.
#[test]
fn restore_is_bit_identical_and_continues_the_rng_stream() {
    let mut e = engine(
        &NELSON_YU,
        EngineConfig::new().with_shards(32).with_seed(0xE13),
    );
    e.apply(&fleet(20_000, 200_000, 0x5EED));
    let bytes = checkpoint(&e.snapshot(), None, None).unwrap().into_bytes();
    let mut back = restore_checkpoint(&[NELSON_YU], &[&bytes]).unwrap();
    assert_eq!(back.len(), e.len());
    assert_eq!(back.total_events(), e.total_events());
    assert_eq!(back.config(), e.config());
    for (key, counter) in e.iter() {
        let restored = back.counter(key).expect("key restored");
        assert_eq!(encoded(restored), encoded(counter), "key {key}");
        assert_eq!(restored.estimate(), counter.estimate(), "key {key}");
        assert_eq!(restored.state_bits(), counter.state_bits(), "key {key}");
    }
    let follow_up: Vec<(u64, u64)> = (0..2_000u64)
        .map(|k| (k * 17 % 20_000, 3 + k % 9))
        .collect();
    e.apply(&follow_up);
    back.apply(&follow_up);
    for (key, counter) in e.iter() {
        assert_eq!(
            back.counter(key).map(encoded),
            Some(encoded(counter)),
            "key {key}"
        );
    }
}

/// After touching keys in 2 of 256 shards (under 1%), the delta costs
/// about 1% of the full frame, and base + delta restores to the live
/// engine with the random stream continued.
#[test]
fn delta_at_one_percent_dirty_shards_costs_one_percent_of_a_full_frame() {
    const SHARDS: usize = 256;
    const KEYS: u64 = 100_000;
    let mut e = engine(
        &NELSON_YU,
        EngineConfig::new().with_shards(SHARDS).with_seed(0xE13D),
    );
    e.apply(&(0..KEYS).map(|k| (k, 1 + k % 32)).collect::<Vec<_>>());
    let base = checkpoint(&e.snapshot(), None, None).unwrap();
    let hot: Vec<(u64, u64)> = (0..KEYS)
        .filter(|&k| e.shard_of(k) < 2)
        .take(500)
        .map(|k| (k, 100))
        .collect();
    e.apply(&hot);
    let delta = checkpoint(&e.snapshot(), None, Some(&base.header())).unwrap();
    let dirty = delta.stats().shards_written;
    assert_eq!(dirty, 2);
    assert!(dirty as f64 / SHARDS as f64 <= 0.01);
    let ratio = delta.bytes().len() as f64 / base.bytes().len() as f64;
    assert!(
        ratio <= 0.01,
        "delta is {:.2}% of the full frame",
        ratio * 100.0
    );

    let mut back = restore_checkpoint(&[NELSON_YU], &[base.bytes(), delta.bytes()]).unwrap();
    let follow_up: Vec<(u64, u64)> = (0..2_000u64).map(|k| (k * 17 % KEYS, 3 + k % 9)).collect();
    e.apply(&follow_up);
    back.apply(&follow_up);
    assert_eq!(back.total_events(), e.total_events());
    for (key, counter) in e.iter() {
        assert_eq!(
            back.counter(key).map(encoded),
            Some(encoded(counter)),
            "key {key}"
        );
    }
}
