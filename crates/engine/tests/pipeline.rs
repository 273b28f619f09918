//! Property tests for the engine pipeline: `restore(checkpoint(engine))`
//! preserves every key's estimate, `state_bits`, and the RNG-independent
//! metadata (key count, exact event totals, config) across all five
//! counter families; the copy-on-write freeze is bit-identical to the
//! legacy deep-clone freeze under arbitrary interleavings of writes and
//! freezes; base + delta chains fold back to exactly the engine a full
//! checkpoint restores — RNG streams included; and corrupted checkpoints,
//! broken chains, and mismatched restores are rejected with typed errors,
//! never a panic or a silently wrong engine.

use ac_bitio::{BitVec, BitWriter};
use ac_core::{
    CsurosCounter, ExactCounter, MorrisCounter, MorrisPlus, NelsonYuCounter, NyParams, StateCodec,
};
use ac_engine::{
    checkpoint, fold_checkpoint_delta, restore_checkpoint, Checkpoint, CheckpointError,
    CounterEngine, EngineConfig,
};
use proptest::prelude::*;

/// Builds an engine over the given workload and checkpoints it.
fn engine_and_checkpoint<C: StateCodec + Clone + Send + Sync>(
    template: &C,
    shards: usize,
    seed: u64,
    events: &[(u64, u64)],
) -> (CounterEngine<C>, Checkpoint) {
    let mut engine = CounterEngine::new(
        template.clone(),
        EngineConfig::new().with_shards(shards).with_seed(seed),
    );
    engine.apply(events);
    let ck = checkpoint(&engine.snapshot(), None, None).unwrap();
    (engine, ck)
}

/// The family-generic "bit-identical persistent state" oracle.
fn encoded<C: StateCodec>(c: &C) -> BitVec {
    let mut v = BitVec::new();
    c.encode_state(&mut BitWriter::new(&mut v));
    v
}

/// The family-generic fidelity check.
fn assert_restores_exactly<C: StateCodec + Clone + Send + Sync>(
    template: &C,
    shards: usize,
    seed: u64,
    events: &[(u64, u64)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (engine, ck) = engine_and_checkpoint(template, shards, seed, events);
    let restored = restore_checkpoint(std::slice::from_ref(template), &[ck.bytes()])
        .expect("valid checkpoint");

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
fn assert_cow_and_chain_faithful<C: StateCodec + Clone + Send + Sync>(
    template: &C,
    shards: usize,
    seed: u64,
    schedule: &[(Vec<(u64, u64)>, bool)],
    follow_up: &[(u64, u64)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let config = EngineConfig::new().with_shards(shards).with_seed(seed);
    let mut cow = CounterEngine::new(template.clone(), config);
    let mut deep = CounterEngine::new(template.clone(), config);

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
            restore_checkpoint(std::slice::from_ref(template), &segments).expect("intact chain");

        // Rebuild the stream prefix up to (and including) the last frozen
        // batch on a fresh engine — freezes themselves never perturb
        // counter evolution, so this is the same moment the chain tip
        // describes.
        let last_freeze = schedule
            .iter()
            .rposition(|(_, f)| *f)
            .expect("chain exists");
        let mut at_freeze = CounterEngine::new(template.clone(), config);
        for (batch, _) in &schedule[..=last_freeze] {
            at_freeze.apply(batch);
        }
        let mut via_full = restore_checkpoint(
            std::slice::from_ref(template),
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
        assert_restores_exactly(&ExactCounter::new(), shards, seed, &events)?;
    }

    #[test]
    fn morris_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&MorrisCounter::new(0.25).unwrap(), shards, seed, &events)?;
    }

    #[test]
    fn morris_plus_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&MorrisPlus::new(0.2, 8).unwrap(), shards, seed, &events)?;
    }

    #[test]
    fn nelson_yu_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let template = NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap());
        assert_restores_exactly(&template, shards, seed, &events)?;
    }

    #[test]
    fn csuros_checkpoints_restore_exactly(
        events in prop::collection::vec((0u64..400, 1u64..3_000), 1..150),
        shards in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_restores_exactly(&CsurosCounter::new(8).unwrap(), shards, seed, &events)?;
    }

    #[test]
    fn sparse_u64_keyspace_round_trips(
        // Arbitrary keys anywhere in u64: exercises the Rice gap coder's
        // sparse regime and the first-key fixed field.
        events in prop::collection::vec((proptest::arbitrary::any::<u64>(), 1u64..50), 1..80),
        shards in 1usize..5,
    ) {
        assert_restores_exactly(&ExactCounter::new(), shards, 99, &events)?;
    }

    #[test]
    fn cow_freeze_and_delta_chains_are_faithful_for_every_family(
        schedule in schedules(),
        follow_up in prop::collection::vec((0u64..300, 1u64..200), 1..20),
        shards in 1usize..6,
        seed in 0u64..100_000,
    ) {
        assert_cow_and_chain_faithful(
            &ExactCounter::new(), shards, seed, &schedule, &follow_up)?;
        assert_cow_and_chain_faithful(
            &MorrisCounter::new(0.25).unwrap(), shards, seed, &schedule, &follow_up)?;
        assert_cow_and_chain_faithful(
            &MorrisPlus::new(0.2, 8).unwrap(), shards, seed, &schedule, &follow_up)?;
        assert_cow_and_chain_faithful(
            &NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap()),
            shards, seed, &schedule, &follow_up)?;
        assert_cow_and_chain_faithful(
            &CsurosCounter::new(8).unwrap(), shards, seed, &schedule, &follow_up)?;
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
        let template = NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap());
        let (_, ck) = engine_and_checkpoint(&template, shards, 5, &events);
        let mut bytes = ck.bytes().to_vec();
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            restore_checkpoint(&[template], &[&bytes]).is_err(),
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
        let template = NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap());
        let (mut engine, base) = engine_and_checkpoint(&template, 4, 5, &events);
        engine.apply(&extra);
        let delta = checkpoint(&engine.snapshot(), None, Some(&base.header())).unwrap();
        let mut bytes = delta.bytes().to_vec();
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            restore_checkpoint(&[template], &[base.bytes(), &bytes]).is_err(),
            "flipping delta bit {} went undetected",
            bit
        );
    }

    #[test]
    fn truncation_at_any_point_is_rejected(
        events in prop::collection::vec((0u64..60, 1u64..500), 1..40),
        cut in proptest::arbitrary::any::<u64>(),
    ) {
        let template = NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap());
        let (_, ck) = engine_and_checkpoint(&template, 3, 8, &events);
        let keep = (cut % ck.bytes().len() as u64) as usize;
        let err = restore_checkpoint(&[template], &[&ck.bytes()[..keep]]).unwrap_err();
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
    let ny = NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap());
    let events: Vec<(u64, u64)> = (0..50u64).map(|k| (k, k + 1)).collect();
    let (_, ck) = engine_and_checkpoint(&ny, 4, 1, &events);

    assert_eq!(
        restore_checkpoint(&[MorrisCounter::new(0.5).unwrap()], &[ck.bytes()]).unwrap_err(),
        CheckpointError::ScheduleMismatch
    );
    assert_eq!(
        restore_checkpoint(&[CsurosCounter::new(8).unwrap()], &[ck.bytes()]).unwrap_err(),
        CheckpointError::ScheduleMismatch
    );
    // Same family, different schedule: also refused.
    let other = NelsonYuCounter::new(NyParams::new(0.2, 9).unwrap());
    assert_eq!(
        restore_checkpoint(std::slice::from_ref(&other), &[ck.bytes()]).unwrap_err(),
        CheckpointError::ScheduleMismatch
    );
}

#[test]
fn pinned_config_mismatch_is_refused() {
    // The resident engine a delta folds into pins the config: a delta cut
    // by an engine with another shard count or seed is refused.
    let template = ExactCounter::new();
    let ladder = std::slice::from_ref(&template);
    let events: Vec<(u64, u64)> = (0..30u64).map(|k| (k, 2)).collect();
    let (mut engine, ck) = engine_and_checkpoint(&template, 4, 7, &events);
    let mut resident = restore_checkpoint(ladder, &[ck.bytes()]).unwrap();
    for (shards, seed) in [(5, 7), (4, 8)] {
        let (mut other, other_base) = engine_and_checkpoint(&template, shards, seed, &events);
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
