//! Service-facade guarantees, proven end to end:
//!
//! * **the `Store` applies what a bare engine applies** — a single
//!   writer driving the service reproduces direct `apply` bit for bit;
//! * **crash recovery** — `Store::open` resumes an intact chain
//!   bit-exactly (counters, shard RNG streams, epoch clock), falls back
//!   past a truncated tail delta to the best intact prefix, reports the
//!   per-producer replay cursor, and returns typed errors for empty,
//!   corrupt, or missing manifests and unrestorable directories;
//! * **a tiered store answers a merged total** — keys on different
//!   rungs hold different families, and the merged estimate sums them.

use ac_bitio::{BitVec, BitWriter};
use ac_core::{ApproxCounter, CounterFamily, CounterSpec, StateCodec, TierPolicy};
use ac_engine::{
    compact_checkpoint, read_header, restore_checkpoint, CheckpointKind, CounterEngine,
    EngineConfig, EngineError, IngestConfig, Manifest, Store, StoreOptions,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn encoded(c: &CounterFamily) -> BitVec {
    let mut v = BitVec::new();
    c.encode_state(&mut BitWriter::new(&mut v));
    v
}

proptest! {
    #[test]
    fn store_reproduces_direct_apply_bit_for_bit(
        rounds in prop::collection::vec(
            prop::collection::vec((0u64..120, 1u64..500), 1..12), 1..6),
        shards in 1usize..5,
        seed in 0u64..10_000,
    ) {
        // One writer, one flush per round: the store's applied stream is
        // exactly `rounds` (each round one batch, keys deduplicated to
        // sidestep coalescing-order bookkeeping).
        let spec = CounterSpec::NelsonYu { eps: 0.2, delta_log2: 8 };
        let config = EngineConfig::new().with_shards(shards).with_seed(seed);
        let mut reference = CounterEngine::new(spec.build().unwrap(), config);

        let store = Store::builder(spec)
            .with_shards(shards)
            .with_seed(seed)
            .with_ingest(IngestConfig::new().with_batch_pairs(1_000))
            .start()
            .unwrap();
        let mut writer = store.writer();
        for round in &rounds {
            let mut batch: Vec<(u64, u64)> = Vec::new();
            for &(key, delta) in round {
                if let Some(pair) = batch.iter_mut().find(|p| p.0 == key) {
                    pair.1 += delta;
                } else {
                    batch.push((key, delta));
                }
            }
            for &(key, delta) in &batch {
                writer.record(key, delta);
            }
            prop_assert!(writer.flush().is_ok());
            reference.apply(&batch);
        }
        let mut reader = store.reader();
        let report = store.close().unwrap();
        prop_assert_eq!(report.stats.events, reference.total_events());

        reader.refresh();
        prop_assert_eq!(reader.total_events(), reference.total_events());
        prop_assert_eq!(reader.len(), reference.len());
        for (key, counter) in reference.iter() {
            let twin = reader.counter(key);
            prop_assert!(twin.is_some(), "key {} missing from store", key);
            prop_assert_eq!(
                encoded(twin.expect("checked")),
                encoded(counter),
                "state for key {}",
                key
            );
        }
    }
}

// ---------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ac-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CounterSpec {
    CounterSpec::NelsonYu {
        eps: 0.2,
        delta_log2: 8,
    }
}

/// A durable store fed a deterministic multi-batch stream, shut down by
/// `kill` (no close-time frame) so the directory looks crash-like.
fn write_crashy_store(dir: &Path) -> u64 {
    let store = Store::builder(spec())
        .with_shards(4)
        .with_seed(77)
        .with_ingest(IngestConfig::new().with_batch_pairs(64))
        .with_snapshot_every_events(1_000)
        .with_durability(dir)
        .with_checkpoint_every_events(400)
        .with_max_deltas_per_base(10)
        .start()
        .unwrap();
    let mut w = store.writer();
    let mut total = 0u64;
    for round in 0..8u64 {
        for key in 0..60u64 {
            let delta = 1 + (key + round) % 9;
            w.record(key + 100 * (round % 3), delta);
            total += delta;
        }
        w.flush().unwrap();
    }
    store.kill();
    total
}

fn family_template() -> CounterFamily {
    spec().build().unwrap()
}

/// Reads the chain of the newest base according to the manifest.
fn newest_chain_files(dir: &Path) -> Vec<(PathBuf, CheckpointKind)> {
    let m = Manifest::load(dir).unwrap();
    let base = m
        .frames
        .iter()
        .rposition(|f| f.kind == CheckpointKind::Full)
        .expect("at least one full frame");
    m.frames[base..]
        .iter()
        .map(|f| (dir.join(&f.file), f.kind))
        .collect()
}

fn restore_clean(dir: &Path, drop_tail: usize) -> CounterEngine {
    let files = newest_chain_files(dir);
    let keep = files.len() - drop_tail;
    let segments: Vec<Vec<u8>> = files[..keep]
        .iter()
        .map(|(p, _)| std::fs::read(p).unwrap())
        .collect();
    let refs: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
    restore_checkpoint(&[spec()], &refs).unwrap()
}

fn assert_store_matches_engine(store: &Store, engine: &CounterEngine) {
    let reader = store.reader();
    assert_eq!(reader.total_events(), engine.total_events());
    assert_eq!(reader.len(), engine.len());
    for (key, counter) in engine.iter() {
        let twin = reader.counter(key).expect("key present");
        assert_eq!(encoded(twin), encoded(counter), "state for key {key}");
    }
}

#[test]
fn open_resumes_an_intact_chain_bit_exactly() {
    let dir = tmp_dir("intact");
    let total = write_crashy_store(&dir);
    let frames = Manifest::load(&dir).unwrap().frames;
    assert!(frames.len() >= 2, "cadence must have cut several frames");
    assert_eq!(frames[0].kind, CheckpointKind::Full);
    assert!(frames.iter().any(|f| f.kind == CheckpointKind::Delta));

    // Clean restore of the newest chain == what Store::open serves.
    let clean = restore_clean(&dir, 0);
    let store = Store::open(&dir).unwrap();
    let recovery = store.recovery().expect("opened from disk").clone();
    assert_eq!(recovery.frames_used, newest_chain_files(&dir).len());
    assert_eq!(recovery.frames_skipped, 0, "intact chain, nothing lost");
    assert_eq!(recovery.events, clean.total_events());
    assert!(recovery.events <= total, "a kill may lose the queue tail");
    assert_eq!(recovery.session, 1, "second writer session");
    // The replay cursor: one producer, applied == enqueued at the tip.
    assert_eq!(recovery.last_applied.len(), 1);
    assert!(recovery.last_applied[0].applied_seq > 0);
    assert_store_matches_engine(&store, &clean);

    // Epoch clock resumed: the store's first publish freezes at the
    // epoch the clean restore's clock resumes at.
    let mut clean = clean;
    assert_eq!(store.reader().epoch(), clean.snapshot().epoch());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_falls_back_past_a_truncated_tail_delta() {
    let dir = tmp_dir("truncated");
    write_crashy_store(&dir);
    let files = newest_chain_files(&dir);
    assert!(files.len() >= 2, "need a delta tail to truncate");
    let (tail, kind) = files.last().unwrap();
    assert_eq!(*kind, CheckpointKind::Delta);
    // Tear the newest delta in half — the torn-write crash.
    let bytes = std::fs::read(tail).unwrap();
    std::fs::write(tail, &bytes[..bytes.len() / 2]).unwrap();

    let clean_prefix = restore_clean(&dir, 1);
    let store = Store::open(&dir).unwrap();
    let recovery = store.recovery().expect("opened from disk").clone();
    assert_eq!(recovery.frames_skipped, 1, "the torn tail was dropped");
    assert_eq!(recovery.events, clean_prefix.total_events());
    assert_store_matches_engine(&store, &clean_prefix);

    // RNG streams and epoch clock resumed bit-exactly: the same
    // follow-up stream evolves the reopened store and the clean restore
    // to identical states.
    let mut clean_prefix = clean_prefix;
    assert_eq!(store.reader().epoch(), clean_prefix.snapshot().epoch());
    let follow_up: Vec<(u64, u64)> = (0..150u64).map(|k| (k * 3, 5 + k % 11)).collect();
    let mut w = store.writer();
    for &(key, delta) in &follow_up {
        w.record(key, delta);
    }
    w.flush().unwrap();
    clean_prefix.apply(&follow_up);
    let mut reader = store.reader();
    let _ = store.close().unwrap();
    reader.refresh();
    assert_eq!(reader.total_events(), clean_prefix.total_events());
    for &(key, _) in &follow_up {
        assert_eq!(
            reader.counter(key).map(encoded),
            clean_prefix.counter(key).map(encoded),
            "post-recovery stream for key {key}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_store_checkpoints_under_a_new_session() {
    let dir = tmp_dir("sessions");
    write_crashy_store(&dir);
    let frames_before = Manifest::load(&dir).unwrap().frames.len();

    // Reopen, write a little, close cleanly: the close-time frame lands
    // in the manifest under session 1 and the directory reopens again.
    let store = Store::open(&dir).unwrap();
    let mut w = store.writer();
    for key in 0..40u64 {
        w.record(key, 3);
    }
    w.flush().unwrap();
    let reopened_events = {
        let mut r = store.reader();
        let _ = store.close().unwrap();
        r.refresh();
        r.total_events()
    };

    let m = Manifest::load(&dir).unwrap();
    assert!(m.frames.len() > frames_before, "new session wrote frames");
    let tail = m.frames.last().unwrap();
    assert_eq!(tail.session, 1);
    assert_eq!(tail.kind, CheckpointKind::Full, "fresh session starts full");
    assert_eq!(tail.events, reopened_events);

    let again = Store::open(&dir).unwrap();
    let recovery = again.recovery().unwrap().clone();
    assert_eq!(recovery.events, reopened_events, "nothing lost on close");
    assert_eq!(recovery.session, 2);
    again.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_corrupt_manifests_are_typed_errors() {
    // Missing directory / manifest.
    let dir = tmp_dir("manifest-errors");
    assert!(matches!(
        Store::open(&dir),
        Err(EngineError::ManifestMissing { .. })
    ));

    // Empty manifest file.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("store.manifest"), "").unwrap();
    assert!(matches!(
        Store::open(&dir),
        Err(EngineError::ManifestCorrupt { .. })
    ));

    // Garbage manifest.
    std::fs::write(dir.join("store.manifest"), "definitely not a manifest\n").unwrap();
    assert!(matches!(
        Store::open(&dir),
        Err(EngineError::ManifestCorrupt { .. })
    ));

    // A flipped byte inside an otherwise valid header.
    std::fs::remove_dir_all(&dir).unwrap();
    write_crashy_store(&dir);
    let path = dir.join("store.manifest");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut bytes = text.into_bytes();
    let at = 15; // inside the header line
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Store::open(&dir),
        Err(EngineError::ManifestCorrupt { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_with_no_restorable_frames_is_a_typed_error() {
    let dir = tmp_dir("unrestorable");
    write_crashy_store(&dir);
    // Destroy every frame file; the manifest still lists them.
    for frame in &Manifest::load(&dir).unwrap().frames {
        std::fs::remove_file(dir.join(&frame.file)).unwrap();
    }
    assert!(matches!(
        Store::open(&dir),
        Err(EngineError::NoRestorableChain { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_only_manifest_resumes_an_empty_store() {
    // A store that crashed before its first checkpoint: the manifest has
    // a header but no frames. Reopening yields an empty service of the
    // recorded family and config.
    let dir = tmp_dir("header-only");
    let store = Store::builder(spec())
        .with_shards(4)
        .with_seed(5)
        .with_durability(&dir)
        .start()
        .unwrap();
    store.kill(); // no events ever applied, no frame cut

    let store = Store::open(&dir).unwrap();
    let recovery = store.recovery().unwrap();
    assert_eq!(recovery.frames_in_manifest, 0);
    assert_eq!(recovery.events, 0);
    assert_eq!(
        store.config(),
        EngineConfig::new().with_shards(4).with_seed(5)
    );
    assert_eq!(store.spec(), spec());
    assert!(store.reader().is_empty());
    store.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_live_store_on_a_directory_is_refused() {
    let dir = tmp_dir("busy");
    let store = Store::builder(spec())
        .with_durability(&dir)
        .start()
        .unwrap();
    // Both a fresh builder and an open are refused while the first
    // store lives.
    assert!(matches!(
        Store::builder(spec()).with_durability(&dir).start(),
        Err(EngineError::StoreBusy { .. })
    ));
    assert!(matches!(
        Store::open(&dir),
        Err(EngineError::StoreBusy { .. })
    ));
    let _ = store.close().unwrap();

    // The lock is released on close; a stale lock from a dead process
    // (simulated with an absurd pid) is cleared automatically.
    std::fs::write(dir.join("store.lock"), "4000000000").unwrap();
    let again = Store::open(&dir).unwrap();
    again.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writer_flush_reports_events_lost_to_silent_auto_flushes() {
    let dir = tmp_dir("refused");
    let store = Store::builder(spec())
        .with_durability(&dir)
        .with_ingest(IngestConfig::new().with_batch_pairs(1))
        .start()
        .unwrap();
    let mut writer = store.writer();
    writer.record(1, 5);
    writer.flush().unwrap();
    store.kill();

    // The store is gone (queue closed): record()'s auto-flush drops the
    // batch silently, but the next flush must surface the loss.
    writer.record(2, 7); // batch_pairs=1 → auto-flush → refused
    match writer.flush() {
        Err(EngineError::BatchRefused { dropped_events }) => assert_eq!(dropped_events, 7),
        other => panic!("expected BatchRefused, got {other:?}"),
    }
    // Reported once, not forever.
    writer.flush().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_compacts_its_chain_and_reopens_bit_exactly() {
    let dir = tmp_dir("compacted");
    let config = EngineConfig::new().with_shards(4).with_seed(77);
    let mut reference = CounterEngine::new(family_template(), config);
    // A huge rebase budget makes the compactor the only thing bounding
    // the chain: without it the manifest would grow one delta per cut.
    let store = Store::builder(spec())
        .with_shards(4)
        .with_seed(77)
        .with_ingest(IngestConfig::new().with_batch_pairs(64))
        .with_snapshot_every_events(300)
        .with_durability(&dir)
        .with_checkpoint_every_events(250)
        .with_max_deltas_per_base(100)
        .with_max_chain_len(3)
        .start()
        .unwrap();
    let mut w = store.writer();
    for round in 0..20u64 {
        let batch: Vec<(u64, u64)> = (0..60u64)
            .map(|k| (k + 100 * (round % 3), 1 + (k + round) % 9))
            .collect();
        for &(key, delta) in &batch {
            w.record(key, delta);
        }
        w.flush().unwrap();
        reference.apply(&batch);
    }
    let report = store.close().unwrap();
    assert_eq!(report.stats.events, reference.total_events());

    // The manifest was rewritten in place: it now opens on a compacted
    // base and lists fewer frames than the cadence cut.
    let m = Manifest::load(&dir).unwrap();
    assert_eq!(m.frames[0].kind, CheckpointKind::Full);
    assert!(
        m.frames[0].file.contains("-c"),
        "chain opens on a compactor fold: {}",
        m.frames[0].file
    );

    // Reopening walks the compacted chain — the fold plus the deltas cut
    // while it ran — back to the exact close-time state.
    let store = Store::open(&dir).unwrap();
    let recovery = store.recovery().expect("opened from disk").clone();
    assert_eq!(recovery.frames_skipped, 0, "compacted chain is intact");
    assert_eq!(
        recovery.events,
        reference.total_events(),
        "close lost nothing"
    );
    assert_eq!(recovery.last_applied.len(), 1);
    let resumed = store.writer().resume_from(&recovery);
    assert_eq!(
        resumed, recovery.last_applied[0],
        "cursor for this producer"
    );
    assert!(resumed.applied_seq > 0);
    assert_store_matches_engine(&store, &reference);
    store.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphan_compacted_base_from_a_crashed_compactor_is_ignored() {
    let dir = tmp_dir("orphan-cbase");
    write_crashy_store(&dir);

    // Simulate a compactor that died between writing its fresh base and
    // swapping the manifest: the fold exists on disk, but the manifest
    // still lists the old chain — which must stay the recovery source.
    let files = newest_chain_files(&dir);
    assert!(files.len() >= 2, "need a chain worth folding");
    let segments: Vec<Vec<u8>> = files
        .iter()
        .map(|(p, _)| std::fs::read(p).unwrap())
        .collect();
    let refs: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
    let tip = read_header(refs.last().unwrap()).unwrap();
    let mut folded = restore_checkpoint(&[spec()], &refs).unwrap();
    let orphan = compact_checkpoint(&folded.snapshot().with_epoch(tip.epoch), None, &tip).unwrap();
    std::fs::write(dir.join("ckpt-000-c99999-full.bin"), orphan.bytes()).unwrap();

    let clean = restore_clean(&dir, 0);
    let store = Store::open(&dir).unwrap();
    let recovery = store.recovery().expect("opened from disk").clone();
    assert_eq!(
        recovery.frames_used,
        files.len(),
        "recovery walked the manifest's chain, not the orphan"
    );
    assert_eq!(recovery.frames_skipped, 0);
    assert_eq!(recovery.events, clean.total_events());
    assert_store_matches_engine(&store, &clean);
    store.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_with_honors_runtime_options() {
    let dir = tmp_dir("open-options");
    write_crashy_store(&dir);
    let store = Store::open_with(
        &dir,
        StoreOptions::new()
            .with_ingest(IngestConfig::new().with_batch_pairs(8))
            .with_snapshot_every_events(16)
            .with_checkpoint_every_events(64)
            .with_max_deltas_per_base(2),
    )
    .unwrap();
    let before = store.reader().total_events();
    let mut w = store.writer();
    for key in 0..32u64 {
        w.record(key, 4);
    }
    w.flush().unwrap();
    let mut r = store.reader();
    let _ = store.close().unwrap();
    r.refresh();
    assert_eq!(r.total_events(), before + 128);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A default-ladder store whose hot keys reach the Nelson–Yu rung past
/// its exact epoch: one merged counter cannot hold Morris and Nelson–Yu
/// keys together, but the sum of per-key counts can.
#[test]
fn tiered_store_merges_across_the_default_ladder() {
    let store = Store::builder(CounterSpec::Morris { a: 1.0 })
        .with_shards(4)
        .with_seed(3)
        .with_snapshot_every_events(2_000)
        .with_tiering(TierPolicy::default_ladder(), 1 << 20)
        .start()
        .unwrap();
    let mut w = store.writer();
    let mut total = 0u64;
    for round in 0..40u64 {
        for hot in 0..4u64 {
            w.record(hot, 500);
        }
        for key in 0..50u64 {
            w.record(1_000 + key + 50 * round, 2);
        }
        total += 4 * 500 + 50 * 2;
        w.flush().unwrap();
    }
    let mut reader = store.reader();
    let report = store.close().unwrap();
    reader.refresh();
    assert_eq!(reader.total_events(), total);
    assert!(
        report.stats.tier_keys[1] > 0,
        "{:?}",
        report.stats.tier_keys
    );
    let sampled_ny = reader
        .snapshot()
        .iter()
        .filter(|(_, c)| matches!(c, CounterFamily::NelsonYu(_)) && c.exact_count().is_none())
        .count();
    assert!(sampled_ny > 0, "a Nelson-Yu key left its exact epoch");

    let merged = reader.merged_estimate().unwrap();
    let mut counts = 0u64;
    let mut others: Vec<(u64, f64)> = Vec::new();
    for (key, c) in reader.snapshot().iter() {
        match c {
            CounterFamily::Exact(c) => counts += c.exact_count().unwrap(),
            CounterFamily::NelsonYu(c) => counts += c.y() << c.sampling_exponent(),
            _ => others.push((key, c.estimate())),
        }
    }
    others.sort_unstable_by_key(|&(key, _)| key);
    let reference = counts as f64 + others.iter().map(|&(_, est)| est).sum::<f64>();
    assert_eq!(merged, reference);
    let rel = (merged - total as f64).abs() / total as f64;
    assert!(rel < 0.25, "merged estimate {merged} vs {total}");
}
