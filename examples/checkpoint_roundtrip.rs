//! Cross-process checkpoint/restore, full and incremental: `write`
//! serializes a deterministic engine to disk and `restore`, run as a
//! *fresh process*, rebuilds the same reference engine from the shared
//! seed and verifies the restored one matches it key for key.
//! `chain-write` cuts a base checkpoint plus two deltas (each after
//! dirtying a few shards); `chain-restore` folds the chain in a fresh
//! process, verifies it bit-for-bit against the replayed reference, and
//! proves a truncated delta is *rejected* rather than silently folded.
//! CI runs write and restore as separate invocations, so durability is
//! proven across a process boundary, not just in memory.
//!
//! ```console
//! $ cargo run --release --example checkpoint_roundtrip -- write  /tmp/engine.ckpt
//! $ cargo run --release --example checkpoint_roundtrip -- restore /tmp/engine.ckpt
//! $ cargo run --release --example checkpoint_roundtrip -- chain-write  /tmp/ckpt-dir
//! $ cargo run --release --example checkpoint_roundtrip -- chain-restore /tmp/ckpt-dir
//! ```

use approx_counting::bitio::{BitVec, BitWriter};
use approx_counting::engine::{checkpoint, restore_checkpoint, CounterEngine, EngineConfig};
use approx_counting::prelude::*;
use std::path::Path;

const KEYS: u64 = 10_000;
const CONFIG: EngineConfig = EngineConfig::new().with_shards(8).with_seed(0xC1AC_C0DE);
const SPEC: CounterSpec = CounterSpec::NelsonYu {
    eps: 0.2,
    delta_log2: 8,
};

/// A counter's persistent registers, as their encoded bits.
fn state(c: &CounterFamily) -> BitVec {
    let mut v = BitVec::new();
    c.encode_state(&mut BitWriter::new(&mut v));
    v
}

/// The deterministic base workload both processes can rebuild.
fn base_batch() -> Vec<(u64, u64)> {
    let mut gen = SplitMix64::new(0xFEED);
    (0..KEYS)
        .map(|k| (k * 31 + 7, 1 + gen.next_u64() % 4_096))
        .collect()
}

/// The two deterministic post-base rounds the delta frames capture: each
/// round hammers base keys that all route to one shard, so each delta
/// serializes exactly one dirty shard out of eight.
fn delta_batches(engine: &CounterEngine) -> [Vec<(u64, u64)>; 2] {
    let keys_in_shard = |shard: usize, n: usize| -> Vec<u64> {
        (0..KEYS)
            .map(|k| k * 31 + 7)
            .filter(|&k| engine.shard_of(k) == shard)
            .take(n)
            .collect()
    };
    let hit = |keys: Vec<u64>, base: u64| -> Vec<(u64, u64)> {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| (k, base + i as u64))
            .collect()
    };
    [
        hit(keys_in_shard(0, 40), 1_000),
        hit(keys_in_shard(1, 25), 50),
    ]
}

fn reference_engine() -> CounterEngine {
    let mut engine = CounterEngine::new(SPEC.build().expect("valid parameters"), CONFIG);
    engine.apply(&base_batch());
    engine
}

/// Replays base + both delta rounds — the state the chain tip describes.
fn reference_engine_after_deltas() -> CounterEngine {
    let mut engine = reference_engine();
    let _ = engine.snapshot(); // same freeze points as chain-write
    for batch in delta_batches(&engine) {
        engine.apply(&batch);
        let _ = engine.snapshot();
    }
    engine
}

fn verify_matches(restored: &CounterEngine, reference: &CounterEngine) -> u64 {
    assert_eq!(restored.len(), reference.len(), "key count");
    assert_eq!(restored.total_events(), reference.total_events(), "events");
    assert_eq!(restored.config(), reference.config(), "config");
    let mut checked = 0u64;
    for (key, counter) in reference.iter() {
        let back = restored.counter(key).expect("restored key");
        assert_eq!(state(back), state(counter), "key {key}");
        assert_eq!(back.estimate(), counter.estimate(), "key {key}");
        assert_eq!(back.state_bits(), counter.state_bits(), "key {key}");
        checked += 1;
    }
    checked
}

fn chain_paths(dir: &Path) -> [std::path::PathBuf; 3] {
    [
        dir.join("base.ckpt"),
        dir.join("delta-1.ckpt"),
        dir.join("delta-2.ckpt"),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: checkpoint_roundtrip <write|restore|chain-write|chain-restore> <path>";
    let (mode, path) = match args.as_slice() {
        [_, mode, path] => (mode.as_str(), path.as_str()),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };

    match mode {
        "write" => {
            let mut engine = reference_engine();
            let snap = engine.snapshot();
            let ck = checkpoint(&snap, None, None).unwrap();
            std::fs::write(path, ck.bytes()).expect("write checkpoint");
            let s = ck.stats();
            println!(
                "wrote {} keys / {} events to {path}: {} bytes \
                 ({} state bits live, {} bits on disk)",
                s.keys,
                engine.total_events(),
                s.bytes(),
                s.counter_state_bits,
                s.total_bits
            );
        }
        "restore" => {
            let bytes = std::fs::read(path).expect("read checkpoint");
            let restored = restore_checkpoint(&[SPEC], &[&bytes]).expect("restore checkpoint");
            let checked = verify_matches(&restored, &reference_engine());
            println!(
                "restored {checked} keys from {path} in a fresh process: \
                 every state bit-identical to the reference engine"
            );
        }
        "chain-write" => {
            let dir = Path::new(path);
            std::fs::create_dir_all(dir).expect("create chain directory");
            let [base_path, d1_path, d2_path] = chain_paths(dir);

            let mut engine = reference_engine();
            let base = checkpoint(&engine.snapshot(), None, None).unwrap();
            std::fs::write(&base_path, base.bytes()).expect("write base");

            let [round1, round2] = delta_batches(&engine);
            engine.apply(&round1);
            let d1 = checkpoint(&engine.snapshot(), None, Some(&base.header()))
                .expect("delta against own base");
            std::fs::write(&d1_path, d1.bytes()).expect("write delta 1");

            engine.apply(&round2);
            let d2 = checkpoint(&engine.snapshot(), None, Some(&d1.header()))
                .expect("delta against delta 1");
            std::fs::write(&d2_path, d2.bytes()).expect("write delta 2");

            println!(
                "wrote chain to {path}: base {} bytes ({} shards), \
                 delta-1 {} bytes ({} dirty shards), delta-2 {} bytes ({} dirty shards)",
                base.bytes().len(),
                base.stats().shards_written,
                d1.bytes().len(),
                d1.stats().shards_written,
                d2.bytes().len(),
                d2.stats().shards_written,
            );
            assert!(
                d1.bytes().len() * 4 < base.bytes().len()
                    && d2.bytes().len() * 4 < base.bytes().len(),
                "deltas must be far smaller than the base"
            );
        }
        "chain-restore" => {
            let dir = Path::new(path);
            let segments: Vec<Vec<u8>> = chain_paths(dir)
                .iter()
                .map(|p| std::fs::read(p).expect("read chain segment"))
                .collect();
            let refs: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
            let restored = restore_checkpoint(&[SPEC], &refs).expect("restore chain");
            let checked = verify_matches(&restored, &reference_engine_after_deltas());

            // A truncated final delta must be refused, never half-folded.
            let truncated = &segments[2][..segments[2].len() / 2];
            let err = restore_checkpoint(&[SPEC], &[&segments[0], &segments[1], truncated])
                .expect_err("truncated delta must not restore");
            println!(
                "restored {checked} keys from a base+2-delta chain in a fresh process: \
                 every state bit-identical; truncated delta rejected with `{err}`"
            );
        }
        other => {
            eprintln!("unknown mode '{other}'; {usage}");
            std::process::exit(2);
        }
    }
}
