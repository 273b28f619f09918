//! # `ac-engine` — the sharded keyed-counter engine, in four layers
//!
//! The paper shrinks *one* counter to `O(log log N + log(1/ε) +
//! log log(1/δ))` bits; the saving only pays off at fleet scale — millions
//! of keys, each with its own approximate counter — and only if the system
//! can admit writes, serve reads, and persist state without freezing the
//! hot path. This crate is that deployment, split into explicit layers:
//!
//! ```text
//!  writers ──► ingest ──► engine/shards ──► snapshot ──► checkpoint
//!             (lanes)      (write path)      (serve)      (durable)
//! ```
//!
//! 1. **Ingest** (inside the [`Store`]) — each [`StoreWriter`] coalesces
//!    per-key increments into batches and routes a flushed batch once,
//!    at send time, into its own lock-free SPSC lane per shard (sized by
//!    [`IngestConfig::ring_batches`]), so writers never block on shard
//!    application and never contend with each other. Batched updates are
//!    the first-class operation (after the amortized-complexity view of
//!    Aden-Ali, Han, Nelson, Yu 2022): a coalesced `(key, delta)` costs
//!    one transition-count-proportional `increment_by`, not `delta` coin
//!    flips. Backpressure is a [`BackpressurePolicy`]: `Block` parks the
//!    writer (lossless, default), `DropNewest` sheds and counts, and
//!    `Fail` makes refusal a value — [`StoreWriter::try_send`] returns
//!    [`SendError::Full`] *carrying the rejected batch*, so silent loss
//!    is impossible. One worker per shard drains its own lanes; between
//!    bursts the engine is quiescent, which is where snapshot publication
//!    and the background checkpoint writer ride.
//! 2. **Write** ([`CounterEngine`]) — slab ownership and batched apply:
//!    one runtime-selected counter family per engine ([`CounterSpec`]),
//!    key→shard routing (SplitMix64 finalizer + Lemire range reduction),
//!    dense per-shard slabs behind **copy-on-write `Arc`s with epoch
//!    tracking**, per-shard deterministic RNG.
//! 3. **Snapshot/serve** ([`EngineSnapshot`]) — immutable, cheaply
//!    cloneable read replicas. A freeze is `O(shards)` `Arc` clones — no
//!    counter is copied; writers split dirty shards lazily (CoW), so a
//!    freeze's true cost is `O(dirty shards)`, amortized into the writes
//!    that follow. The cross-shard total
//!    ([`EngineSnapshot::merged_estimate`]) sums per-shard integer books
//!    of per-key unbiased counts: `O(shards)`, no RNG, no counter merge.
//! 4. **Checkpoint** ([`checkpoint`] / [`restore_checkpoint`] /
//!    [`fold_checkpoint_delta`] / [`compact_checkpoint`]) — snapshots
//!    serialized through `ac-bitio`: each family's `StateCodec` counter
//!    states plus Rice-coded key gaps behind a versioned header that
//!    embeds the [`EngineConfig`] and parameter fingerprint and refuses
//!    mismatched restores. Each function takes its tier ladder as
//!    [`CounterSpec`]s. Incremental **delta frames** serialize only
//!    shards dirtied since a parent checkpoint (parents are identified by
//!    chained checksums, so a delta can never land on the wrong base),
//!    and the [`Store`] writes the base + deltas chain on its own thread.
//!    A restored engine continues the *exact* random stream (shard RNG
//!    states ride along), and a million counters persist at ~their summed
//!    `state_bits`, not a million fixed-width records.
//!
//! ## The `Store` service facade
//!
//! The **[`Store`]** puts all four layers under one roof: one builder, a
//! *runtime*-selected counter family ([`CounterSpec`]), cloneable
//! writer/reader handles, and crash recovery from an on-disk
//! [`Manifest`]. Start here; the engine, its snapshots and the checkpoint
//! functions stay public as the expert API.
//!
//! ```
//! use ac_engine::{CounterSpec, Store};
//!
//! let store = Store::builder(CounterSpec::NelsonYu { eps: 0.2, delta_log2: 8 })
//!     .with_shards(8)
//!     .start()
//!     .unwrap();
//! let mut writer = store.writer(); // cloneable; own producer id + seqs
//! writer.record(42, 1_000_000);
//! writer.flush().unwrap();
//! let reader = store.reader(); // epoch-pinned, lock-free queries
//! let _ = (reader.estimate(42), reader.merged_estimate().unwrap());
//! store.close().unwrap();
//! // With `.with_durability(dir)`: crash, then `Store::open(dir)`
//! // resumes counters, RNG streams, and the epoch clock bit-exactly
//! // and reports each producer's last applied sequence number.
//! ```
//!
//! ## The expert API: engine → snapshot → checkpoint → restore
//!
//! ```
//! use ac_engine::{checkpoint, restore_checkpoint, CounterEngine, CounterSpec, EngineConfig};
//!
//! let spec = CounterSpec::NelsonYu { eps: 0.2, delta_log2: 8 };
//! let mut engine = CounterEngine::new(spec.build().unwrap(), EngineConfig::default());
//!
//! // Write: batched (key, delta) pairs, one increment_by each.
//! engine.apply(&[(1, 50_000), (2, 10_000), (1, 50_000)]);
//!
//! // Snapshot: an O(shards) freeze; lock-free reads; the total sums the
//! // shards' books of per-key unbiased counts, with no RNG.
//! let snap = engine.snapshot();
//! assert!((snap.estimate(1).unwrap() - 1.0e5).abs() / 1.0e5 < 0.5);
//! let total = snap.merged_estimate();
//! assert!((total - 1.1e5).abs() / 1.1e5 < 0.1);
//!
//! // Checkpoint: a full base, then deltas priced at O(dirty data).
//! // `None` tiers: an untiered (version-2) frame; `None` parent: full.
//! let base = checkpoint(&snap, None, None).unwrap();
//! engine.apply(&[(1, 1_000)]);
//! let delta = checkpoint(&engine.snapshot(), None, Some(&base.header())).unwrap();
//!
//! // Restore: the chain through its spec ladder (rung 0 = default).
//! let restored = restore_checkpoint(&[spec], &[base.bytes(), delta.bytes()]).unwrap();
//! assert_eq!(restored.estimate(1), engine.estimate(1));
//! assert_eq!(restored.total_events(), engine.total_events());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod applier;
mod checkpoint;
mod checkpointer;
mod error;
mod ingest;
mod manifest;
mod registry;
mod ring;
#[cfg(test)]
mod ring_tests;
mod shard;
mod snapshot;
mod store;

pub use checkpoint::{
    checkpoint, compact_checkpoint, fold_checkpoint_delta, read_header, restore_checkpoint,
    Checkpoint, CheckpointError, CheckpointHeader, CheckpointKind, CheckpointStats,
    CHECKPOINT_VERSION,
};
pub use checkpointer::{CheckpointRecord, CheckpointerReport, CheckpointerStats};
pub use error::EngineError;
pub use ingest::{BackpressurePolicy, Batch, IngestConfig, IngestStats, ProducerMark, SendError};
pub use manifest::{Manifest, ManifestFrame, ManifestTiering};
pub use registry::{CounterEngine, EngineConfig, EngineStats};
pub use snapshot::EngineSnapshot;
pub use store::{
    RecoveryReport, Store, StoreBuilder, StoreOptions, StoreReader, StoreReport, StoreStats,
    StoreWriter,
};

// The runtime family selection the store and the checkpoint ladders take,
// re-exported so engine users need not depend on `ac-core` for it.
pub use ac_core::CounterSpec;
