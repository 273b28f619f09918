//! # `ac-engine` — the sharded keyed-counter engine, in four layers
//!
//! The paper shrinks *one* counter to `O(log log N + log(1/ε) +
//! log log(1/δ))` bits; the saving only pays off at fleet scale — millions
//! of keys, each with its own approximate counter — and only if the system
//! can admit writes, serve reads, and persist state without freezing the
//! hot path. This crate is that deployment, split into explicit layers:
//!
//! ```text
//!  producers ──► ingest ──► registry/shards ──► snapshot ──► checkpoint
//!               (queue)       (write path)      (serve)      (durable)
//! ```
//!
//! 1. **Ingest** ([`IngestQueue`] / [`IngestProducer`]) — coalesces
//!    per-key increments into batches so producers never block on shard
//!    application — and never contend with each other: each producer
//!    routes a flushed batch once, at send time, into its own lock-free
//!    SPSC lane per shard (sized by [`IngestConfig::ring_batches`],
//!    rounded to a power of two), with parking/unparking on eventcount
//!    doorbells instead of a shared `Condvar`. Batched updates are the
//!    first-class operation (after the amortized-complexity view of
//!    Aden-Ali, Han, Nelson, Yu 2022): a coalesced `(key, delta)` costs
//!    one transition-count-proportional `increment_by`, not `delta` coin
//!    flips. Backpressure is a [`BackpressurePolicy`]: `Block` parks the
//!    producer (lossless, default), `DropNewest` sheds and counts, and
//!    `Fail` makes refusal a value — [`IngestProducer::try_send`] /
//!    [`StoreWriter::try_send`] return [`SendError::Full`] *carrying the
//!    rejected batch*, so silent loss is impossible. Diagnostics surface
//!    through [`EngineStats::with_ingest`]. The queue is built with the
//!    engine's partition ([`IngestQueue::new`] takes
//!    [`CounterEngine::router`]), so the drain thread is just a burst
//!    coordinator and each persistent shard worker drains its own lanes
//!    with zero dispatch copies ([`IngestQueue::drain_routed`]). Its
//!    burst hook runs with the engine quiescent, which is where snapshot
//!    publication and the background checkpointer ride (on a
//!    [`CheckpointCadence`]); [`IngestQueue::drain_into`] applies the
//!    same bursts serially on the calling thread, as the reference.
//! 2. **Write** ([`CounterEngine`]) — slab ownership and batched apply:
//!    key→shard routing (SplitMix64 finalizer + Lemire range reduction),
//!    dense per-shard slabs behind **copy-on-write `Arc`s with epoch
//!    tracking**, per-shard deterministic RNG.
//! 3. **Snapshot/serve** ([`EngineSnapshot`]) — immutable, cheaply
//!    cloneable read replicas. A freeze is `O(shards)` `Arc` clones — no
//!    counter is copied; writers split dirty shards lazily (CoW), so a
//!    freeze's true cost is `O(dirty shards)`, amortized into the writes
//!    that follow. The cross-shard merged aggregate (Remark 2.4) folds on
//!    demand on a reader thread, never on the freeze path.
//! 4. **Checkpoint** ([`checkpoint`] / [`restore_checkpoint`] /
//!    [`fold_checkpoint_delta`] / [`compact_checkpoint`]) — snapshots
//!    serialized through
//!    `ac-bitio`: [`StateCodec`] counter states plus Rice-coded key gaps
//!    behind a versioned header that embeds the [`EngineConfig`] and
//!    parameter fingerprint and refuses mismatched restores. Incremental
//!    **delta frames** serialize only shards dirtied since a parent
//!    checkpoint (parents are identified by chained checksums, so a delta
//!    can never land on the wrong base), and the
//!    [`BackgroundCheckpointer`] writes the base + deltas chain on its
//!    own thread. A restored engine continues the *exact* random stream
//!    (shard RNG states ride along), and a million counters persist at
//!    ~their summed `state_bits`, not a million fixed-width records.
//!
//! ## The `Store` service facade
//!
//! The **[`Store`]** puts all four layers under one roof: one builder, a
//! *runtime*-selected counter family ([`CounterSpec`] /
//! [`CounterFamily`], bit-identical to the monomorphized engine),
//! cloneable writer/reader handles, and crash recovery from an on-disk
//! [`Manifest`]. Start here; the layers stay public as the expert API.
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
//! ## The expert API, layer by layer
//!
//! ```
//! use ac_core::{ApproxCounter, NelsonYuCounter, NyParams};
//! use ac_engine::{
//!     checkpoint, restore_checkpoint, CounterEngine, EngineConfig, IngestConfig,
//!     IngestQueue,
//! };
//! use ac_randkit::Xoshiro256PlusPlus;
//!
//! let template = NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap());
//! let mut engine = CounterEngine::new(template.clone(), EngineConfig::default());
//!
//! // Ingest: coalesce, batch, and route to the engine's shards; the
//! // drain applies to the write layer.
//! let queue = IngestQueue::new(IngestConfig::default(), engine.router());
//! let mut producer = queue.producer();
//! producer.record(1, 50_000);
//! producer.record(2, 10_000);
//! producer.record(1, 50_000); // coalesces with the first pair
//! producer.send().unwrap(); // or try_send() for the nonblocking path
//! queue.close();
//! queue.drain_into(&mut engine);
//!
//! // Snapshot: an O(shards) freeze; lock-free reads; the merged
//! // aggregate folds on demand, off the freeze path.
//! let snap = engine.snapshot();
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
//! assert!((snap.estimate(1).unwrap() - 1.0e5).abs() / 1.0e5 < 0.5);
//! let merged = snap.merged_total(&mut rng).unwrap();
//! assert!((merged.estimate() - 1.1e5).abs() / 1.1e5 < 0.5);
//!
//! // Checkpoint: a full base, then deltas priced at O(dirty data).
//! // `None` tiers: an untiered (version-2) frame; `None` parent: full.
//! let base = checkpoint(&snap, None, None).unwrap();
//! engine.apply(&[(1, 1_000)]);
//! let delta = checkpoint(&engine.snapshot(), None, Some(&base.header())).unwrap();
//! let ladder = [template];
//! let restored = restore_checkpoint(&ladder, &[base.bytes(), delta.bytes()]).unwrap();
//! assert_eq!(restored.counter(1).unwrap().state_parts(),
//!            engine.counter(1).unwrap().state_parts());
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
mod shard;
mod snapshot;
mod store;

pub use checkpoint::{
    checkpoint, combined_fingerprint, compact_checkpoint, fold_checkpoint_delta, read_header,
    restore_checkpoint, Checkpoint, CheckpointError, CheckpointHeader, CheckpointKind,
    CheckpointStats, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CHECKPOINT_VERSION_TIERED,
};
pub use checkpointer::{
    BackgroundCheckpointer, CheckpointRecord, CheckpointerConfig, CheckpointerProbe,
    CheckpointerReport, CheckpointerStats,
};
pub use error::EngineError;
pub use ingest::{
    BackpressurePolicy, Batch, CheckpointCadence, IngestConfig, IngestProducer, IngestQueue,
    IngestStats, ProducerMark, SendError,
};
pub use manifest::{Manifest, ManifestFrame, ManifestInfo, ManifestTiering, MANIFEST_FILE};
pub use registry::{CounterEngine, EngineConfig, EngineStats, ShardRouter};
pub use snapshot::EngineSnapshot;
pub use store::{
    RecoveryReport, Store, StoreBuilder, StoreOptions, StoreReader, StoreReport, StoreStats,
    StoreWriter,
};

// The serialization contract checkpoints are written against — and the
// runtime family selection the store builds on — re-exported so engine
// users need not depend on `ac-core` directly for them.
pub use ac_core::{CounterFamily, CounterSpec, StateCodec};
