//! The ingest layer: per-(producer, shard) lock-free SPSC lanes behind a
//! nonblocking writer API, so producers never contend on a global lock
//! and never block on shard application.
//!
//! Producers hold an [`IngestProducer`] and call
//! [`record`](IngestProducer::record); increments to the same key within
//! the current batch are coalesced into one `(key, delta)` pair (the
//! counter families' batched `increment_by` makes a coalesced delta as
//! cheap as a single increment — the amortized view of the Aden-Ali–Han–
//! Nelson–Yu follow-up, where the batch is the first-class operation).
//!
//! A full batch is routed once, on the producer's thread while it is
//! cache-hot: each pair goes to its shard through the engine's
//! [`ShardRouter`] (the queue is built with
//! [`CounterEngine::router`](crate::CounterEngine::router)), and each
//! shard's slice is pushed into that shard's **lane** — a bounded
//! single-producer/single-consumer ring owned by this producer
//! ([`ring_batches`](IngestConfig::ring_batches) slots, power-of-two,
//! atomic head/tail on separate cache lines). There is no global queue
//! lock: a producer's hot path is uncontended slot writes plus two atomic
//! words per touched lane, and parking/unparking rides eventcount
//! doorbells (one atomic load per notify when nobody waits) instead of a
//! shared `Condvar`. Lane memory is `producers × shards` rings of
//! `ring_batches` slots — see the sizing guidance in [`crate::ring`].
//!
//! A batch's lane slices become visible to consumers **atomically**: the
//! producer publishes every slice first and only then advances its commit
//! mark, and a drain burst takes each producer up to a *consistent cut*
//! of committed sequence numbers (at most
//! [`burst_batches`](IngestConfig::burst_batches) new ones). Two
//! consumers drain the lanes into the engine:
//!
//! * [`IngestQueue::drain_routed`] — one persistent worker thread per
//!   shard pops its own lanes; the calling thread coordinates bursts
//!   (cuts, epoch stamping, sequence marks), feeds an optional pair tap,
//!   and runs a burst hook with the engine quiescent. This is the drain
//!   the [`Store`](crate::Store) runs.
//! * [`IngestQueue::drain_into`] — the same bursts and cuts, applied
//!   shard by shard on the calling thread: the serial reference.
//!
//! ## Backpressure
//!
//! Each lane is bounded. When a batch's destination lane is full,
//! [`IngestConfig::policy`] picks the behavior:
//!
//! * [`BackpressurePolicy::Block`] (default) — the producer parks on the
//!   space doorbell until its applier catches up. Lossless.
//! * [`BackpressurePolicy::DropNewest`] — the refused batch is dropped
//!   and counted ([`IngestStats::dropped_batches`], surfaced through
//!   [`EngineStats::with_ingest`](crate::EngineStats::with_ingest)) —
//!   the load-shedding mode for latency-critical writers.
//! * [`BackpressurePolicy::Fail`] — nothing is ever dropped silently:
//!   [`IngestProducer::try_send`] returns [`SendError::Full`] *carrying
//!   the rejected batch*, and `record`'s auto-flush retains the buffer
//!   instead of discarding it, so refusal always surfaces at a call
//!   site that can retry ([`IngestProducer::resubmit`]), back off, or
//!   shed load deliberately.
//!
//! A batch is accepted or refused whole: if any of its destination lanes
//! is full, none of its slices is pushed.
//!
//! ## Provenance: producer ids and sequence numbers
//!
//! Every [`Batch`] is stamped with the id of the [`IngestProducer`] that
//! flushed it and a per-producer sequence number (1, 2, 3, … over the
//! *accepted* batches of that producer). The registry tracks two
//! high-water marks per producer — the last sequence accepted into the
//! lanes and the last sequence drained into an engine ([`ProducerMark`],
//! surfaced through [`IngestStats::producers`]) — which is what makes
//! exactly-once replay after a crash-restore possible: a checkpoint cut
//! at a burst boundary records the applied marks, so on recovery each
//! producer knows the first sequence number the store has *not* seen and
//! replays from there, nothing dropped and nothing double-counted (the
//! checkpoint preserves RNG streams, so replayed batches reproduce
//! states bit-for-bit).
//!
//! ## Determinism
//!
//! A single producer reproduces `engine.apply` on its concatenated
//! batches bit for bit, through either drain and whatever the burst
//! boundaries: each shard sees its pairs in the producer's batch order
//! and consumes only its own RNG stream. With several producers the
//! interleaving of their slices within a shard depends on thread
//! scheduling — as in any streaming system — but every applied state is
//! still one the deterministic engine produces for some arrival order.

use crate::registry::{CounterEngine, ShardRouter};
use crate::ring::{Doorbell, SpscRing};
use ac_core::ApproxCounter;
use ac_randkit::BuildSplitMix64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One coalesced batch of `(key, delta)` pairs, stamped with its
/// provenance: which producer flushed it and where it sits in that
/// producer's accepted sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Batch {
    /// Id of the [`IngestProducer`] that flushed the batch.
    pub producer: u64,
    /// 1-based position in that producer's accepted stream.
    pub seq: u64,
    /// The coalesced `(key, delta)` pairs, in first-touch order.
    pub pairs: Vec<(u64, u64)>,
}

impl Batch {
    /// Sum of deltas in the batch.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.pairs.iter().map(|&(_, d)| d).sum()
    }
}

/// What a producer does when its ring is full (or the queue closed).
///
/// See the module docs for the full story; the short version:
/// `Block` is lossless and parks, `DropNewest` sheds load and counts,
/// `Fail` turns refusal into a value ([`SendError::Full`]) the caller
/// must handle — the only mode in which nothing can ever be lost
/// silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackpressurePolicy {
    /// Park the producer on the space doorbell until the applier frees a
    /// slot. Lossless; the default.
    #[default]
    Block,
    /// Drop the refused batch, count it in
    /// [`IngestStats::dropped_batches`], and keep going.
    DropNewest,
    /// Refuse loudly: [`IngestProducer::try_send`] returns the batch
    /// inside [`SendError::Full`] and auto-flush retains the buffer, so
    /// the caller decides what to do with the data.
    Fail,
}

/// A batch the queue would not accept, returned *with the data* so the
/// caller owns the retry/shed decision. Produced by
/// [`IngestProducer::try_send`] / [`IngestProducer::send`] /
/// [`IngestProducer::resubmit`] and re-exported through the
/// [`Store`](crate::Store) writer surface.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SendError {
    /// The producer's ring had no free slot. Retrying after the applier
    /// catches up (or [`IngestProducer::send`], which parks) will
    /// succeed; the batch is returned untouched.
    Full(Batch),
    /// The queue is closed; no retry can ever succeed. The batch is
    /// returned so a draining caller can persist it elsewhere.
    Closed(Batch),
}

impl SendError {
    /// The rejected batch, by reference.
    #[must_use]
    pub fn batch(&self) -> &Batch {
        match self {
            Self::Full(b) | Self::Closed(b) => b,
        }
    }

    /// Recovers the rejected batch (for [`IngestProducer::resubmit`] or
    /// external spill).
    #[must_use]
    pub fn into_batch(self) -> Batch {
        match self {
            Self::Full(b) | Self::Closed(b) => b,
        }
    }

    /// True for the retryable [`SendError::Full`] case.
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, Self::Full(_))
    }
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Full(b) => write!(
                f,
                "ingest ring full: batch of {} pairs ({} events) refused",
                b.pairs.len(),
                b.events()
            ),
            Self::Closed(b) => write!(
                f,
                "ingest queue closed: batch of {} pairs ({} events) refused",
                b.pairs.len(),
                b.events()
            ),
        }
    }
}

impl std::error::Error for SendError {}

/// Ingest layer construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct IngestConfig {
    /// Per-lane ring capacity, in batch slices (rounded up to a power of
    /// two). Each producer owns one lane per shard; a deeper lane absorbs
    /// longer applier stalls before backpressure engages.
    pub ring_batches: usize,
    /// Coalesced pairs per batch before a producer auto-flushes.
    pub batch_pairs: usize,
    /// What a producer does when a lane is full; see
    /// [`BackpressurePolicy`].
    pub policy: BackpressurePolicy,
    /// Cap on *batches* per drain burst: each burst advances every
    /// producer's consistent cut by at most this many batches. Larger
    /// bursts amortize burst-boundary coordination; smaller ones run
    /// burst hooks (snapshot publication, checkpoint cadence, tier
    /// rounds) more often.
    pub burst_batches: usize,
}

impl IngestConfig {
    /// The default configuration (lanes of 64 slots, batches of up to
    /// 4096 pairs, blocking backpressure, bursts of up to 64 batches per
    /// producer), as a `const` starting point for the `with_*` builders.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            ring_batches: 64,
            batch_pairs: 4_096,
            policy: BackpressurePolicy::Block,
            burst_batches: 64,
        }
    }

    /// Sets the per-lane ring capacity, in batch slices.
    #[must_use]
    pub const fn with_ring_batches(mut self, ring_batches: usize) -> Self {
        self.ring_batches = ring_batches;
        self
    }

    /// Sets the coalesced pairs per batch before a producer auto-flushes.
    #[must_use]
    pub const fn with_batch_pairs(mut self, batch_pairs: usize) -> Self {
        self.batch_pairs = batch_pairs;
        self
    }

    /// Picks the backpressure policy.
    #[must_use]
    pub const fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps the batches taken per producer per drain burst, trading
    /// burst-boundary hook frequency against coordination amortization.
    #[must_use]
    pub const fn with_burst_batches(mut self, burst_batches: usize) -> Self {
        self.burst_batches = burst_batches;
        self
    }
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Live counters shared by producers, appliers, and stats readers.
#[derive(Debug, Default)]
struct Totals {
    enqueued_batches: AtomicU64,
    enqueued_events: AtomicU64,
    applied_events: AtomicU64,
    dropped_batches: AtomicU64,
    dropped_events: AtomicU64,
}

/// Per-producer sequence high-water marks (see the module docs on
/// provenance). `enqueued_seq` is the last sequence accepted into the
/// lanes; `applied_seq` the last drained into an engine; 0 means "none
/// yet". `applied_seq ≤ enqueued_seq` at every batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProducerMark {
    /// The producer id.
    pub producer: u64,
    /// Highest sequence number accepted into the lanes.
    pub enqueued_seq: u64,
    /// Highest sequence number applied to an engine.
    pub applied_seq: u64,
}

/// A pair observer for [`IngestQueue::drain_routed`]: sees each burst's
/// applied `(key, delta)` pairs, one shard at a time.
pub(crate) type PairTap<'a> = &'a mut dyn FnMut(&[(u64, u64)]);

/// One shard's slice of a routed batch: the `(key, delta)` pairs of
/// batch `seq` that route to the lane's shard, in batch order.
#[derive(Debug)]
pub(crate) struct LaneBatch {
    /// The owning batch's per-producer sequence number. Strictly
    /// increasing along each lane (a batch pushes at most one slice per
    /// lane, and refused sequence numbers are reused only after their
    /// slices were never published).
    pub(crate) seq: u64,
    /// The slice's pairs (never empty).
    pub(crate) pairs: Vec<(u64, u64)>,
}

/// One producer's lanes (one per shard) plus its sequence high-water
/// marks. Ring index in the registry == producer id.
#[derive(Debug)]
pub(crate) struct ProducerRing {
    lanes: Vec<SpscRing<LaneBatch>>,
    /// The highest sequence number whose lane slices are **all**
    /// published. Stored *after* the slice pushes (`SeqCst`), so a
    /// consumer cut at or below this mark never splits a batch.
    committed_seq: AtomicU64,
    enqueued_seq: AtomicU64,
    applied_seq: AtomicU64,
}

impl ProducerRing {
    /// The lane for `shard`.
    pub(crate) fn lane(&self, shard: usize) -> &SpscRing<LaneBatch> {
        &self.lanes[shard]
    }

    /// Batches admitted but not yet applied.
    fn depth(&self) -> usize {
        self.committed().saturating_sub(self.applied()) as usize
    }

    /// Conservative "a push right now could be refused" hint for
    /// `record`'s auto-flush guard under [`BackpressurePolicy::Fail`].
    fn full_hint(&self) -> bool {
        self.lanes.iter().any(SpscRing::is_full)
    }

    /// The commit high-water mark.
    pub(crate) fn committed(&self) -> u64 {
        self.committed_seq.load(Ordering::SeqCst)
    }

    /// The applied high-water mark.
    pub(crate) fn applied(&self) -> u64 {
        self.applied_seq.load(Ordering::SeqCst)
    }

    /// Records that every batch up to `cut` is applied.
    pub(crate) fn note_applied_seq(&self, cut: u64) {
        self.applied_seq.fetch_max(cut, Ordering::SeqCst);
    }
}

#[derive(Debug)]
struct Inner {
    config: IngestConfig,
    /// The key-to-shard partition producers route pairs by at send time.
    router: ShardRouter,
    /// Every producer's lanes, indexed by producer id. The mutex
    /// serializes snapshots of the list against producer *registration*
    /// — never against a producer's push, which touches only its own
    /// lanes.
    registry: Mutex<Vec<Arc<ProducerRing>>>,
    closed: AtomicBool,
    /// Producers currently inside `submit_pairs` (between the closed
    /// check and the commit). A closing consumer waits for this to reach
    /// zero before its final sweep, so a push racing `close` is either
    /// refused or drained — never lost.
    pushers: AtomicU64,
    /// Rung by producers after a commit (and by `close`); appliers park
    /// on it when nothing is committed but unapplied.
    ready: Doorbell,
    /// Rung by consumers after a pop (and by `close`); blocked producers
    /// park on it when a lane is full.
    space: Doorbell,
    totals: Totals,
}

/// A point-in-time summary of the ingest layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct IngestStats {
    /// Batches currently buffered across all producer lanes, not yet
    /// applied.
    pub queue_depth: usize,
    /// Batches accepted into lanes so far.
    pub enqueued_batches: u64,
    /// Events (sum of deltas) accepted into lanes so far.
    pub enqueued_events: u64,
    /// Events drained into an engine so far.
    pub applied_events: u64,
    /// Batches refused because a lane was full or the queue closed
    /// (drop policy, or blocked flushes cut off by `close`).
    pub dropped_batches: u64,
    /// Events lost with those batches.
    pub dropped_events: u64,
    /// Per-producer sequence high-water marks, in producer-id order.
    pub producers: Vec<ProducerMark>,
}

/// The multi-producer ingest front door: one lock-free SPSC lane per
/// (producer, shard), drained in bursts. Cheap to clone (all clones share
/// the same lanes).
#[derive(Debug, Clone)]
pub struct IngestQueue {
    inner: Arc<Inner>,
}

impl IngestQueue {
    /// Creates the queue: one lane per (producer, shard), producers
    /// routing each pair through `router` at send time. Drain it into an
    /// engine whose [`CounterEngine::router`](crate::CounterEngine::router)
    /// equals `router` — both drains assert the match, because a
    /// partition mismatch would silently scatter keys to wrong shards.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero.
    #[must_use]
    pub fn new(config: IngestConfig, router: ShardRouter) -> Self {
        assert!(config.ring_batches > 0, "queue capacity must be positive");
        assert!(config.batch_pairs > 0, "batch size must be positive");
        assert!(config.burst_batches > 0, "burst batches must be positive");
        Self {
            inner: Arc::new(Inner {
                config,
                router,
                registry: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
                pushers: AtomicU64::new(0),
                ready: Doorbell::new(),
                space: Doorbell::new(),
                totals: Totals::default(),
            }),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> IngestConfig {
        self.inner.config
    }

    /// The key-to-shard partition producers route by.
    pub(crate) fn router(&self) -> ShardRouter {
        self.inner.router
    }

    /// Creates a producer handle with a fresh producer id and its own
    /// lanes. Any number may exist concurrently; each coalesces into its
    /// own batch buffer and publishes into its own lanes, so producers
    /// never contend with each other.
    #[must_use]
    pub fn producer(&self) -> IngestProducer {
        self.producer_resuming(0)
    }

    /// [`IngestQueue::producer`] whose sequence numbering *continues* at
    /// `start_seq` instead of restarting at zero: the first accepted
    /// batch carries `start_seq + 1`, and the producer's marks
    /// (`enqueued_seq`, `applied_seq`) start at `start_seq` — as if
    /// batches `1..=start_seq` had already been accepted and applied.
    ///
    /// This is the server-restart half of exactly-once ingest over a
    /// process boundary: a store recovered from disk reports each
    /// producer's durable [`ProducerMark`]; recreating the producers *in
    /// producer-id order* with `producer_resuming(mark.applied_seq)`
    /// keeps the durable numbering and the live numbering one and the
    /// same, so a remote client can keep replaying against one cursor
    /// across any number of server restarts.
    #[must_use]
    pub fn producer_resuming(&self, start_seq: u64) -> IngestProducer {
        let ring_batches = self.inner.config.ring_batches;
        let ring = Arc::new(ProducerRing {
            lanes: (0..self.inner.router.shards())
                .map(|_| SpscRing::new(ring_batches))
                .collect(),
            committed_seq: AtomicU64::new(start_seq),
            enqueued_seq: AtomicU64::new(start_seq),
            applied_seq: AtomicU64::new(start_seq),
        });
        let mut registry = self.inner.registry.lock().expect("ingest registry lock");
        let id = registry.len() as u64;
        registry.push(Arc::clone(&ring));
        drop(registry);
        IngestProducer {
            inner: Arc::clone(&self.inner),
            ring,
            id,
            next_seq: start_seq + 1,
            pairs: Vec::new(),
            slots: HashMap::default(),
            events: 0,
            refused_events: 0,
        }
    }

    /// Closes the queue: producers' further flushes are refused, and
    /// appliers drain what remains, then observe end-of-stream.
    /// Idempotent.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        self.inner.ready.notify();
        self.inner.space.notify();
    }

    /// True once [`IngestQueue::close`] has run.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// A moment-in-time snapshot of every producer's lanes (the `Arc`s
    /// keep them alive across a burst without holding the registry
    /// lock).
    fn rings(&self) -> Vec<Arc<ProducerRing>> {
        self.inner
            .registry
            .lock()
            .expect("ingest registry lock")
            .clone()
    }

    /// True when some producer has committed batches not yet applied.
    fn has_ready(&self) -> bool {
        let registry = self.inner.registry.lock().expect("ingest registry lock");
        registry.iter().any(|r| r.committed() > r.applied())
    }

    /// The drains' burst gate: blocks until some producer has
    /// committed-but-unapplied batches, returning the ring snapshot to cut
    /// the burst over. Returns `None` once the queue is closed *and*
    /// fully applied.
    pub(crate) fn next_burst(&self) -> Option<Vec<Arc<ProducerRing>>> {
        loop {
            let rings = self.rings();
            if rings.iter().any(|r| r.committed() > r.applied()) {
                return Some(rings);
            }
            if self.inner.closed.load(Ordering::SeqCst) {
                // A producer that saw `closed == false` had already
                // registered in `pushers` (SeqCst total order), so once
                // the count reaches zero every racing push has committed
                // or been refused — the final re-check misses nothing.
                // Yield, don't spin: the racing producer may need this
                // very core to finish its push (single-core hosts).
                while self.inner.pushers.load(Ordering::SeqCst) != 0 {
                    std::thread::yield_now();
                }
                let rings = self.rings();
                if rings.iter().any(|r| r.committed() > r.applied()) {
                    return Some(rings);
                }
                return None;
            }
            self.inner
                .ready
                .wait(|| self.has_ready() || self.inner.closed.load(Ordering::SeqCst));
        }
    }

    /// Wakes producers parked on lane space (rung by the drains after
    /// pops; one atomic load when nobody waits).
    pub(crate) fn notify_space(&self) {
        self.inner.space.notify();
    }

    /// Records events applied by a burst (the per-producer marks advance
    /// separately, via [`ProducerRing::note_applied_seq`]).
    pub(crate) fn note_applied_events(&self, events: u64) {
        self.inner
            .totals
            .applied_events
            .fetch_add(events, Ordering::Relaxed);
    }

    /// Drains every remaining batch into `engine` on the calling thread,
    /// blocking until the queue closes. Returns the events applied by
    /// this call.
    ///
    /// Bursts and cuts are those of [`IngestQueue::drain_routed`], but
    /// each burst is applied shard by shard (each shard's lanes in
    /// producer-id order) with no worker threads: the serial reference
    /// the threaded drain is held to.
    ///
    /// # Panics
    ///
    /// Panics if the queue's router does not match `engine`'s partition.
    pub fn drain_into<C: ApproxCounter + Clone>(&self, engine: &mut CounterEngine<C>) -> u64 {
        crate::applier::drain_serial(self, engine)
    }

    /// Drains through one persistent worker thread per shard, each popping
    /// its own lanes, while this thread coordinates bursts (consistent
    /// cuts, epoch stamping, sequence marks). Blocks until the queue
    /// closes; returns the events applied by this call.
    ///
    /// A burst drains each producer up to a consistent cut of
    /// fully-committed sequence numbers (at most
    /// [`IngestConfig::burst_batches`] per producer), so per-producer FIFO
    /// holds per shard and counter states are bit-identical to
    /// [`IngestQueue::drain_into`] on the same arrival order.
    ///
    /// `tap`, when given, sees exactly the applied `(key, delta)` traffic
    /// — the observation point for stream consumers such as a hot-key
    /// detector feeding tier migrations. Each shard worker keeps the
    /// pairs it applied, and at the burst boundary they reach `tap` one
    /// shard at a time, in shard order: grouped by shard rather than by
    /// arrival, which frequency estimation does not mind. Without a tap
    /// the workers collect nothing.
    ///
    /// `hook(engine, applied_events_so_far)` then runs once per burst on
    /// this thread with the engine quiescent, so it may freeze snapshots,
    /// publish replicas, run tier rounds, or cut checkpoints on a
    /// [`CheckpointCadence`] (the applied sequence marks visible through
    /// [`IngestQueue::applied_marks`] are exact there).
    ///
    /// # Panics
    ///
    /// Panics if the queue's router does not match `engine`'s partition.
    pub fn drain_routed<C, F>(
        &self,
        engine: &mut CounterEngine<C>,
        tap: Option<PairTap<'_>>,
        hook: F,
    ) -> u64
    where
        C: ApproxCounter + Clone + Send + Sync,
        F: FnMut(&mut CounterEngine<C>, u64),
    {
        crate::applier::drain_threaded(self, engine, tap, hook)
    }

    /// The per-producer sequence high-water marks, in producer-id order.
    /// Read from a drain hook (burst boundary) these are exact; read from
    /// elsewhere they are a moment-in-time snapshot.
    #[must_use]
    pub fn applied_marks(&self) -> Vec<ProducerMark> {
        let registry = self.inner.registry.lock().expect("ingest registry lock");
        registry
            .iter()
            .enumerate()
            .map(|(i, ring)| ProducerMark {
                producer: i as u64,
                enqueued_seq: ring.enqueued_seq.load(Ordering::SeqCst),
                applied_seq: ring.applied_seq.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Events accepted into lanes but not yet applied — `0` means the
    /// pipeline is momentarily drained dry. A two-atomic probe (no
    /// registry lock, no allocation), cheap enough for every burst
    /// boundary: the applier uses it to publish a read replica when a
    /// stream quiesces below the snapshot cadence, so the tail of a
    /// stream becomes visible to readers without waiting for `close`.
    ///
    /// Applied is read first, so a racing enqueue can only inflate the
    /// lag — a zero is never spurious.
    #[must_use]
    pub fn pending_events(&self) -> u64 {
        let applied = self.inner.totals.applied_events.load(Ordering::SeqCst);
        let enqueued = self.inner.totals.enqueued_events.load(Ordering::SeqCst);
        enqueued.saturating_sub(applied)
    }

    /// Diagnostics snapshot. Feed it to
    /// [`EngineStats::with_ingest`](crate::EngineStats::with_ingest) for a
    /// whole-pipeline summary.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        let depth = {
            let registry = self.inner.registry.lock().expect("ingest registry lock");
            registry.iter().map(|r| r.depth()).sum()
        };
        let t = &self.inner.totals;
        IngestStats {
            queue_depth: depth,
            enqueued_batches: t.enqueued_batches.load(Ordering::Relaxed),
            enqueued_events: t.enqueued_events.load(Ordering::Relaxed),
            applied_events: t.applied_events.load(Ordering::Relaxed),
            dropped_batches: t.dropped_batches.load(Ordering::Relaxed),
            dropped_events: t.dropped_events.load(Ordering::Relaxed),
            producers: self.applied_marks(),
        }
    }
}

/// An event-count cadence for [`IngestQueue::drain_routed`] burst hooks
/// (checkpoint cuts, snapshot publication): fires once per crossing of an
/// `every_events` boundary, catching up (without firing repeatedly) when
/// one burst jumps several boundaries at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointCadence {
    every: u64,
    due: u64,
}

impl CheckpointCadence {
    /// Creates the cadence; the first firing is at `every_events`.
    ///
    /// # Panics
    ///
    /// Panics if `every_events` is zero.
    #[must_use]
    pub fn new(every_events: u64) -> Self {
        assert!(every_events > 0, "cadence must be positive");
        Self {
            every: every_events,
            due: every_events,
        }
    }

    /// True when `applied` has crossed the next boundary; advances the
    /// boundary past `applied` so each crossing fires exactly once.
    pub fn is_due(&mut self, applied: u64) -> bool {
        if applied < self.due {
            return false;
        }
        while self.due <= applied {
            self.due += self.every;
        }
        true
    }
}

/// A producer handle: coalesces per-key increments locally, publishing
/// full batches into its own lock-free lanes. Dropping the handle flushes
/// any partial batch (per the backpressure policy). Each handle owns a
/// unique producer id; its accepted batches are numbered 1, 2, 3, … (see
/// the module docs on provenance).
#[derive(Debug)]
pub struct IngestProducer {
    inner: Arc<Inner>,
    /// This producer's lanes (`inner.registry[id]`).
    ring: Arc<ProducerRing>,
    /// This producer's id (its registry index).
    id: u64,
    /// Sequence number the next *accepted* batch will carry.
    next_seq: u64,
    /// The batch under construction.
    pairs: Vec<(u64, u64)>,
    /// key → position in `pairs`, so repeat keys coalesce. SplitMix64
    /// keying: the coalescing map sat on the hot `record` path, where
    /// SipHash was a dominant per-event cost (the keys are not
    /// adversarial — same reasoning as the shard index).
    slots: HashMap<u64, usize, BuildSplitMix64>,
    /// Sum of deltas in `pairs`.
    events: u64,
    /// Events this producer has had refused (dropped) since the last
    /// [`IngestProducer::take_refused_events`] — including refusals from
    /// `record`'s silent auto-flush under `Block`/`DropNewest`. Always 0
    /// under [`BackpressurePolicy::Fail`], which never discards.
    refused_events: u64,
}

impl IngestProducer {
    /// This producer's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The sequence number of the last batch this producer had accepted
    /// into its lanes (0 before the first).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Records `delta` increments to `key`. Repeat keys within the current
    /// batch coalesce into one pair; a full batch flushes automatically
    /// per the backpressure policy (under [`BackpressurePolicy::Fail`]
    /// with a full lane, the buffer is retained and keeps growing until
    /// a [`IngestProducer::try_send`] / [`IngestProducer::send`] call
    /// can surface the refusal).
    pub fn record(&mut self, key: u64, delta: u64) {
        if delta == 0 {
            return;
        }
        match self.slots.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let pair = &mut self.pairs[*e.get()];
                pair.1 = pair.1.saturating_add(delta);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.pairs.len());
                self.pairs.push((key, delta));
            }
        }
        self.events = self.events.saturating_add(delta);
        if self.pairs.len() >= self.inner.config.batch_pairs {
            let fail = matches!(self.inner.config.policy, BackpressurePolicy::Fail);
            if !(fail && self.ring.full_hint()) {
                let _ = self.flush_policy();
            }
        }
    }

    /// Pairs buffered in the batch under construction.
    #[must_use]
    pub fn pending_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Events (sum of deltas) buffered in the batch under construction.
    #[must_use]
    pub fn pending_events(&self) -> u64 {
        self.events
    }

    /// Returns — and resets — the events this producer has had refused
    /// since the last call. Non-zero means data was dropped, *including*
    /// by [`IngestProducer::record`]'s automatic flush of a full batch,
    /// whose outcome nobody sees; callers that promised losslessness
    /// check this after flushing. Provably always 0 under
    /// [`BackpressurePolicy::Fail`].
    pub fn take_refused_events(&mut self) -> u64 {
        std::mem::take(&mut self.refused_events)
    }

    /// Publishes the current batch (if any) into the lanes without ever
    /// blocking.
    ///
    /// # Errors
    ///
    /// [`SendError::Full`] when a destination lane has no free slot and
    /// [`SendError::Closed`] after [`IngestQueue::close`] — both carry
    /// the batch, so nothing is lost: hold it and
    /// [`resubmit`](IngestProducer::resubmit) later, or shed it
    /// deliberately.
    pub fn try_send(&mut self) -> Result<(), SendError> {
        self.submit(false)
    }

    /// Publishes the current batch (if any), parking on the space
    /// doorbell while a destination lane is full — the lossless blocking
    /// path.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] (with the batch) if the queue closes before
    /// a slot frees up.
    pub fn send(&mut self) -> Result<(), SendError> {
        self.submit(true)
    }

    /// Re-offers a batch previously returned inside a [`SendError`].
    /// Nonblocking, like [`IngestProducer::try_send`]. The batch is
    /// re-stamped with this producer's next sequence number (its refusal
    /// rolled the sequence back, so the numbering stays gapless).
    ///
    /// # Errors
    ///
    /// [`SendError::Full`] / [`SendError::Closed`], carrying the batch
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if `batch` came from a different producer — sequence
    /// provenance is per-producer and cannot be transplanted.
    pub fn resubmit(&mut self, batch: Batch) -> Result<(), SendError> {
        assert_eq!(
            batch.producer, self.id,
            "resubmit: batch belongs to producer {} not {}",
            batch.producer, self.id
        );
        let events = batch.events();
        self.submit_pairs(batch.pairs, events, false)
    }

    /// Publishes one *prepared* batch — exactly these pairs, exactly one
    /// sequence number — parking while a lane is full, and returns the
    /// sequence number the batch was accepted under. Any pairs buffered
    /// by [`IngestProducer::record`] are flushed first so they cannot
    /// interleave mid-batch.
    ///
    /// This is the wire-ingest path: a network server replaying a
    /// client's batch stream maps each wire batch to exactly one ingest
    /// batch, which keeps the client's numbering and the durable
    /// [`ProducerMark`]s interchangeable.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] (carrying the batch) if the queue closes
    /// before a slot frees up.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` carries no events (every delta zero, or no
    /// pairs at all): an eventless batch would have to advance the
    /// applied mark past batches still in flight to keep the numbering
    /// gapless, which would corrupt the exactly-once cursor. Callers
    /// own batch formation, so they filter empties before numbering.
    pub fn submit_batch(&mut self, mut pairs: Vec<(u64, u64)>) -> Result<u64, SendError> {
        self.submit(true)?;
        pairs.retain(|&(_, delta)| delta != 0);
        assert!(
            !pairs.is_empty(),
            "submit_batch: a batch must carry at least one event"
        );
        let events = pairs
            .iter()
            .map(|&(_, d)| d)
            .fold(0u64, u64::saturating_add);
        let seq = self.next_seq;
        self.submit_pairs(pairs, events, true).map(|()| seq)
    }

    /// The policy-directed flush behind `record`'s auto-flush, `Drop`,
    /// and the store writer's lossy-path reporter. Returns `true` if the
    /// batch was accepted (vacuously for an empty buffer), `false` if it
    /// was refused. Sequence numbers advance only over accepted batches,
    /// so a refused batch never leaves a hole in the applied sequence.
    pub(crate) fn flush_policy(&mut self) -> bool {
        match self.inner.config.policy {
            BackpressurePolicy::Block => match self.send() {
                Ok(()) => true,
                // `send` only fails on close; refuse loudly in the stats
                // rather than deadlocking or silently succeeding.
                Err(err) => {
                    self.discard(err.into_batch());
                    false
                }
            },
            BackpressurePolicy::DropNewest => match self.try_send() {
                Ok(()) => true,
                Err(err) => {
                    self.discard(err.into_batch());
                    false
                }
            },
            BackpressurePolicy::Fail => match self.try_send() {
                Ok(()) => true,
                Err(SendError::Full(batch)) => {
                    // Never drop under Fail: the buffer is restored and
                    // the refusal surfaces at the next try_send/send.
                    self.restore(batch);
                    false
                }
                Err(SendError::Closed(batch)) => {
                    self.discard(batch);
                    false
                }
            },
        }
    }

    /// Counts a refused batch as dropped (stats + the per-producer
    /// refused tally) and discards it.
    fn discard(&mut self, batch: Batch) {
        let events = batch.events();
        let t = &self.inner.totals;
        t.dropped_batches.fetch_add(1, Ordering::Relaxed);
        t.dropped_events.fetch_add(events, Ordering::Relaxed);
        self.refused_events = self.refused_events.saturating_add(events);
    }

    /// Puts a refused batch back as the buffer under construction
    /// (rebuilding the coalescing index). Only called when the buffer is
    /// empty — immediately after a failed submit took it.
    fn restore(&mut self, batch: Batch) {
        debug_assert!(self.pairs.is_empty(), "restore over a live buffer");
        self.events = batch.events();
        self.slots = batch
            .pairs
            .iter()
            .enumerate()
            .map(|(i, &(key, _))| (key, i))
            .collect();
        self.pairs = batch.pairs;
    }

    /// Takes the buffer and offers it; empty buffers vacuously succeed.
    fn submit(&mut self, park: bool) -> Result<(), SendError> {
        if self.pairs.is_empty() {
            return Ok(());
        }
        let pairs = std::mem::take(&mut self.pairs);
        let events = std::mem::take(&mut self.events);
        self.slots.clear();
        self.submit_pairs(pairs, events, park)
    }

    /// The one publish path: stamps the next sequence number, routes
    /// each pair once (cache-hot, on this thread), pushes each shard's
    /// slice into its lane **all-or-nothing**, then advances the commit
    /// mark so consumers see the batch atomically. The sequence/mark
    /// bookkeeping stays exact on every outcome.
    ///
    /// The all-or-nothing space check is sound without locking: this
    /// producer is its lanes' only pusher, and consumers only free slots,
    /// so space observed before the pushes cannot shrink under us.
    /// Refusal keeps `pairs` in original first-touch order, so
    /// [`SendError`] carries the batch exactly as it was recorded.
    fn submit_pairs(
        &mut self,
        pairs: Vec<(u64, u64)>,
        events: u64,
        park: bool,
    ) -> Result<(), SendError> {
        let router = self.inner.router;
        let seq = self.next_seq;
        // Speculative enqueued mark *before* the batch becomes drainable,
        // so a consumer can never observe applied_seq > enqueued_seq.
        // Rolled back below on refusal (this thread is the mark's only
        // writer, so the rollback is exact).
        self.ring.enqueued_seq.store(seq, Ordering::SeqCst);
        let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); router.shards()];
        for &(key, delta) in &pairs {
            buckets[router.shard_of(key)].push((key, delta));
        }
        loop {
            // The pushers guard makes "push racing close" lossless: we
            // register before checking `closed`, so a closing consumer
            // that finds `pushers > 0` waits out this window before its
            // final sweep (see `next_burst`).
            self.inner.pushers.fetch_add(1, Ordering::SeqCst);
            if self.inner.closed.load(Ordering::SeqCst) {
                self.inner.pushers.fetch_sub(1, Ordering::SeqCst);
                self.ring.enqueued_seq.store(seq - 1, Ordering::SeqCst);
                return Err(SendError::Closed(Batch {
                    producer: self.id,
                    seq,
                    pairs,
                }));
            }
            let blocked = |ring: &ProducerRing| {
                buckets
                    .iter()
                    .enumerate()
                    .any(|(shard, b)| !b.is_empty() && ring.lane(shard).is_full())
            };
            if blocked(&self.ring) {
                self.inner.pushers.fetch_sub(1, Ordering::SeqCst);
                if park {
                    self.inner
                        .space
                        .wait(|| !blocked(&self.ring) || self.inner.closed.load(Ordering::SeqCst));
                    continue;
                }
                self.ring.enqueued_seq.store(seq - 1, Ordering::SeqCst);
                return Err(SendError::Full(Batch {
                    producer: self.id,
                    seq,
                    pairs,
                }));
            }
            for (shard, bucket) in buckets.iter_mut().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                let slice = LaneBatch {
                    seq,
                    pairs: std::mem::take(bucket),
                };
                assert!(
                    self.ring.lane(shard).push(slice).is_ok(),
                    "lane space was checked and only this producer pushes"
                );
            }
            // Commit *after* every slice is published (SeqCst): a
            // consumer cut at or below this mark never splits a batch.
            self.ring.committed_seq.store(seq, Ordering::SeqCst);
            self.inner.pushers.fetch_sub(1, Ordering::SeqCst);
            self.next_seq = seq + 1;
            let t = &self.inner.totals;
            t.enqueued_batches.fetch_add(1, Ordering::Relaxed);
            t.enqueued_events.fetch_add(events, Ordering::Relaxed);
            self.inner.ready.notify();
            return Ok(());
        }
    }
}

impl Drop for IngestProducer {
    fn drop(&mut self) {
        let _ = self.flush_policy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::EngineConfig;
    use ac_core::{ExactCounter, NelsonYuCounter, NyParams};
    use std::thread;

    fn small(ring_batches: usize, batch_pairs: usize, policy: BackpressurePolicy) -> IngestConfig {
        IngestConfig::new()
            .with_ring_batches(ring_batches)
            .with_batch_pairs(batch_pairs)
            .with_policy(policy)
    }

    /// The engine config behind [`one_lane`]'s partition.
    fn one_shard() -> EngineConfig {
        EngineConfig::new().with_shards(1)
    }

    /// A 1-shard queue: every accepted batch lands whole, pairs in
    /// first-touch order, as one slice on its producer's lane 0 — the
    /// batch-granular view the tests below inspect through [`pop`].
    fn one_lane(
        ring_batches: usize,
        batch_pairs: usize,
        policy: BackpressurePolicy,
    ) -> IngestQueue {
        IngestQueue::new(
            small(ring_batches, batch_pairs, policy),
            ShardRouter::new(one_shard()),
        )
    }

    /// Pops the next lane-0 slice of a [`one_lane`] queue (lowest
    /// producer id first) as the batch it carries, freeing its slot.
    fn pop(q: &IngestQueue) -> Option<Batch> {
        q.rings().iter().enumerate().find_map(|(id, ring)| {
            let slice = ring.lane(0).pop()?;
            q.notify_space();
            Some(Batch {
                producer: id as u64,
                seq: slice.seq,
                pairs: slice.pairs,
            })
        })
    }

    #[test]
    fn coalesces_repeat_keys_within_a_batch() {
        let q = one_lane(4, 100, BackpressurePolicy::Block);
        let mut p = q.producer();
        for _ in 0..10 {
            p.record(7, 3);
        }
        p.record(8, 1);
        assert_eq!(p.pending_pairs(), 2, "10 hits on key 7 coalesce to one");
        assert!(p.try_send().is_ok());
        let batch = pop(&q).unwrap();
        assert_eq!(batch.pairs, vec![(7, 30), (8, 1)]);
        assert_eq!(batch.producer, p.id());
        assert_eq!(batch.seq, 1, "first accepted batch");
    }

    #[test]
    fn resuming_producer_continues_the_durable_numbering() {
        let q = one_lane(8, 4, BackpressurePolicy::Block);
        let mut p = q.producer_resuming(41);
        assert_eq!(p.last_seq(), 41, "resume mark is the last *accepted* seq");
        p.record(3, 5);
        assert!(p.try_send().is_ok());
        let batch = pop(&q).unwrap();
        assert_eq!(batch.seq, 42, "first batch after resume follows the mark");
        assert_eq!(p.last_seq(), 42);
    }

    #[test]
    fn submit_batch_numbers_one_wire_batch_per_ring_batch() {
        let q = one_lane(8, 4, BackpressurePolicy::Block);
        let mut p = q.producer();
        p.record(9, 1); // buffered pairs flush first, under their own seq
        let seq = p.submit_batch(vec![(1, 2), (2, 0), (3, 4)]).unwrap();
        assert_eq!(seq, 2, "buffered flush took seq 1");
        let first = pop(&q).unwrap();
        assert_eq!((first.seq, first.pairs.clone()), (1, vec![(9, 1)]));
        let wire = pop(&q).unwrap();
        assert_eq!(wire.seq, 2);
        assert_eq!(wire.pairs, vec![(1, 2), (3, 4)], "zero deltas shed");
        assert_eq!(p.last_seq(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn submit_batch_refuses_eventless_batches() {
        let q = one_lane(8, 4, BackpressurePolicy::Block);
        let mut p = q.producer();
        let _ = p.submit_batch(vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn full_batches_auto_flush() {
        let q = one_lane(8, 3, BackpressurePolicy::Block);
        let mut p = q.producer();
        for key in 0..7u64 {
            p.record(key, 1);
        }
        // 7 distinct keys at 3 pairs/batch: two auto-flushes, one pending.
        assert_eq!(q.stats().enqueued_batches, 2);
        assert_eq!(p.pending_pairs(), 1);
        assert_eq!(p.last_seq(), 2);
    }

    #[test]
    fn drop_policy_counts_refused_batches() {
        let q = one_lane(1, 1, BackpressurePolicy::DropNewest);
        let mut p = q.producer();
        p.record(1, 5); // fills the lane
        p.record(2, 7); // refused: lane full, drop policy
        p.record(3, 9); // still refused
        let s = q.stats();
        assert_eq!(s.enqueued_batches, 1);
        assert_eq!(s.dropped_batches, 2);
        assert_eq!(s.dropped_events, 16);
        assert_eq!(s.queue_depth, 1);
        // Dropped batches never consumed a sequence number.
        assert_eq!(p.last_seq(), 1);
        assert_eq!(p.take_refused_events(), 16);
    }

    #[test]
    fn fail_policy_surfaces_refusal_and_never_drops() {
        let q = one_lane(1, 1, BackpressurePolicy::Fail);
        let mut p = q.producer();
        p.record(1, 5); // auto-flush fills the lane
        p.record(2, 7); // lane full: buffer retained, nothing dropped
        p.record(3, 9); // buffer keeps growing past batch_pairs
        assert_eq!(p.pending_pairs(), 2, "Fail retains instead of dropping");
        let err = p.try_send().expect_err("lane is full");
        assert!(err.is_full());
        let batch = err.into_batch();
        assert_eq!(batch.pairs, vec![(2, 7), (3, 9)]);
        // The old silent-loss path is unreachable: nothing was counted
        // dropped, and the refused tally never moved.
        let s = q.stats();
        assert_eq!(s.dropped_batches, 0);
        assert_eq!(s.dropped_events, 0);
        assert_eq!(p.take_refused_events(), 0);
        // Drain one batch, resubmit the refused one: gapless sequence.
        let first = pop(&q).unwrap();
        assert_eq!(first.seq, 1);
        assert!(p.resubmit(batch).is_ok());
        let second = pop(&q).unwrap();
        assert_eq!(second.seq, 2, "refusal rolled the sequence back");
        assert_eq!(second.pairs, vec![(2, 7), (3, 9)]);
    }

    #[test]
    fn send_parks_until_the_applier_frees_a_slot() {
        let q = one_lane(1, 4, BackpressurePolicy::Block);
        let mut p = q.producer();
        p.record(1, 1);
        assert!(p.send().is_ok(), "slot available: no park");
        p.record(2, 1);
        let popped = thread::scope(|s| {
            let q2 = q.clone();
            let popper = s.spawn(move || {
                // Give the sender time to park, then free the slot.
                thread::sleep(std::time::Duration::from_millis(20));
                pop(&q2)
            });
            assert!(p.send().is_ok(), "send must resume after the pop");
            popper.join().expect("popper thread")
        });
        assert_eq!(popped.unwrap().seq, 1);
        assert_eq!(q.stats().enqueued_batches, 2);
    }

    #[test]
    fn close_refuses_late_flushes() {
        let q = one_lane(4, 10, BackpressurePolicy::Block);
        let mut p = q.producer();
        p.record(1, 1);
        q.close();
        let err = p.send().expect_err("send after close must fail, not hang");
        assert!(!err.is_full());
        assert_eq!(err.batch().events(), 1, "the data comes back");
        let mut engine = CounterEngine::new(ExactCounter::new(), one_shard());
        assert_eq!(q.drain_into(&mut engine), 0, "closed and empty");
        // Dropping the handle flushes its partial batch by policy; after
        // close the refusal is counted instead.
        p.record(2, 1);
        drop(p);
        let s = q.stats();
        assert_eq!(s.dropped_batches, 1);
        assert_eq!(s.dropped_events, 1);
    }

    #[test]
    fn sequence_marks_track_enqueue_and_apply() {
        let mut engine = CounterEngine::new(ExactCounter::new(), EngineConfig::default());
        let q = IngestQueue::new(small(16, 2, BackpressurePolicy::Block), engine.router());
        let mut p = q.producer();
        for key in 0..6u64 {
            p.record(key, 1); // 3 auto-flushed batches of 2 pairs
        }
        let marks = q.applied_marks();
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].producer, p.id());
        assert_eq!(marks[0].enqueued_seq, 3);
        assert_eq!(marks[0].applied_seq, 0, "nothing drained yet");

        q.close();
        let applied = q.drain_into(&mut engine);
        assert_eq!(applied, 6);
        let marks = q.applied_marks();
        assert_eq!(marks[0].applied_seq, 3, "all three batches applied");
        assert_eq!(marks[0].enqueued_seq, 3);
    }

    #[test]
    fn producers_get_distinct_ids_and_independent_sequences() {
        let q = one_lane(16, 1, BackpressurePolicy::Block);
        let mut a = q.producer();
        let mut b = q.producer();
        assert_ne!(a.id(), b.id());
        a.record(1, 1);
        a.record(2, 1);
        b.record(3, 1);
        let stats = q.stats();
        assert_eq!(stats.producers.len(), 2);
        let find = |id: u64| *stats.producers.iter().find(|m| m.producer == id).unwrap();
        assert_eq!(find(a.id()).enqueued_seq, 2);
        assert_eq!(find(b.id()).enqueued_seq, 1);
    }

    #[test]
    fn drain_matches_direct_apply_bit_for_bit() {
        // Single producer + serial drain == engine.apply on the same
        // stream: the lossless determinism contract.
        let p = NyParams::new(0.25, 8).unwrap();
        let cfg = EngineConfig::new().with_shards(4).with_seed(7);
        let mut direct = CounterEngine::new(NelsonYuCounter::new(p), cfg);
        let mut piped = CounterEngine::new(NelsonYuCounter::new(p), cfg);

        // Capacity must hold every batch: this single-threaded test only
        // drains after close, so a tight bound would park the producer.
        let q = IngestQueue::new(small(64, 5, BackpressurePolicy::Block), piped.router());
        let mut prod = q.producer();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut pending: Vec<(u64, u64)> = Vec::new();
        for i in 0..137u64 {
            let (key, delta) = (i % 11, 1 + i % 97);
            prod.record(key, delta);
            // Mirror the coalescing: same batch boundaries, same merge.
            if let Some(pair) = pending.iter_mut().find(|p| p.0 == key) {
                pair.1 += delta;
            } else {
                pending.push((key, delta));
            }
            if pending.len() == 5 {
                reference.append(&mut pending);
            }
        }
        drop(prod); // flushes the partial batch
        reference.append(&mut pending);
        q.close();

        direct.apply(&reference);
        let applied = q.drain_into(&mut piped);
        assert_eq!(applied, direct.total_events());
        for key in 0..11u64 {
            assert_eq!(direct.counter(key), piped.counter(key), "key {key}");
        }
    }

    #[test]
    fn multi_producer_totals_are_conserved() {
        // 4 producer threads, one serial drain thread, tiny lanes:
        // nothing lost under the blocking policy, and the engine's exact
        // event count equals the producers' submissions.
        let mut engine = CounterEngine::new(ExactCounter::new(), EngineConfig::default());
        let q = IngestQueue::new(small(2, 8, BackpressurePolicy::Block), engine.router());
        let per_producer = 5_000u64;
        let producers = 4u64;

        let applied = thread::scope(|s| {
            let handles: Vec<_> = (0..producers)
                .map(|t| {
                    let q = q.clone();
                    s.spawn(move || {
                        let mut p = q.producer();
                        for i in 0..per_producer {
                            p.record((t * per_producer + i) % 257, 1);
                        }
                    })
                })
                .collect();
            // The drain runs concurrently with the producers and returns
            // once the queue is closed and drained.
            let drain = s.spawn(|| q.drain_into(&mut engine));
            for h in handles {
                h.join().expect("producer thread");
            }
            q.close();
            drain.join().expect("applier thread")
        });
        assert_eq!(applied, per_producer * producers);
        assert_eq!(engine.total_events(), per_producer * producers);
        let s = q.stats();
        assert_eq!(s.dropped_batches, 0);
        assert_eq!(s.applied_events, per_producer * producers);
        assert_eq!(s.queue_depth, 0);
        // Every producer's accepted stream was fully applied.
        assert_eq!(s.producers.len(), producers as usize);
        for m in &s.producers {
            assert_eq!(m.applied_seq, m.enqueued_seq, "producer {}", m.producer);
            assert!(m.applied_seq > 0);
        }
    }

    #[test]
    fn stats_fold_into_engine_stats() {
        let q = one_lane(4, 2, BackpressurePolicy::DropNewest);
        let mut p = q.producer();
        for key in 0..20u64 {
            p.record(key, 1);
        }
        let engine = CounterEngine::new(ExactCounter::new(), EngineConfig::default());
        let stats = engine.stats().with_ingest(&q.stats());
        assert_eq!(stats.queue_depth, 4, "bounded at lane capacity");
        assert_eq!(stats.dropped_batches, q.stats().dropped_batches);
        assert_eq!(stats.dropped_events, q.stats().dropped_events);
        assert!(stats.dropped_batches > 0, "overflow must be visible");
        assert_eq!(stats.producers, q.stats().producers);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = one_lane(0, 1, BackpressurePolicy::Block);
    }

    #[test]
    fn cadence_fires_once_per_boundary_crossing() {
        let mut c = CheckpointCadence::new(100);
        assert!(!c.is_due(0));
        assert!(!c.is_due(99));
        assert!(c.is_due(100), "boundary reached");
        assert!(!c.is_due(150), "already fired for this window");
        assert!(c.is_due(500), "jumping several boundaries fires once");
        assert!(!c.is_due(599));
        assert!(c.is_due(600));
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn cadence_rejects_zero() {
        let _ = CheckpointCadence::new(0);
    }

    #[test]
    fn checkpointed_drain_cuts_a_restorable_chain_on_cadence() {
        use crate::checkpoint::restore_checkpoint_chain;
        use crate::checkpointer::{BackgroundCheckpointer, CheckpointerConfig};

        let template = NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap());
        let mut engine = CounterEngine::new(
            template.clone(),
            EngineConfig::new().with_shards(4).with_seed(3),
        );
        // Capacity must hold every batch: this test drains only after
        // close, so a tight bound would park the single producer. Bursts
        // of 16 batches (~1k events) let the 2k cadence fire several
        // times over the ~16k-event stream.
        let q = IngestQueue::new(
            small(512, 16, BackpressurePolicy::Block).with_burst_batches(16),
            engine.router(),
        );
        let mut p = q.producer();
        for i in 0..4_000u64 {
            p.record(i % 300, 1 + i % 7);
        }
        drop(p);
        q.close();

        let ckpt = BackgroundCheckpointer::spawn(
            CheckpointerConfig::new()
                .with_every_events(2_000)
                .with_max_deltas_per_base(8)
                .with_retain_bytes(true),
        );
        let mut cadence = CheckpointCadence::new(ckpt.config().every_events);
        let applied = q.drain_routed(&mut engine, None, |engine, applied| {
            if cadence.is_due(applied) {
                ckpt.submit_with_marks(engine.snapshot(), q.applied_marks());
            }
        });
        assert_eq!(applied, engine.total_events());
        // Durability lag is observable through the stats fold.
        let lag = engine
            .stats()
            .with_checkpointer(&ckpt.stats())
            .checkpoint_lag_events;
        assert!(lag < applied, "some checkpoint must have been cut");

        let report = ckpt.finish();
        assert!(
            report.records.len() >= 2,
            "~{applied} events at a 2k cadence must cut several frames"
        );
        assert_eq!(report.records[0].kind, crate::CheckpointKind::Full);
        // Each frame carries the applied sequence marks at its freeze.
        let last_marks = &report.records.last().unwrap().producer_marks;
        assert_eq!(last_marks.len(), 1);
        assert!(last_marks[0].applied_seq > 0);
        // The newest chain folds back to a true prefix of the stream:
        // every restored counter matches a state the engine actually
        // passed through (checked via event totals and a full replay of
        // the remaining batches on the restored engine).
        let chain = report.latest_chain().expect("bytes retained");
        let back = restore_checkpoint_chain(&template, &chain).unwrap();
        assert_eq!(
            back.total_events(),
            report.records.last().unwrap().events,
            "chain tip covers exactly the frozen prefix"
        );
        assert!(back.total_events() <= applied);
    }
}
