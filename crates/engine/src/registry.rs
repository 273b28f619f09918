//! The write layer: key→shard routing, slab ownership, and batch
//! application (sequential and one-thread-per-shard).
//!
//! This layer does exactly two things: own the per-shard counter slabs
//! and apply `(key, delta)` batches to them. Everything else lives in its
//! own layer — admission and coalescing in [`crate::ingest`], reads in
//! [`crate::snapshot`], durability in [`crate::checkpoint`].
//!
//! ## Copy-on-write epochs
//!
//! Each shard lives behind an [`Arc`]. A freeze
//! ([`CounterEngine::snapshot`]) clones the `Arc`s —
//! `O(shards)` pointer bumps — and bumps the engine's *epoch*. The write
//! path reaches shards only through [`Arc::make_mut`]: while a snapshot
//! still shares a shard, the first mutation after the freeze clones that
//! one shard's slab (copy-on-write); once the snapshot drops — or for
//! shards the snapshot era never touches — `make_mut` is a pointer check
//! and no copy ever happens. A freeze therefore costs `O(dirty shards)`
//! of copying, amortized into the writes that follow it, instead of the
//! old stop-the-world `O(keys)` clone. Every write also stamps its
//! shard's [`dirty epoch`](crate::shard::Shard::touch), which is what the
//! incremental checkpoint layer reads to serialize only shards dirtied
//! since a parent checkpoint.

use crate::checkpointer::CheckpointerStats;
use crate::ingest::{IngestStats, ProducerMark};
use crate::shard::{route, Shard};
use ac_core::{ApproxCounter, CoreError, Mergeable};
use ac_randkit::{RandomSource, SplitMix64};
use std::sync::{Arc, Mutex};

/// Engine construction parameters. Construct with the `const` builder
/// surface: `EngineConfig::new().with_shards(32).with_seed(7)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Number of shards. More shards mean more parallelism on
    /// [`CounterEngine::apply_parallel`] and smaller per-shard slabs; the
    /// key→shard partition (and therefore every counter's state) changes
    /// with this value, so treat it as part of the engine's identity.
    pub shards: usize,
    /// Seed for the per-shard RNGs and the key-routing hash.
    pub seed: u64,
}

impl EngineConfig {
    /// The default configuration (16 shards, fixed seed), as a `const`
    /// starting point for the `with_*` builders.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            shards: 16,
            seed: 0x00A5_5C01_17E5,
        }
    }

    /// Sets the shard count (part of the engine's identity).
    #[must_use]
    pub const fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the RNG/routing seed (part of the engine's identity).
    #[must_use]
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The key→shard partition of an engine, as a standalone copyable value:
/// the routing salt (derived from the config seed exactly as the engine
/// derives it) plus the shard count, applied through the same SplitMix64
/// finalizer + Lemire range reduction as [`CounterEngine::shard_of`].
///
/// This is what lets *producers* route pairs at send time — the
/// routed-ingest mode ([`IngestQueue::new_routed`](crate::IngestQueue::new_routed))
/// hashes each key once, where the data is cache-hot, instead of paying a
/// second pass on the drain thread. Two routers are interchangeable iff
/// they compare equal; [`CounterEngine::router`] is the canonical way to
/// obtain the router matching an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    salt: u64,
    shards: usize,
}

impl ShardRouter {
    /// Derives the router every engine built from `config` uses.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.shards > 0, "router needs at least one shard");
        let (salt, _) = salt_for(config.seed);
        Self {
            salt,
            shards: config.shards,
        }
    }

    /// The shard count this router partitions keys over.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard `key` routes to — identical to
    /// [`CounterEngine::shard_of`] on any engine with the same config.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        route(self.salt, self.shards, key)
    }

    pub(crate) fn from_parts(salt: u64, shards: usize) -> Self {
        Self { salt, shards }
    }
}

/// The routing salt and per-shard seeder derived from `seed` — engine
/// construction, checkpoint restore, and [`ShardRouter::new`] must all
/// derive them identically.
fn salt_for(seed: u64) -> (u64, SplitMix64) {
    let mut seeder = SplitMix64::new(seed);
    let salt = seeder.next_u64();
    (salt, seeder)
}

/// A point-in-time summary of the engine (and, when taken through
/// [`EngineStats::with_ingest`] / [`EngineStats::with_checkpointer`], of
/// the layers around it), for reports and capacity planning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Number of shards.
    pub shards: usize,
    /// Distinct keys currently tracked.
    pub keys: usize,
    /// Total increments applied (exact).
    pub events: u64,
    /// Sum of live counter register bits across all shards — the quantity
    /// a tiering budget caps. Maintained incrementally per shard
    /// (`O(shards)` to read, never an `O(keys)` scan) and equal to what
    /// the checkpoint layer reports as
    /// [`CheckpointStats::counter_state_bits`](crate::CheckpointStats::counter_state_bits) —
    /// a test pins the two together.
    pub state_bits_total: u64,
    /// Distinct keys per accuracy tier (`tier_keys[t]` = keys tagged tier
    /// `t`; a never-tiered engine reports all keys in tier 0).
    pub tier_keys: Vec<u64>,
    /// Largest keys-per-shard count (load-balance diagnostic).
    pub max_shard_keys: usize,
    /// Shards written since the last freeze — the copy-on-write debt the
    /// *next* freeze will schedule, and exactly what a delta checkpoint
    /// against the last freeze would serialize.
    pub dirty_shards: usize,
    /// Wall-clock nanoseconds the most recent freeze
    /// ([`CounterEngine::snapshot`] or
    /// [`CounterEngine::snapshot_deep`]) took (0 before
    /// the first freeze).
    pub last_freeze_ns: u64,
    /// Events applied since the last checkpoint was cut (0 when no
    /// checkpointer is attached; see [`EngineStats::with_checkpointer`]).
    pub checkpoint_lag_events: u64,
    /// Batches sitting in the ingest queue, not yet applied (0 when no
    /// ingest layer is attached; see [`EngineStats::with_ingest`]).
    pub queue_depth: usize,
    /// Batches the ingest layer dropped because a producer's ring was
    /// full under [`BackpressurePolicy::DropNewest`](crate::BackpressurePolicy::DropNewest)
    /// (0 without an ingest layer).
    pub dropped_batches: u64,
    /// Events lost with those dropped batches (0 without an ingest
    /// layer).
    pub dropped_events: u64,
    /// Per-producer sequence high-water marks from the ingest layer, in
    /// producer-id order (empty without an ingest layer; see
    /// [`EngineStats::with_ingest`]).
    pub producers: Vec<ProducerMark>,
}

impl EngineStats {
    /// Average live counter register bits per tracked key — the budget
    /// gauge normalized for capacity planning (`0.0` with no keys).
    #[must_use]
    pub fn bits_per_key(&self) -> f64 {
        if self.keys == 0 {
            0.0
        } else {
            self.state_bits_total as f64 / self.keys as f64
        }
    }

    /// Folds ingest-layer diagnostics into an engine summary, so one
    /// struct describes the whole write pipeline — queue depth, drops,
    /// and the per-producer sequence high-water marks.
    #[must_use]
    pub fn with_ingest(mut self, ingest: &IngestStats) -> Self {
        self.queue_depth = ingest.queue_depth;
        self.dropped_batches = ingest.dropped_batches;
        self.dropped_events = ingest.dropped_events;
        self.producers = ingest.producers.clone();
        self
    }

    /// Folds background-checkpointer diagnostics in: how many applied
    /// events the newest durable checkpoint is behind the live engine.
    #[must_use]
    pub fn with_checkpointer(mut self, ckpt: &CheckpointerStats) -> Self {
        self.checkpoint_lag_events = self.events.saturating_sub(ckpt.last_checkpoint_events);
        self
    }
}

/// A fold of counters into one under the family's merge law
/// (Remark 2.4): the shared step of every `O(keys)` merged aggregate.
///
/// A counter with an exact count ([`Mergeable::exact_count`]) is only
/// added to a running `u64` sum, which lands in one
/// [`ApproxCounter::increment_by`] call at [`Fold::finish`]; only the
/// other counters pay a `merge_from`. Merging `n` deterministic
/// increments is `increment_by(n)`, and `increment_by(a)` then
/// `increment_by(b)` is distributed like `increment_by(a + b)`, so the
/// result has the distribution of merging every counter in turn. Only
/// the grouping of random draws differs. Exact counts are summed without
/// the parameter check `merge_from` makes: every caller folds clones of
/// one template (per tier, in a tiered fold).
#[derive(Debug, Clone)]
pub(crate) struct Fold<C> {
    acc: C,
    pending: u64,
}

impl<C: ApproxCounter + Mergeable + Clone> Fold<C> {
    /// A fold whose running aggregate starts at `start`.
    pub(crate) fn onto(start: C) -> Self {
        Self {
            acc: start,
            pending: 0,
        }
    }

    /// Adds `c` to the fold.
    pub(crate) fn add(&mut self, c: &C, rng: &mut dyn RandomSource) -> Result<(), CoreError> {
        match c.exact_count() {
            Some(n) => self.pending = self.pending.saturating_add(n),
            None => self.acc.merge_from(c, rng)?,
        }
        Ok(())
    }

    /// Adds `c` to the fold in `slot`, or starts that fold at a clone of
    /// `c` when the slot is empty (per-tier folds have no template).
    pub(crate) fn add_to(
        slot: &mut Option<Self>,
        c: &C,
        rng: &mut dyn RandomSource,
    ) -> Result<(), CoreError> {
        match slot {
            None => *slot = Some(Self::onto(c.clone())),
            Some(fold) => fold.add(c, rng)?,
        }
        Ok(())
    }

    /// The folded counter: the running aggregate with the summed exact
    /// counts applied.
    pub(crate) fn finish(mut self, rng: &mut dyn RandomSource) -> C {
        if self.pending > 0 {
            self.acc.increment_by(self.pending, rng);
        }
        self.acc
    }
}

/// One cached per-shard fold: the shard's counters merged into a single
/// counter, valid while the identifying triple still matches the shard.
/// `(dirty_epoch, events, len)` is a sound validity key within one engine
/// lineage: any state-changing write bumps `events` (a zero-delta update
/// changes neither events nor state), and a freeze opens a new epoch
/// before post-freeze writes can stamp it.
#[derive(Debug, Clone)]
pub(crate) struct FoldEntry<C> {
    pub(crate) dirty_epoch: u64,
    pub(crate) events: u64,
    pub(crate) len: usize,
    pub(crate) folded: C,
}

/// The merged-aggregate cache shared by an engine and every snapshot
/// frozen from it (one slot per shard). See
/// [`EngineSnapshot::merged_total`](crate::EngineSnapshot::merged_total).
pub(crate) type FoldCache<C> = Arc<Mutex<Vec<Option<FoldEntry<C>>>>>;

pub(crate) fn fresh_fold_cache<C>(shards: usize) -> FoldCache<C> {
    Arc::new(Mutex::new((0..shards).map(|_| None).collect()))
}

/// One cached per-shard **tiered** fold: the shard's counters merged
/// within each tier (`folded[t]` = the shard's tier-`t` aggregate, `None`
/// when the shard holds no tier-`t` keys). Valid while the same
/// `(dirty_epoch, events, len)` triple as [`FoldEntry`] matches *and* the
/// caller asks for the same ladder length. Tier **migrations** mutate
/// counter state without moving either `events` or `len`, so
/// [`CounterEngine::apply_migrations`] explicitly evicts the slots of
/// migrated shards (from this cache and from [`FoldCache`]) instead of
/// relying on the triple.
#[derive(Debug, Clone)]
pub(crate) struct TieredFoldEntry {
    pub(crate) dirty_epoch: u64,
    pub(crate) events: u64,
    pub(crate) len: usize,
    pub(crate) folded: Vec<Option<ac_core::CounterFamily>>,
}

/// The tiered merged-aggregate cache shared by an engine and every
/// snapshot frozen from it (one slot per shard). Concrete over
/// [`ac_core::CounterFamily`] because only tiered (ladder-bearing)
/// engines ever populate it; on other engines it stays empty.
pub(crate) type TieredFoldCache = Arc<Mutex<Vec<Option<TieredFoldEntry>>>>;

pub(crate) fn fresh_tiered_fold_cache(shards: usize) -> TieredFoldCache {
    Arc::new(Mutex::new((0..shards).map(|_| None).collect()))
}

/// A hash-sharded registry of per-key approximate counters — the write
/// layer of the engine pipeline.
///
/// Every key's counter is cloned on first touch from a template (reset at
/// construction), lives entirely within one shard, and advances through
/// the family's batched
/// [`increment_by`](ApproxCounter::increment_by) fast path. See the crate
/// docs for the determinism and aggregation contracts, and for the
/// surrounding layers: [`crate::IngestQueue`] feeds this type,
/// [`CounterEngine::snapshot`] freezes it for readers,
/// and [`crate::checkpoint_snapshot`] persists it.
#[derive(Debug)]
pub struct CounterEngine<C> {
    /// Copy-on-write shard slabs; see the module docs.
    shards: Vec<Arc<Shard<C>>>,
    template: C,
    config: EngineConfig,
    /// Salt for the key→shard hash, derived from the config seed.
    salt: u64,
    /// The current freeze epoch: bumped by every freeze, stamped onto
    /// shards by every write. Starts at 1 so a fresh shard's
    /// `dirty_epoch` of 0 reads as "never written".
    epoch: u64,
    /// Duration of the most recent freeze, in nanoseconds.
    last_freeze_ns: u64,
    /// Per-shard merged-aggregate cache, shared with snapshots.
    fold_cache: FoldCache<C>,
    /// Per-shard tiered-aggregate cache, shared with snapshots (empty on
    /// engines that never serve `merged_estimate_tiered`).
    tiered_fold_cache: TieredFoldCache,
}

impl<C: Clone> Clone for CounterEngine<C> {
    /// Clones the engine with a **fresh, empty** fold cache: a clone may
    /// diverge from the original within the same epoch, and the cache's
    /// validity key is only sound within one lineage.
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            template: self.template.clone(),
            config: self.config,
            salt: self.salt,
            epoch: self.epoch,
            last_freeze_ns: self.last_freeze_ns,
            fold_cache: fresh_fold_cache(self.shards.len()),
            tiered_fold_cache: fresh_tiered_fold_cache(self.shards.len()),
        }
    }
}

impl<C: ApproxCounter + Clone> CounterEngine<C> {
    /// Creates an engine whose counters are clones of `template` (reset
    /// before use, so a previously-used counter is a valid template).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(template: C, config: EngineConfig) -> Self {
        assert!(config.shards > 0, "engine needs at least one shard");
        let mut template = template;
        template.reset();
        let (salt, mut seeder) = salt_for(config.seed);
        let shards = (0..config.shards)
            .map(|_| Arc::new(Shard::new(seeder.next_u64())))
            .collect();
        Self {
            shards,
            template,
            config,
            salt,
            epoch: 1,
            last_freeze_ns: 0,
            fold_cache: fresh_fold_cache(config.shards),
            tiered_fold_cache: fresh_tiered_fold_cache(config.shards),
        }
    }

    /// Rebuilds an engine from restored shards (the checkpoint layer's
    /// constructor). The template is reset; shard count must match the
    /// config; `epoch` resumes the freeze-epoch clock from the restored
    /// checkpoint so subsequent deltas stay correctly ordered.
    pub(crate) fn from_restored(
        template: C,
        config: EngineConfig,
        shards: Vec<Shard<C>>,
        epoch: u64,
    ) -> Self {
        assert_eq!(config.shards, shards.len(), "shard count mismatch");
        assert!(config.shards > 0, "engine needs at least one shard");
        let mut template = template;
        template.reset();
        let (salt, _) = salt_for(config.seed);
        Self {
            shards: shards.into_iter().map(Arc::new).collect(),
            template,
            config,
            salt,
            epoch,
            last_freeze_ns: 0,
            fold_cache: fresh_fold_cache(config.shards),
            tiered_fold_cache: fresh_tiered_fold_cache(config.shards),
        }
    }

    /// The configuration the engine was built with (part of its identity:
    /// the checkpoint header embeds it).
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The shard a key routes to — stable for the engine's lifetime (the
    /// partition is part of its identity). Public so workload tools can
    /// construct shard-targeted traffic (e.g. the pipeline bench dirties
    /// exactly one shard to size a delta checkpoint).
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        route(self.salt, self.shards.len(), key)
    }

    /// The engine's key→shard partition as a standalone copyable value,
    /// for producer-side routing ([`crate::IngestQueue::new_routed`]).
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        ShardRouter::from_parts(self.salt, self.shards.len())
    }

    /// The routing salt (shared with snapshots).
    pub(crate) fn salt(&self) -> u64 {
        self.salt
    }

    /// The shard slabs (read-only view for the snapshot/checkpoint layers).
    pub(crate) fn shards(&self) -> &[Arc<Shard<C>>] {
        &self.shards
    }

    /// Moves a shard out of the engine for the pooled applier, leaving a
    /// placeholder. The engine is *not* a consistent view until the
    /// matching [`CounterEngine::put_shard`] — the applier only exposes
    /// it (to burst hooks) after every shard is back.
    pub(crate) fn take_shard(&mut self, index: usize) -> Arc<Shard<C>> {
        std::mem::replace(&mut self.shards[index], Arc::new(Shard::new(0)))
    }

    /// Reinstalls a shard moved out by [`CounterEngine::take_shard`].
    pub(crate) fn put_shard(&mut self, index: usize, shard: Arc<Shard<C>>) {
        self.shards[index] = shard;
    }

    /// Replaces whole shards with restored ones (a delta fold) and
    /// resumes the freeze-epoch clock at `epoch`. Replaced shards' fold
    /// cache slots are evicted: a restored shard's `(dirty_epoch,
    /// events, len)` triple is not a validity key against a cache
    /// filled from a different lineage step.
    pub(crate) fn install_restored(&mut self, shards: Vec<(usize, Shard<C>)>, epoch: u64) {
        let mut folds = self.fold_cache.lock().expect("fold cache lock");
        let mut tiered = self
            .tiered_fold_cache
            .lock()
            .expect("tiered fold cache lock");
        for (idx, shard) in shards {
            self.shards[idx] = Arc::new(shard);
            folds[idx] = None;
            tiered[idx] = None;
        }
        drop((folds, tiered));
        self.epoch = epoch;
    }

    /// The reset template counter.
    pub(crate) fn template(&self) -> &C {
        &self.template
    }

    /// The shared merged-aggregate cache (cloned into snapshots).
    pub(crate) fn fold_cache(&self) -> &FoldCache<C> {
        &self.fold_cache
    }

    /// The shared tiered-aggregate cache (cloned into snapshots).
    pub(crate) fn tiered_fold_cache(&self) -> &TieredFoldCache {
        &self.tiered_fold_cache
    }

    /// The current freeze epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Freeze bookkeeping for the snapshot layer: returns the epoch the
    /// frozen replica belongs to, advances the clock so subsequent writes
    /// stamp a strictly newer epoch, and records how long the freeze
    /// took.
    pub(crate) fn note_freeze(&mut self, freeze_ns: u64) -> u64 {
        let frozen = self.epoch;
        self.epoch += 1;
        self.last_freeze_ns = freeze_ns;
        frozen
    }

    /// Applies a batch of `(key, delta)` updates sequentially.
    ///
    /// Work is proportional to the batch length plus the counter state
    /// transitions triggered — never to the sum of deltas — because each
    /// update rides the counter's batched fast path.
    pub fn apply(&mut self, batch: &[(u64, u64)]) {
        for &(key, delta) in batch {
            let idx = route(self.salt, self.shards.len(), key);
            let shard = Arc::make_mut(&mut self.shards[idx]);
            shard.touch(self.epoch);
            shard.apply_one(&self.template, key, delta);
        }
    }

    /// Applies a batch with one thread per (touched) shard.
    ///
    /// The final state is bit-identical to [`CounterEngine::apply`] on the
    /// same batch: the key→shard partition is deterministic, updates for
    /// one shard stay in batch order, and each shard consumes only its own
    /// RNG stream, so thread scheduling cannot leak into counter states.
    /// Copy-on-write splits happen on this thread, before the spawn, so
    /// the per-shard workers always own unique slabs.
    pub fn apply_parallel(&mut self, batch: &[(u64, u64)])
    where
        C: Send + Sync,
    {
        let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.shards.len()];
        for &(key, delta) in batch {
            buckets[self.shard_of(key)].push((key, delta));
        }
        let template = &self.template;
        let epoch = self.epoch;
        std::thread::scope(|scope| {
            for (arc, bucket) in self.shards.iter_mut().zip(&buckets) {
                if bucket.is_empty() {
                    continue;
                }
                let shard = Arc::make_mut(arc);
                shard.touch(epoch);
                scope.spawn(move || {
                    for &(key, delta) in bucket {
                        shard.apply_one(template, key, delta);
                    }
                });
            }
        });
    }

    /// The current estimate for `key`, or `None` if the key was never
    /// touched.
    #[must_use]
    pub fn estimate(&self, key: u64) -> Option<f64> {
        self.shards[self.shard_of(key)]
            .get(key)
            .map(ApproxCounter::estimate)
    }

    /// Read-only access to `key`'s counter.
    #[must_use]
    pub fn counter(&self, key: u64) -> Option<&C> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Number of distinct keys tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when no key has been touched yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total increments applied across all shards (exact bookkeeping,
    /// `O(shards)` to read).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events()).sum()
    }

    /// Iterates all `(key, counter)` pairs. Counter states are
    /// deterministic; iteration order is unspecified.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &C)> {
        self.shards.iter().flat_map(|s| s.entries())
    }

    /// Sum of live counter register bits across all shards (`O(shards)`;
    /// each shard maintains its total incrementally).
    #[must_use]
    pub fn state_bits_total(&self) -> u64 {
        self.shards.iter().map(|s| s.state_bits()).sum()
    }

    /// Distinct keys per accuracy tier (`counts[t]` = keys in tier `t`).
    /// A never-tiered engine reports every key in tier 0.
    #[must_use]
    pub fn tier_counts(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        for shard in &self.shards {
            shard.tier_counts_into(&mut counts);
        }
        counts
    }

    /// The accuracy tier `key` currently sits in (`None` for an
    /// untracked key; tier 0 is the default for every key never
    /// migrated).
    #[must_use]
    pub fn tier_of(&self, key: u64) -> Option<u8> {
        self.shards[self.shard_of(key)].tier_of(key)
    }

    /// Engine summary for reports. Ingest and checkpointer diagnostics
    /// read zero here; fold them in with [`EngineStats::with_ingest`] and
    /// [`EngineStats::with_checkpointer`] when those layers are attached.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            shards: self.shards.len(),
            keys: self.len(),
            events: self.total_events(),
            state_bits_total: self.state_bits_total(),
            tier_keys: self.tier_counts(),
            max_shard_keys: self.shards.iter().map(|s| s.len()).max().unwrap_or(0),
            dirty_shards: self
                .shards
                .iter()
                .filter(|s| s.dirty_epoch() == self.epoch)
                .count(),
            last_freeze_ns: self.last_freeze_ns,
            checkpoint_lag_events: 0,
            queue_depth: 0,
            dropped_batches: 0,
            dropped_events: 0,
            producers: Vec::new(),
        }
    }

    /// Folds every counter in every shard into a single counter via the
    /// family's merge law — the cross-shard aggregate. The result is
    /// distributed as a single counter that processed the whole stream
    /// (Remark 2.4), so it agrees with [`CounterEngine::total_events`]
    /// within the family's `(ε, δ)` guarantee.
    ///
    /// An uncached `O(keys)` scan that merges only the counters without
    /// an exact count ([`Mergeable::exact_count`]); the exact counts are
    /// summed and applied once.
    /// [`EngineSnapshot::merged_total`](crate::EngineSnapshot::merged_total)
    /// runs the same fold per shard and caches it across freezes.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::MergeMismatch`] — unreachable when all
    /// counters are clones of one template, as here, but surfaced rather
    /// than swallowed.
    pub fn merged_total(&self, rng: &mut dyn RandomSource) -> Result<C, CoreError>
    where
        C: Mergeable,
    {
        let mut fold = Fold::onto(self.template.clone());
        for c in self.shards.iter().flat_map(|s| s.counters()) {
            fold.add(c, rng)?;
        }
        Ok(fold.finish(rng))
    }
}

impl CounterEngine<ac_core::CounterFamily> {
    /// Applies a migration plan: each move re-seeds its key's counter in
    /// the ladder's target spec (estimate-preserving, deterministic — the
    /// shard RNG streams are untouched) and tags the key with its new
    /// tier. Moves naming untracked keys are skipped (a detector window
    /// can outlive an eviction). Returns the number of keys migrated.
    ///
    /// Runs on whatever thread calls it — the store runs it on the
    /// applier's burst hook, between bursts, when the engine is
    /// quiescent — and marks migrated shards dirty so copy-on-write
    /// snapshots and delta checkpoints see the moves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] when a move names a tier
    /// outside `ladder`, and propagates [`ac_core::CounterSpec::build`]
    /// errors from invalid specs.
    pub fn apply_migrations(
        &mut self,
        ladder: &[ac_core::CounterSpec],
        moves: &[ac_core::TierMove],
    ) -> Result<u64, CoreError> {
        let mut migrated = 0u64;
        let mut migrated_shards = vec![false; self.shards.len()];
        for m in moves {
            let Some(spec) = ladder.get(usize::from(m.tier)) else {
                return Err(CoreError::InvalidState {
                    what: "tier move names a rung outside the ladder",
                });
            };
            let idx = self.shard_of(m.key);
            let shard = Arc::make_mut(&mut self.shards[idx]);
            if shard.migrate_key(m.key, spec, m.tier)? {
                shard.touch(self.epoch);
                migrated_shards[idx] = true;
                migrated += 1;
            }
        }
        // A migration changes counter state without moving a shard's
        // `events` or `len`, and `touch` is a no-op on an already-dirty
        // shard — the fold caches' `(dirty_epoch, events, len)` validity
        // key cannot see it. Evict migrated shards' slots explicitly so
        // no stale fold survives.
        if migrated > 0 {
            let mut folds = self.fold_cache.lock().expect("fold cache lock");
            let mut tiered = self
                .tiered_fold_cache
                .lock()
                .expect("tiered fold cache lock");
            for (idx, hit) in migrated_shards.iter().enumerate() {
                if *hit {
                    folds[idx] = None;
                    tiered[idx] = None;
                }
            }
        }
        Ok(migrated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::{ExactCounter, MorrisCounter, NelsonYuCounter, NyParams};
    use ac_randkit::Xoshiro256PlusPlus;

    fn cfg(shards: usize) -> EngineConfig {
        EngineConfig { shards, seed: 42 }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = CounterEngine::new(ExactCounter::new(), cfg(0));
    }

    #[test]
    fn exact_cells_count_exactly() {
        let mut e = CounterEngine::new(ExactCounter::new(), cfg(8));
        e.apply(&[(1, 10), (2, 20), (1, 5), (3, 1)]);
        assert_eq!(e.estimate(1), Some(15.0));
        assert_eq!(e.estimate(2), Some(20.0));
        assert_eq!(e.estimate(3), Some(1.0));
        assert_eq!(e.estimate(99), None);
        assert_eq!(e.len(), 3);
        assert_eq!(e.total_events(), 36);
    }

    #[test]
    fn template_is_reset_before_cloning() {
        let mut dirty = ExactCounter::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        dirty.increment_by(1_000, &mut rng);
        let mut e = CounterEngine::new(dirty, cfg(4));
        e.apply(&[(7, 3)]);
        assert_eq!(e.estimate(7), Some(3.0));
    }

    #[test]
    fn keys_spread_across_shards() {
        let mut e = CounterEngine::new(ExactCounter::new(), cfg(16));
        let batch: Vec<(u64, u64)> = (0..10_000u64).map(|k| (k, 1)).collect();
        e.apply(&batch);
        let stats = e.stats();
        assert_eq!(stats.keys, 10_000);
        assert_eq!(stats.events, 10_000);
        // A balanced hash keeps the fullest shard within ~3x of the mean.
        assert!(
            stats.max_shard_keys < 3 * 10_000 / 16,
            "max shard load {}",
            stats.max_shard_keys
        );
    }

    #[test]
    fn parallel_apply_is_bit_identical_to_sequential() {
        let p = NyParams::new(0.2, 8).unwrap();
        let template = NelsonYuCounter::new(p);
        let mut seq = CounterEngine::new(template.clone(), cfg(8));
        let mut par = CounterEngine::new(template, cfg(8));
        let mut keygen = SplitMix64::new(9);
        let batch: Vec<(u64, u64)> = (0..5_000)
            .map(|_| (keygen.next_u64() % 500, 1 + keygen.next_u64() % 1_000))
            .collect();
        seq.apply(&batch);
        par.apply_parallel(&batch);
        for &(key, _) in &batch {
            assert_eq!(seq.counter(key), par.counter(key), "key {key}");
        }
        assert_eq!(seq.total_events(), par.total_events());
    }

    #[test]
    fn merged_total_is_exact_for_exact_counters() {
        let mut e = CounterEngine::new(ExactCounter::new(), cfg(8));
        let batch: Vec<(u64, u64)> = (0..1_000u64).map(|k| (k, k % 17 + 1)).collect();
        e.apply(&batch);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let total = e.merged_total(&mut rng).unwrap();
        assert_eq!(total.count(), e.total_events());
    }

    #[test]
    fn merged_total_tracks_events_for_morris() {
        // 200 keys x 5_000 increments: the merged Morris counter's
        // estimate concentrates around the exact event total.
        let mut e = CounterEngine::new(MorrisCounter::new(0.05).unwrap(), cfg(8));
        let batch: Vec<(u64, u64)> = (0..200u64).map(|k| (k, 5_000)).collect();
        e.apply(&batch);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let total = e.merged_total(&mut rng).unwrap();
        let n = e.total_events() as f64;
        let rel = (total.estimate() - n).abs() / n;
        // sd/N = sqrt(a/2) ~ 16 %; allow a wide, seed-stable band.
        assert!(rel < 0.6, "merged relative error {rel}");
    }

    #[test]
    fn stats_audit_memory() {
        let mut e = CounterEngine::new(MorrisCounter::new(1.0).unwrap(), cfg(4));
        e.apply(&[(1, 1_000), (2, 1_000_000)]);
        let stats = e.stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.keys, 2);
        // Two Morris registers: a handful of bits each, never log2(N).
        assert!(stats.state_bits_total < 16, "{stats:?}");
        // No ingest or checkpoint layer attached: diagnostics read zero.
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.dropped_batches, 0);
        assert_eq!(stats.checkpoint_lag_events, 0);
        assert_eq!(stats.last_freeze_ns, 0, "no freeze has happened");
        assert_eq!(
            e.iter().count(),
            2,
            "iter must visit every (key, counter) pair"
        );
    }

    #[test]
    fn dirty_shards_track_writes_within_the_current_epoch() {
        let mut e = CounterEngine::new(ExactCounter::new(), cfg(8));
        assert_eq!(e.stats().dirty_shards, 0);
        e.apply(&[(1, 1)]);
        assert_eq!(e.stats().dirty_shards, 1, "one shard written");
        let batch: Vec<(u64, u64)> = (0..1_000u64).map(|k| (k, 1)).collect();
        e.apply(&batch);
        assert_eq!(e.stats().dirty_shards, 8, "all shards written");
        // A freeze opens a new epoch: the debt resets.
        let _snap = e.snapshot();
        assert_eq!(e.stats().dirty_shards, 0, "fresh epoch after freeze");
        e.apply(&[(2, 1)]);
        assert_eq!(e.stats().dirty_shards, 1);
    }

    #[test]
    fn config_is_preserved() {
        let e = CounterEngine::new(ExactCounter::new(), cfg(8));
        assert_eq!(e.config(), cfg(8));
    }
}
