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
//! since a parent checkpoint, and moves its shard's book of unbiased
//! counts, which [`EngineSnapshot::merged_estimate`](crate::EngineSnapshot::merged_estimate)
//! sums.

use crate::checkpointer::CheckpointerStats;
use crate::ingest::{IngestStats, ProducerMark};
use crate::shard::{route, Shard};
use ac_core::{ApproxCounter, CoreError, CounterFamily, CounterSpec, Mergeable, TierMove};
use ac_randkit::{RandomSource, SplitMix64};
use std::sync::Arc;

/// Engine construction parameters. Construct with the `const` builder
/// surface: `EngineConfig::new().with_shards(32).with_seed(7)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Number of shards. More shards mean more parallelism in the
    /// [`Store`](crate::Store)'s per-shard apply workers and smaller
    /// per-shard slabs; the
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
/// the routing salt plus the shard count, applied through the same
/// SplitMix64 finalizer + Lemire range reduction as
/// [`CounterEngine::shard_of`]. Producers route pairs with it at send
/// time, so each key is hashed once, where the data is cache-hot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardRouter {
    salt: u64,
    shards: usize,
}

impl ShardRouter {
    /// The shard count this router partitions keys over.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The shard `key` routes to — identical to
    /// [`CounterEngine::shard_of`] on the engine the router came from.
    #[inline]
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        route(self.salt, self.shards, key)
    }
}

/// The routing salt and per-shard seeder derived from `seed` — engine
/// construction and checkpoint restore must derive them identically.
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
/// (Remark 2.4): the merged *state* behind [`CounterEngine::merged_total`].
///
/// Sampled counters [`Fold::merge`] into a running aggregate. Exact
/// counts ([`ApproxCounter::exact_count`]) are only [`Fold::count`]ed
/// into a running `u64` sum, which lands in one
/// [`ApproxCounter::increment_by`] call at [`Fold::finish`]. Merging `n`
/// deterministic increments is `increment_by(n)`, and `increment_by(a)`
/// then `increment_by(b)` is distributed like `increment_by(a + b)`, so
/// the result has the distribution of merging every counter in turn.
/// Only the grouping of random draws differs. Exact counts are summed
/// without the parameter check `merge_from` makes: every caller folds
/// clones of one template.
#[derive(Debug, Clone)]
struct Fold {
    acc: CounterFamily,
    pending: u64,
    /// Counters merged so far.
    #[cfg(test)]
    merges: u64,
}

impl Fold {
    /// A fold whose running aggregate starts at `start`.
    fn onto(start: CounterFamily) -> Self {
        Self {
            acc: start,
            pending: 0,
            #[cfg(test)]
            merges: 0,
        }
    }

    /// Merges the sampled counter `c` into the running aggregate.
    fn merge(&mut self, c: &CounterFamily, rng: &mut dyn RandomSource) -> Result<(), CoreError> {
        #[cfg(test)]
        {
            self.merges += 1;
        }
        self.acc.merge_from(c, rng)
    }

    /// Adds `n` exact increments, applied at [`Fold::finish`].
    fn count(&mut self, n: u64) {
        self.pending = self.pending.saturating_add(n);
    }

    /// The folded counter: the running aggregate with the summed exact
    /// counts applied.
    fn finish(mut self, rng: &mut dyn RandomSource) -> CounterFamily {
        if self.pending > 0 {
            self.acc.increment_by(self.pending, rng);
        }
        self.acc
    }
}

/// The merged aggregate of `shards`, folded onto `template` (reset):
/// each shard's counters are scanned in ascending key order, shard by
/// shard; the sampled ones merge as they come and the exact counts land
/// in one `increment_by` at the end. Costs `O(keys log keys)` and is a
/// pure function of the shards' contents and `rng`, whatever order the
/// keys arrived in.
pub(crate) fn fold_shards(
    template: &CounterFamily,
    shards: &[Arc<Shard>],
    rng: &mut dyn RandomSource,
) -> Result<CounterFamily, CoreError> {
    Ok(merge_shards(template, shards, rng)?.finish(rng))
}

/// The fold [`fold_shards`] finishes: every shard's sampled counters
/// merged onto `template`, every exact count counted.
fn merge_shards(
    template: &CounterFamily,
    shards: &[Arc<Shard>],
    rng: &mut dyn RandomSource,
) -> Result<Fold, CoreError> {
    let mut fold = Fold::onto(template.clone());
    for shard in shards {
        for (_, c) in shard.entries_in_key_order() {
            match c.exact_count() {
                Some(n) => fold.count(n),
                None => fold.merge(c, rng)?,
            }
        }
    }
    Ok(fold)
}

/// A hash-sharded registry of per-key approximate counters — the write
/// layer of the engine pipeline.
///
/// Every key's counter is cloned on first touch from a template (reset at
/// construction) — a [`CounterFamily`], so the family is chosen at
/// runtime by a [`CounterSpec`] — lives entirely within one shard, and
/// advances through the family's batched
/// [`increment_by`](ApproxCounter::increment_by) fast path. See the crate
/// docs for the determinism and aggregation contracts, and for the
/// surrounding layers: the [`Store`](crate::Store)'s ingest lanes feed
/// this type, [`CounterEngine::snapshot`] freezes it for readers, and
/// [`crate::checkpoint`] persists it.
#[derive(Debug, Clone)]
pub struct CounterEngine {
    /// Copy-on-write shard slabs; see the module docs.
    shards: Vec<Arc<Shard>>,
    template: CounterFamily,
    config: EngineConfig,
    /// Salt for the key→shard hash, derived from the config seed.
    salt: u64,
    /// The current freeze epoch: bumped by every freeze, stamped onto
    /// shards by every write. Starts at 1 so a fresh shard's
    /// `dirty_epoch` of 0 reads as "never written".
    epoch: u64,
    /// Duration of the most recent freeze, in nanoseconds.
    last_freeze_ns: u64,
}

impl CounterEngine {
    /// Creates an engine whose counters are clones of `template` (reset
    /// before use, so a previously-used counter is a valid template).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(template: CounterFamily, config: EngineConfig) -> Self {
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
        }
    }

    /// Rebuilds an engine from restored shards (the checkpoint layer's
    /// constructor). The template is reset; shard count must match the
    /// config; `epoch` resumes the freeze-epoch clock from the restored
    /// checkpoint so subsequent deltas stay correctly ordered.
    pub(crate) fn from_restored(
        template: CounterFamily,
        config: EngineConfig,
        shards: Vec<Shard>,
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
    /// construct shard-targeted traffic (e.g. dirtying exactly one shard
    /// to size a delta checkpoint).
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        route(self.salt, self.shards.len(), key)
    }

    /// The engine's key→shard partition as a standalone copyable value,
    /// for producer-side routing in the ingest lanes.
    pub(crate) fn router(&self) -> ShardRouter {
        ShardRouter {
            salt: self.salt,
            shards: self.shards.len(),
        }
    }

    /// The routing salt (shared with snapshots).
    pub(crate) fn salt(&self) -> u64 {
        self.salt
    }

    /// The shard slabs (read-only view for the snapshot/checkpoint layers).
    pub(crate) fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Moves a shard out of the engine for an ingest drain burst, leaving
    /// a placeholder. The engine is *not* a consistent view until the
    /// matching [`CounterEngine::put_shard`] — the drain only exposes it
    /// (to burst hooks) after every shard is back.
    pub(crate) fn take_shard(&mut self, index: usize) -> Arc<Shard> {
        std::mem::replace(&mut self.shards[index], Arc::new(Shard::new(0)))
    }

    /// Reinstalls a shard moved out by [`CounterEngine::take_shard`].
    pub(crate) fn put_shard(&mut self, index: usize, shard: Arc<Shard>) {
        self.shards[index] = shard;
    }

    /// Replaces whole shards with restored ones (a delta fold) and
    /// resumes the freeze-epoch clock at `epoch`.
    pub(crate) fn install_restored(&mut self, shards: Vec<(usize, Shard)>, epoch: u64) {
        for (idx, shard) in shards {
            self.shards[idx] = Arc::new(shard);
        }
        self.epoch = epoch;
    }

    /// The reset template counter.
    pub(crate) fn template(&self) -> &CounterFamily {
        &self.template
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

    /// The current estimate for `key`, or `None` if the key was never
    /// touched.
    #[inline]
    #[must_use]
    pub fn estimate(&self, key: u64) -> Option<f64> {
        self.shards[self.shard_of(key)]
            .get(key)
            .map(ApproxCounter::estimate)
    }

    /// Read-only access to `key`'s counter.
    #[inline]
    #[must_use]
    pub fn counter(&self, key: u64) -> Option<&CounterFamily> {
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
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CounterFamily)> {
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
    /// The same fold as
    /// [`EngineSnapshot::merged_total`](crate::EngineSnapshot::merged_total):
    /// a scan of every shard in key order, merging the counters without
    /// an exact count as they come and applying the exact counts once.
    /// It reproduces Remark 2.4; a total for serving is
    /// [`EngineSnapshot::merged_estimate`](crate::EngineSnapshot::merged_estimate).
    ///
    /// # Errors
    ///
    /// [`CoreError::MergeMismatch`] after tier migrations have put
    /// keys of different families side by side.
    pub fn merged_total(&self, rng: &mut dyn RandomSource) -> Result<CounterFamily, CoreError> {
        fold_shards(&self.template, &self.shards, rng)
    }

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
        ladder: &[CounterSpec],
        moves: &[TierMove],
    ) -> Result<u64, CoreError> {
        let mut migrated = 0u64;
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
                migrated += 1;
            }
        }
        Ok(migrated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_randkit::Xoshiro256PlusPlus;

    fn cfg(shards: usize) -> EngineConfig {
        EngineConfig { shards, seed: 42 }
    }

    fn exact() -> CounterFamily {
        CounterSpec::Exact.build().unwrap()
    }

    fn morris(a: f64) -> CounterFamily {
        CounterSpec::Morris { a }.build().unwrap()
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = CounterEngine::new(exact(), cfg(0));
    }

    #[test]
    fn exact_cells_count_exactly() {
        let mut e = CounterEngine::new(exact(), cfg(8));
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
        let mut dirty = exact();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        dirty.increment_by(1_000, &mut rng);
        let mut e = CounterEngine::new(dirty, cfg(4));
        e.apply(&[(7, 3)]);
        assert_eq!(e.estimate(7), Some(3.0));
    }

    #[test]
    fn keys_spread_across_shards() {
        let mut e = CounterEngine::new(exact(), cfg(16));
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
    fn merged_total_is_exact_for_exact_counters() {
        let mut e = CounterEngine::new(exact(), cfg(8));
        let batch: Vec<(u64, u64)> = (0..1_000u64).map(|k| (k, k % 17 + 1)).collect();
        e.apply(&batch);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let total = e.merged_total(&mut rng).unwrap();
        assert_eq!(total.exact_count(), Some(e.total_events()));
    }

    #[test]
    fn merged_total_tracks_events_for_morris() {
        // 200 keys x 5_000 increments: the merged Morris counter's
        // estimate concentrates around the exact event total.
        let mut e = CounterEngine::new(morris(0.05), cfg(8));
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
        let mut e = CounterEngine::new(morris(1.0), cfg(4));
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
        let mut e = CounterEngine::new(exact(), cfg(8));
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
    fn a_fold_merges_exactly_the_sampled_keys() {
        // The merge-law experiment's population: 5,000 keys still in the
        // exact epoch and four sampled ones, each key's count split over
        // four batches, restored through a checkpoint. The exact keys
        // only add to a sum; the fold merges the sampled ones alone.
        let spec = CounterSpec::NelsonYu {
            eps: 0.25,
            delta_log2: 8,
        };
        let mut e = CounterEngine::new(
            spec.build().unwrap(),
            EngineConfig::new().with_shards(16).with_seed(0),
        );
        let counts: Vec<(u64, u64)> = (0..5_000u64)
            .map(|k| (k, k % 50 + 1))
            .chain([
                (5_000, 6_000),
                (5_001, 20_000),
                (5_002, 60_000),
                (5_003, 150_000),
            ])
            .collect();
        for b in 0..4u64 {
            let batch: Vec<(u64, u64)> = counts
                .iter()
                .map(|&(key, n)| (key, n / 4 + u64::from(b < n % 4)))
                .filter(|&(_, delta)| delta > 0)
                .collect();
            e.apply(&batch);
        }
        let frame = crate::checkpoint(&e.snapshot(), None, None).unwrap();
        let restored = crate::restore_checkpoint(&[spec], &[frame.bytes()]).unwrap();
        let sampled = restored
            .iter()
            .filter(|(_, c)| c.exact_count().is_none())
            .count() as u64;
        assert_eq!(sampled, 4, "the four heavy keys left the exact epoch");
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xE5_C1);
        let fold = merge_shards(restored.template(), restored.shards(), &mut rng).unwrap();
        assert_eq!(fold.merges, sampled);
    }

    #[test]
    fn config_is_preserved() {
        let e = CounterEngine::new(exact(), cfg(8));
        assert_eq!(e.config(), cfg(8));
    }
}
