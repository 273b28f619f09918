//! The snapshot/serve layer: immutable, cheaply-cloneable read replicas.
//!
//! [`CounterEngine::snapshot`] freezes the engine at a point in time into
//! an [`EngineSnapshot`] by cloning the per-shard `Arc`s — `O(shards)`
//! pointer bumps, no counter is copied at freeze time. The engine keeps
//! writing through [`Arc::make_mut`]: the first post-freeze write to a
//! shard clones that one slab (copy-on-write), so the freeze's true cost
//! is `O(dirty shards)`, paid lazily by the writers that actually
//! collide with the frozen era. After the freeze:
//!
//! * **queries never contend with writers** — the snapshot owns (or
//!   still shares, immutably) its data. No lock is shared, so
//!   `estimate` latency is flat no matter how hard the write path runs;
//! * **clones are O(shards) pointer bumps** — hand a replica to every
//!   serving thread;
//! * **the checkpoint layer serializes snapshots**, not live engines, so
//!   durability rides the same freeze and the write path never stalls for
//!   I/O (see [`crate::checkpoint`]).
//!
//! The cross-shard merged aggregate (Remark 2.4) is *not* folded at
//! freeze time. [`EngineSnapshot::merged_total`] computes it on demand,
//! on whichever reader thread wants it, from bookkeeping the write path
//! already keeps: each shard's running sum of exact counts
//! ([`ApproxCounter::exact_count`]) and its list of sampled counters.
//! Under a skewed key distribution nearly every key is still exact, so
//! a fold merges a few dozen counters in ascending key order, applies
//! the summed exact counts in one `increment_by`, and costs
//! `O(sampled keys + shards)` — never a scan of the slabs. It takes no
//! lock and keeps no cache: the merged state is a pure function of the
//! snapshot and the caller's RNG, so a primary, its replica and a
//! restored copy pinned to the same contents and seed agree on it.
//!
//! [`CounterEngine::snapshot_deep`] keeps the stop-the-world `O(keys)`
//! deep-clone freeze alive as the oracle for the CoW-equivalence property
//! tests.

use crate::registry::{fold_shards, CounterEngine, EngineConfig, Fold};
use crate::shard::{route, Shard};
use ac_core::{ApproxCounter, CoreError, CounterFamily};
use ac_randkit::RandomSource;
use std::sync::Arc;
use std::time::Instant;

/// An immutable point-in-time replica of a [`CounterEngine`].
///
/// Created by [`CounterEngine::snapshot`]; cloning is cheap (shared
/// frozen shards). Every query runs lock-free against the frozen data.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) shards: Vec<Arc<Shard>>,
    pub(crate) template: CounterFamily,
    config: EngineConfig,
    salt: u64,
    /// The freeze epoch this replica belongs to; the delta-checkpoint
    /// layer compares shard dirty epochs against parents through it.
    epoch: u64,
    keys: usize,
    events: u64,
}

impl CounterEngine {
    /// Freezes a read replica of the engine's current state: `O(shards)`
    /// `Arc` clones plus an `O(shards)` metadata scan. No counter is
    /// copied here; shards the writer touches after this call are cloned
    /// lazily, one shard at a time, by the write path (copy-on-write).
    ///
    /// Takes `&mut self` because a freeze advances the engine's epoch
    /// clock (and records its own duration for
    /// [`EngineStats::last_freeze_ns`](crate::EngineStats::last_freeze_ns)).
    pub fn snapshot(&mut self) -> EngineSnapshot {
        let start = Instant::now();
        let shards: Vec<Arc<Shard>> = self.shards().to_vec();
        let snap = self.freeze_parts(shards, start);
        debug_assert_eq!(snap.epoch + 1, self.epoch());
        snap
    }

    /// The stop-the-world freeze: deep-clones every slab, `O(keys)`.
    /// Kept as the oracle in the CoW-equivalence property tests — not
    /// for production use.
    pub fn snapshot_deep(&mut self) -> EngineSnapshot {
        let start = Instant::now();
        let shards: Vec<Arc<Shard>> = self
            .shards()
            .iter()
            .map(|s| Arc::new(s.as_ref().clone()))
            .collect();
        self.freeze_parts(shards, start)
    }

    fn freeze_parts(&mut self, shards: Vec<Arc<Shard>>, start: Instant) -> EngineSnapshot {
        let keys = shards.iter().map(|s| s.len()).sum();
        let events = shards.iter().map(|s| s.events()).sum();
        let snap = EngineSnapshot {
            shards,
            template: self.template().clone(),
            config: self.config(),
            salt: self.salt(),
            epoch: 0, // patched below, after the freeze is timed
            keys,
            events,
        };
        let freeze_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let epoch = self.note_freeze(freeze_ns);
        EngineSnapshot { epoch, ..snap }
    }
}

impl EngineSnapshot {
    /// The estimate for `key` at freeze time, or `None` if the key had
    /// never been touched.
    #[inline]
    #[must_use]
    pub fn estimate(&self, key: u64) -> Option<f64> {
        self.counter(key).map(ApproxCounter::estimate)
    }

    /// Read-only access to `key`'s frozen counter. Inlined into the
    /// point-read paths, which call it once per query.
    #[inline]
    #[must_use]
    pub fn counter(&self, key: u64) -> Option<&CounterFamily> {
        self.shards[route(self.salt, self.shards.len(), key)].get(key)
    }

    /// Folds the cross-shard merged aggregate: a single counter
    /// distributed as if it had processed the whole frozen stream
    /// (Remark 2.4), agreeing with [`EngineSnapshot::total_events`]
    /// within the family's `(ε, δ)` guarantee. Run it on a reader
    /// thread; the freeze itself never pays this fold.
    ///
    /// ## Cost
    ///
    /// `O(sampled keys + shards)`. Each shard keeps, as it applies
    /// writes, the sum of its exact counts ([`ApproxCounter::exact_count`]:
    /// a Nelson–Yu counter still in its exact epoch, any
    /// [`ExactCounter`](ac_core::ExactCounter)) and the list of its
    /// counters without one. The fold sorts each shard's list by key,
    /// merges the listed counters shard by shard, then applies the summed
    /// exact counts in one `increment_by`. The result has the
    /// distribution of merging every counter in turn. Families with no
    /// exact count (Morris, Csűrös) list every key, so for them the fold
    /// is `O(keys)`.
    ///
    /// ## Determinism
    ///
    /// There is no cache and no lock: the merged state is a pure function
    /// of the snapshot's contents and `rng`. Snapshots holding the same
    /// counters — a primary, its replica, a copy restored from a
    /// checkpoint — give equal merged states for equal RNG states,
    /// whatever order their keys arrived in.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::MergeMismatch`] from the fold —
    /// unreachable when all counters are clones of one template, as here.
    pub fn merged_total(&self, rng: &mut dyn RandomSource) -> Result<CounterFamily, CoreError> {
        fold_shards(&self.template, &self.shards, rng)
    }

    /// Distinct keys at freeze time.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys
    }

    /// True when the engine had no keys at freeze time.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Exact total increments at freeze time.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.events
    }

    /// The engine configuration the snapshot was frozen from (embedded in
    /// checkpoints as part of the engine's identity).
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The freeze epoch this replica was cut at (monotone per engine;
    /// checkpoint headers embed it to order delta chains).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-stamps the freeze epoch. Chain compaction uses it to write a
    /// base that claims the *folded tip's* epoch (the restored engine's
    /// own clock sits one past it) so deltas cut against that tip still
    /// chain onto the compacted base; tests use it to normalize the one
    /// header field that legitimately differs before comparing two
    /// checkpoint encodings byte for byte.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Iterates all frozen `(key, counter)` pairs, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CounterFamily)> {
        self.shards.iter().flat_map(|s| s.entries())
    }

    /// Sum of frozen counter register bits — the snapshot-side twin of
    /// [`EngineStats::state_bits_total`](crate::EngineStats::state_bits_total).
    /// `O(shards)`: each shard maintains its sum incrementally.
    #[must_use]
    pub fn counter_state_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.state_bits()).sum()
    }

    /// The cross-shard merged aggregate for a **tiered** snapshot, where
    /// keys on different rungs hold different counter families and a
    /// single [`EngineSnapshot::merged_total`] fold would refuse to mix
    /// them. Counters merge *within* each tier under the family's merge
    /// law (Remark 2.4), and the per-tier totals' estimates sum — so the
    /// result inherits each tier's `(ε, δ)` guarantee on its share of the
    /// stream rather than one family-wide bound.
    ///
    /// `tiers` is the ladder length; a tag at or above it is refused.
    ///
    /// Costs the same as [`EngineSnapshot::merged_total`], per tier: each
    /// shard keeps a sum of exact counts per tier, so only sampled
    /// counters merge (shard by shard, in ascending key order), and each
    /// tier's exact sum lands in one `increment_by`. A tier holding only
    /// exact counts starts from a reset clone of one of its counters.
    /// The result is a pure function of the snapshot and `rng`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidState`] when a key carries a tier tag outside
    /// `0..tiers`; [`CoreError::MergeMismatch`] is unreachable because
    /// counters within one tier are clones of one template.
    pub fn merged_estimate_tiered(
        &self,
        tiers: usize,
        rng: &mut dyn RandomSource,
    ) -> Result<f64, CoreError> {
        let mut folds: Vec<Option<Fold>> = vec![None; tiers];
        let mut exact = vec![0u64; tiers];
        for shard in &self.shards {
            debug_assert!(shard.books_match_scan(), "merged-aggregate books drifted");
            if !shard.tags_below(tiers) {
                return Err(CoreError::InvalidState {
                    what: "key carries a tier tag outside the ladder",
                });
            }
            for (counter, tier) in shard.sampled_in_key_order() {
                match &mut folds[usize::from(tier)] {
                    Some(fold) => fold.merge(counter, rng)?,
                    slot @ None => *slot = Some(Fold::onto(counter.clone())),
                }
            }
            for (sum, &n) in exact.iter_mut().zip(shard.exact_sums()) {
                *sum = sum.saturating_add(n);
            }
        }
        let mut total = 0.0;
        for (tier, (fold, n)) in folds.into_iter().zip(exact).enumerate() {
            let mut fold = match fold {
                Some(fold) => fold,
                None if n == 0 => continue,
                None => {
                    let tier = u8::try_from(tier).expect("tier tags are u8");
                    let mut start = self
                        .shards
                        .iter()
                        .find_map(|s| s.any_in_tier(tier))
                        .expect("a tier with exact counts holds a counter")
                        .clone();
                    start.reset();
                    Fold::onto(start)
                }
            };
            fold.count(n);
            total += fold.finish(rng).estimate();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::{CounterSpec, Mergeable};
    use ac_randkit::Xoshiro256PlusPlus;

    fn cfg() -> EngineConfig {
        EngineConfig { shards: 8, seed: 5 }
    }

    fn exact() -> CounterFamily {
        CounterSpec::Exact.build().unwrap()
    }

    fn ny(eps: f64, delta_log2: u32) -> CounterFamily {
        CounterSpec::NelsonYu { eps, delta_log2 }.build().unwrap()
    }

    #[test]
    fn snapshot_is_a_faithful_point_in_time_copy() {
        let mut e = CounterEngine::new(exact(), cfg());
        e.apply(&[(1, 10), (2, 20), (3, 30)]);
        let snap = e.snapshot();

        // Writer keeps going; the snapshot must not move.
        e.apply(&[(1, 100), (4, 1)]);
        assert_eq!(snap.estimate(1), Some(10.0));
        assert_eq!(snap.estimate(4), None);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.total_events(), 60);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        assert_eq!(snap.merged_total(&mut rng).unwrap().exact_count(), Some(60));
        assert_eq!(e.estimate(1), Some(110.0), "writer advanced independently");
        assert_eq!(snap.iter().count(), 3);
        assert_eq!(snap.config(), cfg());
    }

    #[test]
    fn clones_share_frozen_shards() {
        let mut e = CounterEngine::new(exact(), cfg());
        e.apply(&[(1, 1), (2, 2)]);
        let snap = e.snapshot();
        let replica = snap.clone();
        for (a, b) in snap.shards.iter().zip(&replica.shards) {
            assert!(Arc::ptr_eq(a, b), "clone must share, not copy, slabs");
        }
        assert_eq!(replica.estimate(2), Some(2.0));
    }

    #[test]
    fn freeze_shares_slabs_with_the_engine_until_written() {
        // The CoW contract itself: at freeze time no slab is copied (the
        // snapshot and engine share every shard); the first write to a
        // shard splits that shard and only that shard.
        let mut e = CounterEngine::new(exact(), cfg());
        let batch: Vec<(u64, u64)> = (0..500u64).map(|k| (k, 1)).collect();
        e.apply(&batch);
        let snap = e.snapshot();
        assert!(e.stats().last_freeze_ns > 0, "freeze duration recorded");
        for (live, frozen) in e.shards().iter().zip(&snap.shards) {
            assert!(Arc::ptr_eq(live, frozen), "freeze must share, not copy");
        }

        let written = e.shard_of(7);
        e.apply(&[(7, 5)]);
        for (idx, (live, frozen)) in e.shards().iter().zip(&snap.shards).enumerate() {
            assert_eq!(
                Arc::ptr_eq(live, frozen),
                idx != written,
                "only the written shard may split (shard {idx})"
            );
        }
        assert_eq!(snap.estimate(7), Some(1.0), "frozen value preserved");
        assert_eq!(e.estimate(7), Some(6.0), "writer advanced");
        assert_eq!(e.stats().dirty_shards, 1, "exactly one shard went dirty");
    }

    #[test]
    fn merged_aggregate_tracks_event_total_for_approximate_families() {
        let mut e = CounterEngine::new(ny(0.2, 8), cfg());
        let batch: Vec<(u64, u64)> = (0..500u64).map(|k| (k, 1_000)).collect();
        e.apply(&batch);
        let snap = e.snapshot();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let merged = snap.merged_total(&mut rng).unwrap();
        let exact = snap.total_events() as f64;
        let rel = (merged.estimate() - exact).abs() / exact;
        assert!(rel < 0.4, "merged aggregate rel err {rel}");
    }

    #[test]
    fn snapshot_state_bits_match_engine_stats() {
        let mut e = CounterEngine::new(ny(0.25, 6), cfg());
        e.apply(&(0..200u64).map(|k| (k, k + 1)).collect::<Vec<_>>());
        let snap = e.snapshot();
        assert_eq!(snap.counter_state_bits(), e.stats().state_bits_total);
    }

    #[test]
    fn deep_snapshot_matches_cow_snapshot() {
        let mut e = CounterEngine::new(ny(0.25, 6), cfg());
        e.apply(&(0..300u64).map(|k| (k, 3 * k + 1)).collect::<Vec<_>>());
        let cow = e.snapshot();
        let deep = e.snapshot_deep();
        assert_eq!(cow.len(), deep.len());
        assert_eq!(cow.total_events(), deep.total_events());
        for (key, counter) in cow.iter() {
            assert_eq!(deep.counter(key), Some(counter), "key {key}");
        }
        // Epochs advance one per freeze, in order.
        assert_eq!(deep.epoch(), cow.epoch() + 1);
    }

    /// Counts how many words a fold actually draws.
    struct CountingSource<'a> {
        inner: &'a mut Xoshiro256PlusPlus,
        draws: u64,
    }

    impl ac_randkit::RandomSource for CountingSource<'_> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn merged_total_cache_is_exact_for_exact_counters() {
        // With the deterministic exact merge, every freeze's merged total
        // equals the frozen event count.
        let mut e = CounterEngine::new(exact(), cfg());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        for round in 0..5u64 {
            e.apply(&[(round, 10 + round), (7 * round + 3, 1)]);
            let snap = e.snapshot();
            assert_eq!(
                snap.merged_total(&mut rng).unwrap().exact_count(),
                Some(snap.total_events()),
                "round {round}"
            );
        }
    }

    #[test]
    fn tier_migrations_evict_stale_tiered_folds() {
        use ac_core::TierMove;
        let mut e = CounterEngine::new(exact(), cfg());
        let batch: Vec<(u64, u64)> = (0..64u64).map(|k| (k, 12)).collect();
        e.apply(&batch);
        let ladder = [CounterSpec::Exact, CounterSpec::Csuros { mantissa_bits: 1 }];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);

        let snap1 = e.snapshot();
        let before = snap1.merged_estimate_tiered(2, &mut rng).unwrap();
        assert_eq!(before, 768.0, "all-exact engine sums exactly");

        // Migrate one key onto the coarse rung. Its exact count (12) is
        // not representable with a 1-bit mantissa, so the re-seeded
        // estimate moves — while the shard's `events` and `len` do not.
        // The fold must see the migrated state.
        let moved = e
            .apply_migrations(&ladder, &[TierMove { key: 3, tier: 1 }])
            .unwrap();
        assert_eq!(moved, 1);
        let snap2 = e.snapshot();
        let after = snap2.merged_estimate_tiered(2, &mut rng).unwrap();
        let oracle: f64 = snap2
            .shards
            .iter()
            .flat_map(|s| s.entries_tagged())
            .map(|(_, c, _)| c.estimate())
            .sum();
        assert_eq!(after, oracle, "fold must match a from-scratch sum");
        assert_ne!(after, before, "coarse rung must move the estimate");
        assert!(
            snap2.merged_estimate_tiered(1, &mut rng).is_err(),
            "a tag outside the ladder is refused"
        );
    }

    #[test]
    fn exact_counter_folds_are_the_exact_total_and_draw_nothing() {
        let batch: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k, k % 23 + 1)).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(21);
        let mut counting = CountingSource {
            inner: &mut rng,
            draws: 0,
        };

        let mut e = CounterEngine::new(exact(), cfg());
        e.apply(&batch);
        let n = e.total_events();
        assert_eq!(
            e.merged_total(&mut counting).unwrap().exact_count(),
            Some(n)
        );
        let snap = e.snapshot();
        assert_eq!(
            snap.merged_total(&mut counting).unwrap().estimate(),
            n as f64
        );
        assert_eq!(
            snap.merged_estimate_tiered(1, &mut counting).unwrap(),
            n as f64
        );
        assert_eq!(
            counting.draws, 0,
            "summing exact counts needs no randomness"
        );
    }

    #[test]
    fn all_sampled_folds_keep_the_pairwise_draws() {
        // No key has an exact count, so the fold is the pairwise fold
        // in (shard, key) order, draw for draw.
        let mut e = CounterEngine::new(ny(0.2, 8), cfg());
        e.apply(
            &(0..50u64)
                .rev()
                .map(|k| (k, 5_000 + 300 * k))
                .collect::<Vec<_>>(),
        );
        let snap = e.snapshot();
        let mut a = Xoshiro256PlusPlus::seed_from_u64(41);
        let mut b = a.clone();
        let mut reference = snap.template.clone();
        for shard in &snap.shards {
            let mut entries: Vec<_> = shard.entries().collect();
            entries.sort_unstable_by_key(|&(key, _)| key);
            for (_, c) in entries {
                reference.merge_from(c, &mut b).unwrap();
            }
        }
        assert_eq!(snap.merged_total(&mut a).unwrap(), reference);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn tiered_fold_sums_an_exact_count_tier() {
        use ac_core::TierMove;
        let mut e = CounterEngine::new(exact(), cfg());
        e.apply(&(0..400u64).map(|k| (k, k % 9 + 1)).collect::<Vec<_>>());
        e.apply(&[(1_000, 50_000), (1_001, 70_000)]);
        let ladder = [
            CounterSpec::Exact,
            CounterSpec::NelsonYu {
                eps: 0.2,
                delta_log2: 8,
            },
        ];
        // Tier 1 holds exact-epoch Nelson–Yu keys and two sampled ones.
        let moves: Vec<TierMove> = (0..40u64)
            .chain([1_000, 1_001])
            .map(|key| TierMove { key, tier: 1 })
            .collect();
        assert_eq!(e.apply_migrations(&ladder, &moves).unwrap(), 42);
        let snap = e.snapshot();
        let tagged = |tier: u8| {
            snap.shards
                .iter()
                .flat_map(|s| s.entries_tagged())
                .filter(move |&(_, _, t)| t == tier)
                .map(|(_, c, _)| c)
        };
        let exact_tier: f64 = tagged(0).map(ApproxCounter::estimate).sum();
        assert_eq!(tagged(1).filter(|c| c.exact_count().is_none()).count(), 2);

        // The tiered fold, less the exact tier's sum, against the
        // pairwise fold of the Nelson–Yu tier alone.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(43);
        let mut tiered = Vec::new();
        let mut pairwise = Vec::new();
        for _ in 0..400 {
            let est = snap.merged_estimate_tiered(2, &mut rng).unwrap();
            tiered.push(est - exact_tier);
            let mut ny = tagged(1);
            let mut total = ny.next().unwrap().clone();
            for c in ny {
                total.merge_from(c, &mut rng).unwrap();
            }
            pairwise.push(total.estimate());
        }
        let ks = ac_stats::ks::ks_two_sample(&tiered, &pairwise);
        assert!(ks.p_value > 0.001, "KS p={} D={}", ks.p_value, ks.statistic);
    }

    #[test]
    fn empty_engine_snapshots_cleanly() {
        let mut e = CounterEngine::new(exact(), cfg());
        let snap = e.snapshot();
        assert!(snap.is_empty());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        assert_eq!(snap.merged_total(&mut rng).unwrap().exact_count(), Some(0));
    }
}
