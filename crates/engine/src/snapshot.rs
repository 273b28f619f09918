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
//! The cross-shard total, [`EngineSnapshot::merged_estimate`], is a sum
//! of per-key unbiased counts, not a merged counter. The write path keeps
//! it current: each shard holds one integer book, the sum of its
//! counters' [`CounterFamily::unbiased_count`]s (an exact count, or a
//! Nelson–Yu counter's `Y·2ᵗ`). Reading the total adds the books, so it
//! costs `O(shards)` and needs no RNG. Only keys of families without an
//! integer count (Morris, Morris+, Csűrös) are visited, one estimate each.
//! The answer is a pure function of the snapshot, so a primary, its
//! replica and a restored copy holding the same counters agree on it to
//! the bit. [`EngineSnapshot::merged_total`] still folds the counters
//! into one under Remark 2.4's merge law, for the experiments that
//! reproduce it.
//!
//! [`CounterEngine::snapshot_deep`] keeps the stop-the-world `O(keys)`
//! deep-clone freeze alive as the oracle for the CoW-equivalence property
//! tests.

use crate::registry::{fold_shards, CounterEngine, EngineConfig};
use crate::shard::{route, Shard};
use ac_core::{ApproxCounter, CoreError, CounterFamily};
use ac_randkit::RandomSource;
#[cfg(test)]
use std::cell::Cell;
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

    /// The frozen stream's total, estimated as the sum of the per-key
    /// unbiased counts: the integer books of every key with a
    /// [`CounterFamily::unbiased_count`] (Exact counts, Nelson–Yu `Y·2ᵗ`),
    /// plus the [`ApproxCounter::estimate`] of every other key (Morris,
    /// Morris+, Csűrös), added in ascending key order. The sum crosses
    /// tiers, so a tiered snapshot answers like an untiered one.
    ///
    /// Each key keeps its own sampling rate, so the sum is tighter than
    /// one merged counter's estimate, and exact when every key is.
    /// Point reads still answer Algorithm 1's `T` for a Nelson–Yu key
    /// past its exact epoch, so this total is not the sum of
    /// [`EngineSnapshot::estimate`]s.
    ///
    /// ## Cost
    ///
    /// `O(shards)`: each shard keeps its book as it applies writes. A
    /// shard holding keys without an integer count adds their
    /// estimates, `O(keys log keys)` for that shard. No RNG is drawn and
    /// no counter is cloned, so snapshots holding the same counters —
    /// a primary, its replica, a copy restored from a checkpoint — give
    /// the same `f64`.
    #[must_use]
    pub fn merged_estimate(&self) -> f64 {
        let mut book = 0u128;
        let mut inexact = Vec::new();
        for shard in &self.shards {
            debug_assert!(shard.books_match_scan(), "the shard's book drifted");
            book += shard.book();
            if shard.has_inexact() {
                for (key, c) in shard.entries() {
                    #[cfg(test)]
                    COUNTERS_READ.with(|n| n.set(n.get() + 1));
                    if c.unbiased_count().is_none() {
                        inexact.push((key, c.estimate()));
                    }
                }
            }
        }
        inexact.sort_unstable_by_key(|&(key, _)| key);
        book as f64 + inexact.iter().map(|&(_, est)| est).sum::<f64>()
    }

    /// Folds every frozen counter into one under the family's merge law
    /// (Remark 2.4): a single counter distributed as if it had processed
    /// the whole frozen stream. This is the paper's merge, kept for the
    /// experiments that reproduce it; [`EngineSnapshot::merged_estimate`]
    /// answers a total without it.
    ///
    /// Scans each shard in ascending key order, shard by shard: counters
    /// without an [`ApproxCounter::exact_count`] merge as they come, and
    /// the exact counts land in one `increment_by` at the end. The result
    /// has the distribution of merging every counter in turn, and is a
    /// pure function of the snapshot's contents and `rng`: snapshots
    /// holding the same counters give equal states for equal RNG states,
    /// whatever order their keys arrived in. Costs `O(keys log keys)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::MergeMismatch`] when the snapshot holds more than one
    /// counter family (a tiered snapshot).
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
}

#[cfg(test)]
thread_local! {
    /// Counters [`EngineSnapshot::merged_estimate`] has visited on this
    /// thread.
    pub(crate) static COUNTERS_READ: Cell<u64> = const { Cell::new(0) };
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
        assert_eq!(snap.merged_estimate(), 60.0);
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
    fn tier_migrations_reach_the_merged_estimate() {
        use ac_core::TierMove;
        let mut e = CounterEngine::new(exact(), cfg());
        let batch: Vec<(u64, u64)> = (0..64u64).map(|k| (k, 12)).collect();
        e.apply(&batch);
        let ladder = [CounterSpec::Exact, CounterSpec::Csuros { mantissa_bits: 1 }];

        let before = e.snapshot().merged_estimate();
        assert_eq!(before, 768.0, "all-exact engine sums exactly");

        // Migrate one key onto the coarse rung. Its exact count (12) is
        // not representable with a 1-bit mantissa, so the re-seeded
        // estimate moves — while the shard's `events` and `len` do not.
        // The book must see the migrated state.
        let moved = e
            .apply_migrations(&ladder, &[TierMove { key: 3, tier: 1 }])
            .unwrap();
        assert_eq!(moved, 1);
        let snap = e.snapshot();
        let after = snap.merged_estimate();
        let migrated = snap.estimate(3).unwrap();
        assert_eq!(after, 756.0 + migrated, "books plus the Csűrös estimate");
        assert_ne!(after, before, "coarse rung must move the estimate");
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
        assert_eq!(snap.merged_estimate(), n as f64);
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
    fn empty_engine_snapshots_cleanly() {
        let mut e = CounterEngine::new(exact(), cfg());
        let snap = e.snapshot();
        assert!(snap.is_empty());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        assert_eq!(snap.merged_total(&mut rng).unwrap().exact_count(), Some(0));
        assert_eq!(snap.merged_estimate(), 0.0);
    }
}
