//! One shard: a dense slab of counters, a key→slot index, and the shard's
//! own deterministic RNG — plus the dirty-epoch word that drives the
//! copy-on-write freeze path and incremental checkpoints.

use ac_core::{ApproxCounter, CoreError, CounterFamily, CounterSpec};
use ac_randkit::{BuildSplitMix64, RandomSource, SplitMix64, Xoshiro256PlusPlus};
use std::collections::HashMap;

/// The key→slot index. Keys reaching a shard are raw user keys, but every
/// lookup mixes them through the deterministic single-round SplitMix64
/// hasher ([`BuildSplitMix64`]) instead of SipHash: the engine's keys are
/// not adversarial strings, so the PRF rounds were pure overhead on the
/// hot `apply_one` lookup, and the process-random SipHash key broke
/// run-to-run reproducibility of map internals.
type KeyIndex = HashMap<u64, u32, BuildSplitMix64>;

/// The key→shard partition: one SplitMix64 finalizer round over the
/// salted key — cheap, well-mixed, deterministic — then Lemire's
/// multiplicative range reduction `(h × shards) >> 64` in place of the
/// integer modulo (one multiply instead of a division; the high bits of
/// `h` pick the shard, which is exactly where the finalizer's avalanche
/// is strongest). Shared by the write layer ([`crate::CounterEngine`])
/// and the read replicas ([`crate::EngineSnapshot`]), which must agree
/// bit for bit.
#[inline]
pub(crate) fn route(salt: u64, shards: usize, key: u64) -> usize {
    let mut h = SplitMix64::new(salt ^ key);
    ((u128::from(h.next_u64()) * shards as u128) >> 64) as usize
}

/// A shard owns every counter whose key hashes to it.
///
/// Counters live in a dense slab (`Vec<C>`) so bulk scans (aggregation,
/// memory audits) are cache-friendly; the `HashMap` only resolves
/// key→slot. Each shard draws from its *own* [`Xoshiro256PlusPlus`],
/// seeded from the engine seed and the shard id, which makes every
/// shard's evolution deterministic and independent of how batches are
/// interleaved across shards — the property that lets
/// `apply_parallel` produce states identical to the sequential path.
///
/// The `dirty_epoch` word records the engine freeze epoch during which
/// the shard was last written. The registry compares it against snapshot
/// and checkpoint epochs to decide what a freeze must copy and what a
/// delta checkpoint must serialize; the shard itself only stores it.
#[derive(Debug, Clone)]
pub(crate) struct Shard<C> {
    /// key → slab slot. `u32` slots cap a shard at ~4 billion counters,
    /// comfortably beyond any per-shard load the engine targets.
    index: KeyIndex,
    slab: Vec<C>,
    /// Per-slot accuracy-tier tags, parallel to `slab`. **Lazy:** empty
    /// means every slot sits in tier 0 (the default), so untiered engines
    /// pay zero bytes and zero branches for the tag machinery. The vec
    /// materializes on the first non-default assignment.
    tiers: Vec<u8>,
    rng: Xoshiro256PlusPlus,
    /// Total increments routed into this shard (exact, for diagnostics).
    events: u64,
    /// Sum of live counter register bits, maintained incrementally on
    /// every write/migration so the budget gauge is `O(shards)` to read,
    /// never an `O(keys)` scan.
    state_bits: u64,
    /// Engine freeze epoch of the last write into this shard (0 = never
    /// written). Maintained by the registry via [`Shard::touch`].
    dirty_epoch: u64,
}

impl<C: ApproxCounter + Clone> Shard<C> {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            index: KeyIndex::default(),
            slab: Vec::new(),
            tiers: Vec::new(),
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
            events: 0,
            state_bits: 0,
            dirty_epoch: 0,
        }
    }

    /// Rebuilds a shard from checkpointed parts: the exact RNG state,
    /// event tally, `(key, counter)` pairs (order defines slab layout;
    /// estimates and future evolution do not depend on it), and the
    /// per-key tier tags — either parallel to `entries` or empty for
    /// "every key in tier 0" (the v2-checkpoint case). `dirty_epoch` is
    /// the restore-time epoch — conservatively "dirty as of the
    /// checkpoint it came from".
    pub(crate) fn from_restored(
        rng: Xoshiro256PlusPlus,
        events: u64,
        entries: Vec<(u64, C)>,
        tiers: Vec<u8>,
        dirty_epoch: u64,
    ) -> Self {
        debug_assert!(
            tiers.is_empty() || tiers.len() == entries.len(),
            "tier tags must be absent or parallel to the slab"
        );
        let mut index = KeyIndex::with_capacity_and_hasher(entries.len(), BuildSplitMix64);
        let mut slab = Vec::with_capacity(entries.len());
        let mut state_bits = 0u64;
        for (key, counter) in entries {
            index.insert(key, slab.len() as u32);
            state_bits += ac_bitio::StateBits::state_bits(&counter);
            slab.push(counter);
        }
        // Collapse an all-default tag vector back to the lazy form so a
        // restored shard is byte-identical to a never-tiered one.
        let tiers = if tiers.iter().all(|&t| t == 0) {
            Vec::new()
        } else {
            tiers
        };
        Self {
            index,
            slab,
            tiers,
            rng,
            events,
            state_bits,
            dirty_epoch,
        }
    }

    /// Routes `delta` increments into `key`'s counter, materializing it
    /// from `template` on first touch.
    pub(crate) fn apply_one(&mut self, template: &C, key: u64, delta: u64) {
        let slot = if let Some(&slot) = self.index.get(&key) {
            slot
        } else {
            debug_assert!(self.slab.len() < u32::MAX as usize, "shard slab full");
            let slot = self.slab.len() as u32;
            let fresh = template.clone();
            self.state_bits += ac_bitio::StateBits::state_bits(&fresh);
            self.slab.push(fresh);
            if !self.tiers.is_empty() {
                self.tiers.push(0);
            }
            self.index.insert(key, slot);
            slot
        };
        let counter = &mut self.slab[slot as usize];
        let before = ac_bitio::StateBits::state_bits(counter);
        counter.increment_by(delta, &mut self.rng);
        let after = ac_bitio::StateBits::state_bits(counter);
        self.state_bits = self.state_bits - before + after;
        self.events += delta;
    }

    /// Applies a routed lane slice of pairs in order — the drains'
    /// per-shard inner loop.
    pub(crate) fn apply_pairs(&mut self, template: &C, pairs: &[(u64, u64)]) {
        for &(key, delta) in pairs {
            self.apply_one(template, key, delta);
        }
    }

    /// Marks the shard dirty as of freeze epoch `epoch`.
    #[inline]
    pub(crate) fn touch(&mut self, epoch: u64) {
        self.dirty_epoch = epoch;
    }

    /// The freeze epoch of the last write (0 = never written).
    #[inline]
    pub(crate) fn dirty_epoch(&self) -> u64 {
        self.dirty_epoch
    }

    pub(crate) fn get(&self, key: u64) -> Option<&C> {
        self.index.get(&key).map(|&slot| &self.slab[slot as usize])
    }

    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// The shard's RNG, exposed read-only so the checkpoint layer can
    /// persist its exact state (a restored engine continues the same
    /// random stream).
    pub(crate) fn rng(&self) -> &Xoshiro256PlusPlus {
        &self.rng
    }

    pub(crate) fn counters(&self) -> impl Iterator<Item = &C> {
        self.slab.iter()
    }

    /// Iterates `(key, counter)` pairs in unspecified order (the counter
    /// *states* are deterministic; only the iteration order is not).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, &C)> {
        self.index
            .iter()
            .map(|(&key, &slot)| (key, &self.slab[slot as usize]))
    }

    /// Sum of live counter register bits in this shard (maintained
    /// incrementally; `O(1)` to read).
    pub(crate) fn state_bits(&self) -> u64 {
        self.state_bits
    }

    /// The accuracy tier of slab slot `slot`.
    #[inline]
    fn tier_of_slot(&self, slot: usize) -> u8 {
        self.tiers.get(slot).copied().unwrap_or(0)
    }

    /// The accuracy tier `key` currently sits in, or `None` for an
    /// untracked key.
    pub(crate) fn tier_of(&self, key: u64) -> Option<u8> {
        self.index
            .get(&key)
            .map(|&slot| self.tier_of_slot(slot as usize))
    }

    /// Iterates `(key, counter, tier)` triples in unspecified order — the
    /// tiered checkpoint writer's view.
    pub(crate) fn entries_tagged(&self) -> impl Iterator<Item = (u64, &C, u8)> {
        self.index.iter().map(|(&key, &slot)| {
            (
                key,
                &self.slab[slot as usize],
                self.tier_of_slot(slot as usize),
            )
        })
    }

    /// Accumulates this shard's per-tier key counts into `counts`,
    /// growing it as needed (`counts[t]` += keys in tier `t`).
    pub(crate) fn tier_counts_into(&self, counts: &mut Vec<u64>) {
        if counts.is_empty() {
            counts.push(0);
        }
        if self.tiers.is_empty() {
            counts[0] += self.slab.len() as u64;
            return;
        }
        for &t in &self.tiers {
            let t = usize::from(t);
            if t >= counts.len() {
                counts.resize(t + 1, 0);
            }
            counts[t] += 1;
        }
    }

    /// Tags slab slot `slot` with `tier`, materializing the lazy tag
    /// vector on the first non-default assignment.
    fn set_tier_slot(&mut self, slot: usize, tier: u8) {
        if self.tiers.is_empty() {
            if tier == 0 {
                return;
            }
            self.tiers = vec![0; self.slab.len()];
        }
        self.tiers[slot] = tier;
    }
}

impl Shard<CounterFamily> {
    /// Migrates `key`'s counter to `spec` via the estimate-preserving
    /// [`CounterFamily::migrate_to`] and tags it `tier`, keeping the
    /// shard's incremental `state_bits` exact. Returns `Ok(false)` for a
    /// key the shard does not track (it may have been routed here by a
    /// stale plan).
    ///
    /// The migration construction is deterministic and consumes no
    /// randomness, so the shard's RNG stream — which checkpoints persist
    /// bit-exactly — is unchanged by any number of migrations.
    pub(crate) fn migrate_key(
        &mut self,
        key: u64,
        spec: &CounterSpec,
        tier: u8,
    ) -> Result<bool, CoreError> {
        let Some(&slot) = self.index.get(&key) else {
            return Ok(false);
        };
        let slot = slot as usize;
        let migrated = self.slab[slot].migrate_to(spec, &mut self.rng)?;
        let before = ac_bitio::StateBits::state_bits(&self.slab[slot]);
        let after = ac_bitio::StateBits::state_bits(&migrated);
        self.state_bits = self.state_bits - before + after;
        self.slab[slot] = migrated;
        self.set_tier_slot(slot, tier);
        Ok(true)
    }
}
