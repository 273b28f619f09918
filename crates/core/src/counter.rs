//! The [`ApproxCounter`] and [`Mergeable`] traits.

use crate::CoreError;
use ac_bitio::StateBits;
use ac_randkit::RandomSource;

/// A (possibly randomized) counter supporting increments and approximate
/// queries — the abstract object whose space complexity the paper pins
/// down.
///
/// The trait is object safe; heterogeneous collections of counters (as in
/// the Figure 1 harness, which runs several algorithms side by side) can
/// hold `Box<dyn ApproxCounter>`.
///
/// # Memory model
///
/// [`StateBits::state_bits`] (a supertrait requirement) reports the bits of
/// *persistent program state* under the storage model of the paper's
/// Remark 2.2: program constants (`ε`, `Δ`, the universal constant `C`, the
/// Morris base `a`) live in the transition function, not in state; `O(log
/// N)`-bit scratch registers during an update are free; only the
/// registers that survive between operations are charged.
pub trait ApproxCounter: StateBits {
    /// A short stable identifier, e.g. `"morris"`, `"nelson-yu"`.
    fn name(&self) -> &'static str;

    /// Processes one increment (`N ← N + 1`).
    fn increment(&mut self, rng: &mut dyn RandomSource);

    /// Processes `n` increments, with a state distribution identical to
    /// calling [`ApproxCounter::increment`] `n` times.
    ///
    /// Every counter family in this crate overrides the looping default
    /// with a transition-count-proportional fast-forward — the batched
    /// path is the intended default for heavy workloads:
    ///
    /// * `Morris(a)` / Morris+ — one geometric draw per level reached
    ///   (the §2.2 `Z_i` decomposition);
    /// * Nelson–Yu — one `Binomial(n, α)` subsampling draw, plus one
    ///   re-thinning draw per epoch crossed;
    /// * Csűrös — one `Binomial(n, 2^{-u})` draw, plus one halving draw
    ///   per exponent crossed.
    ///
    /// Cost is `O(state transitions + epochs crossed)` — never `O(n)` —
    /// and cross-family property tests pin the resulting state
    /// distribution to the step-by-step one (chi²/KS over a seed grid).
    fn increment_by(&mut self, n: u64, rng: &mut dyn RandomSource) {
        for _ in 0..n {
            self.increment(rng);
        }
    }

    /// Returns the current estimate `N̂` of the number of increments.
    fn estimate(&self) -> f64;

    /// The largest value [`StateBits::state_bits`] has attained so far —
    /// the "memory high-water mark" that the space theorems bound.
    /// (Tracking it is experiment instrumentation, not counter state.)
    fn peak_state_bits(&self) -> u64;

    /// Returns the counter to its freshly initialized state.
    fn reset(&mut self);
}

/// Counters whose states can be combined: after
/// [`Mergeable::merge_from`], `self` is distributed as if it had processed
/// the increment streams of *both* counters.
///
/// This is the paper's Remark 2.4 ("fully mergeable") for the Nelson–Yu
/// counter, `[CY20 §2.1]` for the Morris family, and exact addition for
/// [`ExactCounter`](crate::ExactCounter) — the law that lets sharded
/// deployments (e.g. `ac-engine`) aggregate per-shard counters into a
/// global one without touching the raw stream.
pub trait Mergeable: Sized {
    /// Merges `other` into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MergeMismatch`] when the two counters'
    /// parameter schedules are incompatible.
    fn merge_from(&mut self, other: &Self, rng: &mut dyn RandomSource) -> Result<(), CoreError>;

    /// `Some(n)` when `self` is *exactly* the state that `n` increments
    /// from [`ApproxCounter::reset`] produce, with no random draw
    /// involved in reaching it; `None` otherwise (the default).
    ///
    /// A counter with an exact count `n` merges into any counter of the
    /// same family like `n` increments do, so a fold over many counters
    /// may add up their exact counts and apply the sum once through
    /// [`ApproxCounter::increment_by`] instead of merging each one: the
    /// result has the distribution of the one-by-one fold, only the
    /// grouping of random draws differs. An implementation must never
    /// return `Some` for a state that some sequence of increments from
    /// reset could not reach deterministically.
    fn exact_count(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_bitio::MemoryAudit;

    /// A minimal implementation exercising the default `increment_by`.
    struct Toy {
        n: u64,
        peak: u64,
    }

    impl StateBits for Toy {
        fn state_bits(&self) -> u64 {
            u64::from(ac_bitio::bit_len(self.n))
        }

        fn memory_audit(&self) -> MemoryAudit {
            let mut a = MemoryAudit::new();
            a.field("n", self.state_bits());
            a
        }
    }

    impl ApproxCounter for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn increment(&mut self, _rng: &mut dyn RandomSource) {
            self.n += 1;
            self.peak = self.peak.max(self.state_bits());
        }

        fn estimate(&self) -> f64 {
            self.n as f64
        }

        fn peak_state_bits(&self) -> u64 {
            self.peak
        }

        fn reset(&mut self) {
            self.n = 0;
            self.peak = 0;
        }
    }

    #[test]
    fn default_increment_by_loops() {
        let mut t = Toy { n: 0, peak: 0 };
        let mut rng = ac_randkit::Xoshiro256PlusPlus::seed_from_u64(1);
        t.increment_by(10, &mut rng);
        assert_eq!(t.estimate(), 10.0);
        assert_eq!(t.peak_state_bits(), 4);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut t: Box<dyn ApproxCounter> = Box::new(Toy { n: 0, peak: 0 });
        let mut rng = ac_randkit::Xoshiro256PlusPlus::seed_from_u64(2);
        t.increment(&mut rng);
        assert_eq!(t.estimate(), 1.0);
    }
}
