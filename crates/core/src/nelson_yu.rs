//! **Algorithm 1** of Nelson & Yu: the optimal approximate counter.
//!
//! The counter runs a sequence of promise decision problems: in the epoch
//! at level `X`, it samples increments into an auxiliary counter `Y` at
//! rate `α = 2^{-t}` and advances to the next epoch (incrementing `X`)
//! when `Y` exceeds the threshold `⌊αT⌋` with `T = ⌈(1+ε)^X⌉`. Queries
//! return `Y` during the initial exact epoch and `T` afterwards.
//!
//! Storage follows Remark 2.2 exactly: only `X`, `Y` and the sampling
//! exponent `t` are program state; `T`, `η` and `α` are recomputed from
//! `X` and the program constants `(ε, Δ, C)`; the `Bernoulli(2^{-t})` coin
//! is realized by `t` fair coin flips
//! ([`BernoulliPow2`](ac_randkit::BernoulliPow2)); `α` is rounded up to an
//! inverse power of two so the `Y`-rescale on epoch change
//! (`Y ← ⌊Y·α_new/α_old⌋`) is a right shift.
//!
//! Batch updates ([`ApproxCounter::increment_by`]) and merges run on the
//! same per-epoch decomposition, replacing per-trial coins with one
//! `Binomial` subsampling draw per epoch (see
//! [`BernoulliPow2::sample_n`](ac_randkit::BernoulliPow2::sample_n)).

use crate::params::NyParams;
use crate::{ApproxCounter, CoreError};
use ac_bitio::{bit_len, MemoryAudit, StateBits};
use ac_randkit::{BernoulliPow2, RandomSource};

/// The Nelson–Yu counter (Algorithm 1), achieving
/// `O(log log N + log(1/ε) + log log(1/δ))` bits with the
/// doubly-exponential space tail of Theorem 2.3.
#[derive(Debug, Clone, PartialEq)]
pub struct NelsonYuCounter {
    params: NyParams,
    /// The level `X` (starts at `X₀`).
    x: u64,
    /// The auxiliary sampled counter `Y`.
    y: u64,
    /// Sampling exponent: `α = 2^{-t}`. Monotone nondecreasing over the
    /// counter's lifetime (required for mergeability, Remark 2.4).
    t: u32,
    /// Cached epoch threshold `⌊T(X)·2^{-t}⌋` (scratch, recomputed on
    /// epoch change; not counted as state).
    threshold: u64,
    /// Memory high-water mark (instrumentation, not state).
    peak: u64,
}

impl NelsonYuCounter {
    /// Creates the counter for the given parameter schedule (Init lines
    /// 3–4 of Algorithm 1).
    #[must_use]
    pub fn new(params: NyParams) -> Self {
        let x0 = params.x0();
        let threshold = params.threshold_for(x0, 0);
        let mut this = Self {
            params,
            x: x0,
            y: 0,
            t: 0,
            threshold,
            peak: 0,
        };
        this.peak = this.state_bits();
        this
    }

    /// The parameter schedule.
    #[must_use]
    pub fn params(&self) -> &NyParams {
        &self.params
    }

    /// The current level `X`.
    #[must_use]
    pub fn level(&self) -> u64 {
        self.x
    }

    /// The current auxiliary counter `Y`.
    #[must_use]
    pub fn y(&self) -> u64 {
        self.y
    }

    /// The current sampling exponent `t` (`α = 2^{-t}`).
    #[must_use]
    pub fn sampling_exponent(&self) -> u32 {
        self.t
    }

    /// The current sampling rate `α = 2^{-t}`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        (-f64::from(self.t)).exp2()
    }

    /// The current epoch index `k = X − X₀` (0 = the exact epoch).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.x - self.params.x0()
    }

    /// True while queries are answered exactly (`X = X₀`, `α = 1`).
    #[must_use]
    pub fn in_exact_epoch(&self) -> bool {
        self.x == self.params.x0()
    }

    /// The epoch-advance threshold currently in force.
    #[must_use]
    pub fn current_threshold(&self) -> u64 {
        self.threshold
    }

    /// The full persistent state `(X, Y, t)` for serialization.
    #[must_use]
    pub fn state_parts(&self) -> (u64, u64, u32) {
        (self.x, self.y, self.t)
    }

    /// Restores a state captured by [`NelsonYuCounter::state_parts`]
    /// (deserialization, e.g. unpacking a packed counter array).
    ///
    /// # Panics
    ///
    /// Panics if the state violates the schedule invariants
    /// (`x < X₀`, a sampling exponent below the schedule's, or `Y` above
    /// the epoch threshold).
    pub fn restore_parts(&mut self, x: u64, y: u64, t: u32) {
        self.try_restore_parts(x, y, t)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The checked form of [`NelsonYuCounter::restore_parts`], for decode
    /// paths where an invalid state must surface as an error (corrupt or
    /// mismatched serialized data) rather than a panic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] when the parts violate the
    /// schedule invariants.
    pub fn try_restore_parts(&mut self, x: u64, y: u64, t: u32) -> Result<(), CoreError> {
        if x < self.params.x0() {
            return Err(CoreError::InvalidState {
                what: "level below X0",
            });
        }
        if t < self.params.alpha_exponent(x) {
            return Err(CoreError::InvalidState {
                what: "sampling exponent below schedule",
            });
        }
        let threshold = self.params.threshold_for(x, t);
        if y > threshold {
            return Err(CoreError::InvalidState {
                what: "Y above epoch threshold",
            });
        }
        self.x = x;
        self.y = y;
        self.t = t;
        self.threshold = threshold;
        self.peak = self.peak.max(self.state_bits());
        Ok(())
    }

    /// Lines 8–12 of Algorithm 1: enter the next epoch and rescale `Y`.
    fn advance_epoch(&mut self) {
        self.x += 1;
        // α rounded up to an inverse power of two (Remark 2.2), clamped
        // monotone so the sampling rate never increases (Remark 2.4).
        let t_new = self.params.alpha_exponent(self.x).max(self.t);
        // Y ← ⌊Y · α_new/α_old⌋ is exactly a right shift.
        self.y >>= t_new - self.t;
        self.t = t_new;
        self.threshold = self.params.threshold_for(self.x, self.t);
    }

    /// Restores the `Y ≤ threshold` invariant after a survivor landed.
    #[inline]
    fn settle(&mut self) {
        while self.y > self.threshold {
            self.advance_epoch();
        }
        self.peak = self.peak.max(self.state_bits());
    }

    /// Absorbs `count` survivors that were accepted at sampling rate
    /// `2^{-t_src}` (with `t_src ≤ t`) into `Y`, re-thinning across every
    /// epoch advance.
    ///
    /// This is the batched engine behind both [`ApproxCounter::increment_by`]
    /// (raw increments are "survivors at rate 1", `t_src = 0`) and the
    /// Remark 2.4 merge replay. Correctness rests on the fact that
    /// Bernoulli thinning composes: a trial that survived rate `2^{-t_src}`
    /// and an independent keep with probability `2^{-(t − t_src)}` is
    /// exactly a survivor at rate `2^{-t}`, so one `Binomial` draw per
    /// epoch reproduces the per-trial dynamics — the pending survivors
    /// past an epoch boundary are precisely the trials the sequential
    /// counter would have flipped at the new, lower rate.
    fn absorb_survivors(&mut self, count: u64, t_src: u32, rng: &mut dyn RandomSource) {
        debug_assert!(t_src <= self.t, "sampling rate must be non-increasing");
        // Bring the batch to the current rate in a single bulk draw.
        let mut pending = if self.t > t_src {
            BernoulliPow2::new(self.t - t_src).sample_n(count, rng)
        } else {
            count
        };
        while pending > 0 {
            // Survivors up to `threshold + 1` land at the current rate;
            // the one reaching `threshold + 1` triggers the advance.
            let take = pending.min(self.threshold + 1 - self.y);
            self.y += take;
            pending -= take;
            while self.y > self.threshold {
                let t_before = self.t;
                self.advance_epoch();
                if pending > 0 && self.t > t_before {
                    pending = BernoulliPow2::new(self.t - t_before).sample_n(pending, rng);
                }
            }
        }
        self.peak = self.peak.max(self.state_bits());
    }

    /// Merges `other` into `self` (Remark 2.4: the counter is *fully
    /// mergeable* — nothing is lost in `ε` or `δ`).
    ///
    /// The per-epoch survivor counts of the lower counter are
    /// deterministic functions of the schedule (every epoch ends exactly
    /// at `threshold + 1`), so they can be replayed into the higher
    /// counter: a survivor accepted at rate `α_i` is re-accepted at the
    /// current rate `α` with probability `α/α_i = 2^{-(t − t_i)}`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MergeMismatch`] if the schedules differ.
    pub fn merge_from(
        &mut self,
        other: &NelsonYuCounter,
        rng: &mut dyn RandomSource,
    ) -> Result<(), CoreError> {
        if self.params != other.params {
            return Err(CoreError::MergeMismatch {
                what: "NyParams schedule",
            });
        }
        // Identify the lower counter; its survivors get replayed into the
        // higher one. On ties either order is valid.
        let (lo_x, lo_y, lo_t) = if self.x >= other.x {
            (other.x, other.y, other.t)
        } else {
            let prev = (self.x, self.y, self.t);
            // Adopt the higher counter's state, then replay our own
            // survivors into it.
            self.x = other.x;
            self.y = other.y;
            self.t = other.t;
            self.threshold = other.threshold;
            prev
        };

        // Replay full epochs x0..lo_x, then the partial current epoch.
        // Each epoch's survivors were accepted at rate 2^-t_i and are
        // re-absorbed with one binomial thinning draw per epoch crossed.
        // The walk carries the running max exponent
        // (`NyParams::monotone_exponent`) and the previous epoch's end,
        // from which `NyParams::epoch_y_span` derives a level's span, so
        // each level costs one schedule evaluation instead of
        // O(level − X₀).
        let params = self.params;
        let (mut t_i, mut prev_end, mut prev_t) = (0u32, 0u64, 0u32);
        for level in params.x0()..=lo_x {
            t_i = t_i.max(params.alpha_exponent(level));
            let y_end = params.threshold_for(level, t_i) + 1;
            let y_start = (prev_end >> (t_i - prev_t)).min(y_end);
            if level == lo_x {
                self.absorb_survivors(lo_y.saturating_sub(y_start), lo_t, rng);
            } else {
                self.absorb_survivors(y_end - y_start, t_i, rng);
            }
            (prev_end, prev_t) = (y_end, t_i);
        }
        self.peak = self.peak.max(self.state_bits());
        Ok(())
    }
}

impl crate::Mergeable for NelsonYuCounter {
    fn merge_from(&mut self, other: &Self, rng: &mut dyn RandomSource) -> Result<(), CoreError> {
        NelsonYuCounter::merge_from(self, other, rng)
    }

    /// `Some(Y)` while the counter is still in its exact epoch at rate 1
    /// (`X = X₀`, `t = 0`): every increment so far landed in `Y`.
    fn exact_count(&self) -> Option<u64> {
        (self.x == self.params.x0() && self.t == 0).then_some(self.y)
    }
}

impl StateBits for NelsonYuCounter {
    fn state_bits(&self) -> u64 {
        // Conservative accounting per the Theorem 2.3 proof:
        // O(log X + log Y + log log(1/α)) — we charge the exact digit
        // counts of X, Y and t. (t is in fact derivable from X, so this
        // over-counts by bit_len(t); see params::alpha_exponent.)
        u64::from(bit_len(self.x))
            + u64::from(bit_len(self.y))
            + u64::from(bit_len(u64::from(self.t)))
    }

    fn memory_audit(&self) -> MemoryAudit {
        let mut audit = MemoryAudit::new();
        audit.field("X", u64::from(bit_len(self.x)));
        audit.field("Y", u64::from(bit_len(self.y)));
        audit.field("t", u64::from(bit_len(u64::from(self.t))));
        audit
    }
}

impl ApproxCounter for NelsonYuCounter {
    fn name(&self) -> &'static str {
        "nelson-yu"
    }

    #[inline]
    fn increment(&mut self, rng: &mut dyn RandomSource) {
        // Line 6: with probability α = 2^-t, Y ← Y + 1.
        let survived = self.t == 0 || BernoulliPow2::new(self.t).sample(rng);
        if survived {
            self.y += 1;
            self.settle();
        }
    }

    /// Fast-forward by per-epoch binomial subsampling: the whole batch is
    /// subsampled into `Y` with one `Binomial(n, 2^{-t})` draw, and every
    /// epoch boundary re-thins the not-yet-landed survivors to the new
    /// rate with one more draw — `O(1 + epochs crossed)` bulk draws total,
    /// versus `n` coins for the loop (or one geometric draw per survivor,
    /// of which there are `Θ(threshold)` per epoch).
    fn increment_by(&mut self, n: u64, rng: &mut dyn RandomSource) {
        self.absorb_survivors(n, 0, rng);
    }

    fn estimate(&self) -> f64 {
        // Query (lines 14–19): Y during the exact epoch, T afterwards.
        if self.in_exact_epoch() {
            self.y as f64
        } else {
            self.params.t_value(self.x)
        }
    }

    fn peak_state_bits(&self) -> u64 {
        self.peak
    }

    fn reset(&mut self) {
        let fresh = NelsonYuCounter::new(self.params);
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_randkit::Xoshiro256PlusPlus;
    use ac_stats::Summary;

    fn params(eps: f64, d: u32) -> NyParams {
        NyParams::new(eps, d).unwrap()
    }

    #[test]
    fn starts_in_exact_epoch() {
        let c = NelsonYuCounter::new(params(0.2, 10));
        assert!(c.in_exact_epoch());
        assert_eq!(c.epoch(), 0);
        assert_eq!(c.alpha(), 1.0);
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn exact_epoch_counts_exactly() {
        let mut c = NelsonYuCounter::new(params(0.2, 10));
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let t0 = c.current_threshold();
        for i in 1..=t0 {
            c.increment(&mut rng);
            assert_eq!(c.estimate(), i as f64, "exact while in epoch 0");
        }
        assert!(c.in_exact_epoch());
        // One more increment crosses into epoch 1.
        c.increment(&mut rng);
        assert!(!c.in_exact_epoch());
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn epoch_boundary_estimate_is_continuous_within_eps() {
        let eps = 0.2;
        let mut c = NelsonYuCounter::new(params(eps, 10));
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let t0 = c.current_threshold();
        c.increment_by(t0 + 1, &mut rng);
        let n = (t0 + 1) as f64;
        let rel = (c.estimate() - n).abs() / n;
        assert!(rel <= 2.0 * eps, "boundary jump {rel}");
    }

    #[test]
    fn estimates_are_nondecreasing_in_increments() {
        let mut c = NelsonYuCounter::new(params(0.3, 8));
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut prev = 0.0;
        for _ in 0..200_000 {
            c.increment(&mut rng);
            let e = c.estimate();
            assert!(e >= prev, "estimate regressed: {prev} -> {e}");
            prev = e;
        }
    }

    #[test]
    fn y_respects_threshold_invariant() {
        let mut c = NelsonYuCounter::new(params(0.25, 10));
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        for _ in 0..100_000 {
            c.increment(&mut rng);
            assert!(c.y() <= c.current_threshold());
        }
    }

    #[test]
    fn sampling_exponent_is_monotone() {
        let mut c = NelsonYuCounter::new(params(0.15, 12));
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut prev_t = 0;
        for _ in 0..300_000 {
            c.increment(&mut rng);
            assert!(c.sampling_exponent() >= prev_t);
            prev_t = c.sampling_exponent();
        }
        assert!(prev_t > 0, "sampling should have kicked in");
    }

    #[test]
    fn accuracy_at_target_parameters() {
        // ε = 0.2, δ = 2^-7: empirical failure rate of
        // P(|N̂-N| > 2εN) should be well under a few percent.
        let eps = 0.2;
        let p = params(eps, 7);
        let n = 300_000u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let trials = 2_000u32;
        let mut failures = 0u32;
        for _ in 0..trials {
            let mut c = NelsonYuCounter::new(p);
            c.increment_by(n, &mut rng);
            let rel = (c.estimate() - n as f64).abs() / n as f64;
            if rel > 2.0 * eps {
                failures += 1;
            }
        }
        let rate = f64::from(failures) / f64::from(trials);
        assert!(rate < 0.03, "failure rate {rate}");
    }

    #[test]
    fn estimates_concentrate_around_n() {
        let p = params(0.1, 10);
        let n = 1_000_000u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut s = Summary::new();
        for _ in 0..500 {
            let mut c = NelsonYuCounter::new(p);
            c.increment_by(n, &mut rng);
            s.push(c.estimate() / n as f64);
        }
        // Mean relative estimate within 10 % of 1, spread below ε-scale.
        assert!((s.mean() - 1.0).abs() < 0.1, "mean ratio {}", s.mean());
        assert!(s.stddev() < 0.1, "sd {}", s.stddev());
    }

    #[test]
    fn fast_forward_matches_step_distribution() {
        let p = params(0.3, 6);
        let n = 20_000u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let trials = 4_000;
        let mut ff = Vec::with_capacity(trials);
        let mut step = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut c = NelsonYuCounter::new(p);
            c.increment_by(n, &mut rng);
            ff.push(c.level() as f64);

            let mut c = NelsonYuCounter::new(p);
            for _ in 0..n {
                c.increment(&mut rng);
            }
            step.push(c.level() as f64);
        }
        let ks = ac_stats::ks::ks_two_sample(&ff, &step);
        assert!(ks.p_value > 0.001, "KS p={} D={}", ks.p_value, ks.statistic);
    }

    #[test]
    fn space_stays_near_theorem_bound() {
        // 10 million increments at ε=0.1, δ=2^-10: state should be tens
        // of bits, nowhere near log2(N) ≈ 23 for the Y register alone...
        // more precisely: X ≈ log_{1.1}(10^7) ≈ 169 (8 bits),
        // Y ≤ threshold ≈ C·ln(1/η)/ε² ≈ tens of thousands (17 bits).
        let p = params(0.1, 10);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let mut c = NelsonYuCounter::new(p);
        c.increment_by(10_000_000, &mut rng);
        assert!(
            c.peak_state_bits() < 40,
            "peak bits {} too large",
            c.peak_state_bits()
        );
        let audit = c.memory_audit();
        assert_eq!(audit.total_bits(), c.state_bits());
        assert_eq!(audit.fields().len(), 3);
    }

    #[test]
    fn merge_requires_same_schedule() {
        let mut a = NelsonYuCounter::new(params(0.1, 10));
        let b = NelsonYuCounter::new(params(0.2, 10));
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        assert!(matches!(
            a.merge_from(&b, &mut rng),
            Err(CoreError::MergeMismatch { .. })
        ));
    }

    #[test]
    fn merge_in_exact_epochs_is_exact_addition() {
        let p = params(0.2, 8);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut a = NelsonYuCounter::new(p);
        let mut b = NelsonYuCounter::new(p);
        a.increment_by(100, &mut rng);
        b.increment_by(50, &mut rng);
        a.merge_from(&b, &mut rng).unwrap();
        assert_eq!(a.estimate(), 150.0, "both in epoch 0: merge is exact");
    }

    #[test]
    fn merge_mean_is_additive() {
        let p = params(0.2, 8);
        let (n1, n2) = (60_000u64, 140_000u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(12);
        let mut s = Summary::new();
        for _ in 0..3_000 {
            let mut c1 = NelsonYuCounter::new(p);
            c1.increment_by(n1, &mut rng);
            let mut c2 = NelsonYuCounter::new(p);
            c2.increment_by(n2, &mut rng);
            c1.merge_from(&c2, &mut rng).unwrap();
            s.push(c1.estimate());
        }
        let total = (n1 + n2) as f64;
        assert!(
            (s.mean() - total).abs() / total < 0.05,
            "merged mean {} vs {total}",
            s.mean()
        );
    }

    #[test]
    fn merge_matches_sequential_distribution() {
        // The Remark 2.4 claim, checked on levels with a KS test.
        let p = params(0.3, 6);
        let (n1, n2) = (30_000u64, 50_000u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(13);
        let trials = 4_000;
        let mut merged = Vec::with_capacity(trials);
        let mut sequential = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut c1 = NelsonYuCounter::new(p);
            c1.increment_by(n1, &mut rng);
            let mut c2 = NelsonYuCounter::new(p);
            c2.increment_by(n2, &mut rng);
            c1.merge_from(&c2, &mut rng).unwrap();
            merged.push(c1.level() as f64);

            let mut c = NelsonYuCounter::new(p);
            c.increment_by(n1 + n2, &mut rng);
            sequential.push(c.level() as f64);
        }
        let ks = ac_stats::ks::ks_two_sample(&merged, &sequential);
        assert!(ks.p_value > 0.001, "KS p={} D={}", ks.p_value, ks.statistic);
    }

    #[test]
    fn merge_is_symmetric_in_distribution() {
        // merge(a, b) and merge(b, a) must agree in distribution; check
        // the means closely.
        let p = params(0.25, 8);
        let (n1, n2) = (10_000u64, 80_000u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(14);
        let mut ab = Summary::new();
        let mut ba = Summary::new();
        for _ in 0..2_000 {
            let mut c1 = NelsonYuCounter::new(p);
            c1.increment_by(n1, &mut rng);
            let mut c2 = NelsonYuCounter::new(p);
            c2.increment_by(n2, &mut rng);
            let mut m1 = c1.clone();
            m1.merge_from(&c2, &mut rng).unwrap();
            ab.push(m1.estimate());
            let mut m2 = c2;
            m2.merge_from(&c1, &mut rng).unwrap();
            ba.push(m2.estimate());
        }
        let rel = (ab.mean() - ba.mean()).abs() / ab.mean();
        assert!(rel < 0.03, "asymmetry {rel}");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let p = params(0.2, 10);
        let mut c = NelsonYuCounter::new(p);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(15);
        c.increment_by(1_000_000, &mut rng);
        c.reset();
        assert_eq!(c, NelsonYuCounter::new(p));
    }

    /// The merge replay by definition: every level's span from
    /// `NyParams::epoch_y_span` and its exponent from
    /// `NyParams::monotone_exponent`, each recomputed from `X₀`.
    fn reference_merge(
        this: &mut NelsonYuCounter,
        other: &NelsonYuCounter,
        rng: &mut dyn RandomSource,
    ) {
        let (lo_x, lo_y, lo_t) = if this.x >= other.x {
            (other.x, other.y, other.t)
        } else {
            let prev = (this.x, this.y, this.t);
            this.x = other.x;
            this.y = other.y;
            this.t = other.t;
            this.threshold = other.threshold;
            prev
        };
        for level in this.params.x0()..=lo_x {
            let (y_start, y_end) = this.params.epoch_y_span(level);
            let (survivors, t_i) = if level == lo_x {
                (lo_y.saturating_sub(y_start), lo_t)
            } else {
                (y_end - y_start, this.params.monotone_exponent(level))
            };
            this.absorb_survivors(survivors, t_i, rng);
        }
        this.peak = this.peak.max(this.state_bits());
    }

    proptest::proptest! {
        /// The one-walk replay is bit-identical to the per-level
        /// reference: same resulting state and the same random draws.
        #[test]
        fn merge_replay_matches_epoch_span_reference(
            schedule in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            (k1, f1) in (0u32..26, 0.0f64..1.0),
            (k2, f2) in (0u32..26, 0.0f64..1.0),
        ) {
            let p = [params(0.2, 8), params(0.1, 10), params(0.3, 6), params(0.45, 30)][schedule];
            // Log-uniform counts reach the exact epoch and many levels.
            let n1 = ((1u64 << k1) as f64 * (1.0 + f1)) as u64;
            let n2 = ((1u64 << k2) as f64 * (1.0 + f2)) as u64;
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut a = NelsonYuCounter::new(p);
            a.increment_by(n1, &mut rng);
            let mut b = NelsonYuCounter::new(p);
            b.increment_by(n2, &mut rng);

            let mut fast = a.clone();
            let mut fast_rng = rng.clone();
            fast.merge_from(&b, &mut fast_rng).unwrap();
            let mut reference = a;
            let mut ref_rng = rng;
            reference_merge(&mut reference, &b, &mut ref_rng);

            proptest::prop_assert_eq!(fast.state_parts(), reference.state_parts());
            proptest::prop_assert_eq!(fast, reference);
            proptest::prop_assert_eq!(fast_rng.next_u64(), ref_rng.next_u64());
        }
    }

    #[test]
    fn exact_count_holds_only_in_the_rate_one_exact_epoch() {
        use crate::Mergeable;
        let p = params(0.2, 8);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(17);
        let mut c = NelsonYuCounter::new(p);
        assert_eq!(c.exact_count(), Some(0));
        let t0 = c.current_threshold();
        c.increment_by(t0, &mut rng);
        assert_eq!(c.exact_count(), Some(t0), "last exact state");
        c.increment(&mut rng);
        assert_eq!(c.exact_count(), None, "left the exact epoch");

        // X₀ with a sampling exponent above the schedule's is a valid
        // restored state, but no increments from reset reach it.
        let mut r = NelsonYuCounter::new(p);
        r.try_restore_parts(p.x0(), 3, 2).unwrap();
        assert_eq!(r.exact_count(), None);
        r.try_restore_parts(p.x0(), 3, 0).unwrap();
        assert_eq!(r.exact_count(), Some(3));
    }

    #[test]
    fn bulk_zero_is_a_noop() {
        let p = params(0.2, 10);
        let mut c = NelsonYuCounter::new(p);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(16);
        c.increment_by(0, &mut rng);
        assert_eq!(c, NelsonYuCounter::new(p));
    }
}
