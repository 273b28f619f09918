//! The deterministic `⌈log₂N⌉`-bit baseline counter.

use crate::ApproxCounter;
use ac_bitio::{bit_len, MemoryAudit, StateBits};
use ac_randkit::RandomSource;

/// The naive exact counter: stores `N` itself in `bit_len(N)` bits.
///
/// This is both the correctness oracle in tests and the baseline whose
/// `Θ(log N)` space the approximate counters beat. It also matches the
/// first branch of the paper's lower bound
/// `Ω(min{log n, …})` — for small `n`, exact counting is optimal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactCounter {
    n: u64,
    peak: u64,
}

impl ExactCounter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact current count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }
}

impl StateBits for ExactCounter {
    fn state_bits(&self) -> u64 {
        u64::from(bit_len(self.n))
    }

    fn memory_audit(&self) -> MemoryAudit {
        let mut a = MemoryAudit::new();
        a.field("N", self.state_bits());
        a
    }
}

impl crate::Mergeable for ExactCounter {
    /// Exact counters merge by exact addition (saturating at `u64::MAX`);
    /// no randomness is consumed.
    fn merge_from(
        &mut self,
        other: &Self,
        _rng: &mut dyn RandomSource,
    ) -> Result<(), crate::CoreError> {
        self.n = self.n.saturating_add(other.n);
        self.peak = self.peak.max(self.state_bits());
        Ok(())
    }

    /// Every exact counter is its count.
    fn exact_count(&self) -> Option<u64> {
        Some(self.n)
    }
}

impl ApproxCounter for ExactCounter {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn increment(&mut self, _rng: &mut dyn RandomSource) {
        self.n = self.n.saturating_add(1);
        self.peak = self.peak.max(self.state_bits());
    }

    /// Saturates at `u64::MAX`, like [`crate::Mergeable::merge_from`].
    fn increment_by(&mut self, n: u64, _rng: &mut dyn RandomSource) {
        self.n = self.n.saturating_add(n);
        self.peak = self.peak.max(self.state_bits());
    }

    fn estimate(&self) -> f64 {
        self.n as f64
    }

    fn peak_state_bits(&self) -> u64 {
        self.peak
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_randkit::Xoshiro256PlusPlus;

    #[test]
    fn exact_counting() {
        let mut c = ExactCounter::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for i in 1..=100u64 {
            c.increment(&mut rng);
            assert_eq!(c.count(), i);
            assert_eq!(c.estimate(), i as f64);
        }
    }

    #[test]
    fn bulk_equals_loop() {
        let mut a = ExactCounter::new();
        let mut b = ExactCounter::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        a.increment_by(12_345, &mut rng);
        for _ in 0..12_345 {
            b.increment(&mut rng);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn state_bits_is_log_n() {
        let mut c = ExactCounter::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        c.increment_by(1 << 20, &mut rng);
        assert_eq!(c.state_bits(), 21);
        assert_eq!(c.peak_state_bits(), 21);
    }

    #[test]
    fn increments_saturate_at_u64_max() {
        use crate::Mergeable;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut c = ExactCounter::new();
        c.increment_by(u64::MAX - 2, &mut rng);
        c.increment_by(5, &mut rng);
        assert_eq!(c.count(), u64::MAX, "increment_by saturates");
        c.increment(&mut rng);
        assert_eq!(c.count(), u64::MAX, "increment saturates");
        assert_eq!(c.exact_count(), Some(u64::MAX));

        // The same sum reached by merging agrees with the increments.
        let mut a = ExactCounter::new();
        a.increment_by(u64::MAX - 2, &mut rng);
        let mut b = ExactCounter::new();
        b.increment_by(5, &mut rng);
        a.merge_from(&b, &mut rng).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn reset_restores_zero() {
        let mut c = ExactCounter::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        c.increment_by(10, &mut rng);
        c.reset();
        assert_eq!(c.count(), 0);
        assert_eq!(c.peak_state_bits(), 0);
        assert_eq!(c.state_bits(), 1, "a zeroed register still has width 1");
    }
}
