//! Parameter planning: from a target `(ε, δ)` to concrete algorithm
//! parameters, following the paper's prescriptions.
//!
//! Throughout the workspace the failure probability is specified as the
//! exponent `Δ` with `δ = 2^{-Δ}`, following Remark 2.2: "δ is never
//! stored or even given to the algorithm, but rather the input should be
//! ∆ such that δ = 2^{−∆}".

use crate::CoreError;

/// The universal constant `C` of Algorithm 1. The paper leaves it
/// unspecified ("universal positive constants, which may change from line
/// to line"); the Chernoff step of Theorem 2.1 needs roughly `C ≥ 3`, and
/// `C = 6` gives comfortable slack without inflating the `Y` register by
/// more than three bits. Configurable via [`NyParams::with_constant`].
pub const DEFAULT_C: f64 = 6.0;

/// The paper's §2.2 prescription `a = ε²/(8 ln(1/δ))` for `Morris(a)`,
/// with `δ = 2^{-Δ}`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidEpsilon`] / [`CoreError::InvalidDeltaLog2`]
/// on out-of-range inputs (theorems assume `ε, δ ∈ (0, 1/2)`).
pub fn morris_a(eps: f64, delta_log2: u32) -> Result<f64, CoreError> {
    validate_eps(eps)?;
    validate_delta(delta_log2)?;
    Ok(eps * eps / (8.0 * f64::from(delta_log2) * std::f64::consts::LN_2))
}

/// The Morris+ switchover point `N_a = ⌈8/a⌉`: below it a deterministic
/// counter is exact; above it `Morris(a)`'s §2.2 analysis applies
/// (`N ≥ 8/a`).
#[must_use]
pub fn morris_plus_cutoff(a: f64) -> u64 {
    assert!(a > 0.0 && a.is_finite(), "base parameter must be positive");
    (8.0 / a).ceil() as u64
}

fn validate_eps(eps: f64) -> Result<(), CoreError> {
    if !(eps.is_finite() && eps > 0.0 && eps < 0.5) {
        return Err(CoreError::InvalidEpsilon { got: eps });
    }
    Ok(())
}

fn validate_delta(delta_log2: u32) -> Result<(), CoreError> {
    if delta_log2 < 1 {
        return Err(CoreError::InvalidDeltaLog2 { got: delta_log2 });
    }
    Ok(())
}

/// The full parameter schedule of Algorithm 1.
///
/// Everything the counter needs at any level `X` — the epoch threshold
/// `T = ⌈(1+ε)^X⌉`, the per-epoch failure budget `η = δ/X²`, and the
/// sampling exponent `t` with `α = 2^{-t}` — is a *pure function* of
/// `(ε, Δ, C, X)` computed here. This realizes Remark 2.2: `η` and `α`
/// are never stored; only `X`, `Y` (and, conservatively, `t`) are state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NyParams {
    eps: f64,
    delta_log2: u32,
    c: f64,
    /// Cached `ln(1+ε)`.
    ln1e: f64,
    /// Cached initial level `X₀`.
    x0: u64,
}

impl NyParams {
    /// Creates the schedule for accuracy `ε` and failure probability
    /// `δ = 2^{-Δ}`, with the default universal constant
    /// [`DEFAULT_C`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidEpsilon`] / [`CoreError::InvalidDeltaLog2`]
    /// on out-of-range inputs.
    pub fn new(eps: f64, delta_log2: u32) -> Result<Self, CoreError> {
        Self::with_constant(eps, delta_log2, DEFAULT_C)
    }

    /// Like [`NyParams::new`] with an explicit universal constant `C ≥ 1`.
    ///
    /// # Errors
    ///
    /// Additionally returns [`CoreError::InvalidConstant`] for `C < 1`.
    pub fn with_constant(eps: f64, delta_log2: u32, c: f64) -> Result<Self, CoreError> {
        validate_eps(eps)?;
        validate_delta(delta_log2)?;
        if !(c.is_finite() && c >= 1.0) {
            return Err(CoreError::InvalidConstant { got: c });
        }
        let ln1e = eps.ln_1p();
        // X₀ = ⌈ln_{1+ε}(C·ln(1/η)/ε³)⌉ with η = δ (Algorithm 1, Init).
        let delta_ln = f64::from(delta_log2) * std::f64::consts::LN_2; // ln(1/δ)
        let arg = (c * delta_ln / (eps * eps * eps)).max(1.0 + eps);
        let x0 = (arg.ln() / ln1e).ceil() as u64;
        Ok(Self {
            eps,
            delta_log2,
            c,
            ln1e,
            x0: x0.max(1),
        })
    }

    /// The accuracy parameter `ε`.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The failure exponent `Δ` (`δ = 2^{-Δ}`).
    #[must_use]
    pub fn delta_log2(&self) -> u32 {
        self.delta_log2
    }

    /// The failure probability `δ = 2^{-Δ}` as a float (0 for `Δ > 1074`).
    #[must_use]
    pub fn delta(&self) -> f64 {
        (-f64::from(self.delta_log2)).exp2()
    }

    /// The universal constant `C`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The initial level `X₀` (Algorithm 1, line 3).
    #[must_use]
    pub fn x0(&self) -> u64 {
        self.x0
    }

    /// The epoch threshold `T = ⌈(1+ε)^X⌉` for level `x` (line 9).
    ///
    /// Returned as `f64` — per Remark 2.2, `T` is never *stored*; it is a
    /// scratch value recomputed from `X`, and for counts near `2^64` it
    /// exceeds the exactly-representable integer range. The `±1`-level
    /// rounding this costs is within the analysis' `±O(1)` slack.
    #[must_use]
    pub fn t_value(&self, x: u64) -> f64 {
        ((x as f64) * self.ln1e).exp().ceil()
    }

    /// `ln(1/η)` for the epoch at level `x`, where `η = δ/X²` (line 9).
    #[must_use]
    pub fn ln_inv_eta(&self, x: u64) -> f64 {
        let delta_ln = f64::from(self.delta_log2) * std::f64::consts::LN_2;
        delta_ln + 2.0 * (x as f64).ln()
    }

    /// The sampling exponent `t` for the epoch at level `x`, such that
    /// `α = 2^{-t}` is line 10's value rounded **up** to an inverse power
    /// of two (Remark 2.2): the largest `t` with
    /// `2^{-t} ≥ C·ln(1/η)/(ε³T)`, clamped to `t ≥ 0`.
    ///
    /// At the initial level (`x ≤ X₀`) the rate is `α = 1` (`t = 0`).
    #[must_use]
    pub fn alpha_exponent(&self, x: u64) -> u32 {
        if x <= self.x0 {
            return 0;
        }
        let alpha = self.c * self.ln_inv_eta(x) / (self.eps.powi(3) * self.t_value(x));
        if alpha >= 1.0 {
            return 0;
        }
        // Largest t with 2^-t >= alpha: t = floor(log2(1/alpha)).
        (1.0 / alpha).log2().floor() as u32
    }

    /// The epoch-advance threshold for level `x` under sampling exponent
    /// `t`: `⌊T(x)·2^{-t}⌋` (the counter advances when `Y` exceeds it).
    ///
    /// `t` is passed explicitly because the counter enforces monotone
    /// non-increasing `α` (required for mergeability, Remark 2.4), which
    /// can hold `t` above [`NyParams::alpha_exponent`] in degenerate
    /// corners.
    #[must_use]
    pub fn threshold_for(&self, x: u64, t: u32) -> u64 {
        let thresh = self.t_value(x) * (-f64::from(t)).exp2();
        // A zero threshold would advance epochs on every survivor; the
        // schedule never produces it for valid parameters, but clamp for
        // safety.
        (thresh.floor() as u64).max(1)
    }

    /// Number of survivors (accepted `Y`-increments) a *completed* epoch
    /// at level `x` contributes, together with the epoch's starting `Y`
    /// value: the per-epoch survivor counts the Remark 2.4 merge replays
    /// are deterministic functions of the schedule. The merge derives
    /// them in one walk over the levels; this is the per-level
    /// definition its tests compare against.
    ///
    /// Returns `(y_start, y_end)` where `y_end = threshold + 1` is the
    /// value that triggered the advance.
    #[must_use]
    pub fn epoch_y_span(&self, x: u64) -> (u64, u64) {
        let t = self.monotone_exponent(x);
        let y_end = self.threshold_for(x, t) + 1;
        let y_start = if x <= self.x0 {
            0
        } else {
            let prev_t = self.monotone_exponent(x - 1);
            let prev_end = self.threshold_for(x - 1, prev_t) + 1;
            prev_end >> (t - prev_t)
        };
        (y_start.min(y_end), y_end)
    }

    /// The sampling exponent with monotonicity enforced along the
    /// schedule: `t*(x) = max_{X₀ ≤ x' ≤ x} alpha_exponent(x')`.
    ///
    /// For all sane parameters `alpha_exponent` is itself nondecreasing
    /// and this is the identity; the fold guarantees it even in corner
    /// cases. O(x − X₀) schedule evaluations per call; the merge replay
    /// carries the running max along its walk instead of calling this
    /// per level.
    #[must_use]
    pub fn monotone_exponent(&self, x: u64) -> u32 {
        let mut t = 0;
        for level in self.x0..=x {
            t = t.max(self.alpha_exponent(level));
        }
        t
    }

    /// Theorem 1.1's space form
    /// `log₂log₂ n + log₂(1/ε) + log₂ Δ` (no constant), for experiment
    /// axes.
    #[must_use]
    pub fn space_form(&self, n: u64) -> f64 {
        assert!(n >= 2);
        ((n as f64).log2()).log2() + (1.0 / self.eps).log2() + f64::from(self.delta_log2).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morris_a_matches_formula() {
        // Δ = 10 → δ = 2^-10, ln(1/δ) = 10 ln 2.
        let a = morris_a(0.1, 10).unwrap();
        let expected = 0.01 / (8.0 * 10.0 * std::f64::consts::LN_2);
        assert!((a - expected).abs() < 1e-15);
    }

    #[test]
    fn morris_a_validates() {
        assert!(morris_a(0.0, 10).is_err());
        assert!(morris_a(0.5, 10).is_err());
        assert!(morris_a(0.1, 0).is_err());
        assert!(morris_a(f64::NAN, 10).is_err());
    }

    #[test]
    fn cutoff_is_ceil_8_over_a() {
        assert_eq!(morris_plus_cutoff(1.0), 8);
        assert_eq!(morris_plus_cutoff(0.5), 16);
        assert_eq!(morris_plus_cutoff(3.0), 3);
    }

    #[test]
    fn ny_params_validate() {
        assert!(NyParams::new(0.0, 10).is_err());
        assert!(NyParams::new(0.5, 10).is_err());
        assert!(NyParams::new(0.1, 0).is_err());
        assert!(NyParams::with_constant(0.1, 10, 0.5).is_err());
        assert!(NyParams::new(0.1, 10).is_ok());
    }

    #[test]
    fn x0_matches_init_line() {
        let p = NyParams::with_constant(0.25, 10, 6.0).unwrap();
        // X0 = ceil(ln_{1.25}(C ln(1/δ)/ε³))
        let arg = 6.0 * 10.0 * std::f64::consts::LN_2 / 0.25f64.powi(3);
        let expected = (arg.ln() / 1.25f64.ln()).ceil() as u64;
        assert_eq!(p.x0(), expected);
    }

    #[test]
    fn t_value_is_geometric() {
        let p = NyParams::new(0.1, 10).unwrap();
        let x = p.x0() + 5;
        let ratio = p.t_value(x + 1) / p.t_value(x);
        assert!((ratio - 1.1).abs() < 0.01, "ratio={ratio}");
    }

    #[test]
    fn epoch0_has_rate_one() {
        let p = NyParams::new(0.2, 10).unwrap();
        assert_eq!(p.alpha_exponent(p.x0()), 0);
        assert_eq!(p.alpha_exponent(p.x0().saturating_sub(1)), 0);
    }

    #[test]
    fn alpha_exponent_rounds_up_to_inverse_power_of_two() {
        let p = NyParams::new(0.2, 10).unwrap();
        for x in (p.x0() + 1)..(p.x0() + 100) {
            let t = p.alpha_exponent(x);
            let alpha_formula = p.c() * p.ln_inv_eta(x) / (p.eps().powi(3) * p.t_value(x));
            if alpha_formula < 1.0 {
                let alpha = (-f64::from(t)).exp2();
                assert!(alpha >= alpha_formula, "x={x}: 2^-{t} < formula");
                // And one more halving would undershoot:
                assert!(alpha / 2.0 < alpha_formula, "x={x}: t not maximal");
            } else {
                assert_eq!(t, 0);
            }
        }
    }

    #[test]
    fn alpha_exponent_is_monotone_for_typical_parameters() {
        for &(eps, d) in &[(0.1, 7u32), (0.25, 20), (0.02, 4), (0.4, 40)] {
            let p = NyParams::new(eps, d).unwrap();
            let mut prev = 0;
            for x in p.x0()..(p.x0() + 2_000) {
                let t = p.alpha_exponent(x);
                assert!(t >= prev, "eps={eps} Δ={d} x={x}: t dropped {prev}->{t}");
                prev = t;
            }
        }
    }

    #[test]
    fn thresholds_are_positive_and_grow_modestly() {
        let p = NyParams::new(0.1, 10).unwrap();
        // Within an epoch schedule, threshold ≈ C ln(1/η)/ε³ up to the
        // power-of-two rounding of α: bounded by a constant multiple.
        for x in (p.x0() + 5)..(p.x0() + 200) {
            let t = p.alpha_exponent(x);
            let thresh = p.threshold_for(x, t);
            let scale = p.c() * p.ln_inv_eta(x) / p.eps().powi(3);
            assert!(thresh >= 1);
            assert!(
                (thresh as f64) < 4.0 * scale,
                "x={x}: threshold {thresh} vs scale {scale}"
            );
        }
    }

    #[test]
    fn epoch_y_span_is_consistent() {
        let p = NyParams::new(0.15, 12).unwrap();
        // Epoch at X0 starts from Y = 0.
        let (s0, e0) = p.epoch_y_span(p.x0());
        assert_eq!(s0, 0);
        assert!(e0 >= 1);
        // Later epochs start at the rescaled previous end.
        for x in (p.x0() + 1)..(p.x0() + 50) {
            let (s, e) = p.epoch_y_span(x);
            assert!(s <= e, "x={x}: start {s} > end {e}");
            let t = p.monotone_exponent(x);
            let tp = p.monotone_exponent(x - 1);
            let (_, prev_e) = p.epoch_y_span(x - 1);
            assert_eq!(s, (prev_e >> (t - tp)).min(e));
        }
    }

    #[test]
    fn space_form_reflects_parameters() {
        let tight = NyParams::new(0.01, 40).unwrap();
        let loose = NyParams::new(0.25, 3).unwrap();
        let n = 1 << 30;
        assert!(tight.space_form(n) > loose.space_form(n));
    }

    #[test]
    fn delta_accessor() {
        let p = NyParams::new(0.1, 10).unwrap();
        assert!((p.delta() - 1.0 / 1024.0).abs() < 1e-18);
    }
}
