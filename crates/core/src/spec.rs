//! Runtime family selection: [`CounterSpec`] names a counter family and
//! its parameters as *data*, and [`CounterFamily`] is the counter it
//! builds — one concrete type that behaves exactly like whichever family
//! the spec named.
//!
//! The generic containers in this workspace (`CounterEngine<C>`, the
//! checkpoint layer, the packed arrays) are monomorphized over a family
//! chosen at compile time. A deployed service wants that choice in a
//! *config file*: the same binary serving a Morris fleet today and a
//! Nelson–Yu fleet tomorrow, and — crucially — able to reopen a
//! checkpoint directory whose manifest says which family wrote it.
//! [`CounterFamily`] makes `CounterEngine<CounterFamily>` exactly that
//! runtime-selected engine.
//!
//! ## Dispatch is invisible to the bits
//!
//! Every trait impl on [`CounterFamily`] delegates to the wrapped
//! counter: the random draws, the state registers, the
//! [`StateCodec`] encoding, and the
//! [`params_fingerprint`](StateCodec::params_fingerprint) are those of
//! the inner family, bit for bit. A `CounterEngine<CounterFamily>` fed a
//! stream therefore produces states — and checkpoint *bytes* — identical
//! to the monomorphized `CounterEngine<MorrisCounter>` (etc.) fed the
//! same stream, and either side can restore the other's checkpoints.
//! Property tests in `ac-engine` pin this equivalence for all five
//! families.

use crate::params::morris_a;
use crate::{
    ApproxCounter, CoreError, CsurosCounter, ExactCounter, Mergeable, MorrisCounter, MorrisPlus,
    NelsonYuCounter, NyParams, StateCodec,
};
use ac_bitio::{BitReader, BitWriter, MemoryAudit, StateBits};
use ac_randkit::RandomSource;
use std::fmt;

/// A counter family plus its parameters, as plain data: the runtime
/// counterpart of picking a concrete counter type at compile time.
///
/// Build the counter with [`CounterSpec::build`]; serialize the spec
/// itself with [`CounterSpec::encode_words`] /
/// [`CounterSpec::decode_words`] (the `ac-engine` store manifest records
/// it this way, so `Store::open` can reconstruct the family a directory
/// was written with).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CounterSpec {
    /// The exact `log₂ N`-bit baseline counter.
    Exact,
    /// `Morris(a)` with base parameter `a` (§1.2, §2.2).
    Morris {
        /// The base parameter `a > 0`.
        a: f64,
    },
    /// Morris+ from a target `(ε, δ = 2^{-Δ})` (Appendix A).
    MorrisPlus {
        /// Relative accuracy `ε ∈ (0, 1/2)`.
        eps: f64,
        /// Failure exponent `Δ ≥ 1` (`δ = 2^{-Δ}`).
        delta_log2: u32,
    },
    /// The paper's Algorithm 1 from a target `(ε, δ = 2^{-Δ})`.
    NelsonYu {
        /// Relative accuracy `ε ∈ (0, 1/2)`.
        eps: f64,
        /// Failure exponent `Δ ≥ 1` (`δ = 2^{-Δ}`).
        delta_log2: u32,
    },
    /// The Csűrös-style floating-point counter with `d` mantissa bits.
    Csuros {
        /// Mantissa width `d ≥ 1`.
        mantissa_bits: u32,
    },
}

/// Family tags used by the word encoding (stable across versions: the
/// store manifest persists them).
const TAG_EXACT: u64 = 0;
const TAG_MORRIS: u64 = 1;
const TAG_MORRIS_PLUS: u64 = 2;
const TAG_NELSON_YU: u64 = 3;
const TAG_CSUROS: u64 = 4;

impl CounterSpec {
    /// `Morris(a)` with the paper's §2.2 prescription
    /// `a = ε²/(8 ln(1/δ))` for a target `(ε, δ = 2^{-Δ})`.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`morris_a`].
    pub fn morris_for(eps: f64, delta_log2: u32) -> Result<Self, CoreError> {
        Ok(CounterSpec::Morris {
            a: morris_a(eps, delta_log2)?,
        })
    }

    /// The family's short stable name (matches
    /// [`ApproxCounter::name`] of the built counter).
    #[must_use]
    pub fn family_name(&self) -> &'static str {
        match self {
            CounterSpec::Exact => "exact",
            CounterSpec::Morris { .. } => "morris",
            CounterSpec::MorrisPlus { .. } => "morris+",
            CounterSpec::NelsonYu { .. } => "nelson-yu",
            CounterSpec::Csuros { .. } => "csuros-float",
        }
    }

    /// Constructs the counter the spec describes, validating parameters.
    ///
    /// # Errors
    ///
    /// Propagates the family constructor's [`CoreError`] for out-of-range
    /// parameters.
    pub fn build(&self) -> Result<CounterFamily, CoreError> {
        Ok(match *self {
            CounterSpec::Exact => CounterFamily::Exact(ExactCounter::new()),
            CounterSpec::Morris { a } => CounterFamily::Morris(MorrisCounter::new(a)?),
            CounterSpec::MorrisPlus { eps, delta_log2 } => {
                CounterFamily::MorrisPlus(MorrisPlus::new(eps, delta_log2)?)
            }
            CounterSpec::NelsonYu { eps, delta_log2 } => {
                CounterFamily::NelsonYu(NelsonYuCounter::new(NyParams::new(eps, delta_log2)?))
            }
            CounterSpec::Csuros { mantissa_bits } => {
                CounterFamily::Csuros(CsurosCounter::new(mantissa_bits)?)
            }
        })
    }

    /// The spec as a short word sequence `[tag, params…]` — the stable
    /// serialization the store manifest records.
    #[must_use]
    pub fn encode_words(&self) -> Vec<u64> {
        match *self {
            CounterSpec::Exact => vec![TAG_EXACT],
            CounterSpec::Morris { a } => vec![TAG_MORRIS, a.to_bits()],
            CounterSpec::MorrisPlus { eps, delta_log2 } => {
                vec![TAG_MORRIS_PLUS, eps.to_bits(), u64::from(delta_log2)]
            }
            CounterSpec::NelsonYu { eps, delta_log2 } => {
                vec![TAG_NELSON_YU, eps.to_bits(), u64::from(delta_log2)]
            }
            CounterSpec::Csuros { mantissa_bits } => {
                vec![TAG_CSUROS, u64::from(mantissa_bits)]
            }
        }
    }

    /// Parses a word sequence written by [`CounterSpec::encode_words`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] for an unknown tag or a wrong
    /// word count, and the family's own validation error for parameters
    /// that decode but do not validate.
    pub fn decode_words(words: &[u64]) -> Result<Self, CoreError> {
        let bad = |what| Err(CoreError::InvalidState { what });
        let u32_of = |w: u64, what: &'static str| {
            u32::try_from(w).map_err(|_| CoreError::InvalidState { what })
        };
        let spec = match words {
            [TAG_EXACT] => CounterSpec::Exact,
            [TAG_MORRIS, a] => CounterSpec::Morris {
                a: f64::from_bits(*a),
            },
            [TAG_MORRIS_PLUS, eps, d] => CounterSpec::MorrisPlus {
                eps: f64::from_bits(*eps),
                delta_log2: u32_of(*d, "Morris+ delta exponent does not fit u32")?,
            },
            [TAG_NELSON_YU, eps, d] => CounterSpec::NelsonYu {
                eps: f64::from_bits(*eps),
                delta_log2: u32_of(*d, "Nelson-Yu delta exponent does not fit u32")?,
            },
            [TAG_CSUROS, d] => CounterSpec::Csuros {
                mantissa_bits: u32_of(*d, "Csűrös mantissa width does not fit u32")?,
            },
            _ => return bad("unknown counter-spec encoding"),
        };
        // Validate by building: a spec that decodes must also construct.
        spec.build()?;
        Ok(spec)
    }
}

impl fmt::Display for CounterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterSpec::Exact => write!(f, "exact"),
            CounterSpec::Morris { a } => write!(f, "morris(a={a})"),
            CounterSpec::MorrisPlus { eps, delta_log2 } => {
                write!(f, "morris+(eps={eps}, delta=2^-{delta_log2})")
            }
            CounterSpec::NelsonYu { eps, delta_log2 } => {
                write!(f, "nelson-yu(eps={eps}, delta=2^-{delta_log2})")
            }
            CounterSpec::Csuros { mantissa_bits } => write!(f, "csuros-float(d={mantissa_bits})"),
        }
    }
}

impl CounterFamily {
    /// Estimate-preserving re-seeding into another family: builds the
    /// counter `spec` describes and seeds its state so that its estimate
    /// is the **nearest representable value** to `self.estimate()`.
    ///
    /// This is the migration primitive behind per-key accuracy tiers: a
    /// key promoted from Morris to Exact (or demoted back) carries its
    /// current estimate across the family switch, and only its *future*
    /// increments see the new family's dynamics.
    ///
    /// ## Error accounting
    ///
    /// Each family's estimates form a discrete grid; migration rounds the
    /// source estimate to the nearest grid point of the **target**:
    ///
    /// - **Exact**: grid `{0, 1, 2, …}` — absolute rounding error ≤ 1/2.
    /// - **Morris(a)**: adjacent levels are a factor `≈ (1+a)` apart, so
    ///   the relative rounding error is ≤ `a/2 + O(a²)` — below the
    ///   family's own per-step resolution and far below its sampling
    ///   standard deviation `≈ √(a/2)`.
    /// - **Morris+**: exact while the estimate fits the deterministic
    ///   prefix (`≤ N_a`); the Morris grid bound afterwards.
    /// - **Nelson–Yu**: exact while the estimate fits the exact epoch
    ///   (`≤ T(X₀)`); afterwards the grid is `{⌈(1+ε)^X⌉}`, so the
    ///   relative rounding error is ≤ `ε/2 + O(ε²)` — inside the target
    ///   tier's `(ε, δ)` band by construction.
    /// - **Csűrös(d)**: adjacent registers are `2^u` apart at estimate
    ///   `≈ 2^{u+d}`, so the relative rounding error is ≤ `2^{-d-1}` —
    ///   below the family's sampling standard deviation `≈ 2^{-(d+1)/2}`.
    ///
    /// In every case the rounding error is dominated by the target tier's
    /// stochastic `(ε, δ)` deviation, so a migrated counter is
    /// statistically indistinguishable (to within that band) from one
    /// that counted the same stream natively. Post-migration increments
    /// evolve under the target's own schedule, so follow-up error stays
    /// within the *target* tier's band (property-tested in this module's
    /// tests and in `tests/migration_proptest.rs`).
    ///
    /// The current construction is deterministic and consumes **no**
    /// randomness; `rng` is part of the signature so randomized-rounding
    /// variants (unbiasedness across the grid gap) remain
    /// signature-compatible, and so callers thread the same per-shard
    /// stream they use for increments.
    ///
    /// # Errors
    ///
    /// Propagates [`CounterSpec::build`] validation errors; the seeding
    /// itself cannot fail (every non-negative finite estimate has a
    /// nearest representable neighbour in every family).
    pub fn migrate_to(
        &self,
        spec: &CounterSpec,
        rng: &mut dyn RandomSource,
    ) -> Result<CounterFamily, CoreError> {
        let est = self.estimate().max(0.0);
        let mut target = spec.build()?;
        match &mut target {
            CounterFamily::Exact(c) => {
                // Round to the nearest integer count; Exact consumes no
                // randomness on increments.
                c.increment_by(est.round() as u64, rng);
            }
            CounterFamily::Morris(c) => {
                c.set_level(morris_level_for(c.a(), est));
            }
            CounterFamily::MorrisPlus(c) => {
                let prefix = (est.round() as u64).min(c.cutoff() + 1);
                let level = morris_level_for(c.a(), est);
                c.restore_parts(prefix, level);
            }
            CounterFamily::NelsonYu(c) => {
                let p = *c.params();
                let x0 = p.x0();
                let exact_cap = p.threshold_for(x0, 0);
                let n = est.round() as u64;
                if n <= exact_cap {
                    // Fits the exact epoch: Y literally stores the count.
                    c.restore_parts(x0, n, 0);
                } else {
                    // Nearest level on the {⌈(1+ε)^X⌉} grid, then the
                    // state a sequential counter holds on entering that
                    // epoch (monotone sampling exponent, epoch-start Y).
                    let guess = (est.ln() / p.eps().ln_1p()).round() as u64;
                    let mut best_x = guess.max(x0 + 1);
                    let mut best_err = f64::INFINITY;
                    for x in guess.saturating_sub(1).max(x0 + 1)..=guess + 1 {
                        let err = (p.t_value(x) - est).abs();
                        if err < best_err {
                            best_err = err;
                            best_x = x;
                        }
                    }
                    let t = p.monotone_exponent(best_x);
                    let y = p.epoch_y_span(best_x).0.min(p.threshold_for(best_x, t));
                    c.restore_parts(best_x, y, t);
                }
            }
            CounterFamily::Csuros(c) => {
                c.set_register(csuros_register_for(c.mantissa_bits(), est));
            }
        }
        Ok(target)
    }
}

/// The Morris level whose estimate `((1+a)^x − 1)/a` is nearest to `est`.
fn morris_level_for(a: f64, est: f64) -> u64 {
    if est <= 0.0 {
        return 0;
    }
    let ln1a = a.ln_1p();
    let xf = (a * est).ln_1p() / ln1a;
    let lo = xf.floor().max(0.0) as u64;
    let est_of = |x: u64| (x as f64 * ln1a).exp_m1() / a;
    if (est_of(lo + 1) - est).abs() < (est_of(lo) - est).abs() {
        lo + 1
    } else {
        lo
    }
}

/// The Csűrös register whose estimate `(2^d + v)·2^u − 2^d` is nearest to
/// `est` (`u = x >> d`, `v = x & (2^d − 1)`). The estimate is integer and
/// strictly increasing in `x`, so bisection over the register is exact.
fn csuros_register_for(d: u32, est: f64) -> u64 {
    let n = est.round().max(0.0) as u128;
    let scale = 1u128 << d;
    let est_of = |x: u64| -> u128 {
        let u = (x >> d) as u32;
        let v = u128::from(x) & (scale - 1);
        ((scale + v) << u) - scale
    };
    // Upper bound: the register for counts near 2^64 stays far below
    // (64 + 2) · 2^d; bisect the largest x with est_of(x) <= n.
    let (mut lo, mut hi) = (0u64, 66u64 << d);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if est_of(mid) <= n {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let below = est_of(lo);
    if n.saturating_sub(below) > est_of(lo + 1).saturating_sub(n) {
        lo + 1
    } else {
        lo
    }
}

/// A counter whose family was chosen at runtime (by a [`CounterSpec`]):
/// enum dispatch over the five concrete families, bit-identical to the
/// wrapped counter in every observable way — random draws, registers,
/// estimates, encoded state, and parameter fingerprint.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CounterFamily {
    /// An [`ExactCounter`].
    Exact(ExactCounter),
    /// A [`MorrisCounter`].
    Morris(MorrisCounter),
    /// A [`MorrisPlus`].
    MorrisPlus(MorrisPlus),
    /// A [`NelsonYuCounter`].
    NelsonYu(NelsonYuCounter),
    /// A [`CsurosCounter`].
    Csuros(CsurosCounter),
}

/// Delegates an expression to whichever concrete counter the enum holds.
macro_rules! dispatch {
    ($on:expr, $c:ident => $body:expr) => {
        match $on {
            CounterFamily::Exact($c) => $body,
            CounterFamily::Morris($c) => $body,
            CounterFamily::MorrisPlus($c) => $body,
            CounterFamily::NelsonYu($c) => $body,
            CounterFamily::Csuros($c) => $body,
        }
    };
}

impl StateBits for CounterFamily {
    fn state_bits(&self) -> u64 {
        dispatch!(self, c => c.state_bits())
    }

    fn memory_audit(&self) -> MemoryAudit {
        dispatch!(self, c => c.memory_audit())
    }
}

impl ApproxCounter for CounterFamily {
    fn name(&self) -> &'static str {
        dispatch!(self, c => c.name())
    }

    fn increment(&mut self, rng: &mut dyn RandomSource) {
        dispatch!(self, c => c.increment(rng));
    }

    fn increment_by(&mut self, n: u64, rng: &mut dyn RandomSource) {
        dispatch!(self, c => c.increment_by(n, rng));
    }

    fn estimate(&self) -> f64 {
        dispatch!(self, c => c.estimate())
    }

    fn peak_state_bits(&self) -> u64 {
        dispatch!(self, c => c.peak_state_bits())
    }

    fn reset(&mut self) {
        dispatch!(self, c => c.reset());
    }
}

impl Mergeable for CounterFamily {
    fn merge_from(&mut self, other: &Self, rng: &mut dyn RandomSource) -> Result<(), CoreError> {
        match (self, other) {
            (CounterFamily::Exact(a), CounterFamily::Exact(b)) => a.merge_from(b, rng),
            (CounterFamily::Morris(a), CounterFamily::Morris(b)) => a.merge_from(b, rng),
            (CounterFamily::MorrisPlus(a), CounterFamily::MorrisPlus(b)) => a.merge_from(b, rng),
            (CounterFamily::NelsonYu(a), CounterFamily::NelsonYu(b)) => a.merge_from(b, rng),
            (CounterFamily::Csuros(a), CounterFamily::Csuros(b)) => a.merge_from(b, rng),
            _ => Err(CoreError::MergeMismatch {
                what: "different counter families",
            }),
        }
    }

    fn exact_count(&self) -> Option<u64> {
        dispatch!(self, c => c.exact_count())
    }
}

impl StateCodec for CounterFamily {
    fn params_fingerprint(&self) -> u64 {
        // Delegation, *not* re-hashing with a family-of-families tag: a
        // runtime-selected counter is checkpoint-compatible with the
        // monomorphized counter it wraps.
        dispatch!(self, c => c.params_fingerprint())
    }

    fn encode_state(&self, w: &mut BitWriter<'_>) {
        dispatch!(self, c => c.encode_state(w));
    }

    fn decode_state(&self, r: &mut BitReader<'_>) -> Result<Self, CoreError> {
        Ok(match self {
            CounterFamily::Exact(c) => CounterFamily::Exact(c.decode_state(r)?),
            CounterFamily::Morris(c) => CounterFamily::Morris(c.decode_state(r)?),
            CounterFamily::MorrisPlus(c) => CounterFamily::MorrisPlus(c.decode_state(r)?),
            CounterFamily::NelsonYu(c) => CounterFamily::NelsonYu(c.decode_state(r)?),
            CounterFamily::Csuros(c) => CounterFamily::Csuros(c.decode_state(r)?),
        })
    }

    fn encoded_state_bits(&self) -> u64 {
        dispatch!(self, c => c.encoded_state_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_bitio::BitVec;
    use ac_randkit::Xoshiro256PlusPlus;

    fn all_specs() -> Vec<CounterSpec> {
        vec![
            CounterSpec::Exact,
            CounterSpec::Morris { a: 0.25 },
            CounterSpec::MorrisPlus {
                eps: 0.2,
                delta_log2: 8,
            },
            CounterSpec::NelsonYu {
                eps: 0.2,
                delta_log2: 8,
            },
            CounterSpec::Csuros { mantissa_bits: 8 },
        ]
    }

    #[test]
    fn specs_round_trip_through_words() {
        for spec in all_specs() {
            let words = spec.encode_words();
            let back = CounterSpec::decode_words(&words).expect("valid words");
            assert_eq!(back, spec);
            assert_eq!(back.family_name(), spec.family_name());
        }
    }

    #[test]
    fn bad_words_are_rejected() {
        assert!(CounterSpec::decode_words(&[]).is_err());
        assert!(CounterSpec::decode_words(&[99]).is_err(), "unknown tag");
        assert!(
            CounterSpec::decode_words(&[TAG_MORRIS]).is_err(),
            "missing parameter"
        );
        // Decodes structurally but fails family validation: a = -1.
        assert!(CounterSpec::decode_words(&[TAG_MORRIS, (-1.0f64).to_bits()]).is_err());
        // Nelson-Yu with eps out of range.
        assert!(CounterSpec::decode_words(&[TAG_NELSON_YU, 0.9f64.to_bits(), 8]).is_err());
    }

    #[test]
    fn build_matches_family_name() {
        for spec in all_specs() {
            let c = spec.build().expect("valid spec");
            assert_eq!(c.name(), spec.family_name(), "{spec}");
        }
    }

    #[test]
    fn morris_for_matches_prescription() {
        let spec = CounterSpec::morris_for(0.1, 10).unwrap();
        let CounterSpec::Morris { a } = spec else {
            panic!("wrong family");
        };
        assert!((a - morris_a(0.1, 10).unwrap()).abs() < 1e-18);
    }

    /// The dispatch-is-invisible contract at the single-counter level:
    /// identical draws, states, estimates, fingerprints, and encodings
    /// against the monomorphized counter fed the same stream.
    #[test]
    fn family_counter_is_bit_identical_to_concrete() {
        fn drive<C: StateCodec + Clone + PartialEq + std::fmt::Debug>(
            concrete: C,
            family: CounterFamily,
        ) {
            let mut a = concrete;
            let mut b = family;
            let mut rng_a = Xoshiro256PlusPlus::seed_from_u64(77);
            let mut rng_b = Xoshiro256PlusPlus::seed_from_u64(77);
            for n in [1u64, 10, 1_000, 123_456] {
                a.increment_by(n, &mut rng_a);
                b.increment_by(n, &mut rng_b);
                assert_eq!(a.estimate(), b.estimate());
                assert_eq!(a.state_bits(), b.state_bits());
                assert_eq!(a.params_fingerprint(), b.params_fingerprint());
                let mut va = BitVec::new();
                a.encode_state(&mut BitWriter::new(&mut va));
                let mut vb = BitVec::new();
                b.encode_state(&mut BitWriter::new(&mut vb));
                assert_eq!(va, vb, "encoded state");
            }
            // And both RNGs sit at the same point in the stream.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }

        drive(ExactCounter::new(), CounterSpec::Exact.build().unwrap());
        drive(
            MorrisCounter::new(0.25).unwrap(),
            CounterSpec::Morris { a: 0.25 }.build().unwrap(),
        );
        drive(
            MorrisPlus::new(0.2, 8).unwrap(),
            CounterSpec::MorrisPlus {
                eps: 0.2,
                delta_log2: 8,
            }
            .build()
            .unwrap(),
        );
        drive(
            NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap()),
            CounterSpec::NelsonYu {
                eps: 0.2,
                delta_log2: 8,
            }
            .build()
            .unwrap(),
        );
        drive(
            CsurosCounter::new(8).unwrap(),
            CounterSpec::Csuros { mantissa_bits: 8 }.build().unwrap(),
        );
    }

    #[test]
    fn migrate_preserves_integer_representable_estimates_exactly() {
        // Exact, the Nelson-Yu exact epoch, the Morris+ prefix, and small
        // Csűrös registers all represent small integers exactly: migration
        // between them at such an estimate is lossless.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut src = CounterSpec::Exact.build().unwrap();
        src.increment_by(37, &mut rng);
        for spec in all_specs() {
            let migrated = src.migrate_to(&spec, &mut rng).unwrap();
            if let CounterSpec::Morris { a } = spec {
                // A bare Morris grid has no exact-integer regime; the
                // documented a/2 relative bound is the guarantee.
                let rel = (migrated.estimate() - 37.0).abs() / 37.0;
                assert!(rel <= a / 2.0, "morris rel {rel} > {}", a / 2.0);
            } else {
                assert_eq!(
                    migrated.estimate(),
                    37.0,
                    "estimate 37 is on {}'s grid",
                    spec.family_name()
                );
            }
        }
    }

    #[test]
    fn migrate_rounds_to_the_targets_grid_resolution() {
        // At a large estimate, migration into each family lands within
        // half that family's grid spacing (the documented bound).
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(12);
        let mut src = CounterSpec::Exact.build().unwrap();
        let n = 1_234_567u64;
        src.increment_by(n, &mut rng);
        let cases: Vec<(CounterSpec, f64)> = vec![
            (CounterSpec::Exact, 0.5 / n as f64),
            // Morris(a): adjacent levels are a factor (1+a) apart.
            (CounterSpec::Morris { a: 0.25 }, 0.25),
            // Nelson-Yu: levels are a factor (1+eps) apart.
            (
                CounterSpec::NelsonYu {
                    eps: 0.2,
                    delta_log2: 8,
                },
                0.2,
            ),
            // Csűrös(d): relative spacing 2^-d.
            (
                CounterSpec::Csuros { mantissa_bits: 8 },
                0.5 * (0.5f64).powi(8),
            ),
        ];
        for (spec, rel_bound) in cases {
            let migrated = src.migrate_to(&spec, &mut rng).unwrap();
            let rel = (migrated.estimate() - n as f64).abs() / n as f64;
            assert!(
                rel <= rel_bound,
                "{}: migrated {} vs {n}, rel {rel} > bound {rel_bound}",
                spec.family_name(),
                migrated.estimate()
            );
        }
    }

    #[test]
    fn migrate_consumes_no_randomness() {
        // The deterministic construction leaves the stream untouched —
        // the property that makes migrations checkpoint-friendly (the
        // shard RNG state is unchanged by a migration pass).
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(13);
        let mut src = CounterSpec::Morris { a: 0.25 }.build().unwrap();
        src.increment_by(10_000, &mut rng);
        let mut probe = rng.clone();
        for spec in all_specs() {
            let _ = src.migrate_to(&spec, &mut rng).unwrap();
        }
        assert_eq!(rng.next_u64(), probe.next_u64());
    }

    #[test]
    fn cross_family_merge_is_refused() {
        let mut a = CounterSpec::Exact.build().unwrap();
        let b = CounterSpec::Morris { a: 0.5 }.build().unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        assert!(matches!(
            a.merge_from(&b, &mut rng),
            Err(CoreError::MergeMismatch { .. })
        ));
    }

    #[test]
    fn same_family_merge_delegates() {
        let mut a = CounterSpec::Exact.build().unwrap();
        let mut b = CounterSpec::Exact.build().unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        a.increment_by(10, &mut rng);
        b.increment_by(32, &mut rng);
        a.merge_from(&b, &mut rng).unwrap();
        assert_eq!(a.estimate(), 42.0);
    }

    #[test]
    fn decode_state_preserves_the_variant() {
        let mut c = CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 8,
        }
        .build()
        .unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        c.increment_by(50_000, &mut rng);
        let mut v = BitVec::new();
        c.encode_state(&mut BitWriter::new(&mut v));
        let template = CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 8,
        }
        .build()
        .unwrap();
        let back = template.decode_state(&mut BitReader::new(&v)).unwrap();
        assert!(matches!(back, CounterFamily::NelsonYu(_)));
        assert_eq!(back.estimate(), c.estimate());
    }
}
