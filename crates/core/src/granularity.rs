//! Offload-granularity distributions (the CDFs of Figs. 15, 19, 21, 22).
//!
//! The paper's validation methodology (§4) starts from the distribution of
//! offload sizes `g`: the break-even analysis picks a threshold, the CDF
//! tells us what fraction of offloads clear it, and that fraction scales
//! both `n` (the lucrative offload count) and `α` (the kernel cycles worth
//! offloading). E.g. 64.2% of Feed1's compressions are ≥ 425 B, so
//! off-chip Sync compression uses `n = 9,629` of the total 15,008
//! offloads per second.

use serde::{Deserialize, Serialize};

use crate::breakeven::BreakEven;
use crate::error::{ModelError, Result};
use crate::units::Bytes;

/// A cumulative distribution over offload granularities, stored as
/// piecewise-linear breakpoints `(bytes, cumulative fraction)`.
///
/// Between breakpoints the CDF is linearly interpolated, matching how one
/// reads probabilities off the paper's bucketed CDF plots. Below the first
/// breakpoint the CDF is interpolated from `(0, 0)` unless the first
/// breakpoint is itself at zero bytes (a "0-byte" bucket, as in Figs. 21
/// and 22 where some copies/allocations are empty).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GranularityCdf {
    points: Vec<(f64, f64)>,
}

impl GranularityCdf {
    /// Builds a CDF from `(upper bound in bytes, cumulative fraction)`
    /// breakpoints.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyDistribution`] if `points` is empty.
    /// * [`ModelError::NonMonotonicCdf`] if byte bounds are not strictly
    ///   increasing, fractions are not non-decreasing, any fraction is
    ///   outside `[0, 1]`, or the final fraction is not 1.
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self> {
        if points.is_empty() {
            return Err(ModelError::EmptyDistribution);
        }
        let mut prev_g = -1.0_f64;
        let mut prev_f = 0.0_f64;
        for (i, &(g, f)) in points.iter().enumerate() {
            if !(g.is_finite() && f.is_finite()) || g < 0.0 || !(0.0..=1.0).contains(&f) {
                return Err(ModelError::NonMonotonicCdf { index: i });
            }
            if g <= prev_g || f < prev_f {
                return Err(ModelError::NonMonotonicCdf { index: i });
            }
            prev_g = g;
            prev_f = f;
        }
        if (prev_f - 1.0).abs() > 1e-9 {
            return Err(ModelError::NonMonotonicCdf {
                index: points.len() - 1,
            });
        }
        Ok(Self { points })
    }

    /// The breakpoints `(bytes, cumulative fraction)`.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The largest granularity in the distribution's support.
    #[must_use]
    pub fn max_bytes(&self) -> Bytes {
        Bytes::new(self.points.last().expect("non-empty by construction").0)
    }

    /// `F(g)`: fraction of offloads of size at most `g` bytes, linearly
    /// interpolated between breakpoints.
    #[must_use]
    pub fn fraction_at_or_below(&self, g: Bytes) -> f64 {
        let x = g.get();
        if x < 0.0 {
            return 0.0;
        }
        let (mut g0, mut f0) = (0.0, 0.0);
        for &(g1, f1) in &self.points {
            if x <= g1 {
                if g1 == g0 {
                    return f1;
                }
                // Clamp: interpolation can overshoot by an ulp at bucket
                // edges, and F must remain a probability.
                return (f0 + (f1 - f0) * (x - g0) / (g1 - g0)).clamp(0.0, 1.0);
            }
            g0 = g1;
            f0 = f1;
        }
        1.0
    }

    /// `1 − F(g)`: fraction of offloads strictly larger than `g` bytes.
    #[must_use]
    pub fn fraction_above(&self, g: Bytes) -> f64 {
        1.0 - self.fraction_at_or_below(g)
    }

    /// Fraction of offloads that clear a break-even point.
    #[must_use]
    pub fn lucrative_fraction(&self, breakeven: BreakEven) -> f64 {
        match breakeven {
            BreakEven::AtLeast(min) => self.fraction_above(min),
            BreakEven::Always => 1.0 - self.fraction_at_or_below(Bytes::ZERO),
            BreakEven::Never => 0.0,
        }
    }

    /// The `p`-quantile (inverse CDF), clamping `p` into `[0, 1]`.
    ///
    /// Useful for inverse-transform sampling: draw `p` uniformly and map
    /// it through `quantile` to generate offload sizes that follow this
    /// distribution.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Bytes {
        let p = p.clamp(0.0, 1.0);
        let (mut g0, mut f0) = (0.0, 0.0);
        for &(g1, f1) in &self.points {
            if p <= f1 {
                if (f1 - f0).abs() < f64::EPSILON {
                    return Bytes::new(g1);
                }
                return Bytes::new(g0 + (g1 - g0) * (p - f0) / (f1 - f0));
            }
            g0 = g1;
            f0 = f1;
        }
        self.max_bytes()
    }

    /// Builds a precomputed inverse-CDF lookup for repeated quantile
    /// draws. [`GranularitySampler::quantile`] returns bit-identical
    /// results to [`GranularityCdf::quantile`] but binary-searches the
    /// breakpoints instead of scanning them, which matters when a
    /// simulator draws millions of granularities per run.
    #[must_use]
    pub fn sampler(&self) -> GranularitySampler {
        GranularitySampler {
            bytes: self.points.iter().map(|&(g, _)| g).collect(),
            fractions: self.points.iter().map(|&(_, f)| f).collect(),
        }
    }

    /// Mean granularity, `E[g] = ∫ (1 − F(g)) dg` over the support.
    #[must_use]
    pub fn mean_bytes(&self) -> Bytes {
        Bytes::new(self.integral_of_survival(0.0))
    }

    /// Partial expectation `E[g · 1{g > t}] = t·(1 − F(t)) + ∫ₜ (1 − F) dg`.
    #[must_use]
    pub fn partial_mean_above(&self, t: Bytes) -> Bytes {
        let t = t.get().max(0.0);
        let survival_at_t = 1.0 - self.fraction_at_or_below(Bytes::new(t));
        Bytes::new(t * survival_at_t + self.integral_of_survival(t))
    }

    /// Fraction of total offloaded *bytes* (≈ kernel cycles for a linear
    /// kernel) carried by offloads larger than `t`.
    ///
    /// This is the byte-weighted alternative to the count-weighted
    /// lucrative fraction; the paper scales `α` by offload *count*, and the
    /// difference between the two weightings is explored by the ablation
    /// benches.
    #[must_use]
    pub fn byte_weighted_fraction_above(&self, t: Bytes) -> f64 {
        let mean = self.mean_bytes().get();
        if mean <= 0.0 {
            return 0.0;
        }
        self.partial_mean_above(t).get() / mean
    }

    /// `∫ₜ^∞ (1 − F(g)) dg` with piecewise-linear `F`.
    fn integral_of_survival(&self, t: f64) -> f64 {
        let mut total = 0.0;
        let (mut g0, mut f0): (f64, f64) = (0.0, 0.0);
        for &(g1, f1) in &self.points {
            let lo = g0.max(t);
            if g1 > lo {
                // Survival is linear from (g0, 1-f0) to (g1, 1-f1);
                // integrate the trapezoid over [lo, g1].
                let s_at = |x: f64| {
                    if g1 == g0 {
                        1.0 - f1
                    } else {
                        1.0 - (f0 + (f1 - f0) * (x - g0) / (g1 - g0))
                    }
                };
                total += (s_at(lo) + s_at(g1)) / 2.0 * (g1 - lo);
            }
            g0 = g1;
            f0 = f1;
        }
        total
    }
}

/// A precomputed inverse-CDF sampler over a [`GranularityCdf`].
///
/// Built once via [`GranularityCdf::sampler`], it answers quantile
/// queries with a binary search (`partition_point`) over the cumulative
/// fractions instead of the linear scan [`GranularityCdf::quantile`]
/// performs, while reproducing that scan's arithmetic exactly — every
/// draw is bit-identical between the two, which the simulator's
/// calibration tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct GranularitySampler {
    bytes: Vec<f64>,
    fractions: Vec<f64>,
}

impl GranularitySampler {
    /// The `p`-quantile (inverse CDF), clamping `p` into `[0, 1]`.
    ///
    /// Bit-identical to [`GranularityCdf::quantile`] on the source CDF.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Bytes {
        let p = p.clamp(0.0, 1.0);
        // First breakpoint with f1 >= p — exactly where the linear scan's
        // `p <= f1` test first fires.
        let idx = self.fractions.partition_point(|&f| f < p);
        if idx >= self.fractions.len() {
            return Bytes::new(*self.bytes.last().expect("non-empty by construction"));
        }
        let (g1, f1) = (self.bytes[idx], self.fractions[idx]);
        let (g0, f0) = if idx == 0 {
            (0.0, 0.0)
        } else {
            (self.bytes[idx - 1], self.fractions[idx - 1])
        };
        if (f1 - f0).abs() < f64::EPSILON {
            return Bytes::new(g1);
        }
        Bytes::new(g0 + (g1 - g0) * (p - f0) / (f1 - f0))
    }
}

/// The effective model inputs after restricting offloading to lucrative
/// granularities (§4 validation methodology, steps 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LucrativeSelection {
    /// Fraction of offloads that clear the break-even point.
    pub fraction: f64,
    /// Effective offload count `n` (lucrative offloads per window).
    pub offloads: f64,
    /// Effective kernel fraction `α` scaled to lucrative offloads only.
    pub alpha: f64,
}

/// Scales total offload count and kernel fraction down to the lucrative
/// subset, the way §5 derives Table 7's `n` and effective `α` from the
/// compression CDF: `n_eff = n_total · (1 − F(g*))` and
/// `α_eff = α · (1 − F(g*))`.
#[must_use]
pub fn select_lucrative(
    cdf: &GranularityCdf,
    total_offloads: f64,
    alpha: f64,
    breakeven: BreakEven,
) -> LucrativeSelection {
    let fraction = cdf.lucrative_fraction(breakeven);
    LucrativeSelection {
        fraction,
        offloads: total_offloads * fraction,
        alpha: alpha * fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::bytes;
    use proptest::prelude::*;

    fn simple() -> GranularityCdf {
        GranularityCdf::from_points(vec![(100.0, 0.25), (200.0, 0.5), (400.0, 1.0)]).unwrap()
    }

    #[test]
    fn rejects_bad_constructions() {
        assert_eq!(
            GranularityCdf::from_points(vec![]).unwrap_err(),
            ModelError::EmptyDistribution
        );
        // Non-increasing bytes.
        assert!(GranularityCdf::from_points(vec![(10.0, 0.5), (10.0, 1.0)]).is_err());
        // Decreasing fractions.
        assert!(GranularityCdf::from_points(vec![(10.0, 0.5), (20.0, 0.4)]).is_err());
        // Doesn't end at 1.
        assert!(GranularityCdf::from_points(vec![(10.0, 0.5)]).is_err());
        // Out-of-range fraction.
        assert!(GranularityCdf::from_points(vec![(10.0, 1.5)]).is_err());
        // Negative bytes.
        assert!(GranularityCdf::from_points(vec![(-1.0, 0.5), (2.0, 1.0)]).is_err());
    }

    #[test]
    fn interpolation_within_buckets() {
        let cdf = simple();
        // Halfway into the first bucket: F(50) = 0.125 (from implicit
        // (0,0) anchor).
        assert!((cdf.fraction_at_or_below(bytes(50.0)) - 0.125).abs() < 1e-12);
        // Halfway between 100 and 200: F(150) = 0.375.
        assert!((cdf.fraction_at_or_below(bytes(150.0)) - 0.375).abs() < 1e-12);
        // Beyond support.
        assert_eq!(cdf.fraction_at_or_below(bytes(1e9)), 1.0);
        assert_eq!(cdf.fraction_at_or_below(bytes(-5.0)), 0.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let cdf = simple();
        for p in [0.0, 0.1, 0.25, 0.375, 0.5, 0.75, 0.99, 1.0] {
            let g = cdf.quantile(p);
            let back = cdf.fraction_at_or_below(g);
            assert!((back - p).abs() < 1e-9, "p={p} g={g} back={back}");
        }
        // Clamping.
        assert_eq!(cdf.quantile(2.0), cdf.max_bytes());
        assert_eq!(cdf.quantile(-1.0).get(), 0.0);
    }

    #[test]
    fn zero_bucket_quantile_maps_to_zero_bytes() {
        // Fig. 21-style distribution with a 0-byte bucket holding 10%.
        let cdf = GranularityCdf::from_points(vec![(0.0, 0.1), (64.0, 1.0)]).unwrap();
        assert_eq!(cdf.quantile(0.05).get(), 0.0);
        assert!((cdf.fraction_at_or_below(bytes(0.0)) - 0.1).abs() < 1e-12);
        // The lucrative fraction under Always excludes empty offloads.
        assert!((cdf.lucrative_fraction(BreakEven::Always) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mean_of_uniform_distribution() {
        // CDF of Uniform(0, 100).
        let cdf = GranularityCdf::from_points(vec![(100.0, 1.0)]).unwrap();
        assert!((cdf.mean_bytes().get() - 50.0).abs() < 1e-9);
        // Partial mean above 50 for Uniform(0,100): E[g·1{g>50}] = 37.5.
        assert!((cdf.partial_mean_above(bytes(50.0)).get() - 37.5).abs() < 1e-9);
        // Byte-weighted fraction above 50 = 37.5/50 = 0.75.
        assert!((cdf.byte_weighted_fraction_above(bytes(50.0)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn feed1_compression_lucrative_counts_emerge() {
        // The Feed1 compression CDF is calibrated so that the §5 break-even
        // points select the paper's n values; mirror that shape here.
        let cdf = GranularityCdf::from_points(vec![
            (1.0, 0.02),
            (64.0, 0.08),
            (128.0, 0.15),
            (256.0, 0.262),
            (512.0, 0.407),
            (1024.0, 0.52),
            (2048.0, 0.71),
            (4096.0, 0.83),
            (8192.0, 0.90),
            (16384.0, 0.95),
            (32768.0, 0.98),
            (65536.0, 1.0),
        ])
        .unwrap();
        let n_total = 15_008.0;
        // Off-chip Sync: g* = 425 B → n ≈ 9,629.
        let sel = select_lucrative(&cdf, n_total, 0.15, BreakEven::AtLeast(bytes(425.0)));
        assert!(
            (sel.offloads - 9_629.0).abs() < 60.0,
            "sync n = {}",
            sel.offloads
        );
        assert!((sel.fraction - 0.642).abs() < 0.005);
        assert!((sel.alpha - 0.0963).abs() < 0.001);
        // Async: g* ≈ 409 B → n ≈ 9,769.
        let sel = select_lucrative(&cdf, n_total, 0.15, BreakEven::AtLeast(bytes(409.2)));
        assert!(
            (sel.offloads - 9_769.0).abs() < 60.0,
            "async n = {}",
            sel.offloads
        );
        // Sync-OS: g* ≈ 2,456 B → n ≈ 3,986.
        let sel = select_lucrative(&cdf, n_total, 0.15, BreakEven::AtLeast(bytes(2_455.5)));
        assert!(
            (sel.offloads - 3_986.0).abs() < 60.0,
            "sync-os n = {}",
            sel.offloads
        );
    }

    #[test]
    fn never_breakeven_selects_nothing() {
        let sel = select_lucrative(&simple(), 1_000.0, 0.2, BreakEven::Never);
        assert_eq!(sel.offloads, 0.0);
        assert_eq!(sel.alpha, 0.0);
        assert_eq!(sel.fraction, 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let cdf = simple();
        let json = serde_json::to_string(&cdf).unwrap();
        let back: GranularityCdf = serde_json::from_str(&json).unwrap();
        assert_eq!(cdf, back);
    }

    #[test]
    fn sampler_matches_linear_quantile_bitwise() {
        // Edge-heavy fixed probe set: clamped, exact breakpoints, flat
        // (zero-width) segments, and below-first-breakpoint draws.
        let cdfs = [
            simple(),
            GranularityCdf::from_points(vec![(0.0, 0.1), (64.0, 1.0)]).unwrap(),
            GranularityCdf::from_points(vec![(10.0, 0.5), (20.0, 0.5), (30.0, 1.0)]).unwrap(),
            GranularityCdf::from_points(vec![(425.0, 1.0)]).unwrap(),
        ];
        for cdf in &cdfs {
            let sampler = cdf.sampler();
            for i in 0..=1000 {
                let p = f64::from(i) / 1000.0;
                for probe in [p, p - 0.5, p + 0.5] {
                    let lin = cdf.quantile(probe).get();
                    let fast = sampler.quantile(probe).get();
                    assert_eq!(
                        lin.to_bits(),
                        fast.to_bits(),
                        "p={probe} lin={lin} fast={fast} cdf={:?}",
                        cdf.points()
                    );
                }
            }
            for &(_, f) in cdf.points() {
                assert_eq!(
                    cdf.quantile(f).get().to_bits(),
                    sampler.quantile(f).get().to_bits()
                );
            }
        }
    }

    proptest! {
        /// On arbitrary valid CDFs, the binary-search sampler reproduces
        /// the linear-scan quantile bit-for-bit — including at the exact
        /// breakpoint fractions where the scan's `p <= f1` test fires.
        #[test]
        fn sampler_matches_linear_quantile_on_random_cdfs(
            raw in prop::collection::vec((0.0_f64..1e6, 0.0_f64..1.0), 1..12),
            probes in prop::collection::vec(-0.2_f64..1.2, 1..64),
        ) {
            // Sort/dedup raw draws into a valid strictly-increasing CDF
            // ending at 1.0.
            let mut gs: Vec<f64> = raw.iter().map(|&(g, _)| g).collect();
            gs.sort_by(f64::total_cmp);
            gs.dedup();
            let mut fs: Vec<f64> = raw.iter().take(gs.len()).map(|&(_, f)| f).collect();
            fs.sort_by(f64::total_cmp);
            if let Some(last) = fs.last_mut() {
                *last = 1.0;
            }
            let points: Vec<(f64, f64)> = gs.into_iter().zip(fs).collect();
            if let Ok(cdf) = GranularityCdf::from_points(points) {
                let sampler = cdf.sampler();
                for &p in &probes {
                    prop_assert_eq!(
                        cdf.quantile(p).get().to_bits(),
                        sampler.quantile(p).get().to_bits()
                    );
                }
                for &(_, f) in cdf.points() {
                    prop_assert_eq!(
                        cdf.quantile(f).get().to_bits(),
                        sampler.quantile(f).get().to_bits()
                    );
                }
            }
        }
    }
}
