//! Amdahl's-law baseline: speedup with no offload overheads.
//!
//! Accelerometer's equations reduce to Amdahl's law when every offload
//! overhead is zero; the paper's Fig. 20 "Ideal" bars are exactly the
//! `A → ∞` limit. This module provides that baseline, both as a sanity
//! anchor for the full model and as the comparison point for the
//! "performance bounds from accelerator offload limit achievable speedup"
//! result.

/// Amdahl's-law speedup for accelerating a fraction `alpha` of execution
/// by a factor `a`: `1 / ((1 − α) + α/A)`.
///
/// `a` may be `f64::INFINITY`, yielding the ideal speedup `1 / (1 − α)`.
///
/// # Examples
///
/// Feed1 spends 15% of cycles compressing, so ideal compression
/// acceleration yields 17.6% (§5):
///
/// ```
/// let s = accelerometer::amdahl::speedup(0.15, f64::INFINITY);
/// assert!((s - 1.176).abs() < 0.001);
/// ```
#[must_use]
pub fn speedup(alpha: f64, a: f64) -> f64 {
    1.0 / ((1.0 - alpha) + alpha / a)
}

/// The ideal (infinite-accelerator) speedup `1 / (1 − α)`.
#[must_use]
pub fn ideal_speedup(alpha: f64) -> f64 {
    1.0 / (1.0 - alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_matches_infinite_a() {
        for alpha in [0.1, 0.33, 0.58, 0.9] {
            assert!((speedup(alpha, f64::INFINITY) - ideal_speedup(alpha)).abs() < 1e-12);
        }
    }

    /// §2.4: inference fractions of 33% and 58% bound the net gain from
    /// infinite inference acceleration to 1.49×–2.38×.
    #[test]
    fn inference_bounds_from_paper() {
        assert!((ideal_speedup(0.33) - 1.49).abs() < 0.005);
        assert!((ideal_speedup(0.58) - 2.38).abs() < 0.005);
    }

    #[test]
    fn no_acceleration_is_identity() {
        assert!((speedup(0.5, 1.0) - 1.0).abs() < 1e-12);
    }
}
