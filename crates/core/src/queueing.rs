//! The load a fault and recovery regime adds to the model.
//!
//! Table 5 defines `Q` as the average cycles an offload waits for the
//! accelerator to become available. A params file gives `Q` directly;
//! this module supplies what a fault plan adds on top of it: the
//! expected device attempts per offload under retries, and the share of
//! offloads that fall back to the host.

use serde::{Deserialize, Serialize};

use crate::error::{ensure, Result};

/// The analytical face of the fault model: the expected load a fault
/// plan with a retry/fallback recovery discipline adds to the system.
///
/// Transient offload failures with probability `p` and up to `r`
/// retries form a geometric saga: the expected number of device
/// attempts per offload is `E[a] = (1 − p^(r+1)) / (1 − p)` (each
/// attempt crosses the interface and occupies the accelerator), and the saga exhausts all attempts with probability
/// `p_exh = p^(r+1)`. When the policy falls back to the host, every
/// exhausted saga re-executes the kernel on a core — real host demand
/// of `p_fb · α` per unit of work, exactly what the simulator now
/// schedules as fallback slices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultLoad {
    /// Per-attempt transient failure probability `p`.
    pub failure_probability: f64,
    /// Retry budget `r` (attempts = `r + 1`).
    pub max_retries: u32,
    /// Whether exhausted sagas re-execute on the host.
    pub fallback_to_host: bool,
    /// Expected device attempts per offload, `(1 − p^(r+1)) / (1 − p)`.
    pub expected_attempts: f64,
    /// Probability a saga exhausts every attempt, `p^(r+1)`.
    pub exhaustion_probability: f64,
}

impl FaultLoad {
    /// Probability an offload's work lands back on the host: the
    /// exhaustion probability when fallback is enabled, zero otherwise
    /// (an abandoned offload costs goodput, not host cycles).
    #[must_use]
    pub fn host_fallback_probability(&self) -> f64 {
        if self.fallback_to_host {
            self.exhaustion_probability
        } else {
            0.0
        }
    }
}

/// Builds the [`FaultLoad`] for a failure probability `p` and a
/// retry/fallback policy.
///
/// # Errors
///
/// Returns [`crate::ModelError::InvalidParameter`] if `p` is outside
/// `[0, 1]` or non-finite.
pub fn fault_load(
    failure_probability: f64,
    max_retries: u32,
    fallback_to_host: bool,
) -> Result<FaultLoad> {
    ensure(
        failure_probability.is_finite() && (0.0..=1.0).contains(&failure_probability),
        "failure_probability",
        failure_probability,
        "failure probability must lie in [0, 1]",
    )?;
    let p = failure_probability;
    let attempts = f64::from(max_retries) + 1.0;
    let exhaustion = p.powf(attempts);
    // Geometric series; the p → 1 limit is `attempts` (every attempt
    // runs and fails).
    let expected_attempts = if (1.0 - p).abs() < f64::EPSILON {
        attempts
    } else {
        (1.0 - exhaustion) / (1.0 - p)
    };
    Ok(FaultLoad {
        failure_probability: p,
        max_retries,
        fallback_to_host,
        expected_attempts,
        exhaustion_probability: exhaustion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_load_geometric_attempts() {
        // p = 0.5, r = 1: attempts = (1 − 0.25) / 0.5 = 1.5, exhaustion
        // 0.25.
        let load = fault_load(0.5, 1, true).unwrap();
        assert!((load.expected_attempts - 1.5).abs() < 1e-12);
        assert!((load.exhaustion_probability - 0.25).abs() < 1e-12);
        assert!((load.host_fallback_probability() - 0.25).abs() < 1e-12);
        // Without fallback the exhausted work never reaches the host.
        let abandon = fault_load(0.5, 1, false).unwrap();
        assert_eq!(abandon.host_fallback_probability(), 0.0);
    }

    #[test]
    fn fault_load_degenerate_probabilities() {
        // Healthy: one attempt, nothing exhausted, no host demand.
        let healthy = fault_load(0.0, 3, true).unwrap();
        assert_eq!(healthy.expected_attempts, 1.0);
        assert_eq!(healthy.exhaustion_probability, 0.0);
        assert_eq!(healthy.host_fallback_probability(), 0.0);
        // Certain failure: every attempt runs and fails; everything
        // falls back.
        let doomed = fault_load(1.0, 2, true).unwrap();
        assert_eq!(doomed.expected_attempts, 3.0);
        assert_eq!(doomed.exhaustion_probability, 1.0);
        assert_eq!(doomed.host_fallback_probability(), 1.0);
        // Out-of-range probabilities are rejected.
        assert!(fault_load(-0.1, 0, false).is_err());
        assert!(fault_load(1.5, 0, false).is_err());
        assert!(fault_load(f64::NAN, 0, false).is_err());
    }
}
