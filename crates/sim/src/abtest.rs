//! A/B testing: the paper's production measurement methodology (§4),
//! reproduced in simulation.
//!
//! "A/B testing is the process of comparing two identical systems that
//! differ only in a single variable" — here, two simulator configurations
//! identical except for whether the kernel is offloaded. The measured
//! throughput ratio is the experiment's "real speedup".

use serde::{Deserialize, Serialize};

use crate::engine::{OffloadConfig, SimConfig};
use crate::error::{Result, SimError};
use crate::metrics::SimMetrics;
use crate::parallel::{run_batch, ExecPool};

/// The outcome of an A/B comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbResult {
    /// Metrics of the unaccelerated control run.
    pub baseline: SimMetrics,
    /// Metrics of the accelerated treatment run.
    pub treatment: SimMetrics,
}

impl AbResult {
    /// Measured throughput speedup (treatment / baseline).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.treatment.speedup_over(&self.baseline)
    }

    /// Measured throughput gain in percent.
    #[must_use]
    pub fn speedup_percent(&self) -> f64 {
        (self.speedup() - 1.0) * 100.0
    }

    /// Measured mean-latency reduction (baseline / treatment).
    #[must_use]
    pub fn latency_reduction(&self) -> f64 {
        self.treatment.latency_reduction_over(&self.baseline)
    }
}

/// The configurations an A/B batch runs, flattened arm by arm: each
/// pair's `control`, then `control` plus its `offload`. Both arms share
/// every other parameter, seed included, so they share one sampled
/// request stream.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when a control arm already
/// carries an offload — the control must be the unaccelerated system.
pub fn ab_arms(pairs: &[(SimConfig, OffloadConfig)]) -> Result<Vec<SimConfig>> {
    let mut arms = Vec::with_capacity(2 * pairs.len());
    for (control, offload) in pairs {
        if let Some(accelerated) = control.offload {
            return Err(SimError::InvalidConfig {
                field: "offload",
                value: accelerated.peak_speedup,
                reason: "the control arm must be unaccelerated",
            });
        }
        arms.push(control.clone());
        arms.push(SimConfig {
            offload: Some(*offload),
            ..control.clone()
        });
    }
    Ok(arms)
}

/// Runs a batch of A/B experiments on `pool`: one run per arm of every
/// pair ([`ab_arms`]), all through one [`run_batch`], so arms and pairs
/// that share a seed and workload share one frozen trace. Results come
/// back in pair order and are identical at any pool width.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when a control arm is
/// accelerated or any arm's configuration is invalid.
pub fn run_ab_batch(
    pool: &ExecPool,
    pairs: &[(SimConfig, OffloadConfig)],
) -> Result<Vec<AbResult>> {
    let metrics = run_batch(pool, None, &ab_arms(pairs)?)?;
    Ok(metrics
        .chunks_exact(2)
        .map(|arms| AbResult {
            baseline: arms[0],
            treatment: arms[1],
        })
        .collect())
}

/// Runs the A/B experiment: `control` unaccelerated versus `control`
/// plus `offload`. The two runs share every other parameter including
/// the seed, and run on a two-worker pool, one arm per worker.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when `control` already
/// carries an offload configuration or either arm is invalid.
pub fn run_ab(control: &SimConfig, offload: OffloadConfig) -> Result<AbResult> {
    let results = run_ab_batch(&ExecPool::new(2), &[(control.clone(), offload)])?;
    Ok(results[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::GranularityCdf;

    fn control() -> SimConfig {
        SimConfig {
            cores: 2,
            threads: 2,
            context_switch_cycles: 0.0,
            horizon: 2e7,
            seed: 5,
            workload: WorkloadSpec {
                non_kernel_cycles: 4_000.0,
                kernels_per_request: 1,
                granularity: GranularityCdf::from_points(vec![(512.0, 1.0)]).unwrap(),
                cycles_per_byte: cycles_per_byte(4.0),
            },
            offload: None,
            fault: Default::default(),
            recovery: Default::default(),
        }
    }

    #[test]
    fn ab_measures_positive_speedup_for_cheap_acceleration() {
        let result = run_ab(&control(), OffloadConfig::on_chip_sync(8.0)).unwrap();
        assert!(result.speedup() > 1.1, "speedup {}", result.speedup());
        assert!(result.speedup_percent() > 10.0);
        assert!(result.latency_reduction() > 1.0);
        assert!(result.baseline.latency.p99 > result.treatment.latency.p99);
    }

    #[test]
    fn ab_detects_harmful_acceleration() {
        // An offload whose overheads exceed the saved cycles slows the
        // service down; the A/B harness must report a speedup below 1.
        let mut offload = OffloadConfig::on_chip_sync(1.1);
        offload.setup_cycles = 5_000.0;
        let result = run_ab(&control(), offload).unwrap();
        assert!(result.speedup() < 1.0, "speedup {}", result.speedup());
    }

    #[test]
    fn rejects_accelerated_control() {
        let mut cfg = control();
        cfg.offload = Some(OffloadConfig::on_chip_sync(2.0));
        let err = run_ab(&cfg, OffloadConfig::on_chip_sync(2.0)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("control arm must be unaccelerated"), "{msg}");
        // One bad pair fails the whole batch before anything runs.
        let pairs = [
            (control(), OffloadConfig::on_chip_sync(2.0)),
            (cfg, OffloadConfig::on_chip_sync(2.0)),
        ];
        assert!(run_ab_batch(&ExecPool::new(2), &pairs).is_err());
    }

    #[test]
    fn a_batch_equals_its_pairs_run_one_by_one() {
        let pairs: Vec<(SimConfig, OffloadConfig)> = [2.0, 8.0]
            .into_iter()
            .map(|a| (control(), OffloadConfig::on_chip_sync(a)))
            .collect();
        let batch = run_ab_batch(&ExecPool::new(3), &pairs).unwrap();
        for ((control, offload), result) in pairs.iter().zip(&batch) {
            assert_eq!(run_ab(control, *offload).unwrap(), *result);
        }
        assert_eq!(batch[0].baseline, batch[1].baseline, "controls are one run");
    }
}
