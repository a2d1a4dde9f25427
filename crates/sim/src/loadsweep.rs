//! Load sweeps: throughput and tail latency as worker concurrency
//! scales — the "projecting speedup based on accelerator load" use the
//! paper's `Q` term gestures at, measured instead of assumed.

use serde::{Deserialize, Serialize};

use crate::engine::SimConfig;
use crate::error::Result;
use crate::metrics::SimMetrics;
use crate::parallel::{run_batch, ExecPool};

/// One point of a load sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPoint {
    /// The swept thread count.
    pub x: usize,
    /// The run's metrics.
    pub metrics: SimMetrics,
}

/// A concurrency sweep's full outcome: the simulated points plus the
/// requested thread counts the engine could not run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencySweep {
    /// One point per runnable thread count, in input order.
    pub points: Vec<LoadPoint>,
    /// Requested thread counts below `base.cores`, which the engine
    /// rejects (every core needs a thread), in input order.
    pub skipped: Vec<usize>,
}

/// Sweeps worker-thread concurrency over a base configuration.
///
/// Invariant: the engine requires `threads >= cores`, so smaller
/// requested counts cannot be simulated. They are *not* silently
/// dropped — they come back in [`ConcurrencySweep::skipped`] so callers
/// can warn or fail. Points run on `pool` and preserve input order.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when a point's
/// configuration is invalid.
pub fn concurrency_sweep_with(
    pool: &ExecPool,
    base: &SimConfig,
    thread_counts: &[usize],
) -> Result<ConcurrencySweep> {
    let (runnable, skipped): (Vec<usize>, Vec<usize>) =
        thread_counts.iter().partition(|&&t| t >= base.cores);
    let configs: Vec<SimConfig> = runnable
        .iter()
        .map(|&threads| SimConfig {
            threads,
            ..base.clone()
        })
        .collect();
    let metrics = run_batch(pool, None, &configs)?;
    let points = runnable
        .into_iter()
        .zip(metrics)
        .map(|(x, metrics)| LoadPoint { x, metrics })
        .collect();
    Ok(ConcurrencySweep { points, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::engine::OffloadConfig;
    use crate::workload::WorkloadSpec;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};

    fn base() -> SimConfig {
        SimConfig {
            cores: 2,
            threads: 2,
            context_switch_cycles: 400.0,
            horizon: 4e7,
            seed: 3,
            workload: WorkloadSpec {
                non_kernel_cycles: 4_000.0,
                kernels_per_request: 1,
                granularity: GranularityCdf::from_points(vec![(1_024.0, 1.0)]).unwrap(),
                cycles_per_byte: cycles_per_byte(2.0),
            },
            offload: Some(OffloadConfig {
                design: ThreadingDesign::SyncOs,
                strategy: AccelerationStrategy::OffChip,
                driver: DriverMode::Posted,
                device: DeviceKind::Shared { servers: 2 },
                peak_speedup: 4.0,
                interface_latency: 8_000.0,
                setup_cycles: 0.0,
                dispatch_pollution: 0.0,
                min_offload_bytes: None,
            }),
            fault: Default::default(),
            recovery: Default::default(),
        }
    }

    #[test]
    fn deeper_pools_hide_the_offload_latency() {
        let points = concurrency_sweep_with(&ExecPool::new(2), &base(), &[1, 2, 4, 8, 16, 32])
            .unwrap()
            .points;
        // The sub-core count is skipped.
        assert_eq!(points.len(), 5);
        assert_eq!(points[0].x, 2);
        // Throughput grows with depth until the offload latency is hidden.
        let first = points[0].metrics.throughput_per_gcycle;
        let last = points.last().unwrap().metrics.throughput_per_gcycle;
        assert!(
            last > first * 1.5,
            "no concurrency benefit: {first} -> {last}"
        );
    }

    #[test]
    fn an_invalid_point_is_an_error() {
        let mut cfg = base();
        cfg.horizon = f64::NAN;
        assert!(concurrency_sweep_with(&ExecPool::new(1), &cfg, &[2, 4]).is_err());
    }

    #[test]
    fn sub_core_thread_counts_are_reported_not_dropped() {
        let mut cfg = base();
        cfg.horizon = 2e6;
        let sweep = concurrency_sweep_with(&ExecPool::new(1), &cfg, &[1, 2, 4, 1, 8]).unwrap();
        assert_eq!(sweep.skipped, vec![1, 1]);
        let xs: Vec<usize> = sweep.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![2, 4, 8]);
    }

    #[test]
    fn sweep_is_pool_width_invariant() {
        let mut cfg = base();
        cfg.horizon = 2e6;
        let counts = [2, 4, 8];
        let seq = concurrency_sweep_with(&ExecPool::new(1), &cfg, &counts).unwrap();
        let par = concurrency_sweep_with(&ExecPool::new(8), &cfg, &counts).unwrap();
        assert_eq!(seq, par);
    }
}
