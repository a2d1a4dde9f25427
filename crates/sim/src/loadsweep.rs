//! Load sweeps: throughput and tail latency as concurrency or device
//! capacity scales — the "projecting speedup based on accelerator load"
//! use the paper's `Q` term gestures at, measured instead of assumed.

use serde::{Deserialize, Serialize};

use crate::device::DeviceKind;
use crate::engine::SimConfig;
use crate::metrics::SimMetrics;
use crate::parallel::ExecPool;
use crate::shard::run_point;
use crate::trace::TraceStore;

/// One point of a load sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPoint {
    /// The swept value (thread count or server count).
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
#[must_use]
pub fn concurrency_sweep_with(
    pool: &ExecPool,
    base: &SimConfig,
    thread_counts: &[usize],
) -> ConcurrencySweep {
    let (runnable, skipped): (Vec<usize>, Vec<usize>) =
        thread_counts.iter().partition(|&&t| t >= base.cores);
    // Every point shares the base seed and workload (only the thread
    // count varies), so one frozen trace serves the whole grid. Prewarm
    // it sized for the deepest pool so the trace length is deterministic
    // regardless of which worker reaches the store first.
    let traces = TraceStore::for_sweep();
    if let Some(store) = &traces {
        let mut probe = base.clone();
        probe.threads = runnable
            .iter()
            .copied()
            .max()
            .unwrap_or(base.threads)
            .max(base.threads);
        store.prewarm(&probe);
    }
    let points = pool.map_init(
        &runnable,
        || None,
        |slot, _, &threads| {
            let mut cfg = base.clone();
            cfg.threads = threads;
            LoadPoint {
                x: threads,
                metrics: run_point(slot, &cfg, traces.as_ref(), None),
            }
        },
    );
    ConcurrencySweep { points, skipped }
}

/// Sweeps the shared accelerator's server count (device capacity) over a
/// base configuration that carries an offload, on `pool`.
/// Configurations without an offload return an empty sweep.
#[must_use]
pub fn device_capacity_sweep_with(
    pool: &ExecPool,
    base: &SimConfig,
    server_counts: &[usize],
) -> Vec<LoadPoint> {
    if base.offload.is_none() {
        return Vec::new();
    }
    let runnable: Vec<usize> = server_counts.iter().copied().filter(|&s| s > 0).collect();
    // Server count does not enter the trace key (seed, workload) or the
    // size estimate, so the base config prewarms a trace all points use.
    let traces = TraceStore::for_sweep();
    if let Some(store) = &traces {
        store.prewarm(base);
    }
    pool.map_init(
        &runnable,
        || None,
        |slot, _, &servers| {
            let mut cfg = base.clone();
            if let Some(offload) = cfg.offload.as_mut() {
                offload.device = DeviceKind::Shared { servers };
            }
            LoadPoint {
                x: servers,
                metrics: run_point(slot, &cfg, traces.as_ref(), None),
            }
        },
    )
}

/// The knee of a sweep: the smallest `x` achieving at least `fraction`
/// of the sweep's peak throughput. Returns `None` for an empty sweep.
#[must_use]
pub fn knee(points: &[LoadPoint], fraction: f64) -> Option<usize> {
    let peak = points
        .iter()
        .map(|p| p.metrics.throughput_per_gcycle)
        .fold(0.0_f64, f64::max);
    points
        .iter()
        .find(|p| p.metrics.throughput_per_gcycle >= peak * fraction)
        .map(|p| p.x)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn concurrency_sweep_finds_the_pool_depth_knee() {
        let points =
            concurrency_sweep_with(&ExecPool::new(2), &base(), &[1, 2, 4, 8, 16, 32]).points;
        // The sub-core count is skipped.
        assert_eq!(points.len(), 5);
        assert_eq!(points[0].x, 2);
        // Throughput grows with depth until the offload latency is hidden.
        let first = points[0].metrics.throughput_per_gcycle;
        let last = points.last().unwrap().metrics.throughput_per_gcycle;
        assert!(last > first * 1.5, "no concurrency benefit: {first} -> {last}");
        // A knee exists and sits strictly above the minimum depth.
        let knee_x = knee(&points, 0.95).unwrap();
        assert!(knee_x > 2, "knee at {knee_x}");
        assert!(knee_x <= 32);
    }

    #[test]
    fn device_capacity_sweep_relieves_queueing() {
        let mut cfg = base();
        // Make the device the bottleneck: slow it down and use Sync.
        if let Some(o) = cfg.offload.as_mut() {
            o.design = ThreadingDesign::Sync;
            o.peak_speedup = 1.5;
            o.interface_latency = 100.0;
        }
        cfg.threads = cfg.cores;
        let points = device_capacity_sweep_with(&ExecPool::new(2), &cfg, &[1, 2, 4]);
        assert_eq!(points.len(), 3);
        // More servers → less queueing and at least as much throughput.
        assert!(points[0].metrics.mean_queue_delay > points[2].metrics.mean_queue_delay);
        assert!(
            points[2].metrics.throughput_per_gcycle
                >= points[0].metrics.throughput_per_gcycle - 1.0
        );
    }

    #[test]
    fn capacity_sweep_requires_an_offload() {
        let mut cfg = base();
        cfg.offload = None;
        assert!(device_capacity_sweep_with(&ExecPool::new(1), &cfg, &[1, 2]).is_empty());
    }

    #[test]
    fn knee_of_empty_sweep_is_none() {
        assert!(knee(&[], 0.9).is_none());
    }

    #[test]
    fn sub_core_thread_counts_are_reported_not_dropped() {
        let mut cfg = base();
        cfg.horizon = 2e6;
        let sweep = concurrency_sweep_with(&ExecPool::new(1), &cfg, &[1, 2, 4, 1, 8]);
        assert_eq!(sweep.skipped, vec![1, 1]);
        let xs: Vec<usize> = sweep.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![2, 4, 8]);
    }

    #[test]
    fn sweeps_are_pool_width_invariant() {
        let mut cfg = base();
        cfg.horizon = 2e6;
        let counts = [2, 4, 8];
        let seq = concurrency_sweep_with(&ExecPool::new(1), &cfg, &counts);
        let par = concurrency_sweep_with(&ExecPool::new(8), &cfg, &counts);
        assert_eq!(seq, par);
        let servers = [1, 2, 4];
        let seq = device_capacity_sweep_with(&ExecPool::new(1), &cfg, &servers);
        let par = device_capacity_sweep_with(&ExecPool::new(8), &cfg, &servers);
        assert_eq!(seq, par);
    }
}
