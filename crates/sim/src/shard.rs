//! Sharded execution of one large simulation across worker threads.
//!
//! The monolithic engine is inherently serial: one global event order,
//! one RNG stream, one floating-point accumulation order. Sharded mode
//! is therefore an *alternative decomposition* of the same scenario —
//! the host's cores, threads, and (shared-device) service units are
//! partitioned into `L` independent shard engines, each owning a
//! disjoint slice of the machine and a disjoint request-id space, with
//! decorrelated per-shard RNG streams derived from the run seed.
//!
//! # Determinism model
//!
//! The shard count `L` is a **function of the configuration only**
//! (see [`ShardPlan::for_config`]) — never of how many worker threads
//! execute the shards. `--shards N` picks only the worker-pool width.
//! Three mechanisms then make the output byte-identical at any width:
//!
//! 1. **Fork–join epochs.** The horizon is cut into [`ShardPlan::epochs`]
//!    equal epochs. All shards advance to an epoch boundary and barrier
//!    ([`ExecPool::for_each_mut`]) before any cross-shard state moves.
//! 2. **Ordered exchange.** At each boundary, shards of a shared device
//!    publish the service demand they dispatched during the epoch; the
//!    totals are folded *in shard-index order* and each shard's device
//!    is occupied by the foreign demand, modelling contention with the
//!    siblings it cannot see. Floating-point folds never depend on
//!    worker scheduling.
//! 3. **Ordered merge.** Final accumulators are folded in shard-index
//!    order into one [`SimMetrics`] by the same fold that finishes a
//!    monolithic run.
//!
//! A single-shard plan (`L == 1`, e.g. coprime cores/threads or a
//! one-server FIFO) degenerates to the classic engine exactly: same
//! seed, same event order, bit-identical metrics.

use std::sync::atomic::{AtomicUsize, Ordering};

use accelerometer::exec::ExecPool;

use crate::device::DeviceKind;
use crate::engine::{merge, EngineStats, ShardOutput, SimConfig, Simulator};
use crate::error::Result;
use crate::metrics::SimMetrics;
use crate::parallel::derive_seed;
use crate::trace::TraceStore;

/// Upper bound on the logical shard count. Shards trade fidelity of
/// cross-shard queueing for parallelism; eight bounds the loss while
/// covering every host the fleet scenarios model.
const MAX_SHARDS: usize = 8;

/// Epochs per run: enough barriers that shared-device demand circulates
/// while keeping barrier overhead negligible against millions of events.
const EPOCHS: usize = 16;

/// Process-wide default shard-pool width; `0` means "classic monolithic
/// engine" (sharding off). Only [`crate::RunContext::from_process_defaults`]
/// reads it; runners take the shard pool as an argument.
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default shard-pool width that a run context
/// starts from. `0` disables sharding (the classic engine). Only the
/// benchmark harness still calls this; the next benchmark change
/// deletes it.
pub fn set_default_shards(shards: usize) {
    DEFAULT_SHARDS.store(shards, Ordering::Relaxed);
}

/// The process-wide default shard-pool width (`0` = sharding off).
#[must_use]
pub fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::Relaxed)
}

/// How a configuration decomposes into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Logical shard count `L` (1 = the classic engine verbatim).
    pub shards: usize,
    /// Epoch barriers per run.
    pub epochs: usize,
}

impl ShardPlan {
    /// Computes the decomposition for `cfg`: the largest `L ≤ 8` that
    /// divides the core count, the thread count, *and* (for a shared
    /// device) the server count, so every shard owns an equal integer
    /// slice of each resource. Depends on the configuration only —
    /// never on `--shards` — which is what makes every worker width
    /// produce the same decomposition.
    #[must_use]
    pub fn for_config(cfg: &SimConfig) -> Self {
        let mut g = gcd(cfg.cores, cfg.threads);
        if let Some(DeviceKind::Shared { servers }) = cfg.offload.map(|o| o.device) {
            g = gcd(g, servers);
        }
        let shards = (1..=MAX_SHARDS.min(g))
            .rev()
            .find(|&d| g.is_multiple_of(d))
            .unwrap_or(1);
        Self {
            shards,
            epochs: EPOCHS,
        }
    }

    /// The configuration shard `index` runs: an equal slice of cores,
    /// threads, and shared-device servers, with a decorrelated seed.
    /// With `L == 1` the configuration is returned verbatim (classic
    /// seed included), so the degenerate plan reproduces the monolithic
    /// engine bit for bit.
    #[must_use]
    pub fn shard_config(&self, cfg: &SimConfig, index: usize) -> SimConfig {
        let mut c = cfg.clone();
        if self.shards == 1 {
            return c;
        }
        c.cores = cfg.cores / self.shards;
        c.threads = cfg.threads / self.shards;
        c.seed = derive_seed(cfg.seed, index as u64);
        if let Some(o) = &mut c.offload {
            if let DeviceKind::Shared { servers } = o.device {
                o.device = DeviceKind::Shared {
                    servers: servers / self.shards,
                };
            }
        }
        c
    }
}

fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Observability counters for a sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The decomposition that ran.
    pub plan: ShardPlan,
    /// Events each shard processed, in shard-index order.
    pub per_shard_events: Vec<u64>,
    /// Peak simultaneous live requests each shard observed, in
    /// shard-index order. Shards share no requests, so per-shard peaks
    /// are exact; the merged [`EngineStats::peak_live_requests`] takes
    /// their maximum (the largest peak any one engine actually held —
    /// summing would fabricate a "fleet-wide peak" no engine ever saw).
    pub per_shard_peak_live: Vec<usize>,
    /// Engine counters summed across shards (`peak_live_requests` is
    /// the max of `per_shard_peak_live`).
    pub engine: EngineStats,
}

/// Runs `cfg` sharded on `pool` and returns the merged metrics plus the
/// per-shard counters. With a trace store, each shard adopts the store's
/// frozen trace for its decorrelated seed, if there is one, so a batch's
/// configurations share one trace draw per shard instead of redrawing
/// per configuration. The trace path is the same stream, pre-drawn, so
/// the bytes do not depend on whether a store is given.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when the configuration is
/// rejected by [`SimConfig::validate`].
pub fn run_sharded(
    pool: &ExecPool,
    cfg: &SimConfig,
    traces: Option<&TraceStore>,
) -> Result<(SimMetrics, ShardStats)> {
    cfg.validate()?;
    let plan = ShardPlan::for_config(cfg);
    let mut shards = (0..plan.shards)
        .map(|i| {
            let shard_cfg = plan.shard_config(cfg, i);
            let trace = traces.and_then(|s| s.get(&shard_cfg));
            Simulator::try_new_with_trace(shard_cfg, trace)
        })
        .collect::<Result<Vec<_>>>()?;
    // Only shards of one shared device interact; per-core devices are
    // private by construction and unlimited devices never queue.
    let exchange = plan.shards > 1
        && matches!(
            cfg.offload.map(|o| o.device),
            Some(DeviceKind::Shared { .. })
        );
    for epoch in 1..=plan.epochs {
        let until = if epoch == plan.epochs {
            cfg.horizon
        } else {
            cfg.horizon * (epoch as f64 / plan.epochs as f64)
        };
        // Barrier: every shard reaches the boundary before any exchange.
        pool.for_each_mut(&mut shards, |_, shard| shard.run_until(until));
        if exchange {
            // Fold demands in shard-index order; each shard's device
            // absorbs the demand its siblings dispatched this epoch,
            // spread over its slice of the service units.
            let demands: Vec<f64> = shards
                .iter_mut()
                .map(Simulator::take_epoch_service)
                .collect();
            let total: f64 = demands.iter().sum();
            for (shard, own) in shards.iter_mut().zip(&demands) {
                let servers = shard.device_servers();
                if servers > 0 {
                    shard.defer_device((total - own) / servers as f64);
                }
            }
        }
    }
    let outputs: Vec<ShardOutput> = shards
        .into_iter()
        .map(Simulator::into_shard_output)
        .collect();
    let per_shard_events = outputs.iter().map(|o| o.stats.events_processed).collect();
    let per_shard_peak_live = outputs.iter().map(|o| o.stats.peak_live_requests).collect();
    let (metrics, engine) = merge(outputs);
    let stats = ShardStats {
        plan,
        per_shard_events,
        per_shard_peak_live,
        engine,
    };
    Ok((metrics, stats))
}

/// [`run_sharded`] without a trace store. Only the benchmark harness
/// still calls it.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when the configuration is
/// rejected by [`SimConfig::validate`].
pub fn run_sharded_instrumented(
    pool: &ExecPool,
    cfg: &SimConfig,
) -> Result<(SimMetrics, ShardStats)> {
    run_sharded(pool, cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OffloadConfig;
    use crate::fault::{DegradationWindow, FaultPlan, RecoveryPolicy};
    use crate::workload::WorkloadSpec;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};

    fn workload() -> WorkloadSpec {
        WorkloadSpec {
            non_kernel_cycles: 4_000.0,
            kernels_per_request: 1,
            granularity: GranularityCdf::from_points(vec![(256.0, 0.4), (1_024.0, 1.0)]).unwrap(),
            cycles_per_byte: cycles_per_byte(2.0),
        }
    }

    fn sharded_config() -> SimConfig {
        SimConfig {
            cores: 4,
            threads: 8,
            context_switch_cycles: 400.0,
            horizon: 8e6,
            seed: 42,
            workload: workload(),
            offload: Some(OffloadConfig {
                design: ThreadingDesign::AsyncSameThread,
                strategy: AccelerationStrategy::OffChip,
                driver: DriverMode::Posted,
                device: DeviceKind::Shared { servers: 4 },
                peak_speedup: 4.0,
                interface_latency: 2_000.0,
                setup_cycles: 50.0,
                dispatch_pollution: 0.0,
                min_offload_bytes: None,
            }),
            fault: FaultPlan::none(),
            recovery: RecoveryPolicy::none(),
        }
    }

    #[test]
    fn plan_depends_only_on_config() {
        let cfg = sharded_config();
        let plan = ShardPlan::for_config(&cfg);
        assert_eq!(plan.shards, 4); // gcd(4 cores, 8 threads, 4 servers)
                                    // A one-server FIFO cannot shard.
        let mut single = cfg.clone();
        single.offload.as_mut().unwrap().device = DeviceKind::Shared { servers: 1 };
        assert_eq!(ShardPlan::for_config(&single).shards, 1);
        // Coprime cores/threads cannot shard.
        let mut coprime = cfg;
        coprime.cores = 3;
        coprime.threads = 7;
        assert_eq!(ShardPlan::for_config(&coprime).shards, 1);
    }

    #[test]
    fn shard_configs_partition_the_machine() {
        let cfg = sharded_config();
        let plan = ShardPlan::for_config(&cfg);
        let mut cores = 0;
        let mut threads = 0;
        let mut seeds = Vec::new();
        for i in 0..plan.shards {
            let sc = plan.shard_config(&cfg, i);
            cores += sc.cores;
            threads += sc.threads;
            seeds.push(sc.seed);
            assert_eq!(
                sc.offload.unwrap().device,
                DeviceKind::Shared { servers: 1 }
            );
        }
        assert_eq!(cores, cfg.cores);
        assert_eq!(threads, cfg.threads);
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), plan.shards, "shard seeds must differ");
    }

    #[test]
    fn output_is_identical_at_every_pool_width() {
        let cfg = sharded_config();
        let reference = run_sharded(&ExecPool::new(1), &cfg, None).unwrap();
        for width in [2, 4, 13] {
            let got = run_sharded(&ExecPool::new(width), &cfg, None).unwrap();
            assert_eq!(reference.0, got.0, "metrics diverged at width {width}");
            assert_eq!(reference.1, got.1, "stats diverged at width {width}");
        }
        assert_eq!(reference.1.plan.shards, 4);
        assert_eq!(reference.1.per_shard_events.len(), 4);
        assert!(reference.1.per_shard_events.iter().all(|&e| e > 0));
    }

    #[test]
    fn width_invariance_holds_under_active_faults() {
        let mut cfg = sharded_config();
        cfg.fault = FaultPlan {
            failure_probability: 0.02,
            spike_probability: 0.01,
            spike_cycles: 20_000.0,
            degradation: vec![DegradationWindow {
                down: true,
                ..DegradationWindow::slowdown(2e6, 3e6, 1.0)
            }],
            ..FaultPlan::none()
        };
        cfg.recovery = RecoveryPolicy {
            max_retries: 2,
            backoff_base_cycles: 1_000.0,
            fallback_to_host: true,
            ..RecoveryPolicy::none()
        };
        let (reference, _) = run_sharded(&ExecPool::new(1), &cfg, None).unwrap();
        assert!(reference.faults.active);
        assert!(reference.faults.injected_failures > 0);
        for width in [2, 4] {
            let (got, _) = run_sharded(&ExecPool::new(width), &cfg, None).unwrap();
            assert_eq!(reference, got, "fault metrics diverged at width {width}");
        }
    }

    #[test]
    fn single_shard_plan_reproduces_the_classic_engine() {
        // Coprime cores/threads force L = 1: the sharded runner must
        // then be a bit-exact wrapper around the monolithic engine.
        let mut cfg = sharded_config();
        cfg.cores = 3;
        cfg.threads = 7;
        let classic = Simulator::new(cfg.clone()).run();
        let (sharded, _) = run_sharded(&ExecPool::new(4), &cfg, None).unwrap();
        assert_eq!(classic, sharded);
    }

    #[test]
    fn merged_peak_live_requests_is_the_max_of_shard_peaks() {
        // Shards hold disjoint request slabs, so the merged peak is the
        // largest peak any single engine actually observed — summing
        // per-shard peaks would fabricate a simultaneous "fleet peak"
        // no engine ever held.
        let cfg = sharded_config();
        let (_, stats) = run_sharded(&ExecPool::new(1), &cfg, None).unwrap();
        assert_eq!(stats.per_shard_peak_live.len(), stats.plan.shards);
        assert!(stats.per_shard_peak_live.iter().all(|&p| p > 0));
        assert_eq!(
            stats.engine.peak_live_requests,
            stats.per_shard_peak_live.iter().copied().max().unwrap()
        );

        // A degenerate single-shard plan must reproduce the classic
        // engine's counters bit for bit (max of one value == the value).
        let mut single = cfg;
        single.cores = 3;
        single.threads = 7;
        let (_, sharded_stats) = run_sharded(&ExecPool::new(2), &single, None).unwrap();
        let (_, classic_stats) = Simulator::new(single).run_instrumented();
        assert_eq!(sharded_stats.engine, classic_stats);
        assert_eq!(
            sharded_stats.per_shard_peak_live,
            vec![classic_stats.peak_live_requests]
        );
    }

    #[test]
    fn epoch_exchange_surfaces_cross_shard_contention() {
        // A slow shared device under heavy demand: shards must observe
        // queueing beyond what their private slice generates. With the
        // exchange, merged mean queue delay exceeds the no-exchange
        // lower bound of an unshared-looking device (smoke: non-zero).
        let mut cfg = sharded_config();
        cfg.offload.as_mut().unwrap().peak_speedup = 1.1;
        let (m, _) = run_sharded(&ExecPool::new(2), &cfg, None).unwrap();
        assert!(m.mean_queue_delay > 0.0);
        assert!(m.device_utilization > 0.0);
    }
}
