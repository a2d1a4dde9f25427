//! Property-based proof of the sampling pipeline's bit-exactness: runs
//! that consume pre-drawn requests through an adopted frozen trace of
//! any prefix length, sharded or not, faulted or not, must produce
//! `SimMetrics` and `EngineStats` identical to inline per-request
//! drawing. The only counter allowed to differ is
//! `trace_requests_replayed`, which exists precisely to report *where*
//! requests came from.

use std::sync::Arc;

use accelerometer::exec::ExecPool;
use accelerometer::units::cycles_per_byte;
use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
use accelerometer_sim::fault::{DegradationWindow, FaultPlan, RecoveryPolicy};
use accelerometer_sim::faultsweep::{demo_scenario, FAULT_SEED};
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{
    run_fault_sweep_with, run_sharded, set_trace_reuse, validate_fallback_with, DeviceKind,
    EngineStats, FrozenTrace, OffloadConfig, SimConfig, Simulator, TraceStore, VALIDATION_SEED,
};
use proptest::prelude::*;

/// Strips the sampling-provenance counter, which reports how many
/// requests the trace supplied and so differs by construction between
/// the compared paths. Everything else must match exactly.
fn sans_provenance(mut stats: EngineStats) -> EngineStats {
    stats.trace_requests_replayed = 0;
    stats
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        500.0..20_000.0_f64, // non-kernel cycles
        0usize..3,           // kernels per request (0 exercises the Host(1.0) path)
        64.0..4_096.0_f64,   // granularity scale
        0.5..8.0_f64,        // Cb
    )
        .prop_map(|(non_kernel, kernels, scale, cb)| WorkloadSpec {
            non_kernel_cycles: non_kernel,
            kernels_per_request: kernels,
            granularity: GranularityCdf::from_points(vec![
                (scale, 0.5),
                (scale * 4.0, 0.9),
                (scale * 16.0, 1.0),
            ])
            .expect("valid CDF"),
            cycles_per_byte: cycles_per_byte(cb),
        })
}

fn design_strategy() -> impl Strategy<Value = (ThreadingDesign, AccelerationStrategy)> {
    (
        prop::sample::select(ThreadingDesign::ALL.to_vec()),
        prop::sample::select(AccelerationStrategy::ALL.to_vec()),
    )
}

/// An optionally-active fault plan plus recovery policy. Fault RNG is a
/// separate derived stream, so pre-drawn workload sampling must stay
/// exact under it.
fn fault_strategy(horizon_hint: f64) -> impl Strategy<Value = (FaultPlan, RecoveryPolicy)> {
    prop_oneof![
        Just((FaultPlan::none(), RecoveryPolicy::none())),
        (0.001..0.05_f64, 1u64..100).prop_map(move |(p, fseed)| {
            (
                FaultPlan {
                    seed: fseed,
                    failure_probability: p,
                    spike_probability: p / 2.0,
                    spike_cycles: 20_000.0,
                    degradation: vec![DegradationWindow {
                        start: horizon_hint * 0.3,
                        end: horizon_hint * 0.5,
                        multiplier: 1.0,
                        down: true,
                    }],
                },
                RecoveryPolicy {
                    max_retries: 2,
                    backoff_base_cycles: 1_000.0,
                    timeout_cycles: Some(30_000.0),
                    fallback_to_host: true,
                    ..RecoveryPolicy::none()
                },
            )
        }),
    ]
}

fn config(
    workload: WorkloadSpec,
    seed: u64,
    (design, strategy): (ThreadingDesign, AccelerationStrategy),
    (fault, recovery): (FaultPlan, RecoveryPolicy),
) -> SimConfig {
    let horizon = workload.mean_request_cycles() * 4_000.0;
    let threads = if design == ThreadingDesign::SyncOs {
        8
    } else {
        2
    };
    SimConfig {
        cores: 2,
        threads,
        context_switch_cycles: 300.0,
        horizon,
        seed,
        workload,
        offload: Some(OffloadConfig {
            design,
            strategy,
            driver: DriverMode::Posted,
            device: match strategy {
                AccelerationStrategy::OnChip => DeviceKind::PerCore,
                AccelerationStrategy::OffChip => DeviceKind::Shared { servers: 2 },
                AccelerationStrategy::Remote => DeviceKind::Unlimited,
            },
            peak_speedup: 4.0,
            interface_latency: 1_500.0,
            setup_cycles: 25.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        }),
        fault,
        recovery,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Adopting a frozen trace of *any* prefix length — empty, shorter
    /// than the run (exercising the resume-RNG continuation),
    /// right-sized, or oversized — is bit-identical to inline drawing.
    #[test]
    fn frozen_trace_runs_are_bit_identical(
        workload in workload_strategy(),
        design in design_strategy(),
        faults in fault_strategy(50_000.0 * 300.0),
        prefix in prop::sample::select(vec![0usize, 1, 7, 500, 100_000]),
        seed in 0u64..1_000,
    ) {
        let cfg = config(workload, seed, design, faults);
        let direct = Simulator::try_new(cfg.clone())
            .expect("valid config")
            .run_instrumented();
        let trace = Arc::new(FrozenTrace::draw(cfg.seed, &cfg.workload, prefix));
        let traced = Simulator::try_new_with_trace(cfg.clone(), Some(Arc::clone(&trace)))
            .expect("matching trace")
            .run_instrumented();
        prop_assert_eq!(&traced.0, &direct.0, "metrics diverged at prefix {}", prefix);
        prop_assert_eq!(
            sans_provenance(traced.1),
            sans_provenance(direct.1),
            "stats diverged at prefix {}",
            prefix
        );
    }

    /// Sharded runs with a trace store — each shard looking up its
    /// decorrelated derived seed — match the untraced sharded runner at
    /// every worker-pool width. The store is the one the batch runner
    /// builds for two sharded runs of the configuration: one trace per
    /// shard seed.
    #[test]
    fn sharded_traced_runs_match_untraced(
        workload in workload_strategy(),
        faults in fault_strategy(50_000.0 * 300.0),
        seed in 0u64..1_000,
    ) {
        // cores 2 / threads 8 / servers 2 decomposes into 2 shards.
        let mut cfg = config(
            workload,
            seed,
            (ThreadingDesign::SyncOs, AccelerationStrategy::OffChip),
            faults,
        );
        cfg.threads = 8;
        let (untraced, untraced_stats) =
            run_sharded(&ExecPool::new(1), &cfg, None).expect("valid config");
        let store = TraceStore::for_batch(&[cfg.clone(), cfg.clone()], true);
        prop_assert_eq!(store.traces().len(), 2);
        for width in [1usize, 4] {
            let (traced, traced_stats) = run_sharded(&ExecPool::new(width), &cfg, Some(&store))
                .expect("valid config");
            prop_assert_eq!(&traced, &untraced, "diverged at width {}", width);
            prop_assert_eq!(
                sans_provenance(traced_stats.engine),
                sans_provenance(untraced_stats.engine),
                "stats diverged at width {}",
                width
            );
        }
    }
}

/// Installing a trace drawn for a different seed or workload must be a
/// structured error, not silent divergence.
#[test]
fn mismatched_traces_are_rejected() {
    let workload = WorkloadSpec {
        non_kernel_cycles: 4_000.0,
        kernels_per_request: 1,
        granularity: GranularityCdf::from_points(vec![(512.0, 1.0)]).unwrap(),
        cycles_per_byte: cycles_per_byte(2.0),
    };
    let cfg = SimConfig {
        cores: 2,
        threads: 2,
        context_switch_cycles: 0.0,
        horizon: 1e6,
        seed: 1,
        workload: workload.clone(),
        offload: None,
        fault: FaultPlan::none(),
        recovery: RecoveryPolicy::none(),
    };
    let wrong_seed = Arc::new(FrozenTrace::draw(2, &workload, 16));
    assert!(Simulator::try_new_with_trace(cfg.clone(), Some(wrong_seed)).is_err());
    let right = Arc::new(FrozenTrace::for_config(&cfg));
    assert!(Simulator::try_new_with_trace(cfg, Some(right)).is_ok());
}

/// The batch runner's trace sharing, switched off, moves no output byte:
/// the fault sweep monolithic and sharded (where traces are per derived
/// shard seed), and the fallback table's A/B batch, which shares one
/// trace among its eight arms. The seeds are `accelctl`'s defaults.
#[test]
fn batch_outputs_are_identical_with_trace_reuse_off() {
    let pool = ExecPool::new(1);
    let shards = ExecPool::new(2);
    let scenario = demo_scenario(FAULT_SEED);
    let outputs = |reuse| {
        set_trace_reuse(reuse);
        let sweep = |shards| {
            let report = run_fault_sweep_with(&pool, shards, &scenario).expect("demo sweep runs");
            serde_json::to_string(&report).expect("report serializes")
        };
        let fallback = validate_fallback_with(&pool, VALIDATION_SEED);
        [
            sweep(None),
            sweep(Some(&shards)),
            serde_json::to_string(&fallback).expect("rows serialize"),
        ]
    };
    let (reused, redrawn) = (outputs(true), outputs(false));
    set_trace_reuse(true);
    assert_eq!(reused, redrawn, "trace reuse changed a batch's output");
}
