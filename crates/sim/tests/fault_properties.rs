//! Property-based tests of the fault-injection subsystem: a disabled
//! fault plan must be a bit-exact no-op on arbitrary configurations,
//! fault sweeps must be deterministic at any pool width, and the
//! metrics produced under injected faults must still satisfy the
//! engine's conservation laws.

use accelerometer::units::cycles_per_byte;
use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
use accelerometer_sim::parallel::ExecPool;
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{
    run_fault_sweep_with, run_sharded, DegradationWindow, DeviceKind, FaultPlan, FaultScenario,
    NamedPolicy, OffloadConfig, RecoveryPolicy, SimConfig, Simulator,
};
use proptest::prelude::*;

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        500.0..20_000.0_f64, // non-kernel cycles
        1usize..3,           // kernels per request
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

fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000,       // fault RNG stream
        0.0..0.2_f64,      // failure probability
        0.0..0.2_f64,      // spike probability
        1_000.0..50_000.0, // spike cycles
        any::<bool>(),     // include a degradation window?
        any::<bool>(),     // full downtime?
        1.5..8.0_f64,      // slowdown multiplier
    )
        .prop_map(
            |(seed, failure, spike_p, spike, windowed, down, multiplier)| FaultPlan {
                seed,
                failure_probability: failure,
                spike_probability: spike_p,
                spike_cycles: spike,
                degradation: if windowed {
                    vec![DegradationWindow {
                        start: 2e6,
                        end: 4e6,
                        multiplier,
                        down,
                    }]
                } else {
                    Vec::new()
                },
            },
        )
}

fn recovery_strategy() -> impl Strategy<Value = RecoveryPolicy> {
    (
        (any::<bool>(), 10_000.0..100_000.0_f64),
        0u32..4,
        500.0..5_000.0_f64,
        any::<bool>(),
        (any::<bool>(), 10_000.0..100_000.0_f64),
    )
        .prop_map(
            |((has_timeout, timeout), retries, backoff, fallback, (has_shed, shed))| {
                RecoveryPolicy {
                    timeout_cycles: has_timeout.then_some(timeout),
                    max_retries: retries,
                    backoff_base_cycles: backoff,
                    fallback_to_host: fallback,
                    shed_backlog_cycles: has_shed.then_some(shed),
                }
            },
        )
}

fn config(
    workload: WorkloadSpec,
    seed: u64,
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
) -> SimConfig {
    let horizon = workload.mean_request_cycles() * 2_000.0;
    SimConfig {
        cores: 2,
        threads: if design == ThreadingDesign::SyncOs { 8 } else { 2 },
        context_switch_cycles: 300.0,
        horizon,
        seed,
        workload,
        offload: Some(OffloadConfig {
            design,
            strategy,
            driver: DriverMode::Posted,
            device: DeviceKind::Shared { servers: 4 },
            peak_speedup: 4.0,
            interface_latency: 2_000.0,
            setup_cycles: 50.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        }),
        fault: Default::default(),
        recovery: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `FaultPlan::none()` + `RecoveryPolicy::none()` is a bit-exact
    /// no-op: every metric equals the fault-free engine's output on
    /// arbitrary workloads and offload designs, and the serialized
    /// bytes are identical (no `faults` key appears).
    #[test]
    fn disabled_faults_are_a_bit_exact_noop(
        workload in workload_strategy(),
        (design, strategy) in design_strategy(),
        seed in 0u64..1_000,
    ) {
        let clean = config(workload.clone(), seed, design, strategy);
        let mut disabled = clean.clone();
        disabled.fault = FaultPlan::none();
        disabled.recovery = RecoveryPolicy::none();
        let a = Simulator::new(clean).run();
        let b = Simulator::new(disabled).run();
        prop_assert_eq!(&a, &b);
        let a_json = serde_json::to_string(&a).expect("metrics serialize");
        prop_assert_eq!(
            &a_json,
            &serde_json::to_string(&b).expect("metrics serialize")
        );
        prop_assert!(!a_json.contains("faults"));
    }

    /// Under arbitrary fault plans and recovery policies the engine
    /// still satisfies its conservation laws: identical reruns are
    /// byte-identical, percentiles stay ordered, goodput never exceeds
    /// throughput, device utilization stays within [0, 1], and the
    /// fault counters are mutually consistent.
    #[test]
    fn faulty_runs_are_deterministic_and_conserve(
        workload in workload_strategy(),
        (design, strategy) in design_strategy(),
        fault in fault_strategy(),
        recovery in recovery_strategy(),
        seed in 0u64..1_000,
    ) {
        let mut cfg = config(workload, seed, design, strategy);
        cfg.fault = fault;
        cfg.recovery = recovery;
        let a = Simulator::new(cfg.clone()).run();
        let b = Simulator::new(cfg).run();
        prop_assert_eq!(&a, &b);

        prop_assert!(a.latency.p50 <= a.latency.p95 + 1e-9);
        prop_assert!(a.latency.p95 <= a.latency.p99 + 1e-9);
        prop_assert!(a.latency.p99 <= a.latency.max + 1e-9);
        // Fallback host re-execution occupies real scheduler slices and
        // every slice is clamped at the horizon, so core capacity is
        // conserved exactly — even under arbitrary fault plans.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&a.core_utilization));
        let util = a.device_utilization;
        prop_assert!((0.0..=1.0 + 1e-9).contains(&util), "device util {}", util);
        let f = a.faults;
        prop_assert!(f.active);
        prop_assert!(f.goodput_per_gcycle <= a.throughput_per_gcycle + 1e-9);
        prop_assert!(f.failed_requests <= a.completed_requests);
        // Every abandoned offload stems from an injected failure or a
        // timeout, and retries only happen in response to those.
        prop_assert!(f.abandoned_offloads <= f.injected_failures + f.timeouts);
        prop_assert!(f.fallbacks + f.abandoned_offloads <= f.injected_failures + f.timeouts);
        if f.retries > 0 {
            prop_assert!(f.injected_failures + f.timeouts > 0);
        }
    }

    /// Core capacity is conserved under arbitrary `FaultPlan` ×
    /// `RecoveryPolicy` combinations on the *sharded* runner too:
    /// `core_utilization <= 1` (fallback slices and horizon clamping
    /// are per-shard properties that must survive the merge), and the
    /// report stays byte-identical at any worker-pool width.
    #[test]
    fn sharded_faulty_runs_conserve_core_capacity(
        workload in workload_strategy(),
        (design, strategy) in design_strategy(),
        fault in fault_strategy(),
        recovery in recovery_strategy(),
        seed in 0u64..1_000,
        width in 1usize..5,
    ) {
        let mut cfg = config(workload, seed, design, strategy);
        // A shardable machine shape: gcd(4 cores, 8 threads, 4 servers)
        // decomposes into 4 per-shard engines.
        cfg.cores = 4;
        cfg.threads = 8;
        cfg.fault = fault;
        cfg.recovery = recovery;
        let (reference, _) = run_sharded(&ExecPool::new(1), &cfg, None).expect("valid config");
        prop_assert!(
            (0.0..=1.0 + 1e-9).contains(&reference.core_utilization),
            "core util {}",
            reference.core_utilization
        );
        let (wide, _) = run_sharded(&ExecPool::new(width), &cfg, None).expect("valid config");
        prop_assert_eq!(reference, wide);
    }

    /// A fault sweep produces a byte-identical report at pool width 1
    /// and width 8 — the `--jobs` invariance the CLI relies on.
    #[test]
    fn fault_sweep_is_pool_width_invariant(
        workload in workload_strategy(),
        fault in fault_strategy(),
        recovery in recovery_strategy(),
        seed in 0u64..1_000,
    ) {
        let scenario = FaultScenario {
            base: config(
                workload,
                seed,
                ThreadingDesign::AsyncSameThread,
                AccelerationStrategy::Remote,
            ),
            plan: fault,
            policies: vec![
                NamedPolicy { name: "none".into(), policy: RecoveryPolicy::none() },
                NamedPolicy { name: "candidate".into(), policy: recovery },
            ],
            slo_min_p99_ratio: 0.5,
        };
        let one = run_fault_sweep_with(&ExecPool::new(1), None, &scenario).expect("sweep runs");
        let eight = run_fault_sweep_with(&ExecPool::new(8), None, &scenario).expect("sweep runs");
        prop_assert_eq!(
            serde_json::to_string(&one).expect("report serializes"),
            serde_json::to_string(&eight).expect("report serializes")
        );
    }
}
