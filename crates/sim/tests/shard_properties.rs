//! Property-based tests of the sharded runner's determinism contract:
//! for any configuration — including active fault plans — the merged
//! output is byte-identical at every worker-pool width, and a
//! single-shard plan reproduces the monolithic engine exactly.

use accelerometer::units::cycles_per_byte;
use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{
    run_sharded, DeviceKind, ExecPool, FaultPlan, OffloadConfig, RecoveryPolicy, ShardPlan,
    SimConfig, Simulator,
};
use proptest::prelude::*;

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        500.0..10_000.0_f64, // non-kernel cycles
        1usize..3,           // kernels per request
        64.0..2_048.0_f64,   // granularity scale
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

fn fault_strategy() -> impl Strategy<Value = (FaultPlan, RecoveryPolicy)> {
    (
        any::<bool>(),
        0.0..0.05_f64, // failure probability
        0.0..0.02_f64, // spike probability
        0u32..3,       // retries
        any::<bool>(), // fallback
    )
        .prop_map(|(active, fail, spike, retries, fallback)| {
            if !active {
                return (FaultPlan::none(), RecoveryPolicy::none());
            }
            (
                FaultPlan {
                    failure_probability: fail,
                    spike_probability: spike,
                    spike_cycles: 15_000.0,
                    ..FaultPlan::none()
                },
                RecoveryPolicy {
                    max_retries: retries,
                    backoff_base_cycles: 800.0,
                    fallback_to_host: fallback,
                    ..RecoveryPolicy::none()
                },
            )
        })
}

fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        workload_strategy(),
        prop::sample::select(ThreadingDesign::ALL.to_vec()),
        prop::sample::select(AccelerationStrategy::ALL.to_vec()),
        prop::sample::select(vec![(2usize, 4usize), (4, 8), (4, 12), (3, 7)]),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        fault_strategy(),
        1.5..16.0_f64,
        0u64..1_000,
    )
        .prop_map(
            |(
                workload,
                design,
                strategy,
                (cores, threads),
                servers,
                (fault, recovery),
                a,
                seed,
            )| {
                let horizon = workload.mean_request_cycles() * 4_000.0;
                SimConfig {
                    cores,
                    threads,
                    context_switch_cycles: 300.0,
                    horizon,
                    seed,
                    workload,
                    offload: Some(OffloadConfig {
                        design,
                        strategy,
                        driver: DriverMode::Posted,
                        device: DeviceKind::Shared { servers },
                        peak_speedup: a,
                        interface_latency: 1_500.0,
                        setup_cycles: 40.0,
                        dispatch_pollution: 0.0,
                        min_offload_bytes: None,
                    }),
                    fault,
                    recovery,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `--shards k` produces output byte-identical to `--shards 1` for
    /// random configurations, designs, and fault plans: the shard plan
    /// depends only on the configuration, so the worker width can only
    /// change wall-clock time — never a single serialized byte.
    #[test]
    fn sharded_output_is_width_invariant(cfg in config_strategy()) {
        let (reference, ref_stats) =
            run_sharded(&ExecPool::new(1), &cfg, None).expect("valid config");
        let reference_bytes =
            serde_json::to_string(&reference).expect("metrics serialize");
        for width in [2usize, 5] {
            let (got, got_stats) =
                run_sharded(&ExecPool::new(width), &cfg, None).expect("valid config");
            let got_bytes = serde_json::to_string(&got).expect("metrics serialize");
            prop_assert_eq!(&reference_bytes, &got_bytes, "width {} diverged", width);
            prop_assert_eq!(&ref_stats, &got_stats, "stats diverged at width {}", width);
        }
        prop_assert_eq!(ref_stats.plan, ShardPlan::for_config(&cfg));
        prop_assert_eq!(
            ref_stats.per_shard_events.iter().sum::<u64>(),
            ref_stats.engine.events_processed
        );
    }

    /// When the plan degenerates to one shard, the sharded runner is a
    /// bit-exact wrapper around the classic engine — same bytes out.
    #[test]
    fn single_shard_plans_match_the_classic_engine(cfg in config_strategy()) {
        let mut cfg = cfg;
        cfg.cores = 3;
        cfg.threads = 7; // coprime: forces a single-shard plan
        prop_assert_eq!(ShardPlan::for_config(&cfg).shards, 1);
        let classic = Simulator::new(cfg.clone()).run();
        let (sharded, _) = run_sharded(&ExecPool::new(4), &cfg, None).expect("valid config");
        prop_assert_eq!(
            serde_json::to_string(&classic).expect("metrics serialize"),
            serde_json::to_string(&sharded).expect("metrics serialize")
        );
    }
}
