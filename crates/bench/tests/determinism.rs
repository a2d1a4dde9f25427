//! The PR's headline guarantee, end to end: running experiment batches
//! at `--jobs 1` and `--jobs 8` produces byte-identical serialized
//! results. Each experiment's RNG seed travels in its config, the pool
//! reassembles results by index, and serde's output is byte-stable, so
//! the serialized JSON must match exactly — not approximately. The same
//! holds with the batch runner's frozen-trace sharing switched off.

use accelerometer::units::cycles_per_byte;
use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
use accelerometer_bench::ablations::{queueing_sensitivity_with, render_all};
use accelerometer_fleet::ServiceRegistry;
use accelerometer_sim::parallel::ExecPool;
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{
    concurrency_sweep_with, set_trace_reuse, validate_all_with, DeviceKind, OffloadConfig,
    RunContext, SimConfig, VALIDATION_SEED,
};

fn sweep_base() -> SimConfig {
    SimConfig {
        cores: 2,
        threads: 2,
        context_switch_cycles: 400.0,
        horizon: 1e7,
        seed: 20_260_806,
        workload: WorkloadSpec {
            non_kernel_cycles: 4_000.0,
            kernels_per_request: 1,
            granularity: GranularityCdf::from_points(vec![(256.0, 0.4), (1_024.0, 1.0)])
                .expect("valid CDF"),
            cycles_per_byte: cycles_per_byte(2.0),
        },
        offload: Some(OffloadConfig {
            design: ThreadingDesign::SyncOs,
            strategy: AccelerationStrategy::OffChip,
            driver: DriverMode::Posted,
            device: DeviceKind::Shared { servers: 2 },
            peak_speedup: 4.0,
            interface_latency: 8_000.0,
            setup_cycles: 50.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        }),
        fault: Default::default(),
        recovery: Default::default(),
    }
}

#[test]
fn load_sweep_is_byte_identical_across_pool_widths() {
    let counts = [1usize, 2, 4, 8, 16];
    let one = concurrency_sweep_with(&ExecPool::new(1), &sweep_base(), &counts).unwrap();
    let eight = concurrency_sweep_with(&ExecPool::new(8), &sweep_base(), &counts).unwrap();
    let one_json = serde_json::to_string(&one).expect("sweep serializes");
    let eight_json = serde_json::to_string(&eight).expect("sweep serializes");
    assert_eq!(one_json, eight_json);
    // The skipped sub-core count is present in both.
    assert_eq!(one.skipped, vec![1]);
    assert!(one_json.contains("skipped"));
}

#[test]
fn queueing_ablation_is_byte_identical_across_pool_widths() {
    let seed = 20_260_806;
    let one = queueing_sensitivity_with(&ExecPool::new(1), seed);
    let eight = queueing_sensitivity_with(&ExecPool::new(8), seed);
    let one_json = serde_json::to_string(&one).expect("rows serialize");
    let eight_json = serde_json::to_string(&eight).expect("rows serialize");
    assert_eq!(one_json, eight_json);
    assert_eq!(one.len(), 4);
}

#[test]
fn table6_validation_is_byte_identical_across_pool_widths() {
    let seed = VALIDATION_SEED;
    let studies = ServiceRegistry::builtin().case_studies();
    let one = validate_all_with(&ExecPool::new(1), &studies, seed).expect("Table 6 rows");
    let eight = validate_all_with(&ExecPool::new(8), &studies, seed).expect("Table 6 rows");
    assert_eq!(
        serde_json::to_string(&one).expect("validations serialize"),
        serde_json::to_string(&eight).expect("validations serialize"),
    );
    assert_eq!(one.len(), 3);
}

#[test]
fn ablations_are_byte_identical_with_trace_reuse_off() {
    // The batch runner's trace sharing must not move a byte of the
    // ablations, whose simulator experiments all run as batches.
    let ctx = RunContext::from_process_defaults();
    let reused = render_all(&ctx, VALIDATION_SEED).expect("ablations render");
    set_trace_reuse(false);
    let redrawn = render_all(&ctx, VALIDATION_SEED);
    set_trace_reuse(true);
    assert_eq!(reused, redrawn.expect("ablations render"));
}
