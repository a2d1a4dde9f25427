//! Golden-output tests: the bit-exactness gate for engine refactors.
//!
//! One small load sweep, one case study, and one ablation run at fixed
//! seeds, serialized to JSON and compared *byte-for-byte* against
//! checked-in fixtures. Any engine change that perturbs event order,
//! request accounting, RNG consumption, or floating-point evaluation
//! order shows up here as a diff — which is exactly the point: the
//! PR-2 event-queue/slab/percentile overhaul (and every future one)
//! must leave these files untouched.
//!
//! To regenerate after an *intentional* output change, run with
//! `GOLDEN_BLESS=1` and commit the updated fixtures:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p accelerometer-bench --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use accelerometer::units::cycles_per_byte;
use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
use accelerometer_bench::ablations::queueing_sensitivity_with;
use accelerometer_fleet::ServiceRegistry;
use accelerometer_sim::parallel::ExecPool;
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{
    concurrency_sweep_with, simulate, DeviceKind, OffloadConfig, SimConfig,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the named fixture, or rewrites the fixture
/// when `GOLDEN_BLESS=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with GOLDEN_BLESS=1", name));
    assert_eq!(
        expected, actual,
        "golden output drifted for {name}; if the change is intentional, \
         regenerate with GOLDEN_BLESS=1 and commit the new fixture"
    );
}

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
            min_offload_bytes: Some(128.0),
        }),
        fault: Default::default(),
        recovery: Default::default(),
    }
}

#[test]
fn load_sweep_matches_golden_fixture() {
    let sweep = concurrency_sweep_with(&ExecPool::new(1), &sweep_base(), &[1, 2, 4, 8, 16]);
    let json = serde_json::to_string(&sweep).expect("sweep serializes");
    assert_golden("golden_load_sweep.json", &json);
}

#[test]
fn case_study_matches_golden_fixture() {
    let study = ServiceRegistry::builtin()
        .case_study("aes-ni")
        .expect("aes-ni case study");
    let (validation, ab) = simulate(&study, 42).expect("known case study");
    let json = format!(
        "{{\"validation\":{},\"ab\":{}}}",
        serde_json::to_string(&validation).expect("validation serializes"),
        serde_json::to_string(&ab).expect("ab serializes"),
    );
    assert_golden("golden_case_study.json", &json);
}

#[test]
fn queueing_ablation_matches_golden_fixture() {
    let rows = queueing_sensitivity_with(&ExecPool::new(1), 20_260_806);
    let json = serde_json::to_string(&rows).expect("rows serialize");
    assert_golden("golden_ablation.json", &json);
}
