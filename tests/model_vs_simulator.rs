//! Systematic model-vs-simulator agreement: beyond the three case
//! studies, the analytical model and the discrete-event simulator must
//! agree across the full design/strategy grid when the simulator is
//! configured without the unmodeled production effects (no dispatch
//! pollution, ample device capacity so queueing stays negligible).
//!
//! This is the reproduction's strongest internal-consistency check: two
//! independent implementations of the offload semantics — closed-form
//! equations and an event-driven executor — derived separately from §3's
//! description.

use accelerometer_suite::model::units::cycles_per_byte;
use accelerometer_suite::model::{
    estimate, AccelerationStrategy, DriverMode, GranularityCdf, ModelParams, ThreadingDesign,
};
use accelerometer_suite::sim::workload::WorkloadSpec;
use accelerometer_suite::sim::{run_ab_batch, DeviceKind, ExecPool, OffloadConfig, SimConfig};

const CORES: usize = 4;
const O1: f64 = 800.0;

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        non_kernel_cycles: 6_000.0,
        kernels_per_request: 1,
        granularity: GranularityCdf::from_points(vec![(128.0, 0.3), (512.0, 0.7), (2_048.0, 1.0)])
            .expect("valid CDF"),
        cycles_per_byte: cycles_per_byte(2.0),
    }
}

fn control(design: ThreadingDesign) -> SimConfig {
    // Oversubscribe only for Sync-OS, matching the paper's semantics.
    // The model assumes the pool is deep enough that a blocked thread
    // always leaves a ready one behind, so size it to cover the longest
    // offload round trip (the remote 50k-cycle hop over ~7k-cycle
    // requests needs ~9 threads per core).
    let threads = if design == ThreadingDesign::SyncOs {
        CORES * 12
    } else {
        CORES
    };
    SimConfig {
        cores: CORES,
        threads,
        context_switch_cycles: O1,
        horizon: 3e8,
        seed: 11,
        workload: workload(),
        offload: None,
        fault: Default::default(),
        recovery: Default::default(),
    }
}

fn offload(design: ThreadingDesign, strategy: AccelerationStrategy) -> OffloadConfig {
    let (device, interface_latency) = match strategy {
        AccelerationStrategy::OnChip => (DeviceKind::PerCore, 0.0),
        // Generous capacity keeps emergent queueing ≈ 0 so the model's
        // Q = 0 assumption holds.
        AccelerationStrategy::OffChip => (DeviceKind::Shared { servers: CORES * 2 }, 500.0),
        AccelerationStrategy::Remote => (DeviceKind::Unlimited, 50_000.0),
    };
    OffloadConfig {
        design,
        strategy,
        driver: DriverMode::AwaitsAck,
        device,
        peak_speedup: 8.0,
        interface_latency,
        setup_cycles: 50.0,
        dispatch_pollution: 0.0,
        min_offload_bytes: None,
    }
}

fn model_percent(design: ThreadingDesign, strategy: AccelerationStrategy) -> f64 {
    let spec = workload();
    let mean_request = spec.mean_request_cycles();
    let c = 1e9;
    let n = c / mean_request * CORES as f64; // requests per second across cores
    let cfg = offload(design, strategy);
    let params = ModelParams::builder()
        .host_cycles(c * CORES as f64)
        .kernel_fraction(spec.expected_alpha())
        .offloads(n)
        .setup_cycles(cfg.setup_cycles)
        .interface_cycles(cfg.interface_latency)
        .queueing_cycles(0.0)
        .thread_switch_cycles(O1)
        .peak_speedup(cfg.peak_speedup)
        .build()
        .expect("valid parameters");
    estimate(&params, design, strategy, DriverMode::AwaitsAck).throughput_gain_percent()
}

fn simulated_percent(design: ThreadingDesign, strategy: AccelerationStrategy) -> f64 {
    // One arm per worker.
    run_ab_batch(
        &ExecPool::new(2),
        &[(control(design), offload(design, strategy))],
    )
    .expect("valid configs")[0]
        .speedup_percent()
}

fn check(design: ThreadingDesign, strategy: AccelerationStrategy, tolerance: f64) {
    let model = model_percent(design, strategy);
    let simulated = simulated_percent(design, strategy);
    assert!(
        (model - simulated).abs() < tolerance,
        "{design:?}/{strategy:?}: model {model:.2}% vs simulated {simulated:.2}%"
    );
}

#[test]
fn sync_agreement_across_strategies() {
    check(ThreadingDesign::Sync, AccelerationStrategy::OnChip, 1.0);
    check(ThreadingDesign::Sync, AccelerationStrategy::OffChip, 1.0);
    check(ThreadingDesign::Sync, AccelerationStrategy::Remote, 1.0);
}

#[test]
fn async_same_thread_agreement() {
    check(
        ThreadingDesign::AsyncSameThread,
        AccelerationStrategy::OnChip,
        1.0,
    );
    check(
        ThreadingDesign::AsyncSameThread,
        AccelerationStrategy::OffChip,
        1.0,
    );
    check(
        ThreadingDesign::AsyncSameThread,
        AccelerationStrategy::Remote,
        1.0,
    );
}

#[test]
fn async_no_response_agreement() {
    check(
        ThreadingDesign::AsyncNoResponse,
        AccelerationStrategy::OffChip,
        1.0,
    );
    check(
        ThreadingDesign::AsyncNoResponse,
        AccelerationStrategy::Remote,
        1.0,
    );
}

#[test]
fn async_distinct_thread_agreement() {
    check(
        ThreadingDesign::AsyncDistinctThread,
        AccelerationStrategy::OffChip,
        1.0,
    );
    check(
        ThreadingDesign::AsyncDistinctThread,
        AccelerationStrategy::Remote,
        1.0,
    );
}

#[test]
fn sync_os_agreement() {
    // Sync-OS has the most scheduler interplay (blocks, wakes, switch
    // pairs); allow slightly wider tolerance for emergent idle gaps.
    check(ThreadingDesign::SyncOs, AccelerationStrategy::OffChip, 1.5);
    check(ThreadingDesign::SyncOs, AccelerationStrategy::Remote, 1.5);
}

/// The ordering the paper's Fig. 20 hinges on — Async ≥ Sync ≥ Sync-OS
/// for an off-chip device with costly thread switches — emerges in both
/// the model and the simulator.
#[test]
fn design_ordering_is_consistent() {
    let strategies = AccelerationStrategy::OffChip;
    let model_sync = model_percent(ThreadingDesign::Sync, strategies);
    let model_async = model_percent(ThreadingDesign::AsyncNoResponse, strategies);
    let model_sync_os = model_percent(ThreadingDesign::SyncOs, strategies);
    assert!(model_async >= model_sync);
    assert!(model_sync >= model_sync_os);

    let sim_sync = simulated_percent(ThreadingDesign::Sync, strategies);
    let sim_async = simulated_percent(ThreadingDesign::AsyncNoResponse, strategies);
    let sim_sync_os = simulated_percent(ThreadingDesign::SyncOs, strategies);
    assert!(sim_async >= sim_sync - 0.3);
    assert!(sim_sync >= sim_sync_os - 0.3);
}
