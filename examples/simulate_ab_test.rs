//! Validating a projection before committing hardware: run the model's
//! estimate *and* a simulated A/B test for the same candidate, the way
//! §4 compares Accelerometer's estimates against production A/B tests.
//!
//! Scenario: a µs-scale caching service considers an off-chip (PCIe)
//! compression device shared by all cores, offloading synchronously with
//! thread oversubscription (Sync-OS).
//!
//! Run with: `cargo run --release --example simulate_ab_test`

use accelerometer_suite::model::units::cycles_per_byte;
use accelerometer_suite::model::{
    estimate, select_lucrative, throughput_breakeven, AccelerationStrategy, DriverMode,
    GranularityCdf, KernelCost, ModelParams, OffloadContext, OffloadOverheads, ThreadingDesign,
};
use accelerometer_suite::sim::workload::WorkloadSpec;
use accelerometer_suite::sim::{run_ab_batch, DeviceKind, ExecPool, OffloadConfig, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The service: 4 cores, 8 worker threads, one compression per
    // request, compression sizes skewed small.
    let granularity = GranularityCdf::from_points(vec![
        (64.0, 0.25),
        (256.0, 0.55),
        (1_024.0, 0.80),
        (4_096.0, 0.95),
        (16_384.0, 1.0),
    ])?;
    let cb = cycles_per_byte(4.0);
    let workload = WorkloadSpec {
        non_kernel_cycles: 12_000.0,
        kernels_per_request: 1,
        granularity: granularity.clone(),
        cycles_per_byte: cb,
    };
    // The device: A = 16 over PCIe (L = 2,000 cycles), one server.
    let overheads = OffloadOverheads::new(100.0, 2_000.0, 0.0, 1_200.0);
    let design = ThreadingDesign::SyncOs;
    let strategy = AccelerationStrategy::OffChip;

    // --- Model side -------------------------------------------------------
    let cost = KernelCost::linear(cb);
    let ctx = OffloadContext::new(overheads, 16.0, design, strategy);
    let breakeven = throughput_breakeven(&cost, &ctx);
    println!(
        "model break-even: offload when g >= {:.0} B",
        breakeven.threshold().expect("finite").get()
    );

    let alpha = workload.expected_alpha();
    let requests_per_second = 2.3e9 / workload.mean_request_cycles();
    let selection = select_lucrative(&granularity, requests_per_second, alpha, breakeven);
    let params = ModelParams::builder()
        .host_cycles(2.3e9)
        .kernel_fraction(selection.alpha)
        .offloads(selection.offloads)
        .overheads(overheads)
        .peak_speedup(16.0)
        .build()?;
    let model = estimate(&params, design, strategy, DriverMode::AwaitsAck);
    println!(
        "model estimate: {:+.2}% throughput, {:+.2}% latency ({}/{} offloads lucrative)",
        model.throughput_gain_percent(),
        model.latency_gain_percent(),
        selection.offloads.round(),
        requests_per_second.round(),
    );

    // --- Simulator side ---------------------------------------------------
    let control = SimConfig {
        cores: 4,
        threads: 8,
        context_switch_cycles: 1_200.0,
        horizon: 4e8,
        seed: 7,
        workload,
        offload: None,
        fault: Default::default(),
        recovery: Default::default(),
    };
    let offload = OffloadConfig {
        design,
        strategy,
        driver: DriverMode::AwaitsAck,
        device: DeviceKind::Shared { servers: 1 },
        peak_speedup: 16.0,
        interface_latency: 2_000.0,
        setup_cycles: 100.0,
        dispatch_pollution: 0.0,
        min_offload_bytes: breakeven.threshold().map(|b| b.get()),
    };
    // Both arms share one sampled request stream; one worker per arm.
    let ab = run_ab_batch(&ExecPool::new(2), &[(control, offload)])
        .expect("the example configs are valid")[0];
    println!(
        "simulated A/B:  {:+.2}% throughput, {:+.2}% mean latency",
        ab.speedup_percent(),
        (ab.latency_reduction() - 1.0) * 100.0
    );
    println!(
        "  treatment offloaded {} kernels, suppressed {} below break-even",
        ab.treatment.offloads_dispatched, ab.treatment.offloads_suppressed
    );
    println!(
        "  emergent device queue delay: {:.0} cycles (model assumed Q = 0)",
        ab.treatment.mean_queue_delay
    );
    println!(
        "  p99 latency: {:.0} -> {:.0} cycles",
        ab.baseline.latency.p99, ab.treatment.latency.p99
    );

    let gap = (model.throughput_gain_percent() - ab.speedup_percent()).abs();
    println!("\nmodel-vs-simulation gap: {gap:.2} points");
    println!("(the paper's production gaps were 1.7, 1.1, and 3.7 points)");
    Ok(())
}
