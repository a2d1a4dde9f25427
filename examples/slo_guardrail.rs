//! SLO guardrails and bound diagnostics: the operator-side workflow §3
//! motivates — "service operators can use the latency reduction equation
//! to ensure that the latency SLO is not violated."
//!
//! Scenario: a team wants to move compression to a shared PCIe device
//! with Sync-OS threading. Throughput looks good; does the SLO survive,
//! and what actually bounds the design?
//!
//! Run with: `cargo run --example slo_guardrail`

use accelerometer_suite::model::slo::{
    gains_throughput_but_slows_requests, max_interface_latency, max_offload_rate, min_peak_speedup,
};
use accelerometer_suite::model::{
    diagnose, AccelerationStrategy, LatencySlo, ModelParams, Scenario, ThreadingDesign,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The candidate design: 12% of cycles in compression, 20k offloads/s,
    // a PCIe device (L = 2,500 cycles) with A = 20, Sync-OS threading
    // with 6,000-cycle switches (µs-scale service, cold caches).
    let params = ModelParams::builder()
        .host_cycles(2.3e9)
        .kernel_fraction(0.12)
        .offloads(20_000.0)
        .interface_cycles(2_500.0)
        .thread_switch_cycles(6_000.0)
        .peak_speedup(20.0)
        .build()?;
    let scenario = Scenario::new(
        params,
        ThreadingDesign::SyncOs,
        AccelerationStrategy::OffChip,
    );
    let est = scenario.estimate();
    println!("candidate: off-chip compression, Sync-OS threading");
    println!(
        "  throughput {:+.2}%   per-request latency {:+.2}%",
        est.throughput_gain_percent(),
        est.latency_gain_percent()
    );
    if gains_throughput_but_slows_requests(&scenario) {
        println!("  !! the design gains QPS while slowing individual requests");
    }

    // Guardrails for a "do no harm" latency SLO.
    let slo = LatencySlo::at_least(1.0)?;
    println!("\nguardrails for a no-regression latency SLO:");
    match max_interface_latency(&scenario, slo) {
        Some(l) => println!("  max tolerable L : {:.0} cycles", l.get()),
        None => println!("  max tolerable L : infeasible at any L >= 0"),
    }
    match max_offload_rate(&scenario, slo) {
        Some(n) if n.is_finite() => println!("  max offload rate: {n:.0} per second"),
        Some(_) => println!("  max offload rate: unbounded"),
        None => println!("  max offload rate: infeasible even at n = 0"),
    }
    match min_peak_speedup(&scenario, slo) {
        Some(a) => println!("  min device A    : {a:.2}"),
        None => println!("  min device A    : no finite A meets the SLO"),
    }

    // Why is the design capped? Decompose the cycle budget.
    println!("\nbound diagnosis:");
    print!("{}", diagnose(&scenario).render());

    // The diagnosis points at thread switches; try the async alternative.
    let async_scenario = Scenario::new(
        params,
        ThreadingDesign::AsyncSameThread,
        AccelerationStrategy::OffChip,
    );
    let async_est = async_scenario.estimate();
    println!("\nasync same-thread alternative:");
    println!(
        "  throughput {:+.2}%   per-request latency {:+.2}%",
        async_est.throughput_gain_percent(),
        async_est.latency_gain_percent()
    );
    print!("{}", diagnose(&async_scenario).render());
    Ok(())
}
