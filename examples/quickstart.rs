//! Quickstart: estimate speedup from hardware acceleration the way §4's
//! first case study does — Intel AES-NI accelerating a caching
//! microservice's encryption.
//!
//! Run with: `cargo run --example quickstart`

use accelerometer_suite::model::{AccelerationStrategy, ModelParams, Scenario, ThreadingDesign};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1 (§4 methodology): gather the model parameters. These are the
    // exact Table 6 values for the AES-NI case study.
    let params = ModelParams::builder()
        .host_cycles(2.0e9) // C: one second at the host's busy frequency
        .kernel_fraction(0.165844) // α: encryption's share of host cycles
        .offloads(298_951.0) // n: lucrative encryptions per second
        .setup_cycles(10.0) // o0: register setup for the instruction
        .interface_cycles(3.0) // L: operand movement
        .peak_speedup(6.0) // A: AES-NI vs software AES
        .build()?;

    // Step 2: pick the threading design and strategy. Cache1 runs one
    // thread per core and the AES-NI instruction executes synchronously
    // on the core itself.
    let scenario = Scenario::new(params, ThreadingDesign::Sync, AccelerationStrategy::OnChip);

    // Step 3: evaluate.
    let est = scenario.estimate();
    println!("AES-NI for Cache1 (Table 6, row 1)");
    println!(
        "  throughput speedup : {:.4}x ({:+.1}%)",
        est.throughput_speedup,
        est.throughput_gain_percent()
    );
    println!(
        "  latency reduction  : {:.4}x ({:+.1}%)",
        est.latency_reduction,
        est.latency_gain_percent()
    );
    println!(
        "  host cycles freed  : {:.1}% of the machine",
        est.freed_cycle_fraction(&params) * 100.0
    );
    println!("  paper reported     : estimated 15.7%, measured 14% in production");
    Ok(())
}
