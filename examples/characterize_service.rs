//! The §2 characterization pipeline end to end: sample call traces from
//! a service, tag leaves, bucket functionalities, and print the
//! breakdowns that motivate acceleration — then chase the biggest
//! orchestration overhead with a projection.
//!
//! Run with: `cargo run --example characterize_service [service]`

use accelerometer_suite::fleet::{profile, FunctionalityCategory, ServiceId};
use accelerometer_suite::model::{
    amdahl, AccelerationStrategy, ModelParams, Scenario, ThreadingDesign,
};
use accelerometer_suite::profiler::{ProfileAccumulator, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requested = std::env::args().nth(1).unwrap_or_else(|| "Web".to_owned());
    let service = ServiceId::ALL
        .into_iter()
        .find(|s| s.to_string().eq_ignore_ascii_case(&requested))
        .ok_or_else(|| format!("unknown service '{requested}'"))?;

    // Sample the service the way Strobelight does in production, folding
    // each sample into the running sums as it is drawn.
    let mut sampler = TraceGenerator::new(profile(service), 2_026);
    let mut sums = ProfileAccumulator::default();
    for _ in 0..80_000 {
        sums.push_sample(&sampler.draw());
    }
    let report = sums.finish();
    println!("{}", report.render());

    // Find the biggest orchestration overhead the profile exposes...
    let (target, share) = report
        .functionality
        .iter()
        .filter(|(c, _)| !c.is_core() && *c != FunctionalityCategory::Miscellaneous)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("services have orchestration work");
    println!("largest orchestration overhead: {target} at {share:.1}% of cycles");

    // ...and project accelerating it with a hypothetical 8x on-chip unit.
    let rates = profile(service).rates;
    let params = ModelParams::builder()
        .host_cycles(rates.host_cycles_per_second)
        .kernel_fraction(share / 100.0)
        .offloads(50_000.0)
        .peak_speedup(8.0)
        .build()?;
    let est = Scenario::new(params, ThreadingDesign::Sync, AccelerationStrategy::OnChip).estimate();
    println!(
        "an 8x on-chip accelerator for it projects {:+.2}% service throughput",
        est.throughput_gain_percent()
    );
    println!(
        "(ideal bound for that overhead: {:+.2}%)",
        (amdahl::ideal_speedup(share / 100.0) - 1.0) * 100.0
    );
    Ok(())
}
