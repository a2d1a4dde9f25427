//! Accelerator design-space exploration: an architect sizing an off-chip
//! compression ASIC for a feed-ranking service (§5's compression study).
//!
//! Questions this example answers with the model:
//! 1. What is the break-even offload granularity per threading design?
//! 2. How far is each design's gain from the ideal bound?
//! 3. How slow may the PCIe interface get before the win evaporates?
//!
//! Run with: `cargo run --example accelerator_design`

use accelerometer_suite::fleet::ServiceRegistry;
use accelerometer_suite::model::sweep::{log_space, sweep, SweepAxis};
use accelerometer_suite::model::{
    project, throughput_breakeven, BreakEven, ModelParams, OffloadContext, Scenario,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rec = ServiceRegistry::builtin()
        .recommendation("Feed1: Compression")
        .ok_or("no Feed1 compression recommendation")?;
    println!(
        "designing an off-chip compression accelerator for {}",
        rec.name
    );
    println!(
        "workload: {} compressions/s, alpha = {:.2}, Cb = {} cycles/B\n",
        rec.profile.total_offloads,
        rec.profile.kernel_fraction,
        rec.profile.cost.cycles_per_byte.get()
    );

    // 1. Break-even granularity per threading design.
    println!("break-even granularity and realized gain per design:");
    for cfg in &rec.configs {
        let ctx = OffloadContext::new(
            cfg.accelerator.overheads,
            cfg.accelerator.peak_speedup,
            cfg.design,
            cfg.accelerator.strategy,
        );
        let be = throughput_breakeven(&rec.profile.cost, &ctx);
        let be_text = match be {
            BreakEven::AtLeast(g) => format!("g >= {:.0} B", g.get()),
            BreakEven::Always => "always lucrative".to_owned(),
            BreakEven::Never => "never lucrative".to_owned(),
        };
        let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy)?;
        println!(
            "  {:<18} {be_text:<18} speedup {:>5.2}%  (ideal {:.2}%)",
            cfg.label,
            p.estimate.throughput_gain_percent(),
            (p.ideal_speedup - 1.0) * 100.0,
        );
    }

    // 2. Interface-latency tolerance: sweep L for the Sync design and
    // find where the speedup drops below 5%.
    let sync = &rec.configs[1];
    let p = project(&rec.profile, &sync.accelerator, sync.design, sync.policy)?;
    let params = ModelParams::builder()
        .host_cycles(rec.profile.total_cycles.get())
        .kernel_fraction(p.selection.alpha)
        .offloads(p.selection.offloads)
        .overheads(sync.accelerator.overheads)
        .peak_speedup(sync.accelerator.peak_speedup)
        .build()?;
    let scenario = Scenario::new(params, sync.design, sync.accelerator.strategy);
    println!("\ninterface-latency sweep (off-chip Sync):");
    let mut max_tolerable = 0.0;
    for point in sweep(
        &scenario,
        SweepAxis::InterfaceLatency,
        &log_space(100.0, 100_000.0, 13),
    )? {
        let gain = point.estimate.throughput_gain_percent();
        println!("  L = {:>9.0} cycles: {gain:>6.2}%", point.x);
        if gain >= 5.0 {
            max_tolerable = point.x;
        }
    }
    println!("  => the ASIC keeps a >=5% win up to L ~= {max_tolerable:.0} cycles");
    Ok(())
}
