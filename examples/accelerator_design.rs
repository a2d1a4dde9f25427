//! Accelerator design-space exploration: an architect sizing an off-chip
//! compression ASIC for a feed-ranking service (§5's compression study).
//!
//! Questions this example answers with the model:
//! 1. What is the break-even offload granularity per threading design?
//! 2. How much of the ideal gain does each design realize?
//! 3. How slow may the PCIe interface get before the win evaporates?
//! 4. How does Accelerometer's answer differ from LogCA's (prior work)?
//!
//! Run with: `cargo run --example accelerator_design`

use accelerometer_suite::fleet::ServiceRegistry;
use accelerometer_suite::model::logca::LogCa;
use accelerometer_suite::model::sweep::{log_space, sweep, SweepAxis};
use accelerometer_suite::model::units::bytes;
use accelerometer_suite::model::{
    project, throughput_breakeven, BreakEven, Complexity, ModelParams, OffloadContext, Scenario,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rec = ServiceRegistry::builtin()
        .recommendation("Feed1: Compression")
        .ok_or("no Feed1 compression recommendation")?;
    println!("designing an off-chip compression accelerator for {}", rec.name);
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
            "  {:<18} {be_text:<18} speedup {:>5.2}%  ({:.0}% of ideal)",
            cfg.label,
            p.estimate.throughput_gain_percent(),
            p.efficiency_vs_ideal() * 100.0,
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
    for point in sweep(&scenario, SweepAxis::InterfaceLatency, &log_space(100.0, 100_000.0, 13))? {
        let gain = point.estimate.throughput_gain_percent();
        println!("  L = {:>9.0} cycles: {gain:>6.2}%", point.x);
        if gain >= 5.0 {
            max_tolerable = point.x;
        }
    }
    println!("  => the ASIC keeps a >=5% win up to L ~= {max_tolerable:.0} cycles");

    // 3. Prior-work comparison: LogCA models a single blocking offload,
    // so it agrees with Accelerometer's Sync break-even but cannot see
    // the Sync-OS/Async differences.
    let logca = LogCa {
        latency: accelerometer_suite::model::Cycles::new(2_300.0),
        overhead: accelerometer_suite::model::Cycles::new(0.0),
        computational_index: rec.profile.cost.cycles_per_byte,
        complexity: Complexity::LINEAR,
        acceleration: 27.0,
    };
    println!("\nLogCA view of the same device (single blocking offload):");
    println!("  g1 (break-even)      = {:.0} B", logca.g1().expect("A > 1").get());
    println!("  g_{{A/2}} (half peak)   = {:.0} B", logca.g_half().expect("A > 1").get());
    for g in [512.0, 4_096.0, 65_536.0] {
        println!("  speedup at g = {g:>6.0}: {:.2}x", logca.speedup(bytes(g)));
    }
    println!(
        "  LogCA sees a {:.0}x peak per offload, but only Accelerometer's\n  \
         threading-aware view shows Sync-OS collapsing to ~1.6% service-level gain.",
        logca.peak_bound()
    );
    Ok(())
}
