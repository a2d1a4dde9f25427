//! The §4 parameter-derivation methodology, live: measure `Cb` for real
//! kernels on *this* machine with micro-benchmarks, derive an `A` from
//! two implementations of the same kernel, and feed the measured numbers
//! straight into the model's break-even analysis.
//!
//! This is the workflow the paper describes — "we measure model
//! parameters using... micro-benchmarks that measure execution time on
//! the host and the accelerator" — with this repository's own kernels as
//! the hosts. (Wall-clock measurements vary by machine; the printed
//! speedups will too. That's the point.)
//!
//! Run with: `cargo run --release --example derive_parameters`

use accelerometer_suite::model::{
    throughput_breakeven, AccelerationStrategy, BreakEven, KernelCost, OffloadContext,
    OffloadOverheads, ThreadingDesign,
};
use accelerometer_suite::sim::Calibrator;

const CLOCK_HZ: f64 = 2.0e9; // nominal 2 GHz host, matching the paper's C
const PAYLOAD: usize = 16 * 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 timer reads of 8 calls each, per kernel and ISA tier.
    let calibrator = Calibrator::new(CLOCK_HZ, 8, 8);

    // --- Step 1: measure Cb per kernel -----------------------------------
    println!("measured per-byte costs at a nominal {CLOCK_HZ:.1e} Hz clock:");
    let aes = calibrator.encryption_paired(PAYLOAD);
    println!(
        "  aes-128-ctr : {:>7.2} cycles/B",
        aes.dispatched.cycles_per_byte().get()
    );
    let compress = calibrator.compression_paired(PAYLOAD);
    println!(
        "  lz compress : {:>7.2} cycles/B",
        compress.dispatched.cycles_per_byte().get()
    );
    let sha = calibrator.hashing_paired(PAYLOAD);
    println!(
        "  sha-256     : {:>7.2} cycles/B (scalar)",
        sha.scalar.cycles_per_byte().get()
    );
    println!(
        "  sha-256     : {:>7.2} cycles/B (dispatched)",
        sha.dispatched.cycles_per_byte().get()
    );

    // --- Step 2: derive an A between two same-kernel implementations -----
    // The scalar SHA-256 is the host kernel; the dispatched one runs on
    // the SHA extensions where the host has them (A ~ 1 where it does
    // not). The ratio of their per-byte costs is A.
    let a_checksum = sha.acceleration_factor();
    println!("\nhashing accelerator: A = {a_checksum:.1} (scalar host vs dispatched tier)");

    // --- Step 3: break-even for that accelerator over PCIe ----------------
    let ctx = OffloadContext::new(
        OffloadOverheads::new(100.0, 2_000.0, 0.0, 0.0),
        a_checksum,
        ThreadingDesign::Sync,
        AccelerationStrategy::OffChip,
    );
    let host_cost = KernelCost::linear(sha.scalar.cycles_per_byte());
    match throughput_breakeven(&host_cost, &ctx) {
        BreakEven::AtLeast(g) => {
            println!(
                "  over PCIe (L = 2,000 cycles): lucrative when g >= {:.0} B",
                g.get()
            );
        }
        BreakEven::Always => println!("  over PCIe: every offload lucrative"),
        BreakEven::Never => println!("  over PCIe: never lucrative"),
    }

    Ok(())
}
