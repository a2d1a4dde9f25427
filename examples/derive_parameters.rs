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

use accelerometer_suite::kernels::aes::Aes128;
use accelerometer_suite::kernels::harness::{acceleration_factor, Harness};
use accelerometer_suite::kernels::{hash, lz};
use accelerometer_suite::model::{
    throughput_breakeven, AccelerationStrategy, BreakEven, OffloadContext, OffloadOverheads,
    ThreadingDesign,
};

const CLOCK_HZ: f64 = 2.0e9; // nominal 2 GHz host, matching the paper's C

fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| if i % 4 == 0 { (i / 4 % 251) as u8 } else { b'x' })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Harness::new(CLOCK_HZ);
    let data = payload(16 * 1024);

    // --- Step 1: measure Cb per kernel -----------------------------------
    println!("measured per-byte costs at a nominal {CLOCK_HZ:.1e} Hz clock:");
    let cipher = Aes128::new(&[7u8; 16]);
    let mut buf = data.clone();
    let aes = harness.measure(64, data.len() as u64, || {
        cipher.ctr_apply(&[1u8; 16], &mut buf)
    });
    println!("  aes-128-ctr : {:>7.2} cycles/B", aes.cycles_per_byte().get());

    let compress = harness.measure(64, data.len() as u64, || lz::compress(&data));
    println!("  lz compress : {:>7.2} cycles/B", compress.cycles_per_byte().get());

    let sha = harness.measure(64, data.len() as u64, || hash::sha256_scalar(&data));
    let sha_ni = harness.measure(64, data.len() as u64, || hash::sha256(&data));
    println!("  sha-256     : {:>7.2} cycles/B (scalar)", sha.cycles_per_byte().get());
    println!("  sha-256     : {:>7.2} cycles/B (dispatched)", sha_ni.cycles_per_byte().get());

    // --- Step 2: derive an A between two same-kernel implementations -----
    // The scalar SHA-256 is the host kernel; the dispatched one runs on
    // the SHA extensions where the host has them (A ~ 1 where it does
    // not). The ratio of their per-byte costs is A.
    let a_checksum = acceleration_factor(&sha, &sha_ni);
    println!("\nhashing accelerator: A = {a_checksum:.1} (scalar host vs dispatched tier)");

    // --- Step 3: break-even for that accelerator over PCIe ----------------
    let ctx = OffloadContext::new(
        OffloadOverheads::new(100.0, 2_000.0, 0.0, 0.0),
        a_checksum,
        ThreadingDesign::Sync,
        AccelerationStrategy::OffChip,
    );
    match throughput_breakeven(&sha.kernel_cost(), &ctx) {
        BreakEven::AtLeast(g) => {
            println!("  over PCIe (L = 2,000 cycles): lucrative when g >= {:.0} B", g.get());
        }
        BreakEven::Always => println!("  over PCIe: every offload lucrative"),
        BreakEven::Never => println!("  over PCIe: never lucrative"),
    }

    Ok(())
}
