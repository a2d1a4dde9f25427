//! Kernel-cost calibration: measure this host's actual per-byte kernel
//! costs with the batched harness.
//!
//! §4 derives each case study's host cost `α·C` from micro-benchmarks
//! on production hardware; this module is the reproduction's equivalent
//! call site. Each case-study kernel (AES-CTR encryption, LZ
//! compression, SHA-256 hashing, batched MLP inference) is run through
//! [`Harness::measure_paired`] using its allocation-free scratch-reuse
//! path, so the measured cycles are the kernel's — not the allocator's
//! or the timer's. The measured `Cb` is what a
//! [`WorkloadSpec`](crate::workload::WorkloadSpec)'s `cycles_per_byte`
//! assumes.
//!
//! Every kernel is measured as a [`PairedKernel`]: once through its
//! default entry point, which runs what the host hardware offers
//! (AES-NI, SHA-NI, AVX2 where present), and once through its public
//! `*_scalar` reference in the same session, the two taking turns batch
//! by batch so neither side alone pays the warm-up. The ratio is an
//! honestly *measured* acceleration factor `A` — the quantity the
//! paper's AES-NI case study models — instead of an assumed one. Both
//! tiers produce bit-identical outputs, so the pair differs only in
//! wall-clock. The calibrator never changes the process's dispatch
//! mode; each side picks its tier by the entry point it calls.

use accelerometer::units::CyclesPerByte;
use accelerometer_kernels::aes::Aes128;
use accelerometer_kernels::harness::{BatchedMeasurement, Harness};
use accelerometer_kernels::hash;
use accelerometer_kernels::lz::{self, LzScratch};
use accelerometer_kernels::mlp::{Mlp, MlpScratch};

/// One calibrated kernel: a batched measurement and the per-byte cost
/// it yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedKernel {
    /// Kernel name (matches the case-study kernel it calibrates).
    pub name: &'static str,
    /// Bytes each invocation processed.
    pub bytes_per_call: u64,
    /// The raw batched measurement.
    pub measurement: BatchedMeasurement,
}

impl CalibratedKernel {
    /// Measured host cycles per byte (`Cb`).
    #[must_use]
    pub fn cycles_per_byte(&self) -> CyclesPerByte {
        self.measurement.cycles_per_byte()
    }
}

/// One kernel measured on both ISA tiers in the same session: the
/// dispatched path (whatever the host exposes) and the scalar reference
/// path, via the kernels' public `*_scalar` entry points. The ratio is
/// the *measured* acceleration factor `A` of the paper's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedKernel {
    /// Measured through the default (dispatched) entry point.
    pub dispatched: CalibratedKernel,
    /// Measured through the scalar reference entry point.
    pub scalar: CalibratedKernel,
}

impl PairedKernel {
    /// Measured acceleration factor: scalar `Cb` over dispatched `Cb`.
    /// Greater than 1 when the hardware path wins; honestly below 1
    /// when it loses (both happen — see EXPERIMENTS.md).
    #[must_use]
    pub fn acceleration_factor(&self) -> f64 {
        self.scalar.cycles_per_byte().get() / self.dispatched.cycles_per_byte().get()
    }
}

/// Runs the case-study kernels through the batched harness.
#[derive(Debug, Clone, Copy)]
pub struct Calibrator {
    harness: Harness,
    /// Timer reads per kernel.
    batches: u64,
    /// Kernel invocations per timer read.
    batch_size: u64,
}

impl Calibrator {
    /// Creates a calibrator timing at `clock_hz` with the given batch
    /// shape. Larger `batch_size` amortizes the timer read further;
    /// larger `batches` averages over more scheduler noise.
    ///
    /// # Panics
    ///
    /// Panics unless `clock_hz` is positive and finite (see
    /// [`Harness::new`]).
    #[must_use]
    pub fn new(clock_hz: f64, batches: u64, batch_size: u64) -> Self {
        Self {
            harness: Harness::new(clock_hz),
            batches,
            batch_size,
        }
    }

    /// Times both tiers of a kernel through the harness in alternating
    /// batches, on the one `state` (buffers, scratch), so the pair
    /// differs only in the entry point each closure calls.
    fn measure<S, T>(
        &self,
        name: &'static str,
        bytes_per_call: u64,
        state: &mut S,
        dispatched: impl FnMut(&mut S) -> T,
        scalar: impl FnMut(&mut S) -> T,
    ) -> PairedKernel {
        let [dispatched, scalar] = self
            .harness
            .measure_paired(
                self.batches,
                self.batch_size,
                bytes_per_call,
                state,
                dispatched,
                scalar,
            )
            .map(|measurement| CalibratedKernel {
                name,
                bytes_per_call,
                measurement,
            });
        PairedKernel { dispatched, scalar }
    }

    /// AES-128-CTR over a `payload_bytes` message, the encryption
    /// kernel of case studies 1 and 2 (AES-NI, PCIe crypto), on both
    /// tiers: `ctr_apply` vs `ctr_apply_scalar`, same buffer and driver.
    /// The dispatched side is AES-NI where the host has it — the
    /// measured version of the paper's AES-NI case-study `A`.
    #[must_use]
    pub fn encryption_paired(&self, payload_bytes: usize) -> PairedKernel {
        let cipher = Aes128::new(&[0x42u8; 16]);
        let mut buf = vec![0xA5u8; payload_bytes];
        let bytes = payload_bytes as u64;
        self.measure(
            "encryption",
            bytes,
            &mut buf,
            |buf| cipher.ctr_apply(&[7u8; 16], buf),
            |buf| cipher.ctr_apply_scalar(&[7u8; 16], buf),
        )
    }

    /// SHA-256 over a `payload_bytes` message, the hashing kernel
    /// (Table 2's SHA family), on both tiers through the one padding
    /// driver (`sha256` vs `sha256_scalar`): SHA-NI where the host has
    /// it.
    #[must_use]
    pub fn hashing_paired(&self, payload_bytes: usize) -> PairedKernel {
        let input = vec![0x5Au8; payload_bytes];
        let bytes = payload_bytes as u64;
        self.measure(
            "hashing",
            bytes,
            &mut (),
            |()| hash::sha256(&input),
            |()| hash::sha256_scalar(&input),
        )
    }

    /// LZ compression of a mildly compressible `payload_bytes` message,
    /// the compression kernel, on both tiers through the identical
    /// scratch-reuse driver (`compress_into` vs `compress_into_scalar`),
    /// so the pair differs only in the match kernel.
    #[must_use]
    pub fn compression_paired(&self, payload_bytes: usize) -> PairedKernel {
        let input: Vec<u8> = (0..payload_bytes)
            .map(|i| match i % 16 {
                0..=7 => b'a' + (i % 8) as u8,
                8..=11 => (i / 16 % 251) as u8,
                _ => 0,
            })
            .collect();
        let bytes = payload_bytes as u64;
        self.measure(
            "compression",
            bytes,
            &mut (LzScratch::new(), Vec::new()),
            |(scratch, out)| lz::compress_into(&input, scratch, out),
            |(scratch, out)| lz::compress_into_scalar(&input, scratch, out),
        )
    }

    /// Batched MLP inference at batch size `b` on a Feed-shaped ranker,
    /// the remote-inference kernel of case study 3, on both tiers
    /// (`forward_batch` vs `forward_batch_scalar`, same batch and
    /// scratch). One harness invocation is one *batch* of `b` inputs
    /// (the unit Ads1 dispatches); bytes are the batch's feature
    /// payload.
    #[must_use]
    pub fn inference_paired(&self, mlp: &Mlp, b: usize) -> PairedKernel {
        let width = mlp.input_width();
        let batch: Vec<Vec<f32>> = (0..b)
            .map(|i| {
                (0..width)
                    .map(|j| (i * width + j) as f32 / 8192.0)
                    .collect()
            })
            .collect();
        let bytes = (b * width * std::mem::size_of::<f32>()) as u64;
        self.measure(
            "inference",
            bytes,
            &mut (MlpScratch::new(), Vec::new()),
            |(scratch, out)| {
                mlp.forward_batch(&batch, scratch, out)
                    .expect("widths match")
            },
            |(scratch, out)| {
                mlp.forward_batch_scalar(&batch, scratch, out)
                    .expect("widths match")
            },
        )
    }

    /// Measured acceleration factors for every case-study kernel family
    /// in one session, at representative sizes: 4 KiB payloads for
    /// encryption, compression and hashing, a 512×256×64×1 ranker at
    /// B=16 for inference.
    #[must_use]
    pub fn paired_case_studies(&self) -> Vec<PairedKernel> {
        let mlp = Mlp::seeded_ranker(&[512, 256, 64, 1], 42);
        vec![
            self.encryption_paired(4096),
            self.compression_paired(4096),
            self.hashing_paired(4096),
            self.inference_paired(&mlp, 16),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Calibrator {
        // Tiny batch shape: correctness of the plumbing, not statistics.
        Calibrator::new(2.0e9, 2, 3)
    }

    #[test]
    fn all_case_study_kernels_calibrate() {
        for pair in quick().paired_case_studies() {
            for k in [pair.dispatched, pair.scalar] {
                assert!(k.cycles_per_byte().get() > 0.0, "{}", k.name);
                assert_eq!(k.measurement.batches, 2);
                assert_eq!(k.measurement.batch_size, 3);
                assert_eq!(
                    k.measurement.bytes_processed,
                    6 * k.bytes_per_call,
                    "{}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn hashing_calibration_is_positive() {
        let k = quick().hashing_paired(2048).dispatched;
        assert_eq!(k.bytes_per_call, 2048);
        assert!(k.cycles_per_byte().get() > 0.0);
    }

    #[test]
    fn paired_calibration_measures_both_tiers() {
        // Plumbing, not statistics: both sides measured, factor finite
        // and positive. Whether it exceeds 1 is timing-dependent at
        // this tiny batch shape, so no threshold is asserted here —
        // BENCH_kernels.json records the real paired medians.
        for pair in quick().paired_case_studies() {
            assert_eq!(pair.dispatched.name, pair.scalar.name);
            assert_eq!(pair.dispatched.bytes_per_call, pair.scalar.bytes_per_call);
            assert!(
                pair.dispatched.cycles_per_byte().get() > 0.0,
                "{}",
                pair.dispatched.name
            );
            assert!(
                pair.scalar.cycles_per_byte().get() > 0.0,
                "{}",
                pair.scalar.name
            );
            let a = pair.acceleration_factor();
            assert!(
                a.is_finite() && a > 0.0,
                "{}: A = {a}",
                pair.dispatched.name
            );
        }
    }
}
