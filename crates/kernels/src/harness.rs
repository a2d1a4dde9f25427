//! The parameter-measurement harness: §4's methodology for deriving
//! model parameters from micro-benchmarks.
//!
//! The paper measures `Cb` (host cycles per byte), `A` (the accelerator's
//! peak speedup, as the ratio of host to accelerator per-byte cost), and
//! `o0`/`L` from micro-benchmarks plus specification sheets. This module
//! provides the timing harness: run a kernel over a known byte volume,
//! convert elapsed wall time to cycles at the host's nominal frequency,
//! and report [`accelerometer`] model inputs directly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use accelerometer::units::CyclesPerByte;
use accelerometer::{Complexity, KernelCost};

/// A completed kernel measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMeasurement {
    /// Total bytes the kernel processed.
    pub bytes_processed: u64,
    /// Total invocations.
    pub invocations: u64,
    /// Elapsed wall time.
    pub elapsed: Duration,
    /// The nominal host clock used to convert time to cycles (Hz).
    pub clock_hz: f64,
}

impl KernelMeasurement {
    /// Total host cycles at the nominal clock.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.elapsed.as_secs_f64() * self.clock_hz
    }

    /// `Cb`: host cycles per byte.
    #[must_use]
    pub fn cycles_per_byte(&self) -> CyclesPerByte {
        CyclesPerByte::new(self.cycles() / self.bytes_processed.max(1) as f64)
    }

    /// Packages the measurement as a linear-complexity [`KernelCost`]
    /// ready for break-even analysis.
    #[must_use]
    pub fn kernel_cost(&self) -> KernelCost {
        KernelCost {
            cycles_per_byte: self.cycles_per_byte(),
            complexity: Complexity::LINEAR,
        }
    }
}

/// The micro-benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harness {
    clock_hz: f64,
}

impl Harness {
    /// Creates a harness converting wall time to cycles at `clock_hz`
    /// (e.g. `2.0e9` to mirror the paper's 2 GHz busy frequency).
    ///
    /// # Panics
    ///
    /// Panics unless `clock_hz` is positive and finite.
    #[must_use]
    pub fn new(clock_hz: f64) -> Self {
        assert!(
            clock_hz.is_finite() && clock_hz > 0.0,
            "clock must be positive"
        );
        Self { clock_hz }
    }

    /// The configured clock in Hz.
    #[must_use]
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Measures a kernel: invokes `kernel` once per iteration, charging
    /// `bytes_per_invocation` bytes to each. The kernel's return value is
    /// passed through [`black_box`] so the work is not optimized away.
    pub fn measure<T>(
        &self,
        invocations: u64,
        bytes_per_invocation: u64,
        mut kernel: impl FnMut() -> T,
    ) -> KernelMeasurement {
        let start = Instant::now();
        for _ in 0..invocations {
            black_box(kernel());
        }
        let elapsed = start.elapsed();
        KernelMeasurement {
            bytes_processed: invocations * bytes_per_invocation,
            invocations,
            elapsed,
            clock_hz: self.clock_hz,
        }
    }

    /// Measures a kernel in batches: `batch_size` invocations per timer
    /// read, `batches` timer reads. Amortizing the clock read over a
    /// batch keeps timer overhead out of the measured kernel cost — the
    /// same trick the criterion harness uses for warm-up — which matters
    /// for kernels whose per-call cost is within an order of magnitude
    /// of `Instant::now()` itself.
    pub fn measure_batched<T>(
        &self,
        batches: u64,
        batch_size: u64,
        bytes_per_invocation: u64,
        mut kernel: impl FnMut() -> T,
    ) -> BatchedMeasurement {
        let mut elapsed = Duration::ZERO;
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..batch_size {
                black_box(kernel());
            }
            elapsed += start.elapsed();
        }
        BatchedMeasurement {
            batches,
            batch_size,
            bytes_processed: batches * batch_size * bytes_per_invocation,
            elapsed,
            clock_hz: self.clock_hz,
        }
    }
}

/// A completed batched measurement: `batch_size` kernel invocations per
/// timer read (see [`Harness::measure_batched`]).
///
/// Reports both granularities the model calibrates against: per-call
/// cost (the `α·C` of one kernel execution) and per-batch cost (the
/// granularity an offload dispatches at when invocations are batched to
/// amortize the interface cost, as in the paper's Fig. 14 study).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedMeasurement {
    /// Number of timer reads (batches).
    pub batches: u64,
    /// Kernel invocations per batch.
    pub batch_size: u64,
    /// Total bytes the kernel processed.
    pub bytes_processed: u64,
    /// Elapsed wall time summed across batches.
    pub elapsed: Duration,
    /// The nominal host clock used to convert time to cycles (Hz).
    pub clock_hz: f64,
}

impl BatchedMeasurement {
    /// Total host cycles at the nominal clock.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.elapsed.as_secs_f64() * self.clock_hz
    }

    /// Cycles per kernel invocation.
    #[must_use]
    pub fn cycles_per_call(&self) -> f64 {
        self.cycles() / (self.batches * self.batch_size).max(1) as f64
    }

    /// Cycles per batch of `batch_size` invocations.
    #[must_use]
    pub fn cycles_per_batch(&self) -> f64 {
        self.cycles() / self.batches.max(1) as f64
    }

    /// The measurement viewed per-call, for the same downstream
    /// arithmetic (`Cb`, [`KernelCost`]) as [`Harness::measure`].
    #[must_use]
    pub fn per_call(&self) -> KernelMeasurement {
        KernelMeasurement {
            bytes_processed: self.bytes_processed,
            invocations: self.batches * self.batch_size,
            elapsed: self.elapsed,
            clock_hz: self.clock_hz,
        }
    }
}

/// `A`: the peak acceleration factor between a baseline and an
/// accelerated implementation of the same kernel — the ratio of their
/// per-byte costs.
#[must_use]
pub fn acceleration_factor(baseline: &KernelMeasurement, accelerated: &KernelMeasurement) -> f64 {
    baseline.cycles_per_byte().get() / accelerated.cycles_per_byte().get()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement of `invocations` calls over `bytes_per_invocation`
    /// bytes each that took `elapsed`.
    fn measured(
        clock_hz: f64,
        invocations: u64,
        bytes_per_invocation: u64,
        elapsed: Duration,
    ) -> KernelMeasurement {
        KernelMeasurement {
            bytes_processed: invocations * bytes_per_invocation,
            invocations,
            elapsed,
            clock_hz,
        }
    }

    #[test]
    fn synthetic_measurement_arithmetic() {
        // 1000 invocations × 100 B in 50 µs at 2 GHz = 100k cycles.
        let m = measured(2.0e9, 1000, 100, Duration::from_micros(50));
        assert_eq!(m.bytes_processed, 100_000);
        assert!((m.cycles() - 100_000.0).abs() < 1.0);
        assert!((m.cycles_per_byte().get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn acceleration_factor_is_cost_ratio() {
        let slow = measured(2.0e9, 100, 1000, Duration::from_millis(6));
        let fast = measured(2.0e9, 100, 1000, Duration::from_millis(1));
        assert!((acceleration_factor(&slow, &fast) - 6.0).abs() < 1e-9);
        assert!((acceleration_factor(&fast, &slow) - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_cost_feeds_breakeven() {
        use accelerometer::units::bytes;
        let m = measured(2.0e9, 1, 1000, Duration::from_nanos(2810)); // 5.62 cyc/B
        let cost = m.kernel_cost();
        assert!((cost.cycles_per_byte.get() - 5.62).abs() < 0.01);
        assert!((cost.host_cycles(bytes(425.0)).get() - 5.62 * 425.0).abs() < 5.0);
    }

    #[test]
    fn live_measurement_produces_positive_costs() {
        let h = Harness::new(2.0e9);
        let data = vec![0xA5u8; 4096];
        let m = h.measure(50, 4096, || crate::hash::sha256(&data));
        assert_eq!(m.invocations, 50);
        assert_eq!(m.bytes_processed, 50 * 4096);
        assert!(m.elapsed > Duration::ZERO);
        assert!(m.cycles_per_byte().get() > 0.0);
    }

    #[test]
    fn batched_measurement_arithmetic() {
        let h = Harness::new(2.0e9);
        let data = vec![0x5Au8; 512];
        let m = h.measure_batched(4, 25, 512, || crate::hash::sha256(&data));
        assert_eq!(m.batches, 4);
        assert_eq!(m.batch_size, 25);
        assert_eq!(m.bytes_processed, 4 * 25 * 512);
        assert!(m.elapsed > Duration::ZERO);
        // Per-batch cost is batch_size × per-call cost, by construction.
        assert!((m.cycles_per_batch() - 25.0 * m.cycles_per_call()).abs() < 1e-6);
        // The per-call view feeds the same downstream arithmetic.
        let per_call = m.per_call();
        assert_eq!(per_call.invocations, 100);
        assert_eq!(per_call.bytes_processed, m.bytes_processed);
        assert!(per_call.cycles_per_byte().get() > 0.0);
    }

    #[test]
    fn batched_zero_guards() {
        let m = BatchedMeasurement {
            batches: 0,
            batch_size: 0,
            bytes_processed: 0,
            elapsed: Duration::from_nanos(10),
            clock_hz: 1.0e9,
        };
        assert!(m.cycles_per_call().is_finite());
        assert!(m.cycles_per_batch().is_finite());
    }

    #[test]
    fn zero_guards() {
        let m = measured(1.0e9, 0, 0, Duration::from_nanos(10));
        // Division guard: no NaN/inf from zero bytes.
        assert!(m.cycles_per_byte().get().is_finite());
    }

    #[test]
    #[should_panic(expected = "clock must be positive")]
    fn rejects_bad_clock() {
        let _ = Harness::new(0.0);
    }
}
