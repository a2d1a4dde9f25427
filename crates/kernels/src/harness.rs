//! The parameter-measurement harness: §4's methodology for deriving
//! model parameters from micro-benchmarks.
//!
//! The paper measures `Cb` (host cycles per byte), `A` (the accelerator's
//! peak speedup, as the ratio of host to accelerator per-byte cost), and
//! `o0`/`L` from micro-benchmarks plus specification sheets. This module
//! provides the timing harness: run a kernel over a known byte volume in
//! batches, convert elapsed wall time to cycles at the host's nominal
//! frequency, and report `Cb`. The calibrator in `accelerometer-sim`
//! times each kernel on both ISA tiers with it; the ratio of the two
//! `Cb`s is `A`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use accelerometer::units::CyclesPerByte;

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

    /// Measures two sides of a kernel in alternating batches:
    /// `batch_size` invocations of `first(state)` or `second(state)` per
    /// timer read, `batches` timer reads per side, charging
    /// `bytes_per_invocation` bytes to each invocation. Returns the
    /// first side's measurement, then the second's. Amortizing the clock
    /// read over a batch keeps timer overhead out of the measured kernel
    /// cost — the same trick the criterion harness uses for warm-up —
    /// which matters for kernels whose per-call cost is within an order
    /// of magnitude of `Instant::now()` itself. The sides take turns
    /// batch by batch, and which side goes first alternates too (first
    /// second, second first, first second, …), so neither pays the
    /// warm-up or rides a frequency or scheduler drift alone. Both sides
    /// work on the one `state` (buffers, scratch). Each kernel's return
    /// value is passed through [`black_box`] so the work is not
    /// optimized away.
    pub fn measure_paired<S, T, U>(
        &self,
        batches: u64,
        batch_size: u64,
        bytes_per_invocation: u64,
        state: &mut S,
        mut first: impl FnMut(&mut S) -> T,
        mut second: impl FnMut(&mut S) -> U,
    ) -> [BatchedMeasurement; 2] {
        let mut elapsed = [Duration::ZERO; 2];
        for batch in 0..batches {
            let order = if batch % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let start = Instant::now();
                if side == 0 {
                    for _ in 0..batch_size {
                        black_box(first(state));
                    }
                } else {
                    for _ in 0..batch_size {
                        black_box(second(state));
                    }
                }
                elapsed[side] += start.elapsed();
            }
        }
        elapsed.map(|elapsed| BatchedMeasurement {
            batches,
            batch_size,
            bytes_processed: batches * batch_size * bytes_per_invocation,
            elapsed,
            clock_hz: self.clock_hz,
        })
    }
}

/// A completed batched measurement: `batch_size` kernel invocations per
/// timer read (see [`Harness::measure_paired`]).
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
    /// `Cb`: host cycles at the nominal clock per byte processed.
    #[must_use]
    pub fn cycles_per_byte(&self) -> CyclesPerByte {
        let cycles = self.elapsed.as_secs_f64() * self.clock_hz;
        CyclesPerByte::new(cycles / self.bytes_processed.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_measurement_arithmetic() {
        // 4 batches × 250 invocations × 100 B in 50 µs at 2 GHz = 100k
        // cycles over 100 kB.
        let m = BatchedMeasurement {
            batches: 4,
            batch_size: 250,
            bytes_processed: 100_000,
            elapsed: Duration::from_micros(50),
            clock_hz: 2.0e9,
        };
        assert!((m.cycles_per_byte().get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn live_measurement_produces_positive_costs() {
        let h = Harness::new(2.0e9);
        let data = vec![0x5Au8; 512];
        let pair = h.measure_paired(
            4,
            25,
            512,
            &mut (),
            |()| crate::hash::sha256(&data),
            |()| crate::hash::sha256_scalar(&data),
        );
        for m in pair {
            assert_eq!(m.batches, 4);
            assert_eq!(m.batch_size, 25);
            assert_eq!(m.bytes_processed, 4 * 25 * 512);
            assert!(m.elapsed > Duration::ZERO);
            assert!(m.cycles_per_byte().get() > 0.0);
        }
    }

    #[test]
    fn sides_alternate_batch_by_batch() {
        // 3 batches of 2 calls per side: 0 0 1 1 | 1 1 0 0 | 0 0 1 1.
        let mut calls = Vec::new();
        let pair = Harness::new(1.0e9).measure_paired(
            3,
            2,
            1,
            &mut calls,
            |calls| calls.push(0),
            |calls| calls.push(1),
        );
        assert_eq!(calls, [0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1]);
        assert!(pair.iter().all(|m| m.bytes_processed == 6));
    }

    #[test]
    fn zero_guards() {
        let m = BatchedMeasurement {
            batches: 0,
            batch_size: 0,
            bytes_processed: 0,
            elapsed: Duration::from_nanos(10),
            clock_hz: 1.0e9,
        };
        // Division guard: no NaN/inf from zero bytes.
        assert!(m.cycles_per_byte().get().is_finite());
    }

    #[test]
    #[should_panic(expected = "clock must be positive")]
    fn rejects_bad_clock() {
        let _ = Harness::new(0.0);
    }
}
