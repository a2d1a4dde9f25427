//! Break-even offload granularities (eqns 2, 4 and 7).
//!
//! Not every offload is worth dispatching: for very small granularities
//! the dispatch overheads dominate the cycles saved. The paper assumes
//! software can *selectively* offload only the lucrative granularities
//! (§4, validation methodology), so determining the break-even `g` is the
//! first step of every case study and every Fig. 20 projection — e.g.
//! off-chip synchronous compression for Feed1 only pays off at
//! `g ≥ 425 B`.

use serde::{Deserialize, Serialize};

use crate::complexity::KernelCost;
use crate::model::{throughput_overhead_per_offload, DriverMode};
use crate::params::OffloadOverheads;
use crate::strategy::AccelerationStrategy;
use crate::threading::ThreadingDesign;
use crate::units::Bytes;

/// The minimum lucrative offload granularity, or the reason none exists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BreakEven {
    /// Offloads of more than this many bytes are profitable; one of
    /// exactly this size only breaks even.
    AtLeast(Bytes),
    /// Every offload is profitable (zero effective overhead and `A > 1`).
    Always,
    /// No granularity is profitable (e.g. `A = 1` with the accelerator on
    /// the critical path: the offload can never recoup its overheads).
    Never,
}

impl BreakEven {
    /// The threshold in bytes, if one exists. [`BreakEven::Always`] maps
    /// to zero bytes; [`BreakEven::Never`] maps to `None`.
    #[must_use]
    pub fn threshold(&self) -> Option<Bytes> {
        match *self {
            BreakEven::AtLeast(min) => Some(min),
            BreakEven::Always => Some(Bytes::ZERO),
            BreakEven::Never => None,
        }
    }
}

/// The hardware/threading context for a profitability test: everything
/// except the kernel's own cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadContext {
    /// Per-offload overhead cycles (`o0`, `L`, `Q`, `o1`).
    pub overheads: OffloadOverheads,
    /// `A`: the accelerator's peak speedup.
    pub peak_speedup: f64,
    /// Threading design used to offload.
    pub design: ThreadingDesign,
    /// Acceleration strategy (on-chip, off-chip, remote).
    pub strategy: AccelerationStrategy,
    /// Device-driver acknowledgement behaviour.
    pub driver: DriverMode,
}

impl OffloadContext {
    /// Creates a context with the driver mode defaulted from the strategy.
    #[must_use]
    pub fn new(
        overheads: OffloadOverheads,
        peak_speedup: f64,
        design: ThreadingDesign,
        strategy: AccelerationStrategy,
    ) -> Self {
        Self {
            overheads,
            peak_speedup,
            design,
            strategy,
            driver: DriverMode::default_for(strategy),
        }
    }
}

/// Solves `Cb·g^β > keep·Cb·g^β/A + overhead` for `g`, where `keep` is 1
/// if the accelerator's time is on the relevant critical path and 0
/// otherwise.
fn solve(
    cost: &KernelCost,
    overhead_cycles: f64,
    accelerator_on_path: bool,
    peak_speedup: f64,
) -> BreakEven {
    // Cycles saved per unit of g^β.
    let saved_per_scale = if accelerator_on_path {
        cost.cycles_per_byte.get() * (1.0 - 1.0 / peak_speedup)
    } else {
        cost.cycles_per_byte.get()
    };
    if saved_per_scale <= 0.0 {
        // A = 1 with the accelerator on the critical path: offloading can
        // never save cycles, so no overhead however small is recoverable.
        return BreakEven::Never;
    }
    if overhead_cycles <= 0.0 {
        return BreakEven::Always;
    }
    BreakEven::AtLeast(cost.complexity.invert(overhead_cycles / saved_per_scale))
}

/// Minimum granularity at which a single offload improves **throughput**.
///
/// Implements eqn (2) for Sync (`Cb·g > Cb·g/A + o0 + L + Q`), eqn (4) for
/// Sync-OS (`Cb·g > o0 + L + Q + 2·o1`), and eqn (7) for Async
/// (`Cb·g > o0 + L + Q`), generalized to `g^β` kernels and to the
/// strategy/driver rules governing which overheads stay on the throughput
/// path.
///
/// # Examples
///
/// Feed1's off-chip synchronous compression breaks even at 425 B (§5):
///
/// ```
/// use accelerometer::{
///     throughput_breakeven, AccelerationStrategy, BreakEven, KernelCost, OffloadContext,
///     OffloadOverheads, ThreadingDesign,
/// };
/// use accelerometer::units::cycles_per_byte;
///
/// let ctx = OffloadContext::new(
///     OffloadOverheads::new(0.0, 2_300.0, 0.0, 0.0),
///     27.0,
///     ThreadingDesign::Sync,
///     AccelerationStrategy::OffChip,
/// );
/// let cost = KernelCost::linear(cycles_per_byte(5.62));
/// let BreakEven::AtLeast(g) = throughput_breakeven(&cost, &ctx) else {
///     panic!("expected a finite break-even");
/// };
/// assert!((g.get() - 425.0).abs() < 1.0);
/// ```
#[must_use]
pub fn throughput_breakeven(cost: &KernelCost, ctx: &OffloadContext) -> BreakEven {
    let overhead =
        throughput_overhead_per_offload(ctx.overheads, ctx.design, ctx.strategy, ctx.driver);
    solve(
        cost,
        overhead.get(),
        ctx.design.accelerator_time_on_throughput_path(),
        ctx.peak_speedup,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::cycles_per_byte;

    fn linear(cb: f64) -> KernelCost {
        KernelCost::linear(cycles_per_byte(cb))
    }

    /// §4 case study 1: AES-NI breaks even at g ≥ 1 B.
    #[test]
    fn aes_ni_breaks_even_at_one_byte() {
        let ctx = OffloadContext::new(
            OffloadOverheads::new(10.0, 3.0, 0.0, 0.0),
            6.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
        );
        // OpenSSL AES software encryption costs ~20 cycles/byte.
        let cost = linear(20.0);
        let be = throughput_breakeven(&cost, &ctx);
        let g = be.threshold().expect("finite break-even");
        assert!(g.get() <= 1.0, "break-even {g} should be <= 1 B");
    }

    /// §5 compression: off-chip Sync breaks even at 425 B with
    /// Cb = 5.62 cycles/B, L = 2300, A = 27.
    #[test]
    fn feed1_off_chip_sync_compression_425_bytes() {
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, 2_300.0, 0.0, 0.0),
            27.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OffChip,
        );
        let be = throughput_breakeven(&linear(5.62), &ctx);
        let g = be.threshold().unwrap();
        assert!((g.get() - 425.0).abs() < 1.0, "break-even {g}");
    }

    /// §5 compression Sync-OS: threshold rises to ≈2455 B because two
    /// thread switches (2 × 5750) join the overhead — eqn (4).
    #[test]
    fn feed1_off_chip_sync_os_compression() {
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, 2_300.0, 0.0, 5_750.0),
            27.0,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::OffChip,
        );
        let be = throughput_breakeven(&linear(5.62), &ctx);
        let g = be.threshold().unwrap();
        let expected = (2_300.0 + 2.0 * 5_750.0) / 5.62;
        assert!((g.get() - expected).abs() < 1.0, "break-even {g}");
    }

    /// §5 compression Async: eqn (7), threshold ≈409 B (overhead only,
    /// no accelerator term).
    #[test]
    fn feed1_off_chip_async_compression() {
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, 2_300.0, 0.0, 0.0),
            27.0,
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::OffChip,
        );
        let be = throughput_breakeven(&linear(5.62), &ctx);
        let g = be.threshold().unwrap();
        assert!((g.get() - 2_300.0 / 5.62).abs() < 0.5, "break-even {g}");
    }

    #[test]
    fn zero_overhead_is_always_lucrative() {
        let ctx = OffloadContext::new(
            OffloadOverheads::NONE,
            4.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
        );
        let be = throughput_breakeven(&linear(1.0), &ctx);
        assert_eq!(be, BreakEven::Always);
        assert_eq!(be.threshold(), Some(Bytes::ZERO));
    }

    #[test]
    fn unit_speedup_sync_is_never_lucrative() {
        // A remote general-purpose CPU (A = 1) contacted synchronously can
        // never improve throughput: the host waits just as long and pays
        // overheads on top.
        let ctx = OffloadContext::new(
            OffloadOverheads::new(100.0, 0.0, 0.0, 0.0),
            1.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::Remote,
        );
        let be = throughput_breakeven(&linear(5.0), &ctx);
        assert_eq!(be, BreakEven::Never);
        assert_eq!(be.threshold(), None);
    }

    #[test]
    fn unit_speedup_async_can_still_be_lucrative() {
        // Case study 3: offloading to a remote CPU with A = 1 still frees
        // host cycles because the offload is asynchronous.
        let ctx = OffloadContext::new(
            OffloadOverheads::new(100.0, 0.0, 0.0, 0.0),
            1.0,
            ThreadingDesign::AsyncDistinctThread,
            AccelerationStrategy::Remote,
        );
        let be = throughput_breakeven(&linear(5.0), &ctx);
        let g = be.threshold().unwrap();
        // Cb·g > o0 + o1 (= 100 + 0) → g > 20.
        assert!((g.get() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn super_linear_kernels_break_even_sooner() {
        use crate::complexity::Complexity;
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, 10_000.0, 0.0, 0.0),
            8.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OffChip,
        );
        let lin = linear(2.0);
        let sup = KernelCost {
            cycles_per_byte: cycles_per_byte(2.0),
            complexity: Complexity::new(1.5).unwrap(),
        };
        let g_lin = throughput_breakeven(&lin, &ctx).threshold().unwrap();
        let g_sup = throughput_breakeven(&sup, &ctx).threshold().unwrap();
        assert!(g_sup < g_lin, "super-linear {g_sup} vs linear {g_lin}");
    }
}
