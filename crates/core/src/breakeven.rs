//! Per-offload profitability tests and break-even granularities
//! (eqns 2, 4, 7 and their latency counterparts).
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
use crate::model::{
    accelerator_time_in_latency, latency_overhead_per_offload, throughput_overhead_per_offload,
    DriverMode,
};
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
    /// Whether an offload of `g` bytes clears this break-even point.
    #[must_use]
    pub fn is_lucrative(&self, g: Bytes) -> bool {
        match *self {
            BreakEven::AtLeast(min) => g > min,
            BreakEven::Always => g.get() > 0.0,
            BreakEven::Never => false,
        }
    }

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

/// Minimum granularity at which a single offload reduces **per-request
/// latency**.
///
/// Implements the latency-side conditions of §3: e.g. for Sync-OS,
/// `Cb·g > Cb·g/A + (o0 + L + Q + o1)`.
#[must_use]
pub fn latency_breakeven(cost: &KernelCost, ctx: &OffloadContext) -> BreakEven {
    let overhead = latency_overhead_per_offload(ctx.overheads, ctx.design);
    solve(
        cost,
        overhead.get(),
        accelerator_time_in_latency(ctx.design, ctx.strategy),
        ctx.peak_speedup,
    )
}

/// Whether a single offload of `g` bytes improves throughput.
#[must_use]
pub fn offload_improves_throughput(cost: &KernelCost, ctx: &OffloadContext, g: Bytes) -> bool {
    throughput_breakeven(cost, ctx).is_lucrative(g)
}

/// Whether a single offload of `g` bytes reduces per-request latency.
#[must_use]
pub fn offload_reduces_latency(cost: &KernelCost, ctx: &OffloadContext, g: Bytes) -> bool {
    latency_breakeven(cost, ctx).is_lucrative(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{bytes, cycles_per_byte};

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
        assert!(be.is_lucrative(bytes(4.0)));
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

    /// An offload of exactly the break-even size saves nothing, so it is
    /// not lucrative; one a hair larger is.
    #[test]
    fn the_break_even_size_itself_is_not_lucrative() {
        let at_425 = BreakEven::AtLeast(bytes(425.0));
        assert!(!at_425.is_lucrative(bytes(425.0)));
        assert!(at_425.is_lucrative(bytes(425.0_f64.next_up())));
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, 2_300.0, 0.0, 0.0),
            27.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OffChip,
        );
        let be = throughput_breakeven(&linear(5.62), &ctx);
        let g = be.threshold().expect("finite break-even");
        assert!(!be.is_lucrative(g), "break-even {g}");
        assert!(be.is_lucrative(bytes(g.get().next_up())), "break-even {g}");
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
        assert!(be.is_lucrative(bytes(1.0)));
        assert!(!be.is_lucrative(bytes(0.0)));
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
        assert!(!be.is_lucrative(bytes(1e12)));
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
    fn latency_breakeven_exceeds_throughput_breakeven_for_sync_os() {
        // Latency pays the accelerator time and the transfer; throughput
        // with a posted driver does not.
        let ctx = OffloadContext {
            overheads: OffloadOverheads::new(0.0, 2_300.0, 0.0, 5_750.0),
            peak_speedup: 27.0,
            design: ThreadingDesign::SyncOs,
            strategy: AccelerationStrategy::OffChip,
            driver: DriverMode::Posted,
        };
        let cost = linear(5.62);
        let tp = throughput_breakeven(&cost, &ctx).threshold().unwrap();
        let lat = latency_breakeven(&cost, &ctx).threshold().unwrap();
        // Throughput (posted): (o0 + 2·o1)/Cb = 11_500/5.62 ≈ 2046.
        assert!((tp.get() - 11_500.0 / 5.62).abs() < 1.0);
        // Latency: Cb·g(1-1/27) > 2_300 + 5_750 → g ≈ 1487.8.
        let expected_lat = (2_300.0 + 5_750.0) / (5.62 * (1.0 - 1.0 / 27.0));
        assert!((lat.get() - expected_lat).abs() < 1.0);
    }

    #[test]
    fn predicate_helpers_agree_with_breakeven() {
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, 2_300.0, 0.0, 0.0),
            27.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OffChip,
        );
        let cost = linear(5.62);
        assert!(!offload_improves_throughput(&cost, &ctx, bytes(100.0)));
        assert!(offload_improves_throughput(&cost, &ctx, bytes(1_000.0)));
        assert!(offload_reduces_latency(&cost, &ctx, bytes(1_000.0)));
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
