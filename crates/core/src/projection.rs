//! High-level speedup projections: from a measured kernel profile and a
//! candidate accelerator to a full Accelerometer estimate.
//!
//! This module packages the paper's five-step validation/application
//! methodology (§4, §5):
//!
//! 1. identify the offload sizes `g` that improve speedup (break-even),
//! 2. determine the lucrative offload count `n` and the effective kernel
//!    fraction `α` from the granularity CDF,
//! 3. evaluate the model (eqns 1–8),
//! 4. compare against the ideal (Amdahl) bound, and
//! 5. report everything a capacity planner needs.

use serde::{Deserialize, Serialize};

use crate::amdahl;
use crate::breakeven::{throughput_breakeven, BreakEven, OffloadContext};
use crate::complexity::KernelCost;
use crate::error::Result;
use crate::granularity::{select_lucrative, GranularityCdf, LucrativeSelection};
use crate::model::{estimate, Estimate};
use crate::params::{ModelParams, OffloadOverheads};
use crate::strategy::AccelerationStrategy;
use crate::threading::ThreadingDesign;
use crate::units::Cycles;

/// The host-side profile of one kernel (functionality) to accelerate, as
/// measured by a profiler such as Strobelight plus granularity tracing
/// (`bpftrace` in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// `C`: total host cycles in the accounting window.
    pub total_cycles: Cycles,
    /// `α`: the kernel's share of host cycles (all invocations).
    pub kernel_fraction: f64,
    /// Total kernel invocations (offload opportunities) per window.
    pub total_offloads: f64,
    /// Host-side cost model (`Cb`, `β`).
    pub cost: KernelCost,
    /// Distribution of invocation granularities.
    pub granularity: GranularityCdf,
}

/// A candidate accelerator for a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorSpec {
    /// Where the accelerator sits.
    pub strategy: AccelerationStrategy,
    /// `A`: peak speedup over the host implementation.
    pub peak_speedup: f64,
    /// Per-offload overhead cycles (`o0`, `L`, `Q`, `o1`).
    pub overheads: OffloadOverheads,
}

/// Which kernel invocations the runtime offloads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum OffloadPolicy {
    /// Offload only granularities that clear the throughput break-even
    /// point (the paper's default assumption: "we can use software to
    /// selectively accelerate only those kernel offloads that improve
    /// speedup").
    #[default]
    SelectiveLucrative,
    /// Offload every invocation, as Cache3 does (§4, case study 2: its
    /// software "does not support selectively offloading") and as the §5
    /// on-chip projections assume.
    OffloadAll,
}

/// A complete projection for one kernel × accelerator × threading design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Projection {
    /// The threading design assumed.
    pub design: ThreadingDesign,
    /// The acceleration strategy.
    pub strategy: AccelerationStrategy,
    /// The offload policy applied.
    pub policy: OffloadPolicy,
    /// The minimum lucrative granularity for this configuration.
    pub breakeven: BreakEven,
    /// The selected offloads (`n`, effective `α`, fraction of total).
    pub selection: LucrativeSelection,
    /// The model's estimate for the selected offloads.
    pub estimate: Estimate,
    /// The Amdahl bound with zero overheads and this accelerator's `A`,
    /// over the kernel's *full* cycle fraction.
    pub amdahl_bound: f64,
    /// The ideal bound: infinite acceleration of the full kernel fraction
    /// with zero overheads (`1/(1−α)`), the paper's "Ideal" bars.
    pub ideal_speedup: f64,
}

/// Projects the speedup and latency reduction for accelerating `profile`'s
/// kernel with `accel` under `design`, defaulting the driver mode from the
/// strategy.
///
/// # Errors
///
/// Returns [`crate::ModelError::InvalidParameter`] if the derived model
/// parameters are invalid (e.g. a non-finite `α`).
///
/// # Examples
///
/// Feed1's off-chip synchronous compression (§5) projects ≈9% speedup:
///
/// ```
/// use accelerometer::units::{cycles_per_byte, Cycles};
/// use accelerometer::{
///     project, AccelerationStrategy, AcceleratorSpec, GranularityCdf, KernelCost,
///     KernelProfile, OffloadOverheads, OffloadPolicy, ThreadingDesign,
/// };
///
/// let profile = KernelProfile {
///     total_cycles: Cycles::new(2.3e9),
///     kernel_fraction: 0.15,
///     total_offloads: 15_008.0,
///     cost: KernelCost::linear(cycles_per_byte(5.62)),
///     granularity: GranularityCdf::from_points(vec![
///         (1.0, 0.02), (64.0, 0.08), (128.0, 0.15), (256.0, 0.262),
///         (512.0, 0.407), (1024.0, 0.52), (2048.0, 0.71), (4096.0, 0.83),
///         (8192.0, 0.90), (16384.0, 0.95), (32768.0, 0.98), (65536.0, 1.0),
///     ])?,
/// };
/// let accel = AcceleratorSpec {
///     strategy: AccelerationStrategy::OffChip,
///     peak_speedup: 27.0,
///     overheads: OffloadOverheads::new(0.0, 2_300.0, 0.0, 0.0),
/// };
/// let p = project(
///     &profile,
///     &accel,
///     ThreadingDesign::Sync,
///     OffloadPolicy::SelectiveLucrative,
/// )?;
/// assert!((p.estimate.throughput_gain_percent() - 9.0).abs() < 0.3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn project(
    profile: &KernelProfile,
    accel: &AcceleratorSpec,
    design: ThreadingDesign,
    policy: OffloadPolicy,
) -> Result<Projection> {
    let ctx = OffloadContext::new(accel.overheads, accel.peak_speedup, design, accel.strategy);
    let breakeven = throughput_breakeven(&profile.cost, &ctx);
    let selection = match policy {
        OffloadPolicy::SelectiveLucrative => select_lucrative(
            &profile.granularity,
            profile.total_offloads,
            profile.kernel_fraction,
            breakeven,
        ),
        OffloadPolicy::OffloadAll => LucrativeSelection {
            fraction: 1.0,
            offloads: profile.total_offloads,
            alpha: profile.kernel_fraction,
        },
    };

    let est = if selection.offloads <= 0.0 || selection.alpha <= 0.0 {
        // Nothing offloaded: acceleration is a no-op.
        Estimate::from_fractions(profile.total_cycles, 1.0, 1.0)
    } else {
        let params = ModelParams::builder()
            .host_cycles(profile.total_cycles.get())
            .kernel_fraction(selection.alpha)
            .offloads(selection.offloads)
            .overheads(accel.overheads)
            .peak_speedup(accel.peak_speedup)
            .build()?;
        estimate(&params, design, accel.strategy, ctx.driver)
    };

    Ok(Projection {
        design,
        strategy: accel.strategy,
        policy,
        breakeven,
        selection,
        estimate: est,
        amdahl_bound: amdahl::speedup(profile.kernel_fraction, accel.peak_speedup),
        ideal_speedup: amdahl::ideal_speedup(profile.kernel_fraction),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::cycles_per_byte;

    fn feed1_compression() -> KernelProfile {
        KernelProfile {
            total_cycles: Cycles::new(2.3e9),
            kernel_fraction: 0.15,
            total_offloads: 15_008.0,
            cost: KernelCost::linear(cycles_per_byte(5.62)),
            granularity: GranularityCdf::from_points(vec![
                (1.0, 0.02),
                (64.0, 0.08),
                (128.0, 0.15),
                (256.0, 0.262),
                (512.0, 0.407),
                (1024.0, 0.52),
                (2048.0, 0.71),
                (4096.0, 0.83),
                (8192.0, 0.90),
                (16384.0, 0.95),
                (32768.0, 0.98),
                (65536.0, 1.0),
            ])
            .unwrap(),
        }
    }

    fn off_chip_compressor() -> AcceleratorSpec {
        AcceleratorSpec {
            strategy: AccelerationStrategy::OffChip,
            peak_speedup: 27.0,
            overheads: OffloadOverheads::new(0.0, 2_300.0, 0.0, 5_750.0),
        }
    }

    fn on_chip_compressor() -> AcceleratorSpec {
        AcceleratorSpec {
            strategy: AccelerationStrategy::OnChip,
            peak_speedup: 5.0,
            overheads: OffloadOverheads::NONE,
        }
    }

    /// Fig. 20 Feed1 compression, on-chip Sync: 13.6% speedup (and the
    /// paper notes latency reduction is also 13.6%); ideal is 17.6%.
    #[test]
    fn fig20_compression_on_chip() {
        let p = project(
            &feed1_compression(),
            &on_chip_compressor(),
            ThreadingDesign::Sync,
            OffloadPolicy::OffloadAll,
        )
        .unwrap();
        assert!(
            (p.estimate.throughput_gain_percent() - 13.6).abs() < 0.1,
            "speedup {}",
            p.estimate.throughput_gain_percent()
        );
        assert!((p.estimate.latency_gain_percent() - 13.6).abs() < 0.1);
        assert!((p.ideal_speedup - 1.176).abs() < 0.001);
    }

    /// Fig. 20 Feed1 compression, off-chip Sync: break-even 425 B, 64.2%
    /// of compressions lucrative, ≈9% speedup.
    #[test]
    fn fig20_compression_off_chip_sync() {
        let p = project(
            &feed1_compression(),
            &off_chip_compressor(),
            ThreadingDesign::Sync,
            OffloadPolicy::SelectiveLucrative,
        )
        .unwrap();
        let be = p.breakeven.threshold().unwrap();
        assert!((be.get() - 425.0).abs() < 1.0, "break-even {be}");
        assert!((p.selection.fraction - 0.642).abs() < 0.005);
        assert!((p.selection.offloads - 9_629.0).abs() < 60.0);
        assert!(
            (p.estimate.throughput_gain_percent() - 9.0).abs() < 0.3,
            "speedup {}",
            p.estimate.throughput_gain_percent()
        );
    }

    /// Fig. 20 Feed1 compression, off-chip Sync-OS: ≈1.6% speedup.
    #[test]
    fn fig20_compression_off_chip_sync_os() {
        let p = project(
            &feed1_compression(),
            &off_chip_compressor(),
            ThreadingDesign::SyncOs,
            OffloadPolicy::SelectiveLucrative,
        )
        .unwrap();
        assert!(
            (p.selection.offloads - 3_986.0).abs() < 60.0,
            "n {}",
            p.selection.offloads
        );
        assert!(
            (p.estimate.throughput_gain_percent() - 1.6).abs() < 0.2,
            "speedup {}",
            p.estimate.throughput_gain_percent()
        );
    }

    /// Fig. 20 Feed1 compression, off-chip Async (no response): ≈9.6%
    /// speedup and ≈9.2% latency reduction.
    #[test]
    fn fig20_compression_off_chip_async() {
        let p = project(
            &feed1_compression(),
            &off_chip_compressor(),
            ThreadingDesign::AsyncNoResponse,
            OffloadPolicy::SelectiveLucrative,
        )
        .unwrap();
        assert!(
            (p.selection.offloads - 9_769.0).abs() < 60.0,
            "n {}",
            p.selection.offloads
        );
        assert!(
            (p.estimate.throughput_gain_percent() - 9.6).abs() < 0.3,
            "speedup {}",
            p.estimate.throughput_gain_percent()
        );
        assert!(
            (p.estimate.latency_gain_percent() - 9.2).abs() < 0.3,
            "latency {}",
            p.estimate.latency_gain_percent()
        );
    }

    /// Fig. 20 Ads1 memory copy, on-chip Sync (AVX): 12.7% speedup from
    /// α = 0.1512, n = 1,473,681, A = 4.
    #[test]
    fn fig20_memcpy_on_chip() {
        let profile = KernelProfile {
            total_cycles: Cycles::new(2.3e9),
            kernel_fraction: 0.1512,
            total_offloads: 1_473_681.0,
            cost: KernelCost::linear(cycles_per_byte(1.0)),
            granularity: GranularityCdf::from_points(vec![(4096.0, 1.0)]).unwrap(),
        };
        let accel = AcceleratorSpec {
            strategy: AccelerationStrategy::OnChip,
            peak_speedup: 4.0,
            overheads: OffloadOverheads::NONE,
        };
        let p = project(
            &profile,
            &accel,
            ThreadingDesign::Sync,
            OffloadPolicy::OffloadAll,
        )
        .unwrap();
        assert!(
            (p.estimate.throughput_gain_percent() - 12.79).abs() < 0.1,
            "speedup {}",
            p.estimate.throughput_gain_percent()
        );
    }

    /// Fig. 20 Cache1 memory allocation, on-chip Sync (Mallacc-style):
    /// 1.86% speedup from α = 0.055, n = 51,695, A = 1.5.
    #[test]
    fn fig20_alloc_on_chip() {
        let profile = KernelProfile {
            total_cycles: Cycles::new(2.0e9),
            kernel_fraction: 0.055,
            total_offloads: 51_695.0,
            cost: KernelCost::linear(cycles_per_byte(2.0)),
            granularity: GranularityCdf::from_points(vec![(4096.0, 1.0)]).unwrap(),
        };
        let accel = AcceleratorSpec {
            strategy: AccelerationStrategy::OnChip,
            peak_speedup: 1.5,
            overheads: OffloadOverheads::NONE,
        };
        let p = project(
            &profile,
            &accel,
            ThreadingDesign::Sync,
            OffloadPolicy::OffloadAll,
        )
        .unwrap();
        assert!(
            (p.estimate.throughput_gain_percent() - 1.86).abs() < 0.05,
            "speedup {}",
            p.estimate.throughput_gain_percent()
        );
    }

    #[test]
    fn never_breakeven_yields_identity_projection() {
        // Sync offload to an A = 1 device: nothing is lucrative.
        let profile = feed1_compression();
        let accel = AcceleratorSpec {
            strategy: AccelerationStrategy::Remote,
            peak_speedup: 1.0,
            overheads: OffloadOverheads::new(100.0, 0.0, 0.0, 0.0),
        };
        let p = project(
            &profile,
            &accel,
            ThreadingDesign::Sync,
            OffloadPolicy::SelectiveLucrative,
        )
        .unwrap();
        assert_eq!(p.breakeven, BreakEven::Never);
        assert_eq!(p.estimate.throughput_speedup, 1.0);
        assert_eq!(p.selection.offloads, 0.0);
    }

    #[test]
    fn selective_beats_offload_all_when_overheads_dominate() {
        // Under the paper's count-weighted α scaling, selective offload
        // wins whenever the per-offload overhead exceeds the *mean* kernel
        // cycles per offload. Here each offload averages only 10 host
        // cycles (α·C/n = 0.01·1e9/1e6) against a 2,300-cycle transfer, so
        // offloading everything is catastrophic while selective offload
        // merely fails to help much.
        let profile = KernelProfile {
            total_cycles: Cycles::new(1e9),
            kernel_fraction: 0.01,
            total_offloads: 1_000_000.0,
            cost: KernelCost::linear(cycles_per_byte(5.62)),
            granularity: feed1_compression().granularity,
        };
        let accel = off_chip_compressor();
        let selective = project(
            &profile,
            &accel,
            ThreadingDesign::Sync,
            OffloadPolicy::SelectiveLucrative,
        )
        .unwrap();
        let all = project(
            &profile,
            &accel,
            ThreadingDesign::Sync,
            OffloadPolicy::OffloadAll,
        )
        .unwrap();
        assert!(
            selective.estimate.throughput_speedup > all.estimate.throughput_speedup,
            "selective {} vs all {}",
            selective.estimate.throughput_speedup,
            all.estimate.throughput_speedup
        );
        assert!(!all.estimate.improves_throughput());
    }

    #[test]
    fn count_weighted_scaling_can_favor_offload_all() {
        // The dual of the test above, documenting the accounting the paper
        // uses: when overheads are small relative to the mean per-offload
        // kernel cycles (Feed1: ≈23k cycles/offload vs 2.3k transfer),
        // offloading everything projects higher than selective offload
        // because count-weighted α retains the below-threshold kernel
        // cycles on the host.
        let selective = project(
            &feed1_compression(),
            &off_chip_compressor(),
            ThreadingDesign::Sync,
            OffloadPolicy::SelectiveLucrative,
        )
        .unwrap();
        let all = project(
            &feed1_compression(),
            &off_chip_compressor(),
            ThreadingDesign::Sync,
            OffloadPolicy::OffloadAll,
        )
        .unwrap();
        assert!(all.estimate.throughput_speedup > selective.estimate.throughput_speedup);
    }
}
