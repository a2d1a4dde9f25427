//! Multi-kernel acceleration: several overheads offloaded at once.
//!
//! §5 closes its off-chip discussion with: "off-chip encryption
//! accelerators can be extended to perform compression to leverage
//! improving two kernels for the price of one offload." This module
//! models that composition: a set of kernels, each with its own `αᵢ`,
//! `nᵢ`, and `Aᵢ`, offloaded either to **separate** devices (each offload
//! pays its own overheads) or to one **fused** device (co-resident data
//! is processed by both kernels per dispatch, so the dispatch overheads
//! are paid once).
//!
//! The combined-speedup denominator generalizes eqns (1)/(3)/(6):
//! `CS/C = (1 − Σαᵢ) + Σ keepᵢ·αᵢ/Aᵢ + overhead terms`, where the
//! overhead term is `Σ nᵢ·ovhᵢ/C` for separate devices and
//! `n_fused·ovh/C` for a fused one.

use serde::{Deserialize, Serialize};

use crate::error::{ensure, Result};
use crate::model::{throughput_overhead_per_offload_raw, DriverMode, Estimate};
use crate::params::OffloadOverheads;
use crate::strategy::AccelerationStrategy;
use crate::threading::ThreadingDesign;
use crate::units::Cycles;

/// One kernel in a multi-kernel acceleration plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelComponent {
    /// `αᵢ`: this kernel's fraction of host cycles.
    pub alpha: f64,
    /// `nᵢ`: offloads per window when dispatched alone.
    pub offloads: f64,
    /// `Aᵢ`: the device's peak speedup for this kernel.
    pub peak_speedup: f64,
}

/// A multi-kernel acceleration plan sharing one threading design and
/// strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiKernelPlan {
    /// Host cycles per window (`C`).
    pub host_cycles: Cycles,
    /// The kernels under acceleration.
    pub kernels: Vec<KernelComponent>,
    /// Per-offload overheads (`o0`, `L`, `Q`, `o1`) of the device(s).
    pub overheads: OffloadOverheads,
    /// Threading design used for every offload.
    pub design: ThreadingDesign,
    /// Acceleration strategy.
    pub strategy: AccelerationStrategy,
    /// Driver behaviour.
    pub driver: DriverMode,
}

impl MultiKernelPlan {
    fn validate(&self) -> Result<()> {
        let total_alpha: f64 = self.kernels.iter().map(|k| k.alpha).sum();
        ensure(
            !self.kernels.is_empty(),
            "kernels",
            0.0,
            "plan needs at least one kernel",
        )?;
        ensure(
            total_alpha > 0.0 && total_alpha < 1.0,
            "alpha",
            total_alpha,
            "combined kernel fractions must satisfy 0 < sum < 1",
        )?;
        for k in &self.kernels {
            ensure(
                k.alpha > 0.0 && k.alpha < 1.0,
                "alpha",
                k.alpha,
                "each kernel fraction must be in (0, 1)",
            )?;
            ensure(
                k.offloads >= 0.0 && k.offloads.is_finite(),
                "n",
                k.offloads,
                "offload counts must be finite and non-negative",
            )?;
            ensure(
                k.peak_speedup >= 1.0,
                "A",
                k.peak_speedup,
                "peak speedups must be at least 1",
            )?;
        }
        Ok(())
    }

    fn base_denominators(&self) -> (f64, f64) {
        let total_alpha: f64 = self.kernels.iter().map(|k| k.alpha).sum();
        let accel_time: f64 = self.kernels.iter().map(|k| k.alpha / k.peak_speedup).sum();
        let mut cs = 1.0 - total_alpha;
        if self.design.accelerator_time_on_throughput_path() {
            cs += accel_time;
        }
        let mut cl = 1.0 - total_alpha;
        if crate::model::accelerator_time_in_latency(self.design, self.strategy) {
            cl += accel_time;
        }
        (cs, cl)
    }

    fn per_offload_overheads(&self) -> (f64, f64) {
        let s = throughput_overhead_per_offload_raw(
            self.overheads,
            self.design,
            self.strategy,
            self.driver,
        )
        .get();
        let l = crate::model::latency_overhead_per_offload_raw(self.overheads, self.design).get();
        (s, l)
    }

    /// Estimates the plan with each kernel on its **own** device: every
    /// kernel's offloads pay the dispatch overheads independently.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] for invalid
    /// fractions, counts, or speedups.
    pub fn estimate_separate(&self) -> Result<Estimate> {
        self.validate()?;
        let (mut cs, mut cl) = self.base_denominators();
        let (ovh_s, ovh_l) = self.per_offload_overheads();
        let c = self.host_cycles.get();
        let total_offloads: f64 = self.kernels.iter().map(|k| k.offloads).sum();
        cs += total_offloads * ovh_s / c;
        cl += total_offloads * ovh_l / c;
        Ok(self.estimate_from(cs, cl))
    }

    /// Estimates the plan on one **fused** device: the kernels process
    /// the same dispatched data, so dispatch overheads are paid once per
    /// fused offload. `fused_offloads` is the dispatch count of the fused
    /// stream (typically `max(nᵢ)`, or the RPC rate when every message
    /// takes both kernels).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] on invalid
    /// components or a negative `fused_offloads`.
    pub fn estimate_fused(&self, fused_offloads: f64) -> Result<Estimate> {
        self.validate()?;
        ensure(
            fused_offloads >= 0.0 && fused_offloads.is_finite(),
            "n",
            fused_offloads,
            "fused offload count must be finite and non-negative",
        )?;
        let (mut cs, mut cl) = self.base_denominators();
        let (ovh_s, ovh_l) = self.per_offload_overheads();
        let c = self.host_cycles.get();
        cs += fused_offloads * ovh_s / c;
        cl += fused_offloads * ovh_l / c;
        Ok(self.estimate_from(cs, cl))
    }

    /// The fusion dividend: percentage points of throughput gained by
    /// fusing relative to separate devices.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the two estimates.
    pub fn fusion_gain_points(&self, fused_offloads: f64) -> Result<f64> {
        let fused = self.estimate_fused(fused_offloads)?;
        let separate = self.estimate_separate()?;
        Ok(fused.throughput_gain_percent() - separate.throughput_gain_percent())
    }

    fn estimate_from(&self, cs: f64, cl: f64) -> Estimate {
        Estimate {
            throughput_speedup: 1.0 / cs,
            latency_reduction: 1.0 / cl,
            host_cycles_accelerated: self.host_cycles * cs,
            request_path_cycles: self.host_cycles * cl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{estimate, Scenario};
    use crate::params::ModelParams;

    /// Cache1-flavored plan: encryption + compression on an off-chip
    /// device, asynchronously.
    fn plan() -> MultiKernelPlan {
        MultiKernelPlan {
            host_cycles: Cycles::new(2.3e9),
            kernels: vec![
                KernelComponent {
                    alpha: 0.19154, // encryption
                    offloads: 101_863.0,
                    peak_speedup: 27.0,
                },
                KernelComponent {
                    alpha: 0.10, // compression
                    offloads: 101_863.0,
                    peak_speedup: 27.0,
                },
            ],
            overheads: OffloadOverheads::new(0.0, 2_530.0, 0.0, 0.0),
            design: ThreadingDesign::AsyncNoResponse,
            strategy: AccelerationStrategy::OffChip,
            driver: DriverMode::AwaitsAck,
        }
    }

    #[test]
    fn single_kernel_plan_matches_the_base_model() {
        let mut p = plan();
        p.kernels.truncate(1);
        let combined = p.estimate_separate().unwrap();
        let params = ModelParams::builder()
            .host_cycles(2.3e9)
            .kernel_fraction(0.19154)
            .offloads(101_863.0)
            .interface_cycles(2_530.0)
            .peak_speedup(27.0)
            .build()
            .unwrap();
        let single = estimate(&params, p.design, p.strategy, p.driver);
        assert!((combined.throughput_speedup - single.throughput_speedup).abs() < 1e-12);
        assert!((combined.latency_reduction - single.latency_reduction).abs() < 1e-12);
    }

    #[test]
    fn fusion_pays_the_overhead_once() {
        let p = plan();
        let separate = p.estimate_separate().unwrap();
        // Fused: every message takes both kernels → one dispatch per
        // message (101,863 dispatches instead of 203,726).
        let fused = p.estimate_fused(101_863.0).unwrap();
        assert!(
            fused.throughput_speedup > separate.throughput_speedup,
            "fused {} vs separate {}",
            fused.throughput_speedup,
            separate.throughput_speedup
        );
        // The §5 claim quantified: here fusion is worth >4 points.
        let gain = p.fusion_gain_points(101_863.0).unwrap();
        assert!(gain > 4.0, "fusion dividend {gain:.2} points");
        // And fusing two kernels beats accelerating encryption alone.
        let mut enc_only = p.clone();
        enc_only.kernels.truncate(1);
        let single = enc_only.estimate_separate().unwrap();
        assert!(fused.throughput_speedup > single.throughput_speedup);
    }

    #[test]
    fn equal_dispatch_counts_make_fused_and_separate_agree() {
        // If the fused stream dispatches as often as both kernels did
        // separately, there is no dividend.
        let p = plan();
        let separate = p.estimate_separate().unwrap();
        let fused = p.estimate_fused(203_726.0).unwrap();
        assert!((fused.throughput_speedup - separate.throughput_speedup).abs() < 1e-12);
    }

    #[test]
    fn sync_fused_plan_keeps_both_accelerator_times() {
        let mut p = plan();
        p.design = ThreadingDesign::Sync;
        let est = p.estimate_fused(101_863.0).unwrap();
        // Denominator must include both α/A terms.
        let expected_accel = 0.19154 / 27.0 + 0.10 / 27.0;
        let denom = 1.0 / est.throughput_speedup;
        let base = 1.0 - 0.29154 + expected_accel;
        assert!(denom > base, "accelerator time missing from {denom}");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = plan();
        p.kernels.clear();
        assert!(p.estimate_separate().is_err());

        let mut p = plan();
        p.kernels[0].alpha = 0.95; // sum > 1
        assert!(p.estimate_separate().is_err());

        let mut p = plan();
        p.kernels[0].peak_speedup = 0.5;
        assert!(p.estimate_fused(10.0).is_err());

        let p = plan();
        assert!(p.estimate_fused(-1.0).is_err());
    }

    #[test]
    fn latency_accounts_for_the_request_path() {
        let p = plan();
        let fused = p.estimate_fused(101_863.0).unwrap();
        // Off-chip no-response: latency includes accelerator time, so
        // latency reduction trails the throughput speedup.
        assert!(fused.latency_reduction < fused.throughput_speedup);
        assert!(fused.latency_reduction > 1.0);
    }

    #[test]
    fn scenario_equivalence_for_combined_alpha() {
        // A fused plan where both kernels share A equals a single-kernel
        // scenario with the summed alpha.
        let p = plan();
        let fused = p.estimate_fused(101_863.0).unwrap();
        let params = ModelParams::builder()
            .host_cycles(2.3e9)
            .kernel_fraction(0.29154)
            .offloads(101_863.0)
            .interface_cycles(2_530.0)
            .peak_speedup(27.0)
            .build()
            .unwrap();
        let scenario = Scenario::new(params, p.design, p.strategy).with_driver(p.driver);
        let single = scenario.estimate();
        assert!((fused.throughput_speedup - single.throughput_speedup).abs() < 1e-12);
    }
}
