//! Interface transfer models: unpipelined (per-byte) vs pipelined
//! (fixed) offload latency.
//!
//! §3 notes that the unpipelined offload latency distribution "can be
//! found by multiplying the offload latency of a single byte with g for
//! each offload. When data offload is pipelined, L is independent of g;
//! we do not study pipelined offloads as our existing systems use
//! unpipelined offloads." This module implements both, as the paper's
//! natural extension: a transfer model maps granularity to the `L` the
//! equations consume, and the break-even analysis generalizes
//! accordingly.

use serde::{Deserialize, Serialize};

use crate::breakeven::{BreakEven, OffloadContext};
use crate::complexity::KernelCost;
use crate::error::{ensure, Result};
use crate::model::throughput_overhead_per_offload;
use crate::params::OffloadOverheads;
use crate::units::{Bytes, Cycles, CyclesPerByte};

/// How offload bytes cross the host↔accelerator interface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "kind")]
pub enum TransferModel {
    /// Pipelined: a fixed per-offload latency independent of `g` (the
    /// accelerator starts consuming bytes as they stream in).
    Pipelined {
        /// Fixed transfer latency per offload, in cycles.
        latency: Cycles,
    },
    /// Unpipelined: the accelerator needs the whole block, so the
    /// transfer costs `base + per_byte·g` cycles.
    Unpipelined {
        /// Fixed per-offload portion (doorbell, descriptor, first flit).
        base: Cycles,
        /// Per-byte streaming cost across the interface.
        per_byte: CyclesPerByte,
    },
}

impl TransferModel {
    /// A pipelined interface with the given fixed latency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] for negative or
    /// non-finite latencies.
    pub fn pipelined(latency: f64) -> Result<Self> {
        ensure(
            latency.is_finite() && latency >= 0.0,
            "L",
            latency,
            "transfer latency must be finite and non-negative",
        )?;
        Ok(TransferModel::Pipelined {
            latency: Cycles::new(latency),
        })
    }

    /// An unpipelined interface: `base + per_byte · g`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] for negative or
    /// non-finite components.
    pub fn unpipelined(base: f64, per_byte: f64) -> Result<Self> {
        ensure(
            base.is_finite() && base >= 0.0,
            "L",
            base,
            "transfer base must be finite and non-negative",
        )?;
        ensure(
            per_byte.is_finite() && per_byte >= 0.0,
            "Lb",
            per_byte,
            "per-byte transfer cost must be finite and non-negative",
        )?;
        Ok(TransferModel::Unpipelined {
            base: Cycles::new(base),
            per_byte: CyclesPerByte::new(per_byte),
        })
    }

    /// Transfer cycles for a `g`-byte offload.
    #[must_use]
    pub fn latency_for(&self, g: Bytes) -> Cycles {
        match *self {
            TransferModel::Pipelined { latency } => latency,
            TransferModel::Unpipelined { base, per_byte } => base + per_byte * g,
        }
    }

    /// The *average* `L` over a granularity distribution with mean
    /// `mean_bytes` — what Table 5's scalar `L` parameter represents.
    #[must_use]
    pub fn mean_latency(&self, mean_bytes: Bytes) -> Cycles {
        self.latency_for(mean_bytes)
    }

    /// Per-byte slope of the transfer cost (zero when pipelined).
    #[must_use]
    pub fn slope(&self) -> CyclesPerByte {
        match *self {
            TransferModel::Pipelined { .. } => CyclesPerByte::ZERO,
            TransferModel::Unpipelined { per_byte, .. } => per_byte,
        }
    }

    /// Fixed (granularity-independent) portion of the transfer cost.
    #[must_use]
    pub fn fixed(&self) -> Cycles {
        match *self {
            TransferModel::Pipelined { latency } => latency,
            TransferModel::Unpipelined { base, .. } => base,
        }
    }
}

/// Break-even granularity for a **linear-complexity** kernel under a
/// granularity-dependent transfer model.
///
/// Generalizes eqn (2): the offload is lucrative when
/// `Cb·g > keep·Cb·g/A + o0 + Q + k·o1 + base + slope·g`, i.e. when the
/// *net* per-byte saving `Cb·(1 − keep/A) − slope` recoups the fixed
/// overheads. `Q`, `base` and `slope·g` count only where the model puts
/// `L + Q` on the throughput path. A transfer slope at or above the
/// per-byte saving makes offloading unprofitable at every granularity.
///
/// The context's `overheads.interface` field is ignored in favor of
/// `transfer`.
#[must_use]
pub fn throughput_breakeven_with_transfer(
    cost: &KernelCost,
    ctx: &OffloadContext,
    transfer: &TransferModel,
) -> BreakEven {
    // `transfer` crosses the host path by the same routing rules as
    // scalar L: its fixed part is charged where L is, with Q, and its
    // slope eats into the per-byte saving only when L reaches the path.
    let transfer_reaches_path =
        crate::model::transfer_reaches_throughput_path(ctx.design, ctx.strategy, ctx.driver);
    let keep = if ctx.design.accelerator_time_on_throughput_path() {
        1.0 / ctx.peak_speedup
    } else {
        0.0
    };
    let per_byte_saving = cost.cycles_per_byte.get() * (1.0 - keep)
        - if transfer_reaches_path {
            transfer.slope().get()
        } else {
            0.0
        };
    if per_byte_saving <= 0.0 {
        return BreakEven::Never;
    }
    let overheads = OffloadOverheads {
        interface: transfer.fixed(),
        ..ctx.overheads
    };
    let fixed =
        throughput_overhead_per_offload(overheads, ctx.design, ctx.strategy, ctx.driver).get();
    if fixed <= 0.0 {
        return BreakEven::Always;
    }
    BreakEven::AtLeast(Bytes::new(fixed / per_byte_saving))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::AccelerationStrategy;
    use crate::threading::ThreadingDesign;
    use crate::units::{bytes, cycles_per_byte};

    fn ctx(design: ThreadingDesign, strategy: AccelerationStrategy) -> OffloadContext {
        OffloadContext::new(OffloadOverheads::new(100.0, 0.0, 0.0, 0.0), 8.0, design, strategy)
    }

    #[test]
    fn construction_validates() {
        assert!(TransferModel::pipelined(-1.0).is_err());
        assert!(TransferModel::unpipelined(0.0, f64::NAN).is_err());
        assert!(TransferModel::pipelined(500.0).is_ok());
    }

    #[test]
    fn latency_scales_only_when_unpipelined() {
        let pipelined = TransferModel::pipelined(500.0).unwrap();
        let unpipelined = TransferModel::unpipelined(100.0, 2.0).unwrap();
        assert_eq!(pipelined.latency_for(bytes(64.0)), pipelined.latency_for(bytes(64_000.0)));
        assert_eq!(unpipelined.latency_for(bytes(100.0)).get(), 300.0);
        assert_eq!(unpipelined.latency_for(bytes(1_000.0)).get(), 2_100.0);
        assert_eq!(pipelined.slope().get(), 0.0);
        assert_eq!(unpipelined.slope().get(), 2.0);
        assert_eq!(unpipelined.fixed().get(), 100.0);
    }

    #[test]
    fn pipelined_matches_scalar_breakeven() {
        // A pipelined transfer is exactly the scalar-L model on every
        // route. With Q > 0 this used to charge Q on the throughput path
        // of remote async and posted Sync-OS offloads, where the model
        // drops L + Q together.
        use crate::model::DriverMode;
        let cost = KernelCost::linear(cycles_per_byte(5.0));
        for design in ThreadingDesign::ALL {
            for strategy in AccelerationStrategy::ALL {
                for driver in [DriverMode::AwaitsAck, DriverMode::Posted] {
                    let scalar_ctx = OffloadContext {
                        driver,
                        ..OffloadContext::new(
                            OffloadOverheads::new(100.0, 500.0, 50.0, 300.0),
                            8.0,
                            design,
                            strategy,
                        )
                    };
                    let scalar = crate::breakeven::throughput_breakeven(&cost, &scalar_ctx);
                    let transfer = TransferModel::pipelined(500.0).unwrap();
                    let generalized =
                        throughput_breakeven_with_transfer(&cost, &scalar_ctx, &transfer);
                    let (Some(scalar), Some(generalized)) =
                        (scalar.threshold(), generalized.threshold())
                    else {
                        panic!("{design:?}/{strategy:?}/{driver:?}: {scalar:?} vs {generalized:?}");
                    };
                    assert!(
                        (scalar.get() - generalized.get()).abs() < 1e-9,
                        "{design:?}/{strategy:?}/{driver:?}: {scalar} vs {generalized}"
                    );
                }
            }
        }
    }

    #[test]
    fn transfer_slope_raises_breakeven() {
        let cost = KernelCost::linear(cycles_per_byte(5.0));
        let c = ctx(ThreadingDesign::Sync, AccelerationStrategy::OffChip);
        let fast = TransferModel::unpipelined(500.0, 0.5).unwrap();
        let slow = TransferModel::unpipelined(500.0, 3.0).unwrap();
        let g_fast = throughput_breakeven_with_transfer(&cost, &c, &fast)
            .threshold()
            .unwrap();
        let g_slow = throughput_breakeven_with_transfer(&cost, &c, &slow)
            .threshold()
            .unwrap();
        assert!(g_slow > g_fast);
    }

    #[test]
    fn slope_above_saving_is_never_lucrative() {
        // Cb(1 − 1/A) = 5·7/8 = 4.375; a 5-cycles/B interface eats the
        // entire saving.
        let cost = KernelCost::linear(cycles_per_byte(5.0));
        let c = ctx(ThreadingDesign::Sync, AccelerationStrategy::OffChip);
        let hopeless = TransferModel::unpipelined(0.0, 5.0).unwrap();
        assert_eq!(
            throughput_breakeven_with_transfer(&cost, &c, &hopeless),
            BreakEven::Never
        );
    }

    #[test]
    fn remote_async_ignores_transfer_entirely() {
        // For remote async, L never reaches the host path, so even an
        // absurd transfer slope leaves the o0-only break-even.
        let cost = KernelCost::linear(cycles_per_byte(5.0));
        let c = ctx(ThreadingDesign::AsyncSameThread, AccelerationStrategy::Remote);
        let absurd = TransferModel::unpipelined(1e9, 1e3).unwrap();
        let g = throughput_breakeven_with_transfer(&cost, &c, &absurd)
            .threshold()
            .unwrap();
        // Cb·g > o0 → g > 20.
        assert!((g.get() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_fixed_cost_is_always_lucrative() {
        let cost = KernelCost::linear(cycles_per_byte(5.0));
        let c = OffloadContext::new(
            OffloadOverheads::NONE,
            8.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OffChip,
        );
        let streaming = TransferModel::unpipelined(0.0, 1.0).unwrap();
        assert_eq!(
            throughput_breakeven_with_transfer(&cost, &c, &streaming),
            BreakEven::Always
        );
    }

    #[test]
    fn mean_latency_uses_mean_bytes() {
        let t = TransferModel::unpipelined(100.0, 2.0).unwrap();
        assert_eq!(t.mean_latency(bytes(425.0)).get(), 950.0);
    }

    #[test]
    fn serde_round_trip() {
        let t = TransferModel::unpipelined(100.0, 2.0).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("unpipelined"));
        let back: TransferModel = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
