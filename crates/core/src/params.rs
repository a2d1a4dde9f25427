//! Model parameters (Table 5 of the paper).

use serde::{Deserialize, Serialize};

use crate::error::{ensure, Result};
use crate::units::Cycles;

/// Per-offload overhead cycles dispatched alongside each offload
/// (the `o0`, `L`, `Q`, and `o1` columns of Table 5).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadOverheads {
    /// `o0`: cycles the host spends setting up the kernel prior to a
    /// single offload (e.g. preparing descriptors, batching, extra I/O).
    pub setup: Cycles,
    /// `L`: average cycles to move one offload from host to accelerator
    /// across the interface, including cache/memory transit time.
    pub interface: Cycles,
    /// `Q`: average cycles an offload waits for the accelerator to become
    /// available.
    pub queueing: Cycles,
    /// `o1`: cycles for one thread switch (context switch plus consequent
    /// cache pollution), paid when the OS switches threads around a
    /// blocked offload.
    pub thread_switch: Cycles,
}

impl OffloadOverheads {
    /// No overheads at all — the idealized on-chip case.
    #[cfg(test)]
    pub const NONE: Self = Self {
        setup: Cycles::ZERO,
        interface: Cycles::ZERO,
        queueing: Cycles::ZERO,
        thread_switch: Cycles::ZERO,
    };

    /// Creates overheads from raw cycle values in Table 5 order
    /// (`o0`, `L`, `Q`, `o1`).
    #[must_use]
    pub fn new(o0: f64, l: f64, q: f64, o1: f64) -> Self {
        Self {
            setup: Cycles::new(o0),
            interface: Cycles::new(l),
            queueing: Cycles::new(q),
            thread_switch: Cycles::new(o1),
        }
    }

    fn validate(&self) -> Result<()> {
        ensure(
            self.setup.is_valid_magnitude(),
            "o0",
            self.setup.get(),
            "setup cycles must be finite and non-negative",
        )?;
        ensure(
            self.interface.is_valid_magnitude(),
            "L",
            self.interface.get(),
            "interface cycles must be finite and non-negative",
        )?;
        ensure(
            self.queueing.is_valid_magnitude(),
            "Q",
            self.queueing.get(),
            "queueing cycles must be finite and non-negative",
        )?;
        ensure(
            self.thread_switch.is_valid_magnitude(),
            "o1",
            self.thread_switch.get(),
            "thread-switch cycles must be finite and non-negative",
        )
    }
}

/// The complete parameter set of the Accelerometer model for one kernel
/// under study (Table 5).
///
/// The paper's `C` is the total host cycles spent executing *all* logic in
/// a fixed time unit (one second at the host's busy frequency); `α ≤ 1` is
/// the fraction of those cycles spent in the kernel being accelerated; `n`
/// is the number of lucrative offloads in the window; and `A` is the peak
/// accelerator speedup factor.
///
/// # Examples
///
/// The AES-NI case study (Table 6, row 1):
///
/// ```
/// use accelerometer::ModelParams;
///
/// let params = ModelParams::builder()
///     .host_cycles(2.0e9)
///     .kernel_fraction(0.165844)
///     .offloads(298_951.0)
///     .setup_cycles(10.0)
///     .interface_cycles(3.0)
///     .peak_speedup(6.0)
///     .build()?;
/// assert_eq!(params.offloads(), 298_951.0);
/// # Ok::<(), accelerometer::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    host_cycles: Cycles,
    kernel_fraction: f64,
    offloads: f64,
    overheads: OffloadOverheads,
    peak_speedup: f64,
}

impl ModelParams {
    /// Starts building a parameter set.
    #[must_use]
    pub fn builder() -> ModelParamsBuilder {
        ModelParamsBuilder::default()
    }

    /// `C`: total host cycles in the accounting window.
    #[must_use]
    pub fn host_cycles(&self) -> Cycles {
        self.host_cycles
    }

    /// `α`: fraction of host cycles spent executing the kernel.
    #[must_use]
    pub fn kernel_fraction(&self) -> f64 {
        self.kernel_fraction
    }

    /// `n`: number of lucrative offloads in the accounting window.
    #[must_use]
    pub fn offloads(&self) -> f64 {
        self.offloads
    }

    /// The per-offload overhead cycles (`o0`, `L`, `Q`, `o1`).
    #[must_use]
    pub fn overheads(&self) -> OffloadOverheads {
        self.overheads
    }

    /// `A`: the accelerator's peak speedup factor for this kernel.
    #[must_use]
    pub fn peak_speedup(&self) -> f64 {
        self.peak_speedup
    }
}

/// Builder for [`ModelParams`]; all cycle quantities are raw `f64` cycles.
#[derive(Debug, Clone, Default)]
pub struct ModelParamsBuilder {
    host_cycles: Option<f64>,
    kernel_fraction: Option<f64>,
    offloads: Option<f64>,
    overheads: OffloadOverheads,
    peak_speedup: Option<f64>,
}

impl ModelParamsBuilder {
    /// Sets `C`, the host cycles in the accounting window.
    #[must_use]
    pub fn host_cycles(mut self, c: f64) -> Self {
        self.host_cycles = Some(c);
        self
    }

    /// Sets `α`, the kernel's fraction of host cycles.
    #[must_use]
    pub fn kernel_fraction(mut self, alpha: f64) -> Self {
        self.kernel_fraction = Some(alpha);
        self
    }

    /// Sets `n`, the number of offloads in the window.
    #[must_use]
    pub fn offloads(mut self, n: f64) -> Self {
        self.offloads = Some(n);
        self
    }

    /// Sets `o0`, the per-offload setup cycles.
    #[must_use]
    pub fn setup_cycles(mut self, o0: f64) -> Self {
        self.overheads.setup = Cycles::new(o0);
        self
    }

    /// Sets `L`, the per-offload interface transfer cycles.
    #[must_use]
    pub fn interface_cycles(mut self, l: f64) -> Self {
        self.overheads.interface = Cycles::new(l);
        self
    }

    /// Sets `Q`, the mean per-offload queueing cycles.
    #[must_use]
    pub fn queueing_cycles(mut self, q: f64) -> Self {
        self.overheads.queueing = Cycles::new(q);
        self
    }

    /// Sets `o1`, the thread-switch cycles.
    #[must_use]
    pub fn thread_switch_cycles(mut self, o1: f64) -> Self {
        self.overheads.thread_switch = Cycles::new(o1);
        self
    }

    /// Sets every overhead at once.
    #[must_use]
    pub fn overheads(mut self, overheads: OffloadOverheads) -> Self {
        self.overheads = overheads;
        self
    }

    /// Sets `A`, the accelerator's peak speedup factor.
    #[must_use]
    pub fn peak_speedup(mut self, a: f64) -> Self {
        self.peak_speedup = Some(a);
        self
    }

    /// Validates and builds the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] when a required
    /// parameter is missing or outside its domain: `C > 0`,
    /// `0 < α ≤ 1`, `n ≥ 0`, `A ≥ 1`, and all overheads finite and
    /// non-negative.
    pub fn build(self) -> Result<ModelParams> {
        let host_cycles = self.host_cycles.unwrap_or(f64::NAN);
        ensure(
            host_cycles.is_finite() && host_cycles > 0.0,
            "C",
            host_cycles,
            "host cycles must be set, finite, and positive",
        )?;
        let alpha = self.kernel_fraction.unwrap_or(f64::NAN);
        ensure(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha",
            alpha,
            "must be set and satisfy 0 < alpha <= 1",
        )?;
        let offloads = self.offloads.unwrap_or(f64::NAN);
        ensure(
            offloads.is_finite() && offloads >= 0.0,
            "n",
            offloads,
            "offload count must be set, finite, and non-negative",
        )?;
        // A = 1 is meaningful: case study 3 offloads inference to a
        // general-purpose remote CPU with no kernel-level speedup.
        let peak_speedup = self.peak_speedup.unwrap_or(f64::NAN);
        ensure(
            peak_speedup >= 1.0 || peak_speedup == f64::INFINITY,
            "A",
            peak_speedup,
            "peak speedup must be set and at least 1 (may be infinite)",
        )?;
        self.overheads.validate()?;
        Ok(ModelParams {
            host_cycles: Cycles::new(host_cycles),
            kernel_fraction: alpha,
            offloads,
            overheads: self.overheads,
            peak_speedup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelError;

    fn aes_ni() -> ModelParams {
        ModelParams::builder()
            .host_cycles(2.0e9)
            .kernel_fraction(0.165844)
            .offloads(298_951.0)
            .setup_cycles(10.0)
            .interface_cycles(3.0)
            .peak_speedup(6.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_round_trips_table_6_row() {
        let p = aes_ni();
        assert_eq!(p.host_cycles().get(), 2.0e9);
        assert_eq!(p.kernel_fraction(), 0.165844);
        assert_eq!(p.offloads(), 298_951.0);
        assert_eq!(p.overheads().setup.get(), 10.0);
        assert_eq!(p.overheads().interface.get(), 3.0);
        assert_eq!(p.overheads().queueing.get(), 0.0);
        assert_eq!(p.peak_speedup(), 6.0);
    }

    #[test]
    fn rejects_missing_c() {
        let err = ModelParams::builder()
            .kernel_fraction(0.5)
            .offloads(1.0)
            .peak_speedup(2.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::InvalidParameter { name: "C", .. }
        ));
    }

    #[test]
    fn rejects_alpha_out_of_range() {
        for bad in [0.0, -0.1, 1.1, f64::NAN] {
            let err = ModelParams::builder()
                .host_cycles(1e9)
                .kernel_fraction(bad)
                .offloads(1.0)
                .peak_speedup(2.0)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidParameter { name: "alpha", .. }),
                "alpha = {bad} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_speedup_below_one() {
        let err = ModelParams::builder()
            .host_cycles(1e9)
            .kernel_fraction(0.5)
            .offloads(1.0)
            .peak_speedup(0.5)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::InvalidParameter { name: "A", .. }
        ));
    }

    #[test]
    fn accepts_unit_and_infinite_speedup() {
        // Case study 3 uses A = 1 (general-purpose remote CPU).
        for a in [1.0, f64::INFINITY] {
            let p = ModelParams::builder()
                .host_cycles(1e9)
                .kernel_fraction(0.5)
                .offloads(1.0)
                .peak_speedup(a)
                .build()
                .unwrap();
            assert_eq!(p.peak_speedup(), a);
        }
    }

    #[test]
    fn rejects_negative_overheads() {
        let err = ModelParams::builder()
            .host_cycles(1e9)
            .kernel_fraction(0.5)
            .offloads(1.0)
            .peak_speedup(2.0)
            .queueing_cycles(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::InvalidParameter { name: "Q", .. }
        ));
    }

    #[test]
    fn serde_round_trip() {
        let p = aes_ni();
        let json = serde_json::to_string(&p).unwrap();
        let back: ModelParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
