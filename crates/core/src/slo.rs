//! Latency-SLO guardrails.
//!
//! §3: "Service operators can use the... latency reduction equation to
//! ensure that the latency SLO is not violated." The latency denominator
//! `CL/C` is linear in every overhead parameter, so the largest tolerable
//! value of each — interface latency, queueing, offload rate — solves in
//! closed form. This module provides those inversions plus the
//! throughput-vs-latency trade-off detector the paper highlights for
//! Sync-OS (a design can gain QPS while *slowing individual requests*).

use serde::{Deserialize, Serialize};

use crate::error::{ensure, Result};
use crate::model::{base_fractions, latency_overhead_per_offload, Scenario};
use crate::units::Cycles;

/// A per-request latency requirement, expressed as the minimum
/// acceptable latency *reduction* `C/CL`.
///
/// `LatencySlo::at_least(1.0)` demands acceleration never
/// slow requests down; ratios above 1 demand improvement; ratios below 1
/// tolerate bounded slowdown (e.g. `0.95` allows requests to get ~5%
/// slower in exchange for throughput).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySlo {
    min_reduction: f64,
}

impl LatencySlo {
    /// Requires a latency reduction of at least `ratio` (`C/CL ≥ ratio`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] unless
    /// `ratio` is finite and positive.
    pub fn at_least(ratio: f64) -> Result<Self> {
        ensure(
            ratio.is_finite() && ratio > 0.0,
            "slo",
            ratio,
            "latency-reduction requirement must be finite and positive",
        )?;
        Ok(Self {
            min_reduction: ratio,
        })
    }

    /// Whether a scenario meets this SLO.
    #[must_use]
    pub fn is_met_by(&self, scenario: &Scenario) -> bool {
        self.is_met_by_ratio(scenario.estimate().latency_reduction)
    }

    /// Whether a *measured* latency reduction (`C/CL`, or any
    /// baseline-over-treatment latency ratio, e.g. p99 under faults)
    /// meets this SLO — the simulator-side counterpart of
    /// [`is_met_by`](Self::is_met_by).
    #[must_use]
    pub fn is_met_by_ratio(&self, reduction: f64) -> bool {
        reduction >= self.min_reduction - 1e-12
    }
}

/// `CL/C` before per-offload overheads: `(1−α)`, plus `α/A` when the
/// accelerator's time is on the latency path.
fn latency_base_fraction(scenario: &Scenario) -> f64 {
    let p = &scenario.params;
    let alpha = p.kernel_fraction();
    base_fractions(
        1.0 - alpha,
        alpha / p.peak_speedup(),
        scenario.design,
        scenario.strategy,
    )
    .1
}

/// The latency-path budget available for per-offload overheads:
/// `C/n · (1/slo − (1−α) − [αC/A if on latency path])`, in cycles per
/// offload. Negative means the SLO is infeasible for this scenario shape
/// even with zero overheads.
fn per_offload_latency_budget(scenario: &Scenario, slo: LatencySlo) -> f64 {
    let p = &scenario.params;
    (1.0 / slo.min_reduction - latency_base_fraction(scenario)) * p.host_cycles().get()
        / p.offloads()
}

/// The largest interface latency `L` (cycles) the scenario tolerates
/// while meeting the SLO, holding every other parameter fixed.
///
/// Returns `None` when no `L ≥ 0` satisfies the SLO (the other overheads
/// already blow the budget).
#[must_use]
pub fn max_interface_latency(scenario: &Scenario, slo: LatencySlo) -> Option<Cycles> {
    let ovh = scenario.params.overheads();
    let switches = scenario.design.thread_switches_on_latency_path();
    let budget = per_offload_latency_budget(scenario, slo)
        - ovh.setup.get()
        - ovh.queueing.get()
        - ovh.thread_switch.get() * switches;
    (budget >= 0.0).then(|| Cycles::new(budget))
}

/// The largest offload count `n` per window the scenario tolerates while
/// meeting the SLO (e.g. how much traffic a shared accelerator may take
/// before requests miss their latency target).
///
/// Returns `None` when the per-offload overhead is zero (any `n` works)
/// wrapped as `f64::INFINITY`, or when even `n = 0` misses the SLO.
#[must_use]
pub fn max_offload_rate(scenario: &Scenario, slo: LatencySlo) -> Option<f64> {
    let headroom = 1.0 / slo.min_reduction - latency_base_fraction(scenario);
    if headroom < 0.0 {
        return None;
    }
    let per_offload =
        latency_overhead_per_offload(scenario.params.overheads(), scenario.design).get();
    if per_offload <= 0.0 {
        return Some(f64::INFINITY);
    }
    Some(headroom * scenario.params.host_cycles().get() / per_offload)
}

/// The minimum accelerator speedup `A` meeting the SLO (only meaningful
/// when the accelerator's time is on the latency path).
///
/// Returns `None` when no finite `A` suffices (overheads alone violate
/// the SLO) and `Some(1.0)` when even `A = 1` meets it.
#[must_use]
pub fn min_peak_speedup(scenario: &Scenario, slo: LatencySlo) -> Option<f64> {
    if !crate::model::accelerator_time_in_latency(scenario.design, scenario.strategy) {
        // αC/A never reaches the request path: A is unconstrained.
        return Some(1.0);
    }
    let p = &scenario.params;
    let alpha = p.kernel_fraction();
    let per_offload = latency_overhead_per_offload(p.overheads(), scenario.design).get();
    let rest = (1.0 - alpha) + p.offloads() * per_offload / p.host_cycles().get();
    let headroom = 1.0 / slo.min_reduction - rest;
    if headroom <= 0.0 {
        return None;
    }
    Some((alpha / headroom).max(1.0))
}

/// The §3 Sync-OS hazard: the design gains throughput while *increasing*
/// per-request latency ("making it feasible to incur a throughput gain
/// at the cost of a per-request latency slowdown").
#[must_use]
pub fn gains_throughput_but_slows_requests(scenario: &Scenario) -> bool {
    let est = scenario.estimate();
    est.improves_throughput() && !est.reduces_latency()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DriverMode;
    use crate::params::ModelParams;
    use crate::strategy::AccelerationStrategy;
    use crate::threading::ThreadingDesign;

    fn scenario(l: f64, o1: f64, a: f64, design: ThreadingDesign) -> Scenario {
        let params = ModelParams::builder()
            .host_cycles(1e9)
            .kernel_fraction(0.2)
            .offloads(10_000.0)
            .setup_cycles(20.0)
            .interface_cycles(l)
            .thread_switch_cycles(o1)
            .peak_speedup(a)
            .build()
            .unwrap();
        Scenario::new(params, design, AccelerationStrategy::OffChip)
            .with_driver(DriverMode::AwaitsAck)
    }

    #[test]
    fn slo_construction() {
        assert!(LatencySlo::at_least(1.05).is_ok());
        assert!(LatencySlo::at_least(0.0).is_err());
        assert!(LatencySlo::at_least(f64::NAN).is_err());
    }

    #[test]
    fn measured_ratios_check_against_the_same_boundary() {
        let slo = LatencySlo::at_least(0.5).unwrap();
        assert!(slo.is_met_by_ratio(0.5));
        assert!(slo.is_met_by_ratio(1.2));
        assert!(!slo.is_met_by_ratio(0.49));
        assert!(!slo.is_met_by_ratio(f64::NAN));
    }

    #[test]
    fn max_interface_latency_is_the_boundary() {
        let slo = LatencySlo::at_least(1.0).unwrap();
        let s = scenario(1_000.0, 0.0, 8.0, ThreadingDesign::Sync);
        let max_l = max_interface_latency(&s, slo).expect("feasible").get();
        // Rebuild at the boundary and a hair beyond.
        let rebuild = |l: f64| scenario(l, 0.0, 8.0, ThreadingDesign::Sync);
        assert!(slo.is_met_by(&rebuild(max_l)));
        assert!(!slo.is_met_by(&rebuild(max_l * 1.01)));
        // The boundary lies above the configured L (which meets the SLO).
        assert!(slo.is_met_by(&s));
        assert!(max_l > 1_000.0);
    }

    #[test]
    fn infeasible_slo_returns_none() {
        // Demand a 2x latency reduction from an A = 2 accelerator on 20%
        // of cycles: impossible (ideal is 1/(0.8 + 0.1) ≈ 1.11).
        let s = scenario(0.0, 0.0, 2.0, ThreadingDesign::Sync);
        let slo = LatencySlo::at_least(2.0).unwrap();
        assert!(max_interface_latency(&s, slo).is_none());
        assert!(max_offload_rate(&s, slo).is_none());
        assert!(min_peak_speedup(&s, slo).is_none());
    }

    #[test]
    fn max_offload_rate_boundary() {
        let slo = LatencySlo::at_least(1.0).unwrap();
        let s = scenario(2_000.0, 0.0, 8.0, ThreadingDesign::Sync);
        let max_n = max_offload_rate(&s, slo).expect("feasible");
        assert!(max_n > 10_000.0, "configured n meets the SLO");
        let axis = crate::sweep::SweepAxis::Offloads;
        let est = crate::sweep::sweep(&s, axis, &[max_n]).unwrap()[0].estimate;
        assert!((est.latency_reduction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_overhead_tolerates_any_rate() {
        let s = {
            let params = ModelParams::builder()
                .host_cycles(1e9)
                .kernel_fraction(0.2)
                .offloads(10.0)
                .peak_speedup(8.0)
                .build()
                .unwrap();
            Scenario::new(params, ThreadingDesign::Sync, AccelerationStrategy::OnChip)
        };
        assert_eq!(
            max_offload_rate(&s, LatencySlo::at_least(1.0).unwrap()),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn min_peak_speedup_boundary() {
        let slo = LatencySlo::at_least(1.05).unwrap();
        let s = scenario(500.0, 0.0, 8.0, ThreadingDesign::Sync);
        let min_a = min_peak_speedup(&s, slo).expect("feasible");
        assert!(min_a > 1.0);
        let rebuild = |a: f64| scenario(500.0, 0.0, a, ThreadingDesign::Sync);
        assert!(slo.is_met_by(&rebuild(min_a * 1.01)));
        assert!(!slo.is_met_by(&rebuild(min_a * 0.9)));
    }

    #[test]
    fn async_designs_do_not_constrain_a_for_remote() {
        let params = ModelParams::builder()
            .host_cycles(1e9)
            .kernel_fraction(0.2)
            .offloads(100.0)
            .setup_cycles(10.0)
            .peak_speedup(1.0)
            .build()
            .unwrap();
        let s = Scenario::new(
            params,
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::Remote,
        );
        assert_eq!(
            min_peak_speedup(&s, LatencySlo::at_least(1.0).unwrap()),
            Some(1.0)
        );
    }

    #[test]
    fn sync_os_can_gain_throughput_while_slowing_requests() {
        // Large o1 with a posted driver: the throughput path drops (L+Q)
        // but the latency path keeps αC/A + o1, so requests slow down
        // while QPS rises — the §3 hazard.
        let params = ModelParams::builder()
            .host_cycles(1e9)
            .kernel_fraction(0.2)
            .offloads(10_000.0)
            .interface_cycles(900.0)
            .thread_switch_cycles(8_000.0)
            .peak_speedup(1.3)
            .build()
            .unwrap();
        let s = Scenario::new(
            params,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::Remote,
        );
        let est = s.estimate();
        assert!(est.improves_throughput(), "throughput {:?}", est);
        assert!(!est.reduces_latency(), "latency {:?}", est);
        assert!(gains_throughput_but_slows_requests(&s));
        // A plain Sync design never exhibits the hazard (paths coincide).
        let sync = scenario(100.0, 0.0, 8.0, ThreadingDesign::Sync);
        assert!(!gains_throughput_but_slows_requests(&sync));
    }
}
