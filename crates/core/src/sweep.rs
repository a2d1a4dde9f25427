//! Design-space sweeps over model parameters.
//!
//! Architects use the model "to determine trade-offs between various
//! acceleration strategies" (§3, applications). A sweep evaluates a base
//! scenario across a range of one parameter — peak speedup `A`, interface
//! latency `L`, offload count `n`, or kernel fraction `α` — producing the
//! series a design-space plot needs. Multi-scenario batches fan out across
//! threads through `ExecPool`.

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::model::Estimate;
use crate::model::Scenario;
use crate::params::ModelParams;

/// One point of a sweep: the swept parameter value and the model output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The value of the swept parameter.
    pub x: f64,
    /// The model estimate at that value.
    pub estimate: Estimate,
}

/// Which parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum SweepAxis {
    /// Vary `A`, the accelerator's peak speedup.
    PeakSpeedup,
    /// Vary `L`, the interface latency in cycles.
    InterfaceLatency,
    /// Vary `n`, the offload count per window.
    Offloads,
    /// Vary `α`, the kernel's cycle fraction.
    KernelFraction,
    /// Vary `Q`, the mean queueing delay in cycles.
    Queueing,
    /// Vary `o1`, the thread-switch cost in cycles.
    ThreadSwitch,
}

fn rebuild(base: &Scenario, axis: SweepAxis, x: f64) -> Result<Scenario> {
    let p = &base.params;
    let ovh = p.overheads();
    let mut b = ModelParams::builder()
        .host_cycles(p.host_cycles().get())
        .kernel_fraction(p.kernel_fraction())
        .offloads(p.offloads())
        .setup_cycles(ovh.setup.get())
        .interface_cycles(ovh.interface.get())
        .queueing_cycles(ovh.queueing.get())
        .thread_switch_cycles(ovh.thread_switch.get())
        .peak_speedup(p.peak_speedup());
    b = match axis {
        SweepAxis::PeakSpeedup => b.peak_speedup(x),
        SweepAxis::InterfaceLatency => b.interface_cycles(x),
        SweepAxis::Offloads => b.offloads(x),
        SweepAxis::KernelFraction => b.kernel_fraction(x),
        SweepAxis::Queueing => b.queueing_cycles(x),
        SweepAxis::ThreadSwitch => b.thread_switch_cycles(x),
    };
    let params = b.build()?;
    Ok(Scenario {
        params,
        design: base.design,
        strategy: base.strategy,
        driver: base.driver,
    })
}

/// Sweeps one axis of a scenario over the given values, one point per
/// value.
///
/// # Errors
///
/// Returns the [`ModelError::InvalidParameter`](crate::ModelError) of
/// the first value that produces an invalid parameter set (e.g. `α > 1`),
/// naming that value.
pub fn sweep(base: &Scenario, axis: SweepAxis, values: &[f64]) -> Result<Vec<SweepPoint>> {
    values
        .iter()
        .map(|&x| {
            rebuild(base, axis, x).map(|s| SweepPoint {
                x,
                estimate: s.estimate(),
            })
        })
        .collect()
}

/// Evaluates many independent scenarios in parallel on `pool`.
///
/// The output preserves input order, so fleet-wide batch projections
/// scale with cores while staying byte-identical to a sequential
/// evaluation.
#[must_use]
pub fn estimate_batch_with(pool: &crate::exec::ExecPool, scenarios: &[Scenario]) -> Vec<Estimate> {
    pool.map(scenarios, |_, s| s.estimate())
}

/// Generates logarithmically spaced sweep values between `lo` and `hi`.
///
/// # Panics
///
/// Panics if `lo` or `hi` is not positive, or `points < 2`.
#[must_use]
pub fn log_space(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "log_space requires 0 < lo < hi");
    assert!(points >= 2, "log_space requires at least two points");
    let step = (hi / lo).ln() / (points - 1) as f64;
    (0..points).map(|i| lo * (step * i as f64).exp()).collect()
}

/// Generates linearly spaced sweep values between `lo` and `hi`.
///
/// # Panics
///
/// Panics if `points < 2` or `hi <= lo`.
#[must_use]
pub fn lin_space(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "lin_space requires at least two points");
    assert!(hi > lo, "lin_space requires hi > lo");
    let step = (hi - lo) / (points - 1) as f64;
    (0..points).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DriverMode;
    use crate::strategy::AccelerationStrategy;
    use crate::threading::ThreadingDesign;

    fn base() -> Scenario {
        let params = ModelParams::builder()
            .host_cycles(2.3e9)
            .kernel_fraction(0.15)
            .offloads(9_629.0)
            .interface_cycles(2_300.0)
            .peak_speedup(27.0)
            .build()
            .unwrap();
        Scenario {
            params,
            design: ThreadingDesign::Sync,
            strategy: AccelerationStrategy::OffChip,
            driver: DriverMode::AwaitsAck,
        }
    }

    #[test]
    fn speedup_increases_with_a() {
        let points = sweep(
            &base(),
            SweepAxis::PeakSpeedup,
            &[2.0, 4.0, 8.0, 16.0, 32.0],
        )
        .unwrap();
        assert_eq!(points.len(), 5);
        for w in points.windows(2) {
            assert!(w[1].estimate.throughput_speedup > w[0].estimate.throughput_speedup);
        }
    }

    #[test]
    fn speedup_decreases_with_l() {
        let points = sweep(
            &base(),
            SweepAxis::InterfaceLatency,
            &[0.0, 1_000.0, 5_000.0, 20_000.0],
        )
        .unwrap();
        for w in points.windows(2) {
            assert!(w[1].estimate.throughput_speedup < w[0].estimate.throughput_speedup);
        }
    }

    #[test]
    fn first_invalid_value_is_an_error() {
        let err = sweep(&base(), SweepAxis::KernelFraction, &[0.1, 1.5, 0.3, 2.5]).unwrap_err();
        assert!(
            matches!(err, crate::ModelError::InvalidParameter { value, .. } if value == 1.5),
            "{err}"
        );
        assert!(err.to_string().contains("1.5"), "{err}");
    }

    #[test]
    fn batch_matches_sequential() {
        let scenarios: Vec<Scenario> = (1..40)
            .map(|i| rebuild(&base(), SweepAxis::Offloads, f64::from(i) * 100.0).unwrap())
            .collect();
        let pool = crate::exec::ExecPool::new(4);
        let parallel = estimate_batch_with(&pool, &scenarios);
        for (s, e) in scenarios.iter().zip(&parallel) {
            assert_eq!(s.estimate(), *e);
        }
        // Singleton path.
        assert_eq!(
            estimate_batch_with(&pool, &scenarios[..1])[0],
            scenarios[0].estimate()
        );
        assert!(estimate_batch_with(&pool, &[]).is_empty());
    }

    #[test]
    fn log_space_endpoints_and_growth() {
        let v = log_space(1.0, 1_000.0, 4);
        assert_eq!(v.len(), 4);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[3] - 1_000.0).abs() < 1e-9);
        assert!((v[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lin_space_endpoints() {
        let v = lin_space(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    #[should_panic(expected = "log_space requires")]
    fn log_space_rejects_zero_lo() {
        let _ = log_space(0.0, 10.0, 3);
    }
}
