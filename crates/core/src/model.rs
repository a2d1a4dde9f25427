//! The Accelerometer speedup and latency-reduction equations (§3).
//!
//! The model projects two quantities for a kernel offloaded to an
//! accelerator:
//!
//! * **throughput speedup** `C/CS` — the ratio of host cycles consumed per
//!   accounting window without acceleration to host cycles consumed with
//!   acceleration. Freeing host cycles lets the service absorb more QPS.
//! * **latency reduction** `C/CL` — the ratio of unaccelerated cycles to
//!   the total cycles on the *request's* critical path (host plus
//!   accelerator plus offload overheads). This guards the latency SLO.
//!
//! Which overheads land in `CS` versus `CL` depends on the
//! [`ThreadingDesign`] and [`AccelerationStrategy`]; the mapping below
//! implements equations (1)–(8) of the paper exactly.
//!
//! | Paper eqn | Quantity | Scenario |
//! |---|---|---|
//! | (1) | speedup & latency | Sync |
//! | (3) | speedup | Sync-OS (2·`o1`) and Async-distinct-thread (1·`o1`) |
//! | (5) | latency | Sync-OS and Async-distinct-thread (1·`o1`) |
//! | (6) | speedup | Async same-thread / no-response; also latency for remote no-response |
//! | (8) | latency | Async same-thread; off-chip no-response |

use serde::{Deserialize, Serialize};

use crate::params::{ModelParams, OffloadOverheads};
use crate::strategy::AccelerationStrategy;
use crate::threading::ThreadingDesign;
use crate::units::Cycles;

/// Whether the host's device driver synchronously awaits an offload
/// acknowledgement from an off-chip accelerator before switching threads
/// (§3, Sync-OS discussion).
///
/// With [`DriverMode::AwaitsAck`], the `(L + Q)` overhead stays on the
/// Sync-OS throughput path; with [`DriverMode::Posted`] the driver fires
/// and switches immediately, so `(L + Q)` vanishes from that path. The
/// driver mode never affects the latency path: the request cannot complete
/// before its data has crossed the interface.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum DriverMode {
    /// The driver blocks until the accelerator acknowledges receipt.
    #[default]
    AwaitsAck,
    /// The driver posts the offload and returns immediately.
    Posted,
}

impl DriverMode {
    /// The driver an offload to `strategy` uses unless told otherwise:
    /// off-chip drivers await acknowledgements; on-chip and remote do not.
    #[must_use]
    pub fn default_for(strategy: AccelerationStrategy) -> Self {
        if strategy.driver_awaits_ack_by_default() {
            DriverMode::AwaitsAck
        } else {
            DriverMode::Posted
        }
    }
}

/// A fully-specified acceleration scenario: parameters plus the threading
/// design, strategy, and driver behaviour that determine which overheads
/// reach each critical path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Table 5 parameters for the kernel under study.
    pub params: ModelParams,
    /// How microservice threads interact with the accelerator.
    pub design: ThreadingDesign,
    /// Where the accelerator sits (on-chip, off-chip, remote).
    pub strategy: AccelerationStrategy,
    /// Device-driver acknowledgement behaviour (Sync-OS only).
    pub driver: DriverMode,
}

impl Scenario {
    /// Creates a scenario with the driver mode defaulted from the strategy
    /// ([`DriverMode::default_for`]).
    #[must_use]
    pub fn new(
        params: ModelParams,
        design: ThreadingDesign,
        strategy: AccelerationStrategy,
    ) -> Self {
        Self {
            params,
            design,
            strategy,
            driver: DriverMode::default_for(strategy),
        }
    }

    /// Overrides the driver mode.
    #[must_use]
    pub fn with_driver(mut self, driver: DriverMode) -> Self {
        self.driver = driver;
        self
    }

    /// Evaluates the model for this scenario.
    #[must_use]
    pub fn estimate(&self) -> Estimate {
        estimate(&self.params, self.design, self.strategy, self.driver)
    }
}

/// The model's output for one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Throughput speedup `C/CS` (e.g. `1.157` means +15.7% throughput).
    pub throughput_speedup: f64,
    /// Per-request latency reduction `C/CL`.
    pub latency_reduction: f64,
    /// `CS`: host cycles consumed per window with acceleration.
    pub host_cycles_accelerated: Cycles,
    /// `CL`: total cycles on the request critical path with acceleration.
    pub request_path_cycles: Cycles,
}

impl Estimate {
    /// The estimate for host cycles `c` and the two path fractions
    /// `CS/C` and `CL/C`.
    pub(crate) fn from_fractions(c: Cycles, cs_fraction: f64, cl_fraction: f64) -> Self {
        Self {
            throughput_speedup: 1.0 / cs_fraction,
            latency_reduction: 1.0 / cl_fraction,
            host_cycles_accelerated: c * cs_fraction,
            request_path_cycles: c * cl_fraction,
        }
    }

    /// Throughput speedup expressed as a percentage gain
    /// (`15.7` for a `1.157×` speedup), matching how the paper reports
    /// Table 6 and Fig. 20.
    #[must_use]
    pub fn throughput_gain_percent(&self) -> f64 {
        (self.throughput_speedup - 1.0) * 100.0
    }

    /// Latency reduction expressed as a percentage gain.
    #[must_use]
    pub fn latency_gain_percent(&self) -> f64 {
        (self.latency_reduction - 1.0) * 100.0
    }

    /// Whether acceleration improves throughput at all (net speedup > 1).
    #[must_use]
    pub fn improves_throughput(&self) -> bool {
        self.throughput_speedup > 1.0
    }

    /// Whether acceleration reduces per-request latency at all.
    #[must_use]
    pub fn reduces_latency(&self) -> bool {
        self.latency_reduction > 1.0
    }

    /// Fraction of host cycles freed per window, `1 − CS/C`.
    ///
    /// E.g. the AES-NI case study frees 12.8% of Cache1's cycles.
    #[must_use]
    pub fn freed_cycle_fraction(&self, params: &ModelParams) -> f64 {
        1.0 - self.host_cycles_accelerated / params.host_cycles()
    }
}

/// Whether the per-offload transfer `L + Q` reaches the host's throughput
/// path. This is the one place the routing of eqns (1), (3) and (6) is
/// decided; every other module asks here.
pub(crate) fn transfer_reaches_throughput_path(
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
    driver: DriverMode,
) -> bool {
    match design {
        // The blocked core pays the full round trip.
        ThreadingDesign::Sync => true,
        // §3: (L+Q) persists only while an off-chip driver awaits an ack;
        // it is zero for posted drivers and for remote accelerators.
        ThreadingDesign::SyncOs => match (strategy, driver) {
            (AccelerationStrategy::Remote, _) | (_, DriverMode::Posted) => false,
            (_, DriverMode::AwaitsAck) => true,
        },
        // Eqn (6) keeps (L+Q) on the async throughput path: the host-side
        // driver still moves the (unpipelined) offload across the
        // interface. A remote offload rides the asynchronous network
        // stack, so the transfer happens off the host's cycle budget.
        ThreadingDesign::AsyncSameThread
        | ThreadingDesign::AsyncDistinctThread
        | ThreadingDesign::AsyncNoResponse => strategy != AccelerationStrategy::Remote,
    }
}

/// Per-offload overhead cycles charged to the throughput path for one
/// offload under the given design/strategy/driver combination.
pub(crate) fn throughput_overhead_per_offload(
    ovh: OffloadOverheads,
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
    driver: DriverMode,
) -> Cycles {
    let transfer_on_path = if transfer_reaches_throughput_path(design, strategy, driver) {
        ovh.interface + ovh.queueing
    } else {
        Cycles::ZERO
    };
    ovh.setup + transfer_on_path + ovh.thread_switch * design.thread_switches_on_throughput_path()
}

/// Per-offload overhead cycles charged to the request-latency path.
pub(crate) fn latency_overhead_per_offload(
    ovh: OffloadOverheads,
    design: ThreadingDesign,
) -> Cycles {
    // The request cannot complete before its data crosses the interface
    // and clears the accelerator queue, regardless of driver behaviour.
    ovh.setup
        + ovh.interface
        + ovh.queueing
        + ovh.thread_switch * design.thread_switches_on_latency_path()
}

/// Whether the accelerator's operating time appears on the request-latency
/// path for this design/strategy combination.
pub(crate) fn accelerator_time_in_latency(
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
) -> bool {
    design.consumes_response() || strategy.accelerator_time_in_request_latency()
}

/// The path fractions `(CS/C, CL/C)` before per-offload overheads:
/// `non_kernel` on both paths, plus `accel_term` (`α/A`) on each path the
/// accelerator's operating time reaches.
pub(crate) fn base_fractions(
    non_kernel: f64,
    accel_term: f64,
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
) -> (f64, f64) {
    let on = |reaches: bool| {
        if reaches {
            non_kernel + accel_term
        } else {
            non_kernel
        }
    };
    (
        on(design.accelerator_time_on_throughput_path()),
        // §3: a remote accelerator's operating time shows up in end-to-end
        // application latency, not this microservice's request latency —
        // but only when the host does not wait for the response. If the
        // host consumes the response (sync or async), the round trip is
        // on the request path no matter where the accelerator is.
        on(accelerator_time_in_latency(design, strategy)),
    )
}

/// Eqn (1) and its design variants with `attempts` saga attempts per
/// offload and a `fallback_probability` of re-running the kernel on the
/// host. [`estimate`] is the one-attempt, no-fallback case; with
/// `attempts = 1` and `fallback_probability = 0` the extra factors are
/// `x·1` and `x + 0` identities, so both entry points agree bit for bit.
fn evaluate(
    params: &ModelParams,
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
    driver: DriverMode,
    attempts: f64,
    fallback_probability: f64,
) -> Estimate {
    let c = params.host_cycles();
    let n = params.offloads() * attempts;
    let alpha = params.kernel_fraction();
    let (mut cs_fraction, mut cl_fraction) = base_fractions(
        1.0 - alpha + fallback_probability * alpha,
        alpha / params.peak_speedup() * attempts,
        design,
        strategy,
    );
    let ovh = params.overheads();
    cs_fraction +=
        n * throughput_overhead_per_offload(ovh, design, strategy, driver).get() / c.get();
    cl_fraction += n * latency_overhead_per_offload(ovh, design).get() / c.get();
    Estimate::from_fractions(c, cs_fraction, cl_fraction)
}

/// Evaluates equations (1)–(8) for the given scenario.
///
/// # Examples
///
/// Reproducing the AES-NI case study (Table 6): estimated speedup 15.7%.
///
/// ```
/// use accelerometer::{estimate, AccelerationStrategy, DriverMode, ModelParams, ThreadingDesign};
///
/// let params = ModelParams::builder()
///     .host_cycles(2.0e9)
///     .kernel_fraction(0.165844)
///     .offloads(298_951.0)
///     .setup_cycles(10.0)
///     .interface_cycles(3.0)
///     .peak_speedup(6.0)
///     .build()?;
/// let est = estimate(
///     &params,
///     ThreadingDesign::Sync,
///     AccelerationStrategy::OnChip,
///     DriverMode::Posted,
/// );
/// assert!((est.throughput_gain_percent() - 15.7).abs() < 0.1);
/// # Ok::<(), accelerometer::ModelError>(())
/// ```
#[must_use]
pub fn estimate(
    params: &ModelParams,
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
    driver: DriverMode,
) -> Estimate {
    evaluate(params, design, strategy, driver, 1.0, 0.0)
}

/// Evaluates the model under a fault/recovery regime described by a
/// [`FaultLoad`](crate::queueing::FaultLoad).
///
/// Two fault terms extend eqn (1), mirroring what the simulator now
/// schedules as real work:
///
/// * **Retry inflation.** Every saga attempt crosses the interface and
///   occupies the accelerator, so the per-offload overhead `o0 + (L+Q)`
///   and the accelerator operating time `α/A` are multiplied by the
///   expected attempts `E[a] = (1 − p^(r+1)) / (1 − p)`.
/// * **Fallback load.** A saga that exhausts its attempts under a
///   fallback policy re-executes the kernel on the host: expected host
///   demand `p_fb · α·C` lands back on the throughput *and* latency
///   paths (`p_fb = p^(r+1)` with fallback, 0 without).
///
/// Retry backoff waits are thread-idle time, not host cycles, so they
/// appear on neither path. With `p = 0` the result is bit-identical to
/// [`estimate`].
#[must_use]
pub fn estimate_with_faults(
    params: &ModelParams,
    design: ThreadingDesign,
    strategy: AccelerationStrategy,
    driver: DriverMode,
    load: &crate::queueing::FaultLoad,
) -> Estimate {
    evaluate(
        params,
        design,
        strategy,
        driver,
        load.expected_attempts,
        load.host_fallback_probability(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn params(c: f64, alpha: f64, n: f64, o0: f64, l: f64, q: f64, o1: f64, a: f64) -> ModelParams {
        ModelParams::builder()
            .host_cycles(c)
            .kernel_fraction(alpha)
            .offloads(n)
            .setup_cycles(o0)
            .interface_cycles(l)
            .queueing_cycles(q)
            .thread_switch_cycles(o1)
            .peak_speedup(a)
            .build()
            .unwrap()
    }

    /// Table 6, row 1: AES-NI for Cache1 (Sync, on-chip) → 15.7%.
    #[test]
    fn table6_aes_ni_sync_on_chip() {
        let p = params(2.0e9, 0.165844, 298_951.0, 10.0, 3.0, 0.0, 0.0, 6.0);
        let est = estimate(
            &p,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
            DriverMode::Posted,
        );
        assert!(
            (est.throughput_gain_percent() - 15.7).abs() < 0.1,
            "got {}",
            est.throughput_gain_percent()
        );
        // Eqn (1): latency reduction equals speedup for Sync.
        assert!((est.latency_reduction - est.throughput_speedup).abs() < 1e-12);
    }

    /// Table 6, row 2: off-chip encryption for Cache3 (Async, no response)
    /// → 8.6%.
    #[test]
    fn table6_encryption_async_off_chip() {
        let p = params(2.3e9, 0.19154, 101_863.0, 0.0, 2_530.0, 0.0, 0.0, 27.0);
        let est = estimate(
            &p,
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::OffChip,
            DriverMode::AwaitsAck,
        );
        assert!(
            (est.throughput_gain_percent() - 8.6).abs() < 0.1,
            "got {}",
            est.throughput_gain_percent()
        );
    }

    /// Table 6, row 3: remote inference for Ads1 (Async, distinct response
    /// thread, remote CPU with A = 1) → 72.39%.
    #[test]
    fn table6_remote_inference() {
        let p = params(2.5e9, 0.52, 10.0, 25_000_000.0, 0.0, 0.0, 12_500.0, 1.0);
        let est = estimate(
            &p,
            ThreadingDesign::AsyncDistinctThread,
            AccelerationStrategy::Remote,
            DriverMode::Posted,
        );
        assert!(
            (est.throughput_gain_percent() - 72.39).abs() < 0.05,
            "got {}",
            est.throughput_gain_percent()
        );
    }

    /// Eqn (3) with 2·o1: hand-computed Sync-OS case.
    #[test]
    fn sync_os_speedup_matches_hand_computation() {
        // C=1e9, α=0.2, n=1000, o0=100, L=200, Q=50, o1=500, A=10.
        let p = params(1e9, 0.2, 1000.0, 100.0, 200.0, 50.0, 500.0, 10.0);
        let est = estimate(
            &p,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::OffChip,
            DriverMode::AwaitsAck,
        );
        // denom = (1-0.2) + 1000*(100+200+50+1000)/1e9 = 0.8 + 1.35e-3.
        let expected = 1.0 / (0.8 + 1000.0 * 1350.0 / 1e9);
        assert!((est.throughput_speedup - expected).abs() < 1e-12);
        // Eqn (5): latency denom = 0.8 + 0.02 + 1000*(100+200+50+500)/1e9.
        let expected_lat = 1.0 / (0.8 + 0.02 + 1000.0 * 850.0 / 1e9);
        assert!((est.latency_reduction - expected_lat).abs() < 1e-12);
    }

    /// Sync-OS with a posted driver removes (L+Q) from the throughput path
    /// but not the latency path.
    #[test]
    fn sync_os_posted_driver_drops_transfer_from_throughput_only() {
        let p = params(1e9, 0.2, 1000.0, 100.0, 200.0, 50.0, 500.0, 10.0);
        let waits = estimate(
            &p,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::OffChip,
            DriverMode::AwaitsAck,
        );
        let posted = estimate(
            &p,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::OffChip,
            DriverMode::Posted,
        );
        assert!(posted.throughput_speedup > waits.throughput_speedup);
        assert!((posted.latency_reduction - waits.latency_reduction).abs() < 1e-12);
    }

    /// Sync-OS to a remote accelerator drops (L+Q) even when the driver
    /// nominally awaits acknowledgements.
    #[test]
    fn sync_os_remote_drops_transfer() {
        let p = params(1e9, 0.2, 1000.0, 100.0, 200.0, 50.0, 500.0, 10.0);
        let remote = estimate(
            &p,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::Remote,
            DriverMode::AwaitsAck,
        );
        let expected = 1.0 / (0.8 + 1000.0 * (100.0 + 2.0 * 500.0) / 1e9);
        assert!((remote.throughput_speedup - expected).abs() < 1e-12);
    }

    /// Eqn (6) vs eqn (8): async same-thread latency includes αC/A, and
    /// the speedup does not.
    #[test]
    fn async_same_thread_matches_eqns_6_and_8() {
        let p = params(1e9, 0.3, 2000.0, 10.0, 100.0, 20.0, 999.0, 5.0);
        let est = estimate(
            &p,
            ThreadingDesign::AsyncSameThread,
            AccelerationStrategy::OffChip,
            DriverMode::AwaitsAck,
        );
        let per_offload = 10.0 + 100.0 + 20.0;
        let expected_speedup = 1.0 / (0.7 + 2000.0 * per_offload / 1e9);
        let expected_latency = 1.0 / (0.7 + 0.3 / 5.0 + 2000.0 * per_offload / 1e9);
        assert!((est.throughput_speedup - expected_speedup).abs() < 1e-12);
        assert!((est.latency_reduction - expected_latency).abs() < 1e-12);
        // o1 must not appear anywhere for same-thread async.
        let p_no_o1 = params(1e9, 0.3, 2000.0, 10.0, 100.0, 20.0, 0.0, 5.0);
        let est_no_o1 = estimate(
            &p_no_o1,
            ThreadingDesign::AsyncSameThread,
            AccelerationStrategy::OffChip,
            DriverMode::AwaitsAck,
        );
        assert_eq!(est.throughput_speedup, est_no_o1.throughput_speedup);
    }

    /// Async no-response to a *remote* accelerator: latency reduction uses
    /// the eqn (6) form (no αC/A term).
    #[test]
    fn async_no_response_remote_latency_excludes_accelerator_time() {
        let p = params(1e9, 0.3, 2000.0, 10.0, 0.0, 0.0, 0.0, 5.0);
        let remote = estimate(
            &p,
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::Remote,
            DriverMode::Posted,
        );
        assert!((remote.latency_reduction - remote.throughput_speedup).abs() < 1e-12);
        let off_chip = estimate(
            &p,
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::OffChip,
            DriverMode::Posted,
        );
        assert!(off_chip.latency_reduction < off_chip.throughput_speedup);
    }

    #[test]
    fn freed_cycle_fraction_matches_case_study_1() {
        // §4 case study 1: AES-NI frees up 12.8% of Cache1's cycles — the
        // kernel drops from α·C to α·C/A plus offload overheads.
        let p = params(2.0e9, 0.165844, 298_951.0, 10.0, 3.0, 0.0, 0.0, 6.0);
        let est = estimate(
            &p,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
            DriverMode::Posted,
        );
        let freed = est.freed_cycle_fraction(&p);
        assert!((freed - 0.128).abs() < 0.01, "freed {freed}");
    }

    #[test]
    fn driver_defaults_from_the_strategy() {
        for (strategy, driver) in [
            (AccelerationStrategy::OnChip, DriverMode::Posted),
            (AccelerationStrategy::OffChip, DriverMode::AwaitsAck),
            (AccelerationStrategy::Remote, DriverMode::Posted),
        ] {
            assert_eq!(DriverMode::default_for(strategy), driver, "{strategy:?}");
        }
    }

    #[test]
    fn transfer_routing_matches_eqns_1_3_and_6() {
        use AccelerationStrategy::{OffChip, OnChip, Remote};
        use DriverMode::{AwaitsAck, Posted};
        for design in ThreadingDesign::ALL {
            for strategy in AccelerationStrategy::ALL {
                for driver in [AwaitsAck, Posted] {
                    let expected = match design {
                        ThreadingDesign::Sync => true,
                        ThreadingDesign::SyncOs => {
                            driver == AwaitsAck && matches!(strategy, OnChip | OffChip)
                        }
                        _ => strategy != Remote,
                    };
                    assert_eq!(
                        transfer_reaches_throughput_path(design, strategy, driver),
                        expected,
                        "{design:?}/{strategy:?}/{driver:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn healthy_fault_load_degenerates_to_estimate() {
        // p = 0 → one attempt, no fallback: bit-identical to the
        // fault-free model on every design × strategy combination.
        let p = params(2.0e9, 0.165844, 298_951.0, 10.0, 3.0, 25.0, 40.0, 6.0);
        let load = crate::queueing::fault_load(0.0, 3, true).unwrap();
        for design in ThreadingDesign::ALL {
            for strategy in AccelerationStrategy::ALL {
                let healthy = estimate(&p, design, strategy, DriverMode::AwaitsAck);
                let faulted =
                    estimate_with_faults(&p, design, strategy, DriverMode::AwaitsAck, &load);
                assert_eq!(healthy, faulted, "{design:?}/{strategy:?}");
            }
        }
    }

    #[test]
    fn fault_terms_match_hand_computation() {
        // C = 1e9, α = 0.4, n = 1000, o0+L = 13, A = 4; p = 0.5, r = 1,
        // fallback on → E[a] = 1.5, p_fb = 0.25.
        let p = params(1e9, 0.4, 1_000.0, 10.0, 3.0, 0.0, 0.0, 4.0);
        let load = crate::queueing::fault_load(0.5, 1, true).unwrap();
        let est = estimate_with_faults(
            &p,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
            DriverMode::Posted,
            &load,
        );
        // CS/C = (1 − α) + p_fb·α + (α/A)·E[a] + n·E[a]·13/C
        let expected = 0.6 + 0.25 * 0.4 + 0.1 * 1.5 + 1_000.0 * 1.5 * 13.0 / 1e9;
        assert!(
            (est.throughput_speedup - 1.0 / expected).abs() < 1e-12,
            "speedup {} vs {}",
            est.throughput_speedup,
            1.0 / expected
        );
        // Retries and fallback can only hurt: strictly worse than the
        // healthy estimate on both paths.
        let healthy = estimate(
            &p,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
            DriverMode::Posted,
        );
        assert!(est.throughput_speedup < healthy.throughput_speedup);
        assert!(est.latency_reduction < healthy.latency_reduction);
        // Without fallback the host sheds the exhausted work instead of
        // re-executing it: higher throughput than with fallback (the
        // goodput cost is not the model's axis).
        let abandon = crate::queueing::fault_load(0.5, 1, false).unwrap();
        let est_abandon = estimate_with_faults(
            &p,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
            DriverMode::Posted,
            &abandon,
        );
        assert!(est_abandon.throughput_speedup > est.throughput_speedup);
    }

    #[test]
    fn gain_percent_helpers() {
        let est = Estimate {
            throughput_speedup: 1.157,
            latency_reduction: 1.05,
            host_cycles_accelerated: Cycles::new(1.0),
            request_path_cycles: Cycles::new(1.0),
        };
        assert!((est.throughput_gain_percent() - 15.7).abs() < 1e-9);
        assert!((est.latency_gain_percent() - 5.0).abs() < 1e-9);
        assert!(est.improves_throughput());
        assert!(est.reduces_latency());
    }

    #[test]
    fn scenario_facade_defaults_driver_from_strategy() {
        let p = params(2.3e9, 0.19154, 101_863.0, 0.0, 2_530.0, 0.0, 0.0, 27.0);
        let s = Scenario::new(
            p,
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::OffChip,
        );
        assert_eq!(s.driver, DriverMode::AwaitsAck);
        let est = s.estimate();
        assert!((est.throughput_gain_percent() - 8.6).abs() < 0.1);
        let s2 = Scenario::new(p, ThreadingDesign::Sync, AccelerationStrategy::Remote)
            .with_driver(DriverMode::AwaitsAck);
        assert_eq!(s2.driver, DriverMode::AwaitsAck);
    }
}
