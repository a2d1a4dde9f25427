//! Deterministic fault injection and recovery for the offload path.
//!
//! The paper's off-chip and remote strategies (Table 5, eqns 5–8) turn
//! the accelerator into a distributed-system dependency whose queue `Q`
//! amplifies every hiccup into tail latency. This module models the
//! hiccups: a seeded [`FaultPlan`] injects per-offload failures,
//! device-degradation windows (a service-time multiplier over
//! `[start, end)`, including full downtime), and interface-latency
//! spikes; a [`RecoveryPolicy`] decides what the host does about them —
//! per-offload timeouts, bounded retries with deterministic backoff,
//! fallback-to-host once the retry budget is exhausted, and queue-depth
//! admission control that sheds offloads to the host before the backlog
//! collapses the service.
//!
//! Everything is deterministic: the fault RNG is seeded from the plan
//! and the run seed, and is *separate* from the workload RNG, so
//! [`FaultPlan::none`] leaves the engine bit-identical to a fault-free
//! build (the golden fixtures prove it byte-for-byte).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::device::Device;
use crate::error::{ensure, Result};
use crate::metrics::FaultMetrics;
use crate::time::SimTime;

/// One interval of degraded device service.
///
/// While an offload's service would start inside `[start, end)`, its
/// service time is multiplied by `multiplier`; with `down` set the
/// device is fully unavailable and service is deferred to `end` (the
/// paper's `Q` growing without bound for the window's duration).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationWindow {
    /// Window start, in cycles since simulation start.
    pub start: f64,
    /// Window end (exclusive), in cycles.
    pub end: f64,
    /// Service-time multiplier applied while the window is active
    /// (ignored when `down` is set).
    pub multiplier: f64,
    /// Full downtime: no service starts inside the window at all.
    #[serde(default)]
    pub down: bool,
}

impl DegradationWindow {
    /// A slowdown window: service takes `multiplier`× as long.
    #[must_use]
    pub fn slowdown(start: f64, end: f64, multiplier: f64) -> Self {
        Self {
            start,
            end,
            multiplier,
            down: false,
        }
    }

    fn validate(&self) -> Result<()> {
        ensure(
            self.start.is_finite() && self.start >= 0.0,
            "fault.degradation.start",
            self.start,
            "window start must be finite and non-negative",
        )?;
        ensure(
            self.end.is_finite() && self.end > self.start,
            "fault.degradation.end",
            self.end,
            "window end must be finite and after its start",
        )?;
        ensure(
            self.multiplier.is_finite() && self.multiplier > 0.0,
            "fault.degradation.multiplier",
            self.multiplier,
            "service-time multiplier must be finite and positive",
        )
    }

    /// Whether `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// A deterministic, seeded fault-injection plan.
///
/// [`FaultPlan::none`] (also the `Default`) injects nothing and is
/// guaranteed zero-impact: the engine takes the exact fault-free code
/// path, bit for bit.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the fault RNG (mixed with the run seed; separate from
    /// the workload stream).
    #[serde(default)]
    pub seed: u64,
    /// Probability that any single offload attempt fails at the device.
    #[serde(default)]
    pub failure_probability: f64,
    /// Probability that an attempt's interface hop suffers a latency
    /// spike of [`spike_cycles`](Self::spike_cycles).
    #[serde(default)]
    pub spike_probability: f64,
    /// Extra one-way interface latency (cycles) added by a spike.
    #[serde(default)]
    pub spike_cycles: f64,
    /// Device degradation windows, applied to every attempt whose
    /// service would start inside one.
    #[serde(default)]
    pub degradation: Vec<DegradationWindow>,
}

impl FaultPlan {
    /// The empty plan: no faults of any kind.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan can perturb a run at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.failure_probability > 0.0
            || (self.spike_probability > 0.0 && self.spike_cycles > 0.0)
            || !self.degradation.is_empty()
    }

    /// Validates every plan parameter.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] for probabilities
    /// outside `[0, 1]`, non-finite cycle counts, or malformed windows.
    pub fn validate(&self) -> Result<()> {
        ensure(
            (0.0..=1.0).contains(&self.failure_probability),
            "fault.failure_probability",
            self.failure_probability,
            "probability must be within [0, 1]",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.spike_probability),
            "fault.spike_probability",
            self.spike_probability,
            "probability must be within [0, 1]",
        )?;
        ensure(
            self.spike_cycles.is_finite() && self.spike_cycles >= 0.0,
            "fault.spike_cycles",
            self.spike_cycles,
            "spike latency must be finite and non-negative",
        )?;
        for window in &self.degradation {
            window.validate()?;
        }
        Ok(())
    }
}

/// What the host does about offload faults.
///
/// [`RecoveryPolicy::none`] (also the `Default`) detects nothing and
/// recovers nothing: failed offloads are simply lost (their requests
/// complete but count as failed — goodput loss), slow offloads are
/// waited out, and the backlog is never shed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Per-attempt timeout (cycles from submission): the host gives up
    /// on an attempt that has not responded by then. `None` waits
    /// forever.
    #[serde(default)]
    pub timeout_cycles: Option<f64>,
    /// Retry budget after the first attempt, at most [`MAX_RETRIES`].
    #[serde(default)]
    pub max_retries: u32,
    /// Deterministic exponential backoff: retry `k` (1-based) resubmits
    /// `backoff_base_cycles · 2^(k−1)` cycles after failure detection.
    #[serde(default)]
    pub backoff_base_cycles: f64,
    /// Execute the kernel on the host once the retry budget is
    /// exhausted (the request still completes successfully, at host
    /// speed) instead of abandoning it.
    #[serde(default)]
    pub fallback_to_host: bool,
    /// Admission control: when the device's predicted queueing delay
    /// exceeds this many cycles, the offload is shed to the host before
    /// dispatch. `None` never sheds.
    #[serde(default)]
    pub shed_backlog_cycles: Option<f64>,
}

impl RecoveryPolicy {
    /// The null policy: no detection, no retries, no fallback, no
    /// admission control.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the policy changes engine behaviour at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.timeout_cycles.is_some()
            || self.max_retries > 0
            || self.fallback_to_host
            || self.shed_backlog_cycles.is_some()
    }

    /// Validates every policy parameter.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] for non-finite or
    /// non-positive timeouts/thresholds, a negative backoff, or a retry
    /// budget above [`MAX_RETRIES`].
    pub fn validate(&self) -> Result<()> {
        ensure(
            self.max_retries <= MAX_RETRIES,
            "recovery.max_retries",
            f64::from(self.max_retries),
            "more retries than MAX_RETRIES (64)",
        )?;
        if let Some(timeout) = self.timeout_cycles {
            ensure(
                timeout.is_finite() && timeout > 0.0,
                "recovery.timeout_cycles",
                timeout,
                "timeout must be finite and positive",
            )?;
        }
        ensure(
            self.backoff_base_cycles.is_finite() && self.backoff_base_cycles >= 0.0,
            "recovery.backoff_base_cycles",
            self.backoff_base_cycles,
            "backoff must be finite and non-negative",
        )?;
        if let Some(limit) = self.shed_backlog_cycles {
            ensure(
                limit.is_finite() && limit >= 0.0,
                "recovery.shed_backlog_cycles",
                limit,
                "admission threshold must be finite and non-negative",
            )?;
        }
        Ok(())
    }

    /// The backoff before retry number `retry` (1-based).
    #[must_use]
    pub fn backoff_cycles(&self, retry: u32) -> f64 {
        // Cap the shift so huge budgets cannot overflow; 2^32 cycles of
        // backoff already exceeds any practical horizon.
        let exp = (retry.saturating_sub(1)).min(32);
        self.backoff_base_cycles * (1u64 << exp) as f64
    }
}

/// Upper bound on [`RecoveryPolicy::max_retries`]. Every retry of a
/// failed offload is one more device dispatch in the offload's saga, so
/// an unbounded budget under certain failure makes one offload loop ~4e9
/// times. 64 retries is 16 times the largest budget a shipped scenario
/// uses (3), and [`RecoveryPolicy::backoff_cycles`] already stops
/// doubling after the 33rd.
pub const MAX_RETRIES: u32 = 64;

/// The outcome of one offload "saga": first dispatch, any retries, and
/// the final resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SagaOutcome {
    /// When the offload's result is finally in hand (success, fallback
    /// completion, or abandonment detection).
    pub done: SimTime,
    /// When the host learned the saga's final resolution: the last
    /// attempt's response (or timeout deadline) for failures, `done`
    /// for successes. A fallback's host re-execution becomes *eligible*
    /// to run at this instant — the engine schedules it as a real slice
    /// from here, rather than assuming it ran for free inside
    /// `[detect, done)`.
    pub detect: SimTime,
    /// The first attempt's service start (the engine's engagement
    /// reference), clamped to `done`.
    pub engaged_ref: SimTime,
    /// Host cycles a fallback execution needs (0 otherwise). The engine
    /// charges these through the scheduler, not here.
    pub fallback_host_cycles: f64,
    /// The offload was abandoned: no result, the request fails.
    pub abandoned: bool,
}

/// Live fault-injection state for one simulation run: the plan, the
/// policy, a dedicated RNG, and the counters.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    pub recovery: RecoveryPolicy,
    rng: StdRng,
    pub metrics: FaultMetrics,
}

impl FaultState {
    pub fn new(plan: FaultPlan, recovery: RecoveryPolicy, rng_seed: u64) -> Self {
        Self {
            plan,
            recovery,
            rng: StdRng::seed_from_u64(rng_seed),
            metrics: FaultMetrics {
                active: true,
                ..FaultMetrics::default()
            },
        }
    }

    /// Runs an offload through fault injection and recovery against the
    /// device, entirely in virtual time (the device model resolves each
    /// dispatch synchronously, so retries and backoff can too).
    pub fn offload_saga(
        &mut self,
        device: &mut Device,
        issue: SimTime,
        core: usize,
        service_cycles: f64,
        host_cycles: f64,
    ) -> SagaOutcome {
        let mut submit = issue;
        let mut engaged_ref = None;
        let mut attempt: u32 = 0;
        loop {
            let spike = if self.plan.spike_probability > 0.0
                && self.rng.gen_range(0.0..1.0) < self.plan.spike_probability
            {
                self.metrics.latency_spikes += 1;
                self.plan.spike_cycles
            } else {
                0.0
            };
            let dispatch =
                device.dispatch_faulty(submit, core, service_cycles, spike, &self.plan.degradation);
            if dispatch.degraded {
                self.metrics.degraded_offloads += 1;
            }
            let engaged = *engaged_ref.get_or_insert(dispatch.service_start);
            let failed = self.plan.failure_probability > 0.0
                && self.rng.gen_range(0.0..1.0) < self.plan.failure_probability;
            if failed {
                self.metrics.injected_failures += 1;
            }
            let deadline = self.recovery.timeout_cycles.map(|t| submit + t);
            let timed_out = deadline.is_some_and(|d| dispatch.done > d);
            if !failed && !timed_out {
                return SagaOutcome {
                    done: dispatch.done,
                    detect: dispatch.done,
                    engaged_ref: engaged.min(dispatch.done),
                    fallback_host_cycles: 0.0,
                    abandoned: false,
                };
            }
            // When does the host learn the attempt is lost? A timeout
            // fires at the deadline; an undetected failure surfaces only
            // when the (error) response comes back.
            let detect = match deadline {
                Some(d) if timed_out => {
                    self.metrics.timeouts += 1;
                    d
                }
                Some(d) => dispatch.done.min(d),
                None => dispatch.done,
            };
            if attempt < self.recovery.max_retries {
                attempt += 1;
                self.metrics.retries += 1;
                submit = detect + self.recovery.backoff_cycles(attempt);
                continue;
            }
            if self.recovery.fallback_to_host {
                self.metrics.fallbacks += 1;
                return SagaOutcome {
                    // `done` is the earliest the result can exist — host
                    // re-execution starting right at detection. Designs
                    // that hold the core through the saga (Sync) use it;
                    // everyone else schedules a slice at `detect` and
                    // completes whenever that slice actually ran.
                    done: detect + host_cycles,
                    detect,
                    engaged_ref: engaged.min(detect + host_cycles),
                    fallback_host_cycles: host_cycles,
                    abandoned: false,
                };
            }
            self.metrics.abandoned_offloads += 1;
            return SagaOutcome {
                done: detect,
                detect,
                engaged_ref: engaged.min(detect),
                fallback_host_cycles: 0.0,
                abandoned: true,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;

    fn device() -> Device {
        Device::new(DeviceKind::Shared { servers: 1 }, 100.0, 1, 1e9)
    }

    fn sure_failure() -> FaultPlan {
        FaultPlan {
            failure_probability: 1.0,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn none_is_inactive_and_valid() {
        assert!(!FaultPlan::none().is_active());
        assert!(!RecoveryPolicy::none().is_active());
        FaultPlan::none().validate().unwrap();
        RecoveryPolicy::none().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let plan = FaultPlan {
            failure_probability: 1.5,
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            degradation: vec![DegradationWindow::slowdown(10.0, 5.0, 2.0)],
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            degradation: vec![DegradationWindow::slowdown(0.0, 5.0, -1.0)],
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
        let policy = RecoveryPolicy {
            timeout_cycles: Some(0.0),
            ..RecoveryPolicy::none()
        };
        assert!(policy.validate().is_err());
        let policy = RecoveryPolicy {
            backoff_base_cycles: f64::NAN,
            ..RecoveryPolicy::none()
        };
        assert!(policy.validate().is_err());
        // The retry budget is capped; the cap itself is accepted.
        let policy = RecoveryPolicy {
            max_retries: u32::MAX,
            ..RecoveryPolicy::none()
        };
        let err = policy.validate().expect_err("unbounded budget");
        assert!(err.to_string().contains("MAX_RETRIES"), "{err}");
        let policy = RecoveryPolicy {
            max_retries: MAX_RETRIES,
            ..RecoveryPolicy::none()
        };
        assert_eq!(policy.validate(), Ok(()));
    }

    #[test]
    fn backoff_doubles_deterministically() {
        let policy = RecoveryPolicy {
            backoff_base_cycles: 100.0,
            max_retries: 3,
            ..RecoveryPolicy::none()
        };
        assert_eq!(policy.backoff_cycles(1), 100.0);
        assert_eq!(policy.backoff_cycles(2), 200.0);
        assert_eq!(policy.backoff_cycles(3), 400.0);
    }

    #[test]
    fn sure_failure_without_recovery_abandons_at_response() {
        let mut state = FaultState::new(sure_failure(), RecoveryPolicy::none(), 7);
        let mut dev = device();
        let saga = state.offload_saga(&mut dev, SimTime::new(0.0), 0, 50.0, 400.0);
        assert!(saga.abandoned);
        // Detection at the (error) response: L + service.
        assert_eq!(saga.done.cycles(), 150.0);
        assert_eq!(state.metrics.injected_failures, 1);
        assert_eq!(state.metrics.abandoned_offloads, 1);
        assert_eq!(state.metrics.retries, 0);
    }

    #[test]
    fn sure_failure_with_fallback_recovers_on_host() {
        let policy = RecoveryPolicy {
            max_retries: 2,
            backoff_base_cycles: 10.0,
            fallback_to_host: true,
            ..RecoveryPolicy::none()
        };
        let mut state = FaultState::new(sure_failure(), policy, 7);
        let mut dev = device();
        let saga = state.offload_saga(&mut dev, SimTime::new(0.0), 0, 50.0, 400.0);
        assert!(!saga.abandoned);
        assert_eq!(state.metrics.retries, 2);
        assert_eq!(state.metrics.fallbacks, 1);
        assert_eq!(state.metrics.injected_failures, 3);
        // Three attempts plus backoffs plus the host execution.
        assert!(saga.done.cycles() > 400.0);
        assert_eq!(saga.fallback_host_cycles, 400.0);
        // Detection precedes the earliest possible completion by exactly
        // the host re-execution the engine must now schedule.
        assert_eq!(saga.done.cycles() - saga.detect.cycles(), 400.0);
    }

    #[test]
    fn timeout_detects_slow_service_before_completion() {
        let policy = RecoveryPolicy {
            timeout_cycles: Some(200.0),
            fallback_to_host: true,
            ..RecoveryPolicy::none()
        };
        // No injected failures: the attempt is only *slow* (10k cycles of
        // service), and the timeout converts it into a host fallback.
        let mut state = FaultState::new(FaultPlan::none(), policy, 7);
        let mut dev = device();
        let saga = state.offload_saga(&mut dev, SimTime::new(0.0), 0, 10_000.0, 400.0);
        assert_eq!(state.metrics.timeouts, 1);
        assert_eq!(state.metrics.fallbacks, 1);
        assert_eq!(saga.detect.cycles(), 200.0); // the deadline fires
        assert_eq!(saga.done.cycles(), 600.0); // deadline 200 + host 400
    }

    #[test]
    fn saga_is_deterministic_per_seed() {
        let plan = FaultPlan {
            failure_probability: 0.5,
            spike_probability: 0.3,
            spike_cycles: 1_000.0,
            ..FaultPlan::none()
        };
        let policy = RecoveryPolicy {
            timeout_cycles: Some(5_000.0),
            max_retries: 2,
            backoff_base_cycles: 50.0,
            fallback_to_host: true,
            ..RecoveryPolicy::none()
        };
        let run = || {
            let mut state = FaultState::new(plan.clone(), policy, 99);
            let mut dev = device();
            (0..64)
                .map(|i| {
                    state
                        .offload_saga(&mut dev, SimTime::new(f64::from(i) * 500.0), 0, 80.0, 500.0)
                        .done
                        .cycles()
                })
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }
}
