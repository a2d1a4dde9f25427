//! The fault sweep: one degraded scenario, many recovery policies.
//!
//! §4's lesson is that offload engines become distributed-system
//! dependencies; this runner quantifies what each recovery discipline
//! buys when the accelerator misbehaves. A [`FaultScenario`] pairs a
//! base configuration with a [`FaultPlan`] and a list of named
//! [`RecoveryPolicy`]s; the sweep simulates a healthy reference run plus
//! one run per policy and reports goodput, p99, and an SLO verdict per
//! policy. Every run is an independent seeded simulation, so the report
//! is byte-identical at any worker-pool width.

use std::sync::LazyLock;

use accelerometer::LatencySlo;
use serde::{Deserialize, Serialize};

use crate::abtest::{run_ab_batch, AbResult};
use crate::engine::{OffloadConfig, SimConfig};
use crate::error::{ensure, Result};
use crate::fault::{FaultPlan, RecoveryPolicy};
use crate::metrics::SimMetrics;
use crate::parallel::{run_batch, ExecPool};

/// A recovery policy with a human-readable name for the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedPolicy {
    /// Display name (e.g. `"retry-fallback"`).
    pub name: String,
    /// The policy itself.
    pub policy: RecoveryPolicy,
}

/// One fault sweep: a base configuration, the faults to inject, and the
/// recovery policies to compare.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// The base simulation (its own `fault`/`recovery` fields are
    /// ignored; the sweep substitutes the plan and each policy).
    pub base: SimConfig,
    /// The fault plan applied to every policy run.
    pub plan: FaultPlan,
    /// The recovery policies to compare, in report order.
    pub policies: Vec<NamedPolicy>,
    /// SLO: minimum acceptable `healthy p99 / faulted p99` ratio.
    pub slo_min_p99_ratio: f64,
}

/// One policy's outcome under the scenario's faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// The policy's name.
    pub policy: String,
    /// Good (non-failed) requests per 10⁹ host cycles.
    pub goodput_per_gcycle: f64,
    /// p99 request latency under faults, in cycles.
    pub p99_latency: f64,
    /// `healthy p99 / faulted p99` (1.0 = no tail inflation).
    pub p99_ratio_vs_healthy: f64,
    /// Whether the ratio meets the scenario's SLO.
    pub slo_met: bool,
    /// Analytical cross-check of the faulted throughput, when the
    /// scenario sits inside the model's domain (see
    /// [`FaultModelCheck`]); `None` otherwise.
    pub model_check: Option<FaultModelCheck>,
    /// The run's full metrics (including the fault counters).
    pub metrics: SimMetrics,
}

/// Model-vs-simulator cross-check for one policy outcome.
///
/// The analytical model's fault extension
/// ([`accelerometer::estimate_with_faults`]) predicts how much
/// throughput a retry/fallback discipline costs: retries inflate the
/// per-offload overheads by the expected attempt count `E[a]`, and
/// exhausted offloads re-execute their kernel on the host with
/// probability `p_fb = p^(r+1)`, putting `p_fb · α` back on the
/// throughput path. This check compares that prediction against the
/// simulator's measured faulted/healthy throughput ratio.
///
/// The check is only attached when the scenario stays inside the
/// model's domain: an offload is configured, the plan has no
/// degradation windows (the model is stationary — it cannot see an
/// outage interval), and the policy does no admission shedding (shed
/// offloads consume host cycles the fault terms don't describe). Spiky
/// interface latency *is* folded in, as `L_eff = L + p_spike ·
/// spike_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModelCheck {
    /// Model-predicted `faulted throughput / healthy throughput`.
    pub predicted_throughput_ratio: f64,
    /// Simulator-measured `faulted throughput / healthy throughput`.
    pub simulated_throughput_ratio: f64,
    /// `|predicted − simulated| × 100`, in percentage points.
    pub error_points: f64,
}

/// Builds the [`FaultModelCheck`] for one policy run, or `None` when
/// the scenario leaves the model's domain.
fn model_check(
    scenario: &FaultScenario,
    policy: &RecoveryPolicy,
    healthy: &SimMetrics,
    faulted: &SimMetrics,
) -> Option<FaultModelCheck> {
    let offload = scenario.base.offload.as_ref()?;
    if !scenario.plan.degradation.is_empty()
        || policy.shed_backlog_cycles.is_some()
        || healthy.throughput_per_gcycle <= 0.0
    {
        return None;
    }
    let workload = &scenario.base.workload;
    // Fold expected spike latency into the interface term; the model
    // has no notion of a latency *distribution*, only its mean.
    let spike_latency = scenario.plan.spike_probability * scenario.plan.spike_cycles;
    let params = accelerometer::ModelParams::builder()
        .host_cycles(workload.mean_request_cycles())
        .kernel_fraction(workload.expected_alpha())
        .offloads(workload.kernels_per_request as f64)
        .setup_cycles(offload.setup_cycles)
        .interface_cycles(offload.interface_latency + spike_latency)
        .thread_switch_cycles(scenario.base.context_switch_cycles)
        .peak_speedup(offload.peak_speedup)
        .build()
        .ok()?;
    let load = accelerometer::queueing::fault_load(
        scenario.plan.failure_probability,
        policy.max_retries,
        policy.fallback_to_host,
    )
    .ok()?;
    let healthy_est =
        accelerometer::estimate(&params, offload.design, offload.strategy, offload.driver);
    let faulted_est = accelerometer::estimate_with_faults(
        &params,
        offload.design,
        offload.strategy,
        offload.driver,
        &load,
    );
    let predicted = faulted_est.throughput_speedup / healthy_est.throughput_speedup;
    let simulated = faulted.throughput_per_gcycle / healthy.throughput_per_gcycle;
    Some(FaultModelCheck {
        predicted_throughput_ratio: predicted,
        simulated_throughput_ratio: simulated,
        error_points: (predicted - simulated).abs() * 100.0,
    })
}

/// The full report: the healthy reference plus one outcome per policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepReport {
    /// The seed every run used.
    pub seed: u64,
    /// The scenario's SLO threshold, echoed for the reader.
    pub slo_min_p99_ratio: f64,
    /// The fault-free reference run.
    pub healthy: SimMetrics,
    /// Per-policy outcomes, in scenario order.
    pub outcomes: Vec<PolicyOutcome>,
}

/// Runs the sweep on `pool`, each run sharded on `shards` when a shard
/// pool is given. Each run is an independent seeded simulation and
/// results are assembled in input order, so the report is identical at
/// any pool width (and, sharded, at any shard-pool width).
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when the base
/// configuration, the plan, any policy, or the SLO ratio is invalid.
pub fn run_fault_sweep_with(
    pool: &ExecPool,
    shards: Option<&ExecPool>,
    scenario: &FaultScenario,
) -> Result<FaultSweepReport> {
    ensure(
        scenario.slo_min_p99_ratio.is_finite() && scenario.slo_min_p99_ratio > 0.0,
        "slo_min_p99_ratio",
        scenario.slo_min_p99_ratio,
        "SLO ratio must be finite and positive",
    )?;
    let slo = LatencySlo::at_least(scenario.slo_min_p99_ratio).expect("validated above");

    let mut results = run_batch(pool, shards, &sweep_configs(scenario))?;
    let healthy = results.remove(0);
    let outcomes = scenario
        .policies
        .iter()
        .zip(results)
        .map(|(named, metrics)| {
            let p99 = metrics.latency.p99;
            let ratio = if p99 > 0.0 { healthy.latency.p99 / p99 } else { 0.0 };
            let goodput = if metrics.faults.active {
                metrics.faults.goodput_per_gcycle
            } else {
                metrics.throughput_per_gcycle
            };
            PolicyOutcome {
                policy: named.name.clone(),
                goodput_per_gcycle: goodput,
                p99_latency: p99,
                p99_ratio_vs_healthy: ratio,
                slo_met: slo.is_met_by_ratio(ratio),
                model_check: model_check(scenario, &named.policy, &healthy, &metrics),
                metrics,
            }
        })
        .collect();
    Ok(FaultSweepReport {
        seed: scenario.base.seed,
        slo_min_p99_ratio: scenario.slo_min_p99_ratio,
        healthy,
        outcomes,
    })
}

/// The sweep's runs: index 0 is the healthy reference, then one faulted
/// run per policy. Faults and recovery draw from a separate derived RNG
/// stream, so every run shares the base seed's request stream.
#[must_use]
pub fn sweep_configs(scenario: &FaultScenario) -> Vec<SimConfig> {
    let mut healthy = scenario.base.clone();
    healthy.fault = FaultPlan::none();
    healthy.recovery = RecoveryPolicy::none();
    let faulted = scenario.policies.iter().map(|named| SimConfig {
        fault: scenario.plan.clone(),
        recovery: named.policy,
        ..scenario.base.clone()
    });
    std::iter::once(healthy).chain(faulted).collect()
}

/// The built-in demonstration scenario, `configs/faults-degradation.json`
/// (embedded at build time and pinned by the CLI's golden fixture) with
/// `base.seed = seed`: a shared remote accelerator that suffers a
/// 3M-cycle full outage, sporadic failures, and interface-latency spikes,
/// swept across five recovery disciplines from "do nothing" to the full
/// stack.
#[must_use]
pub fn demo_scenario(seed: u64) -> FaultScenario {
    static DEMO: LazyLock<FaultScenario> = LazyLock::new(|| {
        serde_json::from_str(include_str!("../../../configs/faults-degradation.json"))
            .expect("the embedded demo scenario parses")
    });
    let mut scenario = DEMO.clone();
    scenario.base.seed = seed;
    scenario
}

/// One row of the fallback-capacity validation table (Table-6 style:
/// model estimate vs simulated A/B measurement, error in points).
///
/// Each row fixes a failure probability and measures the offload's
/// throughput gain over the unaccelerated host twice: once with
/// [`accelerometer::estimate_with_faults`] and once as a simulated A/B
/// experiment in which every exhausted offload's host re-execution is a
/// real, scheduled slice. The two must agree — that agreement is what
/// certifies the engine charges fallback work as genuine core capacity
/// rather than phantom accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FallbackValidationRow {
    /// Per-attempt failure probability `p`.
    pub failure_probability: f64,
    /// The model's expected attempts per offload, `E[a]`.
    pub expected_attempts: f64,
    /// The model's host-fallback probability, `p^(r+1)`.
    pub fallback_probability: f64,
    /// Model-predicted throughput gain over the host, in percent.
    pub model_gain_percent: f64,
    /// Simulated A/B throughput gain over the host, in percent.
    pub simulated_gain_percent: f64,
    /// Fallback slices the treatment run actually scheduled.
    pub fallbacks: u64,
    /// Treatment-run core utilization (must stay ≤ 1: fallback work is
    /// real capacity, not an overdraft).
    pub core_utilization: f64,
}

impl FallbackValidationRow {
    /// |model − simulated| in percentage points.
    #[must_use]
    pub fn model_vs_simulated_points(&self) -> f64 {
        (self.model_gain_percent - self.simulated_gain_percent).abs()
    }
}

/// The failure probabilities [`validate_fallback`] sweeps.
pub const FALLBACK_VALIDATION_PROBABILITIES: [f64; 4] = [0.0, 0.2, 0.5, 0.8];

/// The A/B pairs behind the fallback-validation rows, one per
/// probability in [`FALLBACK_VALIDATION_PROBABILITIES`]: the
/// unaccelerated control under that failure probability, and the offload
/// it is measured against.
fn fallback_validation_pairs(seed: u64) -> Vec<(SimConfig, OffloadConfig)> {
    use accelerometer::units::cycles_per_byte;
    use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};

    use crate::device::DeviceKind;
    use crate::workload::WorkloadSpec;

    // A scenario built to isolate the fallback-load term: an
    // asynchronous design keeps device time off the throughput path,
    // the unlimited device keeps Q = 0, and zero setup/pollution/
    // context-switch cycles null the overhead terms. What remains is
    // the model's `cs = 1 − α + p_fb·α` against the engine's scheduled
    // fallback slices. Kernel: 1,500 B at 2 c/B = 3,000 cycles against
    // 7,000 non-kernel cycles, so α = 0.3 exactly.
    let workload = WorkloadSpec {
        non_kernel_cycles: 7_000.0,
        kernels_per_request: 1,
        granularity: GranularityCdf::from_points(vec![(1_500.0, 1.0)])
            .expect("static CDF is valid"),
        cycles_per_byte: cycles_per_byte(2.0),
    };
    let offload = OffloadConfig {
        design: ThreadingDesign::AsyncSameThread,
        strategy: AccelerationStrategy::Remote,
        driver: DriverMode::Posted,
        device: DeviceKind::Unlimited,
        peak_speedup: 4.0,
        interface_latency: 2_000.0,
        setup_cycles: 0.0,
        dispatch_pollution: 0.0,
        min_offload_bytes: None,
    };
    FALLBACK_VALIDATION_PROBABILITIES
        .iter()
        .map(|&p| {
            let control = SimConfig {
                cores: 2,
                threads: 2,
                context_switch_cycles: 0.0,
                horizon: 4.0e7,
                seed,
                workload: workload.clone(),
                offload: None,
                fault: FaultPlan {
                    seed: 13,
                    failure_probability: p,
                    ..FaultPlan::none()
                },
                recovery: RecoveryPolicy {
                    max_retries: 1,
                    backoff_base_cycles: 0.0,
                    fallback_to_host: true,
                    ..RecoveryPolicy::none()
                },
            };
            (control, offload)
        })
        .collect()
}

/// One fallback-validation row: the model's estimate for the pair at
/// its control's failure probability, beside its simulated A/B result.
fn fallback_validation_row(
    (control, offload): &(SimConfig, OffloadConfig),
    ab: &AbResult,
) -> FallbackValidationRow {
    let p = control.fault.failure_probability;
    let load =
        accelerometer::queueing::fault_load(p, 1, true).expect("static probabilities are valid");
    let params = accelerometer::ModelParams::builder()
        .host_cycles(control.workload.mean_request_cycles())
        .kernel_fraction(control.workload.expected_alpha())
        .offloads(1.0)
        .setup_cycles(0.0)
        .interface_cycles(offload.interface_latency)
        .peak_speedup(offload.peak_speedup)
        .build()
        .expect("static parameters are valid");
    let est = accelerometer::estimate_with_faults(
        &params,
        offload.design,
        offload.strategy,
        offload.driver,
        &load,
    );
    FallbackValidationRow {
        failure_probability: p,
        expected_attempts: load.expected_attempts,
        fallback_probability: load.host_fallback_probability(),
        model_gain_percent: est.throughput_gain_percent(),
        simulated_gain_percent: ab.speedup_percent(),
        fallbacks: ab.treatment.faults.fallbacks,
        core_utilization: ab.treatment.core_utilization,
    }
}

/// Runs the fallback-capacity validation (Table-6 style) on `pool`: one
/// row per probability in [`FALLBACK_VALIDATION_PROBABILITIES`]. The
/// rows' A/B experiments run as one batch — every arm shares the seed
/// and workload, so the batch samples its request stream once — and the
/// results are identical at any pool width, in probability order.
#[must_use]
pub fn validate_fallback_with(pool: &ExecPool, seed: u64) -> Vec<FallbackValidationRow> {
    let pairs = fallback_validation_pairs(seed);
    let results = run_ab_batch(pool, &pairs).expect("the static fallback configs are valid");
    pairs
        .iter()
        .zip(&results)
        .map(|(pair, ab)| fallback_validation_row(pair, ab))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardPlan;
    use crate::trace::TraceStore;

    fn sweep(scenario: &FaultScenario) -> Result<FaultSweepReport> {
        run_fault_sweep_with(&ExecPool::new(2), None, scenario)
    }

    fn outcome<'a>(report: &'a FaultSweepReport, name: &str) -> &'a PolicyOutcome {
        report
            .outcomes
            .iter()
            .find(|o| o.policy == name)
            .expect("policy present")
    }

    #[test]
    fn recovery_beats_no_recovery_under_degradation() {
        let report = sweep(&demo_scenario(20_260_806)).expect("valid scenario");
        let none = outcome(&report, "no-recovery");
        let retry = outcome(&report, "retry");
        let recovered = outcome(&report, "retry-fallback");
        // The acceptance properties the golden fixture pins. Retries
        // convert transient failures into successes without consuming
        // host capacity: a strict goodput win.
        assert!(
            retry.goodput_per_gcycle > none.goodput_per_gcycle,
            "goodput {:.2} vs {:.2}",
            retry.goodput_per_gcycle,
            none.goodput_per_gcycle
        );
        // Fallback additionally eliminates failures and collapses the
        // outage tail by an order of magnitude...
        assert_eq!(recovered.metrics.faults.failed_requests, 0);
        assert!(
            recovered.p99_latency * 10.0 < none.p99_latency,
            "p99 {:.0} vs {:.0}",
            recovered.p99_latency,
            none.p99_latency
        );
        // ...but the host re-executions occupy real scheduler slices
        // now, so during a full outage (where unprotected requests are
        // merely late, not lost) that protection costs a few percent of
        // goodput. The old phantom `core_busy +=` accounting made this
        // look free — and pushed core_utilization past 1.
        assert!(
            recovered.goodput_per_gcycle > 0.95 * none.goodput_per_gcycle,
            "goodput {:.2} vs {:.2}",
            recovered.goodput_per_gcycle,
            none.goodput_per_gcycle
        );
        // The outage inflates the unprotected tail past the SLO.
        assert!(!none.slo_met);
        assert!(report.healthy.latency.p99 > 0.0);
    }

    #[test]
    fn model_check_tracks_simulation_without_degradation() {
        // Strip the outage window and raise the failure rate so the
        // fault terms actually bite; the scenario is now squarely in the
        // model's domain and every non-shedding policy gets a check.
        let mut scenario = demo_scenario(20_260_807);
        scenario.plan.degradation.clear();
        scenario.plan.failure_probability = 0.35;
        let report = sweep(&scenario).expect("valid scenario");
        for name in ["no-recovery", "retry", "retry-fallback"] {
            let check = outcome(&report, name)
                .model_check
                .unwrap_or_else(|| panic!("{name} must carry a model check"));
            assert!(
                check.error_points < 2.5,
                "{name}: predicted {:.4} vs simulated {:.4} ({:.2} pts)",
                check.predicted_throughput_ratio,
                check.simulated_throughput_ratio,
                check.error_points
            );
        }
        // Admission shedding consumes host cycles the fault terms don't
        // describe — no check rather than a wrong one.
        assert!(outcome(&report, "admission").model_check.is_none());
        assert!(outcome(&report, "full").model_check.is_none());
        // The demo's outage window, by contrast, gates every check off.
        let windowed = sweep(&demo_scenario(20_260_807)).expect("valid scenario");
        assert!(windowed.outcomes.iter().all(|o| o.model_check.is_none()));
    }

    #[test]
    fn fallback_validation_matches_model_within_tolerance() {
        let rows = validate_fallback_with(&ExecPool::new(2), 20_260_807);
        assert_eq!(rows.len(), FALLBACK_VALIDATION_PROBABILITIES.len());
        for row in &rows {
            assert!(
                row.model_vs_simulated_points() <= 2.0,
                "p = {}: model {:.2}% vs simulated {:.2}%",
                row.failure_probability,
                row.model_gain_percent,
                row.simulated_gain_percent
            );
            // Fallback slices are scheduled work: capacity is conserved.
            assert!(row.core_utilization <= 1.0 + 1e-9);
        }
        // The fallback load term must actually degrade the gain row over
        // row, in both the model and the measurement.
        for pair in rows.windows(2) {
            assert!(pair[1].model_gain_percent < pair[0].model_gain_percent);
            assert!(pair[1].simulated_gain_percent < pair[0].simulated_gain_percent);
        }
        // The healthy row is fault-free; the p = 0.8 row re-executes a
        // large fraction of its kernels on the host.
        assert_eq!(rows[0].fallbacks, 0);
        assert!(rows[3].fallbacks > 1_000, "fallbacks {}", rows[3].fallbacks);
        // Deterministic at any pool width.
        let wide = validate_fallback_with(&ExecPool::new(8), 20_260_807);
        assert_eq!(rows, wide);
    }

    #[test]
    fn fallback_table_draws_one_trace_for_its_eight_arms() {
        let arms = crate::abtest::ab_arms(&fallback_validation_pairs(20_260_706)).unwrap();
        assert_eq!(arms.len(), 8);
        let store = TraceStore::for_batch(&arms, false);
        assert_eq!(store.traces().len(), 1);
        assert_eq!(store.traces()[0].len(), 14_121);
    }

    #[test]
    fn sharded_sweep_draws_shard_seed_traces_only() {
        let scenario = demo_scenario(20_260_806);
        let configs = sweep_configs(&scenario);
        let plan = ShardPlan::for_config(&configs[0]);
        assert!(plan.shards > 1, "the demo scenario shards");
        let shard_seeds: Vec<u64> = (0..plan.shards)
            .map(|i| plan.shard_config(&configs[0], i).seed)
            .collect();
        let sharded = TraceStore::for_batch(&configs, true);
        let seeds: Vec<u64> = sharded.traces().iter().map(|t| t.seed()).collect();
        assert_eq!(seeds, shard_seeds, "one per shard seed, none for the base");
        // Unsharded, the base seed is the one every run reads.
        let classic = TraceStore::for_batch(&configs, false);
        let seeds: Vec<u64> = classic.traces().iter().map(|t| t.seed()).collect();
        assert_eq!(seeds, vec![scenario.base.seed]);
    }

    #[test]
    fn report_is_pool_width_invariant() {
        let scenario = demo_scenario(11);
        let seq = run_fault_sweep_with(&ExecPool::new(1), None, &scenario).unwrap();
        let par = run_fault_sweep_with(&ExecPool::new(8), None, &scenario).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn invalid_scenarios_are_rejected_up_front() {
        let mut scenario = demo_scenario(1);
        scenario.slo_min_p99_ratio = 0.0;
        assert!(sweep(&scenario).is_err());

        let mut scenario = demo_scenario(1);
        scenario.plan.failure_probability = 7.0;
        assert!(sweep(&scenario).is_err());

        let mut scenario = demo_scenario(1);
        scenario.policies[0].policy.timeout_cycles = Some(f64::NAN);
        assert!(sweep(&scenario).is_err());
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = demo_scenario(20_260_806);
        let json = serde_json::to_string_pretty(&scenario).expect("serialize");
        let parsed: FaultScenario = serde_json::from_str(&json).expect("scenario round trip");
        assert_eq!(parsed, scenario);
    }
}
