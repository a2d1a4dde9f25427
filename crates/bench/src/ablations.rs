//! Ablation studies of the modeling choices DESIGN.md calls out.
//!
//! Three questions the paper leaves implicit, answered with the
//! simulator as ground truth:
//!
//! 1. **α-weighting** — when only granularities above break-even are
//!    offloaded, the paper scales `α` by the *count* fraction of
//!    lucrative offloads (64.2% for Feed1's off-chip Sync compression).
//!    But kernel cycles are proportional to *bytes*, and large offloads
//!    carry most bytes; byte-weighted scaling attributes far more cycles
//!    to the lucrative subset. Which accounting matches an execution
//!    that actually offloads per-invocation?
//! 2. **queueing** — the §5 projections assume `Q = 0`. How much error
//!    does that introduce as a shared off-chip device saturates, and
//!    does the M/M/1 estimator recover it?
//! 3. **pool depth** — Sync-OS assumes "the host continues to perform
//!    useful work" while a thread blocks. How deep must the thread pool
//!    be before that assumption holds?

use accelerometer::units::cycles_per_byte;
use accelerometer::{
    estimate, throughput_breakeven, DriverMode, ModelParams, OffloadContext, ThreadingDesign,
};
use accelerometer_fleet::ServiceRegistry;
use accelerometer_sim::workload::{workload_for_params, WorkloadSpec};
use accelerometer_sim::{
    run_ab_batch, DeviceKind, ExecPool, OffloadConfig, RunContext, SimConfig, SimError,
};
use serde::{Deserialize, Serialize};

use crate::render::table;

/// Ablation 1 result: the two α-scaling rules against simulated truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaWeightingAblation {
    /// Break-even granularity applied (bytes).
    pub breakeven_bytes: f64,
    /// Count fraction of lucrative offloads (the paper's 64.2%).
    pub count_fraction: f64,
    /// Byte fraction carried by lucrative offloads.
    pub byte_fraction: f64,
    /// Model speedup % with count-weighted α (the paper's accounting).
    pub count_weighted_percent: f64,
    /// Model speedup % with byte-weighted α.
    pub byte_weighted_percent: f64,
    /// Simulated speedup % with true per-invocation selective offload.
    pub simulated_percent: f64,
}

/// Runs the α-weighting ablation on `reg`'s Feed1 off-chip Sync
/// compression, its A/B on `pool`, or `Ok(None)` when the service data
/// has no such configuration with a finite break-even.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when the service data yields a
/// workload the simulator cannot run.
pub fn alpha_weighting(
    pool: &ExecPool,
    reg: &ServiceRegistry,
    seed: u64,
) -> Result<Option<AlphaWeightingAblation>, SimError> {
    let Some(rec) = reg.recommendation("Feed1: Compression") else {
        return Ok(None);
    };
    let profile = &rec.profile;
    // A = 27, L = 2300.
    let Some(config) = rec.configs.iter().find(|c| c.label == "Off-chip:Sync") else {
        return Ok(None);
    };
    let accel = &config.accelerator;
    let ctx = OffloadContext::new(
        accel.overheads,
        accel.peak_speedup,
        ThreadingDesign::Sync,
        accel.strategy,
    );
    let Some(breakeven) = throughput_breakeven(&profile.cost, &ctx).threshold() else {
        return Ok(None);
    };

    let count_fraction = profile.granularity.fraction_above(breakeven);
    let byte_fraction = profile.granularity.byte_weighted_fraction_above(breakeven);
    let n_lucrative = profile.total_offloads * count_fraction;

    let model_percent = |alpha_eff: f64| {
        let params = ModelParams::builder()
            .host_cycles(profile.total_cycles.get())
            .kernel_fraction(alpha_eff)
            .offloads(n_lucrative)
            .overheads(accel.overheads)
            .peak_speedup(accel.peak_speedup)
            .build()
            .expect("valid parameters");
        estimate(
            &params,
            ThreadingDesign::Sync,
            accel.strategy,
            DriverMode::AwaitsAck,
        )
        .throughput_gain_percent()
    };
    let count_weighted_percent = model_percent(profile.kernel_fraction * count_fraction);
    let byte_weighted_percent = model_percent(profile.kernel_fraction * byte_fraction);

    // Ground truth: execute the selective offload per invocation. Use the
    // workload realizing the Table 7 aggregates and ample device servers
    // so queueing (which neither model variant includes) stays ~0.
    let control = SimConfig {
        cores: 4,
        threads: 4,
        context_switch_cycles: 0.0,
        horizon: 6e8,
        seed,
        workload: workload_for_params(
            profile.total_cycles.get(),
            profile.kernel_fraction,
            profile.total_offloads,
            profile.granularity.clone(),
        ),
        offload: None,
        fault: Default::default(),
        recovery: Default::default(),
    };
    let offload = OffloadConfig {
        design: ThreadingDesign::Sync,
        strategy: accel.strategy,
        driver: DriverMode::AwaitsAck,
        device: DeviceKind::Shared { servers: 8 },
        peak_speedup: accel.peak_speedup,
        interface_latency: accel.overheads.interface.get(),
        setup_cycles: accel.overheads.setup.get(),
        dispatch_pollution: 0.0,
        min_offload_bytes: Some(breakeven.get()),
    };
    let simulated_percent = run_ab_batch(pool, &[(control, offload)])?[0].speedup_percent();

    Ok(Some(AlphaWeightingAblation {
        breakeven_bytes: breakeven.get(),
        count_fraction,
        byte_fraction,
        count_weighted_percent,
        byte_weighted_percent,
        simulated_percent,
    }))
}

/// Ablation 2 result: one row per device speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueingAblationRow {
    /// The accelerator's peak speedup (slower device = higher load).
    pub peak_speedup: f64,
    /// Device utilization observed in simulation.
    pub device_utilization: f64,
    /// Emergent mean queue delay in the simulator (cycles).
    pub simulated_queue_delay: f64,
    /// Model speedup % with Q = 0 (the §5 assumption).
    pub model_q0_percent: f64,
    /// Model speedup % with the *measured* mean Q fed back in — the
    /// workflow eqn (1) supports ("Q enables projecting speedup based on
    /// accelerator load").
    pub model_measured_q_percent: f64,
    /// Simulated speedup %.
    pub simulated_percent: f64,
}

/// Runs the queueing ablation on `pool`: a single-server off-chip device
/// shared by four cores, swept across device speeds. The device speeds'
/// A/B experiments run as one batch sharing one request stream, so rows
/// are identical at any pool width and stay in sweep order.
#[must_use]
pub fn queueing_sensitivity_with(pool: &ExecPool, seed: u64) -> Vec<QueueingAblationRow> {
    let workload = WorkloadSpec {
        non_kernel_cycles: 5_000.0,
        kernels_per_request: 1,
        granularity: accelerometer::GranularityCdf::from_points(vec![(2_048.0, 1.0)])
            .expect("valid CDF"),
        cycles_per_byte: cycles_per_byte(2.0),
    };
    let cores = 4usize;
    let control = SimConfig {
        cores,
        threads: cores,
        context_switch_cycles: 0.0,
        horizon: 4e8,
        seed,
        workload: workload.clone(),
        offload: None,
        fault: Default::default(),
        recovery: Default::default(),
    };
    let speedups = [16.0, 8.0, 4.0, 2.5];
    let pairs: Vec<(SimConfig, OffloadConfig)> = speedups
        .iter()
        .map(|&peak_speedup| {
            let offload = OffloadConfig {
                design: ThreadingDesign::Sync,
                strategy: accelerometer::AccelerationStrategy::OffChip,
                driver: DriverMode::AwaitsAck,
                device: DeviceKind::Shared { servers: 1 },
                peak_speedup,
                interface_latency: 300.0,
                setup_cycles: 50.0,
                dispatch_pollution: 0.0,
                min_offload_bytes: None,
            };
            (control.clone(), offload)
        })
        .collect();
    let results = run_ab_batch(pool, &pairs).expect("the static ablation configs are valid");

    let alpha = workload.expected_alpha();
    speedups
        .iter()
        .zip(results)
        .map(|(&peak_speedup, ab)| {
            let model = |q: f64| {
                // Per-core accounting: n offloads per C cycles on one core,
                // times `cores` against a shared device handled via Q.
                let c = 1e9 * cores as f64;
                let n = c / workload.mean_request_cycles();
                let params = ModelParams::builder()
                    .host_cycles(c)
                    .kernel_fraction(alpha)
                    .offloads(n)
                    .setup_cycles(50.0)
                    .interface_cycles(300.0)
                    .queueing_cycles(q)
                    .peak_speedup(peak_speedup)
                    .build()
                    .expect("valid parameters");
                estimate(
                    &params,
                    ThreadingDesign::Sync,
                    accelerometer::AccelerationStrategy::OffChip,
                    DriverMode::AwaitsAck,
                )
                .throughput_gain_percent()
            };
            // An open-loop M/M/1 estimate wildly over-predicts here — four
            // closed-loop customers self-throttle — so use the workflow the
            // paper's eqn (1) supports: measure Q on the device and feed the
            // mean back into the model.
            let measured_q = ab.treatment.mean_queue_delay;
            QueueingAblationRow {
                peak_speedup,
                device_utilization: ab.treatment.device_utilization,
                simulated_queue_delay: measured_q,
                model_q0_percent: model(0.0),
                model_measured_q_percent: model(measured_q),
                simulated_percent: ab.speedup_percent(),
            }
        })
        .collect()
}

/// Ablation 3 result: one row per pool depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolDepthRow {
    /// Worker threads per core.
    pub threads_per_core: usize,
    /// Simulated speedup %.
    pub simulated_percent: f64,
    /// Core utilization in the accelerated run.
    pub core_utilization: f64,
}

/// Runs the Sync-OS pool-depth ablation on `pool` against a
/// high-latency (remote) accelerator; the model's prediction is
/// depth-independent and returned alongside. The depths' A/B
/// experiments run as one batch sharing one request stream; rows stay in
/// depth order and are identical at any pool width.
#[must_use]
pub fn pool_depth_with(pool: &ExecPool, seed: u64) -> (f64, Vec<PoolDepthRow>) {
    let pairs = pool_depth_pairs(seed);
    let (control, offload) = &pairs[0];
    let c = 1e9 * control.cores as f64;
    let n = c / control.workload.mean_request_cycles();
    let params = ModelParams::builder()
        .host_cycles(c)
        .kernel_fraction(control.workload.expected_alpha())
        .offloads(n)
        .interface_cycles(offload.interface_latency)
        .thread_switch_cycles(control.context_switch_cycles)
        .peak_speedup(offload.peak_speedup)
        .build()
        .expect("valid parameters");
    let model_percent = estimate(&params, offload.design, offload.strategy, offload.driver)
        .throughput_gain_percent();

    let results = run_ab_batch(pool, &pairs).expect("the static ablation configs are valid");
    let rows = pairs
        .iter()
        .zip(results)
        .map(|((control, _), ab)| PoolDepthRow {
            threads_per_core: control.threads / control.cores,
            simulated_percent: ab.speedup_percent(),
            core_utilization: ab.treatment.core_utilization,
        })
        .collect();
    (model_percent, rows)
}

/// The pool-depth ablation's A/B pairs, one per depth: four cores
/// running 1–16 threads each against a Sync-OS remote offload with a
/// 40k-cycle interface and 600-cycle thread switches.
fn pool_depth_pairs(seed: u64) -> Vec<(SimConfig, OffloadConfig)> {
    let workload = WorkloadSpec {
        non_kernel_cycles: 6_000.0,
        kernels_per_request: 1,
        granularity: accelerometer::GranularityCdf::from_points(vec![(1_024.0, 1.0)])
            .expect("valid CDF"),
        cycles_per_byte: cycles_per_byte(2.0),
    };
    let cores = 4usize;
    let offload = OffloadConfig {
        design: ThreadingDesign::SyncOs,
        strategy: accelerometer::AccelerationStrategy::Remote,
        driver: DriverMode::Posted,
        device: DeviceKind::Unlimited,
        peak_speedup: 8.0,
        interface_latency: 40_000.0,
        setup_cycles: 0.0,
        dispatch_pollution: 0.0,
        min_offload_bytes: None,
    };
    [1usize, 2, 4, 8, 12, 16]
        .iter()
        .map(|&threads_per_core| {
            let control = SimConfig {
                cores,
                threads: cores * threads_per_core,
                context_switch_cycles: 600.0,
                horizon: 3e8,
                seed,
                workload: workload.clone(),
                offload: None,
                fault: Default::default(),
                recovery: Default::default(),
            };
            (control, offload)
        })
        .collect()
}

/// Prior-model comparison: what a blocking-offload model (LogCA-style,
/// "the CPU waits while the offload operates") predicts for each Table 6
/// case study versus Accelerometer and the production measurement.
///
/// This quantifies the paper's motivation (§3, §6): "existing models fall
/// short in the context of microservices as they assume that the CPU
/// waits while the offload operates."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorModelRow {
    /// Case study name.
    pub name: String,
    /// What a blocking-offload (sync-assumption) model predicts (%).
    pub blocking_model_percent: f64,
    /// What Accelerometer predicts (%).
    pub accelerometer_percent: f64,
    /// The production measurement (%).
    pub paper_real_percent: f64,
}

/// Evaluates the blocking-offload prior against each case study: same
/// parameters, but every offload treated as `Sync` (the accelerator's
/// time and all transfer overheads on the host's critical path).
#[must_use]
pub fn prior_model_comparison(reg: &ServiceRegistry) -> Vec<PriorModelRow> {
    reg.case_studies()
        .iter()
        .map(|study| {
            let scenario = &study.scenario;
            let blocking = estimate(
                &scenario.params,
                ThreadingDesign::Sync,
                scenario.strategy,
                scenario.driver,
            );
            PriorModelRow {
                name: study.name.clone(),
                blocking_model_percent: blocking.throughput_gain_percent(),
                accelerometer_percent: scenario.estimate().throughput_gain_percent(),
                paper_real_percent: study.paper_real_percent,
            }
        })
        .collect()
}

/// Renders all three ablations as text, reading `ctx`'s service data and
/// running the simulator experiments on `ctx.pool`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when the service data yields a
/// workload the simulator cannot run.
pub fn render_all(ctx: &RunContext, seed: u64) -> Result<String, SimError> {
    let mut out = String::new();

    if let Some(a) = alpha_weighting(&ctx.pool, &ctx.registry, seed)? {
        out.push_str(&table(
            "Ablation 1: count- vs byte-weighted alpha scaling (Feed1 off-chip Sync compression)",
            &["quantity", "value"],
            &[
                vec!["break-even".into(), format!("{:.0} B", a.breakeven_bytes)],
                vec![
                    "lucrative offloads (count)".into(),
                    format!("{:.1}%", a.count_fraction * 100.0),
                ],
                vec![
                    "lucrative bytes".into(),
                    format!("{:.1}%", a.byte_fraction * 100.0),
                ],
                vec![
                    "model, count-weighted alpha (paper)".into(),
                    format!("{:+.2}%", a.count_weighted_percent),
                ],
                vec![
                    "model, byte-weighted alpha".into(),
                    format!("{:+.2}%", a.byte_weighted_percent),
                ],
                vec![
                    "simulated selective offload".into(),
                    format!("{:+.2}%", a.simulated_percent),
                ],
            ],
        ));
        out.push_str(
            "finding: kernel cycles follow bytes, so byte-weighted alpha matches the\n\
             executed offload; the paper's count-weighted rule under-projects here.\n\n",
        );
    }

    let rows: Vec<Vec<String>> = queueing_sensitivity_with(&ctx.pool, seed)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.peak_speedup),
                format!("{:.0}%", r.device_utilization * 100.0),
                format!("{:.0}", r.simulated_queue_delay),
                format!("{:+.2}%", r.model_q0_percent),
                format!("{:+.2}%", r.model_measured_q_percent),
                format!("{:+.2}%", r.simulated_percent),
            ]
        })
        .collect();
    out.push_str(&table(
        "Ablation 2: Q = 0 assumption vs emergent queueing (shared off-chip device, 4 cores)",
        &[
            "A",
            "device util",
            "sim Q (cyc)",
            "model Q=0",
            "model w/ measured Q",
            "simulated",
        ],
        &rows,
    ));
    out.push_str(
        "finding: Q = 0 over-projects as the device saturates; feeding the\n\
         measured mean queue delay back into eqn (1) recovers most of the gap\n\
         (open-loop M/M/1 estimates over-correct badly for closed-loop hosts).\n\n",
    );

    let (model_percent, rows) = pool_depth_with(&ctx.pool, seed);
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.threads_per_core),
                format!("{:+.2}%", r.simulated_percent),
                format!("{:.0}%", r.core_utilization * 100.0),
            ]
        })
        .collect();
    out.push_str(&table(
        &format!(
            "Ablation 3: Sync-OS pool depth vs a 40k-cycle offload (model predicts {model_percent:+.2}% at any depth)"
        ),
        &["threads/core", "simulated", "core util"],
        &rows,
    ));
    out.push_str(
        "finding: the model's Sync-OS equation implicitly assumes the pool hides\n\
         the full offload round trip; shallow pools idle cores and miss it badly.\n\n",
    );

    let rows: Vec<Vec<String>> = prior_model_comparison(&ctx.registry)
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                format!("{:+.2}%", r.blocking_model_percent),
                format!("{:+.2}%", r.accelerometer_percent),
                format!("{:+.2}%", r.paper_real_percent),
            ]
        })
        .collect();
    out.push_str(&table(
        "Prior-model comparison: blocking-offload assumption vs Accelerometer (Table 6 cases)",
        &["case", "blocking model", "Accelerometer", "production"],
        &rows,
    ));
    out.push_str(
        "finding: a LogCA-style blocking model predicts remote inference is a\n\
         9% *loss*; Accelerometer's threading-aware view predicts the +72%\n\
         production actually measured (+69%). This is the paper's raison d'etre.\n\
         (For the mildly-async encryption case the blocking prior lands near\n\
         production by accident: its under-prediction roughly cancels the\n\
         unmodeled production overheads.)\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer_sim::{ab_arms, TraceStore};

    #[test]
    fn byte_weighting_matches_simulated_truth() {
        let a = alpha_weighting(&ExecPool::new(2), &ServiceRegistry::builtin(), 77)
            .expect("valid configs")
            .expect("Feed1 off-chip Sync compression");
        // Bytes concentrate in large offloads: byte fraction far exceeds
        // the count fraction.
        assert!(a.byte_fraction > a.count_fraction + 0.15);
        // The simulator executes cycles-by-bytes, so byte-weighted alpha
        // lands within 1.5 points of it while count-weighted misses by
        // several.
        let byte_err = (a.byte_weighted_percent - a.simulated_percent).abs();
        let count_err = (a.count_weighted_percent - a.simulated_percent).abs();
        assert!(byte_err < 1.5, "byte-weighted err {byte_err:.2}");
        assert!(
            count_err > byte_err,
            "count {count_err:.2} vs byte {byte_err:.2}"
        );
        // And the paper's own number is the count-weighted one.
        assert!((a.count_weighted_percent - 9.0).abs() < 0.3);
    }

    #[test]
    fn queueing_gap_grows_with_load_and_measured_q_recovers_it() {
        let rows = queueing_sensitivity_with(&ExecPool::new(2), 78);
        assert_eq!(rows.len(), 4);
        // Utilization rises as the device slows.
        assert!(rows.last().unwrap().device_utilization > rows[0].device_utilization);
        // At the highest load, Q = 0 over-projects by several points and
        // feeding the measured Q back recovers most of the gap.
        let hot = rows.last().unwrap();
        assert!(hot.simulated_queue_delay > 100.0, "no queueing emerged");
        let q0_err = (hot.model_q0_percent - hot.simulated_percent).abs();
        let measured_err = (hot.model_measured_q_percent - hot.simulated_percent).abs();
        assert!(q0_err > 1.0, "Q=0 error only {q0_err:.2}");
        assert!(
            measured_err < q0_err / 2.0,
            "measured-Q {measured_err:.2} vs Q=0 {q0_err:.2}"
        );
        // At light load the two coincide.
        let cold = &rows[0];
        assert!((cold.model_q0_percent - cold.model_measured_q_percent).abs() < 0.5);
    }

    #[test]
    fn deep_pools_converge_to_the_model() {
        let (model_percent, rows) = pool_depth_with(&ExecPool::new(2), 79);
        // Shallow pools miss the model badly...
        let shallow = rows.first().unwrap();
        assert!(
            (shallow.simulated_percent - model_percent).abs() > 10.0,
            "shallow pool too close: {} vs {model_percent}",
            shallow.simulated_percent
        );
        // ...deep pools converge.
        let deep = rows.last().unwrap();
        assert!(
            (deep.simulated_percent - model_percent).abs() < 2.0,
            "deep pool {} vs model {model_percent}",
            deep.simulated_percent
        );
        // Monotone improvement with depth.
        for pair in rows.windows(2) {
            assert!(pair[1].simulated_percent >= pair[0].simulated_percent - 0.5);
        }
    }

    #[test]
    fn pool_depth_ablation_draws_one_trace() {
        let arms = ab_arms(&pool_depth_pairs(79)).unwrap();
        assert_eq!(arms.len(), 12);
        assert_eq!(TraceStore::for_batch(&arms, false).traces().len(), 1);
    }

    #[test]
    fn blocking_model_mispredicts_async_offloads() {
        let rows = prior_model_comparison(&ServiceRegistry::builtin());
        assert_eq!(rows.len(), 3);
        // AES-NI is genuinely synchronous: the two models agree.
        let aes = &rows[0];
        assert!((aes.blocking_model_percent - aes.accelerometer_percent).abs() < 1e-9);
        // Remote inference: the blocking prior predicts a *slowdown*
        // while Accelerometer (and production) see ~+70%.
        let inference = rows.iter().find(|r| r.name == "inference").unwrap();
        assert!(
            inference.blocking_model_percent < 0.0,
            "blocking model predicted {:+.2}%",
            inference.blocking_model_percent
        );
        assert!(inference.accelerometer_percent > 70.0);
        // For the dramatic asynchronous case, Accelerometer is vastly
        // closer to production (the blocking prior predicts the wrong
        // *sign*). For the mildly-async encryption case the blocking
        // prior happens to land near production by accident — it
        // under-predicts the model's value for the wrong reason, roughly
        // cancelling the unmodeled production overheads.
        let prior_err = (inference.blocking_model_percent - inference.paper_real_percent).abs();
        let accel_err = (inference.accelerometer_percent - inference.paper_real_percent).abs();
        assert!(accel_err < prior_err / 10.0, "{accel_err} vs {prior_err}");
    }

    #[test]
    fn render_includes_findings() {
        let text = render_all(&RunContext::from_process_defaults(), 80).unwrap();
        assert!(text.contains("Ablation 1"));
        assert!(text.contains("Ablation 2"));
        assert!(text.contains("Ablation 3"));
        assert!(text.contains("finding:"));
    }
}
