//! The three §4 validation case studies, wired end to end: workload from
//! the Table 6 parameters, accelerator from the case study's hardware,
//! A/B measurement in the simulator, and comparison against both the
//! model estimate and the paper's production numbers.
//!
//! The simulator adds per-offload *dispatch pollution* — host cycles the
//! analytical model does not capture (cache/TLB pollution from the
//! offload path, completion interrupts, driver bookkeeping). The values
//! below are calibrated once per acceleration strategy so the simulated
//! "real" speedup lands where production did, and are documented in
//! `EXPERIMENTS.md`; everything else follows from the Table 6 parameters.
//!
//! ## The measured AES-NI ratio vs Table 6's `A = 6`
//!
//! This repository now measures the AES-NI acceleration factor on its
//! own host (`accelctl calibrate`, `BENCH_kernels.json`): scalar
//! AES-128-CTR vs the AES-NI dispatch path is ~9x at 64 B rising to
//! ~68x at 4 KiB (paired same-session medians). That is much larger
//! than the paper's `A = 6` for Cache1, and both numbers are right:
//! Table 6's baseline is production software AES — table-driven,
//! hand-tuned, already fast — while our scalar tier is a portable
//! constant-time reference implementation. `A` is always relative to
//! the software it replaces, which is why the case studies keep the
//! paper's fleet-measured `A = 6` (the model validation target) while
//! the calibration path reports what *this* host's hardware does to
//! *this* repo's scalar baseline. The gap itself reproduces a §4
//! observation: the win from acceleration depends as much on the
//! quality of the displaced software baseline as on the accelerator.

use accelerometer_fleet::CaseStudy;
use serde::{Deserialize, Serialize};

use crate::abtest::{run_ab_batch, AbResult};
use crate::device::DeviceKind;
use crate::engine::{OffloadConfig, SimConfig};
use crate::error::{Result, SimError};
use crate::fault::{FaultPlan, RecoveryPolicy};
use crate::parallel::ExecPool;
use crate::workload::workload_for_params;

/// The Table 6 case-study names, in row order — the valid arguments to
/// [`simulate`] and the CLI's `validate --case`.
pub const CASE_STUDY_NAMES: &[&str] = &["aes-ni", "encryption", "inference"];

/// Host-side per-offload cycles unmodeled by Accelerometer, calibrated
/// per case study (see module docs): AES-NI instruction-stream pollution.
pub const AES_NI_POLLUTION: f64 = 90.0;
/// PCIe doorbell/completion pollution for the off-chip encryption device.
pub const PCIE_POLLUTION: f64 = 220.0;
/// Per-batch response-handling overhead for remote inference, in the
/// scaled units below.
pub const REMOTE_POLLUTION: f64 = 319.0;

/// Case study 3 simulates at 1:10,000 scale (all per-offload cycle
/// quantities divided by this factor) so a batch-granularity workload
/// (10 offloads per second in production) yields statistically useful
/// request counts; every model ratio is scale-invariant.
pub const INFERENCE_SCALE: f64 = 1.0e4;

/// One validated case study: model estimate, simulated measurement, and
/// the paper's production numbers side by side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseStudyValidation {
    /// Case study name (Table 6 row).
    pub name: String,
    /// Accelerometer's estimate (computed from the Table 6 scenario).
    pub model_estimate_percent: f64,
    /// The simulator's A/B-measured speedup.
    pub simulated_percent: f64,
    /// The estimate the paper reports.
    pub paper_estimated_percent: f64,
    /// The production speedup the paper reports.
    pub paper_real_percent: f64,
}

impl CaseStudyValidation {
    /// |model − simulated| in percentage points: the reproduction's
    /// analogue of the paper's ≤3.7-point model error.
    #[must_use]
    pub fn model_vs_simulated_points(&self) -> f64 {
        (self.model_estimate_percent - self.simulated_percent).abs()
    }
}

fn control_config(study: &CaseStudy, scale: f64, horizon: f64, seed: u64) -> SimConfig {
    let params = &study.scenario.params;
    let granularity = study.granularity.clone().unwrap_or_else(|| {
        // Batch-granularity kernels: a single fixed "size" carrying
        // the whole per-offload cost.
        accelerometer::GranularityCdf::from_points(vec![(1_000.0, 1.0)])
            .expect("static CDF is valid")
    });
    let workload = workload_for_params(
        params.host_cycles().get() / scale,
        params.kernel_fraction(),
        params.offloads(),
        granularity,
    );
    SimConfig {
        cores: 4,
        threads: 4,
        context_switch_cycles: params.overheads().thread_switch.get() / scale,
        horizon,
        seed,
        workload,
        offload: None,
        fault: FaultPlan::none(),
        recovery: RecoveryPolicy::none(),
    }
}

fn offload_config(study: &CaseStudy, scale: f64, pollution: f64) -> OffloadConfig {
    let scenario = &study.scenario;
    let ovh = scenario.params.overheads();
    OffloadConfig {
        design: scenario.design,
        strategy: scenario.strategy,
        driver: scenario.driver,
        device: DeviceKind::default_for(scenario.strategy),
        peak_speedup: scenario.params.peak_speedup(),
        interface_latency: ovh.interface.get() / scale,
        setup_cycles: ovh.setup.get() / scale,
        dispatch_pollution: pollution,
        // All three case studies offload every invocation (§4: AES-NI's
        // break-even is ≥1 B so everything qualifies; Cache3 cannot
        // select; Ads1 pre-batches).
        min_offload_bytes: None,
    }
}

/// Runs one case study's A/B experiment in the simulator, both arms on
/// the calling thread. `accelctl validate --case` runs the same A/B on
/// its `--jobs` pool through [`validate_all_with`].
///
/// # Errors
///
/// Returns [`SimError::UnknownCaseStudy`] (listing the valid names) for
/// a study whose name is not a Table 6 row. This used to be a `panic!`
/// reachable from the CLI. Returns [`SimError::InvalidConfig`] when the
/// study's parameters give a configuration the simulator cannot run.
pub fn simulate(study: &CaseStudy, seed: u64) -> Result<(CaseStudyValidation, AbResult)> {
    simulate_on(&ExecPool::new(1), study, seed)
}

/// [`simulate`] with the two arms as one A/B batch on `pool`.
fn simulate_on(
    pool: &ExecPool,
    study: &CaseStudy,
    seed: u64,
) -> Result<(CaseStudyValidation, AbResult)> {
    let (scale, pollution, horizon) = match study.name.as_str() {
        "aes-ni" => (1.0, AES_NI_POLLUTION, 2.5e8),
        "encryption" => (1.0, PCIE_POLLUTION, 8.0e8),
        "inference" => (INFERENCE_SCALE, REMOTE_POLLUTION, 1.2e9),
        other => {
            return Err(SimError::UnknownCaseStudy {
                name: other.to_owned(),
                valid: CASE_STUDY_NAMES,
            })
        }
    };
    let control = control_config(study, scale, horizon, seed);
    let offload = offload_config(study, scale, pollution);
    let ab = run_ab_batch(pool, &[(control, offload)])?[0];
    let validation = CaseStudyValidation {
        name: study.name.clone(),
        model_estimate_percent: study.scenario.estimate().throughput_gain_percent(),
        simulated_percent: ab.speedup_percent(),
        paper_estimated_percent: study.paper_estimated_percent,
        paper_real_percent: study.paper_real_percent,
    };
    Ok((validation, ab))
}

/// The seed `validate`, `tables table6` and `ablations` draw their
/// simulated A/B runs from unless `--seed` names another.
pub const VALIDATION_SEED: u64 = 20_260_706;

/// Runs the given case studies (a registry's Table 6 rows) in order,
/// each study's two arms as one A/B batch on `pool`, so the run never
/// uses more than `pool`'s workers. One batch per study keeps one
/// study's shared trace in memory at a time: a single batch over every
/// study would draw all their traces before running any arm. Each case
/// study is an independent seeded A/B experiment, so results are
/// identical at any pool width and come back in input order.
///
/// # Errors
///
/// Returns [`SimError::UnknownCaseStudy`] when a study's name is not a
/// Table 6 row — loaded service data may rename one.
pub fn validate_all_with(
    pool: &ExecPool,
    studies: &[CaseStudy],
    seed: u64,
) -> Result<Vec<CaseStudyValidation>> {
    studies
        .iter()
        .map(|study| simulate_on(pool, study, seed).map(|(v, _)| v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer::{AccelerationStrategy, DriverMode, ThreadingDesign};
    use accelerometer_fleet::{all_case_studies, ServiceRegistry};

    fn aes_ni() -> CaseStudy {
        ServiceRegistry::builtin()
            .case_study("aes-ni")
            .expect("aes-ni case study")
    }

    /// Each case study exercises a distinct design/strategy pair (§4
    /// validates all three threading scenarios).
    fn expected_design(name: &str) -> Option<(ThreadingDesign, AccelerationStrategy, DriverMode)> {
        match name {
            "aes-ni" => Some((
                ThreadingDesign::Sync,
                AccelerationStrategy::OnChip,
                DriverMode::Posted,
            )),
            "encryption" => Some((
                ThreadingDesign::AsyncNoResponse,
                AccelerationStrategy::OffChip,
                DriverMode::AwaitsAck,
            )),
            "inference" => Some((
                ThreadingDesign::AsyncDistinctThread,
                AccelerationStrategy::Remote,
                DriverMode::Posted,
            )),
            _ => None,
        }
    }

    #[test]
    fn case_study_designs_match_table6() {
        for study in all_case_studies() {
            let (design, strategy, driver) =
                expected_design(&study.name).expect("known case study");
            assert_eq!(study.scenario.design, design, "{}", study.name);
            assert_eq!(study.scenario.strategy, strategy, "{}", study.name);
            assert_eq!(study.scenario.driver, driver, "{}", study.name);
        }
        assert!(expected_design("bogus").is_none());
    }

    #[test]
    fn unknown_case_study_is_a_structured_error() {
        // Regression: this used to be `panic!("unknown case study …")`
        // reachable straight from the CLI.
        let mut study = aes_ni();
        study.name = "bogus".to_owned();
        let err = simulate(&study, 42).unwrap_err();
        match &err {
            SimError::UnknownCaseStudy { name, valid } => {
                assert_eq!(name, "bogus");
                assert_eq!(*valid, CASE_STUDY_NAMES);
            }
            other => panic!("unexpected error {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("bogus"), "{msg}");
        assert!(msg.contains("aes-ni, encryption, inference"), "{msg}");
    }

    #[test]
    fn validate_all_reports_a_renamed_case_study() {
        let mut studies = all_case_studies();
        studies[0].name = "aes-ni-v2".to_owned();
        let err = validate_all_with(&ExecPool::new(2), &studies, 42)
            .expect_err("a renamed study is not a Table 6 row");
        assert!(
            matches!(&err, SimError::UnknownCaseStudy { name, .. } if name == "aes-ni-v2"),
            "{err:?}"
        );
    }

    #[test]
    fn aes_ni_simulation_lands_near_production() {
        let (validation, ab) = simulate(&aes_ni(), 42).expect("known case study");
        // Model estimate ≈ 15.7%.
        assert!((validation.model_estimate_percent - 15.7).abs() < 0.1);
        // Simulated "real" speedup within a point of the paper's 14%.
        assert!(
            (validation.simulated_percent - 14.0).abs() < 1.0,
            "simulated {:.2}%",
            validation.simulated_percent
        );
        // Throughput improved and every encryption offloaded.
        assert!(ab.treatment.offloads_dispatched > 0);
        assert_eq!(ab.treatment.offloads_suppressed, 0);
        // On-chip per-core device: no cross-core queueing at one kernel
        // per request.
        assert_eq!(ab.treatment.mean_queue_delay, 0.0);
    }
}
