//! Validated model parameters: the Table 6 case studies and Table 7
//! acceleration recommendations, packaged as ready-to-evaluate scenarios.
//!
//! The parameter sets ride in the service specs under
//! `configs/services/` (`case_studies` / `recommendations`);
//! `configs/README.md` records the paper values that pin each one.

use accelerometer::{
    AcceleratorSpec, GranularityCdf, KernelProfile, OffloadPolicy, Scenario, ThreadingDesign,
};
use serde::{Deserialize, Serialize};

use crate::registry::current_registry;
use crate::services::ServiceId;

/// A §4 validation case study: model parameters plus the production
/// ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseStudy {
    /// Short identifier (Table 6 row name).
    pub name: String,
    /// The microservice under study.
    pub service: ServiceId,
    /// The fully-parameterized scenario (Table 6 row).
    pub scenario: Scenario,
    /// The Accelerometer-estimated speedup the paper reports (percent).
    pub paper_estimated_percent: f64,
    /// The real production speedup measured via A/B testing (percent).
    pub paper_real_percent: f64,
    /// The offload-size distribution for the kernel, where the paper
    /// reports one.
    pub granularity: Option<GranularityCdf>,
    /// Host cycles per byte for the kernel (derived from `α·C/(n·E[g])`).
    pub cycles_per_byte: f64,
}

impl CaseStudy {
    /// The paper's model-vs-production error in percentage points.
    #[must_use]
    pub fn paper_error_points(&self) -> f64 {
        (self.paper_estimated_percent - self.paper_real_percent).abs()
    }
}

/// All Table 6 case studies in paper row order, from the process default
/// registry ([`crate::registry::current_registry`], sorted by the specs'
/// explicit `order` field). Runners take a registry's
/// [`case_studies`](crate::ServiceRegistry::case_studies) instead; the
/// benchmark harness still calls this.
#[must_use]
pub fn all_case_studies() -> Vec<CaseStudy> {
    current_registry().case_studies()
}

/// One evaluated configuration of a §5 acceleration recommendation
/// (a bar of Fig. 20).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationConfig {
    /// Display label ("On-chip", "Off-chip:Sync", …).
    pub label: String,
    /// The accelerator under consideration.
    pub accelerator: AcceleratorSpec,
    /// The threading design.
    pub design: ThreadingDesign,
    /// The offload policy (§5 assumes all on-chip offloads yield gains).
    pub policy: OffloadPolicy,
    /// The speedup percent the paper reports for this bar.
    pub paper_speedup_percent: f64,
    /// The latency-reduction percent, where the paper reports one.
    pub paper_latency_percent: Option<f64>,
}

/// A §5 acceleration recommendation: a kernel profile plus the candidate
/// accelerator configurations of Fig. 20.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Display name ("Feed1: Compression", …).
    pub name: String,
    /// The service whose overhead is being accelerated.
    pub service: ServiceId,
    /// The profiled kernel (Table 7 `C`, `α`, total offloads, `Cb`, CDF).
    pub profile: KernelProfile,
    /// The ideal (infinite-acceleration) speedup percent from Fig. 20.
    pub paper_ideal_percent: f64,
    /// The candidate configurations.
    pub configs: Vec<RecommendationConfig>,
}

/// All §5 recommendations in Fig. 20 order, from the process default
/// registry ([`crate::registry::current_registry`]). Runners take a
/// registry's [`recommendations`](crate::ServiceRegistry::recommendations)
/// instead; the benchmark harness still calls this.
#[must_use]
pub fn all_recommendations() -> Vec<Recommendation> {
    current_registry().recommendations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServiceRegistry;
    use accelerometer::{project, AccelerationStrategy};

    fn compression_feed1() -> Recommendation {
        ServiceRegistry::builtin()
            .recommendation("Feed1: Compression")
            .expect("Feed1 recommendation")
    }

    #[test]
    fn table6_model_estimates_match_paper() {
        for cs in all_case_studies() {
            let est = cs.scenario.estimate();
            assert!(
                (est.throughput_gain_percent() - cs.paper_estimated_percent).abs() < 0.1,
                "{}: model {:.2}% vs paper {:.2}%",
                cs.name,
                est.throughput_gain_percent(),
                cs.paper_estimated_percent
            );
        }
    }

    #[test]
    fn table6_paper_errors_at_most_3_7_points() {
        // The paper's headline: Accelerometer estimates real speedup with
        // ≤ 3.7% error.
        for cs in all_case_studies() {
            assert!(cs.paper_error_points() <= 3.7 + 1e-9, "{}", cs.name);
        }
        let inference = ServiceRegistry::builtin()
            .case_study("inference")
            .expect("inference case study");
        assert!((inference.paper_error_points() - 3.7).abs() < 0.01);
    }

    #[test]
    fn fig20_projections_match_paper() {
        for rec in all_recommendations() {
            for cfg in &rec.configs {
                let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy).unwrap();
                let got = p.estimate.throughput_gain_percent();
                assert!(
                    (got - cfg.paper_speedup_percent).abs() < 0.35,
                    "{} {}: model {:.2}% vs paper {:.2}%",
                    rec.name,
                    cfg.label,
                    got,
                    cfg.paper_speedup_percent
                );
            }
        }
    }

    #[test]
    fn fig20_ideal_bars_match_paper() {
        for rec in all_recommendations() {
            let ideal = (1.0 / (1.0 - rec.profile.kernel_fraction) - 1.0) * 100.0;
            assert!(
                (ideal - rec.paper_ideal_percent).abs() < 0.3,
                "{}: ideal {:.2}% vs paper {:.2}%",
                rec.name,
                ideal,
                rec.paper_ideal_percent
            );
        }
    }

    #[test]
    fn fig20_async_latency_matches_paper() {
        let rec = compression_feed1();
        let cfg = rec
            .configs
            .iter()
            .find(|c| c.label == "Off-chip:Async")
            .unwrap();
        let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy).unwrap();
        assert!((p.estimate.latency_gain_percent() - 9.2).abs() < 0.3);
    }

    #[test]
    fn compression_breakeven_selects_paper_counts() {
        let rec = compression_feed1();
        let sync = &rec.configs[1];
        let p = project(&rec.profile, &sync.accelerator, sync.design, sync.policy).unwrap();
        assert!((p.breakeven.threshold().unwrap().get() - 425.0).abs() < 1.0);
        assert!((p.selection.offloads - 9_629.0).abs() < 60.0);
        let sync_os = &rec.configs[2];
        let p = project(&rec.profile, &sync_os.accelerator, sync_os.design, sync_os.policy).unwrap();
        assert!((p.selection.offloads - 3_986.0).abs() < 60.0);
        let async_cfg = &rec.configs[3];
        let p = project(&rec.profile, &async_cfg.accelerator, async_cfg.design, async_cfg.policy)
            .unwrap();
        assert!((p.selection.offloads - 9_769.0).abs() < 60.0);
    }

    #[test]
    fn kernel_cost_is_consistent_with_rates() {
        // Cb ≈ α·C/(n·E[g]) should hold within ~25% for every profiled
        // kernel (the paper derives Cb from micro-benchmarks, so exact
        // agreement with profile attribution is not expected).
        for rec in all_recommendations() {
            let p = &rec.profile;
            let implied = p.kernel_fraction * p.total_cycles.get()
                / (p.total_offloads * p.granularity.mean_bytes().get());
            let ratio = implied / p.cost.cycles_per_byte.get();
            assert!(
                (0.7..=1.4).contains(&ratio),
                "{}: implied Cb {:.2} vs stated {:.2}",
                rec.name,
                implied,
                p.cost.cycles_per_byte.get()
            );
        }
    }

    #[test]
    fn case_study_threading_covers_all_three_designs() {
        // §4: "With these studies, we validate all three microservice
        // threading scenarios."
        let designs: Vec<ThreadingDesign> =
            all_case_studies().iter().map(|c| c.scenario.design).collect();
        assert!(designs.contains(&ThreadingDesign::Sync));
        assert!(designs.contains(&ThreadingDesign::AsyncNoResponse));
        assert!(designs.contains(&ThreadingDesign::AsyncDistinctThread));
        // And all three strategies.
        let strategies: Vec<AccelerationStrategy> =
            all_case_studies().iter().map(|c| c.scenario.strategy).collect();
        assert_eq!(strategies.len(), 3);
        assert!(strategies.contains(&AccelerationStrategy::OnChip));
        assert!(strategies.contains(&AccelerationStrategy::OffChip));
        assert!(strategies.contains(&AccelerationStrategy::Remote));
    }
}
