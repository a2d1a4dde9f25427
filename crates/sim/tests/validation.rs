//! End-to-end Table 6 validation: for each case study, the analytical
//! model's estimate and the simulator's A/B-measured "real" speedup must
//! reproduce the paper's numbers — including its headline claim that the
//! model estimates the real speedup with ≤3.7% error.

use accelerometer_fleet::ServiceRegistry;
use accelerometer_sim::parallel::{available_jobs, ExecPool};
use accelerometer_sim::{validate_all_with, CaseStudyValidation, VALIDATION_SEED};

fn validate_all(seed: u64) -> Vec<CaseStudyValidation> {
    let studies = ServiceRegistry::builtin().case_studies();
    validate_all_with(&ExecPool::new(available_jobs()), &studies, seed)
        .expect("the builtin case studies are Table 6 rows")
}

#[test]
fn table6_reproduction() {
    let results = validate_all(VALIDATION_SEED);
    assert_eq!(results.len(), 3);

    for v in &results {
        // The model reproduces the paper's estimates exactly.
        assert!(
            (v.model_estimate_percent - v.paper_estimated_percent).abs() < 0.1,
            "{}: model {:.2}% vs paper estimate {:.2}%",
            v.name,
            v.model_estimate_percent,
            v.paper_estimated_percent
        );
        // The simulated production measurement lands within 1.5 points of
        // the paper's A/B measurement.
        assert!(
            (v.simulated_percent - v.paper_real_percent).abs() < 1.5,
            "{}: simulated {:.2}% vs paper real {:.2}%",
            v.name,
            v.simulated_percent,
            v.paper_real_percent
        );
        // And the reproduction's own model-vs-measured error respects the
        // paper's ≤3.7-point bound (plus a small simulation-noise
        // allowance).
        assert!(
            v.model_vs_simulated_points() <= 4.3,
            "{}: model {:.2}% vs simulated {:.2}%",
            v.name,
            v.model_estimate_percent,
            v.simulated_percent
        );
        // The model over-estimates, as it did in all three paper studies.
        assert!(
            v.model_estimate_percent > v.simulated_percent,
            "{}: expected the model to over-estimate",
            v.name
        );
    }
}

#[test]
fn validation_is_seed_stable() {
    // Two different seeds must agree to within half a point: the
    // simulated measurement is a statistic, not noise.
    let a = validate_all(1);
    let b = validate_all(2);
    for (x, y) in a.iter().zip(&b) {
        assert!(
            (x.simulated_percent - y.simulated_percent).abs() < 0.75,
            "{}: {:.2}% vs {:.2}% across seeds",
            x.name,
            x.simulated_percent,
            y.simulated_percent
        );
    }
}
