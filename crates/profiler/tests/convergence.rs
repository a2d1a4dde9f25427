//! Statistical convergence tests: analyzing a large generated sample must
//! reconstruct the ground-truth service profile — the end-to-end contract
//! of the synthetic characterization pipeline.

use accelerometer_fleet::{
    profile, FunctionalityCategory, LeafCategory, ServiceId, ServiceRegistry,
};
use accelerometer_profiler::{analyze, TraceGenerator};

const SAMPLES: usize = 120_000;
const TOLERANCE_POINTS: f64 = 1.0;

/// The value a `(category, value)` list holds for `key`.
fn value_of<C: PartialEq>(entries: &[(C, f64)], key: C) -> Option<f64> {
    entries.iter().find(|(c, _)| *c == key).map(|(_, v)| *v)
}

fn reconstruct(service: ServiceId, seed: u64) -> accelerometer_profiler::ProfileReport {
    let mut generator = TraceGenerator::new(profile(service), seed);
    let traces = generator.generate(SAMPLES);
    analyze(&traces, generator.registry())
}

#[test]
fn web_breakdowns_converge_to_ground_truth() {
    let truth = profile(ServiceId::Web);
    let report = reconstruct(ServiceId::Web, 1);
    for &cat in FunctionalityCategory::ALL {
        let got = report.functionality.percent(cat);
        let want = truth.functionality.percent(cat);
        assert!(
            (got - want).abs() < TOLERANCE_POINTS,
            "{cat}: reconstructed {got:.2}% vs truth {want:.2}%"
        );
    }
    for &cat in LeafCategory::ALL {
        let got = report.leaf.percent(cat);
        let want = truth.leaves.percent(cat);
        assert!(
            (got - want).abs() < TOLERANCE_POINTS,
            "{cat}: reconstructed {got:.2}% vs truth {want:.2}%"
        );
    }
    // The headline Fig. 1 numbers survive the pipeline.
    assert!((report.core_percent() - 18.0).abs() < TOLERANCE_POINTS);
    assert!(
        (report.functionality.percent(FunctionalityCategory::Logging) - 23.0).abs()
            < TOLERANCE_POINTS
    );
}

#[test]
fn every_characterized_service_converges() {
    for (i, &service) in ServiceId::CHARACTERIZED.iter().enumerate() {
        let truth = profile(service);
        let report = reconstruct(service, 100 + i as u64);
        // Dominant functionality must match, and its share must agree.
        let (want_cat, want_pct) = truth
            .functionality
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a characterized service has functionalities");
        let got_pct = report.functionality.percent(want_cat);
        assert!(
            (got_pct - want_pct).abs() < TOLERANCE_POINTS,
            "{service}: dominant {want_cat} reconstructed {got_pct:.2}% vs {want_pct:.2}%"
        );
        // Orchestration share agrees.
        assert!(
            (report.orchestration_percent() - truth.orchestration_percent()).abs()
                < TOLERANCE_POINTS,
            "{service} orchestration"
        );
    }
}

#[test]
fn cache1_ipc_reconstruction_matches_fig8() {
    let report = reconstruct(ServiceId::Cache1, 7);
    let services = ServiceRegistry::builtin();
    for cat in [
        LeafCategory::Memory,
        LeafCategory::Kernel,
        LeafCategory::Zstd,
        LeafCategory::Ssl,
        LeafCategory::CLibraries,
    ] {
        let want = services.leaf_ipc(ServiceId::Cache1, cat).unwrap().gen_c;
        let got = value_of(&report.leaf_ipc, cat).unwrap();
        assert!(
            (got - want).abs() < 0.02,
            "{cat}: reconstructed IPC {got:.3} vs Fig. 8 {want:.3}"
        );
    }
}

#[test]
fn ipc_scaling_across_generations_survives_pipeline() {
    use accelerometer_fleet::CpuGeneration;
    let mut per_gen = Vec::new();
    for generation in CpuGeneration::ALL {
        let mut generator =
            TraceGenerator::new(profile(ServiceId::Cache1), 11).on_generation(generation);
        let traces = generator.generate(SAMPLES / 2);
        let report = analyze(&traces, generator.registry());
        per_gen.push(value_of(&report.leaf_ipc, LeafCategory::Kernel).unwrap());
    }
    // Fig. 8: kernel IPC is low and scales poorly across generations.
    assert!(per_gen[0] < 0.5);
    assert!(per_gen[2] / per_gen[0] < 1.15, "kernel IPC scaled too well");
}

#[test]
fn seeds_change_samples_but_not_statistics() {
    let a = reconstruct(ServiceId::Feed1, 1000);
    let b = reconstruct(ServiceId::Feed1, 2000);
    for &cat in FunctionalityCategory::ALL {
        assert!(
            (a.functionality.percent(cat) - b.functionality.percent(cat)).abs()
                < 2.0 * TOLERANCE_POINTS,
            "{cat} unstable across seeds"
        );
    }
}

#[test]
fn ads1_memory_op_mix_converges_to_fig3() {
    use accelerometer_fleet::MemoryOp;
    let truth = profile(ServiceId::Ads1);
    let report = reconstruct(ServiceId::Ads1, 55);
    for &op in MemoryOp::ALL {
        let got = value_of(&report.memory_ops, op).unwrap_or(0.0);
        let want = truth.memory_ops.percent(op);
        assert!(
            (got - want).abs() < 2.0,
            "{op}: reconstructed {got:.2}% vs Fig. 3 {want:.2}%"
        );
    }
    // The copy share that pins Table 7's α = 0.1512 survives the
    // sampling pipeline.
    assert!((value_of(&report.memory_ops, MemoryOp::Copy).unwrap() - 54.0).abs() < 2.0);
}
