//! The headline reproduction test: every quantitative claim the paper
//! makes that this repository commits to, checked in one place.

use accelerometer_suite::bench::{figure, render_table, FIGURE_IDS, TABLE_IDS};
use accelerometer_suite::fleet::params::{all_case_studies, all_recommendations};
use accelerometer_suite::fleet::{profile, FunctionalityCategory, ServiceId};
use accelerometer_suite::model::{amdahl, project};

/// §1 / §2.4: "an important ML microservice can speed up by only 49% even
/// if its ML inference takes no time."
#[test]
fn headline_49_percent_claim() {
    let min_inference = [
        ServiceId::Feed1,
        ServiceId::Feed2,
        ServiceId::Ads1,
        ServiceId::Ads2,
    ]
    .iter()
    .map(|&id| {
        profile(id)
            .functionality
            .fraction(FunctionalityCategory::PredictionRanking)
    })
    .fold(f64::INFINITY, f64::min);
    let gain = (amdahl::ideal_speedup(min_inference) - 1.0) * 100.0;
    assert!((gain - 49.0).abs() < 1.0, "headline gain {gain:.1}%");
}

/// Abstract: "microservices spend as few as 18% of CPU cycles executing
/// core application logic."
#[test]
fn headline_18_percent_core_logic() {
    let min_core = ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| profile(id).core_percent())
        .fold(f64::INFINITY, f64::min);
    // Cache2's core (12%) is below Web's 18%; the paper's "as few as 18%"
    // refers to Web's app logic, which we also pin exactly.
    assert!(min_core <= 18.0);
    assert_eq!(profile(ServiceId::Web).core_percent(), 18.0);
}

/// Abstract: caching services spend 52% of cycles sending/receiving I/O;
/// copying/allocating/freeing memory can consume 37% of cycles.
#[test]
fn headline_cache_io_and_memory_claims() {
    let cache2 = profile(ServiceId::Cache2);
    assert_eq!(
        cache2
            .functionality
            .percent(FunctionalityCategory::SecureInsecureIo),
        52.0
    );
    let max_memory = ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| {
            profile(id)
                .leaves
                .percent(accelerometer_suite::fleet::LeafCategory::Memory)
        })
        .fold(0.0, f64::max);
    assert_eq!(max_memory, 37.0);
}

/// Table 6: the model's estimates match the paper's three case studies,
/// and the paper's own model-vs-production errors are ≤ 3.7 points.
#[test]
fn table6_model_estimates() {
    let expected = [("aes-ni", 15.7), ("encryption", 8.6), ("inference", 72.39)];
    for (study, (name, pct)) in all_case_studies().iter().zip(expected) {
        assert_eq!(study.name, name);
        let got = study.scenario.estimate().throughput_gain_percent();
        assert!((got - pct).abs() < 0.1, "{name}: {got:.2}% vs {pct}%");
        assert!((study.paper_estimated_percent - study.paper_real_percent).abs() <= 3.7 + 1e-9);
    }
}

/// Fig. 20: all eight projection bars (including the paper's reported
/// latency reductions for compression).
#[test]
fn fig20_all_bars() {
    for rec in all_recommendations() {
        for cfg in &rec.configs {
            let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy).unwrap();
            let got = p.estimate.throughput_gain_percent();
            assert!(
                (got - cfg.paper_speedup_percent).abs() < 0.35,
                "{} {}: {got:.2}% vs paper {:.2}%",
                rec.name,
                cfg.label,
                cfg.paper_speedup_percent
            );
            if cfg.label == "Off-chip:Async" {
                let lat = p.estimate.latency_gain_percent();
                assert!(
                    (lat - cfg.paper_latency_percent.unwrap()).abs() < 0.35,
                    "{} latency {lat:.2}%",
                    rec.name
                );
            }
        }
    }
}

/// §5: "64.2% of compressions are ≥ 425 B" — the CDF and break-even
/// machinery recover the paper's selection exactly.
#[test]
fn compression_selection_fractions() {
    let rec = &all_recommendations()[0];
    let sync = &rec.configs[1];
    let p = project(&rec.profile, &sync.accelerator, sync.design, sync.policy).unwrap();
    assert!((p.selection.fraction - 0.642).abs() < 0.005);
    assert!((p.breakeven.threshold().unwrap().get() - 425.0).abs() < 1.0);
}

/// Every table and figure regenerates (Table 6 exercised separately by
/// the simulator validation suite since it runs A/B experiments).
#[test]
fn all_tables_and_figures_regenerate() {
    for id in TABLE_IDS.iter().filter(|id| **id != "table6") {
        assert!(render_table(id).is_some(), "{id}");
    }
    for id in FIGURE_IDS {
        let text = figure(id).unwrap_or_else(|| panic!("{id}"));
        assert!(!text.is_empty());
    }
}
