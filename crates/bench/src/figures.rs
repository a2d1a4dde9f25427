//! Regeneration of every figure in the paper (Figs. 1–22).
//!
//! Each builder returns the figure's rendered text; [`figure`] dispatches
//! by identifier and [`figure_json`] exposes the underlying series as
//! machine-readable JSON for plotting. Every service dataset is read
//! through the current service registry, so `--services` reaches every
//! figure; a series the loaded data lacks is left out of the plot.

use accelerometer::units::cycles_per_byte;
use accelerometer::{
    project, throughput_breakeven, BreakEven, DriverMode, KernelCost, OffloadContext, Scenario,
    ThreadingDesign, Timeline,
};
use accelerometer_fleet::ipc::{IpcScaling, FIG10_CATEGORIES, FIG8_CATEGORIES};
use accelerometer_fleet::reference::{
    kernel_breakdown, leaf_breakdown, memory_breakdown, ReferenceWorkload,
};
use accelerometer_fleet::registry::{functionality_ipc_scaling, leaf_ipc_scaling};
use accelerometer_fleet::{
    all_recommendations, case_study, cdf, profile, recommendation, Breakdown,
    FunctionalityCategory, LeafCategory, ServiceId,
};
use serde_json::{json, Value};

use crate::render::{cdf_plot, grouped_bars, stacked_bars};

/// The §5 recommendation whose compression CDF and break-evens Fig. 19
/// plots.
const FEED1_COMPRESSION: &str = "Feed1: Compression";

/// All figure identifiers, in paper order.
pub const FIGURE_IDS: [&str; 22] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22",
];

/// Renders one figure by identifier (`"fig1"`–`"fig22"`).
#[must_use]
pub fn figure(id: &str) -> Option<String> {
    Some(match id {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => timeline_figure(
            "Fig 11: example timeline of host & accelerator (one offload)",
            ThreadingDesign::SyncOs,
        ),
        "fig12" => timeline_figure("Fig 12: Sync offload timeline", ThreadingDesign::Sync),
        "fig13" => timeline_figure("Fig 13: Sync-OS offload timeline", ThreadingDesign::SyncOs),
        "fig14" => timeline_figure(
            "Fig 14: Async offload timeline",
            ThreadingDesign::AsyncSameThread,
        ),
        "fig15" => fig15(),
        "fig16" => fig16(),
        "fig17" => fig17(),
        "fig18" => fig18(),
        "fig19" => fig19(),
        "fig20" => fig20(),
        "fig21" => fig21(),
        "fig22" => fig22(),
        _ => return None,
    })
}

/// The underlying series of a figure as JSON (for external plotting).
#[must_use]
pub fn figure_json(id: &str) -> Option<Value> {
    Some(match id {
        "fig1" => rows_json(&fig1_rows()),
        "fig2" => rows_json(&fig2_rows()),
        "fig3" => rows_json(&fig3_rows()),
        "fig4" => rows_json(&fig4_rows()),
        "fig5" => rows_json(&fig5_rows()),
        "fig6" => rows_json(&fig6_rows()),
        "fig7" => rows_json(&fig7_rows()),
        "fig8" => ipc_json(&fig8_groups()),
        "fig9" => rows_json(&fig9_rows()),
        "fig10" => ipc_json(&fig10_groups()),
        "fig15" => cdf_json(&fig15_series()),
        "fig16" => rows_json(&fig16_rows()),
        "fig17" => rows_json(&fig17_rows()),
        "fig18" => rows_json(&fig18_rows()),
        "fig19" => cdf_json(&fig19_series()),
        "fig20" => fig20_json(),
        "fig21" => cdf_json(&copy_cdf_series()),
        "fig22" => cdf_json(&alloc_cdf_series()),
        _ => return None,
    })
}

type Rows = Vec<(String, Vec<(String, f64)>)>;

fn rows_json(rows: &Rows) -> Value {
    json!(rows
        .iter()
        .map(|(name, segments)| {
            json!({
                "name": name,
                "segments": segments.iter().map(|(c, p)| json!({"category": c, "percent": p})).collect::<Vec<_>>(),
            })
        })
        .collect::<Vec<_>>())
}

fn ipc_json(groups: &[(String, Vec<f64>)]) -> Value {
    json!(groups
        .iter()
        .map(|(name, values)| json!({"category": name, "gen_a": values[0], "gen_b": values[1], "gen_c": values[2]}))
        .collect::<Vec<_>>())
}

fn cdf_json(series: &[(String, Vec<(f64, f64)>)]) -> Value {
    json!(series
        .iter()
        .map(|(name, points)| json!({"series": name, "points": points}))
        .collect::<Vec<_>>())
}

fn breakdown_rows<C: Copy + PartialEq + std::fmt::Display>(
    services: &[ServiceId],
    get: impl Fn(ServiceId) -> Breakdown<C>,
) -> Rows {
    services
        .iter()
        .map(|&id| {
            (
                id.to_string(),
                get(id)
                    .iter()
                    .map(|(c, p)| (c.to_string(), p))
                    .collect(),
            )
        })
        .collect()
}

fn fig1_rows() -> Rows {
    ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| {
            let p = profile(id);
            (
                id.to_string(),
                vec![
                    ("Application Logic".to_owned(), p.core_percent()),
                    ("Orchestration".to_owned(), p.orchestration_percent()),
                ],
            )
        })
        .collect()
}

fn fig1() -> String {
    stacked_bars(
        "Fig 1: cycles in core application logic vs orchestration",
        &fig1_rows(),
        60,
    )
}

fn fig2_rows() -> Rows {
    let mut rows = breakdown_rows(&ServiceId::CHARACTERIZED, |id| profile(id).leaves);
    for workload in ReferenceWorkload::ALL {
        rows.push((
            workload.label().to_owned(),
            leaf_breakdown(workload)
                .iter()
                .map(|(c, p)| (c.to_string(), p))
                .collect(),
        ));
    }
    rows
}

fn fig2() -> String {
    stacked_bars(
        "Fig 2: cycles in leaf-function categories",
        &fig2_rows(),
        60,
    )
}

fn fig3_rows() -> Rows {
    let mut rows = breakdown_rows(&ServiceId::CHARACTERIZED, |id| profile(id).memory_ops);
    for workload in ReferenceWorkload::ALL {
        rows.push((
            workload.label().to_owned(),
            memory_breakdown(workload)
                .iter()
                .map(|(c, p)| (c.to_string(), p))
                .collect(),
        ));
    }
    rows
}

fn fig3() -> String {
    let mut out = stacked_bars(
        "Fig 3: memory leaf functions (share of memory cycles)",
        &fig3_rows(),
        60,
    );
    out.push_str("net memory share of total cycles:");
    for &id in &ServiceId::CHARACTERIZED {
        let net = profile(id).leaves.percent(LeafCategory::Memory);
        out.push_str(&format!(" {id}={net:.0}%"));
    }
    out.push('\n');
    out
}

fn fig4_rows() -> Rows {
    breakdown_rows(&ServiceId::CHARACTERIZED, |id| profile(id).copy_origins)
}

fn fig4() -> String {
    let mut out = stacked_bars(
        "Fig 4: service functionalities that invoke memory copies",
        &fig4_rows(),
        60,
    );
    out.push_str("net copy share of total cycles:");
    for &id in &ServiceId::CHARACTERIZED {
        let p = profile(id);
        let net = 100.0 * p.memory_op_fraction(accelerometer_fleet::MemoryOp::Copy);
        out.push_str(&format!(" {id}={net:.0}%"));
    }
    out.push('\n');
    out
}

fn fig5_rows() -> Rows {
    let mut rows = breakdown_rows(&ServiceId::CHARACTERIZED, |id| profile(id).kernel_ops);
    if let Some(google) = kernel_breakdown(ReferenceWorkload::Google) {
        rows.push((
            ReferenceWorkload::Google.label().to_owned(),
            google.iter().map(|(c, p)| (c.to_string(), p)).collect(),
        ));
    }
    rows
}

fn fig5() -> String {
    stacked_bars(
        "Fig 5: kernel leaf functions (share of kernel cycles)",
        &fig5_rows(),
        60,
    )
}

fn fig6_rows() -> Rows {
    breakdown_rows(&ServiceId::CHARACTERIZED, |id| profile(id).sync_ops)
}

fn fig6() -> String {
    stacked_bars(
        "Fig 6: synchronization leaf functions (share of sync cycles)",
        &fig6_rows(),
        60,
    )
}

fn fig7_rows() -> Rows {
    breakdown_rows(&ServiceId::CHARACTERIZED, |id| profile(id).clib_ops)
}

fn fig7() -> String {
    stacked_bars(
        "Fig 7: C-library leaf functions (share of C-library cycles)",
        &fig7_rows(),
        60,
    )
}

/// Cache1's IPC series per category, skipping categories without data.
fn ipc_groups<C: Copy + std::fmt::Display>(
    categories: &[C],
    ipc: impl Fn(ServiceId, C) -> Option<IpcScaling>,
) -> Vec<(String, Vec<f64>)> {
    categories
        .iter()
        .filter_map(|&cat| {
            let s = ipc(ServiceId::Cache1, cat)?;
            Some((cat.to_string(), vec![s.gen_a, s.gen_b, s.gen_c]))
        })
        .collect()
}

fn fig8_groups() -> Vec<(String, Vec<f64>)> {
    ipc_groups(&FIG8_CATEGORIES, leaf_ipc_scaling)
}

fn fig8() -> String {
    grouped_bars(
        "Fig 8: Cache1 per-core IPC across CPU generations (leaf categories)",
        &["GenA", "GenB", "GenC"],
        &fig8_groups(),
        2.0,
        40,
    )
}

fn fig9_rows() -> Rows {
    breakdown_rows(&ServiceId::CHARACTERIZED, |id| profile(id).functionality)
}

fn fig9() -> String {
    stacked_bars(
        "Fig 9: cycles in microservice functionalities",
        &fig9_rows(),
        60,
    )
}

fn fig10_groups() -> Vec<(String, Vec<f64>)> {
    ipc_groups(&FIG10_CATEGORIES, functionality_ipc_scaling)
}

fn fig10() -> String {
    grouped_bars(
        "Fig 10: Cache1 per-core IPC across CPU generations (functionalities)",
        &["GenA", "GenB", "GenC"],
        &fig10_groups(),
        1.0,
        40,
    )
}

fn timeline_figure(title: &str, design: ThreadingDesign) -> String {
    use accelerometer::{AccelerationStrategy, OffloadOverheads};
    let spec = accelerometer::timeline::TimelineSpec {
        kernel_cycles: accelerometer::Cycles::new(10_000.0),
        peak_speedup: 10.0,
        overheads: OffloadOverheads::new(300.0, 600.0, 200.0, 500.0),
        design,
        strategy: AccelerationStrategy::OffChip,
        driver: DriverMode::AwaitsAck,
    };
    format!("== {title} ==\n{}", Timeline::build(spec).render_ascii(70))
}

/// Fig. 15's series: the encryption CDF of the `aes-ni` case study.
fn fig15_series() -> Vec<(String, Vec<(f64, f64)>)> {
    case_study("aes-ni")
        .and_then(|study| study.granularity)
        .map(|g| ("Cache1".to_owned(), g.points().to_vec()))
        .into_iter()
        .collect()
}

fn fig15() -> String {
    // Break-even for AES-NI under the case-study context.
    let markers: Vec<(String, f64)> = case_study("aes-ni")
        .map(|study| {
            let ctx = OffloadContext::new(
                study.scenario.params.overheads(),
                study.scenario.params.peak_speedup(),
                study.scenario.design,
                study.scenario.strategy,
            );
            let cost = KernelCost::linear(cycles_per_byte(study.cycles_per_byte));
            let be = throughput_breakeven(&cost, &ctx);
            let marker = be.threshold().map_or(1.0, |b| b.get().max(1.0));
            (format!("min AES-NI g for speedup > 1 ({marker:.1} B)"), marker)
        })
        .into_iter()
        .collect();
    cdf_plot(
        "Fig 15: CDF of bytes encrypted in Cache1",
        &fig15_series(),
        &markers,
        12,
    )
}

/// Reconstructs a functionality breakdown after acceleration: the target
/// category's kernel cycles shrink per the scenario's estimate, overhead
/// cycles land on `overhead_to`, and everything renormalizes to the new
/// (smaller) total — the construction behind Figs. 16–18.
fn accelerated_split(
    service: ServiceId,
    target: FunctionalityCategory,
    alpha: f64,
    scenario: &Scenario,
    overhead_to: FunctionalityCategory,
) -> Vec<(FunctionalityCategory, f64)> {
    let est = scenario.estimate();
    let c = scenario.params.host_cycles().get();
    let n = scenario.params.offloads();
    // Overhead points charged to the host per the throughput path.
    let cs_fraction = est.host_cycles_accelerated.get() / c;
    let accel_on_host = if scenario.design.accelerator_time_on_throughput_path() {
        alpha / scenario.params.peak_speedup()
    } else {
        0.0
    };
    // Total host fraction = (1 - alpha) + accel_on_host + overheads/C.
    let overhead_fraction = cs_fraction - (1.0 - alpha) - accel_on_host;
    debug_assert!(overhead_fraction >= -1e-9, "negative overhead {overhead_fraction}");
    let _ = n;

    let mut points: Vec<(FunctionalityCategory, f64)> = profile(service)
        .functionality
        .iter()
        .collect();
    for (cat, pct) in &mut points {
        if *cat == target {
            *pct -= 100.0 * (alpha - accel_on_host);
        }
        if *cat == overhead_to {
            *pct += 100.0 * overhead_fraction;
        }
    }
    // Renormalize to percentages of the accelerated total.
    let total: f64 = points.iter().map(|(_, p)| p).sum();
    points
        .into_iter()
        .filter(|(_, p)| *p > 0.05)
        .map(|(c2, p)| (c2, p / total * 100.0))
        .collect()
}

fn before_after_rows(
    service: ServiceId,
    labels: (&str, &str),
    after: Vec<(FunctionalityCategory, f64)>,
) -> Rows {
    vec![
        (
            labels.0.to_owned(),
            profile(service)
                .functionality
                .iter()
                .map(|(c, p)| (c.to_string(), p))
                .collect(),
        ),
        (
            labels.1.to_owned(),
            after.into_iter().map(|(c, p)| (c.to_string(), p)).collect(),
        ),
    ]
}

/// Figs. 16–18: the case study's service before and after offloading
/// `target`, or no rows when the loaded data lacks the study.
fn case_study_rows(
    name: &str,
    target: FunctionalityCategory,
    overhead_to: FunctionalityCategory,
    labels: (&str, &str),
) -> Rows {
    let Some(study) = case_study(name) else {
        return Vec::new();
    };
    let after = accelerated_split(
        study.service,
        target,
        study.scenario.params.kernel_fraction(),
        &study.scenario,
        overhead_to,
    );
    before_after_rows(study.service, labels, after)
}

fn fig16_rows() -> Rows {
    case_study_rows(
        "aes-ni",
        FunctionalityCategory::SecureInsecureIo,
        FunctionalityCategory::SecureInsecureIo,
        ("No AES-NI", "AES-NI"),
    )
}

fn fig16() -> String {
    let mut out = stacked_bars(
        "Fig 16: Cache1 functionalities with and without AES-NI",
        &fig16_rows(),
        60,
    );
    if let Some(study) = case_study("aes-ni") {
        let freed = study.scenario.estimate().freed_cycle_fraction(&study.scenario.params);
        out.push_str(&format!("cycles freed by AES-NI: {:.1}%\n", freed * 100.0));
    }
    out
}

fn fig17_rows() -> Rows {
    case_study_rows(
        "encryption",
        FunctionalityCategory::SecureInsecureIo,
        FunctionalityCategory::SecureInsecureIo,
        ("No acc.", "Encryption acc."),
    )
}

fn fig17() -> String {
    stacked_bars(
        "Fig 17: Cache3 functionalities with and without encryption acceleration",
        &fig17_rows(),
        60,
    )
}

fn fig18_rows() -> Rows {
    case_study_rows(
        "inference",
        FunctionalityCategory::PredictionRanking,
        // The extra offload I/O shows up as I/O cycles.
        FunctionalityCategory::SecureInsecureIo,
        ("No Acc.", "Inference Acc."),
    )
}

fn fig18() -> String {
    stacked_bars(
        "Fig 18: Ads1 functionalities with and without remote inference",
        &fig18_rows(),
        60,
    )
}

/// Fig. 19's series: the Feed1 recommendation's compression CDF and
/// Cache1's.
fn fig19_series() -> Vec<(String, Vec<(f64, f64)>)> {
    let feed1 = recommendation(FEED1_COMPRESSION)
        .map(|rec| ("Feed1".to_owned(), rec.profile.granularity.points().to_vec()));
    let cache1 = ("Cache1".to_owned(), cdf::cache1_compression().points().to_vec());
    feed1.into_iter().chain([cache1]).collect()
}

fn fig19() -> String {
    let mut markers = Vec::new();
    if let Some(rec) = recommendation(FEED1_COMPRESSION) {
        for cfg in &rec.configs {
            let ctx = OffloadContext::new(
                cfg.accelerator.overheads,
                cfg.accelerator.peak_speedup,
                cfg.design,
                cfg.accelerator.strategy,
            );
            let g = match throughput_breakeven(&rec.profile.cost, &ctx) {
                BreakEven::AtLeast(b) => b.get().max(1.0),
                BreakEven::Always => 1.0,
                BreakEven::Never => continue,
            };
            markers.push((format!("{} break-even ({g:.0} B)", cfg.label), g));
        }
    }
    cdf_plot(
        "Fig 19: CDF of bytes compressed in Feed1 and Cache1",
        &fig19_series(),
        &markers,
        12,
    )
}

/// Fig. 20's bars: (overhead label, config label, speedup %, latency %).
#[must_use]
pub fn fig20_bars() -> Vec<(String, String, f64, f64)> {
    let mut bars = Vec::new();
    for rec in all_recommendations() {
        bars.push((rec.name.to_owned(), "Ideal".to_owned(), rec.paper_ideal_percent, rec.paper_ideal_percent));
        for cfg in &rec.configs {
            let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy)
                .expect("static recommendation parameters are valid");
            bars.push((
                rec.name.to_owned(),
                cfg.label.to_owned(),
                p.estimate.throughput_gain_percent(),
                p.estimate.latency_gain_percent(),
            ));
        }
    }
    bars
}

fn fig20_json() -> Value {
    json!(fig20_bars()
        .iter()
        .map(|(overhead, config, speedup, latency)| {
            json!({"overhead": overhead, "config": config, "speedup_percent": speedup, "latency_percent": latency})
        })
        .collect::<Vec<_>>())
}

fn fig20() -> String {
    let bars = fig20_bars();
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    let mut series: Vec<String> = Vec::new();
    for (overhead, config, speedup, _) in &bars {
        if !series.contains(config) {
            series.push(config.clone());
        }
        match groups.iter_mut().find(|(name, _)| name == overhead) {
            Some((_, values)) => values.push(*speedup),
            None => groups.push((overhead.clone(), vec![*speedup])),
        }
    }
    let series_refs: Vec<&str> = series.iter().map(String::as_str).collect();
    // Pad groups missing later series (copy/alloc have only Ideal+On-chip).
    for (_, values) in &mut groups {
        while values.len() < series_refs.len() {
            values.push(0.0);
        }
    }
    let mut out = grouped_bars(
        "Fig 20: Accelerometer-projected speedup for key overheads (%)",
        &series_refs,
        &groups,
        20.0,
        40,
    );
    out.push_str("(zero bars = configuration not applicable, shown as NA in the paper)\n");
    out
}

fn copy_cdf_series() -> Vec<(String, Vec<(f64, f64)>)> {
    ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| (id.to_string(), cdf::memory_copy(id).points().to_vec()))
        .collect()
}

fn fig21() -> String {
    cdf_plot(
        "Fig 21: CDF of memory-copy sizes across microservices",
        &copy_cdf_series(),
        &[("Ads1 on-chip break-even (~1 B: all copies lucrative)".to_owned(), 1.0)],
        12,
    )
}

fn alloc_cdf_series() -> Vec<(String, Vec<(f64, f64)>)> {
    ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| (id.to_string(), cdf::memory_allocation(id).points().to_vec()))
        .collect()
}

fn fig22() -> String {
    cdf_plot(
        "Fig 22: CDF of memory-allocation sizes across microservices",
        &alloc_cdf_series(),
        &[("Cache1 on-chip break-even (~1 B: all allocations lucrative)".to_owned(), 1.0)],
        12,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_renders() {
        for id in FIGURE_IDS {
            let text = figure(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(text.contains("=="), "{id} lacks a title");
            assert!(text.len() > 100, "{id} suspiciously short");
        }
        assert!(figure("fig99").is_none());
    }

    #[test]
    fn figure_json_for_data_figures() {
        for id in FIGURE_IDS {
            if matches!(id, "fig11" | "fig12" | "fig13" | "fig14") {
                assert!(figure_json(id).is_none(), "{id} timelines have no JSON");
            } else {
                let value = figure_json(id).unwrap_or_else(|| panic!("{id} missing json"));
                assert!(!value.as_array().unwrap().is_empty(), "{id} empty json");
            }
        }
    }

    #[test]
    fn fig1_shows_web_at_18_percent_core() {
        let rows = fig1_rows();
        let web = &rows[0];
        assert_eq!(web.0, "Web");
        assert_eq!(web.1[0].1, 18.0);
        assert_eq!(web.1[1].1, 82.0);
    }

    #[test]
    fn fig2_includes_reference_workloads() {
        let text = fig2();
        assert!(text.contains("Google [Kanev'15]"));
        assert!(text.contains("473.astar"));
        assert!(text.contains("Cache2"));
    }

    #[test]
    fn fig16_shows_secure_io_shrinking() {
        let rows = fig16_rows();
        let before = rows[0]
            .1
            .iter()
            .find(|(c, _)| c.contains("Secure"))
            .unwrap()
            .1;
        let after = rows[1]
            .1
            .iter()
            .find(|(c, _)| c.contains("Secure"))
            .unwrap()
            .1;
        // §4: AES-NI saves 12.8% of cycles; secure I/O share must shrink
        // markedly even after renormalization.
        assert!(after < before - 8.0, "before {before:.1}% after {after:.1}%");
        // Other categories grow in relative share.
        let app_before = rows[0].1.iter().find(|(c, _)| c.contains("Application")).unwrap().1;
        let app_after = rows[1].1.iter().find(|(c, _)| c.contains("Application")).unwrap().1;
        assert!(app_after > app_before);
    }

    #[test]
    fn fig18_frees_all_inference_cycles() {
        let rows = fig18_rows();
        // After remote offload, the Prediction/Ranking bar disappears.
        assert!(rows[0].1.iter().any(|(c, _)| c.contains("Prediction")));
        assert!(!rows[1].1.iter().any(|(c, _)| c.contains("Prediction")));
        // And I/O grows (extra offload I/O cycles).
        let io_before = rows[0].1.iter().find(|(c, _)| c.contains("Secure")).unwrap().1;
        let io_after = rows[1].1.iter().find(|(c, _)| c.contains("Secure")).unwrap().1;
        assert!(io_after > io_before);
    }

    #[test]
    fn fig20_matches_paper_projections() {
        let bars = fig20_bars();
        let find = |overhead: &str, config: &str| {
            bars.iter()
                .find(|(o, c, _, _)| o.contains(overhead) && c == config)
                .unwrap_or_else(|| panic!("{overhead}/{config} missing"))
        };
        assert!((find("Compression", "On-chip").2 - 13.6).abs() < 0.1);
        assert!((find("Compression", "Off-chip:Sync").2 - 9.0).abs() < 0.3);
        assert!((find("Compression", "Off-chip:Sync-OS").2 - 1.6).abs() < 0.2);
        assert!((find("Compression", "Off-chip:Async").2 - 9.6).abs() < 0.3);
        assert!((find("Memory copy", "On-chip").2 - 12.7).abs() < 0.15);
        assert!((find("Memory allocation", "On-chip").2 - 1.86).abs() < 0.05);
        assert!((find("Compression", "Ideal").2 - 17.6).abs() < 0.1);
    }

    #[test]
    fn fig19_markers_match_section_5() {
        let text = fig19();
        assert!(text.contains("425 B"), "{text}");
        assert!(text.contains("2456 B") || text.contains("2455 B"), "{text}");
        assert!(text.contains("409 B"), "{text}");
    }

    #[test]
    fn timelines_render_three_lanes() {
        for id in ["fig11", "fig12", "fig13", "fig14"] {
            let text = figure(id).unwrap();
            assert!(text.contains("host"));
            assert!(text.contains("accelerator"));
            assert!(text.contains("legend"));
        }
    }
}
