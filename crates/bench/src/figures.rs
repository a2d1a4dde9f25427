//! Regeneration of every figure in the paper (Figs. 1–22), plus the
//! extra `design-space` heatmap.
//!
//! `FIGURES` declares each figure once: its id, its title, a function
//! that builds its data as a `Plot` from the run's service registry, and
//! an optional footer. [`figure_with`] draws a row's plot as text and
//! [`figure_json`] serializes the same value, so the text and the JSON
//! read one dataset; a new figure is one `FIGURES` row. Every service
//! dataset is read from the run context's registry, so `--services`
//! reaches every figure; a series the loaded data lacks is left out of
//! the plot.

use std::fmt::Display;

use accelerometer::units::cycles_per_byte;
use accelerometer::{
    project, throughput_breakeven, BreakEven, KernelCost, OffloadContext, ThreadingDesign,
    Timeline, TimelineSpec,
};
use accelerometer_fleet::ipc::{IpcScaling, FIG10_CATEGORIES, FIG8_CATEGORIES};
use accelerometer_fleet::reference::{
    kernel_breakdown, leaf_breakdown, memory_breakdown, ReferenceWorkload,
};
use accelerometer_fleet::{
    cdf, Breakdown, FunctionalityCategory, LeafCategory, MemoryOp, ServiceId, ServiceProfile,
    ServiceRegistry, ServiceSpec,
};
use accelerometer_sim::RunContext;
use serde_json::{json, Value};

use crate::render::{cdf_plot, grouped_bars, stacked_bars};

/// The §5 recommendation whose compression CDF and break-evens Fig. 19
/// plots.
const FEED1_COMPRESSION: &str = "Feed1: Compression";

/// The CPU generations the IPC figures (Figs. 8 and 10) compare.
const GENERATIONS: [&str; 3] = ["GenA", "GenB", "GenC"];

type Rows = Vec<(String, Vec<(String, f64)>)>;
type Series = Vec<(String, Vec<(f64, f64)>)>;

/// A figure's data, in the shape its chart draws.
enum Plot {
    /// Stacked bars: one row per entity, its segments in percent.
    Bars(Rows),
    /// Cache1's IPC per category on each of the [`GENERATIONS`], drawn
    /// against a full-scale value.
    Ipc(Vec<(String, Vec<f64>)>, f64),
    /// CDFs over bytes, and the break-even markers drawn over them (the
    /// JSON carries the series only).
    Cdf(Series, Vec<(String, f64)>),
    /// Fig. 20's bars: (overhead, configuration, speedup %, latency %).
    Projection(Vec<(String, String, f64, f64)>),
    /// The demo offload's timeline under a design (text only).
    Timeline(ThreadingDesign),
    /// The A × L heatmaps, evaluated on the run's pool (text only).
    DesignSpace,
}

/// One figure: the one place its id and title are written.
struct Figure {
    id: &'static str,
    title: &'static str,
    plot: fn(&ServiceRegistry) -> Plot,
    /// Text printed under the chart, outside the JSON series.
    footer: Option<fn(&ServiceRegistry) -> String>,
}

/// Every figure in paper order, then the extra `design-space`.
const FIGURES: &[Figure] = &[
    Figure {
        id: "fig1",
        title: "Fig 1: cycles in core application logic vs orchestration",
        plot: |reg| Plot::Bars(fig1_rows(reg)),
        footer: None,
    },
    Figure {
        id: "fig2",
        title: "Fig 2: cycles in leaf-function categories",
        plot: |reg| {
            let rows = service_rows(reg, |p| &p.leaves);
            Plot::Bars(with_references(rows, |w| Some(leaf_breakdown(w))))
        },
        footer: None,
    },
    Figure {
        id: "fig3",
        title: "Fig 3: memory leaf functions (share of memory cycles)",
        plot: |reg| {
            let rows = service_rows(reg, |p| &p.memory_ops);
            Plot::Bars(with_references(rows, |w| Some(memory_breakdown(w))))
        },
        footer: Some(|reg| {
            net_shares(reg, "net memory share of total cycles:", |p| {
                p.leaves.percent(LeafCategory::Memory)
            })
        }),
    },
    Figure {
        id: "fig4",
        title: "Fig 4: service functionalities that invoke memory copies",
        plot: |reg| Plot::Bars(service_rows(reg, |p| &p.copy_origins)),
        footer: Some(|reg| {
            net_shares(reg, "net copy share of total cycles:", |p| {
                100.0 * p.memory_op_fraction(MemoryOp::Copy)
            })
        }),
    },
    Figure {
        id: "fig5",
        title: "Fig 5: kernel leaf functions (share of kernel cycles)",
        plot: |reg| {
            Plot::Bars(with_references(
                service_rows(reg, |p| &p.kernel_ops),
                kernel_breakdown,
            ))
        },
        footer: None,
    },
    Figure {
        id: "fig6",
        title: "Fig 6: synchronization leaf functions (share of sync cycles)",
        plot: |reg| Plot::Bars(service_rows(reg, |p| &p.sync_ops)),
        footer: None,
    },
    Figure {
        id: "fig7",
        title: "Fig 7: C-library leaf functions (share of C-library cycles)",
        plot: |reg| Plot::Bars(service_rows(reg, |p| &p.clib_ops)),
        footer: None,
    },
    Figure {
        id: "fig8",
        title: "Fig 8: Cache1 per-core IPC across CPU generations (leaf categories)",
        plot: |reg| {
            Plot::Ipc(
                ipc_groups(&FIG8_CATEGORIES, |c| reg.leaf_ipc(ServiceId::Cache1, c)),
                2.0,
            )
        },
        footer: None,
    },
    Figure {
        id: "fig9",
        title: "Fig 9: cycles in microservice functionalities",
        plot: |reg| Plot::Bars(service_rows(reg, |p| &p.functionality)),
        footer: None,
    },
    Figure {
        id: "fig10",
        title: "Fig 10: Cache1 per-core IPC across CPU generations (functionalities)",
        plot: |reg| {
            let groups = ipc_groups(&FIG10_CATEGORIES, |c| {
                reg.functionality_ipc(ServiceId::Cache1, c)
            });
            Plot::Ipc(groups, 1.0)
        },
        footer: None,
    },
    Figure {
        id: "fig11",
        title: "Fig 11: example timeline of host & accelerator (one offload)",
        plot: |_| Plot::Timeline(ThreadingDesign::SyncOs),
        footer: None,
    },
    Figure {
        id: "fig12",
        title: "Fig 12: Sync offload timeline",
        plot: |_| Plot::Timeline(ThreadingDesign::Sync),
        footer: None,
    },
    Figure {
        id: "fig13",
        title: "Fig 13: Sync-OS offload timeline",
        plot: |_| Plot::Timeline(ThreadingDesign::SyncOs),
        footer: None,
    },
    Figure {
        id: "fig14",
        title: "Fig 14: Async offload timeline",
        plot: |_| Plot::Timeline(ThreadingDesign::AsyncSameThread),
        footer: None,
    },
    Figure {
        id: "fig15",
        title: "Fig 15: CDF of bytes encrypted in Cache1",
        plot: fig15_plot,
        footer: None,
    },
    Figure {
        id: "fig16",
        title: "Fig 16: Cache1 functionalities with and without AES-NI",
        plot: |reg| {
            let io = FunctionalityCategory::SecureInsecureIo;
            Plot::Bars(case_study_rows(
                reg,
                "aes-ni",
                io,
                io,
                ("No AES-NI", "AES-NI"),
            ))
        },
        footer: Some(|reg| {
            reg.case_study("aes-ni").map_or_else(String::new, |study| {
                let freed = study
                    .scenario
                    .estimate()
                    .freed_cycle_fraction(&study.scenario.params);
                format!("cycles freed by AES-NI: {:.1}%\n", freed * 100.0)
            })
        }),
    },
    Figure {
        id: "fig17",
        title: "Fig 17: Cache3 functionalities with and without encryption acceleration",
        plot: |reg| {
            let io = FunctionalityCategory::SecureInsecureIo;
            Plot::Bars(case_study_rows(
                reg,
                "encryption",
                io,
                io,
                ("No acc.", "Encryption acc."),
            ))
        },
        footer: None,
    },
    Figure {
        id: "fig18",
        title: "Fig 18: Ads1 functionalities with and without remote inference",
        plot: |reg| {
            Plot::Bars(case_study_rows(
                reg,
                "inference",
                FunctionalityCategory::PredictionRanking,
                // The extra offload I/O shows up as I/O cycles.
                FunctionalityCategory::SecureInsecureIo,
                ("No Acc.", "Inference Acc."),
            ))
        },
        footer: None,
    },
    Figure {
        id: "fig19",
        title: "Fig 19: CDF of bytes compressed in Feed1 and Cache1",
        plot: fig19_plot,
        footer: None,
    },
    Figure {
        id: "fig20",
        title: "Fig 20: Accelerometer-projected speedup for key overheads (%)",
        plot: |reg| Plot::Projection(fig20_bars(reg)),
        footer: Some(|_| {
            "(zero bars = configuration not applicable, shown as NA in the paper)\n".to_owned()
        }),
    },
    Figure {
        id: "fig21",
        title: "Fig 21: CDF of memory-copy sizes across microservices",
        plot: |reg| {
            let marker = "Ads1 on-chip break-even (~1 B: all copies lucrative)";
            Plot::Cdf(
                service_cdfs(reg, |s| s.copy_granularity.points()),
                vec![(marker.to_owned(), 1.0)],
            )
        },
        footer: None,
    },
    Figure {
        id: "fig22",
        title: "Fig 22: CDF of memory-allocation sizes across microservices",
        plot: |reg| {
            let marker = "Cache1 on-chip break-even (~1 B: all allocations lucrative)";
            let series = service_cdfs(reg, |s| s.allocation_granularity.points());
            Plot::Cdf(series, vec![(marker.to_owned(), 1.0)])
        },
        footer: None,
    },
    Figure {
        id: "design-space",
        title: "Design space",
        plot: |_| Plot::DesignSpace,
        footer: None,
    },
];

/// All paper figure identifiers, in paper order: every `FIGURES` row but
/// the extra `design-space`.
pub const FIGURE_IDS: [&str; 22] = {
    assert!(
        FIGURES.len() == 23,
        "FIGURES is the 22 paper figures, then design-space"
    );
    let mut ids = [""; 22];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = FIGURES[i].id;
        i += 1;
    }
    ids
};

/// Renders one figure by identifier (`"fig1"`–`"fig22"`, or the extra
/// `"design-space"`) from `ctx`'s service data.
#[must_use]
pub fn figure_with(ctx: &RunContext, id: &str) -> Option<String> {
    let figure = find(id)?;
    let reg = &*ctx.registry;
    let title = figure.title;
    let mut out = match (figure.plot)(reg) {
        Plot::Bars(rows) => stacked_bars(title, &rows),
        Plot::Ipc(groups, full_scale) => grouped_bars(title, &GENERATIONS, &groups, full_scale),
        Plot::Cdf(series, markers) => cdf_plot(title, &series, &markers),
        Plot::Projection(bars) => projection_chart(title, &bars),
        Plot::Timeline(design) => {
            let timeline = Timeline::build(TimelineSpec::demo(design));
            format!("== {title} ==\n{}", timeline.render_ascii(70))
        }
        Plot::DesignSpace => crate::design_space::figure(&ctx.pool, title),
    };
    if let Some(footer) = figure.footer {
        out.push_str(&footer(reg));
    }
    Some(out)
}

/// [`figure_with`] on [`RunContext::from_process_defaults`]. Kept because
/// the benchmark harness calls it; the next benchmark change deletes it.
#[must_use]
pub fn figure(id: &str) -> Option<String> {
    figure_with(&RunContext::from_process_defaults(), id)
}

/// The underlying series of a figure as JSON (for external plotting),
/// from `ctx`'s service data. Timeline figures and the design space have
/// none.
#[must_use]
pub fn figure_json(ctx: &RunContext, id: &str) -> Option<Value> {
    let items: Vec<Value> = match (find(id)?.plot)(&ctx.registry) {
        Plot::Bars(rows) => rows
            .iter()
            .map(|(name, segments)| {
                let segments: Vec<Value> = segments
                    .iter()
                    .map(|(c, p)| json!({"category": c, "percent": p}))
                    .collect();
                json!({"name": name, "segments": segments})
            })
            .collect(),
        Plot::Ipc(groups, _) => groups
            .iter()
            .map(|(name, v)| json!({"category": name, "gen_a": v[0], "gen_b": v[1], "gen_c": v[2]}))
            .collect(),
        Plot::Cdf(series, _) => series
            .iter()
            .map(|(name, points)| json!({"series": name, "points": points}))
            .collect(),
        Plot::Projection(bars) => bars
            .iter()
            .map(|(overhead, config, speedup, latency)| {
                json!({"overhead": overhead, "config": config, "speedup_percent": speedup, "latency_percent": latency})
            })
            .collect(),
        Plot::Timeline(_) | Plot::DesignSpace => return None,
    };
    Some(json!(items))
}

fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|figure| figure.id == id)
}

fn segments<C: Copy + PartialEq + Display>(breakdown: &Breakdown<C>) -> Vec<(String, f64)> {
    breakdown.iter().map(|(c, p)| (c.to_string(), p)).collect()
}

/// One row per characterized service: the breakdown `get` picks from its
/// profile.
fn service_rows<C: Copy + PartialEq + Display>(
    reg: &ServiceRegistry,
    get: impl Fn(&ServiceProfile) -> &Breakdown<C>,
) -> Rows {
    ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| (id.to_string(), segments(get(&reg.spec(id).profile))))
        .collect()
}

/// `rows`, then one row per reference workload that `reference` covers.
fn with_references<C: Copy + PartialEq + Display>(
    mut rows: Rows,
    reference: impl Fn(ReferenceWorkload) -> Option<Breakdown<C>>,
) -> Rows {
    for workload in ReferenceWorkload::ALL {
        if let Some(breakdown) = reference(workload) {
            rows.push((workload.label().to_owned(), segments(&breakdown)));
        }
    }
    rows
}

fn fig1_rows(reg: &ServiceRegistry) -> Rows {
    ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| {
            let p = &reg.spec(id).profile;
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

/// `label`, then each characterized service's `share` of its total
/// cycles.
fn net_shares(
    reg: &ServiceRegistry,
    label: &str,
    share: impl Fn(&ServiceProfile) -> f64,
) -> String {
    let mut out = label.to_owned();
    for &id in &ServiceId::CHARACTERIZED {
        out.push_str(&format!(" {id}={:.0}%", share(&reg.spec(id).profile)));
    }
    out.push('\n');
    out
}

/// Cache1's IPC series per category, skipping categories without data.
fn ipc_groups<C: Copy + Display>(
    categories: &[C],
    ipc: impl Fn(C) -> Option<IpcScaling>,
) -> Vec<(String, Vec<f64>)> {
    categories
        .iter()
        .filter_map(|&cat| {
            let s = ipc(cat)?;
            Some((cat.to_string(), vec![s.gen_a, s.gen_b, s.gen_c]))
        })
        .collect()
}

/// Fig. 15: the `aes-ni` case study's encryption CDF, marked at the
/// smallest offload AES-NI speeds up under the study's context.
fn fig15_plot(reg: &ServiceRegistry) -> Plot {
    let Some(study) = reg.case_study("aes-ni") else {
        return Plot::Cdf(Vec::new(), Vec::new());
    };
    let scenario = &study.scenario;
    let ctx = OffloadContext::new(
        scenario.params.overheads(),
        scenario.params.peak_speedup(),
        scenario.design,
        scenario.strategy,
    );
    let cost = KernelCost::linear(cycles_per_byte(study.cycles_per_byte));
    let be = throughput_breakeven(&cost, &ctx);
    let marker = be.threshold().map_or(1.0, |b| b.get().max(1.0));
    let series = study
        .granularity
        .map(|g| ("Cache1".to_owned(), g.points().to_vec()));
    Plot::Cdf(
        series.into_iter().collect(),
        vec![(
            format!("min AES-NI g for speedup > 1 ({marker:.1} B)"),
            marker,
        )],
    )
}

/// Figs. 16–18: the case study's service before and after offloading
/// `target`, or no rows when the loaded data lacks the study. The
/// target's kernel cycles shrink per the scenario's estimate, overhead
/// cycles land on `overhead_to`, and everything renormalizes to the new
/// (smaller) total.
fn case_study_rows(
    reg: &ServiceRegistry,
    name: &str,
    target: FunctionalityCategory,
    overhead_to: FunctionalityCategory,
    labels: (&str, &str),
) -> Rows {
    let Some(study) = reg.case_study(name) else {
        return Vec::new();
    };
    let scenario = &study.scenario;
    let alpha = scenario.params.kernel_fraction();
    let est = scenario.estimate();
    let c = scenario.params.host_cycles().get();
    // Overhead points charged to the host per the throughput path.
    let cs_fraction = est.host_cycles_accelerated.get() / c;
    let accel_on_host = if scenario.design.accelerator_time_on_throughput_path() {
        alpha / scenario.params.peak_speedup()
    } else {
        0.0
    };
    // Total host fraction = (1 - alpha) + accel_on_host + overheads/C.
    let overhead_fraction = cs_fraction - (1.0 - alpha) - accel_on_host;
    debug_assert!(
        overhead_fraction >= -1e-9,
        "negative overhead {overhead_fraction}"
    );

    let before = &reg.spec(study.service).profile.functionality;
    let mut after: Vec<(FunctionalityCategory, f64)> = before.iter().collect();
    for (cat, pct) in &mut after {
        if *cat == target {
            *pct -= 100.0 * (alpha - accel_on_host);
        }
        if *cat == overhead_to {
            *pct += 100.0 * overhead_fraction;
        }
    }
    // Renormalize to percentages of the accelerated total.
    let total: f64 = after.iter().map(|(_, p)| p).sum();
    let after = after
        .into_iter()
        .filter(|(_, p)| *p > 0.05)
        .map(|(cat, p)| (cat.to_string(), p / total * 100.0))
        .collect();
    vec![
        (labels.0.to_owned(), segments(before)),
        (labels.1.to_owned(), after),
    ]
}

/// Fig. 19: the Feed1 recommendation's compression CDF and Cache1's,
/// marked at each Feed1 configuration's break-even.
fn fig19_plot(reg: &ServiceRegistry) -> Plot {
    let mut series = Vec::new();
    let mut markers = Vec::new();
    if let Some(rec) = reg.recommendation(FEED1_COMPRESSION) {
        series.push((
            "Feed1".to_owned(),
            rec.profile.granularity.points().to_vec(),
        ));
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
    series.push((
        "Cache1".to_owned(),
        cdf::cache1_compression().points().to_vec(),
    ));
    Plot::Cdf(series, markers)
}

/// Fig. 20's bars: (overhead label, config label, speedup %, latency %).
fn fig20_bars(reg: &ServiceRegistry) -> Vec<(String, String, f64, f64)> {
    let mut bars = Vec::new();
    for rec in reg.recommendations() {
        bars.push((
            rec.name.to_owned(),
            "Ideal".to_owned(),
            rec.paper_ideal_percent,
            rec.paper_ideal_percent,
        ));
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

/// Fig. 20's speedups grouped by overhead, one bar per configuration in
/// first-seen order; an overhead with fewer configurations (copy and
/// allocation have only Ideal and On-chip) draws zero bars for the rest.
fn projection_chart(title: &str, bars: &[(String, String, f64, f64)]) -> String {
    let mut series: Vec<&str> = Vec::new();
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    for (overhead, config, speedup, _) in bars {
        if !series.contains(&config.as_str()) {
            series.push(config);
        }
        match groups.iter_mut().find(|(name, _)| name == overhead) {
            Some((_, values)) => values.push(*speedup),
            None => groups.push((overhead.clone(), vec![*speedup])),
        }
    }
    for (_, values) in &mut groups {
        values.resize(values.len().max(series.len()), 0.0);
    }
    grouped_bars(title, &series, &groups, 20.0)
}

/// One CDF per characterized service: the granularity `points` picks
/// from its spec.
fn service_cdfs(reg: &ServiceRegistry, points: impl Fn(&ServiceSpec) -> &[(f64, f64)]) -> Series {
    ServiceId::CHARACTERIZED
        .iter()
        .map(|&id| (id.to_string(), points(reg.spec(id)).to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RunContext {
        RunContext::from_process_defaults()
    }

    /// A stacked-bar figure's rows, as its `FIGURES` row builds them.
    fn rows(id: &str) -> Rows {
        match (find(id).unwrap().plot)(&ServiceRegistry::builtin()) {
            Plot::Bars(rows) => rows,
            _ => panic!("{id} is not a stacked-bar figure"),
        }
    }

    #[test]
    fn ids_are_the_table_rows_and_unique() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids[..22], FIGURE_IDS);
        assert_eq!(ids[22], "design-space");
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i]
                .iter()
                .all(|f| f.id != figure.id && f.title != figure.title));
        }
    }

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
        let ctx = ctx();
        for figure in FIGURES {
            let id = figure.id;
            let text_only = matches!(
                (figure.plot)(&ctx.registry),
                Plot::Timeline(_) | Plot::DesignSpace
            );
            match figure_json(&ctx, id) {
                None => assert!(text_only, "{id} missing json"),
                Some(value) => {
                    assert!(!text_only, "{id} is text-only");
                    assert!(!value.as_array().unwrap().is_empty(), "{id} empty json");
                }
            }
        }
        assert!(figure_json(&ctx, "fig99").is_none());
    }

    #[test]
    fn fig1_shows_web_at_18_percent_core() {
        let rows = rows("fig1");
        let web = &rows[0];
        assert_eq!(web.0, "Web");
        assert_eq!(web.1[0].1, 18.0);
        assert_eq!(web.1[1].1, 82.0);
    }

    #[test]
    fn fig2_includes_reference_workloads() {
        let text = figure("fig2").unwrap();
        assert!(text.contains("Google [Kanev'15]"));
        assert!(text.contains("473.astar"));
        assert!(text.contains("Cache2"));
    }

    #[test]
    fn fig16_shows_secure_io_shrinking() {
        let rows = rows("fig16");
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
        assert!(
            after < before - 8.0,
            "before {before:.1}% after {after:.1}%"
        );
        // Other categories grow in relative share.
        let app_before = rows[0]
            .1
            .iter()
            .find(|(c, _)| c.contains("Application"))
            .unwrap()
            .1;
        let app_after = rows[1]
            .1
            .iter()
            .find(|(c, _)| c.contains("Application"))
            .unwrap()
            .1;
        assert!(app_after > app_before);
    }

    #[test]
    fn fig18_frees_all_inference_cycles() {
        let rows = rows("fig18");
        // After remote offload, the Prediction/Ranking bar disappears.
        assert!(rows[0].1.iter().any(|(c, _)| c.contains("Prediction")));
        assert!(!rows[1].1.iter().any(|(c, _)| c.contains("Prediction")));
        // And I/O grows (extra offload I/O cycles).
        let io_before = rows[0]
            .1
            .iter()
            .find(|(c, _)| c.contains("Secure"))
            .unwrap()
            .1;
        let io_after = rows[1]
            .1
            .iter()
            .find(|(c, _)| c.contains("Secure"))
            .unwrap()
            .1;
        assert!(io_after > io_before);
    }

    #[test]
    fn fig20_matches_paper_projections() {
        let bars = fig20_bars(&ServiceRegistry::builtin());
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
        let text = figure("fig19").unwrap();
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
