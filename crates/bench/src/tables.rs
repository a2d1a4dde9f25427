//! Regeneration of every table in the paper (Tables 1–7).

use accelerometer::project;
use accelerometer_fleet::{
    FunctionalityCategory, LeafCategory, ServiceRegistry, ALL_PLATFORMS, FINDINGS,
};
use accelerometer_sim::{validate_all_with, RunContext, SimError};

use crate::render::table;

/// All table identifiers, in paper order.
pub const TABLE_IDS: [&str; 7] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
];

/// Renders one table by identifier from `ctx`'s service data. `table6`
/// runs the simulator's A/B validation (deterministic, seeded) on
/// `ctx.pool`.
///
/// # Errors
///
/// Returns a message for an unknown id, or for a `table6` case study the
/// simulator does not know (loaded service data may rename one).
pub fn render_table_with(ctx: &RunContext, id: &str) -> Result<String, String> {
    Ok(match id {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(),
        "table6" => table6(ctx).map_err(|e| e.to_string())?,
        "table7" => table7(&ctx.registry),
        _ => return Err(format!("unknown table '{id}' (expected table1 .. table7)")),
    })
}

/// [`render_table_with`] on [`RunContext::from_process_defaults`], with
/// `None` for an unknown id or a failed table. Kept because the
/// benchmark harness calls it; the next benchmark change deletes it.
#[must_use]
pub fn render_table(id: &str) -> Option<String> {
    render_table_with(&RunContext::from_process_defaults(), id).ok()
}

fn table1() -> String {
    let rows: Vec<Vec<String>> = ALL_PLATFORMS
        .iter()
        .map(|p| {
            vec![
                p.generation.to_string(),
                p.generation.microarchitecture().to_owned(),
                p.cores_per_socket.to_string(),
                p.smt.to_string(),
                format!("{} B", p.cache_block_bytes),
                format!("{} KiB", p.l1i_kib),
                format!("{} KiB", p.l1d_kib),
                format!("{} KiB", p.l2_kib),
                format!("{:.2} MiB", f64::from(p.llc_kib) / 1024.0),
            ]
        })
        .collect();
    table(
        "Table 1: GenA, GenB, and GenC CPU platforms",
        &[
            "Gen", "uarch", "Cores", "SMT", "Block", "L1-I", "L1-D", "L2", "LLC",
        ],
        &rows,
    )
}

fn table2() -> String {
    let rows: Vec<Vec<String>> = LeafCategory::ALL
        .iter()
        .map(|c| vec![c.label().to_owned(), c.examples().to_owned()])
        .collect();
    table(
        "Table 2: categorization of leaf functions",
        &["Leaf category", "Examples"],
        &rows,
    )
}

fn table3() -> String {
    let rows: Vec<Vec<String>> = FunctionalityCategory::ALL
        .iter()
        .map(|c| vec![c.label().to_owned(), c.examples().to_owned()])
        .collect();
    table(
        "Table 3: categorization of microservice functionalities",
        &["Functionality category", "Examples"],
        &rows,
    )
}

fn table4() -> String {
    let rows: Vec<Vec<String>> = FINDINGS
        .iter()
        .map(|f| {
            vec![
                format!("{} ({})", f.finding, f.sections),
                f.opportunity.to_owned(),
            ]
        })
        .collect();
    table(
        "Table 4: summary of findings and suggested optimizations",
        &["Finding", "Acceleration opportunity"],
        &rows,
    )
}

fn table5() -> String {
    let rows = [
        ("C", "Total cycles spent by the host to execute all logic in a fixed time unit", "Cycles"),
        ("g", "Size of an offload", "Bytes"),
        ("n", "Number of times the host offloads a kernel of lucrative size in a fixed time unit", "-"),
        ("o0", "Cycles the host spends in setting up the kernel prior to a single offload", "Cycles"),
        ("Q", "Avg. cycles spent in queuing between host and accelerator for a single offload", "Cycles"),
        ("L", "Avg. cycles to move an offload from host to accelerator across the interface", "Cycles"),
        ("o1", "Cycles spent in switching threads for a single offload", "Cycles"),
        ("A", "Peak speedup of an accelerator", "-"),
        ("alpha", "A constant <= 1: the kernel's fraction of host cycles", "-"),
        ("Cb", "Cycles spent by the host per byte of offload data", "Cycles"),
    ];
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(s, d, u)| vec![(*s).to_owned(), (*d).to_owned(), (*u).to_owned()])
        .collect();
    table(
        "Table 5: Accelerometer model parameters",
        &["Symbol", "Description", "Units"],
        &rows,
    )
}

fn table6(ctx: &RunContext) -> Result<String, SimError> {
    let mut rows = Vec::new();
    let studies = ctx.registry.case_studies();
    let validations = validate_all_with(&ctx.pool, &studies, 20_260_706)?;
    for (study, validation) in studies.iter().zip(&validations) {
        let p = &study.scenario.params;
        let ovh = p.overheads();
        rows.push(vec![
            study.name.to_owned(),
            format!("{:.1e}", p.host_cycles().get()),
            format!("{:.6}", p.kernel_fraction()),
            format!("{}", p.offloads()),
            format!("{}", ovh.setup.get()),
            format!("{}", ovh.queueing.get()),
            format!("{}", ovh.interface.get()),
            format!("{}", ovh.thread_switch.get()),
            format!("{}", p.peak_speedup()),
            format!("{:.2}%", validation.model_estimate_percent),
            format!("{:.2}%", validation.simulated_percent),
            format!("{:.1}% / {:.2}%", study.paper_estimated_percent, study.paper_real_percent),
        ]);
    }
    let mut out = table(
        "Table 6: case-study parameters, model estimates, and measured speedups",
        &[
            "Case", "C", "alpha", "n", "o0", "Q", "L", "o1", "A", "Est.", "Simulated",
            "Paper est./real",
        ],
        &rows,
    );
    let max_err = validations
        .iter()
        .map(|v| v.model_vs_simulated_points())
        .fold(0.0, f64::max);
    out.push_str(&format!(
        "max model-vs-simulated error: {max_err:.2} points (paper: <= 3.7)\n"
    ));
    Ok(out)
}

fn table7(reg: &ServiceRegistry) -> String {
    let mut rows = Vec::new();
    for rec in reg.recommendations() {
        for cfg in &rec.configs {
            let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy)
                .expect("static parameters are valid");
            let ovh = cfg.accelerator.overheads;
            rows.push(vec![
                rec.name.to_owned(),
                cfg.label.to_owned(),
                format!("{:.1e}", rec.profile.total_cycles.get()),
                format!("{:.4}", p.selection.alpha),
                format!("{:.0}", p.selection.offloads),
                format!("{}", ovh.interface.get()),
                format!("{}", ovh.thread_switch.get()),
                format!("{}", cfg.accelerator.peak_speedup),
                format!("{:.2}%", p.estimate.throughput_gain_percent()),
                format!("{:.1}%", cfg.paper_speedup_percent),
            ]);
        }
    }
    table(
        "Table 7: parameters for the Section 5 acceleration recommendations",
        &[
            "Overhead", "Acceleration", "C", "eff. alpha", "n", "L", "o1", "A", "Projected",
            "Paper",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_renders() {
        // table6 runs the simulator; keep it out of the cheap loop.
        for id in TABLE_IDS.iter().filter(|id| **id != "table6") {
            let text = render_table(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(text.contains("=="), "{id} lacks a title");
            assert!(text.lines().count() > 4, "{id} too short");
        }
        assert!(render_table("table99").is_none());
    }

    #[test]
    fn table1_lists_both_skylakes() {
        let text = table1();
        assert!(text.contains("18"));
        assert!(text.contains("20"));
        assert!(text.contains("Haswell"));
        assert!(text.contains("24.75 MiB"));
    }

    #[test]
    fn table4_has_all_findings() {
        let text = table4();
        for f in FINDINGS {
            assert!(text.contains(f.opportunity), "{} missing", f.id);
        }
    }

    #[test]
    fn table7_reports_lucrative_counts() {
        let text = table7(&ServiceRegistry::builtin());
        // §5's lucrative offload counts appear.
        assert!(text.contains("15008"));
        // The off-chip Sync lucrative count lands within interpolation
        // error of the paper's 9,629.
        let n: f64 = text
            .lines()
            .find(|l| l.contains("Off-chip:Sync ") || l.contains("Off-chip:Sync  "))
            .and_then(|l| l.split_whitespace().find(|t| t.starts_with("96")))
            .and_then(|t| t.parse().ok())
            .expect("sync row present");
        assert!((n - 9_629.0).abs() < 60.0, "n = {n}");
    }

    #[test]
    fn table6_runs_the_ab_validation() {
        let text = table6(&RunContext::from_process_defaults()).expect("builtin studies");
        assert!(text.contains("aes-ni"));
        assert!(text.contains("inference"));
        assert!(text.contains("max model-vs-simulated error"));
    }
}
