//! Report differencing: the before/after comparison behind Figs. 16–18.
//!
//! §4 presents each case study as a pair of functionality breakdowns —
//! the unaccelerated and accelerated instances — and reads off which
//! categories shrank. This module compares two [`ProfileReport`]s the
//! same way, with the categories ranked by shift.

use std::fmt::Write as _;

use accelerometer_fleet::FunctionalityCategory;

use crate::analyze::ProfileReport;

/// One category's before/after comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffRow {
    /// The functionality category.
    pub category: FunctionalityCategory,
    /// Percent of cycles before.
    pub before_percent: f64,
    /// Percent of cycles after.
    pub after_percent: f64,
}

impl DiffRow {
    /// Percentage-point shift (positive = grew).
    #[must_use]
    pub fn delta_points(&self) -> f64 {
        self.after_percent - self.before_percent
    }

    /// Relative change of the category's share (−1 = vanished).
    #[must_use]
    pub fn relative_change(&self) -> f64 {
        if self.before_percent <= 0.0 {
            if self.after_percent > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.after_percent / self.before_percent - 1.0
        }
    }
}

/// The comparison of two functionality reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    rows: Vec<DiffRow>,
}

impl ReportDiff {
    /// All rows, sorted by absolute shift (largest first).
    #[must_use]
    pub fn rows(&self) -> &[DiffRow] {
        &self.rows
    }

    /// The category that shrank the most (what the acceleration freed).
    #[must_use]
    pub fn biggest_reduction(&self) -> Option<DiffRow> {
        self.rows
            .iter()
            .copied()
            .filter(|r| r.delta_points() < 0.0)
            .min_by(|a, b| a.delta_points().partial_cmp(&b.delta_points()).expect("finite"))
    }

    /// The category that grew the most (where the freed share went).
    #[must_use]
    pub fn biggest_growth(&self) -> Option<DiffRow> {
        self.rows
            .iter()
            .copied()
            .filter(|r| r.delta_points() > 0.0)
            .max_by(|a, b| a.delta_points().partial_cmp(&b.delta_points()).expect("finite"))
    }

    /// Renders the diff as a Fig. 16-style text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("functionality          before   after   delta\n");
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<28} {:>5.1}%  {:>5.1}%  {:+5.1}pp",
                row.category.to_string(),
                row.before_percent,
                row.after_percent,
                row.delta_points()
            );
        }
        out
    }
}

/// Compares the functionality breakdowns of two reports.
#[must_use]
pub fn diff(before: &ProfileReport, after: &ProfileReport) -> ReportDiff {
    let mut rows: Vec<DiffRow> = FunctionalityCategory::ALL
        .iter()
        .filter_map(|&category| {
            let b = before.functionality.percent(category);
            let a = after.functionality.percent(category);
            (b > 0.0 || a > 0.0).then_some(DiffRow {
                category,
                before_percent: b,
                after_percent: a,
            })
        })
        .collect();
    rows.sort_by(|x, y| {
        y.delta_points()
            .abs()
            .partial_cmp(&x.delta_points().abs())
            .expect("finite percentages")
    });
    ReportDiff { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::registry::FunctionRegistry;
    use crate::trace::CallTrace;

    fn report(io: f64, app: f64, logging: f64) -> ProfileReport {
        let registry = FunctionRegistry::with_defaults();
        let traces = vec![
            CallTrace::new(vec!["svc::io::send", "memcpy"], io, io),
            CallTrace::new(vec!["svc::app::serve", "std::sort"], app, app),
            CallTrace::new(vec!["svc::log::write", "memcpy"], logging, logging),
        ];
        analyze(&traces, &registry)
    }

    #[test]
    fn diff_identifies_shrink_and_growth() {
        // Before: IO 50 / app 30 / logging 20. After accelerating IO:
        // IO 20 / app 55 / logging 25.
        let before = report(50.0, 30.0, 20.0);
        let after = report(20.0, 55.0, 25.0);
        let d = diff(&before, &after);
        let reduction = d.biggest_reduction().unwrap();
        assert_eq!(reduction.category, FunctionalityCategory::SecureInsecureIo);
        assert!((reduction.delta_points() + 30.0).abs() < 1e-9);
        assert!((reduction.relative_change() + 0.6).abs() < 1e-9);
        let growth = d.biggest_growth().unwrap();
        assert_eq!(growth.category, FunctionalityCategory::ApplicationLogic);
        // Rows sorted by absolute shift.
        assert_eq!(d.rows()[0].category, FunctionalityCategory::SecureInsecureIo);
    }

    #[test]
    fn identical_reports_diff_to_zero() {
        let a = report(40.0, 40.0, 20.0);
        let d = diff(&a, &a.clone());
        assert!(d.biggest_reduction().is_none());
        assert!(d.biggest_growth().is_none());
        assert!(d.rows().iter().all(|r| r.delta_points().abs() < 1e-12));
    }

    #[test]
    fn vanished_category_has_minus_one_relative_change() {
        let before = report(50.0, 30.0, 20.0);
        // After: logging gone entirely.
        let registry = FunctionRegistry::with_defaults();
        let after = analyze(
            &[
                CallTrace::new(vec!["svc::io::send", "memcpy"], 60.0, 60.0),
                CallTrace::new(vec!["svc::app::serve", "std::sort"], 40.0, 40.0),
            ],
            &registry,
        );
        let d = diff(&before, &after);
        let logging = d
            .rows()
            .iter()
            .find(|r| r.category == FunctionalityCategory::Logging)
            .unwrap();
        assert_eq!(logging.after_percent, 0.0);
        assert!((logging.relative_change() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_tabular() {
        let d = diff(&report(50.0, 30.0, 20.0), &report(20.0, 55.0, 25.0));
        let text = d.render();
        assert!(text.contains("before"));
        assert!(text.contains("pp"));
        assert!(text.lines().count() >= 4);
    }
}
