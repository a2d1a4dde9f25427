//! Terminal rendering: stacked bars, grouped bars, aligned tables, and
//! CDF plots — enough to print every figure of the paper as text.

use std::fmt::Write as _;

/// Cells across a full stacked bar.
const STACKED_WIDTH: usize = 60;
/// Cells a grouped bar at its full-scale value spans.
const GROUPED_WIDTH: usize = 40;
/// Rows of a CDF plot, from 0.0 to 1.0.
const CDF_HEIGHT: usize = 12;

/// Renders a horizontal stacked-bar chart: one row per entity, segments
/// proportional to percentages (summing to ≤100), with a legend.
#[must_use]
pub fn stacked_bars(title: &str, rows: &[(String, Vec<(String, f64)>)]) -> String {
    let width = STACKED_WIDTH;
    let glyphs = ['#', '=', '+', ':', '%', '@', 'o', '*', '.', '-', '~', '^'];
    let mut legend: Vec<String> = Vec::new();
    let mut out = format!("== {title} ==\n");
    let label_width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, segments) in rows {
        let mut bar = String::new();
        for (category, pct) in segments {
            let idx = match legend.iter().position(|c| c == category) {
                Some(i) => i,
                None => {
                    legend.push(category.clone());
                    legend.len() - 1
                }
            };
            let cells = (pct / 100.0 * width as f64).round() as usize;
            for _ in 0..cells {
                bar.push(glyphs[idx % glyphs.len()]);
            }
        }
        let _ = writeln!(out, "{name:>label_width$} |{bar:<width$}|");
    }
    out.push_str("legend:");
    for (i, category) in legend.iter().enumerate() {
        let _ = write!(out, " {}={category}", glyphs[i % glyphs.len()]);
    }
    out.push('\n');
    out
}

/// Renders an aligned text table.
#[must_use]
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let mut header_line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(header_line, "{h:<w$}  ");
    }
    let _ = writeln!(out, "{}", header_line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:<w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Renders a grouped bar chart (e.g. IPC per category per generation):
/// `groups` are (group label, series values); `series` are the series
/// names, one value per series in each group.
#[must_use]
pub fn grouped_bars(
    title: &str,
    series: &[&str],
    groups: &[(String, Vec<f64>)],
    max_value: f64,
) -> String {
    let width = GROUPED_WIDTH;
    let mut out = format!("== {title} ==\n");
    let label_width = groups
        .iter()
        .map(|(n, _)| n.len())
        .chain(series.iter().map(|s| s.len()))
        .max()
        .unwrap_or(0);
    for (group, values) in groups {
        let _ = writeln!(out, "{group}:");
        for (name, value) in series.iter().zip(values) {
            let cells = ((value / max_value) * width as f64).round() as usize;
            let _ = writeln!(
                out,
                "  {name:>label_width$} |{} {value:.2}",
                "#".repeat(cells.min(width))
            );
        }
    }
    out
}

/// Renders one or more CDFs as an ASCII plot over a log-ish byte axis,
/// with optional vertical markers (e.g. break-even granularities).
#[must_use]
pub fn cdf_plot(
    title: &str,
    series: &[(String, Vec<(f64, f64)>)],
    markers: &[(String, f64)],
) -> String {
    let (width, height) = (64usize, CDF_HEIGHT);
    let max_bytes = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(g, _)| *g))
        .fold(1.0_f64, f64::max);
    let x_of = |bytes: f64| -> usize {
        // log scale from 1 byte.
        let frac = (bytes.max(1.0)).ln() / max_bytes.ln();
        ((frac * (width - 1) as f64).round() as usize).min(width - 1)
    };
    let glyphs = ['*', 'o', '+', 'x'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, points)) in series.iter().enumerate() {
        let mut prev: Option<(f64, f64)> = None;
        for &(g, f) in points {
            // Interpolate a few intermediate samples per segment.
            if let Some((g0, f0)) = prev {
                for step in 0..=8 {
                    let t = f64::from(step) / 8.0;
                    let gg = g0 + (g - g0) * t;
                    let ff = f0 + (f - f0) * t;
                    let x = x_of(gg);
                    let y = ((1.0 - ff) * (height - 1) as f64).round() as usize;
                    grid[y.min(height - 1)][x] = glyphs[si % glyphs.len()];
                }
            }
            prev = Some((g, f));
        }
    }
    for (_, bytes) in markers {
        let x = x_of(*bytes);
        for row in &mut grid {
            if row[x] == ' ' {
                row[x] = '|';
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            "1.0"
        } else if i == height - 1 {
            "0.0"
        } else {
            "   "
        };
        let _ = writeln!(out, "{label} {}", row.iter().collect::<String>());
    }
    let _ = writeln!(
        out,
        "    1B{:>width$}",
        format!("{max_bytes:.0}B"),
        width = width - 2
    );
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} = {name}", glyphs[si % glyphs.len()]);
    }
    for (name, bytes) in markers {
        let _ = writeln!(out, "  | at {bytes:.0} B: {name}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacked_bars_render_rows_and_legend() {
        let rows = vec![
            (
                "Web".to_owned(),
                vec![("App".to_owned(), 18.0), ("Orchestration".to_owned(), 82.0)],
            ),
            (
                "Cache1".to_owned(),
                vec![("App".to_owned(), 14.0), ("Orchestration".to_owned(), 86.0)],
            ),
        ];
        let art = stacked_bars("Fig 1", &rows);
        assert!(art.contains("== Fig 1 =="));
        assert!(art.contains("Web"));
        assert!(art.contains("Cache1"));
        assert!(art.contains("legend: #=App ==Orchestration"));
        // Bars fill roughly the width.
        let web_line = art.lines().find(|l| l.contains("Web")).unwrap();
        assert!(web_line.matches('=').count() > 30);
    }

    #[test]
    fn table_aligns_columns() {
        let out = table(
            "Table 1",
            &["Platform", "Cores"],
            &[
                vec!["GenA".into(), "12".into()],
                vec!["GenC-twenty".into(), "20".into()],
            ],
        );
        assert!(out.contains("Platform"));
        let lines: Vec<&str> = out.lines().collect();
        // Header separator present.
        assert!(lines[2].starts_with('-'));
        // Column alignment: "Cores" starts at the same offset in header
        // and rows.
        let header_pos = lines[1].find("Cores").unwrap();
        let row_pos = lines[4].find("20").unwrap();
        assert_eq!(header_pos, row_pos);
    }

    #[test]
    fn grouped_bars_scale_to_max() {
        let out = grouped_bars(
            "Fig 8",
            &["GenA", "GenC"],
            &[("Kernel".to_owned(), vec![0.35, 0.38])],
            2.0,
        );
        assert!(out.contains("Kernel:"));
        assert!(out.contains("0.35"));
        let gena = out.lines().find(|l| l.contains("GenA")).unwrap();
        assert_eq!(gena.matches('#').count(), 7); // 0.35/2*40 = 7
    }

    #[test]
    fn cdf_plot_draws_series_and_markers() {
        let series = vec![(
            "Feed1".to_owned(),
            vec![(1.0, 0.0), (1024.0, 0.5), (65536.0, 1.0)],
        )];
        let markers = vec![("break-even".to_owned(), 425.0)];
        let art = cdf_plot("Fig 19", &series, &markers);
        assert!(art.contains('*'));
        assert!(art.contains('|'));
        assert!(art.contains("break-even"));
        assert!(art.contains("1.0"));
        assert!(art.contains("0.0"));
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        let _ = stacked_bars("t", &[]);
        let _ = table("t", &["a"], &[]);
        let _ = grouped_bars("t", &[], &[], 1.0);
        let _ = cdf_plot("t", &[], &[]);
    }
}
