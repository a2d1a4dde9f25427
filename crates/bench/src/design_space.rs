//! An extra (non-paper) figure: the A × L design space as an ASCII
//! heatmap — where in (peak speedup, interface latency) space an
//! accelerator for a given kernel pays off, per threading design.
//!
//! This is the capacity-planning view §3's "trade-offs between various
//! acceleration strategies" paragraph gestures at: every candidate
//! device is a point in this plane; the heatmap shows its iso-speedup
//! region before anyone tapes anything out.

use accelerometer::exec::ExecPool;
use accelerometer::sweep::log_space;
use accelerometer::{estimate, AccelerationStrategy, DriverMode, ModelParams, ThreadingDesign};

/// The kernel the heatmaps evaluate: `ALPHA` of `C` host cycles,
/// offloaded `N` times.
const C: f64 = 2.3e9;
const ALPHA: f64 = 0.15;
const N: f64 = 15_008.0;

/// Evaluates the A × L grid for the `C`/`ALPHA`/`N` kernel under
/// `design`, on `pool`: the projected throughput gain in percent
/// (negative = slowdown) per `a_values` row and `l_values` column.
fn grid(
    pool: &ExecPool,
    design: ThreadingDesign,
    a_values: &[f64],
    l_values: &[f64],
) -> Vec<Vec<f64>> {
    // One pool job per grid row: each cell is a pure model evaluation, so
    // rows parallelize freely and land in `a_values` order.
    pool.map(a_values, |_, &a| {
        l_values
            .iter()
            .map(|&l| {
                let params = ModelParams::builder()
                    .host_cycles(C)
                    .kernel_fraction(ALPHA)
                    .offloads(N)
                    .interface_cycles(l)
                    .thread_switch_cycles(2_000.0)
                    .peak_speedup(a)
                    .build()
                    .expect("grid parameters are valid");
                estimate(
                    &params,
                    design,
                    AccelerationStrategy::OffChip,
                    DriverMode::AwaitsAck,
                )
                .throughput_gain_percent()
            })
            .collect()
    })
}

fn glyph(gain: f64, ideal: f64) -> char {
    // Fraction of the ideal gain realized.
    let fraction = gain / ideal;
    match fraction {
        f if f < 0.0 => 'x', // slowdown
        f if f < 0.25 => '.',
        f if f < 0.5 => '-',
        f if f < 0.75 => '=',
        f if f < 0.9 => '#',
        _ => '@',
    }
}

/// Renders the design space of the `C`/`ALPHA`/`N` kernel under one
/// threading design, evaluating the grid on `pool`.
fn render(pool: &ExecPool, title: &str, design: ThreadingDesign) -> String {
    use std::fmt::Write as _;
    let a_values: Vec<f64> = log_space(1.5, 96.0, 13);
    let l_values: Vec<f64> = log_space(10.0, 1_000_000.0, 46);
    let cells = grid(pool, design, &a_values, &l_values);
    let ideal = (1.0 / (1.0 - ALPHA) - 1.0) * 100.0;

    let mut out = format!(
        "== {title}: {design} offload of a {:.0}% kernel, n = {N:.0} (ideal {ideal:+.1}%) ==\n",
        ALPHA * 100.0
    );
    let _ = writeln!(out, "{:>7}   10 cycles -> 1M cycles (log)", "A \\ L");
    for (row, &a) in cells.iter().zip(&a_values).rev() {
        let line: String = row.iter().map(|&gain| glyph(gain, ideal)).collect();
        let _ = writeln!(out, "{a:>7.1}  |{line}|");
    }
    let _ = writeln!(
        out,
        "legend: @ >=90% of ideal  # >=75%  = >=50%  - >=25%  . <25%  x slowdown"
    );
    out
}

/// The `design-space` figure: the heatmap for a 15% kernel offloaded
/// 15,008 times per 2.3e9 host cycles, under the Sync, Sync-OS and
/// Async designs, each headed by `title`.
#[must_use]
pub fn figure(pool: &ExecPool, title: &str) -> String {
    [
        ThreadingDesign::Sync,
        ThreadingDesign::SyncOs,
        ThreadingDesign::AsyncNoResponse,
    ]
    .map(|design| render(pool, title, design))
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ThreadingDesign as D;

    fn pool() -> ExecPool {
        ExecPool::new(2)
    }

    #[test]
    fn gain_is_monotone_in_the_grid() {
        let a_values = [2.0, 8.0, 32.0];
        let l_values = [100.0, 10_000.0, 1_000_000.0];
        let cells = grid(&pool(), D::Sync, &a_values, &l_values);
        // Rows: fixed A, gain falls with L.
        for row in &cells {
            for pair in row.windows(2) {
                assert!(pair[1] <= pair[0] + 1e-9);
            }
        }
        // Columns: fixed L, gain rises with A.
        for col in 0..l_values.len() {
            for rows in cells.windows(2) {
                assert!(rows[1][col] >= rows[0][col] - 1e-9);
            }
        }
    }

    #[test]
    fn high_latency_corner_is_a_slowdown_for_sync() {
        let cells = grid(&pool(), D::Sync, &[96.0], &[1_000_000.0]);
        assert!(cells[0][0] < 0.0);
        // And the low-latency corner approaches the ideal.
        let cells = grid(&pool(), D::Sync, &[96.0], &[10.0]);
        assert!(cells[0][0] > 15.0);
    }

    #[test]
    fn async_tolerates_more_latency_than_sync() {
        // At a moderate L, the async design keeps more of the gain.
        let l = 20_000.0;
        let sync = grid(&pool(), D::Sync, &[27.0], &[l])[0][0];
        let asynchronous = grid(&pool(), D::AsyncNoResponse, &[27.0], &[l])[0][0];
        assert!(asynchronous >= sync);
    }

    #[test]
    fn render_produces_a_full_heatmap() {
        let art = render(&pool(), "Design space", D::Sync);
        assert!(art.contains("Design space: Sync offload"));
        assert!(art.contains('@'), "no near-ideal region:\n{art}");
        assert!(art.contains('x'), "no slowdown region:\n{art}");
        assert!(art.contains("legend"));
        assert_eq!(art.lines().count(), 16); // title + axis + 13 rows + legend
    }
}
