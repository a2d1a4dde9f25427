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
use accelerometer::{
    estimate, AccelerationStrategy, DriverMode, ModelParams, ThreadingDesign,
};

/// One cell of the design-space grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// `A`: peak accelerator speedup.
    pub peak_speedup: f64,
    /// `L`: interface latency in cycles.
    pub interface_latency: f64,
    /// Projected throughput gain (percent; negative = slowdown).
    pub gain_percent: f64,
}

/// Evaluates the A × L grid for a kernel with fraction `alpha` and `n`
/// offloads per `c` host cycles, under `design`, on `pool`.
#[must_use]
pub fn grid(
    pool: &ExecPool,
    c: f64,
    alpha: f64,
    n: f64,
    design: ThreadingDesign,
    a_values: &[f64],
    l_values: &[f64],
) -> Vec<Vec<DesignPoint>> {
    // One pool job per grid row: each cell is a pure model evaluation, so
    // rows parallelize freely and land in `a_values` order.
    pool.map(a_values, |_, &a| {
        l_values
            .iter()
            .map(|&l| {
                let params = ModelParams::builder()
                    .host_cycles(c)
                    .kernel_fraction(alpha)
                    .offloads(n)
                    .interface_cycles(l)
                    .thread_switch_cycles(2_000.0)
                    .peak_speedup(a)
                    .build()
                    .expect("grid parameters are valid");
                let est = estimate(
                    &params,
                    design,
                    AccelerationStrategy::OffChip,
                    DriverMode::AwaitsAck,
                );
                DesignPoint {
                    peak_speedup: a,
                    interface_latency: l,
                    gain_percent: est.throughput_gain_percent(),
                }
            })
            .collect()
    })
}

fn glyph(gain: f64, ideal: f64) -> char {
    // Fraction of the ideal gain realized.
    let fraction = gain / ideal;
    match fraction {
        f if f < 0.0 => 'x',  // slowdown
        f if f < 0.25 => '.',
        f if f < 0.5 => '-',
        f if f < 0.75 => '=',
        f if f < 0.9 => '#',
        _ => '@',
    }
}

/// Renders the design space for a kernel under one threading design,
/// evaluating the grid on `pool`.
#[must_use]
pub fn render(pool: &ExecPool, c: f64, alpha: f64, n: f64, design: ThreadingDesign) -> String {
    use std::fmt::Write as _;
    let a_values: Vec<f64> = log_space(1.5, 96.0, 13);
    let l_values: Vec<f64> = log_space(10.0, 1_000_000.0, 46);
    let cells = grid(pool, c, alpha, n, design, &a_values, &l_values);
    let ideal = (1.0 / (1.0 - alpha) - 1.0) * 100.0;

    let mut out = format!(
        "== Design space: {design} offload of a {:.0}% kernel, n = {n:.0} (ideal {ideal:+.1}%) ==\n",
        alpha * 100.0
    );
    let _ = writeln!(out, "{:>7}   10 cycles -> 1M cycles (log)", "A \\ L");
    for (row, &a) in cells.iter().zip(&a_values).rev() {
        let line: String = row.iter().map(|p| glyph(p.gain_percent, ideal)).collect();
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
/// Async designs.
#[must_use]
pub fn figure(pool: &ExecPool) -> String {
    [
        ThreadingDesign::Sync,
        ThreadingDesign::SyncOs,
        ThreadingDesign::AsyncNoResponse,
    ]
    .map(|design| render(pool, 2.3e9, 0.15, 15_008.0, design))
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ThreadingDesign as D;

    const C: f64 = 2.3e9;
    const ALPHA: f64 = 0.15;
    const N: f64 = 15_008.0;

    fn pool() -> ExecPool {
        ExecPool::new(2)
    }

    #[test]
    fn gain_is_monotone_in_the_grid() {
        let a_values = [2.0, 8.0, 32.0];
        let l_values = [100.0, 10_000.0, 1_000_000.0];
        let cells = grid(&pool(), C, ALPHA, N, D::Sync, &a_values, &l_values);
        // Rows: fixed A, gain falls with L.
        for row in &cells {
            for pair in row.windows(2) {
                assert!(pair[1].gain_percent <= pair[0].gain_percent + 1e-9);
            }
        }
        // Columns: fixed L, gain rises with A.
        for col in 0..l_values.len() {
            for rows in cells.windows(2) {
                assert!(rows[1][col].gain_percent >= rows[0][col].gain_percent - 1e-9);
            }
        }
    }

    #[test]
    fn high_latency_corner_is_a_slowdown_for_sync() {
        let cells = grid(&pool(), C, ALPHA, N, D::Sync, &[96.0], &[1_000_000.0]);
        assert!(cells[0][0].gain_percent < 0.0);
        // And the low-latency corner approaches the ideal.
        let cells = grid(&pool(), C, ALPHA, N, D::Sync, &[96.0], &[10.0]);
        assert!(cells[0][0].gain_percent > 15.0);
    }

    #[test]
    fn async_tolerates_more_latency_than_sync() {
        // At a moderate L, the async design keeps more of the gain.
        let l = 20_000.0;
        let sync = grid(&pool(), C, ALPHA, N, D::Sync, &[27.0], &[l])[0][0];
        let asynchronous = grid(&pool(), C, ALPHA, N, D::AsyncNoResponse, &[27.0], &[l])[0][0];
        assert!(asynchronous.gain_percent >= sync.gain_percent);
    }

    #[test]
    fn render_produces_a_full_heatmap() {
        let art = render(&pool(), C, ALPHA, N, D::Sync);
        assert!(art.contains("Design space"));
        assert!(art.contains('@'), "no near-ideal region:\n{art}");
        assert!(art.contains('x'), "no slowdown region:\n{art}");
        assert!(art.contains("legend"));
        assert_eq!(art.lines().count(), 16); // title + axis + 13 rows + legend
    }
}
