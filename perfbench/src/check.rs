//! Correctness checks on command outputs. A failed check is counted
//! against the operation that produced the output, never fatal.

use accelerometer_kernels::aes::Aes128;
use accelerometer_kernels::{hash, lz, LzScratch, Mlp, MlpScratch};
use serde_json::Value;

use crate::workload::{Check, Command, Setup};

// Model-vs-simulated bounds are enforced at the default seeds, where the
// paper's claim and the repository's tests pin them. At other seeds the
// simulated side is a seed-dependent statistic (the Table 6 inference
// row exceeds 3.7 points on about half of all seeds, and 4.3 at some),
// so the figures are reported in the run's details instead of failing
// the operation. Invariants (row counts, utilization, fallbacks,
// repetition) are enforced at every seed.

/// Largest Table 6 model-vs-simulated error, in points: the paper's bound.
pub const TABLE6_MAX_POINTS: f64 = 3.7;
/// Largest fallback-table model-vs-simulated error, in points.
pub const FALLBACK_MAX_POINTS: f64 = 2.0;
/// `core_utilization` may exceed 1 by at most this rounding slack.
const UTILIZATION_SLACK: f64 = 1e-9;
/// Kernels `calibrate` must print, in its row order.
const CALIBRATE_KERNELS: [&str; 4] = ["encryption", "compression", "hashing", "inference"];
/// Failure messages kept for the report; the count is always exact.
const KEPT_FAILURES: usize = 20;

/// Attempted and failed operations, with the first failure messages.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or produced an incorrect output.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation, failed when `problems` is non-empty.
    pub fn record(&mut self, label: &str, problems: &[String]) {
        self.attempted += 1;
        if problems.is_empty() {
            return;
        }
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures
                .push(format!("{label}: {}", problems.join("; ")));
        }
    }
}

/// Checks one output of `command`: no error, the same bytes as the
/// `reference` repetition (when given), and the command's own checks.
pub fn check(
    command: &Command,
    output: &Result<String, String>,
    reference: Option<&str>,
    setup: &Setup,
) -> Vec<String> {
    let out = match output {
        Ok(out) => out,
        Err(e) => return vec![format!("error: {e}")],
    };
    let mut problems = Vec::new();
    if command.check.repeats() && reference.is_some_and(|r| r != out) {
        problems.push("output differs from the first repetition".to_owned());
    }
    problems.extend(check_output(command.check, out, setup));
    problems
}

/// The command's own checks: invariants at every seed, goldens and
/// model-vs-simulated bounds at the default seeds.
pub fn check_output(check: Check, out: &str, setup: &Setup) -> Vec<String> {
    let mut problems = Vec::new();
    match check {
        Check::Faults {
            golden,
            min_fallbacks,
        } => {
            if let Some(g) = golden {
                if out != setup.golden(g) {
                    problems.push(format!("differs from golden {g:?}"));
                }
            }
            match serde_json::from_str::<Value>(out) {
                Err(e) => problems.push(format!("not JSON: {e}")),
                Ok(report) => {
                    problems.extend(utilization_problems(&numbers_under(
                        &report,
                        "core_utilization",
                    )));
                    let fallbacks: f64 = numbers_under(&report, "fallbacks").iter().sum();
                    if fallbacks < min_fallbacks as f64 {
                        problems.push(format!("{fallbacks} fallbacks < {min_fallbacks}"));
                    }
                }
            }
        }
        Check::Fallback { default_seed } => {
            let points = model_vs_sim_points(out);
            if points.len() != 4 {
                problems.push(format!("{} fallback rows, expected 4", points.len()));
            }
            if default_seed {
                problems.extend(bound_problems(&points, FALLBACK_MAX_POINTS));
            }
            problems.extend(utilization_problems(&numbers_after(out, "util")));
        }
        Check::Table6 { default_seed } => {
            let points = model_vs_sim_points(out);
            if points.len() != 3 {
                problems.push(format!("{} Table 6 rows, expected 3", points.len()));
            }
            if default_seed {
                problems.extend(bound_problems(&points, TABLE6_MAX_POINTS));
            }
        }
        Check::Characterize { service, golden } => {
            if let Some(g) = golden {
                if out != setup.golden(g) {
                    problems.push(format!("differs from golden {g:?}"));
                }
            }
            if !out.starts_with(&format!("characterization of {service}:\n")) {
                problems.push("missing characterization header".to_owned());
            }
        }
        Check::Calibrate => {
            let rows = calibrate_rows(out);
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            if names != CALIBRATE_KERNELS {
                problems.push(format!("kernels {names:?}, expected {CALIBRATE_KERNELS:?}"));
            }
            for r in &rows {
                let values = [r.dispatched_cpb, r.scalar_cpb, r.factor];
                if !values.iter().all(|v| v.is_finite() && *v > 0.0) {
                    problems.push(format!("{}: non-positive or non-finite {values:?}", r.name));
                }
            }
            problems.extend(kernel_equivalence_problems());
        }
        Check::NonEmpty => {
            if out.trim().is_empty() {
                problems.push("empty output".to_owned());
            }
        }
    }
    problems
}

/// `value <= max`, false for NaN (so a garbled figure fails its check).
fn within(value: f64, max: f64) -> bool {
    value <= max
}

fn bound_problems(points: &[f64], max: f64) -> Vec<String> {
    points
        .iter()
        .filter(|p| !within(**p, max))
        .map(|p| format!("model-vs-simulated {p} pts > {max}"))
        .collect()
}

fn utilization_problems(values: &[f64]) -> Vec<String> {
    values
        .iter()
        .filter(|u| !within(**u, 1.0 + UTILIZATION_SLACK))
        .map(|u| format!("core_utilization {u} > 1"))
        .collect()
}

/// Every number stored under `key`, anywhere in `value`.
fn numbers_under(value: &Value, key: &str) -> Vec<f64> {
    let mut found = Vec::new();
    let mut stack = vec![value];
    while let Some(v) = stack.pop() {
        match v {
            Value::Object(entries) => {
                for (k, child) in entries {
                    match child.as_f64() {
                        Some(x) if k == key => found.push(x),
                        _ => stack.push(child),
                    }
                }
            }
            Value::Array(items) => stack.extend(items),
            _ => {}
        }
    }
    found
}

/// The number following each whitespace-separated `word` in `text`
/// (with any trailing `%` removed); non-numeric followers are skipped,
/// so callers check the row count.
fn numbers_after(text: &str, word: &str) -> Vec<f64> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    tokens
        .windows(2)
        .filter(|w| w[0] == word)
        .filter_map(|w| w[1].trim_end_matches('%').parse().ok())
        .collect()
}

/// The `(model-vs-sim X pts)` figure of every row of a validation table.
pub fn model_vs_sim_points(text: &str) -> Vec<f64> {
    numbers_after(text, "(model-vs-sim")
}

/// `|simulated − paper real|` for every Table 6 row, in points, at the
/// two decimals the table prints.
pub fn table6_paper_points(text: &str) -> Vec<f64> {
    let simulated = numbers_after(text, "simulated");
    let real = numbers_after(text, "real");
    simulated
        .iter()
        .zip(&real)
        .map(|(s, r)| ((s - r).abs() * 100.0).round() / 100.0)
        .collect()
}

/// One row of the `calibrate` table.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrateRow {
    /// Kernel family as `calibrate` prints it.
    pub name: String,
    /// Cycles per byte on the dispatched (ISA) path.
    pub dispatched_cpb: f64,
    /// Cycles per byte on the scalar reference path.
    pub scalar_cpb: f64,
    /// `scalar / dispatched`.
    pub factor: f64,
}

/// Parses the kernel rows of `calibrate` output.
pub fn calibrate_rows(text: &str) -> Vec<CalibrateRow> {
    text.lines()
        .filter_map(|line| {
            let t: Vec<&str> = line.split_whitespace().collect();
            let [name, dispatched, scalar, factor] = t.as_slice() else {
                return None;
            };
            let factor = factor.strip_suffix('x')?;
            Some(CalibrateRow {
                name: (*name).to_owned(),
                dispatched_cpb: dispatched.parse().ok()?,
                scalar_cpb: scalar.parse().ok()?,
                factor: factor.parse().ok()?,
            })
        })
        .collect()
}

/// Each dispatched kernel's output equals its public scalar reference on
/// the inputs `calibrate` times.
pub fn kernel_equivalence_problems() -> Vec<String> {
    const BYTES: usize = 4096;
    let mut problems = Vec::new();

    let cipher = Aes128::new(&[0x42u8; 16]);
    let (mut fast, mut slow) = (vec![0xA5u8; BYTES], vec![0xA5u8; BYTES]);
    cipher.ctr_apply(&[7u8; 16], &mut fast);
    cipher.ctr_apply_scalar(&[7u8; 16], &mut slow);
    if fast != slow {
        problems.push("aes_ctr differs from ctr_apply_scalar".to_owned());
    }

    let input = vec![0x5Au8; BYTES];
    if hash::sha256(&input) != hash::sha256_scalar(&input) {
        problems.push("sha256 differs from sha256_scalar".to_owned());
    }

    let input: Vec<u8> = (0..BYTES)
        .map(|i| match i % 16 {
            0..=7 => b'a' + (i % 8) as u8,
            8..=11 => (i / 16 % 251) as u8,
            _ => 0,
        })
        .collect();
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    lz::compress_into(&input, &mut LzScratch::new(), &mut fast);
    lz::compress_into_scalar(&input, &mut LzScratch::new(), &mut slow);
    if fast != slow {
        problems.push("lz_compress differs from compress_into_scalar".to_owned());
    }

    let mlp = Mlp::seeded_ranker(&[512, 256, 64, 1], 42);
    let width = mlp.input_width();
    let batch: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            (0..width)
                .map(|j| (i * width + j) as f32 / 8192.0)
                .collect()
        })
        .collect();
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    let ran = mlp
        .forward_batch(&batch, &mut MlpScratch::new(), &mut fast)
        .is_ok()
        && mlp
            .forward_batch_scalar(&batch, &mut MlpScratch::new(), &mut slow)
            .is_ok();
    let same_bits = fast.len() == slow.len()
        && fast
            .iter()
            .zip(&slow)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !ran || !same_bits {
        problems.push("mlp_batch differs from forward_batch_scalar".to_owned());
    }
    problems
}
