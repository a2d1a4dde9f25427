//! Collapsed-stack export: writes trace samples in the standard
//! "folded" format (`frame;frame;leaf count`) consumed by flamegraph
//! tooling — the visualization Strobelight-style profiles usually end up
//! in.

use std::collections::BTreeMap;

use crate::trace::CallTrace;

/// Collapses a stream of traces into folded-stack weights, one entry per
/// distinct stack: memory grows with the stacks seen, not the traces.
#[derive(Debug, Default)]
pub struct FoldedStacks {
    /// Summed cycles per `;`-joined stack.
    stacks: BTreeMap<String, f64>,
    /// The stack being looked up, reused so a stack already seen
    /// allocates nothing.
    key: String,
}

impl FoldedStacks {
    /// Adds one trace's cycles to its stack.
    pub fn push(&mut self, trace: &CallTrace) {
        self.key.clear();
        for (i, frame) in trace.frames.iter().enumerate() {
            if i > 0 {
                self.key.push(';');
            }
            self.key.push_str(frame);
        }
        if let Some(cycles) = self.stacks.get_mut(&self.key) {
            *cycles += trace.cycles;
        } else {
            self.stacks.insert(self.key.clone(), trace.cycles);
        }
    }

    /// Renders the folded-stack lines, each stack weighted by its cycle
    /// count rounded to whole cycles. Stacks of zero weight are elided;
    /// lines come in lexicographic stack order for determinism.
    #[must_use]
    pub fn finish(self) -> String {
        let mut out = String::new();
        for (stack, cycles) in self.stacks {
            let weight = cycles.round() as u64;
            if weight > 0 {
                out.push_str(&stack);
                out.push(' ');
                out.push_str(&weight.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// Collapses stored traces into folded-stack lines: the
/// [`FoldedStacks`] fold over `traces`.
#[must_use]
pub fn to_folded(traces: &[CallTrace]) -> String {
    let mut stacks = FoldedStacks::default();
    for trace in traces {
        stacks.push(trace);
    }
    stacks.finish()
}

/// Parses folded-stack lines back into traces (cycle-weighted, with
/// instructions unknown and set to zero). Lines that do not end in a
/// positive integer weight are skipped.
#[must_use]
pub fn from_folded(folded: &str) -> Vec<CallTrace> {
    folded
        .lines()
        .filter_map(|line| {
            let (stack, weight) = line.rsplit_once(' ')?;
            let cycles: u64 = weight.parse().ok()?;
            if stack.is_empty() || cycles == 0 {
                return None;
            }
            let frames: Vec<String> = stack.split(';').map(str::to_owned).collect();
            if frames.iter().any(String::is_empty) {
                return None; // malformed stack with empty frames
            }
            Some(CallTrace::new(frames, cycles as f64, 0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(frames: &[&'static str], cycles: f64) -> CallTrace {
        CallTrace::new(frames.to_vec(), cycles, 0.0)
    }

    #[test]
    fn folds_and_merges_identical_stacks() {
        let traces = vec![
            trace(&["svc::io::send", "memcpy"], 100.0),
            trace(&["svc::io::send", "memcpy"], 50.0),
            trace(&["svc::app::serve", "std::sort"], 30.0),
        ];
        let folded = to_folded(&traces);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.contains(&"svc::io::send;memcpy 150"));
        assert!(lines.contains(&"svc::app::serve;std::sort 30"));
    }

    #[test]
    fn round_trips_through_parse() {
        let traces = vec![
            trace(&["a", "b", "c"], 10.0),
            trace(&["a", "d"], 5.0),
        ];
        let parsed = from_folded(&to_folded(&traces));
        assert_eq!(parsed.len(), 2);
        let total: f64 = parsed.iter().map(|t| t.cycles).sum();
        assert_eq!(total, 15.0);
        assert!(parsed.iter().any(|t| t.leaf() == "c" && t.depth() == 3));
    }

    #[test]
    fn parser_skips_malformed_lines() {
        let parsed = from_folded("a;b ten\nvalid;stack 5\n\nnope\n;empty 3\nzero;w 0\n");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].frames, vec!["valid", "stack"]);
    }

    #[test]
    fn zero_weight_stacks_are_elided() {
        let folded = to_folded(&[trace(&["a"], 0.2)]);
        assert!(folded.is_empty());
    }

    #[test]
    fn generated_traces_export_cleanly() {
        use accelerometer_fleet::{profile, ServiceId};
        let mut generator = crate::TraceGenerator::new(profile(ServiceId::Cache1), 5);
        let traces = generator.generate(500);
        let folded = to_folded(&traces);
        assert!(folded.lines().count() > 50);
        // Every line is "stack weight".
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("separator");
            assert!(stack.contains(';'));
            assert!(weight.parse::<u64>().is_ok(), "{line}");
        }
        // And the export parses back to the same total cycles (rounded).
        let parsed = from_folded(&folded);
        let exported: f64 = parsed.iter().map(|t| t.cycles).sum();
        let original: f64 = traces.iter().map(|t| t.cycles).sum();
        assert!((exported - original).abs() < traces.len() as f64);
    }
}
