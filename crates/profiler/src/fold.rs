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
        // Every line is "stack weight", and the weights keep the total
        // cycles (rounded).
        let mut exported = 0.0;
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("separator");
            assert!(stack.contains(';'));
            exported += weight.parse::<u64>().unwrap_or_else(|_| panic!("{line}")) as f64;
        }
        let original: f64 = traces.iter().map(|t| t.cycles).sum();
        assert!((exported - original).abs() < traces.len() as f64);
    }
}
