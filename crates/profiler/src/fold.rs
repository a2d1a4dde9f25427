//! Collapsed-stack export: writes trace samples in the standard
//! "folded" format (`frame;frame;leaf count`) consumed by flamegraph
//! tooling — the visualization Strobelight-style profiles usually end up
//! in.

use std::collections::BTreeMap;

use crate::generate::{Sample, TraceGenerator, LAYER_FRAMES};
use crate::trace::CallTrace;

/// Collapses a stream of drawn samples into folded-stack weights: one
/// running cycle sum per (root, depth, leaf) a generator can draw, so
/// memory is fixed by its frame tables, not the sample count. Stack
/// strings are rendered once, by [`FoldedStacks::finish`].
///
/// The generator interns its frames by string, so each stack has one
/// slot, and each stack's sum adds its samples in sample order: the
/// lines are [`to_folded`]'s over the rendered traces, bit for bit.
#[derive(Debug)]
pub struct FoldedStacks {
    roots: Vec<&'static str>,
    symbols: Vec<&'static str>,
    /// Summed cycles, indexed `[root][depth - 1][symbol]`.
    cycles: Vec<f64>,
}

impl FoldedStacks {
    /// Empty sums for the stacks `generator` can draw.
    #[must_use]
    pub fn new(generator: &TraceGenerator) -> Self {
        let (roots, symbols) = generator.frame_tables();
        Self {
            roots: roots.to_vec(),
            symbols: symbols.to_vec(),
            cycles: vec![0.0; roots.len() * LAYER_FRAMES.len() * symbols.len()],
        }
    }

    /// Adds one sample's cycles to its stack.
    pub fn push_sample(&mut self, sample: &Sample) {
        let slot = (sample.root * LAYER_FRAMES.len() + sample.depth - 1) * self.symbols.len()
            + sample.symbol;
        self.cycles[slot] += sample.cycles;
    }

    /// Renders the folded-stack lines, each stack weighted by its cycle
    /// count rounded to whole cycles. Stacks of zero weight are elided;
    /// lines come in lexicographic stack order for determinism.
    #[must_use]
    pub fn finish(self) -> String {
        let layers = LAYER_FRAMES.len();
        let mut stacks: Vec<(String, u64)> = Vec::new();
        for (slot, cycles) in self.cycles.iter().enumerate() {
            let weight = cycles.round() as u64;
            if weight > 0 {
                let (rest, symbol) = (slot / self.symbols.len(), slot % self.symbols.len());
                let (root, depth) = (rest / layers, rest % layers + 1);
                let frames: Vec<&str> = std::iter::once(self.roots[root])
                    .chain(LAYER_FRAMES[..depth].iter().copied())
                    .chain(std::iter::once(self.symbols[symbol]))
                    .collect();
                stacks.push((frames.join(";"), weight));
            }
        }
        // Frames are interned and none contains `;`, so each slot renders
        // a distinct key and an unstable sort is deterministic.
        stacks.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (stack, weight) in stacks {
            push_line(&mut out, &stack, weight);
        }
        out
    }
}

/// Appends one `stack weight` line.
fn push_line(out: &mut String, stack: &str, weight: u64) {
    out.push_str(stack);
    out.push(' ');
    out.push_str(&weight.to_string());
    out.push('\n');
}

/// Collapses stored traces into folded-stack lines: each trace's frames
/// joined by `;`, summed per joined stack in trace order, and rendered
/// as [`FoldedStacks::finish`] renders them.
#[must_use]
pub fn to_folded(traces: &[CallTrace]) -> String {
    let mut stacks: BTreeMap<String, f64> = BTreeMap::new();
    for trace in traces {
        let stack = trace.frames.join(";");
        if let Some(cycles) = stacks.get_mut(&stack) {
            *cycles += trace.cycles;
        } else {
            stacks.insert(stack, trace.cycles);
        }
    }
    let mut out = String::new();
    for (stack, cycles) in stacks {
        let weight = cycles.round() as u64;
        if weight > 0 {
            push_line(&mut out, &stack, weight);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(frames: &[&'static str], cycles: f64) -> CallTrace {
        CallTrace {
            frames: frames.to_vec(),
            cycles,
            instructions: 0.0,
        }
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
