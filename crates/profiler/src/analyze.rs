//! Aggregation: the downstream half of the §2.2 pipeline.
//!
//! Tags each trace's leaf, buckets each trace's root into a
//! functionality, sums cycles per category, and computes per-category
//! IPC as the ratio of aggregated instructions to aggregated cycles —
//! exactly the paper's described method ("to determine a category's IPC,
//! we determine the ratio of aggregated instruction and cycle counts for
//! functions in that category").
//!
//! [`ProfileAccumulator`] folds one sample at a time, so a sample of any
//! size is characterized in constant memory. A drawn [`Sample`] carries
//! its tags already; [`analyze`] is the same fold over a stored slice of
//! call traces, tagging each one's strings.

use std::fmt::Write as _;

use accelerometer_fleet::{Breakdown, FunctionalityCategory, LeafCategory, MemoryOp};

use crate::generate::Sample;
use crate::registry::FunctionRegistry;
use crate::trace::CallTrace;

/// The aggregated characterization of a trace sample: the profiler's
/// reconstruction of Figs. 1, 2, and 9 for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Reconstructed leaf-category breakdown (Fig. 2).
    pub leaf: Breakdown<LeafCategory>,
    /// Reconstructed functionality breakdown (Fig. 9).
    pub functionality: Breakdown<FunctionalityCategory>,
    /// Per-leaf-category IPC (aggregated instructions / cycles).
    pub leaf_ipc: Vec<(LeafCategory, f64)>,
    /// Per-functionality IPC.
    pub functionality_ipc: Vec<(FunctionalityCategory, f64)>,
    /// Reconstructed Fig. 3 sub-breakdown: each memory operation's share
    /// of *memory* cycles (empty when no memory leaves were sampled).
    pub memory_ops: Vec<(MemoryOp, f64)>,
    /// Total cycles across the sample.
    pub total_cycles: f64,
    /// Number of traces aggregated.
    pub samples: usize,
}

impl ProfileReport {
    /// The Fig. 1 split: percent of cycles in core application logic.
    #[must_use]
    pub fn core_percent(&self) -> f64 {
        self.functionality.percent_where(FunctionalityCategory::is_core)
    }

    /// The Fig. 1 split: percent of cycles in orchestration work,
    /// clamped to `[0, 100]` so a core share rounded past 100 does not
    /// leave a negative remainder.
    #[must_use]
    pub fn orchestration_percent(&self) -> f64 {
        (100.0 - self.core_percent()).clamp(0.0, 100.0)
    }

    /// Renders the report as fixed-width text tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "samples: {}  total cycles: {:.0}", self.samples, self.total_cycles);
        let _ = writeln!(out, "-- functionality breakdown (Fig. 9) --");
        for (cat, pct) in self.functionality.iter() {
            let _ = writeln!(out, "{:<28} {:>5.1}%", cat.to_string(), pct);
        }
        let _ = writeln!(out, "-- leaf breakdown (Fig. 2) --");
        for (cat, pct) in self.leaf.iter() {
            let _ = writeln!(out, "{:<28} {:>5.1}%", cat.to_string(), pct);
        }
        let _ = writeln!(
            out,
            "core {:.1}% vs orchestration {:.1}% (Fig. 1)",
            self.core_percent(),
            self.orchestration_percent()
        );
        out
    }
}

/// Pairs each category in `all` with its accumulated sum, skipping the
/// categories no sample landed in.
fn present<'a, C: Copy, S: Copy>(
    all: &'a [C],
    sums: &'a [Option<S>],
) -> impl Iterator<Item = (C, S)> + 'a {
    all.iter().zip(sums).filter_map(|(&c, s)| Some((c, (*s)?)))
}

/// Folds samples one at a time into the sums a [`ProfileReport`] is
/// computed from. Memory is independent of the number of samples pushed.
#[derive(Debug, Default)]
pub struct ProfileAccumulator {
    // Sums indexed by each enum's `ALL` position; `None` marks a category
    // no sample landed in, which the report omits.
    leaf_cycles: [Option<(f64, f64)>; LeafCategory::ALL.len()],
    func_cycles: [Option<(f64, f64)>; FunctionalityCategory::ALL.len()],
    memory_op_cycles: [Option<f64>; MemoryOp::ALL.len()],
    total_cycles: f64,
    samples: usize,
}

impl ProfileAccumulator {
    /// Adds one drawn sample's cycles and instructions to the sums of
    /// the tags the generator resolved for it.
    pub fn push_sample(&mut self, sample: &Sample) {
        self.add(
            sample.functionality,
            sample.leaf,
            sample.memory_op,
            sample.cycles,
            sample.instructions,
        );
    }

    /// Adds one call trace, tagging its root and leaf through `registry`.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no frames.
    pub fn push(&mut self, trace: &CallTrace, registry: &FunctionRegistry) {
        let (leaf, op) = registry.tag_symbol(trace.leaf());
        let functionality = registry.bucket_root(trace.root());
        self.add(functionality, leaf, op, trace.cycles, trace.instructions);
    }

    fn add(
        &mut self,
        functionality: FunctionalityCategory,
        leaf: LeafCategory,
        op: Option<MemoryOp>,
        cycles: f64,
        instructions: f64,
    ) {
        let l = self.leaf_cycles[leaf as usize].get_or_insert((0.0, 0.0));
        l.0 += cycles;
        l.1 += instructions;
        let f = self.func_cycles[functionality as usize].get_or_insert((0.0, 0.0));
        f.0 += cycles;
        f.1 += instructions;
        if let Some(op) = op {
            *self.memory_op_cycles[op as usize].get_or_insert(0.0) += cycles;
        }
        self.total_cycles += cycles;
        self.samples += 1;
    }

    /// The report over every sample pushed.
    ///
    /// # Panics
    ///
    /// Panics if no sample was pushed — there is nothing to characterize.
    #[must_use]
    pub fn finish(self) -> ProfileReport {
        assert!(self.samples > 0, "cannot analyze an empty trace sample");
        let total_cycles = self.total_cycles;
        let leaf_entries: Vec<(LeafCategory, f64)> = present(LeafCategory::ALL, &self.leaf_cycles)
            .map(|(c, (cy, _))| (c, 100.0 * cy / total_cycles))
            .collect();
        let func_entries: Vec<(FunctionalityCategory, f64)> =
            present(FunctionalityCategory::ALL, &self.func_cycles)
                .map(|(c, (cy, _))| (c, 100.0 * cy / total_cycles))
                .collect();
        let leaf_ipc = present(LeafCategory::ALL, &self.leaf_cycles)
            .map(|(c, (cy, ins))| (c, ins / cy))
            .collect();
        let functionality_ipc = present(FunctionalityCategory::ALL, &self.func_cycles)
            .map(|(c, (cy, ins))| (c, ins / cy))
            .collect();
        // Summed in `MemoryOp::ALL` order, so the shares are bitwise
        // reproducible across processes.
        let memory_total: f64 = self.memory_op_cycles.iter().flatten().sum();
        let memory_ops = if memory_total > 0.0 {
            present(MemoryOp::ALL, &self.memory_op_cycles)
                .map(|(op, cy)| (op, 100.0 * cy / memory_total))
                .collect()
        } else {
            Vec::new()
        };

        ProfileReport {
            leaf: Breakdown::complete(leaf_entries).expect("cycle shares sum to 100"),
            functionality: Breakdown::complete(func_entries).expect("cycle shares sum to 100"),
            leaf_ipc,
            functionality_ipc,
            memory_ops,
            total_cycles,
            samples: self.samples,
        }
    }
}

/// Aggregates a stored trace sample into a [`ProfileReport`]: the
/// [`ProfileAccumulator`] fold over `traces`, tagging each trace's
/// strings through `registry`.
///
/// # Panics
///
/// Panics if `traces` is empty — there is nothing to characterize.
#[must_use]
pub fn analyze(traces: &[CallTrace], registry: &FunctionRegistry) -> ProfileReport {
    let mut profile = ProfileAccumulator::default();
    for trace in traces {
        profile.push(trace, registry);
    }
    profile.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value a `(category, value)` list holds for `key`.
    fn value_of<C: PartialEq>(entries: &[(C, f64)], key: C) -> Option<f64> {
        entries.iter().find(|(c, _)| *c == key).map(|(_, v)| *v)
    }

    fn registry() -> FunctionRegistry {
        FunctionRegistry::with_defaults()
    }

    fn trace(root: &'static str, leaf: &'static str, cycles: f64, ipc: f64) -> CallTrace {
        CallTrace {
            frames: vec![root, "mid", leaf],
            cycles,
            instructions: cycles * ipc,
        }
    }

    #[test]
    fn aggregates_cycles_by_category() {
        let traces = vec![
            trace("svc::io::send", "memcpy", 600.0, 0.9),
            trace("svc::app::serve", "std::sort", 300.0, 1.6),
            trace("svc::app::serve", "memcpy", 100.0, 0.9),
        ];
        let report = analyze(&traces, &registry());
        assert_eq!(report.samples, 3);
        assert_eq!(report.total_cycles, 1000.0);
        assert_eq!(report.leaf.percent(LeafCategory::Memory), 70.0);
        assert_eq!(report.leaf.percent(LeafCategory::CLibraries), 30.0);
        assert_eq!(
            report.functionality.percent(FunctionalityCategory::SecureInsecureIo),
            60.0
        );
        assert_eq!(
            report.functionality.percent(FunctionalityCategory::ApplicationLogic),
            40.0
        );
    }

    #[test]
    fn ipc_is_aggregate_ratio_not_mean_of_ratios() {
        // Two memory traces with different IPCs: the category IPC must be
        // Σinstr/Σcycles, weighted by cycles.
        let traces = vec![
            trace("svc::app::x", "memcpy", 900.0, 1.0),
            trace("svc::app::x", "memset", 100.0, 0.0),
        ];
        let report = analyze(&traces, &registry());
        let ipc = value_of(&report.leaf_ipc, LeafCategory::Memory).unwrap();
        assert!((ipc - 0.9).abs() < 1e-12);
        assert!(value_of(&report.leaf_ipc, LeafCategory::Ssl).is_none());
    }

    #[test]
    fn memory_op_sub_breakdown() {
        let traces = vec![
            trace("svc::app::x", "memcpy", 540.0, 1.0),
            trace("svc::app::x", "free", 180.0, 1.0),
            trace("svc::app::x", "malloc", 210.0, 1.0),
            trace("svc::app::x", "memset", 70.0, 1.0),
            trace("svc::io::y", "tcp_sendmsg", 1_000.0, 0.4),
        ];
        let report = analyze(&traces, &registry());
        // Shares are of *memory* cycles (1,000 total), not total cycles.
        let share = |op| value_of(&report.memory_ops, op);
        assert!((share(MemoryOp::Copy).unwrap() - 54.0).abs() < 1e-9);
        assert!((share(MemoryOp::Free).unwrap() - 18.0).abs() < 1e-9);
        assert!((share(MemoryOp::Allocation).unwrap() - 21.0).abs() < 1e-9);
        assert!((share(MemoryOp::Set).unwrap() - 7.0).abs() < 1e-9);
        assert_eq!(share(MemoryOp::Move).unwrap_or(0.0), 0.0);
        // No memory samples → empty sub-breakdown.
        let io_only = analyze(&[trace("svc::io::y", "tcp_sendmsg", 10.0, 0.4)], &registry());
        assert!(io_only.memory_ops.is_empty());
    }

    #[test]
    fn memory_op_shares_are_bitwise_reproducible() {
        use accelerometer_fleet::{profile, ServiceId};
        let traces = crate::TraceGenerator::new(profile(ServiceId::Cache1), 11).generate(20_000);
        let bits = |report: &ProfileReport| -> Vec<(MemoryOp, u64)> {
            report.memory_ops.iter().map(|(op, pct)| (*op, pct.to_bits())).collect()
        };
        let first = bits(&analyze(&traces, &registry()));
        assert_eq!(first.len(), MemoryOp::ALL.len(), "every op sampled");
        for _ in 0..32 {
            assert_eq!(bits(&analyze(&traces, &registry())), first);
        }
    }

    #[test]
    fn core_vs_orchestration_split() {
        let traces = vec![
            trace("svc::app::serve", "std::sort", 18.0, 1.0),
            trace("svc::log::update", "memcpy", 23.0, 1.0),
            trace("svc::io::send", "tcp_sendmsg", 59.0, 1.0),
        ];
        let report = analyze(&traces, &registry());
        assert!((report.core_percent() - 18.0).abs() < 1e-9);
        assert!((report.orchestration_percent() - 82.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_symbols_become_miscellaneous() {
        let traces = vec![trace("main", "mystery_fn", 100.0, 1.0)];
        let report = analyze(&traces, &registry());
        assert_eq!(report.leaf.percent(LeafCategory::Miscellaneous), 100.0);
        assert_eq!(
            report.functionality.percent(FunctionalityCategory::Miscellaneous),
            100.0
        );
    }

    #[test]
    fn render_is_human_readable() {
        let traces = vec![trace("svc::app::serve", "memcpy", 100.0, 1.0)];
        let text = analyze(&traces, &registry()).render();
        assert!(text.contains("functionality breakdown"));
        assert!(text.contains("Memory"));
        assert!(text.contains("core"));
    }

    #[test]
    #[should_panic(expected = "empty trace sample")]
    fn empty_sample_panics() {
        let _ = analyze(&[], &registry());
    }
}
