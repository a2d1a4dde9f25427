//! The structured path is the stored path, bit for bit: samples drawn as
//! table indices by [`TraceGenerator::draw`] and folded by
//! [`ProfileAccumulator::push_sample`] or [`FoldedStacks`] give the same
//! report and the same folded lines as `analyze` and `to_folded` over
//! `generate`, and each drawn sample carries the registry's tags of the
//! frames it renders to.

use accelerometer_fleet::{CpuGeneration, LeafCategory, ServiceId, ServiceRegistry};
use accelerometer_profiler::{
    analyze, to_folded, FoldedStacks, FunctionRegistry, ProfileAccumulator, ProfileReport,
    TraceGenerator,
};

/// Every number in a report, as bits, labelled by its category.
fn bits(report: &ProfileReport) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    out.extend(
        report
            .leaf
            .iter()
            .map(|(c, p)| (format!("leaf {c:?}"), p.to_bits())),
    );
    out.extend(
        report
            .functionality
            .iter()
            .map(|(c, p)| (format!("func {c:?}"), p.to_bits())),
    );
    out.extend(
        report
            .leaf_ipc
            .iter()
            .map(|(c, v)| (format!("leaf ipc {c:?}"), v.to_bits())),
    );
    out.extend(
        report
            .functionality_ipc
            .iter()
            .map(|(c, v)| (format!("func ipc {c:?}"), v.to_bits())),
    );
    out.extend(
        report
            .memory_ops
            .iter()
            .map(|(op, p)| (format!("memory {op:?}"), p.to_bits())),
    );
    out.push(("total cycles".to_owned(), report.total_cycles.to_bits()));
    out.push(("samples".to_owned(), report.samples as u64));
    out
}

#[test]
fn streamed_samples_match_the_stored_pipeline() {
    let services = ServiceRegistry::builtin();
    let tagger = FunctionRegistry::with_defaults();
    for id in ServiceId::ALL {
        for generation in [CpuGeneration::GenA, CpuGeneration::GenC] {
            for seed in [7, 42] {
                for samples in [1, 2, 5_000] {
                    let label = format!("{id:?} {generation:?} seed {seed} samples {samples}");
                    let generator = || {
                        TraceGenerator::for_service(&services, id, seed).on_generation(generation)
                    };
                    let mut stored = generator();
                    let traces = stored.generate(samples);

                    // Drawn in lockstep with the stored traces: the same
                    // RNG calls in the same order.
                    let mut drawn = generator();
                    let mut profile = ProfileAccumulator::default();
                    let mut stacks = FoldedStacks::new(&drawn);
                    for trace in &traces {
                        let sample = drawn.draw();
                        let leaf = tagger.tag_leaf(trace.leaf());
                        let op = if leaf == LeafCategory::Memory {
                            tagger.tag_memory_op(trace.leaf())
                        } else {
                            None
                        };
                        assert_eq!(sample.leaf, leaf, "{label}");
                        assert_eq!(sample.memory_op, op, "{label}");
                        assert_eq!(
                            sample.functionality,
                            tagger.bucket_root(trace.root()),
                            "{label}"
                        );
                        assert_eq!(sample.cycles.to_bits(), trace.cycles.to_bits(), "{label}");
                        assert_eq!(
                            sample.instructions.to_bits(),
                            trace.instructions.to_bits(),
                            "{label}"
                        );
                        profile.push_sample(&sample);
                        stacks.push_sample(&sample);
                    }
                    assert_eq!(
                        bits(&profile.finish()),
                        bits(&analyze(&traces, stored.registry())),
                        "{label}"
                    );
                    assert_eq!(stacks.finish(), to_folded(&traces), "{label}");
                }
            }
        }
    }
}
