//! The streaming path is the stored path, bit for bit: samples drawn
//! into one reused buffer and folded by [`ProfileAccumulator`] or
//! [`FoldedStacks`] give the same report and the same folded lines as
//! `analyze` and `to_folded` over `generate`. The tag cache is checked
//! against the uncached tagger on traces mixing borrowed, owned, unknown
//! and repeated frames.

use std::borrow::Cow;
use std::collections::BTreeMap;

use accelerometer_fleet::{ServiceId, ServiceRegistry};
use accelerometer_profiler::{
    analyze, to_folded, CallTrace, FoldedStacks, FunctionRegistry, ProfileAccumulator,
    ProfileReport, TraceGenerator,
};
use proptest::prelude::*;

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
    for id in ServiceId::ALL {
        for seed in [7, 42] {
            for samples in [1, 2, 5_000] {
                let label = format!("{id:?} seed {seed} samples {samples}");
                let mut stored = TraceGenerator::for_service(&services, id, seed);
                let traces = stored.generate(samples);

                let mut streamed = TraceGenerator::for_service(&services, id, seed);
                let registry = streamed.registry().clone();
                let mut profile = ProfileAccumulator::new(&registry);
                let mut stacks = FoldedStacks::default();
                let mut trace = CallTrace::default();
                for expected in &traces {
                    streamed.sample_into(&mut trace);
                    assert_eq!(trace.frames, expected.frames, "{label}");
                    assert_eq!(trace.cycles.to_bits(), expected.cycles.to_bits(), "{label}");
                    assert_eq!(
                        trace.instructions.to_bits(),
                        expected.instructions.to_bits(),
                        "{label}"
                    );
                    profile.push(&trace);
                    stacks.push(&trace);
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

/// The collapsed-stack fold as it was before it streamed: one joined
/// `String` per trace.
fn joined_fold(traces: &[CallTrace]) -> String {
    let mut stacks: BTreeMap<String, f64> = BTreeMap::new();
    for trace in traces {
        *stacks.entry(trace.frames.join(";")).or_insert(0.0) += trace.cycles;
    }
    let mut out = String::new();
    for (stack, cycles) in stacks {
        let weight = cycles.round() as u64;
        if weight > 0 {
            out.push_str(&format!("{stack} {weight}\n"));
        }
    }
    out
}

/// Known leaves (memory and not), known roots, an intermediate frame and
/// symbols the registry does not know. Some share a length but not a
/// tag, so a cache keyed on less than the address would mix them up.
const SYMBOLS: [&str; 12] = [
    "memcpy",
    "memset",
    "strcmp",
    "free",
    "operator new",
    "tcp_sendmsg",
    "svc::log::handle_request",
    "svc::app::handle_request",
    "svc::io::serve",
    "rpc::layer_0::dispatch",
    "mystery_fn",
    "",
];

/// How a frame is held: borrowed from `SYMBOLS`, borrowed from a second
/// static copy of the same bytes (another address), or owned.
fn frame(symbol: usize, holding: usize, copies: &[&'static str]) -> Cow<'static, str> {
    match holding {
        0 => Cow::Borrowed(SYMBOLS[symbol]),
        1 => Cow::Borrowed(copies[symbol]),
        _ => Cow::Owned(SYMBOLS[symbol].to_owned()),
    }
}

fn trace_strategy() -> impl Strategy<Value = (Vec<(usize, usize)>, f64, f64)> {
    (
        prop::collection::vec((0..SYMBOLS.len(), 0usize..3), 1..5),
        0.0..5_000.0,
        0.0..3.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cached tags equal the tagger's: the same traces with every frame
    /// owned (so tagged afresh each time) give the same report bits, and
    /// the streamed fold equals the joined one.
    #[test]
    fn tag_cache_matches_the_uncached_tagger(
        drawn in prop::collection::vec(trace_strategy(), 1..200),
    ) {
        let copies: Vec<&'static str> =
            SYMBOLS.iter().map(|s| &*String::leak((*s).to_owned())).collect();
        let traces: Vec<CallTrace> = drawn
            .iter()
            .map(|(frames, cycles, ipc)| {
                let frames = frames.iter().map(|&(s, h)| frame(s, h, &copies)).collect();
                CallTrace::new(frames, *cycles, cycles * ipc)
            })
            .collect();
        let owned: Vec<CallTrace> = traces
            .iter()
            .map(|t| {
                let frames: Vec<String> = t.frames.iter().map(|f| f.to_string()).collect();
                CallTrace::new(frames, t.cycles, t.instructions)
            })
            .collect();
        let registry = FunctionRegistry::with_defaults();
        prop_assert_eq!(bits(&analyze(&traces, &registry)), bits(&analyze(&owned, &registry)));
        prop_assert_eq!(to_folded(&traces), joined_fold(&traces));
    }
}
