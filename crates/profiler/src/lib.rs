//! # accelerometer-profiler
//!
//! A synthetic reconstruction of the paper's characterization pipeline
//! (§2.2): Strobelight-style call-trace sampling, the internal tagging
//! tool that classifies leaf functions (Table 2), the bucketer that
//! pools call traces into microservice functionalities (Table 3), and
//! the aggregator that produces cycle breakdowns and per-category IPC.
//!
//! Production traffic is replaced by a [`generate::TraceGenerator`]
//! driven by the calibrated service profiles in `accelerometer-fleet`;
//! the statistical contract — tested in this crate's integration suite —
//! is that analyzing a large generated sample reconstructs the ground-
//! truth profile's marginals and IPC tables.
//!
//! Like the paper's aggregation, the pipeline keeps sums, not stacks,
//! and its strings appear only at render. [`TraceGenerator::draw`]
//! returns a structured [`Sample`] whose tags the generator resolved
//! once per frame when it was built; [`ProfileAccumulator`] adds it to
//! dense per-category sums, and [`FoldedStacks`] (flamegraph export) to
//! a dense per-stack array whose lines are rendered once at the end. So
//! memory does not grow with the sample count. [`TraceGenerator::generate`]
//! renders the same draws as [`CallTrace`]s, and [`analyze`] and
//! [`to_folded`] fold a stored slice of them, tagging each trace's
//! strings: the oracles the streaming path is checked against.
//!
//! ```
//! use accelerometer_fleet::{profile, ServiceId};
//! use accelerometer_profiler::{analyze, TraceGenerator};
//!
//! let mut sampler = TraceGenerator::new(profile(ServiceId::Web), 42);
//! let traces = sampler.generate(2_000);
//! let report = analyze(&traces, sampler.registry());
//! // Web's orchestration share dominates (Fig. 1).
//! assert!(report.orchestration_percent() > 60.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod fold;
pub mod generate;
pub mod registry;
pub mod trace;

pub use analyze::{analyze, ProfileAccumulator, ProfileReport};
pub use fold::{to_folded, FoldedStacks};
pub use generate::{default_leaf_ipc, Sample, TraceGenerator};
pub use registry::FunctionRegistry;
pub use trace::CallTrace;
