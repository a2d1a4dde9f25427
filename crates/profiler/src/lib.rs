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
pub mod diff;
pub mod fold;
pub mod generate;
pub mod registry;
pub mod trace;

pub use analyze::{analyze, ProfileReport};
pub use diff::{diff, DiffRow, ReportDiff};
pub use fold::{from_folded, to_folded};
pub use generate::{default_leaf_ipc, TraceGenerator};
pub use registry::FunctionRegistry;
pub use trace::CallTrace;
