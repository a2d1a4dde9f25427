//! # Accelerometer
//!
//! A Rust implementation of the **Accelerometer** analytical model from
//! *"Accelerometer: Understanding Acceleration Opportunities for Data
//! Center Overheads at Hyperscale"* (Sriraman & Dhanotia, ASPLOS 2020).
//!
//! Accelerometer projects the **throughput speedup** and **per-request
//! latency reduction** a microservice gains from offloading a kernel
//! (compression, encryption, memory copy, ML inference, …) to a hardware
//! accelerator, accounting for the offload-induced overheads that prior
//! models (Amdahl, LogCA) miss when the offload is asynchronous:
//!
//! * the threading design used to offload — [`ThreadingDesign::Sync`],
//!   [`ThreadingDesign::SyncOs`] (thread oversubscription), and the
//!   asynchronous variants;
//! * the acceleration strategy — [`AccelerationStrategy::OnChip`],
//!   [`AccelerationStrategy::OffChip`] (PCIe), and
//!   [`AccelerationStrategy::Remote`] (network);
//! * per-offload overheads: setup `o0`, interface latency `L`, queueing
//!   `Q`, and thread-switch cost `o1` (Table 5 of the paper).
//!
//! ## Quick start
//!
//! Reproduce the paper's AES-NI case study (Table 6, row 1):
//!
//! ```
//! use accelerometer::{AccelerationStrategy, ModelParams, Scenario, ThreadingDesign};
//!
//! let params = ModelParams::builder()
//!     .host_cycles(2.0e9)        // C: one second at the host's busy frequency
//!     .kernel_fraction(0.165844) // α: encryption's share of cycles
//!     .offloads(298_951.0)       // n: encryptions per second
//!     .setup_cycles(10.0)        // o0
//!     .interface_cycles(3.0)     // L
//!     .peak_speedup(6.0)         // A
//!     .build()?;
//! let scenario = Scenario::new(params, ThreadingDesign::Sync, AccelerationStrategy::OnChip);
//! let est = scenario.estimate();
//! assert!((est.throughput_gain_percent() - 15.7).abs() < 0.1);
//! # Ok::<(), accelerometer::ModelError>(())
//! ```
//!
//! For end-to-end projections from a profiled workload — break-even
//! granularity, lucrative-offload selection, and the model evaluation —
//! see [`project`] and the [`projection`] module. For the validation
//! substrate (discrete-event simulation, synthetic profiling, workload
//! datasets) see the companion crates `accelerometer-sim`,
//! `accelerometer-profiler`, and `accelerometer-fleet`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod amdahl;
pub mod bounds;
pub mod breakeven;
pub mod complexity;
pub mod config;
pub mod error;
pub mod exec;
pub mod granularity;
pub mod model;
pub mod params;
pub mod projection;
pub mod queueing;
pub mod slo;
pub mod strategy;
pub mod sweep;
pub mod threading;
pub mod timeline;
pub mod units;

pub use bounds::{diagnose, BoundReport, BoundTerm};
pub use breakeven::{throughput_breakeven, BreakEven, OffloadContext};
pub use complexity::{Complexity, KernelCost};
pub use config::{ConfigFile, ScenarioConfig};
pub use error::{ModelError, Result};
pub use granularity::{select_lucrative, GranularityCdf, GranularitySampler, LucrativeSelection};
pub use model::{estimate, estimate_with_faults, DriverMode, Estimate, Scenario};
pub use params::{ModelParams, ModelParamsBuilder, OffloadOverheads};
pub use projection::{project, AcceleratorSpec, KernelProfile, OffloadPolicy, Projection};
pub use slo::LatencySlo;
pub use strategy::AccelerationStrategy;
pub use threading::ThreadingDesign;
pub use timeline::{Timeline, TimelineSpec};
pub use units::{Bytes, Cycles, CyclesPerByte};
