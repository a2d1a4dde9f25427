//! # accelerometer-sim
//!
//! A discrete-event microservice simulator providing the *measurement*
//! substrate for the Accelerometer reproduction: where the paper A/B
//! tests accelerators on production servers (§4), this crate A/B tests
//! them on a simulated host — cores, an oversubscribed thread pool, a
//! scheduler that charges real context-switch cycles, and accelerator
//! devices (per-core, shared-FIFO, or remote-unlimited) whose queueing
//! emerges from load.
//!
//! The simulator executes the offload state machines of Figs. 12–14 at
//! per-request granularity with kernel sizes drawn from measured CDFs,
//! so its A/B throughput ratio plays the role of the paper's "real
//! speedup" when validating the analytical model.
//!
//! ```
//! use accelerometer_sim::{run_ab_batch, DeviceKind, ExecPool, OffloadConfig, SimConfig};
//! use accelerometer_sim::workload::WorkloadSpec;
//! use accelerometer::units::cycles_per_byte;
//! use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
//!
//! let control = SimConfig {
//!     cores: 2,
//!     threads: 2,
//!     context_switch_cycles: 0.0,
//!     horizon: 1e7,
//!     seed: 1,
//!     workload: WorkloadSpec {
//!         non_kernel_cycles: 4_000.0,
//!         kernels_per_request: 1,
//!         granularity: GranularityCdf::from_points(vec![(512.0, 1.0)])?,
//!         cycles_per_byte: cycles_per_byte(4.0),
//!     },
//!     offload: None,
//!     fault: Default::default(),
//!     recovery: Default::default(),
//! };
//! // An 8x on-chip accelerator with no offload overheads.
//! let offload = OffloadConfig {
//!     design: ThreadingDesign::Sync,
//!     strategy: AccelerationStrategy::OnChip,
//!     driver: DriverMode::Posted,
//!     device: DeviceKind::PerCore,
//!     peak_speedup: 8.0,
//!     interface_latency: 0.0,
//!     setup_cycles: 0.0,
//!     dispatch_pollution: 0.0,
//!     min_offload_bytes: None,
//! };
//! // One A/B pair on one worker: both arms share one sampled request
//! // stream.
//! let results = run_ab_batch(&ExecPool::new(1), &[(control, offload)])?;
//! assert!(results[0].speedup() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abtest;
pub mod calibrate;
pub mod casestudy;
pub mod context;
pub mod device;
pub mod engine;
mod equeue;
pub mod error;
pub mod fault;
pub mod faultsweep;
pub mod loadsweep;
pub mod metrics;
pub mod parallel;
pub mod shard;
pub mod time;
pub mod trace;
pub mod workload;

pub use abtest::{ab_arms, run_ab_batch, AbResult};
pub use calibrate::{CalibratedKernel, Calibrator, PairedKernel};
pub use casestudy::{simulate, validate_all_with, CaseStudyValidation, CASE_STUDY_NAMES};
pub use context::RunContext;
pub use device::{Device, DeviceKind};
pub use error::SimError;
pub use fault::{DegradationWindow, FaultPlan, RecoveryPolicy};
pub use faultsweep::{
    run_fault_sweep_with, validate_fallback_with,
    FallbackValidationRow, FaultModelCheck, FaultScenario, FaultSweepReport, NamedPolicy,
    PolicyOutcome, FALLBACK_VALIDATION_PROBABILITIES,
};
pub use loadsweep::{concurrency_sweep_with, ConcurrencySweep, LoadPoint};
pub use engine::{EngineStats, OffloadConfig, SimConfig, Simulator};
pub use metrics::{FaultMetrics, LatencyStats, SimMetrics};
pub use parallel::{derive_seed, run_batch, ExecPool};
pub use shard::{
    default_shards, run_sharded, run_sharded_instrumented, set_default_shards, ShardPlan,
    ShardStats,
};
pub use time::SimTime;
pub use trace::{set_trace_reuse, trace_reuse_enabled, FrozenTrace, TraceStore};
