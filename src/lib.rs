//! # accelerometer-suite
//!
//! The umbrella crate of the Accelerometer (ASPLOS 2020) reproduction:
//! re-exports every component crate and hosts the runnable examples and
//! cross-crate integration tests.
//!
//! | Crate | Role |
//! |---|---|
//! | [`model`] (`accelerometer`) | The analytical model — the paper's contribution |
//! | [`fleet`] | Calibrated workload characterization datasets (§2) |
//! | [`kernels`] | From-scratch software kernels (AES, LZ, MLP, SHA-256, …) |
//! | [`profiler`] | Synthetic Strobelight: traces → breakdowns |
//! | [`sim`] | Discrete-event microservice simulator + A/B harness (§4) |
//! | [`bench`](mod@bench) | Table/figure regeneration + Criterion benchmarks |
//! | [`cli`] | `accelctl`, the artifact workflow |
//!
//! ```
//! use accelerometer_suite::model::{ModelParams, Scenario, ThreadingDesign, AccelerationStrategy};
//!
//! let params = ModelParams::builder()
//!     .host_cycles(2.0e9)
//!     .kernel_fraction(0.165844)
//!     .offloads(298_951.0)
//!     .setup_cycles(10.0)
//!     .interface_cycles(3.0)
//!     .peak_speedup(6.0)
//!     .build()?;
//! let est = Scenario::new(params, ThreadingDesign::Sync, AccelerationStrategy::OnChip).estimate();
//! assert!((est.throughput_gain_percent() - 15.7).abs() < 0.1);
//! # Ok::<(), accelerometer_suite::model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use accelerometer as model;
pub use accelerometer_bench as bench;
pub use accelerometer_cli as cli;
pub use accelerometer_fleet as fleet;
pub use accelerometer_kernels as kernels;
pub use accelerometer_profiler as profiler;
pub use accelerometer_sim as sim;
