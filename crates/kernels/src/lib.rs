//! # accelerometer-kernels
//!
//! From-scratch software implementations of the case-study kernels the
//! Accelerometer paper accelerates, plus the micro-benchmark harness §4
//! uses to derive model parameters (`accelctl calibrate` times AES-CTR,
//! SHA-256, LZ and the MLP to measure `Cb` and `A`):
//!
//! * [`aes`] — AES-128 + CTR mode (the AES-NI case study's kernel);
//! * [`lz`] — an LZ77-style compressor (the ZSTD/compression kernel);
//! * [`mlp`] — multilayer-perceptron inference (the Feed/Ads ML kernel);
//! * [`hash`] — SHA-256 (the Hashing leaf category);
//! * [`harness`] — batched wall-time → cycles measurement to derive
//!   `Cb` and `A`;
//! * [`dispatch`] — runtime ISA dispatch: kernels use the host's
//!   AES-NI/SHA-NI/AVX2 paths when present (scalar otherwise), and
//!   `KERNELS_FORCE_SCALAR=1` pins a whole process to the scalar
//!   reference tier. Each kernel has one path per tier: its default
//!   entry point dispatches, and its public `*_scalar` twin always runs
//!   the scalar reference, bit-identical to the hardware path. The
//!   scalar tier is the paper's "unaccelerated host" baseline;
//!   `accelctl calibrate` times both entry points in one session to
//!   measure the `A` factor.
//!
//! ```
//! use accelerometer_kernels::{aes, harness::Harness};
//!
//! // Derive an encryption Cb and A the way §4 does with
//! // micro-benchmarks: 4 timer reads of 8 calls each per tier over a
//! // 4 KiB message, the dispatched and scalar tiers taking turns.
//! let h = Harness::new(2.0e9);
//! let cipher = aes::Aes128::new(&[0u8; 16]);
//! let mut buf = vec![0u8; 4096];
//! let [fast, scalar] = h.measure_paired(
//!     4,
//!     8,
//!     4096,
//!     &mut buf,
//!     |buf| cipher.ctr_apply(&[0u8; 16], buf),
//!     |buf| cipher.ctr_apply_scalar(&[0u8; 16], buf),
//! );
//! assert!(fast.cycles_per_byte().get() > 0.0);
//! assert!(scalar.cycles_per_byte().get() > 0.0);
//! ```

#![warn(missing_docs)]
// `unsafe` is denied workspace-wide (not `forbid`, which would be
// unoverridable): the only allowed exceptions are the `simd` submodules
// below, which call `std::arch` intrinsics behind `#[target_feature]`
// functions that [`dispatch`] guards with runtime feature detection.
#![deny(unsafe_code)]

pub mod aes;
pub mod dispatch;
pub mod harness;
pub mod hash;
pub mod lz;
pub mod mlp;

pub use harness::{BatchedMeasurement, Harness};
pub use lz::LzScratch;
pub use mlp::{Activation, Layer, Mlp, MlpError, MlpScratch};
