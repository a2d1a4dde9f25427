//! # accelerometer-kernels
//!
//! From-scratch software implementations of the kernels the Accelerometer
//! paper studies as acceleration targets, plus the micro-benchmark
//! harness §4 uses to derive model parameters:
//!
//! * [`aes`] — AES-128 + CTR mode (the AES-NI case study's kernel);
//! * [`lz`] — an LZ77-style compressor (the ZSTD/compression kernel);
//! * [`mlp`] — multilayer-perceptron inference (the Feed/Ads ML kernel);
//! * [`alloc`] — a TCMalloc-style size-class allocator with sized and
//!   unsized free paths (§2.3.1's allocation/free discussion);
//! * [`memops`] — byte-accounted copy/move/set/compare with per-origin
//!   attribution (Figs. 3–4);
//! * [`hash`] — SHA-256 and FNV-1a (the Hashing leaf category);
//! * [`codec`] + [`pipeline`] — an RPC wire codec and the full sender/
//!   receiver orchestration pipeline (serialize → compress → encrypt →
//!   frame) with per-stage byte accounting;
//! * [`kvstore`] — the Cache services' application logic: a sharded,
//!   TTL-aware key-value store served over the pipeline;
//! * [`harness`] — wall-time → cycles measurement to derive `Cb` and `A`;
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
//! // Derive an encryption Cb the way §4 does with micro-benchmarks.
//! let h = Harness::new(2.0e9);
//! let cipher = aes::Aes128::new(&[0u8; 16]);
//! let mut buf = vec![0u8; 4096];
//! let m = h.measure(8, 4096, || cipher.ctr_apply(&[0u8; 16], &mut buf));
//! assert!(m.cycles_per_byte().get() > 0.0);
//! ```

#![warn(missing_docs)]
// `unsafe` is denied workspace-wide (not `forbid`, which would be
// unoverridable): the only allowed exceptions are the `simd` submodules
// below, which call `std::arch` intrinsics behind `#[target_feature]`
// functions that [`dispatch`] guards with runtime feature detection.
#![deny(unsafe_code)]

pub mod aes;
pub mod alloc;
pub mod codec;
pub mod dispatch;
pub mod harness;
pub mod hash;
pub mod kvstore;
pub mod lz;
pub mod memops;
pub mod mlp;
pub mod pipeline;

pub use alloc::{AllocStats, Allocation, SizeClassAllocator};
pub use codec::KvMessage;
pub use kvstore::{KvStats, KvStore};
pub use pipeline::{RpcPipeline, Stage};
pub use harness::{acceleration_factor, BatchedMeasurement, Harness, KernelMeasurement};
pub use hash::Sha256;
pub use lz::LzScratch;
pub use memops::{MemOp, OpCounter};
pub use mlp::{Activation, Layer, Mlp, MlpError, MlpScratch};
