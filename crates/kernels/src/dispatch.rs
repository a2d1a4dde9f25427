//! Runtime ISA dispatch for the kernel crate's SIMD paths.
//!
//! The paper's on-chip case study (AES-NI) is an ISA extension: the
//! *measured host baseline* should use the hardware the host actually
//! exposes, and the scalar implementations become the explicit
//! unaccelerated reference the model's `A` factor is measured against.
//! This module centralizes that decision:
//!
//! * Hardware capability is detected **once** per process
//!   (`is_x86_feature_detected!`) and cached in an atomic, so per-call
//!   dispatch is one relaxed load and a branch.
//! * `KERNELS_FORCE_SCALAR=1` in the environment forces every kernel
//!   onto its scalar path for the life of the process — this is how
//!   `scripts/tier1.sh` runs the whole kernel test suite on both tiers.
//! * [`set_isa_mode`] overrides the mode in-process. No command uses
//!   it: the calibrator pairs each kernel's dispatched entry point with
//!   its public `*_scalar` twin instead of flipping the mode, and the
//!   only remaining caller is perfbench's `reset_process_globals`.
//! * On non-x86_64 targets nothing is detected and every kernel runs
//!   its scalar path; the dispatch layer compiles to "always scalar".
//!
//! Every SIMD path in this crate is bit-identical to its scalar
//! reference — same ciphertext, digests, token streams, orderings and
//! f32 bit patterns — so the mode is unobservable in outputs and only
//! changes wall-clock. The `simd_equivalence` integration tests and the
//! forced-scalar tier-1 run hold that line.

use std::sync::atomic::{AtomicU8, Ordering};

/// Feature bit: AES-NI (`aesenc`/`aesenclast`).
pub const AES: u8 = 1 << 0;
/// Feature bit: SHA extensions (`sha256rnds2`/`sha256msg1`/`sha256msg2`).
pub const SHA: u8 = 1 << 1;
/// Feature bit: AVX2 (32-byte integer/float vectors).
pub const AVX2: u8 = 1 << 2;
/// Feature bit: SSE4.1 (`pblendw` et al.; implied baseline for SHA-NI).
pub const SSE41: u8 = 1 << 3;
/// Feature bit: SSSE3 (`pshufb`/`palignr`; byte shuffles for SHA-NI).
pub const SSSE3: u8 = 1 << 4;
/// Feature bit: SSE2 (x86_64 baseline; always set there, so it is part
/// of every x86 ISA summary).
pub const SSE2: u8 = 1 << 5;

/// Marker bit recording that the cached word has been initialized
/// (distinguishes "no features" from "not yet detected").
const INIT: u8 = 1 << 7;

/// Cached *active* feature set: hardware detection masked by the
/// current mode. Recomputed on [`set_isa_mode`]; `0` means "not yet
/// computed" (a computed-empty set still carries [`INIT`]).
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Mode override: 0 = unset (env decides), 1 = auto, 2 = scalar.
static MODE: AtomicU8 = AtomicU8::new(0);

/// How kernels choose between scalar and hardware paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaMode {
    /// Use whatever the CPU exposes (the default).
    Auto,
    /// Force every kernel onto its scalar reference path.
    Scalar,
}

/// Raw hardware detection, independent of any override.
fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        let mut bits = SSE2; // x86_64 baseline, always present.
        if std::arch::is_x86_feature_detected!("aes") {
            bits |= AES;
        }
        if std::arch::is_x86_feature_detected!("sha") {
            bits |= SHA;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            bits |= AVX2;
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            bits |= SSE41;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            bits |= SSSE3;
        }
        bits
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

fn env_forces_scalar() -> bool {
    std::env::var_os("KERNELS_FORCE_SCALAR").is_some_and(|v| v == *"1")
}

/// The mode currently in force: a [`set_isa_mode`] override wins,
/// otherwise `KERNELS_FORCE_SCALAR=1` in the environment, otherwise
/// [`IsaMode::Auto`].
#[must_use]
pub fn isa_mode() -> IsaMode {
    match MODE.load(Ordering::Relaxed) {
        1 => IsaMode::Auto,
        2 => IsaMode::Scalar,
        _ => {
            if env_forces_scalar() {
                IsaMode::Scalar
            } else {
                IsaMode::Auto
            }
        }
    }
}

/// Overrides the dispatch mode process-wide, for all subsequent kernel
/// calls; outputs are bit-identical either way, so flipping mid-run
/// changes only wall-clock. Kept only because perfbench's
/// `reset_process_globals` calls it; the calibrator measures the scalar
/// tier through the `*_scalar` entry points and never sets a mode.
pub fn set_isa_mode(mode: IsaMode) {
    MODE.store(
        match mode {
            IsaMode::Auto => 1,
            IsaMode::Scalar => 2,
        },
        Ordering::Relaxed,
    );
    // Invalidate the cache; the next `active()` recomputes under the
    // new mode.
    ACTIVE.store(0, Ordering::Relaxed);
}

#[cold]
fn init_active() -> u8 {
    let bits = match isa_mode() {
        IsaMode::Auto => detect(),
        IsaMode::Scalar => 0,
    } | INIT;
    ACTIVE.store(bits, Ordering::Relaxed);
    bits
}

/// The active feature bits (hardware detection masked by the mode).
#[inline]
#[must_use]
pub fn active() -> u8 {
    let bits = ACTIVE.load(Ordering::Relaxed);
    if bits & INIT != 0 {
        bits
    } else {
        init_active()
    }
}

/// Whether a feature (one of the bit constants above) is active.
#[inline]
#[must_use]
pub fn has(feature: u8) -> bool {
    active() & feature == feature
}

/// The canonical summary string for a feature word: feature names in a
/// fixed order joined by `+`, or `"scalar"` when nothing is active.
/// `BENCH_*.json` records and `bench_regress.sh` compare these strings,
/// so the format is part of the bench-record contract (the vendored
/// criterion stub renders the same format independently).
#[must_use]
pub fn summary_of(bits: u8) -> String {
    let mut names = Vec::new();
    for (bit, name) in [
        (AES, "aes"),
        (AVX2, "avx2"),
        (SHA, "sha"),
        (SSE2, "sse2"),
        (SSE41, "sse4.1"),
        (SSSE3, "ssse3"),
    ] {
        if bits & bit != 0 {
            names.push(name);
        }
    }
    if names.is_empty() {
        "scalar".to_owned()
    } else {
        names.join("+")
    }
}

/// Summary of the *active* feature set (mode applied) — what the
/// kernels will actually use right now.
#[must_use]
pub fn active_summary() -> String {
    summary_of(active() & !INIT)
}

/// Summary of the raw hardware detection, ignoring any override.
#[must_use]
pub fn detected_summary() -> String {
    summary_of(detect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_formats_are_stable() {
        assert_eq!(summary_of(0), "scalar");
        assert_eq!(summary_of(AES | SHA | AVX2), "aes+avx2+sha");
        assert_eq!(
            summary_of(AES | SHA | AVX2 | SSE2 | SSE41 | SSSE3),
            "aes+avx2+sha+sse2+sse4.1+ssse3"
        );
    }

    #[test]
    fn active_is_detection_under_auto_and_empty_under_scalar() {
        // Note: mode is process-global; this test restores Auto so other
        // tests in this binary observe the default.
        set_isa_mode(IsaMode::Scalar);
        assert_eq!(active() & !INIT, 0);
        assert_eq!(active_summary(), "scalar");
        set_isa_mode(IsaMode::Auto);
        assert_eq!(active() & !INIT, detect());
        #[cfg(target_arch = "x86_64")]
        assert!(has(SSE2), "SSE2 is the x86_64 baseline");
    }

    #[test]
    fn has_requires_all_requested_bits() {
        set_isa_mode(IsaMode::Auto);
        if has(SHA) {
            // SHA-NI machines always carry its SSSE3/SSE4.1 prerequisites.
            assert!(has(SHA | SSSE3 | SSE41));
        }
        assert!(!has(0b0100_0000), "unassigned bit can never be active");
    }
}
