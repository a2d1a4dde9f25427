//! An LZ77-style compressor/decompressor: the software baseline for the
//! paper's compression kernel (ZSTD leaves; §5's Feed1/Cache1
//! compression study).
//!
//! The format is deliberately simple — greedy hash-chain matching over a
//! 64 KiB window, with a byte-oriented token stream — because the model
//! only needs a *representative* per-byte cost and an exactly-invertible
//! round trip, not a competitive ratio.
//!
//! Token stream format:
//! * `0x00 len  <len raw bytes>` — a literal run, `1 ≤ len ≤ 255`;
//! * `0x01 len  d_hi d_lo` — a match of `len` (4–255) bytes at distance
//!   `d` (1–65535) behind the current position.

use std::fmt;

/// Errors produced while decompressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecompressError {
    /// The stream ended in the middle of a token.
    Truncated,
    /// A token had an invalid tag byte.
    BadTag(u8),
    /// A match referred back past the start of the output.
    BadDistance {
        /// The (invalid) back-reference distance.
        distance: usize,
        /// Bytes produced so far.
        produced: usize,
    },
    /// A zero-length literal or match.
    EmptyToken,
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream is truncated"),
            DecompressError::BadTag(t) => write!(f, "invalid token tag {t:#04x}"),
            DecompressError::BadDistance { distance, produced } => {
                write!(f, "match distance {distance} exceeds produced bytes {produced}")
            }
            DecompressError::EmptyToken => write!(f, "zero-length token"),
        }
    }
}

impl std::error::Error for DecompressError {}

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const MAX_LITERAL_RUN: usize = 255;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8]) -> usize {
    // A single 4-byte slice keeps this one bounds check and one 32-bit
    // load; indexing the four bytes separately leaves a check per byte,
    // which blocks load merging in the match-skip insertion loop.
    let v = u32::from_le_bytes(data[..4].try_into().expect("4-byte slice"));
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[candidate..]` and
/// `input[pos..]`, capped at `max_len`.
///
/// When `avx2` is set (the caller hoists the [`crate::dispatch`] check
/// out of the hot loop), extension runs 32 bytes per step on the AVX2
/// path; either way the result is the longest common prefix, capped —
/// exactly what the byte-at-a-time loop computes — so the emitted token
/// stream is byte-identical; the `lz_golden` fixture test pins that.
///
/// Caller guarantees `candidate < pos` and `pos + max_len <=
/// input.len()`, so every wide load below stays in bounds.
#[inline]
fn match_length(input: &[u8], candidate: usize, pos: usize, max_len: usize, avx2: bool) -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only set after runtime AVX2 detection, and
        // the caller's bounds contract covers every 32-byte load.
        #[allow(unsafe_code)]
        return unsafe { simd::match_length(input, candidate, pos, max_len) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx2;
    match_length_from(input, candidate, pos, max_len, 0)
}

/// Scalar match extension from an already-matched prefix of `start`
/// bytes: eight bytes per step by comparing `u64` words; on the first
/// differing word, the trailing zeros of the XOR locate the exact first
/// differing byte (little-endian loads put the lowest-addressed byte in
/// the least significant position). Also the tail the AVX2 path falls
/// into once fewer than 32 bytes remain.
#[inline]
fn match_length_from(input: &[u8], candidate: usize, pos: usize, max_len: usize, start: usize) -> usize {
    let mut len = start;
    while len + 8 <= max_len {
        let a = u64::from_le_bytes(
            input[candidate + len..candidate + len + 8]
                .try_into()
                .expect("8-byte slice"),
        );
        let b = u64::from_le_bytes(input[pos + len..pos + len + 8].try_into().expect("8-byte slice"));
        let diff = a ^ b;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max_len && input[candidate + len] == input[pos + len] {
        len += 1;
    }
    len
}

/// AVX2 helpers for the matcher. Both are *strategy-preserving*: they
/// compute exactly the values the scalar code computes (same match
/// lengths, same hash values, same table-insertion order), so every
/// token stream stays byte-identical across ISA tiers.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_mullo_epi32,
        _mm256_set1_epi32, _mm256_set_m128i, _mm256_srli_epi32, _mm256_storeu_si256,
        _mm_loadu_si128,
    };

    use super::HASH_BITS;

    /// 32-bytes-per-step match extension. `cmpeq`+`movemask` yields an
    /// equality bitmap per 32-byte window; the first zero bit (trailing
    /// zeros of the complement) is the exact first differing byte, so
    /// the result equals the scalar longest-common-prefix byte for byte.
    ///
    /// # Safety
    /// Caller must have verified AVX2 at runtime and guarantee
    /// `candidate < pos` and `pos + max_len <= input.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn match_length(input: &[u8], candidate: usize, pos: usize, max_len: usize) -> usize {
        let base = input.as_ptr();
        let mut len = 0;
        while len + 32 <= max_len {
            let diff = unsafe {
                let a = _mm256_loadu_si256(base.add(candidate + len).cast());
                let b = _mm256_loadu_si256(base.add(pos + len).cast());
                !(_mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)) as u32)
            };
            if diff != 0 {
                return len + diff.trailing_zeros() as usize;
            }
            len += 32;
        }
        super::match_length_from(input, candidate, pos, max_len, len)
    }

    /// [`super::hash4`] of the eight stride-2 positions `p, p+2, ...,
    /// p+14` in one shot: two overlapping 16-byte loads provide the
    /// eight little-endian `u32`s, and `mullo`/`srli` reproduce the
    /// scalar `wrapping_mul` / shift exactly. `out[0..4]` holds the
    /// hashes of `p, p+4, p+8, p+12` and `out[4..8]` those of `p+2,
    /// p+6, p+10, p+14` (the low/high loads in lane order).
    ///
    /// # Safety
    /// Caller must have verified AVX2 at runtime and guarantee
    /// `p + 18 <= input.len()` (the upper load reads `p+2..p+18`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn hash8_stride2(input: &[u8], p: usize, out: &mut [u32; 8]) {
        let h = unsafe {
            let lo = _mm_loadu_si128(input.as_ptr().add(p).cast());
            let hi = _mm_loadu_si128(input.as_ptr().add(p + 2).cast());
            let v = _mm256_set_m128i(hi, lo);
            _mm256_srli_epi32(
                _mm256_mullo_epi32(v, _mm256_set1_epi32(0x9E37_79B1u32 as i32)),
                32 - HASH_BITS as i32,
            )
        };
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), h) };
    }
}

/// Reusable compressor state: the hash-chain head table, stamped with a
/// generation counter so reuse needs no 256 KiB table refill.
///
/// A slot is live only if its stamp matches the current generation, so
/// bumping the generation in [`compress_into`] invalidates the whole
/// table in O(1): each call sees an empty table, and the emitted token
/// stream does not depend on what the scratch compressed before (the
/// `lz_golden` fixture test runs its corpora through one scratch).
#[derive(Debug, Clone)]
pub struct LzScratch {
    /// Packed slots: generation stamp in the high 32 bits, position in
    /// the low 32. One cache line per probe — splitting the stamp into
    /// a side table would double the random-access traffic. Positions
    /// past 4 GiB wrap, which only costs missed matches: every candidate
    /// is byte-verified and window-checked before a token is emitted.
    head: Vec<u64>,
    generation: u32,
}

impl Default for LzScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl LzScratch {
    /// Creates an empty scratch. The table is lazily zero-paged; no
    /// eager 256 KiB fill.
    #[must_use]
    pub fn new() -> Self {
        Self {
            head: vec![0; 1 << HASH_BITS],
            generation: 0,
        }
    }

    /// Starts a new compression: invalidates every slot in O(1) and
    /// returns the generation tag for the new call (the stamp,
    /// pre-shifted into the high 32 bits).
    ///
    /// Generation 0 is never active (the first `begin` yields 1), so
    /// the zero-initialized table starts fully invalid.
    fn begin(&mut self) -> u64 {
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Stamp wrap: stale stamps could collide, so refill once
                // every 2^32 calls.
                self.head.fill(0);
                1
            }
        };
        u64::from(self.generation) << 32
    }
}

const SLOT_TAG_MASK: u64 = 0xffff_ffff_0000_0000;

/// Compresses `input` into `out` (cleared first) using a reusable
/// [`LzScratch`]: the allocation-free path for a request loop that
/// compresses many payloads. Uses the AVX2 matcher when
/// [`crate::dispatch`] reports it; the stream is byte-identical either
/// way.
pub fn compress_into(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>) {
    compress_into_with(input, scratch, out, crate::dispatch::has(crate::dispatch::AVX2));
}

/// [`compress_into`] pinned to the scalar matcher regardless of the
/// dispatch mode: the unaccelerated-host baseline. It is the same
/// driver, so the calibrator's paired scalar-vs-dispatched measurements
/// differ only in the match kernel, and it is the oracle the
/// equivalence tests compare the dispatched stream against.
pub fn compress_into_scalar(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>) {
    compress_into_with(input, scratch, out, false);
}

/// The greedy matcher over the generation-tagged head table.
fn compress_into_with(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>, avx2: bool) {
    out.clear();
    let tag = scratch.begin();
    // Fixed-size view: `hash4` yields `HASH_BITS`-bit indices, so with
    // the length in the type every table access is provably in bounds.
    let head: &mut [u64; 1 << HASH_BITS] = (&mut scratch.head[..])
        .try_into()
        .expect("table has 1 << HASH_BITS slots");
    let mut literal_start = 0usize;
    let mut pos = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut start = from;
        while start < to {
            let run = (to - start).min(MAX_LITERAL_RUN);
            out.extend_from_slice(&[0x00, run as u8]);
            out.extend_from_slice(&input[start..start + run]);
            start += run;
        }
    };

    while pos < input.len() {
        let remaining = input.len() - pos;
        let mut matched = None;
        if remaining >= MIN_MATCH {
            let h = hash4(&input[pos..]);
            let slot = head[h];
            head[h] = tag | pos as u64;
            // A slot stamped by an earlier call is empty for this one.
            let candidate = if slot & SLOT_TAG_MASK == tag {
                slot as u32 as usize
            } else {
                usize::MAX
            };
            if candidate != usize::MAX && pos - candidate < WINDOW {
                let max_len = remaining.min(MAX_MATCH);
                let len = match_length(input, candidate, pos, max_len, avx2);
                if len >= MIN_MATCH {
                    matched = Some((pos - candidate, len));
                }
            }
        }
        if let Some((distance, len)) = matched {
            flush_literals(out, literal_start, pos);
            // One extend = one capacity check for the whole token.
            out.extend_from_slice(&[0x01, len as u8, (distance >> 8) as u8, (distance & 0xff) as u8]);
            // Index the skipped positions so later matches can refer to
            // them (cheap partial insertion: every other position).
            let end = pos + len;
            let mut p = pos + 1;
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // Eight stride-2 hashes per step; inserted in ascending
                // position order (interleaving the low/high load lanes)
                // so slot overwrites match the scalar loop exactly.
                while p + 14 < end && p + 18 <= input.len() {
                    let mut hashes = [0u32; 8];
                    // SAFETY: AVX2 verified by dispatch; the loop bound
                    // keeps the `p+2..p+18` load in range.
                    #[allow(unsafe_code)]
                    unsafe {
                        simd::hash8_stride2(input, p, &mut hashes);
                    }
                    for k in 0..8 {
                        head[hashes[(k % 2) * 4 + k / 2] as usize] = tag | (p + 2 * k) as u64;
                    }
                    p += 16;
                }
            }
            while p + MIN_MATCH <= input.len() && p < end {
                head[hash4(&input[p..])] = tag | p as u64;
                p += 2;
            }
            pos = end;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(out, literal_start, input.len());
}

/// Decompresses a token stream produced by [`compress_into`].
///
/// # Errors
///
/// Returns a [`DecompressError`] if the stream is truncated or contains
/// invalid tokens; a valid stream from [`compress_into`] always
/// round-trips.
pub fn decompress(compressed: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(compressed.len() * 2);
    let mut pos = 0usize;
    while pos < compressed.len() {
        let tag = compressed[pos];
        match tag {
            0x00 => {
                let len = usize::from(*compressed.get(pos + 1).ok_or(DecompressError::Truncated)?);
                if len == 0 {
                    return Err(DecompressError::EmptyToken);
                }
                let start = pos + 2;
                let end = start + len;
                if end > compressed.len() {
                    return Err(DecompressError::Truncated);
                }
                out.extend_from_slice(&compressed[start..end]);
                pos = end;
            }
            0x01 => {
                if pos + 4 > compressed.len() {
                    return Err(DecompressError::Truncated);
                }
                let len = usize::from(compressed[pos + 1]);
                let distance = usize::from(compressed[pos + 2]) << 8 | usize::from(compressed[pos + 3]);
                if len == 0 {
                    return Err(DecompressError::EmptyToken);
                }
                if distance == 0 || distance > out.len() {
                    return Err(DecompressError::BadDistance {
                        distance,
                        produced: out.len(),
                    });
                }
                // Byte-by-byte so overlapping matches replicate correctly.
                let start = out.len() - distance;
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
                pos += 4;
            }
            other => return Err(DecompressError::BadTag(other)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `input`'s token stream from a fresh scratch.
    fn compressed(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        compress_into(input, &mut LzScratch::new(), &mut out);
        out
    }

    /// Compressed over original length (lower is better).
    fn compression_ratio(input: &[u8]) -> f64 {
        compressed(input).len() as f64 / input.len() as f64
    }

    fn round_trip(data: &[u8]) {
        let back = decompress(&compressed(data)).expect("round trip must decode");
        assert_eq!(back, data, "round trip failed for {} bytes", data.len());
    }

    #[test]
    fn round_trips_basic_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"hello world");
        round_trip(&[0u8; 10_000]);
        round_trip("the quick brown fox jumps over the lazy dog ".repeat(100).as_bytes());
    }

    #[test]
    fn round_trips_incompressible_data() {
        // A pseudo-random byte stream with no 4-byte repeats to speak of.
        let data: Vec<u8> = (0u32..8192)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        round_trip(&data);
    }

    #[test]
    fn compresses_repetitive_data_well() {
        let data = b"abcdefgh".repeat(500);
        let ratio = compression_ratio(&data);
        assert!(ratio < 0.2, "ratio {ratio}");
    }

    #[test]
    fn expands_random_data_only_slightly() {
        let data: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let ratio = compression_ratio(&data);
        assert!(ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn overlapping_matches_replicate() {
        // "aaaaa..." forces distance-1 matches that overlap themselves.
        let data = vec![b'a'; 1000];
        round_trip(&data);
        assert!(compressed(&data).len() < 50);
    }

    #[test]
    fn long_literal_runs_split_at_255() {
        let data: Vec<u8> = (0u32..1000)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        round_trip(&data);
    }

    #[test]
    fn rejects_truncated_streams() {
        let stream = compressed(b"hello hello hello hello hello");
        for cut in 1..stream.len() {
            // Every strict prefix must either fail or decode to a prefix;
            // it must never panic.
            let _ = decompress(&stream[..cut]);
        }
        assert_eq!(decompress(&[0x00]), Err(DecompressError::Truncated));
        assert_eq!(decompress(&[0x01, 5, 0]), Err(DecompressError::Truncated));
    }

    #[test]
    fn rejects_bad_tokens() {
        assert_eq!(decompress(&[0x42]), Err(DecompressError::BadTag(0x42)));
        assert_eq!(decompress(&[0x00, 0]), Err(DecompressError::EmptyToken));
        // Match before any output exists.
        assert!(matches!(
            decompress(&[0x01, 4, 0, 1]),
            Err(DecompressError::BadDistance { .. })
        ));
        // Zero distance.
        assert!(matches!(
            decompress(&[0x00, 1, b'x', 0x01, 4, 0, 0]),
            Err(DecompressError::BadDistance { .. })
        ));
    }

    #[test]
    fn error_display() {
        assert!(DecompressError::Truncated.to_string().contains("truncated"));
        assert!(DecompressError::BadTag(7).to_string().contains("0x07"));
        assert!(DecompressError::BadDistance {
            distance: 9,
            produced: 3
        }
        .to_string()
        .contains('9'));
    }

    #[test]
    fn dispatched_stream_matches_scalar_stream() {
        // The full adversarial-size sweep lives in the simd_equivalence
        // integration tests; this pins the basics in-crate.
        let mut scratch = LzScratch::new();
        let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
        for data in [
            b"abcdefgh".repeat(500),
            b"the quick brown fox jumps over the lazy dog ".repeat(100),
            vec![b'a'; 1000],
            (0u32..8192).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect(),
        ] {
            compress_into(&data, &mut scratch, &mut dispatched);
            compress_into_scalar(&data, &mut scratch, &mut scalar);
            assert_eq!(dispatched, scalar);
        }
    }

    #[test]
    fn scratch_survives_stamp_wrap() {
        let mut scratch = LzScratch::new();
        scratch.generation = u32::MAX;
        let data = b"wrap wrap wrap wrap wrap wrap".repeat(8);
        let mut out = Vec::new();
        compress_into(&data, &mut scratch, &mut out);
        assert_eq!(scratch.generation, 1);
        assert_eq!(out, compressed(&data));
        // And the next call still matches.
        compress_into(&data, &mut scratch, &mut out);
        assert_eq!(out, compressed(&data));
    }
}
