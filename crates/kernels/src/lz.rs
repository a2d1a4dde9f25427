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
/// table in O(1) — each call sees exactly the fresh-table semantics of
/// the allocating [`compress`], and the emitted token stream is
/// byte-identical (the `lz_golden` fixture pins it).
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

/// Head-table strategy for [`compress_core`]. The one-shot path uses a
/// plain position table (`usize::MAX` = empty slot); the reusable
/// scratch path a generation-tagged table. Generic rather than unified
/// so each monomorphization keeps its probe at one load and its insert
/// at one store — the tag check is not free, and the one-shot bench
/// must not pay for the scratch path's O(1) reset.
trait HeadTable {
    /// Returns the previous position recorded for hash `h`
    /// (`usize::MAX` if none) and records `pos` as the new head.
    fn swap(&mut self, h: usize, pos: usize) -> usize;
    /// Records `pos` as the head for hash `h`.
    fn insert(&mut self, h: usize, pos: usize);
}

/// Fresh per-call table: the position itself, `usize::MAX` when empty.
/// The fixed-size array reference keeps every `HASH_BITS`-bit index
/// provably in bounds.
struct FreshHead<'a>(&'a mut [usize; 1 << HASH_BITS]);

impl HeadTable for FreshHead<'_> {
    #[inline]
    fn swap(&mut self, h: usize, pos: usize) -> usize {
        let candidate = self.0[h];
        self.0[h] = pos;
        candidate
    }

    #[inline]
    fn insert(&mut self, h: usize, pos: usize) {
        self.0[h] = pos;
    }
}

/// Generation-tagged view over an [`LzScratch`] table (tag pre-shifted
/// into the high 32 bits; see [`LzScratch`]).
struct TaggedHead<'a> {
    head: &'a mut [u64; 1 << HASH_BITS],
    tag: u64,
}

impl HeadTable for TaggedHead<'_> {
    #[inline]
    fn swap(&mut self, h: usize, pos: usize) -> usize {
        let slot = self.head[h];
        self.head[h] = self.tag | pos as u64;
        if slot & SLOT_TAG_MASK == self.tag {
            slot as u32 as usize
        } else {
            usize::MAX
        }
    }

    #[inline]
    fn insert(&mut self, h: usize, pos: usize) {
        self.head[h] = self.tag | pos as u64;
    }
}

/// Compresses `input`, returning the token stream. Uses the AVX2
/// matcher when [`crate::dispatch`] reports it; the stream is
/// byte-identical either way.
#[must_use]
pub fn compress(input: &[u8]) -> Vec<u8> {
    compress_with(input, crate::dispatch::has(crate::dispatch::AVX2))
}

/// Compresses `input` on the scalar reference path, regardless of the
/// dispatch mode — the explicit "unaccelerated host" baseline the
/// equivalence tests and the calibrator's paired measurements use.
#[must_use]
pub fn compress_scalar(input: &[u8]) -> Vec<u8> {
    compress_with(input, false)
}

fn compress_with(input: &[u8], avx2: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let head: &mut [usize; 1 << HASH_BITS] = (&mut head[..])
        .try_into()
        .expect("table has 1 << HASH_BITS slots");
    compress_core(input, &mut FreshHead(head), &mut out, avx2);
    out
}

/// Compresses `input` into `out` (cleared first) using a reusable
/// [`LzScratch`] — the allocation-free path for a request loop that
/// compresses many payloads. The token stream is byte-identical to
/// [`compress`]'s: both run [`compress_core`] over an initially-empty
/// head table.
pub fn compress_into(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>) {
    compress_into_with(input, scratch, out, crate::dispatch::has(crate::dispatch::AVX2));
}

/// [`compress_into`] pinned to the scalar matcher regardless of the
/// dispatch mode — the same driver, so the calibrator's paired
/// scalar-vs-dispatched measurements differ only in the match kernel.
/// The stream stays byte-identical to every other entry point's.
pub fn compress_into_scalar(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>) {
    compress_into_with(input, scratch, out, false);
}

fn compress_into_with(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>, avx2: bool) {
    out.clear();
    let tag = scratch.begin();
    // Fixed-size view: `hash4` yields `HASH_BITS`-bit indices, so with
    // the length in the type every table access is provably in bounds.
    let head: &mut [u64; 1 << HASH_BITS] = (&mut scratch.head[..])
        .try_into()
        .expect("table has 1 << HASH_BITS slots");
    compress_core(input, &mut TaggedHead { head, tag }, out, avx2);
}

/// The greedy matcher shared by [`compress`] and [`compress_into`]:
/// everything except the head-table representation, so the two public
/// entry points cannot drift apart.
fn compress_core<T: HeadTable>(input: &[u8], head: &mut T, out: &mut Vec<u8>, avx2: bool) {
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
            let candidate = head.swap(h, pos);
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
                        head.insert(hashes[(k % 2) * 4 + k / 2] as usize, p + 2 * k);
                    }
                    p += 16;
                }
            }
            while p + MIN_MATCH <= input.len() && p < end {
                head.insert(hash4(&input[p..]), p);
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

/// Decompresses a token stream produced by [`compress`].
///
/// # Errors
///
/// Returns a [`DecompressError`] if the stream is truncated or contains
/// invalid tokens; a valid stream from [`compress`] always round-trips.
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

    /// Compressed over original length (lower is better).
    fn compression_ratio(input: &[u8]) -> f64 {
        compress(input).len() as f64 / input.len() as f64
    }

    fn round_trip(data: &[u8]) {
        let compressed = compress(data);
        let back = decompress(&compressed).expect("round trip must decode");
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
        let compressed = compress(&data);
        assert!(compressed.len() < 50);
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
        let compressed = compress(b"hello hello hello hello hello");
        for cut in 1..compressed.len() {
            // Every strict prefix must either fail or decode to a prefix;
            // it must never panic.
            let _ = decompress(&compressed[..cut]);
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
    fn scratch_reuse_is_byte_identical_to_fresh() {
        // Interleave dissimilar inputs through one scratch: stale table
        // entries from earlier calls must never leak into a later stream.
        let inputs: Vec<Vec<u8>> = vec![
            b"abcdefgh".repeat(200),
            (0u32..4096).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect(),
            vec![b'a'; 1000],
            b"the quick brown fox ".repeat(64),
            Vec::new(),
            b"abcdefgh".repeat(200),
        ];
        let mut scratch = LzScratch::new();
        let mut out = Vec::new();
        for input in &inputs {
            compress_into(input, &mut scratch, &mut out);
            assert_eq!(out, compress(input), "scratch stream diverged");
            assert_eq!(&decompress(&out).expect("round trip"), input);
        }
    }

    #[test]
    fn dispatched_stream_matches_scalar_stream() {
        // The full adversarial-size sweep lives in the simd_equivalence
        // integration tests; this pins the basics in-crate.
        for data in [
            b"abcdefgh".repeat(500),
            b"the quick brown fox jumps over the lazy dog ".repeat(100),
            vec![b'a'; 1000],
            (0u32..8192).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect(),
        ] {
            assert_eq!(compress(&data), compress_scalar(&data));
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
        assert_eq!(out, compress(&data));
        // And the next call still matches.
        compress_into(&data, &mut scratch, &mut out);
        assert_eq!(out, compress(&data));
    }
}
