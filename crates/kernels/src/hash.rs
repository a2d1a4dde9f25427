//! Hashing kernel: SHA-256 (FIPS 180-4).
//!
//! The "Hashing" leaf category of Table 2 covers "SHA & other hash
//! algorithms"; SHA-256 is the cryptographic representative (and the
//! paper's SSL category leans on the same family via TLS).
//!
//! On hosts with the SHA extensions ([`crate::dispatch`]), the block
//! compression runs on `sha256rnds2`/`sha256msg1`/`sha256msg2` — the
//! same FIPS 180-4 function evaluated in hardware, so digests are
//! byte-identical to the scalar rendering (which stays reachable as
//! [`sha256_scalar`], the unaccelerated tier the model's `A` factor is
//! measured against).

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// One round of the compression function. The caller rotates the
/// working-variable names instead of shuffling their values, so eight
/// invocations cover a full a→h rotation with zero register moves.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $wk:expr) => {
        let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
        // ch(e,f,g) = (e & f) ^ (!e & g), rewritten to drop the NOT.
        let ch = $g ^ ($e & ($f ^ $g));
        // Balanced add tree: h + wk has no dependency on this round's
        // working variables, so it issues while s1/ch are still in
        // flight — one cycle off the serial e-chain versus the naive
        // left-to-right chain. Wrapping u32 addition is associative, so
        // the value is unchanged.
        let temp1 = ($h.wrapping_add($wk)).wrapping_add(s1.wrapping_add(ch));
        let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
        // maj(a,b,c) = (a & b) ^ (a & c) ^ (b & c), one AND instead of
        // three: any bit where a and b agree wins, else c decides.
        let maj = $c ^ (($a ^ $c) & ($b ^ $c));
        $d = $d.wrapping_add(temp1);
        $h = temp1.wrapping_add(s0.wrapping_add(maj));
    };
}

/// A round at index `$t ≥ 16` that also advances the 16-word rolling
/// message schedule. The schedule recurrence has no dependency on the
/// working variables, so its σ₀/σ₁ arithmetic fills the issue slots the
/// serial a–h chain leaves idle — the structure fast assembly
/// implementations use, expressed in safe Rust.
macro_rules! round_sched {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $t:expr) => {
        let w15 = $w[($t + 1) & 15];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let w2 = $w[($t + 14) & 15];
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        let w = $w[$t & 15]
            .wrapping_add(s0)
            .wrapping_add($w[($t + 9) & 15])
            .wrapping_add(s1);
        $w[$t & 15] = w;
        round!($a, $b, $c, $d, $e, $f, $g, $h, w.wrapping_add(K[$t]));
    };
}

/// As [`round_sched!`], but without storing the schedule word back —
/// for rounds 62–63, where nothing reads it again (word `t` is next
/// read at round `t + 2`).
macro_rules! round_sched_last {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $t:expr) => {
        let w15 = $w[($t + 1) & 15];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let w2 = $w[($t + 14) & 15];
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        let w = $w[$t & 15]
            .wrapping_add(s0)
            .wrapping_add($w[($t + 9) & 15])
            .wrapping_add(s1);
        round!($a, $b, $c, $d, $e, $f, $g, $h, w.wrapping_add(K[$t]));
    };
}

/// Eight name-rotated rounds starting at `$t` (a multiple of 8), either
/// plain (`$kind = first16`, schedule words come straight from the
/// block) or schedule-advancing (`$kind = sched`).
macro_rules! rounds8 {
    (first16, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $t:expr) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, $w[$t].wrapping_add(K[$t]));
        round!($h, $a, $b, $c, $d, $e, $f, $g, $w[$t + 1].wrapping_add(K[$t + 1]));
        round!($g, $h, $a, $b, $c, $d, $e, $f, $w[$t + 2].wrapping_add(K[$t + 2]));
        round!($f, $g, $h, $a, $b, $c, $d, $e, $w[$t + 3].wrapping_add(K[$t + 3]));
        round!($e, $f, $g, $h, $a, $b, $c, $d, $w[$t + 4].wrapping_add(K[$t + 4]));
        round!($d, $e, $f, $g, $h, $a, $b, $c, $w[$t + 5].wrapping_add(K[$t + 5]));
        round!($c, $d, $e, $f, $g, $h, $a, $b, $w[$t + 6].wrapping_add(K[$t + 6]));
        round!($b, $c, $d, $e, $f, $g, $h, $a, $w[$t + 7].wrapping_add(K[$t + 7]));
    };
    (sched, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $t:expr) => {
        round_sched!($a, $b, $c, $d, $e, $f, $g, $h, $w, $t);
        round_sched!($h, $a, $b, $c, $d, $e, $f, $g, $w, $t + 1);
        round_sched!($g, $h, $a, $b, $c, $d, $e, $f, $w, $t + 2);
        round_sched!($f, $g, $h, $a, $b, $c, $d, $e, $w, $t + 3);
        round_sched!($e, $f, $g, $h, $a, $b, $c, $d, $w, $t + 4);
        round_sched!($d, $e, $f, $g, $h, $a, $b, $c, $w, $t + 5);
        round_sched!($c, $d, $e, $f, $g, $h, $a, $b, $w, $t + 6);
        round_sched!($b, $c, $d, $e, $f, $g, $h, $a, $w, $t + 7);
    };
    (sched_last, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $t:expr) => {
        round_sched!($a, $b, $c, $d, $e, $f, $g, $h, $w, $t);
        round_sched!($h, $a, $b, $c, $d, $e, $f, $g, $w, $t + 1);
        round_sched!($g, $h, $a, $b, $c, $d, $e, $f, $w, $t + 2);
        round_sched!($f, $g, $h, $a, $b, $c, $d, $e, $w, $t + 3);
        round_sched!($e, $f, $g, $h, $a, $b, $c, $d, $w, $t + 4);
        round_sched!($d, $e, $f, $g, $h, $a, $b, $c, $w, $t + 5);
        round_sched_last!($c, $d, $e, $f, $g, $h, $a, $b, $w, $t + 6);
        round_sched_last!($b, $c, $d, $e, $f, $g, $h, $a, $w, $t + 7);
    };
}

/// Compresses one 64-byte block into the state: on the SHA-NI data
/// path when `sha_ni` is set (identical output — the ISA evaluates the
/// same FIPS 180-4 function), else on the scalar rounds.
#[inline]
fn compress_block(state: &mut [u32; 8], block: &[u8; 64], sha_ni: bool) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni {
        // SAFETY: `sha_ni` is only set after runtime detection of
        // SHA-NI + SSSE3 + SSE4.1.
        #[allow(unsafe_code)]
        unsafe {
            simd::compress_block(state, block);
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = sha_ni;
    compress_block_scalar(state, block);
}

/// Compresses one 64-byte block into the state (FIPS 180-4 §6.2.2) —
/// the scalar tier.
///
/// Fully unrolled, with a 16-word rolling schedule computed inline with
/// the rounds instead of a separate 64-entry array pass.
fn compress_block_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    rounds8!(first16, a, b, c, d, e, f, g, h, w, 0);
    rounds8!(first16, a, b, c, d, e, f, g, h, w, 8);
    rounds8!(sched, a, b, c, d, e, f, g, h, w, 16);
    rounds8!(sched, a, b, c, d, e, f, g, h, w, 24);
    rounds8!(sched, a, b, c, d, e, f, g, h, w, 32);
    rounds8!(sched, a, b, c, d, e, f, g, h, w, 40);
    rounds8!(sched, a, b, c, d, e, f, g, h, w, 48);
    rounds8!(sched_last, a, b, c, d, e, f, g, h, w, 56);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Computes the SHA-256 digest of `data`, on the SHA extensions when
/// [`crate::dispatch`] reports them. No allocation, no message copy.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_with(
        data,
        crate::dispatch::has(crate::dispatch::SHA | crate::dispatch::SSSE3 | crate::dispatch::SSE41),
    )
}

/// [`sha256`] pinned to the scalar compression tier regardless of what
/// the host exposes: the unaccelerated-host reference the calibrator
/// measures the SHA-NI acceleration factor against, and the oracle the
/// equivalence tests compare the dispatched digest to. Both run the one
/// padding driver, so they differ only in the block function.
#[must_use]
pub fn sha256_scalar(data: &[u8]) -> [u8; 32] {
    sha256_with(data, false)
}

/// The padding driver (FIPS 180-4 §5.1.1): full blocks straight from
/// `data`, then one or two padded tail blocks. `sha_ni` is read once
/// per call, not per block.
fn sha256_with(data: &[u8], sha_ni: bool) -> [u8; 32] {
    let mut state = H0;
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        compress_block(&mut state, chunk.try_into().expect("64-byte chunk"), sha_ni);
    }
    let rem = chunks.remainder();
    let mut block = [0u8; 64];
    block[..rem.len()].copy_from_slice(rem);
    block[rem.len()] = 0x80;
    if rem.len() + 1 > 56 {
        // No room for the length: close this block, pad a second.
        compress_block(&mut state, &block, sha_ni);
        block = [0u8; 64];
    }
    block[56..].copy_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
    compress_block(&mut state, &block, sha_ni);
    let mut digest = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        digest[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// The SHA-NI compression path: `sha256rnds2` executes two FIPS 180-4
/// rounds per invocation over an (ABEF, CDGH) register split, and
/// `sha256msg1`/`sha256msg2` advance the message schedule four words at
/// a time. This is the canonical instruction sequence for the
/// extension; it computes exactly §6.2.2, so the chaining state it
/// produces is bit-identical to [`compress_block_scalar`]'s (the NIST
/// known-answer tests and the scalar-equivalence proptests both pin
/// it).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Four round constants `K[t..t+4]` as one vector.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn kload(t: usize) -> __m128i {
        unsafe { _mm_loadu_si128(K.as_ptr().add(t).cast()) }
    }

    /// Four schedule-advancing rounds `t..t+4`: consume `$cur`
    /// (`w[t..t+4]`), finish `$next` (`w[t+4..t+8]`) with
    /// `alignr`+`msg2`, and start `$prev`'s successor with `msg1`.
    macro_rules! sched4 {
        ($state0:ident, $state1:ident, $cur:ident, $next:ident, $prev:ident, $t:expr) => {
            let msg = _mm_add_epi32($cur, kload($t));
            $state1 = _mm_sha256rnds2_epu32($state1, $state0, msg);
            let tmp = _mm_alignr_epi8($cur, $prev, 4);
            $next = _mm_add_epi32($next, tmp);
            $next = _mm_sha256msg2_epu32($next, $cur);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            $state0 = _mm_sha256rnds2_epu32($state0, $state1, msg);
            $prev = _mm_sha256msg1_epu32($prev, $cur);
        };
    }

    /// As [`sched4!`] for the last schedule rounds (48–59), where no
    /// further `msg1` prefetch is needed.
    macro_rules! sched4_tail {
        ($state0:ident, $state1:ident, $cur:ident, $next:ident, $prev:ident, $t:expr) => {
            let msg = _mm_add_epi32($cur, kload($t));
            $state1 = _mm_sha256rnds2_epu32($state1, $state0, msg);
            let tmp = _mm_alignr_epi8($cur, $prev, 4);
            $next = _mm_add_epi32($next, tmp);
            $next = _mm_sha256msg2_epu32($next, $cur);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            $state0 = _mm_sha256rnds2_epu32($state0, $state1, msg);
        };
    }

    /// # Safety
    /// Caller must have verified SHA + SSSE3 + SSE4.1 at runtime.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte shuffle turning each big-endian message dword into a
        // native-order schedule word.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203u64 as i64);

        unsafe {
            // Pack [a,b,c,d],[e,f,g,h] into the (ABEF, CDGH) split the
            // rnds2 instruction works on.
            let tmp = _mm_loadu_si128(state.as_ptr().cast());
            let mut state1 = _mm_loadu_si128(state.as_ptr().add(4).cast());
            let tmp = _mm_shuffle_epi32(tmp, 0xB1);
            let mut state1v = _mm_shuffle_epi32(state1, 0x1B);
            let mut state0 = _mm_alignr_epi8(tmp, state1v, 8);
            state1 = _mm_blend_epi16(state1v, tmp, 0xF0);

            let abef_save = state0;
            let cdgh_save = state1;

            // Rounds 0–3.
            let mut m0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), mask);
            let msg = _mm_add_epi32(m0, kload(0));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

            // Rounds 4–7.
            let mut m1 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), mask);
            let msg = _mm_add_epi32(m1, kload(4));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            m0 = _mm_sha256msg1_epu32(m0, m1);

            // Rounds 8–11.
            let mut m2 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), mask);
            let msg = _mm_add_epi32(m2, kload(8));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            m1 = _mm_sha256msg1_epu32(m1, m2);

            // Rounds 12–51: the steady-state schedule recurrence.
            let mut m3 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), mask);
            sched4!(state0, state1, m3, m0, m2, 12);
            sched4!(state0, state1, m0, m1, m3, 16);
            sched4!(state0, state1, m1, m2, m0, 20);
            sched4!(state0, state1, m2, m3, m1, 24);
            sched4!(state0, state1, m3, m0, m2, 28);
            sched4!(state0, state1, m0, m1, m3, 32);
            sched4!(state0, state1, m1, m2, m0, 36);
            sched4!(state0, state1, m2, m3, m1, 40);
            sched4!(state0, state1, m3, m0, m2, 44);
            sched4!(state0, state1, m0, m1, m3, 48);

            // Rounds 52–59: schedule winds down (the `msg1` chain has
            // produced everything `w[60..64]` needs by round 51).
            sched4_tail!(state0, state1, m1, m2, m0, 52);
            sched4_tail!(state0, state1, m2, m3, m1, 56);

            // Rounds 60–63.
            let msg = _mm_add_epi32(m3, kload(60));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

            state0 = _mm_add_epi32(state0, abef_save);
            state1 = _mm_add_epi32(state1, cdgh_save);

            // Unpack (ABEF, CDGH) back to [a..d], [e..h].
            let tmp = _mm_shuffle_epi32(state0, 0x1B);
            state1v = _mm_shuffle_epi32(state1, 0xB1);
            let out0 = _mm_blend_epi16(tmp, state1v, 0xF0);
            let out1 = _mm_alignr_epi8(state1v, tmp, 8);
            _mm_storeu_si128(state.as_mut_ptr().cast(), out0);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), out1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST CAVP known-answer tests.
    #[test]
    fn sha256_nist_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_padding_edge_cases() {
        // Lengths around the 56-byte padding boundary.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![b'a'; len];
            let d1 = sha256(&data);
            assert_eq!(d1, sha256_scalar(&data), "len {len}");
            // A one-byte change flips the digest.
            let mut other = data.clone();
            other[len / 2] ^= 1;
            assert_ne!(sha256(&other), d1, "len {len}");
        }
    }

    #[test]
    fn sha256_million_a() {
        // NIST long-message vector: one million 'a's, on both tiers.
        let data = vec![b'a'; 1_000_000];
        for digest in [sha256(&data), sha256_scalar(&data)] {
            assert_eq!(
                hex(&digest),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        }
    }
}
