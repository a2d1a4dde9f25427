//! AES-128 block cipher and CTR-mode stream encryption (FIPS-197).
//!
//! This is the software baseline for the paper's first case study: the
//! AES-NI instruction accelerates exactly this computation (§4, case
//! study 1, using AES from OpenSSL to build micro-benchmarks). The
//! scalar implementation is a straightforward, table-free FIPS-197
//! rendering — byte-oriented S-box, shift-rows, mix-columns — so its
//! per-byte cost is representative of unaccelerated encryption.
//!
//! When the host exposes AES-NI (and [`crate::dispatch`] has not been
//! forced scalar), [`Aes128::ctr_apply`] runs `aesenc`/`aesenclast`
//! instead — the *same* cipher evaluated by the ISA extension the
//! paper's case study 1 measures, so ciphertext is byte-identical and
//! the scalar/AES-NI cost gap is an honestly measured on-chip
//! acceleration factor, not a modeled one. The scalar tier stays
//! reachable as [`Aes128::ctr_apply_scalar`] (over
//! [`Aes128::encrypt_block_scalar`]) so the calibrator can measure both
//! sides in one session.

/// The AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// AES-128 key length in bytes.
pub const KEY_SIZE: usize = 16;

const ROUNDS: usize = 10;

/// The AES S-box (FIPS-197 Fig. 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// `xtime`: multiplication by x (i.e. {02}) in GF(2^8).
fn xtime(b: u8) -> u8 {
    let shifted = b << 1;
    if b & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

/// An expanded AES-128 key schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: [[u8; BLOCK_SIZE]; ROUNDS + 1],
}

impl Aes128 {
    /// Expands a 128-bit key into the 11 round keys (FIPS-197 §5.2).
    #[must_use]
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[usize::from(*byte)];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; BLOCK_SIZE]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Self { round_keys }
    }

    /// Encrypts one 16-byte block in place on the scalar FIPS-197
    /// rendering: the block function of [`Aes128::ctr_apply_scalar`],
    /// the unaccelerated-host tier the model measures `A` against.
    pub fn encrypt_block_scalar(&self, block: &mut [u8; BLOCK_SIZE]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..ROUNDS {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[ROUNDS]);
    }

    /// Encrypts (or decrypts — CTR is symmetric) `data` in place using
    /// CTR mode with the given 16-byte initial counter block.
    ///
    /// Returns the number of AES block operations performed, which is
    /// the quantity a micro-benchmark divides into elapsed cycles to get
    /// the per-block cost.
    ///
    /// Dispatches to an AES-NI path that keeps eight keystream blocks in
    /// flight (the `aesenc` latency is several cycles but the unit is
    /// pipelined, so independent blocks fill the bubble); ciphertext is
    /// byte-identical to [`Aes128::ctr_apply_scalar`].
    pub fn ctr_apply(&self, counter: &[u8; BLOCK_SIZE], data: &mut [u8]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if crate::dispatch::has(crate::dispatch::AES) {
            // SAFETY: AES-NI presence was checked at runtime just above.
            #[allow(unsafe_code)]
            return unsafe { simd::ctr_apply(&self.round_keys, counter, data) };
        }
        self.ctr_apply_scalar(counter, data)
    }

    /// The scalar tier of [`Aes128::ctr_apply`], always available: the
    /// unaccelerated-host baseline the calibrator times, and the oracle
    /// the equivalence tests compare the AES-NI path to.
    pub fn ctr_apply_scalar(&self, counter: &[u8; BLOCK_SIZE], data: &mut [u8]) -> usize {
        let mut blocks = 0;
        let mut ctr = *counter;
        // One keystream block reused across chunks: refilled in place
        // from the counter rather than materialised anew per block.
        let mut keystream = [0u8; BLOCK_SIZE];
        for chunk in data.chunks_mut(BLOCK_SIZE) {
            keystream.copy_from_slice(&ctr);
            self.encrypt_block_scalar(&mut keystream);
            for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
                *byte ^= ks;
            }
            increment_counter(&mut ctr);
            blocks += 1;
        }
        blocks
    }
}

/// AES-NI paths. `aesenc` performs exactly one FIPS-197 round
/// (ShiftRows → SubBytes → MixColumns → AddRoundKey) and `aesenclast`
/// the final round without MixColumns, over the same column-major state
/// bytes [`Aes128`] stores its round keys in — so the hardware path is
/// the same function, not an approximation, and ciphertext is
/// byte-identical by construction (the FIPS/SP 800-38A known-answer
/// tests run on whichever tier dispatch selects).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    use super::{increment_counter, BLOCK_SIZE, ROUNDS};

    /// Keystream blocks kept in flight per CTR step: enough independent
    /// `aesenc` chains to hide the instruction's latency.
    const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn load_round_keys(rk: &[[u8; BLOCK_SIZE]; ROUNDS + 1]) -> [__m128i; ROUNDS + 1] {
        let mut keys = [unsafe { _mm_loadu_si128(rk[0].as_ptr().cast()) }; ROUNDS + 1];
        for (key, bytes) in keys.iter_mut().zip(rk.iter()).skip(1) {
            *key = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        }
        keys
    }

    /// One block through the full ten-round AES-128 data path.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_loaded(keys: &[__m128i; ROUNDS + 1], block: __m128i) -> __m128i {
        let mut state = _mm_xor_si128(block, keys[0]);
        for key in &keys[1..ROUNDS] {
            state = _mm_aesenc_si128(state, *key);
        }
        _mm_aesenclast_si128(state, keys[ROUNDS])
    }

    /// # Safety
    /// Caller must have verified AES-NI support at runtime.
    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_block(rk: &[[u8; BLOCK_SIZE]; ROUNDS + 1], block: &mut [u8; BLOCK_SIZE]) {
        unsafe {
            let keys = load_round_keys(rk);
            let state = encrypt_loaded(&keys, _mm_loadu_si128(block.as_ptr().cast()));
            _mm_storeu_si128(block.as_mut_ptr().cast(), state);
        }
    }

    /// # Safety
    /// Caller must have verified AES-NI support at runtime.
    #[target_feature(enable = "aes")]
    pub unsafe fn ctr_apply(
        rk: &[[u8; BLOCK_SIZE]; ROUNDS + 1],
        counter: &[u8; BLOCK_SIZE],
        data: &mut [u8],
    ) -> usize {
        let keys = unsafe { load_round_keys(rk) };
        let blocks = data.len().div_ceil(BLOCK_SIZE);
        let mut ctr = *counter;
        // Counter blocks are materialised scalar-side (the big-endian
        // increment is a handful of byte ops against 10 AES rounds) and
        // encrypted LANES at a time with independent chains.
        let mut ctr_buf = [0u8; LANES * BLOCK_SIZE];
        let mut wide = data.chunks_exact_mut(LANES * BLOCK_SIZE);
        for group in &mut wide {
            for lane in ctr_buf.chunks_exact_mut(BLOCK_SIZE) {
                lane.copy_from_slice(&ctr);
                increment_counter(&mut ctr);
            }
            unsafe {
                let mut ks = [_mm_loadu_si128(ctr_buf.as_ptr().cast()); LANES];
                for (lane, chunk) in ks.iter_mut().zip(ctr_buf.chunks_exact(BLOCK_SIZE)) {
                    *lane = _mm_xor_si128(_mm_loadu_si128(chunk.as_ptr().cast()), keys[0]);
                }
                for key in &keys[1..ROUNDS] {
                    for lane in &mut ks {
                        *lane = _mm_aesenc_si128(*lane, *key);
                    }
                }
                for (lane, chunk) in ks.iter_mut().zip(group.chunks_exact_mut(BLOCK_SIZE)) {
                    let stream = _mm_aesenclast_si128(*lane, keys[ROUNDS]);
                    let text = _mm_loadu_si128(chunk.as_ptr().cast());
                    _mm_storeu_si128(chunk.as_mut_ptr().cast(), _mm_xor_si128(text, stream));
                }
            }
        }
        let tail = wide.into_remainder();
        let mut full = tail.chunks_exact_mut(BLOCK_SIZE);
        for chunk in &mut full {
            unsafe {
                let stream = encrypt_loaded(&keys, _mm_loadu_si128(ctr.as_ptr().cast()));
                let text = _mm_loadu_si128(chunk.as_ptr().cast());
                _mm_storeu_si128(chunk.as_mut_ptr().cast(), _mm_xor_si128(text, stream));
            }
            increment_counter(&mut ctr);
        }
        let partial = full.into_remainder();
        if !partial.is_empty() {
            let mut keystream = ctr;
            unsafe { encrypt_block(rk, &mut keystream) };
            for (byte, ks) in partial.iter_mut().zip(keystream.iter()) {
                *byte ^= ks;
            }
        }
        blocks
    }
}

fn add_round_key(state: &mut [u8; BLOCK_SIZE], rk: &[u8; BLOCK_SIZE]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; BLOCK_SIZE]) {
    for byte in state.iter_mut() {
        *byte = SBOX[usize::from(*byte)];
    }
}

/// State is column-major: `state[4c + r]` is row `r`, column `c`.
fn shift_rows(state: &mut [u8; BLOCK_SIZE]) {
    for r in 1..4 {
        let mut row = [0u8; 4];
        for c in 0..4 {
            row[c] = state[4 * ((c + r) % 4) + r];
        }
        for c in 0..4 {
            state[4 * c + r] = row[c];
        }
    }
}

fn mix_columns(state: &mut [u8; BLOCK_SIZE]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let xor_all = col[0] ^ col[1] ^ col[2] ^ col[3];
        for r in 0..4 {
            state[4 * c + r] = col[r] ^ xor_all ^ xtime(col[r] ^ col[(r + 1) % 4]);
        }
    }
}

fn increment_counter(ctr: &mut [u8; BLOCK_SIZE]) {
    for byte in ctr.iter_mut().rev() {
        *byte = byte.wrapping_add(1);
        if *byte != 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `block` encrypted with `key` on both tiers: the scalar block
    /// function, and the dispatched `ctr_apply` with `block` as the
    /// counter over one zero block (CTR's keystream is `E(counter)`).
    fn encrypt_both_tiers(key: &[u8; 16], block: [u8; 16]) -> [[u8; 16]; 2] {
        let cipher = Aes128::new(key);
        let mut scalar = block;
        cipher.encrypt_block_scalar(&mut scalar);
        let mut dispatched = [0u8; 16];
        cipher.ctr_apply(&block, &mut dispatched);
        [scalar, dispatched]
    }

    /// `plaintext` through AES-128-CTR on both tiers.
    fn ctr_both_tiers(key: &[u8; 16], counter: &[u8; 16], plaintext: &[u8]) -> [Vec<u8>; 2] {
        let cipher = Aes128::new(key);
        let mut dispatched = plaintext.to_vec();
        cipher.ctr_apply(counter, &mut dispatched);
        let mut scalar = plaintext.to_vec();
        cipher.ctr_apply_scalar(counter, &mut scalar);
        [dispatched, scalar]
    }

    /// FIPS-197 Appendix B: the worked AES-128 example.
    #[test]
    fn fips197_appendix_b_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        for ciphertext in encrypt_both_tiers(&key, block) {
            assert_eq!(
                ciphertext,
                [
                    0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19,
                    0x6a, 0x0b, 0x32
                ]
            );
        }
    }

    /// FIPS-197 Appendix C.1: AES-128 known-answer test.
    #[test]
    fn fips197_appendix_c1_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        for ciphertext in encrypt_both_tiers(&key, block) {
            assert_eq!(
                ciphertext,
                [
                    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                    0xb4, 0xc5, 0x5a
                ]
            );
        }
    }

    /// NIST SP 800-38A F.5.1: AES-128-CTR known-answer test (first two
    /// blocks), on both tiers.
    #[test]
    fn sp800_38a_ctr_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let counter: [u8; 16] = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ];
        let plaintext: [u8; 32] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51,
        ];
        for ciphertext in ctr_both_tiers(&key, &counter, &plaintext) {
            assert_eq!(
                ciphertext,
                vec![
                    0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99,
                    0x0d, 0xb6, 0xce, 0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70, 0xfd, 0xff, 0x86, 0x17,
                    0x18, 0x7b, 0xb9, 0xff, 0xfd, 0xff
                ]
            );
        }
    }

    #[test]
    fn ctr_is_its_own_inverse() {
        let cipher = Aes128::new(&[7u8; 16]);
        let counter = [1u8; 16];
        let plaintext: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let mut data = plaintext.clone();
        cipher.ctr_apply(&counter, &mut data);
        assert_ne!(data, plaintext);
        cipher.ctr_apply(&counter, &mut data);
        assert_eq!(data, plaintext);
    }

    #[test]
    fn ctr_handles_partial_final_block() {
        let key = [9u8; 16];
        let counter = [0u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 33] {
            let plaintext = vec![0xabu8; len];
            let [dispatched, scalar] = ctr_both_tiers(&key, &counter, &plaintext);
            assert_eq!(dispatched.len(), len);
            assert_eq!(dispatched, scalar, "len {len}");
            assert_eq!(ctr_both_tiers(&key, &counter, &dispatched)[0], plaintext);
        }
    }

    #[test]
    fn ctr_reports_block_count() {
        let cipher = Aes128::new(&[0u8; 16]);
        let mut data = vec![0u8; 100];
        let blocks = cipher.ctr_apply(&[0u8; 16], &mut data);
        assert_eq!(blocks, 7); // ceil(100 / 16)
        let mut empty: Vec<u8> = vec![];
        assert_eq!(cipher.ctr_apply(&[0u8; 16], &mut empty), 0);
    }

    #[test]
    fn counter_increment_carries() {
        let mut ctr = [0xffu8; 16];
        increment_counter(&mut ctr);
        assert_eq!(ctr, [0u8; 16]);
        let mut ctr = [0u8; 16];
        ctr[15] = 0xff;
        increment_counter(&mut ctr);
        assert_eq!(ctr[15], 0);
        assert_eq!(ctr[14], 1);
    }

    #[test]
    fn different_keys_differ() {
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        Aes128::new(&[1u8; 16]).encrypt_block_scalar(&mut a);
        Aes128::new(&[2u8; 16]).encrypt_block_scalar(&mut b);
        assert_ne!(a, b);
    }
}
