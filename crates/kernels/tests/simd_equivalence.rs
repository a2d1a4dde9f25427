//! Scalar/SIMD equivalence at adversarial sizes and alignments.
//!
//! Every dispatched kernel must be *bit-identical* to its scalar
//! reference — same ciphertext, digests, token streams and
//! f32 bit patterns — because the ISA tier is supposed to change only
//! wall-clock, never outputs (no golden fixture may move when dispatch
//! lands). These tests compare each kernel's default (dispatched)
//! entry point against its public `*_scalar` sibling, so they prove the
//! property on whatever the host dispatches to; `scripts/tier1.sh`
//! additionally runs the whole suite under `KERNELS_FORCE_SCALAR=1`,
//! where both sides take the scalar path and the comparison is a
//! tautology by construction.
//!
//! Sizes straddle every vector width in play (16-byte AES blocks,
//! 32-byte AVX2 lanes, 64-byte SHA blocks) plus off-by-one on each
//! side, and inputs are re-checked at unaligned offsets 1..4 — `loadu`
//! paths must not care, and the offset also shifts all kernel-internal
//! phase (e.g. where LZ matches fall relative to vector boundaries).

use accelerometer_kernels::{aes, hash, lz, mlp};

/// The adversarial byte sizes from the issue spec.
const SIZES: &[usize] = &[0, 1, 15, 16, 17, 63, 64, 65, 4095, 4097];

/// Unaligned start offsets applied to a shared backing buffer.
const OFFSETS: &[usize] = &[0, 1, 2, 3];

/// Deterministic xorshift bytes, compressible enough that LZ finds
/// matches (every third byte cycles in a short period).
fn test_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            if i % 3 == 0 {
                (i / 3 % 11) as u8
            } else {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            }
        })
        .collect()
}

#[test]
fn aes_ctr_matches_scalar_at_adversarial_sizes() {
    let cipher = aes::Aes128::new(b"equivalence-key!");
    let counter = *b"ctr-equivalence!";
    for &size in SIZES {
        for &off in OFFSETS {
            let backing = test_bytes(size + off, 0xA5A5);
            let mut dispatched = backing[off..].to_vec();
            let mut scalar = dispatched.clone();
            let blocks_d = cipher.ctr_apply(&counter, &mut dispatched);
            let blocks_s = cipher.ctr_apply_scalar(&counter, &mut scalar);
            assert_eq!(blocks_d, blocks_s, "block count at size {size} offset {off}");
            assert_eq!(dispatched, scalar, "ciphertext at size {size} offset {off}");
            // CTR is an involution: applying again restores plaintext.
            cipher.ctr_apply(&counter, &mut dispatched);
            assert_eq!(dispatched, &backing[off..], "round trip at size {size}");
        }
    }
}

#[test]
fn aes_single_block_matches_scalar() {
    let cipher = aes::Aes128::new(&[0x5A; 16]);
    for i in 0..=255u8 {
        let mut a = [i; 16];
        let mut b = [i; 16];
        cipher.encrypt_block(&mut a);
        cipher.encrypt_block_scalar(&mut b);
        assert_eq!(a, b);
    }
}

#[test]
fn sha256_matches_scalar_at_adversarial_sizes() {
    for &size in SIZES {
        for &off in OFFSETS {
            let backing = test_bytes(size + off, 0x5145);
            let data = &backing[off..];
            assert_eq!(
                hash::sha256(data),
                hash::sha256_scalar(data),
                "digest at size {size} offset {off}"
            );
        }
    }
}

#[test]
fn sha256_streaming_matches_scalar_across_split_points() {
    // The streaming hasher dispatches per compressed block; splitting
    // the input at awkward points exercises partial-block buffering
    // around the SIMD path.
    let data = test_bytes(4097, 0xD1CE);
    let whole = hash::sha256_scalar(&data);
    for split in [0usize, 1, 15, 63, 64, 65, 1000, 4096] {
        let mut hasher = hash::Sha256::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        assert_eq!(hasher.finalize(), whole, "split at {split}");
    }
}

#[test]
fn lz_streams_match_scalar_at_adversarial_sizes() {
    for &size in SIZES {
        for &off in OFFSETS {
            let backing = test_bytes(size + off, 0x1234);
            let data = &backing[off..];
            let dispatched = lz::compress(data);
            let scalar = lz::compress_scalar(data);
            assert_eq!(dispatched, scalar, "token stream at size {size} offset {off}");
            assert_eq!(
                lz::decompress(&dispatched).expect("round trip"),
                data,
                "round trip at size {size} offset {off}"
            );
        }
    }
}

#[test]
fn lz_streams_match_scalar_on_long_matches() {
    // Long runs drive the 32-byte match extension and the batched
    // stride-2 hash insertion; mixed periods vary match lengths across
    // the 32/64-byte boundaries.
    for period in [1usize, 7, 16, 31, 32, 33, 255] {
        let data: Vec<u8> = (0..8192).map(|i| (i % period.max(1)) as u8).collect();
        assert_eq!(
            lz::compress(&data),
            lz::compress_scalar(&data),
            "token stream at period {period}"
        );
    }
}

#[test]
fn mlp_bit_identical_at_spec_batch_widths() {
    // Batch widths 1 and 3 never reach the 8-wide
    // row path, 8 is exactly one vector, 17 leaves a 1-wide tail.
    for &batch_len in &[1usize, 3, 8, 17] {
        let net = mlp::Mlp::seeded_ranker(&[37, 19, 3], 0xACC0 + batch_len as u64);
        let batch: Vec<Vec<f32>> = (0..batch_len)
            .map(|b| {
                (0..37)
                    .map(|j| ((b * 37 + j * 13) % 97) as f32 / 24.0 - 2.0)
                    .collect()
            })
            .collect();
        let mut scratch = mlp::MlpScratch::new();
        let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
        net.forward_batch(&batch, &mut scratch, &mut dispatched)
            .expect("batch");
        net.forward_batch_scalar(&batch, &mut scratch, &mut scalar)
            .expect("batch scalar");
        assert_eq!(
            dispatched.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "batch outputs at width {batch_len}"
        );
    }
}
