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
    // The dispatched tier encrypts one block as the CTR keystream of a
    // zero block, with the plaintext as the counter; 15 bytes take the
    // partial-block tail instead of the full-block loop.
    let cipher = aes::Aes128::new(&[0x5A; 16]);
    for i in 0..=255u8 {
        let mut scalar = [i; 16];
        cipher.encrypt_block_scalar(&mut scalar);
        for len in [16, 15] {
            let mut dispatched = vec![0u8; len];
            cipher.ctr_apply(&[i; 16], &mut dispatched);
            assert_eq!(dispatched, scalar[..len], "block {i} length {len}");
        }
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

/// `data`'s LZ token stream on both tiers: (dispatched, scalar). Both
/// run the one scratch driver, so the pair differs only in the match
/// kernel.
fn lz_both_tiers(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
    lz::compress_into(data, &mut lz::LzScratch::new(), &mut dispatched);
    lz::compress_into_scalar(data, &mut lz::LzScratch::new(), &mut scalar);
    (dispatched, scalar)
}

#[test]
fn lz_streams_match_scalar_at_adversarial_sizes() {
    for &size in SIZES {
        for &off in OFFSETS {
            let backing = test_bytes(size + off, 0x1234);
            let data = &backing[off..];
            let (dispatched, scalar) = lz_both_tiers(data);
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
        let (dispatched, scalar) = lz_both_tiers(&data);
        assert_eq!(dispatched, scalar, "token stream at period {period}");
    }
}

/// Output bits of `net` over `batch` through the dispatched batch path,
/// the scalar batch path and one `infer` call per element, each checked
/// equal to the dispatched bits.
fn assert_mlp_tiers_agree(net: &mlp::Mlp, batch: &[Vec<f32>], what: &str) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut scratch = mlp::MlpScratch::new();
    let (mut dispatched, mut scalar) = (Vec::new(), Vec::new());
    net.forward_batch(batch, &mut scratch, &mut dispatched)
        .expect("batch");
    net.forward_batch_scalar(batch, &mut scratch, &mut scalar)
        .expect("batch scalar");
    assert_eq!(bits(&dispatched), bits(&scalar), "forward_batch_scalar, {what}");
    let one_by_one: Vec<f32> = batch
        .iter()
        .flat_map(|features| net.infer(features).expect("infer"))
        .collect();
    assert_eq!(bits(&dispatched), bits(&one_by_one), "infer, {what}");
}

/// `batch_len` feature vectors of `width` deterministic values in
/// [-2, 2), some negative enough for ReLU to clamp their neurons.
fn mlp_batch(batch_len: usize, width: usize) -> Vec<Vec<f32>> {
    (0..batch_len)
        .map(|b| {
            (0..width)
                .map(|j| ((b * width + j * 13) % 97) as f32 / 24.0 - 2.0)
                .collect()
        })
        .collect()
}

#[test]
fn mlp_tiles_bit_identical_at_every_batch_and_width() {
    // The AVX2 path tiles 4 neurons × 16 lanes, with 1-neuron and
    // 8-lane remainder tiles and a scalar tail for the last `B % 8`
    // lanes. Batches 0..=40 take every lane split (no vector, one
    // vector, one or two 16-lane tiles, with and without each
    // remainder); the hidden and output widths cover every
    // `outputs % 4`, and the 512×256×64×1 ranker is the net `accelctl
    // calibrate` times.
    let shapes: [&[usize]; 3] = [&[37, 13, 6, 1], &[29, 12, 11, 3], &[512, 256, 64, 1]];
    for (s, widths) in shapes.into_iter().enumerate() {
        let net = mlp::Mlp::seeded_ranker(widths, 0xACC0 + s as u64);
        for batch_len in 0..=40 {
            let batch = mlp_batch(batch_len, widths[0]);
            assert_mlp_tiers_agree(&net, &batch, &format!("{widths:?} at B = {batch_len}"));
        }
    }
}

#[test]
fn mlp_tiles_bit_identical_on_edge_values() {
    // Signed zeros, subnormals (which must not be flushed), magnitudes
    // near 1e30 whose sums stay finite, and negatives that ReLU clamps.
    const EDGES: [f32; 10] = [0.0, -0.0, 1e-40, -1e-40, 1e-45, 1e30, -1e30, -3.5, 2.25, -1e-3];
    for widths in [[37usize, 13, 6, 1], [29, 12, 11, 3]] {
        let net = mlp::Mlp::seeded_ranker(&widths, 0xED6E);
        for batch_len in [1, 8, 13, 16, 24, 40] {
            let batch: Vec<Vec<f32>> = (0..batch_len)
                .map(|b| {
                    (0..widths[0])
                        .map(|j| EDGES[(b * 7 + j * 3) % EDGES.len()])
                        .collect()
                })
                .collect();
            assert_mlp_tiers_agree(&net, &batch, &format!("edges, {widths:?} at B = {batch_len}"));
        }
    }
}
