//! Property-based tests for the kernel implementations: the invariants
//! that must hold for arbitrary inputs, not just the known-answer
//! vectors.

use accelerometer_kernels::mlp::{Mlp, MlpScratch};
use accelerometer_kernels::{aes, hash, lz};
use proptest::prelude::*;

proptest! {
    /// LZ compression round-trips every byte string.
    #[test]
    fn lz_round_trips(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = lz::compress(&data);
        let back = lz::decompress(&compressed).expect("compressor output decodes");
        prop_assert_eq!(back, data);
    }

    /// Highly repetitive inputs always compress below 30%.
    #[test]
    fn lz_compresses_repetition(byte in any::<u8>(), reps in 256usize..4096) {
        let data = vec![byte; reps];
        let ratio = lz::compress(&data).len() as f64 / data.len() as f64;
        prop_assert!(ratio < 0.3, "ratio {} for {} × {:#04x}", ratio, reps, byte);
    }

    /// Decompression never panics on arbitrary (usually invalid) input.
    #[test]
    fn lz_decompress_is_total(data in prop::collection::vec(any::<u8>(), 0..1024)) {
        let _ = lz::decompress(&data);
    }

    /// AES-CTR is a bijection: apply twice with the same counter to get
    /// the plaintext back, for any key/counter/message.
    #[test]
    fn aes_ctr_round_trips(
        key in prop::array::uniform16(any::<u8>()),
        counter in prop::array::uniform16(any::<u8>()),
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let ciphertext = aes::encrypt_ctr(&key, &counter, &data);
        prop_assert_eq!(ciphertext.len(), data.len());
        let plaintext = aes::encrypt_ctr(&key, &counter, &ciphertext);
        prop_assert_eq!(plaintext, data);
    }

    /// Distinct counters produce distinct keystreams (no reuse).
    #[test]
    fn aes_ctr_counters_differ(
        key in prop::array::uniform16(any::<u8>()),
        mut counter in prop::array::uniform16(any::<u8>()),
    ) {
        let data = vec![0u8; 64];
        let c1 = aes::encrypt_ctr(&key, &counter, &data);
        counter[0] ^= 0x01;
        let c2 = aes::encrypt_ctr(&key, &counter, &data);
        prop_assert_ne!(c1, c2);
    }

    /// SHA-256 is deterministic and sensitive to single-bit flips.
    #[test]
    fn sha256_avalanche(
        data in prop::collection::vec(any::<u8>(), 1..512),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let d1 = hash::sha256(&data);
        prop_assert_eq!(d1, hash::sha256(&data));
        let mut flipped = data.clone();
        let idx = flip_byte.index(flipped.len());
        flipped[idx] ^= 1 << flip_bit;
        let d2 = hash::sha256(&flipped);
        prop_assert_ne!(d1, d2);
        // Avalanche: a substantial fraction of digest bits change.
        let differing: u32 = d1.iter().zip(d2.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        prop_assert!(differing >= 64, "only {} bits changed", differing);
    }

    /// Streaming SHA-256 equals the one-shot digest for every message
    /// and every update split — including splits straddling the 64-byte
    /// block boundary — and so does hashing in three pieces.
    #[test]
    fn sha256_streaming_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..512),
        split_a in any::<prop::sample::Index>(),
        split_b in any::<prop::sample::Index>(),
    ) {
        let expected = hash::sha256(&data);
        let (mut lo, mut hi) = (split_a.index(data.len() + 1), split_b.index(data.len() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let mut two = hash::Sha256::new();
        two.update(&data[..hi]);
        two.update(&data[hi..]);
        prop_assert_eq!(two.finalize(), expected);
        let mut three = hash::Sha256::new();
        three.update(&data[..lo]);
        three.update(&data[lo..hi]);
        three.update(&data[hi..]);
        prop_assert_eq!(three.finalize(), expected);
    }

    /// Batched MLP inference is bit-identical to repeated scalar
    /// inference, for any batch.
    #[test]
    fn mlp_forward_batch_equals_scalar(
        widths in prop::collection::vec(1usize..24, 2..5),
        batch_len in 0usize..20,
        seed in any::<u64>(),
    ) {
        let mlp = Mlp::seeded_ranker(&widths, seed);
        let input_width = mlp.input_width();
        let batch: Vec<Vec<f32>> = (0..batch_len)
            .map(|b| {
                (0..input_width)
                    .map(|i| ((b * 31 + i * 7 + seed as usize) % 113) as f32 / 56.5 - 1.0)
                    .collect()
            })
            .collect();
        let mut scratch = MlpScratch::new();
        let mut flat = Vec::new();
        mlp.forward_batch(&batch, &mut scratch, &mut flat).expect("widths match");
        let out_width = mlp.output_width();
        prop_assert_eq!(flat.len(), batch_len * out_width);
        for (b, features) in batch.iter().enumerate() {
            let scalar = mlp.infer(features).expect("widths match");
            let bits_scalar: Vec<u32> = scalar.iter().map(|x| x.to_bits()).collect();
            let bits_batch: Vec<u32> = flat[b * out_width..(b + 1) * out_width]
                .iter()
                .map(|x| x.to_bits())
                .collect();
            prop_assert_eq!(&bits_scalar, &bits_batch, "batch element {} diverged", b);
        }
    }

    /// `compress_into` with a reused scratch emits the same byte stream
    /// as the fresh-table `compress`, across arbitrary input sequences.
    #[test]
    fn lz_scratch_reuse_equals_fresh(
        inputs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..2048), 1..6),
    ) {
        let mut scratch = lz::LzScratch::new();
        let mut out = Vec::new();
        for input in &inputs {
            lz::compress_into(input, &mut scratch, &mut out);
            prop_assert_eq!(&out, &lz::compress(input));
            let back = lz::decompress(&out).expect("round trip");
            prop_assert_eq!(&back, input);
        }
    }
}
