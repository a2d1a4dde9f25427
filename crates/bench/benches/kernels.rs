//! Kernel micro-benchmarks: the §4 parameter-derivation methodology run
//! on this repository's own kernels. Each benchmark reports throughput,
//! from which `Cb = clock / (bytes per second)` follows; comparing two
//! implementations of the same kernel yields `A`.
//!
//! Granularities mirror the paper's CDFs: encryption at 64 B–4 KiB
//! (Fig. 15), and compression at 4 KiB with decompression at 4 and
//! 32 KiB, inside Fig. 19's 256 B–32 KiB range.

use accelerometer_kernels::aes::Aes128;
use accelerometer_kernels::mlp::{Mlp, MlpScratch};
use accelerometer_kernels::{hash, lz};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn data(len: usize) -> Vec<u8> {
    // Mildly compressible byte stream (structured like an RPC payload).
    (0..len)
        .map(|i| match i % 16 {
            0..=7 => b'a' + (i % 8) as u8,
            8..=11 => (i / 16 % 251) as u8,
            _ => 0,
        })
        .collect()
}

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/aes128_ctr");
    let cipher = Aes128::new(&[7u8; 16]);
    for &size in &[64usize, 256, 1024, 4096] {
        let mut buf = data(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| cipher.ctr_apply(black_box(&[3u8; 16]), black_box(&mut buf)))
        });
    }
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    // One compressor context reused across calls, the way a service's
    // request loop would hold one per connection.
    let mut group = c.benchmark_group("kernels/lz_compress_scratch");
    let size = 4096usize;
    let input = data(size);
    let mut scratch = lz::LzScratch::new();
    let mut out = Vec::new();
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
        b.iter(|| {
            lz::compress_into(black_box(&input), &mut scratch, &mut out);
            black_box(out.as_slice());
        })
    });
    group.finish();

    let mut group = c.benchmark_group("kernels/lz_decompress");
    for &size in &[4096usize, 32_768] {
        let mut compressed = Vec::new();
        lz::compress_into(&data(size), &mut scratch, &mut compressed);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| lz::decompress(black_box(&compressed)).expect("valid stream"))
        });
    }
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/hashing");
    let input = data(4096);
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("sha256_4k", |b| b.iter(|| hash::sha256(black_box(&input))));
    group.finish();

    // Large-input hashing at 64 KiB and 1 MiB: the per-byte compression
    // cost dominates, so these are the purest view of the SHA-256
    // kernel's Cb (and the sizes where a copy-and-pad implementation
    // pays an extra full-message memcpy per call).
    let mut group = c.benchmark_group("kernels/hashing");
    let large = data(65_536);
    group.throughput(Throughput::Bytes(65_536));
    group.bench_function("sha256_64k", |b| b.iter(|| hash::sha256(black_box(&large))));
    group.finish();
    let mut group = c.benchmark_group("kernels/hashing");
    let huge = data(1 << 20);
    group.throughput(Throughput::Bytes(1 << 20));
    group.bench_function("sha256_1m", |b| b.iter(|| hash::sha256(black_box(&huge))));
    group.finish();
}

fn bench_mlp(c: &mut Criterion) {
    // A Feed1-shaped relevance model: 512-feature vectors.
    let mlp = Mlp::seeded_ranker(&[512, 256, 64, 1], 42);
    // Multiply-accumulates per inference: the sum of the layer areas.
    let macs: u64 = 512 * 256 + 256 * 64 + 64;
    let features: Vec<f32> = (0..512).map(|i| i as f32 / 512.0).collect();
    let mut group = c.benchmark_group("kernels/mlp_inference");
    group.throughput(Throughput::Elements(macs));
    group.bench_function("ranker_512x256x64x1", |b| {
        b.iter(|| mlp.infer(black_box(&features)).expect("valid input"))
    });
    group.finish();

    // Batched inference at B=16: the granularity Ads1 batches offloads
    // at (§4, case study 3). One scratch reused across calls, so each
    // layer's weight matrix is streamed once per batch, not once per
    // input.
    let batch: Vec<Vec<f32>> = (0..16)
        .map(|i| (0..512).map(|j| (i * 512 + j) as f32 / 8192.0).collect())
        .collect();
    let mut group = c.benchmark_group("kernels/mlp_inference");
    group.throughput(Throughput::Elements(16 * macs));
    let mut scratch = MlpScratch::new();
    let mut out = Vec::new();
    group.bench_function("batch16_512x256x64x1", |b| {
        b.iter(|| {
            mlp.forward_batch(black_box(&batch), &mut scratch, &mut out)
                .expect("valid input");
            black_box(out.as_slice());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_aes,
    bench_compression,
    bench_hashing,
    bench_mlp
);
criterion_main!(benches);
