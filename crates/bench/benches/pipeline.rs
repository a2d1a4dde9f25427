//! End-to-end benchmarks of the composed substrates: the RPC
//! orchestration pipeline (the per-request overhead path the paper's
//! characterization measures) and the profiler's aggregation throughput.

use accelerometer_fleet::{profile, ServiceId};
use accelerometer_kernels::kvstore::KvStore;
use accelerometer_kernels::pipeline::RpcPipeline;
use accelerometer_kernels::KvMessage;
use accelerometer_profiler::{analyze, CallTrace, ProfileAccumulator, TraceGenerator};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| if i % 3 == 0 { (i % 251) as u8 } else { b'v' })
        .collect()
}

fn bench_rpc_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/seal_open");
    for &size in &[256usize, 2_048, 16_384] {
        let message = KvMessage::Set {
            key: b"user:42".to_vec(),
            value: payload(size),
            ttl_seconds: 120,
        };
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            let key = [7u8; 16];
            let mut sender = RpcPipeline::new(&key);
            let mut receiver = RpcPipeline::new(&key);
            b.iter(|| {
                let frame = sender.seal(black_box(&message));
                receiver.open(black_box(&frame)).expect("round trip")
            })
        });
    }
    group.finish();
}

fn bench_cache_request_loop(c: &mut Criterion) {
    // The living-Cache1 loop: unwrap → serve → wrap.
    let key = [9u8; 16];
    let mut client = RpcPipeline::new(&key);
    let frames: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            client.seal(&if i % 3 == 0 {
                KvMessage::Set {
                    key: format!("k:{}", i % 16).into_bytes(),
                    value: payload(1_024),
                    ttl_seconds: 60,
                }
            } else {
                KvMessage::Get {
                    key: format!("k:{}", i % 16).into_bytes(),
                }
            })
        })
        .collect();
    let mut group = c.benchmark_group("pipeline/cache_request_loop");
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.bench_function("unwrap_serve_wrap_64_requests", |b| {
        let mut rx = RpcPipeline::new(&key);
        let mut tx = RpcPipeline::new(&key);
        let mut store = KvStore::new(16);
        let mut now = 0u64;
        b.iter(|| {
            for frame in &frames {
                let request = rx.open(black_box(frame)).expect("valid frame");
                let response = store.serve(&request, now);
                black_box(tx.seal(&response));
                now += 1;
            }
        })
    });
    group.finish();
}

fn bench_profiler(c: &mut Criterion) {
    let mut generator = TraceGenerator::new(profile(ServiceId::Cache1), 42);
    let traces = generator.generate(20_000);
    let registry = generator.registry().clone();
    let mut group = c.benchmark_group("profiler");
    group.throughput(Throughput::Elements(traces.len() as u64));
    group.bench_function("analyze_20k_traces", |b| {
        b.iter(|| analyze(black_box(&traces), &registry))
    });
    group.throughput(Throughput::Elements(5_000));
    group.bench_function("generate_5k_traces", |b| {
        let mut generator = TraceGenerator::new(profile(ServiceId::Web), 7);
        b.iter(|| generator.generate(5_000))
    });
    // What `accelctl characterize` does: draw each sample into one
    // reused trace and fold it into the report at once.
    group.bench_function("characterize_stream_5k", |b| {
        let mut generator = TraceGenerator::new(profile(ServiceId::Web), 7);
        let registry = generator.registry().clone();
        let mut trace = CallTrace::default();
        b.iter(|| {
            let mut report = ProfileAccumulator::new(&registry);
            for _ in 0..5_000 {
                generator.sample_into(&mut trace);
                report.push(&trace);
            }
            report.finish()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rpc_pipeline, bench_cache_request_loop, bench_profiler);
criterion_main!(benches);
