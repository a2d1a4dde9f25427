//! Benchmarks of the §2.2 characterization pipeline: trace generation,
//! aggregation, and the structured folds `accelctl characterize` runs.

use accelerometer_fleet::{profile, ServiceId};
use accelerometer_profiler::{analyze, FoldedStacks, ProfileAccumulator, TraceGenerator};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

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
    // What `accelctl characterize` does: draw each sample as table
    // indices and fold it into the report at once.
    group.bench_function("characterize_stream_5k", |b| {
        let mut generator = TraceGenerator::new(profile(ServiceId::Web), 7);
        b.iter(|| {
            let mut report = ProfileAccumulator::default();
            for _ in 0..5_000 {
                report.push_sample(&generator.draw());
            }
            report.finish()
        })
    });
    // What `accelctl characterize --folded` does: the same draws summed
    // per stack, rendered and sorted once.
    group.bench_function("characterize_folded_5k", |b| {
        let mut generator = TraceGenerator::new(profile(ServiceId::Web), 7);
        b.iter(|| {
            let mut stacks = FoldedStacks::new(&generator);
            for _ in 0..5_000 {
                stacks.push_sample(&generator.draw());
            }
            stacks.finish()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_profiler);
criterion_main!(benches);
