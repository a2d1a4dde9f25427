//! Benchmarks for this PR's two optimization layers:
//!
//! * the inverse-CDF granularity sampler (binary search) against the
//!   linear-scan `GranularityCdf::quantile` it replaces on the
//!   simulator's hot path, at small and production-sized CDFs;
//! * the parallel experiment engine: an identical batch of simulations
//!   pushed through `ExecPool` at widths 1, 2, and 4 (on a single-core
//!   host the widths should tie to within scheduler noise — the point
//!   is that parallelism is free, not that it always helps).
//!
//! `BENCH_parallel.json` tracks the BENCHJSON lines this prints.

use accelerometer::units::cycles_per_byte;
use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
use accelerometer_sim::parallel::{run_batch, ExecPool};
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{run_sharded, DeviceKind, OffloadConfig, ShardPlan, SimConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A CDF with `n` breakpoints (evenly spaced fractions, geometric byte
/// growth) — production traces bucket granularities finely, which is
/// where the linear scan hurts.
fn cdf_with_points(n: usize) -> GranularityCdf {
    let points: Vec<(f64, f64)> = (1..=n)
        .map(|i| {
            let f = i as f64 / n as f64;
            (16.0 * 1.05_f64.powi(i as i32), f)
        })
        .collect();
    GranularityCdf::from_points(points).expect("valid CDF")
}

fn bench_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/sampler");
    const DRAWS: usize = 10_000;
    group.throughput(Throughput::Elements(DRAWS as u64));
    for &size in &[4usize, 64, 256] {
        let cdf = cdf_with_points(size);
        let sampler = cdf.sampler();
        let ps: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..DRAWS).map(|_| rng.gen_range(0.0..1.0)).collect()
        };
        group.bench_with_input(BenchmarkId::new("linear_scan", size), &ps, |b, ps| {
            b.iter(|| {
                let mut acc = 0.0;
                for &p in ps {
                    acc += cdf.quantile(black_box(p)).get();
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("binary_search", size), &ps, |b, ps| {
            b.iter(|| {
                let mut acc = 0.0;
                for &p in ps {
                    acc += sampler.quantile(black_box(p)).get();
                }
                acc
            })
        });
    }
    group.finish();
}

fn batch() -> Vec<SimConfig> {
    (0..8u64)
        .map(|i| SimConfig {
            cores: 2,
            threads: 4,
            context_switch_cycles: 300.0,
            horizon: 4e6,
            seed: 100 + i,
            workload: WorkloadSpec {
                non_kernel_cycles: 5_000.0,
                kernels_per_request: 1,
                granularity: cdf_with_points(64),
                cycles_per_byte: cycles_per_byte(2.0),
            },
            offload: None,
            fault: Default::default(),
            recovery: Default::default(),
        })
        .collect()
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/pool");
    let configs = batch();
    group.throughput(Throughput::Elements(configs.len() as u64));
    for &jobs in &[1usize, 2, 4] {
        let pool = ExecPool::new(jobs);
        group.bench_with_input(
            BenchmarkId::new("run_batch_8x4M_cycles", jobs),
            &configs,
            |b, configs| {
                b.iter(|| run_batch(&pool, None, black_box(configs)).expect("valid batch"))
            },
        );
    }
    group.finish();
}

/// One large sharded simulation: a 4-core / 8-thread host over a shared
/// 4-server device, decomposing into 4 shards. On a single-core runner
/// the widths tie (the determinism suite is what proves they agree
/// byte-for-byte); on multi-core hosts the wall-clock win appears at
/// width >= 2 for free.
fn sharded_config() -> SimConfig {
    SimConfig {
        cores: 4,
        threads: 8,
        context_switch_cycles: 300.0,
        horizon: 8e6,
        seed: 20_260_807,
        workload: WorkloadSpec {
            non_kernel_cycles: 5_000.0,
            kernels_per_request: 1,
            granularity: cdf_with_points(64),
            cycles_per_byte: cycles_per_byte(2.0),
        },
        offload: Some(OffloadConfig {
            design: ThreadingDesign::AsyncSameThread,
            strategy: AccelerationStrategy::OffChip,
            driver: DriverMode::Posted,
            device: DeviceKind::Shared { servers: 4 },
            peak_speedup: 4.0,
            interface_latency: 2_000.0,
            setup_cycles: 50.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        }),
        fault: Default::default(),
        recovery: Default::default(),
    }
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/shard");
    let cfg = sharded_config();
    let plan = ShardPlan::for_config(&cfg);
    assert_eq!(plan.shards, 4, "bench config must decompose 4-ways");
    group.throughput(Throughput::Elements(plan.shards as u64));
    for &width in &[1usize, 2, 4] {
        let pool = ExecPool::new(width);
        group.bench_with_input(
            BenchmarkId::new("run_sharded_4x8M_cycles", width),
            &cfg,
            |b, cfg| b.iter(|| run_sharded(&pool, black_box(cfg), None).expect("valid config")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sampler, bench_pool, bench_sharded);
criterion_main!(benches);
