//! Engine hot-loop benchmarks: events/sec through `Simulator::run` on a
//! representative load-sweep configuration, for the unaccelerated
//! baseline and one offloaded variant per threading design
//! (Sync / Sync-OS / Async) plus a 64-core Async run, then the
//! end-to-end load sweep those runs compose into and the
//! percentile-summary cost at realistic sample counts.
//!
//! `BENCH_engine.json` tracks the BENCHJSON lines this prints, with
//! paired before/after numbers for the per-core timer slots that took
//! slice ends out of the event heap.

use accelerometer::units::cycles_per_byte;
use accelerometer::{AccelerationStrategy, DriverMode, GranularityCdf, ThreadingDesign};
use accelerometer_sim::metrics::total_order_key;
use accelerometer_sim::parallel::ExecPool;
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{
    concurrency_sweep_with, set_trace_reuse, DeviceKind, FrozenTrace, LatencyStats, OffloadConfig,
    SimConfig, Simulator,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The load-sweep base configuration (mirrors the determinism suite's
/// sweep base): 2 cores, offload through a shared 2-server device.
fn sweep_workload() -> WorkloadSpec {
    WorkloadSpec {
        non_kernel_cycles: 4_000.0,
        kernels_per_request: 1,
        granularity: GranularityCdf::from_points(vec![(256.0, 0.4), (1_024.0, 1.0)])
            .expect("valid CDF"),
        cycles_per_byte: cycles_per_byte(2.0),
    }
}

fn base_config() -> SimConfig {
    SimConfig {
        cores: 2,
        threads: 4,
        context_switch_cycles: 400.0,
        horizon: 2e7,
        seed: 20_260_806,
        workload: sweep_workload(),
        offload: None,
        fault: Default::default(),
        recovery: Default::default(),
    }
}

fn offload(design: ThreadingDesign) -> OffloadConfig {
    OffloadConfig {
        design,
        strategy: AccelerationStrategy::OffChip,
        driver: DriverMode::Posted,
        device: DeviceKind::Shared { servers: 2 },
        peak_speedup: 4.0,
        interface_latency: 8_000.0,
        setup_cycles: 50.0,
        dispatch_pollution: 0.0,
        min_offload_bytes: None,
    }
}

/// The four variants a load sweep exercises (the host-only baseline and
/// one configuration per threading design family), plus the Async one
/// at 64 cores and 128 threads, where the per-core timer tree is six
/// levels deep and completions from a 64-server device fill the heap.
fn variants() -> Vec<(&'static str, SimConfig)> {
    let mut out = vec![("baseline", base_config())];
    for (name, design) in [
        ("sync", ThreadingDesign::Sync),
        ("sync_os", ThreadingDesign::SyncOs),
        ("async", ThreadingDesign::AsyncSameThread),
    ] {
        let mut cfg = base_config();
        if design == ThreadingDesign::SyncOs {
            cfg.threads = 8;
        }
        cfg.offload = Some(offload(design));
        out.push((name, cfg));
    }
    let mut wide = base_config();
    wide.cores = 64;
    wide.threads = 128;
    wide.offload = Some(OffloadConfig {
        device: DeviceKind::Shared { servers: 64 },
        ..offload(ThreadingDesign::AsyncSameThread)
    });
    out.push(("async_64_cores", wide));
    out
}

fn bench_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/run");
    for (name, cfg) in variants() {
        let (_, stats) = Simulator::new(cfg.clone()).run_instrumented();
        group.throughput(Throughput::Elements(stats.events_processed));
        group.bench_with_input(BenchmarkId::new(name, "20M_cycles"), &cfg, |b, cfg| {
            b.iter(|| Simulator::new(black_box(cfg.clone())).run())
        });
    }
    group.finish();
}

/// Tie stress: an on-chip Sync offload issues zero-latency device
/// completions that tie with host-slice events to the bit, so the event
/// loop spends its time in multi-event timestamp runs, which pop in
/// sequence order.
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/batch");
    let mut cfg = base_config();
    // Zero-overhead on-chip Sync.
    cfg.offload = Some(OffloadConfig {
        strategy: AccelerationStrategy::OnChip,
        device: DeviceKind::PerCore,
        interface_latency: 0.0,
        setup_cycles: 0.0,
        ..offload(ThreadingDesign::Sync)
    });
    let (_, stats) = Simulator::new(cfg.clone()).run_instrumented();
    group.throughput(Throughput::Elements(stats.events_processed));
    group.bench_with_input(
        BenchmarkId::new("on_chip_sync", "20M_cycles"),
        &cfg,
        |b, cfg| b.iter(|| Simulator::new(black_box(cfg.clone())).run()),
    );
    group.finish();
}

fn bench_load_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/load_sweep");
    let mut cfg = base_config();
    cfg.offload = Some(offload(ThreadingDesign::SyncOs));
    cfg.horizon = 1e7;
    let counts = [2usize, 4, 8, 16];
    group.throughput(Throughput::Elements(counts.len() as u64));
    let pool = ExecPool::new(1);
    group.bench_function("concurrency_2_to_16", |b| {
        b.iter(|| concurrency_sweep_with(&pool, black_box(&cfg), &counts).expect("valid sweep"))
    });
    group.finish();
}

/// Cross-point trace reuse at sweep scale: an 8-point concurrency sweep
/// with frozen-trace reuse off (every grid point redraws the identical
/// workload stream) versus on (one draw per sweep, points copy from the
/// shared trace). The `trace/draw_prefix` row measures the one-time
/// sampling cost itself, so `(off − on) / draw_prefix` reads as "how
/// many per-point redraws reuse eliminated".
fn bench_sweep_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/sweep8");
    let mut cfg = base_config();
    cfg.offload = Some(offload(ThreadingDesign::SyncOs));
    cfg.horizon = 5e6;
    let counts = [2usize, 3, 4, 6, 8, 12, 16, 24];
    group.throughput(Throughput::Elements(counts.len() as u64));
    let pool = ExecPool::new(1);
    set_trace_reuse(false);
    group.bench_function("reuse_off", |b| {
        b.iter(|| concurrency_sweep_with(&pool, black_box(&cfg), &counts).expect("valid sweep"))
    });
    set_trace_reuse(true);
    group.bench_function("reuse_on", |b| {
        b.iter(|| concurrency_sweep_with(&pool, black_box(&cfg), &counts).expect("valid sweep"))
    });
    group.finish();

    let mut group = c.benchmark_group("trace");
    let mut probe = cfg.clone();
    probe.threads = 24;
    let requests = FrozenTrace::for_config(&probe).len() as u64;
    group.throughput(Throughput::Elements(requests));
    group.bench_function("draw_prefix", |b| {
        b.iter(|| FrozenTrace::for_config(black_box(&probe)))
    });
    group.finish();
}

fn bench_percentiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/percentiles");
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let samples: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..n).map(|_| rng.gen_range(1e3..1e6)).collect()
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("from_samples", n),
            &samples,
            |b, samples| b.iter(|| LatencyStats::from_samples(black_box(samples))),
        );
        // The engine's finish path: latencies are recorded as keys, so
        // only the sort and fold remain (the copy keeps the input
        // unsorted across iterations).
        let keys: Vec<u64> = samples.iter().map(|&x| total_order_key(x)).collect();
        group.bench_with_input(BenchmarkId::new("from_keys", n), &keys, |b, keys| {
            b.iter(|| LatencyStats::from_keys(&mut black_box(keys.clone())))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_events,
    bench_batch,
    bench_load_sweep,
    bench_sweep_reuse,
    bench_percentiles
);
criterion_main!(benches);
