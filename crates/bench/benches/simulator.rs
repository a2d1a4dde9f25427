//! Simulator benchmarks: how fast the discrete-event substrate chews
//! through simulated cycles, and the cost of a full Table 6 A/B
//! validation — the reproduction's equivalent of "how long does the
//! experiment take".

use accelerometer::units::cycles_per_byte;
use accelerometer::GranularityCdf;
use accelerometer_fleet::ServiceRegistry;
use accelerometer_sim::workload::WorkloadSpec;
use accelerometer_sim::{simulate, OffloadConfig, SimConfig, Simulator};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn control() -> SimConfig {
    SimConfig {
        cores: 4,
        threads: 8,
        context_switch_cycles: 500.0,
        horizon: 2e7,
        seed: 9,
        workload: WorkloadSpec {
            non_kernel_cycles: 5_000.0,
            kernels_per_request: 1,
            granularity: GranularityCdf::from_points(vec![(256.0, 0.5), (4_096.0, 1.0)])
                .expect("valid CDF"),
            cycles_per_byte: cycles_per_byte(2.0),
        },
        offload: None,
        fault: Default::default(),
        recovery: Default::default(),
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/engine");
    group.sample_size(20);
    group.throughput(Throughput::Elements(2e7 as u64)); // simulated cycles
    group.bench_function("baseline_20M_cycles", |b| {
        b.iter(|| Simulator::new(black_box(control())).run())
    });
    group.bench_function("sync_os_offload_20M_cycles", |b| {
        let mut cfg = control();
        cfg.offload = Some(OffloadConfig {
            design: accelerometer::ThreadingDesign::SyncOs,
            strategy: accelerometer::AccelerationStrategy::OffChip,
            driver: accelerometer::DriverMode::AwaitsAck,
            device: accelerometer_sim::DeviceKind::Shared { servers: 2 },
            peak_speedup: 8.0,
            interface_latency: 2_000.0,
            setup_cycles: 50.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: Some(512.0),
        });
        b.iter(|| Simulator::new(black_box(cfg.clone())).run())
    });
    group.finish();
}

fn bench_case_study(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/case_study");
    group.sample_size(10);
    let study = ServiceRegistry::builtin()
        .case_study("aes-ni")
        .expect("aes-ni case study");
    group.bench_function("aes_ni_ab_validation", |b| {
        b.iter(|| simulate(black_box(&study), 42))
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_case_study);
criterion_main!(benches);
