//! Criterion benchmarks of the analytical model itself: single
//! evaluations, end-to-end projections (break-even + CDF selection +
//! estimate), parameter sweeps, and config parsing. The model's pitch is
//! that it is cheap enough to run at design time for every candidate
//! accelerator; these benchmarks quantify "cheap".

use accelerometer::exec::{available_jobs, ExecPool};
use accelerometer::units::cycles_per_byte;
use accelerometer::{
    estimate, project, sweep, throughput_breakeven, AccelerationStrategy, ConfigFile, DriverMode,
    KernelCost, ModelParams, OffloadContext, OffloadOverheads, OffloadPolicy, Scenario,
    ThreadingDesign,
};
use accelerometer_fleet::{CaseStudy, ServiceRegistry};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn aes_ni() -> CaseStudy {
    ServiceRegistry::builtin()
        .case_study("aes-ni")
        .expect("aes-ni case study")
}

fn bench_estimate(c: &mut Criterion) {
    let params = aes_ni().scenario.params;
    c.bench_function("model/estimate_sync_on_chip", |b| {
        b.iter(|| {
            estimate(
                black_box(&params),
                ThreadingDesign::Sync,
                AccelerationStrategy::OnChip,
                DriverMode::Posted,
            )
        })
    });
    c.bench_function("model/estimate_all_designs", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for design in ThreadingDesign::ALL {
                for strategy in AccelerationStrategy::ALL {
                    total += estimate(black_box(&params), design, strategy, DriverMode::AwaitsAck)
                        .throughput_speedup;
                }
            }
            total
        })
    });
}

fn bench_projection(c: &mut Criterion) {
    let rec = ServiceRegistry::builtin()
        .recommendation("Feed1: Compression")
        .expect("Feed1 recommendation");
    let cfg = &rec.configs[1]; // off-chip Sync with CDF selection
    c.bench_function("model/project_with_cdf_selection", |b| {
        b.iter(|| {
            project(
                black_box(&rec.profile),
                black_box(&cfg.accelerator),
                cfg.design,
                OffloadPolicy::SelectiveLucrative,
            )
            .expect("valid parameters")
        })
    });
    c.bench_function("model/breakeven", |b| {
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, 2_300.0, 0.0, 5_750.0),
            27.0,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::OffChip,
        );
        let cost = KernelCost::linear(cycles_per_byte(5.62));
        b.iter(|| throughput_breakeven(black_box(&cost), black_box(&ctx)))
    });
}

fn bench_sweep(c: &mut Criterion) {
    let scenario = aes_ni().scenario;
    let values = sweep::log_space(1.0, 1_000.0, 100);
    c.bench_function("model/sweep_peak_speedup_100_points", |b| {
        b.iter(|| sweep::sweep(black_box(&scenario), sweep::SweepAxis::PeakSpeedup, &values))
    });
    let scenarios: Vec<Scenario> = (0..256)
        .map(|i| {
            let params = ModelParams::builder()
                .host_cycles(2.0e9)
                .kernel_fraction(0.1 + f64::from(i) * 0.003)
                .offloads(10_000.0)
                .interface_cycles(f64::from(i))
                .peak_speedup(8.0)
                .build()
                .expect("valid");
            Scenario::new(params, ThreadingDesign::Sync, AccelerationStrategy::OffChip)
        })
        .collect();
    let pool = ExecPool::new(available_jobs());
    c.bench_function("model/estimate_batch_256_parallel", |b| {
        b.iter(|| sweep::estimate_batch_with(&pool, black_box(&scenarios)))
    });
}

fn bench_config(c: &mut Criterion) {
    let table6 = ConfigFile::from_json(include_str!("../../../configs/table6.json"))
        .expect("table6.json parses");
    let cfg = ConfigFile {
        scenarios: table6.scenarios.iter().cycle().take(16).cloned().collect(),
    };
    let json = serde_json::to_string_pretty(&cfg).expect("serializes");
    c.bench_function("model/config_parse_16_scenarios", |b| {
        b.iter(|| ConfigFile::from_json(black_box(&json)).expect("parses"))
    });
}

criterion_group!(
    benches,
    bench_estimate,
    bench_projection,
    bench_sweep,
    bench_config
);
criterion_main!(benches);
