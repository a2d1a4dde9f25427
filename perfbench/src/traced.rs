//! The traced run: the same work as one round, driven through each
//! layer's public functions with a span around every call.
//!
//! Spans live in memory and are written out when the benchmark ends. A
//! span's self time is its duration minus the part its child spans
//! cover. Nothing here reaches inside the program: where a command's
//! internals are private, the call is one opaque span and the split it
//! hides is listed in [`UNREACHABLE_SPLITS`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use accelerometer::exec::ExecPool;
use accelerometer::{project, sweep, ConfigFile, LatencySlo};
use accelerometer_fleet::params::all_recommendations;
use accelerometer_fleet::{all_case_studies, profile, ServiceId};
use accelerometer_kernels::Mlp;
use accelerometer_profiler::{analyze, TraceGenerator};
use accelerometer_sim::faultsweep::demo_scenario;
use accelerometer_sim::{
    run_sharded_instrumented, simulate, validate_fallback_with, Calibrator, FaultPlan,
    FaultScenario, FaultSweepReport, FrozenTrace, LatencyStats, PolicyOutcome, RecoveryPolicy,
    SimMetrics, Simulator,
};
use serde_json::Value;

use crate::check::{kernel_equivalence_problems, model_vs_sim_points};
use crate::workload::{
    read, Workload, CHARACTERIZE_SAMPLES, HEAVY_FALLBACK, PAPER_TABLES, TABLE6_CONFIG,
};

/// `accelctl faults`'s default seed.
const FAULTS_SEED: u64 = 20_260_806;
/// `accelctl validate`'s default seed.
const VALIDATE_SEED: u64 = 20_260_706;
/// `accelctl characterize`'s default seed.
const CHARACTERIZE_SEED: u64 = 42;

/// Splits the traced run cannot make from outside the program.
pub const UNREACHABLE_SPLITS: [&str; 6] = [
    "sim.casestudy: trace draw vs event loop vs percentiles inside each Table 6 A/B (its SimConfigs are private to casestudy.rs)",
    "sim.faultsweep (validate --case fallback): trace draw vs event loop inside validate_fallback_with (its configs are private)",
    "sim.metrics: percentiles run inside every engine finish; percentiles_s is a probe at the same sample counts, overlapping sim.engine/sim.shard/sim.casestudy time and not added to the traced total",
    "sim.shard: epoch barrier and demand exchange vs per-shard event loops inside run_sharded_instrumented",
    "kernels: the timing harness loop vs the kernel body inside Calibrator::*_paired",
    "cli: argument parsing and text formatting; estimated as cli.self_s from the untraced round",
];

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `sim.engine`.
    pub name: &'static str,
    /// Index of the enclosing span in the same round, if any.
    pub parent: Option<usize>,
    /// Index of the command (operation) that caused it.
    pub op: usize,
    /// Start, in nanoseconds since the round began.
    pub start_ns: u64,
    /// End, in nanoseconds since the round began.
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans and counters of one traced round.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: usize,
    open: Vec<usize>,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Counters summed over the round, by name.
    pub counters: BTreeMap<String, f64>,
    /// Completed-request counts of every simulation the round ran: the
    /// sample counts the percentile probe replays.
    pub sample_counts: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            sample_counts: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (result, self.spans[index].seconds())
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.timed(name, f).0
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_owned()).or_default() += value;
    }

    /// Raises counter `name` to at least `value`.
    pub fn peak(&mut self, name: &str, value: f64) {
        let slot = self.counters.entry(name.to_owned()).or_default();
        *slot = slot.max(value);
    }

    /// Self time per layer: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut times: BTreeMap<&'static str, f64> = BTreeMap::new();
        for span in &self.spans {
            *times.entry(span.name).or_default() += span.seconds();
            if let Some(parent) = span.parent {
                *times.entry(self.spans[parent].name).or_default() -= span.seconds();
            }
        }
        times
    }

    /// Total duration per layer, children included.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_default() += span.seconds();
        }
        totals
    }

    /// The summed duration of the outermost spans of command `op`.
    pub fn op_total(&self, op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.op == op)
            .map(Span::seconds)
            .sum()
    }

    /// The traced total: the summed duration of the outermost spans.
    pub fn traced_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::seconds)
            .sum()
    }
}

/// The measured cost of one empty span: the tracer's resolution floor
/// and the unit of tracing overhead.
pub fn span_floor() -> f64 {
    const SPANS: usize = 20_000;
    let mut tracer = Tracer::default();
    let start = Instant::now();
    for _ in 0..SPANS {
        tracer.span("floor", |_| ());
    }
    start.elapsed().as_secs_f64() / SPANS as f64
}

/// Inputs a traced round needs from the untraced reference round.
#[derive(Debug)]
pub struct Reference {
    outputs: Vec<String>,
    /// Parsed fault reports, by command index (`None` for other commands).
    reports: Vec<Option<FaultSweepReport>>,
}

impl Reference {
    /// Wraps the reference round's outputs (errors become empty strings,
    /// so every traced comparison against them fails).
    pub fn new(outputs: &[Result<String, String>]) -> Self {
        let outputs: Vec<String> = outputs
            .iter()
            .map(|o| o.clone().unwrap_or_default())
            .collect();
        let reports = outputs
            .iter()
            .map(|o| serde_json::from_str(o).ok())
            .collect();
        Self { outputs, reports }
    }

    /// The reference output of command `i`.
    pub fn output(&self, i: usize) -> &str {
        &self.outputs[i]
    }
}

/// Runs one traced round of `workload`, returning the spans and the
/// problems found per command (checked after the spans close).
pub fn traced_round(
    workload: Workload,
    seed: Option<u64>,
    reference: &Reference,
) -> (Tracer, Vec<Vec<String>>) {
    let mut t = Tracer::default();
    // One entry per command, in command order: the next command's index
    // is always `problems.len()`.
    let mut problems: Vec<Vec<String>> = Vec::new();
    match workload {
        Workload::FaultSweep => {
            for (heavy, shards) in [(false, false), (false, true), (true, false), (true, true)] {
                let op = problems.len();
                t.op = op;
                let file = heavy.then_some(HEAVY_FALLBACK);
                problems.push(
                    match faults(&mut t, file, seed, shards, reference.reports[op].as_ref()) {
                        Ok(json) => same(&json, reference.output(op)),
                        Err(e) => vec![e],
                    },
                );
            }
            t.op = problems.len();
            let expected = reference.output(t.op);
            problems.push(fallback_table(
                &mut t,
                seed.unwrap_or(VALIDATE_SEED),
                expected,
            ));
        }
        Workload::Table6Ab => problems.push(table6(
            &mut t,
            seed.unwrap_or(VALIDATE_SEED),
            reference.output(0),
        )),
        Workload::PaperRegen => {
            for id in PAPER_TABLES {
                t.op = problems.len();
                let out = t.span("bench.render", |_| accelerometer_bench::render_table(id));
                problems.push(same(
                    out.as_deref().unwrap_or_default(),
                    reference.output(t.op),
                ));
            }
            for id in accelerometer_bench::FIGURE_IDS {
                t.op = problems.len();
                let out = t.span("bench.render", |_| accelerometer_bench::figure(id));
                problems.push(same(
                    out.as_deref().unwrap_or_default(),
                    reference.output(t.op),
                ));
            }
            t.op = problems.len();
            problems.push(projections(&mut t));
            t.op = problems.len();
            problems.push(estimates(&mut t));
            for id in ServiceId::ALL {
                t.op = problems.len();
                let out = characterize(&mut t, id, seed.unwrap_or(CHARACTERIZE_SEED));
                problems.push(same(&out, reference.output(t.op)));
            }
        }
        Workload::KernelCalibrate => problems.push(calibrate(&mut t)),
    }
    (t, problems)
}

fn same(actual: &str, expected: &str) -> Vec<String> {
    if actual == expected {
        Vec::new()
    } else {
        vec!["traced output differs from the untraced command's".to_owned()]
    }
}

/// `faults [file] [--seed S]` through the sweep's parts: the trace draw,
/// one engine run per policy (or a sharded run), the outcome assembly,
/// and the JSON render. The report's `model_check` fields come from the
/// untraced report, since the model check is private to the sweep.
fn faults(
    t: &mut Tracer,
    file: Option<&str>,
    seed: Option<u64>,
    shards: bool,
    reference: Option<&FaultSweepReport>,
) -> Result<String, String> {
    let scenario = t.span("cli.config", |_| -> Result<FaultScenario, String> {
        Ok(match file {
            Some(path) => {
                let mut scenario: FaultScenario =
                    serde_json::from_str(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
                if let Some(s) = seed {
                    scenario.base.seed = s;
                }
                scenario
            }
            None => demo_scenario(seed.unwrap_or(FAULTS_SEED)),
        })
    })?;
    let report = t.span("sim.faultsweep", |t| sweep(t, &scenario, shards, reference))?;
    t.span("render.json", |_| serde_json::to_string_pretty(&report))
        .map_err(|e| e.to_string())
}

fn sweep(
    t: &mut Tracer,
    scenario: &FaultScenario,
    shards: bool,
    reference: Option<&FaultSweepReport>,
) -> Result<FaultSweepReport, String> {
    let slo = LatencySlo::at_least(scenario.slo_min_p99_ratio).map_err(|e| e.to_string())?;
    let mut healthy = scenario.base.clone();
    healthy.fault = FaultPlan::none();
    healthy.recovery = RecoveryPolicy::none();
    let mut configs = vec![healthy];
    for named in &scenario.policies {
        let mut cfg = scenario.base.clone();
        cfg.fault = scenario.plan.clone();
        cfg.recovery = named.policy;
        configs.push(cfg);
    }

    let mut results: Vec<SimMetrics> = Vec::with_capacity(configs.len());
    if shards {
        let pool = ExecPool::new(2);
        for cfg in &configs {
            let (metrics, stats) = t
                .span("sim.shard", |_| run_sharded_instrumented(&pool, cfg))
                .map_err(|e| e.to_string())?;
            let events = &stats.per_shard_events;
            let mean = events.iter().sum::<u64>() as f64 / events.len().max(1) as f64;
            t.count("sim.shard.epochs", stats.plan.epochs as f64);
            t.count(
                "sim.shard.max_events",
                events.iter().copied().max().unwrap_or(0) as f64,
            );
            t.count("sim.shard.mean_events", mean);
            results.push(metrics);
        }
    } else {
        let trace = t.span("sim.trace", |_| {
            Arc::new(FrozenTrace::for_config(&configs[0]))
        });
        t.count("sim.trace.requests", trace.len() as f64);
        for cfg in &configs {
            let (metrics, stats) = t
                .span("sim.engine", |_| {
                    Simulator::try_new_with_trace(cfg.clone(), Some(Arc::clone(&trace)))
                        .map(Simulator::run_instrumented)
                })
                .map_err(|e| e.to_string())?;
            t.count("sim.engine.events", stats.events_processed as f64);
            t.count("sim.engine.heap_sift_ups", stats.heap_sift_ups as f64);
            t.count("sim.engine.heap_sift_downs", stats.heap_sift_downs as f64);
            t.count(
                "sim.engine.trace_requests_replayed",
                stats.trace_requests_replayed as f64,
            );
            t.count("sim.engine.bank_refills", stats.bank_refills as f64);
            t.peak(
                "sim.engine.peak_live_requests",
                stats.peak_live_requests as f64,
            );
            results.push(metrics);
        }
    }
    for m in &results {
        t.sample_counts.push(m.latency.count);
        if m.faults.active {
            t.count("sim.faultsweep.retries", m.faults.retries as f64);
            t.count("sim.faultsweep.fallbacks", m.faults.fallbacks as f64);
            t.count("sim.faultsweep.timeouts", m.faults.timeouts as f64);
            t.count("sim.faultsweep.goodput", m.faults.goodput_per_gcycle);
            t.count("sim.faultsweep.throughput", m.throughput_per_gcycle);
        }
    }

    let healthy = results.remove(0);
    let outcomes = scenario
        .policies
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (named, metrics))| {
            let p99 = metrics.latency.p99;
            let ratio = if p99 > 0.0 {
                healthy.latency.p99 / p99
            } else {
                0.0
            };
            PolicyOutcome {
                policy: named.name.clone(),
                goodput_per_gcycle: if metrics.faults.active {
                    metrics.faults.goodput_per_gcycle
                } else {
                    metrics.throughput_per_gcycle
                },
                p99_latency: p99,
                p99_ratio_vs_healthy: ratio,
                slo_met: slo.is_met_by_ratio(ratio),
                model_check: reference
                    .and_then(|r| r.outcomes.get(i))
                    .and_then(|o| o.model_check),
                metrics,
            }
        })
        .collect();
    Ok(FaultSweepReport {
        seed: scenario.base.seed,
        slo_min_p99_ratio: scenario.slo_min_p99_ratio,
        healthy,
        outcomes,
    })
}

/// `validate --case fallback`: one opaque span over the validation rows.
fn fallback_table(t: &mut Tracer, seed: u64, expected: &str) -> Vec<String> {
    let rows = t.span("sim.faultsweep", |_| {
        validate_fallback_with(&ExecPool::new(1), seed)
    });
    let printed: Vec<f64> = rows
        .iter()
        .map(|r| printed_points(r.model_vs_simulated_points()))
        .collect();
    if printed == model_vs_sim_points(expected) {
        Vec::new()
    } else {
        vec!["traced fallback rows differ from the untraced table".to_owned()]
    }
}

/// A model-vs-simulated figure as the validation tables print it.
fn printed_points(points: f64) -> f64 {
    format!("{points:.2}").parse().unwrap_or(f64::NAN)
}

/// `validate`: one span per Table 6 case study's A/B.
fn table6(t: &mut Tracer, seed: u64, expected: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut printed = Vec::new();
    for study in all_case_studies() {
        let (result, seconds) = t.timed("sim.casestudy", |_| simulate(&study, seed));
        t.count(&format!("sim.casestudy.simulate_s.{}", study.name), seconds);
        match result {
            Ok((v, ab)) => {
                t.count(
                    "sim.casestudy.completed_requests",
                    (ab.baseline.completed_requests + ab.treatment.completed_requests) as f64,
                );
                t.sample_counts
                    .extend([ab.baseline.latency.count, ab.treatment.latency.count]);
                printed.push(printed_points(v.model_vs_simulated_points()));
            }
            Err(e) => problems.push(e.to_string()),
        }
    }
    if printed != model_vs_sim_points(expected) {
        problems.push("traced Table 6 rows differ from the untraced table".to_owned());
    }
    problems
}

/// `project`: every §5 recommendation through the model.
fn projections(t: &mut Tracer) -> Vec<String> {
    let failures = t.span("core.project", |_| {
        all_recommendations()
            .iter()
            .flat_map(|rec| {
                rec.configs
                    .iter()
                    .map(|cfg| project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy))
                    .collect::<Vec<_>>()
            })
            .filter(Result::is_err)
            .count()
    });
    if failures == 0 {
        Vec::new()
    } else {
        vec![format!("{failures} projections failed")]
    }
}

/// `estimate configs/table6.json`: load the file, then the model.
fn estimates(t: &mut Tracer) -> Vec<String> {
    let scenarios = t.span("cli.config", |_| -> Result<_, String> {
        let cfg = ConfigFile::from_json(&read(TABLE6_CONFIG)?).map_err(|e| e.to_string())?;
        cfg.to_scenarios().map_err(|e| e.to_string())
    });
    match scenarios {
        Ok(scenarios) => {
            let bare: Vec<_> = scenarios.iter().map(|(_, s)| *s).collect();
            let estimates = t.span("core.estimate", |_| {
                sweep::estimate_batch_with(&ExecPool::new(1), &bare)
            });
            if estimates.is_empty() {
                vec!["no estimates".to_owned()]
            } else {
                Vec::new()
            }
        }
        Err(e) => vec![e],
    }
}

/// `characterize <service> --samples 5000`: generate, analyze, render.
/// Freeing the generated traces (about a sixth of the command) is
/// counted to `profiler.generate`, which allocated them.
fn characterize(t: &mut Tracer, id: ServiceId, seed: u64) -> String {
    let (generator, traces) = t.span("profiler.generate", |_| {
        let mut generator = TraceGenerator::new(profile(id), seed);
        let traces = generator.generate(CHARACTERIZE_SAMPLES);
        (generator, traces)
    });
    let report = t.span("profiler.analyze", |_| {
        analyze(&traces, generator.registry())
    });
    let out = t.span("profiler.render", |_| {
        format!("characterization of {id}:\n{}", report.render())
    });
    t.span("profiler.generate", |_| drop((generator, traces, report)));
    out
}

/// `calibrate`: each kernel family paired on both ISA tiers.
fn calibrate(t: &mut Tracer) -> Vec<String> {
    let cal = Calibrator::new(2.0e9, 32, 16);
    let pairs = [
        (
            "aes_ctr",
            t.span("kernels", |_| cal.encryption_paired(4096)),
        ),
        (
            "lz_compress",
            t.span("kernels", |_| cal.compression_paired(4096)),
        ),
        ("sha256", t.span("kernels", |_| cal.hashing_paired(4096))),
        (
            "mlp_batch",
            t.span("kernels", |_| {
                cal.inference_paired(&Mlp::seeded_ranker(&[512, 256, 64, 1], 42), 16)
            }),
        ),
    ];
    let mut problems = kernel_equivalence_problems();
    for (name, pair) in pairs {
        let (dispatched, scalar) = (
            pair.dispatched.cycles_per_byte().get(),
            pair.scalar.cycles_per_byte().get(),
        );
        if !(dispatched.is_finite() && dispatched > 0.0 && scalar.is_finite() && scalar > 0.0) {
            problems.push(format!("{name}: cycles/byte {dispatched} / {scalar}"));
        }
        t.count(&format!("kernels.{name}.cpb.dispatched"), dispatched);
        t.count(&format!("kernels.{name}.cpb.scalar"), scalar);
    }
    problems
}

/// Seconds `LatencyStats::from_samples` takes over samples of each of
/// `counts` (the percentile step at the round's real sample counts).
pub fn percentile_probe(counts: &[usize], seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut total = 0.0;
    for &n in counts {
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                1_000.0 - 4_000.0 * u.ln()
            })
            .collect();
        let start = Instant::now();
        std::hint::black_box(LatencyStats::from_samples(std::hint::black_box(&samples)));
        total += start.elapsed().as_secs_f64();
    }
    total
}

/// The spans of a traced round as JSON, for the trace file.
pub fn spans_json(round: usize, tracer: &Tracer) -> Vec<Value> {
    tracer
        .spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "round": round,
                "op": s.op,
                "name": s.name,
                "parent": s.parent,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            })
        })
        .collect()
}
