//! End-to-end benchmark of the `accelctl` runner commands.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. One closed-loop client issues each
//! command of the workload in-process (`accelerometer_cli::run`, or
//! `accelerometer_bench::figure` for figures) when the previous one
//! returns, always with `--jobs 1`. One round is one pass over the
//! workload's commands; rounds repeat for `--seconds`. Every output is
//! checked, and a wrong output counts as a failed operation.
//!
//! `--trace 0` first starts this program afresh a few times to time
//! set-up, then prints the end-to-end metrics (rounds timed in process
//! CPU seconds, with wall seconds beside them in the details);
//! `--trace 1` alternates untraced rounds with traced rounds (see
//! `traced.rs`) and prints the per-layer metrics. The last stdout line
//! is the result object; the line before it holds the details
//! (provenance, sample counts, shares). See `README.md` for the
//! workloads and the layer map.

mod check;
mod provenance;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command as Process, Stdio};
use std::time::Instant;

use serde_json::{json, Value};

use check::{
    check, model_vs_sim_points, table6_paper_points, Ledger, FALLBACK_MAX_POINTS, TABLE6_MAX_POINTS,
};
use stats::{median, tail};
use traced::{
    percentile_probe, span_floor, spans_json, traced_round, Reference, Tracer, UNREACHABLE_SPLITS,
};
use workload::{
    process_cpu_seconds, reset_process_globals, run_round, Check, Command, Round, Setup, Workload,
};

/// Fresh processes whose set-up time and peak memory are reported as
/// medians.
const SETUP_PROBES: usize = 7;
/// Rounds measured at least, however long they take.
const MIN_ROUNDS: usize = 20;
/// Traced rounds measured at least.
const MIN_TRACED_ROUNDS: usize = 5;
/// Repeats of the percentile probe, reported as their median.
const PROBE_REPEATS: u64 = 5;
/// Samples the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// Where result and trace files are written, under the checkout root.
const RESULTS_DIR: &str = ".bench_results";
/// The line a set-up probe prints when its cold round ends.
const COLD_ROUND_DONE: &str = "cold-round-done";

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("round_cpu_s.p50", "s"),
    ("round_cpu_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("traced.total_s", "s"),
    ("traced.coverage", "ratio"),
    ("traced.overhead_s", "s"),
    ("cli.self_s", "s"),
    ("cli.config_s", "s"),
    ("fleet.registry_load_s", "s"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns/event"),
    ("sim.engine.heap_sift_ups", "count"),
    ("sim.engine.heap_sift_downs", "count"),
    ("sim.engine.trace_requests_replayed", "count"),
    ("sim.engine.bank_refills", "count"),
    ("sim.engine.peak_live_requests", "count"),
    ("sim.trace.draw_s", "s"),
    ("sim.trace.requests", "count"),
    ("sim.casestudy.simulate_s.aes-ni", "s"),
    ("sim.casestudy.simulate_s.encryption", "s"),
    ("sim.casestudy.simulate_s.inference", "s"),
    ("sim.casestudy.completed_requests", "count"),
    ("sim.casestudy.ns_per_request", "ns/request"),
    ("sim.shard.run_s", "s"),
    ("sim.shard.epochs", "count"),
    ("sim.shard.events_imbalance", "ratio"),
    ("sim.metrics.percentiles_s", "s"),
    ("sim.faultsweep.sweep_s", "s"),
    ("sim.faultsweep.self_s", "s"),
    ("sim.faultsweep.retries", "count"),
    ("sim.faultsweep.fallbacks", "count"),
    ("sim.faultsweep.timeouts", "count"),
    ("sim.faultsweep.goodput_ratio", "ratio"),
    ("render.json_s", "s"),
    ("profiler.generate_s", "s"),
    ("profiler.analyze_s", "s"),
    ("profiler.render_s", "s"),
    ("bench.render_s", "s"),
    ("core.project_s", "s"),
    ("core.estimate_s", "s"),
    ("kernels.run_s", "s"),
    ("kernels.aes_ctr.cpb.dispatched", "cycles/B"),
    ("kernels.aes_ctr.cpb.scalar", "cycles/B"),
    ("kernels.sha256.cpb.dispatched", "cycles/B"),
    ("kernels.sha256.cpb.scalar", "cycles/B"),
    ("kernels.lz_compress.cpb.dispatched", "cycles/B"),
    ("kernels.lz_compress.cpb.scalar", "cycles/B"),
    ("kernels.mlp_batch.cpb.dispatched", "cycles/B"),
    ("kernels.mlp_batch.cpb.scalar", "cycles/B"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            workload: Workload::FaultSweep,
            seed: None,
            seconds: 20.0,
            trace: false,
            setup_probe: false,
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                opts.setup_probe = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
                "--seed" => opts.seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        opts.workload = workload.ok_or(
            "--workload is required (fault-sweep, table6-ab, paper-regen, kernel-calibrate)",
        )?;
        Ok(opts)
    }

    /// The flags a set-up probe re-runs this benchmark with.
    fn probe_args(&self) -> Vec<String> {
        let mut args = vec![
            "--setup-probe".to_owned(),
            "--workload".to_owned(),
            self.workload.name().to_owned(),
        ];
        if let Some(s) = self.seed {
            args.extend(["--seed".to_owned(), s.to_string()]);
        }
        args
    }

    fn seed_label(&self) -> String {
        self.seed
            .map_or_else(|| "default".to_owned(), |s| s.to_string())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Options::parse(&args).and_then(|opts| {
        reset_process_globals();
        if opts.setup_probe {
            setup_probe(&opts)
        } else if opts.trace {
            traced_run(&opts)
        } else {
            timed_run(&opts)
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Records every output of a round against its reference repetition.
fn record_round(
    ledger: &mut Ledger,
    commands: &[Command],
    outputs: &[Result<String, String>],
    reference: Option<&Reference>,
    setup: &Setup,
) {
    for (i, (cmd, out)) in commands.iter().zip(outputs).enumerate() {
        ledger.record(
            &cmd.label,
            &check(cmd, out, reference.map(|r| r.output(i)), setup),
        );
    }
}

/// Child mode: set up, run one cold round, announce it, then check it.
fn setup_probe(opts: &Options) -> Result<(), String> {
    let commands = opts.workload.commands(opts.seed);
    let setup = Setup::load(opts.workload)?;
    let outputs = run_round(&commands).outputs;
    println!(
        "{COLD_ROUND_DONE} {} {}",
        process_cpu_seconds(),
        peak_rss_mb()?
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let ops: Vec<Value> = commands
        .iter()
        .zip(&outputs)
        .map(|(cmd, out)| {
            json!({
                "digest": digest(out),
                "problems": check(cmd, out, None, &setup),
            })
        })
        .collect();
    println!("{}", Value::Array(ops));
    Ok(())
}

/// One set-up probe's outcome.
struct Probe {
    /// Wall seconds from spawn to the end of the cold round.
    setup_wall_s: f64,
    /// The process's CPU seconds at the end of the cold round.
    setup_cpu_s: f64,
    /// Peak resident memory at the end of the cold round.
    rss_mb: f64,
    /// Per command: output digest and the problems the child found.
    ops: Vec<(String, Vec<String>)>,
}

/// Starts this benchmark afresh and times it to the end of its cold round.
fn run_probe(opts: &Options) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Process::new(exe)
        .args(opts.probe_args())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    let lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
    let mut cold = None;
    let mut last = String::new();
    // A read error ends the loop like end of output; the child is always
    // waited for, and a missing line fails the probe below.
    for line in lines.map_while(Result::ok) {
        if cold.is_none() {
            if let Some(rest) = line.strip_prefix(COLD_ROUND_DONE) {
                let wall = start.elapsed().as_secs_f64();
                let numbers: Vec<f64> = rest
                    .split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect();
                cold = Some((wall, numbers));
            }
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let (setup_wall_s, setup_cpu_s, rss_mb) = match cold.as_ref().map(|(w, n)| (*w, n.as_slice())) {
        Some((wall, &[cpu, rss])) if status.success() => (wall, cpu, rss),
        _ => return Err(format!("set-up probe failed ({status})")),
    };
    let ops = serde_json::from_str::<Value>(&last)
        .ok()
        .and_then(|v| v.as_array().cloned())
        .ok_or("set-up probe printed no result")?
        .iter()
        .map(|op| {
            let digest = op
                .get("digest")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned();
            let problems = op
                .get("problems")
                .and_then(Value::as_array)
                .map(|p| {
                    p.iter()
                        .filter_map(|s| s.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default();
            (digest, problems)
        })
        .collect();
    Ok(Probe {
        setup_wall_s,
        setup_cpu_s,
        rss_mb,
        ops,
    })
}

/// `--trace 0`: set-up probes, a cold reference round, then timed rounds.
fn timed_run(opts: &Options) -> Result<(), String> {
    let commands = opts.workload.commands(opts.seed);
    let probes = (0..SETUP_PROBES)
        .map(|_| run_probe(opts))
        .collect::<Result<Vec<_>, _>>()?;

    let setup = Setup::load(opts.workload)?;
    let mut ledger = Ledger::default();
    let cold = run_round(&commands);
    record_round(&mut ledger, &commands, &cold.outputs, None, &setup);
    let reference = Reference::new(&cold.outputs);
    for probe in &probes {
        for (i, (cmd, (digest, problems))) in commands.iter().zip(&probe.ops).enumerate() {
            let mut problems = problems.clone();
            if cmd.check.repeats() && *digest != digest_of(reference.output(i)) {
                problems.push("fresh-process output differs from the in-process one".to_owned());
            }
            ledger.record(&format!("{} (set-up probe)", cmd.label), &problems);
        }
        if probe.ops.len() != commands.len() {
            ledger.record("set-up probe", &["wrong number of outputs".to_owned()]);
        }
    }

    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        let round = run_round(&commands);
        record_round(
            &mut ledger,
            &commands,
            &round.outputs,
            Some(&reference),
            &setup,
        );
        rounds.push(round);
    }
    let op_p50 = op_medians(&commands, &rounds);
    let cpu: Vec<f64> = rounds.iter().map(|r| r.cpu_seconds).collect();
    let rounds: Vec<f64> = rounds.iter().map(|r| r.seconds).collect();

    let setup_cpu: Vec<f64> = probes.iter().map(|p| p.setup_cpu_s).collect();
    let setup_wall: Vec<f64> = probes.iter().map(|p| p.setup_wall_s).collect();
    let probe_rss: Vec<f64> = probes.iter().map(|p| p.rss_mb).collect();
    let (tail_percentile, cpu_tail) = tail(&cpu, TAIL_BEYOND);
    let (_, wall_tail) = tail(&rounds, TAIL_BEYOND);
    let metrics = vec![
        ("round_cpu_s.p50", median(&cpu)),
        ("round_cpu_s.tail", cpu_tail),
        ("setup_s", median(&setup_cpu)),
        ("peak_rss_mb", median(&probe_rss)),
    ];
    let detail = json!({
        "workload": opts.workload.name(),
        "mode": "untraced",
        "provenance": provenance::collect(opts.seed),
        "client": "closed loop, one client, --jobs 1",
        "samples": json!({
            "rounds": rounds.len(),
            "ops_per_round": commands.len(),
            "setup_probes": probes.len(),
            "measured_s": start.elapsed().as_secs_f64(),
        }),
        "tail_percentile": tail_percentile,
        "round_s.p50": median(&rounds),
        "round_s.tail": wall_tail,
        "round_s_all": rounds,
        "round_cpu_s_all": cpu,
        "cold_round_s": cold.seconds,
        "op_s_p50": op_p50,
        "setup_s_all": setup_cpu,
        "setup_wall_s.p50": median(&setup_wall),
        "setup_wall_s_all": setup_wall,
        "peak_rss_mb_all": probe_rss,
        "measuring_process_peak_rss_mb": peak_rss_mb()?,
        "error_rate": ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "fidelity": fidelity(&commands, &reference),
        "failures": ledger.failures.clone(),
    });
    finish(opts, &ledger, &END_TO_END, &metrics, detail, None)
}

/// Median host seconds of each command over `rounds`, by label.
fn op_medians(commands: &[Command], rounds: &[Round]) -> Value {
    object(commands.iter().enumerate().map(|(i, cmd)| {
        (
            cmd.label.clone(),
            median(&rounds.iter().map(|r| r.op_seconds[i]).collect::<Vec<_>>()),
        )
    }))
}

/// Model-vs-simulator errors read from the reference outputs, with
/// whether each is within its bound (enforced only at default seeds).
fn fidelity(commands: &[Command], reference: &Reference) -> Value {
    let max = |v: Vec<f64>| v.into_iter().reduce(f64::max);
    let mut out = Vec::new();
    for (i, cmd) in commands.iter().enumerate() {
        let text = reference.output(i);
        let model_err = max(model_vs_sim_points(text));
        let within = |bound: f64| json!(model_err.is_some_and(|e| e <= bound));
        match cmd.check {
            Check::Table6 { .. } => {
                out.push(("table6_model_err_pts", json!(model_err)));
                out.push(("table6_within_paper_bound", within(TABLE6_MAX_POINTS)));
                out.push((
                    "table6_paper_err_pts",
                    json!(max(table6_paper_points(text))),
                ));
            }
            Check::Fallback { .. } => {
                out.push(("fallback_model_err_pts", json!(model_err)));
                out.push(("fallback_within_bound", within(FALLBACK_MAX_POINTS)));
            }
            _ => {}
        }
    }
    object(out)
}

/// A JSON object from ordered pairs (the map serializer here emits pairs).
fn object<K: std::fmt::Display, V: serde::Serialize>(
    pairs: impl IntoIterator<Item = (K, V)>,
) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), json!(v)))
            .collect(),
    )
}

/// `--trace 1`: alternate untraced and traced rounds, then report the
/// per-layer split.
fn traced_run(opts: &Options) -> Result<(), String> {
    let commands = opts.workload.commands(opts.seed);
    let setup = Setup::load(opts.workload)?;
    let floor = span_floor();
    let mut ledger = Ledger::default();
    let outputs = run_round(&commands).outputs;
    record_round(&mut ledger, &commands, &outputs, None, &setup);
    let reference = Reference::new(&outputs);

    let mut untraced: Vec<Round> = Vec::new();
    let mut rounds: Vec<Tracer> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_TRACED_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        let round = run_round(&commands);
        record_round(
            &mut ledger,
            &commands,
            &round.outputs,
            Some(&reference),
            &setup,
        );
        untraced.push(round);
        let (tracer, problems) = traced_round(opts.workload, opts.seed, &reference);
        for (cmd, problems) in commands.iter().zip(&problems) {
            ledger.record(&format!("{} (traced)", cmd.label), problems);
        }
        rounds.push(tracer);
    }
    let last = rounds.last().expect("at least one traced round");
    let probe_s: Vec<f64> = (0..PROBE_REPEATS)
        .map(|i| percentile_probe(&last.sample_counts, opts.seed.unwrap_or(0) + i))
        .collect();

    let layers = LayerStats::new(&rounds, floor);
    let untraced_op_p50 = op_medians(&commands, &untraced);
    let traced_op_p50 = object(commands.iter().enumerate().map(|(i, cmd)| {
        (
            cmd.label.clone(),
            median(&rounds.iter().map(|t| t.op_total(i)).collect::<Vec<_>>()),
        )
    }));
    let untraced: Vec<f64> = untraced.iter().map(|r| r.seconds).collect();
    let untraced_p50 = median(&untraced);
    let traced_total = median(&rounds.iter().map(Tracer::traced_total).collect::<Vec<_>>());
    let spans_per_round = last.spans.len() as f64;
    let overhead = spans_per_round * floor;
    let registry_load_s = setup.registry_load_s;

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    for (name, _) in PER_LAYER {
        let value = match name {
            "traced.total_s" => traced_total,
            "traced.coverage" => traced_total / untraced_p50,
            "traced.overhead_s" => overhead,
            "cli.self_s" => untraced_p50 - (traced_total - overhead),
            "fleet.registry_load_s" => registry_load_s,
            "sim.metrics.percentiles_s" => median(&probe_s).max(floor),
            _ => layers.metric(name),
        };
        metrics.push((name, value));
    }

    let shares: BTreeMap<&str, f64> = layers
        .self_s
        .iter()
        .map(|(k, v)| (*k, v / traced_total))
        .collect();
    let detail = json!({
        "workload": opts.workload.name(),
        "mode": "traced",
        "provenance": provenance::collect(opts.seed),
        "samples": json!({
            "traced_rounds": rounds.len(),
            "untraced_rounds": untraced.len(),
            "spans_per_round": spans_per_round,
            "percentile_probe_repeats": probe_s.len(),
        }),
        "untraced_round_s.p50": untraced_p50,
        "untraced_op_s_p50": untraced_op_p50,
        "traced_op_s_p50": traced_op_p50,
        "span_floor_s": floor,
        "self_s": object(layers.self_s.clone()),
        "self_share_of_traced_total": object(shares),
        "layers_not_reached": layers.unreached(),
        "unreachable_splits": UNREACHABLE_SPLITS,
        "failures": ledger.failures.clone(),
    });
    let spans: Vec<Value> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, t)| spans_json(i, t))
        .collect();
    finish(opts, &ledger, &PER_LAYER, &metrics, detail, Some(spans))
}

/// Per-layer figures over the traced rounds: medians of per-round times,
/// counts from the last round (they repeat exactly for a fixed seed),
/// medians of measured kernel speeds.
struct LayerStats {
    floor: f64,
    self_s: BTreeMap<&'static str, f64>,
    total_s: BTreeMap<&'static str, f64>,
    counters: BTreeMap<String, f64>,
}

impl LayerStats {
    fn new(rounds: &[Tracer], floor: f64) -> Self {
        let per_round = |f: &dyn Fn(&Tracer) -> BTreeMap<&'static str, f64>| {
            let maps: Vec<_> = rounds.iter().map(f).collect();
            let names: std::collections::BTreeSet<&'static str> =
                maps.iter().flat_map(|m| m.keys().copied()).collect();
            names
                .into_iter()
                .map(|n| {
                    (
                        n,
                        median(
                            &maps
                                .iter()
                                .map(|m| m.get(n).copied().unwrap_or(0.0))
                                .collect::<Vec<_>>(),
                        ),
                    )
                })
                .collect::<BTreeMap<_, _>>()
        };
        let self_s = per_round(&Tracer::self_times);
        let total_s = per_round(&Tracer::totals);
        let mut counters = rounds
            .last()
            .map(|t| t.counters.clone())
            .unwrap_or_default();
        for (name, value) in counters.iter_mut() {
            if name.starts_with("kernels.") || name.starts_with("sim.casestudy.simulate_s.") {
                *value = median(
                    &rounds
                        .iter()
                        .map(|t| t.counters.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                );
            }
        }
        Self {
            floor,
            self_s,
            total_s,
            counters,
        }
    }

    /// A layer's self time, or the span floor when this workload never
    /// enters the layer (so no time reads as a constant).
    fn time(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(self.floor)
    }

    fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let den = self.count(den);
        if den > 0.0 {
            self.count(num) / den
        } else {
            0.0
        }
    }

    fn unreached(&self) -> Vec<&'static str> {
        const LAYERS: [&str; 14] = [
            "cli.config",
            "sim.engine",
            "sim.trace",
            "sim.casestudy",
            "sim.shard",
            "sim.faultsweep",
            "render.json",
            "profiler.generate",
            "profiler.analyze",
            "profiler.render",
            "bench.render",
            "core.project",
            "core.estimate",
            "kernels",
        ];
        LAYERS
            .into_iter()
            .filter(|l| !self.self_s.contains_key(l))
            .collect()
    }

    fn metric(&self, name: &str) -> f64 {
        let per_unit_ns = |layer: &str, units: &str| {
            let n = self.count(units);
            if n > 0.0 {
                self.time(layer) * 1e9 / n
            } else {
                0.0
            }
        };
        match name {
            "cli.config_s" => self.time("cli.config"),
            "sim.engine.run_s" => self.time("sim.engine"),
            "sim.engine.ns_per_event" => per_unit_ns("sim.engine", "sim.engine.events"),
            "sim.trace.draw_s" => self.time("sim.trace"),
            "sim.casestudy.ns_per_request" => {
                per_unit_ns("sim.casestudy", "sim.casestudy.completed_requests")
            }
            "sim.shard.run_s" => self.time("sim.shard"),
            "sim.shard.events_imbalance" => {
                self.ratio("sim.shard.max_events", "sim.shard.mean_events")
            }
            "sim.faultsweep.sweep_s" => self
                .total_s
                .get("sim.faultsweep")
                .copied()
                .unwrap_or(self.floor),
            "sim.faultsweep.self_s" => self.time("sim.faultsweep"),
            "sim.faultsweep.goodput_ratio" => {
                self.ratio("sim.faultsweep.goodput", "sim.faultsweep.throughput")
            }
            "render.json_s" => self.time("render.json"),
            "profiler.generate_s" => self.time("profiler.generate"),
            "profiler.analyze_s" => self.time("profiler.analyze"),
            "profiler.render_s" => self.time("profiler.render"),
            "bench.render_s" => self.time("bench.render"),
            "core.project_s" => self.time("core.project"),
            "core.estimate_s" => self.time("core.estimate"),
            "kernels.run_s" => self.time("kernels"),
            n if n.starts_with("sim.casestudy.simulate_s.") => {
                self.counters.get(n).copied().unwrap_or(self.floor)
            }
            n => self.count(n),
        }
    }
}

/// Prints the detail line and the result line, and writes both (plus
/// any spans) under `RESULTS_DIR`.
fn finish(
    opts: &Options,
    ledger: &Ledger,
    catalog: &[(&str, &str)],
    metrics: &[(&str, f64)],
    detail: Value,
    spans: Option<Vec<Value>>,
) -> Result<(), String> {
    let units: BTreeMap<&str, &str> = catalog.iter().copied().collect();
    let mut entries = Vec::new();
    for (name, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        entries.push((
            name.to_string(),
            json!({ "value": value, "unit": units[name] }),
        ));
    }
    let result = json!({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": Value::Object(entries),
    });
    let file = format!(
        "{RESULTS_DIR}/{}-seed-{}-trace-{}.json",
        opts.workload.name(),
        opts.seed_label(),
        u8::from(opts.trace)
    );
    let saved = json!({ "detail": detail, "result": result, "spans": spans });
    std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&file, saved.to_pretty_string()))
        .map_err(|e| format!("cannot write {file}: {e}"))?;
    println!("{}", json!({ "detail": detail }));
    println!("{result}");
    Ok(())
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// FNV-1a digest of an output (errors hash as their message).
fn digest(out: &Result<String, String>) -> String {
    match out {
        Ok(text) => digest_of(text),
        Err(e) => format!("error:{e}"),
    }
}

fn digest_of(text: &str) -> String {
    format!(
        "{:016x}",
        provenance::fnv1a(text.as_bytes(), provenance::FNV_OFFSET)
    )
}

#[cfg(test)]
mod tests;
