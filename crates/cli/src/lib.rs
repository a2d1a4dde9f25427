//! # accelctl
//!
//! The Accelerometer artifact workflow as a command-line tool
//! (Appendix A.5 of the paper): "(a) identify model parameters for the
//! accelerator under test, (b) input these model parameters into a
//! configuration file, and (c) run the Accelerometer model for these
//! model parameters to estimate speedup from acceleration."
//!
//! Commands:
//!
//! * `accelctl estimate <config.json>` — evaluate every scenario in a
//!   parameter file (see [`accelerometer::config`] for the format);
//! * `accelctl breakeven --cb <c/B> --a <A> [--o0 N] [--l N] [--q N]
//!   [--o1 N] [--design D] [--strategy S]` — minimum lucrative `g`;
//! * `accelctl sweep <config.json> --axis <axis> --from <x> --to <x>
//!   [--points N]` — sweep one parameter of the file's first scenario;
//! * `accelctl project` — the §5 acceleration recommendations (Fig. 20);
//! * `accelctl characterize <service> [--samples N] [--seed N]` — run the
//!   synthetic profiler and print the §2 breakdowns;
//! * `accelctl validate [--seed N] [--case C]` — run the Table 6 A/B
//!   validation in the simulator (optionally a single case study, or
//!   `--case fallback` for the fault-capacity validation table);
//! * `accelctl faults [scenario.json] [--seed N]` — sweep a fault
//!   scenario across recovery policies and emit a JSON report
//!   (deterministic at any `--jobs` width);
//! * `accelctl timeline <design>` — render the Figs. 12–14 offload
//!   timeline for a threading design;
//! * `accelctl bounds <config.json>` — decompose each scenario's cycle
//!   budget and name the dominant performance bound;
//! * `accelctl slo <config.json> [--min-reduction R]` — latency-SLO
//!   guardrails: tolerable L, n, and required A per scenario;
//! * `accelctl tables <id|all>` — regenerate the paper's tables;
//! * `accelctl figures [ids|all] [--json]` — regenerate the paper's
//!   figures (and the extra `design-space` heatmap);
//! * `accelctl ablations [--seed N]` — the modeling-choice ablations;
//! * `accelctl services list|validate <path>|export <dir>` — inspect,
//!   check, or write out the service profiles (the builtin ones are the
//!   `configs/services/` files, embedded at build time).
//!
//! [`run`] parses the global flags once into an
//! [`accelerometer_sim::RunContext`] and hands it to the command, so a
//! flag never outlives the call that gave it. The global
//! `--services <dir|file>` flag loads service profiles from JSON and
//! routes the command through them instead of the embedded builtin data
//! — byte-identically for the shipped files, which the golden
//! equivalence suite pins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use accelerometer::units::cycles_per_byte;
use accelerometer::{
    bounds, project, slo, sweep, throughput_breakeven, AccelerationStrategy, BreakEven,
    ConfigFile, Cycles, DriverMode, KernelCost, LatencySlo, OffloadContext, OffloadOverheads,
    Scenario, ThreadingDesign, Timeline, TimelineSpec,
};
use accelerometer_bench::{figure_json, figure_with, render_table_with, FIGURE_IDS, TABLE_IDS};
use accelerometer_fleet::{ServiceId, ServiceRegistry};
use accelerometer_kernels::dispatch;
use accelerometer_profiler::{analyze, to_folded, TraceGenerator};
use accelerometer_sim::faultsweep::demo_scenario;
use accelerometer_sim::{
    run_fault_sweep_with, set_trace_reuse, simulate, validate_all_with, validate_fallback_with,
    Calibrator, ExecPool, FaultScenario, RunContext, SimError, CASE_STUDY_NAMES,
};

/// Largest `--points` a sweep accepts.
const MAX_POINTS: usize = 10_000;
/// Largest `--samples` `characterize` accepts.
const MAX_SAMPLES: usize = 10_000_000;

/// Top-level usage text.
pub const USAGE: &str = "usage: accelctl [--jobs N] [--shards N] [--trace-reuse on|off] [--isa scalar|auto] [--services <dir|file>] <command> [args]
global flags:
  --jobs N                        worker threads for independent runs
                                  (default: available parallelism; results
                                  are byte-identical at any N)
  --shards N                      shard each simulation across worker
                                  threads (default: off). The shard count
                                  is derived from the configuration, so
                                  output is byte-identical at any N >= 1;
                                  sharded output is a different (documented)
                                  decomposition than the unsharded engine
  --trace-reuse on|off            reuse one frozen workload trace across a
                                  sweep's grid points (default: on). Both
                                  settings are byte-identical; off exists
                                  to prove it and to measure the sampling
                                  cost it removes
  --isa scalar|auto               pin the measured kernels' ISA dispatch
                                  (default: auto, or KERNELS_FORCE_SCALAR=1).
                                  Kernel outputs are bit-identical either
                                  way; only wall-clock changes, which is
                                  what `calibrate` measures
  --services <dir|file>           load service profiles from JSON spec
                                  files (see configs/services/) instead of
                                  the builtin profiles (those files,
                                  embedded at build time); services
                                  without a file keep their builtin
commands:
  estimate <config.json>          evaluate scenarios from a parameter file
  breakeven --cb <c/B> --a <A> [--o0 N] [--l N] [--q N] [--o1 N]
            [--design D] [--strategy S]
  sweep <config.json> --axis <peak-speedup|interface-latency|offloads|
        kernel-fraction|queueing|thread-switch> --from X --to X [--points N]
  project                         Section 5 recommendations (Fig. 20)
  characterize <service> [--samples N] [--seed N] [--folded]
  validate [--seed N] [--case C]  Table 6 A/B validation in the simulator
                                  (C: aes-ni | encryption | inference |
                                  fallback — the fault-capacity table:
                                  model fallback-load term vs simulated
                                  A/B per failure probability)
  calibrate                       measure the case-study kernels on this
                                  host, both ISA tiers paired in the same
                                  session; prints per-kernel cycles/byte
                                  and the measured acceleration factor
  faults [scenario.json] [--seed N]   fault-injection sweep across recovery
                                  policies; JSON report, byte-identical at
                                  any --jobs width
  timeline <sync|sync-os|async-same-thread|async-distinct-thread|
            async-no-response>
  bounds <config.json>            dominant performance bound per scenario
  slo <config.json> [--min-reduction R]   latency-SLO guardrails
  tables <id|all>                 regenerate the paper's tables
                                  (table1 .. table7)
  figures [ids|all] [--json]      regenerate the paper's figures (fig1 ..
                                  fig22, default all) or the extra
                                  design-space heatmap; --json prints the
                                  data figures' series instead
  ablations [--seed N]            the modeling-choice ablations (alpha
                                  weighting, queueing, pool depth, prior
                                  model)
  services list                   service ids, slugs, and profile sources
  services validate <dir|file>    parse + validate profile JSON; exits
                                  non-zero on the first malformed spec
  services export <dir>           write every builtin profile as
                                  <dir>/<slug>.json (the embedded bytes
                                  of configs/services/)";

/// Runs the CLI on pre-split arguments (excluding the program name),
/// returning the text to print. Global flags are parsed into a
/// [`RunContext`] for this call only; `--isa` and `--trace-reuse`, which
/// cannot change an output byte, stay process settings.
///
/// # Errors
///
/// Returns a human-readable error message for unknown commands, missing
/// arguments, unreadable files, or invalid parameters.
pub fn run(args: &[String]) -> Result<String, String> {
    let (ctx, args) = parse_global_flags(args)?;
    let args = args.as_slice();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("estimate") => cmd_estimate(&ctx, &args[1..]),
        Some("calibrate") => Ok(cmd_calibrate()),
        Some("breakeven") => cmd_breakeven(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("project") => Ok(cmd_project(&ctx.registry)),
        Some("characterize") => cmd_characterize(&ctx, &args[1..]),
        Some("validate") => cmd_validate(&ctx, &args[1..]),
        Some("faults") => cmd_faults(&ctx, &args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("slo") => cmd_slo(&args[1..]),
        Some("tables") => cmd_tables(&ctx, &args[1..]),
        Some("figures") => cmd_figures(&ctx, &args[1..]),
        Some("ablations") => cmd_ablations(&ctx, &args[1..]),
        Some("services") => cmd_services(&ctx, &args[1..]),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

/// Splits the global flags off `args`, wherever they appear, and returns
/// the run context they describe plus the remaining arguments. Each flag
/// takes the next argument as its value.
///
/// * `--jobs N` sizes the worker pool for independent runs; `--shards N`
///   routes every simulation through the sharded runner on `N` workers
///   (the decomposition comes from each configuration, so any `N >= 1`
///   prints the same bytes). Neither changes a byte at any `N`.
/// * `--services <dir|file>` loads service profiles into the context.
/// * `--trace-reuse on|off` and `--isa scalar|auto` are applied as
///   process settings once every flag has parsed: neither can change an
///   output byte, `off` and `scalar` exist to prove that and to measure
///   what reuse and dispatch save.
fn parse_global_flags(args: &[String]) -> Result<(RunContext, Vec<String>), String> {
    let mut ctx = RunContext::from_process_defaults();
    let mut trace_reuse = None;
    let mut isa = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let needs = match flag {
            "--jobs" | "--shards" => "worker thread count",
            "--trace-reuse" => "on or off",
            "--isa" => "scalar or auto",
            "--services" => "profile dir or file",
            _ => {
                rest.push(arg.clone());
                continue;
            }
        };
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value ({needs})"))?;
        match (flag, value.as_str()) {
            ("--jobs", v) => ctx.pool = ExecPool::new(positive(flag, v)?),
            ("--shards", v) => ctx.shards = Some(ExecPool::new(positive(flag, v)?)),
            ("--trace-reuse", "on") => trace_reuse = Some(true),
            ("--trace-reuse", "off") => trace_reuse = Some(false),
            ("--isa", "scalar") => isa = Some(dispatch::IsaMode::Scalar),
            ("--isa", "auto") => isa = Some(dispatch::IsaMode::Auto),
            ("--services", v) => {
                let registry = ServiceRegistry::load_path(Path::new(v))
                    .map_err(|e| format!("--services {v}: {e}"))?;
                ctx.registry = Arc::new(registry);
            }
            (_, other) => return Err(format!("{flag} expects {needs}, got '{other}'")),
        }
    }
    if let Some(on) = trace_reuse {
        set_trace_reuse(on);
    }
    if let Some(mode) = isa {
        dispatch::set_isa_mode(mode);
    }
    Ok((ctx, rest))
}

fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got '{value}'")),
    }
}

/// `accelctl calibrate`: measure every case-study kernel on this host,
/// pairing the dispatched and scalar tiers in the same session so the
/// printed acceleration factor is a genuine A/B (same buffers, same
/// driver, same scheduler weather). Numbers are timing-dependent by
/// nature — this command is the interactive companion to the committed
/// `BENCH_kernels.json` medians, not a golden output.
fn cmd_calibrate() -> String {
    // The paper's 2 GHz busy frequency; matches the harness convention.
    let cal = Calibrator::new(2.0e9, 32, 16);
    let mut out = String::new();
    out.push_str(&format!(
        "host ISA: detected {} | active {}\n",
        dispatch::detected_summary(),
        dispatch::active_summary()
    ));
    out.push_str(&format!(
        "{:<12} {:>16} {:>16} {:>8}\n",
        "kernel", "dispatched c/B", "scalar c/B", "factor"
    ));
    for pair in cal.paired_case_studies() {
        out.push_str(&format!(
            "{:<12} {:>16.4} {:>16.4} {:>7.2}x\n",
            pair.dispatched.name,
            pair.dispatched.cycles_per_byte().get(),
            pair.scalar.cycles_per_byte().get(),
            pair.acceleration_factor()
        ));
    }
    out.push_str(
        "factor = scalar/dispatched cycles per byte; < 1.00x means the\n\
         SIMD path loses at this granularity (reported honestly).",
    );
    out
}

/// The argument after flag `name`; `None` when the flag is absent, and
/// an error when it is the last argument (a flag with no value used to
/// fall back silently to its default).
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value.clone())),
            None => Err(format!("{name} requires a value")),
        },
    }
}

/// The first argument that is neither a flag nor the value of one of
/// `value_flags`, wherever the flags appear.
fn first_positional<'a>(args: &'a [String], value_flags: &[&str]) -> Option<&'a String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if value_flags.contains(&arg.as_str()) {
            it.next();
        } else if !arg.starts_with("--") {
            return Some(arg);
        }
    }
    None
}

/// Parses flag `name` through `FromStr`; `None` when it is absent.
fn parse_flag<T: FromStr>(args: &[String], name: &str, expects: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name} expects {expects}, got '{v}'"))
        })
        .transpose()
}

/// A finite number; `default` when the flag is absent, which makes the
/// flag required when `default` is `None`.
fn parse_f64(args: &[String], name: &str, default: Option<f64>) -> Result<f64, String> {
    let value = match parse_flag::<f64>(args, name, "a number")? {
        Some(v) => v,
        None => default.ok_or_else(|| format!("missing required flag {name}"))?,
    };
    if value.is_finite() {
        Ok(value)
    } else {
        Err(format!("{name} must be finite, got {value}"))
    }
}

/// A count no larger than `max`; `default` when the flag is absent.
fn parse_count(args: &[String], name: &str, default: usize, max: usize) -> Result<usize, String> {
    let count = parse_flag(args, name, "a non-negative integer")?.unwrap_or(default);
    if count > max {
        return Err(format!("{name} must be at most {max}, got {count}"));
    }
    Ok(count)
}

/// The `--seed` flag, `default` when absent.
fn parse_seed(args: &[String], default: u64) -> Result<u64, String> {
    Ok(parse_flag(args, "--seed", "a non-negative integer")?.unwrap_or(default))
}

fn parse_design(value: &str) -> Result<ThreadingDesign, String> {
    serde_json::from_value(serde_json::Value::String(value.to_owned()))
        .map_err(|_| format!("unknown threading design '{value}'"))
}

fn parse_strategy(value: &str) -> Result<AccelerationStrategy, String> {
    serde_json::from_value(serde_json::Value::String(value.to_owned()))
        .map_err(|_| format!("unknown strategy '{value}'"))
}

fn parse_service(value: &str) -> Result<ServiceId, String> {
    ServiceId::ALL
        .into_iter()
        .find(|s| s.to_string().eq_ignore_ascii_case(value))
        .ok_or_else(|| format!("unknown service '{value}' (expected Web, Feed1, ..., Cache3)"))
}

fn load_config(path: &str) -> Result<ConfigFile, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ConfigFile::from_json(&text).map_err(|e| e.to_string())
}

fn format_scenario_estimate(
    name: &str,
    scenario: &Scenario,
    est: &accelerometer::Estimate,
) -> String {
    format!(
        "{name}: throughput speedup {:.4}x ({:+.2}%), latency reduction {:.4}x ({:+.2}%)  [{} / {}]",
        est.throughput_speedup,
        est.throughput_gain_percent(),
        est.latency_reduction,
        est.latency_gain_percent(),
        scenario.design,
        scenario.strategy,
    )
}

fn cmd_estimate(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    let path = args
        .first()
        .ok_or("estimate requires a config file path")?;
    let cfg = load_config(path)?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    if scenarios.is_empty() {
        return Err("config contains no scenarios".to_owned());
    }
    // Evaluate all scenarios through the worker pool (honors --jobs).
    let bare: Vec<Scenario> = scenarios.iter().map(|(_, s)| *s).collect();
    let estimates = sweep::estimate_batch_with(&ctx.pool, &bare);
    let mut out = String::new();
    for ((name, scenario), est) in scenarios.iter().zip(&estimates) {
        let _ = writeln!(out, "{}", format_scenario_estimate(name, scenario, est));
    }
    Ok(out)
}

fn cmd_breakeven(args: &[String]) -> Result<String, String> {
    let rate = |name| match parse_f64(args, name, None)? {
        v if v > 0.0 => Ok(v),
        v => Err(format!("{name} must be positive, got {v}")),
    };
    let overhead = |name| match parse_f64(args, name, Some(0.0))? {
        v if v >= 0.0 => Ok(v),
        v => Err(format!("{name} must be non-negative, got {v}")),
    };
    let cb = rate("--cb")?;
    let a = rate("--a")?;
    let o0 = overhead("--o0")?;
    let l = overhead("--l")?;
    let q = overhead("--q")?;
    let o1 = overhead("--o1")?;
    let design = match flag_value(args, "--design")? {
        Some(d) => parse_design(&d)?,
        None => ThreadingDesign::Sync,
    };
    let strategy = match flag_value(args, "--strategy")? {
        Some(s) => parse_strategy(&s)?,
        None => AccelerationStrategy::OffChip,
    };
    let ctx = OffloadContext::new(OffloadOverheads::new(o0, l, q, o1), a, design, strategy);
    let cost = KernelCost::linear(cycles_per_byte(cb));
    let be = throughput_breakeven(&cost, &ctx);
    Ok(match be {
        BreakEven::AtLeast(g) => format!(
            "offloads improve throughput when g >= {:.1} B  [{design} / {strategy}]",
            g.get()
        ),
        BreakEven::Always => format!("every offload improves throughput  [{design} / {strategy}]"),
        BreakEven::Never => format!(
            "no granularity improves throughput (A = {a} cannot recoup overheads)  [{design} / {strategy}]"
        ),
    })
}

fn cmd_sweep(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("sweep requires a config file path")?;
    let cfg = load_config(path)?;
    let (name, scenario) = cfg
        .to_scenarios()
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or("config contains no scenarios")?;
    let axis_name = flag_value(args, "--axis")?.ok_or("missing required flag --axis")?;
    let axis: sweep::SweepAxis =
        serde_json::from_value(serde_json::Value::String(axis_name.clone()))
            .map_err(|_| format!("unknown sweep axis '{axis_name}'"))?;
    let from = parse_f64(args, "--from", None)?;
    let to = parse_f64(args, "--to", None)?;
    let points = parse_count(args, "--points", 10, MAX_POINTS)?;
    if from >= to || points < 2 {
        return Err("sweep requires --from < --to and --points >= 2".to_owned());
    }
    let values = if from > 0.0 {
        sweep::log_space(from, to, points)
    } else {
        sweep::lin_space(from, to, points)
    };
    let mut out = format!("sweep of {axis_name} for scenario '{name}':\n");
    for point in sweep::sweep(&scenario, axis, &values) {
        let _ = writeln!(
            out,
            "  {axis_name} = {:>12.2}: speedup {:.4}x, latency reduction {:.4}x",
            point.x, point.estimate.throughput_speedup, point.estimate.latency_reduction
        );
    }
    Ok(out)
}

fn cmd_project(services: &ServiceRegistry) -> String {
    let mut out = String::from("Section 5 acceleration recommendations (Fig. 20):\n");
    for rec in services.recommendations() {
        let _ = writeln!(out, "{} (ideal {:.1}%):", rec.name, rec.paper_ideal_percent);
        for cfg in &rec.configs {
            let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy)
                .expect("static recommendation parameters are valid");
            let breakeven = match p.breakeven {
                BreakEven::AtLeast(g) => format!("g >= {:.0} B", g.get()),
                BreakEven::Always => "all offloads".to_owned(),
                BreakEven::Never => "never lucrative".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {:<18} speedup {:>6.2}%  latency {:>6.2}%  n = {:>9.0}  ({breakeven})",
                cfg.label,
                p.estimate.throughput_gain_percent(),
                p.estimate.latency_gain_percent(),
                p.selection.offloads,
            );
        }
    }
    out
}

fn cmd_characterize(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    let service = parse_service(args.first().ok_or("characterize requires a service name")?)?;
    let samples = parse_count(args, "--samples", 50_000, MAX_SAMPLES)?;
    let seed = parse_seed(args, 42)?;
    if samples == 0 {
        return Err("--samples must be positive".to_owned());
    }
    let mut generator = TraceGenerator::for_service(&ctx.registry, service, seed);
    let traces = generator.generate(samples);
    if args.iter().any(|a| a == "--folded") {
        // Collapsed-stack output for flamegraph tooling.
        return Ok(to_folded(&traces));
    }
    let report = analyze(&traces, generator.registry());
    Ok(format!("characterization of {service}:\n{}", report.render()))
}

fn cmd_validate(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    let seed = parse_seed(args, 20_260_706)?;
    if let Some(name) = flag_value(args, "--case")? {
        if name == "fallback" {
            // Not a Table 6 row: the fault-capacity analogue. Model's
            // fallback-load term vs a simulated A/B per failure rate.
            let mut out = String::from(
                "fallback-capacity validation (model vs simulated A/B; retries 1, fallback-to-host):\n",
            );
            for r in validate_fallback_with(&ctx.pool, seed) {
                let _ = writeln!(
                    out,
                    "  p = {:.1}  E[a] {:.2}  p_fb {:.3}  model {:>6.2}%  simulated {:>6.2}%  fallbacks {:>5}  core util {:.4}  (model-vs-sim {:.2} pts)",
                    r.failure_probability,
                    r.expected_attempts,
                    r.fallback_probability,
                    r.model_gain_percent,
                    r.simulated_gain_percent,
                    r.fallbacks,
                    r.core_utilization,
                    r.model_vs_simulated_points(),
                );
            }
            out.push_str(
                "fallback re-executions are scheduled core slices: the model's\n\
                 p_fb*alpha load term tracks the simulator within 2 points\n",
            );
            return Ok(out);
        }
        let Some(study) = ctx.registry.case_study(&name) else {
            // `fallback` is a CLI-level case (handled above), not a sim
            // case study, so append it to the sim error's valid list.
            return Err(format!(
                "{}; 'fallback' selects the fault-capacity table",
                SimError::UnknownCaseStudy {
                    name,
                    valid: CASE_STUDY_NAMES,
                }
            ));
        };
        let (v, _ab) = simulate(&study, seed).map_err(|e| e.to_string())?;
        return Ok(format!(
            "case study {}: model {:.2}%  simulated {:.2}%  paper est {:.1}% real {:.2}%  (model-vs-sim {:.2} pts)\n",
            v.name,
            v.model_estimate_percent,
            v.simulated_percent,
            v.paper_estimated_percent,
            v.paper_real_percent,
            v.model_vs_simulated_points(),
        ));
    }
    let mut out = String::from("Table 6 validation (model vs simulated A/B vs paper):\n");
    let studies = ctx.registry.case_studies();
    for v in validate_all_with(&ctx.pool, &studies, seed).map_err(|e| e.to_string())? {
        let _ = writeln!(
            out,
            "  {:<11} model {:>6.2}%  simulated {:>6.2}%  paper est {:>5.1}% real {:>6.2}%  (model-vs-sim {:.2} pts)",
            v.name,
            v.model_estimate_percent,
            v.simulated_percent,
            v.paper_estimated_percent,
            v.paper_real_percent,
            v.model_vs_simulated_points(),
        );
    }
    out.push_str("paper's bound: model estimates real speedup with <= 3.7% error\n");
    Ok(out)
}

/// `accelctl faults [scenario.json] [--seed N]`: run the fault sweep —
/// the built-in degradation scenario by default, or one loaded from a
/// JSON file — and emit the report as pretty-printed JSON. Every run is
/// an independent seeded simulation, so output is byte-identical at any
/// `--jobs` width.
fn cmd_faults(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    let seed = parse_seed(args, 20_260_806)?;
    let scenario = match first_positional(args, &["--seed"]) {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut scenario: FaultScenario = serde_json::from_str(&text)
                .map_err(|e| format!("invalid fault scenario {path}: {e}"))?;
            // --seed overrides the file's seed; otherwise the file wins.
            if flag_value(args, "--seed")?.is_some() {
                scenario.base.seed = seed;
            }
            scenario
        }
        None => demo_scenario(seed),
    };
    let report = run_fault_sweep_with(&ctx.pool, ctx.shards.as_ref(), &scenario)
        .map_err(|e| e.to_string())?;
    serde_json::to_string_pretty(&report).map_err(|e| e.to_string())
}

fn cmd_timeline(args: &[String]) -> Result<String, String> {
    let design = parse_design(args.first().ok_or("timeline requires a threading design")?)?;
    let spec = TimelineSpec {
        kernel_cycles: Cycles::new(10_000.0),
        peak_speedup: 10.0,
        overheads: OffloadOverheads::new(300.0, 600.0, 200.0, 500.0),
        design,
        strategy: AccelerationStrategy::OffChip,
        driver: DriverMode::AwaitsAck,
    };
    Ok(format!(
        "offload timeline for {design}:\n{}",
        Timeline::build(spec).render_ascii(70)
    ))
}

fn cmd_bounds(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("bounds requires a config file path")?;
    let cfg = load_config(path)?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (name, scenario) in &scenarios {
        let report = bounds::diagnose(scenario);
        let _ = writeln!(out, "{name}:");
        for line in report.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    Ok(out)
}

fn cmd_slo(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("slo requires a config file path")?;
    let cfg = load_config(path)?;
    let min_reduction = parse_f64(args, "--min-reduction", Some(1.0))?;
    let target = LatencySlo::at_least(min_reduction).map_err(|e| e.to_string())?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    let mut out = format!("latency SLO: require C/CL >= {min_reduction}\n");
    for (name, scenario) in &scenarios {
        let met = if target.is_met_by(scenario) { "MET" } else { "VIOLATED" };
        let max_l = slo::max_interface_latency(scenario, target)
            .map_or("infeasible".to_owned(), |c| format!("{:.0} cycles", c.get()));
        let max_n = slo::max_offload_rate(scenario, target)
            .map_or("infeasible".to_owned(), |n| {
                if n.is_infinite() {
                    "unbounded".to_owned()
                } else {
                    format!("{n:.0}/window")
                }
            });
        let min_a = slo::min_peak_speedup(scenario, target)
            .map_or("infeasible".to_owned(), |a| format!("{a:.2}"));
        let _ = writeln!(
            out,
            "  {name}: {met}; max L = {max_l}; max n = {max_n}; min A = {min_a}"
        );
        if slo::gains_throughput_but_slows_requests(scenario) {
            let _ = writeln!(
                out,
                "    warning: gains throughput while slowing individual requests (Sync-OS hazard)"
            );
        }
    }
    Ok(out)
}

/// `accelctl tables <id|all>`: regenerate the paper's tables through
/// the run's profile data — the embedded builtin specs by default, or
/// the files `--services` names. The tier-1 gate diffs the two paths
/// byte-for-byte.
fn cmd_tables(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    let id = args
        .first()
        .ok_or("tables requires a table id (table1 .. table7) or 'all'")?;
    if id == "all" {
        let mut out = String::new();
        for id in TABLE_IDS {
            out.push_str(&render_table_with(ctx, id)?);
            out.push('\n');
        }
        return Ok(out);
    }
    render_table_with(ctx, id)
}

/// `accelctl figures [ids|all] [--json]`: regenerate figures (default:
/// every paper figure) on the worker pool and print them in request
/// order. `--json` prints each data figure's series; `all --json`
/// covers the figures that have series, and asking for a timeline's or
/// the design space's series by id is an error.
fn cmd_figures(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    let json = args.iter().any(|a| a == "--json");
    let requested: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--json")
        .collect();
    let all = requested.is_empty() || requested.contains(&"all");
    let ids = if all { FIGURE_IDS.to_vec() } else { requested };
    if let Some(id) = ids
        .iter()
        .find(|id| **id != "design-space" && !FIGURE_IDS.contains(id))
    {
        return Err(format!(
            "unknown figure id: {id} (expected fig1..fig22, or design-space)"
        ));
    }
    // Build independent figures in parallel, print in request order.
    let rendered = ctx.pool.map(&ids, |_, &id| {
        if json {
            figure_json(ctx, id).map(|value| {
                serde_json::to_string_pretty(&serde_json::json!({ id: value }))
                    .expect("figure data serializes")
            })
        } else {
            figure_with(ctx, id)
        }
    });
    let mut texts = Vec::with_capacity(ids.len());
    for (id, text) in ids.iter().zip(rendered) {
        match text {
            Some(text) => texts.push(text),
            None if all => {}
            None => return Err(format!("no JSON series for {id} (text-only figure)")),
        }
    }
    Ok(texts.join("\n"))
}

/// `accelctl ablations [--seed N]`: the modeling-choice ablations, their
/// simulator experiments on the worker pool.
fn cmd_ablations(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    let seed = parse_seed(args, 20_260_706)?;
    accelerometer_bench::ablations::render_all(ctx, seed).map_err(|e| e.to_string())
}

/// `accelctl services list|validate <dir|file>|export <dir>`: the
/// data-driven profile toolkit. `validate` is the CI gate over
/// `configs/services/`; `export` writes the embedded builtin specs,
/// which are those files' bytes.
fn cmd_services(ctx: &RunContext, args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let registry = &ctx.registry;
            let mut out = format!(
                "{:<14} {:<14} {:<13} source\n",
                "service", "slug", "domain"
            );
            for id in ServiceId::ALL {
                let source = if registry.loaded_services().contains(&id) {
                    "loaded file"
                } else {
                    "builtin"
                };
                let _ = writeln!(
                    out,
                    "{:<14} {:<14} {:<13} {source}",
                    id.to_string(),
                    id.slug(),
                    format!("{:?}", id.domain()),
                );
            }
            Ok(out)
        }
        Some("validate") => {
            let path = args
                .get(1)
                .ok_or("services validate requires a path (profile dir or file)")?;
            let registry =
                ServiceRegistry::load_path(Path::new(path)).map_err(|e| e.to_string())?;
            let loaded: Vec<&str> = registry
                .loaded_services()
                .iter()
                .map(|id| id.slug())
                .collect();
            Ok(format!(
                "ok: {} valid service spec(s): {}\n",
                loaded.len(),
                loaded.join(", ")
            ))
        }
        Some("export") => {
            let dir = args
                .get(1)
                .ok_or("services export requires a target directory")?;
            let written = ServiceRegistry::export_dir(Path::new(dir)).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for path in &written {
                let _ = writeln!(out, "wrote {}", path.display());
            }
            Ok(out)
        }
        _ => Err("services requires a subcommand: list | validate <dir|file> | export <dir>"
            .to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn write_config() -> String {
        let path = std::env::temp_dir().join(format!("accelctl-test-{}.json", std::process::id()));
        fs::write(
            &path,
            r#"{"scenarios": [{
                "name": "aes-ni-cache1",
                "c": 2.0e9, "alpha": 0.165844, "n": 298951,
                "o0": 10, "l": 3, "a": 6,
                "design": "sync", "strategy": "on-chip"
            }]}"#,
        )
        .expect("temp file writable");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&[]).unwrap().contains("usage"));
        assert!(run(&args(&["help"])).unwrap().contains("estimate"));
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn jobs_flag_is_global_and_validated() {
        let path = write_config();
        let out = run(&args(&["--jobs", "2", "estimate", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("aes-ni-cache1"), "{out}");
        assert!(out.contains("+15.7"), "{out}");
        // Missing / non-positive values are rejected before dispatch.
        assert!(run(&args(&["--jobs"])).unwrap_err().contains("--jobs"));
        assert!(run(&args(&["--jobs", "zero", "help"])).is_err());
        assert!(run(&args(&["--jobs", "0", "help"])).is_err());
    }

    #[test]
    fn isa_flag_is_global_and_validated() {
        // The flag must strip cleanly ahead of any command and reject
        // unknown modes before dispatch. Outputs are bit-identical at
        // either setting (the kernels' equivalence suite proves that),
        // so `help` is a sufficient carrier command here.
        let out = run(&args(&["--isa", "scalar", "help"])).unwrap();
        assert!(out.contains("usage:"), "{out}");
        let out = run(&args(&["--isa", "auto", "help"])).unwrap();
        assert!(out.contains("usage:"), "{out}");
        assert!(run(&args(&["--isa"])).unwrap_err().contains("--isa"));
        assert!(run(&args(&["--isa", "avx512", "help"]))
            .unwrap_err()
            .contains("avx512"));
        // Leave the process in auto mode for any test that runs after.
        dispatch::set_isa_mode(dispatch::IsaMode::Auto);
    }

    #[test]
    fn calibrate_reports_all_paired_kernels() {
        let out = run(&args(&["calibrate"])).unwrap();
        for kernel in ["encryption", "compression", "hashing", "inference"] {
            assert!(out.contains(kernel), "missing {kernel}:\n{out}");
        }
        assert!(out.contains("host ISA: detected"), "{out}");
        // Honest-reporting footer: losses are printed, not hidden.
        assert!(out.contains("reported honestly"), "{out}");
    }

    #[test]
    fn estimate_reproduces_case_study_1() {
        let path = write_config();
        let out = run(&args(&["estimate", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("aes-ni-cache1"), "{out}");
        assert!(out.contains("+15.7"), "{out}");
    }

    #[test]
    fn estimate_errors_on_missing_file() {
        let err = run(&args(&["estimate", "/nonexistent/file.json"])).unwrap_err();
        assert!(err.contains("cannot read"));
        assert!(run(&args(&["estimate"])).is_err());
    }

    #[test]
    fn breakeven_reports_425_bytes() {
        let out = run(&args(&[
            "breakeven", "--cb", "5.62", "--a", "27", "--l", "2300",
        ]))
        .unwrap();
        assert!(out.contains("425"), "{out}");
        // Async variant: threshold drops to ~409 B.
        let out = run(&args(&[
            "breakeven",
            "--cb",
            "5.62",
            "--a",
            "27",
            "--l",
            "2300",
            "--design",
            "async-no-response",
        ]))
        .unwrap();
        assert!(out.contains("409"), "{out}");
    }

    #[test]
    fn breakeven_requires_cb_and_a() {
        assert!(run(&args(&["breakeven", "--cb", "5.0"])).is_err());
        assert!(run(&args(&["breakeven", "--a", "6"])).is_err());
        assert!(run(&args(&["breakeven", "--cb", "x", "--a", "6"])).is_err());
    }

    #[test]
    fn sweep_runs_over_config() {
        let path = write_config();
        let out = run(&args(&[
            "sweep", &path, "--axis", "peak-speedup", "--from", "2", "--to", "32", "--points", "5",
        ]))
        .unwrap();
        fs::remove_file(&path).ok();
        assert_eq!(out.lines().count(), 6, "{out}");
        assert!(out.contains("speedup"));
        // Bad axis.
        let err = run(&args(&["sweep", "/nonexistent", "--axis", "x"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn project_prints_fig20_numbers() {
        let out = cmd_project(&ServiceRegistry::builtin());
        assert!(out.contains("Feed1: Compression"));
        assert!(out.contains("13.6"), "{out}");
        assert!(out.contains("g >= 425 B"), "{out}");
    }

    #[test]
    fn characterize_runs_profiler() {
        let out = run(&args(&["characterize", "web", "--samples", "5000"])).unwrap();
        assert!(out.contains("characterization of Web"));
        assert!(out.contains("Logging"));
        let err = run(&args(&["characterize", "nope"])).unwrap_err();
        assert!(err.contains("unknown service"));
    }

    #[test]
    fn bounds_names_the_dominant_term() {
        let path = write_config();
        let out = run(&args(&["bounds", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("aes-ni-cache1"), "{out}");
        assert!(out.contains("accelerator time on host path"), "{out}");
        assert!(out.contains("ceiling"), "{out}");
    }

    #[test]
    fn slo_reports_guardrails() {
        let path = write_config();
        let out = run(&args(&["slo", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("MET"), "{out}");
        assert!(out.contains("max L"), "{out}");
        // An unreachable SLO reports infeasibility.
        let path = write_config();
        let out = run(&args(&["slo", &path, "--min-reduction", "3.0"])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("VIOLATED"), "{out}");
        assert!(out.contains("infeasible"), "{out}");
    }

    #[test]
    fn characterize_folded_emits_collapsed_stacks() {
        let out = run(&args(&["characterize", "cache1", "--samples", "500", "--folded"])).unwrap();
        assert!(out.lines().count() > 20, "{out}");
        let first = out.lines().next().unwrap();
        assert!(first.contains(';'), "{first}");
        assert!(first.rsplit(' ').next().unwrap().parse::<u64>().is_ok());
    }

    #[test]
    fn validate_runs_a_single_case_and_rejects_unknown_names() {
        let out = run(&args(&["validate", "--case", "aes-ni"])).unwrap();
        assert!(out.contains("case study aes-ni"), "{out}");
        assert!(out.contains("model"), "{out}");
        // Regression: an unknown name used to panic inside the sim
        // crate; it must now surface the structured error listing the
        // valid names.
        let err = run(&args(&["validate", "--case", "bogus"])).unwrap_err();
        assert!(err.contains("unknown case study 'bogus'"), "{err}");
        assert!(err.contains("aes-ni, encryption, inference"), "{err}");
        assert!(err.contains("'fallback'"), "{err}");
    }

    #[test]
    fn validate_fallback_prints_the_fault_capacity_table() {
        let out = run(&args(&["validate", "--case", "fallback"])).unwrap();
        assert!(out.contains("fallback-capacity validation"), "{out}");
        // One row per swept probability, healthy row included.
        for p in ["p = 0.0", "p = 0.2", "p = 0.5", "p = 0.8"] {
            assert!(out.contains(p), "missing {p}:\n{out}");
        }
        assert!(out.contains("model-vs-sim"), "{out}");
    }

    #[test]
    fn shards_flag_is_global_and_validated() {
        let one = run(&args(&["--shards", "1", "faults"])).unwrap();
        let four = run(&args(&["--shards", "4", "faults"])).unwrap();
        assert_eq!(one, four, "faults report must not depend on --shards width");
        let classic = run(&args(&["faults"])).unwrap();
        assert_ne!(
            one, classic,
            "the demo scenario decomposes into 2 shards, a different run"
        );
        // Missing / non-positive values are rejected before dispatch.
        assert!(run(&args(&["--shards"])).unwrap_err().contains("--shards"));
        assert!(run(&args(&["--shards", "zero", "help"])).is_err());
        assert!(run(&args(&["--shards", "0", "help"])).is_err());
    }

    #[test]
    fn trace_reuse_flag_is_global_validated_and_byte_exact() {
        // The sweep-level bit-exactness contract: a full fault sweep's
        // JSON must not change by a byte whether grid points share one
        // frozen trace (default) or redraw their streams per point.
        let reused = run(&args(&["--trace-reuse", "on", "faults"])).unwrap();
        let redrawn = run(&args(&["--trace-reuse", "off", "faults"])).unwrap();
        set_trace_reuse(true);
        assert_eq!(reused, redrawn, "trace reuse changed sweep output");
        // And under sharding, where traces are per derived shard seed.
        let reused = run(&args(&["--trace-reuse", "on", "--shards", "2", "faults"])).unwrap();
        let redrawn = run(&args(&["--trace-reuse", "off", "--shards", "2", "faults"])).unwrap();
        set_trace_reuse(true);
        assert_eq!(reused, redrawn, "trace reuse changed sharded sweep output");
        // And across the fallback table's A/B batch, which shares one
        // trace among its eight arms.
        let fallback = |reuse| {
            let argv = ["--trace-reuse", reuse, "validate", "--case", "fallback"];
            run(&args(&argv))
        };
        let (reused, redrawn) = (fallback("on").unwrap(), fallback("off").unwrap());
        set_trace_reuse(true);
        assert_eq!(reused, redrawn, "trace reuse changed the fallback table");
        // Missing / unknown values are rejected before dispatch.
        assert!(run(&args(&["--trace-reuse"]))
            .unwrap_err()
            .contains("--trace-reuse"));
        assert!(run(&args(&["--trace-reuse", "maybe", "help"])).is_err());
    }

    #[test]
    fn faults_sweep_reports_every_policy() {
        let out = run(&args(&["faults", "--seed", "11"])).unwrap();
        for policy in ["no-recovery", "retry", "retry-fallback", "admission", "full"] {
            assert!(out.contains(&format!("\"{policy}\"")), "{policy} missing");
        }
        assert!(out.contains("goodput_per_gcycle"), "{out}");
        assert!(out.contains("slo_met"), "{out}");
        assert!(run(&args(&["faults", "/nonexistent.json"]))
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn faults_config_file_matches_the_builtin_scenario() {
        let builtin = run(&args(&["faults"])).unwrap();
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/faults-degradation.json"
        );
        let from_file = run(&args(&["faults", path])).unwrap();
        assert_eq!(builtin, from_file);
    }

    #[test]
    fn faults_finds_the_scenario_path_after_the_seed_flag() {
        // `faults --seed 5 <file>` used to ignore the file and run the
        // builtin demo scenario.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/faults-heavy-fallback.json"
        );
        let path_first = run(&args(&["faults", path, "--seed", "5"])).unwrap();
        let seed_first = run(&args(&["faults", "--seed", "5", path])).unwrap();
        assert_eq!(path_first, seed_first);
        assert_ne!(seed_first, run(&args(&["faults", "--seed", "5"])).unwrap());
    }

    #[test]
    fn a_value_flag_given_last_is_an_error() {
        // Each of these used to exit 0, silently using the default.
        for argv in [
            &["characterize", "web", "--samples", "100", "--seed"][..],
            &["breakeven", "--cb", "5", "--a", "27", "--design"],
            &["breakeven", "--cb", "5", "--a", "27", "--strategy"],
            &["validate", "--case"],
            &["faults", "--seed"],
        ] {
            let err = run(&args(argv)).expect_err(&format!("{argv:?}"));
            let flag = argv.last().expect("non-empty argv");
            assert_eq!(err, format!("{flag} requires a value"), "{argv:?}");
        }
    }

    #[test]
    fn integer_flags_reject_what_a_float_cast_used_to_saturate() {
        // Each of these used to go through `parse_f64(..) as u64/usize`:
        // NaN and negatives became 0, huge values saturated, and the
        // sample / point counts then aborted on a huge allocation or
        // panicked with a capacity overflow.
        for (argv, needle) in [
            (&["characterize", "web", "--samples", "4000000000"][..], "at most 10000000"),
            (&["characterize", "web", "--samples", "18446744073709551615"], "at most"),
            (&["characterize", "web", "--samples", "-1"], "--samples"),
            (&["characterize", "web", "--samples", "nan"], "--samples"),
            (&["characterize", "web", "--seed", "-5"], "--seed"),
            (&["characterize", "web", "--seed", "1e3"], "--seed"),
            (&["validate", "--seed", "nan"], "--seed"),
            (&["faults", "--seed", "-1"], "--seed"),
            (&["ablations", "--seed", "x"], "--seed"),
        ] {
            let err = run(&args(argv)).expect_err(&format!("{argv:?}"));
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn sweep_rejects_non_finite_bounds_and_huge_point_counts() {
        let path = write_config();
        let sweep = |extra: &[&str]| {
            let mut argv = args(&["sweep", &path, "--axis", "offloads"]);
            argv.extend(args(extra));
            run(&argv)
        };
        // Used to panic at `log_space requires 0 < lo < hi`.
        let err = sweep(&["--from", "1", "--to", "nan"]).unwrap_err();
        assert!(err.contains("--to must be finite"), "{err}");
        assert!(sweep(&["--from", "-inf", "--to", "1"]).is_err());
        // Used to panic with a capacity overflow.
        let err = sweep(&["--from", "0", "--to", "1e308", "--points", "18446744073709551615"])
            .unwrap_err();
        assert!(err.contains("--points must be at most 10000"), "{err}");
        assert!(sweep(&["--from", "1", "--to", "2", "--points", "-3"]).is_err());
        // The cap itself is accepted.
        let out = sweep(&["--from", "1", "--to", "2", "--points", "10000"]).unwrap();
        fs::remove_file(&path).ok();
        assert_eq!(out.lines().count(), 10_001);
    }

    #[test]
    fn breakeven_rejects_non_finite_and_out_of_domain_parameters() {
        for argv in [
            &["breakeven", "--cb", "nan", "--a", "2"][..],
            &["breakeven", "--cb", "-1", "--a", "2"],
            &["breakeven", "--cb", "0", "--a", "2"],
            &["breakeven", "--cb", "inf", "--a", "inf"],
            &["breakeven", "--cb", "5", "--a", "-27"],
            &["breakeven", "--cb", "5", "--a", "27", "--l", "nan"],
            &["breakeven", "--cb", "5", "--a", "27", "--o0", "-1"],
            &["breakeven", "--cb", "5", "--a", "27", "--q", "inf"],
            &["breakeven", "--cb", "5", "--a", "27", "--o1", "-0.5"],
        ] {
            let err = run(&args(argv)).expect_err(&format!("{argv:?}"));
            assert!(err.contains("must be"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn params_file_rejects_an_overflowing_peak_speedup() {
        // `"a": 1e400` parses to infinity and used to estimate +19.60%.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/bad_params_overflow_a.json"
        );
        let err = run(&args(&["estimate", path])).unwrap_err();
        assert!(err.contains("invalid parameter A = inf"), "{err}");
    }

    #[test]
    fn figures_print_in_request_order_and_reject_unknown_ids() {
        let ctx = RunContext::from_process_defaults();
        let out = run(&args(&["figures", "fig3", "fig1"])).unwrap();
        let expected = [
            figure_with(&ctx, "fig3").unwrap(),
            figure_with(&ctx, "fig1").unwrap(),
        ];
        assert_eq!(out, expected.join("\n"));
        let space = run(&args(&["figures", "design-space"])).unwrap();
        assert_eq!(space.matches("== Design space").count(), 3, "{space}");
        let err = run(&args(&["figures", "fig99"])).unwrap_err();
        assert!(err.contains("unknown figure id: fig99"), "{err}");
        // A timeline has no series; asking for it by id is an error,
        // while `all --json` covers the 18 data figures.
        assert!(run(&args(&["figures", "fig12", "--json"])).is_err());
        let all = run(&args(&["--jobs", "2", "figures", "all", "--json"])).unwrap();
        assert_eq!(all.matches("\n}").count(), 18);
        assert!(all.starts_with("{\n  \"fig1\""), "{all}");
    }

    #[test]
    fn timeline_renders_designs() {
        let out = run(&args(&["timeline", "sync-os"])).unwrap();
        assert!(out.contains("accelerator"));
        assert!(run(&args(&["timeline", "bogus"])).is_err());
    }
}
