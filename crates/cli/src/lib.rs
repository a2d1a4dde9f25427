//! # accelctl
//!
//! The Accelerometer artifact workflow as a command-line tool
//! (Appendix A.5 of the paper): "(a) identify model parameters for the
//! accelerator under test, (b) input these model parameters into a
//! configuration file, and (c) run the Accelerometer model for these
//! model parameters to estimate speedup from acceleration."
//!
//! [`COMMANDS`] declares each command's arguments, usage and handler.
//! [`run`] parses the global flags into an
//! [`accelerometer_sim::RunContext`] for that call only, and the
//! command's arguments against its row. The global `--services` flag
//! routes a command through JSON service profiles instead of the
//! embedded builtin ones — byte-identically for the shipped files, which
//! the golden equivalence suite pins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use accelerometer::units::cycles_per_byte;
use accelerometer::{
    bounds, project, slo, sweep, throughput_breakeven, AccelerationStrategy, BreakEven, ConfigFile,
    KernelCost, LatencySlo, OffloadContext, OffloadOverheads, Scenario, ThreadingDesign, Timeline,
    TimelineSpec,
};
use accelerometer_bench::{figure_json, figure_with, render_table_with, FIGURE_IDS, TABLE_IDS};
use accelerometer_fleet::{ServiceId, ServiceRegistry};
use accelerometer_kernels::dispatch;
use accelerometer_profiler::{FoldedStacks, ProfileAccumulator, TraceGenerator};
use accelerometer_sim::faultsweep::{demo_scenario, FAULT_SEED};
use accelerometer_sim::{
    run_fault_sweep_with, validate_all_with, validate_fallback_with, Calibrator, ExecPool,
    FaultScenario, RunContext, SimError, CASE_STUDY_NAMES, VALIDATION_SEED,
};

/// Largest `--points` a sweep accepts.
const MAX_POINTS: usize = 10_000;
/// Largest `--samples` `characterize` accepts.
const MAX_SAMPLES: usize = 10_000_000;

/// The usage text's global half; [`usage`] appends every command's lines.
const GLOBAL_USAGE: &str =
    "usage: accelctl [--jobs N] [--shards N] [--services <dir|file>] <command> [args]
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
  --services <dir|file>           load service profiles from JSON spec
                                  files (see configs/services/) instead of
                                  the builtin profiles (those files,
                                  embedded at build time); services
                                  without a file keep their builtin
commands:";

/// One command: the single place its arguments are declared.
#[derive(Debug)]
pub struct CommandSpec {
    /// The word that selects the command.
    pub name: &'static str,
    /// The fewest and the most positional arguments it takes.
    pub arity: (usize, usize),
    /// Flags that take the next argument as their value.
    pub values: &'static [&'static str],
    /// Flags that stand alone.
    pub switches: &'static [&'static str],
    /// Its lines in the usage text.
    pub usage: &'static str,
    /// The handler, given the run's context and the parsed arguments.
    run: fn(&RunContext, &Parsed) -> Result<String, String>,
}

/// Every command `accelctl` runs, in usage order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "estimate",
        arity: (1, 1),
        values: &[],
        switches: &[],
        usage: "  estimate <config.json>          evaluate scenarios from a parameter file",
        run: cmd_estimate,
    },
    CommandSpec {
        name: "breakeven",
        arity: (0, 0),
        values: &[
            "--cb",
            "--a",
            "--o0",
            "--l",
            "--q",
            "--o1",
            "--design",
            "--strategy",
        ],
        switches: &[],
        usage: "  breakeven --cb <c/B> --a <A> [--o0 N] [--l N] [--q N] [--o1 N]
            [--design D] [--strategy S]",
        run: cmd_breakeven,
    },
    CommandSpec {
        name: "sweep",
        arity: (1, 1),
        values: &["--axis", "--from", "--to", "--points"],
        switches: &[],
        usage: "  sweep <config.json> --axis <peak-speedup|interface-latency|offloads|
        kernel-fraction|queueing|thread-switch> --from X --to X [--points N]",
        run: cmd_sweep,
    },
    CommandSpec {
        name: "project",
        arity: (0, 0),
        values: &[],
        switches: &[],
        usage: "  project                         Section 5 recommendations (Fig. 20)",
        run: cmd_project,
    },
    CommandSpec {
        name: "characterize",
        arity: (1, 1),
        values: &["--samples", "--seed"],
        switches: &["--folded"],
        usage: "  characterize <service> [--samples N] [--seed N] [--folded]",
        run: cmd_characterize,
    },
    CommandSpec {
        name: "validate",
        arity: (0, 0),
        values: &["--seed", "--case"],
        switches: &[],
        usage: "  validate [--seed N] [--case C]  Table 6 A/B validation in the simulator
                                  (C: aes-ni | encryption | inference |
                                  fallback — the fault-capacity table:
                                  model fallback-load term vs simulated
                                  A/B per failure probability)",
        run: cmd_validate,
    },
    CommandSpec {
        name: "calibrate",
        arity: (0, 0),
        values: &[],
        switches: &[],
        usage: "  calibrate                       measure the case-study kernels on this
                                  host, both ISA tiers paired in the same
                                  session; prints per-kernel cycles/byte
                                  and the measured acceleration factor",
        run: cmd_calibrate,
    },
    CommandSpec {
        name: "faults",
        arity: (0, 1),
        values: &["--seed"],
        switches: &[],
        usage: "  faults [scenario.json] [--seed N]   fault-injection sweep across recovery
                                  policies; JSON report, byte-identical at
                                  any --jobs width",
        run: cmd_faults,
    },
    CommandSpec {
        name: "timeline",
        arity: (1, 1),
        values: &[],
        switches: &[],
        usage: "  timeline <sync|sync-os|async-same-thread|async-distinct-thread|
            async-no-response>",
        run: cmd_timeline,
    },
    CommandSpec {
        name: "bounds",
        arity: (1, 1),
        values: &[],
        switches: &[],
        usage: "  bounds <config.json>            dominant performance bound per scenario",
        run: cmd_bounds,
    },
    CommandSpec {
        name: "slo",
        arity: (1, 1),
        values: &["--min-reduction"],
        switches: &[],
        usage: "  slo <config.json> [--min-reduction R]   latency-SLO guardrails",
        run: cmd_slo,
    },
    CommandSpec {
        name: "tables",
        arity: (1, 1),
        values: &[],
        switches: &[],
        usage: "  tables <id|all>                 regenerate the paper's tables
                                  (table1 .. table7)",
        run: cmd_tables,
    },
    CommandSpec {
        name: "figures",
        arity: (0, usize::MAX),
        values: &[],
        switches: &["--json"],
        usage: "  figures [ids|all] [--json]      regenerate the paper's figures (fig1 ..
                                  fig22, default all) or the extra
                                  design-space heatmap; --json prints the
                                  data figures' series instead",
        run: cmd_figures,
    },
    CommandSpec {
        name: "ablations",
        arity: (0, 0),
        values: &["--seed"],
        switches: &[],
        usage: "  ablations [--seed N]            the modeling-choice ablations (alpha
                                  weighting, queueing, pool depth, prior
                                  model)",
        run: cmd_ablations,
    },
    CommandSpec {
        name: "services",
        arity: (1, 2),
        values: &[],
        switches: &[],
        usage: "  services list                   service ids, slugs, and profile sources
  services validate <dir|file>    parse + validate profile JSON; exits
                                  non-zero on the first malformed spec
  services export <dir>           write every builtin profile as
                                  <dir>/<slug>.json (the embedded bytes
                                  of configs/services/)",
        run: cmd_services,
    },
    CommandSpec {
        name: "help",
        arity: (0, 0),
        values: &[],
        switches: &[],
        usage: "  help                            print this text",
        run: |_, _| Ok(usage()),
    },
];

/// The usage text: the global flags, then each command's lines.
fn usage() -> String {
    COMMANDS
        .iter()
        .fold(GLOBAL_USAGE.to_owned(), |out, spec| out + "\n" + spec.usage)
}

/// Runs the CLI on pre-split arguments (excluding the program name),
/// returning the text to print. Global flags are parsed into a
/// [`RunContext`] for this call only; the rest is parsed against the
/// command's [`COMMANDS`] row.
///
/// # Errors
///
/// Returns a human-readable error message for unknown commands or
/// flags, repeated flags, missing or extra arguments, unreadable files,
/// or invalid parameters.
pub fn run(args: &[String]) -> Result<String, String> {
    let (ctx, args) = parse_global_flags(args)?;
    let Some((&command, args)) = args.split_first() else {
        return Ok(usage());
    };
    let Some(spec) = COMMANDS.iter().find(|spec| spec.name == command) else {
        return Err(if command.starts_with("--") {
            format!("unknown global flag '{command}' (expected --jobs, --shards or --services)")
        } else {
            format!("unknown command '{command}'\n{}", usage())
        });
    };
    (spec.run)(&ctx, &Parsed::new(spec, args)?)
}

/// Splits the global flags (see [`GLOBAL_USAGE`]) off `args`, wherever
/// they appear, and returns the run context they describe plus the
/// remaining arguments. Each takes a value and may be given once.
fn parse_global_flags(args: &[String]) -> Result<(RunContext, Vec<&str>), String> {
    let mut ctx = RunContext::from_process_defaults();
    let mut seen = Vec::new();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        if !matches!(flag, "--jobs" | "--shards" | "--services") {
            rest.push(flag);
            continue;
        }
        if seen.contains(&flag) {
            return Err(format!("{flag} given more than once"));
        }
        seen.push(flag);
        let value = it
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--jobs" => ctx.pool = ExecPool::new(positive(flag, value)?),
            "--shards" => ctx.shards = Some(ExecPool::new(positive(flag, value)?)),
            _ => {
                let registry = ServiceRegistry::load_path(Path::new(value))
                    .map_err(|e| format!("--services {value}: {e}"))?;
                ctx.registry = Arc::new(registry);
            }
        }
    }
    Ok((ctx, rest))
}

fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got '{value}'")),
    }
}

/// A command's arguments, parsed once against its [`CommandSpec`]:
/// positionals in order, and at most one value per flag.
struct Parsed<'a> {
    spec: &'static CommandSpec,
    positionals: Vec<&'a str>,
    /// Each flag given, with its value; a switch has none.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Parsed<'a> {
    /// Parses `args` for `spec`. Each of its value flags takes the next
    /// argument, which must not be another `--word`; each switch stands
    /// alone. Any other `--word`, a flag given twice, or a positional
    /// count outside the arity is an error that names the problem.
    fn new(spec: &'static CommandSpec, args: &[&'a str]) -> Result<Self, String> {
        let (name, mut positionals, mut flags) = (spec.name, Vec::new(), Vec::new());
        let mut it = args.iter().copied();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                positionals.push(arg);
                continue;
            }
            let value = if spec.values.contains(&arg) {
                let value = it.next().filter(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| format!("{arg} requires a value"))?)
            } else if spec.switches.contains(&arg) {
                None
            } else {
                return Err(format!("{name}: unknown flag '{arg}'"));
            };
            if flags.iter().any(|&(flag, _)| flag == arg) {
                return Err(format!("{name}: {arg} given more than once"));
            }
            flags.push((arg, value));
        }
        let (min, max) = spec.arity;
        if let Some(extra) = positionals.get(max) {
            return Err(format!("{name}: unexpected argument '{extra}'"));
        }
        if positionals.len() < min {
            return Err(format!("{name}: missing argument; usage:\n{}", spec.usage));
        }
        Ok(Self {
            spec,
            positionals,
            flags,
        })
    }

    /// The value of flag `name`; `None` when the flag is absent.
    fn value(&self, name: &str) -> Option<&'a str> {
        debug_assert!(self.spec.values.contains(&name));
        self.flags
            .iter()
            .find(|&&(flag, _)| flag == name)
            .and_then(|&(_, value)| value)
    }

    /// Whether flag `name` is given.
    fn has(&self, name: &str) -> bool {
        debug_assert!(self.spec.values.contains(&name) || self.spec.switches.contains(&name));
        self.flags.iter().any(|&(flag, _)| flag == name)
    }

    /// Parses flag `name`, a `kind`, through `FromStr`; `default` when it
    /// is absent, which makes the flag required when `default` is `None`.
    fn parse<T: FromStr>(&self, name: &str, kind: &str, default: Option<T>) -> Result<T, String> {
        match self.value(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} expects {kind}, got '{v}'")),
            None => default.ok_or_else(|| format!("missing required flag {name}")),
        }
    }

    /// A finite number; `default` as for [`Parsed::parse`].
    fn f64(&self, name: &str, default: Option<f64>) -> Result<f64, String> {
        let value = self.parse(name, "a number", default)?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("{name} must be finite, got {value}"))
        }
    }

    /// A count no larger than `max`; `default` when the flag is absent.
    fn count(&self, name: &str, default: usize, max: usize) -> Result<usize, String> {
        let count = self.parse(name, "a non-negative integer", Some(default))?;
        if count > max {
            return Err(format!("{name} must be at most {max}, got {count}"));
        }
        Ok(count)
    }

    /// The `--seed` flag, `default` when absent.
    fn seed(&self, default: u64) -> Result<u64, String> {
        self.parse("--seed", "a non-negative integer", Some(default))
    }
}

/// Pairs the dispatched and scalar kernel tiers in one session, so the
/// acceleration factor is a genuine A/B (same buffers, same driver, same
/// scheduler weather). The numbers are timings: the interactive
/// companion to the committed `BENCH_kernels.json` medians, not a golden.
fn cmd_calibrate(_: &RunContext, _: &Parsed) -> Result<String, String> {
    // The paper's 2 GHz busy frequency; matches the harness convention.
    let cal = Calibrator::new(2.0e9, 32, 16);
    let mut out = format!(
        "host ISA: detected {} | active {}\n",
        dispatch::detected_summary(),
        dispatch::active_summary()
    );
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
    Ok(out)
}

fn parse_design(value: &str) -> Result<ThreadingDesign, String> {
    serde_json::from_value(serde_json::Value::String(value.to_owned()))
        .map_err(|_| format!("unknown threading design '{value}'"))
}

fn parse_strategy(value: &str) -> Result<AccelerationStrategy, String> {
    serde_json::from_value(serde_json::Value::String(value.to_owned()))
        .map_err(|_| format!("unknown strategy '{value}'"))
}

/// The named scenarios of the parameter file at `path`: at least one,
/// since every command that reads such a file evaluates its scenarios.
fn load_scenarios(path: &str) -> Result<Vec<(String, Scenario)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cfg = ConfigFile::from_json(&text).map_err(|e| e.to_string())?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    if scenarios.is_empty() {
        return Err("config contains no scenarios".to_owned());
    }
    Ok(scenarios)
}

fn cmd_estimate(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    let scenarios = load_scenarios(args.positionals[0])?;
    // Evaluate all scenarios through the worker pool (honors --jobs).
    let bare: Vec<Scenario> = scenarios.iter().map(|(_, s)| *s).collect();
    let estimates = sweep::estimate_batch_with(&ctx.pool, &bare);
    let mut out = String::new();
    for ((name, scenario), est) in scenarios.iter().zip(&estimates) {
        let _ = writeln!(
            out,
            "{name}: throughput speedup {:.4}x ({:+.2}%), latency reduction {:.4}x ({:+.2}%)  [{} / {}]",
            est.throughput_speedup,
            est.throughput_gain_percent(),
            est.latency_reduction,
            est.latency_gain_percent(),
            scenario.design,
            scenario.strategy,
        );
    }
    Ok(out)
}

fn cmd_breakeven(_: &RunContext, args: &Parsed) -> Result<String, String> {
    let rate = |name| match args.f64(name, None)? {
        v if v > 0.0 => Ok(v),
        v => Err(format!("{name} must be positive, got {v}")),
    };
    let overhead = |name| match args.f64(name, Some(0.0))? {
        v if v >= 0.0 => Ok(v),
        v => Err(format!("{name} must be non-negative, got {v}")),
    };
    let cb = rate("--cb")?;
    let a = rate("--a")?;
    let o0 = overhead("--o0")?;
    let l = overhead("--l")?;
    let q = overhead("--q")?;
    let o1 = overhead("--o1")?;
    let design = args
        .value("--design")
        .map_or(Ok(ThreadingDesign::Sync), parse_design)?;
    let strategy = args
        .value("--strategy")
        .map_or(Ok(AccelerationStrategy::OffChip), parse_strategy)?;
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

fn cmd_sweep(_: &RunContext, args: &Parsed) -> Result<String, String> {
    let scenarios = load_scenarios(args.positionals[0])?;
    let axis_name = args.value("--axis").ok_or("missing required flag --axis")?;
    let axis: sweep::SweepAxis =
        serde_json::from_value(serde_json::Value::String(axis_name.to_owned()))
            .map_err(|_| format!("unknown sweep axis '{axis_name}'"))?;
    let from = args.f64("--from", None)?;
    let to = args.f64("--to", None)?;
    let points = args.count("--points", 10, MAX_POINTS)?;
    if from >= to || points < 2 {
        return Err("sweep requires --from < --to and --points >= 2".to_owned());
    }
    let values = if from > 0.0 {
        sweep::log_space(from, to, points)
    } else {
        sweep::lin_space(from, to, points)
    };
    // A range too wide for f64 spaces into NaN or infinite values.
    if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
        return Err(format!(
            "--from/--to range too wide: the {points}-point grid has a non-finite value ({bad})"
        ));
    }
    // One block per scenario, in file order.
    let mut out = String::new();
    for (name, scenario) in &scenarios {
        let points =
            sweep::sweep(scenario, axis, &values).map_err(|e| format!("scenario '{name}': {e}"))?;
        let _ = writeln!(out, "sweep of {axis_name} for scenario '{name}':");
        for point in points {
            let _ = writeln!(
                out,
                "  {axis_name} = {:>12.2}: speedup {:.4}x, latency reduction {:.4}x",
                point.x, point.estimate.throughput_speedup, point.estimate.latency_reduction
            );
        }
    }
    Ok(out)
}

fn cmd_project(ctx: &RunContext, _: &Parsed) -> Result<String, String> {
    let mut out = String::from("Section 5 acceleration recommendations (Fig. 20):\n");
    for rec in ctx.registry.recommendations() {
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
    Ok(out)
}

fn cmd_characterize(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    let name = args.positionals[0];
    // Each service's slug is its display name in lower case, so any
    // casing of "Web" or "AI-Inference" names it.
    let service = ServiceId::from_slug(&name.to_ascii_lowercase()).ok_or_else(|| {
        let slugs: Vec<&str> = ServiceId::ALL.iter().map(|s| s.slug()).collect();
        format!(
            "unknown service '{name}' (expected one of: {})",
            slugs.join(", ")
        )
    })?;
    let samples = args.count("--samples", 50_000, MAX_SAMPLES)?;
    let seed = args.seed(42)?;
    if samples == 0 {
        return Err("--samples must be positive".to_owned());
    }
    // Each sample is drawn as table indices and folded at once, so
    // memory stays flat whatever `--samples` is.
    let mut generator = TraceGenerator::for_service(&ctx.registry, service, seed);
    if args.has("--folded") {
        // Collapsed-stack output for flamegraph tooling.
        let mut stacks = FoldedStacks::new(&generator);
        for _ in 0..samples {
            stacks.push_sample(&generator.draw());
        }
        return Ok(stacks.finish());
    }
    let mut profile = ProfileAccumulator::default();
    for _ in 0..samples {
        profile.push_sample(&generator.draw());
    }
    Ok(format!(
        "characterization of {service}:\n{}",
        profile.finish().render()
    ))
}

fn cmd_validate(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    let seed = args.seed(VALIDATION_SEED)?;
    if let Some(name) = args.value("--case") {
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
        let Some(study) = ctx.registry.case_study(name) else {
            // `fallback` is a CLI-level case (handled above), not a sim
            // case study, so append it to the sim error's valid list.
            return Err(format!(
                "{}; 'fallback' selects the fault-capacity table",
                SimError::UnknownCaseStudy {
                    name: name.to_owned(),
                    valid: CASE_STUDY_NAMES,
                }
            ));
        };
        let v = validate_all_with(&ctx.pool, std::slice::from_ref(&study), seed)
            .map_err(|e| e.to_string())?
            .remove(0);
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

/// The fault sweep of the builtin degradation scenario or a JSON one, as
/// pretty JSON. Every run is an independent seeded simulation, so the
/// output is byte-identical at any `--jobs` width.
fn cmd_faults(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    let seed = args.seed(FAULT_SEED)?;
    let scenario = match args.positionals.first() {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut scenario: FaultScenario = serde_json::from_str(&text)
                .map_err(|e| format!("invalid fault scenario {path}: {e}"))?;
            // --seed overrides the file's seed; otherwise the file wins.
            if args.has("--seed") {
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

fn cmd_timeline(_: &RunContext, args: &Parsed) -> Result<String, String> {
    let design = parse_design(args.positionals[0])?;
    Ok(format!(
        "offload timeline for {design}:\n{}",
        Timeline::build(TimelineSpec::demo(design)).render_ascii(70)
    ))
}

fn cmd_bounds(_: &RunContext, args: &Parsed) -> Result<String, String> {
    let mut out = String::new();
    for (name, scenario) in &load_scenarios(args.positionals[0])? {
        let report = bounds::diagnose(scenario);
        let _ = writeln!(out, "{name}:");
        for line in report.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    Ok(out)
}

fn cmd_slo(_: &RunContext, args: &Parsed) -> Result<String, String> {
    let scenarios = load_scenarios(args.positionals[0])?;
    let min_reduction = args.f64("--min-reduction", Some(1.0))?;
    let target = LatencySlo::at_least(min_reduction).map_err(|e| e.to_string())?;
    let mut out = format!("latency SLO: require C/CL >= {min_reduction}\n");
    for (name, scenario) in &scenarios {
        let met = if target.is_met_by(scenario) {
            "MET"
        } else {
            "VIOLATED"
        };
        let max_l = slo::max_interface_latency(scenario, target)
            .map_or("infeasible".to_owned(), |c| {
                format!("{:.0} cycles", c.get())
            });
        let max_n = slo::max_offload_rate(scenario, target).map_or("infeasible".to_owned(), |n| {
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

/// Renders through the run's profile data: the builtin specs, or the
/// `--services` files (the tier-1 gate diffs the two byte-for-byte).
fn cmd_tables(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    match args.positionals[0] {
        "all" => TABLE_IDS
            .iter()
            .map(|id| render_table_with(ctx, id).map(|table| table + "\n"))
            .collect(),
        id => render_table_with(ctx, id),
    }
}

/// Builds the figures on the worker pool and prints them in request
/// order. `all --json` covers the figures that have series; asking for
/// a timeline's or the design space's series by id is an error.
fn cmd_figures(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    let json = args.has("--json");
    let requested = args.positionals.clone();
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

/// The ablations' simulator experiments run on the worker pool.
fn cmd_ablations(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    accelerometer_bench::ablations::render_all(ctx, args.seed(VALIDATION_SEED)?)
        .map_err(|e| e.to_string())
}

/// `validate` is the CI gate over `configs/services/`; `export` writes
/// the embedded builtin specs, which are those files' bytes.
fn cmd_services(ctx: &RunContext, args: &Parsed) -> Result<String, String> {
    match args.positionals[..] {
        ["list"] => {
            let mut out = format!("{:<14} {:<14} {:<13} source\n", "service", "slug", "domain");
            for id in ServiceId::ALL {
                let source = if ctx.registry.loaded_services().contains(&id) {
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
        ["validate", path] => {
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
        ["export", dir] => {
            let written = ServiceRegistry::export_dir(Path::new(dir)).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for path in &written {
                let _ = writeln!(out, "wrote {}", path.display());
            }
            Ok(out)
        }
        _ => Err(format!(
            "services: expected list | validate <dir|file> | export <dir>, got '{}'",
            args.positionals.join(" ")
        )),
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
            "breakeven",
            "--cb",
            "5.62",
            "--a",
            "27",
            "--l",
            "2300",
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
            "sweep",
            &path,
            "--axis",
            "peak-speedup",
            "--from",
            "2",
            "--to",
            "32",
            "--points",
            "5",
        ]))
        .unwrap();
        fs::remove_file(&path).ok();
        // The one scenario's header and five rows.
        assert_eq!(out.lines().count(), 6, "{out}");
        assert!(out.contains("speedup"));
        // Bad axis.
        let err = run(&args(&["sweep", "/nonexistent", "--axis", "x"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn project_prints_fig20_numbers() {
        let out = run(&args(&["project"])).unwrap();
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
        assert_eq!(
            err,
            "unknown service 'nope' (expected one of: web, feed1, feed2, ads1, ads2, cache1, \
             cache2, cache3, ai-inference, kvstore, pqc)"
        );
    }

    #[test]
    fn characterize_resolves_every_display_name_in_any_case() {
        // The argument is lower-cased and looked up as a slug, so any
        // casing of a display name resolves to its service as long as
        // every slug is its display name in lower case.
        for id in ServiceId::ALL {
            let display = id.to_string();
            assert_eq!(id.slug(), display.to_ascii_lowercase(), "{id:?}");
            let alternating: String = display
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect();
            for arg in [
                display.clone(),
                display.to_ascii_uppercase(),
                display.to_ascii_lowercase(),
                alternating,
            ] {
                let out = run(&args(&["characterize", &arg, "--samples", "1"])).unwrap();
                let header = format!("characterization of {id}:");
                assert_eq!(out.lines().next(), Some(header.as_str()), "{arg}");
            }
        }
        // Near misses fail.
        for arg in ["ai_inference", "cache", "web ", "Cache4"] {
            assert!(run(&args(&["characterize", arg])).is_err(), "{arg}");
        }
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
        let out = run(&args(&[
            "characterize",
            "cache1",
            "--samples",
            "500",
            "--folded",
        ]))
        .unwrap();
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
    fn validate_case_prints_the_same_bytes_at_any_jobs_width() {
        // The A/B arms run on the `--jobs` pool; the width changes only
        // wall-clock time.
        let one = run(&args(&["--jobs", "1", "validate", "--case", "inference"])).unwrap();
        let two = run(&args(&["--jobs", "2", "validate", "--case", "inference"])).unwrap();
        assert!(one.starts_with("case study inference:"), "{one}");
        assert_eq!(one, two);
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
    fn faults_sweep_reports_every_policy() {
        let out = run(&args(&["faults", "--seed", "11"])).unwrap();
        for policy in [
            "no-recovery",
            "retry",
            "retry-fallback",
            "admission",
            "full",
        ] {
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
    fn unknown_flags_are_errors_that_name_them() {
        // Each of these used to exit 0 ignoring the typo, or to read the
        // typo's value as the command's positional argument.
        for (argv, flag) in [
            (
                &["characterize", "web", "--samples", "100", "--sede", "3"][..],
                "--sede",
            ),
            (&["tables", "table1", "--bogus"], "--bogus"),
            (&["faults", "--sead", "5"], "--sead"),
            (&["calibrate", "--fast"], "--fast"),
            (&["project", "--all"], "--all"),
            (&["figures", "fig1", "--jsno"], "--jsno"),
            (&["help", "--verbose"], "--verbose"),
            (&["services", "list", "--x"], "--x"),
        ] {
            let err = run(&args(argv)).expect_err(&format!("{argv:?}"));
            let command = argv[0];
            assert_eq!(err, format!("{command}: unknown flag '{flag}'"), "{argv:?}");
        }
        // An unknown global flag is named as one, without the usage dump.
        let err = run(&args(&["--jbos", "2", "help"])).unwrap_err();
        assert_eq!(
            err,
            "unknown global flag '--jbos' (expected --jobs, --shards or --services)"
        );
    }

    #[test]
    fn extra_positionals_are_errors_that_name_them() {
        // Each of these used to exit 0, reading only the first positional
        // (or none) and ignoring the rest.
        let table6 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/table6.json");
        for (argv, extra) in [
            (&["tables", "table1", "table2"][..], "table2"),
            (&["estimate", table6, table6], table6),
            (&["help", "extra"], "extra"),
            (&["project", "junk"], "junk"),
            (&["calibrate", "foo"], "foo"),
            (&["timeline", "sync", "sync-os"], "sync-os"),
        ] {
            let err = run(&args(argv)).expect_err(&format!("{argv:?}"));
            let command = argv[0];
            assert_eq!(err, format!("{command}: unexpected argument '{extra}'"));
        }
        let err = run(&args(&["services", "list", "x"])).unwrap_err();
        assert!(err.contains("got 'list x'"), "{err}");
        // Too few is an error that prints the command's usage.
        let err = run(&args(&["tables"])).unwrap_err();
        assert!(err.starts_with("tables: missing argument"), "{err}");
        assert!(err.contains("tables <id|all>"), "{err}");
    }

    #[test]
    fn a_repeated_flag_is_an_error() {
        // `--seed 1 --seed 2` used to run with seed 1, ignoring the 2.
        let err = run(&args(&[
            "characterize",
            "web",
            "--samples",
            "100",
            "--seed",
            "1",
            "--seed",
            "2",
        ]))
        .unwrap_err();
        assert_eq!(err, "characterize: --seed given more than once");
        let err = run(&args(&["figures", "fig1", "--json", "--json"])).unwrap_err();
        assert_eq!(err, "figures: --json given more than once");
        // And so is a repeated global flag; the last one used to win.
        let err = run(&args(&["--jobs", "1", "--jobs", "2", "help"])).unwrap_err();
        assert_eq!(err, "--jobs given more than once");
    }

    #[test]
    fn every_command_finds_its_positional_after_its_flags() {
        let path = write_config();
        let flags_first = run(&args(&[
            "sweep", "--axis", "offloads", "--from", "1000", "--to", "1e6", "--points", "3", &path,
        ]))
        .unwrap();
        let path_first = run(&args(&[
            "sweep", &path, "--axis", "offloads", "--from", "1000", "--to", "1e6", "--points", "3",
        ]))
        .unwrap();
        assert_eq!(flags_first, path_first);
        let slo = run(&args(&["slo", "--min-reduction", "1.05", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(slo.contains("aes-ni-cache1"), "{slo}");
        let characterize = |argv: &[&str]| run(&args(argv)).unwrap();
        assert_eq!(
            characterize(&["characterize", "--samples", "100", "--seed", "3", "web"]),
            characterize(&["characterize", "web", "--samples", "100", "--seed", "3"])
        );
    }

    #[test]
    fn integer_flags_reject_what_a_float_cast_used_to_saturate() {
        // Each of these used to go through `parse_f64(..) as u64/usize`:
        // NaN and negatives became 0, huge values saturated, and the
        // sample / point counts then aborted on a huge allocation or
        // panicked with a capacity overflow.
        for (argv, needle) in [
            (
                &["characterize", "web", "--samples", "4000000000"][..],
                "at most 10000000",
            ),
            (
                &["characterize", "web", "--samples", "18446744073709551615"],
                "at most",
            ),
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
    fn sweep_rejects_out_of_domain_grids() {
        let config = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/table6.json");
        let sweep = |axis: &str, extra: &[&str]| {
            let mut argv = args(&["sweep", config, "--axis", axis]);
            argv.extend(args(extra));
            run(&argv)
        };
        for (axis, extra, needle) in [
            // Used to panic at `log_space requires 0 < lo < hi`.
            (
                "offloads",
                &["--from", "1", "--to", "nan"][..],
                "--to must be finite",
            ),
            (
                "offloads",
                &["--from", "-inf", "--to", "1"],
                "--from must be finite",
            ),
            // Used to panic with a capacity overflow.
            (
                "offloads",
                &[
                    "--from",
                    "0",
                    "--to",
                    "1e308",
                    "--points",
                    "18446744073709551615",
                ],
                "--points must be at most 10000",
            ),
            (
                "offloads",
                &["--from", "1", "--to", "2", "--points", "-3"],
                "--points",
            ),
            // Used to print only the `2.00` row and exit 0. The error
            // names the scenario the value was rejected for.
            (
                "peak-speedup",
                &["--from", "0.1", "--to", "2", "--points", "3"],
                "scenario 'aes-ni-cache1': invalid parameter A = 0.1",
            ),
            // hi/lo overflows, so the grid was NaN and infinite, and the
            // sweep printed a header with no rows and exited 0.
            (
                "offloads",
                &["--from", "1e-300", "--to", "1e300", "--points", "3"],
                "non-finite value",
            ),
        ] {
            let err = sweep(axis, extra).expect_err(&format!("{axis} {extra:?}"));
            assert!(err.contains(needle), "{axis} {extra:?}: {err}");
        }
        // The cap itself is accepted: one header and one row per point
        // for each of the file's three scenarios.
        let out = sweep(
            "offloads",
            &["--from", "1", "--to", "2", "--points", "10000"],
        )
        .unwrap();
        assert_eq!(out.lines().count(), 3 * 10_001);
    }

    #[test]
    fn a_config_with_no_scenarios_is_an_error_for_every_command() {
        // `bounds` and `slo` used to exit 0 with an empty report.
        let path =
            std::env::temp_dir().join(format!("accelctl-test-empty-{}.json", std::process::id()));
        fs::write(&path, r#"{"scenarios": []}"#).expect("temp file writable");
        let path = path.to_string_lossy().into_owned();
        for argv in [
            &["estimate", &path][..],
            &["bounds", &path],
            &["slo", &path],
            &[
                "sweep", &path, "--axis", "offloads", "--from", "1", "--to", "2",
            ],
        ] {
            let err = run(&args(argv)).expect_err(&format!("{argv:?}"));
            assert!(
                err.contains("config contains no scenarios"),
                "{argv:?}: {err}"
            );
        }
        fs::remove_file(&path).ok();
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
