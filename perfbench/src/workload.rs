//! The four workloads: their command lists, the shared set-up they load,
//! and one untraced round through the real `accelctl` entry point.

use std::fs;
use std::time::Instant;

use accelerometer_fleet::{set_active_registry, ServiceId, ServiceRegistry};
use accelerometer_kernels::dispatch::{self, IsaMode};
use accelerometer_sim::{set_default_shards, set_trace_reuse};

/// The heavy-fallback scenario the `fault-sweep` workload replays.
pub const HEAVY_FALLBACK: &str = "configs/faults-heavy-fallback.json";
/// The Table 6 parameter file `paper-regen` estimates.
pub const TABLE6_CONFIG: &str = "configs/table6.json";
/// The shipped service profiles loaded at set-up.
pub const SERVICES_DIR: &str = "configs/services";
const FIXTURES: &str = "crates/cli/tests/fixtures";
/// Profiler samples per `characterize` call (the pack fixtures' size).
pub const CHARACTERIZE_SAMPLES: usize = 5_000;
/// Tables `paper-regen` renders (Table 6 runs the simulator, so it
/// belongs to `table6-ab`).
pub const PAPER_TABLES: [&str; 6] = ["table1", "table2", "table3", "table4", "table5", "table7"];

/// A named set of commands, run as one closed-loop client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault sweeps (plain and sharded) plus the fallback validation table.
    FaultSweep,
    /// The Table 6 A/B validation.
    Table6Ab,
    /// Every non-simulator table, every figure, the model and the profiler.
    PaperRegen,
    /// The kernel calibration.
    KernelCalibrate,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FaultSweep,
        Workload::Table6Ab,
        Workload::PaperRegen,
        Workload::KernelCalibrate,
    ];

    /// The name the benchmark's `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FaultSweep => "fault-sweep",
            Workload::Table6Ab => "table6-ab",
            Workload::PaperRegen => "paper-regen",
            Workload::KernelCalibrate => "kernel-calibrate",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One round: the workload's commands, in order. `seed` of `None` keeps
    /// every command's default seed, where the golden fixtures apply.
    pub fn commands(self, seed: Option<u64>) -> Vec<Command> {
        let fixed = |args: &[&str]| -> Vec<String> {
            ["--jobs", "1"]
                .iter()
                .chain(args)
                .map(|s| (*s).to_owned())
                .collect()
        };
        let seeded = |args: &[&str]| {
            let mut v = fixed(args);
            if let Some(s) = seed {
                v.extend(["--seed".to_owned(), s.to_string()]);
            }
            v
        };
        let default_seed = seed.is_none();
        match self {
            Workload::FaultSweep => vec![
                Command::cli(
                    seeded(&["faults"]),
                    Check::Faults {
                        golden: default_seed.then_some(Golden::Faults),
                        min_fallbacks: 0,
                    },
                ),
                Command::cli(
                    seeded(&["--shards", "2", "faults"]),
                    Check::Faults {
                        golden: default_seed.then_some(Golden::FaultsSharded),
                        min_fallbacks: 0,
                    },
                ),
                Command::cli(
                    seeded(&["faults", HEAVY_FALLBACK]),
                    Check::Faults {
                        golden: None,
                        min_fallbacks: 1000,
                    },
                ),
                Command::cli(
                    seeded(&["--shards", "2", "faults", HEAVY_FALLBACK]),
                    Check::Faults {
                        golden: None,
                        min_fallbacks: 1000,
                    },
                ),
                Command::cli(
                    seeded(&["validate", "--case", "fallback"]),
                    Check::Fallback { default_seed },
                ),
            ],
            Workload::Table6Ab => vec![Command::cli(
                seeded(&["validate"]),
                Check::Table6 { default_seed },
            )],
            Workload::PaperRegen => {
                let mut cmds: Vec<Command> = PAPER_TABLES
                    .iter()
                    .map(|t| Command::cli(fixed(&["tables", t]), Check::NonEmpty))
                    .collect();
                cmds.extend(accelerometer_bench::FIGURE_IDS.iter().map(|&id| Command {
                    label: id.to_owned(),
                    invocation: Invocation::Figure(id),
                    check: Check::NonEmpty,
                }));
                cmds.push(Command::cli(fixed(&["project"]), Check::NonEmpty));
                cmds.push(Command::cli(
                    fixed(&["estimate", TABLE6_CONFIG]),
                    Check::NonEmpty,
                ));
                let samples = CHARACTERIZE_SAMPLES.to_string();
                for id in ServiceId::ALL {
                    let name = id.to_string();
                    let golden = (default_seed && ServiceId::PACKS.contains(&id))
                        .then_some(Golden::Pack(id));
                    cmds.push(Command::cli(
                        seeded(&["characterize", &name, "--samples", &samples]),
                        Check::Characterize {
                            service: id,
                            golden,
                        },
                    ));
                }
                cmds
            }
            Workload::KernelCalibrate => {
                vec![Command::cli(fixed(&["calibrate"]), Check::Calibrate)]
            }
        }
    }
}

/// How a command is issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invocation {
    /// `accelerometer_cli::run` with these arguments.
    Cli(Vec<String>),
    /// `accelerometer_bench::figure` for this figure id.
    Figure(&'static str),
}

/// A committed fixture an output must match byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    /// `golden_faults.json`.
    Faults,
    /// `golden_faults_sharded.json`.
    FaultsSharded,
    /// `golden_pack_<slug>.txt`.
    Pack(ServiceId),
}

impl Golden {
    fn file(self) -> String {
        match self {
            Golden::Faults => "golden_faults.json".to_owned(),
            Golden::FaultsSharded => "golden_faults_sharded.json".to_owned(),
            Golden::Pack(id) => format!("golden_pack_{}.txt", id.slug()),
        }
    }
}

/// The output checks a command's result must pass (see `check.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A fault-sweep JSON report.
    Faults {
        /// Fixture to match, at the default seed.
        golden: Option<Golden>,
        /// Fallbacks the report must record in total.
        min_fallbacks: u64,
    },
    /// The `validate --case fallback` table.
    Fallback {
        /// Whether the command runs at its default seed, where the
        /// 2-point model-vs-simulated bound is enforced.
        default_seed: bool,
    },
    /// The Table 6 validation table.
    Table6 {
        /// Whether the command runs at its default seed, where the
        /// paper's 3.7-point bound is enforced.
        default_seed: bool,
    },
    /// A `characterize` report.
    Characterize {
        /// The characterized service.
        service: ServiceId,
        /// Fixture to match, at the default seed.
        golden: Option<Golden>,
    },
    /// The `calibrate` table.
    Calibrate,
    /// Any non-empty output.
    NonEmpty,
}

impl Check {
    /// Whether repetitions must reproduce the first output byte for byte:
    /// every command except `calibrate`, which prints timings.
    pub fn repeats(self) -> bool {
        self != Check::Calibrate
    }
}

/// One operation of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Human-readable name, e.g. `--jobs 1 faults`.
    pub label: String,
    /// What to call.
    pub invocation: Invocation,
    /// What its output must satisfy.
    pub check: Check,
}

impl Command {
    fn cli(args: Vec<String>, check: Check) -> Self {
        Self {
            label: args.join(" "),
            invocation: Invocation::Cli(args),
            check,
        }
    }

    /// Issues the command and restores the process defaults afterwards.
    pub fn invoke(&self) -> Result<String, String> {
        let out = match &self.invocation {
            Invocation::Cli(args) => accelerometer_cli::run(args),
            Invocation::Figure(id) => {
                accelerometer_bench::figure(id).ok_or_else(|| format!("unknown figure {id}"))
            }
        };
        reset_process_globals();
        out
    }
}

/// Restores every process-wide setting a command can leave behind:
/// `--shards` persists across in-process `run` calls, and so would
/// `--trace-reuse`, `--isa` and `--services`. `--jobs` is always 1 here.
pub fn reset_process_globals() {
    set_default_shards(0);
    set_trace_reuse(true);
    dispatch::set_isa_mode(IsaMode::Auto);
    set_active_registry(None);
    accelerometer::exec::set_default_jobs(1);
}

/// Everything loaded before the first round: the service registry, the
/// workload's config files and the golden fixtures.
#[derive(Debug)]
pub struct Setup {
    /// Seconds `ServiceRegistry::load_path` took on the shipped profiles.
    pub registry_load_s: f64,
    goldens: Vec<(Golden, String)>,
}

impl Setup {
    /// Loads and validates the shared inputs of `workload`.
    ///
    /// # Errors
    ///
    /// Fails when run outside a checkout of the repository, or when a
    /// shipped profile or config does not parse.
    pub fn load(workload: Workload) -> Result<Self, String> {
        let start = Instant::now();
        ServiceRegistry::load_path(std::path::Path::new(SERVICES_DIR))
            .map_err(|e| format!("{SERVICES_DIR}: {e}"))?;
        let registry_load_s = start.elapsed().as_secs_f64();
        match workload {
            Workload::FaultSweep => {
                let text = read(HEAVY_FALLBACK)?;
                serde_json::from_str::<accelerometer_sim::FaultScenario>(&text)
                    .map_err(|e| format!("{HEAVY_FALLBACK}: {e}"))?;
            }
            Workload::PaperRegen => {
                accelerometer::ConfigFile::from_json(&read(TABLE6_CONFIG)?)
                    .map_err(|e| format!("{TABLE6_CONFIG}: {e}"))?;
            }
            Workload::Table6Ab | Workload::KernelCalibrate => {}
        }
        let mut goldens = vec![Golden::Faults, Golden::FaultsSharded];
        goldens.extend(ServiceId::PACKS.map(Golden::Pack));
        let goldens = goldens
            .into_iter()
            .map(|g| Ok((g, read(&format!("{FIXTURES}/{}", g.file()))?)))
            .collect::<Result<_, String>>()?;
        Ok(Self {
            registry_load_s,
            goldens,
        })
    }

    /// The committed bytes of `golden`.
    pub fn golden(&self, golden: Golden) -> &str {
        self.goldens
            .iter()
            .find(|(g, _)| *g == golden)
            .map(|(_, text)| text.as_str())
            .expect("every golden is loaded at set-up")
    }
}

/// Reads a repository file relative to the checkout root.
pub fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// One untraced round's outputs and timings.
#[derive(Debug)]
pub struct Round {
    /// Wall seconds for the whole round.
    pub seconds: f64,
    /// Wall seconds per command, in command order.
    pub op_seconds: Vec<f64>,
    /// Each command's output, in command order.
    pub outputs: Vec<Result<String, String>>,
    /// Process CPU seconds (all threads) for the whole round.
    pub cpu_seconds: f64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this process has used, all threads (live or exited).
pub fn process_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) for the whole call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One untraced round: every command in order.
pub fn run_round(commands: &[Command]) -> Round {
    let start = Instant::now();
    let cpu_start = process_cpu_seconds();
    let mut op_seconds = Vec::with_capacity(commands.len());
    let mut outputs = Vec::with_capacity(commands.len());
    for cmd in commands {
        let op_start = Instant::now();
        outputs.push(cmd.invoke());
        op_seconds.push(op_start.elapsed().as_secs_f64());
    }
    Round {
        seconds: start.elapsed().as_secs_f64(),
        op_seconds,
        outputs,
        cpu_seconds: process_cpu_seconds() - cpu_start,
    }
}
