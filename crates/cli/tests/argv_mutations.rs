//! Arbitrary argv never panics `accelctl`, and a malformed argv is an
//! error before any command runs. The commands and their flags are read
//! from [`COMMANDS`], so a new flag is fuzzed the day it lands; the flags
//! no command knows and the values — from the plausible to the absurd
//! (`nan`, `-1`, `1e400`, `2^64`, `""`, `--`, the shipped parameter
//! files) — are listed here.
//!
//! * Any argv drawn from the palette returns `Ok` or `Err`, never a
//!   panic, and `Err` whenever it holds a `--word` no command knows. Half
//!   the time its first token is a command, so the commands' own checks
//!   are reached, not only the dispatcher's. The palette leaves out the
//!   [`SIMULATING`] commands.
//! * For every command, each parse-time fault — a flag it does not know,
//!   a repeated value flag, one positional past its arity, a value flag
//!   given last — returns `Err`, whatever else the argv holds. Nothing
//!   then runs, which is how the [`SIMULATING`] commands are fuzzed
//!   without simulating.
//!
//! No case writes a file (`export` is never drawn), and every
//! `--samples` value here is at most 10,000 or rejected by the parser.

use accelerometer_cli::{run, CommandSpec, COMMANDS};
use proptest::prelude::*;

/// Commands that run a simulation, a kernel or every table: fuzzed only
/// with a parse-time fault.
const SIMULATING: [&str; 6] = [
    "faults",
    "validate",
    "calibrate",
    "tables",
    "figures",
    "ablations",
];

/// The flags `run` takes before dispatch; each takes a value.
const GLOBAL_FLAGS: [&str; 3] = ["--jobs", "--shards", "--services"];

/// Flags nobody knows: typos of real ones, a made-up word and the bare
/// separator.
const UNKNOWN_FLAGS: [&str; 4] = ["--sede", "--jbos", "--bogus", "--"];

/// Values: numbers in and out of every domain, names the parsers know,
/// and paths. A `configs/` token is that shipped file.
const VALUES: [&str; 24] = [
    "2",
    "0",
    "100",
    "5.62",
    "nan",
    "-1",
    "1e400",
    "18446744073709551616",
    "",
    "web",
    "cache1",
    "sync-os",
    "async-no-response",
    "remote",
    "offloads",
    "kernel-fraction",
    "on",
    "list",
    "configs/table6.json",
    "configs/table7-compression.json",
    "configs/faults-degradation.json",
    "configs/services",
    "configs/services/cache1.json",
    "configs/missing.json",
];

/// The commands that evaluate the model or the profiler only.
fn model_commands() -> Vec<&'static str> {
    COMMANDS
        .iter()
        .map(|spec| spec.name)
        .filter(|name| !SIMULATING.contains(name))
        .collect()
}

/// Every flag the dispatcher or some command knows.
fn known_flags() -> Vec<&'static str> {
    let mut flags = GLOBAL_FLAGS.to_vec();
    for spec in COMMANDS {
        flags.extend(spec.values.iter().chain(spec.switches));
    }
    flags.sort_unstable();
    flags.dedup();
    flags
}

fn palette() -> Vec<&'static str> {
    let mut palette = model_commands();
    palette.extend(known_flags());
    palette.extend(UNKNOWN_FLAGS.iter().chain(&VALUES));
    palette
}

/// The argv a drawn token list stands for, with `configs/` resolved
/// against the repository root.
fn argv(tokens: &[&str]) -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    tokens
        .iter()
        .map(|t| {
            if t.starts_with("configs/") {
                format!("{root}{t}")
            } else {
                (*t).to_owned()
            }
        })
        .collect()
}

/// 0–4 pairs of (any palette token, a value), so that `--flag value`
/// is the common shape, with the first token replaced by a command half
/// the time.
fn tokens() -> impl Strategy<Value = Vec<&'static str>> {
    let pair = (
        prop::sample::select(palette()),
        prop::sample::select(VALUES.to_vec()),
    );
    (
        prop::collection::vec(pair, 0..5),
        prop::sample::select(model_commands()),
        any::<bool>(),
    )
        .prop_map(|(pairs, command, lead)| {
            let mut tokens: Vec<&str> = pairs.into_iter().flat_map(|(t, v)| [t, v]).collect();
            if lead && !tokens.is_empty() {
                tokens[0] = command;
            }
            tokens
        })
}

/// A parse-time fault.
#[derive(Debug, Clone, Copy)]
enum Fault {
    UnknownFlag,
    RepeatedValueFlag,
    ExtraPositional,
    ValueFlagLast,
}

/// `spec`'s command with `pairs` of (its own or a global value flag, a
/// value) and `fault` injected; `None` when the command's arity is
/// unbounded, so no positional is past it.
fn faulted(
    spec: &CommandSpec,
    fault: Fault,
    pairs: &[(usize, &'static str)],
) -> Option<Vec<String>> {
    let flags: Vec<&str> = spec.values.iter().chain(&GLOBAL_FLAGS).copied().collect();
    let flag = |i: usize| flags[i % flags.len()];
    let mut tokens = vec![spec.name];
    let (first, _) = pairs.first().copied().unwrap_or((0, "2"));
    match fault {
        Fault::UnknownFlag => tokens.push(UNKNOWN_FLAGS[first % UNKNOWN_FLAGS.len()]),
        Fault::RepeatedValueFlag => tokens.extend([flag(first), "2", flag(first), "2"]),
        Fault::ExtraPositional => {
            let max = spec.arity.1.checked_add(1)?;
            tokens.extend(std::iter::repeat_n("extra", max));
        }
        Fault::ValueFlagLast => {}
    }
    tokens.extend(pairs.iter().flat_map(|&(i, value)| [flag(i), value]));
    if let Fault::ValueFlagLast = fault {
        tokens.push(flag(first));
    }
    Some(argv(&tokens))
}

#[test]
fn the_palette_flags_are_what_the_dispatcher_says() {
    // Each unknown flag is rejected by name, in command position and
    // after a command; each known flag is accepted by some command.
    for flag in UNKNOWN_FLAGS {
        let err = run(&argv(&[flag])).expect_err(flag);
        assert!(err.contains(&format!("'{flag}'")), "{flag}: {err}");
        let err = run(&argv(&["project", flag])).expect_err(flag);
        assert_eq!(err, format!("project: unknown flag '{flag}'"));
    }
    let path = "configs/table6.json";
    for argv_ok in [
        &["--jobs", "2", "--shards", "2", "help"][..],
        &["--services", "configs/services", "project"],
        &[
            "characterize",
            "web",
            "--samples",
            "100",
            "--seed",
            "1",
            "--folded",
        ],
        &[
            "sweep", path, "--axis", "offloads", "--from", "1", "--to", "2", "--points", "2",
        ],
        &[
            "breakeven",
            "--cb",
            "5.62",
            "--a",
            "2",
            "--l",
            "1",
            "--o1",
            "1",
        ],
        &[
            "breakeven",
            "--cb",
            "1",
            "--a",
            "2",
            "--design",
            "sync-os",
            "--strategy",
            "remote",
        ],
        &["slo", path, "--min-reduction", "1.05"],
    ] {
        run(&argv(argv_ok)).unwrap_or_else(|e| panic!("{argv_ok:?}: {e}"));
    }
}

#[test]
fn every_command_rejects_a_repeated_flag_and_an_extra_positional() {
    for spec in COMMANDS {
        for (fault, names) in [
            (Fault::RepeatedValueFlag, "given more than once"),
            (Fault::ExtraPositional, "unexpected argument 'extra'"),
        ] {
            if let Some(argv) = faulted(spec, fault, &[]) {
                let err = run(&argv).expect_err(&format!("{argv:?}"));
                assert!(err.contains(names), "{argv:?}: {err}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_argv_never_panics(tokens in tokens()) {
        let result = run(&argv(&tokens));
        if tokens.iter().any(|t| UNKNOWN_FLAGS.contains(t)) {
            prop_assert!(result.is_err(), "{tokens:?} returned Ok");
        }
    }

    #[test]
    fn every_parse_fault_is_an_error(
        command in 0..COMMANDS.len(),
        pairs in prop::collection::vec(
            (any::<usize>(), prop::sample::select(VALUES.to_vec())),
            0..4,
        ),
    ) {
        let spec = &COMMANDS[command];
        for fault in [
            Fault::UnknownFlag,
            Fault::RepeatedValueFlag,
            Fault::ExtraPositional,
            Fault::ValueFlagLast,
        ] {
            if let Some(argv) = faulted(spec, fault, &pairs) {
                prop_assert!(run(&argv).is_err(), "{argv:?} returned Ok");
            }
        }
    }
}
