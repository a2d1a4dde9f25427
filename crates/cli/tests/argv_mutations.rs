//! Arbitrary argv never panics `accelctl`. Each case draws 0–8 tokens
//! from a palette — global flags, the commands that run no simulation
//! and no kernel, their flags, flags no command knows, and values from
//! the plausible to the absurd (`nan`, `-1`, `1e400`, `2^64`, `""`,
//! `--`, the shipped parameter files) — and half the time makes the
//! first token one of [`COMMANDS`] so the commands' own checks are
//! reached, not only the dispatcher's.
//!
//! Every call must return `Ok` or `Err`; a panic fails the case. An argv
//! that holds a `--word` no command knows must return `Err`: an unknown
//! flag is never ignored.
//!
//! The palette leaves out everything that runs a simulation, a kernel or
//! writes a file (`faults`, `validate`, `calibrate`, `tables`, `figures`,
//! `ablations`, `services export`), and every `--samples` value it holds
//! is at most 10,000 or rejected by the parser.

use accelerometer_cli::run;
use proptest::prelude::*;

/// The commands that evaluate the model or the profiler only.
const COMMANDS: [&str; 10] = [
    "estimate",
    "breakeven",
    "sweep",
    "project",
    "characterize",
    "timeline",
    "bounds",
    "slo",
    "services",
    "help",
];

/// Flags some command or the dispatcher knows.
const KNOWN_FLAGS: [&str; 19] = [
    "--jobs",
    "--shards",
    "--trace-reuse",
    "--services",
    "--seed",
    "--samples",
    "--folded",
    "--axis",
    "--from",
    "--to",
    "--points",
    "--cb",
    "--a",
    "--l",
    "--o1",
    "--design",
    "--strategy",
    "--min-reduction",
    "--json",
];

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

fn palette() -> Vec<&'static str> {
    COMMANDS
        .iter()
        .chain(&KNOWN_FLAGS)
        .chain(&UNKNOWN_FLAGS)
        .chain(&VALUES)
        .copied()
        .collect()
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
        prop::sample::select(COMMANDS.to_vec()),
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
        &[
            "--jobs",
            "2",
            "--shards",
            "2",
            "--trace-reuse",
            "on",
            "help",
        ][..],
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_argv_never_panics(tokens in tokens()) {
        let result = run(&argv(&tokens));
        if tokens.iter().any(|t| UNKNOWN_FLAGS.contains(t)) {
            prop_assert!(result.is_err(), "{tokens:?} returned Ok");
        }
    }
}
