//! Byte-exactness pin for every paper output the runners print.
//!
//! Each output — every figure, `tables all`, `project`, and
//! `characterize <service>` for all eleven services at their default
//! seed and sample count — is folded into one FNV-1a digest. The
//! expected digests were captured while the service data still lived in
//! Rust constructors, so moving that data into the embedded
//! `configs/services/*.json` files (or any later refactor of the data
//! path) shows up here as a digest mismatch, byte for byte.
//!
//! The model commands — `estimate`, `bounds`, `slo`, `sweep`,
//! `breakeven` and `timeline` — are pinned over the shipped parameter
//! files, every sweep axis, every design × strategy break-even and every
//! timeline, with digests captured before the cost routing of eqns
//! (1)–(8) was gathered into one place in `accelerometer::model`. The
//! six `sweep` digests were re-captured when `sweep` began to sweep
//! every scenario of its file instead of only the first; the first
//! block of each is still pinned to the old single-scenario bytes.
//!
//! The simulator-backed reports — `validate`, the fallback-capacity
//! table and the ablations — are pinned the same way, with digests
//! captured before their A/B runs moved onto the shared batch runner.

use std::fs;
use std::path::PathBuf;

use accelerometer_cli::run;
use accelerometer_fleet::{ServiceId, ServiceSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

fn cli(list: &[&str]) -> String {
    let args: Vec<String> = list.iter().map(|s| (*s).to_owned()).collect();
    run(&args).unwrap_or_else(|e| panic!("accelctl {list:?}: {e}"))
}

/// `(output label, digest)` captured from the constructor-backed data.
const EXPECTED: &[(&str, u64)] = &[
    ("figures fig1", 0x9247ed484e15d9a4),
    ("figures fig2", 0xe98f866b5d41fe47),
    ("figures fig3", 0xe11aa52d3a110934),
    ("figures fig4", 0xbb560d441361e73a),
    ("figures fig5", 0x5009081d86fbc806),
    ("figures fig6", 0x72ff66d56a2d3d61),
    ("figures fig7", 0x64a7d7d6472aef29),
    ("figures fig8", 0x14a3029b7bc82f7a),
    ("figures fig9", 0x00612e13328810df),
    ("figures fig10", 0xd9ab9e6a0dbe8102),
    ("figures fig11", 0xff863b91a936e288),
    ("figures fig12", 0x2c2fe9e085d96e5f),
    ("figures fig13", 0x36c5dab8fb098179),
    ("figures fig14", 0x053dfbb9889cf210),
    ("figures fig15", 0xac78e7f889983b42),
    ("figures fig16", 0x06089351c6046747),
    ("figures fig17", 0x90d639d4bb95542f),
    ("figures fig18", 0xebd817ff611c232c),
    ("figures fig19", 0xcb51d159d2388dbc),
    ("figures fig20", 0x59b71dc7f929bef4),
    ("figures fig21", 0x862cd1975ee4cc10),
    ("figures fig22", 0xe50311ed1919dc85),
    ("tables all", 0x7958218554925b7e),
    ("project", 0x3593520139524b32),
    ("characterize web", 0x49773f2583fa990f),
    ("characterize feed1", 0x42019c25edf9d78b),
    ("characterize feed2", 0x903b983d03412159),
    ("characterize ads1", 0x237a55553f4b1b19),
    ("characterize ads2", 0x2c40aab3fcc7fd8f),
    ("characterize cache1", 0xb666e050aafacf6d),
    ("characterize cache2", 0xceb2610f80e90c27),
    ("characterize cache3", 0x8eaab889f4b891e8),
    ("characterize ai-inference", 0xfd9f305b6dce3b34),
    ("characterize kvstore", 0x644a2efd9f743509),
    ("characterize pqc", 0x858f19f2e8dd0982),
];

#[test]
fn every_output_matches_its_recorded_digest() {
    let mut actual: Vec<(String, u64)> = accelerometer_bench::FIGURE_IDS
        .iter()
        .map(|&id| {
            let text = accelerometer_bench::figure(id).expect("known figure id");
            (format!("figures {id}"), fnv1a(&text))
        })
        .collect();
    actual.push(("tables all".to_owned(), fnv1a(&cli(&["tables", "all"]))));
    actual.push(("project".to_owned(), fnv1a(&cli(&["project"]))));
    for id in ServiceId::ALL {
        let label = format!("characterize {}", id.slug());
        actual.push((label, fnv1a(&cli(&["characterize", id.slug()]))));
    }
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(label, d)| (label.to_owned(), d))
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        actual,
        expected,
        "an output drifted; actual digests:\n{}",
        rendered.join("\n")
    );
}

/// `(command, digest)` for the simulator-backed reports at their
/// default seeds.
const SIMULATED: &[(&str, u64)] = &[
    ("validate", 0x3a4f6f064b8a8803),
    ("validate --case fallback", 0x5a8a15ccf35bfb6e),
    ("ablations", 0x763ace3a79758197),
];

#[test]
fn simulated_reports_match_their_recorded_digests() {
    let actual: Vec<(&str, u64)> = SIMULATED
        .iter()
        .map(|&(command, _)| {
            let argv: Vec<&str> = command.split(' ').collect();
            (command, fnv1a(&cli(&argv)))
        })
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(command, d)| format!("    (\"{command}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        actual,
        SIMULATED,
        "a simulated report drifted; actual digests:\n{}",
        rendered.join("\n")
    );
}

/// `(command, digest)` for the figures' machine-readable series (every
/// data figure's `--json`, and `all --json`, which skips the timelines)
/// and the extra design-space heatmap, captured while each figure's text
/// and series were still built by separate code.
const FIGURE_DATA: &[(&str, u64)] = &[
    ("figures all --json", 0x8161a388238cdaca),
    ("figures fig1 --json", 0x0a7eab62ac2b58fc),
    ("figures fig2 --json", 0x8693014a0ffe577d),
    ("figures fig3 --json", 0xc4caedbdaa30b8e4),
    ("figures fig4 --json", 0x7fef82d7a1107c06),
    ("figures fig5 --json", 0x57832c01a9dae2f0),
    ("figures fig6 --json", 0x89c5046abfa28ac3),
    ("figures fig7 --json", 0x7561902cc81d002c),
    ("figures fig8 --json", 0x4fb4cb36208a3e69),
    ("figures fig9 --json", 0x0e0971bd861b0115),
    ("figures fig10 --json", 0x1a45453cd1cd0c3b),
    ("figures fig15 --json", 0x1a5b44533682f7a4),
    ("figures fig16 --json", 0x44b0bcce91be6530),
    ("figures fig17 --json", 0xee021f90997dc288),
    ("figures fig18 --json", 0x79afeb855a7c91c7),
    ("figures fig19 --json", 0x8ba240a42367d078),
    ("figures fig20 --json", 0x6b422e891e440a40),
    ("figures fig21 --json", 0x5169a236192c154d),
    ("figures fig22 --json", 0x6c8d83dd7f8e1670),
    ("figures design-space", 0x48a134a408df2e65),
];

#[test]
fn figure_series_match_their_recorded_digests() {
    let actual: Vec<(&str, u64)> = FIGURE_DATA
        .iter()
        .map(|&(command, _)| {
            let argv: Vec<&str> = command.split(' ').collect();
            (command, fnv1a(&cli(&argv)))
        })
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(command, d)| format!("    (\"{command}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        actual,
        FIGURE_DATA,
        "a figure's series drifted; actual digests:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn services_flag_does_not_outlive_its_run() {
    // `--services` used to install a process-wide registry that the next
    // in-process `run` inherited. Render Fig. 8 from a Cache1 pack with
    // an edited IPC table, then without the flag: the second run must
    // print the builtin bytes again.
    let shipped =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../configs/services/cache1.json");
    let mut spec: ServiceSpec =
        serde_json::from_str(&fs::read_to_string(shipped).expect("cache1 spec")).expect("parses");
    let ipc = spec.ipc.as_mut().expect("Cache1 carries Fig. 8");
    ipc.leaves[0].1.gen_a += 0.2;
    let dir = std::env::temp_dir().join(format!("accel-digest-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    let edited = serde_json::to_string_pretty(&spec).expect("spec serializes");
    fs::write(dir.join("cache1.json"), edited).expect("write edited spec");
    let loaded = cli(&["--services", &dir.to_string_lossy(), "figures", "fig8"]);
    fs::remove_dir_all(&dir).ok();
    let after = cli(&["figures", "fig8"]);

    let builtin = EXPECTED
        .iter()
        .find(|(label, _)| *label == "figures fig8")
        .expect("fig8 digest")
        .1;
    assert_ne!(fnv1a(&loaded), builtin, "the edit did not reach fig8");
    assert_eq!(fnv1a(&after), builtin, "--services outlived its run");
}

/// `(command, digest)` for the model commands; a `configs/` argument is
/// the shipped file of that name at the repository root.
const MODEL: &[(&str, u64)] = &[
    ("estimate configs/table6.json", 0x4cbb3736c3157fba),
    ("bounds configs/table6.json", 0x5af78fd28ec84664),
    ("slo configs/table6.json", 0x101168e89ce99f77),
    ("slo configs/table6.json --min-reduction 1.05", 0x69d8e0e613345c92),
    ("estimate configs/table7-compression.json", 0x848abe469c16c372),
    ("bounds configs/table7-compression.json", 0x4cf72a30e6f6b068),
    ("slo configs/table7-compression.json", 0xe5ec643cca2561f4),
    ("slo configs/table7-compression.json --min-reduction 1.05", 0xa3ca808ce9bafd0d),
    ("sweep configs/table6.json --axis peak-speedup --from 1 --to 64 --points 7", 0x5b88731548d5b842),
    ("sweep configs/table6.json --axis interface-latency --from 0 --to 10000 --points 6", 0x47de6d0c79b4194a),
    ("sweep configs/table6.json --axis offloads --from 1000 --to 10000000 --points 5", 0xcf3aa37f19bb2b57),
    ("sweep configs/table6.json --axis kernel-fraction --from 0.05 --to 0.9 --points 6", 0xffcac1c9d110b09f),
    ("sweep configs/table6.json --axis queueing --from 0 --to 5000 --points 6", 0xc01620f79d2f9d9a),
    ("sweep configs/table6.json --axis thread-switch --from 0 --to 20000 --points 5", 0x9b7cdc7527a82f26),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design sync --strategy on-chip", 0x9f4ed3e4bfe5f97f),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design sync --strategy off-chip", 0x9ecde330378b05d3),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design sync --strategy remote", 0x78403440e194779f),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design sync-os --strategy on-chip", 0xfc882ebecdfe67e2),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design sync-os --strategy off-chip", 0x7d4f02357c49fbef),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design sync-os --strategy remote", 0xc874b631252d6a14),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-same-thread --strategy on-chip", 0xc8167885c86bbc9e),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-same-thread --strategy off-chip", 0xf8a9d2dcdd2fb3a4),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-same-thread --strategy remote", 0xeccfa46589a93309),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-distinct-thread --strategy on-chip", 0xc3555051c1c75c52),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-distinct-thread --strategy off-chip", 0xd27feba109e1fad8),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-distinct-thread --strategy remote", 0x4f69dfdfc1ebd730),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-no-response --strategy on-chip", 0x4a6d89148e5ac36a),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-no-response --strategy off-chip", 0xd1f7d594b94f71f0),
    ("breakeven --cb 5.62 --a 27 --o0 100 --l 2300 --q 50 --o1 400 --design async-no-response --strategy remote", 0x9bd943e588b982b1),
    ("timeline sync", 0xe1b41678853e5d71),
    ("timeline sync-os", 0x1719c3279b8d9fe0),
    ("timeline async-same-thread", 0x69f2caa30eab9015),
    ("timeline async-distinct-thread", 0x1213e6866485433b),
    ("timeline async-no-response", 0xabc753cd01849e49),
];

/// Runs a space-separated model command, reading a `configs/` argument
/// from the repository root.
fn model_cli(command: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let argv: Vec<String> = command
        .split(' ')
        .map(|a| {
            if a.starts_with("configs/") {
                format!("{root}{a}")
            } else {
                a.to_owned()
            }
        })
        .collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    cli(&argv)
}

#[test]
fn model_commands_match_their_recorded_digests() {
    let actual: Vec<(&str, u64)> = MODEL
        .iter()
        .map(|&(command, _)| (command, fnv1a(&model_cli(command))))
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(command, d)| format!("    (\"{command}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        actual,
        MODEL,
        "a model command's output drifted; actual digests:\n{}",
        rendered.join("\n")
    );
}

/// The six `sweep` rows of [`MODEL`] as they read when `sweep` swept
/// only the first scenario of its params file. Every scenario is swept
/// now, one block each in file order, and the first block must still be
/// byte for byte what the single-scenario sweep printed.
const SWEEP_FIRST_SCENARIO: &[(&str, u64)] = &[
    (
        "sweep configs/table6.json --axis peak-speedup --from 1 --to 64 --points 7",
        0xf44a208c97482ed9,
    ),
    (
        "sweep configs/table6.json --axis interface-latency --from 0 --to 10000 --points 6",
        0x67a52dd5a908590d,
    ),
    (
        "sweep configs/table6.json --axis offloads --from 1000 --to 10000000 --points 5",
        0x23c3876fc6540e35,
    ),
    (
        "sweep configs/table6.json --axis kernel-fraction --from 0.05 --to 0.9 --points 6",
        0xae1d2f1a7eb342cf,
    ),
    (
        "sweep configs/table6.json --axis queueing --from 0 --to 5000 --points 6",
        0xa9906304b76c5df4,
    ),
    (
        "sweep configs/table6.json --axis thread-switch --from 0 --to 20000 --points 5",
        0x5c8d70b51fe10c98,
    ),
];

#[test]
fn every_sweep_begins_with_the_single_scenario_output() {
    for &(command, first_scenario) in SWEEP_FIRST_SCENARIO {
        let out = model_cli(command);
        // Split before each block header, keeping every byte.
        let starts: Vec<usize> = out.match_indices("sweep of ").map(|(i, _)| i).collect();
        assert_eq!(starts.first(), Some(&0), "{command}");
        let blocks: Vec<&str> = starts
            .iter()
            .zip(starts.iter().skip(1).chain([&out.len()]))
            .map(|(&from, &to)| &out[from..to])
            .collect();
        let names: Vec<&str> = blocks
            .iter()
            .map(|b| {
                b.lines()
                    .next()
                    .unwrap()
                    .rsplit(" for scenario ")
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            names,
            [
                "'aes-ni-cache1':",
                "'encryption-cache3':",
                "'inference-ads1':"
            ],
            "{command}"
        );
        assert_eq!(
            fnv1a(blocks[0]),
            first_scenario,
            "{command}: first block drifted"
        );
    }
}

/// `(fixture, digest)` for `faults` over scenarios derived from
/// `configs/faults-heavy-fallback.json` at core counts the goldens above
/// leave unpinned: 3 cores (not a power of two), 64 cores, and a
/// Sync-OS variant with twice as many threads as cores, whose dispatches
/// release the core and park threads on the ready queue. Each fixture
/// lives under `crates/cli/tests/fixtures/`.
const FAULTS: &[(&str, u64)] = &[
    ("faults_3_cores.json", 0x3d68eda9963d61f8),
    ("faults_64_cores.json", 0x4dc000295ae28467),
    ("faults_sync_os.json", 0xd5bdf261fadba92b),
];

#[test]
fn fault_reports_at_more_core_counts_match_their_recorded_digests() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    let actual: Vec<(&str, u64)> = FAULTS
        .iter()
        .map(|&(fixture, _)| {
            let path = format!("{fixtures}{fixture}");
            (fixture, fnv1a(&cli(&["faults", &path])))
        })
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(fixture, d)| format!("    (\"{fixture}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        actual,
        FAULTS,
        "a fault report drifted; actual digests:\n{}",
        rendered.join("\n")
    );
}
