//! Byte-exactness pin for every paper output the runners print.
//!
//! Each output — every figure, `tables all`, `project`, and
//! `characterize <service>` for all eleven services at their default
//! seed and sample count — is folded into one FNV-1a digest. The
//! expected digests were captured while the service data still lived in
//! Rust constructors, so moving that data into the embedded
//! `configs/services/*.json` files (or any later refactor of the data
//! path) shows up here as a digest mismatch, byte for byte.

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
