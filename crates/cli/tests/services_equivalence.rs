//! The load-bearing equivalence harness for the data-driven service
//! profiles: every runner must produce byte-identical output whether its
//! profile data comes from the embedded builtin registry or from the
//! shipped `configs/services/*.json` files loaded at run time
//! (`--services`), and an edited file must reach every output that
//! reads it. Existing golden fixtures are compared as-committed — zero
//! re-blessing — so the data path is pinned byte for byte.
//!
//! Also home of the golden fixtures for the three new workload packs
//! (`ai-inference`, `kvstore`, `pqc`), following the `golden_faults.json`
//! pattern:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p accelerometer-cli --test services_equivalence
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use accelerometer::GranularityCdf;
use accelerometer_bench::{figure_with, FIGURE_IDS};
use accelerometer_cli::run;
use accelerometer_fleet::{ServiceRegistry, ServiceSpec};
use accelerometer_sim::RunContext;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn services_dir() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../configs/services")
        .to_string_lossy()
        .into_owned()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"))
}

/// Runs a command twice — builtin path, then `--services` data path —
/// and returns both outputs.
fn run_both_paths(cmd: &[&str]) -> (String, String) {
    let dir = services_dir();
    let builtin = run(&args(cmd)).expect("builtin path runs");
    let mut with_flag = vec!["--services", dir.as_str()];
    with_flag.extend_from_slice(cmd);
    let data = run(&args(&with_flag)).expect("data path runs");
    (builtin, data)
}

/// A run context that reads `registry`.
fn context(registry: ServiceRegistry) -> RunContext {
    RunContext {
        registry: Arc::new(registry),
        ..RunContext::from_process_defaults()
    }
}

/// Renders `ids` from the builtin service data.
fn builtin_figures(ids: &[&str]) -> Vec<String> {
    let ctx = context(ServiceRegistry::builtin());
    ids.iter()
        .map(|id| figure_with(&ctx, id).expect("known figure"))
        .collect()
}

#[test]
fn faults_through_the_data_path_matches_the_committed_golden_fixture() {
    let (builtin, data) = run_both_paths(&["faults"]);
    assert_eq!(builtin, data, "faults output depends on the profile source");
    // The pre-existing fixture, byte-for-byte, driven through JSON
    // profiles — this is the zero-re-bless guarantee.
    let expected = fs::read_to_string(fixture_path("golden_faults.json"))
        .expect("committed golden_faults.json fixture");
    assert_eq!(expected, data, "data path drifted from the golden fixture");
}

#[test]
fn sharded_faults_through_the_data_path_matches_its_golden_fixture() {
    let (builtin, data) = run_both_paths(&["--shards", "2", "faults"]);
    assert_eq!(builtin, data);
    let expected = fs::read_to_string(fixture_path("golden_faults_sharded.json"))
        .expect("committed golden_faults_sharded.json fixture");
    assert_eq!(expected, data);
}

#[test]
fn every_paper_table_is_byte_identical_through_the_data_path() {
    // Includes table6 (the simulator A/B validation) and table7 — the
    // rows whose case-study and recommendation data now ride in JSON.
    let (builtin, data) = run_both_paths(&["tables", "all"]);
    assert_eq!(builtin, data, "a table depends on the profile source");
    assert!(data.contains("Table 6"), "{data}");
}

#[test]
fn project_and_characterize_are_byte_identical_through_the_data_path() {
    let (builtin, data) = run_both_paths(&["project"]);
    assert_eq!(builtin, data);
    let (builtin, data) = run_both_paths(&["characterize", "cache1", "--samples", "4000"]);
    assert_eq!(builtin, data);
}

/// Renders `ids` from the service data loaded from `dir`.
fn figures_loaded_from(dir: &Path, ids: &[&str]) -> Vec<String> {
    let ctx = context(ServiceRegistry::load_path(dir).expect("service data loads"));
    ids.iter()
        .map(|id| figure_with(&ctx, id).expect("known figure"))
        .collect()
}

#[test]
fn every_figure_is_byte_identical_through_the_data_path() {
    let builtin = builtin_figures(&FIGURE_IDS);
    let data = figures_loaded_from(Path::new(&services_dir()), &FIGURE_IDS);
    for ((id, builtin), data) in FIGURE_IDS.iter().zip(&builtin).zip(&data) {
        assert_eq!(builtin, data, "{id} depends on the profile source");
    }
}

#[test]
fn figures_read_edited_service_data() {
    // Regression: Figs. 8, 10 and 15-19 used to read their data straight
    // from Rust constructors, so `--services` could not reach them.
    let ids = ["fig8", "fig15"];
    let builtin = builtin_figures(&ids);

    let shipped =
        fs::read_to_string(PathBuf::from(services_dir()).join("cache1.json")).expect("cache1 spec");
    let mut spec: ServiceSpec = serde_json::from_str(&shipped).expect("cache1 spec parses");
    let ipc = spec
        .ipc
        .as_mut()
        .expect("Cache1 carries the Fig. 8 IPC table");
    ipc.leaves[0].1.gen_a += 0.2;
    let aes_ni = spec
        .case_studies
        .iter_mut()
        .find(|e| e.study.name == "aes-ni")
        .expect("Cache1 carries the aes-ni case study");
    let cdf = aes_ni
        .study
        .granularity
        .as_ref()
        .expect("aes-ni carries Fig. 15");
    let mut points = cdf.points().to_vec();
    points[0].0 = 1.0;
    aes_ni.study.granularity = Some(GranularityCdf::from_points(points).expect("valid CDF"));

    let dir = std::env::temp_dir().join(format!("accel-edited-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    let edited = serde_json::to_string_pretty(&spec).expect("spec serializes");
    fs::write(dir.join("cache1.json"), edited).expect("write edited spec");
    let data = figures_loaded_from(&dir, &ids);
    fs::remove_dir_all(&dir).ok();
    for ((id, builtin), data) in ids.iter().zip(&builtin).zip(&data) {
        assert_ne!(builtin, data, "{id} ignores the loaded service data");
    }
}

#[test]
fn figures_render_without_the_optional_service_data() {
    // IPC tables, case studies and recommendations are optional spec
    // fields; a figure whose series is missing renders without it.
    let dir = std::env::temp_dir().join(format!("accel-bare-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    for entry in fs::read_dir(services_dir()).expect("shipped dir") {
        let path = entry.expect("dir entry").path();
        let text = fs::read_to_string(&path).expect("shipped spec");
        let mut spec: ServiceSpec = serde_json::from_str(&text).expect("shipped spec parses");
        spec.ipc = None;
        spec.case_studies.clear();
        spec.recommendations.clear();
        let bare = serde_json::to_string_pretty(&spec).expect("spec serializes");
        fs::write(dir.join(path.file_name().expect("file name")), bare).expect("write spec");
    }
    let rendered = figures_loaded_from(&dir, &FIGURE_IDS);
    fs::remove_dir_all(&dir).ok();
    for (id, text) in FIGURE_IDS.iter().zip(&rendered) {
        assert!(text.contains("=="), "{id} lacks a title");
    }
}

#[test]
fn validate_case_study_is_byte_identical_through_the_data_path() {
    let (builtin, data) = run_both_paths(&["validate", "--case", "aes-ni"]);
    assert_eq!(builtin, data);
    assert!(data.contains("case study aes-ni"), "{data}");
}

#[test]
fn new_pack_characterizations_match_their_golden_fixtures() {
    for slug in ["ai-inference", "kvstore", "pqc"] {
        let out =
            run(&args(&["characterize", slug, "--samples", "5000"])).expect("pack characterizes");
        let path = fixture_path(&format!("golden_pack_{slug}.txt"));
        if std::env::var_os("GOLDEN_BLESS").is_some() {
            fs::write(&path, &out).expect("write pack fixture");
            continue;
        }
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); run with GOLDEN_BLESS=1"));
        assert_eq!(
            expected, out,
            "{slug} characterization drifted; if intentional, regenerate with GOLDEN_BLESS=1"
        );
    }
}

#[test]
fn pack_fixtures_reflect_their_defining_taxes() {
    // The AI pack's story (per AI Tax): pre/post-processing overheads
    // tax more cycles than the inference core itself.
    let ai = fs::read_to_string(fixture_path("golden_pack_ai-inference.txt"))
        .expect("ai-inference fixture");
    assert!(ai.contains("Prediction/Ranking"), "{ai}");
    // The kvstore pack leans on hashing + spin locks; the PQC pack on
    // SSL/Math/Hashing leaves.
    let kv = fs::read_to_string(fixture_path("golden_pack_kvstore.txt")).expect("kvstore fixture");
    assert!(kv.contains("characterization of KVStore"), "{kv}");
    let pqc = fs::read_to_string(fixture_path("golden_pack_pqc.txt")).expect("pqc fixture");
    assert!(pqc.contains("characterization of PQC"), "{pqc}");
}

#[test]
fn services_validate_gates_the_shipped_directory_and_rejects_corruption() {
    let out = run(&args(&["services", "validate", &services_dir()])).expect("shipped dir valid");
    assert!(out.contains("ok: 11 valid service spec(s)"), "{out}");

    // A malformed pack must fail the gate with a structured message.
    let dir = std::env::temp_dir().join(format!("accel-badpack-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    let good = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../configs/services/kvstore.json"),
    )
    .expect("kvstore spec");
    // Knock one functionality share off balance: sums to ~95%, not 100%.
    let bad = good.replacen("34.0", "29.0", 1);
    assert_ne!(good, bad, "corruption must change the spec");
    fs::write(dir.join("kvstore.json"), bad).expect("write corrupt spec");
    let err = run(&args(&["services", "validate", &dir.to_string_lossy()])).unwrap_err();
    assert!(err.contains("breakdown must sum to ~100%"), "{err}");
    // And `--services` refuses to load the corrupt data at all.
    let err = run(&args(&["--services", &dir.to_string_lossy(), "project"])).unwrap_err();
    assert!(err.contains("breakdown must sum to ~100%"), "{err}");

    // An empty list says so, and a total far from 100% prints at a fixed
    // precision: these used to print `got -0` and a 300-digit number.
    for (field, entries, expected) in [
        (
            "memory_ops",
            "[]",
            "KVStore: memory_ops breakdown has no entries",
        ),
        (
            "functionality",
            r#"[["secure-insecure-io", 1e-300]]"#,
            "KVStore: functionality breakdown must sum to ~100%, got 0.00%",
        ),
    ] {
        fs::write(
            dir.join("kvstore.json"),
            with_entries(&good, field, entries),
        )
        .expect("write corrupt spec");
        let err = run(&args(&["services", "validate", &dir.to_string_lossy()])).unwrap_err();
        assert_eq!(err, expected);
    }
    // So does an IPC a hair below zero: it used to print ~300 digits.
    fs::remove_file(dir.join("kvstore.json")).expect("remove kvstore spec");
    let cache1 =
        fs::read_to_string(PathBuf::from(services_dir()).join("cache1.json")).expect("cache1 spec");
    let bad = cache1.replacen("\"gen_a\": 0.82", "\"gen_a\": -1e-300", 1);
    assert_ne!(cache1, bad, "corruption must change the spec");
    fs::write(dir.join("cache1.json"), bad).expect("write corrupt spec");
    let err = run(&args(&["services", "validate", &dir.to_string_lossy()])).unwrap_err();
    assert_eq!(
        err,
        "Cache1: IPC for Memory must be positive and finite, got -0.00"
    );
    fs::remove_dir_all(&dir).ok();
}

/// `spec` with the `entries` array of breakdown `field` replaced by
/// `entries`.
fn with_entries(spec: &str, field: &str, entries: &str) -> String {
    let key = spec.find(&format!("\"{field}\"")).expect("field present");
    let open = key + spec[key..].find('[').expect("entries array");
    let mut depth = 0;
    let close = open
        + spec[open..]
            .char_indices()
            .find(|&(_, c)| {
                depth += match c {
                    '[' => 1,
                    ']' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .expect("entries array closes")
            .0;
    format!("{}{entries}{}", &spec[..open], &spec[close + 1..])
}

#[test]
fn a_renamed_case_study_is_an_error_not_a_panic() {
    // `services validate` accepts a pack whose case study the simulator
    // does not know; `validate` and `tables table6` used to panic on it.
    let dir = std::env::temp_dir().join(format!("accel-renamed-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    let shipped =
        fs::read_to_string(PathBuf::from(services_dir()).join("cache1.json")).expect("cache1 spec");
    let renamed = shipped.replacen("\"aes-ni\"", "\"aes-ni-v2\"", 1);
    assert_ne!(shipped, renamed, "the rename must change the spec");
    fs::write(dir.join("cache1.json"), renamed).expect("write renamed spec");
    let dir = dir.to_string_lossy().into_owned();
    let out = run(&args(&["services", "validate", &dir])).expect("the pack itself is valid");
    assert!(out.starts_with("ok:"), "{out}");
    for cmd in [&["validate"][..], &["tables", "table6"], &["tables", "all"]] {
        let mut argv = vec!["--services", dir.as_str()];
        argv.extend_from_slice(cmd);
        let err = run(&args(&argv)).expect_err(&format!("{cmd:?}"));
        assert!(
            err.contains("unknown case study 'aes-ni-v2'"),
            "{cmd:?}: {err}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn services_list_and_export_round_trip() {
    let out = run(&args(&["services", "list"])).expect("list runs");
    for slug in ["web", "ai-inference", "kvstore", "pqc"] {
        assert!(out.contains(slug), "{out}");
    }
    let dir = std::env::temp_dir().join(format!("accel-export-cli-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let out = run(&args(&["services", "export", &dir.to_string_lossy()])).expect("export runs");
    assert_eq!(out.lines().count(), 11, "{out}");
    // Exported files are byte-identical to the shipped ones.
    for slug in ["web", "cache1", "pqc"] {
        let exported = fs::read_to_string(dir.join(format!("{slug}.json"))).expect("exported");
        let shipped =
            fs::read_to_string(PathBuf::from(services_dir()).join(format!("{slug}.json")))
                .expect("shipped");
        assert_eq!(exported, shipped, "{slug}");
    }
    fs::remove_dir_all(&dir).ok();
}
