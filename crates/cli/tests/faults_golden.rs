//! Golden-output tests for `accelctl faults`: the committed fixture pins
//! the report byte-for-byte, proves it is identical at any `--jobs`
//! width, and demonstrates the acceptance properties — retries alone
//! yield strictly higher goodput than no recovery, and retry + fallback
//! additionally zeroes failed requests and collapses the outage tail by
//! an order of magnitude while its host re-executions (real, scheduled
//! core slices since the fallback-capacity fix) cost at most a few
//! percent of goodput.
//!
//! To regenerate after an intentional output change:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p accelerometer-cli --test faults_golden
//! ```

use std::fs;
use std::path::PathBuf;

use accelerometer_cli::run;
use accelerometer_sim::faultsweep::FaultSweepReport;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_faults.json")
}

fn sharded_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_faults_sharded.json")
}

#[test]
fn faults_report_matches_golden_fixture_at_any_jobs_width() {
    let one = run(&args(&["--jobs", "1", "faults"])).expect("faults runs");
    let many = run(&args(&["--jobs", "4", "faults"])).expect("faults runs");
    assert_eq!(one, many, "faults report must not depend on --jobs");

    let path = fixture_path();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        fs::write(&path, &one).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); run with GOLDEN_BLESS=1"));
    assert_eq!(
        expected, one,
        "golden faults report drifted; if intentional, regenerate with GOLDEN_BLESS=1"
    );
}

#[test]
fn sharded_faults_report_matches_its_golden_fixture_at_any_width() {
    let one = run(&args(&["--shards", "1", "faults"])).expect("faults runs");
    let four = run(&args(&["--shards", "4", "faults"])).expect("faults runs");
    let classic = run(&args(&["faults"])).expect("faults runs");
    assert_eq!(one, four, "sharded faults report must not depend on --shards");
    assert_ne!(
        one, classic,
        "the demo scenario shards 2-ways; sharded output is a distinct run"
    );

    let path = sharded_fixture_path();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::write(&path, &one).expect("write sharded fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); run with GOLDEN_BLESS=1"));
    assert_eq!(
        expected, one,
        "sharded golden faults report drifted; if intentional, regenerate with GOLDEN_BLESS=1"
    );
}

#[test]
fn shards_flag_does_not_outlive_its_run() {
    // `--shards` used to be stored in a process global that the next
    // in-process `run` inherited, so a plain `faults` printed the sharded
    // report. Each call now parses its own run context.
    let sharded = run(&args(&["--shards", "2", "faults"])).expect("faults runs");
    let plain = run(&args(&["faults"])).expect("faults runs");
    let expected = fs::read_to_string(fixture_path()).expect("committed golden fixture");
    assert_eq!(expected, plain, "the sharded run leaked into the next one");
    assert_ne!(sharded, plain);
}

#[test]
fn sharded_fixture_still_shows_recovery_beating_no_recovery() {
    let report: FaultSweepReport =
        serde_json::from_str(&fs::read_to_string(sharded_fixture_path()).expect("fixture exists"))
            .expect("fixture parses");
    let outcome = |name: &str| {
        report
            .outcomes
            .iter()
            .find(|o| o.policy == name)
            .unwrap_or_else(|| panic!("policy {name} in fixture"))
    };
    let none = outcome("no-recovery");
    let retry = outcome("retry");
    let recovered = outcome("retry-fallback");
    assert!(
        retry.goodput_per_gcycle > none.goodput_per_gcycle,
        "goodput {:.2} vs {:.2}",
        retry.goodput_per_gcycle,
        none.goodput_per_gcycle
    );
    assert_eq!(recovered.metrics.faults.failed_requests, 0);
    assert!(
        recovered.p99_latency < none.p99_latency,
        "p99 {:.0} vs {:.0}",
        recovered.p99_latency,
        none.p99_latency
    );
    // Honest accounting: fallback re-executions are scheduled slices,
    // so the sharded run conserves core capacity too.
    for o in &report.outcomes {
        assert!(
            o.metrics.core_utilization <= 1.0 + 1e-9,
            "{}: core util {}",
            o.policy,
            o.metrics.core_utilization
        );
    }
}

#[test]
fn fixture_shows_recovery_strictly_beats_no_recovery() {
    let report: FaultSweepReport =
        serde_json::from_str(&fs::read_to_string(fixture_path()).expect("fixture exists"))
            .expect("fixture parses");
    let outcome = |name: &str| {
        report
            .outcomes
            .iter()
            .find(|o| o.policy == name)
            .unwrap_or_else(|| panic!("policy {name} in fixture"))
    };
    let none = outcome("no-recovery");
    let retry = outcome("retry");
    let recovered = outcome("retry-fallback");
    // Retries convert transient failures into successes without
    // consuming host capacity: a strict goodput win.
    assert!(
        retry.goodput_per_gcycle > none.goodput_per_gcycle,
        "goodput {:.2} vs {:.2}",
        retry.goodput_per_gcycle,
        none.goodput_per_gcycle
    );
    // Fallback additionally eliminates failures and collapses the tail;
    // its host re-executions are real scheduled slices, so that
    // protection costs a bounded few percent of goodput during a full
    // outage (where unprotected requests are merely late, not lost).
    assert_eq!(recovered.metrics.faults.failed_requests, 0);
    assert!(
        recovered.p99_latency * 10.0 < none.p99_latency,
        "p99 {:.0} vs {:.0}",
        recovered.p99_latency,
        none.p99_latency
    );
    assert!(
        recovered.goodput_per_gcycle > 0.95 * none.goodput_per_gcycle,
        "goodput {:.2} vs {:.2}",
        recovered.goodput_per_gcycle,
        none.goodput_per_gcycle
    );
    // Capacity is conserved for every policy — the old phantom
    // accounting pushed retry-fallback's utilization past 1.
    for o in &report.outcomes {
        assert!(
            o.metrics.core_utilization <= 1.0 + 1e-9,
            "{}: core util {}",
            o.policy,
            o.metrics.core_utilization
        );
    }
    // Fallback alone caps the damage but cannot restore the SLO; the
    // combined policy (retries + fallback + admission control) does.
    assert!(!none.slo_met);
    assert!(!recovered.slo_met);
    assert!(outcome("full").slo_met);
}
