//! Fault scenarios whose workload or sizes the simulator cannot run must
//! come back as a structured error from both the library validator and
//! `accelctl faults` — never as negative or empty results, an
//! out-of-memory kill, or a capacity-overflow abort. Each fixture is
//! `configs/faults-heavy-fallback.json` with one field broken;
//! `scripts/tier1.sh` runs the same files through the release binary.

use std::path::PathBuf;

use accelerometer_cli::run;
use accelerometer_sim::faultsweep::FaultScenario;

/// Fixture stem and a fragment the error message must contain.
const CASES: [(&str, &str); 6] = [
    ("negative_cycles_per_byte", "cycles_per_byte"),
    ("negative_granularity", "granularity"),
    ("huge_cycles_per_byte", "cycles_per_byte"),
    ("huge_non_kernel_cycles", "non_kernel_cycles"),
    ("huge_kernels_per_request", "kernels_per_request"),
    ("huge_threads", "threads"),
];

fn fixture(stem: &str) -> String {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "fixtures",
        &format!("bad_scenario_{stem}.json"),
    ]
    .iter()
    .collect();
    path.to_string_lossy().into_owned()
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn validator_rejects_every_malformed_scenario() {
    for (stem, field) in CASES {
        let text = std::fs::read_to_string(fixture(stem)).expect("fixture exists");
        // The negative CDF is refused while parsing; every other case
        // parses and fails validation.
        let err = match serde_json::from_str::<FaultScenario>(&text) {
            Err(err) => err.to_string(),
            Ok(scenario) => scenario.base.validate().expect_err(stem).to_string(),
        };
        assert!(err.contains(field), "{stem}: {err}");
    }
}

#[test]
fn accelctl_faults_returns_err_on_every_malformed_scenario() {
    for (stem, field) in CASES {
        let path = fixture(stem);
        for prefix in [&[][..], &["--shards", "2"][..]] {
            let mut argv = args(prefix);
            argv.extend(args(&["faults", &path]));
            let err = run(&argv).expect_err(stem);
            assert!(err.contains(field), "{stem} {prefix:?}: {err}");
        }
    }
}
