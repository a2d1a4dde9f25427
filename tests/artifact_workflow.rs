//! The artifact-appendix workflow (Appendix A.5), end to end: write a
//! parameter configuration file, run the model on it through the CLI
//! layer, and check the estimated speedups — the exact usage the paper's
//! released artifact supports.

use std::fs;

use accelerometer_suite::cli::run;
use accelerometer_suite::model::ConfigFile;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "accelerometer-artifact-{}-{name}",
        std::process::id()
    ))
}

const TABLE6_CONFIG: &str = r#"{
  "scenarios": [
    {
      "name": "aes-ni-cache1",
      "c": 2.0e9, "alpha": 0.165844, "n": 298951,
      "o0": 10, "l": 3, "a": 6,
      "design": "sync", "strategy": "on-chip"
    },
    {
      "name": "encryption-cache3",
      "c": 2.3e9, "alpha": 0.19154, "n": 101863,
      "l": 2530, "a": 27,
      "design": "async-no-response", "strategy": "off-chip"
    },
    {
      "name": "inference-ads1",
      "c": 2.5e9, "alpha": 0.52, "n": 10,
      "o0": 25000000, "o1": 12500, "a": 1,
      "design": "async-distinct-thread", "strategy": "remote"
    }
  ]
}"#;

#[test]
fn config_file_workflow_reproduces_table6() {
    let path = temp_path("table6.json");
    fs::write(&path, TABLE6_CONFIG).expect("temp dir writable");
    let out = run(&["estimate".to_owned(), path.to_string_lossy().into_owned()])
        .expect("estimate succeeds");
    fs::remove_file(&path).ok();

    // The three Table 6 estimates, straight from the config file.
    assert!(out.contains("aes-ni-cache1"), "{out}");
    assert!(out.contains("+15.7"), "{out}");
    assert!(out.contains("+8.6"), "{out}");
    assert!(out.contains("+72.39") || out.contains("+72.4"), "{out}");
}

#[test]
fn config_round_trips_through_serde() {
    let cfg = ConfigFile::from_json(TABLE6_CONFIG).expect("parses");
    assert_eq!(cfg.scenarios.len(), 3);
    let json = serde_json::to_string_pretty(&cfg).expect("serializes");
    let back = ConfigFile::from_json(&json).expect("re-parses");
    assert_eq!(cfg, back);
    // Evaluation after the round trip matches direct evaluation.
    for ((name_a, a), (name_b, b)) in cfg
        .to_scenarios()
        .unwrap()
        .iter()
        .zip(back.to_scenarios().unwrap().iter())
    {
        assert_eq!(name_a, name_b);
        assert_eq!(a.estimate(), b.estimate());
    }
}

#[test]
fn sweep_workflow_explores_the_design_space() {
    let path = temp_path("sweep.json");
    fs::write(&path, TABLE6_CONFIG).expect("temp dir writable");
    let out = run(&[
        "sweep".to_owned(),
        path.to_string_lossy().into_owned(),
        "--axis".to_owned(),
        "interface-latency".to_owned(),
        "--from".to_owned(),
        "1".to_owned(),
        "--to".to_owned(),
        "100000".to_owned(),
        "--points".to_owned(),
        "6".to_owned(),
    ])
    .expect("sweep succeeds");
    fs::remove_file(&path).ok();
    // One block per scenario, in file order: a header and six rows.
    let blocks: Vec<&str> = out.split("sweep of ").skip(1).collect();
    assert_eq!(blocks.len(), 3, "{out}");
    for block in blocks {
        assert_eq!(block.lines().count(), 7, "{out}");
        // Speedup decreases monotonically as L grows.
        let speedups: Vec<f64> = block
            .lines()
            .skip(1)
            .map(|l| {
                l.split("speedup ")
                    .nth(1)
                    .and_then(|s| s.split('x').next())
                    .and_then(|s| s.trim().parse().ok())
                    .expect("parsable speedup")
            })
            .collect();
        for pair in speedups.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "{speedups:?}");
        }
    }
}

#[test]
fn validate_workflow_runs_the_simulator() {
    let out = run(&["validate".to_owned()]).expect("validate succeeds");
    assert!(out.contains("aes-ni"), "{out}");
    assert!(out.contains("model-vs-sim"), "{out}");
    assert!(out.contains("3.7"), "{out}");
}
