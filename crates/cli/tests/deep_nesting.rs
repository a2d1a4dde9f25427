//! Pathologically nested JSON must come back as an error from every
//! loader — params configs, fault scenarios, service packs — and from
//! `accelctl` itself, never as a stack overflow that aborts the process.
//! The vendored JSON parser caps nesting at 128 levels, as upstream
//! serde_json does; these inputs nest 100k levels deep.

use std::fs;
use std::path::PathBuf;

use accelerometer::config::ConfigFile;
use accelerometer_cli::run;
use accelerometer_fleet::{set_active_registry, ServiceRegistry};
use accelerometer_sim::faultsweep::FaultScenario;

const DEPTH: usize = 100_000;

/// The two shapes of runaway nesting: bare arrays and single-key objects.
fn deep_inputs() -> [(&'static str, String); 2] {
    [
        ("array", "[".repeat(DEPTH)),
        ("object", "{\"a\":".repeat(DEPTH)),
    ]
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("accel-deep-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn params_config_loader_rejects_deep_nesting() {
    for (shape, text) in deep_inputs() {
        let err = ConfigFile::from_json(&text).expect_err(shape);
        assert!(
            err.to_string().contains("recursion limit"),
            "{shape}: {err}"
        );
    }
}

#[test]
fn fault_scenario_loader_rejects_deep_nesting() {
    for (shape, text) in deep_inputs() {
        let err = serde_json::from_str::<FaultScenario>(&text).expect_err(shape);
        assert!(
            err.to_string().contains("recursion limit"),
            "{shape}: {err}"
        );
    }
}

#[test]
fn services_loader_rejects_deep_nesting() {
    for (shape, text) in deep_inputs() {
        let dir = scratch_dir(&format!("services-{shape}"));
        fs::write(dir.join("web.json"), &text).expect("write pack");
        let err = ServiceRegistry::load_path(&dir).expect_err(shape);
        assert!(
            err.to_string().contains("recursion limit"),
            "{shape}: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn accelctl_returns_err_on_deep_nesting() {
    for (shape, text) in deep_inputs() {
        let dir = scratch_dir(&format!("cli-{shape}"));
        let file = dir.join("deep.json");
        fs::write(&file, &text).expect("write input");
        let path = file.to_string_lossy().into_owned();
        assert!(
            run(&args(&["estimate", &path])).is_err(),
            "estimate {shape}"
        );
        assert!(run(&args(&["faults", &path])).is_err(), "faults {shape}");
        let pack_dir = dir.join("services");
        fs::create_dir_all(&pack_dir).expect("pack dir");
        fs::write(pack_dir.join("web.json"), &text).expect("write pack");
        let pack = pack_dir.to_string_lossy().into_owned();
        assert!(
            run(&args(&["--services", &pack, "project"])).is_err(),
            "--services {shape}"
        );
        set_active_registry(None);
        fs::remove_dir_all(&dir).ok();
    }
}
