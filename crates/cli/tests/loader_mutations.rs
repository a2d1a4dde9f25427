//! Mutated input files never panic a loader. Each case takes a shipped
//! file, overwrites 1–4 bytes and maybe truncates it, then feeds it to
//! the loader that reads that kind of file:
//!
//! - a params file (`configs/table6.json`) to `ConfigFile::from_json`
//!   and `to_scenarios`;
//! - a fault scenario (`configs/faults-degradation.json`) to its
//!   deserializer, then `SimConfig::validate` on every configuration the
//!   sweep would build (none of them runs);
//! - a service profile (`configs/services/cache1.json`) to
//!   `ServiceRegistry::load_file`, through a file on disk.
//!
//! Every call must return `Ok` or `Err`; a panic fails the case.

use std::fs;
use std::path::PathBuf;

use accelerometer::config::ConfigFile;
use accelerometer_fleet::ServiceRegistry;
use accelerometer_sim::faultsweep::{sweep_configs, FaultScenario};
use proptest::prelude::*;

const PARAMS: &[u8] = include_bytes!("../../../configs/table6.json");
const SCENARIO: &[u8] = include_bytes!("../../../configs/faults-degradation.json");
const SERVICE: &[u8] = include_bytes!("../../../configs/services/cache1.json");

/// Replacement bytes for a digit: the file usually still parses, a
/// number changes, and the validators see it.
const NUMERIC: &[u8] = b"0123456789-.e";

/// Replacement bytes anywhere: JSON syntax, plus bytes that break UTF-8
/// or the syntax outright.
const ANY: &[u8] = b"0123456789-+.eE\"{}[],:ntf \\\x00\xff";

/// One byte overwrite: where, with which byte, and whether it replaces
/// a digit with a [`NUMERIC`] byte or any byte with an [`ANY`] byte.
type Overwrite = (prop::sample::Index, prop::sample::Index, bool);

/// One mutation: 1–4 overwrites, then, in a quarter of the cases, a
/// truncation.
struct Mutation {
    overwrites: Vec<Overwrite>,
    truncate: Option<prop::sample::Index>,
}

impl Mutation {
    fn apply(&self, original: &[u8]) -> Vec<u8> {
        let mut bytes = original.to_vec();
        let digits: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii_digit())
            .collect();
        for (at, with, digit) in &self.overwrites {
            let (at, palette) = if *digit {
                (digits[at.index(digits.len())], NUMERIC)
            } else {
                (at.index(bytes.len()), ANY)
            };
            bytes[at] = palette[with.index(palette.len())];
        }
        if let Some(cut) = &self.truncate {
            bytes.truncate(cut.index(bytes.len() + 1));
        }
        bytes
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let overwrite = (
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        any::<bool>(),
    );
    (
        prop::collection::vec(overwrite, 1..5),
        (any::<bool>(), any::<bool>()),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(overwrites, coins, cut)| Mutation {
            overwrites,
            truncate: (coins.0 && coins.1).then_some(cut),
        })
}

/// A per-process, per-test directory for a service file, which must be
/// named after the service it holds to load at all.
fn service_path(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loader-mutations-{}-{test}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir writable");
    dir.join("cache1.json")
}

#[test]
fn unmutated_files_load() {
    let params = std::str::from_utf8(PARAMS).expect("UTF-8");
    let cfg = ConfigFile::from_json(params).expect("params parse");
    assert!(!cfg.to_scenarios().expect("scenarios build").is_empty());
    let text = std::str::from_utf8(SCENARIO).expect("UTF-8");
    let scenario: FaultScenario = serde_json::from_str(text).expect("scenario parses");
    for cfg in sweep_configs(&scenario) {
        cfg.validate().expect("shipped scenario is valid");
    }
    let path = service_path("unmutated");
    fs::write(&path, SERVICE).expect("temp file writable");
    let loaded = ServiceRegistry::builtin().load_file(&path);
    fs::remove_dir_all(path.parent().expect("has a parent")).ok();
    loaded.expect("shipped profile loads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_params_files_never_panic(m in mutation()) {
        let bytes = m.apply(PARAMS);
        if let Ok(cfg) = ConfigFile::from_json(&String::from_utf8_lossy(&bytes)) {
            let _ = cfg.to_scenarios();
        }
    }

    #[test]
    fn mutated_fault_scenarios_never_panic(m in mutation()) {
        let bytes = m.apply(SCENARIO);
        if let Ok(scenario) = serde_json::from_str::<FaultScenario>(&String::from_utf8_lossy(&bytes)) {
            for cfg in sweep_configs(&scenario) {
                let _ = cfg.validate();
            }
        }
    }

    #[test]
    fn mutated_service_profiles_never_panic(m in mutation()) {
        let path = service_path("mutated");
        fs::write(&path, m.apply(SERVICE)).expect("temp file writable");
        let _ = ServiceRegistry::builtin().load_file(&path);
        fs::remove_dir_all(path.parent().expect("has a parent")).ok();
    }
}
