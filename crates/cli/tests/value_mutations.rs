//! Well-formed but wrong JSON never panics a loader. Each case parses a
//! shipped file, replaces one node — a leaf or a whole subtree, never
//! the root — with a value from [`PALETTE`], and feeds the re-rendered
//! text to the loader that reads that kind of file, the same three as
//! `loader_mutations.rs`:
//!
//! - a params file (`configs/table6.json`) to `ConfigFile::from_json`
//!   and `to_scenarios`;
//! - a fault scenario (`configs/faults-degradation.json`) to its
//!   deserializer, then `Simulator::try_new` on every configuration the
//!   sweep would build, so checks made while an engine is constructed
//!   are reached too (no engine runs);
//! - a service profile (`configs/services/cache1.json`) to
//!   `ServiceRegistry::load_file`, through a file on disk.
//!
//! The params file and the fault scenario are small, so every (node,
//! palette value) pair is tried; the service profile (~400 nodes, and a
//! file write per case) gets three palette values per node, rotating so
//! that each value meets every fourth node. Every call must return `Ok`
//! or `Err`; a panic fails the test.

use std::fs;

use accelerometer::config::ConfigFile;
use accelerometer_fleet::ServiceRegistry;
use accelerometer_sim::faultsweep::{sweep_configs, FaultScenario};
use accelerometer_sim::Simulator;
use serde_json::Value;

const PARAMS: &str = include_str!("../../../configs/table6.json");
const SCENARIO: &str = include_str!("../../../configs/faults-degradation.json");
const SERVICE: &str = include_str!("../../../configs/services/cache1.json");

/// Replacement values, as JSON text: every type, the integer and float
/// extremes, and integers just past `u32` and `u64`.
const PALETTE: [&str; 12] = [
    "null",
    "true",
    "-1",
    "0",
    "1e308",
    "-1e308",
    "5e-324",
    "4294967296",
    "18446744073709551616",
    "\"x\"",
    "[]",
    "{}",
];

/// A string no shipped file contains; the chosen node is replaced by it
/// and its rendering by the palette text, so each palette value reaches
/// the loader exactly as written.
const MARK: &str = "value-mutation-mark";

/// The number of nodes in `value`, itself included.
fn node_count(value: &Value) -> usize {
    1 + match value {
        Value::Array(items) => items.iter().map(node_count).sum(),
        Value::Object(entries) => entries.iter().map(|(_, v)| node_count(v)).sum(),
        _ => 0,
    }
}

/// The node at preorder position `*n` of `value` (0 is `value` itself).
fn nth_node<'a>(value: &'a mut Value, n: &mut usize) -> Option<&'a mut Value> {
    if *n == 0 {
        return Some(value);
    }
    *n -= 1;
    let children: Box<dyn Iterator<Item = &mut Value>> = match value {
        Value::Array(items) => Box::new(items.iter_mut()),
        Value::Object(entries) => Box::new(entries.iter_mut().map(|(_, v)| v)),
        _ => return None,
    };
    for child in children {
        if let Some(found) = nth_node(child, n) {
            return Some(found);
        }
    }
    None
}

/// Variants of `original` with one non-root node replaced by one palette
/// value, as JSON text: `per_node` values for each node, starting at
/// palette index `node · per_node` and wrapping (all of them at
/// `PALETTE.len()`).
fn mutations(original: &str, per_node: usize) -> Vec<String> {
    let tree: Value = serde_json::from_str(original).expect("shipped file parses");
    assert!(!tree.to_string().contains(MARK));
    let mut out = Vec::new();
    for node in 1..node_count(&tree) {
        let mut mutated = tree.clone();
        *nth_node(&mut mutated, &mut { node }).expect("node in range") =
            Value::String(MARK.to_owned());
        let text = mutated.to_string();
        for j in 0..per_node {
            let value = PALETTE[(node * per_node + j) % PALETTE.len()];
            out.push(text.replace(&format!("\"{MARK}\""), value));
        }
    }
    out
}

#[test]
fn every_node_is_reached() {
    let tree: Value = serde_json::from_str(SCENARIO).expect("parses");
    let count = node_count(&tree);
    assert!(nth_node(&mut tree.clone(), &mut { count - 1 }).is_some());
    assert!(nth_node(&mut tree.clone(), &mut { count }).is_none());
    assert_eq!(
        mutations(SCENARIO, PALETTE.len()).len(),
        (count - 1) * PALETTE.len()
    );
    // A rendered mutation carries the palette text verbatim.
    assert!(mutations(PARAMS, PALETTE.len())
        .iter()
        .any(|text| text.contains(":18446744073709551616")));
}

#[test]
fn mutated_params_files_never_panic() {
    for text in mutations(PARAMS, PALETTE.len()) {
        if let Ok(cfg) = ConfigFile::from_json(&text) {
            let _ = cfg.to_scenarios();
        }
    }
}

#[test]
fn mutated_fault_scenarios_never_panic_the_engine_constructor() {
    for text in mutations(SCENARIO, PALETTE.len()) {
        if let Ok(scenario) = serde_json::from_str::<FaultScenario>(&text) {
            for cfg in sweep_configs(&scenario) {
                let _ = Simulator::try_new(cfg);
            }
        }
    }
}

#[test]
fn mutated_service_profiles_never_panic() {
    // The file must be named after the service it holds to load at all.
    let dir = std::env::temp_dir().join(format!("value-mutations-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir writable");
    let path = dir.join("cache1.json");
    for text in mutations(SERVICE, 3) {
        fs::write(&path, text).expect("temp file writable");
        let _ = ServiceRegistry::builtin().load_file(&path);
    }
    fs::remove_dir_all(&dir).ok();
}
