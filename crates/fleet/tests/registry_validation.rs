//! Structured-validation tests for the service-spec loader: every
//! malformed-profile rejection reason surfaces as a typed
//! [`FleetError`], never a panic. Each test corrupts one aspect of a
//! valid exported spec (the serde derives accept the shape; only
//! `ServiceSpec::validate` — run on every load — catches the damage).

use std::fs;
use std::path::PathBuf;

use accelerometer_fleet::{FleetError, ServiceId, ServiceRegistry, ServiceSpec};
use serde_json::Value;

/// The exported spec as a mutable JSON tree.
fn spec_value(id: ServiceId) -> Value {
    serde_json::from_str(ServiceRegistry::export_json(id)).expect("export parses")
}

/// Navigates to a mutable object entry (panics on shape mismatch — the
/// exported layout is the shipped files' canonical form).
fn get_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("object key {key}")),
        _ => panic!("not an object at {key}"),
    }
}

fn get_idx(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(items) => items,
        _ => panic!("not an array"),
    }
}

/// Re-parses the (possibly corrupted) tree and validates it.
fn validate(v: &Value) -> Result<(), FleetError> {
    let spec: ServiceSpec =
        serde_json::from_str(&v.to_pretty_string()).expect("corrupted spec still parses");
    spec.validate()
}

fn number(x: f64) -> Value {
    serde_json::from_str(&format!("{x}")).expect("number parses")
}

#[test]
fn unsupported_schema_version_is_rejected() {
    let mut v = spec_value(ServiceId::Web);
    *get_mut(&mut v, "schema") = number(99.0);
    assert_eq!(
        validate(&v),
        Err(FleetError::UnsupportedSchema { found: 99 })
    );
}

#[test]
fn breakdown_not_summing_to_100_is_rejected() {
    let mut v = spec_value(ServiceId::Web);
    let entries = get_idx(get_mut(
        get_mut(get_mut(&mut v, "profile"), "functionality"),
        "entries",
    ));
    // Inflate the first share by 50 points: 100% becomes 150%.
    let first = get_idx(&mut entries[0]);
    let bumped = first[1].as_f64().expect("percent") + 50.0;
    first[1] = number(bumped);
    match validate(&v) {
        Err(FleetError::BreakdownTotal {
            service,
            field,
            total,
        }) => {
            assert_eq!(service, ServiceId::Web);
            assert_eq!(field, "functionality");
            assert!((total - 150.0).abs() < 1e-9, "total {total}");
        }
        other => panic!("expected BreakdownTotal, got {other:?}"),
    }
}

#[test]
fn duplicated_breakdown_category_is_rejected() {
    let mut v = spec_value(ServiceId::Web);
    let entries = get_idx(get_mut(
        get_mut(get_mut(&mut v, "profile"), "leaves"),
        "entries",
    ));
    // Rename the second category to the first's: sum unchanged, entry
    // list invalid.
    let first_cat = get_idx(&mut entries[0])[0].clone();
    get_idx(&mut entries[1])[0] = first_cat;
    match validate(&v) {
        Err(FleetError::BreakdownEntry { service, field, .. }) => {
            assert_eq!(service, ServiceId::Web);
            assert_eq!(field, "leaves");
        }
        other => panic!("expected BreakdownEntry, got {other:?}"),
    }
}

#[test]
fn empty_granularity_cdf_is_rejected() {
    let mut v = spec_value(ServiceId::Web);
    *get_mut(get_mut(&mut v, "copy_granularity"), "points") = Value::Array(Vec::new());
    assert_eq!(
        validate(&v),
        Err(FleetError::EmptyCdf {
            service: ServiceId::Web,
            field: "copy_granularity",
        })
    );
}

#[test]
fn non_monotone_granularity_cdf_is_rejected() {
    let mut v = spec_value(ServiceId::Web);
    let points = get_idx(get_mut(get_mut(&mut v, "allocation_granularity"), "points"));
    // Swap the first two cumulative fractions: the CDF now decreases.
    let a = get_idx(&mut points[0])[1].clone();
    let b = get_idx(&mut points[1])[1].clone();
    get_idx(&mut points[0])[1] = b;
    get_idx(&mut points[1])[1] = a;
    match validate(&v) {
        Err(FleetError::NonMonotoneCdf { service, field, .. }) => {
            assert_eq!(service, ServiceId::Web);
            assert_eq!(field, "allocation_granularity");
        }
        other => panic!("expected NonMonotoneCdf, got {other:?}"),
    }
}

#[test]
fn negative_ipc_is_rejected() {
    // Cache1 is the one builtin spec that carries IPC tables (Fig. 8).
    let mut v = spec_value(ServiceId::Cache1);
    let leaves = get_idx(get_mut(get_mut(&mut v, "ipc"), "leaves"));
    let scaling = &mut get_idx(&mut leaves[0])[1];
    *get_mut(scaling, "gen_b") = number(-0.5);
    match validate(&v) {
        Err(FleetError::NegativeIpc { service, value, .. }) => {
            assert_eq!(service, ServiceId::Cache1);
            assert_eq!(value, -0.5);
        }
        other => panic!("expected NegativeIpc, got {other:?}"),
    }
}

#[test]
fn negative_rate_is_rejected() {
    let mut v = spec_value(ServiceId::Feed1);
    let rates = get_mut(get_mut(&mut v, "profile"), "rates");
    *get_mut(rates, "compressions_per_second") = number(-1.0);
    assert_eq!(
        validate(&v),
        Err(FleetError::NegativeRate {
            service: ServiceId::Feed1,
            field: "compressions_per_second",
            value: -1.0,
        })
    );
}

#[test]
fn zero_host_cycle_budget_is_rejected() {
    let mut v = spec_value(ServiceId::Feed1);
    let rates = get_mut(get_mut(&mut v, "profile"), "rates");
    *get_mut(rates, "host_cycles_per_second") = number(0.0);
    assert_eq!(
        validate(&v),
        Err(FleetError::NegativeRate {
            service: ServiceId::Feed1,
            field: "host_cycles_per_second",
            value: 0.0,
        })
    );
}

#[test]
fn out_of_range_case_study_parameter_is_rejected() {
    let mut v = spec_value(ServiceId::Cache1);
    let study = get_mut(&mut get_idx(get_mut(&mut v, "case_studies"))[0], "study");
    let params = get_mut(get_mut(study, "scenario"), "params");
    *get_mut(params, "kernel_fraction") = number(1.5);
    match validate(&v) {
        Err(FleetError::InvalidModelParam {
            service,
            field,
            value,
        }) => {
            assert_eq!(service, ServiceId::Cache1);
            assert_eq!(field, "case_study.kernel_fraction");
            assert_eq!(value, 1.5);
        }
        other => panic!("expected InvalidModelParam, got {other:?}"),
    }
}

#[test]
fn foreign_case_study_is_rejected() {
    // A Cache1 spec may not smuggle in a case study claiming Web.
    let mut v = spec_value(ServiceId::Cache1);
    let study = get_mut(&mut get_idx(get_mut(&mut v, "case_studies"))[0], "study");
    *get_mut(study, "service") = Value::String("web".to_owned());
    match validate(&v) {
        Err(FleetError::ForeignEntry { service, found, .. }) => {
            assert_eq!(service, ServiceId::Cache1);
            assert_eq!(found, ServiceId::Web);
        }
        other => panic!("expected ForeignEntry, got {other:?}"),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("accel-registry-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn file_stem_must_match_the_profile_id() {
    let dir = temp_dir("stem");
    let path = dir.join("cache1.json");
    fs::write(&path, ServiceRegistry::export_json(ServiceId::Web)).expect("write");
    let err = ServiceRegistry::builtin().load_file(&path).unwrap_err();
    match err {
        FleetError::FilenameMismatch { expected, .. } => assert_eq!(expected, "web"),
        other => panic!("expected FilenameMismatch, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparseable_file_and_empty_dir_are_structured_errors() {
    let dir = temp_dir("parse");
    assert!(matches!(
        ServiceRegistry::load_path(&dir),
        Err(FleetError::EmptyDir { .. })
    ));
    let path = dir.join("web.json");
    fs::write(&path, "{ not json").expect("write");
    assert!(matches!(
        ServiceRegistry::load_path(&path),
        Err(FleetError::Parse { .. })
    ));
    assert!(matches!(
        ServiceRegistry::load_path(&dir.join("missing.json")),
        Err(FleetError::Io { .. })
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_error_renders_a_useful_message() {
    let msg = FleetError::BreakdownTotal {
        service: ServiceId::Web,
        field: "leaves",
        total: 98.0,
    }
    .to_string();
    assert!(
        msg.contains("Web") && msg.contains("leaves") && msg.contains("98"),
        "{msg}"
    );
    let msg = FleetError::NonMonotoneCdf {
        service: ServiceId::Pqc,
        field: "copy_granularity",
        index: 3,
    }
    .to_string();
    assert!(msg.contains("PQC") && msg.contains("knot 3"), "{msg}");
    // FleetError is a real std error (boxable, source-chainable).
    let boxed: Box<dyn std::error::Error> = Box::new(FleetError::UnsupportedSchema { found: 2 });
    assert!(boxed.to_string().contains("schema version 2"), "{boxed}");
}

#[test]
fn valid_spec_loads_and_replaces_only_that_service() {
    let dir = temp_dir("ok");
    let path = dir.join("pqc.json");
    fs::write(&path, ServiceRegistry::export_json(ServiceId::Pqc)).expect("write");
    let registry = ServiceRegistry::load_path(&path).expect("valid spec loads");
    assert_eq!(registry.loaded_services(), [ServiceId::Pqc]);
    let builtin = ServiceRegistry::builtin();
    assert_eq!(
        registry.profile(ServiceId::Pqc),
        builtin.profile(ServiceId::Pqc)
    );
    // The other ten services fall back to their builtin specs.
    assert_eq!(
        registry.profile(ServiceId::Web),
        builtin.profile(ServiceId::Web)
    );
    fs::remove_dir_all(&dir).ok();
}
