//! Checks on the committed service-profile data files: the
//! `configs/services/` directory holds exactly one `<slug>.json` per
//! service, and loading it from disk yields a full registry.

use std::fs;
use std::path::PathBuf;

use accelerometer_fleet::{ServiceId, ServiceRegistry};

fn services_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../configs/services")
}

#[test]
fn shipped_directory_holds_exactly_the_known_services() {
    let mut stems: Vec<String> = fs::read_dir(services_dir())
        .expect("configs/services exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .collect();
    stems.sort();
    let mut expected: Vec<String> = ServiceId::ALL
        .iter()
        .map(|id| id.slug().to_owned())
        .collect();
    expected.sort();
    assert_eq!(stems, expected);
}

#[test]
fn shipped_directory_loads_and_validates_as_a_full_registry() {
    let registry = ServiceRegistry::load_path(&services_dir()).expect("shipped configs load");
    assert_eq!(registry.loaded_services().len(), ServiceId::ALL.len());
}
