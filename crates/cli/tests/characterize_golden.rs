//! Golden-output test for `accelctl characterize --folded`: the
//! collapsed-stack export is the one characterize surface that prints
//! every sampled frame name, so the fixture pins the generator's root,
//! intermediate and leaf frames byte-for-byte alongside the cycle
//! weights.
//!
//! To regenerate after an intentional output change:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p accelerometer-cli --test characterize_golden
//! ```

use std::fs;
use std::path::PathBuf;

use accelerometer_cli::run;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn folded_characterization_matches_golden_fixture() {
    let out = run(&args(&[
        "characterize",
        "cache1",
        "--samples",
        "5000",
        "--folded",
    ]))
    .expect("characterize --folded runs");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden_characterize_cache1_folded.txt");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::write(&path, &out).expect("write folded fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); run with GOLDEN_BLESS=1"));
    assert_eq!(
        expected, out,
        "folded characterization drifted; if intentional, regenerate with GOLDEN_BLESS=1"
    );
}
