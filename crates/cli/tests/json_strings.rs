//! The vendored JSON parser's string scanner: long strings parse in
//! linear time, and non-ASCII text and every escape survive a round
//! trip unchanged. Lives here because the vendored crates' own tests
//! are not part of the workspace suite.

use accelerometer::config::ConfigFile;

#[test]
fn a_four_megabyte_string_parses() {
    let long = "x".repeat(4 << 20);
    let parsed: String = serde_json::from_str(&format!("\"{long}\"")).expect("parses");
    assert_eq!(parsed, long);
    // The same through a params file's scenario name, the loader a
    // long name reaches first.
    let text = format!(
        r#"{{"scenarios": [{{"name": "{long}", "c": 2.0e9, "alpha": 0.1, "n": 10,
        "o0": 1, "l": 1, "q": 0, "o1": 0, "a": 2,
        "design": "sync", "strategy": "on-chip"}}]}}"#
    );
    let cfg = ConfigFile::from_json(&text).expect("long name parses");
    assert_eq!(cfg.scenarios[0].name.len(), long.len());
}

#[test]
fn non_ascii_text_and_every_escape_round_trip() {
    let text = "é漢😀 plain \" \\ / \n \t \r \u{8} \u{c} \u{1} tail é漢😀";
    let json = serde_json::to_string(&text).expect("serializes");
    let back: String = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, text);

    let escaped = r#""\"\\\/\b\f\n\r\t\u00e9\u6F22é漢😀""#;
    let parsed: String = serde_json::from_str(escaped).expect("parses");
    assert_eq!(parsed, "\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{6f22}é漢😀");
}

#[test]
fn malformed_strings_are_errors() {
    for bad in [
        r#""unterminated"#,
        r#""bad \q escape""#,
        r#""\u12""#,
        r#""é\"#,
    ] {
        assert!(serde_json::from_str::<String>(bad).is_err(), "{bad}");
    }
}
