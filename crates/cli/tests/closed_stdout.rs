//! `accelctl` stops quietly when the reader of its output goes away
//! (`accelctl tables all | head -1`): a closed stdout is a clean exit,
//! not a panic.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_accelctl"))
        .args(["tables", "all"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("accelctl starts");
    // Close the read end before accelctl writes a byte.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr is readable");
    let status = child.wait().expect("accelctl exits");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(status.success(), "{status}: {stderr}");
}
