//! `accelctl`: the Accelerometer artifact workflow (see crate docs).

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let output = match accelerometer_cli::run(&args) {
        Ok(output) => output,
        Err(message) => {
            eprintln!("accelctl: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = io::stdout().lock();
    match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`accelctl ... | head`) is not an error.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("accelctl: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}
