//! Benchmark self-tests. They drive real commands, so run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml` from the
//! repository root.

use std::sync::{Mutex, MutexGuard, PoisonError};

use super::*;

/// Commands share process-wide settings (`--shards` among them), so the
/// tests that issue them take this lock; it also moves the process to
/// the repository root, so relative config paths resolve.
fn at_repo_root() -> MutexGuard<'static, ()> {
    static COMMANDS: Mutex<()> = Mutex::new(());
    let guard = COMMANDS.lock().unwrap_or_else(PoisonError::into_inner);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::env::set_current_dir(root).expect("repository root exists");
    guard
}

#[test]
fn catalogs_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_owned(),
                    m["unit"].as_str().unwrap().to_owned(),
                )
            })
            .collect()
    };
    let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<&str> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn options_parse_the_benchmark_flags() {
    let args: Vec<String> = [
        "--workload",
        "table6-ab",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let opts = Options::parse(&args).unwrap();
    assert_eq!(opts.workload, Workload::Table6Ab);
    assert_eq!(opts.seed, Some(7));
    assert_eq!(opts.seconds, 3.0);
    assert!(opts.trace);
    assert!(Options::parse(&["--workload".to_owned(), "nope".to_owned()]).is_err());
    assert!(Options::parse(&[]).is_err());
}

#[test]
fn a_corrupted_output_is_counted_as_a_failure() {
    let _guard = at_repo_root();
    let setup = Setup::load(Workload::FaultSweep).unwrap();
    let commands = Workload::FaultSweep.commands(None);
    let golden = Ok(setup_golden(&setup));
    let mut ledger = Ledger::default();
    ledger.record(
        &commands[0].label,
        &check(&commands[0], &golden, None, &setup),
    );
    assert_eq!(
        (ledger.attempted, ledger.failed),
        (1, 0),
        "{:?}",
        ledger.failures
    );

    // One changed digit in a utilization: no longer the golden bytes, and
    // above 1, so the operation fails (and the run goes on).
    let corrupted =
        setup_golden(&setup).replacen("\"core_utilization\": 0.", "\"core_utilization\": 1.", 1);
    assert_ne!(corrupted, setup_golden(&setup));
    let problems = check(&commands[0], &Ok(corrupted), None, &setup);
    ledger.record(&commands[0].label, &problems);
    assert_eq!((ledger.attempted, ledger.failed), (2, 1));
    assert!(
        problems.iter().any(|p| p.contains("golden")),
        "{problems:?}"
    );
    assert!(
        problems.iter().any(|p| p.contains("core_utilization")),
        "{problems:?}"
    );

    // A differing repetition and an error count too.
    let reference = setup_golden(&setup);
    assert!(!check(&commands[0], &Ok("{}".to_owned()), Some(&reference), &setup).is_empty());
    assert!(!check(&commands[0], &Err("boom".to_owned()), None, &setup).is_empty());
}

fn setup_golden(setup: &Setup) -> String {
    setup.golden(workload::Golden::Faults).to_owned()
}

#[test]
fn table6_and_calibrate_checks_catch_out_of_bound_rows() {
    let _guard = at_repo_root();
    let setup = Setup::load(Workload::Table6Ab).unwrap();
    let row = |err: f64| {
        format!("  aes-ni      model  13.00%  simulated  12.00%  paper est  14.0% real  12.50%  (model-vs-sim {err:.2} pts)\n")
    };
    let table = |err: f64| {
        format!(
            "Table 6 validation (model vs simulated A/B vs paper):\n{}{}{}",
            row(1.0),
            row(2.0),
            row(err)
        )
    };
    let at_default = Check::Table6 { default_seed: true };
    let at_other = Check::Table6 {
        default_seed: false,
    };
    assert!(check::check_output(at_default, &table(3.5), &setup).is_empty());
    assert!(!check::check_output(at_default, &table(3.8), &setup).is_empty());
    // At other seeds the error is reported, not enforced; the row count is.
    assert!(check::check_output(at_other, &table(4.4), &setup).is_empty());
    let two_rows = format!("{}{}", row(1.0), row(2.0));
    assert!(!check::check_output(at_other, &two_rows, &setup).is_empty());
    assert_eq!(table6_paper_points(&table(1.0)), vec![0.5; 3]);

    let calibrate = "host ISA: detected x | active x\nkernel dispatched c/B scalar c/B factor\n\
        encryption 0.5 38.0 71.00x\ncompression 5.7 5.4 0.95x\nhashing 1.8 15.5 8.34x\ninference 17.0 34.7 2.04x\n";
    assert!(check::check_output(Check::Calibrate, calibrate, &setup).is_empty());
    let broken = calibrate.replace("2.04x", "NaNx");
    assert!(!check::check_output(Check::Calibrate, &broken, &setup).is_empty());
    assert!(check::kernel_equivalence_problems().is_empty());
}

#[test]
fn a_round_gives_the_same_bytes_in_either_command_order() {
    let _guard = at_repo_root();
    let commands = Workload::FaultSweep.commands(None);
    let forward = run_round(&commands).outputs;
    let reversed: Vec<Command> = commands.iter().rev().cloned().collect();
    let mut backward = run_round(&reversed).outputs;
    backward.reverse();
    assert_eq!(forward, backward);

    // With the globals reset, the plain run after a sharded one still
    // matches its golden fixture.
    let setup = Setup::load(Workload::FaultSweep).unwrap();
    assert_eq!(
        backward[0].as_deref(),
        Ok(setup.golden(workload::Golden::Faults))
    );
    assert_eq!(
        backward[1].as_deref(),
        Ok(setup.golden(workload::Golden::FaultsSharded))
    );
}

#[test]
fn traced_fault_sweep_reproduces_the_untraced_bytes() {
    let _guard = at_repo_root();
    let commands = Workload::FaultSweep.commands(None);
    let outputs = run_round(&commands).outputs;
    let reference = Reference::new(&outputs);
    let (tracer, problems) = traced_round(Workload::FaultSweep, None, &reference);
    assert_eq!(problems.len(), commands.len());
    assert!(problems.iter().all(Vec::is_empty), "{problems:?}");
    let self_times = tracer.self_times();
    for layer in [
        "cli.config",
        "sim.faultsweep",
        "sim.trace",
        "sim.engine",
        "sim.shard",
        "render.json",
    ] {
        assert!(self_times.contains_key(layer), "{layer} missing");
    }
    assert!(tracer.counters["sim.faultsweep.fallbacks"] >= 2000.0);
    // Self times partition the traced total.
    let sum: f64 = self_times.values().sum();
    assert!((sum - tracer.traced_total()).abs() < 1e-6 * tracer.traced_total().max(1.0));
}

#[test]
fn tail_and_median_describe_rounds() {
    let rounds: Vec<f64> = (0..30).map(f64::from).collect();
    assert_eq!(median(&rounds), 14.5);
    assert_eq!(tail(&rounds, TAIL_BEYOND).0, 66);
}
