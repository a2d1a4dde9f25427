//! `accelctl characterize` streams its samples through one reused trace;
//! its text report and `--folded` export must equal the stored pipeline
//! (`analyze` and `to_folded` over `generate`) byte for byte, and its
//! Fig. 1 split never prints a negative zero.

use accelerometer_cli::run;
use accelerometer_fleet::{ServiceId, ServiceRegistry};
use accelerometer_profiler::{analyze, to_folded, TraceGenerator};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn streamed_output_matches_the_stored_pipeline() {
    let services = ServiceRegistry::builtin();
    for id in ServiceId::ALL {
        for seed in [7u64, 42] {
            for samples in [1usize, 2, 5_000] {
                let (seed_arg, samples_arg) = (seed.to_string(), samples.to_string());
                let argv = [
                    "characterize",
                    id.slug(),
                    "--samples",
                    &samples_arg,
                    "--seed",
                    &seed_arg,
                ];
                let label = argv.join(" ");
                let mut generator = TraceGenerator::for_service(&services, id, seed);
                let traces = generator.generate(samples);

                let text = run(&args(&argv)).expect("characterize runs");
                let expected = analyze(&traces, generator.registry()).render();
                assert_eq!(
                    text,
                    format!("characterization of {id}:\n{expected}"),
                    "{label}"
                );

                let mut folded_argv = argv.to_vec();
                folded_argv.push("--folded");
                let folded = run(&args(&folded_argv)).expect("characterize --folded runs");
                assert_eq!(folded, to_folded(&traces), "{label} --folded");
            }
        }
    }
}

/// One sample puts all cycles on one side of the Fig. 1 split; the other
/// side used to print as `-0.0%` (an empty `f64` sum for Web's core
/// share, and `100 - 100.00000000000001` for Feed1's orchestration).
#[test]
fn single_sample_split_prints_no_negative_zero() {
    for (argv, line) in [
        (
            ["characterize", "web", "--samples", "1"].as_slice(),
            "core 0.0% vs orchestration 100.0% (Fig. 1)",
        ),
        (
            ["characterize", "feed1", "--samples", "1", "--seed", "6"].as_slice(),
            "core 100.0% vs orchestration 0.0% (Fig. 1)",
        ),
    ] {
        let out = run(&args(argv)).expect("characterize runs");
        assert!(!out.contains("-0.0"), "{argv:?}:\n{out}");
        assert_eq!(out.lines().last(), Some(line), "{argv:?}");
    }
}
