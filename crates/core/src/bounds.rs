//! Performance-bound diagnostics: *which* overhead limits a design.
//!
//! The model's purpose is "to identify performance bounds early in the
//! hardware design phase" (§1). A single speedup number says a design
//! under-delivers; this module says *why*, by decomposing the accelerated
//! host-cycle budget `CS` into its constituent terms (eqns 1/3/6) and
//! ranking them. Architects read the dominant term as the thing to fix:
//! a `Transfer`-bound design wants a faster interface or pipelining, a
//! `ThreadSwitch`-bound one wants a different threading design, an
//! `AcceleratorTime`-bound one wants a bigger `A` or asynchrony.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::model::{transfer_reaches_throughput_path, Scenario};

/// One component of the accelerated cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum BoundTerm {
    /// `(1−α)C`: the non-kernel logic the accelerator cannot touch — the
    /// Amdahl bound.
    NonKernel,
    /// `αC/A` on the host's critical path (Sync only).
    AcceleratorTime,
    /// `n·o0`: kernel setup.
    Setup,
    /// `n·(L+Q)` on the host path: interface transfer plus queueing.
    Transfer,
    /// `n·k·o1`: thread switching.
    ThreadSwitch,
}

impl BoundTerm {
    /// What a designer does about this bound (Table 4-style guidance).
    #[must_use]
    pub fn remedy(self) -> &'static str {
        match self {
            BoundTerm::NonKernel => {
                "accelerate additional functionalities; this kernel is already near its Amdahl limit"
            }
            BoundTerm::AcceleratorTime => {
                "raise the accelerator's peak speedup A, or overlap with an asynchronous design"
            }
            BoundTerm::Setup => "batch offloads or shrink per-offload setup (o0)",
            BoundTerm::Transfer => {
                "faster/pipelined interface, kernel-bypass, or a posted driver (L, Q)"
            }
            BoundTerm::ThreadSwitch => {
                "same-thread asynchronous offload, or spin-wait hybrids to avoid o1"
            }
        }
    }
}

impl fmt::Display for BoundTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BoundTerm::NonKernel => "non-kernel logic",
            BoundTerm::AcceleratorTime => "accelerator time on host path",
            BoundTerm::Setup => "offload setup (o0)",
            BoundTerm::Transfer => "interface transfer + queueing (L+Q)",
            BoundTerm::ThreadSwitch => "thread switches (o1)",
        };
        f.write_str(name)
    }
}

/// The decomposition of the accelerated host-cycle budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundReport {
    /// `(term, fraction of C)` for each non-zero term, largest first
    /// excluding `NonKernel` (which is reported separately since it is
    /// almost always the largest and is not an *overhead*).
    pub overhead_terms: Vec<(BoundTerm, f64)>,
    /// `(1−α)`: the non-kernel fraction.
    pub non_kernel_fraction: f64,
    /// The achieved speedup.
    pub speedup: f64,
    /// The speedup if every offload overhead were zero (the design's own
    /// Amdahl/ideal ceiling, keeping the accelerator-time term for Sync).
    pub zero_overhead_speedup: f64,
}

impl BoundReport {
    /// Fraction of the possible gain lost to offload overheads:
    /// `(S₀ − S) / (S₀ − 1)` where `S₀` is the zero-overhead speedup.
    #[must_use]
    pub fn overhead_penalty(&self) -> f64 {
        let ceiling = self.zero_overhead_speedup - 1.0;
        if ceiling <= 0.0 {
            return 0.0;
        }
        ((self.zero_overhead_speedup - self.speedup) / ceiling).max(0.0)
    }

    /// Renders the report as text.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "speedup {:.4}x (zero-overhead ceiling {:.4}x, {:.1}% of the gain lost to overheads)",
            self.speedup,
            self.zero_overhead_speedup,
            self.overhead_penalty() * 100.0
        );
        let _ = writeln!(
            out,
            "  non-kernel logic: {:.2}% of C (Amdahl bound)",
            self.non_kernel_fraction * 100.0
        );
        for (term, fraction) in &self.overhead_terms {
            let _ = writeln!(
                out,
                "  {term}: {:.3}% of C -> {}",
                fraction * 100.0,
                term.remedy()
            );
        }
        out
    }
}

/// Decomposes a scenario's accelerated cycle budget into its bounding
/// terms.
#[must_use]
pub fn diagnose(scenario: &Scenario) -> BoundReport {
    let p = &scenario.params;
    let c = p.host_cycles().get();
    let n = p.offloads();
    let alpha = p.kernel_fraction();
    let ovh = p.overheads();
    let design = scenario.design;

    let accel_term = if design.accelerator_time_on_throughput_path() {
        alpha / p.peak_speedup()
    } else {
        0.0
    };
    let setup = n * ovh.setup.get() / c;
    let transfer_per_offload =
        if transfer_reaches_throughput_path(design, scenario.strategy, scenario.driver) {
            ovh.interface.get() + ovh.queueing.get()
        } else {
            0.0
        };
    let transfer = n * transfer_per_offload / c;
    let switches = n * ovh.thread_switch.get() * design.thread_switches_on_throughput_path() / c;

    let mut overhead_terms: Vec<(BoundTerm, f64)> = [
        (BoundTerm::AcceleratorTime, accel_term),
        (BoundTerm::Setup, setup),
        (BoundTerm::Transfer, transfer),
        (BoundTerm::ThreadSwitch, switches),
    ]
    .into_iter()
    .filter(|(_, f)| *f > 0.0)
    .collect();
    overhead_terms.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("fractions are finite"));

    let denominator = (1.0 - alpha) + accel_term + setup + transfer + switches;
    // Zero-overhead ceiling keeps only non-kernel + accelerator time.
    let ceiling_denominator = (1.0 - alpha) + accel_term;

    BoundReport {
        overhead_terms,
        non_kernel_fraction: 1.0 - alpha,
        speedup: 1.0 / denominator,
        zero_overhead_speedup: 1.0 / ceiling_denominator,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use crate::strategy::AccelerationStrategy;
    use crate::threading::ThreadingDesign;

    /// The largest overhead term, if any overhead exists.
    fn dominant_overhead(report: &BoundReport) -> Option<BoundTerm> {
        report.overhead_terms.first().map(|(t, _)| *t)
    }

    fn scenario(
        o0: f64,
        l: f64,
        o1: f64,
        a: f64,
        design: ThreadingDesign,
        strategy: AccelerationStrategy,
    ) -> Scenario {
        let params = ModelParams::builder()
            .host_cycles(1e9)
            .kernel_fraction(0.2)
            .offloads(10_000.0)
            .setup_cycles(o0)
            .interface_cycles(l)
            .thread_switch_cycles(o1)
            .peak_speedup(a)
            .build()
            .unwrap();
        Scenario::new(params, design, strategy)
    }

    #[test]
    fn diagnosis_matches_estimate() {
        for design in ThreadingDesign::ALL {
            for strategy in AccelerationStrategy::ALL {
                let s = scenario(100.0, 2_000.0, 5_000.0, 8.0, design, strategy);
                let report = diagnose(&s);
                let est = s.estimate();
                assert!(
                    (report.speedup - est.throughput_speedup).abs() < 1e-12,
                    "{design:?}/{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn transfer_bound_design_is_identified() {
        // Huge L, everything else small: Transfer dominates.
        let s = scenario(
            10.0,
            50_000.0,
            0.0,
            100.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OffChip,
        );
        let report = diagnose(&s);
        assert_eq!(dominant_overhead(&report), Some(BoundTerm::Transfer));
        assert!(report.overhead_penalty() > 0.5);
        assert!(report.render().contains("pipelined"));
    }

    #[test]
    fn switch_bound_sync_os_is_identified() {
        let s = scenario(
            0.0,
            100.0,
            20_000.0,
            100.0,
            ThreadingDesign::SyncOs,
            AccelerationStrategy::OffChip,
        );
        let report = diagnose(&s);
        assert_eq!(dominant_overhead(&report), Some(BoundTerm::ThreadSwitch));
        assert!(report.render().contains("same-thread"));
    }

    #[test]
    fn sync_low_a_is_accelerator_time_bound() {
        let s = scenario(
            0.0,
            10.0,
            0.0,
            1.5,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
        );
        let report = diagnose(&s);
        assert_eq!(dominant_overhead(&report), Some(BoundTerm::AcceleratorTime));
        // The ceiling for Sync keeps αC/A: it is the Amdahl speedup.
        let amdahl = crate::amdahl::speedup(0.2, 1.5);
        assert!((report.zero_overhead_speedup - amdahl).abs() < 1e-12);
    }

    #[test]
    fn async_design_has_no_accelerator_term() {
        let s = scenario(
            50.0,
            1_000.0,
            0.0,
            2.0,
            ThreadingDesign::AsyncSameThread,
            AccelerationStrategy::OffChip,
        );
        let report = diagnose(&s);
        assert!(report
            .overhead_terms
            .iter()
            .all(|(t, _)| *t != BoundTerm::AcceleratorTime));
        // Ceiling is the ideal 1/(1-α).
        assert!((report.zero_overhead_speedup - 1.25).abs() < 1e-12);
    }

    #[test]
    fn remote_async_hides_transfer() {
        let s = scenario(
            50.0,
            1e6,
            0.0,
            2.0,
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::Remote,
        );
        let report = diagnose(&s);
        assert!(report
            .overhead_terms
            .iter()
            .all(|(t, _)| *t != BoundTerm::Transfer));
        assert_eq!(dominant_overhead(&report), Some(BoundTerm::Setup));
    }

    #[test]
    fn zero_overhead_design_has_no_penalty() {
        let s = scenario(
            0.0,
            0.0,
            0.0,
            8.0,
            ThreadingDesign::Sync,
            AccelerationStrategy::OnChip,
        );
        let report = diagnose(&s);
        assert_eq!(report.overhead_penalty(), 0.0);
        assert!(dominant_overhead(&report).is_some()); // αC/A remains
        let s2 = scenario(
            0.0,
            0.0,
            0.0,
            8.0,
            ThreadingDesign::AsyncSameThread,
            AccelerationStrategy::OnChip,
        );
        assert!(dominant_overhead(&diagnose(&s2)).is_none());
    }

    #[test]
    fn terms_have_distinct_remedies_and_names() {
        use std::collections::HashSet;
        let all = [
            BoundTerm::NonKernel,
            BoundTerm::AcceleratorTime,
            BoundTerm::Setup,
            BoundTerm::Transfer,
            BoundTerm::ThreadSwitch,
        ];
        let remedies: HashSet<&str> = all.iter().map(|t| t.remedy()).collect();
        assert_eq!(remedies.len(), all.len());
        let names: HashSet<String> = all.iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn aes_ni_case_study_is_accelerator_time_bound() {
        // The paper's AES-NI design loses most of its residual gain to
        // αC/A (A = 6 on the critical path), not to offload overheads.
        let params = ModelParams::builder()
            .host_cycles(2.0e9)
            .kernel_fraction(0.165844)
            .offloads(298_951.0)
            .setup_cycles(10.0)
            .interface_cycles(3.0)
            .peak_speedup(6.0)
            .build()
            .unwrap();
        let s = Scenario::new(params, ThreadingDesign::Sync, AccelerationStrategy::OnChip);
        let report = diagnose(&s);
        assert_eq!(dominant_overhead(&report), Some(BoundTerm::AcceleratorTime));
        assert!(report.overhead_penalty() < 0.1);
    }
}
