//! Reference workloads the paper compares against: Google's fleet
//! profile (Kanev et al., ISCA'15) and four SPEC CPU2006 benchmarks.
//!
//! Figs. 2, 3, and 5 include these rows. SPEC rows are dominated by math,
//! C libraries, and miscellaneous leaves (the paper omits the other SPEC
//! benchmarks for exactly this reason); Google's fleet-wide breakdown
//! mirrors the Facebook microservices.

use serde::{Deserialize, Serialize};

use crate::breakdown::Breakdown;
use crate::categories::{KernelOp, LeafCategory as L, MemoryOp};

/// A comparison workload from outside the Facebook fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ReferenceWorkload {
    /// Google's global server fleet (Kanev et al. \[63\]).
    Google,
    /// SPEC CPU2006 400.perlbench.
    Perlbench,
    /// SPEC CPU2006 403.gcc.
    Gcc,
    /// SPEC CPU2006 471.omnetpp.
    Omnetpp,
    /// SPEC CPU2006 473.astar.
    Astar,
}

impl ReferenceWorkload {
    /// All reference workloads in figure order.
    pub const ALL: [ReferenceWorkload; 5] = [
        ReferenceWorkload::Google,
        ReferenceWorkload::Perlbench,
        ReferenceWorkload::Gcc,
        ReferenceWorkload::Omnetpp,
        ReferenceWorkload::Astar,
    ];

    /// The display label used in the figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReferenceWorkload::Google => "Google [Kanev'15]",
            ReferenceWorkload::Perlbench => "400.perlbench",
            ReferenceWorkload::Gcc => "403.gcc",
            ReferenceWorkload::Omnetpp => "471.omnetpp",
            ReferenceWorkload::Astar => "473.astar",
        }
    }
}

fn bd<C: Copy + PartialEq>(entries: &[(C, f64)]) -> Breakdown<C> {
    Breakdown::complete(entries.to_vec()).expect("static breakdown data sums to 100")
}

/// Fig. 2 leaf breakdown for a reference workload.
///
/// The SPEC rows' memory shares follow Fig. 3's nets (perlbench 7%, gcc
/// 31%, omnetpp 11%, astar 3%) with the balance in math + C libraries +
/// miscellaneous; Google's row follows Kanev et al.'s "datacenter tax"
/// shape (≈13% memory, ≈19% kernel).
#[must_use]
pub fn leaf_breakdown(workload: ReferenceWorkload) -> Breakdown<L> {
    match workload {
        ReferenceWorkload::Google => bd(&[
            (L::Memory, 13.0),
            (L::Kernel, 19.0),
            (L::Hashing, 4.0),
            (L::Synchronization, 3.0),
            (L::Zstd, 4.0),
            (L::Math, 10.0),
            (L::Ssl, 3.0),
            (L::CLibraries, 25.0),
            (L::Miscellaneous, 19.0),
        ]),
        ReferenceWorkload::Perlbench => bd(&[
            (L::Memory, 7.0),
            (L::Math, 6.0),
            (L::CLibraries, 77.0),
            (L::Miscellaneous, 10.0),
        ]),
        ReferenceWorkload::Gcc => bd(&[
            (L::Memory, 31.0),
            (L::Math, 8.0),
            (L::CLibraries, 52.0),
            (L::Miscellaneous, 9.0),
        ]),
        ReferenceWorkload::Omnetpp => bd(&[
            (L::Memory, 11.0),
            (L::Kernel, 1.0),
            (L::Math, 15.0),
            (L::CLibraries, 60.0),
            (L::Miscellaneous, 13.0),
        ]),
        ReferenceWorkload::Astar => bd(&[
            (L::Memory, 3.0),
            (L::Math, 30.0),
            (L::CLibraries, 55.0),
            (L::Miscellaneous, 12.0),
        ]),
    }
}

/// Fig. 3 memory-op shares for a reference workload (share of its memory
/// cycles).
///
/// For Google only copy and allocation were reported (\[63\] gives ≈5% of
/// total fleet cycles to copies against a 13% memory net), so that row is
/// partial. gcc spends very few of its many memory cycles copying;
/// omnetpp has the largest allocation share of the SPEC suite (≈5% of
/// total cycles = 45% of its 11% memory net).
#[must_use]
pub fn memory_breakdown(workload: ReferenceWorkload) -> Breakdown<MemoryOp> {
    match workload {
        ReferenceWorkload::Google => {
            Breakdown::partial(vec![(MemoryOp::Copy, 38.0), (MemoryOp::Allocation, 62.0)])
                .expect("static partial breakdown is valid")
        }
        ReferenceWorkload::Perlbench => bd(&[
            (MemoryOp::Copy, 38.0),
            (MemoryOp::Free, 32.0),
            (MemoryOp::Allocation, 24.0),
            (MemoryOp::Set, 3.0),
            (MemoryOp::Compare, 3.0),
        ]),
        ReferenceWorkload::Gcc => bd(&[
            (MemoryOp::Copy, 9.0),
            (MemoryOp::Free, 56.0),
            (MemoryOp::Allocation, 14.0),
            (MemoryOp::Set, 12.0),
            (MemoryOp::Compare, 9.0),
        ]),
        ReferenceWorkload::Omnetpp => bd(&[
            (MemoryOp::Copy, 1.0),
            (MemoryOp::Free, 43.0),
            (MemoryOp::Allocation, 45.0),
            (MemoryOp::Set, 6.0),
            (MemoryOp::Compare, 5.0),
        ]),
        ReferenceWorkload::Astar => bd(&[
            (MemoryOp::Copy, 7.0),
            (MemoryOp::Free, 53.0),
            (MemoryOp::Allocation, 40.0),
        ]),
    }
}

/// Fig. 5 kernel-op shares for Google (only the scheduler share was
/// reported in \[63\]; the paper notes it "typically mirrors overheads seen
/// in Cache1 and Cache2"). SPEC benchmarks spend negligible kernel time
/// and return `None`.
#[must_use]
pub fn kernel_breakdown(workload: ReferenceWorkload) -> Option<Breakdown<KernelOp>> {
    match workload {
        ReferenceWorkload::Google => Some(
            Breakdown::partial(vec![(KernelOp::Scheduler, 35.0)])
                .expect("static partial breakdown is valid"),
        ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{profile, ServiceId};

    #[test]
    fn spec_rows_are_math_clib_misc_dominated() {
        // §2.3: SPEC functions "primarily belong to the math, C libraries,
        // and miscellaneous categories".
        for w in ReferenceWorkload::ALL {
            if w == ReferenceWorkload::Google {
                continue;
            }
            let b = leaf_breakdown(w);
            let tail = b.percent(L::Math) + b.percent(L::CLibraries) + b.percent(L::Miscellaneous);
            assert!(tail > 60.0, "{w:?} tail {tail}");
            // SPEC captures no SSL/ZSTD/hashing overheads.
            assert_eq!(b.percent(L::Ssl), 0.0);
            assert_eq!(b.percent(L::Zstd), 0.0);
            assert_eq!(b.percent(L::Hashing), 0.0);
        }
    }

    #[test]
    fn spec_misses_key_fb_overheads() {
        // §2.3: SPEC doesn't capture the memory and kernel overheads the
        // microservices face.
        let fb_kernel_max = ServiceId::CHARACTERIZED
            .iter()
            .map(|&id| profile(id).leaves.percent(L::Kernel))
            .fold(0.0, f64::max);
        for w in ReferenceWorkload::ALL
            .into_iter()
            .filter(|&w| w != ReferenceWorkload::Google)
        {
            assert!(leaf_breakdown(w).percent(L::Kernel) < fb_kernel_max / 4.0);
        }
    }

    #[test]
    fn google_mirrors_facebook() {
        // §2.3: "Google's breakdown across their global server fleet is
        // similar to Facebook's leaf breakdowns" — significant memory and
        // kernel cycles.
        let g = leaf_breakdown(ReferenceWorkload::Google);
        assert!(g.percent(L::Memory) >= 10.0);
        assert!(g.percent(L::Kernel) >= 15.0);
    }

    #[test]
    fn google_memory_row_is_partial_copy_plus_alloc() {
        let g = memory_breakdown(ReferenceWorkload::Google);
        assert!(!g.is_complete());
        // Copy ≈ 5% of total cycles over a 13% memory net ≈ 38% share.
        let copy_total = g.fraction(MemoryOp::Copy)
            * leaf_breakdown(ReferenceWorkload::Google).fraction(L::Memory);
        assert!(
            (copy_total - 0.05).abs() < 0.005,
            "google copy {copy_total}"
        );
        // "Google's services incur a slightly greater allocation overhead."
        assert!(g.percent(MemoryOp::Allocation) > g.percent(MemoryOp::Copy));
    }

    #[test]
    fn gcc_copies_little_despite_high_memory() {
        // §2.3.1: "Although 403.gcc exhibits a high memory overhead, it
        // spends very few cycles in copying memory."
        let gcc_leaves = leaf_breakdown(ReferenceWorkload::Gcc);
        assert!(gcc_leaves.percent(L::Memory) >= 30.0);
        assert!(memory_breakdown(ReferenceWorkload::Gcc).percent(MemoryOp::Copy) < 10.0);
    }

    #[test]
    fn omnetpp_allocates_most_of_spec() {
        // §2.3.1: "471.omnetpp spends the most cycles on allocation (~5%)".
        let total_alloc = |w: ReferenceWorkload| {
            memory_breakdown(w).fraction(MemoryOp::Allocation)
                * leaf_breakdown(w).fraction(L::Memory)
        };
        let omnetpp = total_alloc(ReferenceWorkload::Omnetpp);
        assert!((omnetpp - 0.05).abs() < 0.005, "omnetpp alloc {omnetpp}");
        for w in [
            ReferenceWorkload::Perlbench,
            ReferenceWorkload::Gcc,
            ReferenceWorkload::Astar,
        ] {
            assert!(total_alloc(w) < omnetpp, "{w:?}");
        }
    }

    #[test]
    fn google_kernel_reports_scheduler_only() {
        let g = kernel_breakdown(ReferenceWorkload::Google).unwrap();
        assert!(!g.is_complete());
        assert!(g.percent(KernelOp::Scheduler) > 0.0);
        assert_eq!(g.percent(KernelOp::Network), 0.0);
        assert!(kernel_breakdown(ReferenceWorkload::Gcc).is_none());
    }

    #[test]
    fn labels() {
        assert_eq!(ReferenceWorkload::Google.label(), "Google [Kanev'15]");
        assert_eq!(ReferenceWorkload::Astar.label(), "473.astar");
    }
}
