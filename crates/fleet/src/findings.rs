//! Table 4: the characterization's findings and the acceleration
//! opportunities they suggest, in machine-readable form.

use serde::{Deserialize, Serialize};

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Short identifier for cross-referencing.
    pub id: &'static str,
    /// The observation (left column of Table 4).
    pub finding: &'static str,
    /// The paper section(s) that establish it.
    pub sections: &'static str,
    /// The suggested acceleration opportunity (right column).
    pub opportunity: &'static str,
}

/// All ten Table 4 rows, in paper order.
pub const FINDINGS: [Finding; 10] = [
    Finding {
        id: "orchestration",
        finding: "Significant orchestration overheads",
        sections: "§2.4",
        opportunity:
            "Software and hardware acceleration for orchestration rather than just app. logic",
    },
    Finding {
        id: "common-overheads",
        finding: "Several common orchestration overheads",
        sections: "§2.4",
        opportunity:
            "Accelerating common overheads (e.g., compression) can provide fleet-wide wins",
    },
    Finding {
        id: "ipc-scaling",
        finding: "Poor IPC scaling for several functions",
        sections: "§2.3.5, §2.4.1",
        opportunity: "Optimizations for specific leaf/service categories",
    },
    Finding {
        id: "memory-copy-alloc",
        finding: "Memory copies & allocations are significant",
        sections: "§2.3, §2.3.1",
        opportunity:
            "Dense copies via SIMD, copying in DRAM, Intel's I/O AT, DMA via accelerators, PIM",
    },
    Finding {
        id: "memory-free",
        finding: "Memory frees are computationally expensive",
        sections: "§2.3, §2.3.1",
        opportunity: "Faster software libraries, hardware support to remove pages",
    },
    Finding {
        id: "kernel",
        finding: "High kernel overhead and low IPC",
        sections: "§2.3, §2.3.5",
        opportunity: "Coalesce I/O, user-space drivers, in-line accelerators, kernel-bypass",
    },
    Finding {
        id: "logging",
        finding: "Logging overheads can dominate",
        sections: "§2.4",
        opportunity: "Optimizations to reduce log size or number of updates",
    },
    Finding {
        id: "compression",
        finding: "High compression overhead",
        sections: "§2.3, §2.4",
        opportunity:
            "Bit-Plane Compression, Buddy compression, dedicated compression hardware",
    },
    Finding {
        id: "cache-sync",
        finding: "Cache synchronizes frequently",
        sections: "§2.3, §2.3.3",
        opportunity:
            "Better thread pool tuning and scheduling, Intel's TSX, coalesce I/O, vDSO",
    },
    Finding {
        id: "event-notification",
        finding: "High event notification overhead",
        sections: "§2.3.2",
        opportunity: "RDMA-style notification, hardware support for notifications, spin vs. block hybrids",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_ten_rows() {
        assert_eq!(FINDINGS.len(), 10);
    }

    #[test]
    fn ids_are_unique() {
        for (i, f) in FINDINGS.iter().enumerate() {
            assert!(
                FINDINGS[..i].iter().all(|g| g.id != f.id),
                "duplicate id {}",
                f.id
            );
        }
    }

    #[test]
    fn the_three_applied_overheads_are_findings() {
        // §5 applies the model to compression, memory copy, and memory
        // allocation — all of which must appear in Table 4.
        for id in ["compression", "memory-copy-alloc"] {
            assert!(FINDINGS.iter().any(|f| f.id == id), "{id}");
        }
    }

    #[test]
    fn every_row_cites_a_section() {
        for f in FINDINGS {
            assert!(f.sections.starts_with('§'), "{}", f.id);
            assert!(!f.finding.is_empty());
            assert!(!f.opportunity.is_empty());
        }
    }
}
