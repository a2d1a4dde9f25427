//! CPU platforms (Table 1): the three server generations the paper's IPC
//! scaling study spans.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A CPU generation in the paper's fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum CpuGeneration {
    /// GenA: Intel Haswell.
    GenA,
    /// GenB: Intel Broadwell.
    GenB,
    /// GenC: Intel Skylake (the generation the characterization ran on).
    GenC,
}

impl CpuGeneration {
    /// All generations, oldest first.
    pub const ALL: [CpuGeneration; 3] = [
        CpuGeneration::GenA,
        CpuGeneration::GenB,
        CpuGeneration::GenC,
    ];

    /// The microarchitecture name.
    #[must_use]
    pub fn microarchitecture(self) -> &'static str {
        match self {
            CpuGeneration::GenA => "Intel Haswell",
            CpuGeneration::GenB => "Intel Broadwell",
            CpuGeneration::GenC => "Intel Skylake",
        }
    }
}

impl fmt::Display for CpuGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CpuGeneration::GenA => "GenA",
            CpuGeneration::GenB => "GenB",
            CpuGeneration::GenC => "GenC",
        };
        f.write_str(name)
    }
}

/// A concrete platform configuration from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuPlatform {
    /// The generation.
    pub generation: CpuGeneration,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// SMT ways per core.
    pub smt: u32,
    /// Cache-block size in bytes.
    pub cache_block_bytes: u32,
    /// Per-core L1 instruction cache in KiB.
    pub l1i_kib: u32,
    /// Per-core L1 data cache in KiB.
    pub l1d_kib: u32,
    /// Per-core private L2 in KiB.
    pub l2_kib: u32,
    /// Shared last-level cache in KiB.
    pub llc_kib: u32,
}

/// Table 1, column GenA: 12-core Haswell.
pub const GEN_A: CpuPlatform = CpuPlatform {
    generation: CpuGeneration::GenA,
    cores_per_socket: 12,
    smt: 2,
    cache_block_bytes: 64,
    l1i_kib: 32,
    l1d_kib: 32,
    l2_kib: 256,
    llc_kib: 30 * 1024,
};

/// Table 1, column GenB: 16-core Broadwell.
pub const GEN_B: CpuPlatform = CpuPlatform {
    generation: CpuGeneration::GenB,
    cores_per_socket: 16,
    smt: 2,
    cache_block_bytes: 64,
    l1i_kib: 32,
    l1d_kib: 32,
    l2_kib: 256,
    llc_kib: 24 * 1024,
};

/// Table 1, GenC variant 1: the 18-core Skylake running Web, Feed1,
/// Feed2, and Ads1 (24.75 MiB LLC).
pub const GEN_C_18: CpuPlatform = CpuPlatform {
    generation: CpuGeneration::GenC,
    cores_per_socket: 18,
    smt: 2,
    cache_block_bytes: 64,
    l1i_kib: 32,
    l1d_kib: 32,
    l2_kib: 1024,
    llc_kib: 25_344, // 24.75 MiB
};

/// Table 1, GenC variant 2: the 20-core Skylake running Ads2, Cache1, and
/// Cache2 (27 MiB LLC).
pub const GEN_C_20: CpuPlatform = CpuPlatform {
    generation: CpuGeneration::GenC,
    cores_per_socket: 20,
    smt: 2,
    cache_block_bytes: 64,
    l1i_kib: 32,
    l1d_kib: 32,
    l2_kib: 1024,
    llc_kib: 27 * 1024,
};

/// All Table 1 platforms in presentation order.
pub const ALL_PLATFORMS: [CpuPlatform; 4] = [GEN_A, GEN_B, GEN_C_18, GEN_C_20];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_core_counts() {
        assert_eq!(GEN_A.cores_per_socket, 12);
        assert_eq!(GEN_B.cores_per_socket, 16);
        assert_eq!(GEN_C_18.cores_per_socket, 18);
        assert_eq!(GEN_C_20.cores_per_socket, 20);
    }

    #[test]
    fn table1_cache_hierarchy() {
        // Skylake grew the private L2 to 1 MiB.
        assert_eq!(GEN_A.l2_kib, 256);
        assert_eq!(GEN_B.l2_kib, 256);
        assert_eq!(GEN_C_18.l2_kib, 1024);
        // LLC sizes.
        assert_eq!(GEN_A.llc_kib, 30 * 1024);
        assert_eq!(GEN_B.llc_kib, 24 * 1024);
        assert_eq!(GEN_C_18.llc_kib as f64 / 1024.0, 24.75);
        assert_eq!(GEN_C_20.llc_kib, 27 * 1024);
    }

    #[test]
    fn every_platform_is_two_way_smt_with_64_byte_blocks() {
        for p in ALL_PLATFORMS {
            assert_eq!(p.smt, 2);
            assert_eq!(p.cache_block_bytes, 64);
        }
    }

    #[test]
    fn generation_metadata() {
        assert_eq!(CpuGeneration::GenA.microarchitecture(), "Intel Haswell");
        assert_eq!(CpuGeneration::GenC.to_string(), "GenC");
        assert!(CpuGeneration::GenA < CpuGeneration::GenC);
    }
}
