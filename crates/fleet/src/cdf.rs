//! Offload-granularity CDF datasets (Figs. 15, 19, 21, 22).
//!
//! The paper measures these with `bpftrace` on production hosts; here
//! they are reconstructed piecewise-linear CDFs, calibrated against every
//! quantitative statement the paper makes about them (see
//! `configs/README.md`). All but one ride in the service specs: the
//! Fig. 21/22 CDFs per service, the Fig. 15 encryption CDF in the
//! `aes-ni` case study, and the Fig. 19 Feed1 compression CDF in the
//! Feed1 recommendation. Only Fig. 19's Cache1 compression CDF, which no
//! study or recommendation uses, is defined here.

use accelerometer::GranularityCdf;

use crate::registry::current_registry;
use crate::services::ServiceId;

/// Fig. 19: CDF of bytes compressed in Cache1, which compresses much
/// smaller granularities than Feed1 (hence §5 studies Feed1).
#[must_use]
pub fn cache1_compression() -> GranularityCdf {
    GranularityCdf::from_points(vec![
        (1.0, 0.05),
        (64.0, 0.30),
        (128.0, 0.50),
        (256.0, 0.68),
        (512.0, 0.82),
        (1_024.0, 0.90),
        (2_048.0, 0.95),
        (4_096.0, 0.98),
        (8_192.0, 0.99),
        (16_384.0, 1.0),
    ])
    .expect("static CDF data is valid")
}

/// Fig. 21: CDF of memory-copy sizes for one service, from
/// [`crate::registry::current_registry`]. Most services copy small
/// granularities (< 512 B, smaller than a 4 KiB page); a few percent of
/// copies are zero-length (the `0` bucket in the figure).
#[must_use]
pub fn memory_copy(service: ServiceId) -> GranularityCdf {
    current_registry().spec(service).copy_granularity.clone()
}

/// Fig. 22: CDF of memory-allocation sizes for one service, from
/// [`crate::registry::current_registry`]; most allocations are small
/// (typically < 512 B).
#[must_use]
pub fn memory_allocation(service: ServiceId) -> GranularityCdf {
    current_registry()
        .spec(service)
        .allocation_granularity
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{case_study, recommendation};
    use accelerometer::units::bytes;

    fn cache1_encryption() -> GranularityCdf {
        case_study("aes-ni")
            .and_then(|s| s.granularity)
            .expect("aes-ni carries Fig. 15")
    }

    fn feed1_compression() -> GranularityCdf {
        recommendation("Feed1: Compression")
            .expect("Feed1 recommendation")
            .profile
            .granularity
    }

    #[test]
    fn cache1_encryption_matches_prose() {
        let c = cache1_encryption();
        // "Cache1's encryption size is ∼≥ 4 B".
        assert!(c.fraction_at_or_below(bytes(3.9)) < 0.02);
        // "<512B are frequently encrypted".
        assert!(c.fraction_at_or_below(bytes(512.0)) >= 0.85);
    }

    #[test]
    fn feed1_compression_calibration_points() {
        let c = feed1_compression();
        // 64.2% of compressions are ≥ 425 B (off-chip Sync, n = 9,629).
        assert!((c.fraction_above(bytes(425.1)) - 0.642).abs() < 0.005);
        // Async break-even ≈ 409 B → n = 9,769 of 15,008.
        assert!((c.fraction_above(bytes(409.25)) * 15_008.0 - 9_769.0).abs() < 60.0);
        // Sync-OS break-even ≈ 2,456 B → n = 3,986 of 15,008.
        assert!((c.fraction_above(bytes(2_455.5)) * 15_008.0 - 3_986.0).abs() < 60.0);
    }

    #[test]
    fn feed1_compresses_larger_than_cache1() {
        // §5: "Feed1 compresses larger granularities than Cache1".
        let feed1 = feed1_compression();
        let cache1 = cache1_compression();
        for g in [128.0, 256.0, 512.0, 1_024.0, 4_096.0] {
            assert!(
                feed1.fraction_at_or_below(bytes(g)) < cache1.fraction_at_or_below(bytes(g)),
                "at {g} B"
            );
        }
        assert!(feed1.mean_bytes() > cache1.mean_bytes());
    }

    #[test]
    fn copies_are_mostly_small() {
        // Fig. 21: "most microservices frequently copy small
        // granularities" — over half of copies are < 512 B everywhere.
        for svc in ServiceId::ALL {
            let c = memory_copy(svc);
            assert!(
                c.fraction_at_or_below(bytes(512.0)) > 0.5,
                "{svc:?} copies too large"
            );
        }
    }

    #[test]
    fn allocations_are_mostly_small() {
        for svc in ServiceId::ALL {
            let c = memory_allocation(svc);
            assert!(
                c.fraction_at_or_below(bytes(512.0)) > 0.8,
                "{svc:?} allocations too large"
            );
        }
    }

    #[test]
    fn ads1_copies_have_no_zero_bucket() {
        let c = memory_copy(ServiceId::Ads1);
        assert_eq!(c.fraction_at_or_below(bytes(0.0)), 0.0);
    }

    #[test]
    fn all_cdfs_reach_one() {
        for svc in ServiceId::ALL {
            assert_eq!(memory_copy(svc).fraction_at_or_below(bytes(1e9)), 1.0);
            assert_eq!(memory_allocation(svc).fraction_at_or_below(bytes(1e9)), 1.0);
        }
        assert_eq!(cache1_encryption().fraction_at_or_below(bytes(1e9)), 1.0);
        assert_eq!(feed1_compression().fraction_at_or_below(bytes(1e9)), 1.0);
        assert_eq!(cache1_compression().fraction_at_or_below(bytes(1e9)), 1.0);
    }
}
