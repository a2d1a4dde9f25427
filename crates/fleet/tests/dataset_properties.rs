//! Property and consistency tests over the characterization datasets:
//! invariants that must hold for every service and every randomized view
//! of the data.

use accelerometer::units::bytes;
use accelerometer_fleet::{
    profile, Breakdown, FunctionalityCategory, LeafCategory, ServiceId, ServiceProfile,
    ServiceRegistry,
};
use proptest::prelude::*;

#[test]
fn every_profile_serde_round_trips() {
    for id in ServiceId::ALL {
        let p = profile(id);
        let json = serde_json::to_string(&p).expect("profiles serialize");
        let back: ServiceProfile = serde_json::from_str(&json).expect("profiles deserialize");
        assert_eq!(p, back, "{id}");
    }
}

#[test]
fn leaf_and_functionality_views_are_both_complete_accounts() {
    // The two breakdowns partition the same cycles two different ways;
    // each must account for 100% of them.
    for id in ServiceId::ALL {
        let p = profile(id);
        assert!((p.leaves.total_percent() - 100.0).abs() < 0.5, "{id} leaves");
        assert!(
            (p.functionality.total_percent() - 100.0).abs() < 0.5,
            "{id} functionality"
        );
        assert!((p.core_percent() + p.orchestration_percent() - 100.0).abs() < 1e-9);
    }
}

#[test]
fn rates_are_positive_and_consistent() {
    for id in ServiceId::ALL {
        let p = profile(id);
        assert!(p.rates.host_cycles_per_second > 1e9, "{id}");
        // A service with a compression functionality share must have a
        // compression rate, and vice versa (Cache3 has neither).
        let has_share = p.functionality.percent(FunctionalityCategory::Compression) > 0.0;
        let has_rate = p.rates.compressions_per_second > 0.0;
        assert_eq!(has_share, has_rate, "{id} compression share/rate mismatch");
    }
}

proptest! {
    /// Sampling any quantile of any service CDF yields a size inside the
    /// distribution's support, and the CDF at that size recovers the
    /// quantile.
    #[test]
    fn cdf_quantile_round_trip(
        service in prop::sample::select(ServiceId::ALL.to_vec()),
        p in 0.0..1.0_f64,
        which in 0usize..2,
    ) {
        let registry = ServiceRegistry::builtin();
        let spec = registry.spec(service);
        let dist = if which == 0 {
            &spec.copy_granularity
        } else {
            &spec.allocation_granularity
        };
        let g = dist.quantile(p);
        prop_assert!(g.get() >= 0.0);
        prop_assert!(g <= dist.max_bytes());
        let back = dist.fraction_at_or_below(g);
        prop_assert!(back >= p - 1e-9, "p={} back={}", p, back);
    }

    /// Scaling a breakdown by any positive factor preserves relative
    /// shares (the composition rule used to derive α values).
    #[test]
    fn breakdown_scaling_preserves_ratios(
        service in prop::sample::select(ServiceId::CHARACTERIZED.to_vec()),
        factor in 0.01..10.0_f64,
    ) {
        let b = profile(service).memory_ops;
        let scaled = b.scaled_by(factor);
        for (category, pct) in b.iter() {
            let scaled_pct = scaled.iter().find(|(c, _)| *c == category).unwrap().1;
            prop_assert!((scaled_pct - pct * factor).abs() < 1e-9);
        }
    }

    /// Randomly thinning a complete breakdown yields a valid partial one
    /// (the constructor invariants hold on arbitrary subsets).
    #[test]
    fn partial_breakdowns_from_subsets(
        service in prop::sample::select(ServiceId::CHARACTERIZED.to_vec()),
        keep_mask in 0u16..512,
    ) {
        let full = profile(service).leaves;
        let entries: Vec<(LeafCategory, f64)> = full
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << i) != 0)
            .map(|(_, e)| e)
            .collect();
        let partial = Breakdown::partial(entries.clone()).expect("subset is valid partial");
        prop_assert!(partial.total_percent() <= full.total_percent() + 1e-9);
        for (category, pct) in entries {
            prop_assert_eq!(partial.percent(category), pct);
        }
    }

    /// Every break-even threshold below a distribution's support selects
    /// a non-increasing lucrative fraction as it rises.
    #[test]
    fn lucrative_fraction_is_monotone(
        lo in 1.0..1_000.0_f64,
        hi_multiplier in 1.1..50.0_f64,
    ) {
        let dist = ServiceRegistry::builtin()
            .recommendation("Feed1: Compression")
            .expect("Feed1 recommendation")
            .profile
            .granularity;
        let hi = lo * hi_multiplier;
        let f_lo = dist.fraction_above(bytes(lo));
        let f_hi = dist.fraction_above(bytes(hi));
        prop_assert!(f_hi <= f_lo + 1e-12);
    }
}
