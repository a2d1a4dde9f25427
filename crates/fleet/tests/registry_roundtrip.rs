//! Round-trip properties for the data-driven service schema: any valid
//! `ServiceProfile` survives JSON serialization structurally intact
//! (breakdown shares, CDF knot order, rates, platform — bit-for-bit,
//! thanks to shortest-round-trip float printing), and the registry's
//! exported builtin files reload into specs identical to the embedded
//! builtin registry.

use std::fs;

use accelerometer::GranularityCdf;
use accelerometer_fleet::services::ServiceRates;
use accelerometer_fleet::ALL_PLATFORMS;
use accelerometer_fleet::{
    Breakdown, CLibOp, CopyOrigin, FunctionalityCategory, KernelOp, LeafCategory, MemoryOp,
    ServiceId, ServiceProfile, ServiceRegistry, ServiceSpec, SyncPrimitive,
};
use proptest::prelude::*;

/// A complete breakdown over all of `C`'s categories with arbitrary
/// positive shares, normalized to sum to (floating-point) 100%.
fn arb_breakdown<C: Copy + PartialEq + std::fmt::Debug + 'static>(
    categories: &'static [C],
) -> impl Strategy<Value = Breakdown<C>> {
    let n = categories.len();
    prop::collection::vec(0.5..100.0_f64, n..n + 1).prop_map(move |weights| {
        let total: f64 = weights.iter().sum();
        let entries: Vec<(C, f64)> = categories
            .iter()
            .zip(&weights)
            .map(|(&c, w)| (c, w * 100.0 / total))
            .collect();
        Breakdown::complete(entries).expect("normalized shares are a valid breakdown")
    })
}

/// A valid granularity CDF: strictly increasing byte bounds, strictly
/// increasing cumulative fractions ending at exactly 1.0.
fn arb_cdf() -> impl Strategy<Value = GranularityCdf> {
    prop::collection::vec((1.0..5000.0_f64, 0.05..1.0_f64), 1usize..8).prop_map(|steps| {
        let mut bound = 0.0;
        let mut cumulative = Vec::with_capacity(steps.len());
        let mut running = 0.0;
        let mut bounds = Vec::with_capacity(steps.len());
        for (gap, weight) in steps {
            bound += gap;
            running += weight;
            bounds.push(bound);
            cumulative.push(running);
        }
        let total = running;
        let points: Vec<(f64, f64)> = bounds
            .into_iter()
            .zip(cumulative)
            .map(|(b, c)| (b, c / total))
            .collect();
        GranularityCdf::from_points(points).expect("normalized knots are a valid CDF")
    })
}

fn arb_profile() -> impl Strategy<Value = ServiceProfile> {
    (
        prop::sample::select(ServiceId::ALL.to_vec()),
        arb_breakdown(FunctionalityCategory::ALL),
        arb_breakdown(LeafCategory::ALL),
        arb_breakdown(MemoryOp::ALL),
        arb_breakdown(CopyOrigin::ALL),
        (
            arb_breakdown(KernelOp::ALL),
            arb_breakdown(SyncPrimitive::ALL),
            arb_breakdown(CLibOp::ALL),
        ),
        (
            1.0e9..4.0e9_f64,
            0.0..1.0e6_f64,
            0.0..1.0e6_f64,
            0.0..1.0e6_f64,
            0.0..1.0e6_f64,
        ),
        0usize..ALL_PLATFORMS.len(),
    )
        .prop_map(
            |(
                id,
                functionality,
                leaves,
                memory_ops,
                copy_origins,
                (kernel_ops, sync_ops, clib_ops),
                (
                    host_cycles_per_second,
                    compressions_per_second,
                    copies_per_second,
                    allocations_per_second,
                    encryptions_per_second,
                ),
                platform_index,
            )| ServiceProfile {
                id,
                functionality,
                leaves,
                memory_ops,
                copy_origins,
                kernel_ops,
                sync_ops,
                clib_ops,
                rates: ServiceRates {
                    host_cycles_per_second,
                    compressions_per_second,
                    copies_per_second,
                    allocations_per_second,
                    encryptions_per_second,
                },
                platform: ALL_PLATFORMS[platform_index],
            },
        )
}

proptest! {
    /// Any valid profile -> JSON -> parse is structurally identical:
    /// same breakdown entries in the same order with the same
    /// (normalized, non-round) shares, same CDF knots, same rates.
    #[test]
    fn arbitrary_profile_round_trips_through_json(profile in arb_profile()) {
        let json = serde_json::to_string(&profile).expect("profiles serialize");
        let back: ServiceProfile = serde_json::from_str(&json).expect("profiles parse");
        prop_assert_eq!(&back, &profile);
        // Pretty-printing (the configs/services/ file format) is not a
        // different dialect.
        let pretty = serde_json::to_string_pretty(&profile).expect("profiles serialize");
        let back: ServiceProfile = serde_json::from_str(&pretty).expect("profiles parse");
        prop_assert_eq!(back, profile);
    }

    /// CDF knot order and exact knot values survive the trip inside a
    /// full spec (the granularity fields ride next to the profile).
    #[test]
    fn arbitrary_cdf_round_trips_through_json(cdf in arb_cdf()) {
        let json = serde_json::to_string(&cdf).expect("CDFs serialize");
        let back: GranularityCdf = serde_json::from_str(&json).expect("CDFs parse");
        prop_assert_eq!(back.points(), cdf.points());
    }
}

#[test]
fn every_builtin_spec_exports_and_reloads_identically() {
    let builtin = ServiceRegistry::builtin();
    for id in ServiceId::ALL {
        let json = ServiceRegistry::export_json(id);
        let back: ServiceSpec = serde_json::from_str(json).expect("export parses");
        back.validate().expect("export validates");
        assert_eq!(&back, builtin.spec(id), "{id}");
        // And the canonical rendering is a fixed point: re-serializing
        // the reloaded spec reproduces the file byte-for-byte.
        assert_eq!(
            serde_json::to_string_pretty(&back).expect("spec serializes"),
            json,
            "{id}"
        );
    }
}

#[test]
fn registry_loaded_from_exported_files_matches_builtin_profiles() {
    let dir = std::env::temp_dir().join(format!("accel-export-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let written = ServiceRegistry::export_dir(&dir).expect("export");
    assert_eq!(written.len(), ServiceId::ALL.len());
    let registry = ServiceRegistry::load_path(&dir).expect("exported files load");
    assert_eq!(registry.loaded_services().len(), ServiceId::ALL.len());
    let builtin = ServiceRegistry::builtin();
    for id in ServiceId::ALL {
        // The file-driven profile is the builtin profile, exactly —
        // this is what makes the `--services` path byte-identical.
        assert_eq!(
            registry.profile(id),
            accelerometer_fleet::profile(id),
            "{id}"
        );
        assert_eq!(registry.spec(id), builtin.spec(id), "{id}");
    }
    assert_eq!(
        registry.case_studies(),
        accelerometer_fleet::all_case_studies(),
    );
    assert_eq!(
        registry.recommendations(),
        accelerometer_fleet::params::all_recommendations(),
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn slugs_round_trip_for_every_service() {
    for id in ServiceId::ALL {
        assert_eq!(ServiceId::from_slug(id.slug()), Some(id), "{id}");
    }
    assert_eq!(ServiceId::from_slug("bogus"), None);
}
