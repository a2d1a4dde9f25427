//! Property-based tests for the Accelerometer model invariants.
//!
//! These check the *shape* of the model over randomized parameter spaces:
//! monotonicity in every overhead, agreement with Amdahl's law in the
//! overhead-free limit, consistency between break-even analysis and the
//! per-offload profitability predicates, and distribution-law invariants
//! of the granularity CDF.

use accelerometer::units::{bytes, cycles_per_byte};
use accelerometer::{
    amdahl, estimate, throughput_breakeven, AccelerationStrategy, BreakEven, Complexity,
    DriverMode, GranularityCdf, KernelCost, ModelParams, OffloadContext, OffloadOverheads,
    Scenario, ThreadingDesign,
};
use proptest::prelude::*;

fn design_strategy() -> impl Strategy<Value = (ThreadingDesign, AccelerationStrategy)> {
    (
        prop::sample::select(ThreadingDesign::ALL.to_vec()),
        prop::sample::select(AccelerationStrategy::ALL.to_vec()),
    )
}

fn params_strategy() -> impl Strategy<Value = ModelParams> {
    (
        1e8..1e10_f64,  // C
        0.001..0.9_f64, // alpha
        1.0..1e6_f64,   // n
        0.0..1e4_f64,   // o0
        0.0..1e4_f64,   // L
        0.0..1e4_f64,   // Q
        0.0..2e4_f64,   // o1
        1.0..100.0_f64, // A
    )
        .prop_map(|(c, alpha, n, o0, l, q, o1, a)| {
            ModelParams::builder()
                .host_cycles(c)
                .kernel_fraction(alpha)
                .offloads(n)
                .setup_cycles(o0)
                .interface_cycles(l)
                .queueing_cycles(q)
                .thread_switch_cycles(o1)
                .peak_speedup(a)
                .build()
                .expect("generated parameters are valid")
        })
}

fn rebuild_with(
    params: &ModelParams,
    f: impl FnOnce(OffloadOverheads) -> OffloadOverheads,
    a: Option<f64>,
) -> ModelParams {
    let ovh = f(params.overheads());
    ModelParams::builder()
        .host_cycles(params.host_cycles().get())
        .kernel_fraction(params.kernel_fraction())
        .offloads(params.offloads())
        .overheads(ovh)
        .peak_speedup(a.unwrap_or_else(|| params.peak_speedup()))
        .build()
        .unwrap()
}

proptest! {
    /// Raising any overhead never increases speedup or latency reduction.
    #[test]
    fn speedup_is_monotone_decreasing_in_overheads(
        params in params_strategy(),
        (design, strategy) in design_strategy(),
        bump in 1.0..1e5_f64,
        which in 0usize..4,
    ) {
        let driver = DriverMode::AwaitsAck;
        let base = estimate(&params, design, strategy, driver);
        let bumped = rebuild_with(&params, |mut o| {
            match which {
                0 => o.setup += accelerometer::Cycles::new(bump),
                1 => o.interface += accelerometer::Cycles::new(bump),
                2 => o.queueing += accelerometer::Cycles::new(bump),
                _ => o.thread_switch += accelerometer::Cycles::new(bump),
            }
            o
        }, None);
        let worse = estimate(&bumped, design, strategy, driver);
        prop_assert!(worse.throughput_speedup <= base.throughput_speedup + 1e-12);
        prop_assert!(worse.latency_reduction <= base.latency_reduction + 1e-12);
    }

    /// Raising the accelerator's peak speedup never hurts.
    #[test]
    fn speedup_is_monotone_increasing_in_a(
        params in params_strategy(),
        (design, strategy) in design_strategy(),
        factor in 1.0..10.0_f64,
    ) {
        let driver = DriverMode::AwaitsAck;
        let base = estimate(&params, design, strategy, driver);
        let faster = rebuild_with(&params, |o| o, Some(params.peak_speedup() * factor));
        let better = estimate(&faster, design, strategy, driver);
        prop_assert!(better.throughput_speedup >= base.throughput_speedup - 1e-12);
        prop_assert!(better.latency_reduction >= base.latency_reduction - 1e-12);
    }

    /// With zero overheads, the Sync design is exactly Amdahl's law, and
    /// A → ∞ recovers the ideal speedup 1/(1−α).
    #[test]
    fn sync_without_overheads_is_amdahl(
        c in 1e8..1e10_f64,
        alpha in 0.001..0.99_f64,
        n in 1.0..1e6_f64,
        a in 1.0..1000.0_f64,
    ) {
        let params = ModelParams::builder()
            .host_cycles(c)
            .kernel_fraction(alpha)
            .offloads(n)
            .peak_speedup(a)
            .build()
            .unwrap();
        let est = estimate(&params, ThreadingDesign::Sync, AccelerationStrategy::OnChip, DriverMode::Posted);
        prop_assert!((est.throughput_speedup - amdahl::speedup(alpha, a)).abs() < 1e-9);

        let ideal_params = rebuild_with(&params, |o| o, Some(f64::INFINITY));
        let ideal = estimate(&ideal_params, ThreadingDesign::Sync, AccelerationStrategy::OnChip, DriverMode::Posted);
        prop_assert!((ideal.throughput_speedup - amdahl::ideal_speedup(alpha)).abs() < 1e-9);
    }

    /// For Sync, latency reduction equals throughput speedup (eqn 1); for
    /// the async designs, latency reduction never exceeds the speedup
    /// except where both paths coincide.
    #[test]
    fn latency_vs_throughput_ordering(
        params in params_strategy(),
        strategy in prop::sample::select(AccelerationStrategy::ALL.to_vec()),
    ) {
        let sync = estimate(&params, ThreadingDesign::Sync, strategy, DriverMode::AwaitsAck);
        prop_assert!((sync.throughput_speedup - sync.latency_reduction).abs() < 1e-12);

        for design in [ThreadingDesign::AsyncSameThread, ThreadingDesign::AsyncNoResponse] {
            let est = estimate(&params, design, strategy, DriverMode::AwaitsAck);
            prop_assert!(
                est.latency_reduction <= est.throughput_speedup + 1e-12,
                "{design:?}/{strategy:?}: latency {} > speedup {}",
                est.latency_reduction,
                est.throughput_speedup,
            );
        }
    }

    /// Net speedup never exceeds the Amdahl bound for the same α and A:
    /// overheads only ever subtract.
    #[test]
    fn overheads_only_subtract_from_amdahl(
        params in params_strategy(),
        (design, strategy) in design_strategy(),
    ) {
        let est = estimate(&params, design, strategy, DriverMode::AwaitsAck);
        // The async designs remove αC/A from the host path, so the right
        // bound there is the ideal 1/(1-α); Sync is bounded by Amdahl.
        let bound = if design.accelerator_time_on_throughput_path() {
            amdahl::speedup(params.kernel_fraction(), params.peak_speedup())
        } else {
            amdahl::ideal_speedup(params.kernel_fraction())
        };
        prop_assert!(est.throughput_speedup <= bound + 1e-9);
    }

    /// CDF invariants: F is monotone, quantile is a right inverse on the
    /// support, and the lucrative fraction is a probability.
    #[test]
    fn cdf_laws(
        raw in prop::collection::vec((1.0..1e6_f64, 1u64..1000), 1..20),
        probe in 0.0..1.0_f64,
    ) {
        let mut bounds: Vec<f64> = raw.iter().map(|(g, _)| *g).collect();
        bounds.sort_by(|x, y| x.partial_cmp(y).unwrap());
        bounds.dedup();
        // Per-bucket counts, accumulated into the CDF's breakpoints.
        let counts: Vec<u64> = raw.iter().take(bounds.len()).map(|(_, c)| *c).collect();
        let total: u64 = counts.iter().sum();
        let mut cumulative = 0;
        let points = bounds
            .iter()
            .zip(&counts)
            .map(|(&g, &c)| {
                cumulative += c;
                (g, cumulative as f64 / total as f64)
            })
            .collect();
        let cdf = GranularityCdf::from_points(points).unwrap();

        // Monotonicity over a sweep of the support.
        let max = cdf.max_bytes().get();
        let mut prev = 0.0;
        for i in 0..=20 {
            let g = bytes(max * i as f64 / 20.0);
            let f = cdf.fraction_at_or_below(g);
            prop_assert!(f >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }

        // Quantile is a right inverse where F is strictly increasing.
        let g = cdf.quantile(probe);
        let back = cdf.fraction_at_or_below(g);
        prop_assert!(back >= probe - 1e-9);

        // Lucrative fractions are probabilities and shrink as the
        // threshold rises.
        let f_lo = cdf.lucrative_fraction(BreakEven::AtLeast(bytes(max * 0.1)));
        let f_hi = cdf.lucrative_fraction(BreakEven::AtLeast(bytes(max * 0.9)));
        prop_assert!((0.0..=1.0).contains(&f_lo));
        prop_assert!(f_hi <= f_lo + 1e-12);

        // Partial mean above zero is the full mean.
        let mean = cdf.mean_bytes();
        let partial = cdf.partial_mean_above(bytes(0.0));
        prop_assert!((mean.get() - partial.get()).abs() < mean.get().max(1.0) * 1e-9);
    }

    /// Scenario facade agrees with the free function for every design and
    /// strategy.
    #[test]
    fn scenario_matches_free_function(
        params in params_strategy(),
        (design, strategy) in design_strategy(),
    ) {
        let scenario = Scenario::new(params, design, strategy);
        let direct = estimate(&params, design, strategy, scenario.driver);
        prop_assert_eq!(scenario.estimate(), direct);
    }

    /// Super-linear kernels always break even at smaller granularities
    /// than linear ones with the same Cb (and sub-linear at larger).
    #[test]
    fn complexity_orders_breakeven(
        cb in 0.1..10.0_f64,
        l in 100.0..1e5_f64,
        a in 1.5..50.0_f64,
        beta_super in 1.05..2.0_f64,
        beta_sub in 0.5..0.95_f64,
    ) {
        let ctx = OffloadContext::new(
            OffloadOverheads::new(0.0, l, 0.0, 0.0),
            a,
            ThreadingDesign::Sync,
            AccelerationStrategy::OffChip,
        );
        let mk = |beta: f64| KernelCost {
            cycles_per_byte: cycles_per_byte(cb),
            complexity: Complexity::new(beta).unwrap(),
        };
        let g_lin = throughput_breakeven(&mk(1.0), &ctx).threshold().unwrap();
        let g_sup = throughput_breakeven(&mk(beta_super), &ctx).threshold().unwrap();
        let g_sub = throughput_breakeven(&mk(beta_sub), &ctx).threshold().unwrap();
        // Only a meaningful ordering when the linear break-even exceeds
        // one byte (otherwise powers flip around g = 1).
        if g_lin.get() > 1.0 {
            prop_assert!(g_sup <= g_lin);
            prop_assert!(g_sub >= g_lin);
        }
    }
}
