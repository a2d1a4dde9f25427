//! Deterministic parallel execution of independent simulations.
//!
//! Re-exports the workspace-wide [`ExecPool`] primitive and adds the
//! simulation-specific pieces: the batch runner every sweep and A/B
//! study fans out through, and the seed derivation shard engines use.
//!
//! # Determinism
//!
//! Every simulation is fully determined by its [`SimConfig`] (which
//! carries its own RNG seed), so fanning a batch over worker threads
//! cannot change any run's result — only the wall-clock time. Batch
//! outputs always preserve input order, making `--jobs 1` and
//! `--jobs N` byte-identical.

pub use accelerometer::exec::{available_jobs, default_jobs, set_default_jobs, ExecPool};

use crate::engine::{SimConfig, Simulator};
use crate::error::Result;
use crate::metrics::SimMetrics;
use crate::shard::run_sharded;
use crate::trace::{trace_reuse_enabled, TraceStore};

/// Derives a statistically independent child seed from a root seed and
/// a job index (splitmix64 over `root ^ index·φ`), so replica studies
/// get decorrelated streams while remaining reproducible from the root.
#[must_use]
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut z = root ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs every configuration on `pool`, each one sharded on `shards`
/// when a shard pool is given, and returns the metrics in input order.
/// This is the one fan-out every sweep and A/B study goes through.
///
/// Every configuration is validated before anything runs. Engines that
/// share a (seed, workload) pair then share one frozen trace, drawn up
/// front by [`TraceStore::for_batch`]; the trace only changes where
/// requests come from, never a result.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidConfig`] when any configuration is
/// rejected by [`SimConfig::validate`].
pub fn run_batch(
    pool: &ExecPool,
    shards: Option<&ExecPool>,
    configs: &[SimConfig],
) -> Result<Vec<SimMetrics>> {
    configs.iter().try_for_each(SimConfig::validate)?;
    let store = if trace_reuse_enabled() {
        TraceStore::for_batch(configs, shards.is_some())
    } else {
        TraceStore::default()
    };
    if let Some(shard_pool) = shards {
        let runs = pool.map(configs, |_, cfg| run_sharded(shard_pool, cfg, Some(&store)));
        return runs.into_iter().collect();
    }
    // Each run owns its handle on its trace and drops it with its
    // engine, so a trace is freed by the last run that reads it instead
    // of living to the end of the batch: a batch holds no more memory
    // than its runs do.
    let mut runs: Vec<_> = configs
        .iter()
        .map(|cfg| (cfg, store.get(cfg), None::<Result<SimMetrics>>))
        .collect();
    drop(store);
    pool.for_each_mut(&mut runs, |_, (cfg, trace, metrics)| {
        let sim = Simulator::try_new_with_trace((*cfg).clone(), trace.take());
        *metrics = Some(sim.map(Simulator::run));
    });
    runs.into_iter()
        .map(|(_, _, metrics)| metrics.expect("for_each_mut visits every run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::GranularityCdf;

    fn base() -> SimConfig {
        SimConfig {
            cores: 2,
            threads: 2,
            context_switch_cycles: 0.0,
            horizon: 5e6,
            seed: 11,
            workload: WorkloadSpec {
                non_kernel_cycles: 4_000.0,
                kernels_per_request: 1,
                granularity: GranularityCdf::from_points(vec![(512.0, 1.0)]).unwrap(),
                cycles_per_byte: cycles_per_byte(2.0),
            },
            offload: None,
            fault: Default::default(),
            recovery: Default::default(),
        }
    }

    #[test]
    fn batch_results_are_independent_of_pool_width() {
        let configs: Vec<SimConfig> = (0..6)
            .map(|i| {
                let mut cfg = base();
                cfg.seed = 100 + i;
                cfg
            })
            .collect();
        let sequential = run_batch(&ExecPool::new(1), None, &configs).unwrap();
        let parallel = run_batch(&ExecPool::new(8), None, &configs).unwrap();
        assert_eq!(sequential, parallel);
        // And each run equals a direct invocation.
        for (cfg, m) in configs.iter().zip(&sequential) {
            assert_eq!(Simulator::new(cfg.clone()).run(), *m);
        }
    }

    #[test]
    fn an_invalid_config_is_an_error_before_anything_runs() {
        let mut invalid = base();
        invalid.cores = 0;
        let err = run_batch(&ExecPool::new(2), None, &[base(), invalid]).unwrap_err();
        assert!(err.to_string().contains("cores"), "{err}");
    }

    #[test]
    fn a_shard_pool_takes_the_sharded_path() {
        // 4 cores / 8 threads decompose into 4 shards.
        let mut cfg = base();
        cfg.cores = 4;
        cfg.threads = 8;
        let mut other = cfg.clone();
        other.seed = 12;
        // cfg's shard seeds repeat and share traces; other's draw live.
        let configs = [cfg.clone(), other.clone(), cfg.clone()];
        let got = run_batch(&ExecPool::new(2), Some(&ExecPool::new(3)), &configs).unwrap();
        let direct = |c: &SimConfig| run_sharded(&ExecPool::new(1), c, None).unwrap();
        assert_eq!(got, vec![direct(&cfg), direct(&other), direct(&cfg)]);
        let classic = Simulator::new(cfg).run();
        assert_ne!(got[0], classic, "sharding is a different run");
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        let seeds: Vec<u64> = (0..16).map(|i| derive_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collisions in {seeds:?}");
    }
}
