//! The run context: everything a command needs to know about *how* to
//! run, passed down as one value instead of read from process globals.
//!
//! `accelctl` parses its global flags once into a [`RunContext`] and
//! hands it to every runner it calls: `--jobs` becomes
//! [`RunContext::pool`], `--shards` becomes [`RunContext::shards`], and
//! `--services` becomes [`RunContext::registry`]. Two contexts can
//! therefore coexist in one process — a flag given to one call cannot
//! leak into the next.

use std::sync::Arc;

use accelerometer::exec::{default_jobs, ExecPool};
use accelerometer_fleet::{current_registry, ServiceRegistry};

use crate::shard::default_shards;

/// How to run: the worker pool, the optional shard pool, and the
/// service data.
#[derive(Debug)]
pub struct RunContext {
    /// Workers for independent jobs (`--jobs`). Output is identical at
    /// any width.
    pub pool: ExecPool,
    /// Workers for one sharded simulation (`--shards`), or `None` for
    /// the monolithic engine. Sharded output is identical at any width
    /// but differs from the monolithic engine's.
    pub shards: Option<ExecPool>,
    /// The service data every profile, CDF, IPC, case-study and
    /// recommendation lookup reads (`--services`).
    pub registry: Arc<ServiceRegistry>,
}

impl RunContext {
    /// The context a run starts from before its flags apply: the
    /// process-wide default worker count, shard width and registry. These
    /// are the machine's parallelism, no sharding and the builtin
    /// registry unless the benchmark harness set others through
    /// `set_default_jobs`, `set_default_shards` or `set_active_registry`.
    #[must_use]
    pub fn from_process_defaults() -> Self {
        let shards = default_shards();
        Self {
            pool: ExecPool::new(default_jobs()),
            shards: (shards > 0).then(|| ExecPool::new(shards)),
            registry: current_registry(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::set_default_shards;

    #[test]
    fn shard_default_round_trips_into_the_context() {
        // No other test in this crate reads the process default, so the
        // round trip needs no lock.
        assert_eq!(default_shards(), 0);
        assert!(RunContext::from_process_defaults().shards.is_none());
        set_default_shards(3);
        assert_eq!(default_shards(), 3);
        let ctx = RunContext::from_process_defaults();
        assert_eq!(ctx.shards, Some(ExecPool::new(3)));
        set_default_shards(0);
        assert_eq!(default_shards(), 0);
        assert!(RunContext::from_process_defaults().shards.is_none());
    }
}
