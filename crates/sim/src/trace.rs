//! Where the engine's requests come from: a frozen trace, else an
//! inline draw.
//!
//! PR 6 measured that ~40% of per-event cost in the engine is RNG / `ln`
//! / inverse-CDF draws whose *values* are frozen by the bit-exactness
//! contract. Frozen values do not mean a frozen *schedule*, though — the
//! engine consumes its workload RNG stream only through request draws,
//! and the i-th request drawn is always the i-th block of that stream
//! regardless of cores, threads, offload design, or fault plan (fault
//! RNG is a separate derived stream). Draws can therefore be hoisted out
//! of the event loop and computed once for a batch of runs instead of
//! once per run, without changing a single output byte.
//!
//! An engine takes each request from one of two sources:
//!
//! 1. **A [`FrozenTrace`]** (per seed × workload, behind `Arc`): an
//!    immutable pre-drawn request prefix plus the RNG state *after* the
//!    prefix. The batch runner (`run_batch`, which every sweep and A/B
//!    study goes through) draws one up front for each seed and workload
//!    that two or more of its engines share ([`TraceStore::for_batch`])
//!    and installs it in each of them (only offload / policy / fault
//!    parameters differ), turning O(runs × draws) sampling into O(draws)
//!    per batch.
//! 2. **An inline draw**: with no trace, or once the prefix runs out,
//!    the engine draws the request's record from its own RNG into one
//!    scratch buffer when a thread begins the request. A run that
//!    outlives a trace resumes from the trace's continuation RNG state,
//!    bit-identical to never having had the trace, so the prefix length
//!    is a pure performance knob.
//!
//! Both sources use the same dense form: a *record* of
//! `kernels_per_request + 1` `f64`s (the host chunk, then each kernel's
//! granularity) drawn by
//! [`RequestSampler::draw_record`](crate::workload::RequestSampler::draw_record)
//! and turned into work items by
//! [`expand_record`](crate::workload::expand_record) only when a thread
//! begins the request. One kernel per request costs 16 bytes instead of
//! three 24-byte items. (An earlier per-engine block-refilled sample bank sat
//! between the two; it measured 2–4% *slower* than inline drawing and
//! was deleted — see `EXPERIMENTS.md`.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::SimConfig;
use crate::shard::ShardPlan;
use crate::workload::WorkloadSpec;

/// Upper bound on a frozen trace's request count (16 MiB of records at
/// the typical one kernel per request). Runs that need more fall back
/// to inline live drawing after the prefix — correct, just less
/// amortized. The engine also caps its latency-key reservation here.
pub(crate) const MAX_TRACE_REQUESTS: usize = 1 << 20;

/// Upper bound on the values a frozen trace stores (32 MiB). Binds only
/// above three kernels per request, where it shortens the prefix so a
/// trace never costs more memory than a three-kernel one.
const MAX_TRACE_VALUES: usize = 1 << 22;

/// Process-wide switch for frozen-trace sharing in the batch runner.
/// On by default; `accelctl --trace-reuse off` clears it so CI can diff
/// both paths.
static TRACE_REUSE: AtomicBool = AtomicBool::new(true);

/// Enables or disables frozen-trace sharing process-wide.
/// Both settings produce byte-identical output (that is the point of
/// the `tier1.sh` smoke); `off` exists to prove it and to measure the
/// sampling tax.
pub fn set_trace_reuse(enabled: bool) {
    TRACE_REUSE.store(enabled, Ordering::Relaxed);
}

/// Whether the batch runner currently shares frozen traces.
#[must_use]
pub fn trace_reuse_enabled() -> bool {
    TRACE_REUSE.load(Ordering::Relaxed)
}

/// An immutable pre-drawn request trace for one (seed, workload) pair,
/// shared by a batch's runs behind an `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenTrace {
    seed: u64,
    workload: WorkloadSpec,
    /// `len() × stride` values: record `i` (see
    /// [`RequestSampler::draw_record`](crate::workload::RequestSampler::draw_record))
    /// is `records[i * stride..][..stride]`.
    records: Vec<f64>,
    /// Values per record: `kernels_per_request + 1`.
    stride: usize,
    /// The RNG state after drawing the prefix: a run that consumes more
    /// requests than the trace holds continues live drawing from here,
    /// bit-identical to a run that never had the trace.
    resume_rng: StdRng,
}

impl FrozenTrace {
    /// Draws a trace of `requests` requests for `(seed, workload)` —
    /// the first `requests` blocks of the engine RNG stream that
    /// `StdRng::seed_from_u64(seed)` produces. The request count is
    /// capped at [`MAX_TRACE_REQUESTS`], and at [`MAX_TRACE_VALUES`]
    /// values; the record buffer is allocated once, at its final size.
    #[must_use]
    pub fn draw(seed: u64, workload: &WorkloadSpec, requests: usize) -> Self {
        let sampler = workload.sampler();
        let stride = sampler.record_len();
        let mut rng = StdRng::seed_from_u64(seed);
        let requests = requests
            .min(MAX_TRACE_REQUESTS)
            .min(MAX_TRACE_VALUES / stride);
        let values = requests
            .checked_mul(stride)
            .expect("trace size is bounded by MAX_TRACE_VALUES");
        let mut records = Vec::with_capacity(values);
        for _ in 0..requests {
            sampler.draw_record(&mut rng, &mut records);
        }
        Self {
            seed,
            workload: workload.clone(),
            records,
            stride,
            resume_rng: rng,
        }
    }

    /// Draws a trace sized for `cfg`: the expected request consumption
    /// of the run (cores × horizon / mean request cycles, scaled by the
    /// Amdahl ceiling when an offload could raise throughput) plus
    /// margin for in-flight requests. Underestimates only cost the
    /// continuation draws; overestimates only cost memory and the
    /// one-time draw.
    #[must_use]
    pub fn for_config(cfg: &SimConfig) -> Self {
        Self::draw(cfg.seed, &cfg.workload, Self::estimated_requests(cfg))
    }

    pub(crate) fn estimated_requests(cfg: &SimConfig) -> usize {
        let mean = cfg.workload.mean_request_cycles().max(1.0);
        let per_core = cfg.horizon / mean;
        let speedup_cap = cfg.offload.as_ref().map_or(1.0, |o| {
            let alpha = cfg.workload.expected_alpha();
            let a = o.peak_speedup.max(1.0);
            1.0 / ((1.0 - alpha) + alpha / a)
        });
        let est = (cfg.cores as f64) * per_core * speedup_cap * 1.3;
        // `as usize` saturates (NaN → 0) on degenerate workloads; the
        // continuation path keeps those correct.
        (est as usize).saturating_add(2 * cfg.threads + 16)
    }

    /// Whether this trace was drawn from `cfg`'s seed and workload —
    /// the precondition for installing it into an engine.
    #[must_use]
    pub fn matches(&self, cfg: &SimConfig) -> bool {
        self.seed == cfg.seed && self.workload == cfg.workload
    }

    /// The seed the trace was drawn from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of pre-drawn requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len() / self.stride
    }

    /// Whether the trace holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `i`-th pre-drawn request's record, for
    /// [`expand_record`](crate::workload::expand_record).
    pub(crate) fn record(&self, i: usize) -> &[f64] {
        &self.records[i * self.stride..][..self.stride]
    }

    /// The RNG state after the prefix, for the live-drawing
    /// continuation.
    pub(crate) fn resume_rng(&self) -> &StdRng {
        &self.resume_rng
    }
}

/// The frozen traces one batch shares, keyed by (seed, workload).
///
/// The batch runner builds the store once, before fanning out, from the
/// engine configurations it is about to run ([`TraceStore::for_batch`]);
/// after that it is an immutable map, read without a lock.
/// Traces exist only for (seed, workload) pairs that two or more engines
/// share — a pair used once draws live, because a draw-once-use-once
/// trace is pure overhead.
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Vec<Arc<FrozenTrace>>,
}

impl TraceStore {
    /// Applies the sharing rule to a batch of `configs`. The engines the
    /// batch builds are the configurations themselves, or each one's
    /// shard configurations when the batch runs `sharded` (shard engines
    /// draw from derived seeds, so the base seed is never read). Every
    /// (seed, workload) pair that two or more engines share gets one
    /// trace, sized to the largest [`FrozenTrace::estimated_requests`]
    /// among them; the size is a pure performance setting.
    #[must_use]
    pub fn for_batch(configs: &[SimConfig], sharded: bool) -> Self {
        let engines: Vec<SimConfig> = if sharded {
            configs
                .iter()
                .flat_map(|cfg| {
                    let plan = ShardPlan::for_config(cfg);
                    (0..plan.shards).map(move |i| plan.shard_config(cfg, i))
                })
                .collect()
        } else {
            configs.to_vec()
        };
        // (representative engine, engines in the group, largest estimate)
        let mut groups: Vec<(&SimConfig, usize, usize)> = Vec::new();
        for cfg in &engines {
            let requests = FrozenTrace::estimated_requests(cfg);
            match groups
                .iter_mut()
                .find(|(c, ..)| c.seed == cfg.seed && c.workload == cfg.workload)
            {
                Some((_, count, largest)) => {
                    *count += 1;
                    *largest = (*largest).max(requests);
                }
                None => groups.push((cfg, 1, requests)),
            }
        }
        let traces = groups
            .into_iter()
            .filter(|&(_, count, _)| count > 1)
            .map(|(cfg, _, requests)| {
                Arc::new(FrozenTrace::draw(cfg.seed, &cfg.workload, requests))
            })
            .collect();
        Self { traces }
    }

    /// The shared trace for `cfg`'s (seed, workload), if the batch has
    /// one.
    #[must_use]
    pub fn get(&self, cfg: &SimConfig) -> Option<Arc<FrozenTrace>> {
        self.traces.iter().find(|t| t.matches(cfg)).cloned()
    }

    /// The shared traces, in first-use order.
    #[must_use]
    pub fn traces(&self) -> &[Arc<FrozenTrace>] {
        &self.traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::GranularityCdf;
    use crate::fault::{FaultPlan, RecoveryPolicy};
    use crate::workload::{expand_record, WorkItem};

    fn workload(kernels: usize) -> WorkloadSpec {
        WorkloadSpec {
            non_kernel_cycles: 3_000.0,
            kernels_per_request: kernels,
            granularity: GranularityCdf::from_points(vec![(256.0, 0.4), (1_024.0, 1.0)]).unwrap(),
            cycles_per_byte: cycles_per_byte(2.0),
        }
    }

    /// Request `i` of `trace`, expanded into work items.
    fn request(trace: &FrozenTrace, i: usize) -> Vec<WorkItem> {
        let mut items = Vec::new();
        expand_record(trace.record(i), &mut items);
        items
    }

    fn config() -> SimConfig {
        SimConfig {
            cores: 2,
            threads: 4,
            context_switch_cycles: 200.0,
            horizon: 1e6,
            seed: 99,
            workload: workload(1),
            offload: None,
            fault: FaultPlan::none(),
            recovery: RecoveryPolicy::none(),
        }
    }

    /// The defining property of a frozen trace: request i equals the
    /// i-th direct draw, and the resume RNG equals the direct RNG after
    /// those draws — so continuation draws line up too.
    #[test]
    fn trace_prefix_and_resume_rng_match_direct_drawing() {
        let spec = workload(2);
        let trace = FrozenTrace::draw(77, &spec, 40);
        assert_eq!(trace.len(), 40);
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..trace.len() {
            assert_eq!(spec.draw_request(&mut rng), request(&trace, i));
        }
        assert_eq!(&rng, trace.resume_rng());
    }

    /// Request `i` of a frozen trace equals the `i`-th direct draw for
    /// every item-layout case: no kernels (the lone `Host(1.0)` item when
    /// the host chunk is skipped), one kernel, several kernels, and a
    /// zero host mean (every host chunk skipped).
    #[test]
    fn frozen_requests_equal_direct_draws_in_every_layout() {
        for kernels in [0, 1, 3] {
            for non_kernel_cycles in [3_000.0, 0.0] {
                let spec = WorkloadSpec {
                    non_kernel_cycles,
                    ..workload(kernels)
                };
                let trace = FrozenTrace::draw(13, &spec, 300);
                assert_eq!(trace.len(), 300);
                // One exact-size allocation: no growth slack.
                assert_eq!(trace.records.len(), trace.records.capacity());
                assert_eq!(trace.records.len(), trace.len() * (kernels + 1));
                let mut rng = StdRng::seed_from_u64(13);
                for i in 0..trace.len() {
                    let direct = spec.draw_request(&mut rng);
                    assert_eq!(
                        direct,
                        request(&trace, i),
                        "kernels {kernels}, host {non_kernel_cycles}, request {i}"
                    );
                }
                assert_eq!(&rng, trace.resume_rng());
            }
        }
    }

    /// Wide records shorten the prefix instead of growing the trace past
    /// [`MAX_TRACE_VALUES`]; a record wider than the budget leaves the
    /// trace empty, whose resume state is the fresh seed.
    #[test]
    fn value_budget_caps_wide_records() {
        let trace = FrozenTrace::draw(3, &workload(7), usize::MAX);
        assert_eq!(trace.len(), MAX_TRACE_VALUES / 8);
        assert_eq!(trace.records.capacity(), MAX_TRACE_VALUES);
        let empty = FrozenTrace::draw(3, &workload(MAX_TRACE_VALUES), 10);
        assert!(empty.is_empty());
        assert_eq!(empty.resume_rng(), &StdRng::seed_from_u64(3));
    }

    #[test]
    fn trace_matches_checks_seed_and_workload() {
        let cfg = config();
        let trace = FrozenTrace::for_config(&cfg);
        assert!(trace.matches(&cfg));
        assert!(!trace.is_empty());
        let mut other_seed = cfg.clone();
        other_seed.seed = 100;
        assert!(!trace.matches(&other_seed));
        let mut other_workload = cfg.clone();
        other_workload.workload.non_kernel_cycles = 1.0;
        assert!(!trace.matches(&other_workload));
        // Offload / fault / policy changes keep the trace valid.
        let mut offloaded = cfg;
        offloaded.offload = Some(crate::engine::OffloadConfig::on_chip_sync(4.0));
        assert!(trace.matches(&offloaded));
    }

    #[test]
    fn estimate_covers_expected_consumption() {
        let cfg = config();
        let est = FrozenTrace::estimated_requests(&cfg);
        // cores × horizon / mean ≈ 2 × 1e6 / ~4280 ≈ 467; margin on top.
        let expected = cfg.cores as f64 * cfg.horizon / cfg.workload.mean_request_cycles();
        assert!(est as f64 >= expected, "{est} < {expected}");
        assert!(est < 10 * expected as usize + 1_000, "gross overdraw: {est}");
    }

    #[test]
    fn store_shares_only_repeated_seed_workload_pairs() {
        let cfg = config();
        let mut deeper = config();
        deeper.threads = 64;
        let mut other_seed = config();
        other_seed.seed = 1234;
        let batch = [cfg.clone(), other_seed.clone(), deeper.clone()];
        let store = TraceStore::for_batch(&batch, false);
        assert_eq!(store.traces().len(), 1, "only seed 99 repeats");
        let shared = store.get(&cfg).expect("seed 99 is shared");
        let same = store.get(&deeper).expect("same pair");
        assert!(Arc::ptr_eq(&shared, &same));
        // Sized to the group's largest estimate.
        assert_eq!(shared.len(), FrozenTrace::estimated_requests(&deeper));
        // A pair used once draws live.
        assert!(store.get(&other_seed).is_none());
    }

    #[test]
    fn distinct_seeds_and_single_configs_share_nothing() {
        let distinct: Vec<SimConfig> = (0..4).map(|seed| SimConfig { seed, ..config() }).collect();
        for (batch, sharded) in [(&distinct[..], false), (&[config()], false), (&[], true)] {
            assert!(TraceStore::for_batch(batch, sharded).traces().is_empty());
        }
    }

    #[test]
    fn reuse_toggle_round_trips() {
        assert!(trace_reuse_enabled(), "reuse defaults to on");
        set_trace_reuse(false);
        assert!(!trace_reuse_enabled());
        set_trace_reuse(true);
        assert!(trace_reuse_enabled());
    }
}
