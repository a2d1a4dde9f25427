//! The two-level sampling pipeline: trace banks and frozen traces.
//!
//! PR 6 measured that ~40% of per-event cost in the engine is RNG / `ln`
//! / inverse-CDF draws whose *values* are frozen by the bit-exactness
//! contract. Frozen values do not mean a frozen *schedule*, though — the
//! engine consumes its workload RNG stream only through request draws,
//! and the i-th request drawn is always the i-th block of that stream
//! regardless of cores, threads, offload design, or fault plan (fault
//! RNG is a separate derived stream). Draws can therefore be hoisted out
//! of the event loop, and across sweep grids computed once instead of
//! once per point, without changing a single output byte.
//!
//! Two levels:
//!
//! 1. **[`SampleBank`]** (per engine): refills blocks of pre-drawn
//!    requests in one tight loop, so the monomorphized `advance` loop
//!    consumes plain data instead of interleaving `StdRng`/`ln`/quantile
//!    calls with event handling. Same values in the same order; it is
//!    also the adapter that lets a [`FrozenTrace`] feed the engine and
//!    resume live drawing when the prefix runs out. Shard engines fill
//!    their banks independently from their decorrelated seeds. (On the
//!    1-core dev container the bank alone is a measured 2–4% *loss* on
//!    the engine microbenches — see `EXPERIMENTS.md`; level 2 is where
//!    the sampling tax is actually paid down.)
//! 2. **[`FrozenTrace`]** (per seed × workload, behind `Arc`): an
//!    immutable pre-drawn request prefix plus the RNG state *after* the
//!    prefix. Sweep runners draw it once and install it at every grid
//!    point that shares the seed and workload (only offload / policy /
//!    fault parameters differ), turning O(points × draws) sampling into
//!    O(draws) per sweep. A run that outlives the prefix resumes live
//!    banked drawing from the continuation RNG state — bit-identical to
//!    never having had the trace, so the prefix length is a pure
//!    performance knob.
//!
//! Both levels store requests in the same dense form: a *record* of
//! `kernels_per_request + 1` `f64`s (the host chunk, then each kernel's
//! granularity) drawn by [`RequestSampler::draw_record`] and turned into
//! work items by [`expand_record`] only when a thread begins the
//! request. One kernel per request costs 16 bytes instead of three
//! 24-byte items.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::SimConfig;
use crate::workload::{expand_record, RequestSampler, WorkItem, WorkloadSpec};

/// Requests per [`SampleBank`] refill. Big enough that the refill branch
/// is cold in `begin_request`; small enough that a bank is a few KiB and
/// stays in L1 while the engine drains it. Any value ≥ 1 is bit-identical
/// (pinned by proptest); 8/64/256 all measured within noise of each
/// other on the 1-core container, so 64 is kept as the cache-friendly
/// middle.
const BANK_BLOCK: usize = 64;

/// Upper bound on a frozen trace's request count (16 MiB of records at
/// the typical one kernel per request). Runs that need more fall back
/// to banked live drawing after the prefix — correct, just less
/// amortized. The engine also caps its latency-key reservation here.
pub(crate) const MAX_TRACE_REQUESTS: usize = 1 << 20;

/// Upper bound on the values a frozen trace stores (32 MiB). Binds only
/// above three kernels per request, where it shortens the prefix so a
/// trace never costs more memory than a three-kernel one.
const MAX_TRACE_VALUES: usize = 1 << 22;

/// Process-wide switch for cross-point trace reuse in sweep runners
/// (level 2). On by default; `accelctl --trace-reuse off` clears it so
/// CI can diff both paths. Level 1 (the bank) has no switch — it is the
/// engine's draw path.
static TRACE_REUSE: AtomicBool = AtomicBool::new(true);

/// Enables or disables cross-point frozen-trace reuse process-wide.
/// Both settings produce byte-identical output (that is the point of
/// the `tier1.sh` smoke); `off` exists to prove it and to measure the
/// sampling tax.
pub fn set_trace_reuse(enabled: bool) {
    TRACE_REUSE.store(enabled, Ordering::Relaxed);
}

/// Whether sweep runners currently reuse frozen traces across grid
/// points.
#[must_use]
pub fn trace_reuse_enabled() -> bool {
    TRACE_REUSE.load(Ordering::Relaxed)
}

/// A block of pre-drawn requests owned by one engine (level 1).
///
/// The block is one flat buffer of records (the same layout as a
/// [`FrozenTrace`]); popping expands the next record into the
/// consumer's item buffer. The refill loop consumes the engine RNG in
/// exactly the order per-request drawing would, so popping request `i`
/// yields bit-identical items to drawing it inline.
#[derive(Debug, Clone)]
pub(crate) struct SampleBank {
    /// `filled` records back to back, `sampler.record_len()` values
    /// each.
    records: Vec<f64>,
    /// Index of the next un-popped record.
    next: usize,
    /// Number of valid pre-drawn records (0 after a clear).
    filled: usize,
    /// Requests per refill (testable; [`BANK_BLOCK`] by default).
    block: usize,
    /// Refills performed since the last [`clear`](Self::clear) —
    /// surfaced as `EngineStats::bank_refills`.
    refills: u64,
}

impl SampleBank {
    pub(crate) fn new() -> Self {
        Self {
            records: Vec::new(),
            next: 0,
            filled: 0,
            block: BANK_BLOCK,
            refills: 0,
        }
    }

    /// Drops all buffered requests (keeping the allocation) so the next
    /// pop refills from the current RNG state. Must be called on engine
    /// reset: buffered draws belong to the old stream and workload.
    pub(crate) fn clear(&mut self) {
        self.next = 0;
        self.filled = 0;
        self.refills = 0;
    }

    /// Refills performed since the last [`clear`](Self::clear).
    pub(crate) fn refills(&self) -> u64 {
        self.refills
    }

    /// Overrides the refill block size (minimum 1) and discards buffered
    /// draws. Test hook: block size 1 degenerates to the historical
    /// draw-per-request path, and proptests pin that every block size is
    /// bit-identical.
    pub(crate) fn set_block(&mut self, block: usize) {
        self.block = block.max(1);
        self.clear();
    }

    /// Replaces `out` with the next pre-drawn request's items,
    /// refilling the bank from `rng` when empty.
    #[inline(always)]
    pub(crate) fn pop_into(
        &mut self,
        sampler: &RequestSampler,
        rng: &mut StdRng,
        out: &mut Vec<WorkItem>,
    ) {
        if self.next == self.filled {
            self.refill(sampler, rng);
        }
        let stride = sampler.record_len();
        let start = self.next * stride;
        out.clear();
        expand_record(&self.records[start..start + stride], out);
        self.next += 1;
    }

    /// The tight loop: `block` consecutive records drawn with nothing
    /// between the draws. The buffer keeps its allocation, so steady
    /// state allocates nothing.
    #[cold]
    fn refill(&mut self, sampler: &RequestSampler, rng: &mut StdRng) {
        self.records.clear();
        for _ in 0..self.block {
            sampler.draw_record(rng, &mut self.records);
        }
        self.next = 0;
        self.filled = self.block;
        self.refills += 1;
    }
}

/// An immutable pre-drawn request trace for one (seed, workload) pair
/// (level 2), shared across sweep grid points behind an `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenTrace {
    seed: u64,
    workload: WorkloadSpec,
    /// `len() × stride` values: record `i` (see
    /// [`RequestSampler::draw_record`]) is `records[i * stride..][..stride]`.
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

    /// The `i`-th pre-drawn request's record, for [`expand_record`].
    pub(crate) fn record(&self, i: usize) -> &[f64] {
        &self.records[i * self.stride..][..self.stride]
    }

    /// The RNG state after the prefix, for the live-drawing
    /// continuation.
    pub(crate) fn resume_rng(&self) -> &StdRng {
        &self.resume_rng
    }
}

/// A per-sweep cache of [`FrozenTrace`]s keyed by (seed, workload).
///
/// Sweep runners create one store per sweep and pass it to every grid
/// point; shard engines look up their derived seeds here too, so a
/// sharded 8-point sweep draws each shard's trace once instead of eight
/// times. Lookups that miss either draw-and-cache (eager stores, used
/// by sweeps whose points all share the base seed) or return `None`
/// (prewarmed-only stores, used by batch runners where most configs are
/// unique and a draw-once-use-once trace would be pure overhead).
#[derive(Debug)]
pub struct TraceStore {
    draw_on_miss: bool,
    inner: Mutex<Vec<Arc<FrozenTrace>>>,
}

impl TraceStore {
    /// A store that draws and caches a trace on every miss.
    #[must_use]
    pub fn eager() -> Self {
        Self {
            draw_on_miss: true,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// A store that only serves traces drawn via [`prewarm`]
    /// (misses return `None`).
    ///
    /// [`prewarm`]: TraceStore::prewarm
    #[must_use]
    pub fn prewarmed_only() -> Self {
        Self {
            draw_on_miss: false,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// An eager store for a sweep, or `None` when cross-point reuse is
    /// globally disabled ([`set_trace_reuse`]).
    #[must_use]
    pub fn for_sweep() -> Option<Self> {
        trace_reuse_enabled().then(Self::eager)
    }

    /// Draws and caches the trace for `cfg` (no-op if already cached).
    /// Sweep frontends call this on the base config before fanning out
    /// so the trace length does not depend on which worker gets there
    /// first.
    pub fn prewarm(&self, cfg: &SimConfig) {
        let mut traces = self.inner.lock().expect("trace store poisoned");
        if !traces.iter().any(|t| t.matches(cfg)) {
            traces.push(Arc::new(FrozenTrace::draw(
                cfg.seed,
                &cfg.workload,
                FrozenTrace::estimated_requests(cfg),
            )));
        }
    }

    /// The cached trace for `cfg`'s (seed, workload), drawing it on a
    /// miss when the store is eager. The draw happens under the store
    /// lock so concurrent workers block briefly instead of drawing
    /// twice; trace content depends only on (seed, workload), so which
    /// worker draws is unobservable.
    #[must_use]
    pub fn get(&self, cfg: &SimConfig) -> Option<Arc<FrozenTrace>> {
        let mut traces = self.inner.lock().expect("trace store poisoned");
        if let Some(t) = traces.iter().find(|t| t.matches(cfg)) {
            return Some(Arc::clone(t));
        }
        if !self.draw_on_miss {
            return None;
        }
        let trace = Arc::new(FrozenTrace::for_config(cfg));
        traces.push(Arc::clone(&trace));
        Some(trace)
    }

    /// Number of distinct traces currently cached.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer::units::cycles_per_byte;
    use accelerometer::GranularityCdf;
    use crate::fault::{FaultPlan, RecoveryPolicy};

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

    /// Popping N requests through a bank — at any block size — must
    /// yield the same items in the same order as N direct draws, and
    /// leave the RNG in the same state.
    #[test]
    fn bank_pops_equal_direct_draws_at_any_block_size() {
        for kernels in [0, 1, 3] {
            let spec = workload(kernels);
            let sampler = spec.sampler();
            for block in [1, 2, 7, 64, 200] {
                let mut direct_rng = StdRng::seed_from_u64(5);
                let mut banked_rng = StdRng::seed_from_u64(5);
                let mut bank = SampleBank::new();
                bank.set_block(block);
                let mut out = Vec::new();
                for _ in 0..150 {
                    let reference = spec.draw_request(&mut direct_rng);
                    bank.pop_into(&sampler, &mut banked_rng, &mut out);
                    assert_eq!(reference, out, "block {block}, kernels {kernels}");
                }
            }
        }
    }

    #[test]
    fn bank_clear_discards_buffered_draws() {
        let spec = workload(1);
        let sampler = spec.sampler();
        let mut rng = StdRng::seed_from_u64(1);
        let mut bank = SampleBank::new();
        let mut out = Vec::new();
        bank.pop_into(&sampler, &mut rng, &mut out);
        bank.clear();
        // After a clear + reseed the bank must replay the stream from
        // the start, exactly like a fresh engine.
        let mut rng = StdRng::seed_from_u64(1);
        bank.pop_into(&sampler, &mut rng, &mut out);
        let mut reference_rng = StdRng::seed_from_u64(1);
        assert_eq!(spec.draw_request(&mut reference_rng), out);
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
    fn eager_store_draws_once_per_seed_workload() {
        let store = TraceStore::eager();
        let cfg = config();
        let a = store.get(&cfg).expect("eager store draws");
        let b = store.get(&cfg).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let mut other = config();
        other.seed = 1234;
        let c = store.get(&other).expect("eager store draws");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.cached(), 2);
    }

    #[test]
    fn prewarmed_only_store_never_draws_on_miss() {
        let store = TraceStore::prewarmed_only();
        let cfg = config();
        assert!(store.get(&cfg).is_none());
        store.prewarm(&cfg);
        store.prewarm(&cfg); // idempotent
        assert_eq!(store.cached(), 1);
        let t = store.get(&cfg).expect("prewarmed trace is served");
        assert!(t.matches(&cfg));
    }

    #[test]
    fn reuse_toggle_round_trips() {
        assert!(trace_reuse_enabled(), "reuse defaults to on");
        set_trace_reuse(false);
        assert!(!trace_reuse_enabled());
        assert!(TraceStore::for_sweep().is_none());
        set_trace_reuse(true);
        assert!(trace_reuse_enabled());
        assert!(TraceStore::for_sweep().is_some());
    }
}
