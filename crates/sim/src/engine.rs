//! The discrete-event engine: cores, an oversubscribed thread pool, a
//! scheduler with context-switch costs, and the offload state machines of
//! Figs. 12–14 executed at per-request granularity.
//!
//! Unlike the analytical model, the engine sees *distributions*: each
//! kernel invocation's granularity is drawn from the measured CDF, the
//! accelerator queue is a real FIFO whose delay emerges from load, and
//! thread switches happen when the scheduler actually switches threads.
//! Its measured A/B throughput therefore plays the role of the paper's
//! production measurements.

use std::collections::VecDeque;
use std::sync::Arc;

use accelerometer::{AccelerationStrategy, DriverMode, ThreadingDesign};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::device::{Device, DeviceKind};
use crate::equeue::{bound_key, pack, unpack_time, EventQueue};
use crate::error::{ensure, Result, SimError};
use crate::fault::{FaultPlan, FaultState, RecoveryPolicy};
use crate::metrics::{total_order_key, FaultMetrics, LatencyStats, SimMetrics};
use crate::parallel::derive_seed;
use crate::time::SimTime;
use crate::trace::{FrozenTrace, MAX_TRACE_REQUESTS};
use crate::workload::{expand_record, RequestSampler, WorkItem, WorkloadSpec};

/// Accelerator-side configuration for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadConfig {
    /// Threading design used to offload.
    pub design: ThreadingDesign,
    /// Acceleration strategy (selects overhead routing).
    pub strategy: AccelerationStrategy,
    /// Driver acknowledgement behaviour.
    pub driver: DriverMode,
    /// Device sharing discipline.
    pub device: DeviceKind,
    /// `A`: the accelerator's peak speedup over host execution.
    pub peak_speedup: f64,
    /// `L`: one-way interface latency in cycles.
    pub interface_latency: f64,
    /// `o0`: host setup cycles per offload.
    pub setup_cycles: f64,
    /// Extra host cycles per offload from effects outside the analytical
    /// model (cache/TLB pollution, completion interrupts). This is the
    /// simulator's stand-in for the production effects that make real
    /// speedups land below the model's estimate (§4).
    pub dispatch_pollution: f64,
    /// Minimum granularity to offload; smaller kernels run on the host
    /// (`None` offloads everything, as Cache3 must).
    pub min_offload_bytes: Option<f64>,
}

impl OffloadConfig {
    /// A zero-overhead on-chip Sync configuration: the baseline the
    /// engine's unit tests offload to.
    #[cfg(test)]
    pub(crate) fn on_chip_sync(peak_speedup: f64) -> Self {
        Self {
            design: ThreadingDesign::Sync,
            strategy: AccelerationStrategy::OnChip,
            driver: DriverMode::Posted,
            device: DeviceKind::PerCore,
            peak_speedup,
            interface_latency: 0.0,
            setup_cycles: 0.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        }
    }
}

/// Upper bound on [`SimConfig::threads`] (and so on `cores`) and on a
/// shared device's `servers` that [`SimConfig::validate`] accepts:
/// hundreds of times the largest value any shipped configuration or test
/// uses (24 threads, 8 servers), while keeping the per-thread and
/// per-server state a bounded size.
pub const MAX_THREADS: usize = 1 << 14;

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of host cores.
    pub cores: usize,
    /// Number of worker threads (> cores = oversubscription).
    pub threads: usize,
    /// `o1`: cycles per thread switch (context switch + cache pollution).
    pub context_switch_cycles: f64,
    /// Simulated horizon in host cycles.
    pub horizon: f64,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// The request workload.
    pub workload: WorkloadSpec,
    /// Accelerator configuration; `None` simulates the unaccelerated
    /// baseline (kernels execute on the host).
    pub offload: Option<OffloadConfig>,
    /// Fault-injection plan for the offload path. Defaults to
    /// [`FaultPlan::none`], which is provably zero-impact: the engine
    /// takes the identical code path, bit for bit.
    #[serde(default)]
    pub fault: FaultPlan,
    /// Recovery policy for faulted offloads. Defaults to
    /// [`RecoveryPolicy::none`] (no detection, no retries, no fallback).
    #[serde(default)]
    pub recovery: RecoveryPolicy,
}

impl SimConfig {
    /// Validates the configuration without building a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] for degenerate values
    /// that would otherwise panic deep in the engine or surface as NaN
    /// metrics (zero cores, fewer threads than cores, more than
    /// [`MAX_THREADS`] threads, a shared device with zero or more than
    /// [`MAX_THREADS`] servers, a zero or non-finite horizon, a negative
    /// or non-finite workload cost, more than
    /// [`MAX_KERNELS_PER_REQUEST`](crate::workload::MAX_KERNELS_PER_REQUEST)
    /// kernels per request, a malformed granularity CDF, malformed fault
    /// plans or recovery policies).
    pub fn validate(&self) -> Result<()> {
        ensure(
            self.cores > 0,
            "cores",
            self.cores as f64,
            "need at least one core",
        )?;
        ensure(
            self.threads >= self.cores,
            "threads",
            self.threads as f64,
            "threads must cover cores",
        )?;
        ensure(
            self.threads <= MAX_THREADS,
            "threads",
            self.threads as f64,
            "more threads than MAX_THREADS (16384)",
        )?;
        ensure(
            self.horizon.is_finite() && self.horizon > 0.0,
            "horizon",
            self.horizon,
            "horizon must be positive",
        )?;
        ensure(
            self.context_switch_cycles.is_finite() && self.context_switch_cycles >= 0.0,
            "context_switch_cycles",
            self.context_switch_cycles,
            "context switch cost must be finite and non-negative",
        )?;
        self.workload.validate()?;
        if let Some(o) = &self.offload {
            if let DeviceKind::Shared { servers } = o.device {
                ensure(
                    servers > 0,
                    "servers",
                    servers as f64,
                    "a shared device needs at least one server",
                )?;
                ensure(
                    servers <= MAX_THREADS,
                    "servers",
                    servers as f64,
                    "more servers than MAX_THREADS (16384)",
                )?;
            }
            ensure(
                o.peak_speedup.is_finite() && o.peak_speedup > 0.0,
                "peak_speedup",
                o.peak_speedup,
                "peak speedup must be positive",
            )?;
            ensure(
                o.interface_latency.is_finite() && o.interface_latency >= 0.0,
                "interface_latency",
                o.interface_latency,
                "interface latency must be finite and non-negative",
            )?;
            ensure(
                o.setup_cycles.is_finite() && o.setup_cycles >= 0.0,
                "setup_cycles",
                o.setup_cycles,
                "setup cost must be finite and non-negative",
            )?;
            ensure(
                o.dispatch_pollution.is_finite() && o.dispatch_pollution >= 0.0,
                "dispatch_pollution",
                o.dispatch_pollution,
                "dispatch pollution must be finite and non-negative",
            )?;
            if let Some(min) = o.min_offload_bytes {
                ensure(
                    min.is_finite() && min >= 0.0,
                    "min_offload_bytes",
                    min,
                    "offload threshold must be finite and non-negative",
                )?;
            }
        }
        self.fault.validate()?;
        self.recovery.validate()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(clippy::enum_variant_names)]
enum Event {
    /// A host slice finished; the thread continues on the same core.
    SliceDone { thread: usize, core: usize },
    /// A Sync-OS dispatch finished; the core frees and the thread blocks.
    DispatchDone { thread: usize, core: usize },
    /// An offload completed at the device.
    OffloadDone {
        thread: usize,
        request: usize,
        /// Whether a distinct response thread must pick up the result.
        pickup: bool,
        /// Whether the blocked thread should be woken (Sync-OS).
        wakes_thread: bool,
        /// Whether the offload was abandoned (fault injection): the
        /// request still completes but counts as failed.
        failed: bool,
    },
    /// A saga exhausted its retries and the recovery policy re-executes
    /// the kernel on the host (fault injection): queue the re-execution
    /// on the dispatching thread as a real slice that competes for a
    /// core. Only ever constructed on the `FAULTY = true` paths.
    FallbackDue {
        thread: usize,
        request: usize,
        /// Host cycles the re-execution costs.
        cycles: f64,
    },
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
enum ThreadState {
    #[default]
    Ready,
    Running,
    Blocked,
}

/// A thread's pending work items: a flat buffer with a consume cursor.
///
/// Each request's record is expanded into `buf` in place (clearing
/// without shrinking) and the cursor walks forward, so the common case
/// touches no ring-buffer wrap arithmetic — `pop_front` is an indexed load plus
/// an increment. The only front insertion is the Sync-OS wake-up charge,
/// which lands after at least one item was consumed, so it reuses the
/// slot just vacated by the cursor instead of shifting the buffer.
#[derive(Debug, Default)]
struct WorkQueue {
    buf: Vec<WorkItem>,
    head: usize,
}

impl WorkQueue {
    #[inline]
    fn pop_front(&mut self) -> Option<WorkItem> {
        let item = self.buf.get(self.head).copied();
        self.head += usize::from(item.is_some());
        item
    }

    fn push_front(&mut self, item: WorkItem) {
        if self.head > 0 {
            self.head -= 1;
            self.buf[self.head] = item;
        } else {
            self.buf.insert(0, item);
        }
    }
}

/// One worker thread. Both queues retain their allocations for the
/// whole run: `items` is refilled in place from each request's record
/// (cleared without shrinking), and `pickups` only ever pops what it
/// pushed — neither reallocates after warm-up.
#[derive(Debug)]
struct Thread {
    state: ThreadState,
    items: WorkQueue,
    request: usize,
    pickups: VecDeque<usize>,
}

impl Default for Thread {
    fn default() -> Self {
        Self {
            state: ThreadState::Ready,
            items: WorkQueue::default(),
            request: usize::MAX,
            pickups: VecDeque::new(),
        }
    }
}

/// Engine-internal counters returned by [`Simulator::run_instrumented`].
///
/// These are observability numbers for benchmarks and tests; they are
/// deliberately *not* part of [`SimMetrics`], whose serialized form is
/// pinned byte-for-byte by the golden-output tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Events popped and executed by the run loop.
    pub events_processed: u64,
    /// Peak number of live (incomplete) requests: the request slab's
    /// high-water mark, which stays O(in-flight) rather than growing
    /// with every request the horizon admits.
    pub peak_live_requests: usize,
    /// Entry moves the event heap performed sifting pushes up.
    pub heap_sift_ups: u64,
    /// Entry moves the event heap performed sifting pops down.
    pub heap_sift_downs: u64,
    /// Retired: always 0. The block-refilled sample bank it counted was
    /// deleted (requests now come from a frozen trace or an inline
    /// draw); the field stays only until the benchmark harness stops
    /// reading it.
    pub bank_refills: u64,
    /// Requests replayed from an adopted frozen trace instead of drawn
    /// inline; with cross-point reuse this is where sweep sampling cost
    /// goes.
    pub trace_requests_replayed: u64,
}

/// Request-slot flag: the host side of the request has finished.
const HOST_DONE: u8 = 1;
/// Request-slot flag: some offload belonging to the request failed.
const FAILED: u8 = 2;

/// Per-request accounting in struct-of-arrays layout, held in a slab
/// slot only while the request is live. Completion retires the slot to a
/// free list for the next request to recycle, so long-horizon memory
/// stays O(in-flight) and the hot slots stay cache-resident.
///
/// The arrays are parallel, indexed by slab handle. The layout matters
/// because the hot operations touch different subsets: offload
/// completions hit `outstanding`/`flags`/`lower_bound`, the completion
/// check reads `flags` + `outstanding` and only reaches `start` for the
/// one request that actually retires — with per-field arrays those
/// accesses pack 8–16× more live requests per cache line than the old
/// array-of-structs slab.
#[derive(Debug, Default)]
struct RequestSlab {
    start: Vec<SimTime>,
    outstanding: Vec<u32>,
    /// Bit set per slot: [`HOST_DONE`] | [`FAILED`].
    flags: Vec<u8>,
    /// Completion cannot precede this time (latest offload completion
    /// or pickup seen so far).
    lower_bound: Vec<SimTime>,
    /// Retired slots awaiting reuse (LIFO keeps them cache-hot).
    free: Vec<usize>,
}

impl RequestSlab {
    fn with_capacity(n: usize) -> Self {
        Self {
            start: Vec::with_capacity(n),
            outstanding: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            lower_bound: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Claims a slot for a request starting at `start`, recycling the
    /// most recently retired slot when one exists.
    fn alloc(&mut self, start: SimTime) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.start[slot] = start;
                self.outstanding[slot] = 0;
                self.flags[slot] = 0;
                self.lower_bound[slot] = start;
                slot
            }
            None => {
                self.start.push(start);
                self.outstanding.push(0);
                self.flags.push(0);
                self.lower_bound.push(start);
                self.start.len() - 1
            }
        }
    }

    fn retire(&mut self, slot: usize) {
        self.free.push(slot);
    }
}

/// The simulator.
pub struct Simulator {
    cfg: SimConfig,
    /// Precomputed request generator (inverse-CDF lookup); draws are
    /// bit-identical to `cfg.workload.draw_request`.
    sampler: RequestSampler,
    rng: StdRng,
    /// Scratch record for inline draws: one request's
    /// `kernels_per_request + 1` values, overwritten per request.
    record: Vec<f64>,
    /// An adopted frozen trace (shared by a batch's runs) plus the index
    /// of the next request to take from it. When the prefix runs out,
    /// the engine switches `rng` to the trace's continuation state and
    /// draws inline from then on.
    trace: Option<(Arc<FrozenTrace>, usize)>,
    now: SimTime,
    seq: u64,
    events: EventQueue<Event>,
    /// One-slot heap bypass: an event scheduled with a packed key below
    /// everything pending (heap minimum and any previously held slot) is
    /// provably the next to fire — sequence numbers are strictly
    /// increasing, so no later push can order before it. The run loop
    /// drains this slot before polling the heap, which spares the
    /// majority of events a sift-up *and* a sift-down: a thread's next
    /// slice usually starts before any other pending event.
    next_event: Option<(u128, Event)>,
    threads: Vec<Thread>,
    ready: VecDeque<usize>,
    free_cores: Vec<usize>,
    core_last_thread: Vec<Option<usize>>,
    device: Option<Device>,
    /// Fault-injection state; `None` when both the plan and the policy
    /// are inactive, so the fault-free path stays bit-identical.
    fault: Option<FaultState>,
    /// Request slab: live request state in struct-of-arrays layout.
    slab: RequestSlab,
    completed: u64,
    completed_failed: u64,
    /// Each completed request's latency as its [`total_order_key`],
    /// sorted in place by [`merge`]. Reserved once per run from the
    /// request estimate, so it normally never regrows mid-run.
    latency_keys: Vec<u64>,
    core_busy: f64,
    offloads: u64,
    suppressed: u64,
    switches: u64,
    events_processed: u64,
    trace_replayed: u64,
    live_requests: usize,
    peak_live_requests: usize,
    /// Whether the initial thread-to-core assignment has been made;
    /// flips on the first [`run_until`](Self::run_until) call so a
    /// paused engine can resume without re-priming.
    primed: bool,
}

/// Latency keys to reserve for a run of `cfg`: the frozen-trace estimate
/// of begun requests (which completions cannot outnumber), capped at
/// [`MAX_TRACE_REQUESTS`]. Reserved but untouched capacity is not
/// resident, and the one reservation spares the doubling copies.
fn latency_reserve(cfg: &SimConfig) -> usize {
    FrozenTrace::estimated_requests(cfg).min(MAX_TRACE_REQUESTS)
}

/// Validates a frozen trace against the config it is being installed
/// for, and normalizes empty traces to `None` (an empty prefix is a
/// no-op: the resume RNG equals the fresh seed state).
fn check_trace(
    cfg: &SimConfig,
    trace: Option<Arc<FrozenTrace>>,
) -> Result<Option<(Arc<FrozenTrace>, usize)>> {
    match trace {
        None => Ok(None),
        Some(t) => {
            if !t.matches(cfg) {
                return Err(SimError::InvalidConfig {
                    field: "trace",
                    value: t.seed() as f64,
                    reason: "frozen trace was drawn for a different seed or workload",
                });
            }
            Ok((!t.is_empty()).then_some((t, 0)))
        }
    }
}

impl Simulator {
    /// Builds a simulator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`try_new`](Self::try_new) rejects
    /// (zero cores, fewer threads than cores, zero horizon, …).
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Self::try_new(cfg).expect("Simulator::new needs a valid config; try_new reports errors")
    }

    /// Builds a simulator, reporting degenerate configurations as a
    /// structured error instead of panicking (or worse, producing NaN
    /// metrics from a zero horizon or zero cores).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] when
    /// [`SimConfig::validate`] rejects the configuration.
    pub fn try_new(cfg: SimConfig) -> Result<Self> {
        Self::try_new_with_trace(cfg, None)
    }

    /// [`try_new`](Self::try_new) with a frozen trace to adopt: the
    /// engine serves request draws from the trace's pre-drawn prefix
    /// and continues live drawing from the trace's resume RNG state
    /// afterwards — bit-identical to `try_new(cfg)` for a trace drawn
    /// from `cfg`'s seed and workload (batches rely on this to sample
    /// once per seed and workload instead of once per run).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] when the
    /// configuration is invalid or the trace was drawn for a different
    /// seed or workload.
    pub fn try_new_with_trace(
        cfg: SimConfig,
        trace: Option<Arc<FrozenTrace>>,
    ) -> Result<Self> {
        cfg.validate()?;
        let trace = check_trace(&cfg, trace)?;
        // The fault subsystem only exists when it can change behaviour;
        // its RNG is derived from (run seed, plan seed) and is disjoint
        // from the workload stream, so a disabled plan is zero-impact.
        let fault = (cfg.fault.is_active() || cfg.recovery.is_active()).then(|| {
            FaultState::new(
                cfg.fault.clone(),
                cfg.recovery,
                derive_seed(cfg.seed, cfg.fault.seed),
            )
        });
        // Every buffer is allocated at its run capacity up front.
        Ok(Self {
            sampler: cfg.workload.sampler(),
            rng: StdRng::seed_from_u64(cfg.seed),
            record: Vec::with_capacity(cfg.workload.kernels_per_request + 1),
            trace,
            now: SimTime::ZERO,
            seq: 0,
            // Pending events are bounded by threads plus in-flight
            // offload completions; 2×threads covers both in practice.
            events: EventQueue::with_capacity(2 * cfg.threads + 8),
            next_event: None,
            threads: (0..cfg.threads).map(|_| Thread::default()).collect(),
            ready: (0..cfg.threads).collect(),
            free_cores: (0..cfg.cores).rev().collect(),
            core_last_thread: vec![None; cfg.cores],
            device: cfg
                .offload
                .as_ref()
                .map(|o| Device::new(o.device, o.interface_latency, cfg.cores, cfg.horizon)),
            fault,
            // The slab only ever holds live requests, so sizing it to
            // the thread count (each thread drives one request, plus a
            // little slack for requests finishing asynchronously) avoids
            // regrowth for most runs.
            slab: RequestSlab::with_capacity(2 * cfg.threads),
            completed: 0,
            completed_failed: 0,
            latency_keys: Vec::with_capacity(latency_reserve(&cfg)),
            core_busy: 0.0,
            offloads: 0,
            suppressed: 0,
            switches: 0,
            events_processed: 0,
            trace_replayed: 0,
            live_requests: 0,
            peak_live_requests: 0,
            primed: false,
            cfg,
        })
    }

    /// Schedules `event` at `time`, routing it through the one-slot heap
    /// bypass when it is provably the next event to fire.
    ///
    /// Invariant: the held slot's key is strictly below every heap key.
    /// A new key below the held key therefore also undercuts the whole
    /// heap (it takes the slot, the displaced event re-enters the heap
    /// as its new minimum); a new key at or above the held key cannot be
    /// next, so it goes straight to the heap.
    fn push_event(&mut self, time: SimTime, event: Event) {
        self.seq += 1;
        let key = pack(time, self.seq);
        match self.next_event {
            None => {
                if key < self.events.min_key() {
                    self.next_event = Some((key, event));
                } else {
                    self.events.push_key(key, event);
                }
            }
            Some((held_key, held_event)) => {
                if key < held_key {
                    self.events.push_key(held_key, held_event);
                    self.next_event = Some((key, event));
                } else {
                    self.events.push_key(key, event);
                }
            }
        }
    }

    /// Runs the simulation to the horizon and returns the metrics.
    #[must_use]
    pub fn run(self) -> SimMetrics {
        self.run_instrumented().0
    }

    /// Runs the simulation and additionally returns engine-internal
    /// counters ([`EngineStats`]) that are not part of the serialized
    /// [`SimMetrics`] contract: benchmarks use the event count to report
    /// events/sec, and tests use the peak-live-request count to pin the
    /// O(in-flight) memory behaviour.
    #[must_use]
    pub fn run_instrumented(mut self) -> (SimMetrics, EngineStats) {
        self.run_until(self.cfg.horizon);
        merge(vec![self.into_shard_output()])
    }

    /// Advances the simulation until the next pending event would be
    /// later than `until` (events at exactly `until` are processed).
    /// Idempotent once drained; callable repeatedly with increasing
    /// bounds — the sharded runner pauses shards at epoch boundaries
    /// this way.
    ///
    /// The four monomorphizations fix the two run-level branches the
    /// old loop re-tested per event — "is there an accelerator?" and
    /// "is fault injection live?" — so the overwhelmingly common
    /// healthy paths carry no fault bookkeeping at all.
    pub(crate) fn run_until(&mut self, until: f64) {
        match (self.cfg.offload.is_some(), self.fault.is_some()) {
            (false, false) => self.advance::<false, false>(until),
            (false, true) => self.advance::<false, true>(until),
            (true, false) => self.advance::<true, false>(until),
            (true, true) => self.advance::<true, true>(until),
        }
    }

    /// The event loop. Each iteration takes the next due event either
    /// from the bypass slot (no heap traffic at all) or from the heap
    /// with one integer key compare ([`bound_key`] folds the horizon
    /// check into the heap order).
    ///
    /// Same-timestamp runs are processed by consecutive plain pops, not
    /// by buffering the run up front: sequence numbers are strictly
    /// increasing, so anything a handler pushes orders *after* every
    /// event already pending at that timestamp and the pop sequence is
    /// the exact global `(time, seq)` order either way. (A buffered
    /// drain of each run was measured slower: the dominant run length
    /// is 2, e.g. Sync's `OffloadDone`/`SliceDone` pair, and the buffer
    /// swap costs more than the second pop.)
    /// Bounded peeking leaves beyond-horizon events in the heap, which
    /// no observable state reads.
    fn advance<const OFFLOAD: bool, const FAULTY: bool>(&mut self, until: f64) {
        if !self.primed {
            self.primed = true;
            self.schedule::<OFFLOAD, FAULTY>();
        }
        let bound = bound_key(until);
        loop {
            // The bypass slot, when occupied, holds the globally next
            // event; only an empty slot falls through to the heap. A
            // slot beyond the bound implies the whole heap is too
            // (every heap key is larger), so the loop is done — the
            // slot is retained for the next `run_until` call.
            let (time, event) = match self.next_event {
                Some((key, event)) => {
                    if key > bound {
                        break;
                    }
                    self.next_event = None;
                    (unpack_time(key), event)
                }
                None => match self.events.pop_bounded(bound) {
                    Some(popped) => popped,
                    None => break,
                },
            };
            self.now = time;
            self.events_processed += 1;
            self.handle_event::<OFFLOAD, FAULTY>(event, time);
        }
    }

    /// Dispatches one popped event. Split out of [`advance`](Self::advance)
    /// so the singleton and batched paths share it; forced inline — it
    /// IS the loop body, and an outlined call would spill the loop's
    /// live registers on every event.
    #[inline(always)]
    fn handle_event<const OFFLOAD: bool, const FAULTY: bool>(&mut self, event: Event, time: SimTime) {
        match event {
            Event::SliceDone { thread, core } => {
                self.step_thread::<OFFLOAD, FAULTY>(thread, core, time);
            }
            Event::DispatchDone { thread, core } => {
                debug_assert_eq!(self.threads[thread].state, ThreadState::Blocked);
                self.release_core(core, thread);
                self.schedule::<OFFLOAD, FAULTY>();
            }
            Event::OffloadDone {
                thread,
                request,
                pickup,
                wakes_thread,
                failed,
            } => {
                self.slab.outstanding[request] -= 1;
                self.slab.flags[request] |= u8::from(failed) * FAILED;
                self.slab.lower_bound[request] = self.slab.lower_bound[request].max(time);
                if pickup {
                    // A distinct response thread steals cycles from the
                    // worker's core: inject the o1 pickup work.
                    self.threads[thread].pickups.push_back(request);
                    self.slab.outstanding[request] += 1; // held by pickup
                } else {
                    self.try_complete(request, time);
                }
                if wakes_thread {
                    // Waking the blocked thread costs a second o1 on top
                    // of the scheduler's switch-in charge: the
                    // interrupt/wakeup path plus the cache state the
                    // resumed thread must refill (eqn 3's 2·o1).
                    if self.cfg.context_switch_cycles > 0.0 {
                        self.threads[thread]
                            .items
                            .push_front(WorkItem::Host(self.cfg.context_switch_cycles));
                    }
                    self.threads[thread].state = ThreadState::Ready;
                    self.ready.push_back(thread);
                    self.schedule::<OFFLOAD, FAULTY>();
                }
            }
            Event::FallbackDue {
                thread,
                request,
                cycles,
            } => {
                // The host re-execution became eligible: make it the
                // thread's next slice so it occupies a core for the full
                // host cost, delaying everything scheduled behind it —
                // the capacity the old phantom `core_busy +=` credit
                // never actually took from anyone.
                self.threads[thread]
                    .items
                    .push_front(WorkItem::Fallback { request, cycles });
                if self.threads[thread].state == ThreadState::Blocked {
                    // Sync-OS: the dispatching thread blocked on the
                    // saga, and this delivery is what wakes it (taking
                    // over `OffloadDone`'s role, including the 2·o1
                    // wake charge, which runs before the fallback
                    // slice).
                    if self.cfg.context_switch_cycles > 0.0 {
                        self.threads[thread]
                            .items
                            .push_front(WorkItem::Host(self.cfg.context_switch_cycles));
                    }
                    self.threads[thread].state = ThreadState::Ready;
                    self.ready.push_back(thread);
                    self.schedule::<OFFLOAD, FAULTY>();
                }
            }
        }
    }

    fn release_core(&mut self, core: usize, last_thread: usize) {
        self.core_last_thread[core] = Some(last_thread);
        self.free_cores.push(core);
    }

    /// Accrues core-busy time for a slice beginning at `start`, clamped
    /// at the horizon: the part of a slice that runs past the end of the
    /// measurement window contributes no measured busy time (the same
    /// rule the device applies to its busy time at dispatch), keeping
    /// `core_utilization <= 1` exact. Only the accumulator clamps —
    /// event timing is untouched, and a slice that ends at or before
    /// the horizon charges bit-identically to the unclamped sum.
    #[inline]
    fn charge_busy(&mut self, start: SimTime, cycles: f64) {
        let room = (self.cfg.horizon - start.cycles()).max(0.0);
        self.core_busy += cycles.min(room);
    }

    /// Assign ready threads to free cores.
    fn schedule<const OFFLOAD: bool, const FAULTY: bool>(&mut self) {
        while let (Some(&core), Some(&thread)) = (self.free_cores.last(), self.ready.front()) {
            self.free_cores.pop();
            self.ready.pop_front();
            let mut start = self.now;
            if self.core_last_thread[core] != Some(thread) && self.core_last_thread[core].is_some()
            {
                // Context switch: restoring a different thread's state.
                self.charge_busy(start, self.cfg.context_switch_cycles);
                start += self.cfg.context_switch_cycles;
                self.switches += 1;
            }
            self.threads[thread].state = ThreadState::Running;
            self.step_thread::<OFFLOAD, FAULTY>(thread, core, start);
        }
    }

    /// Executes the thread's next action on `core` starting at `start`.
    fn step_thread<const OFFLOAD: bool, const FAULTY: bool>(
        &mut self,
        thread: usize,
        core: usize,
        start: SimTime,
    ) {
        // Pending response pickups run first (the distinct response
        // thread preempting the worker's core). Only `OffloadDone`
        // deliveries ever feed `pickups`, so the host-only
        // specialization drops the check entirely.
        if OFFLOAD {
            if let Some(request) = self.threads[thread].pickups.pop_front() {
                let end = start + self.cfg.context_switch_cycles;
                self.charge_busy(start, self.cfg.context_switch_cycles);
                self.slab.outstanding[request] -= 1;
                self.slab.lower_bound[request] = self.slab.lower_bound[request].max(end);
                self.try_complete(request, end);
                self.push_event(end, Event::SliceDone { thread, core });
                return;
            }
        }

        let item = loop {
            match self.threads[thread].items.pop_front() {
                Some(WorkItem::Host(c)) if c <= 0.0 => continue,
                Some(item) => break item,
                None => {
                    // Request (host side) finished; start the next one.
                    self.finish_host_side(thread, start);
                    self.begin_request(thread, start);
                    continue;
                }
            }
        };

        match item {
            WorkItem::Host(cycles) => {
                self.charge_busy(start, cycles);
                self.push_event(start + cycles, Event::SliceDone { thread, core });
            }
            WorkItem::Kernel { bytes } => {
                self.execute_kernel::<OFFLOAD, FAULTY>(thread, core, start, bytes);
            }
            WorkItem::Fallback { request, cycles } => {
                // Host re-execution of a failed offload: occupies this
                // core for the full host cost like any other slice. The
                // item carries its own request index — the thread may
                // already be several requests ahead by the time the
                // fallback runs (async designs keep working while the
                // saga plays out).
                let end = start + cycles;
                self.charge_busy(start, cycles);
                self.slab.outstanding[request] -= 1;
                self.slab.lower_bound[request] = self.slab.lower_bound[request].max(end);
                self.try_complete(request, end);
                self.push_event(end, Event::SliceDone { thread, core });
            }
        }
    }

    fn execute_kernel<const OFFLOAD: bool, const FAULTY: bool>(
        &mut self,
        thread: usize,
        core: usize,
        start: SimTime,
        bytes: f64,
    ) {
        let host_cycles = self.cfg.workload.kernel_host_cycles(bytes);
        if !OFFLOAD {
            self.charge_busy(start, host_cycles);
            self.push_event(start + host_cycles, Event::SliceDone { thread, core });
            return;
        }
        let offload = self.cfg.offload.expect("OFFLOAD implies a config");
        if let Some(min) = offload.min_offload_bytes {
            if bytes <= min {
                // Below break-even: execute locally.
                self.suppressed += 1;
                self.charge_busy(start, host_cycles);
                self.push_event(start + host_cycles, Event::SliceDone { thread, core });
                return;
            }
        }

        // Admission control (recovery policy): when the device's
        // predicted backlog exceeds the shed threshold, execute on the
        // host instead of joining a collapsing queue. Compiled out
        // entirely on the fault-free specialization.
        if FAULTY {
            if let (Some(device), Some(fault)) = (self.device.as_ref(), self.fault.as_mut()) {
                if let Some(limit) = fault.recovery.shed_backlog_cycles {
                    if device.predicted_queue_delay(start, core) > limit {
                        fault.metrics.shed_offloads += 1;
                        self.charge_busy(start, host_cycles);
                        self.push_event(start + host_cycles, Event::SliceDone { thread, core });
                        return;
                    }
                }
            }
        }

        // Dispatch to the accelerator.
        self.offloads += 1;
        let setup = offload.setup_cycles + offload.dispatch_pollution;
        let issue = start + setup;
        let service = host_cycles / offload.peak_speedup;
        let device = self
            .device
            .as_mut()
            .expect("offload config implies a device");
        // Under faults the single dispatch becomes a saga (retries,
        // backoff, timeout, fallback); `done` and `service_start` keep
        // their healthy-path meanings so the engagement rules below are
        // untouched. The fault-free arm is the exact original path, and
        // the `FAULTY = false` specialization contains only that arm.
        let (done, detect, service_start, failed, fallback_host_cycles) = if FAULTY {
            match self.fault.as_mut() {
                Some(fault) => {
                    let saga = fault.offload_saga(device, issue, core, service, host_cycles);
                    (
                        saga.done,
                        saga.detect,
                        saga.engaged_ref,
                        saga.abandoned,
                        saga.fallback_host_cycles,
                    )
                }
                None => {
                    let dispatch = device.dispatch(issue, core, service);
                    (dispatch.done, dispatch.done, dispatch.service_start, false, 0.0)
                }
            }
        } else {
            let dispatch = device.dispatch(issue, core, service);
            (dispatch.done, dispatch.done, dispatch.service_start, false, 0.0)
        };
        let request = self.threads[thread].request;
        // A saga that resolves by fallback schedules the host
        // re-execution as a real slice from the detection instant — it
        // must compete for a core, not be credited as phantom busy
        // time. Sync is the exception: its blocked round trip already
        // holds the core through `done`, which includes the
        // re-execution.
        let fell_back = FAULTY && fallback_host_cycles > 0.0;

        // Host-side engagement beyond setup: how long the core stays
        // occupied with this offload (the model's L+Q routing rules).
        let transfer_engaged = match (offload.design, offload.strategy, offload.driver) {
            (ThreadingDesign::Sync, _, _) => done, // blocked to completion
            (ThreadingDesign::SyncOs, AccelerationStrategy::Remote, _)
            | (ThreadingDesign::SyncOs, _, DriverMode::Posted) => issue,
            (ThreadingDesign::SyncOs, _, DriverMode::AwaitsAck) => service_start,
            (_, AccelerationStrategy::Remote, _) => issue,
            (_, _, _) => service_start,
        };

        match offload.design {
            ThreadingDesign::Sync => {
                // Core held for the whole round trip (Fig. 12) — under a
                // fallback `done` already includes the host
                // re-execution, charged here as held time.
                let held = done - start;
                self.charge_busy(start, held);
                self.slab.outstanding[request] += 1;
                self.push_event(
                    done,
                    Event::OffloadDone {
                        thread,
                        request,
                        pickup: false,
                        wakes_thread: false,
                        failed,
                    },
                );
                self.push_event(done, Event::SliceDone { thread, core });
            }
            ThreadingDesign::SyncOs => {
                // Core engaged through the ack, then switches away; the
                // thread blocks until the response (Fig. 13).
                let engaged_until = transfer_engaged.max(start);
                self.charge_busy(start, engaged_until - start);
                self.threads[thread].state = ThreadState::Blocked;
                self.slab.outstanding[request] += 1;
                self.push_event(engaged_until, Event::DispatchDone { thread, core });
                if fell_back {
                    // No response will arrive; the fallback delivery
                    // wakes the blocked thread (taking over
                    // `OffloadDone`'s role) and queues the re-execution
                    // as its next slice. Pushed after `DispatchDone` so
                    // a tie at `engaged_until` releases the core first.
                    self.push_event(
                        detect.max(engaged_until),
                        Event::FallbackDue {
                            thread,
                            request,
                            cycles: fallback_host_cycles,
                        },
                    );
                } else {
                    self.push_event(
                        done.max(engaged_until),
                        Event::OffloadDone {
                            thread,
                            request,
                            pickup: false,
                            wakes_thread: true,
                            failed,
                        },
                    );
                }
            }
            ThreadingDesign::AsyncSameThread
            | ThreadingDesign::AsyncDistinctThread
            | ThreadingDesign::AsyncNoResponse => {
                // Host engaged through dispatch, then keeps working
                // (Fig. 14).
                let engaged_until = transfer_engaged.max(start);
                self.charge_busy(start, engaged_until - start);
                self.slab.outstanding[request] += 1;
                if fell_back {
                    // The device never produced a result, so there is
                    // no response to deliver or pick up (even on
                    // DistinctThread, and even fire-and-forget Remote
                    // must re-execute to produce the effect): the
                    // re-execution is queued on the dispatching thread
                    // at detection time and holds the request open
                    // until it finishes on a core.
                    self.push_event(
                        detect.max(engaged_until),
                        Event::FallbackDue {
                            thread,
                            request,
                            cycles: fallback_host_cycles,
                        },
                    );
                } else {
                    let pickup = offload.design == ThreadingDesign::AsyncDistinctThread;
                    let track_completion = offload.design != ThreadingDesign::AsyncNoResponse
                        || offload.strategy != AccelerationStrategy::Remote;
                    if track_completion {
                        self.push_event(
                            done,
                            Event::OffloadDone {
                                thread,
                                request,
                                pickup,
                                wakes_thread: false,
                                failed,
                            },
                        );
                    } else {
                        // Remote fire-and-forget: the response never
                        // returns to this microservice, but an
                        // abandoned offload still fails the request.
                        self.slab.outstanding[request] -= 1;
                        self.slab.flags[request] |= u8::from(failed) * FAILED;
                    }
                }
                self.push_event(engaged_until, Event::SliceDone { thread, core });
            }
        }
    }

    fn begin_request(&mut self, thread: usize, start: SimTime) {
        let request = self.slab.alloc(start);
        self.live_requests += 1;
        self.peak_live_requests = self.peak_live_requests.max(self.live_requests);
        // Expand the next request into the thread's (drained) item buffer
        // so its allocation is reused request after request. Disjoint
        // field borrows keep the sampler, RNG, record, and buffer
        // independent. Priority: adopted frozen trace, then an inline
        // draw from the RNG.
        let Self {
            ref sampler,
            ref mut rng,
            ref mut threads,
            ref mut record,
            ref mut trace,
            ref mut trace_replayed,
            ..
        } = *self;
        let queue = &mut threads[thread].items;
        queue.head = 0;
        queue.buf.clear();
        match trace {
            Some((frozen, next)) => {
                expand_record(frozen.record(*next), &mut queue.buf);
                *next += 1;
                *trace_replayed += 1;
                // Prefix exhausted: continue live drawing from the RNG
                // state after the prefix — bit-identical to a run that
                // never had the trace (`check_trace` guarantees the
                // trace is non-empty, so `next` was in range).
                if *next == frozen.len() {
                    *rng = frozen.resume_rng().clone();
                    *trace = None;
                }
            }
            None => {
                record.clear();
                sampler.draw_record(rng, record);
                expand_record(record, &mut queue.buf);
            }
        }
        threads[thread].request = request;
    }

    fn finish_host_side(&mut self, thread: usize, at: SimTime) {
        let request = self.threads[thread].request;
        if request == usize::MAX {
            return; // first request of this thread
        }
        self.slab.flags[request] |= HOST_DONE;
        self.slab.lower_bound[request] = self.slab.lower_bound[request].max(at);
        self.try_complete(request, at);
    }

    fn try_complete(&mut self, request: usize, at: SimTime) {
        if self.slab.flags[request] & HOST_DONE == 0 || self.slab.outstanding[request] > 0 {
            return;
        }
        // A request completes exactly once: every caller either just
        // decremented `outstanding` (impossible once it reached zero
        // here) or just set `host_done` (set once per request), so no
        // call can observe this state again before the slot is reused.
        let end = self.slab.lower_bound[request].max(at);
        self.completed += 1;
        self.completed_failed += u64::from(self.slab.flags[request] & FAILED != 0);
        self.live_requests -= 1;
        self.latency_keys
            .push(total_order_key(end - self.slab.start[request]));
        self.slab.retire(request);
    }

    /// Drains the service demand the device accumulated since the last
    /// drain (0 without a device) — the sharded runner's per-epoch
    /// exchange payload.
    pub(crate) fn take_epoch_service(&mut self) -> f64 {
        self.device.as_mut().map_or(0.0, Device::take_epoch_service)
    }

    /// Occupies the device with `cycles` of foreign demand (demand
    /// dispatched by sibling shards on the same physical device).
    pub(crate) fn defer_device(&mut self, cycles: f64) {
        if let Some(d) = &mut self.device {
            d.defer_by(cycles);
        }
    }

    /// Number of device service units this engine models (0 without a
    /// device, or for an unlimited one).
    pub(crate) fn device_servers(&self) -> usize {
        self.device.as_ref().map_or(0, Device::servers)
    }

    /// Tears the engine down into the raw accumulators [`merge`] folds —
    /// the engine's only teardown. Only meaningful after the run reached
    /// the horizon.
    pub(crate) fn into_shard_output(self) -> ShardOutput {
        let stats = EngineStats {
            events_processed: self.events_processed,
            peak_live_requests: self.peak_live_requests,
            heap_sift_ups: self.events.sift_ups(),
            heap_sift_downs: self.events.sift_downs(),
            bank_refills: 0,
            trace_requests_replayed: self.trace_replayed,
        };
        let (device_busy, device_queue_delay_total, device_offloads, device_servers) = self
            .device
            .as_ref()
            .map_or((0.0, 0.0, 0, 0), |d| {
                (
                    d.busy_cycles(),
                    d.queue_delay_total(),
                    d.offloads(),
                    d.servers(),
                )
            });
        ShardOutput {
            cores: self.cfg.cores,
            horizon: self.cfg.horizon,
            completed: self.completed,
            completed_failed: self.completed_failed,
            latency_keys: self.latency_keys,
            core_busy: self.core_busy,
            offloads: self.offloads,
            suppressed: self.suppressed,
            switches: self.switches,
            stats,
            device_busy,
            device_queue_delay_total,
            device_offloads,
            device_servers,
            faults: self.fault.map(|f| f.metrics),
        }
    }
}

/// One engine's raw accumulators, before [`merge`] folds them — a
/// monolithic run folds its one output, the sharded runner its shards'
/// in shard-index order, so the result is independent of worker-pool
/// width.
#[derive(Debug)]
pub(crate) struct ShardOutput {
    /// The engine's cores (its slice of the machine when sharded).
    pub cores: usize,
    /// The run's horizon, which every engine of a run shares.
    pub horizon: f64,
    pub completed: u64,
    pub completed_failed: u64,
    /// Completed-request latencies as total-order keys, unsorted.
    pub latency_keys: Vec<u64>,
    pub core_busy: f64,
    pub offloads: u64,
    pub suppressed: u64,
    pub switches: u64,
    pub stats: EngineStats,
    pub device_busy: f64,
    pub device_queue_delay_total: f64,
    pub device_offloads: u64,
    pub device_servers: usize,
    pub faults: Option<FaultMetrics>,
}

/// Folds engine outputs, in order, into one run's [`SimMetrics`] and
/// [`EngineStats`] — the only place either is built. A monolithic run
/// folds its single output, a sharded run its shards' in shard-index
/// order, so a single-shard plan is bit-identical to the classic engine
/// by construction.
///
/// The first output's latency keys are moved, never copied, and their
/// buffer is grown once to take the rest; a monolithic run's keys are
/// sorted where the engine recorded them.
///
/// # Panics
///
/// Panics on an empty `outputs` (every run has at least one engine).
pub(crate) fn merge(mut outputs: Vec<ShardOutput>) -> (SimMetrics, EngineStats) {
    let horizon = outputs[0].horizon;
    let rest: usize = outputs[1..].iter().map(|o| o.latency_keys.len()).sum();
    let mut keys = std::mem::take(&mut outputs[0].latency_keys);
    keys.reserve_exact(rest);
    let mut cores = 0usize;
    let mut completed = 0u64;
    let mut completed_failed = 0u64;
    let mut core_busy = 0.0f64;
    let mut offloads = 0u64;
    let mut suppressed = 0u64;
    let mut switches = 0u64;
    let mut device_busy = 0.0f64;
    let mut device_queue_delay_total = 0.0f64;
    let mut device_offloads = 0u64;
    let mut device_servers = 0usize;
    let mut faults: Option<FaultMetrics> = None;
    let mut engine = EngineStats::default();
    for out in outputs {
        debug_assert_eq!(out.horizon.to_bits(), horizon.to_bits());
        cores += out.cores;
        completed += out.completed;
        completed_failed += out.completed_failed;
        core_busy += out.core_busy;
        offloads += out.offloads;
        suppressed += out.suppressed;
        switches += out.switches;
        device_busy += out.device_busy;
        device_queue_delay_total += out.device_queue_delay_total;
        device_offloads += out.device_offloads;
        device_servers += out.device_servers;
        keys.extend_from_slice(&out.latency_keys);
        if let Some(f) = &out.faults {
            let acc = faults.get_or_insert_with(FaultMetrics::default);
            acc.active |= f.active;
            acc.injected_failures += f.injected_failures;
            acc.latency_spikes += f.latency_spikes;
            acc.degraded_offloads += f.degraded_offloads;
            acc.timeouts += f.timeouts;
            acc.retries += f.retries;
            acc.fallbacks += f.fallbacks;
            acc.shed_offloads += f.shed_offloads;
            acc.abandoned_offloads += f.abandoned_offloads;
        }
        engine.events_processed += out.stats.events_processed;
        engine.peak_live_requests = engine.peak_live_requests.max(out.stats.peak_live_requests);
        engine.heap_sift_ups += out.stats.heap_sift_ups;
        engine.heap_sift_downs += out.stats.heap_sift_downs;
        engine.trace_requests_replayed += out.stats.trace_requests_replayed;
    }
    let faults = faults.map_or_else(FaultMetrics::default, |mut m| {
        m.failed_requests = completed_failed;
        m.goodput_per_gcycle = (completed - completed_failed) as f64 / horizon * 1e9;
        m
    });
    // The device's empirical `Q` and its utilization over the horizon
    // (busy time is clamped to the horizon at dispatch, so at most 1);
    // an unlimited device has no servers and reports 0.
    let mean_queue_delay = if device_offloads == 0 {
        0.0
    } else {
        device_queue_delay_total / device_offloads as f64
    };
    let device_utilization = if device_servers == 0 {
        0.0
    } else {
        device_busy / (device_servers as f64 * horizon)
    };
    let metrics = SimMetrics {
        horizon_cycles: horizon,
        completed_requests: completed,
        throughput_per_gcycle: completed as f64 / horizon * 1e9,
        latency: LatencyStats::from_keys(&mut keys),
        core_utilization: core_busy / (cores as f64 * horizon),
        offloads_dispatched: offloads,
        offloads_suppressed: suppressed,
        mean_queue_delay,
        device_utilization,
        device_offloads,
        thread_switches: switches,
        faults,
    };
    (metrics, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer::units::{cycles_per_byte, CyclesPerByte};
    use accelerometer::GranularityCdf;

    fn workload() -> WorkloadSpec {
        WorkloadSpec {
            non_kernel_cycles: 5_000.0,
            kernels_per_request: 1,
            granularity: GranularityCdf::from_points(vec![(256.0, 0.5), (1024.0, 1.0)]).unwrap(),
            cycles_per_byte: cycles_per_byte(2.0),
        }
    }

    fn base_config() -> SimConfig {
        SimConfig {
            cores: 4,
            threads: 4,
            context_switch_cycles: 0.0,
            horizon: 5e7,
            seed: 1,
            workload: workload(),
            offload: None,
            fault: FaultPlan::none(),
            recovery: RecoveryPolicy::none(),
        }
    }

    #[test]
    fn baseline_throughput_matches_mean_cost() {
        let metrics = Simulator::new(base_config()).run();
        // Expected: cores / mean_request_cycles per cycle.
        let expected = 4.0 / workload().mean_request_cycles() * 1e9;
        let got = metrics.throughput_per_gcycle;
        assert!(
            (got / expected - 1.0).abs() < 0.02,
            "throughput {got:.1} vs expected {expected:.1}"
        );
        // Saturated closed loop: cores ~always busy.
        assert!(metrics.core_utilization > 0.99);
        assert_eq!(metrics.offloads_dispatched, 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = Simulator::new(base_config()).run();
        let b = Simulator::new(base_config()).run();
        assert_eq!(a.completed_requests, b.completed_requests);
        assert_eq!(a.throughput_per_gcycle, b.throughput_per_gcycle);
        let mut cfg = base_config();
        cfg.seed = 2;
        let c = Simulator::new(cfg).run();
        assert_ne!(a.completed_requests, c.completed_requests);
    }

    #[test]
    fn on_chip_sync_acceleration_approaches_amdahl() {
        let mut cfg = base_config();
        cfg.offload = Some(OffloadConfig::on_chip_sync(4.0));
        let accel = Simulator::new(cfg).run();
        let base = Simulator::new(base_config()).run();
        let speedup = accel.throughput_per_gcycle / base.throughput_per_gcycle;
        let alpha = workload().expected_alpha();
        let amdahl = 1.0 / ((1.0 - alpha) + alpha / 4.0);
        assert!(
            (speedup / amdahl - 1.0).abs() < 0.03,
            "speedup {speedup:.4} vs Amdahl {amdahl:.4}"
        );
        assert!(accel.offloads_dispatched > 0);
        assert_eq!(accel.offloads_suppressed, 0);
    }

    #[test]
    fn selective_offload_suppresses_small_kernels() {
        let mut cfg = base_config();
        cfg.offload = Some(OffloadConfig {
            min_offload_bytes: Some(500.0),
            ..OffloadConfig::on_chip_sync(4.0)
        });
        let metrics = Simulator::new(cfg).run();
        assert!(metrics.offloads_suppressed > 0);
        assert!(metrics.offloads_dispatched > 0);
        // CDF: ~62% of kernels are <= 500 B.
        let total = metrics.offloads_dispatched + metrics.offloads_suppressed;
        let suppressed_fraction = metrics.offloads_suppressed as f64 / total as f64;
        assert!(
            (suppressed_fraction - 0.62).abs() < 0.05,
            "suppressed {suppressed_fraction}"
        );
    }

    #[test]
    fn shared_off_chip_device_exhibits_queueing() {
        let mut cfg = base_config();
        cfg.offload = Some(OffloadConfig {
            strategy: AccelerationStrategy::OffChip,
            device: DeviceKind::Shared { servers: 1 },
            driver: DriverMode::AwaitsAck,
            peak_speedup: 1.2, // slow device serving 4 cores → contention
            interface_latency: 100.0,
            ..OffloadConfig::on_chip_sync(1.2)
        });
        let metrics = Simulator::new(cfg).run();
        assert!(
            metrics.mean_queue_delay > 0.0,
            "no queueing despite contention"
        );
        // Sync blocking throttles the arrival rate (closed-loop
        // feedback), so utilization settles below the open-loop estimate
        // but the device must still be the visible bottleneck resource.
        assert!(
            metrics.device_utilization > 0.3,
            "device utilization {}",
            metrics.device_utilization
        );
    }

    #[test]
    fn sync_os_oversubscription_overlaps_offload_time() {
        // A slow shared device with Sync threading stalls cores; Sync-OS
        // with 2× threads should recover throughput.
        let offload = |design| OffloadConfig {
            design,
            strategy: AccelerationStrategy::OffChip,
            device: DeviceKind::Shared { servers: 4 },
            driver: DriverMode::Posted,
            peak_speedup: 2.0,
            interface_latency: 3_000.0,
            setup_cycles: 0.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        };
        let mut sync_cfg = base_config();
        sync_cfg.offload = Some(offload(ThreadingDesign::Sync));
        let sync = Simulator::new(sync_cfg).run();

        let mut os_cfg = base_config();
        os_cfg.threads = 16;
        os_cfg.context_switch_cycles = 200.0;
        os_cfg.offload = Some(offload(ThreadingDesign::SyncOs));
        let sync_os = Simulator::new(os_cfg).run();

        assert!(
            sync_os.throughput_per_gcycle > sync.throughput_per_gcycle,
            "Sync-OS {:.1} should beat Sync {:.1} under long offload latency",
            sync_os.throughput_per_gcycle,
            sync.throughput_per_gcycle
        );
        assert!(sync_os.thread_switches > 0);
        assert_eq!(sync.thread_switches, 0);
    }

    #[test]
    fn async_overlap_beats_sync_blocking() {
        let offload = |design| OffloadConfig {
            design,
            strategy: AccelerationStrategy::OffChip,
            device: DeviceKind::Shared { servers: 8 },
            driver: DriverMode::Posted,
            peak_speedup: 4.0,
            interface_latency: 2_000.0,
            setup_cycles: 50.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        };
        let mut sync_cfg = base_config();
        sync_cfg.offload = Some(offload(ThreadingDesign::Sync));
        let sync = Simulator::new(sync_cfg).run();

        let mut async_cfg = base_config();
        async_cfg.offload = Some(offload(ThreadingDesign::AsyncSameThread));
        let asynchronous = Simulator::new(async_cfg).run();

        assert!(
            asynchronous.throughput_per_gcycle > sync.throughput_per_gcycle,
            "async {:.1} vs sync {:.1}",
            asynchronous.throughput_per_gcycle,
            sync.throughput_per_gcycle
        );
        // But async latency still includes the accelerator time: the
        // latency distribution must reflect offload completion.
        assert!(asynchronous.latency.mean > 0.0);
    }

    #[test]
    fn remote_no_response_excludes_offload_from_latency() {
        let offload = |design, strategy| OffloadConfig {
            design,
            strategy,
            device: DeviceKind::Unlimited,
            driver: DriverMode::Posted,
            peak_speedup: 1.0,
            interface_latency: 500_000.0, // huge network hop
            setup_cycles: 100.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        };
        let mut remote_cfg = base_config();
        remote_cfg.offload = Some(offload(
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::Remote,
        ));
        let remote = Simulator::new(remote_cfg).run();

        let mut off_chip_cfg = base_config();
        off_chip_cfg.offload = Some(offload(
            ThreadingDesign::AsyncNoResponse,
            AccelerationStrategy::OffChip,
        ));
        let off_chip = Simulator::new(off_chip_cfg).run();

        // Remote fire-and-forget latency excludes the 500k-cycle hop;
        // off-chip latency includes it (eqn 8 vs eqn 6).
        assert!(
            remote.latency.mean < off_chip.latency.mean / 2.0,
            "remote {:.0} vs off-chip {:.0}",
            remote.latency.mean,
            off_chip.latency.mean
        );
    }

    #[test]
    fn distinct_thread_pickups_consume_core_cycles() {
        let mut cfg = base_config();
        cfg.context_switch_cycles = 1_000.0;
        cfg.offload = Some(OffloadConfig {
            design: ThreadingDesign::AsyncDistinctThread,
            strategy: AccelerationStrategy::Remote,
            device: DeviceKind::Unlimited,
            driver: DriverMode::Posted,
            peak_speedup: 1.0,
            interface_latency: 10_000.0,
            setup_cycles: 0.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        });
        let with_pickup = Simulator::new(cfg.clone()).run();

        cfg.offload.as_mut().unwrap().design = ThreadingDesign::AsyncNoResponse;
        cfg.offload.as_mut().unwrap().strategy = AccelerationStrategy::Remote;
        let no_pickup = Simulator::new(cfg).run();

        // The o1-per-response pickup cost must reduce throughput.
        assert!(
            with_pickup.throughput_per_gcycle < no_pickup.throughput_per_gcycle,
            "pickup {:.1} vs none {:.1}",
            with_pickup.throughput_per_gcycle,
            no_pickup.throughput_per_gcycle
        );
    }

    #[test]
    #[should_panic(expected = "threads must cover cores")]
    fn rejects_fewer_threads_than_cores() {
        let mut cfg = base_config();
        cfg.threads = 2;
        let _ = Simulator::new(cfg);
    }

    fn expect_invalid(cfg: SimConfig) -> crate::error::SimError {
        match Simulator::try_new(cfg) {
            Err(err) => err,
            Ok(_) => panic!("expected an invalid-config error"),
        }
    }

    #[test]
    fn degenerate_configs_error_instead_of_nan() {
        // Regression: horizon == 0 used to reach Engine::finish and
        // divide by zero (NaN throughput/utilization in serialized JSON);
        // cores == 0 used to panic deep in the scheduler.
        let mut cfg = base_config();
        cfg.horizon = 0.0;
        let err = expect_invalid(cfg);
        assert!(err.to_string().contains("horizon must be positive"), "{err}");

        let mut cfg = base_config();
        cfg.cores = 0;
        cfg.threads = 0;
        let err = expect_invalid(cfg);
        assert!(err.to_string().contains("need at least one core"), "{err}");

        let mut cfg = base_config();
        cfg.horizon = f64::NAN;
        assert!(Simulator::try_new(cfg).is_err());

        let mut cfg = base_config();
        cfg.fault.failure_probability = 2.0;
        assert!(Simulator::try_new(cfg).is_err());
    }

    fn faulty_offload() -> OffloadConfig {
        OffloadConfig {
            design: ThreadingDesign::AsyncSameThread,
            strategy: AccelerationStrategy::OffChip,
            device: DeviceKind::Shared { servers: 4 },
            driver: DriverMode::Posted,
            peak_speedup: 4.0,
            interface_latency: 2_000.0,
            setup_cycles: 50.0,
            dispatch_pollution: 0.0,
            min_offload_bytes: None,
        }
    }

    #[test]
    fn disabled_fault_plan_is_bit_identical() {
        let mut cfg = base_config();
        cfg.offload = Some(faulty_offload());
        let clean = Simulator::new(cfg.clone()).run();
        // Explicitly-none plan and policy (the serde defaults) must take
        // the identical code path: every metric matches bit for bit.
        cfg.fault = FaultPlan::none();
        cfg.recovery = RecoveryPolicy::none();
        let with_subsystem = Simulator::new(cfg).run();
        assert_eq!(clean, with_subsystem);
        assert!(!with_subsystem.faults.active);
    }

    #[test]
    fn injected_failures_without_recovery_cost_goodput() {
        let mut cfg = base_config();
        cfg.offload = Some(faulty_offload());
        cfg.fault = FaultPlan {
            failure_probability: 0.05,
            ..FaultPlan::none()
        };
        let m = Simulator::new(cfg).run();
        assert!(m.faults.active);
        assert!(m.faults.injected_failures > 0);
        assert_eq!(m.faults.abandoned_offloads, m.faults.injected_failures);
        assert!(m.faults.failed_requests > 0);
        assert!(m.faults.goodput_per_gcycle < m.throughput_per_gcycle);
    }

    #[test]
    fn retry_and_fallback_recover_goodput() {
        let mut cfg = base_config();
        cfg.offload = Some(faulty_offload());
        cfg.fault = FaultPlan {
            failure_probability: 0.05,
            ..FaultPlan::none()
        };
        let unprotected = Simulator::new(cfg.clone()).run();
        cfg.recovery = RecoveryPolicy {
            max_retries: 3,
            backoff_base_cycles: 1_000.0,
            fallback_to_host: true,
            ..RecoveryPolicy::none()
        };
        let protected = Simulator::new(cfg).run();
        assert!(protected.faults.retries > 0);
        assert_eq!(protected.faults.failed_requests, 0);
        assert!(
            protected.faults.goodput_per_gcycle > unprotected.faults.goodput_per_gcycle,
            "recovered {:.1} vs unprotected {:.1}",
            protected.faults.goodput_per_gcycle,
            unprotected.faults.goodput_per_gcycle
        );
    }

    #[test]
    fn fallback_slices_delay_co_scheduled_threads() {
        // One core, two Sync-OS threads: while one thread's fallback
        // re-execution occupies the core, the other thread must wait.
        // With every offload failing and zero retries, the fallback run
        // does the whole kernel on the host per request; the abandon run
        // skips that work entirely. Under the old phantom accounting
        // (`core_busy += fallback_host_cycles`, no scheduler slice) both
        // runs completed the *same* number of requests — the fallback
        // cycles delayed nobody. With real slices the shared core is the
        // bottleneck and the fallback run demonstrably completes fewer.
        let mut cfg = base_config();
        cfg.cores = 1;
        cfg.threads = 2;
        cfg.context_switch_cycles = 400.0;
        cfg.offload = Some(OffloadConfig {
            design: ThreadingDesign::SyncOs,
            ..faulty_offload()
        });
        cfg.fault = FaultPlan {
            failure_probability: 1.0,
            ..FaultPlan::none()
        };
        let abandoned = Simulator::new(cfg.clone()).run();
        cfg.recovery = RecoveryPolicy {
            fallback_to_host: true,
            ..RecoveryPolicy::none()
        };
        let fallback = Simulator::new(cfg).run();

        assert!(fallback.faults.fallbacks > 0);
        assert_eq!(fallback.faults.failed_requests, 0);
        // Every request failed without recovery, so goodput is zero
        // there and positive with fallback.
        assert_eq!(abandoned.faults.goodput_per_gcycle, 0.0);
        assert!(fallback.faults.goodput_per_gcycle > 0.0);
        // The real cost: the re-execution slices displace fresh work on
        // the only core. Materially fewer requests finish.
        assert!(
            (abandoned.completed_requests as f64) > 1.05 * fallback.completed_requests as f64,
            "abandon completed {} vs fallback {}",
            abandoned.completed_requests,
            fallback.completed_requests
        );
        // And the capacity books stay honest on both sides.
        assert!(abandoned.core_utilization <= 1.0 + 1e-9);
        assert!(fallback.core_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn downtime_window_inflates_tail_latency() {
        let mut cfg = base_config();
        // Remote keeps the host dispatching during the outage (engaged
        // only through issue), so the backlog — and the tail — builds.
        cfg.offload = Some(OffloadConfig {
            strategy: AccelerationStrategy::Remote,
            ..faulty_offload()
        });
        let healthy = Simulator::new(cfg.clone()).run();
        cfg.fault = FaultPlan {
            degradation: vec![crate::fault::DegradationWindow {
                down: true,
                ..crate::fault::DegradationWindow::slowdown(1e7, 2e7, 1.0)
            }],
            ..FaultPlan::none()
        };
        let degraded = Simulator::new(cfg).run();
        assert!(degraded.faults.degraded_offloads > 0);
        assert!(
            degraded.latency.p99 > 2.0 * healthy.latency.p99,
            "downtime p99 {:.0} vs healthy {:.0}",
            degraded.latency.p99,
            healthy.latency.p99
        );
    }

    #[test]
    fn run_until_pauses_and_resumes_bit_exactly() {
        let mut cfg = base_config();
        cfg.offload = Some(faulty_offload());
        cfg.fault = FaultPlan {
            failure_probability: 0.03,
            ..FaultPlan::none()
        };
        let one_shot = Simulator::new(cfg.clone()).run_instrumented();
        let mut paused = Simulator::new(cfg.clone());
        // Resume across many arbitrary epoch boundaries, including
        // repeats (idempotent once drained up to the bound).
        let h = cfg.horizon;
        for bound in [0.1, 0.25, 0.25, 0.5, 0.8, 0.99, 1.0] {
            paused.run_until(h * bound);
        }
        let split = paused.run_instrumented();
        assert_eq!(one_shot, split);
    }

    #[test]
    fn heap_sift_stats_are_reported() {
        let mut cfg = base_config();
        cfg.offload = Some(faulty_offload());
        let (_, stats) = Simulator::new(cfg).run_instrumented();
        assert!(stats.heap_sift_ups + stats.heap_sift_downs > 0);
    }

    #[test]
    fn sampling_stats_count_replayed_requests() {
        let cfg = base_config();
        // Without a trace every request is drawn inline.
        let (metrics, stats) = Simulator::new(cfg.clone()).run_instrumented();
        assert_eq!(stats.trace_requests_replayed, 0);
        assert_eq!(stats.bank_refills, 0, "retired counter");
        // A full-length frozen trace absorbs every draw: the replay
        // counter covers the completed requests.
        let trace = Arc::new(FrozenTrace::for_config(&cfg));
        let engine = Simulator::try_new_with_trace(cfg, Some(trace)).expect("trace matches");
        let (traced_metrics, traced_stats) = engine.run_instrumented();
        assert_eq!(metrics, traced_metrics);
        assert!(traced_stats.trace_requests_replayed >= traced_metrics.completed_requests);
    }

    #[test]
    fn degenerate_offload_configs_are_rejected() {
        // With `SimTime` arithmetic checks compiled out of release
        // builds, negative durations must be rejected at validation.
        type Poison = fn(&mut OffloadConfig);
        let cases: [(&str, Poison); 7] = [
            ("at least one server", |o| o.device = DeviceKind::Shared { servers: 0 }),
            ("more servers than MAX_THREADS", |o| {
                o.device = DeviceKind::Shared {
                    servers: 100_000_000_000_000,
                };
            }),
            ("peak speedup", |o| o.peak_speedup = 0.0),
            ("interface latency", |o| o.interface_latency = -1.0),
            ("setup cost", |o| o.setup_cycles = f64::NAN),
            ("dispatch pollution", |o| o.dispatch_pollution = -0.5),
            ("offload threshold", |o| {
                o.min_offload_bytes = Some(f64::INFINITY);
            }),
        ];
        for (what, poison) in cases {
            let mut cfg = base_config();
            let mut offload = faulty_offload();
            poison(&mut offload);
            cfg.offload = Some(offload);
            let err = expect_invalid(cfg);
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        // The server cap itself is accepted.
        let mut cfg = base_config();
        cfg.offload = Some(OffloadConfig {
            device: DeviceKind::Shared {
                servers: MAX_THREADS,
            },
            ..faulty_offload()
        });
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn degenerate_workloads_and_sizes_are_rejected() {
        // Each of these used to run: negative or infinite costs produced
        // negative or empty results, and the sizes exhausted memory or
        // aborted on capacity overflow.
        type Poison = fn(&mut SimConfig);
        let cases: [(&str, Poison); 7] = [
            ("cycles per byte", |c| {
                c.workload.cycles_per_byte = CyclesPerByte::new(-2.0);
            }),
            ("cycles per byte", |c| {
                c.workload.cycles_per_byte = CyclesPerByte::new(f64::INFINITY);
            }),
            ("non-kernel cycles", |c| c.workload.non_kernel_cycles = f64::INFINITY),
            ("non-kernel cycles", |c| c.workload.non_kernel_cycles = -1.0),
            ("MAX_KERNELS_PER_REQUEST", |c| {
                c.workload.kernels_per_request = 1_000_000_000_000;
            }),
            ("MAX_THREADS", |c| c.threads = 10_000_000_000_000),
            ("CDF breakpoint", |c| {
                // The derived `GranularityCdf` deserializer skips the
                // `from_points` checks; validation must not.
                c.workload.granularity =
                    serde_json::from_str(r#"{"points": [[-256.0, 0.4], [1024.0, 1.0]]}"#)
                        .expect("derived form accepts the shape");
            }),
        ];
        for (what, poison) in cases {
            let mut cfg = base_config();
            poison(&mut cfg);
            let err = cfg.validate().expect_err(what);
            assert!(err.to_string().contains(what), "{what}: {err}");
            let err = expect_invalid(cfg);
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        // The caps themselves are accepted.
        let mut cfg = base_config();
        cfg.threads = MAX_THREADS;
        cfg.workload.kernels_per_request = crate::workload::MAX_KERNELS_PER_REQUEST;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn workload_json_routes_granularity_through_from_points() {
        let mut value = serde_json::to_value(base_config().workload).expect("serializes");
        let text = value.to_pretty_string();
        let back: WorkloadSpec = serde_json::from_str(&text).expect("round trip");
        assert_eq!(back, base_config().workload);
        let serde::Value::Object(entries) = &mut value else {
            panic!("expected an object");
        };
        let granularity = &mut entries
            .iter_mut()
            .find(|(k, _)| k == "granularity")
            .expect("granularity entry")
            .1;
        *granularity = serde_json::from_str(r#"{"points": [[512.0, 0.5], [256.0, 1.0]]}"#)
            .expect("valid JSON");
        let err = serde_json::from_str::<WorkloadSpec>(&value.to_pretty_string())
            .expect_err("out-of-order CDF");
        assert!(err.to_string().contains("granularity"), "{err}");
    }

    #[test]
    fn admission_control_sheds_backlog_to_host() {
        let mut cfg = base_config();
        cfg.offload = Some(OffloadConfig {
            device: DeviceKind::Shared { servers: 1 },
            peak_speedup: 1.2,
            ..faulty_offload()
        });
        cfg.fault = FaultPlan {
            degradation: vec![crate::fault::DegradationWindow {
                down: true,
                ..crate::fault::DegradationWindow::slowdown(1e7, 2e7, 1.0)
            }],
            ..FaultPlan::none()
        };
        let waiting = Simulator::new(cfg.clone()).run();
        cfg.recovery = RecoveryPolicy {
            shed_backlog_cycles: Some(20_000.0),
            ..RecoveryPolicy::none()
        };
        let shedding = Simulator::new(cfg).run();
        assert!(shedding.faults.shed_offloads > 0);
        assert!(
            shedding.latency.p99 < waiting.latency.p99,
            "shed p99 {:.0} vs waiting p99 {:.0}",
            shedding.latency.p99,
            waiting.latency.p99
        );
    }
}
