//! The engine's event agenda: one timer slot per core, kept in a
//! tournament tree, beside a flat 4-ary min-heap for everything else.
//!
//! Every event is ordered by a *packed* `u128` key. The old queue was a
//! `BinaryHeap<Reverse<EventEntry>>` whose ordering ran through a
//! `PartialOrd`/`Ord` comparator chain (`SimTime::total_cmp`, then a
//! sequence-number tie-break). Packing the `(time, seq)` pair into one
//! integer whose unsigned ordering is *exactly* that comparator's
//! ordering makes every comparison one integer compare:
//!
//! * [`SimTime`] guarantees a non-negative, non-NaN `f64`, and for such
//!   floats `f64::to_bits` is strictly monotone with numeric order
//!   (IEEE-754 orders same-sign floats like their bit patterns), so the
//!   high 64 bits sort by time;
//! * the low 64 bits carry the scheduling sequence number, breaking
//!   time ties in insertion order exactly as before.
//!
//! Keys are unique (the engine's `seq` is strictly increasing), so *any*
//! structure that always yields the smallest pending key pops the same
//! total order the old comparator produced. The property tests below
//! drive the [`Agenda`] and the retained reference `BinaryHeap` through
//! random schedules and assert the pop sequences are identical.
//!
//! The split follows who schedules what. A slice end (or a Sync-OS
//! dispatch end) is scheduled by the thread that holds the core, and
//! the core stays held until that event fires, so each core has at most
//! one pending: it lives in the core's fixed slot of a [`CoreTimers`]
//! winner tree, with no heap traffic at all. Only device completions
//! and host fallbacks, which can pile up per thread, go through the
//! [`EventQueue`] heap. The heap is 4-ary rather than binary: a
//! branching factor of 4 halves the depth while keeping the child scan
//! in one cache line's worth of keys.

use crate::time::SimTime;

const ARITY: usize = 4;

/// One packed heap entry: the sortable key plus the payload.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    key: u128,
    event: E,
}

#[inline]
pub(crate) fn pack(time: SimTime, seq: u64) -> u128 {
    // Monotone for the non-negative, non-NaN times `SimTime` admits.
    (u128::from(time.cycles().to_bits()) << 64) | u128::from(seq)
}

#[inline]
pub(crate) fn unpack_time(key: u128) -> SimTime {
    // Exact inverse of `pack`'s time half; the bits are untouched, and
    // they came from a validated `SimTime`, so the debug-checked
    // constructor suffices.
    SimTime::from_valid(f64::from_bits((key >> 64) as u64))
}

/// The largest key an inclusive time bound admits: an event is due at
/// `time <= until` exactly when its key is `<= bound_key(until)`. Sound
/// for the same reason `pack` is monotone — non-negative times order by
/// bit pattern — while `u64::MAX` in the low half admits every sequence
/// number at the bound itself. This turns the engine's per-event
/// "unpack, then compare times as floats" into one integer compare.
#[inline]
pub(crate) fn bound_key(until: f64) -> u128 {
    (u128::from(until.to_bits()) << 64) | u128::from(u64::MAX)
}

/// A min-heap of `(time, seq)`-keyed events, popped in exactly the order
/// the engine's old `BinaryHeap<Reverse<EventEntry>>` produced. The
/// engine keeps only device completions and host fallbacks here; core
/// timers live in [`CoreTimers`].
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    /// Entry moves performed by `push` sift-ups (instrumentation).
    sift_ups: u64,
    /// Entry moves performed by `pop` sift-downs (instrumentation).
    sift_downs: u64,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: Vec::with_capacity(capacity),
            sift_ups: 0,
            sift_downs: 0,
        }
    }

    /// Entry moves performed by sift-ups since construction.
    pub fn sift_ups(&self) -> u64 {
        self.sift_ups
    }

    /// Entry moves performed by sift-downs since construction.
    pub fn sift_downs(&self) -> u64 {
        self.sift_downs
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The smallest pending key, or `u128::MAX` on an empty queue. The
    /// sentinel's time half is the all-ones (NaN) bit pattern, which no
    /// valid [`SimTime`] produces, so every real key undercuts it.
    #[inline]
    pub fn min_key(&self) -> u128 {
        self.heap.first().map_or(u128::MAX, |e| e.key)
    }

    /// Schedules `event` at `time` with tie-break sequence `seq`.
    ///
    /// `seq` must be unique across the queue's lifetime (the engine
    /// passes a strictly increasing counter); equal times then pop in
    /// insertion order. The engine packs keys up front, since core
    /// timers and heap events share one sequence, and pushes through
    /// [`push_key`](Self::push_key); this form remains for the queue's
    /// own tests.
    #[cfg(test)]
    pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
        self.push_key(pack(time, seq), event);
    }

    /// [`push`](Self::push) with a pre-packed key.
    #[inline]
    pub fn push_key(&mut self, key: u128, event: E) {
        let entry = Entry { key, event };
        // Sift up with a hole: move parents down until the new key fits.
        let mut hole = self.heap.len();
        self.heap.push(entry);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.heap[hole] = self.heap[parent];
            self.sift_ups += 1;
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    /// Removes and returns the earliest event (smallest time, then
    /// smallest sequence number). The engine pops through
    /// [`pop_bounded`](Self::pop_bounded) instead, which folds the
    /// horizon check in; the unbounded form remains for the queue's own
    /// tests.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        self.remove_top();
        Some((unpack_time(top.key), top.event))
    }

    /// Removes and returns the earliest event if it is due within a
    /// [`bound_key`] bound. One call replaces the engine's old peek /
    /// bounds-check / pop sequence.
    #[inline]
    pub fn pop_bounded(&mut self, bound: u128) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        if top.key > bound {
            return None;
        }
        self.remove_top();
        Some((unpack_time(top.key), top.event))
    }

    /// Removes the root entry, sifting the displaced last entry down.
    /// The heap must be non-empty.
    #[inline]
    fn remove_top(&mut self) {
        let last = self.heap.pop().expect("non-empty heap has a last entry");
        if !self.heap.is_empty() {
            // Sift the displaced last entry down from the root hole.
            let mut hole = 0;
            let len = self.heap.len();
            loop {
                let first_child = hole * ARITY + 1;
                if first_child >= len {
                    break;
                }
                let mut min_child = first_child;
                let mut min_key = self.heap[first_child].key;
                let end = (first_child + ARITY).min(len);
                for child in first_child + 1..end {
                    let key = self.heap[child].key;
                    if key < min_key {
                        min_child = child;
                        min_key = key;
                    }
                }
                if min_key >= last.key {
                    break;
                }
                self.heap[hole] = self.heap[min_child];
                self.sift_downs += 1;
                hole = min_child;
            }
            self.heap[hole] = last;
        }
    }
}

/// One timer slot per core, in a winner (tournament) tree whose root is
/// the earliest pending timer.
///
/// The tree is complete over `leaves`, the core count rounded up to a
/// power of two: node 1 is the root, node `n` has children `2n` and
/// `2n + 1`, and core `c`'s slot is node `leaves + c`. Each node holds
/// the smallest key in its subtree and the core that owns it. An empty
/// slot (and each padding leaf) holds `u128::MAX`, which every real key
/// undercuts.
///
/// Repair is lazy. Popping the root empties the winner's slot but leaves
/// the nodes on its path naming the popped key: the core nearly always
/// re-arms its slot while the popped event is handled, and that push
/// repairs the path once instead of twice. A slot still stale at the
/// next root read is repaired there. Until then every node off the
/// stale path is exact; a push to another core may carry the stale key
/// up past the two paths' meeting point, but only onto nodes of the
/// stale path, which its one repair recomputes.
#[derive(Debug)]
pub(crate) struct CoreTimers<T> {
    /// Smallest key in each node's subtree (index 0 unused).
    keys: Vec<u128>,
    /// The core whose key each node holds.
    winners: Vec<u32>,
    /// Each core's pending timer payload (stale while the slot is empty).
    timers: Vec<T>,
    /// Leaf count: the core count rounded up to a power of two.
    leaves: usize,
    /// The core whose slot was popped without its path being repaired,
    /// or `usize::MAX`.
    stale: usize,
}

impl<T: Copy + Default> CoreTimers<T> {
    /// A tree of `cores` empty slots.
    pub fn new(cores: usize) -> Self {
        let leaves = cores.next_power_of_two();
        let mut winners = vec![0; 2 * leaves];
        for (leaf, winner) in winners[leaves..].iter_mut().enumerate() {
            *winner = u32::try_from(leaf).expect("core counts are capped at MAX_THREADS");
        }
        Self {
            keys: vec![u128::MAX; 2 * leaves],
            winners,
            timers: vec![T::default(); cores],
            leaves,
            stale: usize::MAX,
        }
    }

    /// Whether `core` has no pending timer.
    pub fn is_idle(&self, core: usize) -> bool {
        self.keys[self.leaves + core] == u128::MAX
    }

    /// Arms `core`'s slot with `timer` at `key`; the slot must be empty.
    #[inline(always)]
    pub fn set(&mut self, core: usize, key: u128, timer: T) {
        self.timers[core] = timer;
        self.place(core, key);
        if self.stale == core {
            self.stale = usize::MAX;
        }
    }

    /// The earliest pending key, or `u128::MAX` when every slot is
    /// empty. Repairs a stale path first.
    #[inline(always)]
    pub fn min_key(&mut self) -> u128 {
        if self.stale != usize::MAX {
            self.place(self.stale, u128::MAX);
            self.stale = usize::MAX;
        }
        self.keys[1]
    }

    /// Empties the slot that [`min_key`](Self::min_key) just reported
    /// and returns its core and timer, leaving the path for the next
    /// [`set`](Self::set) or root read to repair.
    #[inline(always)]
    pub fn pop_min(&mut self) -> (usize, T) {
        debug_assert_eq!(self.stale, usize::MAX, "pop_min follows a min_key read");
        let core = self.winners[1] as usize;
        self.keys[self.leaves + core] = u128::MAX;
        self.stale = core;
        (core, self.timers[core])
    }

    /// Writes `key` into `core`'s slot and recomputes every node on its
    /// path. The path's minimum is carried up in registers, so each level
    /// reads only the sibling, never a node this call just wrote.
    #[inline(always)]
    fn place(&mut self, core: usize, key: u128) {
        let mut node = self.leaves + core;
        self.keys[node] = key;
        let (mut key, mut winner) = (key, core as u32);
        while node > 1 {
            let sibling = node ^ 1;
            if self.keys[sibling] < key {
                key = self.keys[sibling];
                winner = self.winners[sibling];
            }
            node >>= 1;
            self.keys[node] = key;
            self.winners[node] = winner;
        }
    }
}

/// What [`Agenda::pop_bounded`] hands back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Due<T, E> {
    /// The given core's timer fired.
    Core(usize, T),
    /// A heap event fired.
    Heap(E),
}

/// The engine's pending events: per-core timers plus the heap. Both
/// share one key space, so popping whichever holds the smaller key
/// yields the single global `(time, seq)` order.
#[derive(Debug)]
pub(crate) struct Agenda<T, E> {
    timers: CoreTimers<T>,
    heap: EventQueue<E>,
}

impl<T: Copy + Default, E: Copy> Agenda<T, E> {
    /// An agenda for `cores` cores with room for `capacity` heap events.
    pub fn new(cores: usize, capacity: usize) -> Self {
        Self {
            timers: CoreTimers::new(cores),
            heap: EventQueue::with_capacity(capacity),
        }
    }

    /// Whether `core` has no pending timer.
    pub fn is_idle(&self, core: usize) -> bool {
        self.timers.is_idle(core)
    }

    /// Arms `core`'s timer at `key`; the core must have none pending.
    #[inline(always)]
    pub fn set_timer(&mut self, core: usize, key: u128, timer: T) {
        self.timers.set(core, key, timer);
    }

    /// Schedules a heap event at `key`.
    #[inline(always)]
    pub fn push(&mut self, key: u128, event: E) {
        self.heap.push_key(key, event);
    }

    /// Removes and returns the earliest pending event if it is due
    /// within a [`bound_key`] bound.
    #[inline(always)]
    pub fn pop_bounded(&mut self, bound: u128) -> Option<(SimTime, Due<T, E>)> {
        let core_key = self.timers.min_key();
        if core_key < self.heap.min_key() {
            if core_key > bound {
                return None;
            }
            let (core, timer) = self.timers.pop_min();
            Some((unpack_time(core_key), Due::Core(core, timer)))
        } else {
            let (time, event) = self.heap.pop_bounded(bound)?;
            Some((time, Due::Heap(event)))
        }
    }

    /// Entry moves the heap performed sifting pushes up.
    pub fn sift_ups(&self) -> u64 {
        self.heap.sift_ups()
    }

    /// Entry moves the heap performed sifting pops down.
    pub fn sift_downs(&self) -> u64 {
        self.heap.sift_downs()
    }
}

/// The retained reference implementation: the engine's original
/// `BinaryHeap<Reverse<_>>` queue with the explicit comparator chain.
/// Kept compiled under `cfg(test)` so the property test can assert the
/// packed heap pops random schedules in the identical order.
#[cfg(test)]
mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    #[derive(Debug)]
    struct EventEntry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for EventEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for EventEntry<E> {}
    impl<E> PartialOrd for EventEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for EventEntry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
        }
    }

    /// The original queue, verbatim modulo the generic payload.
    #[derive(Debug)]
    pub struct ReferenceQueue<E> {
        events: BinaryHeap<Reverse<EventEntry<E>>>,
    }

    // Not derived: the derive would demand `E: Default` of payloads.
    impl<E> Default for ReferenceQueue<E> {
        fn default() -> Self {
            Self {
                events: BinaryHeap::new(),
            }
        }
    }

    impl<E> ReferenceQueue<E> {
        pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
            self.events.push(Reverse(EventEntry { time, seq, event }));
        }

        pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
            self.events.pop().map(|Reverse(e)| (e.time, e.seq, e.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.events.peek().map(|Reverse(e)| e.time)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceQueue;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::with_capacity(4);
        q.push(SimTime::new(30.0), 1, "late");
        q.push(SimTime::new(10.0), 2, "early");
        q.push(SimTime::new(10.0), 3, "early-after");
        q.push(SimTime::new(20.0), 4, "middle");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "early-after", "middle", "late"]);
    }

    #[test]
    fn pop_reports_the_exact_time() {
        let mut q = EventQueue::with_capacity(1);
        let t = SimTime::new(123.456_789);
        q.push(t, 1, ());
        let (popped, ()) = q.pop().expect("one event");
        assert_eq!(popped, t);
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_keeps_heap_property() {
        let mut q = EventQueue::with_capacity(8);
        for i in 0..100u64 {
            // Times decrease so every push lands at the root.
            q.push(SimTime::new(f64::from(200 - i as u32)), i + 1, i);
            if i % 3 == 0 {
                q.pop();
            }
        }
        let mut last = SimTime::ZERO;
        let mut remaining = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "heap order violated");
            last = t;
            remaining += 1;
        }
        assert!(remaining > 0);
        assert_eq!(q.len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedules — including deliberate time ties and
        /// fractional times — pop in identical order from the packed
        /// 4-ary heap and the retained `BinaryHeap` reference, through
        /// both the unbounded `pop` and the engine's `pop_bounded` at
        /// random bounds. A bounded pop yields the reference's next
        /// event exactly when that event is due by the bound.
        #[test]
        fn matches_reference_binary_heap(
            times in prop::collection::vec(0u32..50, 1..200),
            fractional in prop::collection::vec(0.0..1.0f64, 1..200),
            bounds in prop::collection::vec(0u32..60, 1..200),
            pop_every in 1usize..5,
        ) {
            let mut packed = EventQueue::with_capacity(16);
            let mut reference = ReferenceQueue::default();
            let mut seq = 0u64;
            let mut pops = 0usize;
            let n = times.len().min(fractional.len());
            for i in 0..n {
                // Coarse integer grid + occasional fractions: many exact
                // ties to exercise the seq tie-break.
                let time = SimTime::new(
                    f64::from(times[i]) + if i % 3 == 0 { fractional[i] } else { 0.0 },
                );
                seq += 1;
                packed.push(time, seq, seq);
                reference.push(time, seq, seq);
                if i % pop_every == 0 {
                    pops += 1;
                    if pops.is_multiple_of(2) {
                        let got = packed.pop();
                        let want = reference.pop().map(|(t, _, e)| (t, e));
                        prop_assert_eq!(got, want);
                    } else {
                        // Whole bounds land exactly on grid times (the
                        // bound is inclusive); halves fall between them.
                        let until = f64::from(bounds[pops % bounds.len()]) / 2.0;
                        let got = packed.pop_bounded(bound_key(until));
                        let want = match reference.peek_time() {
                            Some(t) if t.cycles() <= until => {
                                reference.pop().map(|(t, _, e)| (t, e))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(got, want);
                    }
                }
            }
            // Drain through the unbounded bound.
            loop {
                let got = packed.pop_bounded(bound_key(f64::INFINITY));
                let want = reference.pop().map(|(t, _, e)| (t, e));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }

        /// The engine's agenda (core timers plus heap) pops random
        /// schedules in the same order as one reference `BinaryHeap`
        /// holding every event. Like the engine, each core has at most
        /// one timer pending, device events pile up in any number, and
        /// the run advances in bounded pops that pause at a bound and
        /// resume after more pushes. A popped core is usually re-armed at
        /// once, as a thread's next slice is, and sometimes left empty
        /// while other cores are armed, so stale tree paths meet pushes
        /// elsewhere and the next root read.
        #[test]
        fn agenda_matches_reference_binary_heap(
            cores in 1usize..71,
            seed in 0u64..u64::MAX,
            steps in 20usize..300,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut agenda: Agenda<u64, u64> = Agenda::new(cores, 8);
            let mut reference = ReferenceQueue::default();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            // Coarse integer offsets make exact time ties common; about
            // one time in three gets a fraction.
            let later = |rng: &mut StdRng, now: f64| {
                let whole = f64::from(rng.gen_range(0u32..12));
                let fraction = if rng.gen_range(0u32..3) == 0 {
                    rng.gen_range(0.0..1.0)
                } else {
                    0.0
                };
                SimTime::new(now + whole + fraction)
            };
            for _ in 0..steps {
                match rng.gen_range(0u32..4) {
                    0 | 1 => {
                        let core = rng.gen_range(0..cores);
                        if agenda.is_idle(core) {
                            seq += 1;
                            let time = later(&mut rng, now);
                            agenda.set_timer(core, pack(time, seq), seq);
                            reference.push(time, seq, Due::Core(core, seq));
                        }
                    }
                    2 => {
                        seq += 1;
                        let time = later(&mut rng, now);
                        agenda.push(pack(time, seq), seq);
                        reference.push(time, seq, Due::Heap(seq));
                    }
                    _ => {
                        // Whole bounds land on grid times (the bound is
                        // inclusive); halves fall between them.
                        let until = now + f64::from(rng.gen_range(0u32..24)) / 2.0;
                        loop {
                            let got = agenda.pop_bounded(bound_key(until));
                            let want = match reference.peek_time() {
                                Some(t) if t.cycles() <= until => {
                                    reference.pop().map(|(t, _, due)| (t, due))
                                }
                                _ => None,
                            };
                            prop_assert_eq!(got, want);
                            let Some((time, due)) = got else { break };
                            now = time.cycles();
                            if let Due::Core(core, _) = due {
                                prop_assert!(agenda.is_idle(core));
                                if rng.gen_range(0u32..4) != 0 {
                                    seq += 1;
                                    let time = later(&mut rng, now);
                                    agenda.set_timer(core, pack(time, seq), seq);
                                    reference.push(time, seq, Due::Core(core, seq));
                                }
                            }
                            // Re-arms at an unchanged time could keep
                            // one bound busy for ever: cap the run.
                            if seq > 4 * steps as u64 {
                                break;
                            }
                        }
                    }
                }
            }
            loop {
                let got = agenda.pop_bounded(bound_key(f64::INFINITY));
                let want = reference.pop().map(|(t, _, due)| (t, due));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
