//! The engine's event queue: a flat 4-ary min-heap over *packed*
//! entries.
//!
//! The previous queue was a `BinaryHeap<Reverse<EventEntry>>` whose
//! ordering ran through a `PartialOrd`/`Ord` comparator chain
//! (`SimTime::total_cmp`, then a sequence-number tie-break). This one
//! packs the `(time, seq)` pair into a single `u128` key whose unsigned
//! ordering is *exactly* the old comparator's ordering, so one integer
//! compare replaces the chain and the event payload rides inline next to
//! its key:
//!
//! * [`SimTime`] guarantees a non-negative, non-NaN `f64`, and for such
//!   floats `f64::to_bits` is strictly monotone with numeric order
//!   (IEEE-754 orders same-sign floats like their bit patterns), so the
//!   high 64 bits sort by time;
//! * the low 64 bits carry the scheduling sequence number, breaking
//!   time ties in insertion order exactly as before.
//!
//! Keys are unique (the engine's `seq` is strictly increasing), so *any*
//! correct min-heap pops the same total order the old comparator
//! produced — the property test below drives this queue and the retained
//! reference `BinaryHeap` through random schedules and asserts the pop
//! sequences are identical.
//!
//! The heap is 4-ary rather than binary: event queues here are shallow
//! (O(threads + in-flight offloads) entries), and a branching factor of
//! 4 halves the depth while keeping the child scan in one cache line's
//! worth of keys.

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
/// the engine's old `BinaryHeap<Reverse<EventEntry>>` produced.
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
    /// valid [`SimTime`] produces, so it can never falsely tie a real
    /// event's timestamp.
    #[inline]
    pub fn min_key(&self) -> u128 {
        self.heap.first().map_or(u128::MAX, |e| e.key)
    }

    /// Schedules `event` at `time` with tie-break sequence `seq`.
    ///
    /// `seq` must be unique across the queue's lifetime (the engine
    /// passes a strictly increasing counter); equal times then pop in
    /// insertion order. The engine itself packs keys up front (its
    /// bypass slot compares them before any heap traffic) and pushes
    /// through [`push_key`](Self::push_key); this form remains for the
    /// queue's own tests.
    #[cfg(test)]
    pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
        self.push_key(pack(time, seq), event);
    }

    /// [`push`](Self::push) with a pre-packed key — the engine's bypass
    /// slot holds packed keys and re-inserts displaced ones directly.
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
    /// [`bound_key`] bound, plus whether the *next* pending event shares
    /// this one's exact timestamp — i.e. whether a same-timestamp run
    /// continues. One call replaces the engine's old peek / bounds-check
    /// / pop sequence; the run flag costs a single extra compare against
    /// the root the sift-down just wrote and drives the engine's run
    /// accounting for free.
    #[inline]
    pub fn pop_bounded(&mut self, bound: u128) -> Option<(SimTime, E, bool)> {
        let top = *self.heap.first()?;
        if top.key > bound {
            return None;
        }
        self.remove_top();
        let tied = match self.heap.first() {
            Some(next) => next.key >> 64 == top.key >> 64,
            None => false,
        };
        Some((unpack_time(top.key), top.event, tied))
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
    #[derive(Debug, Default)]
    pub struct ReferenceQueue<E> {
        events: BinaryHeap<Reverse<EventEntry<E>>>,
    }

    impl<E> ReferenceQueue<E> {
        pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
            self.events.push(Reverse(EventEntry { time, seq, event }));
        }

        pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
            self.events
                .pop()
                .map(|Reverse(e)| (e.time, e.seq, e.event))
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
        /// event exactly when that event is due by the bound, and its
        /// `tied` flag says whether the reference's next event after it
        /// shares its timestamp — the engine's run accounting.
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
                                let (t, _, e) = reference.pop().expect("peeked");
                                Some((t, e, reference.peek_time() == Some(t)))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(got, want);
                    }
                }
            }
            // Drain through the unbounded bound, checking every `tied`.
            loop {
                let got = packed.pop_bounded(bound_key(f64::INFINITY));
                let want = reference
                    .pop()
                    .map(|(t, _, e)| (t, e, reference.peek_time() == Some(t)));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
