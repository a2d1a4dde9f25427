//! Deterministic fan-out of independent jobs over scoped worker threads.
//!
//! Every batch experiment in the workspace — model batches, simulator
//! load sweeps, A/B case studies, ablations, figure regeneration — is a
//! set of *independent* jobs whose results must land in input order and
//! be byte-identical whether they ran on one thread or many. This module
//! is the single primitive they all share: a scoped pool that hands jobs
//! to workers through an atomic cursor and reassembles results by index,
//! so scheduling order can never leak into output order.
//!
//! Determinism contract: a job may depend only on its input and index
//! (simulation jobs carry their own RNG seed in their config), so
//! `ExecPool::new(1)` and `ExecPool::new(n)` produce identical results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Process-wide default worker count; `0` means "ask the OS".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism (at least 1).
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Sets the process-wide default worker count that a run context starts
/// from. `0` restores the "available parallelism" behaviour. `accelctl`
/// passes its `--jobs N` flag down as a value instead; this setter stays
/// for the benchmark harness.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The current default worker count: the value set via
/// [`set_default_jobs`], or [`available_jobs`] when unset.
#[must_use]
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => available_jobs(),
        n => n,
    }
}

/// A fixed-width pool for running independent jobs on scoped threads.
///
/// Results always preserve input order. With one worker (or one job) the
/// pool degenerates to a plain sequential loop with no thread spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    jobs: usize,
}

impl ExecPool {
    /// A pool with exactly `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Maps `f` over `items`, preserving input order in the output.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// Applies `f` to every item in place, fanning contiguous chunks
    /// out to workers. Each item is visited exactly once with its
    /// index; because items are disjoint `&mut` borrows and `f` returns
    /// nothing through the pool, the post-state is identical at any
    /// worker count as long as `f(i, item)` depends only on `i` and
    /// `item` — the contract the sharded simulator's epoch barrier
    /// relies on.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let count = items.len();
        if count == 0 {
            return;
        }
        let workers = self.jobs.min(count);
        if workers <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = count.div_ceil(workers);
        std::thread::scope(|scope| {
            for (c, chunk_items) in items.chunks_mut(chunk).enumerate() {
                let f = &f;
                scope.spawn(move || {
                    for (j, item) in chunk_items.iter_mut().enumerate() {
                        f(c * chunk + j, item);
                    }
                });
            }
        });
    }

    /// Runs `f(0), f(1), …, f(count - 1)` and returns the results in
    /// index order. Workers pull indices from a shared cursor, so
    /// heterogeneous job costs balance dynamically.
    pub fn run<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let workers = self.jobs.min(count);
        if workers <= 1 {
            return (0..count).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    // The receiver outlives every sender inside the scope.
                    let _ = tx.send((i, f(i)));
                });
            }
            drop(tx);
            let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
            for (i, result) in rx {
                slots[i] = Some(result);
            }
            slots
                .into_iter()
                .map(|r| r.expect("every job reports exactly once"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_width() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for jobs in [1, 2, 8, 128] {
            let got = ExecPool::new(jobs).map(&items, |_, &x| x * x);
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = ExecPool::new(4);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(pool.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn run_passes_each_index_once() {
        let got = ExecPool::new(3).run(17, |i| i);
        assert_eq!(got, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_visits_every_item_once_at_any_width() {
        for jobs in [1, 2, 5, 64] {
            let mut items: Vec<usize> = (0..23).collect();
            ExecPool::new(jobs).for_each_mut(&mut items, |i, item| {
                assert_eq!(*item, i, "index mismatch at jobs = {jobs}");
                *item += 100;
            });
            let expected: Vec<usize> = (100..123).collect();
            assert_eq!(items, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn default_jobs_round_trips() {
        // Serially within one test to avoid cross-test races on the
        // global: set, read, restore.
        set_default_jobs(5);
        assert_eq!(default_jobs(), 5);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }
}
