//! Microservice threading designs for offloading work to an accelerator.
//!
//! The central insight of the Accelerometer paper (§3) is that the speedup
//! achievable from a hardware accelerator depends not only on the device
//! but on *how the microservice threads interact with it*. Prior models
//! (LogCA, LogP) assume the host blocks for the duration of the offload;
//! real microservices frequently overlap useful work with the offload,
//! which changes which overheads land on the throughput-critical path.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How a microservice thread interacts with the accelerator for an offload.
///
/// The variants correspond to the scenarios modeled in §3 of the paper
/// (Figs. 12–14) and validated in §4:
///
/// * [`Sync`](ThreadingDesign::Sync) — one thread per core; the core idles
///   while the accelerator operates (Fig. 12). Used by Cache1 with AES-NI.
/// * [`SyncOs`](ThreadingDesign::SyncOs) — threads are oversubscribed, so
///   the OS switches to another ready thread while the offloading thread
///   blocks; two thread switches (out and back) land on the throughput path
///   (Fig. 13).
/// * [`AsyncSameThread`](ThreadingDesign::AsyncSameThread) — the thread
///   continues working and later picks up the response itself; no thread
///   switch is incurred (Fig. 14).
/// * [`AsyncDistinctThread`](ThreadingDesign::AsyncDistinctThread) — a
///   dedicated response thread picks up completions; one thread switch per
///   offload. Used by Ads1's remote inference (§4, case study 3).
/// * [`AsyncNoResponse`](ThreadingDesign::AsyncNoResponse) — the host never
///   consumes the accelerator's response (e.g. an encryption device that
///   forwards the encrypted RPC directly downstream). Used by Cache3's
///   off-chip encryption (§4, case study 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ThreadingDesign {
    /// Synchronous offload with one thread per core: the core waits.
    Sync,
    /// Synchronous offload with thread oversubscription (`Sync-OS`).
    SyncOs,
    /// Asynchronous offload; the offloading thread picks up the response.
    AsyncSameThread,
    /// Asynchronous offload; a distinct thread picks up the response.
    AsyncDistinctThread,
    /// Asynchronous offload; the host does not consume the response.
    AsyncNoResponse,
}

impl ThreadingDesign {
    /// All threading designs, in the order they appear in the paper.
    pub const ALL: [ThreadingDesign; 5] = [
        ThreadingDesign::Sync,
        ThreadingDesign::SyncOs,
        ThreadingDesign::AsyncSameThread,
        ThreadingDesign::AsyncDistinctThread,
        ThreadingDesign::AsyncNoResponse,
    ];

    /// Number of thread-switch overheads (`o1`) on the **throughput**
    /// (speedup) critical path per offload.
    ///
    /// Sync-OS pays two switches (away from the blocked thread and back);
    /// an async design with a distinct response thread pays one; all other
    /// designs pay none.
    #[must_use]
    pub fn thread_switches_on_throughput_path(self) -> f64 {
        match self {
            ThreadingDesign::Sync
            | ThreadingDesign::AsyncSameThread
            | ThreadingDesign::AsyncNoResponse => 0.0,
            ThreadingDesign::SyncOs => 2.0,
            ThreadingDesign::AsyncDistinctThread => 1.0,
        }
    }

    /// Number of thread-switch overheads (`o1`) on the **per-request
    /// latency** critical path per offload.
    ///
    /// On the latency path, Sync-OS and distinct-thread async both pay a
    /// single switch: the request cannot complete until the response is
    /// picked up by a (re)scheduled thread.
    #[must_use]
    pub fn thread_switches_on_latency_path(self) -> f64 {
        match self {
            ThreadingDesign::Sync
            | ThreadingDesign::AsyncSameThread
            | ThreadingDesign::AsyncNoResponse => 0.0,
            ThreadingDesign::SyncOs | ThreadingDesign::AsyncDistinctThread => 1.0,
        }
    }

    /// Whether the accelerator's own operating time (`αC/A`) sits on the
    /// throughput-critical path.
    ///
    /// Only the plain synchronous design leaves the host core idle while
    /// the accelerator operates; every other design overlaps host work with
    /// accelerator work, removing `αC/A` from `CS`.
    #[must_use]
    pub fn accelerator_time_on_throughput_path(self) -> bool {
        matches!(self, ThreadingDesign::Sync)
    }

    /// Whether the host consumes the accelerator's response at all.
    #[must_use]
    pub fn consumes_response(self) -> bool {
        !matches!(self, ThreadingDesign::AsyncNoResponse)
    }
}

impl fmt::Display for ThreadingDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ThreadingDesign::Sync => "Sync",
            ThreadingDesign::SyncOs => "Sync-OS",
            ThreadingDesign::AsyncSameThread => "Async (same thread)",
            ThreadingDesign::AsyncDistinctThread => "Async (distinct thread)",
            ThreadingDesign::AsyncNoResponse => "Async (no response)",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_counts_match_paper_equations() {
        // Eqn (3): Sync-OS pays 2*o1 on the throughput path.
        assert_eq!(
            ThreadingDesign::SyncOs.thread_switches_on_throughput_path(),
            2.0
        );
        // §3 "(2) Asynchronous": distinct response thread pays a single o1.
        assert_eq!(
            ThreadingDesign::AsyncDistinctThread.thread_switches_on_throughput_path(),
            1.0
        );
        // Eqn (6): same-thread async pays no o1.
        assert_eq!(
            ThreadingDesign::AsyncSameThread.thread_switches_on_throughput_path(),
            0.0
        );
        assert_eq!(
            ThreadingDesign::Sync.thread_switches_on_throughput_path(),
            0.0
        );
        assert_eq!(
            ThreadingDesign::AsyncNoResponse.thread_switches_on_throughput_path(),
            0.0
        );
    }

    #[test]
    fn latency_switch_counts_match_eqn_5() {
        // Eqn (5): Sync-OS latency accounts for a single o1.
        assert_eq!(
            ThreadingDesign::SyncOs.thread_switches_on_latency_path(),
            1.0
        );
        assert_eq!(
            ThreadingDesign::AsyncDistinctThread.thread_switches_on_latency_path(),
            1.0
        );
        assert_eq!(ThreadingDesign::Sync.thread_switches_on_latency_path(), 0.0);
    }

    #[test]
    fn only_sync_blocks_the_core() {
        for design in ThreadingDesign::ALL {
            assert_eq!(
                design.accelerator_time_on_throughput_path(),
                design == ThreadingDesign::Sync
            );
        }
    }

    #[test]
    fn response_consumption() {
        assert!(ThreadingDesign::Sync.consumes_response());
        assert!(ThreadingDesign::AsyncSameThread.consumes_response());
        assert!(!ThreadingDesign::AsyncNoResponse.consumes_response());
    }

    #[test]
    fn display_names() {
        assert_eq!(ThreadingDesign::SyncOs.to_string(), "Sync-OS");
        assert_eq!(ThreadingDesign::Sync.to_string(), "Sync");
    }

    #[test]
    fn serde_kebab_case() {
        let json = serde_json::to_string(&ThreadingDesign::AsyncDistinctThread).unwrap();
        assert_eq!(json, "\"async-distinct-thread\"");
        let back: ThreadingDesign = serde_json::from_str("\"sync-os\"").unwrap();
        assert_eq!(back, ThreadingDesign::SyncOs);
    }
}
