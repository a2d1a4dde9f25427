//! Hardware acceleration strategies: on-chip, off-chip, and remote.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Where the accelerator sits relative to the host CPU (§3, "Acceleration
/// strategies").
///
/// The strategy determines the *scale* of the interface latency `L` and
/// which overheads reach the host's critical path:
///
/// * [`OnChip`](AccelerationStrategy::OnChip) — on-die optimizations such
///   as AES-NI or wider SIMD; offload latency is ns-scale and usually
///   negligible.
/// * [`OffChip`](AccelerationStrategy::OffChip) — devices reached over
///   PCIe or a coherent interconnect (GPUs, smart NICs, ASICs); offload
///   latency is µs-scale.
/// * [`Remote`](AccelerationStrategy::Remote) — off-platform devices
///   reached over the network (remote inference CPUs, in-network
///   accelerators); offload latency is ms-scale on commodity ethernet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum AccelerationStrategy {
    /// Acceleration integrated into the CPU die (e.g. AES-NI, SIMD).
    OnChip,
    /// Accelerator reached via PCIe or a coherent interconnect.
    OffChip,
    /// Accelerator reached via the datacenter network.
    Remote,
}

impl AccelerationStrategy {
    /// All strategies in paper order.
    pub const ALL: [AccelerationStrategy; 3] = [
        AccelerationStrategy::OnChip,
        AccelerationStrategy::OffChip,
        AccelerationStrategy::Remote,
    ];

    /// Whether the interface/queueing overhead (`L + Q`) reaches the
    /// host's throughput path under a Sync-OS design.
    ///
    /// §3 (eqn 3 discussion): `(L + Q)` persists when the host's device
    /// driver synchronously awaits an offload acknowledgement from an
    /// *off-chip* accelerator before switching threads, but `(L + Q) = 0`
    /// when the accelerator is remote (the network stack is asynchronous).
    /// For on-chip optimizations there is no device driver at all.
    #[must_use]
    pub fn driver_awaits_ack_by_default(self) -> bool {
        matches!(self, AccelerationStrategy::OffChip)
    }

    /// Whether the accelerator's operating time can appear in the
    /// *microservice's* per-request latency.
    ///
    /// §3 (Async no-response discussion): a remote accelerator's operation
    /// happens after the RPC has left the microservice, so it shows up in
    /// the end-to-end application latency rather than this microservice's
    /// request latency.
    #[must_use]
    pub fn accelerator_time_in_request_latency(self) -> bool {
        !matches!(self, AccelerationStrategy::Remote)
    }
}

impl fmt::Display for AccelerationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AccelerationStrategy::OnChip => "on-chip",
            AccelerationStrategy::OffChip => "off-chip",
            AccelerationStrategy::Remote => "remote",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_off_chip_driver_waits() {
        assert!(!AccelerationStrategy::OnChip.driver_awaits_ack_by_default());
        assert!(AccelerationStrategy::OffChip.driver_awaits_ack_by_default());
        assert!(!AccelerationStrategy::Remote.driver_awaits_ack_by_default());
    }

    #[test]
    fn remote_latency_leaves_request_path() {
        assert!(AccelerationStrategy::OnChip.accelerator_time_in_request_latency());
        assert!(AccelerationStrategy::OffChip.accelerator_time_in_request_latency());
        assert!(!AccelerationStrategy::Remote.accelerator_time_in_request_latency());
    }

    #[test]
    fn display_and_serde() {
        assert_eq!(AccelerationStrategy::OnChip.to_string(), "on-chip");
        let json = serde_json::to_string(&AccelerationStrategy::OffChip).unwrap();
        assert_eq!(json, "\"off-chip\"");
        let back: AccelerationStrategy = serde_json::from_str("\"remote\"").unwrap();
        assert_eq!(back, AccelerationStrategy::Remote);
    }
}
