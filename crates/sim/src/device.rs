//! Accelerator device models: where an offload executes and how it
//! queues.
//!
//! The strategy determines the sharing discipline: an on-chip
//! optimization (AES-NI, AVX) is replicated per core, so offloads never
//! queue across cores; an off-chip device (PCIe ASIC) is a shared
//! single- or multi-server FIFO where queueing delay *emerges* from
//! load; a remote accelerator (a pool of remote CPUs) is effectively
//! unlimited and contributes only its service latency.
//!
//! The fault path ([`Device::dispatch_faulty`]) generalizes dispatch
//! with two perturbations — extra interface latency (a spike) and
//! [`DegradationWindow`]s that stretch or defer service — and the
//! healthy path delegates to it with both disabled, so the two can
//! never drift apart.

use accelerometer::AccelerationStrategy;
use serde::{Deserialize, Serialize};

use crate::fault::DegradationWindow;
use crate::time::SimTime;

/// The sharing discipline of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum DeviceKind {
    /// One private device per core (on-chip): never queues.
    PerCore,
    /// A shared FIFO device with `servers` parallel service units.
    Shared {
        /// Number of parallel service units.
        servers: usize,
    },
    /// Unlimited parallel servers (a remote pool).
    Unlimited,
}

impl DeviceKind {
    /// The paper's default discipline for a strategy.
    #[must_use]
    pub fn default_for(strategy: AccelerationStrategy) -> Self {
        match strategy {
            AccelerationStrategy::OnChip => DeviceKind::PerCore,
            AccelerationStrategy::OffChip => DeviceKind::Shared { servers: 1 },
            AccelerationStrategy::Remote => DeviceKind::Unlimited,
        }
    }
}

/// A dispatch outcome: when the offload's service starts and completes,
/// and how long it queued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// When the offload arrived at the device (after the interface hop).
    pub arrival: SimTime,
    /// When service began.
    pub service_start: SimTime,
    /// When service completed.
    pub done: SimTime,
    /// Queueing delay in cycles (`service_start − arrival`), including
    /// any deferral by a downtime window.
    pub queue_delay: f64,
    /// Whether a fault perturbed this dispatch (latency spike or a
    /// degradation window).
    pub degraded: bool,
}

/// A simulated accelerator device.
#[derive(Debug, Clone)]
pub struct Device {
    kind: DeviceKind,
    /// One-way interface latency in cycles (`L`).
    interface_latency: f64,
    /// `next_free[i]` for each server (PerCore: indexed by core).
    next_free: Vec<SimTime>,
    /// Service cycles rendered *within the horizon* (service running
    /// past the horizon does not count as utilization inside it).
    busy_cycles: f64,
    offloads: u64,
    queue_delay_total: f64,
    /// The run's horizon, for busy-time clamping.
    horizon: f64,
    /// Service cycles dispatched since the last [`take_epoch_service`]
    /// drain — the sharded engine's per-epoch demand exchange.
    epoch_service: f64,
}

impl Device {
    /// Creates a device.
    ///
    /// # Panics
    ///
    /// Panics if `interface_latency` is negative, the horizon is not
    /// positive, or a shared device has zero servers.
    #[must_use]
    pub fn new(kind: DeviceKind, interface_latency: f64, cores: usize, horizon: f64) -> Self {
        assert!(interface_latency >= 0.0, "negative interface latency");
        assert!(horizon > 0.0, "horizon must be positive");
        let servers = match kind {
            DeviceKind::PerCore => cores,
            DeviceKind::Shared { servers } => {
                assert!(servers > 0, "shared device needs at least one server");
                servers
            }
            DeviceKind::Unlimited => 0,
        };
        Self {
            kind,
            interface_latency,
            next_free: vec![SimTime::ZERO; servers],
            busy_cycles: 0.0,
            offloads: 0,
            queue_delay_total: 0.0,
            horizon,
            epoch_service: 0.0,
        }
    }

    /// Dispatches an offload issued at `now` from `core`, with the given
    /// device service time in cycles. FIFO within each server; shared
    /// devices pick the earliest-free server.
    pub fn dispatch(&mut self, now: SimTime, core: usize, service_cycles: f64) -> Dispatch {
        self.dispatch_faulty(now, core, service_cycles, 0.0, &[])
    }

    /// [`dispatch`](Self::dispatch) under fault injection: the interface
    /// hop is stretched by `extra_latency` (a spike) and service that
    /// would start inside a [`DegradationWindow`] is slowed by its
    /// multiplier or, for a downtime window, deferred to the window's
    /// end. With `extra_latency == 0` and no windows this is bit-exact
    /// to the healthy path.
    pub fn dispatch_faulty(
        &mut self,
        now: SimTime,
        core: usize,
        service_cycles: f64,
        extra_latency: f64,
        windows: &[DegradationWindow],
    ) -> Dispatch {
        let arrival = now + (self.interface_latency + extra_latency);
        let server = match self.kind {
            DeviceKind::PerCore => Some(core),
            DeviceKind::Shared { .. } => Some(earliest_free(&self.next_free)),
            DeviceKind::Unlimited => None,
        };
        let queued_start = server.map_or(arrival, |s| arrival.max(self.next_free[s]));
        let (service_start, multiplier, windowed) = apply_windows(queued_start, windows);
        let service = service_cycles * multiplier;
        let done = service_start + service;
        if let Some(s) = server {
            self.next_free[s] = done;
        }
        // Clamp busy-time accounting to the horizon: only the portion of
        // service rendered before the horizon is utilization within it.
        // The non-crossing case adds the unmodified service time so
        // healthy in-horizon dispatches stay bit-exact.
        if done.cycles() <= self.horizon {
            self.busy_cycles += service;
        } else {
            self.busy_cycles += (self.horizon - service_start.cycles().min(self.horizon)).max(0.0);
        }
        self.offloads += 1;
        self.queue_delay_total += service_start - arrival;
        self.epoch_service += service;
        Dispatch {
            arrival,
            service_start,
            done,
            queue_delay: service_start - arrival,
            degraded: windowed || extra_latency > 0.0,
        }
    }

    /// The queueing delay an offload issued at `now` from `core` would
    /// experience, from the device's current backlog (degradation
    /// windows excluded — this is the admission controller's cheap
    /// estimate, not a full dispatch).
    #[must_use]
    pub fn predicted_queue_delay(&self, now: SimTime, core: usize) -> f64 {
        let arrival = now + self.interface_latency;
        let free = match self.kind {
            DeviceKind::PerCore => self.next_free[core],
            DeviceKind::Shared { .. } => self.next_free[earliest_free(&self.next_free)],
            DeviceKind::Unlimited => return 0.0,
        };
        (free - arrival).max(0.0)
    }

    /// Total offloads dispatched.
    #[must_use]
    pub fn offloads(&self) -> u64 {
        self.offloads
    }

    /// Drains and returns the service cycles dispatched since the last
    /// drain. The sharded engine publishes this at each epoch boundary
    /// so sibling shards can account for demand they didn't dispatch
    /// themselves.
    pub(crate) fn take_epoch_service(&mut self) -> f64 {
        std::mem::take(&mut self.epoch_service)
    }

    /// Pushes every server's next-free time forward by `cycles` — the
    /// sharded engine's model of occupancy generated by sibling shards
    /// on the same physical device. A no-op for unlimited devices (no
    /// servers to occupy).
    ///
    /// The advance applies from each server's *current* next-free time,
    /// so backlog carried into the epoch and foreign demand compose
    /// additively, in the deterministic shard fold order.
    pub(crate) fn defer_by(&mut self, cycles: f64) {
        if cycles <= 0.0 {
            return;
        }
        for t in &mut self.next_free {
            *t += cycles;
        }
    }

    /// Cumulative in-horizon busy cycles (for shard merging).
    pub(crate) fn busy_cycles(&self) -> f64 {
        self.busy_cycles
    }

    /// Cumulative queueing delay in cycles (for shard merging).
    pub(crate) fn queue_delay_total(&self) -> f64 {
        self.queue_delay_total
    }

    /// Number of service units (0 for unlimited devices).
    pub(crate) fn servers(&self) -> usize {
        self.next_free.len()
    }
}

/// Index of the earliest-free server (first of equal minima, matching
/// the original `min_by_key` tie-break).
fn earliest_free(next_free: &[SimTime]) -> usize {
    let mut best = 0;
    for (i, t) in next_free.iter().enumerate().skip(1) {
        if *t < next_free[best] {
            best = i;
        }
    }
    best
}

/// Applies degradation windows to a tentative service start: a downtime
/// window defers the start to its end (repeatedly, if the deferral lands
/// inside another window — each deferral is strictly forward, so this
/// terminates), a slowdown window returns its service multiplier. The
/// first matching window in plan order wins.
fn apply_windows(base: SimTime, windows: &[DegradationWindow]) -> (SimTime, f64, bool) {
    if windows.is_empty() {
        return (base, 1.0, false);
    }
    let mut start = base;
    let mut hit = false;
    'defer: loop {
        for w in windows {
            if w.contains(start.cycles()) {
                hit = true;
                if w.down {
                    start = SimTime::new(w.end);
                    continue 'defer;
                }
                return (start, w.multiplier, true);
            }
        }
        return (start, 1.0, hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_disciplines_match_strategies() {
        assert_eq!(
            DeviceKind::default_for(AccelerationStrategy::OnChip),
            DeviceKind::PerCore
        );
        assert_eq!(
            DeviceKind::default_for(AccelerationStrategy::OffChip),
            DeviceKind::Shared { servers: 1 }
        );
        assert_eq!(
            DeviceKind::default_for(AccelerationStrategy::Remote),
            DeviceKind::Unlimited
        );
    }

    #[test]
    fn per_core_devices_never_queue_across_cores() {
        let mut d = Device::new(DeviceKind::PerCore, 10.0, 2, 1e9);
        let a = d.dispatch(SimTime::new(0.0), 0, 100.0);
        let b = d.dispatch(SimTime::new(0.0), 1, 100.0);
        assert_eq!(a.queue_delay, 0.0);
        assert_eq!(b.queue_delay, 0.0);
        assert_eq!(a.done.cycles(), 110.0);
        // Same core back-to-back does queue behind itself.
        let c = d.dispatch(SimTime::new(0.0), 0, 100.0);
        assert!(c.queue_delay > 0.0);
    }

    #[test]
    fn shared_device_queues_fifo() {
        let mut d = Device::new(DeviceKind::Shared { servers: 1 }, 0.0, 4, 1e9);
        let a = d.dispatch(SimTime::new(0.0), 0, 100.0);
        let b = d.dispatch(SimTime::new(10.0), 1, 100.0);
        assert_eq!(a.done.cycles(), 100.0);
        assert_eq!(b.service_start.cycles(), 100.0);
        assert_eq!(b.queue_delay, 90.0);
        assert_eq!(b.done.cycles(), 200.0);
        assert_eq!(d.queue_delay_total(), 90.0);
        assert_eq!(d.offloads(), 2);
    }

    #[test]
    fn multi_server_shared_device_parallelizes() {
        let mut d = Device::new(DeviceKind::Shared { servers: 2 }, 0.0, 4, 1e9);
        let a = d.dispatch(SimTime::new(0.0), 0, 100.0);
        let b = d.dispatch(SimTime::new(0.0), 1, 100.0);
        assert_eq!(a.queue_delay, 0.0);
        assert_eq!(b.queue_delay, 0.0);
        let c = d.dispatch(SimTime::new(0.0), 2, 100.0);
        assert_eq!(c.queue_delay, 100.0);
    }

    #[test]
    fn unlimited_devices_never_queue() {
        let mut d = Device::new(DeviceKind::Unlimited, 1_000.0, 1, 1e6);
        for i in 0..100 {
            let dispatch = d.dispatch(SimTime::new(f64::from(i)), 0, 50_000.0);
            assert_eq!(dispatch.queue_delay, 0.0);
            assert_eq!(dispatch.arrival.cycles(), f64::from(i) + 1_000.0);
        }
        // No service units, so the result fold reports 0 utilization.
        assert_eq!(d.servers(), 0);
    }

    #[test]
    fn interface_latency_delays_arrival() {
        let mut d = Device::new(DeviceKind::Shared { servers: 1 }, 2_300.0, 1, 1e9);
        let dispatch = d.dispatch(SimTime::new(100.0), 0, 50.0);
        assert_eq!(dispatch.arrival.cycles(), 2_400.0);
        assert_eq!(dispatch.done.cycles(), 2_450.0);
        assert!(!dispatch.degraded);
    }

    #[test]
    fn utilization_accounting() {
        let mut d = Device::new(DeviceKind::Shared { servers: 1 }, 0.0, 1, 1_000.0);
        d.dispatch(SimTime::new(0.0), 0, 400.0);
        assert_eq!(d.busy_cycles(), 400.0);
        assert_eq!(d.offloads(), 1);
    }

    /// Regression: service completing past the horizon used to count its
    /// full interval into busy time, pushing utilization above 1.0 at
    /// saturation. Busy time is now clamped to the horizon.
    #[test]
    fn utilization_is_clamped_at_the_horizon_boundary() {
        let mut d = Device::new(DeviceKind::Shared { servers: 1 }, 0.0, 1, 1_000.0);
        // Three back-to-back services: [0,400), [400,800), [800,1200).
        for _ in 0..3 {
            d.dispatch(SimTime::new(0.0), 0, 400.0);
        }
        // Unclamped accounting would report 1200 busy cycles in a
        // 1000-cycle horizon (utilization 1.2).
        assert_eq!(d.busy_cycles(), 1_000.0);
        // A dispatch entirely past the horizon adds nothing.
        d.dispatch(SimTime::new(999.0), 0, 400.0);
        assert_eq!(d.busy_cycles(), 1_000.0);
    }

    #[test]
    fn downtime_window_defers_service_to_window_end() {
        let mut d = Device::new(DeviceKind::Shared { servers: 1 }, 0.0, 1, 1e9);
        let windows = [DegradationWindow {
            down: true,
            ..DegradationWindow::slowdown(100.0, 5_000.0, 1.0)
        }];
        let a = d.dispatch_faulty(SimTime::new(200.0), 0, 50.0, 0.0, &windows);
        assert!(a.degraded);
        assert_eq!(a.service_start.cycles(), 5_000.0);
        assert_eq!(a.done.cycles(), 5_050.0);
        assert_eq!(a.queue_delay, 4_800.0);
    }

    #[test]
    fn slowdown_window_stretches_service() {
        let mut d = Device::new(DeviceKind::Shared { servers: 1 }, 0.0, 1, 1e9);
        let windows = [DegradationWindow::slowdown(0.0, 1_000.0, 8.0)];
        let a = d.dispatch_faulty(SimTime::new(10.0), 0, 50.0, 0.0, &windows);
        assert!(a.degraded);
        assert_eq!(a.done.cycles(), 10.0 + 400.0);
        // Outside the window, service is unperturbed.
        let b = d.dispatch_faulty(SimTime::new(2_000.0), 0, 50.0, 0.0, &windows);
        assert!(!b.degraded);
        assert_eq!(b.done.cycles(), 2_050.0);
    }

    #[test]
    fn chained_downtime_windows_defer_transitively() {
        let mut d = Device::new(DeviceKind::Unlimited, 0.0, 1, 1e9);
        let windows = [
            DegradationWindow { down: true, ..DegradationWindow::slowdown(0.0, 100.0, 1.0) },
            DegradationWindow { down: true, ..DegradationWindow::slowdown(100.0, 300.0, 1.0) },
        ];
        let a = d.dispatch_faulty(SimTime::new(50.0), 0, 10.0, 0.0, &windows);
        assert_eq!(a.service_start.cycles(), 300.0);
    }

    #[test]
    fn latency_spike_delays_arrival_and_marks_degraded() {
        let mut d = Device::new(DeviceKind::Unlimited, 100.0, 1, 1e9);
        let a = d.dispatch_faulty(SimTime::new(0.0), 0, 10.0, 900.0, &[]);
        assert!(a.degraded);
        assert_eq!(a.arrival.cycles(), 1_000.0);
    }

    #[test]
    fn faulty_path_with_no_faults_matches_healthy_path() {
        let mut healthy = Device::new(DeviceKind::Shared { servers: 2 }, 123.0, 4, 1e6);
        let mut faulty = healthy.clone();
        for i in 0..200 {
            let now = SimTime::new(f64::from(i) * 37.5);
            let service = 40.0 + f64::from(i % 7);
            let a = healthy.dispatch(now, (i as usize) % 4, service);
            let b = faulty.dispatch_faulty(now, (i as usize) % 4, service, 0.0, &[]);
            assert_eq!(a, b);
        }
        assert_eq!(
            healthy.busy_cycles().to_bits(),
            faulty.busy_cycles().to_bits()
        );
        assert_eq!(
            healthy.queue_delay_total().to_bits(),
            faulty.queue_delay_total().to_bits()
        );
        assert_eq!(healthy.offloads(), faulty.offloads());
    }

    #[test]
    fn predicted_queue_delay_tracks_backlog() {
        let mut d = Device::new(DeviceKind::Shared { servers: 1 }, 100.0, 1, 1e9);
        assert_eq!(d.predicted_queue_delay(SimTime::new(0.0), 0), 0.0);
        d.dispatch(SimTime::new(0.0), 0, 5_000.0);
        // Server busy until 5100; an offload issued at 500 arrives at 600
        // and waits 4500.
        assert_eq!(d.predicted_queue_delay(SimTime::new(500.0), 0), 4_500.0);
        // Unlimited devices never backlog.
        let u = Device::new(DeviceKind::Unlimited, 100.0, 1, 1e9);
        assert_eq!(u.predicted_queue_delay(SimTime::new(0.0), 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_server_shared_rejected() {
        let _ = Device::new(DeviceKind::Shared { servers: 0 }, 0.0, 1, 1e9);
    }
}
