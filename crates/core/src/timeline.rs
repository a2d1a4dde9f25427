//! Offload timelines: the host/interface/accelerator schedules of
//! Figs. 11–14.
//!
//! Each figure in §3 illustrates where one offload's cycles land for a
//! threading design. This module constructs those schedules symbolically
//! from a parameter set and renders them as ASCII, both for documentation
//! and as a structural cross-check of the model: the cycles each design
//! charges to the host here must equal what the equations charge (tested
//! in the integration suite).

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::model::DriverMode;
use crate::params::OffloadOverheads;
use crate::strategy::AccelerationStrategy;
use crate::threading::ThreadingDesign;
use crate::units::Cycles;

/// Which resource a timeline segment occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Lane {
    /// The host CPU core.
    Host,
    /// The host↔accelerator interface (PCIe link, network, etc.).
    Interface,
    /// The accelerator device.
    Accelerator,
}

/// What a timeline segment represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Activity {
    /// Useful host work (kernel or non-kernel logic).
    HostWork,
    /// `o0`: preparing the kernel for offload.
    Setup,
    /// The host core idling while awaiting the accelerator.
    Blocked,
    /// `o1`: an OS thread switch.
    ThreadSwitch,
    /// `L`: data moving across the interface.
    Transfer,
    /// `Q`: the offload waiting for the accelerator.
    Queue,
    /// `αC/A`-style accelerator execution.
    AcceleratorExec,
}

impl Activity {
    /// One-character glyph for ASCII rendering.
    #[must_use]
    pub fn glyph(self) -> char {
        match self {
            Activity::HostWork => '#',
            Activity::Setup => 'o',
            Activity::Blocked => '.',
            Activity::ThreadSwitch => 'x',
            Activity::Transfer => 'L',
            Activity::Queue => 'Q',
            Activity::AcceleratorExec => 'A',
        }
    }

    /// Whether the segment consumes host cycles that the model charges to
    /// the throughput path.
    #[must_use]
    pub fn charges_host_throughput(self) -> bool {
        matches!(
            self,
            Activity::Setup | Activity::Blocked | Activity::ThreadSwitch
        )
    }
}

/// One contiguous interval of activity on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// The occupied resource.
    pub lane: Lane,
    /// Start time, in cycles from the offload's initiation.
    pub start: Cycles,
    /// End time (exclusive).
    pub end: Cycles,
    /// The activity performed.
    pub activity: Activity,
}

impl Segment {
    /// Segment duration in cycles.
    #[must_use]
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }
}

/// The inputs for drawing one offload's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineSpec {
    /// Host cycles the kernel would take if executed locally.
    pub kernel_cycles: Cycles,
    /// The accelerator's peak speedup (`A`).
    pub peak_speedup: f64,
    /// Per-offload overheads.
    pub overheads: OffloadOverheads,
    /// Threading design.
    pub design: ThreadingDesign,
    /// Acceleration strategy.
    pub strategy: AccelerationStrategy,
    /// Driver acknowledgement behaviour (Sync-OS only).
    pub driver: DriverMode,
}

impl TimelineSpec {
    /// The example offload that `accelctl timeline` and Figs. 11–14 draw:
    /// a 10,000-cycle kernel at `A = 10` with `o0 = 300`, `L = 600`,
    /// `Q = 200` and `o1 = 500` cycles, off-chip, under a driver that
    /// awaits the acknowledgement.
    #[must_use]
    pub fn demo(design: ThreadingDesign) -> Self {
        Self {
            kernel_cycles: Cycles::new(10_000.0),
            peak_speedup: 10.0,
            overheads: OffloadOverheads::new(300.0, 600.0, 200.0, 500.0),
            design,
            strategy: AccelerationStrategy::OffChip,
            driver: DriverMode::AwaitsAck,
        }
    }
}

/// The schedule of one offload across the three lanes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// The spec this timeline was built from.
    pub spec: TimelineSpec,
    segments: Vec<Segment>,
}

impl Timeline {
    /// Builds the Fig. 11–14 schedule for one offload.
    #[must_use]
    pub fn build(spec: TimelineSpec) -> Self {
        let ovh = spec.overheads;
        let accel_time = spec.kernel_cycles / spec.peak_speedup;
        let mut segments = Vec::new();
        let mut push = |lane: Lane, start: Cycles, dur: Cycles, activity: Activity| -> Cycles {
            if dur.get() > 0.0 {
                segments.push(Segment {
                    lane,
                    start,
                    end: start + dur,
                    activity,
                });
            }
            start + dur
        };

        // Host: setup, then design-specific behaviour.
        let t_setup_end = push(Lane::Host, Cycles::ZERO, ovh.setup, Activity::Setup);
        // Interface: transfer then queueing, starting when setup completes.
        let t_transfer_end = push(
            Lane::Interface,
            t_setup_end,
            ovh.interface,
            Activity::Transfer,
        );
        let t_queue_end = push(
            Lane::Interface,
            t_transfer_end,
            ovh.queueing,
            Activity::Queue,
        );
        // Accelerator: executes after the data arrives and the queue drains.
        let t_accel_end = push(
            Lane::Accelerator,
            t_queue_end,
            accel_time,
            Activity::AcceleratorExec,
        );

        match spec.design {
            ThreadingDesign::Sync => {
                // Fig. 12: the core blocks until the accelerator responds.
                push(
                    Lane::Host,
                    t_setup_end,
                    t_accel_end - t_setup_end,
                    Activity::Blocked,
                );
            }
            ThreadingDesign::SyncOs => {
                // Fig. 13: possibly await the ack, switch away, run another
                // thread, switch back when the response arrives.
                let ack_wait = match (spec.strategy, spec.driver) {
                    (AccelerationStrategy::Remote, _) | (_, DriverMode::Posted) => Cycles::ZERO,
                    (_, DriverMode::AwaitsAck) => ovh.interface + ovh.queueing,
                };
                let mut t = push(Lane::Host, t_setup_end, ack_wait, Activity::Blocked);
                t = push(Lane::Host, t, ovh.thread_switch, Activity::ThreadSwitch);
                // Another thread runs until the response arrives.
                let other_work = (t_accel_end - t).max(Cycles::ZERO);
                t = push(Lane::Host, t, other_work, Activity::HostWork);
                push(Lane::Host, t, ovh.thread_switch, Activity::ThreadSwitch);
            }
            ThreadingDesign::AsyncSameThread | ThreadingDesign::AsyncNoResponse => {
                // Fig. 14: the host keeps working through the offload.
                let transfer_on_host = match spec.strategy {
                    AccelerationStrategy::Remote => Cycles::ZERO,
                    _ => ovh.interface + ovh.queueing,
                };
                let t = push(Lane::Host, t_setup_end, transfer_on_host, Activity::Blocked);
                let remaining = (t_accel_end - t).max(Cycles::ZERO);
                push(Lane::Host, t, remaining, Activity::HostWork);
            }
            ThreadingDesign::AsyncDistinctThread => {
                let transfer_on_host = match spec.strategy {
                    AccelerationStrategy::Remote => Cycles::ZERO,
                    _ => ovh.interface + ovh.queueing,
                };
                let mut t = push(Lane::Host, t_setup_end, transfer_on_host, Activity::Blocked);
                let remaining = (t_accel_end - t).max(Cycles::ZERO);
                t = push(Lane::Host, t, remaining, Activity::HostWork);
                // A distinct response thread is scheduled to pick up the
                // completion: one switch.
                push(Lane::Host, t, ovh.thread_switch, Activity::ThreadSwitch);
            }
        }

        Self { spec, segments }
    }

    /// Segments on a given lane.
    pub fn lane(&self, lane: Lane) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.lane == lane)
    }

    /// Total cycles the timeline occupies (the offload's makespan).
    #[must_use]
    pub fn makespan(&self) -> Cycles {
        self.segments
            .iter()
            .map(|s| s.end)
            .fold(Cycles::ZERO, Cycles::max)
    }

    /// Host cycles this offload charges to the throughput path (setup +
    /// blocked + thread switches), which must agree with the model's
    /// per-offload overhead accounting.
    #[must_use]
    pub fn host_overhead_cycles(&self) -> Cycles {
        self.lane(Lane::Host)
            .filter(|s| s.activity.charges_host_throughput())
            .map(Segment::duration)
            .sum()
    }

    /// Renders the timeline as fixed-width ASCII art, one row per lane.
    #[must_use]
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(10);
        let span = self.makespan().get().max(1.0);
        let mut out = String::new();
        for (lane, label) in [
            (Lane::Host, "host       "),
            (Lane::Interface, "interface  "),
            (Lane::Accelerator, "accelerator"),
        ] {
            let mut row = vec![' '; width];
            for seg in self.lane(lane) {
                let a = ((seg.start.get() / span) * width as f64).floor() as usize;
                let b = ((seg.end.get() / span) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = seg.activity.glyph();
                }
            }
            let _ = writeln!(out, "{label} |{}|", row.iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "legend: #=work o=setup(o0) .=wait L=transfer Q=queue x=switch(o1) A=accelerator"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(design: ThreadingDesign) -> TimelineSpec {
        TimelineSpec {
            kernel_cycles: Cycles::new(10_000.0),
            peak_speedup: 10.0,
            overheads: OffloadOverheads::new(100.0, 300.0, 50.0, 200.0),
            design,
            strategy: AccelerationStrategy::OffChip,
            driver: DriverMode::AwaitsAck,
        }
    }

    #[test]
    fn sync_blocks_for_entire_offload() {
        let t = Timeline::build(spec(ThreadingDesign::Sync));
        // Host overhead = o0 + (L + Q + accel) = 100 + 300 + 50 + 1000.
        assert!((t.host_overhead_cycles().get() - 1_450.0).abs() < 1e-9);
        let blocked: Vec<_> = t
            .lane(Lane::Host)
            .filter(|s| s.activity == Activity::Blocked)
            .collect();
        assert_eq!(blocked.len(), 1);
        // The blocked window covers the accelerator's execution.
        let accel = t.lane(Lane::Accelerator).next().expect("accelerator runs");
        assert!(blocked[0].start <= accel.start && blocked[0].end >= accel.end);
    }

    #[test]
    fn sync_os_has_two_switches_and_overlapped_work() {
        let t = Timeline::build(spec(ThreadingDesign::SyncOs));
        let switches = t
            .lane(Lane::Host)
            .filter(|s| s.activity == Activity::ThreadSwitch)
            .count();
        assert_eq!(switches, 2);
        // Host overhead = o0 + (L+Q ack wait) + 2*o1 = 100 + 350 + 400.
        assert!((t.host_overhead_cycles().get() - 850.0).abs() < 1e-9);
        // Useful work overlaps the accelerator execution.
        assert!(t.lane(Lane::Host).any(|s| s.activity == Activity::HostWork));
    }

    #[test]
    fn sync_os_posted_driver_drops_ack_wait() {
        let mut s = spec(ThreadingDesign::SyncOs);
        s.driver = DriverMode::Posted;
        let t = Timeline::build(s);
        // Host overhead = o0 + 2*o1 only.
        assert!((t.host_overhead_cycles().get() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn async_same_thread_never_switches() {
        let t = Timeline::build(spec(ThreadingDesign::AsyncSameThread));
        assert!(t
            .lane(Lane::Host)
            .all(|s| s.activity != Activity::ThreadSwitch));
        // Host overhead = o0 + (L+Q) = 450 (eqn 6's per-offload term).
        assert!((t.host_overhead_cycles().get() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn async_distinct_thread_switches_once() {
        let t = Timeline::build(spec(ThreadingDesign::AsyncDistinctThread));
        let switches = t
            .lane(Lane::Host)
            .filter(|s| s.activity == Activity::ThreadSwitch)
            .count();
        assert_eq!(switches, 1);
    }

    #[test]
    fn remote_async_moves_transfer_off_host() {
        let mut s = spec(ThreadingDesign::AsyncSameThread);
        s.strategy = AccelerationStrategy::Remote;
        let t = Timeline::build(s);
        // Only o0 remains on the host.
        assert!((t.host_overhead_cycles().get() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn interface_carries_transfer_then_queue() {
        let t = Timeline::build(spec(ThreadingDesign::Sync));
        let iface: Vec<_> = t.lane(Lane::Interface).collect();
        assert_eq!(iface.len(), 2);
        assert_eq!(iface[0].activity, Activity::Transfer);
        assert_eq!(iface[1].activity, Activity::Queue);
        assert_eq!(iface[0].end, iface[1].start);
    }

    #[test]
    fn makespan_covers_all_segments() {
        let t = Timeline::build(spec(ThreadingDesign::Sync));
        let max_end = t
            .segments
            .iter()
            .map(|s| s.end.get())
            .fold(0.0_f64, f64::max);
        assert_eq!(t.makespan().get(), max_end);
    }

    #[test]
    fn ascii_rendering_has_three_lanes_and_legend() {
        let t = Timeline::build(spec(ThreadingDesign::SyncOs));
        let art = t.render_ascii(60);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("host"));
        assert!(lines[1].starts_with("interface"));
        assert!(lines[2].starts_with("accelerator"));
        assert!(lines[3].starts_with("legend"));
        assert!(art.contains('A'));
        assert!(art.contains('x'));
    }

    #[test]
    fn zero_duration_segments_are_elided() {
        let mut s = spec(ThreadingDesign::Sync);
        s.overheads = OffloadOverheads::NONE;
        let t = Timeline::build(s);
        assert!(t.segments.iter().all(|seg| seg.duration().get() > 0.0));
        assert!(t.lane(Lane::Interface).next().is_none());
    }
}
