//! Simulation metrics: throughput, latency distribution, and utilization.

use serde::{Deserialize, Serialize};

/// Summary statistics of a latency sample, in cycles.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of completed requests sampled.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// Median latency.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile — the SLO guardian's number.
    pub p99: f64,
    /// Maximum observed latency.
    pub max: f64,
}

impl LatencyStats {
    /// Computes summary statistics from raw samples: maps each through
    /// [`total_order_key`] and defers to [`from_keys`](Self::from_keys).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut keys: Vec<u64> = samples.iter().map(|&x| total_order_key(x)).collect();
        Self::from_keys(&mut keys)
    }

    /// Summary statistics of samples given as [`total_order_key`]s,
    /// sorting `keys` in place. The engine records each completed
    /// request's latency as its key, so the run's one latency buffer is
    /// also the sort buffer.
    ///
    /// The statistics are *bit-identical* to the original
    /// clone-and-`sort_by(total_cmp)` implementation: the key transform
    /// is monotone in the order `f64::total_cmp` defines, and the `u64`
    /// keys are sorted with the branchless integer `sort_unstable`, which
    /// measures 1.7–2× faster than both the comparison sort it replaced
    /// and an LSD radix sort at every realistic sample count (10k–1M).
    /// Producing the full ascending order — rather than
    /// `select_nth_unstable_by` partitions — matters for exactness: the
    /// mean is a sequential f64 fold over the *sorted* sequence, and any
    /// other summation order could round differently in the last ulp,
    /// which the golden-output tests would flag as drift.
    #[must_use]
    pub fn from_keys(keys: &mut [u64]) -> Self {
        let n = keys.len();
        if n == 0 {
            return Self::default();
        }
        keys.sort_unstable();
        let mut sum = 0.0;
        for &k in keys.iter() {
            sum += key_to_f64(k);
        }
        let pick = |p: f64| key_to_f64(keys[((n - 1) as f64 * p).round() as usize]);
        Self {
            count: n,
            mean: sum / n as f64,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: key_to_f64(keys[n - 1]),
        }
    }
}

/// Maps an `f64` to a `u64` whose unsigned order equals
/// [`f64::total_cmp`]'s total order (IEEE-754 totalOrder): negative
/// floats have all bits flipped, non-negative floats have the sign bit
/// set. Bijective, so the exact input bits are recoverable.
#[inline]
#[must_use]
pub fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Exact inverse of [`total_order_key`].
#[inline]
fn key_to_f64(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// Fault-injection and recovery counters for one simulation run.
///
/// `active` records whether the run had fault injection or recovery
/// engaged at all; inactive counters are all zero and are omitted from
/// the serialized [`SimMetrics`] entirely, keeping fault-free output
/// byte-identical to a build without the subsystem.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultMetrics {
    /// Whether fault injection / recovery was engaged for the run.
    pub active: bool,
    /// Offload attempts that failed by injection.
    pub injected_failures: u64,
    /// Offload attempts whose interface hop suffered a latency spike.
    pub latency_spikes: u64,
    /// Offload attempts perturbed by a degradation window or spike.
    pub degraded_offloads: u64,
    /// Attempts the recovery policy timed out.
    pub timeouts: u64,
    /// Retries the recovery policy issued.
    pub retries: u64,
    /// Offloads that fell back to host execution after the retry budget.
    pub fallbacks: u64,
    /// Offloads shed to the host by admission control before dispatch.
    pub shed_offloads: u64,
    /// Offloads abandoned with no result (their requests fail).
    pub abandoned_offloads: u64,
    /// Completed requests that carried at least one abandoned offload.
    pub failed_requests: u64,
    /// Successfully completed (non-failed) requests per 10⁹ host cycles
    /// — throughput that actually counts under faults.
    pub goodput_per_gcycle: f64,
}

/// The result of one simulation run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Simulated horizon in cycles.
    pub horizon_cycles: f64,
    /// Requests completed within the horizon.
    pub completed_requests: u64,
    /// Throughput in requests per 10⁹ host cycles (∝ QPS at fixed clock).
    pub throughput_per_gcycle: f64,
    /// Per-request latency statistics.
    pub latency: LatencyStats,
    /// Fraction of core-cycles spent busy.
    pub core_utilization: f64,
    /// Kernel invocations dispatched to the accelerator.
    pub offloads_dispatched: u64,
    /// Kernel invocations kept on the host (below break-even).
    pub offloads_suppressed: u64,
    /// Mean accelerator queueing delay (cycles) — empirical `Q`.
    pub mean_queue_delay: f64,
    /// Accelerator utilization.
    pub device_utilization: f64,
    /// Offloads the device observed.
    pub device_offloads: u64,
    /// Thread switches the scheduler performed.
    pub thread_switches: u64,
    /// Fault-injection and recovery counters (all-zero and omitted from
    /// serialization when the run had no fault subsystem engaged).
    pub faults: FaultMetrics,
}

// `SimMetrics` serialization is written by hand (not derived) so the
// `faults` entry appears only when the subsystem was engaged: the
// golden-output fixtures pin the fault-free serialized form byte for
// byte, and a derive would emit the new field unconditionally.
impl Serialize for SimMetrics {
    fn to_json_value(&self) -> serde::Value {
        let mut entries = vec![
            ("horizon_cycles".to_owned(), self.horizon_cycles.to_json_value()),
            (
                "completed_requests".to_owned(),
                self.completed_requests.to_json_value(),
            ),
            (
                "throughput_per_gcycle".to_owned(),
                self.throughput_per_gcycle.to_json_value(),
            ),
            ("latency".to_owned(), self.latency.to_json_value()),
            (
                "core_utilization".to_owned(),
                self.core_utilization.to_json_value(),
            ),
            (
                "offloads_dispatched".to_owned(),
                self.offloads_dispatched.to_json_value(),
            ),
            (
                "offloads_suppressed".to_owned(),
                self.offloads_suppressed.to_json_value(),
            ),
            (
                "mean_queue_delay".to_owned(),
                self.mean_queue_delay.to_json_value(),
            ),
            (
                "device_utilization".to_owned(),
                self.device_utilization.to_json_value(),
            ),
            (
                "device_offloads".to_owned(),
                self.device_offloads.to_json_value(),
            ),
            (
                "thread_switches".to_owned(),
                self.thread_switches.to_json_value(),
            ),
        ];
        if self.faults.active {
            entries.push(("faults".to_owned(), self.faults.to_json_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Deserialize for SimMetrics {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(entries) = v else {
            return Err(serde::DeError::new("SimMetrics: expected an object"));
        };
        fn field<T: Deserialize>(
            entries: &[(String, serde::Value)],
            key: &'static str,
        ) -> Result<T, serde::DeError> {
            match serde::__field(entries, key) {
                Some(value) => T::from_json_value(value),
                None => Err(serde::DeError::new(format!(
                    "SimMetrics: missing field `{key}`"
                ))),
            }
        }
        Ok(Self {
            horizon_cycles: field(entries, "horizon_cycles")?,
            completed_requests: field(entries, "completed_requests")?,
            throughput_per_gcycle: field(entries, "throughput_per_gcycle")?,
            latency: field(entries, "latency")?,
            core_utilization: field(entries, "core_utilization")?,
            offloads_dispatched: field(entries, "offloads_dispatched")?,
            offloads_suppressed: field(entries, "offloads_suppressed")?,
            mean_queue_delay: field(entries, "mean_queue_delay")?,
            device_utilization: field(entries, "device_utilization")?,
            device_offloads: field(entries, "device_offloads")?,
            thread_switches: field(entries, "thread_switches")?,
            faults: match serde::__field(entries, "faults") {
                Some(value) => FaultMetrics::from_json_value(value)?,
                None => FaultMetrics::default(),
            },
        })
    }
}

impl SimMetrics {
    /// Throughput speedup of this run relative to a baseline run.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimMetrics) -> f64 {
        self.throughput_per_gcycle / baseline.throughput_per_gcycle
    }

    /// Mean-latency reduction relative to a baseline run
    /// (`baseline / this`, mirroring the model's `C/CL`).
    #[must_use]
    pub fn latency_reduction_over(&self, baseline: &SimMetrics) -> f64 {
        baseline.latency.mean / self.latency.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_from_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!(s.p99 >= 99.0);
        assert!(s.p95 >= 95.0 && s.p95 <= 96.0);
    }

    /// The reference implementation this module's key-sort path
    /// replaced: clone, comparison-sort by `total_cmp`, fold the sorted
    /// order.
    fn reference_stats(samples: &[f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pick = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        LatencyStats {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }

    /// Pseudo-random but deterministic latency-like samples.
    fn lcg_samples(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // Fractional cycle counts over several exponent decades.
                1e2 + (state >> 11) as f64 / (1u64 << 33) as f64 * 9e5
            })
            .collect()
    }

    #[test]
    fn key_sort_path_is_bit_identical_to_comparison_sort() {
        // A spread of sizes, plus duplicate-heavy and constant inputs.
        for &n in &[1usize, 2, 100, 2_047, 2_048, 2_049, 50_000] {
            let samples = lcg_samples(n, 0x5EED + n as u64);
            let expect = reference_stats(&samples);
            assert_eq!(LatencyStats::from_samples(&samples), expect, "n = {n}");
        }
        let constant = vec![123.456_f64; 10_000];
        assert_eq!(
            LatencyStats::from_samples(&constant),
            reference_stats(&constant)
        );
    }

    /// Every field's bits, so `+0.0` and `-0.0` (equal under `==`)
    /// count as different.
    fn stat_bits(s: &LatencyStats) -> [u64; 6] {
        [
            s.count as u64,
            s.mean.to_bits(),
            s.p50.to_bits(),
            s.p95.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
        ]
    }

    #[test]
    fn key_path_matches_comparison_sort_bitwise_on_edge_values() {
        let edges = [
            0.0_f64,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            1.0,
            1e300,
            1e300,
            7.5e12,
        ];
        for n in [1usize, 2, 9, 100, 4_097] {
            let mut samples = lcg_samples(n, 0xED6E + n as u64);
            for (slot, &edge) in samples.iter_mut().zip(edges.iter().cycle()).step_by(3) {
                *slot = edge;
            }
            let expect = reference_stats(&samples);
            let mut keys: Vec<u64> = samples.iter().map(|&x| total_order_key(x)).collect();
            let got = LatencyStats::from_keys(&mut keys);
            assert_eq!(stat_bits(&got), stat_bits(&expect), "n = {n}");
            let via_samples = LatencyStats::from_samples(&samples);
            assert_eq!(stat_bits(&via_samples), stat_bits(&expect), "n = {n}");
        }
        let only_edges = edges.to_vec();
        assert_eq!(
            stat_bits(&LatencyStats::from_samples(&only_edges)),
            stat_bits(&reference_stats(&only_edges))
        );
    }

    #[test]
    fn total_order_key_round_trips_and_orders() {
        let values = [
            0.0_f64,
            -0.0,
            1.5,
            -1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &v in &values {
            assert_eq!(key_to_f64(total_order_key(v)).to_bits(), v.to_bits());
        }
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn faults_entry_is_omitted_when_inactive_and_round_trips_when_active() {
        let inactive = SimMetrics::default();
        let serde::Value::Object(entries) = inactive.to_json_value() else {
            panic!("expected an object");
        };
        assert!(entries.iter().all(|(k, _)| k != "faults"));
        let back =
            SimMetrics::from_json_value(&serde::Value::Object(entries)).expect("round trip");
        assert_eq!(back, inactive);

        let mut active = SimMetrics::default();
        active.faults.active = true;
        active.faults.retries = 3;
        active.faults.goodput_per_gcycle = 12.5;
        let value = active.to_json_value();
        let serde::Value::Object(entries) = &value else {
            panic!("expected an object");
        };
        assert!(entries.iter().any(|(k, _)| k == "faults"));
        assert_eq!(
            SimMetrics::from_json_value(&value).expect("round trip"),
            active
        );
    }

    #[test]
    fn speedup_and_latency_ratios() {
        let base = SimMetrics {
            throughput_per_gcycle: 100.0,
            latency: LatencyStats {
                mean: 2_000.0,
                ..LatencyStats::default()
            },
            ..SimMetrics::default()
        };
        let accel = SimMetrics {
            throughput_per_gcycle: 115.0,
            latency: LatencyStats {
                mean: 1_800.0,
                ..LatencyStats::default()
            },
            ..SimMetrics::default()
        };
        assert!((accel.speedup_over(&base) - 1.15).abs() < 1e-12);
        assert!((accel.latency_reduction_over(&base) - 2_000.0 / 1_800.0).abs() < 1e-12);
    }
}
