//! Workload specification: what one request costs the host.
//!
//! A request alternates host work with kernel invocations whose
//! granularity follows the service's measured CDF — the per-request view
//! of the aggregate `C`, `α`, and `n` parameters the analytical model
//! works with.

use accelerometer::units::CyclesPerByte;
use accelerometer::{GranularityCdf, GranularitySampler, ModelError};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{self, ensure, SimError};

/// Upper bound on [`WorkloadSpec::kernels_per_request`] that
/// [`SimConfig::validate`](crate::SimConfig::validate) accepts: hundreds
/// of times the largest value any shipped configuration or test uses
/// (3), while keeping a request record, and every thread's item buffer,
/// a bounded size.
pub const MAX_KERNELS_PER_REQUEST: usize = 1 << 10;

/// One unit of work inside a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkItem {
    /// Non-kernel host work, in cycles.
    Host(f64),
    /// A kernel invocation on `g` bytes (offloadable).
    Kernel {
        /// The invocation's granularity in bytes.
        bytes: f64,
    },
    /// Host re-execution of a failed offload (fallback-to-host). Never
    /// appears in sampled requests — the engine injects it at fault
    /// detection time so the re-execution competes for the core like any
    /// other host slice.
    Fallback {
        /// Slab index of the request being recovered.
        request: usize,
        /// Host cycles the re-execution costs.
        cycles: f64,
    },
}

/// The statistical shape of requests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadSpec {
    /// Mean non-kernel cycles per request (exponentially distributed).
    pub non_kernel_cycles: f64,
    /// Kernel invocations per request.
    pub kernels_per_request: usize,
    /// Kernel granularity distribution.
    pub granularity: GranularityCdf,
    /// Host cycles per kernel byte (`Cb`).
    pub cycles_per_byte: CyclesPerByte,
}

// Deserialization is written by hand (not derived) so the granularity
// CDF goes through `GranularityCdf::from_points`: the derived form
// accepts any breakpoints, and a negative byte bound makes simulated
// time run backwards.
impl Deserialize for WorkloadSpec {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(entries) = v else {
            return Err(serde::DeError::new("WorkloadSpec: expected object"));
        };
        fn field<T: Deserialize>(
            entries: &[(String, serde::Value)],
            key: &'static str,
        ) -> Result<T, serde::DeError> {
            match serde::__field(entries, key) {
                Some(value) => T::from_json_value(value),
                None => Err(serde::DeError::new(format!(
                    "missing field `{key}` in WorkloadSpec"
                ))),
            }
        }
        let non_kernel_cycles = field(entries, "non_kernel_cycles")?;
        let kernels_per_request = field(entries, "kernels_per_request")?;
        let granularity: GranularityCdf = field(entries, "granularity")?;
        let granularity = GranularityCdf::from_points(granularity.points().to_vec())
            .map_err(|e| serde::DeError::new(format!("WorkloadSpec: granularity: {e}")))?;
        Ok(Self {
            non_kernel_cycles,
            kernels_per_request,
            granularity,
            cycles_per_byte: field(entries, "cycles_per_byte")?,
        })
    }
}

impl WorkloadSpec {
    /// Mean host cycles one request costs without acceleration.
    #[must_use]
    pub fn mean_request_cycles(&self) -> f64 {
        self.non_kernel_cycles
            + self.kernels_per_request as f64
                * self.cycles_per_byte.get()
                * self.granularity.mean_bytes().get()
    }

    /// The kernel's expected share of host cycles (the `α` this workload
    /// realizes).
    #[must_use]
    pub fn expected_alpha(&self) -> f64 {
        let kernel = self.kernels_per_request as f64
            * self.cycles_per_byte.get()
            * self.granularity.mean_bytes().get();
        kernel / (kernel + self.non_kernel_cycles)
    }

    /// Draws one request's work items. Host work is split around the
    /// kernel invocations so offloads interleave with useful work, which
    /// is what lets asynchronous designs overlap.
    ///
    /// Implemented as [`RequestSampler::draw_record`] followed by
    /// [`expand_record`], so there is exactly one copy of the
    /// host-cycles/`ln` draw logic and one copy of the item layout.
    /// Convenient for one-off draws; repeated draws should build the
    /// sampler once via [`WorkloadSpec::sampler`].
    #[must_use]
    pub fn draw_request(&self, rng: &mut StdRng) -> Vec<WorkItem> {
        let mut record = Vec::with_capacity(self.kernels_per_request + 1);
        self.sampler().draw_record(rng, &mut record);
        let mut items = Vec::with_capacity(2 * self.kernels_per_request + 1);
        expand_record(&record, &mut items);
        items
    }

    /// Rejects workloads the engine cannot simulate: negative or
    /// non-finite costs (time would run backwards or never advance), more
    /// than [`MAX_KERNELS_PER_REQUEST`] kernels, or a granularity CDF
    /// that [`GranularityCdf::from_points`] refuses.
    pub(crate) fn validate(&self) -> error::Result<()> {
        ensure(
            self.non_kernel_cycles.is_finite() && self.non_kernel_cycles >= 0.0,
            "non_kernel_cycles",
            self.non_kernel_cycles,
            "non-kernel cycles must be finite and non-negative",
        )?;
        ensure(
            self.kernels_per_request <= MAX_KERNELS_PER_REQUEST,
            "kernels_per_request",
            self.kernels_per_request as f64,
            "more kernels per request than MAX_KERNELS_PER_REQUEST (1024)",
        )?;
        let cb = self.cycles_per_byte.get();
        ensure(
            cb.is_finite() && cb >= 0.0,
            "cycles_per_byte",
            cb,
            "cycles per byte must be finite and non-negative",
        )?;
        GranularityCdf::from_points(self.granularity.points().to_vec()).map_err(|e| {
            let index = match e {
                ModelError::NonMonotonicCdf { index } => index,
                _ => 0,
            };
            SimError::InvalidConfig {
                field: "granularity",
                value: index as f64,
                reason: "CDF breakpoint at this index is negative, non-finite or out of \
                         order, or the CDF is empty or does not end at 1",
            }
        })?;
        Ok(())
    }

    /// Builds a [`RequestSampler`] for repeated draws: the granularity
    /// inverse-CDF is precomputed once, and requests can be drawn into a
    /// reusable buffer instead of a fresh `Vec` each time.
    #[must_use]
    pub fn sampler(&self) -> RequestSampler {
        RequestSampler {
            non_kernel_cycles: self.non_kernel_cycles,
            kernels_per_request: self.kernels_per_request,
            quantile: self.granularity.sampler(),
        }
    }

    /// Host cycles to execute a kernel invocation locally.
    #[must_use]
    pub fn kernel_host_cycles(&self, bytes: f64) -> f64 {
        self.cycles_per_byte.get() * bytes
    }
}

/// A request generator precomputed from a [`WorkloadSpec`] for the
/// simulator's hot path.
///
/// A request is drawn as a *record* of `kernels_per_request + 1` values
/// — the host chunk, then one granularity per kernel — and
/// [`expand_record`] turns a record into work items. Records are the
/// dense form frozen traces store and the engine's inline draw fills:
/// 8 bytes per value instead of 24 per item.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSampler {
    non_kernel_cycles: f64,
    kernels_per_request: usize,
    quantile: GranularitySampler,
}

impl RequestSampler {
    /// Values per record: the host chunk plus one granularity per
    /// kernel.
    pub(crate) fn record_len(&self) -> usize {
        self.kernels_per_request + 1
    }

    /// Draws one request's record, appending `kernels_per_request + 1`
    /// values to `out`. This is the single copy of the draw logic: one
    /// uniform for the exponential host total (split into that many
    /// equal chunks), then one uniform per kernel granularity.
    #[inline]
    pub fn draw_record(&self, rng: &mut StdRng, out: &mut Vec<f64>) {
        let u: f64 = rng.gen_range(0.0..1.0);
        let host_total = -((1.0 - u).ln()) * self.non_kernel_cycles;
        out.push(host_total / self.record_len() as f64);
        for _ in 0..self.kernels_per_request {
            out.push(self.quantile.quantile(rng.gen_range(0.0..1.0)).get());
        }
    }
}

/// Appends the work items of one record (see
/// [`RequestSampler::draw_record`]) to `out`. This is the single copy of
/// the item layout: a host chunk before each kernel and one after the
/// last, host chunks skipped unless `> 0.0`, and a lone `Host(1.0)` for a
/// request that would otherwise be empty.
///
/// # Panics
///
/// Panics on an empty record (every record holds its host chunk).
#[inline]
pub fn expand_record(record: &[f64], out: &mut Vec<WorkItem>) {
    let (&host_chunk, kernels) = record.split_first().expect("record holds a host chunk");
    let start = out.len();
    for &bytes in kernels {
        if host_chunk > 0.0 {
            out.push(WorkItem::Host(host_chunk));
        }
        out.push(WorkItem::Kernel { bytes });
    }
    if host_chunk > 0.0 {
        out.push(WorkItem::Host(host_chunk));
    }
    if out.len() == start {
        out.push(WorkItem::Host(1.0));
    }
}

/// Builds a workload whose aggregate statistics realize the model
/// parameters (`C`, `α`, `n`) of a Table 6/7 row: `n` offloads and
/// `α·C` kernel cycles per `C` host cycles, one kernel per request.
///
/// # Panics
///
/// Panics if the parameters are inconsistent (`alpha >= 1` or
/// non-positive inputs).
#[must_use]
pub fn workload_for_params(
    host_cycles: f64,
    alpha: f64,
    offloads: f64,
    granularity: GranularityCdf,
) -> WorkloadSpec {
    assert!(host_cycles > 0.0 && offloads > 0.0 && alpha > 0.0 && alpha < 1.0);
    let kernel_cycles_per_offload = alpha * host_cycles / offloads;
    let mean_bytes = granularity.mean_bytes().get();
    let cycles_per_byte = CyclesPerByte::new(kernel_cycles_per_offload / mean_bytes);
    let non_kernel_cycles = (1.0 - alpha) * host_cycles / offloads;
    WorkloadSpec {
        non_kernel_cycles,
        kernels_per_request: 1,
        granularity,
        cycles_per_byte,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cdf() -> GranularityCdf {
        GranularityCdf::from_points(vec![(256.0, 0.5), (1024.0, 1.0)]).unwrap()
    }

    #[test]
    fn mean_and_alpha_are_consistent() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 5_000.0,
            kernels_per_request: 2,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(2.0),
        };
        let mean_kernel = 2.0 * 2.0 * spec.granularity.mean_bytes().get();
        assert!((spec.mean_request_cycles() - (5_000.0 + mean_kernel)).abs() < 1e-9);
        let alpha = spec.expected_alpha();
        assert!((alpha - mean_kernel / (5_000.0 + mean_kernel)).abs() < 1e-12);
    }

    #[test]
    fn draw_request_interleaves_kernels_with_host_work() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 1_000.0,
            kernels_per_request: 3,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.0),
        };
        let mut rng = StdRng::seed_from_u64(1);
        let items = spec.draw_request(&mut rng);
        let kernels = items
            .iter()
            .filter(|i| matches!(i, WorkItem::Kernel { .. }))
            .count();
        assert_eq!(kernels, 3);
        // Host chunks surround the kernels.
        assert!(matches!(items[0], WorkItem::Host(_)));
        assert!(matches!(items.last().unwrap(), WorkItem::Host(_)));
    }

    #[test]
    fn drawn_statistics_converge() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 2_000.0,
            kernels_per_request: 1,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.5),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut host = 0.0;
        let mut kernel = 0.0;
        let draws = 40_000;
        for _ in 0..draws {
            for item in spec.draw_request(&mut rng) {
                match item {
                    WorkItem::Host(c) => host += c,
                    WorkItem::Kernel { bytes } => kernel += spec.kernel_host_cycles(bytes),
                    WorkItem::Fallback { .. } => {
                        unreachable!("fallback items are engine-injected, never sampled")
                    }
                }
            }
        }
        let alpha = kernel / (kernel + host);
        assert!(
            (alpha - spec.expected_alpha()).abs() < 0.01,
            "alpha {alpha} vs {}",
            spec.expected_alpha()
        );
        let mean = (host + kernel) / f64::from(draws);
        assert!((mean / spec.mean_request_cycles() - 1.0).abs() < 0.02);
    }

    #[test]
    fn workload_for_params_realizes_model_inputs() {
        // Feed1 compression: C = 2.3e9, α = 0.15, n = 15,008.
        let spec = workload_for_params(2.3e9, 0.15, 15_008.0, cdf());
        assert!((spec.expected_alpha() - 0.15).abs() < 1e-9);
        // Requests per C cycles = offloads (one kernel per request).
        let requests = 2.3e9 / spec.mean_request_cycles();
        assert!((requests - 15_008.0).abs() / 15_008.0 < 1e-9);
    }

    #[test]
    #[should_panic]
    fn workload_for_params_rejects_alpha_one() {
        let _ = workload_for_params(1e9, 1.0, 10.0, cdf());
    }

    #[test]
    fn zero_kernel_workload_still_produces_an_item() {
        let spec = WorkloadSpec {
            non_kernel_cycles: 0.0,
            kernels_per_request: 0,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.0),
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!spec.draw_request(&mut rng).is_empty());
    }

    /// The historical allocating draw path, kept verbatim as the test
    /// reference: linear-scan CDF quantile, fresh `Vec` per request.
    /// `draw_request` is now a thin wrapper over the sampler, so this is
    /// what pins both paths to the original RNG consumption order.
    fn reference_draw(spec: &WorkloadSpec, rng: &mut StdRng) -> Vec<WorkItem> {
        let u: f64 = rng.gen_range(0.0..1.0);
        let host_total = -((1.0 - u).ln()) * spec.non_kernel_cycles;
        let chunks = spec.kernels_per_request + 1;
        let host_chunk = host_total / chunks as f64;
        let mut items = Vec::with_capacity(2 * spec.kernels_per_request + 1);
        for _ in 0..spec.kernels_per_request {
            if host_chunk > 0.0 {
                items.push(WorkItem::Host(host_chunk));
            }
            let bytes = spec.granularity.quantile(rng.gen_range(0.0..1.0)).get();
            items.push(WorkItem::Kernel { bytes });
        }
        if host_chunk > 0.0 {
            items.push(WorkItem::Host(host_chunk));
        }
        if items.is_empty() {
            items.push(WorkItem::Host(1.0));
        }
        items
    }

    #[test]
    fn sampler_draws_match_reference_bitwise() {
        // The record sampler plus expansion and the allocating wrapper must
        // consume the RNG in the same order and produce the same items
        // as the historical linear-scan path, draw for draw, across many
        // consecutive requests.
        let spec = WorkloadSpec {
            non_kernel_cycles: 1_500.0,
            kernels_per_request: 2,
            granularity: cdf(),
            cycles_per_byte: CyclesPerByte::new(1.0),
        };
        let sampler = spec.sampler();
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let mut rng_c = StdRng::seed_from_u64(42);
        let mut record = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..5_000 {
            let reference = reference_draw(&spec, &mut rng_a);
            record.clear();
            sampler.draw_record(&mut rng_b, &mut record);
            assert_eq!(record.len(), sampler.record_len());
            buf.clear();
            expand_record(&record, &mut buf);
            assert_eq!(reference, buf);
            assert_eq!(reference, spec.draw_request(&mut rng_c));
        }
    }
}
