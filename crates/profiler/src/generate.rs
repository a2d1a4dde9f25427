//! Synthetic trace generation: stands in for sampling a production
//! microservice under live traffic.
//!
//! Each generated sample picks a functionality (Fig. 9 marginal) and a
//! leaf category (Fig. 2 marginal) from the service's profile, draws an
//! exponential cycle weight, and derives instructions from the per-leaf
//! IPC model — so the aggregation pipeline downstream must reconstruct
//! the profile's marginals and IPCs as the sample count grows.

use std::borrow::Cow;

use accelerometer_fleet::{CpuGeneration, LeafCategory, ServiceId, ServiceProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::registry::FunctionRegistry;
use crate::trace::CallTrace;

/// Default per-leaf-category IPC used for services whose IPC the paper
/// does not report (Fig. 8 covers only Cache1). Values mirror the
/// paper's qualitative claims: kernel lowest, C libraries highest, all
/// below half the 4.0 peak.
#[must_use]
pub fn default_leaf_ipc(category: LeafCategory) -> f64 {
    match category {
        LeafCategory::Memory => 0.9,
        LeafCategory::Kernel => 0.4,
        LeafCategory::Hashing => 1.3,
        LeafCategory::Synchronization => 0.6,
        LeafCategory::Zstd => 1.3,
        LeafCategory::Math => 1.8,
        LeafCategory::Ssl => 1.2,
        LeafCategory::CLibraries => 1.6,
        LeafCategory::Miscellaneous => 1.0,
    }
}

/// IPC for a service's leaf category on a CPU generation: the service's
/// registry spec where it carries data (the shipped Fig. 8 data covers
/// only Cache1), everything else the default table.
#[must_use]
pub fn leaf_ipc(service: ServiceId, category: LeafCategory, generation: CpuGeneration) -> f64 {
    if let Some(scaling) = accelerometer_fleet::registry::leaf_ipc_scaling(service, category) {
        return scaling.for_generation(generation);
    }
    default_leaf_ipc(category)
}

/// The intermediate frames between a sample's root and its leaf: a
/// sample passes through the first one to three of them.
const LAYER_FRAMES: [&str; 3] = [
    "rpc::layer_0::dispatch",
    "rpc::layer_1::dispatch",
    "rpc::layer_2::dispatch",
];

/// A categorical distribution over a breakdown's entries, with its total
/// weight summed once, in entry order.
#[derive(Debug)]
struct Weighted<T> {
    entries: Vec<(T, f64)>,
    total: f64,
}

impl<T> Weighted<T> {
    fn new(entries: Vec<(T, f64)>) -> Self {
        let total = entries.iter().map(|(_, w)| w).sum();
        Self { entries, total }
    }

    /// One draw from the RNG, mapped onto the cumulative weights.
    fn pick(&self, rng: &mut StdRng) -> &T {
        let mut point = rng.gen_range(0.0..self.total);
        for (value, w) in &self.entries {
            if point < *w {
                return value;
            }
            point -= w;
        }
        &self.entries.last().expect("non-empty breakdown").0
    }
}

/// Everything a sample needs once it has drawn its leaf category.
#[derive(Debug)]
struct LeafChoice {
    category: LeafCategory,
    /// The category's representative symbols, in registry order.
    symbols: Vec<&'static str>,
    /// The category's IPC on the generator's CPU generation.
    ipc: f64,
}

/// The synthetic sampler.
///
/// Everything a sample looks up — the weighted breakdowns, each
/// category's symbols, the root frames and the per-leaf IPC — is
/// resolved when the generator is built (and the IPC again by
/// [`TraceGenerator::on_generation`]), so drawing a sample only draws
/// random numbers and allocates its frame list. The IPC therefore comes
/// from the registry active at construction time; install `--services`
/// data before building a generator.
#[derive(Debug)]
pub struct TraceGenerator {
    service: ServiceId,
    registry: FunctionRegistry,
    mean_cycles: f64,
    rng: StdRng,
    /// Root frames weighted by the Fig. 9 functionality marginal.
    roots: Weighted<&'static str>,
    /// Leaf categories weighted by the Fig. 2 marginal.
    leaves: Weighted<LeafChoice>,
    /// Memory-op symbol lists weighted by the Fig. 3 operation mix.
    memory_ops: Weighted<Vec<&'static str>>,
}

impl TraceGenerator {
    /// Creates a deterministic generator for a service on GenC hardware.
    #[must_use]
    pub fn new(profile: ServiceProfile, seed: u64) -> Self {
        let registry = FunctionRegistry::with_defaults();
        let service = profile.id;
        let roots = Weighted::new(
            profile
                .functionality
                .iter()
                .map(|(category, w)| (registry.root_frame(category), w))
                .collect(),
        );
        let leaves = Weighted::new(
            profile
                .leaves
                .iter()
                .map(|(category, w)| {
                    let choice = LeafChoice {
                        category,
                        symbols: registry.leaf_symbols(category),
                        ipc: leaf_ipc(service, category, CpuGeneration::GenC),
                    };
                    (choice, w)
                })
                .collect(),
        );
        let memory_ops = Weighted::new(
            profile
                .memory_ops
                .iter()
                .map(|(op, w)| (registry.memory_symbols(op), w))
                .collect(),
        );
        Self {
            service,
            registry,
            mean_cycles: 1_000.0,
            rng: StdRng::seed_from_u64(seed),
            roots,
            leaves,
            memory_ops,
        }
    }

    /// Overrides the CPU generation (for the IPC-scaling studies).
    #[must_use]
    pub fn on_generation(mut self, generation: CpuGeneration) -> Self {
        for (leaf, _) in &mut self.leaves.entries {
            leaf.ipc = leaf_ipc(self.service, leaf.category, generation);
        }
        self
    }

    /// The registry the generator names functions from.
    #[must_use]
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Generates one sampled call trace.
    pub fn sample(&mut self) -> CallTrace {
        let root = *self.roots.pick(&mut self.rng);
        let leaf = self.leaves.pick(&mut self.rng);
        // Memory leaves honor the service's Fig. 3 operation mix so the
        // analyzer can reconstruct the memory-op sub-breakdown; other
        // categories pick a representative symbol uniformly.
        let symbols = if leaf.category == LeafCategory::Memory {
            self.memory_ops.pick(&mut self.rng)
        } else {
            &leaf.symbols
        };
        let leaf_frame = symbols[self.rng.gen_range(0..symbols.len())];

        // A few plausible intermediate frames.
        let depth = self.rng.gen_range(1..=LAYER_FRAMES.len());
        let mut frames = Vec::with_capacity(depth + 2);
        frames.push(Cow::Borrowed(root));
        frames.extend(LAYER_FRAMES[..depth].iter().copied().map(Cow::Borrowed));
        frames.push(Cow::Borrowed(leaf_frame));

        // Exponential cycle weight; IPC model supplies instructions.
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let cycles = -((1.0 - u).ln()) * self.mean_cycles;
        CallTrace::new(frames, cycles, cycles * leaf.ipc)
    }

    /// Generates a batch of samples.
    pub fn generate(&mut self, samples: usize) -> Vec<CallTrace> {
        (0..samples).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerometer_fleet::profile;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = TraceGenerator::new(profile(ServiceId::Web), 42);
        let mut b = TraceGenerator::new(profile(ServiceId::Web), 42);
        assert_eq!(a.generate(50), b.generate(50));
        let mut c = TraceGenerator::new(profile(ServiceId::Web), 43);
        assert_ne!(a.generate(50), c.generate(50));
    }

    #[test]
    fn traces_are_well_formed() {
        let mut generator = TraceGenerator::new(profile(ServiceId::Cache1), 7);
        for t in generator.generate(200) {
            assert!(t.depth() >= 3, "root + intermediate + leaf");
            assert!(t.root().starts_with("svc::"));
            assert!(t.cycles > 0.0);
            assert!(t.instructions > 0.0);
            assert!(t.ipc() < 4.0, "IPC above theoretical peak");
        }
    }

    #[test]
    fn cache1_uses_fig8_ipc() {
        assert_eq!(
            leaf_ipc(ServiceId::Cache1, LeafCategory::Kernel, CpuGeneration::GenC),
            0.38
        );
        assert_eq!(
            leaf_ipc(ServiceId::Cache1, LeafCategory::Kernel, CpuGeneration::GenA),
            0.35
        );
        // Categories Fig. 8 doesn't cover use the default table.
        assert_eq!(
            leaf_ipc(ServiceId::Cache1, LeafCategory::Math, CpuGeneration::GenC),
            default_leaf_ipc(LeafCategory::Math)
        );
        // Other services always use the default table.
        assert_eq!(
            leaf_ipc(ServiceId::Web, LeafCategory::Kernel, CpuGeneration::GenC),
            0.4
        );
    }

    #[test]
    fn default_ipc_respects_paper_ordering() {
        // Kernel is the lowest; C libraries among the highest; all below
        // half the 4.0 peak.
        for &cat in LeafCategory::ALL {
            let ipc = default_leaf_ipc(cat);
            assert!(ipc >= default_leaf_ipc(LeafCategory::Kernel));
            assert!(ipc < 2.0);
        }
    }

    #[test]
    fn generation_override() {
        let mut generator =
            TraceGenerator::new(profile(ServiceId::Cache1), 3).on_generation(CpuGeneration::GenA);
        let traces = generator.generate(100);
        assert_eq!(traces.len(), 100);
    }
}
