//! Synthetic trace generation: stands in for sampling a production
//! microservice under live traffic.
//!
//! Each generated sample picks a functionality (Fig. 9 marginal) and a
//! leaf category (Fig. 2 marginal) from the service's profile, draws an
//! exponential cycle weight, and derives instructions from the per-leaf
//! IPC model — so the aggregation pipeline downstream must reconstruct
//! the profile's marginals and IPCs as the sample count grows.

use accelerometer_fleet::ipc::IpcScaling;
use accelerometer_fleet::{
    current_registry, CpuGeneration, LeafCategory, ServiceId, ServiceProfile, ServiceRegistry,
};
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

/// IPC for a leaf category on a CPU generation: the service's measured
/// scaling where its spec carries one (the shipped Fig. 8 data covers
/// only Cache1), otherwise the default table.
fn leaf_ipc(scaling: Option<IpcScaling>, category: LeafCategory, generation: CpuGeneration) -> f64 {
    scaling.map_or_else(
        || default_leaf_ipc(category),
        |s| s.for_generation(generation),
    )
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
    /// The service's measured IPC scaling for the category, if any.
    scaling: Option<IpcScaling>,
    /// The category's IPC on the generator's CPU generation.
    ipc: f64,
}

/// The synthetic sampler.
///
/// Everything a sample looks up — the weighted breakdowns, each
/// category's symbols, the root frames and the per-leaf IPC — is
/// resolved when the generator is built (and the IPC again by
/// [`TraceGenerator::on_generation`]), so drawing a sample only draws
/// random numbers and writes its frame list. Profile and IPC both
/// come from the service registry the generator is built from.
#[derive(Debug)]
pub struct TraceGenerator {
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
    /// Creates a deterministic generator for `service` on GenC hardware,
    /// reading its profile and leaf IPC from `services`.
    #[must_use]
    pub fn for_service(services: &ServiceRegistry, service: ServiceId, seed: u64) -> Self {
        Self::build(&services.spec(service).profile, services, seed)
    }

    /// Creates a deterministic generator for `profile` on GenC hardware,
    /// with leaf IPC from the process default registry. Kept because the
    /// benchmark harness calls it; the next benchmark change deletes it
    /// in favour of [`TraceGenerator::for_service`].
    #[must_use]
    pub fn new(profile: ServiceProfile, seed: u64) -> Self {
        Self::build(&profile, &current_registry(), seed)
    }

    fn build(profile: &ServiceProfile, services: &ServiceRegistry, seed: u64) -> Self {
        let registry = FunctionRegistry::with_defaults();
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
                    let scaling = services.leaf_ipc(profile.id, category);
                    let choice = LeafChoice {
                        category,
                        symbols: registry.leaf_symbols(category),
                        scaling,
                        ipc: leaf_ipc(scaling, category, CpuGeneration::GenC),
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
            leaf.ipc = leaf_ipc(leaf.scaling, leaf.category, generation);
        }
        self
    }

    /// The registry the generator names functions from.
    #[must_use]
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Draws one sampled call trace into `trace`, overwriting its frames
    /// in place: a caller that reuses one buffer allocates nothing per
    /// sample.
    pub fn sample_into(&mut self, trace: &mut CallTrace) {
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
        let frames = &mut trace.frames;
        frames.clear();
        // Exact, so a fresh trace from `sample` carries no spare capacity.
        frames.reserve_exact(depth + 2);
        frames.push(root);
        frames.extend_from_slice(&LAYER_FRAMES[..depth]);
        frames.push(leaf_frame);

        // Exponential cycle weight; IPC model supplies instructions.
        let u: f64 = self.rng.gen_range(0.0..1.0);
        trace.cycles = -((1.0 - u).ln()) * self.mean_cycles;
        trace.instructions = trace.cycles * leaf.ipc;
    }

    /// Generates one sampled call trace.
    pub fn sample(&mut self) -> CallTrace {
        let mut trace = CallTrace::default();
        self.sample_into(&mut trace);
        trace
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
        let services = ServiceRegistry::builtin();
        let ipc = |service, category, generation| {
            leaf_ipc(services.leaf_ipc(service, category), category, generation)
        };
        assert_eq!(
            ipc(ServiceId::Cache1, LeafCategory::Kernel, CpuGeneration::GenC),
            0.38
        );
        assert_eq!(
            ipc(ServiceId::Cache1, LeafCategory::Kernel, CpuGeneration::GenA),
            0.35
        );
        // Categories Fig. 8 doesn't cover use the default table.
        assert_eq!(
            ipc(ServiceId::Cache1, LeafCategory::Math, CpuGeneration::GenC),
            default_leaf_ipc(LeafCategory::Math)
        );
        // Other services always use the default table.
        assert_eq!(
            ipc(ServiceId::Web, LeafCategory::Kernel, CpuGeneration::GenC),
            0.4
        );
    }

    #[test]
    fn leaf_ipc_comes_from_the_given_registry() {
        // A registry whose Cache1 spec carries an edited Fig. 8 table,
        // while the builtin registry stays the process default.
        let mut services = ServiceRegistry::builtin();
        let mut spec = services.spec(ServiceId::Cache1).clone();
        let table = spec.ipc.as_mut().expect("Cache1 carries Fig. 8");
        for (_, scaling) in &mut table.leaves {
            scaling.gen_c = 1.9;
        }
        let edited: Vec<LeafCategory> = table.leaves.iter().map(|(c, _)| *c).collect();
        services.install_spec(spec).expect("edited spec is valid");

        let traces = TraceGenerator::for_service(&services, ServiceId::Cache1, 7).generate(400);
        let symbols = FunctionRegistry::with_defaults();
        let mut checked = 0;
        for t in &traces {
            let category = symbols.tag_leaf(t.leaf());
            if edited.contains(&category) {
                assert!((t.ipc() - 1.9).abs() < 1e-9, "{category:?} ipc {}", t.ipc());
                checked += 1;
            }
        }
        assert!(checked > 0, "no sample hit an edited category");
        // The process default registry still yields the builtin IPC.
        let builtin = TraceGenerator::new(profile(ServiceId::Cache1), 7).generate(400);
        assert!(builtin.iter().all(|t| (t.ipc() - 1.9).abs() > 1e-9));
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
