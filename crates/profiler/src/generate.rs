//! Synthetic trace generation: stands in for sampling a production
//! microservice under live traffic.
//!
//! Each generated sample picks a functionality (Fig. 9 marginal) and a
//! leaf category (Fig. 2 marginal) from the service's profile, draws an
//! exponential cycle weight, and derives instructions from the per-leaf
//! IPC model — so the aggregation pipeline downstream must reconstruct
//! the profile's marginals and IPCs as the sample count grows.
//!
//! [`TraceGenerator::draw`] returns a structured [`Sample`]: tags,
//! weights and the stack as table indices. The tags come from the
//! function registry once per frame, when the generator is built, so
//! the tagger never runs per sample. [`TraceGenerator::sample_into`]
//! renders the same draw as a [`CallTrace`].
//!
//! Every categorical pick maps a uniform point onto its entries by
//! exact cuts (see `Weighted`): the same entry a linear scan with a
//! running subtraction returns, for every point, without the scan's
//! mispredicted branches.

use accelerometer_fleet::ipc::IpcScaling;
use accelerometer_fleet::{
    current_registry, CpuGeneration, FunctionalityCategory, LeafCategory, MemoryOp, ServiceId,
    ServiceProfile, ServiceRegistry,
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
pub(crate) const LAYER_FRAMES: [&str; 3] = [
    "rpc::layer_0::dispatch",
    "rpc::layer_1::dispatch",
    "rpc::layer_2::dispatch",
];

/// A categorical distribution over a breakdown's entries, with its total
/// weight summed once, in entry order.
///
/// [`Weighted::pick`] returns exactly the entry of the linear scan
/// `for (v, w) in entries { if point < w { return v } point -= w }`
/// (which falls through to the last entry), for every `point`, with no
/// data-dependent branch. The cuts are exact because rounding is
/// monotone: the scan stops at the first `i` with `p_i < w_i`, where
/// `p_0 = point` and `p_{i+1} = fl(p_i − w_i)`, and subtracting a
/// constant never reverses the order of two floats, so each `p_i` is a
/// non-decreasing function of `point`. Hence `p_i < w_i` holds exactly
/// for `point < t_i`, where `t_i` is the least `f64` at which it fails;
/// [`first_rejected`] finds `t_i` at build time by replaying the same
/// subtraction chain. The scan stops at the first `i` with
/// `point < t_i`, which is the number of prefix maxima
/// `T_i = max_{j≤i} t_j` at or below `point`. The last entry takes every
/// point past the other cuts, so it needs none. A prefix-sum search or
/// an alias table would draw the same distribution but map some points
/// to other entries, and so move output bytes.
#[derive(Debug)]
struct Weighted<T> {
    values: Vec<T>,
    /// `T_i` for every entry but the last; non-decreasing.
    cuts: Vec<f64>,
    total: f64,
}

impl<T> Weighted<T> {
    fn new(entries: Vec<(T, f64)>) -> Self {
        let (values, weights): (Vec<T>, Vec<f64>) = entries.into_iter().unzip();
        let mut cut = 0.0_f64;
        let cuts = (1..weights.len())
            .map(|n| {
                cut = cut.max(first_rejected(&weights[..n]));
                cut
            })
            .collect();
        let total = weights.iter().sum();
        Self {
            values,
            cuts,
            total,
        }
    }

    /// The index of the entry the linear scan stops at for `point`.
    fn index(&self, point: f64) -> usize {
        self.cuts.iter().filter(|&&cut| cut <= point).count()
    }

    /// One draw from the RNG, mapped onto the cumulative weights.
    fn pick(&self, rng: &mut StdRng) -> &T {
        &self.values[self.index(rng.gen_range(0.0..self.total))]
    }
}

/// The least non-negative `f64` point at which the linear scan does not
/// stop at the last of `weights`: the one where
/// `fl(point − w_0 − … − w_{n−2}) < w_{n−1}` first fails. Non-negative
/// floats order as their bit patterns, and the test fails at +∞, so a
/// binary search over the bits finds it.
fn first_rejected(weights: &[f64]) -> f64 {
    let (&last, before) = weights.split_last().expect("a cut belongs to an entry");
    let stops = |point: f64| before.iter().fold(point, |p, w| p - w) < last;
    let (mut lo, mut hi) = (0_u64, f64::INFINITY.to_bits());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if stops(f64::from_bits(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

/// The index of `name` in `table`, appended if absent. Frames are
/// interned by string, so two indices never render the same frame.
fn intern(table: &mut Vec<&'static str>, name: &'static str) -> usize {
    table.iter().position(|&s| s == name).unwrap_or_else(|| {
        table.push(name);
        table.len() - 1
    })
}

/// Everything a sample needs once it has drawn its leaf category.
#[derive(Debug)]
struct LeafChoice {
    category: LeafCategory,
    /// The category's representative symbols, in registry order, as
    /// indices into the generator's symbol table.
    symbols: Vec<usize>,
    /// The service's measured IPC scaling for the category, if any.
    scaling: Option<IpcScaling>,
    /// The category's IPC on the generator's CPU generation.
    ipc: f64,
}

/// One drawn sample: its tags and weights, with its stack as indices
/// into the generator's frame tables. No strings: those appear only when
/// a sample is rendered into a [`CallTrace`] or a folded stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The functionality the root frame buckets into.
    pub functionality: FunctionalityCategory,
    /// The leaf symbol's category.
    pub leaf: LeafCategory,
    /// The leaf symbol's Fig. 3 operation, for memory leaves.
    pub memory_op: Option<MemoryOp>,
    /// Cycles attributed to the sample.
    pub cycles: f64,
    /// Instructions retired in the sample.
    pub instructions: f64,
    /// Index of the root frame in the generator's root table.
    pub(crate) root: usize,
    /// Intermediate frames between root and leaf, `1..=LAYER_FRAMES.len()`.
    pub(crate) depth: usize,
    /// Index of the leaf symbol in the generator's symbol table.
    pub(crate) symbol: usize,
}

/// The synthetic sampler.
///
/// Everything a sample looks up — the weighted breakdowns, each
/// category's symbols, the root frames, every frame's registry tags and
/// the per-leaf IPC — is resolved when the generator is built (and the
/// IPC again by [`TraceGenerator::on_generation`]), so drawing a sample
/// only draws random numbers and indexes tables. Profile and IPC both
/// come from the service registry the generator is built from; the tags
/// come from the function registry, once per frame.
#[derive(Debug)]
pub struct TraceGenerator {
    registry: FunctionRegistry,
    mean_cycles: f64,
    rng: StdRng,
    /// Root frames, each string once.
    root_frames: Vec<&'static str>,
    /// Leaf symbols, each string once.
    symbols: Vec<&'static str>,
    /// Each symbol's leaf category and memory operation.
    symbol_tags: Vec<(LeafCategory, Option<MemoryOp>)>,
    /// Root frame indices and their functionality, weighted by the
    /// Fig. 9 functionality marginal.
    roots: Weighted<(usize, FunctionalityCategory)>,
    /// Leaf categories weighted by the Fig. 2 marginal.
    leaves: Weighted<LeafChoice>,
    /// Memory-op symbol lists weighted by the Fig. 3 operation mix.
    memory_ops: Weighted<Vec<usize>>,
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
        let mut root_frames = Vec::new();
        let roots = Weighted::new(
            profile
                .functionality
                .iter()
                .map(|(category, w)| {
                    let frame = registry.root_frame(category);
                    let root = (intern(&mut root_frames, frame), registry.bucket_root(frame));
                    (root, w)
                })
                .collect(),
        );
        let mut symbols = Vec::new();
        let mut intern_all = |names: Vec<&'static str>| -> Vec<usize> {
            names
                .into_iter()
                .map(|name| intern(&mut symbols, name))
                .collect()
        };
        let leaves = Weighted::new(
            profile
                .leaves
                .iter()
                .map(|(category, w)| {
                    let scaling = services.leaf_ipc(profile.id, category);
                    let choice = LeafChoice {
                        category,
                        symbols: intern_all(registry.leaf_symbols(category)),
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
                .map(|(op, w)| (intern_all(registry.memory_symbols(op)), w))
                .collect(),
        );
        let symbol_tags = symbols.iter().map(|s| registry.tag_symbol(s)).collect();
        Self {
            registry,
            mean_cycles: 1_000.0,
            rng: StdRng::seed_from_u64(seed),
            root_frames,
            symbols,
            symbol_tags,
            roots,
            leaves,
            memory_ops,
        }
    }

    /// Overrides the CPU generation (for the IPC-scaling studies).
    #[must_use]
    pub fn on_generation(mut self, generation: CpuGeneration) -> Self {
        for leaf in &mut self.leaves.values {
            leaf.ipc = leaf_ipc(leaf.scaling, leaf.category, generation);
        }
        self
    }

    /// The registry the generator names functions from.
    #[must_use]
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The root-frame and leaf-symbol tables a [`Sample`]'s indices
    /// point into.
    pub(crate) fn frame_tables(&self) -> (&[&'static str], &[&'static str]) {
        (&self.root_frames, &self.symbols)
    }

    /// Draws one sample. The RNG calls, in order: the root pick, the leaf
    /// pick, the memory-op pick (memory leaves only), the symbol index,
    /// the depth and the exponential cycle weight.
    pub fn draw(&mut self) -> Sample {
        let &(root, functionality) = self.roots.pick(&mut self.rng);
        let leaf = self.leaves.pick(&mut self.rng);
        // Memory leaves honor the service's Fig. 3 operation mix so the
        // analyzer can reconstruct the memory-op sub-breakdown; other
        // categories pick a representative symbol uniformly.
        let symbols = if leaf.category == LeafCategory::Memory {
            self.memory_ops.pick(&mut self.rng)
        } else {
            &leaf.symbols
        };
        let symbol = symbols[self.rng.gen_range(0..symbols.len())];
        // A few plausible intermediate frames.
        let depth = self.rng.gen_range(1..=LAYER_FRAMES.len());
        // Exponential cycle weight; IPC model supplies instructions.
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let cycles = -((1.0 - u).ln()) * self.mean_cycles;
        let (leaf_category, memory_op) = self.symbol_tags[symbol];
        Sample {
            functionality,
            leaf: leaf_category,
            memory_op,
            cycles,
            instructions: cycles * leaf.ipc,
            root,
            depth,
            symbol,
        }
    }

    /// Draws one sample and renders it into `trace`, overwriting its
    /// frames in place: a caller that reuses one buffer allocates nothing
    /// per sample.
    pub fn sample_into(&mut self, trace: &mut CallTrace) {
        let sample = self.draw();
        let frames = &mut trace.frames;
        frames.clear();
        // Exact, so a fresh trace from `generate` carries no spare capacity.
        frames.reserve_exact(sample.depth + 2);
        frames.push(self.root_frames[sample.root]);
        frames.extend_from_slice(&LAYER_FRAMES[..sample.depth]);
        frames.push(self.symbols[sample.symbol]);
        trace.cycles = sample.cycles;
        trace.instructions = sample.instructions;
    }

    /// Generates a batch of sampled call traces.
    pub fn generate(&mut self, samples: usize) -> Vec<CallTrace> {
        (0..samples)
            .map(|_| {
                let mut trace = CallTrace::default();
                self.sample_into(&mut trace);
                trace
            })
            .collect()
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
            assert!(t.frames.len() >= 3, "root + intermediate + leaf");
            assert!(t.root().starts_with("svc::"));
            assert!(t.cycles > 0.0);
            assert!(t.instructions > 0.0);
            assert!(
                t.instructions / t.cycles < 4.0,
                "IPC above theoretical peak"
            );
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
        let ipc = |t: &CallTrace| t.instructions / t.cycles;
        let mut checked = 0;
        for t in &traces {
            let category = symbols.tag_leaf(t.leaf());
            if edited.contains(&category) {
                assert!((ipc(t) - 1.9).abs() < 1e-9, "{category:?} ipc {}", ipc(t));
                checked += 1;
            }
        }
        assert!(checked > 0, "no sample hit an edited category");
        // The process default registry still yields the builtin IPC.
        let builtin = TraceGenerator::new(profile(ServiceId::Cache1), 7).generate(400);
        assert!(builtin.iter().all(|t| (ipc(t) - 1.9).abs() > 1e-9));
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

    /// The linear scan the exact cuts replace: the first entry whose
    /// weight exceeds what is left of `point`, else the last.
    fn scan_index(weights: &[f64], mut point: f64) -> usize {
        for (i, w) in weights.iter().enumerate() {
            if point < *w {
                return i;
            }
            point -= w;
        }
        weights.len() - 1
    }

    /// Checks the cut pick against the scan at random points (uniform in
    /// value, as the sampler draws them, and uniform in bit pattern, which
    /// reaches the subnormals), at 0 and the total, and at every cut, the
    /// float just below it and the float just above it.
    fn assert_cuts_match_scan(weights: &[f64], rng: &mut StdRng) {
        let w = Weighted::new(weights.iter().copied().enumerate().collect());
        assert!(
            w.cuts.windows(2).all(|c| c[0] <= c[1]),
            "{weights:?}: {:?}",
            w.cuts
        );
        let mut points = vec![0.0, w.total, f64::MAX];
        for cut in &w.cuts {
            let bits = cut.to_bits();
            points.push(*cut);
            points.push(f64::from_bits(bits.saturating_sub(1)));
            points.push(f64::from_bits(bits + 1));
        }
        if w.total > 0.0 && w.total.is_finite() {
            for _ in 0..2_000 {
                points.push(rng.gen_range(0.0..w.total));
                points.push(f64::from_bits(rng.gen_range(0..=w.total.to_bits())));
            }
        }
        for point in points.into_iter().filter(|p| p.is_finite()) {
            assert_eq!(
                w.index(point),
                scan_index(weights, point),
                "{weights:?} at {point:e} (bits {:#x}), cuts {:?}",
                point.to_bits(),
                w.cuts
            );
        }
    }

    #[test]
    fn exact_cuts_pick_the_scan_entry_for_every_shipped_profile() {
        let services = ServiceRegistry::builtin();
        let mut rng = StdRng::seed_from_u64(1);
        for id in ServiceId::ALL {
            let profile = &services.spec(id).profile;
            let lists: [Vec<f64>; 3] = [
                profile.functionality.iter().map(|(_, w)| w).collect(),
                profile.leaves.iter().map(|(_, w)| w).collect(),
                profile.memory_ops.iter().map(|(_, w)| w).collect(),
            ];
            for weights in lists {
                assert_cuts_match_scan(&weights, &mut rng);
            }
        }
    }

    #[test]
    fn exact_cuts_pick_the_scan_entry_for_adversarial_weights() {
        let tiny = f64::from_bits(1);
        let mut rng = StdRng::seed_from_u64(2);
        let fixed: [&[f64]; 12] = [
            &[1.0],
            &[0.0],
            &[0.0, 0.0, 5.0],
            &[5.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 2.0, 0.0],
            &[1e-300, 1e300, 1.0, 1e-300, 1e300],
            &[1e300, 1e-300, 1e300],
            &[tiny, 1e-310, f64::MIN_POSITIVE, tiny],
            &[tiny, tiny, tiny],
            &[0.1; 10],
            &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            &[33.3, 33.3, 33.4, 0.0],
        ];
        for weights in fixed {
            assert_cuts_match_scan(weights, &mut rng);
        }
        // Random vectors: up to 12 entries, each zero, subnormal or
        // anywhere from 1e-300 to 1e300.
        for _ in 0..300 {
            let len = rng.gen_range(1..=12);
            let weights: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => f64::from_bits(rng.gen_range(1..f64::MIN_POSITIVE.to_bits())),
                    2 => rng.gen_range(0.0..100.0),
                    _ => 10f64.powf(rng.gen_range(-300.0..300.0)),
                })
                .collect();
            assert_cuts_match_scan(&weights, &mut rng);
        }
    }

    #[test]
    fn every_build_time_tag_is_the_registry_tag() {
        let services = ServiceRegistry::builtin();
        let registry = FunctionRegistry::with_defaults();
        for id in ServiceId::ALL {
            let generator = TraceGenerator::for_service(&services, id, 1);
            for &(root, functionality) in &generator.roots.values {
                let frame = generator.root_frames[root];
                assert_eq!(registry.bucket_root(frame), functionality, "{id:?} {frame}");
            }
            for (symbol, &(leaf, op)) in generator.symbols.iter().zip(&generator.symbol_tags) {
                assert_eq!(registry.tag_leaf(symbol), leaf, "{id:?} {symbol}");
                let expected = if leaf == LeafCategory::Memory {
                    registry.tag_memory_op(symbol)
                } else {
                    None
                };
                assert_eq!(op, expected, "{id:?} {symbol}");
            }
            // Interned: no frame string has two indices.
            for table in [&generator.root_frames, &generator.symbols] {
                for (i, frame) in table.iter().enumerate() {
                    assert_eq!(
                        table.iter().position(|f| f == frame),
                        Some(i),
                        "{id:?} {frame}"
                    );
                }
            }
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
