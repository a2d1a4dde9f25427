//! The seven production microservices (§2.1) plus Cache3 (§4, case study
//! 2) and three workload packs, and the types of their characterization
//! profiles.
//!
//! The profile data lives in `configs/services/<slug>.json`. Every
//! percentage there is reconstructed from the paper: where a figure's
//! exact bar heights are ambiguous, the value is chosen to satisfy the
//! constraints the paper states in prose or tables. `configs/README.md`
//! lists the constraints that pin each service; the tests below check
//! them against the data.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::breakdown::Breakdown;
use crate::categories::{
    CLibOp, CopyOrigin, FunctionalityCategory as F, KernelOp, LeafCategory as L, MemoryOp,
    SyncPrimitive,
};
use crate::platform::CpuPlatform;

/// Identifier of a microservice in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ServiceId {
    /// The HipHop VM web tier serving end-user requests.
    Web,
    /// News Feed ranking: computes predicted user-relevance vectors.
    Feed1,
    /// News Feed aggregation and feature extraction.
    Feed2,
    /// Ads user-data service; ranks returned ads (and, in case study 3,
    /// offloads its ML inference to a remote CPU).
    Ads1,
    /// Ads ad-data service; traverses the sorted ad list.
    Ads2,
    /// Cache mid tier (fills Cache2 misses from the database).
    Cache1,
    /// Cache front tier (contacted by client services).
    Cache2,
    /// A third caching microservice, similar to Cache1/Cache2, used in
    /// the off-chip encryption case study (§4).
    Cache3,
    /// AI-inference workload pack: MLP inference wrapped in the AI Tax's
    /// pre/post-processing overheads (not a paper service).
    AiInference,
    /// Storage workload pack: a key-value store whose cycles lean on
    /// hashing and lock contention (not a paper service).
    Kvstore,
    /// Post-quantum-cryptography workload pack: lattice KEM/signature
    /// traffic dominating the cycle budget (not a paper service).
    Pqc,
}

impl ServiceId {
    /// The seven characterized services (§2) — Cache3 appears only in the
    /// validation study.
    pub const CHARACTERIZED: [ServiceId; 7] = [
        ServiceId::Web,
        ServiceId::Feed1,
        ServiceId::Feed2,
        ServiceId::Ads1,
        ServiceId::Ads2,
        ServiceId::Cache1,
        ServiceId::Cache2,
    ];

    /// All services: the paper's eight plus the three workload packs.
    pub const ALL: [ServiceId; 11] = [
        ServiceId::Web,
        ServiceId::Feed1,
        ServiceId::Feed2,
        ServiceId::Ads1,
        ServiceId::Ads2,
        ServiceId::Cache1,
        ServiceId::Cache2,
        ServiceId::Cache3,
        ServiceId::AiInference,
        ServiceId::Kvstore,
        ServiceId::Pqc,
    ];

    /// The three workload packs shipped as data files under
    /// `configs/services/` (derived from the AI Tax / Data Center Tax
    /// breakdowns, not measured in the paper).
    pub const PACKS: [ServiceId; 3] = [ServiceId::AiInference, ServiceId::Kvstore, ServiceId::Pqc];

    /// The service domain (§2.1 groups the seven services into four;
    /// the workload packs add three more).
    #[must_use]
    pub fn domain(self) -> ServiceDomain {
        match self {
            ServiceId::Web => ServiceDomain::Web,
            ServiceId::Feed1 | ServiceId::Feed2 => ServiceDomain::NewsFeed,
            ServiceId::Ads1 | ServiceId::Ads2 => ServiceDomain::Ads,
            ServiceId::Cache1 | ServiceId::Cache2 | ServiceId::Cache3 => ServiceDomain::Cache,
            ServiceId::AiInference => ServiceDomain::MlInference,
            ServiceId::Kvstore => ServiceDomain::Storage,
            ServiceId::Pqc => ServiceDomain::Crypto,
        }
    }

    /// The kebab-case identifier used in the JSON schema and as the
    /// `configs/services/<slug>.json` file stem.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            ServiceId::Web => "web",
            ServiceId::Feed1 => "feed1",
            ServiceId::Feed2 => "feed2",
            ServiceId::Ads1 => "ads1",
            ServiceId::Ads2 => "ads2",
            ServiceId::Cache1 => "cache1",
            ServiceId::Cache2 => "cache2",
            ServiceId::Cache3 => "cache3",
            ServiceId::AiInference => "ai-inference",
            ServiceId::Kvstore => "kvstore",
            ServiceId::Pqc => "pqc",
        }
    }

    /// Parses a kebab-case identifier produced by [`ServiceId::slug`].
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<ServiceId> {
        ServiceId::ALL.into_iter().find(|s| s.slug() == slug)
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ServiceId::Web => "Web",
            ServiceId::Feed1 => "Feed1",
            ServiceId::Feed2 => "Feed2",
            ServiceId::Ads1 => "Ads1",
            ServiceId::Ads2 => "Ads2",
            ServiceId::Cache1 => "Cache1",
            ServiceId::Cache2 => "Cache2",
            ServiceId::Cache3 => "Cache3",
            ServiceId::AiInference => "AI-Inference",
            ServiceId::Kvstore => "KVStore",
            ServiceId::Pqc => "PQC",
        };
        f.write_str(name)
    }
}

/// The four service domains of §2.1, plus one per workload pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ServiceDomain {
    /// Web serving (HipHop VM).
    Web,
    /// News Feed.
    NewsFeed,
    /// Ad serving.
    Ads,
    /// Distributed-memory object caching.
    Cache,
    /// Standalone ML-inference serving (AI Tax workload pack).
    MlInference,
    /// Persistent key-value storage (kvstore workload pack).
    Storage,
    /// Cryptography-dominated transport (post-quantum workload pack).
    Crypto,
}

/// Per-second operation rates for a service at peak load, used to derive
/// the model's `n` parameters. Rates marked in Table 6/7 are the paper's;
/// the rest are synthetic but order-of-magnitude consistent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceRates {
    /// `C`: busy host cycles per second.
    pub host_cycles_per_second: f64,
    /// Compression invocations per second.
    pub compressions_per_second: f64,
    /// Memory copies per second.
    pub copies_per_second: f64,
    /// Memory allocations per second.
    pub allocations_per_second: f64,
    /// Encryption operations per second.
    pub encryptions_per_second: f64,
}

/// A microservice's complete characterization profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// The service this profile describes.
    pub id: ServiceId,
    /// Fig. 9: cycles by microservice functionality.
    pub functionality: Breakdown<F>,
    /// Fig. 2: cycles by leaf-function category.
    pub leaves: Breakdown<L>,
    /// Fig. 3: shares of *memory* cycles by memory operation.
    pub memory_ops: Breakdown<MemoryOp>,
    /// Fig. 4: shares of *copy* cycles by originating functionality.
    pub copy_origins: Breakdown<CopyOrigin>,
    /// Fig. 5: shares of *kernel* cycles by kernel operation.
    pub kernel_ops: Breakdown<KernelOp>,
    /// Fig. 6: shares of *synchronization* cycles by primitive.
    pub sync_ops: Breakdown<SyncPrimitive>,
    /// Fig. 7: shares of *C-library* cycles by routine family.
    pub clib_ops: Breakdown<CLibOp>,
    /// Operation rates at peak load.
    pub rates: ServiceRates,
    /// The Table 1 platform the service runs on (§2.2).
    pub platform: CpuPlatform,
}

impl ServiceProfile {
    /// Fig. 1's "Application Logic" share: cycles in core work
    /// (application logic + inference + feature extraction).
    #[must_use]
    pub fn core_percent(&self) -> f64 {
        self.functionality.percent_where(F::is_core)
    }

    /// Fig. 1's "Orchestration" share: everything that merely facilitates
    /// the core logic.
    #[must_use]
    pub fn orchestration_percent(&self) -> f64 {
        self.functionality.percent_where(|c| !c.is_core())
    }

    /// Fraction of total cycles in a memory operation, composing the
    /// Fig. 2 memory share with the Fig. 3 sub-share — e.g. Ads1's copy
    /// fraction is 28% × 54% = 15.12% (Table 7's `α`).
    #[must_use]
    pub fn memory_op_fraction(&self, op: MemoryOp) -> f64 {
        self.leaves.fraction(L::Memory) * self.memory_ops.fraction(op)
    }
}

/// Returns the characterization profile for a service from the process
/// default registry ([`crate::registry::current_registry`]). Runners
/// read [`ServiceRegistry::profile`](crate::ServiceRegistry::profile)
/// on the registry they are handed; the benchmark harness still calls
/// this.
#[must_use]
pub fn profile(id: ServiceId) -> ServiceProfile {
    crate::registry::current_registry().profile(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The category with the largest share.
    fn dominant<C: Copy + PartialEq>(breakdown: &Breakdown<C>) -> C {
        breakdown
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty")
            .0
    }

    #[test]
    fn all_profiles_are_complete() {
        for id in ServiceId::ALL {
            let p = profile(id);
            assert_eq!(p.id, id);
            assert!(p.functionality.is_complete(), "{id} functionality");
            assert!(p.leaves.is_complete(), "{id} leaves");
            assert!(p.memory_ops.is_complete(), "{id} memory ops");
            assert!(p.copy_origins.is_complete(), "{id} copy origins");
            assert!(p.kernel_ops.is_complete(), "{id} kernel ops");
            assert!(p.sync_ops.is_complete(), "{id} sync ops");
            assert!(p.clib_ops.is_complete(), "{id} clib ops");
        }
    }

    #[test]
    fn web_core_and_logging_match_paper() {
        let web = profile(ServiceId::Web);
        // §2.4: "Web spends only 18% of cycles in core web serving logic,
        // consuming 23% of cycles in reading and updating logs."
        assert_eq!(web.core_percent(), 18.0);
        assert_eq!(web.functionality.percent(F::Logging), 23.0);
        assert_eq!(web.orchestration_percent(), 82.0);
    }

    #[test]
    fn inference_fractions_span_the_paper_bounds() {
        // §2.4: inference services spend "as few as 33%" of cycles on ML
        // inference, yielding 1.49×–2.38× ideal gains.
        let fractions: Vec<f64> = [
            ServiceId::Feed1,
            ServiceId::Feed2,
            ServiceId::Ads1,
            ServiceId::Ads2,
        ]
        .iter()
        .map(|&id| profile(id).functionality.fraction(F::PredictionRanking))
        .collect();
        let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fractions.iter().cloned().fold(0.0, f64::max);
        assert_eq!(min, 0.33);
        assert_eq!(max, 0.58);
        let ideal_min = 1.0 / (1.0 - min);
        let ideal_max = 1.0 / (1.0 - max);
        assert!((ideal_min - 1.49).abs() < 0.01);
        assert!((ideal_max - 2.38).abs() < 0.01);
    }

    #[test]
    fn ads1_copy_alpha_is_table7_value() {
        let ads1 = profile(ServiceId::Ads1);
        // 28% memory × 54% copy share = 0.1512 (Table 7).
        assert!((ads1.memory_op_fraction(MemoryOp::Copy) - 0.1512).abs() < 1e-9);
        assert_eq!(ads1.rates.copies_per_second, 1_473_681.0);
    }

    #[test]
    fn cache1_alloc_alpha_near_table7_value() {
        let c1 = profile(ServiceId::Cache1);
        // 26% memory × 21% allocation share = 0.0546 ≈ Table 7's 0.055.
        assert!((c1.memory_op_fraction(MemoryOp::Allocation) - 0.055).abs() < 0.001);
        assert_eq!(c1.rates.allocations_per_second, 51_695.0);
    }

    #[test]
    fn cache1_encryption_matches_case_study_1() {
        let c1 = profile(ServiceId::Cache1);
        assert_eq!(c1.rates.encryptions_per_second, 298_951.0);
        assert_eq!(c1.rates.host_cycles_per_second, 2.0e9);
        // SSL leaf share is 6% (§2.3); secure I/O α = 0.165844 sits within
        // the 42% I/O functionality share.
        assert_eq!(c1.leaves.percent(L::Ssl), 6.0);
        assert!(c1.functionality.fraction(F::SecureInsecureIo) > 0.165844);
    }

    #[test]
    fn cache3_encryption_matches_case_study_2() {
        let c3 = profile(ServiceId::Cache3);
        assert_eq!(c3.rates.encryptions_per_second, 101_863.0);
        assert_eq!(c3.rates.host_cycles_per_second, 2.3e9);
        // Fig. 17 has no compression category.
        assert_eq!(c3.functionality.percent(F::Compression), 0.0);
        assert!(c3.functionality.fraction(F::SecureInsecureIo) > 0.19154);
    }

    #[test]
    fn feed1_compression_matches_table7() {
        let f1 = profile(ServiceId::Feed1);
        assert_eq!(f1.functionality.percent(F::Compression), 15.0);
        assert_eq!(f1.rates.compressions_per_second, 15_008.0);
        assert_eq!(f1.rates.host_cycles_per_second, 2.3e9);
    }

    #[test]
    fn caches_have_high_io_and_kernel() {
        // Abstract: caching services spend up to 52% of cycles in I/O.
        assert_eq!(
            profile(ServiceId::Cache2)
                .functionality
                .percent(F::SecureInsecureIo),
            52.0
        );
        // §2.3: Cache1/Cache2 spend more cycles in the kernel.
        for id in [ServiceId::Cache1, ServiceId::Cache2] {
            let kernel = profile(id).leaves.percent(L::Kernel);
            for other in [ServiceId::Web, ServiceId::Feed1, ServiceId::Feed2] {
                assert!(kernel > profile(other).leaves.percent(L::Kernel));
            }
        }
    }

    #[test]
    fn caches_prefer_spin_locks() {
        // §2.3.3: Cache implements spin locks to avoid µs-scale wakeups.
        for id in [ServiceId::Cache1, ServiceId::Cache2] {
            let p = profile(id);
            assert_eq!(dominant(&p.sync_ops), SyncPrimitive::SpinLock, "{id}");
        }
        // Non-cache services don't.
        assert_ne!(
            dominant(&profile(ServiceId::Web).sync_ops),
            SyncPrimitive::SpinLock
        );
    }

    #[test]
    fn ml_services_are_vector_heavy_web_is_string_heavy() {
        // §2.3.4.
        for id in [ServiceId::Feed2, ServiceId::Ads1, ServiceId::Ads2] {
            assert_eq!(dominant(&profile(id).clib_ops), CLibOp::Vectors, "{id}");
        }
        let web = profile(ServiceId::Web);
        assert!(web.clib_ops.percent(CLibOp::Strings) >= 30.0);
        assert!(web.clib_ops.percent(CLibOp::HashTables) >= 20.0);
    }

    #[test]
    fn memory_is_significant_and_copy_dominated() {
        // §2.3.1: copies are the greatest consumers of memory cycles for
        // every service; Web's memory share is the 37% maximum.
        let mut max_mem: f64 = 0.0;
        for id in ServiceId::CHARACTERIZED {
            let p = profile(id);
            assert_eq!(dominant(&p.memory_ops), MemoryOp::Copy, "{id}");
            max_mem = max_mem.max(p.leaves.percent(L::Memory));
        }
        assert_eq!(max_mem, 37.0);
    }

    #[test]
    fn copy_origin_diversity() {
        // §2.3.1: Web copies mostly in I/O pre/post processing; Cache2
        // mostly in the network protocol stack (I/O).
        assert_eq!(
            dominant(&profile(ServiceId::Web).copy_origins),
            CopyOrigin::IoPrePostProcessing
        );
        assert_eq!(
            dominant(&profile(ServiceId::Cache2).copy_origins),
            CopyOrigin::SecureInsecureIo
        );
        // Cache1's key-value store copies show up as application logic.
        assert_eq!(
            dominant(&profile(ServiceId::Cache1).copy_origins),
            CopyOrigin::ApplicationLogic
        );
    }

    #[test]
    fn platform_assignment_matches_section_2_2() {
        // Web, Feed1, Feed2, Ads1 on the 18-core Skylake; Ads2, Cache1,
        // Cache2 on the 20-core.
        for id in [
            ServiceId::Web,
            ServiceId::Feed1,
            ServiceId::Feed2,
            ServiceId::Ads1,
        ] {
            assert_eq!(profile(id).platform.cores_per_socket, 18, "{id}");
        }
        for id in [ServiceId::Ads2, ServiceId::Cache1, ServiceId::Cache2] {
            assert_eq!(profile(id).platform.cores_per_socket, 20, "{id}");
        }
    }

    #[test]
    fn domains_and_inference_flags() {
        assert_eq!(ServiceId::Web.domain(), ServiceDomain::Web);
        assert_eq!(ServiceId::Feed2.domain(), ServiceDomain::NewsFeed);
        assert_eq!(ServiceId::Ads1.domain(), ServiceDomain::Ads);
        assert_eq!(ServiceId::Cache3.domain(), ServiceDomain::Cache);
        assert_eq!(ServiceId::CHARACTERIZED.len(), 7);
    }

    #[test]
    fn ml_services_orchestrate_42_to_67_percent() {
        // §2.4: the inference services consume "42% - 67% of cycles in
        // orchestrating inference".
        let orch: Vec<f64> = [
            ServiceId::Feed1,
            ServiceId::Feed2,
            ServiceId::Ads1,
            ServiceId::Ads2,
        ]
        .iter()
        .map(|&id| profile(id).orchestration_percent())
        .collect();
        let min = orch.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = orch.iter().cloned().fold(0.0, f64::max);
        assert!((min - 42.0).abs() < 1e-9, "min orchestration {min}");
        assert!((max - 67.0).abs() < 1e-9, "max orchestration {max}");
    }

    #[test]
    fn orchestration_dominates_for_most_services() {
        // Fig. 1: "orchestration overheads can significantly dominate".
        let dominated = ServiceId::CHARACTERIZED
            .iter()
            .filter(|&&id| profile(id).orchestration_percent() > 50.0)
            .count();
        assert!(
            dominated >= 4,
            "only {dominated} services orchestration-dominated"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ServiceId::Feed1.to_string(), "Feed1");
        assert_eq!(ServiceId::Cache3.to_string(), "Cache3");
    }
}
