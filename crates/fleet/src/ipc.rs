//! IPC scaling (Figs. 8 and 10): Cache1's per-core IPC across three CPU
//! generations, for key leaf categories and key functionality
//! categories. The values ride in Cache1's service spec and are read
//! through [`ServiceRegistry::leaf_ipc`](crate::ServiceRegistry::leaf_ipc)
//! and [`ServiceRegistry::functionality_ipc`](crate::ServiceRegistry::functionality_ipc).
//!
//! Reconstructed to satisfy §2.3.5 and §2.4.1: every leaf category uses
//! less than half the theoretical execution bandwidth (peak IPC 4.0);
//! kernel IPC is low (<0.5) and scales poorly; C-library IPC scales well;
//! GenB→GenC gains are small except for C libraries; I/O IPC is low and
//! flat (driven by kernel IPC); key-value (application-logic) IPC barely
//! improves because it is memory-bound.

use serde::{Deserialize, Serialize};

use crate::categories::{FunctionalityCategory, LeafCategory};
use crate::platform::CpuGeneration;

/// IPC of one category across the three generations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IpcScaling {
    /// IPC on GenA (Haswell).
    pub gen_a: f64,
    /// IPC on GenB (Broadwell).
    pub gen_b: f64,
    /// IPC on GenC (Skylake).
    pub gen_c: f64,
}

impl IpcScaling {
    /// IPC for a specific generation.
    #[must_use]
    pub fn for_generation(&self, generation: CpuGeneration) -> f64 {
        match generation {
            CpuGeneration::GenA => self.gen_a,
            CpuGeneration::GenB => self.gen_b,
            CpuGeneration::GenC => self.gen_c,
        }
    }
}

/// The leaf categories Fig. 8 covers, in presentation order.
pub const FIG8_CATEGORIES: [LeafCategory; 5] = [
    LeafCategory::Memory,
    LeafCategory::Kernel,
    LeafCategory::Zstd,
    LeafCategory::Ssl,
    LeafCategory::CLibraries,
];

/// The functionality categories Fig. 10 covers, in presentation order.
pub const FIG10_CATEGORIES: [FunctionalityCategory; 4] = [
    FunctionalityCategory::SecureInsecureIo,
    FunctionalityCategory::IoPrePostProcessing,
    FunctionalityCategory::Serialization,
    FunctionalityCategory::ApplicationLogic,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServiceRegistry;
    use crate::services::ServiceId;

    /// Relative IPC improvement across the full GenA→GenC span.
    fn total_scaling(ipc: &IpcScaling) -> f64 {
        ipc.gen_c / ipc.gen_a
    }

    fn cache1_leaf(category: LeafCategory) -> Option<IpcScaling> {
        ServiceRegistry::builtin().leaf_ipc(ServiceId::Cache1, category)
    }

    fn cache1_functionality(category: FunctionalityCategory) -> Option<IpcScaling> {
        ServiceRegistry::builtin().functionality_ipc(ServiceId::Cache1, category)
    }

    #[test]
    fn every_leaf_ipc_below_half_peak() {
        // §2.3.5: "Each leaf function type uses less than half of the
        // theoretical execution bandwidth of a GenC CPU (peak 4.0)".
        for cat in FIG8_CATEGORIES {
            let ipc = cache1_leaf(cat).unwrap();
            for generation in CpuGeneration::ALL {
                assert!(
                    ipc.for_generation(generation) < 2.0,
                    "{cat:?} on {generation} exceeds half peak"
                );
            }
        }
    }

    #[test]
    fn kernel_ipc_is_low_and_scales_poorly() {
        let kernel = cache1_leaf(LeafCategory::Kernel).unwrap();
        assert!(kernel.gen_c < 0.5);
        assert!(total_scaling(&kernel) < 1.15);
    }

    #[test]
    fn c_libraries_scale_well() {
        let clib = cache1_leaf(LeafCategory::CLibraries).unwrap();
        assert!(total_scaling(&clib) > 1.5);
        // And they dominate every other category's scaling.
        for cat in FIG8_CATEGORIES {
            if cat != LeafCategory::CLibraries {
                assert!(total_scaling(&cache1_leaf(cat).unwrap()) < total_scaling(&clib));
            }
        }
    }

    #[test]
    fn genb_to_genc_gain_is_small_except_clib() {
        for cat in FIG8_CATEGORIES {
            let scaling = {
                let ipc = cache1_leaf(cat).unwrap();
                ipc.gen_c / ipc.gen_b
            };
            if cat == LeafCategory::CLibraries {
                assert!(scaling > 1.2);
            } else {
                assert!(
                    scaling < 1.12,
                    "{cat:?} GenB→GenC gain too large: {scaling}"
                );
            }
        }
    }

    #[test]
    fn io_ipc_tracks_kernel_ipc() {
        // §2.4.1: the low I/O IPC is primarily due to the low kernel IPC.
        let io = cache1_functionality(FunctionalityCategory::SecureInsecureIo).unwrap();
        let kernel = cache1_leaf(LeafCategory::Kernel).unwrap();
        for generation in CpuGeneration::ALL {
            assert!(
                (io.for_generation(generation) - kernel.for_generation(generation)).abs() < 0.1
            );
        }
        assert!(total_scaling(&io) < 1.1);
    }

    #[test]
    fn key_value_store_ipc_barely_improves() {
        // §2.4.1: memory-bound key-value serving sees little IPC gain.
        let app = cache1_functionality(FunctionalityCategory::ApplicationLogic).unwrap();
        assert!(total_scaling(&app) < 1.15);
        let memory = cache1_leaf(LeafCategory::Memory).unwrap();
        assert!(app.gen_c < memory.gen_c);
    }

    #[test]
    fn uncovered_categories_return_none() {
        assert!(cache1_leaf(LeafCategory::Math).is_none());
        assert!(cache1_leaf(LeafCategory::Miscellaneous).is_none());
        assert!(cache1_functionality(FunctionalityCategory::Logging).is_none());
        assert!(cache1_functionality(FunctionalityCategory::Compression).is_none());
    }

    #[test]
    fn ipc_never_decreases_across_generations() {
        for cat in FIG8_CATEGORIES {
            let ipc = cache1_leaf(cat).unwrap();
            assert!(ipc.gen_b >= ipc.gen_a);
            assert!(ipc.gen_c >= ipc.gen_b);
        }
        for cat in FIG10_CATEGORIES {
            let ipc = cache1_functionality(cat).unwrap();
            assert!(ipc.gen_b >= ipc.gen_a);
            assert!(ipc.gen_c >= ipc.gen_b);
        }
    }
}
