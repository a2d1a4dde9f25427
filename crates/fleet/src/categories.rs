//! The characterization taxonomies: leaf-function categories (Table 2),
//! microservice-functionality categories (Table 3), and the sub-category
//! taxonomies of Figs. 3–7.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! category {
    (
        $(#[$meta:meta])*
        $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident => ($label:literal, $desc:literal) ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        #[serde(rename_all = "kebab-case")]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// All categories, in the paper's presentation order.
            pub const ALL: &'static [$name] = &[ $( $name::$variant, )+ ];

            /// The display label used in the paper's figures.
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $( $name::$variant => $label, )+
                }
            }

            /// Examples of operations in this category, from the paper's
            /// taxonomy tables.
            #[must_use]
            pub fn examples(self) -> &'static str {
                match self {
                    $( $name::$variant => $desc, )+
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.label())
            }
        }
    };
}

category! {
    /// Leaf-function categories (Table 2): the classification applied to
    /// the innermost function of every sampled call trace.
    LeafCategory {
        /// Memory copy, allocation, free, compare, move, set.
        Memory => ("Memory", "memory copy, allocation, free, compare"),
        /// Kernel-mode execution.
        Kernel => ("Kernel", "task scheduling, interrupt handling, network communication, memory management"),
        /// Cryptographic and non-cryptographic hash functions.
        Hashing => ("Hashing", "SHA & other hash algorithms"),
        /// User-space synchronization primitives.
        Synchronization => ("Synchronization", "user-space C++ atomics, mutex, spin locks, CAS"),
        /// Compression and decompression.
        Zstd => ("ZSTD", "compression, decompression"),
        /// Vectorized math libraries.
        Math => ("Math", "Intel's MKL, AVX"),
        /// Encryption and decryption.
        Ssl => ("SSL", "encryption, decryption"),
        /// General-purpose C/C++ library routines.
        CLibraries => ("C Libraries", "C/C++ search algorithms, array & string compute"),
        /// Everything else.
        Miscellaneous => ("Miscellaneous", "other assorted function types"),
    }
}

category! {
    /// Microservice-functionality categories (Table 3): the classification
    /// applied to whole call traces.
    FunctionalityCategory {
        /// Encrypted and plain-text I/O sends and receives.
        SecureInsecureIo => ("Secure + Insecure IO", "encrypted/plain-text I/O sends & receives"),
        /// Work before/after I/O: allocations, copies, framing.
        IoPrePostProcessing => ("IO Pre/Post Processing", "allocations, copies, etc before/after I/O"),
        /// Compression and decompression logic.
        Compression => ("Compression", "compression/decompression logic"),
        /// RPC argument (de)serialization.
        Serialization => ("Serialization/Deserialization", "RPC serialization/deserialization"),
        /// Feature-vector creation in ML services.
        FeatureExtraction => ("Feature Extraction", "feature vector creation in ML services"),
        /// ML inference.
        PredictionRanking => ("Prediction/Ranking", "ML inference algorithms"),
        /// The service's core business logic.
        ApplicationLogic => ("Application Logic", "core business logic (e.g., Cache's key-value serving)"),
        /// Creating, reading, and updating logs.
        Logging => ("Logging", "creating, reading, updating logs"),
        /// Creating, deleting, and synchronizing threads.
        ThreadPoolManagement => ("Thread Pool Management", "creating, deleting, synchronizing threads"),
        /// Everything else.
        Miscellaneous => ("Miscellaneous", "other assorted operations"),
    }
}

impl FunctionalityCategory {
    /// Whether the category is *core application logic* in the sense of
    /// Fig. 1 (versus orchestration work that merely facilitates it).
    ///
    /// Core is application logic plus ML inference: §2.4 notes that the
    /// ML services' "application logic" covers core non-ML operations
    /// such as merging results, while inference is the kernel the
    /// accelerators of §4–5 target. Feature extraction counts as
    /// orchestration — it prepares inputs for inference, and the paper's
    /// "42%–67% of cycles orchestrating inference" range only holds with
    /// it on that side of the ledger.
    #[must_use]
    pub fn is_core(self) -> bool {
        matches!(
            self,
            FunctionalityCategory::ApplicationLogic | FunctionalityCategory::PredictionRanking
        )
    }
}

category! {
    /// Memory leaf sub-categories (Fig. 3).
    MemoryOp {
        /// `memcpy()` and friends.
        Copy => ("Memory-Copy", "memcpy and related bulk copies"),
        /// `free()` / `delete` paths, size-class lookups, page removal.
        Free => ("Memory-Free", "free, size-class lookup, page removal"),
        /// `malloc()` / `new` paths.
        Allocation => ("Memory-Allocation", "malloc/new and allocator metadata"),
        /// `memmove()`.
        Move => ("Memory-Move", "memmove"),
        /// `memset()`.
        Set => ("Memory-Set", "memset and zeroing"),
        /// `memcmp()`.
        Compare => ("Memory-Compare", "memcmp"),
    }
}

category! {
    /// Microservice functionalities that originate memory copies (Fig. 4).
    CopyOrigin {
        /// Copies inside I/O send/receive paths.
        SecureInsecureIo => ("Secure + Insecure IO", "copies in network/SSL send and receive"),
        /// Copies while preparing or consuming I/O buffers.
        IoPrePostProcessing => ("IO Pre/Post Processing", "copies before/after I/O"),
        /// Copies during RPC (de)serialization.
        Serialization => ("Serialization/Deserialization", "copies in RPC marshalling"),
        /// Copies inside the core application logic.
        ApplicationLogic => ("Application Logic", "copies in business logic, e.g. key-value stores"),
    }
}

category! {
    /// Kernel leaf sub-categories (Fig. 5).
    KernelOp {
        /// Run-queue and context-switch work.
        Scheduler => ("Scheduler", "task scheduling, run-queue management"),
        /// epoll/select/interrupt delivery.
        EventHandling => ("Event Handling", "event notification, interrupt handling"),
        /// The in-kernel network stack.
        Network => ("Network", "TCP/IP stack, socket operations"),
        /// Kernel-side locking.
        Synchronization => ("Synchronization", "kernel locks and futex paths"),
        /// Page tables, page faults, reclaim.
        MemoryManagement => ("Memory Management", "paging, faults, reclaim"),
        /// Everything else.
        Miscellaneous => ("Miscellaneous", "other kernel paths"),
    }
}

category! {
    /// User-space synchronization primitives (Fig. 6).
    SyncPrimitive {
        /// C++ `std::atomic` operations.
        Atomics => ("C++ Atomics", "std::atomic loads/stores/RMWs"),
        /// Mutex acquire/release including futex waits.
        Mutex => ("Mutex", "mutex lock/unlock"),
        /// Compare-exchange loops.
        CompareExchange => ("Compare-Exchange-Swap", "CAS retry loops"),
        /// Spin locks (used by µs-scale services to avoid wakeup delays).
        SpinLock => ("Spin Lock", "busy-wait locks"),
    }
}

category! {
    /// C-library sub-categories (Fig. 7).
    CLibOp {
        /// `std::` algorithms (sort, search, …).
        StdAlgorithms => ("Std algorithms", "std:: sort/search/transform"),
        /// Object construction and destruction.
        CtorsDtors => ("Constructors/Destructors", "object construction/destruction"),
        /// String parsing and transformation.
        Strings => ("Strings", "string parsing and transformation"),
        /// Hash-table lookups and maintenance.
        HashTables => ("Hash tables", "hash-table look-ups"),
        /// Vector operations (dominant in ML feature handling).
        Vectors => ("Vectors", "vector operations on feature data"),
        /// Tree data structures.
        Trees => ("Trees", "ordered-tree operations"),
        /// Overloaded-operator dispatch.
        OperatorOverride => ("Operator override", "overloaded operator implementations"),
        /// Everything else.
        Miscellaneous => ("Miscellaneous", "other library routines"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_nine_leaf_categories() {
        assert_eq!(LeafCategory::ALL.len(), 9);
        assert_eq!(LeafCategory::Zstd.label(), "ZSTD");
        assert!(LeafCategory::Kernel.examples().contains("scheduling"));
    }

    #[test]
    fn table3_has_ten_functionality_categories() {
        assert_eq!(FunctionalityCategory::ALL.len(), 10);
        assert!(FunctionalityCategory::ApplicationLogic
            .examples()
            .contains("key-value"));
    }

    #[test]
    fn core_vs_orchestration_split() {
        use FunctionalityCategory as F;
        let core: Vec<_> = F::ALL.iter().filter(|c| c.is_core()).collect();
        assert_eq!(core.len(), 2);
        assert!(F::ApplicationLogic.is_core());
        assert!(F::PredictionRanking.is_core());
        assert!(!F::FeatureExtraction.is_core());
        assert!(!F::Compression.is_core());
        assert!(!F::Logging.is_core());
        assert!(!F::SecureInsecureIo.is_core());
    }

    #[test]
    fn sub_taxonomies_match_figure_legends() {
        assert_eq!(MemoryOp::ALL.len(), 6);
        assert_eq!(CopyOrigin::ALL.len(), 4);
        assert_eq!(KernelOp::ALL.len(), 6);
        assert_eq!(SyncPrimitive::ALL.len(), 4);
        assert_eq!(CLibOp::ALL.len(), 8);
    }

    #[test]
    fn display_uses_figure_labels() {
        assert_eq!(MemoryOp::Copy.to_string(), "Memory-Copy");
        assert_eq!(
            SyncPrimitive::CompareExchange.to_string(),
            "Compare-Exchange-Swap"
        );
        assert_eq!(
            FunctionalityCategory::SecureInsecureIo.to_string(),
            "Secure + Insecure IO"
        );
    }

    #[test]
    fn serde_round_trip() {
        let json = serde_json::to_string(&LeafCategory::CLibraries).unwrap();
        assert_eq!(json, "\"c-libraries\"");
        let back: FunctionalityCategory = serde_json::from_str("\"prediction-ranking\"").unwrap();
        assert_eq!(back, FunctionalityCategory::PredictionRanking);
    }

    #[test]
    fn categories_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let set: HashSet<_> = LeafCategory::ALL.iter().collect();
        assert_eq!(set.len(), 9);
        assert!(LeafCategory::Memory < LeafCategory::Miscellaneous);
    }
}
