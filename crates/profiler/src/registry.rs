//! The function registry: the tagging rules behind the paper's
//! "internal tool that tags each leaf function's category" (§2.2).
//!
//! Leaf functions are recognized by symbol name (e.g. `memcpy` →
//! Memory); call-trace roots carry functionality markers (e.g. a frame
//! under `svc::io::` buckets the trace into Secure+Insecure I/O). The
//! default registry covers representative symbols for every Table 2 and
//! Table 3 category.

use std::collections::HashMap;

use accelerometer_fleet::{FunctionalityCategory, LeafCategory, MemoryOp};

/// Functionality markers: each category's root-frame prefix and the
/// `handle_request` root frame the trace generator emits under it.
const FUNCTIONALITY_ROOTS: [(&str, &str, FunctionalityCategory); 10] = [
    (
        "svc::io::",
        "svc::io::handle_request",
        FunctionalityCategory::SecureInsecureIo,
    ),
    (
        "svc::io_prep::",
        "svc::io_prep::handle_request",
        FunctionalityCategory::IoPrePostProcessing,
    ),
    (
        "svc::compress::",
        "svc::compress::handle_request",
        FunctionalityCategory::Compression,
    ),
    (
        "svc::serde::",
        "svc::serde::handle_request",
        FunctionalityCategory::Serialization,
    ),
    (
        "svc::features::",
        "svc::features::handle_request",
        FunctionalityCategory::FeatureExtraction,
    ),
    (
        "svc::predict::",
        "svc::predict::handle_request",
        FunctionalityCategory::PredictionRanking,
    ),
    (
        "svc::app::",
        "svc::app::handle_request",
        FunctionalityCategory::ApplicationLogic,
    ),
    (
        "svc::log::",
        "svc::log::handle_request",
        FunctionalityCategory::Logging,
    ),
    (
        "svc::threads::",
        "svc::threads::handle_request",
        FunctionalityCategory::ThreadPoolManagement,
    ),
    (
        "svc::misc::",
        "svc::misc::handle_request",
        FunctionalityCategory::Miscellaneous,
    ),
];

/// Maps symbol names to leaf categories and trace-root prefixes to
/// functionality categories.
#[derive(Debug, Clone)]
pub struct FunctionRegistry {
    leaves: HashMap<&'static str, LeafCategory>,
}

impl FunctionRegistry {
    /// Builds the default registry with representative symbols for every
    /// category.
    #[must_use]
    pub fn with_defaults() -> Self {
        let mut leaves = HashMap::new();
        let mut add = |cat: LeafCategory, names: &[&'static str]| {
            for &n in names {
                leaves.insert(n, cat);
            }
        };
        add(
            LeafCategory::Memory,
            &[
                "memcpy",
                "memmove",
                "memset",
                "memcmp",
                "malloc",
                "free",
                "operator new",
                "operator delete",
            ],
        );
        add(
            LeafCategory::Kernel,
            &[
                "__schedule",
                "tcp_sendmsg",
                "tcp_recvmsg",
                "epoll_wait",
                "handle_irq",
                "futex_wait",
                "page_fault",
                "copy_user_generic",
            ],
        );
        add(
            LeafCategory::Hashing,
            &["sha256_block", "fnv1a", "crc32", "murmur_hash"],
        );
        add(
            LeafCategory::Synchronization,
            &[
                "std::atomic::load",
                "pthread_mutex_lock",
                "compare_exchange",
                "spin_lock",
            ],
        );
        add(
            LeafCategory::Zstd,
            &[
                "ZSTD_compressBlock",
                "ZSTD_decompressBlock",
                "lz77_match",
                "huff_decode",
            ],
        );
        add(
            LeafCategory::Math,
            &["mkl_sgemm", "avx_dot_product", "vexp", "cblas_sgemv"],
        );
        add(
            LeafCategory::Ssl,
            &[
                "aes_encrypt_block",
                "EVP_EncryptUpdate",
                "tls_record_seal",
                "rsa_sign",
            ],
        );
        add(
            LeafCategory::CLibraries,
            &[
                "std::sort",
                "std::string::append",
                "std::unordered_map::find",
                "std::vector::push_back",
                "strcmp",
                "std::map::lower_bound",
            ],
        );
        add(LeafCategory::Miscellaneous, &["unknown_leaf", "jit_stub"]);

        Self { leaves }
    }

    /// Tags a leaf symbol; unknown symbols fall into Miscellaneous, the
    /// way an "other assorted function types" bucket absorbs the tail.
    #[must_use]
    pub fn tag_leaf(&self, symbol: &str) -> LeafCategory {
        self.leaves
            .get(symbol)
            .copied()
            .unwrap_or(LeafCategory::Miscellaneous)
    }

    /// A leaf symbol's category and, for memory leaves, its Fig. 3
    /// operation: [`tag_leaf`](Self::tag_leaf) then
    /// [`tag_memory_op`](Self::tag_memory_op).
    pub(crate) fn tag_symbol(&self, symbol: &str) -> (LeafCategory, Option<MemoryOp>) {
        let category = self.tag_leaf(symbol);
        let op = if category == LeafCategory::Memory {
            self.tag_memory_op(symbol)
        } else {
            None
        };
        (category, op)
    }

    /// Buckets a call-trace root frame into a functionality category.
    /// Frames without a recognized marker fall into Miscellaneous.
    #[must_use]
    pub fn bucket_root(&self, root_frame: &str) -> FunctionalityCategory {
        FUNCTIONALITY_ROOTS
            .iter()
            .find(|(prefix, _, _)| root_frame.starts_with(prefix))
            .map_or(FunctionalityCategory::Miscellaneous, |(_, _, cat)| *cat)
    }

    /// Representative leaf symbols for a category (used by the trace
    /// generator).
    #[must_use]
    pub fn leaf_symbols(&self, category: LeafCategory) -> Vec<&'static str> {
        let mut symbols: Vec<&'static str> = self
            .leaves
            .iter()
            .filter(|(_, c)| **c == category)
            .map(|(s, _)| *s)
            .collect();
        symbols.sort_unstable();
        symbols
    }

    /// Classifies a memory-leaf symbol into its Fig. 3 operation, or
    /// `None` for non-memory symbols.
    #[must_use]
    pub fn tag_memory_op(&self, symbol: &str) -> Option<MemoryOp> {
        match symbol {
            "memcpy" => Some(MemoryOp::Copy),
            "memmove" => Some(MemoryOp::Move),
            "memset" => Some(MemoryOp::Set),
            "memcmp" => Some(MemoryOp::Compare),
            "malloc" | "operator new" => Some(MemoryOp::Allocation),
            "free" | "operator delete" => Some(MemoryOp::Free),
            _ => None,
        }
    }

    /// Representative symbols for a memory operation (used by the trace
    /// generator to honor a service's Fig. 3 mix).
    #[must_use]
    pub fn memory_symbols(&self, op: MemoryOp) -> Vec<&'static str> {
        let mut symbols: Vec<&'static str> = self
            .leaves
            .keys()
            .copied()
            .filter(|s| self.tag_memory_op(s) == Some(op))
            .collect();
        symbols.sort_unstable();
        symbols
    }

    /// The `handle_request` root frame the trace generator emits for a
    /// functionality category (its prefix followed by `handle_request`).
    #[must_use]
    pub fn root_frame(&self, category: FunctionalityCategory) -> &'static str {
        Self::root_entry(category).1
    }

    fn root_entry(category: FunctionalityCategory) -> (&'static str, &'static str) {
        FUNCTIONALITY_ROOTS
            .iter()
            .find(|(_, _, c)| *c == category)
            .map(|(prefix, root, _)| (*prefix, *root))
            .expect("every functionality category has a prefix")
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_known_leaves() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(r.tag_leaf("memcpy"), LeafCategory::Memory);
        assert_eq!(r.tag_leaf("__schedule"), LeafCategory::Kernel);
        assert_eq!(r.tag_leaf("aes_encrypt_block"), LeafCategory::Ssl);
        assert_eq!(r.tag_leaf("ZSTD_compressBlock"), LeafCategory::Zstd);
        assert_eq!(r.tag_leaf("std::sort"), LeafCategory::CLibraries);
        assert_eq!(r.tag_leaf("mkl_sgemm"), LeafCategory::Math);
        assert_eq!(r.tag_leaf("spin_lock"), LeafCategory::Synchronization);
        assert_eq!(r.tag_leaf("sha256_block"), LeafCategory::Hashing);
    }

    #[test]
    fn unknown_leaves_fall_to_miscellaneous() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(
            r.tag_leaf("totally_unknown_fn"),
            LeafCategory::Miscellaneous
        );
        assert_eq!(r.tag_leaf(""), LeafCategory::Miscellaneous);
    }

    #[test]
    fn buckets_roots_by_prefix() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(
            r.bucket_root("svc::io::secure_send"),
            FunctionalityCategory::SecureInsecureIo
        );
        assert_eq!(
            r.bucket_root("svc::predict::rank_stories"),
            FunctionalityCategory::PredictionRanking
        );
        assert_eq!(r.bucket_root("main"), FunctionalityCategory::Miscellaneous);
    }

    #[test]
    fn every_leaf_category_has_symbols() {
        let r = FunctionRegistry::with_defaults();
        for &cat in LeafCategory::ALL {
            assert!(!r.leaf_symbols(cat).is_empty(), "no symbols for {cat:?}");
        }
    }

    #[test]
    fn every_functionality_has_a_prefix() {
        let r = FunctionRegistry::with_defaults();
        for &cat in FunctionalityCategory::ALL {
            let prefix = FunctionRegistry::root_entry(cat).0;
            assert_eq!(r.bucket_root(&format!("{prefix}anything")), cat);
            assert_eq!(r.root_frame(cat), format!("{prefix}handle_request"));
            assert_eq!(r.bucket_root(r.root_frame(cat)), cat);
        }
    }

    #[test]
    fn memory_ops_are_tagged() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(r.tag_memory_op("memcpy"), Some(MemoryOp::Copy));
        assert_eq!(r.tag_memory_op("free"), Some(MemoryOp::Free));
        assert_eq!(r.tag_memory_op("operator new"), Some(MemoryOp::Allocation));
        assert_eq!(r.tag_memory_op("std::sort"), None);
        // Every memory op has at least one symbol, and each symbol also
        // tags as a Memory leaf.
        for &op in MemoryOp::ALL {
            let symbols = r.memory_symbols(op);
            assert!(!symbols.is_empty(), "{op:?}");
            for symbol in symbols {
                assert_eq!(r.tag_leaf(symbol), LeafCategory::Memory, "{symbol}");
            }
        }
    }

    #[test]
    fn leaf_symbols_round_trip_through_tagging() {
        let r = FunctionRegistry::with_defaults();
        for &cat in LeafCategory::ALL {
            for symbol in r.leaf_symbols(cat) {
                assert_eq!(r.tag_leaf(symbol), cat, "{symbol}");
            }
        }
    }
}
