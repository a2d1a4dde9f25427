//! What a result was measured on: host, ISA, code and seed.

use std::fs;
use std::path::{Path, PathBuf};

use accelerometer_kernels::dispatch;
use serde_json::{json, Value};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Provenance of a run. `kernel-calibrate` numbers compare only between
/// runs whose `isa_active` matches, as `scripts/bench_regress.sh` refuses
/// cross-ISA comparisons of the kernel benches.
pub fn collect(seed: Option<u64>) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    json!({
        "nproc": nproc,
        "isa_detected": dispatch::detected_summary(),
        "isa_active": dispatch::active_summary(),
        "kernel_numbers_comparable_only_with_isa": dispatch::active_summary(),
        "commit": commit().unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
        "source_digest": source_digest(),
        "seed": seed.map_or_else(|| "default".to_owned(), |s| s.to_string()),
    })
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_owned());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

/// FNV-1a over the path and bytes of every file the measured program is
/// built or configured from, in sorted order: identifies the code even
/// in a checkout without git metadata.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.lock"), PathBuf::from("Cargo.toml")];
    for root in ["crates", "configs", "vendor"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let hash = files.iter().fold(FNV_OFFSET, |h, path| {
        let h = fnv1a(path.to_string_lossy().as_bytes(), h);
        fnv1a(&fs::read(path).unwrap_or_default(), h)
    });
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
