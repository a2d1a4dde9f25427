//! Reachability survey: every `pub fn`, `pub const` and `pub static` in
//! `crates/*/src` is used by other non-test code, or allowlisted below.
//!
//! rustc resolves each use by type, so the survey asks it: it copies the
//! workspace (no `target/`, `perfbench/` or dot entries), marks each such
//! item `#[deprecated(note = "reach#N")]` (free or associated, in macros
//! too; not code after a file's column-0 `#[cfg(test)]`, nor items with
//! their own) and runs one `cargo check` of the libraries and binaries.
//! A warning with an item's note outside a `pub use …;` re-export reaches
//! it. An unreached item must be named (as a word) by `perfbench/src`, or
//! by the integration test, bench or example its reason names.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Items only the benchmark uses; files under `perfbench/` change only
/// with a benchmark PR (ROADMAP item 8).
const PERFBENCH: &str = "analyze::analyze casestudy::simulate dispatch::set_isa_mode \
    exec::set_default_jobs figures::figure FrozenTrace::for_config LatencyStats::from_samples \
    params::all_case_studies params::all_recommendations registry::set_active_registry \
    ServiceId::PACKS services::profile shard::run_sharded_instrumented shard::set_default_shards \
    tables::render_table trace::set_trace_reuse TraceGenerator::generate TraceGenerator::new \
    TraceGenerator::registry";

/// `(item, reason)` for each oracle or test helper that stays; the
/// reason names an integration test, bench or example that uses it.
const ORACLES: &[(&str, &str)] = &[
    (
        "AbResult::latency_reduction",
        "example: simulate_ab_test prints the measured C/CL",
    ),
    (
        "AccelerationStrategy::ALL",
        "helper: timeline_consistency and model_properties sweep it",
    ),
    (
        "Complexity::new",
        "helper: model_properties builds super-linear kernels with it",
    ),
    (
        "CpuGeneration::ALL",
        "helper: convergence checks every generation's IPC draws",
    ),
    (
        "fold::to_folded",
        "oracle: characterize_stream checks `characterize --folded` against it",
    ),
    (
        "GranularityCdf::quantile",
        "oracle: model_properties checks the sampler against it",
    ),
    (
        "loadsweep::concurrency_sweep_with",
        "oracle: golden pins golden_load_sweep.json with it",
    ),
    (
        "lz::decompress",
        "oracle: kernel_properties and lz_golden invert compress_into with it",
    ),
    (
        "Mlp::infer",
        "oracle: kernel_properties checks batched MLP inference against it",
    ),
    (
        "Simulator::new",
        "helper: engine_properties drives single engines with it",
    ),
    (
        "ThreadingDesign::ALL",
        "helper: timeline_consistency and model_properties sweep it",
    ),
    (
        "Timeline::host_overhead_cycles",
        "oracle: timeline_consistency checks the model's charge",
    ),
    (
        "TraceGenerator::on_generation",
        "oracle: convergence pins per-generation IPC draws",
    ),
    (
        "TraceStore::traces",
        "oracle: trace_properties counts a sharded batch's shared traces",
    ),
    (
        "units::bytes",
        "helper: model_properties and dataset_properties build granularities",
    ),
];

/// Every file under `dir` that `skip` keeps, recursively, sorted.
fn files(dir: &Path, skip: &dyn Fn(&Path) -> bool) -> Vec<PathBuf> {
    let entries = fs::read_dir(dir)
        .expect("readable dir")
        .map(|e| e.expect("entry").path());
    let mut paths: Vec<PathBuf> = entries.filter(|p| !skip(p)).collect();
    paths.sort();
    paths
        .into_iter()
        .flat_map(|p| if p.is_dir() { files(&p, skip) } else { vec![p] })
        .collect()
}

fn ident(text: &str) -> &str {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '$'))
        .next()
        .unwrap_or("")
}

/// The name a `pub fn|const|static` line defines, or `None`.
fn defined_name(line: &str) -> Option<&str> {
    let kinds = ["const", "unsafe", "static", "mut", "fn"];
    let mut tokens = line
        .trim_start()
        .strip_prefix("pub ")?
        .split_whitespace()
        .peekable();
    tokens.next_if(|t| kinds.contains(t))?;
    Some(ident(tokens.find(|t| !kinds.contains(t))?)).filter(|name| !name.is_empty())
}

/// The qualifier of the item on line `k`: the type of the nearest outer
/// `impl` line, else the enclosing `macro_rules!` as `name!`, else `module`.
fn qualifier(lines: &[&str], k: usize, module: &str) -> String {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut width = indent(lines[k]);
    for line in lines[..k].iter().rev().filter(|l| !l.trim().is_empty()) {
        if indent(line) < width {
            width = indent(line);
            let head = line.trim_start();
            let ty = head
                .split_whitespace()
                .rfind(|t| *t != "{")
                .map_or("", ident);
            if let Some(name) = head.strip_prefix("macro_rules! ") {
                return format!("{}!", ident(name));
            } else if head.starts_with("impl") && !ty.starts_with('$') {
                return ty.to_owned();
            }
        }
    }
    module.to_owned()
}

/// `text` with each surveyed item marked `reach#<its index in items>`;
/// items gain `(key, path:line)`.
fn mark(text: &str, file: &str, module: &str, items: &mut Vec<(String, String)>) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let (mut out, mut in_tests) = (String::new(), false);
    for (k, line) in lines.iter().enumerate() {
        in_tests |= *line == "#[cfg(test)]";
        let mut attrs = lines[..k]
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with('#'));
        match defined_name(line) {
            Some(name) if !in_tests && !attrs.any(|l| l.trim() == "#[cfg(test)]") => {
                let (indent, item) = line.split_at(line.len() - line.trim_start().len());
                out += &format!(
                    "{indent}#[deprecated(note = \"reach#{}\")] {item}\n",
                    items.len()
                );
                let key = format!("{}::{name}", qualifier(&lines, k, module));
                items.push((key, format!("{file}:{}", k + 1)));
            }
            _ => out += &format!("{line}\n"),
        }
    }
    out
}

/// `(path, line, item index)` of a `cargo check --message-format=short`
/// deprecation warning for a marked item.
fn parse_warning(line: &str) -> Option<(&str, usize, usize)> {
    let (at, message) = line.split_once(": warning: use of deprecated ")?;
    let index = message.rsplit_once(": reach#")?.1.trim().parse().ok()?;
    let mut at = at.split(':');
    Some((at.next()?, at.next()?.parse().ok()?, index))
}

/// Whether 1-based `line` of `text` lies in a `pub use …;` statement.
fn in_pub_use(text: &str, line: usize) -> bool {
    let opens =
        |l: &str| l.trim_start().starts_with("pub") && l.split_whitespace().nth(1) == Some("use");
    let mut open = false;
    let mut spans = text.lines().map(|l| {
        let here = open || opens(l);
        open = here && !l.contains(';');
        here
    });
    spans.nth(line - 1).unwrap_or(false)
}

fn words(path: &Path) -> BTreeSet<String> {
    let text = fs::read_to_string(path).expect("readable file");
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_pub_item_is_reached_or_allowlisted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let copy = tmp.join("reach-copy");
    let _ = fs::remove_dir_all(&copy);
    let skip = |p: &Path| {
        let name = p
            .file_name()
            .map_or(String::new(), |n| n.to_string_lossy().into_owned());
        name == "target" || name == "perfbench" || name.starts_with('.') || tmp.starts_with(p)
    };
    // Mark crate sources; keep each test's, bench's and example's words.
    let (mut items, mut users) = (Vec::new(), Vec::new());
    for path in files(root, &skip) {
        let rel = path
            .strip_prefix(root)
            .expect("under root")
            .to_string_lossy()
            .into_owned();
        let dest = copy.join(&rel);
        fs::create_dir_all(dest.parent().expect("in a dir")).expect("create copy dir");
        let parts: Vec<&str> = rel.strip_suffix(".rs").unwrap_or("").split('/').collect();
        match parts[..] {
            ["crates", krate, "src", .., stem] => {
                let module = if stem == "lib" || stem == "main" {
                    krate
                } else {
                    stem
                };
                let text = fs::read_to_string(&path).expect("readable source");
                fs::write(dest, mark(&text, &rel, module, &mut items)).expect("write marked copy");
                continue;
            }
            ["tests" | "examples", .., stem] | ["crates", _, "tests" | "benches", .., stem]
                if stem != "reachability" =>
            {
                users.push((stem.to_owned(), words(&path)))
            }
            _ => {}
        }
        fs::copy(&path, dest).expect("copy file");
    }

    let started = std::time::Instant::now();
    let check = std::process::Command::new(env!("CARGO"))
        .args([
            "check",
            "--offline",
            "--workspace",
            "--lib",
            "--bins",
            "--message-format=short",
        ])
        .current_dir(&copy)
        .env("CARGO_TARGET_DIR", tmp.join("reach-target"))
        .env("RUSTFLAGS", "--cap-lints=warn")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(
        check.status.success(),
        "cargo check of the marked copy failed:\n{stderr}"
    );
    let mut unreached: Vec<Option<&(String, String)>> = items.iter().map(Some).collect();
    for (file, line, index) in stderr.lines().filter_map(parse_warning) {
        if !in_pub_use(
            &fs::read_to_string(copy.join(file)).unwrap_or_default(),
            line,
        ) {
            unreached[index] = None;
        }
    }
    let unreached: Vec<&(String, String)> = unreached.into_iter().flatten().collect();
    let perfbench_only: Vec<&str> = PERFBENCH.split_whitespace().collect();
    let counts = [
        items.len(),
        unreached.len(),
        perfbench_only.len(),
        ORACLES.len(),
    ];
    println!("pub fn/const/static surveyed, unreached, perfbench-only, oracles: {counts:?}");
    println!("cargo check took {:.1} s", started.elapsed().as_secs_f64());
    let perfbench: BTreeSet<String> = files(&root.join("perfbench/src"), &|_| false)
        .iter()
        .flat_map(|p| words(p))
        .collect();
    let mut problems = Vec::new();
    for (key, at) in unreached.iter().copied() {
        let name = key.rsplit("::").next().expect("qualified");
        let named: Vec<&str> = users
            .iter()
            .filter(|(_, w)| w.contains(name))
            .map(|(s, _)| s.as_str())
            .collect();
        let in_perfbench = perfbench.contains(name);
        let reason = ORACLES
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, reason)| reason);
        problems.push(match (perfbench_only.contains(&key.as_str()), reason) {
            (false, None) => format!(
                "`{key}` ({at}) is used by no non-test code (perfbench: {in_perfbench}; tests, \
                 benches and examples: {named:?}): reach it, delete it, or allowlist it"
            ),
            (true, _) if !in_perfbench => format!("`{key}`: perfbench has no `{name}`"),
            (_, Some(reason)) if !named.iter().any(|u| reason.contains(u)) => {
                format!("`{key}`'s reason names none of the files that name it: {named:?}")
            }
            _ => continue,
        });
    }
    let allowed = perfbench_only
        .iter()
        .copied()
        .chain(ORACLES.iter().map(|(key, _)| *key));
    for key in allowed.filter(|&key| !unreached.iter().any(|(k, _)| k == key)) {
        let state = if items.iter().any(|(k, _)| k == key) {
            "reached now"
        } else {
            "gone"
        };
        problems.push(format!("`{key}` is {state}; drop it from the allowlist"));
    }
    assert!(
        problems.is_empty(),
        "reachability survey:\n{}",
        problems.join("\n")
    );
}

#[test]
fn items_are_marked_and_warnings_outside_re_exports_are_uses() {
    let warning = "crates/core/src/lib.rs:12:5: warning: use of deprecated function \
                   `units::bytes`: reach#41";
    assert_eq!(
        parse_warning(warning),
        Some(("crates/core/src/lib.rs", 12, 41))
    );
    assert_eq!(
        parse_warning("warning: `accelerometer` (lib) generated 3 warnings"),
        None
    );
    let text = "pub use x::{\n    a,\n};\nfn f() {\n    a();\n}\npub(crate) use y::b;\n";
    let spans: Vec<bool> = (1..=7).map(|line| in_pub_use(text, line)).collect();
    assert_eq!(spans, [true, true, true, false, false, false, true]);
    let text = "pub const A: u8 = 1;\nimpl<T: Copy> Foo<T> {\n    pub const fn len(&self) {}\n}\n\
                macro_rules! m {\n    () => {\n        impl $t {\n            pub fn min() {}\n\
                \x20       }\n    };\n}\n#[cfg(test)]\npub fn test_only() {}\npub struct S;\n";
    let mut items = Vec::new();
    let marked = mark(text, "f.rs", "units", &mut items);
    let keys: Vec<&str> = items.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["units::A", "Foo::len", "m!::min"]);
    assert!(marked.contains("    #[deprecated(note = \"reach#1\")] pub const fn len(&self) {}"));
}
