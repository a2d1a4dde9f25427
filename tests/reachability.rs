//! Reachability survey: every `pub fn` in `crates/*/src` is named by
//! other non-test code, or it is allowlisted below with the reason it
//! stays.
//!
//! clippy's `dead_code` lint does not see `pub` items, so a library
//! function can outlive every command that called it. This survey finds
//! them by name:
//!
//! * a *definition* is a `pub fn` (also `pub const fn` / `pub unsafe
//!   fn`) in the part of a `crates/*/src` file before its first
//!   column-0 `#[cfg(test)]`, unless the function itself carries
//!   `#[cfg(test)]`;
//! * a name is *reached* when it appears as a whole word in that
//!   non-test code anywhere in `crates/*/src` or `src/` other than as a
//!   definition (`fn name`), after comments, string and char literals,
//!   and `pub use` re-exports are blanked out. A name inside the body of
//!   a `fn` of the same name does not count either: a method that
//!   forwards to a namesake (`self.inner.len()` inside `fn len`), or a
//!   recursive call, is not a caller;
//! * an unreached name is classed by where it does appear: perfbench
//!   (`perfbench/src`), else examples, else tests (integration tests,
//!   criterion benches and `#[cfg(test)]` code).
//!
//! Shared names hide some hits (a test-only `new` is reached by every
//! other `new`, and a field hides a method of the same name), so the
//! survey under-reports; it never over-reports.
//! The test fails naming each unreached function that [`ALLOWED`] does
//! not list, and each entry of [`ALLOWED`] that no longer describes the
//! code.
//!
//! Run with `cargo test --test reachability -- --nocapture` to see the
//! counts.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The reason every perfbench-only entry carries.
const PERFBENCH: &str = "perfbench-only, ROADMAP item 8";

/// `(name, reason)` for each `pub fn` no command reaches that stays.
/// Each is either a test oracle an integration test needs, or named
/// only by the benchmark, whose files change only with the benchmark.
const ALLOWED: &[(&str, &str)] = &[
    (
        "decompress",
        "oracle: the LZ round-trip, golden and SIMD tests invert compress_into with it",
    ),
    ("infer", "oracle: kernel_properties checks batched MLP inference against it"),
    ("to_folded", "oracle: characterize_stream checks `characterize --folded` against it"),
    (
        "host_overhead_cycles",
        "oracle: timeline_consistency checks each timeline's host charge against the model",
    ),
    (
        "on_generation",
        "oracle: convergence and generate_digest pin per-generation IPC draws with it",
    ),
    (
        "concurrency_sweep_with",
        "oracle: golden.rs pins its output in golden_load_sweep.json (ROADMAP item 8)",
    ),
    ("all_case_studies", PERFBENCH),
    ("all_recommendations", PERFBENCH),
    ("from_samples", PERFBENCH),
    ("render_table", PERFBENCH),
    ("run_sharded_instrumented", PERFBENCH),
    ("set_active_registry", PERFBENCH),
    ("set_default_jobs", PERFBENCH),
    ("set_default_shards", PERFBENCH),
    ("set_isa_mode", PERFBENCH),
    ("set_trace_reuse", PERFBENCH),
];

/// Where an unreached name still appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Only tests, criterion benches and `#[cfg(test)]` code (or nothing).
    Tests,
    /// Examples (and possibly tests).
    Examples,
    /// `perfbench/src` (and possibly examples or tests).
    Perfbench,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("readable dir").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `text` with every comment, and the contents of every string and
/// char literal, replaced by spaces (newlines kept), so byte offsets and
/// line numbers still match. A name inside a literal is text, not a
/// use: the string `"svc::compress::handle_request"` reaches no
/// `compress`.
fn strip_comments_and_literals(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for byte in &mut out[from..to.min(b.len())] {
            if *byte != b'\n' {
                *byte = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i = b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |n| i + n);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0;
                while i < b.len() {
                    if b[i..].starts_with(b"/*") {
                        depth += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if raw_prefix_allowed(b, i) && raw_string_hashes(&b[i + 1..]).is_some() => {
                let hashes = raw_string_hashes(&b[i + 1..]).expect("checked");
                let mut close = vec![b'"'];
                close.extend(std::iter::repeat_n(b'#', hashes));
                let body = i + 2 + hashes;
                i = b[body..]
                    .windows(close.len())
                    .position(|w| w == close.as_slice())
                    .map_or(b.len(), |n| body + n + close.len());
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            // A char literal ('x', '\n', '"'); a lifetime ('a) is skipped
            // as an ordinary character.
            b'\'' if b.get(i + 1) == Some(&b'\\') => {
                // Past the escaped character, which may itself be a `'`.
                let from = (i + 3).min(b.len());
                i = from + b[from..].iter().position(|&c| c == b'\'').map_or(0, |n| n + 1);
            }
            b'\'' if b.get(i + 2) == Some(&b'\'') => i += 3,
            _ => {
                i += 1;
                continue;
            }
        }
        blank(&mut out, start, i);
    }
    String::from_utf8(out).expect("only whole characters were blanked")
}

/// Whether an `r` at `i` may open a raw string: it starts a word, or
/// follows a `b` that does (`br"…"`).
fn raw_prefix_allowed(b: &[u8], i: usize) -> bool {
    let word_start = |k: usize| k == 0 || !is_ident(b[k - 1]);
    word_start(i) || (b[i - 1] == b'b' && word_start(i - 1))
}

/// For the text after an `r`, the number of `#`s of a raw string opener
/// (`"`, `#"`, `##"`, …), or `None` when it is not one.
fn raw_string_hashes(rest: &[u8]) -> Option<usize> {
    let hashes = rest.iter().take_while(|&&c| c == b'#').count();
    (rest.get(hashes) == Some(&b'"')).then_some(hashes)
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// One identifier occurrence in a source text.
#[derive(Debug, Clone, Copy)]
struct Ident<'a> {
    name: &'a str,
    /// Byte offset of the identifier.
    at: usize,
    /// Whether it directly follows the `fn` keyword (a definition rather
    /// than a use).
    after_fn: bool,
}

/// The identifiers of `code`, in order.
fn identifiers(code: &str) -> Vec<Ident<'_>> {
    let b = code.as_bytes();
    let mut out: Vec<Ident<'_>> = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident(b[i]) {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            let after_fn = out.last().is_some_and(|prev| prev.name == "fn")
                && code[..start].trim_end().ends_with("fn");
            out.push(Ident {
                name: &code[start..i],
                at: start,
                after_fn,
            });
        } else {
            i += 1;
        }
    }
    out
}

/// The body of the `fn` whose name ends at `from`, as a byte range, or
/// `None` for a declaration without one (`fn name(…);` in a trait). The
/// body opens at the first `{` outside the signature's parentheses and
/// brackets; comments and literals are already blanked, so every brace
/// counted is code.
fn fn_body(code: &[u8], from: usize) -> Option<std::ops::Range<usize>> {
    let mut nesting = 0usize;
    let mut i = from;
    let open = loop {
        match *code.get(i)? {
            b'(' | b'[' => nesting += 1,
            b')' | b']' => nesting = nesting.saturating_sub(1),
            b';' if nesting == 0 => return None,
            b'{' if nesting == 0 => break i,
            _ => {}
        }
        i += 1;
    };
    let mut depth = 0usize;
    for (k, &c) in code[open..].iter().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open..open + k + 1);
                }
            }
            _ => {}
        }
    }
    Some(open..code.len())
}

/// `code` with every `pub use …;` (and `pub(…) use …;`) blanked out: a
/// re-export names an item without reaching it.
fn strip_pub_use(code: &str) -> String {
    let mut out = code.to_owned();
    let mut from = 0;
    while let Some(n) = code[from..].find("pub") {
        let start = from + n;
        from = start + 3;
        if start > 0 && is_ident(code.as_bytes()[start - 1]) {
            continue;
        }
        let mut rest = code[start + 3..].trim_start();
        if rest.starts_with('(') {
            rest = rest.split_once(')').map_or("", |(_, r)| r).trim_start();
        }
        if !rest.starts_with("use") || rest.as_bytes().get(3).is_some_and(|&c| is_ident(c)) {
            continue;
        }
        let end = code[start..].find(';').map_or(code.len(), |n| start + n + 1);
        let blanked: String =
            code[start..end].chars().map(|c| if c == '\n' { '\n' } else { ' ' }).collect();
        out.replace_range(start..end, &blanked);
    }
    out
}

/// Splits a source file at its first column-0 `#[cfg(test)]` into the
/// non-test and test parts.
fn split_at_tests(text: &str) -> (&str, &str) {
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_end() == "#[cfg(test)]" {
            return text.split_at(offset);
        }
        offset += line.len();
    }
    (text, "")
}

/// The `pub fn` names defined in non-test `code`, skipping functions
/// that carry their own `#[cfg(test)]`.
fn pub_fns(code: &str) -> Vec<String> {
    let lines: Vec<&str> = code.lines().collect();
    let mut out = Vec::new();
    for (k, line) in lines.iter().enumerate() {
        let mut rest = line.trim_start();
        let Some(after_pub) = rest.strip_prefix("pub ") else {
            continue;
        };
        rest = after_pub.trim_start();
        for qualifier in ["const ", "unsafe "] {
            rest = rest.strip_prefix(qualifier).unwrap_or(rest).trim_start();
        }
        let Some(name) = rest.strip_prefix("fn ") else {
            continue;
        };
        let name: String = name.chars().take_while(|&c| is_ident(c as u8)).collect();
        let test_only = lines[..k]
            .iter()
            .rev()
            .map(|l| l.trim())
            .take_while(|l| l.starts_with("#[") || l.is_empty())
            .any(|l| l == "#[cfg(test)]");
        if !test_only && !name.is_empty() {
            out.push(name);
        }
    }
    out
}

/// The identifiers `code` uses: not those it defines, and not a name
/// inside the body of a `fn` of that same name.
fn used_names(code: &str, into: &mut BTreeSet<String>) {
    let idents = identifiers(code);
    let mut bodies: BTreeMap<&str, Vec<std::ops::Range<usize>>> = BTreeMap::new();
    for ident in idents.iter().filter(|ident| ident.after_fn) {
        if let Some(body) = fn_body(code.as_bytes(), ident.at + ident.name.len()) {
            bodies.entry(ident.name).or_default().push(body);
        }
    }
    for ident in idents.iter().filter(|ident| !ident.after_fn) {
        let in_namesake = bodies
            .get(ident.name)
            .is_some_and(|ranges| ranges.iter().any(|body| body.contains(&ident.at)));
        if !in_namesake {
            into.insert(ident.name.to_owned());
        }
    }
}

/// Every identifier the `.rs` files under `dirs` use.
fn names_in(dirs: &[PathBuf]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for path in dirs.iter().flat_map(|d| rust_files(d)) {
        used_names(&strip_comments_and_literals(&read(&path)), &mut names);
    }
    names
}

#[test]
fn every_pub_fn_is_reached_or_allowlisted() {
    let root = root();
    // name -> files defining it
    let mut defined: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut definitions = 0;
    let mut reached = BTreeSet::new();
    let mut in_tests = BTreeSet::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable dir").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for path in crate_dirs.iter().flat_map(|d| rust_files(d)) {
        let text = strip_comments_and_literals(&read(&path));
        let (code, tests) = split_at_tests(&text);
        let code = strip_pub_use(code);
        let label = path.strip_prefix(&root).unwrap_or(&path).display().to_string();
        for name in pub_fns(&code) {
            definitions += 1;
            defined.entry(name).or_default().insert(label.clone());
        }
        used_names(&code, &mut reached);
        used_names(tests, &mut in_tests);
    }
    for path in rust_files(&root.join("src")) {
        used_names(&strip_pub_use(&strip_comments_and_literals(&read(&path))), &mut reached);
    }
    let mut test_dirs = vec![root.join("tests")];
    for krate in crate_dirs.iter().filter_map(|d| d.parent()) {
        test_dirs.push(krate.join("tests"));
        test_dirs.push(krate.join("benches"));
    }
    in_tests.extend(names_in(&test_dirs));
    let in_examples = names_in(&[root.join("examples")]);
    let in_perfbench = names_in(&[root.join("perfbench/src")]);

    let class_of = |name: &str| {
        if in_perfbench.contains(name) {
            Class::Perfbench
        } else if in_examples.contains(name) {
            Class::Examples
        } else {
            Class::Tests
        }
    };
    let unreached: BTreeMap<&str, Class> = defined
        .keys()
        .filter(|name| !reached.contains(*name))
        .map(|name| (name.as_str(), class_of(name)))
        .collect();
    let count = |class| unreached.values().filter(|&&c| c == class).count();
    println!(
        "pub fns surveyed: {definitions} ({} names); unreached: {} only tests \
         (incl. criterion benches), {} only examples, {} only perfbench",
        defined.len(),
        count(Class::Tests),
        count(Class::Examples),
        count(Class::Perfbench),
    );

    let mut problems = Vec::new();
    let allowed: BTreeMap<&str, &str> = ALLOWED.iter().copied().collect();
    for (&name, &class) in &unreached {
        if !allowed.contains_key(name) {
            let files: Vec<&str> = defined[name].iter().map(String::as_str).collect();
            problems.push(format!(
                "`{name}` ({}) is reached by no non-test code ({class:?} only): \
                 reach it from a command, delete it, or allowlist it with a reason",
                files.join(", ")
            ));
        }
    }
    for (&name, &reason) in &allowed {
        let expected = if reason == PERFBENCH { Class::Perfbench } else { Class::Tests };
        match unreached.get(name) {
            None if defined.contains_key(name) => {
                problems.push(format!("`{name}` is reached now; drop it from ALLOWED"));
            }
            None => problems.push(format!("`{name}` is gone; drop it from ALLOWED")),
            Some(&class) if class != expected => problems.push(format!(
                "`{name}` is allowlisted as {expected:?} but appears in {class:?}"
            )),
            Some(_) if expected == Class::Tests && !in_tests.contains(name) => {
                problems.push(format!("`{name}` is allowlisted as an oracle but no test names it"));
            }
            Some(_) => {}
        }
    }
    assert!(problems.is_empty(), "reachability survey:\n{}", problems.join("\n"));
}
