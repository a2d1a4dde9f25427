//! Fixed-corpus golden test for the LZ compressor: the exact compressed
//! byte stream for a set of representative inputs is pinned in a
//! checked-in fixture. The word-wise match-extension fast path (and any
//! future matcher change) must keep the output byte-identical — the
//! compressor's stream format is a stability contract the simulator's
//! calibrated `Cb` numbers and the decompressor both rely on.
//!
//! Regenerate after an *intentional* format change with
//! `GOLDEN_BLESS=1 cargo test -p accelerometer-kernels --test lz_golden`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use accelerometer_kernels::lz;

fn corpora() -> Vec<(&'static str, Vec<u8>)> {
    let text = "the quick brown fox jumps over the lazy dog ".repeat(30);
    let runs = vec![b'a'; 1_000];
    // Pseudo-random bytes: essentially incompressible, exercises the
    // literal-run path and near-miss match candidates.
    let noise: Vec<u8> = (0u32..4_096)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    // Long self-similar binary data with period > 8: match extension
    // crosses many 8-byte word boundaries and ends mid-word.
    let period13: Vec<u8> = (0..6_000).map(|i| (i % 13) as u8).collect();
    // Alternating compressible/incompressible stretches, with lengths
    // chosen so matches end at every offset mod 8.
    let mut mixed = Vec::new();
    for i in 0..40u32 {
        mixed.extend_from_slice(&b"abcdefgh".repeat(3 + (i as usize % 5)));
        mixed.extend((0..(7 + i * 11) % 23).map(|j| (j * 17 + i) as u8));
    }
    vec![
        ("text", text.into_bytes()),
        ("runs", runs),
        ("noise", noise),
        ("period13", period13),
        ("mixed", mixed),
    ]
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(s, "{b:02x}").expect("hex write");
    }
    s
}

#[test]
fn compressed_bytes_are_pinned() {
    let mut actual = String::new();
    // One scratch for every corpus: a stale table entry from an earlier
    // corpus leaking into a later stream would move the pinned bytes.
    let mut scratch = lz::LzScratch::new();
    let mut compressed = Vec::new();
    for (name, input) in corpora() {
        lz::compress_into(&input, &mut scratch, &mut compressed);
        // Every pinned stream must also round-trip.
        assert_eq!(
            lz::decompress(&compressed).expect("fixture corpus decodes"),
            input,
            "round trip failed for corpus {name}"
        );
        writeln!(
            actual,
            "{name} in={} out={} {}",
            input.len(),
            compressed.len(),
            hex(&compressed)
        )
        .expect("fixture line");
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lz_golden.txt");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .expect("missing fixture tests/fixtures/lz_golden.txt; run with GOLDEN_BLESS=1");
    assert_eq!(
        expected, actual,
        "compressed byte stream drifted; the matcher must stay byte-identical"
    );
}
