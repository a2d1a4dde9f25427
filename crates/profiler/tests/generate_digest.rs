//! Bit-exactness pin for the trace generator.
//!
//! Every (service, CPU generation, seed) stream is folded into a fixed
//! FNV-1a digest over each trace's frames and the raw bits of its cycle
//! and instruction counts. The expected digests were captured from the
//! generator before its per-sample work was hoisted into precomputed
//! tables, so any change to the RNG call sequence, a symbol table's
//! order, a frame name or an IPC lookup shows up here as a digest
//! mismatch — not as a statistical drift the convergence tests might
//! tolerate.

use accelerometer_fleet::{profile, CpuGeneration, ServiceId};
use accelerometer_profiler::{CallTrace, TraceGenerator};

/// Samples digested per stream.
const SAMPLES: usize = 2_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn digest(traces: &[CallTrace]) -> u64 {
    let mut hash = FNV_OFFSET;
    for trace in traces {
        for frame in &trace.frames {
            hash = fnv1a(hash, frame.as_bytes());
            // Frame terminator: keeps ["ab", "c"] distinct from ["a", "bc"].
            hash = fnv1a(hash, &[0xff]);
        }
        hash = fnv1a(hash, &trace.cycles.to_bits().to_le_bytes());
        hash = fnv1a(hash, &trace.instructions.to_bits().to_le_bytes());
    }
    hash
}

/// `("<service slug>/<generation>/<seed>", digest)` captured from the
/// reference generator.
const EXPECTED: &[(&str, u64)] = &[
    ("web/GenA/7", 0x22c4cfa29b09d82b),
    ("web/GenA/42", 0x93369f557d3bccca),
    ("web/GenC/7", 0x22c4cfa29b09d82b),
    ("web/GenC/42", 0x93369f557d3bccca),
    ("feed1/GenA/7", 0x462f09dc8abf59fc),
    ("feed1/GenA/42", 0x3003c49276c86a2e),
    ("feed1/GenC/7", 0x462f09dc8abf59fc),
    ("feed1/GenC/42", 0x3003c49276c86a2e),
    ("feed2/GenA/7", 0x66ce3b62eed53b91),
    ("feed2/GenA/42", 0xf17cda4352285b74),
    ("feed2/GenC/7", 0x66ce3b62eed53b91),
    ("feed2/GenC/42", 0xf17cda4352285b74),
    ("ads1/GenA/7", 0x9ef6f021fd1ac76b),
    ("ads1/GenA/42", 0x76e4f9147e49b227),
    ("ads1/GenC/7", 0x9ef6f021fd1ac76b),
    ("ads1/GenC/42", 0x76e4f9147e49b227),
    ("ads2/GenA/7", 0x239e14bc504bc91e),
    ("ads2/GenA/42", 0x60687b4af4e07545),
    ("ads2/GenC/7", 0x239e14bc504bc91e),
    ("ads2/GenC/42", 0x60687b4af4e07545),
    ("cache1/GenA/7", 0x71ad16abc148932f),
    ("cache1/GenA/42", 0xe5162225e166ff09),
    ("cache1/GenC/7", 0x5052a229179d1d7a),
    ("cache1/GenC/42", 0x1e1576d576575f4d),
    ("cache2/GenA/7", 0x1c103cf48009031d),
    ("cache2/GenA/42", 0xd7a467fa726da40f),
    ("cache2/GenC/7", 0x1c103cf48009031d),
    ("cache2/GenC/42", 0xd7a467fa726da40f),
    ("cache3/GenA/7", 0x733b618f4278bc09),
    ("cache3/GenA/42", 0x52bccbf3f04d8906),
    ("cache3/GenC/7", 0x733b618f4278bc09),
    ("cache3/GenC/42", 0x52bccbf3f04d8906),
    ("ai-inference/GenA/7", 0x799d1f21fc444648),
    ("ai-inference/GenA/42", 0x4c12235ffc2333cc),
    ("ai-inference/GenC/7", 0x799d1f21fc444648),
    ("ai-inference/GenC/42", 0x4c12235ffc2333cc),
    ("kvstore/GenA/7", 0x3fe33330cfcbb77a),
    ("kvstore/GenA/42", 0x49c3fbbf6a84d33a),
    ("kvstore/GenC/7", 0x3fe33330cfcbb77a),
    ("kvstore/GenC/42", 0x49c3fbbf6a84d33a),
    ("pqc/GenA/7", 0xf9ec5238ae153cd0),
    ("pqc/GenA/42", 0x7ddc3f3addd91102),
    ("pqc/GenC/7", 0xf9ec5238ae153cd0),
    ("pqc/GenC/42", 0x7ddc3f3addd91102),
];

#[test]
fn generated_traces_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for id in ServiceId::ALL {
        for generation in [CpuGeneration::GenA, CpuGeneration::GenC] {
            for seed in [7_u64, 42] {
                let mut generator =
                    TraceGenerator::new(profile(id), seed).on_generation(generation);
                let label = format!("{}/{generation:?}/{seed}", id.slug());
                actual.push((label, digest(&generator.generate(SAMPLES))));
            }
        }
    }
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(label, d)| (label.to_owned(), d))
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        actual,
        expected,
        "generator output drifted; actual digests:\n{}",
        rendered.join("\n")
    );
}
