//! SHA-256 known-answer tests from FIPS 180-4 / NIST CAVP, exercised
//! through both the dispatched [`sha256`] and the scalar reference
//! [`sha256_scalar`].
//!
//! The boundary lengths target the padding logic: 55 bytes is the
//! longest message whose padding fits one block, 56 forces the length
//! into a second block, 64 is an exact block, and 119/120 repeat the
//! same boundary one block later.

use accelerometer_kernels::hash::{sha256, sha256_scalar};

fn hex(digest: &[u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks a vector on both tiers.
fn check(message: &[u8], expected_hex: &str) {
    assert_eq!(hex(&sha256(message)), expected_hex, "dispatched");
    assert_eq!(hex(&sha256_scalar(message)), expected_hex, "scalar");
}

#[test]
fn empty_message() {
    check(
        b"",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    );
}

#[test]
fn abc() {
    check(
        b"abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    );
}

#[test]
fn two_block_message() {
    // FIPS 180-4's 448-bit test message; spans two compression blocks
    // once padded.
    check(
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    );
}

#[test]
fn padding_boundary_lengths() {
    // 55: padding (0x80 + length) fits the first block exactly.
    // 56: the 0x80 fits but the length spills into a second block.
    // 64: an exact block; padding is an entire extra block.
    // 119/120: the same two boundaries, one block later.
    for (len, expected) in [
        (
            55usize,
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        ),
        (
            56,
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        ),
        (
            64,
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        ),
        (
            119,
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
        ),
        (
            120,
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
        ),
    ] {
        check(&vec![b'a'; len], expected);
    }
}

#[test]
fn million_a() {
    // NIST's long-message vector.
    check(
        &vec![b'a'; 1_000_000],
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
    );
}
