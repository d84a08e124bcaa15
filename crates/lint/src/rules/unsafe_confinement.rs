//! Rule `unsafe-confinement`: `unsafe` lives in four files.
//!
//! The protocol crates need `unsafe` for exactly three things: CPU
//! intrinsics (the SSE2 lanes of the bitsliced AES, the AES-NI +
//! PCLMULQDQ backend), volatile key wipes, and telling a `Vec` how
//! much of its spare capacity the AEAD has written. All are in
//! `crates/crypto`, each behind a safe interface, and each block
//! carries a `// SAFETY:` argument a reviewer can check in one
//! sitting. This rule keeps it that way: the `unsafe` keyword
//! anywhere else in the scoped crates is a finding, so a new unsafe
//! block cannot arrive as a side effect of some other change — it
//! has to come with an edit to the list below, which is the review
//! point. The list is in the rule, not in annotations at the use
//! sites, so it cannot grow one `lint:allow` at a time.
//!
//! `crates/sgx` is out of scope: its simulated enclave memory uses
//! `unsafe` by design and is not part of what would ship.

use super::Hit;
use crate::source::SourceFile;

/// The only files in scope that may contain `unsafe`.
pub const ALLOWED_FILES: &[&str] = &[
    // AES-NI / PCLMULQDQ intrinsics behind runtime detection.
    "crates/crypto/src/aesni.rs",
    // `mod x86`: the SSE2 lane type of the bitsliced circuit.
    "crates/crypto/src/aes.rs",
    // Volatile zeroization primitives.
    "crates/crypto/src/ct.rs",
    // The volatile wipe of the bitsliced GHASH tables, and the one
    // `Vec::set_len` after a CTR pass has filled a `Vec`'s spare
    // capacity (`ctr_append`, under the append seal and open).
    "crates/crypto/src/gcm.rs",
];

pub(crate) fn check(file: &SourceFile) -> Vec<Hit> {
    if ALLOWED_FILES.contains(&file.path.as_str()) {
        return Vec::new();
    }
    let mut hits: Vec<Hit> = Vec::new();
    for token in &file.tokens {
        if token.text != "unsafe"
            || file.is_test[token.line]
            || hits.last().is_some_and(|h| h.line == token.line)
        {
            continue;
        }
        hits.push(Hit {
            line: token.line,
            message: "`unsafe` outside the confinement list: express this in safe code or move it \
                      behind a safe interface in one of the files in \
                      rules::unsafe_confinement::ALLOWED_FILES"
                .to_string(),
        });
    }
    hits
}
