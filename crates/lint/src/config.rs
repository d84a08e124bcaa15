//! Which rule families apply where.
//!
//! Scopes are workspace-relative path prefixes. Only `src/` trees are
//! listed: tests, benches, and examples may unwrap, spawn threads,
//! and print what they like — the invariants protect the code that
//! would ship.

use crate::rules::RuleId;

/// (rule, path prefixes it applies to).
pub const SCOPES: &[(RuleId, &[&str])] = &[
    (
        // The deterministic substitute for the paper's real-network
        // evaluation: protocol logic must be drivable from a seeded
        // simulator, so no ambient IO/time/randomness.
        RuleId::SansIo,
        &[
            "crates/core/src",
            "crates/tls/src",
            "crates/netsim/src",
            "crates/sgx/src",
            "crates/telemetry/src",
            "crates/host/src",
            "crates/pki/src/delegation",
        ],
    ),
    (
        // Everywhere key material lives or transits. The pki crate is
        // scoped per-module: the delegation subsystem holds issuer and
        // proxy signing keys, while the rest of the crate handles only
        // public certificate material.
        RuleId::SecretHygiene,
        &[
            "crates/crypto/src",
            "crates/sgx/src",
            "crates/tls/src",
            "crates/core/src",
            "crates/pki/src/delegation",
        ],
    ),
    (
        // Protocol state machines, record parsing, and the crypto
        // they call into — and the application-layer decoders (HTTP,
        // LZSS) with the middlebox processors that run them on a
        // peer's bytes inside a shard's sessions.
        RuleId::PanicFreedom,
        &[
            "crates/core/src",
            "crates/crypto/src",
            "crates/tls/src",
            "crates/http/src/message.rs",
            "crates/http/src/compress.rs",
            "crates/mboxes/src",
        ],
    ),
    (
        // Constant-time discipline is enforced where the primitives
        // are implemented — and, since the dataflow pass can follow
        // secrets through local bindings, also where key material is
        // handled (tls key schedule, core session plumbing).
        RuleId::ConstTime,
        &["crates/crypto/src", "crates/tls/src", "crates/core/src"],
    ),
    (
        // The shared-nothing shard discipline: the threaded-shards
        // ROADMAP item puts each Shard on an OS thread, so nothing in
        // the host or the simulator under it may share mutable state
        // or iterate hash containers on trace/bench paths. Middlebox
        // processors run inside shard-owned sessions (the host's
        // service-chain load), so they are held to the same bar —
        // the cache's FIFO eviction exists to satisfy it.
        RuleId::ShardIsolation,
        &["crates/host/src", "crates/netsim/src", "crates/mboxes/src"],
    ),
    (
        // Everything that would ship. The rule itself names the four
        // crypto files that may contain `unsafe`; sgx (simulated
        // enclave memory) and the tooling crates are out of scope.
        RuleId::UnsafeConfinement,
        &[
            "crates/crypto/src",
            "crates/tls/src",
            "crates/core/src",
            "crates/pki/src",
            "crates/host/src",
            "crates/netsim/src",
            "crates/http/src",
            "crates/mboxes/src",
            "crates/telemetry/src",
        ],
    ),
];

/// Files whose buffers hold attacker-controlled wire bytes: direct
/// indexing is flagged there (see `panic_freedom`).
pub const WIRE_INDEX_FILES: &[&str] = &[
    "crates/tls/src/record.rs",
    "crates/tls/src/codec.rs",
    "crates/tls/src/messages.rs",
    "crates/core/src/messages.rs",
    "crates/core/src/dataplane.rs",
    "crates/http/src/message.rs",
];

/// The rule families that apply to a workspace-relative path.
pub fn families_for(path: &str) -> Vec<RuleId> {
    SCOPES
        .iter()
        .filter(|(_, prefixes)| prefixes.iter().any(|p| path.starts_with(p)))
        .map(|(rule, _)| *rule)
        .collect()
}
