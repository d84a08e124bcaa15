//! Which rule families apply where.
//!
//! Scopes are workspace-relative path prefixes. Only `src/` trees are
//! listed: tests, benches, and examples may print and share what
//! they like — the invariants protect the code that would ship.

use crate::rules::RuleId;

/// (rule, path prefixes it applies to).
pub const SCOPES: &[(RuleId, &[&str])] = &[
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
        // Constant-time discipline is enforced where the primitives
        // are implemented, and where key material is handled (tls key
        // schedule, core session plumbing).
        RuleId::ConstTime,
        &["crates/crypto/src", "crates/tls/src", "crates/core/src"],
    ),
    (
        // The shared-nothing shard discipline: the threaded-shards
        // ROADMAP item puts each Shard on an OS thread, so nothing in
        // the host or the simulator under it may share mutable state
        // (hash-container iteration is clippy's; see the roots' forbid
        // attributes and clippy.toml). Middlebox
        // processors run inside shard-owned sessions (the host's
        // service-chain load), so they are held to the same bar —
        // the cache's FIFO eviction exists to satisfy it.
        RuleId::ShardIsolation,
        &["crates/host/src", "crates/netsim/src", "crates/mboxes/src"],
    ),
];

/// The rule families that apply to a workspace-relative path.
pub fn families_for(path: &str) -> Vec<RuleId> {
    SCOPES
        .iter()
        .filter(|(_, prefixes)| prefixes.iter().any(|p| path.starts_with(p)))
        .map(|(rule, _)| *rule)
        .collect()
}
