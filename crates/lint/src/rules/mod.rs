//! The rule families and the dispatch that runs them over a file.

use crate::source::SourceFile;

pub mod const_time;
pub mod secret_hygiene;
pub mod shard_isolation;

/// The rule families the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// Secret-bearing types must not be printable and must wipe
    /// themselves; no debug-formatting in protocol/crypto code.
    SecretHygiene,
    /// Comparisons on secret values in `crypto` must go through the
    /// `ct` primitives.
    ConstTime,
    /// Sharded host/netsim code must stay shared-nothing: no shared
    /// statics, no `Rc`/`RefCell`/locks.
    ShardIsolation,
}

impl RuleId {
    /// Kebab-case name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::SecretHygiene => "secret-hygiene",
            RuleId::ConstTime => "const-time",
            RuleId::ShardIsolation => "shard-isolation",
        }
    }
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path (or fixture label).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What happened and how to fix it.
    pub message: String,
}

/// A raw (line, message) hit produced by a rule before the engine
/// attaches the rule and path.
pub(crate) struct Hit {
    pub line: usize, // 0-based
    pub message: String,
}

/// Run the given rule families over one file.
pub fn check_file(file: &SourceFile, families: &[RuleId]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &rule in families {
        let hits = match rule {
            RuleId::SecretHygiene => secret_hygiene::check(file),
            RuleId::ConstTime => const_time::check(file),
            RuleId::ShardIsolation => shard_isolation::check(file),
        };
        findings.extend(hits.into_iter().map(|hit| Finding {
            rule,
            path: file.path.clone(),
            line: hit.line + 1,
            message: hit.message,
        }));
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}
