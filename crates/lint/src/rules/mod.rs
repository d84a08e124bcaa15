//! The rule families and the dispatch that runs them over a file.

use crate::source::SourceFile;

pub mod const_time;
pub mod panic_freedom;
pub mod sans_io;
pub mod secret_hygiene;
pub mod shard_isolation;
pub mod unsafe_confinement;

/// The rule families the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// Protocol crates must stay deterministic: no sockets, wall
    /// clocks, threads, or ambient randomness.
    SansIo,
    /// Secret-bearing types must not be printable and must wipe
    /// themselves; no debug-formatting in protocol/crypto code.
    SecretHygiene,
    /// No `unwrap`/`expect`/`panic!` or raw indexing of wire buffers
    /// in protocol state machines and record parsing.
    PanicFreedom,
    /// Comparisons on secret values in `crypto` must go through the
    /// `ct` primitives.
    ConstTime,
    /// Sharded host/netsim code must stay shared-nothing and
    /// iteration-order deterministic: no shared statics, no
    /// `Rc`/`RefCell`/locks, no hash-container iteration.
    ShardIsolation,
    /// `unsafe` may appear only in the few crypto files that wrap CPU
    /// intrinsics and volatile wipes behind safe interfaces.
    UnsafeConfinement,
    /// A `lint:allow` annotation is malformed (unknown rule, missing
    /// reason). Not suppressible.
    AllowSyntax,
}

impl RuleId {
    /// Every real rule family (excludes the meta `allow-syntax`).
    pub const FAMILIES: [RuleId; 6] = [
        RuleId::SansIo,
        RuleId::SecretHygiene,
        RuleId::PanicFreedom,
        RuleId::ConstTime,
        RuleId::ShardIsolation,
        RuleId::UnsafeConfinement,
    ];

    /// Kebab-case name used in annotations and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::SansIo => "sans-io",
            RuleId::SecretHygiene => "secret-hygiene",
            RuleId::PanicFreedom => "panic-freedom",
            RuleId::ConstTime => "const-time",
            RuleId::ShardIsolation => "shard-isolation",
            RuleId::UnsafeConfinement => "unsafe-confinement",
            RuleId::AllowSyntax => "allow-syntax",
        }
    }

    /// Parse an annotation name.
    #[allow(clippy::should_implement_trait)] // fallible lookup, not std::str::FromStr
    pub fn from_str(s: &str) -> Option<RuleId> {
        match s {
            "sans-io" => Some(RuleId::SansIo),
            "secret-hygiene" => Some(RuleId::SecretHygiene),
            "panic-freedom" => Some(RuleId::PanicFreedom),
            "const-time" => Some(RuleId::ConstTime),
            "shard-isolation" => Some(RuleId::ShardIsolation),
            "unsafe-confinement" => Some(RuleId::UnsafeConfinement),
            _ => None,
        }
    }
}

/// One violation (possibly allow-listed).
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
    /// `Some(reason)` when an annotation covers the line.
    pub allowed: Option<String>,
}

impl Finding {
    /// No annotation covers it. The workspace gate fails on every
    /// finding; the split is for the report.
    pub fn is_blocking(&self) -> bool {
        self.allowed.is_none()
    }
}

/// A raw (line, message) hit produced by a rule before the engine
/// attaches allowlist state.
pub(crate) struct Hit {
    pub line: usize, // 0-based
    pub message: String,
}

/// Run the given rule families over one file. Malformed annotations
/// are always reported.
pub fn check_file(file: &SourceFile, families: &[RuleId]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &rule in families {
        let hits = match rule {
            RuleId::SansIo => sans_io::check(file),
            RuleId::SecretHygiene => secret_hygiene::check(file),
            RuleId::PanicFreedom => panic_freedom::check(file),
            RuleId::ConstTime => const_time::check(file),
            RuleId::ShardIsolation => shard_isolation::check(file),
            RuleId::UnsafeConfinement => unsafe_confinement::check(file),
            RuleId::AllowSyntax => Vec::new(),
        };
        for hit in hits {
            findings.push(Finding {
                rule,
                path: file.path.clone(),
                line: hit.line + 1,
                message: hit.message,
                allowed: file.allow_reason(hit.line, rule).map(str::to_string),
            });
        }
    }
    for bad in &file.bad_allows {
        findings.push(Finding {
            rule: RuleId::AllowSyntax,
            path: file.path.clone(),
            line: bad.line,
            message: bad.what.clone(),
            allowed: None,
        });
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}
