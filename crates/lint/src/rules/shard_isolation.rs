//! Rule `shard-isolation`: the shared-nothing discipline the sharded
//! host depends on, enforced statically before real OS threads go
//! under the shards.
//!
//! PR 6 split the host into per-worker `Shard` reactors that own all
//! of their state; the ROADMAP's "real threads under the shards" item
//! puts each on its own thread behind an `std::sync::mpsc` channel
//! (whose `Send` bound keeps borrows from crossing). That only works
//! if nothing in `crates/host` or `crates/netsim` quietly shares
//! mutable state or introduces nondeterminism. Two shapes are
//! forbidden:
//!
//! * **shared statics** — `static mut` or any `static` item: global
//!   state is visible to every shard at once. Per-shard state lives in
//!   `Shard` fields; immutable tables belong in `const`s.
//! * **shared-ownership / interior-mutability types** — `Rc`,
//!   `RefCell`, `Cell`, `UnsafeCell`, `Mutex`, `RwLock`, `Condvar`
//!   (and `Arc<Mutex<…>>`, which the bare `Mutex` token already
//!   catches): a lock or shared cell in shard-owned state is exactly
//!   the cross-shard coupling the split removed. Plain `Arc` of
//!   immutable data is tolerated (read-only sharing is benign).
//!
//! Hash-container iteration — whose order is randomized per process
//! and would break the bit-identical traces the scale artifact
//! asserts — is clippy's to refuse, by type: the workspace
//! `clippy.toml` disallows the `HashMap`/`HashSet` iteration methods,
//! and the host, netsim and mboxes roots forbid
//! `clippy::iter_over_hash_type` (DESIGN.md §6d). Unlike a token
//! match, that sees a map behind a rebind or a struct field.

use super::Hit;
use crate::source::SourceFile;

/// Shared-ownership / interior-mutability / locking type names that
/// must not appear in shard-scoped code.
const BANNED_TYPES: &[(&str, &str)] = &[
    ("Rc", "shared ownership hides cross-shard aliasing; shards own their state outright"),
    ("RefCell", "interior mutability defeats the shared-nothing audit; use &mut through the owner"),
    ("Cell", "interior mutability defeats the shared-nothing audit; use &mut through the owner"),
    ("UnsafeCell", "interior mutability defeats the shared-nothing audit; use &mut through the owner"),
    ("Mutex", "a lock in shard state is cross-shard coupling; hand owned data to the owning shard"),
    ("RwLock", "a lock in shard state is cross-shard coupling; hand owned data to the owning shard"),
    ("Condvar", "blocking synchronization couples shards; the reactor loop is the only scheduler"),
];

pub(crate) fn check(file: &SourceFile) -> Vec<Hit> {
    let tokens = &file.tokens;
    let mut hits = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if file.is_test[tok.line] {
            continue;
        }
        // `static` item (not the `'static` lifetime).
        if tok.text == "static" {
            let is_lifetime = i > 0 && tokens[i - 1].text == "'";
            let heads_item = tokens
                .get(i + 1)
                .is_some_and(|n| n.text == "mut" || (n.is_word() && tokens.get(i + 2).is_some_and(|c| c.text == ":")));
            if !is_lifetime && heads_item {
                let muta = tokens[i + 1].text == "mut";
                hits.push(Hit {
                    line: tok.line,
                    message: if muta {
                        "`static mut` is shared mutable state visible to every shard; \
                         own it in the Shard (or Host) struct instead"
                            .into()
                    } else {
                        "`static` item in shard-scoped code; globals outlive the \
                         shared-nothing audit — use a `const` for immutable tables or a \
                         Shard/Host field for state"
                            .into()
                    },
                });
            }
        }
        if let Some((name, why)) = BANNED_TYPES.iter().find(|(n, _)| tok.text == *n) {
            // Skip `Arc` — only its locked contents are banned, and the
            // inner `Mutex` token fires on its own.
            hits.push(Hit {
                line: tok.line,
                message: format!("`{name}` in shard-scoped code: {why}"),
            });
        }
    }
    hits
}
