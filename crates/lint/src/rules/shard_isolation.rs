//! Rule `shard-isolation`: the shared-nothing discipline the sharded
//! host depends on, enforced statically before real OS threads go
//! under the shards.
//!
//! PR 6 split the host into per-worker `Shard` reactors that own all
//! of their state; the ROADMAP's "real threads under the shards" item
//! puts each on its own thread behind an `std::sync::mpsc` channel
//! (whose `Send` bound keeps borrows from crossing). That only works
//! if nothing in `crates/host` or `crates/netsim` quietly shares
//! mutable state or introduces nondeterminism. Three shapes are
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
//! * **hash-container iteration** — iterating a `HashMap`/`HashSet`
//!   (directly, via `.iter()`/`.keys()`/`.values()`/`.drain()`/
//!   `.retain()`/`.into_iter()`, or `for _ in map`): iteration order
//!   is randomized per process, which would break the bit-identical
//!   trace/bench guarantee the scale artifact asserts. Keyed *lookup*
//!   is fine; ordered walks want `BTreeMap` or a `Vec`. Bindings are
//!   tracked through the dataflow pass, so `let m = HashMap::new();
//!   … for x in m` is caught even though the iteration site never
//!   names the type.

use super::Hit;
use crate::dataflow::Taint;
use crate::source::SourceFile;
use crate::tokens::{operand_span_before, Token};

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

/// Iteration methods whose order on a hash container is
/// nondeterministic.
const ITER_METHODS: &[&str] = &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain"];

pub(crate) fn check(file: &SourceFile) -> Vec<Hit> {
    let tokens = &file.tokens;
    let taint = Taint::analyze(file);
    let mut hits = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if file.is_test[tok.line] {
            continue;
        }
        match tok.text.as_str() {
            // `static` item (not the `'static` lifetime).
            "static" => {
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
            "for" => {
                // `for pat in <iterable> {` over a hash container.
                if let Some(range) = for_iterable(tokens, i) {
                    let direct = tokens[range.clone()]
                        .iter()
                        .any(|t| t.text == "HashMap" || t.text == "HashSet");
                    if direct || taint.container_in(range) {
                        hits.push(Hit {
                            line: tok.line,
                            message: "iteration over a HashMap/HashSet: order is randomized per \
                                      process, breaking bit-identical traces — use BTreeMap, a \
                                      Vec, or collect-and-sort"
                                .into(),
                        });
                    }
                }
            }
            _ => {}
        }
        if let Some((name, why)) = BANNED_TYPES.iter().find(|(n, _)| tok.text == *n) {
            // Skip `Arc` — only its locked contents are banned, and the
            // inner `Mutex` token fires on its own.
            hits.push(Hit {
                line: tok.line,
                message: format!("`{name}` in shard-scoped code: {why}"),
            });
        }
        // `<container>.iter()` and friends.
        if tok.text == "."
            && tokens
                .get(i + 1)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && tokens.get(i + 2).is_some_and(|p| p.text == "(")
        {
            let recv = operand_span_before(tokens, i);
            let direct = tokens[recv.clone()]
                .iter()
                .any(|t| t.text == "HashMap" || t.text == "HashSet");
            if direct || taint.container_in(recv) {
                hits.push(Hit {
                    line: tokens[i + 1].line,
                    message: format!(
                        "`.{}()` on a HashMap/HashSet: iteration order is randomized per \
                         process, breaking bit-identical traces — use BTreeMap, a Vec, or \
                         collect-and-sort",
                        tokens[i + 1].text
                    ),
                });
            }
        }
    }
    hits
}

/// The iterable expression range of a `for … in <iterable> {` whose
/// `for` keyword sits at `i`.
fn for_iterable(tokens: &[Token], i: usize) -> Option<std::ops::Range<usize>> {
    let mut depth = 0i32;
    let mut in_kw = None;
    for (j, t) in tokens.iter().enumerate().skip(i + 1) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "in" if depth == 0 => {
                in_kw = Some(j);
                break;
            }
            ";" => return None, // not a for-loop header after all
            _ => {}
        }
        if depth < 0 {
            return None;
        }
    }
    let in_kw = in_kw?;
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(in_kw + 1) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(in_kw + 1..j),
            _ => {}
        }
    }
    None
}
