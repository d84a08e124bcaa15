//! Property tests for shard pinning: under arbitrary create/evict
//! churn across a fleet of per-shard session tables, every live
//! [`SessionId`] routes to exactly one shard — the one encoded in its
//! index bits — and every stale or shard-foreign id is rejected by
//! every table.

use mbtls_host::{SessionId, Slab};
use proptest::prelude::*;

/// One step of churn, interpreted against the current fleet state.
#[derive(Debug, Clone)]
enum Op {
    /// Insert into shard `pick % shards`.
    Insert { pick: u16 },
    /// Evict the `pick % live`-th live id (generation-bumps its slot).
    Evict { pick: u16 },
}

/// Decode a raw `(kind, pick)` pair into an [`Op`], biased 3:2
/// toward inserts so fleets grow enough to churn.
fn decode(kind: u8, pick: u16) -> Op {
    if kind % 5 < 3 {
        Op::Insert { pick }
    } else {
        Op::Evict { pick }
    }
}

proptest! {
    /// Fleet-wide routing invariant: after any churn schedule, each
    /// live id is held by exactly the shard its index bits name, and
    /// every id that was ever evicted is held by no shard at all —
    /// even though its slot has usually been recycled (generation
    /// bump) or belongs to another shard's table at the same local
    /// index.
    #[test]
    fn every_id_routes_to_exactly_one_shard(
        shards in 1u16..9,
        raw_ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..200),
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(|(kind, pick)| decode(kind, pick)).collect();
        let mut fleet: Vec<Slab<u64>> =
            (0..shards).map(Slab::for_shard).collect();
        let mut live: Vec<SessionId> = Vec::new();
        let mut stale: Vec<SessionId> = Vec::new();
        let mut minted: u64 = 0;

        for op in ops {
            match op {
                Op::Insert { pick } => {
                    let shard = pick % shards;
                    let id = fleet[shard as usize]
                        .try_insert(minted)
                        .expect("local address space is nowhere near exhausted");
                    minted += 1;
                    prop_assert_eq!(id.shard(), shard, "minted id carries its shard");
                    live.push(id);
                }
                Op::Evict { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.swap_remove(pick as usize % live.len());
                    prop_assert!(
                        fleet[id.shard() as usize].remove(id).is_some(),
                        "live id must evict from its own shard"
                    );
                    stale.push(id);
                }
            }

            // The invariant holds at every step, not just at the end.
            for &id in &live {
                let owner = id.shard();
                let holders = fleet
                    .iter()
                    .filter(|slab| slab.contains(id))
                    .count();
                prop_assert_eq!(holders, 1, "live id {} held by exactly one shard", id);
                prop_assert!(
                    fleet[owner as usize].contains(id),
                    "the holder is the routed shard"
                );
            }
            for &id in &stale {
                prop_assert!(
                    fleet.iter().all(|slab| !slab.contains(id)),
                    "stale id {} must be dead fleet-wide",
                    id
                );
            }
        }
    }

    /// A stale id stays unresolvable through every accessor of every
    /// shard — including the foreign shard whose table has a live
    /// session at the same local slot.
    #[test]
    fn stale_and_foreign_ids_rejected_by_every_accessor(
        shards in 2u16..9,
        churn in 1u16..40,
    ) {
        let mut fleet: Vec<Slab<u64>> =
            (0..shards).map(Slab::for_shard).collect();
        // Churn shard 0 so its slot generations run ahead, keeping a
        // stale id from each round.
        let mut stale = Vec::new();
        for round in 0..churn {
            let id = fleet[0].try_insert(round as u64).unwrap();
            fleet[0].remove(id);
            stale.push(id);
        }
        // Re-populate every shard so each table has a *live* session
        // at local slot 0 — the exact slot the stale ids point at.
        let fresh: Vec<SessionId> = fleet
            .iter_mut()
            .map(|slab| slab.try_insert(1000).unwrap())
            .collect();
        for &id in &fresh {
            prop_assert_eq!(id.local(), 0);
        }

        for &old in &stale {
            for slab in &mut fleet {
                prop_assert!(slab.get(old).is_none());
                prop_assert!(slab.get_mut(old).is_none());
                prop_assert!(!slab.contains(old));
                prop_assert!(slab.remove(old).is_none());
            }
        }
        // The live sessions were untouched by all those probes.
        for (k, &id) in fresh.iter().enumerate() {
            prop_assert_eq!(fleet[k].get(id), Some(&1000));
        }
        // And a live id from shard A is rejected by shard B even with
        // a matching live slot and generation.
        for (k, &id) in fresh.iter().enumerate() {
            for (j, slab) in fleet.iter().enumerate() {
                prop_assert_eq!(slab.contains(id), j == k);
            }
        }
    }
}
