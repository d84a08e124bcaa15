const MAX_SHARDS: usize = 64;

pub struct GoodShard {
    sessions: BTreeMap<u64, Session>,
    routes: Arc<RoutingTable>,
}

fn drain_trace(shard: &GoodShard) -> Vec<u64> {
    let mut out = Vec::new();
    for (id, _s) in shard.sessions.iter() {
        out.push(*id);
    }
    out
}

fn lookup(m: &HashMap<u64, Session>, id: u64) -> Option<&Session> {
    m.get(&id)
}
