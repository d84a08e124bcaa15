static mut TOTAL_EVENTS: u64 = 0;
static REGISTRY: RegistryHandle = RegistryHandle::new();

pub struct BadShard {
    cache: Rc<SessionCache>,
    scratch: RefCell<Vec<u8>>,
    shared: Arc<Mutex<Vec<Event>>>,
}

fn drain_trace(sessions: HashMap<u64, Session>) -> Vec<u64> {
    let live = sessions;
    let mut out = Vec::new();
    for (id, _s) in live.iter() {
        out.push(*id);
    }
    out
}
