static mut TOTAL_EVENTS: u64 = 0;
static REGISTRY: RegistryHandle = RegistryHandle::new();

pub struct BadShard {
    cache: Rc<SessionCache>,
    scratch: RefCell<Vec<u8>>,
    shared: Arc<Mutex<Vec<Event>>>,
}
