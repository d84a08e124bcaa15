//! An established endpoint holds what its data plane needs, not its
//! secondary sessions.
//!
//! A secondary session exists to deliver one middlebox's keys; once
//! they are sent only the `MiddleboxInfo` that `middleboxes()` reports
//! is kept. This file measures the heap an endpoint still owns after
//! its handshake and one exchange — the bytes dropping it frees — and
//! holds each middlebox to at most 2 KiB of it.
//!
//! When endpoints kept every finished secondary in a
//! `BTreeMap<u8, Secondary>`, the ~2.4 KB `ClientConnection` sat inline
//! in the map's leaf, which reserves 11 value slots: the first
//! middlebox cost an endpoint a ~26 KB node. The client held
//! 4973 / 33 399 / 35 383 / 36 823 bytes at 0 / 1 / 2 / 3 client-side
//! middleboxes, 28 426 more at one than at none, and the server
//! 3199 / 31 792 bytes at 0 / 1 server-side middleboxes. With each
//! secondary dropped at key delivery the client held
//! 4972 / 5639 / 6424 / 6665 bytes and the server 3199 / 3953. Since
//! sessions share their endpoint config's TLS configs instead of each
//! copying them, and the primary connection gives up its ciphers and
//! key block at key delivery, the client holds
//! 4576 / 5243 / 6028 / 6269 bytes and the server 3004 / 3758.
//!
//! The counting allocator is this test binary's, and the binary has
//! one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::{MbClientConfig, MbClientSession};
use mbtls_core::driver::{Chain, Endpoint, LegacyClient, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::{MbServerConfig, MbServerSession};
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::config::ClientConfig;
use mbtls_tls::ClientConnection;

/// `System`, counting the bytes live on the heap.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates to `System`, which upholds the `GlobalAlloc`
// contract; the tally has no effect on the returned memory. (The
// default `realloc` goes through `alloc` and `dealloc`.)
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// What one more middlebox may add to an established endpoint.
const PER_MIDDLEBOX: isize = 2048;

/// Handshake and one exchange each way over `chain`.
fn establish(chain: &mut Chain) {
    chain.run_handshake().expect("handshake completes");
    let got = chain.client_to_server(b"GET /index.html", 15).expect("request");
    assert_eq!(got, b"GET /index.html");
    let got = chain.server_to_client(b"200 OK payload", 14).expect("response");
    assert_eq!(got, b"200 OK payload");
}

/// The heap `endpoint` owns: what dropping it frees. Its configs
/// stay alive in the caller, so only its own state is counted.
fn resident(endpoint: Box<dyn Endpoint>) -> isize {
    let held = LIVE.load(Ordering::Relaxed);
    drop(endpoint);
    held - LIVE.load(Ordering::Relaxed)
}

fn middleboxes(tb: &Testbed, n: usize, rng: &mut CryptoRng) -> Vec<Box<dyn Relay>> {
    (0..n)
        .map(|_| {
            let mb = Middlebox::new(tb.middlebox_config(&tb.mbox_code), rng.fork());
            Box::new(mb) as Box<dyn Relay>
        })
        .collect()
}

/// An mbTLS client with `n` client-side middleboxes.
fn client_bytes(
    tb: &Testbed,
    config: &Arc<MbClientConfig>,
    server: &Arc<MbServerConfig>,
    n: usize,
) -> isize {
    let mut rng = CryptoRng::from_seed(0xC11E + n as u64);
    let client = MbClientSession::new(config.clone(), "server.example", rng.fork());
    let server_end = MbServerSession::new(server.clone(), rng.fork());
    let middles = middleboxes(tb, n, &mut rng);
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server_end));
    establish(&mut chain);
    assert_eq!(chain.client.failed(), None);
    // A spare endpoint takes the client's place, built before the count.
    let spare = MbClientSession::new(config.clone(), "server.example", rng.fork());
    resident(std::mem::replace(&mut chain.client, Box::new(spare)))
}

/// An mbTLS server behind `n` server-side middleboxes, with a legacy
/// client (so the middleboxes announce themselves to the server).
fn server_bytes(tb: &Testbed, server: &Arc<MbServerConfig>, n: usize) -> isize {
    let mut rng = CryptoRng::from_seed(0x5E7E + n as u64);
    let tls = Arc::new(ClientConfig::new(tb.server_trust.clone()));
    let mut client_rng = rng.fork();
    let conn = ClientConnection::new(tls, "server.example", &mut client_rng);
    let client = LegacyClient::new(conn, client_rng);
    let server_end = MbServerSession::new(server.clone(), rng.fork());
    let middles = middleboxes(tb, n, &mut rng);
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server_end));
    establish(&mut chain);
    assert_eq!(chain.server.failed(), None);
    let spare = MbServerSession::new(server.clone(), rng.fork());
    resident(std::mem::replace(&mut chain.server, Box::new(spare)))
}

#[test]
fn each_middlebox_adds_at_most_2_kib_to_an_established_endpoint() {
    let tb = Testbed::new(0x4EA9);
    let client = Arc::new(tb.client_config());
    let server = Arc::new(tb.server_config());

    let alone = client_bytes(&tb, &client, &server, 0);
    assert!(alone > 0, "an established client owns some heap");
    eprintln!("client, 0 middleboxes: {alone} bytes");
    for n in 1..=3 {
        let with = client_bytes(&tb, &client, &server, n);
        eprintln!("client, {n} middlebox(es): {with} bytes");
        assert!(
            with - alone <= PER_MIDDLEBOX * n as isize,
            "client with {n} middlebox(es): {with} bytes against {alone} with none"
        );
    }

    let alone = server_bytes(&tb, &server, 0);
    let with = server_bytes(&tb, &server, 1);
    eprintln!("server, 0 / 1 server-side middleboxes: {alone} / {with} bytes");
    assert!(
        with - alone <= PER_MIDDLEBOX,
        "server with one server-side middlebox: {with} bytes against {alone} with none"
    );
}
