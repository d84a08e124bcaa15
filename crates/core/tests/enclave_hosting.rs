//! The headline deployment: a complete mbTLS session whose middlebox
//! runs *inside* a simulated SGX enclave on an untrusted platform.
//! Every byte the middlebox processes flows through ECALLs; after the
//! session, the infrastructure provider scans all host-visible memory
//! for the hop keys and finds nothing.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Endpoint, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_crypto::rng::CryptoRng;
use mbtls_sgx::{Enclave, HostInspector};

/// Everything one `_into` drain moves, in a buffer of its own: every
/// hop is carried by hand, through an ECALL on the middlebox's side.
fn drained(drain: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    drain(&mut out);
    out
}

#[test]
fn middlebox_runs_inside_enclave_end_to_end() {
    let mut tb = Testbed::new(0xE9C1A7E);
    let mut client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(1),
    );
    let mut server = MbServerSession::new(Arc::new(tb.server_config()), CryptoRng::from_seed(2));
    let mbox = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(3));

    // Load the middlebox into an enclave on the MIP's platform. Its
    // state snapshot (which includes hop keys once delivered) is only
    // ever memory-encrypted on the host.
    let mut enclave = Enclave::create(&mut tb.platform, &tb.mbox_code, mbox);

    // Handshake, entirely through ECALLs.
    for _ in 0..60 {
        let b = drained(|d| client.take_into(d));
        enclave.ecall(&mut tb.platform, |mb| mb.feed_left(&b).unwrap());
        let b = enclave.ecall(&mut tb.platform, |mb| drained(|d| mb.take_right_into(d)));
        server.feed(&b).unwrap();
        let b = drained(|d| server.take_into(d));
        enclave.ecall(&mut tb.platform, |mb| mb.feed_right(&b).unwrap());
        let b = enclave.ecall(&mut tb.platform, |mb| drained(|d| mb.take_left_into(d)));
        client.feed(&b).unwrap();
        let keyed = enclave.ecall_ref(&tb.platform, |mb| mb.has_keys());
        if client.ready() && server.ready() && keyed {
            break;
        }
    }
    assert!(client.ready() && server.ready());
    assert!(enclave.ecall_ref(&tb.platform, |mb| mb.has_keys()));

    // Data through the enclave-hosted middlebox.
    client.send_app(b"processed inside the enclave").unwrap();
    let b = drained(|d| client.take_into(d));
    enclave.ecall(&mut tb.platform, |mb| mb.feed_left(&b).unwrap());
    let b = enclave.ecall(&mut tb.platform, |mb| drained(|d| mb.take_right_into(d)));
    server.feed(&b).unwrap();
    assert_eq!(drained(|d| server.recv_app_into(d)), b"processed inside the enclave");

    // The MIP's view: scan every host-visible byte for the actual hop
    // keys the middlebox holds.
    let key_material = enclave.ecall_ref(&tb.platform, |mb| mb.sensitive_snapshot());
    assert!(!key_material.is_empty());
    let inspector = HostInspector::new(&mut tb.platform.memory);
    // Probe with several 16-byte windows of real key material.
    for window in key_material.windows(16).step_by(24).take(8) {
        assert!(
            inspector.scan_for(window).is_empty(),
            "hop-key bytes visible to the infrastructure provider"
        );
    }
}

#[test]
fn host_tampering_with_hosted_middlebox_is_fatal() {
    let mut tb = Testbed::new(0xE9C1A7F);
    let mbox = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(4));
    let mut enclave = Enclave::create(&mut tb.platform, &tb.mbox_code, mbox);
    // The MIP flips a byte in the enclave's page image.
    {
        let mut inspector = HostInspector::new(&mut tb.platform.memory);
        let names = inspector.region_names();
        let enclave_region = names
            .iter()
            .find(|n| n.starts_with("enclave-"))
            .expect("enclave region exists")
            .clone();
        inspector.tamper(&enclave_region, 0, 0xFF);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        enclave.ecall(&mut tb.platform, |mb| drained(|d| mb.take_right_into(d)))
    }));
    assert!(result.is_err(), "integrity violation must abort the enclave");
}
