//! Quickstart: an mbTLS session between a client and a server with
//! one on-path middlebox that joins in-band, attests its code, and
//! processes application data — the whole protocol in ~100 lines.
//!
//! Run with: `cargo run -p mbtls-bench --example quickstart`

use std::sync::Arc;

use mbtls_core::attacks::{PakAttestor, Testbed};
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::Chain;
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_core::{MbClientConfig, MbServerConfig, MiddleboxConfig};
use mbtls_crypto::rng::CryptoRng;
use mbtls_telemetry::{EventKind, Recorder};
use mbtls_tls::config::{AttestationPolicy, PeerProof, Proof};

fn main() {
    // 1. Environment: a web PKI, a middlebox-service PKI, and a
    //    simulated SGX attestation service. `Testbed` bundles the
    //    boilerplate; see its source for the individual pieces.
    let tb = Testbed::new(42);

    // A telemetry recorder captures every protocol event for
    // inspection after the session (step 5).
    let recorder = Recorder::new();
    let sink = recorder.sink();

    // 2. The three parties, each configured by struct update over its
    //    `new` defaults. The client and server require middleboxes to
    //    attest the published "mbtls-proxy v1.0" enclave measurement;
    //    the middlebox presents a quote from its enclave.
    let attestation = AttestationPolicy {
        root: tb.attestation_root,
        acceptable: vec![tb.mbox_code.measure()],
    };
    let client_cfg = MbClientConfig {
        middlebox_proof: PeerProof::Attestation(attestation.clone()),
        telemetry: Some(sink.clone()),
        ..MbClientConfig::new(tb.server_trust.clone(), tb.middlebox_trust.clone())
    };
    let server_tls = mbtls_tls::config::ServerConfig::new(tb.server_key.clone(), [0x7E; 32]);
    let server_cfg = MbServerConfig {
        middlebox_proof: PeerProof::Attestation(attestation),
        telemetry: Some(sink.clone()),
        ..MbServerConfig::new(server_tls, tb.middlebox_trust.clone())
    };
    let mbox_cfg = MiddleboxConfig {
        proof: Proof::Attestor(Arc::new(PakAttestor {
            pak: tb.pak.clone(),
            measurement: tb.mbox_code.measure(),
        })),
        telemetry: Some(sink),
        ..MiddleboxConfig::new(tb.mbox_key.clone())
    };

    let client = MbClientSession::new(Arc::new(client_cfg), "server.example", CryptoRng::from_seed(1));
    let server = MbServerSession::new(Arc::new(server_cfg), CryptoRng::from_seed(2));
    let middlebox = Middlebox::new(mbox_cfg, CryptoRng::from_seed(3));

    // 3. Wire them together over in-memory pipes and run the
    //    handshake: primary TLS client↔server, secondary TLS
    //    client↔middlebox (discovered in-band via the MiddleboxSupport
    //    extension), then per-hop key distribution.
    let mut chain = Chain::new(Box::new(client), vec![Box::new(middlebox)], Box::new(server));
    chain.run_handshake().expect("mbTLS handshake");
    println!("handshake complete: client and server ready, middlebox keyed");

    // 4. Application data flows through the middlebox, re-encrypted
    //    under a unique key on every hop (P1C/P4).
    let request = b"GET /hello HTTP/1.1\r\nHost: server.example\r\n\r\n";
    let got = chain
        .client_to_server(request, request.len())
        .expect("request delivery");
    println!("server received {} bytes: {:?}", got.len(), String::from_utf8_lossy(&got));

    let response = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\nhello mbTLS!";
    let got = chain
        .server_to_client(response, response.len())
        .expect("response delivery");
    println!("client received {} bytes: {:?}", got.len(), String::from_utf8_lossy(&got));

    // 5. The telemetry trace shows what just happened, per party.
    let trace = recorder.take();
    let deliveries = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::KeyDelivery { .. }))
        .count();
    let records = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RecordEncrypt { .. }))
        .count();
    println!(
        "trace: {} events, {deliveries} key deliveries, {records} per-hop record encryptions",
        trace.len()
    );
}
