//! Legacy interoperability (paper property P5, experiment §5.1): an
//! mbTLS client with an mbTLS proxy talks to *unmodified* TLS 1.2
//! servers, including one that enforces strict record handling.
//!
//! Run with: `cargo run -p mbtls-bench --example legacy_interop`

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, LegacyServer};
use mbtls_core::middlebox::{Middlebox, MiddleboxConfig};
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::ServerConnection;

fn main() {
    let tb = Testbed::new(5);

    println!("== mbTLS client + mbTLS proxy → stock TLS 1.2 server ==");
    let client = MbClientSession::new(
        Arc::new(tb.client_config()),
        "server.example",
        CryptoRng::from_seed(51),
    );
    let proxy = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(52));
    let legacy = LegacyServer::new(
        ServerConnection::new(Arc::new(mbtls_tls::config::ServerConfig::new(
            tb.server_key.clone(),
            [5u8; 32],
        ))),
        CryptoRng::from_seed(53),
    );
    let mut chain = Chain::new(Box::new(client), vec![Box::new(proxy)], Box::new(legacy));
    chain.run_handshake().expect("handshake with legacy server");
    println!("handshake OK: the legacy server ignored the MiddleboxSupport extension");
    let got = chain
        .client_to_server(b"GET / HTTP/1.1\r\nHost: server.example\r\n\r\n", 10)
        .expect("request");
    println!("legacy server received the request ({} bytes) — bridge keys line up\n", got.len());

    println!("== legacy TLS client → mbTLS server with a server-side middlebox ==");
    let legacy_client = mbtls_core::driver::LegacyClient::new(
        mbtls_tls::ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut CryptoRng::from_seed(54),
        ),
        CryptoRng::from_seed(55),
    );
    let announcer = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(56));
    let mb_server = mbtls_core::server::MbServerSession::new(
        Arc::new(tb.server_config()),
        CryptoRng::from_seed(57),
    );
    let mut chain = Chain::new(
        Box::new(legacy_client),
        vec![Box::new(announcer)],
        Box::new(mb_server),
    );
    chain.run_handshake().expect("handshake with legacy client");
    println!("handshake OK: middlebox announced itself and joined on the server side");
    let got = chain
        .client_to_server(b"hello from a 2008-era client", 28)
        .expect("request");
    println!("mbTLS server received: {:?}\n", String::from_utf8_lossy(&got));

    println!("== strict legacy server: announcement is fatal, client must retry ==");
    let mut strict_cfg =
        mbtls_tls::config::ServerConfig::new(tb.server_key.clone(), [5u8; 32]);
    strict_cfg.strict_unknown_records = true;
    let strict = LegacyServer::new(
        ServerConnection::new(Arc::new(strict_cfg)),
        CryptoRng::from_seed(58),
    );
    let legacy_client = mbtls_core::driver::LegacyClient::new(
        mbtls_tls::ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut CryptoRng::from_seed(59),
        ),
        CryptoRng::from_seed(60),
    );
    let announcer = Middlebox::new(tb.middlebox_config(&tb.mbox_code), CryptoRng::from_seed(61));
    let mut chain = Chain::new(
        Box::new(legacy_client),
        vec![Box::new(announcer)],
        Box::new(strict),
    );
    let result = chain.run_handshake();
    println!("handshake failed as the paper predicts: {:?}", result.err().map(|e| e.to_string()));

    println!("\nretry with the announcement cached off:");
    let legacy_client = mbtls_core::driver::LegacyClient::new(
        mbtls_tls::ClientConnection::new(
            Arc::new(mbtls_tls::config::ClientConfig::new(tb.server_trust.clone())),
            "server.example",
            &mut CryptoRng::from_seed(62),
        ),
        CryptoRng::from_seed(63),
    );
    let cached_cfg = MiddleboxConfig {
        cached_no_support: true, // the middlebox remembers
        ..tb.middlebox_config(&tb.mbox_code)
    };
    let quiet = Middlebox::new(cached_cfg, CryptoRng::from_seed(64));
    let mut strict_cfg =
        mbtls_tls::config::ServerConfig::new(tb.server_key.clone(), [5u8; 32]);
    strict_cfg.strict_unknown_records = true;
    let strict = LegacyServer::new(
        ServerConnection::new(Arc::new(strict_cfg)),
        CryptoRng::from_seed(65),
    );
    let mut chain = Chain::new(
        Box::new(legacy_client),
        vec![Box::new(quiet)],
        Box::new(strict),
    );
    chain.run_handshake().expect("retry succeeds");
    println!("retry OK: middlebox relayed silently");
}
