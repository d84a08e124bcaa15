//! §5.1 Legacy interoperability — the "Alexa top-500" survey.
//!
//! The paper drove a modified curl through an mbTLS SOCKS proxy
//! against the top 500 Alexa sites: 385 supported HTTPS; 308
//! succeeded; the 77 failures split into 19 bad certificates, 40
//! missing AES-256-GCM, 13 redirect-handling bugs, and 5 unknown. We
//! build a synthetic population of *unmodified* TLS 1.2 servers with
//! the same defect distribution and drive an mbTLS client + header
//! proxy against every one.

use std::sync::Arc;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::driver::{Chain, LegacyServer};
use mbtls_core::middlebox::{Middlebox, MiddleboxConfig};
use mbtls_crypto::rng::CryptoRng;
use mbtls_http::message::{Request, RequestParser, Response};
use mbtls_mboxes::HeaderInsertionProxy;
use mbtls_pki::cert::CertifiedKey;
use mbtls_pki::KeyUsage;
use mbtls_tls::config::{PeerProof, Proof};
use mbtls_tls::suites::CipherSuite;
use mbtls_tls::ServerConnection;

/// Why a synthetic site fails (mirrors the paper's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteDefect {
    /// Fully working HTTPS site.
    None,
    /// Site does not serve HTTPS at all (the 500-385 gap).
    NoHttps,
    /// Invalid or expired certificate (19 in the paper).
    BadCertificate,
    /// No AES-256-GCM support — the only suite the paper's prototype
    /// spoke (40 in the paper).
    NoAes256Gcm,
    /// Redirect the proxy mishandles (13 in the paper).
    RedirectLoop,
    /// Unexplained failure (5 in the paper).
    Flaky,
}

/// One synthetic site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Rank-like identifier.
    pub name: String,
    /// Its defect class.
    pub defect: SiteDefect,
}

/// Build the 500-site population with the paper's §5.1 distribution.
pub fn population() -> Vec<Site> {
    let mut sites = Vec::with_capacity(500);
    let mut defects = Vec::with_capacity(500);
    defects.extend(std::iter::repeat_n(SiteDefect::NoHttps, 115));
    defects.extend(std::iter::repeat_n(SiteDefect::BadCertificate, 19));
    defects.extend(std::iter::repeat_n(SiteDefect::NoAes256Gcm, 40));
    defects.extend(std::iter::repeat_n(SiteDefect::RedirectLoop, 13));
    defects.extend(std::iter::repeat_n(SiteDefect::Flaky, 5));
    defects.extend(std::iter::repeat_n(SiteDefect::None, 500 - defects.len()));
    // Deterministic interleaving: spread defects across ranks.
    for (i, defect) in defects.into_iter().enumerate() {
        let rank = (i * 197) % 500; // co-prime stride shuffles ranks
        sites.push(Site {
            name: format!("site-{rank:03}.example"),
            defect,
        });
    }
    sites
}

/// Outcome classes for the survey report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Root document fetched through the proxy.
    Success,
    /// Site skipped (no HTTPS).
    NoHttps,
    /// TLS failure: certificate.
    FailedCertificate,
    /// TLS failure: no common cipher suite.
    FailedCipherSuite,
    /// HTTP-level failure (redirect mishandling).
    FailedRedirect,
    /// Unknown failure.
    FailedUnknown,
}

/// Fetch one site's root document through the mbTLS proxy.
pub fn fetch_site(tb: &Testbed, site: &Site, seed: u64) -> Outcome {
    if site.defect == SiteDefect::NoHttps {
        return Outcome::NoHttps;
    }
    if site.defect == SiteDefect::Flaky {
        // The paper could not attribute these; we model them as the
        // connection dying mid-handshake.
        return Outcome::FailedUnknown;
    }
    let mut rng = CryptoRng::from_seed(seed);

    // Issue the site's certificate: valid, or expired for the
    // bad-certificate class. Sites are ordinary *legacy TLS 1.2*
    // servers — the point of the experiment.
    let (not_before, not_after) = match site.defect {
        SiteDefect::BadCertificate => (0, 1), // long expired
        _ => (0, 10_000_000),
    };
    // The Testbed's CA is not directly accessible; re-create a CA and
    // trust store pair for the survey population.
    let mut ca = mbtls_pki::cert::CertificateAuthority::new_root(
        "Survey Web Root",
        0,
        10_000_000,
        &mut rng,
    );
    let site_key = Arc::new(CertifiedKey::issue(
        &mut ca,
        &site.name,
        &[],
        not_before,
        not_after,
        KeyUsage::Endpoint,
        &mut rng,
    ));
    let mut trust = mbtls_pki::TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let trust = Arc::new(trust);

    let mut server_cfg = mbtls_tls::config::ServerConfig::new(site_key, [3u8; 32]);
    if site.defect == SiteDefect::NoAes256Gcm {
        server_cfg.suites = vec![CipherSuite::EcdheAes128GcmSha256];
    }
    let server = LegacyServer::new(ServerConnection::new(Arc::new(server_cfg)), rng.fork());

    // The mbTLS client speaks only AES-256-GCM, like the paper's
    // prototype.
    let mut client_cfg = mbtls_core::client::MbClientConfig::new(trust, tb.middlebox_trust.clone());
    client_cfg.tls.suites = vec![
        CipherSuite::EcdheAes256GcmSha384,
        CipherSuite::DheAes256GcmSha384,
    ];
    client_cfg.tls.current_time = 1_000_000;
    client_cfg.middlebox_proof = PeerProof::Certificate; // in-house proxy
    let client = MbClientSession::new(Arc::new(client_cfg), &site.name, rng.fork());
    let proxy = Middlebox::with_processor(
        MiddleboxConfig { proof: Proof::None, ..tb.middlebox_config(&tb.mbox_code) },
        rng.fork(),
        Box::new(HeaderInsertionProxy::new("Via", "1.1 mbtls-survey-proxy")),
    );

    let mut chain = Chain::new(Box::new(client), vec![Box::new(proxy)], Box::new(server));
    match chain.run_handshake() {
        Ok(()) => {}
        Err(mbtls_core::MbError::Tls(mbtls_tls::TlsError::Certificate(_))) => {
            return Outcome::FailedCertificate
        }
        Err(mbtls_core::MbError::Tls(mbtls_tls::TlsError::NegotiationFailed(_)))
        | Err(mbtls_core::MbError::Tls(mbtls_tls::TlsError::PeerAlert(
            mbtls_tls::alert::AlertDescription::HandshakeFailure,
        ))) => return Outcome::FailedCipherSuite,
        Err(_) => return Outcome::FailedUnknown,
    }

    // Fetch the root document.
    let req = Request::get("/", &site.name).encode();
    let Ok(got) = chain.client_to_server(&req, req.len()) else {
        return Outcome::FailedUnknown;
    };
    let mut parser = RequestParser::new();
    parser.feed(&got);
    let Ok(Some(seen)) = parser.next_request() else {
        return Outcome::FailedUnknown;
    };
    // Redirect-loop sites answer with a redirect the survey client
    // (like the paper's SOCKS shim) does not follow.
    let resp = if site.defect == SiteDefect::RedirectLoop {
        let mut r = Response::status(301, "Moved Permanently");
        r.set_header("Location", &format!("https://{}/", site.name));
        r
    } else {
        Response::ok(format!("<html>root of {}</html>", seen.header("Host").unwrap_or("?")).as_bytes())
    };
    let wire = resp.encode();
    let Ok(body) = chain.server_to_client(&wire, wire.len()) else {
        return Outcome::FailedUnknown;
    };
    if site.defect == SiteDefect::RedirectLoop {
        return Outcome::FailedRedirect;
    }
    if body.windows(4).any(|w| w == b"root") {
        Outcome::Success
    } else {
        Outcome::FailedUnknown
    }
}

/// Aggregate survey results.
#[derive(Debug, Clone, Default)]
pub struct Survey {
    /// HTTPS-capable sites attempted.
    pub https_sites: usize,
    /// Successful fetches.
    pub successes: usize,
    /// Certificate failures.
    pub bad_certs: usize,
    /// Cipher-suite failures.
    pub no_suite: usize,
    /// Redirect failures.
    pub redirects: usize,
    /// Unknown failures.
    pub unknown: usize,
}

/// Run the survey over all 500 sites.
pub fn run(seed: u64) -> Survey {
    let tb = Testbed::new(seed);
    let sites = population();
    let mut survey = Survey::default();
    for (i, site) in sites.iter().enumerate() {
        match fetch_site(&tb, site, seed + 31 * i as u64) {
            Outcome::NoHttps => {}
            outcome => {
                survey.https_sites += 1;
                match outcome {
                    Outcome::Success => survey.successes += 1,
                    Outcome::FailedCertificate => survey.bad_certs += 1,
                    Outcome::FailedCipherSuite => survey.no_suite += 1,
                    Outcome::FailedRedirect => survey.redirects += 1,
                    Outcome::FailedUnknown => survey.unknown += 1,
                    Outcome::NoHttps => unreachable!(),
                }
            }
        }
    }
    survey
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_matches_paper_taxonomy() {
        let sites = population();
        assert_eq!(sites.len(), 500);
        let count = |d: SiteDefect| sites.iter().filter(|s| s.defect == d).count();
        assert_eq!(count(SiteDefect::NoHttps), 115);
        assert_eq!(count(SiteDefect::BadCertificate), 19);
        assert_eq!(count(SiteDefect::NoAes256Gcm), 40);
        assert_eq!(count(SiteDefect::RedirectLoop), 13);
        assert_eq!(count(SiteDefect::Flaky), 5);
        assert_eq!(count(SiteDefect::None), 308);
    }

    #[test]
    fn each_defect_class_produces_expected_outcome() {
        let tb = Testbed::new(0x515E);
        let cases = [
            (SiteDefect::None, Outcome::Success),
            (SiteDefect::BadCertificate, Outcome::FailedCertificate),
            (SiteDefect::NoAes256Gcm, Outcome::FailedCipherSuite),
            (SiteDefect::RedirectLoop, Outcome::FailedRedirect),
            (SiteDefect::NoHttps, Outcome::NoHttps),
            (SiteDefect::Flaky, Outcome::FailedUnknown),
        ];
        for (i, (defect, expected)) in cases.into_iter().enumerate() {
            let site = Site {
                name: format!("probe-{i}.example"),
                defect,
            };
            let outcome = fetch_site(&tb, &site, 9000 + i as u64);
            assert_eq!(outcome, expected, "{defect:?}");
        }
    }
}
