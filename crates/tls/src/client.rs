//! The TLS 1.2 client state machine (sans-IO).

use std::sync::Arc;

use mbtls_crypto::dh::{DhPublic, DhSecret};
use mbtls_crypto::ed25519::verify_checks;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::secret::Secret;
use mbtls_crypto::x25519;
use mbtls_crypto::CryptoError;
use mbtls_pki::cert::Certificate;
use mbtls_pki::delegation::{CredentialError, CredentialVerifier, DelegatedCredential};
use mbtls_pki::{CertError, SignatureCheck};
use mbtls_sgx::{AttestationError, Quote};

use crate::config::{ClientConfig, PeerProof};
use crate::keyschedule;
use crate::messages::{
    choose_suite, extension_type, handshake_header, handshake_type, ClientHello,
    ClientKeyExchange, DelegatedCredentialMsg, Extension, NewSessionTicket, ServerHello,
    ServerKeyExchange, ServerKeyExchangeParams, SgxAttestationMsg,
};
use crate::session::ResumptionData;
use crate::shell::{Connection, Flow, Handshake, Hooks};
use crate::suites::{CipherSuite, KeyExchange};
use crate::TlsError;

/// Client handshake phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// ClientHello queued; waiting for ServerHello.
    AwaitServerHello,
    /// Full handshake: collecting the server's first flight.
    AwaitServerFlight,
    /// Full handshake: flight sent, waiting for server CCS+Finished.
    AwaitServerFinished,
    /// Abbreviated handshake: waiting for server CCS+Finished first.
    AwaitServerFinishedResumed,
    /// Handshake complete.
    Established,
}

/// A sans-IO TLS 1.2 client connection.
pub type ClientConnection = Connection<ClientHandshake>;

/// What makes a [`Connection`] the client: its handshake state.
pub struct ClientHandshake {
    config: Arc<ClientConfig>,
    server_name: String,
    phase: Phase,
    hello: ClientHello,

    peer_extensions: Vec<Extension>,
    peer_chain: Vec<Certificate>,
    peer_quote: Option<Quote>,
    peer_credential: Option<DelegatedCredential>,
    server_flight: ServerFlight,

    new_ticket: Option<NewSessionTicket>,
    /// Session id the server assigned in a full handshake.
    assigned_session_id: Vec<u8>,
    offered_resumption: Option<ResumptionData>,
    /// Set after ServerHello when the server *might* be resuming;
    /// resolved by the next message (Certificate vs ticket/CCS).
    pending_resumption: Option<ResumptionData>,

    /// The server flight's signature checks, parked under
    /// `ClientConfig::defer_verify` and awaiting pickup.
    pending_checks: Option<Vec<SignatureCheck>>,
    /// True while deferred checks exist whose verdict has not been
    /// delivered; gates `is_established`.
    verify_outstanding: bool,
}

/// Accumulates the server's first flight until ServerHelloDone.
#[derive(Default)]
struct ServerFlight {
    certificate_chain: Option<Vec<Certificate>>,
    key_exchange: Option<ServerKeyExchange>,
    attestation: Option<SgxAttestationMsg>,
    credential: Option<DelegatedCredentialMsg>,
    /// Transcript bytes up to and including ServerKeyExchange — the
    /// state the attestation quote must bind (paper §3.4); a
    /// delegated credential's session nonce binds the same state.
    attestation_binding: Option<[u8; 64]>,
}

impl Connection<ClientHandshake> {
    /// Start a connection to `server_name`; the ClientHello is queued
    /// for sending immediately.
    pub fn new(config: Arc<ClientConfig>, server_name: &str, rng: &mut CryptoRng) -> Self {
        let hello = Self::build_hello(&config, server_name, rng);
        Self::with_hello(config, server_name, hello, true)
    }

    /// Start a connection that *reuses* an existing ClientHello (the
    /// mbTLS secondary-handshake trick: the primary ClientHello serves
    /// double duty, so the secondary connection must treat those exact
    /// bytes as its first message without re-sending them).
    pub fn with_reused_hello(
        config: Arc<ClientConfig>,
        server_name: &str,
        hello: ClientHello,
    ) -> Self {
        Self::with_hello(config, server_name, hello, false)
    }

    fn with_hello(
        config: Arc<ClientConfig>,
        server_name: &str,
        hello: ClientHello,
        send: bool,
    ) -> Self {
        let body = hello.encode_body();
        let client_random = hello.random;
        let offered_resumption = config.resumption_cache.get(server_name).cloned();
        let mut conn = Connection::starting(ClientHandshake {
            config,
            server_name: server_name.to_string(),
            phase: Phase::AwaitServerHello,
            hello,
            peer_extensions: Vec::new(),
            peer_chain: Vec::new(),
            peer_quote: None,
            peer_credential: None,
            server_flight: ServerFlight::default(),
            new_ticket: None,
            assigned_session_id: Vec::new(),
            offered_resumption,
            pending_resumption: None,
            pending_checks: None,
            verify_outstanding: false,
        });
        conn.client_random = client_random;
        if send {
            conn.queue_handshake(handshake_type::CLIENT_HELLO, &body);
        } else {
            let header = handshake_header(handshake_type::CLIENT_HELLO, body.len());
            conn.transcript.add(&[&header, &body]);
        }
        conn
    }

    /// Build the ClientHello this config would send to `server_name`.
    /// Public so mbTLS can construct it once and share it between the
    /// primary and secondary connections.
    pub fn build_hello(
        config: &ClientConfig,
        server_name: &str,
        rng: &mut CryptoRng,
    ) -> ClientHello {
        let mut extensions = config.extra_extensions.clone();
        let cached = config.resumption_cache.get(server_name);
        if config.enable_tickets {
            let ticket_bytes = cached
                .and_then(|r| r.ticket.clone())
                .unwrap_or_default();
            extensions.push(Extension {
                typ: extension_type::SESSION_TICKET,
                data: ticket_bytes,
            });
        }
        let request = match config.peer_proof {
            PeerProof::Certificate => None,
            PeerProof::Attestation(_) => Some(extension_type::ATTESTATION_REQUEST),
            PeerProof::Delegation(_) => Some(extension_type::DELEGATION_REQUEST),
        };
        if let Some(typ) = request {
            extensions.push(Extension { typ, data: vec![1] });
        }
        let session_id = cached.map(|r| r.session_id.clone()).unwrap_or_default();
        ClientHello {
            random: rng.gen_array(),
            session_id,
            cipher_suites: config.suites.iter().map(|s| s.id()).collect(),
            extensions,
        }
    }

    /// The ClientHello this connection sent (mbTLS shares it with
    /// secondary connections).
    pub fn hello(&self) -> &ClientHello {
        &self.hs.hello
    }

    /// True once the handshake has run to its end with the verdict on
    /// its parked signature checks still owed: `is_established` now
    /// waits on [`Connection::resolve_verify`] alone.
    pub fn awaiting_verdict(&self) -> bool {
        self.hs.phase == Phase::Established && self.hs.verify_outstanding
    }

    /// Extensions the server echoed in its ServerHello.
    pub fn peer_extensions(&self) -> &[Extension] {
        &self.hs.peer_extensions
    }

    /// The server's certificate chain (empty until received).
    pub fn peer_certificates(&self) -> &[Certificate] {
        &self.hs.peer_chain
    }

    /// The verified attestation quote, if the server attested.
    pub fn peer_quote(&self) -> Option<&Quote> {
        self.hs.peer_quote.as_ref()
    }

    /// The verified delegated credential, if the peer authorized via
    /// delegation ([`PeerProof::Delegation`]).
    pub fn peer_credential(&self) -> Option<&DelegatedCredential> {
        self.hs.peer_credential.as_ref()
    }

    /// Ticket issued this session (store for resumption).
    pub fn issued_ticket(&self) -> Option<&NewSessionTicket> {
        self.hs.new_ticket.as_ref()
    }

    /// Commit to the abbreviated handshake path: the server resumed
    /// our cached session (signalled by sending NewSessionTicket or
    /// ChangeCipherSpec straight after ServerHello).
    fn commit_resumption(&mut self) -> Result<(), TlsError> {
        if self.resumed {
            return Ok(());
        }
        let res = self
            .hs
            .pending_resumption
            .take()
            .ok_or(TlsError::UnexpectedMessage("abbreviated flight without offer"))?;
        let suite = self
            .suite
            .ok_or(TlsError::Internal("suite chosen with ServerHello"))?;
        self.install_secrets(suite, res.master_secret);
        self.resumed = true;
        // No ServerKeyExchange follows, so nothing binds the bytes.
        self.transcript.drop_bytes();
        Ok(())
    }

    /// Whether the peer's proof binds the transcript up to
    /// ServerKeyExchange: an attestation quote or a delegated
    /// credential does, a certificate alone does not.
    fn binds_transcript(&self) -> bool {
        !matches!(self.hs.config.peer_proof, PeerProof::Certificate)
    }
}

impl Handshake for ClientHandshake {}

impl Hooks for ClientHandshake {
    const WRITES: Flow = Flow::ClientToServer;

    fn peer_change_cipher(conn: &mut Connection<Self>) -> Result<(), TlsError> {
        if conn.shell.hs_reader.has_partial() {
            return Err(TlsError::UnexpectedMessage("CCS mid-handshake-message"));
        }
        // CCS right after ServerHello is the resumption signal when a
        // ticket/id was offered and no full-handshake flight arrived.
        if conn.secrets.is_none()
            && conn.hs.phase == Phase::AwaitServerFlight
            && conn.hs.pending_resumption.is_some()
        {
            conn.commit_resumption()?;
            conn.hs.phase = Phase::AwaitServerFinishedResumed;
        }
        Ok(())
    }

    /// The handshake ran to its end and any deferred signature checks
    /// are resolved.
    fn established(conn: &Connection<Self>) -> bool {
        conn.hs.phase == Phase::Established && !conn.hs.verify_outstanding
    }

    /// False Start: with it enabled, once our Finished is sent.
    fn may_send_early(conn: &Connection<Self>) -> bool {
        conn.hs.config.enable_false_start
            && conn.hs.phase == Phase::AwaitServerFinished
            && !conn.hs.verify_outstanding
            && conn.shell.write_cipher.is_some()
    }

    fn admit_application_data(conn: &Connection<Self>) -> Result<(), TlsError> {
        if !conn.is_established() {
            return Err(TlsError::UnexpectedMessage("early application data"));
        }
        Ok(())
    }

    fn resumption_data(conn: &Connection<Self>) -> Option<ResumptionData> {
        let secrets = conn.secrets.as_ref()?;
        if !conn.is_established() {
            return None;
        }
        Some(ResumptionData {
            suite: secrets.suite,
            master_secret: secrets.master_secret.clone(),
            ticket: conn.hs.new_ticket.as_ref().map(|t| t.ticket.clone()),
            session_id: conn.hs.assigned_session_id.clone(),
        })
    }

    fn take_pending_verify(conn: &mut Connection<Self>) -> Option<Vec<SignatureCheck>> {
        conn.hs.pending_checks.take()
    }

    fn resolve_verify(conn: &mut Connection<Self>, valid: bool) {
        if !conn.hs.verify_outstanding {
            return;
        }
        conn.hs.verify_outstanding = false;
        conn.hs.pending_checks = None;
        if !valid {
            conn.fail(TlsError::Crypto(CryptoError::BadSignature));
        }
    }

    fn handle_handshake(
        conn: &mut Connection<Self>,
        typ: u8,
        frame: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError> {
        let body = frame.get(4..).unwrap_or_default();
        match (conn.hs.phase, typ) {
            (Phase::AwaitServerHello, handshake_type::SERVER_HELLO) => {
                let sh = ServerHello::decode_body(body)?;
                let suite = CipherSuite::from_id(sh.cipher_suite)
                    .filter(|s| conn.hs.config.suites.contains(s))
                    .ok_or(TlsError::NegotiationFailed("server chose unknown suite"))?;
                if choose_suite(&conn.hs.hello.cipher_suites, &[suite]).is_none() {
                    return Err(TlsError::NegotiationFailed("suite not offered"));
                }
                conn.server_random = sh.random;
                conn.hs.peer_extensions = sh.extensions;
                conn.suite = Some(suite);
                // Hash from here on. The raw bytes stay until the
                // binding is taken at ServerKeyExchange or the
                // server resumes, if the peer's proof needs them.
                conn.transcript.start(suite.prf_hash(), conn.binds_transcript());

                // Resumption: the server echoing our SessionTicket
                // extension (or session id) is *not* a commitment to
                // resume — RFC 5077 servers echo it on full handshakes
                // too, to signal a ticket will be issued. The client
                // learns the server's choice from the next message:
                // Certificate → full handshake; NewSessionTicket/CCS →
                // abbreviated. Record the possibility and defer.
                let offered = conn.hs.offered_resumption.take();
                let id_match = !conn.hs.hello.session_id.is_empty()
                    && sh.session_id == conn.hs.hello.session_id;
                let ticket_offered = offered.as_ref().is_some_and(|r| r.ticket.is_some());
                conn.hs.pending_resumption =
                    offered.filter(|r| (id_match || ticket_offered) && r.suite == suite);
                // A *new* session id (not an echo of ours) is the
                // server offering ID-based resumption for next time.
                if !id_match {
                    conn.hs.assigned_session_id = sh.session_id;
                }
                conn.hs.phase = Phase::AwaitServerFlight;
                Ok(())
            }
            (Phase::AwaitServerFlight, handshake_type::CERTIFICATE) => {
                // The server chose a full handshake.
                conn.hs.pending_resumption = None;
                let chain = mbtls_pki::cert::decode_chain(body)
                    .map_err(|_| TlsError::Decode("bad certificate chain"))?;
                conn.hs.server_flight.certificate_chain = Some(chain);
                Ok(())
            }
            (Phase::AwaitServerFlight, handshake_type::NEW_SESSION_TICKET) => {
                // A ticket this early means the server resumed and is
                // renewing the ticket (abbreviated flight:
                // ServerHello, NewSessionTicket, CCS, Finished).
                conn.commit_resumption()?;
                let ticket = NewSessionTicket::decode_body(body)?;
                conn.hs.new_ticket = Some(ticket);
                conn.hs.phase = Phase::AwaitServerFinishedResumed;
                Ok(())
            }
            (Phase::AwaitServerFlight, handshake_type::SERVER_KEY_EXCHANGE) => {
                let ske = ServerKeyExchange::decode_body(body)?;
                conn.hs.server_flight.key_exchange = Some(ske);
                // Capture the binding the proof must carry; nothing
                // binds a later state, so the bytes go.
                if conn.binds_transcript() {
                    conn.hs.server_flight.attestation_binding =
                        Some(conn.transcript.attestation_binding()?);
                }
                conn.transcript.drop_bytes();
                Ok(())
            }
            (Phase::AwaitServerFlight, handshake_type::SGX_ATTESTATION) => {
                let msg = SgxAttestationMsg::decode_body(body)?;
                conn.hs.server_flight.attestation = Some(msg);
                Ok(())
            }
            (Phase::AwaitServerFlight, handshake_type::DELEGATED_CREDENTIAL) => {
                let msg = DelegatedCredentialMsg::decode_body(body)?;
                conn.hs.server_flight.credential = Some(msg);
                Ok(())
            }
            (Phase::AwaitServerFlight, handshake_type::SERVER_HELLO_DONE) => {
                if !body.is_empty() {
                    return Err(TlsError::Decode("non-empty ServerHelloDone"));
                }
                conn.finish_client_flight(rng)
            }
            (
                Phase::AwaitServerFinished | Phase::AwaitServerFinishedResumed,
                handshake_type::NEW_SESSION_TICKET,
            ) => {
                let ticket = NewSessionTicket::decode_body(body)?;
                conn.hs.new_ticket = Some(ticket);
                Ok(())
            }
            (Phase::AwaitServerFinished, handshake_type::FINISHED) => {
                conn.verify_peer_finished(frame)?;
                conn.hs.phase = Phase::Established;
                Ok(())
            }
            (Phase::AwaitServerFinishedResumed, handshake_type::FINISHED) => {
                conn.verify_peer_finished(frame)?;
                // Abbreviated: now send our CCS + Finished.
                conn.send_ccs_and_finished()?;
                conn.hs.phase = Phase::Established;
                Ok(())
            }
            _ => Err(TlsError::UnexpectedMessage("handshake message out of order")),
        }
    }
}

impl Connection<ClientHandshake> {
    /// Process the complete server flight and send the client's
    /// second flight (CKE, CCS, Finished).
    fn finish_client_flight(&mut self, rng: &mut CryptoRng) -> Result<(), TlsError> {
        let suite = self.suite.ok_or(TlsError::Internal("suite chosen"))?;
        let chain = self
            .hs
            .server_flight
            .certificate_chain
            .take()
            .ok_or(TlsError::UnexpectedMessage("missing Certificate"))?;
        let ske = self
            .hs
            .server_flight
            .key_exchange
            .take()
            .ok_or(TlsError::UnexpectedMessage("missing ServerKeyExchange"))?;

        // 1. Peer identity. Two shapes: a certificate chain for the
        // peer's own key (the default), or — under a delegation
        // policy — an endpoint-signed credential naming the peer's
        // key, in which case the presented chain may be empty and the
        // credential *is* the identity (DESIGN.md §6j). Here and in
        // steps 2 and 3 every structural check runs (and fails) on
        // the spot; the Ed25519 work each one still owes is collected
        // in `owed`, identity checks first, and leaves this function
        // as one group.
        let (mut owed, identity_forged, server_key) =
            if let PeerProof::Delegation(policy) = &self.hs.config.peer_proof {
                let msg = self.hs.server_flight.credential.take().ok_or(
                    TlsError::UnexpectedMessage("delegated credential required but absent"),
                )?;
                let issuer_chain = mbtls_pki::cert::decode_chain(&msg.issuer_chain)
                    .map_err(|_| TlsError::Decode("bad credential issuer chain"))?;
                let cred =
                    DelegatedCredential::decode(&msg.credential).map_err(TlsError::Credential)?;
                let binding = self
                    .hs
                    .server_flight
                    .attestation_binding
                    .ok_or(TlsError::UnexpectedMessage("credential before key exchange"))?;
                let mut nonce = [0u8; 32];
                nonce.copy_from_slice(&binding[..32]);
                let verifier = CredentialVerifier {
                    trust: &policy.trust_store,
                    expected_issuer: &policy.issuer,
                    now: self.hs.config.current_time,
                    session_nonce: nonce,
                    required_role: policy.required_role,
                };
                let checks = verifier
                    .verify_deferred(&issuer_chain, &cred)
                    .map_err(TlsError::Credential)?;
                let key = cred.middlebox_key;
                self.hs.peer_credential = Some(cred);
                (checks, TlsError::Credential(CredentialError::BadSignature), key)
            } else {
                let checks = if self.hs.config.danger_disable_cert_verify {
                    Vec::new()
                } else {
                    self.hs.config.trust_store.verify_chain_deferred(
                        &chain,
                        &self.hs.server_name,
                        self.hs.config.current_time,
                        None,
                    )?
                };
                let key = chain
                    .first()
                    .ok_or(TlsError::Certificate(CertError::EmptyChain))?
                    .payload
                    .public_key;
                (checks, TlsError::Certificate(CertError::BadSignature), key)
            };
        let identity_checks = owed.len();

        // 2. ServerKeyExchange signature.
        let signed =
            ServerKeyExchange::signed_payload(&self.client_random, &self.server_random, &ske.params);
        let sig = mbtls_crypto::ed25519::Signature::from_bytes(&ske.signature)
            .map_err(|_| TlsError::Decode("bad signature encoding"))?;
        owed.push(SignatureCheck { key: server_key, msg: signed, sig });

        // 3. Attestation, if required: the platform's endorsement,
        // then the quote's own signature.
        if let PeerProof::Attestation(policy) = &self.hs.config.peer_proof {
            let msg = self
                .hs
                .server_flight
                .attestation
                .take()
                .ok_or(TlsError::UnexpectedMessage("attestation required but absent"))?;
            let quote = Quote::decode(&msg.quote).ok_or(TlsError::Decode("bad quote"))?;
            let binding = self
                .hs
                .server_flight
                .attestation_binding
                .ok_or(TlsError::UnexpectedMessage("attestation before key exchange"))?;
            owed.extend(quote.verify_deferred(&policy.root, &policy.acceptable, &binding)?);
            self.hs.peer_quote = Some(quote);
        }
        self.hs.peer_chain = chain;

        // The one discharge of this flight: park the group for the
        // driver, or verify it here as one batch — before anything of
        // ours is computed or queued. A failure is reported as the
        // first check that failed, in the order collected.
        if self.hs.config.defer_verify {
            self.hs.pending_checks = Some(owed);
            self.hs.verify_outstanding = true;
        } else if let Some(bad) = verify_checks(&owed).valid.iter().position(|ok| !ok) {
            return Err(match bad.checked_sub(identity_checks) {
                None => identity_forged,
                Some(0) => TlsError::Crypto(CryptoError::BadSignature),
                Some(1) => TlsError::Attestation(AttestationError::UntrustedPlatform),
                Some(_) => TlsError::Attestation(AttestationError::BadQuoteSignature),
            });
        }

        // 4. Key exchange.
        let (cke_public, pre_master) = match (&ske.params, suite.key_exchange()) {
            (ServerKeyExchangeParams::Ecdhe { public }, KeyExchange::Ecdhe) => {
                let server_pub = x25519::PublicKey(
                    public
                        .as_slice()
                        .try_into()
                        .map_err(|_| TlsError::Decode("bad x25519 point"))?,
                );
                let secret = x25519::SecretKey::generate(rng);
                let pre_master = Secret::from(secret.diffie_hellman(&server_pub)?);
                (secret.public_key().0.to_vec(), pre_master)
            }
            (ServerKeyExchangeParams::Dhe { p, g, ys }, KeyExchange::Dhe) => {
                // Validate the group is the one we support.
                if *p != mbtls_crypto::dh::prime().to_bytes_be_padded(256)
                    || mbtls_crypto::bignum::BigUint::from_bytes_be(g)
                        .cmp_val(&mbtls_crypto::dh::generator())
                        != std::cmp::Ordering::Equal
                {
                    return Err(TlsError::NegotiationFailed("unexpected DH group"));
                }
                let secret = DhSecret::generate(rng);
                let mut ys_padded = vec![0u8; 256usize.saturating_sub(ys.len())];
                ys_padded.extend_from_slice(ys);
                let pre_master =
                    keyschedule::dhe_pre_master(secret.diffie_hellman(&DhPublic(ys_padded))?);
                (secret.public_value().0, pre_master)
            }
            _ => return Err(TlsError::NegotiationFailed("kex/suite mismatch")),
        };

        let master =
            keyschedule::master_secret(suite, &pre_master, &self.client_random, &self.server_random);
        self.install_secrets(suite, master);

        // 5. Send ClientKeyExchange + CCS + Finished.
        let cke = ClientKeyExchange { public: cke_public };
        self.queue_handshake(handshake_type::CLIENT_KEY_EXCHANGE, &cke.encode_body());
        self.send_ccs_and_finished()?;
        self.hs.phase = Phase::AwaitServerFinished;
        Ok(())
    }
}
