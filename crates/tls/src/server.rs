//! The TLS 1.2 server state machine (sans-IO).

use std::sync::Arc;

use mbtls_crypto::dh::DhSecret;
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::x25519;

use crate::config::ServerConfig;
use crate::keyschedule::{self, PreMasterSecret};
use crate::messages::{
    choose_suite, extension_type, frame_handshake, handshake_type, ClientHello,
    ClientKeyExchange, DelegatedCredentialMsg, Extension, NewSessionTicket, ServerHello,
    ServerKeyExchange, ServerKeyExchangeParams, SgxAttestationMsg,
};
use crate::record::{ContentType, DirectionState};
use crate::session::{ConnectionSecrets, SessionKeys, TicketPlaintext};
use crate::shell::{self, ConnectionRole, RecordShell};
use crate::suites::{CipherSuite, KeyExchange};
use crate::transcript::Transcript;
use crate::TlsError;

/// Server handshake phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitClientHello,
    /// Full handshake: waiting for ClientKeyExchange.
    AwaitClientKeyExchange,
    /// Waiting for the client's CCS+Finished (full handshake).
    AwaitClientFinished,
    /// Abbreviated: we sent Finished; waiting for client CCS+Finished.
    AwaitClientFinishedResumed,
    Established,
    Failed,
}

/// Ephemeral server kex secret between flights.
// lint:allow(secret-hygiene) -- both variants zeroize themselves on drop; a wrapper Drop would forbid the by-value match that moves the secret into the kex computation
enum KexSecret {
    Ecdhe(x25519::SecretKey),
    Dhe(DhSecret),
}

/// A sans-IO TLS 1.2 server connection.
pub struct ServerConnection {
    config: Arc<ServerConfig>,
    phase: Phase,
    shell: RecordShell,

    transcript: Transcript,
    client_random: [u8; 32],
    server_random: [u8; 32],
    client_hello: Option<ClientHello>,

    suite: Option<CipherSuite>,
    kex: Option<KexSecret>,
    secrets: Option<ConnectionSecrets>,

    resumed: bool,
    client_offered_ticket_ext: bool,
    /// Session id assigned in this full handshake (cached at
    /// establishment when `assign_session_ids` is on).
    assigned_session_id: Vec<u8>,
    /// Keys to embed in issued tickets (mbTLS middlebox tickets carry
    /// the primary session keys — paper §3.5).
    pub ticket_embed_keys: Option<SessionKeys>,

    early_plaintext_in: Vec<u8>,
}

impl ServerConnection {
    /// New server connection awaiting a ClientHello.
    pub fn new(config: Arc<ServerConfig>) -> Self {
        ServerConnection {
            config,
            phase: Phase::AwaitClientHello,
            shell: RecordShell::default(),
            transcript: Transcript::new(),
            client_random: [0; 32],
            server_random: [0; 32],
            client_hello: None,
            suite: None,
            kex: None,
            secrets: None,
            resumed: false,
            client_offered_ticket_ext: false,
            assigned_session_id: Vec::new(),
            ticket_embed_keys: None,
            early_plaintext_in: Vec::new(),
        }
    }

    /// Bytes queued for the wire.
    pub fn take_outgoing(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.shell.out)
    }

    /// True once established.
    pub fn is_established(&self) -> bool {
        self.phase == Phase::Established
    }

    /// True if failed.
    pub fn is_failed(&self) -> bool {
        self.phase == Phase::Failed
    }

    /// Failure cause.
    pub fn error(&self) -> Option<&TlsError> {
        self.shell.error.as_ref()
    }

    /// Did this handshake resume?
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// The ClientHello received (mbTLS middleboxes reuse it).
    pub fn client_hello(&self) -> Option<&ClientHello> {
        self.client_hello.as_ref()
    }

    /// The negotiated secrets.
    pub fn secrets(&self) -> Option<&ConnectionSecrets> {
        self.secrets.as_ref()
    }

    /// Export session keys + sequence numbers (see the client's
    /// equivalent).
    pub fn export_session_keys(&self) -> Option<SessionKeys> {
        let secrets = self.secrets.as_ref()?;
        let s2c = self.shell.write_cipher.as_ref()?.seq();
        let c2s = self.shell.read_cipher.as_ref()?.seq();
        Some(SessionKeys::from_secrets(secrets, c2s, s2c))
    }

    /// Queue application data.
    pub fn send_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if !self.is_established() {
            return Err(TlsError::HandshakeNotDone);
        }
        self.shell.seal_application_data(data)
    }

    /// Received application data.
    pub fn take_plaintext(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.shell.plaintext_in)
    }

    /// Application data that arrived encrypted *before* our Finished
    /// was acked — the False-Start-style early data a server-side
    /// mbTLS middlebox may choose to process (paper §3.5).
    pub fn take_early_plaintext(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.early_plaintext_in)
    }

    /// Non-standard records received.
    pub fn take_nonstandard_records(&mut self) -> Vec<(u8, Vec<u8>)> {
        std::mem::take(&mut self.shell.nonstandard_in)
    }

    /// Send a raw plaintext-framed record (mbTLS control records).
    pub fn send_raw_record(&mut self, content_type: ContentType, payload: &[u8]) {
        self.shell.queue_plaintext(content_type, payload);
    }

    /// True if the peer sent close_notify.
    pub fn peer_closed(&self) -> bool {
        self.shell.closed_by_peer
    }

    /// Feed wire bytes.
    pub fn feed_incoming(&mut self, data: &[u8], rng: &mut CryptoRng) -> Result<(), TlsError> {
        shell::feed(self, data, rng)
    }
}

impl ConnectionRole for ServerConnection {
    fn shell(&mut self) -> &mut RecordShell {
        &mut self.shell
    }

    fn enter_failed(&mut self) {
        self.phase = Phase::Failed;
    }

    fn admit_nonstandard(&self, content_type: Option<ContentType>) -> Result<(), TlsError> {
        if self.config.strict_unknown_records {
            return Err(TlsError::Decode(match content_type {
                None => "unknown record content type",
                Some(_) => "unexpected mbTLS record",
            }));
        }
        Ok(())
    }

    fn peer_cipher(&mut self) -> Result<DirectionState, TlsError> {
        let secrets = self
            .secrets
            .as_ref()
            .ok_or(TlsError::UnexpectedMessage("CCS before key exchange"))?;
        SessionKeys::from_secrets(secrets, 0, 0).open_client_to_server()
    }

    fn admit_application_data(&self) -> Result<(), TlsError> {
        match self.phase {
            Phase::Established => Ok(()),
            // False-Start data: client sent Finished and data
            // in the same flight, before seeing ours.
            Phase::AwaitClientFinished | Phase::AwaitClientFinishedResumed => {
                Err(TlsError::UnexpectedMessage("data before client Finished"))
            }
            _ => Err(TlsError::UnexpectedMessage("early application data")),
        }
    }

    fn handle_handshake(
        &mut self,
        typ: u8,
        frame: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError> {
        let body = frame.get(4..).unwrap_or_default();
        match (self.phase, typ) {
            (Phase::AwaitClientHello, handshake_type::CLIENT_HELLO) => {
                self.transcript.add(frame);
                let ch = ClientHello::decode_body(body)?;
                self.client_random = ch.random;
                self.server_random = rng.gen_array();
                self.client_offered_ticket_ext = ch
                    .find_extension(extension_type::SESSION_TICKET)
                    .is_some();
                let suite = choose_suite(&ch.cipher_suites, &self.config.suites)
                    .ok_or(TlsError::NegotiationFailed("no common cipher suite"))?;
                self.suite = Some(suite);

                // Try ticket resumption first, then session-id.
                let ticket_master = ch
                    .find_extension(extension_type::SESSION_TICKET)
                    .filter(|e| !e.data.is_empty())
                    .and_then(|e| self.open_ticket(&e.data))
                    .filter(|t| t.suite == suite);
                let id_master = if ticket_master.is_none() && !ch.session_id.is_empty() {
                    // A poisoned cache mutex just disables ID resumption.
                    self.config.session_cache.lock().ok().and_then(|cache| {
                        cache
                            .get(&ch.session_id)
                            .filter(|(s, _)| *s == suite)
                            .map(|(s, m)| (*s, m.clone()))
                    })
                } else {
                    None
                };

                if let Some(mut ticket) = ticket_master {
                    self.client_hello = Some(ch.clone());
                    // `TicketPlaintext` zeroizes on drop, so the
                    // master secret cannot be moved out of it;
                    // take-and-replace hands the buffer to the
                    // abbreviated handshake and lets `ticket` wipe
                    // whatever remains.
                    let master = std::mem::take(&mut ticket.master_secret);
                    self.start_abbreviated(suite, master, &ch, rng)?;
                } else if let Some((_, master)) = id_master {
                    self.client_hello = Some(ch.clone());
                    self.start_abbreviated(suite, master, &ch, rng)?;
                } else {
                    self.client_hello = Some(ch.clone());
                    self.start_full(suite, &ch, rng)?;
                }
                Ok(())
            }
            (Phase::AwaitClientKeyExchange, handshake_type::CLIENT_KEY_EXCHANGE) => {
                self.transcript.add(frame);
                let cke = ClientKeyExchange::decode_body(body)?;
                let suite = self.suite.ok_or(TlsError::Internal("suite chosen"))?;
                let pre_master = match self.kex.take() {
                    Some(KexSecret::Ecdhe(secret)) => {
                        let peer = x25519::PublicKey(
                            cke.public
                                .as_slice()
                                .try_into()
                                .map_err(|_| TlsError::Decode("bad x25519 point"))?,
                        );
                        PreMasterSecret::from_ecdhe(secret.diffie_hellman(&peer)?)
                    }
                    Some(KexSecret::Dhe(secret)) => {
                        let mut padded = vec![0u8; 256usize.saturating_sub(cke.public.len())];
                        padded.extend_from_slice(&cke.public);
                        PreMasterSecret::from_dhe(
                            secret.diffie_hellman(&mbtls_crypto::dh::DhPublic(padded))?,
                        )
                    }
                    None => return Err(TlsError::UnexpectedMessage("no kex in progress")),
                };
                let master = keyschedule::master_secret(
                    suite,
                    pre_master.as_bytes(),
                    &self.client_random,
                    &self.server_random,
                );
                self.secrets = Some(ConnectionSecrets {
                    suite,
                    master_secret: master,
                    client_random: self.client_random,
                    server_random: self.server_random,
                });
                self.phase = Phase::AwaitClientFinished;
                Ok(())
            }
            (Phase::AwaitClientFinished, handshake_type::FINISHED) => {
                self.verify_client_finished(body, frame)?;
                // Send (optional ticket) + CCS + Finished.
                if self.config.issue_tickets && self.client_offered_ticket_ext {
                    let ticket = self.issue_ticket(rng)?;
                    let t_frame =
                        frame_handshake(handshake_type::NEW_SESSION_TICKET, &ticket.encode_body());
                    self.transcript.add(&t_frame);
                    self.shell.queue_plaintext(ContentType::Handshake, &t_frame);
                }
                self.send_ccs_and_finished()?;
                if !self.assigned_session_id.is_empty() {
                    let secrets = self
                        .secrets
                        .as_ref()
                        .ok_or(TlsError::Internal("secrets derived before Finished"))?;
                    // A poisoned cache mutex just disables ID resumption.
                    if let Ok(mut cache) = self.config.session_cache.lock() {
                        cache.insert(
                            self.assigned_session_id.clone(),
                            (secrets.suite, secrets.master_secret.clone()),
                        );
                    }
                }
                self.phase = Phase::Established;
                Ok(())
            }
            (Phase::AwaitClientFinishedResumed, handshake_type::FINISHED) => {
                self.verify_client_finished(body, frame)?;
                self.phase = Phase::Established;
                Ok(())
            }
            _ => Err(TlsError::UnexpectedMessage("handshake message out of order")),
        }
    }

}

impl ServerConnection {
    /// Full handshake: ServerHello, Certificate, ServerKeyExchange,
    /// [SGXAttestation], ServerHelloDone — one flight.
    fn start_full(
        &mut self,
        suite: CipherSuite,
        ch: &ClientHello,
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError> {
        let mut extensions = Vec::new();
        // Per RFC 5246 the server may only echo extensions the client
        // offered (the reason server-side mbTLS discovery cannot use
        // the MiddleboxSupport extension — paper §3.4).
        if self.config.issue_tickets && self.client_offered_ticket_ext {
            extensions.push(Extension {
                typ: extension_type::SESSION_TICKET,
                data: vec![],
            });
        }
        let session_id = if self.config.assign_session_ids {
            rng.gen_array::<32>().to_vec()
        } else {
            vec![]
        };
        self.assigned_session_id = session_id.clone();
        let sh = ServerHello {
            random: self.server_random,
            session_id,
            cipher_suite: suite.id(),
            extensions,
        };
        self.queue_handshake_plain(handshake_type::SERVER_HELLO, &sh.encode_body());

        let chain = mbtls_pki::cert::encode_chain(&self.config.certified_key.chain);
        self.queue_handshake_plain(handshake_type::CERTIFICATE, &chain);

        // Ephemeral key exchange.
        let params = match suite.key_exchange() {
            KeyExchange::Ecdhe => {
                let secret = x25519::SecretKey::generate(rng);
                let public = secret.public_key().0.to_vec();
                self.kex = Some(KexSecret::Ecdhe(secret));
                ServerKeyExchangeParams::Ecdhe { public }
            }
            KeyExchange::Dhe => {
                let secret = DhSecret::generate(rng);
                let public = secret.public_value().0;
                self.kex = Some(KexSecret::Dhe(secret));
                ServerKeyExchangeParams::Dhe {
                    p: mbtls_crypto::dh::prime().to_bytes_be_padded(256),
                    g: vec![2],
                    ys: public,
                }
            }
        };
        let signed =
            ServerKeyExchange::signed_payload(&self.client_random, &self.server_random, &params);
        let signature = self.config.certified_key.key.sign(&signed);
        let ske = ServerKeyExchange {
            params,
            signature: signature.0.to_vec(),
        };
        self.queue_handshake_plain(handshake_type::SERVER_KEY_EXCHANGE, &ske.encode_body());

        // Attestation: if we have an attestor and the client asked
        // (or we always attest). Binds the transcript through SKE.
        let client_asked = ch
            .find_extension(extension_type::ATTESTATION_REQUEST)
            .is_some();
        if let Some(attestor) = &self.config.attestor {
            if client_asked || self.config.always_attest {
                let binding = self.transcript.attestation_binding();
                let quote = attestor.quote(binding);
                let msg = SgxAttestationMsg {
                    quote: quote.encode(),
                };
                self.queue_handshake_plain(handshake_type::SGX_ATTESTATION, &msg.encode_body());
            }
        }

        // Delegated credential: the mdTLS-style alternative to
        // attestation, bound to this session through the same
        // transcript binding.
        let client_asked_delegation = ch
            .find_extension(extension_type::DELEGATION_REQUEST)
            .is_some();
        if let Some(provider) = &self.config.credential_provider {
            if client_asked_delegation || self.config.always_delegate {
                let binding = self.transcript.attestation_binding();
                let cred = provider.credential(binding);
                let msg = DelegatedCredentialMsg {
                    issuer_chain: mbtls_pki::cert::encode_chain(&provider.issuer_chain()),
                    credential: cred.encode(),
                };
                self.queue_handshake_plain(
                    handshake_type::DELEGATED_CREDENTIAL,
                    &msg.encode_body(),
                );
            }
        }

        self.queue_handshake_plain(handshake_type::SERVER_HELLO_DONE, &[]);
        self.phase = Phase::AwaitClientKeyExchange;
        Ok(())
    }

    /// Abbreviated handshake: ServerHello, [ticket], CCS, Finished.
    fn start_abbreviated(
        &mut self,
        suite: CipherSuite,
        master_secret: Vec<u8>,
        ch: &ClientHello,
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError> {
        self.resumed = true;
        self.secrets = Some(ConnectionSecrets {
            suite,
            master_secret,
            client_random: self.client_random,
            server_random: self.server_random,
        });
        let mut extensions = Vec::new();
        if self.client_offered_ticket_ext {
            extensions.push(Extension {
                typ: extension_type::SESSION_TICKET,
                data: vec![],
            });
        }
        let sh = ServerHello {
            random: self.server_random,
            // Echo the client's id to signal resumption (RFC 5246
            // §7.4.1.3); for pure ticket resumption the id may be
            // empty on both sides.
            session_id: ch.session_id.clone(),
            cipher_suite: suite.id(),
            extensions,
        };
        self.queue_handshake_plain(handshake_type::SERVER_HELLO, &sh.encode_body());
        if self.config.issue_tickets && self.client_offered_ticket_ext {
            let ticket = self.issue_ticket(rng)?;
            let t_frame =
                frame_handshake(handshake_type::NEW_SESSION_TICKET, &ticket.encode_body());
            self.transcript.add(&t_frame);
            self.shell.queue_plaintext(ContentType::Handshake, &t_frame);
        }
        self.send_ccs_and_finished()?;
        self.phase = Phase::AwaitClientFinishedResumed;
        Ok(())
    }

    fn queue_handshake_plain(&mut self, typ: u8, body: &[u8]) {
        let frame = frame_handshake(typ, body);
        self.transcript.add(&frame);
        self.shell.queue_plaintext(ContentType::Handshake, &frame);
    }

    fn send_ccs_and_finished(&mut self) -> Result<(), TlsError> {
        self.shell.queue_plaintext(ContentType::ChangeCipherSpec, &[1]);
        let secrets = self
            .secrets
            .as_ref()
            .ok_or(TlsError::Internal("secrets derived before Finished"))?;
        let keys = SessionKeys::from_secrets(secrets, 0, 0);
        self.shell.write_cipher = Some(keys.seal_server_to_client()?);
        self.shell
            .send_finished(self.secrets.as_ref(), b"server finished", &mut self.transcript)
    }

    fn verify_client_finished(&mut self, body: &[u8], frame: &[u8]) -> Result<(), TlsError> {
        let secrets = self.secrets.as_ref();
        shell::verify_finished(secrets, b"client finished", &mut self.transcript, body, frame)
    }

    fn ticket_gcm(&self) -> Result<AesGcm, TlsError> {
        AesGcm::new(&self.config.ticket_key)
            .map_err(|_| TlsError::Internal("ticket key is 32 bytes by construction"))
    }

    fn issue_ticket(&mut self, rng: &mut CryptoRng) -> Result<NewSessionTicket, TlsError> {
        let secrets = self
            .secrets
            .as_ref()
            .ok_or(TlsError::Internal("secrets derived before ticket issue"))?;
        let plain = TicketPlaintext {
            suite: secrets.suite,
            master_secret: secrets.master_secret.clone(),
            primary_keys: self.ticket_embed_keys.clone(),
        };
        let nonce: [u8; 12] = rng.gen_array();
        let sealed = self.ticket_gcm()?.seal(&nonce, b"ticket", &plain.encode())?;
        let mut ticket = nonce.to_vec();
        ticket.extend_from_slice(&sealed);
        Ok(NewSessionTicket {
            lifetime_hint: 3600,
            ticket,
        })
    }

    fn open_ticket(&self, ticket: &[u8]) -> Option<TicketPlaintext> {
        let (nonce, sealed) = ticket.split_first_chunk::<12>()?;
        let plain = self.ticket_gcm().ok()?.open(nonce, b"ticket", sealed).ok()?;
        TicketPlaintext::decode(&plain).ok()
    }

    /// Decrypt a ticket (exposed for mbTLS middlebox resumption where
    /// the mbTLS layer needs the embedded primary keys).
    pub fn peek_ticket(&self, ticket: &[u8]) -> Option<TicketPlaintext> {
        self.open_ticket(ticket)
    }
}
