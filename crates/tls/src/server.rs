//! The TLS 1.2 server state machine (sans-IO).

use std::sync::Arc;

use mbtls_crypto::dh::DhSecret;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::secret::Secret;
use mbtls_crypto::x25519;

use crate::config::{Proof, ServerConfig};
use crate::keyschedule;
use crate::messages::{
    choose_suite, extension_type, handshake_type, ClientHello,
    ClientKeyExchange, DelegatedCredentialMsg, Extension, NewSessionTicket, ServerHello,
    ServerKeyExchange, ServerKeyExchangeParams, SgxAttestationMsg,
};
use crate::record::ContentType;
use crate::session::TicketPlaintext;
use crate::shell::{Connection, Flow, Handshake, Hooks};
use crate::suites::{CipherSuite, KeyExchange};
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
}

/// Ephemeral server kex secret between flights. Both variants wipe
/// themselves on drop.
enum KexSecret {
    Ecdhe(x25519::SecretKey),
    Dhe(DhSecret),
}

/// A sans-IO TLS 1.2 server connection.
pub type ServerConnection = Connection<ServerHandshake>;

/// What makes a [`Connection`] the server: its handshake state.
pub struct ServerHandshake {
    config: Arc<ServerConfig>,
    phase: Phase,
    kex: Option<KexSecret>,
    /// The client offered the SessionTicket extension and this server
    /// has a ticket key: echo the extension and issue a ticket.
    tickets: bool,
    /// Session id assigned in this full handshake (cached at
    /// establishment when `assign_session_ids` is on).
    assigned_session_id: Vec<u8>,
}

impl Connection<ServerHandshake> {
    /// New server connection awaiting a ClientHello.
    pub fn new(config: Arc<ServerConfig>) -> Self {
        Connection::starting(ServerHandshake {
            config,
            phase: Phase::AwaitClientHello,
            kex: None,
            tickets: false,
            assigned_session_id: Vec::new(),
        })
    }
}

impl Handshake for ServerHandshake {}

impl Hooks for ServerHandshake {
    const WRITES: Flow = Flow::ServerToClient;

    fn established(conn: &Connection<Self>) -> bool {
        conn.hs.phase == Phase::Established
    }

    fn admit_nonstandard(
        conn: &Connection<Self>,
        content_type: Option<ContentType>,
    ) -> Result<(), TlsError> {
        if conn.hs.config.strict_unknown_records {
            return Err(TlsError::Decode(match content_type {
                None => "unknown record content type",
                Some(_) => "unexpected mbTLS record",
            }));
        }
        Ok(())
    }

    fn admit_application_data(conn: &Connection<Self>) -> Result<(), TlsError> {
        match conn.hs.phase {
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
        conn: &mut Connection<Self>,
        typ: u8,
        frame: &[u8],
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError> {
        let body = frame.get(4..).unwrap_or_default();
        match (conn.hs.phase, typ) {
            (Phase::AwaitClientHello, handshake_type::CLIENT_HELLO) => {
                let ch = ClientHello::decode_body(body)?;
                conn.client_random = ch.random;
                conn.server_random = rng.gen_array();
                let config = &conn.hs.config;
                let offered = ch.find_extension(extension_type::SESSION_TICKET);
                conn.hs.tickets = offered.is_some() && config.ticket_key.is_some();
                let suite = choose_suite(&ch.cipher_suites, &config.suites)
                    .ok_or(TlsError::NegotiationFailed("no common cipher suite"))?;
                conn.suite = Some(suite);

                // Try ticket resumption first, then session-id.
                let ticket_master = offered
                    .filter(|e| !e.data.is_empty())
                    .and_then(|e| open_ticket(config, &e.data))
                    .filter(|t| t.suite == suite);
                let id_master = if ticket_master.is_none() && !ch.session_id.is_empty() {
                    // A poisoned cache mutex just disables ID resumption.
                    config.session_cache.lock().ok().and_then(|cache| {
                        cache
                            .get(&ch.session_id)
                            .filter(|(s, _)| *s == suite)
                            .map(|(_, m)| m.clone())
                    })
                } else {
                    None
                };

                if let Some(ticket) = ticket_master {
                    conn.start_abbreviated(suite, ticket.master_secret, &ch, rng)
                } else if let Some(master) = id_master {
                    conn.start_abbreviated(suite, master, &ch, rng)
                } else {
                    conn.start_full(suite, rng)
                }
            }
            (Phase::AwaitClientKeyExchange, handshake_type::CLIENT_KEY_EXCHANGE) => {
                let cke = ClientKeyExchange::decode_body(body)?;
                let suite = conn.suite.ok_or(TlsError::Internal("suite chosen"))?;
                let pre_master = match conn.hs.kex.take() {
                    Some(KexSecret::Ecdhe(secret)) => {
                        let peer = x25519::PublicKey(
                            cke.public
                                .as_slice()
                                .try_into()
                                .map_err(|_| TlsError::Decode("bad x25519 point"))?,
                        );
                        secret.diffie_hellman(&peer)?
                    }
                    Some(KexSecret::Dhe(secret)) => {
                        let mut padded = vec![0u8; 256usize.saturating_sub(cke.public.len())];
                        padded.extend_from_slice(&cke.public);
                        keyschedule::dhe_pre_master(
                            secret.diffie_hellman(&mbtls_crypto::dh::DhPublic(padded))?,
                        )
                    }
                    None => return Err(TlsError::UnexpectedMessage("no kex in progress")),
                };
                let master = keyschedule::master_secret(
                    suite,
                    &pre_master,
                    &conn.client_random,
                    &conn.server_random,
                );
                conn.install_secrets(suite, master);
                conn.hs.phase = Phase::AwaitClientFinished;
                Ok(())
            }
            (Phase::AwaitClientFinished, handshake_type::FINISHED) => {
                conn.verify_peer_finished(frame)?;
                // Send (optional ticket) + CCS + Finished.
                conn.queue_ticket_if_wanted(rng)?;
                conn.send_ccs_and_finished()?;
                if !conn.hs.assigned_session_id.is_empty() {
                    let secrets = conn
                        .secrets
                        .as_ref()
                        .ok_or(TlsError::Internal("secrets derived before Finished"))?;
                    // A poisoned cache mutex just disables ID resumption.
                    if let Ok(mut cache) = conn.hs.config.session_cache.lock() {
                        cache.insert(
                            conn.hs.assigned_session_id.clone(),
                            (secrets.suite, secrets.master_secret.clone()),
                        );
                    }
                }
                conn.hs.phase = Phase::Established;
                Ok(())
            }
            (Phase::AwaitClientFinishedResumed, handshake_type::FINISHED) => {
                conn.verify_peer_finished(frame)?;
                conn.hs.phase = Phase::Established;
                Ok(())
            }
            _ => Err(TlsError::UnexpectedMessage("handshake message out of order")),
        }
    }
}

impl Connection<ServerHandshake> {
    /// Full handshake: ServerHello, Certificate, ServerKeyExchange,
    /// [SGXAttestation | DelegatedCredential], ServerHelloDone — one
    /// flight.
    fn start_full(&mut self, suite: CipherSuite, rng: &mut CryptoRng) -> Result<(), TlsError> {
        // Hash from here on; keep the raw bytes only for the proof's
        // binding, until it is taken.
        let binds = !matches!(self.hs.config.proof, Proof::None);
        self.transcript.start(suite.prf_hash(), binds);
        let mut extensions = Vec::new();
        // Per RFC 5246 the server may only echo extensions the client
        // offered (the reason server-side mbTLS discovery cannot use
        // the MiddleboxSupport extension — paper §3.4).
        if self.hs.tickets {
            extensions.push(Extension {
                typ: extension_type::SESSION_TICKET,
                data: vec![],
            });
        }
        let session_id = if self.hs.config.assign_session_ids {
            rng.gen_array::<32>().to_vec()
        } else {
            vec![]
        };
        self.hs.assigned_session_id = session_id.clone();
        let sh = ServerHello {
            random: self.server_random,
            session_id,
            cipher_suite: suite.id(),
            extensions,
        };
        self.queue_handshake(handshake_type::SERVER_HELLO, &sh.encode_body());

        let chain = mbtls_pki::cert::encode_chain(&self.hs.config.certified_key.chain);
        self.queue_handshake(handshake_type::CERTIFICATE, &chain);

        // Ephemeral key exchange.
        let params = match suite.key_exchange() {
            KeyExchange::Ecdhe => {
                let secret = x25519::SecretKey::generate(rng);
                let public = secret.public_key().0.to_vec();
                self.hs.kex = Some(KexSecret::Ecdhe(secret));
                ServerKeyExchangeParams::Ecdhe { public }
            }
            KeyExchange::Dhe => {
                let secret = DhSecret::generate(rng);
                let public = secret.public_value().0;
                self.hs.kex = Some(KexSecret::Dhe(secret));
                ServerKeyExchangeParams::Dhe {
                    p: mbtls_crypto::dh::prime().to_bytes_be_padded(256),
                    g: vec![2],
                    ys: public,
                }
            }
        };
        let signed =
            ServerKeyExchange::signed_payload(&self.client_random, &self.server_random, &params);
        let signature = self.hs.config.certified_key.key.sign(&signed);
        let ske = ServerKeyExchange {
            params,
            signature: signature.0.to_vec(),
        };
        self.queue_handshake(handshake_type::SERVER_KEY_EXCHANGE, &ske.encode_body());

        // The configured proof, asked for or not (see [`Proof`]): a
        // quote, or the mdTLS-style delegated credential, each bound
        // to this session through the transcript up to SKE.
        match &self.hs.config.proof {
            Proof::None => {}
            Proof::Attestor(attestor) => {
                let quote = attestor.quote(self.transcript.attestation_binding()?);
                let msg = SgxAttestationMsg {
                    quote: quote.encode(),
                };
                self.queue_handshake(handshake_type::SGX_ATTESTATION, &msg.encode_body());
            }
            Proof::Credential(provider) => {
                let cred = provider.credential(self.transcript.attestation_binding()?);
                let msg = DelegatedCredentialMsg {
                    issuer_chain: mbtls_pki::cert::encode_chain(&provider.issuer_chain()),
                    credential: cred.encode(),
                };
                self.queue_handshake(handshake_type::DELEGATED_CREDENTIAL, &msg.encode_body());
            }
        }
        self.transcript.drop_bytes();

        self.queue_handshake(handshake_type::SERVER_HELLO_DONE, &[]);
        self.hs.phase = Phase::AwaitClientKeyExchange;
        Ok(())
    }

    /// Abbreviated handshake: ServerHello, `[ticket]`, CCS, Finished.
    fn start_abbreviated(
        &mut self,
        suite: CipherSuite,
        master_secret: Secret,
        ch: &ClientHello,
        rng: &mut CryptoRng,
    ) -> Result<(), TlsError> {
        self.resumed = true;
        self.transcript.start(suite.prf_hash(), false);
        self.install_secrets(suite, master_secret);
        let mut extensions = Vec::new();
        if self.hs.tickets {
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
        self.queue_handshake(handshake_type::SERVER_HELLO, &sh.encode_body());
        self.queue_ticket_if_wanted(rng)?;
        self.send_ccs_and_finished()?;
        self.hs.phase = Phase::AwaitClientFinishedResumed;
        Ok(())
    }

    /// Issue a NewSessionTicket if this server has a ticket key and
    /// the client offered the extension.
    fn queue_ticket_if_wanted(&mut self, rng: &mut CryptoRng) -> Result<(), TlsError> {
        if !self.hs.tickets {
            return Ok(());
        }
        let secrets = self
            .secrets
            .as_ref()
            .ok_or(TlsError::Internal("secrets derived before ticket issue"))?;
        let plain = TicketPlaintext {
            suite: secrets.suite,
            master_secret: secrets.master_secret.clone(),
        };
        let nonce: [u8; 12] = rng.gen_array();
        let key = self
            .hs
            .config
            .ticket_key
            .as_ref()
            .ok_or(TlsError::Internal("tickets are on only under a ticket key"))?;
        let sealed = key.0.seal(&nonce, b"ticket", &plain.encode())?;
        let ticket = [&nonce[..], &sealed].concat();
        let msg = NewSessionTicket {
            lifetime_hint: 3600,
            ticket,
        };
        self.queue_handshake(handshake_type::NEW_SESSION_TICKET, &msg.encode_body());
        Ok(())
    }
}

/// The ticket's plaintext, if it opens under this server's ticket key.
fn open_ticket(config: &ServerConfig, ticket: &[u8]) -> Option<TicketPlaintext> {
    let (nonce, sealed) = ticket.split_first_chunk::<12>()?;
    let key = config.ticket_key.as_ref()?;
    let plain = Secret::from(key.0.open(nonce, b"ticket", sealed).ok()?);
    TicketPlaintext::decode(&plain).ok()
}
