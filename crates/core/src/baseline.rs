//! Baselines the paper evaluates against or criticizes (§2.2, §5.2):
//!
//! * [`PureRelay`] — a TCP-level byte forwarder (the "TLS" rows of
//!   Figures 5/6: the middlebox does no TLS work at all).
//! * [`SplitTlsMiddlebox`] — today's interception practice: the
//!   middlebox impersonates the server toward the client using a
//!   certificate from a custom root the client was provisioned with,
//!   and opens its own TLS connection to the server. Two full TLS
//!   handshakes; the client cannot authenticate the real server.
//! * [`NaiveKeyShare`] — the strawman of Figure 1: one end-to-end TLS
//!   session whose keys are handed to the middlebox over a secondary
//!   channel, so every hop shares the same key — no path integrity
//!   (P4) and no change secrecy (P1C).

use std::sync::Arc;

use mbtls_crypto::rng::CryptoRng;
use mbtls_telemetry::{EventKind, Party, SharedSink};
use mbtls_tls::config::{ClientConfig, ServerConfig};
use mbtls_tls::session::SessionKeys;
use mbtls_tls::{ClientConnection, ServerConnection};

use crate::dataplane::{FlowDirection, MiddleboxDataPlane};
use crate::driver::Relay;
use crate::middlebox::{DataProcessor, ForwardProcessor};
use crate::MbError;

/// Optional telemetry carried by the baseline relays: they emit only
/// wire-level `BytesIn`/`BytesOut` (they have no mbTLS handshake or
/// per-hop crypto to report).
#[derive(Clone)]
struct RelayTelemetry {
    sink: SharedSink,
    party: Party,
}

impl RelayTelemetry {
    fn bytes_in(this: &Option<RelayTelemetry>, n: usize) {
        if let Some(t) = this {
            if n > 0 {
                t.sink.emit(t.party, EventKind::BytesIn { bytes: n as u64 });
            }
        }
    }

    fn bytes_out(this: &Option<RelayTelemetry>, n: usize) {
        if let Some(t) = this {
            if n > 0 {
                t.sink.emit(t.party, EventKind::BytesOut { bytes: n as u64 });
            }
        }
    }
}

/// Blind byte forwarder.
#[derive(Default)]
pub struct PureRelay {
    left: Vec<u8>,
    right: Vec<u8>,
    /// Total bytes forwarded.
    pub bytes_forwarded: u64,
    telemetry: Option<RelayTelemetry>,
}

impl PureRelay {
    /// New relay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a telemetry sink emitting as `party`.
    pub fn set_telemetry(&mut self, sink: SharedSink, party: Party) {
        self.telemetry = Some(RelayTelemetry { sink, party });
    }
}

impl Relay for PureRelay {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        RelayTelemetry::bytes_in(&self.telemetry, data.len());
        self.bytes_forwarded += data.len() as u64;
        self.right.extend_from_slice(data);
        Ok(())
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        RelayTelemetry::bytes_in(&self.telemetry, data.len());
        self.bytes_forwarded += data.len() as u64;
        self.left.extend_from_slice(data);
        Ok(())
    }
    fn take_left_into(&mut self, dst: &mut Vec<u8>) {
        RelayTelemetry::bytes_out(&self.telemetry, self.left.len());
        dst.extend_from_slice(&std::mem::take(&mut self.left));
    }
    fn take_right_into(&mut self, dst: &mut Vec<u8>) {
        RelayTelemetry::bytes_out(&self.telemetry, self.right.len());
        dst.extend_from_slice(&std::mem::take(&mut self.right));
    }
}

/// The split-TLS interception middlebox.
///
/// `client_facing` terminates the client's TLS session using an
/// impersonation certificate (issued by the custom root the client
/// trusts); `server_facing` is the middlebox's own TLS client toward
/// the real server. Plaintext flows between the two through the
/// processor.
pub struct SplitTlsMiddlebox {
    client_facing: ServerConnection,
    server_facing: ClientConnection,
    processor: Box<dyn DataProcessor>,
    rng: CryptoRng,
    telemetry: Option<RelayTelemetry>,
}

impl SplitTlsMiddlebox {
    /// Build from the two pre-configured TLS configs.
    ///
    /// `impersonation` must hold a certificate for the *server's*
    /// name, signed by the custom root in the client's trust store —
    /// exactly the provisioning §2.2 describes.
    pub fn new(
        impersonation: Arc<ServerConfig>,
        toward_server: Arc<ClientConfig>,
        server_name: &str,
        mut rng: CryptoRng,
    ) -> Self {
        let server_facing = ClientConnection::new(toward_server, server_name, &mut rng);
        SplitTlsMiddlebox {
            client_facing: ServerConnection::new(impersonation),
            server_facing,
            processor: Box::new(ForwardProcessor),
            rng,
            telemetry: None,
        }
    }

    /// Install a data processor.
    pub fn with_processor(mut self, processor: Box<dyn DataProcessor>) -> Self {
        self.processor = processor;
        self
    }

    /// Attach a telemetry sink emitting as `party`.
    pub fn set_telemetry(&mut self, sink: SharedSink, party: Party) {
        self.telemetry = Some(RelayTelemetry { sink, party });
    }

    /// Both legs established?
    pub fn established(&self) -> bool {
        self.client_facing.is_established() && self.server_facing.is_established()
    }

    fn shuttle(&mut self) -> Result<(), MbError> {
        // Plaintext client→server.
        let data = self.client_facing.take_plaintext();
        if !data.is_empty() && self.server_facing.is_established() {
            let out = self.processor.process(FlowDirection::ClientToServer, data);
            self.server_facing.send_data(&out).map_err(MbError::Tls)?;
        }
        // Plaintext server→client.
        let data = self.server_facing.take_plaintext();
        if !data.is_empty() && self.client_facing.is_established() {
            let out = self.processor.process(FlowDirection::ServerToClient, data);
            self.client_facing.send_data(&out).map_err(MbError::Tls)?;
        }
        Ok(())
    }
}

impl Relay for SplitTlsMiddlebox {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        RelayTelemetry::bytes_in(&self.telemetry, data.len());
        self.client_facing
            .feed_incoming(data, &mut self.rng)
            .map_err(MbError::Tls)?;
        self.shuttle()
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        RelayTelemetry::bytes_in(&self.telemetry, data.len());
        self.server_facing
            .feed_incoming(data, &mut self.rng)
            .map_err(MbError::Tls)?;
        self.shuttle()
    }
    fn take_left_into(&mut self, dst: &mut Vec<u8>) {
        let out = self.client_facing.take_outgoing();
        RelayTelemetry::bytes_out(&self.telemetry, out.len());
        dst.extend_from_slice(&out);
    }
    fn take_right_into(&mut self, dst: &mut Vec<u8>) {
        let out = self.server_facing.take_outgoing();
        RelayTelemetry::bytes_out(&self.telemetry, out.len());
        dst.extend_from_slice(&out);
    }
}

/// The naive key-sharing middlebox (paper Fig. 1): after the
/// end-to-end handshake, the endpoint hands it the *primary session
/// keys*, the *same* keys on both hops. It decrypts every record, and
/// one it leaves unchanged goes out as the very ciphertext that came
/// in (its data plane has no key of its own to seal with). Secure
/// delivery of the keys is modelled as an already-established
/// secondary channel (its security is not what is under test — the
/// shared-key data plane is).
pub struct NaiveKeyShare {
    /// Relaying until keys arrive.
    relay: PureRelay,
    dataplane: Option<MiddleboxDataPlane>,
    processor: Box<dyn DataProcessor>,
    telemetry: Option<RelayTelemetry>,
}

impl NaiveKeyShare {
    /// New middlebox, initially relaying the handshake.
    pub fn new() -> Self {
        NaiveKeyShare {
            relay: PureRelay::new(),
            dataplane: None,
            processor: Box::new(ForwardProcessor),
            telemetry: None,
        }
    }

    /// Install a data processor.
    pub fn with_processor(mut self, processor: Box<dyn DataProcessor>) -> Self {
        self.processor = processor;
        self
    }

    /// Attach a telemetry sink emitting as `party`; per-hop record
    /// events flow once keys are installed.
    pub fn set_telemetry(&mut self, sink: SharedSink, party: Party) {
        self.telemetry = Some(RelayTelemetry { sink: sink.clone(), party });
        self.relay.set_telemetry(sink.clone(), party);
        if let Some(dp) = &mut self.dataplane {
            dp.set_telemetry(sink, party);
        }
    }

    /// Deliver the primary session keys (the Fig. 1 secondary-channel
    /// step). Both hops get the *same* keys — the point of this
    /// baseline.
    pub fn install_keys(&mut self, keys: &SessionKeys) -> Result<(), MbError> {
        let mut dp = MiddleboxDataPlane::new(keys, keys).map_err(MbError::Tls)?;
        if let Some(t) = &self.telemetry {
            dp.set_telemetry(t.sink.clone(), t.party);
            t.sink.emit(t.party, EventKind::KeyDelivery { subchannel: 0 });
        }
        self.dataplane = Some(dp);
        Ok(())
    }

    /// Keys installed?
    pub fn has_keys(&self) -> bool {
        self.dataplane.is_some()
    }
}

impl Default for NaiveKeyShare {
    fn default() -> Self {
        Self::new()
    }
}

impl Relay for NaiveKeyShare {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        match &mut self.dataplane {
            Some(dp) => {
                let processor = &mut self.processor;
                dp.feed(FlowDirection::ClientToServer, data, |d, p| {
                    *p = processor.process(d, std::mem::take(p));
                })
            }
            None => self.relay.feed_left(data),
        }
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        match &mut self.dataplane {
            Some(dp) => {
                let processor = &mut self.processor;
                dp.feed(FlowDirection::ServerToClient, data, |d, p| {
                    *p = processor.process(d, std::mem::take(p));
                })
            }
            None => self.relay.feed_right(data),
        }
    }
    fn take_left_into(&mut self, dst: &mut Vec<u8>) {
        self.relay.take_left_into(dst);
        if let Some(dp) = &mut self.dataplane {
            dp.drain_toward_client_into(dst);
        }
    }
    fn take_right_into(&mut self, dst: &mut Vec<u8>) {
        self.relay.take_right_into(dst);
        if let Some(dp) = &mut self.dataplane {
            dp.drain_toward_server_into(dst);
        }
    }
}
