//! Per-session state tracked by the host, and how sessions end.

use mbtls_core::driver::Chain;
use mbtls_core::MbError;
use mbtls_netsim::time::SimTime;
use mbtls_telemetry::close_outcome;

/// The request/response workload a hosted session runs once its
/// handshake completes: the client sends `request_len` bytes, the
/// server answers with `response_len` bytes, `exchanges` times.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Client request size per exchange, bytes.
    pub request_len: usize,
    /// Server response size per exchange, bytes.
    pub response_len: usize,
    /// Request/response round trips before the session closes.
    pub exchanges: u32,
}

impl Default for Workload {
    fn default() -> Self {
        Workload { request_len: 512, response_len: 2048, exchanges: 4 }
    }
}

/// Where a hosted session is in its lifecycle.
pub(crate) enum Phase {
    /// End-to-end handshake still in flight.
    Handshaking,
    /// Handshake done; running the workload.
    Established,
}

/// One multiplexed session: its party chain plus host-side progress
/// bookkeeping.
pub(crate) struct HostedSession {
    pub chain: Chain,
    pub workload: Workload,
    pub phase: Phase,
    pub opened_at: SimTime,
    pub last_activity: SimTime,
    /// Handshake attempt in progress (1 = first try).
    pub attempt: u32,
    /// Open→established latency in virtual ns (0 until established).
    pub handshake_ns: u64,
    pub exchanges_done: u32,
    /// A response is in flight for the current exchange.
    pub responded: bool,
    /// Request bytes the server has received for the current exchange.
    pub server_got: usize,
    /// Response bytes the client has received for the current exchange.
    pub client_got: usize,
    /// Wire bytes this session pushed into the substrate.
    pub bytes_moved: u64,
    /// Currently sitting in the host's ready queue (dedup flag).
    pub queued: bool,
}

/// How a hosted session ended.
#[derive(Debug)]
pub enum SessionOutcome {
    /// Handshake and full workload completed.
    Completed {
        /// Exchanges finished (equals the workload's target).
        exchanges: u32,
        /// Wire bytes the session pushed into the substrate.
        bytes_moved: u64,
        /// Virtual nanoseconds from open to handshake completion.
        handshake_ns: u64,
    },
    /// The handshake retry budget ran out; the host surfaced
    /// [`MbError::Timeout`] instead of hanging forever.
    TimedOut,
    /// Idle past the eviction deadline.
    Evicted,
    /// A party reported a fatal error.
    Failed(MbError),
}

impl SessionOutcome {
    /// True for [`SessionOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, SessionOutcome::Completed { .. })
    }

    /// This outcome as the `outcome` field of a `HostSessionClose`
    /// event.
    pub(crate) fn code(&self) -> u64 {
        match self {
            SessionOutcome::Completed { .. } => close_outcome::COMPLETED,
            SessionOutcome::TimedOut => close_outcome::TIMED_OUT,
            SessionOutcome::Evicted => close_outcome::EVICTED,
            SessionOutcome::Failed(_) => close_outcome::FAILED,
        }
    }

    /// The error this outcome surfaces, if it is a failure.
    pub fn as_error(&self) -> Option<MbError> {
        match self {
            SessionOutcome::Completed { .. } => None,
            SessionOutcome::TimedOut => {
                Some(MbError::Timeout("handshake retry budget exhausted".into()))
            }
            SessionOutcome::Evicted => Some(MbError::Timeout("session evicted idle".into())),
            SessionOutcome::Failed(e) => Some(e.clone()),
        }
    }
}
