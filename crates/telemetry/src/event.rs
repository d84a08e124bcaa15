//! The typed event taxonomy.

/// Who emitted an event.
///
/// Middleboxes are identified by their position in the chain
/// (0 = nearest the client), matching the driver's node ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Party {
    /// The mbTLS (or legacy TLS) client endpoint.
    Client,
    /// A middlebox, by chain position (0 = nearest the client).
    Middlebox(u8),
    /// The server endpoint.
    Server,
    /// The network simulator itself (link and session-phase events).
    Network,
    /// A simulated SGX enclave, by platform-local id.
    Enclave(u64),
    /// The concurrent session host (`mbtls-host`): slab, timer
    /// and event-loop events that are not attributable to any single
    /// in-session party.
    Host,
}

impl Party {
    /// A stable lowercase label, used in JSON output.
    pub fn label(&self) -> String {
        match self {
            Party::Client => "client".to_string(),
            Party::Middlebox(i) => format!("middlebox{i}"),
            Party::Server => "server".to_string(),
            Party::Network => "network".to_string(),
            Party::Enclave(i) => format!("enclave{i}"),
            Party::Host => "host".to_string(),
        }
    }
}

/// What happened.
///
/// The taxonomy covers the four planes the paper's evaluation
/// measures: handshake progress, per-hop record flow, simulated
/// network links, and SGX transitions — plus `CpuTime`, the bench
/// harness's wall-clock samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    // ---- Handshake phases ----
    /// The client emitted its first flight.
    ClientHelloSent {
        /// Flight size on the wire.
        bytes: u64,
    },
    /// A MiddleboxAnnouncement was sent (server side) or observed.
    MiddleboxAnnouncement {
        /// Number of middleboxes announced so far on this session.
        count: u64,
    },
    /// A secondary (per-middlebox) handshake began on `subchannel`.
    SecondaryHandshakeStart {
        /// Subchannel id carrying the secondary handshake.
        subchannel: u64,
    },
    /// A secondary handshake completed on `subchannel`.
    SecondaryHandshakeFinish {
        /// Subchannel id carrying the secondary handshake.
        subchannel: u64,
    },
    /// Hop keys were delivered to (or installed by) a middlebox.
    KeyDelivery {
        /// Subchannel id the keys were delivered over.
        subchannel: u64,
    },
    /// The party considers the whole mbTLS handshake complete.
    HandshakeComplete,

    // ---- Per-hop record flow ----
    /// A record was encrypted for hop `hop`.
    RecordEncrypt {
        /// Hop index (0 = client-side hop).
        hop: u64,
        /// Plaintext bytes in the record.
        bytes: u64,
        /// Sequence number used.
        seq: u64,
    },
    /// A record arriving on hop `hop` was decrypted.
    RecordDecrypt {
        /// Hop index (0 = client-side hop).
        hop: u64,
        /// Plaintext bytes recovered.
        bytes: u64,
        /// Sequence number used.
        seq: u64,
    },
    /// A record arriving on hop `hop` was authenticated (tag-only
    /// verify) and forwarded unchanged — the read-only middlebox fast
    /// path over aliased per-hop keys. Distinct from the
    /// decrypt/encrypt pair so forwarded and resealed records are
    /// separable in traces.
    RecordForwardedReadOnly {
        /// Hop index the record arrived on (0 = client-side hop).
        hop: u64,
        /// Plaintext bytes carried (record length minus AEAD framing).
        bytes: u64,
        /// Sequence number verified.
        seq: u64,
    },
    /// A lane whose hop keys alias opened its first application-data
    /// record instead of verifying it: records arriving on hop `hop`
    /// leave the read-only forward for the reason given. Emitted once
    /// per lane.
    FastPathDisabled {
        /// Hop index the records arrive on (0 = client-side hop).
        hop: u64,
        /// Why: one of the [`fast_path_disabled`] values.
        reason: u64,
    },
    /// Raw bytes entered the party from the wire.
    BytesIn {
        /// Byte count.
        bytes: u64,
    },
    /// Raw bytes left the party toward the wire.
    BytesOut {
        /// Byte count.
        bytes: u64,
    },

    // ---- Netsim link events ----
    /// Bytes were written into a simulated link.
    LinkSend {
        /// Connection id.
        conn: u64,
        /// Byte count.
        bytes: u64,
    },
    /// Bytes became readable at the far end of a link.
    LinkDeliver {
        /// Connection id.
        conn: u64,
        /// Byte count.
        bytes: u64,
    },
    /// A fault model dropped (and transparently retransmitted) a
    /// segment, charging its delay.
    LinkDrop {
        /// Connection id.
        conn: u64,
        /// Byte count affected.
        bytes: u64,
    },
    /// A tamper hook corrupted in-flight bytes.
    LinkCorrupt {
        /// Connection id.
        conn: u64,
    },

    // ---- Session phases (driver-level, virtual time) ----
    /// A driven session started.
    SessionStart,
    /// The driven session's handshake completed end-to-end.
    SessionHandshakeDone,
    /// The driven session's data transfer completed.
    SessionTransferDone,

    // ---- SGX enclave transitions ----
    /// An enclave was created (`ECREATE`/`EINIT`).
    EnclaveCreate {
        /// Platform-local enclave id.
        enclave: u64,
    },
    /// An enclave was torn down (`EREMOVE`); its protected pages were
    /// freed and its state scrubbed.
    EnclaveDestroy {
        /// Platform-local enclave id.
        enclave: u64,
    },
    /// An ECALL entered the enclave.
    Ecall {
        /// Platform-local enclave id.
        enclave: u64,
        /// Modeled transition cost in nanoseconds.
        cost_ns: u64,
    },
    /// An OCALL left the enclave.
    Ocall {
        /// Platform-local enclave id.
        enclave: u64,
        /// Modeled transition cost in nanoseconds.
        cost_ns: u64,
    },

    // ---- Session host (mbtls-host) ----
    /// The host admitted a new session into its slab.
    HostSessionOpen {
        /// Slab index of the generational session id.
        session: u64,
        /// Generation of the session id (stale-id detection).
        generation: u64,
    },
    /// A hosted session finished its end-to-end handshake.
    HostHandshakeDone {
        /// Slab index of the generational session id.
        session: u64,
        /// Handshake attempts consumed (1 = first try).
        attempt: u64,
        /// Virtual nanoseconds from open to handshake completion.
        elapsed_ns: u64,
        /// 1 if the client's handshake was abbreviated by ticket or
        /// session-id resumption, 0 for the full flight.
        resumed: u64,
    },
    /// A hosted session left the slab — completed or not; `outcome`
    /// says which.
    HostSessionClose {
        /// Slab index of the generational session id.
        session: u64,
        /// How it ended: one of the [`close_outcome`] values.
        outcome: u64,
    },
    /// A hosted session's handshake timer fired with no progress; the
    /// host will either retry (see [`EventKind::HostRetryBackoff`]) or
    /// fail the session with `MbError::Timeout`.
    HostTimeout {
        /// Slab index of the generational session id.
        session: u64,
        /// The attempt that timed out (1 = first try).
        attempt: u64,
    },
    /// The host rescheduled a timed-out handshake with exponential
    /// backoff.
    HostRetryBackoff {
        /// Slab index of the generational session id.
        session: u64,
        /// The attempt about to start (2 = first retry).
        attempt: u64,
        /// Backoff applied before the retry, in virtual nanoseconds.
        backoff_ns: u64,
    },
    /// The host evicted an idle session from the slab.
    HostEvict {
        /// Slab index of the generational session id.
        session: u64,
        /// Idle time at eviction, in virtual nanoseconds.
        idle_ns: u64,
    },
    /// Cached session tickets left the host's resumption cache: one
    /// expiry sweep's worth past their lifetime, or the oldest one
    /// displaced by the cache cap.
    HostTicketExpired {
        /// Number of tickets remaining in the cache afterwards.
        remaining: u64,
        /// Tickets dropped by this sweep or displacement.
        dropped: u64,
    },
    /// The host flushed one batched signature-verification turn:
    /// every deferred check collected from this turn's serviced
    /// sessions went through one random-linear-combination batch
    /// verify instead of per-signature verification.
    HostVerifyBatch {
        /// Deferred check groups (per-session/per-token) resolved.
        groups: u64,
        /// Individual signature checks in the batch.
        checks: u64,
    },

    // ---- Delegated middlebox credentials (mdTLS-style, §6j) ----
    /// An endpoint issued a delegated credential bound to one
    /// handshake's transcript.
    CredentialIssued {
        /// Encoded credential size on the wire.
        bytes: u64,
        /// Expiry (not_after) in virtual seconds.
        not_after: u64,
    },
    /// A verifier accepted a delegated credential after walking the
    /// endpoint-cert → credential → middlebox-key chain.
    CredentialVerified {
        /// Subchannel the credentialed middlebox joined on (0 when the
        /// check happened outside a subchannel context).
        subchannel: u64,
        /// Signature checks discharged (chain links + credential).
        checks: u64,
    },
    /// A verifier rejected a delegated credential (expired, replayed,
    /// wrong key, bad signature...).
    CredentialRejected {
        /// Subchannel the rejected middlebox was on (0 when outside a
        /// subchannel context).
        subchannel: u64,
    },

    // ---- Bench harness ----
    /// Measured wall-clock CPU time attributed to the party.
    CpuTime {
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
}

impl EventKind {
    /// A stable snake_case name, used in JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ClientHelloSent { .. } => "client_hello_sent",
            EventKind::MiddleboxAnnouncement { .. } => "middlebox_announcement",
            EventKind::SecondaryHandshakeStart { .. } => "secondary_handshake_start",
            EventKind::SecondaryHandshakeFinish { .. } => "secondary_handshake_finish",
            EventKind::KeyDelivery { .. } => "key_delivery",
            EventKind::HandshakeComplete => "handshake_complete",
            EventKind::RecordEncrypt { .. } => "record_encrypt",
            EventKind::RecordDecrypt { .. } => "record_decrypt",
            EventKind::RecordForwardedReadOnly { .. } => "record_forwarded_read_only",
            EventKind::FastPathDisabled { .. } => "fast_path_disabled",
            EventKind::BytesIn { .. } => "bytes_in",
            EventKind::BytesOut { .. } => "bytes_out",
            EventKind::LinkSend { .. } => "link_send",
            EventKind::LinkDeliver { .. } => "link_deliver",
            EventKind::LinkDrop { .. } => "link_drop",
            EventKind::LinkCorrupt { .. } => "link_corrupt",
            EventKind::SessionStart => "session_start",
            EventKind::SessionHandshakeDone => "session_handshake_done",
            EventKind::SessionTransferDone => "session_transfer_done",
            EventKind::EnclaveCreate { .. } => "enclave_create",
            EventKind::EnclaveDestroy { .. } => "enclave_destroy",
            EventKind::Ecall { .. } => "ecall",
            EventKind::Ocall { .. } => "ocall",
            EventKind::HostSessionOpen { .. } => "host_session_open",
            EventKind::HostHandshakeDone { .. } => "host_handshake_done",
            EventKind::HostSessionClose { .. } => "host_session_close",
            EventKind::HostTimeout { .. } => "host_timeout",
            EventKind::HostRetryBackoff { .. } => "host_retry_backoff",
            EventKind::HostEvict { .. } => "host_evict",
            EventKind::HostTicketExpired { .. } => "host_ticket_expired",
            EventKind::HostVerifyBatch { .. } => "host_verify_batch",
            EventKind::CredentialIssued { .. } => "credential_issued",
            EventKind::CredentialVerified { .. } => "credential_verified",
            EventKind::CredentialRejected { .. } => "credential_rejected",
            EventKind::CpuTime { .. } => "cpu_time",
        }
    }

    /// The kind-specific payload as `(field, value)` pairs, used in
    /// JSON output and by aggregation.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::ClientHelloSent { bytes } => vec![("bytes", bytes)],
            EventKind::MiddleboxAnnouncement { count } => vec![("count", count)],
            EventKind::SecondaryHandshakeStart { subchannel }
            | EventKind::SecondaryHandshakeFinish { subchannel }
            | EventKind::KeyDelivery { subchannel } => vec![("subchannel", subchannel)],
            EventKind::HandshakeComplete
            | EventKind::SessionStart
            | EventKind::SessionHandshakeDone
            | EventKind::SessionTransferDone => vec![],
            EventKind::RecordEncrypt { hop, bytes, seq }
            | EventKind::RecordDecrypt { hop, bytes, seq }
            | EventKind::RecordForwardedReadOnly { hop, bytes, seq } => {
                vec![("hop", hop), ("bytes", bytes), ("seq", seq)]
            }
            EventKind::FastPathDisabled { hop, reason } => vec![("hop", hop), ("reason", reason)],
            EventKind::BytesIn { bytes } | EventKind::BytesOut { bytes } => {
                vec![("bytes", bytes)]
            }
            EventKind::LinkSend { conn, bytes }
            | EventKind::LinkDeliver { conn, bytes }
            | EventKind::LinkDrop { conn, bytes } => vec![("conn", conn), ("bytes", bytes)],
            EventKind::LinkCorrupt { conn } => vec![("conn", conn)],
            EventKind::EnclaveCreate { enclave } | EventKind::EnclaveDestroy { enclave } => {
                vec![("enclave", enclave)]
            }
            EventKind::Ecall { enclave, cost_ns } | EventKind::Ocall { enclave, cost_ns } => {
                vec![("enclave", enclave), ("cost_ns", cost_ns)]
            }
            EventKind::HostSessionOpen { session, generation } => {
                vec![("session", session), ("generation", generation)]
            }
            EventKind::HostHandshakeDone { session, attempt, elapsed_ns, resumed } => vec![
                ("session", session),
                ("attempt", attempt),
                ("elapsed_ns", elapsed_ns),
                ("resumed", resumed),
            ],
            EventKind::HostSessionClose { session, outcome } => {
                vec![("session", session), ("outcome", outcome)]
            }
            EventKind::HostTimeout { session, attempt } => {
                vec![("session", session), ("attempt", attempt)]
            }
            EventKind::HostRetryBackoff { session, attempt, backoff_ns } => {
                vec![("session", session), ("attempt", attempt), ("backoff_ns", backoff_ns)]
            }
            EventKind::HostEvict { session, idle_ns } => {
                vec![("session", session), ("idle_ns", idle_ns)]
            }
            EventKind::HostTicketExpired { remaining, dropped } => {
                vec![("remaining", remaining), ("dropped", dropped)]
            }
            EventKind::HostVerifyBatch { groups, checks } => {
                vec![("groups", groups), ("checks", checks)]
            }
            EventKind::CredentialIssued { bytes, not_after } => {
                vec![("bytes", bytes), ("not_after", not_after)]
            }
            EventKind::CredentialVerified { subchannel, checks } => {
                vec![("subchannel", subchannel), ("checks", checks)]
            }
            EventKind::CredentialRejected { subchannel } => vec![("subchannel", subchannel)],
            EventKind::CpuTime { dur_ns } => vec![("dur_ns", dur_ns)],
        }
    }
}

/// The values of [`EventKind::HostSessionClose`]'s `outcome` field.
pub mod close_outcome {
    /// Handshake and full workload completed.
    pub const COMPLETED: u64 = 0;
    /// The handshake retry budget ran out.
    pub const TIMED_OUT: u64 = 1;
    /// Idle past the eviction deadline.
    pub const EVICTED: u64 = 2;
    /// A party reported a fatal error.
    pub const FAILED: u64 = 3;
}

/// The values of [`EventKind::FastPathDisabled`]'s `reason` field.
pub mod fast_path_disabled {
    /// The middlebox's processor does not declare itself read-only, so
    /// it is handed every record's plaintext.
    pub const PROCESSOR_NOT_READ_ONLY: u64 = 0;
}

/// One telemetry event: when, who, where, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in nanoseconds. Virtual time under the netsim
    /// driver; zero (or harness-supplied) otherwise.
    pub ts_ns: u64,
    /// The host shard the event was emitted from. Zero outside a
    /// sharded host (single-reactor drivers never set it), so
    /// pre-shard traces read identically modulo this field.
    pub shard: u16,
    /// The emitting party.
    pub party: Party,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The event with its timestamp zeroed — useful for comparing
    /// traces across latency profiles, where ordering and content
    /// must match but times may not.
    pub fn without_timestamp(&self) -> Event {
        Event { ts_ns: 0, ..self.clone() }
    }
}

/// Merge per-shard traces into one deterministic global trace.
///
/// `traces[k]` must be shard `k`'s events in emission order (each
/// shard's virtual clock is monotonic, so each input is time-sorted).
/// The merge is **total-ordered by `(ts_ns, shard index)`**, with
/// same-shard same-instant events keeping their emission order — the
/// determinism rule the sharded host's double-run verdict relies on:
/// two runs that produce bit-identical per-shard traces produce a
/// bit-identical merged trace, regardless of the order shards were
/// driven in.
///
/// Events are re-tagged with their slot index in `traces`, so a
/// caller merging recorder snapshots does not need to have tagged
/// every sink up front.
pub fn merge_shard_traces(traces: Vec<Vec<Event>>) -> Vec<Event> {
    let mut merged: Vec<Event> = Vec::with_capacity(traces.iter().map(Vec::len).sum());
    for (shard, trace) in traces.into_iter().enumerate() {
        for mut event in trace {
            event.shard = shard as u16;
            merged.push(event);
        }
    }
    // Stable sort: equal (ts_ns, shard) keys keep emission order.
    merged.sort_by_key(|e| (e.ts_ns, e.shard));
    merged
}
