//! Validated host configuration.
//!
//! [`HostConfig`] is built through a chainable [`HostConfigBuilder`]
//! whose
//! [`build`](HostConfigBuilder::build) rejects zero and overflowing
//! values with a typed [`HostConfigError`] instead of letting a bad
//! knob surface later as a hung event loop or a panicking shift. The
//! built config is opaque — fields are read through accessors, so
//! invariants checked at build time hold for the config's lifetime.

use mbtls_netsim::time::Duration;

use crate::slab::SessionId;

/// Why a [`HostConfigBuilder`] refused to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostConfigError {
    /// Shard count must be at least 1.
    ZeroShards,
    /// Shard count exceeds what the [`SessionId`] encoding can
    /// address ([`SessionId::MAX_SHARDS`]).
    TooManyShards {
        /// The rejected shard count.
        got: u32,
    },
    /// A duration knob was zero; the field name says which.
    ZeroDuration(&'static str),
    /// Handshake attempts must be at least 1.
    ZeroAttempts,
    /// The pump pass cap must be at least 1.
    ZeroPumpPasses,
    /// The ticket cache capacity must be at least 1.
    ZeroTicketCap,
    /// Retry backoff doubled per attempt would overflow virtual time
    /// (`backoff × 2^attempts` exceeds `u64` nanoseconds).
    BackoffOverflow,
}

impl std::fmt::Display for HostConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            HostConfigError::TooManyShards { got } => write!(
                f,
                "shard count {got} exceeds the SessionId encoding limit of {}",
                SessionId::MAX_SHARDS
            ),
            HostConfigError::ZeroDuration(field) => write!(f, "{field} must be non-zero"),
            HostConfigError::ZeroAttempts => write!(f, "handshake attempts must be at least 1"),
            HostConfigError::ZeroPumpPasses => write!(f, "pump pass cap must be at least 1"),
            HostConfigError::ZeroTicketCap => {
                write!(f, "ticket cache capacity must be at least 1")
            }
            HostConfigError::BackoffOverflow => {
                write!(f, "retry backoff doubled per attempt overflows virtual time")
            }
        }
    }
}

impl std::error::Error for HostConfigError {}

/// Host tuning knobs, validated at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostConfig {
    shards: u16,
    handshake_timeout: Duration,
    handshake_attempts: u32,
    retry_backoff: Duration,
    idle_timeout: Duration,
    ticket_ttl: Duration,
    ticket_cache_cap: usize,
    max_pump_passes: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        // The builder defaults are valid by construction.
        match HostConfig::builder().build() {
            Ok(config) => config,
            Err(_) => unreachable!("builder defaults are valid"),
        }
    }
}

impl HostConfig {
    /// Start from the defaults: 1 shard, 1 s handshake timeout, 3
    /// attempts, 1 s base retry backoff, 30 s idle eviction, 300 s
    /// ticket TTL, 65 536-entry ticket cache, 8-pass pump cap.
    pub fn builder() -> HostConfigBuilder {
        HostConfigBuilder {
            shards: 1,
            handshake_timeout: Duration::from_millis(1_000),
            handshake_attempts: 3,
            retry_backoff: None,
            idle_timeout: Duration::from_secs(30),
            ticket_ttl: Duration::from_secs(300),
            ticket_cache_cap: 65_536,
            max_pump_passes: 8,
        }
    }

    /// Worker shards the host splits its session table across.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// Deadline for the first handshake attempt.
    pub fn handshake_timeout(&self) -> Duration {
        self.handshake_timeout
    }

    /// Total handshake attempts before the session fails with a
    /// timeout (1 = no retries).
    pub fn handshake_attempts(&self) -> u32 {
        self.handshake_attempts
    }

    /// Base retry backoff; attempt `n` waits `backoff × 2^n`.
    pub fn retry_backoff(&self) -> Duration {
        self.retry_backoff
    }

    /// Established sessions idle this long are evicted.
    pub fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Lifetime of cached session tickets.
    pub fn ticket_ttl(&self) -> Duration {
        self.ticket_ttl
    }

    /// Per-shard ticket-cache capacity; the oldest ticket is dropped
    /// when a new one would exceed it.
    pub fn ticket_cache_cap(&self) -> usize {
        self.ticket_cache_cap
    }

    /// Per-service chain-pump pass cap (backpressure): a session
    /// still moving bytes after this many passes is requeued behind
    /// its peers instead of pumped to fixpoint.
    pub fn max_pump_passes(&self) -> usize {
        self.max_pump_passes
    }
}

/// Chainable builder for [`HostConfig`]; see
/// [`HostConfig::builder`] for the defaults.
#[derive(Debug, Clone)]
pub struct HostConfigBuilder {
    shards: u32,
    handshake_timeout: Duration,
    handshake_attempts: u32,
    /// `None` = follow `handshake_timeout` (the historical behavior).
    retry_backoff: Option<Duration>,
    idle_timeout: Duration,
    ticket_ttl: Duration,
    ticket_cache_cap: usize,
    max_pump_passes: usize,
}

impl HostConfigBuilder {
    /// Worker shards to split the session table across.
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Deadline for the first handshake attempt.
    pub fn handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// Total handshake attempts (1 = no retries).
    pub fn handshake_attempts(mut self, attempts: u32) -> Self {
        self.handshake_attempts = attempts;
        self
    }

    /// Base retry backoff (attempt `n` waits `backoff × 2^n`).
    /// Defaults to the handshake timeout when not set.
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = Some(backoff);
        self
    }

    /// Idle-eviction deadline for established sessions.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Lifetime of cached session tickets.
    pub fn ticket_ttl(mut self, ttl: Duration) -> Self {
        self.ticket_ttl = ttl;
        self
    }

    /// Per-shard ticket-cache capacity.
    pub fn ticket_cache_cap(mut self, cap: usize) -> Self {
        self.ticket_cache_cap = cap;
        self
    }

    /// Per-service chain-pump pass cap.
    pub fn max_pump_passes(mut self, passes: usize) -> Self {
        self.max_pump_passes = passes;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<HostConfig, HostConfigError> {
        if self.shards == 0 {
            return Err(HostConfigError::ZeroShards);
        }
        if self.shards > SessionId::MAX_SHARDS as u32 {
            return Err(HostConfigError::TooManyShards { got: self.shards });
        }
        if self.handshake_timeout == Duration::ZERO {
            return Err(HostConfigError::ZeroDuration("handshake timeout"));
        }
        if self.handshake_attempts == 0 {
            return Err(HostConfigError::ZeroAttempts);
        }
        if self.idle_timeout == Duration::ZERO {
            return Err(HostConfigError::ZeroDuration("idle timeout"));
        }
        if self.ticket_ttl == Duration::ZERO {
            return Err(HostConfigError::ZeroDuration("ticket TTL"));
        }
        if self.ticket_cache_cap == 0 {
            return Err(HostConfigError::ZeroTicketCap);
        }
        if self.max_pump_passes == 0 {
            return Err(HostConfigError::ZeroPumpPasses);
        }
        let retry_backoff = self.retry_backoff.unwrap_or(self.handshake_timeout);
        if retry_backoff == Duration::ZERO {
            return Err(HostConfigError::ZeroDuration("retry backoff"));
        }
        // The retry path shifts the base by the attempt number; make
        // sure the largest shift the config can produce stays inside
        // u64 nanoseconds.
        let max_shift = self.handshake_attempts.min(63);
        if self.handshake_attempts > 63
            || retry_backoff.0.checked_mul(1u64 << max_shift).is_none()
        {
            return Err(HostConfigError::BackoffOverflow);
        }
        Ok(HostConfig {
            shards: self.shards as u16,
            handshake_timeout: self.handshake_timeout,
            handshake_attempts: self.handshake_attempts,
            retry_backoff,
            idle_timeout: self.idle_timeout,
            ticket_ttl: self.ticket_ttl,
            ticket_cache_cap: self.ticket_cache_cap,
            max_pump_passes: self.max_pump_passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_and_match_historical_values() {
        let c = HostConfig::default();
        assert_eq!(c.shards(), 1);
        assert_eq!(c.handshake_timeout(), Duration::from_millis(1_000));
        assert_eq!(c.handshake_attempts(), 3);
        assert_eq!(c.retry_backoff(), Duration::from_millis(1_000));
        assert_eq!(c.idle_timeout(), Duration::from_secs(30));
        assert_eq!(c.ticket_ttl(), Duration::from_secs(300));
        assert_eq!(c.max_pump_passes(), 8);
    }

    #[test]
    fn zero_values_rejected_with_typed_errors() {
        assert_eq!(
            HostConfig::builder().shards(0).build().unwrap_err(),
            HostConfigError::ZeroShards
        );
        assert_eq!(
            HostConfig::builder().handshake_timeout(Duration::ZERO).build().unwrap_err(),
            HostConfigError::ZeroDuration("handshake timeout")
        );
        assert_eq!(
            HostConfig::builder().handshake_attempts(0).build().unwrap_err(),
            HostConfigError::ZeroAttempts
        );
        assert_eq!(
            HostConfig::builder().retry_backoff(Duration::ZERO).build().unwrap_err(),
            HostConfigError::ZeroDuration("retry backoff")
        );
        assert_eq!(
            HostConfig::builder().idle_timeout(Duration::ZERO).build().unwrap_err(),
            HostConfigError::ZeroDuration("idle timeout")
        );
        assert_eq!(
            HostConfig::builder().ticket_ttl(Duration::ZERO).build().unwrap_err(),
            HostConfigError::ZeroDuration("ticket TTL")
        );
        assert_eq!(
            HostConfig::builder().ticket_cache_cap(0).build().unwrap_err(),
            HostConfigError::ZeroTicketCap
        );
        assert_eq!(
            HostConfig::builder().max_pump_passes(0).build().unwrap_err(),
            HostConfigError::ZeroPumpPasses
        );
    }

    #[test]
    fn overflowing_values_rejected() {
        assert_eq!(
            HostConfig::builder().shards(100_000).build().unwrap_err(),
            HostConfigError::TooManyShards { got: 100_000 }
        );
        assert_eq!(
            HostConfig::builder().handshake_attempts(64).build().unwrap_err(),
            HostConfigError::BackoffOverflow
        );
        assert_eq!(
            HostConfig::builder()
                .retry_backoff(Duration(u64::MAX / 2))
                .handshake_attempts(3)
                .build()
                .unwrap_err(),
            HostConfigError::BackoffOverflow
        );
    }

    #[test]
    fn shard_count_bounds() {
        assert!(HostConfig::builder().shards(SessionId::MAX_SHARDS as u32).build().is_ok());
        assert_eq!(
            HostConfig::builder()
                .shards(SessionId::MAX_SHARDS as u32 + 1)
                .build()
                .unwrap_err(),
            HostConfigError::TooManyShards { got: SessionId::MAX_SHARDS as u32 + 1 }
        );
    }

    #[test]
    fn retry_backoff_defaults_to_handshake_timeout() {
        let c = HostConfig::builder()
            .handshake_timeout(Duration::from_millis(250))
            .build()
            .unwrap();
        assert_eq!(c.retry_backoff(), Duration::from_millis(250));
        let c = HostConfig::builder()
            .handshake_timeout(Duration::from_millis(250))
            .retry_backoff(Duration::from_millis(40))
            .build()
            .unwrap();
        assert_eq!(c.retry_backoff(), Duration::from_millis(40));
    }
}
