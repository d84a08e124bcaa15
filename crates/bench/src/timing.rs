//! Per-role CPU accounting: wrappers that measure wall-clock time
//! spent inside each party's processing calls (the Figure 5
//! "computation time, not including waiting for network I/O"
//! methodology).
//!
//! Measurements are published as [`EventKind::CpuTime`] telemetry
//! events rather than accumulated in bespoke cells, so the same trace
//! that carries protocol events also carries the CPU attribution and
//! any [`mbtls_telemetry::TelemetrySink`] can consume it.
//!
//! The wrappers forward every drain a [`mbtls_core::driver::Chain`]
//! calls — the `_into` forms, which hand buffers over instead of
//! copying — so the meters time the code path a session runs, not the
//! traits' copying defaults.

use std::time::{Duration, Instant};

use mbtls_core::driver::{Endpoint, Relay};
use mbtls_core::MbError;
use mbtls_telemetry::{EventKind, Party, SharedSink};

/// A handle that charges measured CPU time to one party of a
/// telemetry trace.
#[derive(Clone)]
pub struct CpuMeter {
    sink: SharedSink,
    party: Party,
}

impl CpuMeter {
    /// A meter that emits [`EventKind::CpuTime`] events for `party`
    /// through `sink`.
    pub fn new(sink: SharedSink, party: Party) -> Self {
        CpuMeter { sink, party }
    }

    /// Run `op`, charging its wall-clock time to this meter.
    fn time<T>(&self, op: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = op();
        self.add(t0.elapsed());
        r
    }

    fn add(&self, d: Duration) {
        self.sink.emit(
            self.party,
            EventKind::CpuTime {
                dur_ns: d.as_nanos() as u64,
            },
        );
    }
}

/// An endpoint whose processing time is charged to a meter.
pub struct TimedEndpoint<E: Endpoint> {
    inner: E,
    meter: CpuMeter,
}

impl<E: Endpoint> TimedEndpoint<E> {
    /// Wrap an endpoint.
    pub fn new(inner: E, meter: CpuMeter) -> Self {
        TimedEndpoint { inner, meter }
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn feed(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.meter.time(|| self.inner.feed(data))
    }
    fn take(&mut self) -> Vec<u8> {
        self.meter.time(|| self.inner.take())
    }
    fn ready(&self) -> bool {
        self.inner.ready()
    }
    fn send_app(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.meter.time(|| self.inner.send_app(data))
    }
    fn recv_app(&mut self) -> Vec<u8> {
        self.inner.recv_app()
    }
    fn take_into(&mut self, dst: &mut Vec<u8>) {
        self.meter.time(|| self.inner.take_into(dst))
    }
    fn recv_app_into(&mut self, dst: &mut Vec<u8>) {
        self.meter.time(|| self.inner.recv_app_into(dst))
    }
    fn failed(&self) -> Option<MbError> {
        self.inner.failed()
    }
}

/// A relay whose processing time is charged to a meter.
pub struct TimedRelay<R: Relay> {
    inner: R,
    meter: CpuMeter,
}

impl<R: Relay> TimedRelay<R> {
    /// Wrap a relay.
    pub fn new(inner: R, meter: CpuMeter) -> Self {
        TimedRelay { inner, meter }
    }
}

impl<R: Relay> Relay for TimedRelay<R> {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.meter.time(|| self.inner.feed_left(data))
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        self.meter.time(|| self.inner.feed_right(data))
    }
    fn take_left(&mut self) -> Vec<u8> {
        self.meter.time(|| self.inner.take_left())
    }
    fn take_right(&mut self) -> Vec<u8> {
        self.meter.time(|| self.inner.take_right())
    }
    fn take_left_into(&mut self, dst: &mut Vec<u8>) {
        self.meter.time(|| self.inner.take_left_into(dst))
    }
    fn take_right_into(&mut self, dst: &mut Vec<u8>) {
        self.meter.time(|| self.inner.take_right_into(dst))
    }
    fn failed(&self) -> Option<MbError> {
        self.inner.failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbtls_core::baseline::PureRelay;
    use mbtls_telemetry::Recorder;

    /// A party that drains only through the `_into` forms: its
    /// `Vec`-returning drains panic, so a wrapper that falls back to
    /// the traits' copying defaults fails the test.
    struct IntoOnly;

    impl Endpoint for IntoOnly {
        fn feed(&mut self, _: &[u8]) -> Result<(), MbError> {
            Ok(())
        }
        fn take(&mut self) -> Vec<u8> {
            panic!("take: the wrapper did not forward take_into")
        }
        fn ready(&self) -> bool {
            true
        }
        fn send_app(&mut self, _: &[u8]) -> Result<(), MbError> {
            Ok(())
        }
        fn recv_app(&mut self) -> Vec<u8> {
            panic!("recv_app: the wrapper did not forward recv_app_into")
        }
        fn take_into(&mut self, dst: &mut Vec<u8>) {
            dst.push(1);
        }
        fn recv_app_into(&mut self, dst: &mut Vec<u8>) {
            dst.push(2);
        }
        fn failed(&self) -> Option<MbError> {
            Some(MbError::unexpected_state("stub failed"))
        }
    }

    impl Relay for IntoOnly {
        fn feed_left(&mut self, _: &[u8]) -> Result<(), MbError> {
            Ok(())
        }
        fn feed_right(&mut self, _: &[u8]) -> Result<(), MbError> {
            Ok(())
        }
        fn take_left(&mut self) -> Vec<u8> {
            panic!("take_left: the wrapper did not forward take_left_into")
        }
        fn take_right(&mut self) -> Vec<u8> {
            panic!("take_right: the wrapper did not forward take_right_into")
        }
        fn take_left_into(&mut self, dst: &mut Vec<u8>) {
            dst.push(3);
        }
        fn take_right_into(&mut self, dst: &mut Vec<u8>) {
            dst.push(4);
        }
        fn failed(&self) -> Option<MbError> {
            Some(MbError::unexpected_state("stub failed"))
        }
    }

    #[test]
    fn meter_emits_cpu_time_events() {
        let rec = Recorder::new();
        let meter = CpuMeter::new(rec.sink(), Party::Middlebox(0));
        let mut relay = TimedRelay::new(PureRelay::new(), meter.clone());
        for _ in 0..100 {
            relay.feed_left(&[0u8; 1024]).unwrap();
            let _ = relay.take_right();
        }
        // The `_into` drains reach the wrapped party's own, timed;
        // `failed` is forwarded untimed.
        let mut endpoint = TimedEndpoint::new(IntoOnly, meter.clone());
        let mut into_relay = TimedRelay::new(IntoOnly, meter);
        let mut dst = Vec::new();
        endpoint.take_into(&mut dst);
        endpoint.recv_app_into(&mut dst);
        into_relay.take_left_into(&mut dst);
        into_relay.take_right_into(&mut dst);
        assert_eq!(dst, [1, 2, 3, 4]);
        assert!(Endpoint::failed(&endpoint).is_some() && Relay::failed(&into_relay).is_some());
        let events = rec.snapshot();
        let total: u64 = events
            .iter()
            .map(|e| match e.kind {
                EventKind::CpuTime { dur_ns } => dur_ns,
                _ => 0,
            })
            .sum();
        // Every wrapped call emitted a sample, and some nonzero time
        // was recorded overall.
        assert_eq!(events.len(), 204);
        assert!(total > 0);
        assert!(events.iter().all(|e| e.party == Party::Middlebox(0)));
    }
}
