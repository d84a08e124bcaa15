//! Sinks: where events go, and the shared clock-stamping handle.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind, Party};
use crate::json::to_json_line;

/// Consumes telemetry events.
///
/// Implementations must be cheap: parties emit from their hot paths
/// and rely on the sink (not the emitter) to decide what to keep.
pub trait TelemetrySink {
    /// Consume one event.
    fn emit(&mut self, event: &Event);

    /// Flush any buffered output. Default: no-op.
    fn flush(&mut self) {}
}

/// Drops every event. The cost of telemetry when nobody is listening.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&mut self, _event: &Event) {}
}

/// What a [`Recorder`] keeps: every event, in emission order.
#[derive(Default)]
struct RecordingSink(Vec<Event>);

impl TelemetrySink for RecordingSink {
    fn emit(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
}

/// Streams each event as one JSON line — the bench-output sink.
pub struct JsonLinesSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink { writer }
    }

    /// Unwrap, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TelemetrySink for JsonLinesSink<W> {
    fn emit(&mut self, event: &Event) {
        // Telemetry must never take the session down: I/O errors on
        // the trace stream are swallowed.
        let _ = writeln!(self.writer, "{}", to_json_line(event));
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A shared monotonic clock in nanoseconds.
///
/// Under the netsim driver this is *virtual* time: the driver sets it
/// in lock-step with simulated time, so event timestamps are exactly
/// reproducible under a fixed seed. Outside a simulation it stays at
/// whatever the harness sets (zero by default) — wall-clock durations
/// travel in event payloads (`CpuTime`), never in timestamps.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Set the current time.
    pub fn set_ns(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }
}

/// The handle every instrumented component holds: a cloneable,
/// clock-stamping wrapper around one shared sink.
#[derive(Clone)]
pub struct SharedSink {
    sink: Arc<Mutex<dyn TelemetrySink + Send>>,
    clock: VirtualClock,
    /// Host-shard tag stamped onto every event emitted through this
    /// handle (zero outside a sharded host).
    shard: u16,
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").field("clock", &self.clock).finish_non_exhaustive()
    }
}

impl SharedSink {
    /// Wrap a sink with a fresh clock.
    pub fn new(sink: impl TelemetrySink + Send + 'static) -> Self {
        SharedSink::with_clock(sink, VirtualClock::new())
    }

    /// Wrap a sink stamping from an existing clock.
    pub fn with_clock(sink: impl TelemetrySink + Send + 'static, clock: VirtualClock) -> Self {
        SharedSink { sink: Arc::new(Mutex::new(sink)), clock, shard: 0 }
    }

    /// This handle, re-tagged to stamp `shard` onto every event it
    /// emits. The underlying sink and clock stay shared — a sharded
    /// host hands each reactor `sink.tagged(k)` so the merged trace
    /// records which shard said what.
    pub fn tagged(&self, shard: u16) -> SharedSink {
        SharedSink { sink: self.sink.clone(), clock: self.clock.clone(), shard }
    }

    /// The shard tag this handle stamps (zero unless re-tagged).
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The clock this handle stamps from.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Emit an event stamped with the clock's current time.
    pub fn emit(&self, party: Party, kind: EventKind) {
        self.emit_at(self.clock.now_ns(), party, kind);
    }

    /// Emit an event with an explicit timestamp.
    pub fn emit_at(&self, ts_ns: u64, party: Party, kind: EventKind) {
        let event = Event { ts_ns, shard: self.shard, party, kind };
        if let Ok(mut sink) = self.sink.lock() {
            sink.emit(&event);
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.flush();
        }
    }
}

/// An in-memory sink that keeps every event in order, plus the
/// [`SharedSink`] handle that feeds it — the recording sink, and the
/// standard shape for tests:
///
/// ```
/// use mbtls_telemetry::{Recorder, Party, EventKind};
///
/// let recorder = Recorder::new();
/// let sink = recorder.sink();
/// sink.emit(Party::Client, EventKind::HandshakeComplete);
/// assert_eq!(recorder.snapshot().len(), 1);
/// ```
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Mutex<RecordingSink>>,
    clock: VirtualClock,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder with its own clock.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(RecordingSink::default())),
            clock: VirtualClock::new(),
        }
    }

    /// A [`SharedSink`] handle feeding this recorder.
    pub fn sink(&self) -> SharedSink {
        SharedSink {
            sink: self.inner.clone() as Arc<Mutex<dyn TelemetrySink + Send>>,
            clock: self.clock.clone(),
            shard: 0,
        }
    }

    /// The recorder's clock (shared with every handle from
    /// [`Recorder::sink`]).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Copy of the events recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().map(|s| s.0.clone()).unwrap_or_default()
    }

    /// Take the recorded events, leaving the recorder empty.
    pub fn take(&self) -> Vec<Event> {
        self.inner.lock().map(|mut s| std::mem::take(&mut s.0)).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_roundtrip_with_clock() {
        let recorder = Recorder::new();
        let sink = recorder.sink();
        sink.emit(Party::Client, EventKind::ClientHelloSent { bytes: 100 });
        recorder.clock().set_ns(5_000);
        sink.emit(Party::Server, EventKind::HandshakeComplete);
        let events = recorder.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ts_ns, 0);
        assert_eq!(events[1].ts_ns, 5_000);
        assert_eq!(events[1].party, Party::Server);
        assert_eq!(recorder.take().len(), 2);
        assert!(recorder.snapshot().is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let recorder = Recorder::new();
        let a = recorder.sink();
        let b = a.clone();
        a.emit(Party::Client, EventKind::SessionStart);
        b.emit(Party::Server, EventKind::SessionStart);
        assert_eq!(recorder.snapshot().len(), 2);
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let sink = SharedSink::new(JsonLinesSink::new(Vec::<u8>::new()));
        sink.emit(Party::Middlebox(1), EventKind::BytesIn { bytes: 42 });
        sink.emit(Party::Network, EventKind::LinkSend { conn: 0, bytes: 7 });
        sink.flush();
        // The writer is owned by the shared sink; validate via a
        // direct (unshared) sink instead.
        let mut direct = JsonLinesSink::new(Vec::<u8>::new());
        direct.emit(&Event {
            ts_ns: 1,
            shard: 0,
            party: Party::Client,
            kind: EventKind::BytesOut { bytes: 9 },
        });
        let text = String::from_utf8(direct.into_inner()).unwrap();
        for line in text.lines() {
            crate::json::validate_json_line(line).unwrap();
        }
    }
}
