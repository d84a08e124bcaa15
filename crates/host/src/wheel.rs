//! The timer queue: pending timers in an ordered map keyed on
//! `(deadline, schedule order)`, driven by virtual time.
//!
//! Cancellation is *lazy*: the host never removes a timer, it just
//! lets it fire and discards it if the [`SessionId`] it names has
//! gone stale (the generational slab makes that check O(1)). That
//! avoids per-timer handles entirely.

use std::collections::BTreeMap;

use mbtls_netsim::time::SimTime;

use crate::slab::SessionId;

/// What a timer means to the host when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Initial handshake deadline for a session.
    Handshake,
    /// Re-armed handshake deadline after a retry backoff.
    Retry,
    /// Idle-eviction check for an established session.
    Idle,
    /// Session-ticket cache expiry sweep.
    TicketExpiry,
}

/// One expired timer.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    /// Absolute virtual deadline.
    pub deadline: SimTime,
    /// The session this timer belongs to (checked lazily on fire).
    pub session: SessionId,
    /// What to do when it fires.
    pub kind: TimerKind,
}

/// The queue. The key's second half is the insertion sequence, so
/// equal-deadline timers fire in schedule order and runs stay
/// bit-for-bit reproducible.
#[derive(Default)]
pub struct TimerQueue {
    pending: BTreeMap<(SimTime, u64), (SessionId, TimerKind)>,
    /// Last instant `expire_into` ran at.
    current: u64,
    /// Next insertion sequence number.
    next_seq: u64,
}

impl TimerQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        TimerQueue::default()
    }

    /// Number of pending timers (including lazily-cancelled ones).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Arm a timer. Past deadlines are legal and fire on the next
    /// [`TimerQueue::expire_into`] call.
    pub fn schedule(&mut self, deadline: SimTime, session: SessionId, kind: TimerKind) {
        self.pending.insert((deadline, self.next_seq), (session, kind));
        self.next_seq += 1;
    }

    /// The earliest pending deadline, or the last expiry instant if
    /// that deadline is already behind it.
    pub fn next_wake(&self) -> Option<SimTime> {
        let (&(deadline, _), _) = self.pending.first_key_value()?;
        Some(SimTime(deadline.0.max(self.current)))
    }

    /// Advance to `now`, appending every timer whose deadline has
    /// passed to `fired` in deterministic `(deadline, schedule-order)`
    /// order.
    pub fn expire_into(&mut self, now: SimTime, fired: &mut Vec<Timer>) {
        self.current = now.0.max(self.current);
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 .0 > self.current {
                break;
            }
            let ((deadline, _), (session, kind)) = entry.remove_entry();
            fired.push(Timer { deadline, session, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::Slab;

    fn sid(n: u32) -> SessionId {
        // Fabricate distinct ids through a throwaway slab.
        let mut slab = Slab::new();
        let mut last = slab.try_insert(()).unwrap();
        for _ in 0..n {
            last = slab.try_insert(()).unwrap();
        }
        last
    }

    fn fire_all(wheel: &mut TimerQueue, now: u64) -> Vec<Timer> {
        let mut fired = Vec::new();
        wheel.expire_into(SimTime(now), &mut fired);
        fired
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w = TimerQueue::new();
        w.schedule(SimTime(5_000_000), sid(0), TimerKind::Handshake);
        assert!(fire_all(&mut w, 4_000_000).is_empty());
        let fired = fire_all(&mut w, 5_000_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, TimerKind::Handshake);
        assert!(w.is_empty());
    }

    #[test]
    fn next_wake_guides_to_each_deadline() {
        let mut w = TimerQueue::new();
        let deadlines = [3_000_000u64, 700_000_000, 90_000_000_000];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(SimTime(d), sid(i as u32), TimerKind::Idle);
        }
        let mut fired = Vec::new();
        let mut wakes = 0;
        while let Some(t) = w.next_wake() {
            assert!(t.0 >= w.current, "wake must not run backwards");
            w.expire_into(t, &mut fired);
            wakes += 1;
            assert!(wakes < 64, "wheel must converge in bounded wakeups");
        }
        let got: Vec<u64> = fired.iter().map(|t| t.deadline.0).collect();
        assert_eq!(got, deadlines.to_vec());
    }

    #[test]
    fn equal_deadlines_fire_in_schedule_order() {
        let mut w = TimerQueue::new();
        w.schedule(SimTime(1_000), sid(7), TimerKind::Idle);
        w.schedule(SimTime(1_000), sid(3), TimerKind::Handshake);
        let fired = fire_all(&mut w, 2_000);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].kind, TimerKind::Idle);
        assert_eq!(fired[1].kind, TimerKind::Handshake);
    }

    #[test]
    fn long_deadline_cascades_down_correctly() {
        // 10 virtual minutes: starts at level 2-3, must cascade and
        // still fire at the exact tick-granularity instant.
        let mut w = TimerQueue::new();
        let deadline = 600_000_000_000u64;
        w.schedule(SimTime(deadline), sid(1), TimerKind::TicketExpiry);
        let mut fired = Vec::new();
        while let Some(t) = w.next_wake() {
            assert!(fired.is_empty());
            assert!(t.0 <= deadline);
            w.expire_into(t, &mut fired);
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].deadline.0, deadline);
        assert!(w.next_wake().is_none());
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut w = TimerQueue::new();
        let _ = fire_all(&mut w, 50_000_000);
        w.schedule(SimTime(1_000), sid(0), TimerKind::Retry);
        assert_eq!(w.next_wake(), Some(SimTime(50_000_000)));
        let fired = fire_all(&mut w, 50_000_000);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn beyond_horizon_goes_to_overflow_and_returns() {
        let mut w = TimerQueue::new();
        // ~6 virtual hours: beyond the 4.8 h wheel horizon.
        let deadline = 6 * 3600 * 1_000_000_000u64;
        w.schedule(SimTime(deadline), sid(2), TimerKind::TicketExpiry);
        assert_eq!(w.len(), 1);
        let mut fired = Vec::new();
        let mut guard = 0;
        while let Some(t) = w.next_wake() {
            w.expire_into(t, &mut fired);
            guard += 1;
            assert!(guard < 128);
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].deadline.0, deadline);
    }

    #[test]
    fn interleaved_schedules_and_expiries_stay_sorted() {
        let mut w = TimerQueue::new();
        let mut fired = Vec::new();
        for i in 0..100u64 {
            w.schedule(SimTime((i * 7 % 50) * 1_000_000 + 1), sid(i as u32), TimerKind::Idle);
        }
        w.expire_into(SimTime(50_000_000), &mut fired);
        let batch1 = fired.len();
        assert_eq!(batch1, 100);
        assert!(fired.windows(2).all(|p| p[0].deadline <= p[1].deadline));
        for i in 0..50u64 {
            w.schedule(SimTime(60_000_000 + (i * 13 % 50) * 500_000), sid(i as u32), TimerKind::Retry);
        }
        w.expire_into(SimTime(1_000_000_000), &mut fired);
        assert_eq!(fired.len(), 150);
        assert!(w.is_empty());
        assert!(fired[batch1..].windows(2).all(|p| p[0].deadline <= p[1].deadline));
    }
}
