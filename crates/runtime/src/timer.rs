//! Per-shard deadline wheel.
//!
//! Each shard keeps one [`TimerWheel`]: a `BinaryHeap` of
//! `(deadline, node-slot)` entries with lazy invalidation. Scheduling is a
//! comparison and (at most) one heap push; the event loop polls due
//! entries once per batch and computes a single wait bound from the heap
//! head — no allocation at all on the steady-state path.

use newtop_types::Instant;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deadline wheel over a shard's node slots.
///
/// Entries are invalidated lazily: [`TimerWheel::schedule`] records the
/// authoritative deadline per slot, and heap entries that no longer match
/// it are discarded when they surface. A slot therefore has at most one
/// *live* entry, while stale ones cost O(log n) each to skip — cheap, and
/// only on deadline movement (engine deadlines are stable between events
/// of the same group).
#[derive(Debug)]
pub(crate) struct TimerWheel {
    heap: BinaryHeap<Reverse<(Instant, u32)>>,
    /// Authoritative next deadline per slot (`None` = no timer).
    current: Vec<Option<Instant>>,
}

impl TimerWheel {
    pub(crate) fn with_slots(slots: usize) -> TimerWheel {
        TimerWheel {
            heap: BinaryHeap::with_capacity(slots.max(1)),
            current: vec![None; slots],
        }
    }

    /// Makes `deadline` the slot's authoritative next fire time.
    pub(crate) fn schedule(&mut self, slot: usize, deadline: Instant) {
        if self.current[slot] == Some(deadline) {
            return; // already the live entry — the common case
        }
        self.current[slot] = Some(deadline);
        #[allow(clippy::cast_possible_truncation)]
        self.heap.push(Reverse((deadline, slot as u32)));
    }

    /// Clears the slot's timer (pending heap entries become stale).
    pub(crate) fn cancel(&mut self, slot: usize) {
        self.current[slot] = None;
    }

    /// The earliest live deadline, discarding stale heap entries.
    pub(crate) fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(&Reverse((d, slot))) = self.heap.peek() {
            if self.current[slot as usize] == Some(d) {
                return Some(d);
            }
            self.heap.pop(); // stale
        }
        None
    }

    /// Pops one slot whose live deadline is `<= now`, clearing it (the
    /// caller re-[`schedule`](TimerWheel::schedule)s from the engine's
    /// next deadline after ticking).
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<usize> {
        while let Some(&Reverse((d, slot))) = self.heap.peek() {
            let slot = slot as usize;
            if self.current[slot] != Some(d) {
                self.heap.pop(); // stale
                continue;
            }
            if d > now {
                return None;
            }
            self.heap.pop();
            self.current[slot] = None;
            return Some(slot);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::with_slots(3);
        w.schedule(0, t(30));
        w.schedule(1, t(10));
        w.schedule(2, t(20));
        assert_eq!(w.next_deadline(), Some(t(10)));
        assert_eq!(w.pop_due(t(25)), Some(1));
        assert_eq!(w.pop_due(t(25)), Some(2));
        assert_eq!(w.pop_due(t(25)), None); // slot 0 not due yet
        assert_eq!(w.next_deadline(), Some(t(30)));
    }

    #[test]
    fn reschedule_invalidates_old_entry() {
        let mut w = TimerWheel::with_slots(1);
        w.schedule(0, t(10));
        w.schedule(0, t(50)); // deadline moved later
        assert_eq!(w.pop_due(t(20)), None, "stale t=10 entry must not fire");
        assert_eq!(w.next_deadline(), Some(t(50)));
        assert_eq!(w.pop_due(t(50)), Some(0));
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn cancel_silences_slot() {
        let mut w = TimerWheel::with_slots(2);
        w.schedule(0, t(10));
        w.schedule(1, t(15));
        w.cancel(0);
        assert_eq!(w.next_deadline(), Some(t(15)));
        assert_eq!(w.pop_due(t(100)), Some(1));
        assert_eq!(w.pop_due(t(100)), None);
    }

    #[test]
    fn schedule_same_deadline_is_idempotent() {
        let mut w = TimerWheel::with_slots(1);
        for _ in 0..1000 {
            w.schedule(0, t(42));
        }
        assert!(w.heap.len() <= 1, "idempotent schedules must not grow heap");
        assert_eq!(w.pop_due(t(42)), Some(0));
        assert_eq!(w.pop_due(t(42)), None);
    }
}
