//! The event calendar: a deterministic future-event list.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is
//! assigned at scheduling time, so simultaneous events fire in the order
//! they were scheduled — deterministic replay regardless of queue internals.
//!
//! Cancellation leaves a tombstone: the cancelled event's seq, kept until
//! its queue entry reaches the front and is dropped there. Only cancelled
//! events carry any bookkeeping, so the calendar holds O(pending) memory
//! and a pop with no tombstone queued pays one emptiness check. A cancel
//! scans the queue for its seq, O(pending): the cluster world cancels
//! only when a server goes down or a slowdown is replaced, a few hundred
//! times a run at most. The counters are derived: every scheduled event
//! is pending, fired or cancelled, so `fired` is what the other three
//! leave.
//!
//! The queue is one `std::collections::BinaryHeap` of `(time, seq)`
//! entries with payloads inline, O(log n) schedule/pop, plus one entry
//! held beside the heap. A schedule that finds that place empty fills it
//! instead of pushing; a pop takes the earlier of it and the heap top.
//! A simulation that schedules each event's successor as the first thing
//! it does after the event fires — trace replay chaining its next
//! arrival — keeps that stream in the side entry, so it never enters the
//! heap, and the heap holds only the other events. The pending set peaks
//! at a few thousand events on the benchmark workloads, where the heap's
//! constant factor beats a bucketed calendar queue — see the "Event
//! calendar" note in `EXPERIMENTS.md`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::BinaryHeap;
use std::collections::BTreeSet;

/// Handle to a scheduled event, usable to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The future-event list of a simulation.
///
/// The calendar tracks the current simulated time: popping an event
/// advances the clock to the event's timestamp. Scheduling in the past is a
/// logic error and panics in debug builds (it silently clamps to `now` in
/// release builds, which is always safe for causality).
pub struct Calendar<E> {
    /// The entry beside the heap: filled by a schedule that finds it
    /// empty, so an event scheduled right after the side entry pops
    /// skips the heap.
    side: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    /// The next seq to assign, which is also the number of events ever
    /// scheduled.
    next_seq: u64,
    /// Tombstones: the seqs of cancelled events whose entries are still
    /// queued, each dropped with its entry when that entry pops.
    dead: BTreeSet<u64>,
    cancelled: u64,
    max_pending: usize,
}

/// Lifetime statistics of a [`Calendar`], exported through the metrics
/// registry. Pure bookkeeping over the event stream — identical for a
/// traced and an untraced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Total events popped (clock-advancing fires).
    pub fired: u64,
    /// Events cancelled while still pending (tombstoned).
    pub cancelled: u64,
    /// High-water mark of simultaneously pending events.
    pub max_pending: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            side: None,
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            dead: BTreeSet::new(),
            cancelled: 0,
            max_pending: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live events still pending: the queued entries less
    /// their tombstones.
    pub fn pending(&self) -> usize {
        self.heap.len() + usize::from(self.side.is_some()) - self.dead.len()
    }

    /// Full lifetime statistics, including the pending high-water mark.
    /// Every scheduled event is pending, fired or cancelled, so the fired
    /// count is what the other three leave.
    pub fn stats(&self) -> CalendarStats {
        let scheduled = self.next_seq;
        CalendarStats {
            scheduled,
            fired: scheduled - self.pending() as u64 - self.cancelled,
            cancelled: self.cancelled,
            max_pending: self.max_pending as u64,
        }
    }

    /// Schedule `payload` at absolute time `at`. Returns a cancel handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry {
            time: at,
            seq,
            payload,
        };
        if self.side.is_none() {
            self.side = Some(e);
        } else {
            self.heap.push(e);
        }
        self.max_pending = self.max_pending.max(self.pending());
        EventHandle(seq)
    }

    /// Cancel a previously scheduled event. Returns whether the event was
    /// still pending (false if it already fired or was cancelled). Its
    /// queue entry stays, under a tombstone, until it pops; finding the
    /// entry scans the queue, O(pending).
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let queued = !self.dead.contains(&h.0)
            && self
                .side
                .iter()
                .chain(self.heap.iter())
                .any(|e| e.seq == h.0);
        if queued {
            self.dead.insert(h.0);
            self.cancelled += 1;
        }
        queued
    }

    /// Pop the earliest live event, advancing the clock to its time.
    /// Entries met on the way under a tombstone are dropped with it, from
    /// either place.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            // `Entry`'s order is reversed for the max-heap: greater is
            // earlier, and no two entries tie on `seq`.
            let e = match &self.side {
                Some(s) if self.heap.peek().is_none_or(|h| s > h) => self.side.take(),
                _ => self.heap.pop(),
            }?;
            if !self.dead.is_empty() && self.dead.remove(&e.seq) {
                continue;
            }
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            return Some((e.time, e.payload));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut c = Calendar::new();
        c.schedule(SimTime(30), "c");
        c.schedule(SimTime(10), "a");
        c.schedule(SimTime(20), "b");
        assert_eq!(c.pop(), Some((SimTime(10), "a")));
        assert_eq!(c.now(), SimTime(10));
        assert_eq!(c.pop(), Some((SimTime(20), "b")));
        assert_eq!(c.pop(), Some((SimTime(30), "c")));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut c = Calendar::new();
        for i in 0..100 {
            c.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(c.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut c = Calendar::new();
        let h = c.schedule(SimTime(10), "dead");
        c.schedule(SimTime(20), "alive");
        assert!(c.cancel(h));
        assert_eq!(c.pending(), 1);
        assert_eq!(c.pop(), Some((SimTime(20), "alive")));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn cancel_invalid_handle() {
        let mut c: Calendar<()> = Calendar::new();
        assert!(!c.cancel(EventHandle(99)));
    }

    #[test]
    fn cancel_fired_handle_is_noop() {
        let mut c = Calendar::new();
        let h = c.schedule(SimTime(1), ());
        c.schedule(SimTime(2), ());
        assert_eq!(c.pop(), Some((SimTime(1), ())));
        assert!(!c.cancel(h));
        let s = c.stats();
        assert_eq!((s.scheduled, s.fired, s.cancelled), (2, 1, 0));
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut c = Calendar::new();
        let h = c.schedule(SimTime(1), ());
        assert!(c.cancel(h));
        assert!(!c.cancel(h));
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn stats_track_cancelled_and_high_water() {
        let mut c = Calendar::new();
        let h = c.schedule(SimTime(1), ());
        c.schedule(SimTime(2), ());
        c.schedule(SimTime(3), ());
        assert!(c.cancel(h));
        assert!(!c.cancel(h), "double-cancel counts once");
        c.pop();
        let s = c.stats();
        assert_eq!(
            (s.scheduled, s.fired, s.cancelled, s.max_pending),
            (3, 1, 1, 3)
        );
    }

    #[test]
    fn cancel_side_entry() {
        // The first schedule fills the place beside the heap; cancelling
        // it leaves the heap's event to pop first.
        let mut c = Calendar::new();
        let side = c.schedule(SimTime(1), "side");
        c.schedule(SimTime(2), "heap");
        assert!(c.cancel(side));
        assert_eq!(c.pending(), 1);
        assert_eq!(c.pop(), Some((SimTime(2), "heap")));
        assert_eq!(c.pop(), None);
        assert_eq!(c.stats().cancelled, 1);
    }

    #[test]
    fn cancel_after_tombstone_popped_counts_once() {
        // The cancelled entry is dropped, with its tombstone, by the pop
        // that reaches it; a second cancel then finds neither.
        let mut c = Calendar::new();
        c.schedule(SimTime(1), "a");
        let h = c.schedule(SimTime(2), "dead");
        c.schedule(SimTime(3), "b");
        assert!(c.cancel(h));
        assert_eq!(c.pop(), Some((SimTime(1), "a")));
        assert_eq!(c.pop(), Some((SimTime(3), "b")));
        assert!(!c.cancel(h));
        let s = c.stats();
        assert_eq!((s.scheduled, s.fired, s.cancelled), (3, 2, 1));
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn fired_excludes_queued_tombstones() {
        // Two tombstones wait behind the live events: they are neither
        // pending nor fired, and stay so until their entries pop.
        let mut c = Calendar::new();
        let hs: Vec<_> = (0..5u64).map(|i| c.schedule(SimTime(i), i)).collect();
        assert!(c.cancel(hs[3]));
        assert!(c.cancel(hs[4]));
        assert_eq!(c.pop(), Some((SimTime(0), 0)));
        let s = c.stats();
        assert_eq!((s.scheduled, s.fired, s.cancelled), (5, 1, 2));
        assert_eq!(c.pending(), 2);
        assert_eq!(c.pop(), Some((SimTime(1), 1)));
        assert_eq!(c.pop(), Some((SimTime(2), 2)));
        assert_eq!(c.pop(), None);
        let s = c.stats();
        assert_eq!((s.fired, s.cancelled, s.max_pending), (3, 2, 5));
        assert_eq!(c.pending(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut c = Calendar::new();
        c.schedule(SimTime(10), ());
        c.pop();
        c.schedule(SimTime(5), ());
    }

    #[test]
    fn schedule_after_far_peek_still_pops_first() {
        // With a far-future event waiting, an event scheduled after a pop
        // must still fire first, whether it lands beside the heap ("near",
        // scheduled when that place is free) or in it ("nearer", scheduled
        // behind a far event that holds the place).
        let mut c = Calendar::new();
        c.schedule(SimTime(1), "first");
        c.schedule(SimTime(1_000_000_000), "far");
        assert_eq!(c.pop(), Some((SimTime(1), "first")));
        c.schedule(SimTime(5), "near");
        assert_eq!(c.pop(), Some((SimTime(5), "near")));
        c.schedule(SimTime(2_000_000_000), "farther");
        c.schedule(SimTime(6), "nearer");
        assert_eq!(c.pop(), Some((SimTime(6), "nearer")));
        assert_eq!(c.pop(), Some((SimTime(1_000_000_000), "far")));
        assert_eq!(c.pop(), Some((SimTime(2_000_000_000), "farther")));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn sparse_far_jumps_terminate() {
        // Events ten thousand simulated seconds apart pop in order and
        // the calendar then drains.
        let mut c = Calendar::new();
        for i in 0..10u64 {
            c.schedule(SimTime(i * 10_000_000_000), i);
        }
        for i in 0..10u64 {
            assert_eq!(c.pop(), Some((SimTime(i * 10_000_000_000), i)));
        }
        assert_eq!(c.pop(), None);
    }
}
