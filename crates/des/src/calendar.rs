//! The event calendar: a deterministic future-event list.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is
//! assigned at scheduling time, so simultaneous events fire in the order
//! they were scheduled — deterministic replay regardless of queue internals.
//! Cancellation is supported through tombstones (the handle marks the entry
//! dead; the queue lazily discards dead entries on pop), which is O(1) and
//! keeps the hot path allocation-free.
//!
//! Liveness is tracked in a bit vector indexed by sequence number: one bit
//! test-and-clear per schedule/cancel/pop, instead of an ordered-set
//! insert/remove on the per-event path. Sequence numbers are dense (they
//! count up from zero), so the bitmap stays compact — one bit per event
//! ever scheduled — and the pop order is exactly the `(time, seq)` total
//! order regardless of the bookkeeping structure.
//!
//! The queue itself is one `std::collections::BinaryHeap` of `(time, seq)`
//! entries with payloads inline: O(log n) schedule/pop. The pending set
//! peaks at a few thousand events on the benchmark workloads, where the
//! heap's constant factor beats a bucketed calendar queue — see the
//! "Event calendar" note in `EXPERIMENTS.md`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::BinaryHeap;

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

/// Is `seq`'s liveness bit still set?
#[inline]
fn bit_is_live(live: &[u64], seq: u64) -> bool {
    let (word, bit) = (seq as usize / 64, seq % 64);
    live.get(word).is_some_and(|w| w & (1 << bit) != 0)
}

/// The future-event list of a simulation.
///
/// The calendar tracks the current simulated time: popping an event
/// advances the clock to the event's timestamp. Scheduling in the past is a
/// logic error and panics in debug builds (it silently clamps to `now` in
/// release builds, which is always safe for causality).
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    /// One liveness bit per seq ever assigned: set while the event is
    /// scheduled and neither fired nor cancelled.
    live: Vec<u64>,
    /// Number of set bits in `live`.
    live_count: usize,
    scheduled: u64,
    fired: u64,
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
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            live: Vec::new(),
            live_count: 0,
            scheduled: 0,
            fired: 0,
            cancelled: 0,
            max_pending: 0,
        }
    }

    /// Test-and-clear the liveness bit for `seq`. Returns whether it was
    /// set (i.e. the event was still pending).
    #[inline]
    fn take_live(&mut self, seq: u64) -> bool {
        let (word, bit) = (seq as usize / 64, seq % 64);
        match self.live.get_mut(word) {
            Some(w) if *w & (1 << bit) != 0 => {
                *w &= !(1 << bit);
                self.live_count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live events still pending.
    pub fn pending(&self) -> usize {
        self.live_count
    }

    /// Is the calendar exhausted?
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Full lifetime statistics, including the pending high-water mark.
    pub fn stats(&self) -> CalendarStats {
        CalendarStats {
            scheduled: self.scheduled,
            fired: self.fired,
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
        self.scheduled += 1;
        let word = seq as usize / 64;
        if word >= self.live.len() {
            self.live.resize(word + 1, 0);
        }
        self.live[word] |= 1 << (seq % 64);
        self.live_count += 1;
        self.max_pending = self.max_pending.max(self.live_count);
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
        EventHandle(seq)
    }

    /// Cancel a previously scheduled event. Returns whether the event was
    /// still pending (false if it already fired or was cancelled). The
    /// queue entry becomes a tombstone, lazily discarded on pop.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let was_live = self.take_live(h.0);
        self.cancelled += u64::from(was_live);
        was_live
    }

    /// Pop the earliest live event, advancing the clock to its time.
    /// Tombstones met on the way are dropped.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(e) = self.heap.pop() {
            if self.take_live(e.seq) {
                debug_assert!(e.time >= self.now);
                self.now = e.time;
                self.fired += 1;
                return Some((e.time, e.payload));
            }
        }
        None
    }

    /// Peek at the time of the earliest live event without popping.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(e) = self.heap.peek() {
            if bit_is_live(&self.live, e.seq) {
                return Some(e.time);
            }
            self.heap.pop(); // tombstoned by a cancel
        }
        None
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
        c.pop();
        assert!(!c.cancel(h));
        assert_eq!(c.pending(), 0);
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
    fn peek_skips_tombstones() {
        let mut c = Calendar::new();
        let h = c.schedule(SimTime(10), 1);
        c.schedule(SimTime(20), 2);
        c.cancel(h);
        assert_eq!(c.peek_time(), Some(SimTime(20)));
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
    fn is_empty_accounts_for_dead() {
        let mut c = Calendar::new();
        let h = c.schedule(SimTime(1), ());
        assert!(!c.is_empty());
        c.cancel(h);
        assert!(c.is_empty());
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
        // Peeking at a far-future event must not hide an earlier event
        // scheduled after the peek.
        let mut c = Calendar::new();
        c.schedule(SimTime(1), "first");
        c.schedule(SimTime(1_000_000_000), "far");
        assert_eq!(c.pop(), Some((SimTime(1), "first")));
        assert_eq!(c.peek_time(), Some(SimTime(1_000_000_000)));
        c.schedule(SimTime(5), "near");
        assert_eq!(c.pop(), Some((SimTime(5), "near")));
        assert_eq!(c.pop(), Some((SimTime(1_000_000_000), "far")));
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
