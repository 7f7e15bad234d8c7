//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence number)`: events scheduled
//! for the same instant pop in the order they were scheduled, which makes
//! every simulation run bit-for-bit reproducible regardless of payload
//! type. Events can be cancelled cheaply by token.
//!
//! Inside, the heaps hold 24-byte `(time, seq, slot)` keys and the
//! payloads sit still in a slab, so a sift moves keys only. Keys are
//! split over two heaps by how far ahead of `now` they were scheduled:
//! the handful of hardware events that make up a simulation's working
//! set never sift past thousands of timers parked for later. Which heap
//! a key sits in never affects the order of pops — the head is always
//! the smaller of the two tops.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A key scheduled further ahead of `now` than this waits in the cold
/// heap. Chosen from the scheduling-distance histogram of a 1000-node
/// open-loop run (DESIGN.md, "Event queue"): 99.86 % of schedules —
/// every hardware event and CPU deferral — land within 2^16 ns, the
/// pre-scheduled arrivals at 2^18 ns and beyond, and nothing in between.
const HORIZON: SimDuration = SimDuration::from_nanos(1 << 17);

/// Identifies a scheduled event so it can be cancelled.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventToken {
    seq: u64,
    slot: u32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One slab cell. A cell belongs to the key carrying its `seq` from
/// `schedule_at` until that key leaves its heap; `payload` is `None`
/// once the event was cancelled (the key is still in a heap and frees
/// the cell when it surfaces) or while the cell is on the free list.
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A deterministic priority queue of timed events carrying payloads of
/// type `E`.
///
/// The queue also tracks the current virtual time: [`EventQueue::pop`]
/// advances the clock to the popped event's timestamp. Scheduling an event
/// in the past is a bug and panics.
///
/// # Examples
///
/// ```
/// use simnet::{EventQueue, SimDuration};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(SimDuration::from_micros(5), "late");
/// q.schedule_in(SimDuration::from_micros(1), "early");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(ev, "early");
/// assert_eq!(t.as_nanos(), 1_000);
/// ```
pub struct EventQueue<E> {
    /// Keys scheduled within [`HORIZON`] of `now`, and every key that has
    /// been the head.
    hot: BinaryHeap<Key>,
    /// Keys scheduled further ahead; each crosses to `hot` once, when it
    /// becomes the head.
    cold: BinaryHeap<Key>,
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Pending (non-cancelled) events.
    live: usize,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            hot: BinaryHeap::new(),
            cold: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current virtual time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?}, now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let cell = Slot {
            seq,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = cell;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("too many pending events");
                self.slab.push(cell);
                slot
            }
        };
        self.live += 1;
        let key = Key {
            time: at,
            seq,
            slot,
        };
        if at.since(self.now) > HORIZON {
            self.cold.push(key);
        } else {
            self.hot.push(key);
        }
        EventToken { seq, slot }
    }

    /// Schedules `payload` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventToken {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event. Cancelling an event that
    /// already fired (or was already cancelled) is a silent no-op, also
    /// when its slab cell has since been reused: the cell's `seq` no
    /// longer matches the token's.
    pub fn cancel(&mut self, token: EventToken) {
        let Some(cell) = self.slab.get_mut(token.slot as usize) else {
            return;
        };
        if cell.seq == token.seq && cell.payload.take().is_some() {
            self.live -= 1;
        }
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        self.hot.peek().map(|k| k.time)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let key = self.hot.pop()?;
        Some(self.fire(key))
    }

    /// Pops the earliest event unless `defer` sends it back: `defer` sees
    /// the head's timestamp and payload and may return a later instant,
    /// in which case the event stays queued for that instant behind
    /// everything already scheduled there — exactly [`EventQueue::pop`]
    /// followed by [`EventQueue::schedule_at`] (the clock advances, the
    /// event gets a fresh sequence number, its old token goes stale), for
    /// one sift and no payload move.
    ///
    /// Returns `None` when the queue is empty, `Some((t, None))` when the
    /// head at `t` was deferred, and `Some((t, Some(payload)))` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `defer` returns an instant before the head's timestamp.
    pub fn pop_or_defer(
        &mut self,
        defer: impl FnOnce(SimTime, &E) -> Option<SimTime>,
    ) -> Option<(SimTime, Option<E>)> {
        self.settle();
        let mut head = self.hot.peek_mut()?;
        let t = head.time;
        let cell = &mut self.slab[head.slot as usize];
        let payload = cell.payload.as_ref().expect("settled head is live");
        let Some(at) = defer(t, payload) else {
            let key = PeekMut::pop(head);
            return Some((t, Some(self.fire(key).1)));
        };
        assert!(
            at >= t,
            "deferred event into the past: at={at:?}, now={t:?}"
        );
        debug_assert!(t >= self.now);
        self.now = t;
        cell.seq = self.next_seq;
        head.seq = self.next_seq;
        head.time = at;
        self.next_seq += 1;
        Some((t, None))
    }

    /// All pending events due at the earliest timestamp, as `(seq,
    /// payload)` pairs sorted by sequence number (the default pop
    /// order). The sequence numbers are stable identifiers: an entry
    /// keeps its seq until popped, so callers can enumerate a
    /// same-instant burst, decide an order, and retrieve specific
    /// events with [`EventQueue::pop_seq`].
    ///
    /// Returns an empty vector when the queue is empty.
    pub fn peek_due(&mut self) -> Vec<(u64, &E)> {
        let Some(head) = self.gather_due() else {
            return Vec::new();
        };
        let mut due: Vec<(u64, &E)> = self
            .hot
            .iter()
            .filter(|k| k.time == head)
            .filter_map(|k| Some((k.seq, self.slab[k.slot as usize].payload.as_ref()?)))
            .collect();
        due.sort_by_key(|&(seq, _)| seq);
        due
    }

    /// Pops the event with the given sequence number, which must be due
    /// at the earliest pending timestamp (i.e. one of the entries
    /// reported by [`EventQueue::peek_due`]). Advances the clock to its
    /// timestamp. Other same-instant entries keep their original
    /// sequence numbers, so the residual pop order is unchanged.
    ///
    /// Returns `None` if no due event carries `seq`.
    pub fn pop_seq(&mut self, seq: u64) -> Option<(SimTime, E)> {
        let head = self.gather_due()?;
        let mut displaced = Vec::new();
        let mut found = None;
        while let Some(key) = self.hot.pop() {
            if self.slab[key.slot as usize].payload.is_none() {
                self.free.push(key.slot);
                continue;
            }
            if key.time != head {
                // Ran past the due instant without finding `seq`.
                displaced.push(key);
                break;
            }
            if key.seq == seq {
                found = Some(key);
                break;
            }
            displaced.push(key);
        }
        self.hot.extend(displaced);
        Some(self.fire(found?))
    }

    /// Takes the payload of a live key that has just left `hot`, frees
    /// its cell and advances the clock.
    fn fire(&mut self, key: Key) -> (SimTime, E) {
        let payload = self.slab[key.slot as usize]
            .payload
            .take()
            .expect("fired key is live");
        self.free.push(key.slot);
        self.live -= 1;
        debug_assert!(key.time >= self.now);
        self.now = key.time;
        (key.time, payload)
    }

    /// Establishes the head: afterwards the top of `hot` is the earliest
    /// live key of both heaps, or both heaps are empty. A cold key that
    /// has become the earliest crosses over; a cancelled key surfacing
    /// at the head is dropped and its cell freed.
    fn settle(&mut self) {
        loop {
            if let Some(&c) = self.cold.peek() {
                // `Key`'s order is inverted for the max-heap: greater is earlier.
                if self.hot.peek().is_none_or(|h| c > *h) {
                    self.cold.pop();
                    self.hot.push(c);
                }
            }
            match self.hot.peek() {
                Some(h) if self.slab[h.slot as usize].payload.is_none() => {
                    self.free.push(h.slot);
                    self.hot.pop();
                }
                _ => return,
            }
        }
    }

    /// Settles, then moves every cold key due at the head instant into
    /// `hot`, so the due set is complete in one heap. Returns the head
    /// instant.
    fn gather_due(&mut self) -> Option<SimTime> {
        self.settle();
        let head = self.hot.peek()?.time;
        while let Some(c) = self.cold.peek().copied().filter(|c| c.time == head) {
            self.cold.pop();
            self.hot.push(c);
        }
        Some(head)
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        q.schedule_at(t, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_micros(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_nanos(2_000));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut q = EventQueue::new();
        let keep = q.schedule_at(SimTime::from_nanos(1), "keep");
        let drop = q.schedule_at(SimTime::from_nanos(2), "drop");
        let _ = keep;
        q.cancel(drop);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "keep");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        assert_eq!(q.len(), 1);
        q.pop().unwrap();
        assert_eq!(q.len(), 0);
        q.cancel(a);
        assert!(q.is_empty());
        // B reuses A's slab cell; A's stale token must not reach it.
        let b = q.schedule_at(SimTime::from_nanos(2), "b");
        assert_eq!(b.slot, a.slot);
        assert_eq!(q.len(), 1);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_due_reports_same_instant_burst() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        q.schedule_at(SimTime::from_nanos(9), "later");
        let due: Vec<(u64, &&str)> = q.peek_due();
        assert_eq!(due.len(), 2);
        assert_eq!(*due[0].1, "a");
        assert_eq!(*due[1].1, "b");
        assert!(due[0].0 < due[1].0);
    }

    #[test]
    fn pop_seq_reorders_without_disturbing_rest() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        q.schedule_at(t, "c");
        let due = q.peek_due();
        let b_seq = due[1].0;
        assert_eq!(q.pop_seq(b_seq).unwrap().1, "b");
        // Remaining events keep their original relative order.
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn pop_seq_skips_cancelled_and_misses_later_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        let tok = q.schedule_at(t, "cancelled");
        q.schedule_at(t, "live");
        let late = q.schedule_at(SimTime::from_nanos(9), "late");
        q.cancel(tok);
        // Seqs of events beyond the due instant are not poppable.
        assert!(q.pop_seq(late.seq).is_none());
        let live_seq = {
            let due = q.peek_due();
            assert_eq!(due.len(), 1);
            due[0].0
        };
        assert_eq!(q.pop_seq(live_seq).unwrap().1, "live");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let early = q.schedule_at(SimTime::from_nanos(1), ());
        q.schedule_at(SimTime::from_nanos(9), ());
        q.cancel(early);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }
}
