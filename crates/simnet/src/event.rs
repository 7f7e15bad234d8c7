//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence number)`: events scheduled
//! for the same instant pop in the order they were scheduled, which makes
//! every simulation run bit-for-bit reproducible regardless of payload
//! type. Events can be cancelled cheaply by token.
//!
//! Inside, it is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990)
//! keyed on the event's nanosecond, which fits because virtual time never
//! runs backwards. The base is `now`: bucket 0 holds the events at `now`,
//! and bucket `b ≥ 1` the events whose time first differs from `now` at
//! bit `b - 1`, so every time in a bucket is below every time in the
//! next. Each bucket is a FIFO list threaded through a 16-byte link per
//! slab cell; the payloads never move. Pops come out in exactly
//! `(time, seq)` order:
//!
//! - equal times always share a bucket;
//! - a push appends, and it carries the newest seq;
//! - a pop that finds bucket 0 empty moves the base to the least time of
//!   the lowest bucket and relinks that bucket in order, appending each
//!   event to the empty lower bucket it now belongs to.
//!
//! So the events of one instant stay in seq order within their bucket,
//! and the head of bucket 0 is the earliest `(time, seq)`. Only a pop
//! moves the base: a peek finds the head without moving anything, so an
//! event may still be scheduled anywhere in `[now, head)` after it.

use crate::time::{SimDuration, SimTime};

/// The end of a list.
const NIL: u32 = u32::MAX;

/// Bucket 0, then one per bit of a nanosecond.
const BUCKETS: usize = 1 + u64::BITS as usize;

/// Identifies a scheduled event so it can be cancelled.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventToken {
    seq: u64,
    slot: u32,
}

/// Where a slab cell's event waits: its instant and the next cell of its
/// bucket (or of the free list). `live` is false once the event was
/// cancelled (it stays linked and is freed when it surfaces) and while
/// the cell is free, so a bucket walk never reads a payload.
#[derive(Clone, Copy)]
struct Link {
    time: SimTime,
    next: u32,
    live: bool,
}

/// One slab cell: the payload and the seq of the event holding it. A
/// stale token's seq no longer matches.
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A FIFO list of cells; `tail` means something only while `head` does.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// The bucket of an event at `t` while the base is `base`.
fn bucket(base: SimTime, t: SimTime) -> usize {
    (u64::BITS - (t.as_nanos() ^ base.as_nanos()).leading_zeros()) as usize
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
    buckets: [List; BUCKETS],
    /// Bit `b - 1` is set while bucket `b ≥ 1` is non-empty.
    mask: u64,
    links: Vec<Link>,
    slab: Vec<Slot<E>>,
    /// The free cells, threaded through `Link::next`.
    free: u32,
    /// Pending (non-cancelled) events.
    pending: usize,
    /// The base of the buckets: the timestamp of the last pop.
    now: SimTime,
    next_seq: u64,
    /// The earliest pending time once a peek has walked the lowest bucket
    /// for it, so the pop after a peek walks that bucket once. A push
    /// before it lowers it; a pop, or a cancel at that time, forgets it.
    least: Option<SimTime>,
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
            buckets: [EMPTY; BUCKETS],
            mask: 0,
            links: Vec::new(),
            slab: Vec::new(),
            free: NIL,
            pending: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            least: None,
        }
    }

    /// The current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
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
        let link = Link {
            time: at,
            next: NIL,
            live: true,
        };
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.slab.len())
                .ok()
                .filter(|&slot| slot != NIL)
                .expect("too many pending events");
            self.slab.push(cell);
            self.links.push(link);
            slot
        } else {
            let slot = self.free;
            self.free = self.links[slot as usize].next;
            self.slab[slot as usize] = cell;
            self.links[slot as usize] = link;
            slot
        };
        self.pending += 1;
        self.append(slot);
        if self.least.is_some_and(|least| at < least) {
            self.least = Some(at);
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
            let link = &mut self.links[token.slot as usize];
            link.live = false;
            self.pending -= 1;
            if self.least == Some(link.time) {
                self.least = None;
            }
        }
    }

    /// Timestamp of the next pending event without popping it. Never
    /// moves the clock, so an event can still be scheduled before it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let first = self.buckets[0].head;
            if first != NIL {
                if self.links[first as usize].live {
                    return Some(self.now);
                }
                self.buckets[0].head = self.links[first as usize].next;
                self.release(first);
                continue;
            }
            if self.least.is_some() || self.mask == 0 {
                return self.least;
            }
            let b = self.mask.trailing_zeros() as usize + 1;
            self.least = self
                .walk(b)
                .map(|i| self.links[i as usize])
                .filter(|link| link.live)
                .map(|link| link.time)
                .min();
            if self.least.is_none() {
                // Only cancelled events: free them.
                self.relink(b);
            }
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = self.settle()?;
        self.buckets[0].head = self.links[head as usize].next;
        Some((self.now, self.fire(head)))
    }

    /// Pops the earliest event unless `defer` sends it back: `defer` sees
    /// the head's timestamp and payload and may return a later instant,
    /// in which case the event stays queued for that instant behind
    /// everything already scheduled there — exactly [`EventQueue::pop`]
    /// followed by [`EventQueue::schedule_at`] (the clock advances, the
    /// event gets a fresh sequence number, its old token goes stale), for
    /// one relink and no payload move.
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
        let head = self.settle()?;
        let t = self.now;
        let cell = &mut self.slab[head as usize];
        let payload = cell.payload.as_ref().expect("settled head is live");
        let Some(at) = defer(t, payload) else {
            self.buckets[0].head = self.links[head as usize].next;
            return Some((t, Some(self.fire(head))));
        };
        assert!(
            at >= t,
            "deferred event into the past: at={at:?}, now={t:?}"
        );
        cell.seq = self.next_seq;
        self.next_seq += 1;
        self.buckets[0].head = self.links[head as usize].next;
        self.links[head as usize].time = at;
        self.append(head);
        self.least = None;
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
        let Some(t) = self.peek_time() else {
            return Vec::new();
        };
        let due: Vec<(u64, &E)> = self
            .walk(bucket(self.now, t))
            .filter(|&i| self.links[i as usize].time == t)
            .filter_map(|i| {
                let cell = &self.slab[i as usize];
                Some((cell.seq, cell.payload.as_ref()?))
            })
            .collect();
        debug_assert!(due.is_sorted_by_key(|&(seq, _)| seq));
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
        if !self.peek_due().iter().any(|&(due, _)| due == seq) {
            return None;
        }
        // Bucket 0 now holds the due set: relink it without `seq`.
        self.settle();
        let mut i = std::mem::replace(&mut self.buckets[0], EMPTY).head;
        let mut found = NIL;
        while i != NIL {
            let next = self.links[i as usize].next;
            if self.slab[i as usize].seq == seq {
                found = i;
            } else {
                self.append(i);
            }
            i = next;
        }
        Some((self.now, self.fire(found)))
    }

    /// The cells of bucket `b`, in order.
    fn walk(&self, b: usize) -> impl Iterator<Item = u32> + '_ {
        let first = self.buckets[b].head;
        std::iter::successors((first != NIL).then_some(first), |&i| {
            let next = self.links[i as usize].next;
            (next != NIL).then_some(next)
        })
    }

    /// Moves the base to the earliest pending time, so that bucket 0
    /// holds every event due then, and returns the live cell at its head.
    fn settle(&mut self) -> Option<u32> {
        let t = self.peek_time()?;
        if t != self.now {
            let b = bucket(self.now, t);
            debug_assert_eq!(self.mask.trailing_zeros() as usize, b - 1);
            self.now = t;
            self.relink(b);
        }
        Some(self.buckets[0].head)
    }

    /// Empties bucket `b ≥ 1` in order, appending each live cell to the
    /// bucket of its time (after the base moved, a lower one) and freeing
    /// the cancelled ones.
    fn relink(&mut self, b: usize) {
        let mut i = std::mem::replace(&mut self.buckets[b], EMPTY).head;
        self.mask &= !(1 << (b - 1));
        while i != NIL {
            let Link { next, live, .. } = self.links[i as usize];
            if live {
                self.append(i);
            } else {
                self.release(i);
            }
            i = next;
        }
    }

    /// Appends cell `i` to the bucket of its time.
    fn append(&mut self, i: u32) {
        let link = &mut self.links[i as usize];
        link.next = NIL;
        let b = bucket(self.now, link.time);
        let list = &mut self.buckets[b];
        if list.head == NIL {
            list.head = i;
            if b > 0 {
                self.mask |= 1 << (b - 1);
            }
        } else {
            self.links[list.tail as usize].next = i;
        }
        list.tail = i;
    }

    /// Takes the payload of a live cell that has just left bucket 0 and
    /// frees the cell.
    fn fire(&mut self, i: u32) -> E {
        let payload = self.slab[i as usize]
            .payload
            .take()
            .expect("fired event is live");
        self.links[i as usize].live = false;
        self.release(i);
        self.pending -= 1;
        self.least = None;
        payload
    }

    /// Puts a dead cell that has left its bucket on the free list.
    fn release(&mut self, i: u32) {
        self.links[i as usize].next = self.free;
        self.free = i;
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

    #[test]
    fn peeks_never_move_the_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), "first");
        q.pop().unwrap();
        q.schedule_at(SimTime::from_nanos(1_000), "head");
        let later = q.schedule_at(SimTime::from_nanos(2_000), "later");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_000)));
        assert_eq!(q.peek_due().len(), 1);
        assert!(q.pop_seq(later.seq).is_none());
        assert_eq!(q.now(), SimTime::from_nanos(10));
        // What a peek saw is still open: an event between `now` and the
        // peeked head goes ahead of it.
        q.schedule_at(SimTime::from_nanos(500), "between");
        let order: Vec<(u64, &str)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        assert_eq!(order, [(500, "between"), (1_000, "head"), (2_000, "later")]);
    }

    #[test]
    fn equal_times_keep_schedule_order_across_moves() {
        // Every stone shares `far`'s bucket until it pops, so each pop
        // moves `far` down a bucket: to 31, 21, 11 and 1.
        let far = (1u64 << 40) - 1;
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(far), "far");
        for bit in [30, 20, 10, 0] {
            q.schedule_at(SimTime::from_nanos(far - (1 << bit)), "stone");
        }
        for _ in 0..4 {
            assert_eq!(q.pop().unwrap().1, "stone");
        }
        // Joins `far` in bucket 1, behind it; one more move takes both to
        // bucket 0.
        q.schedule_at(SimTime::from_nanos(far), "same instant");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), "far")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), "same instant")));
    }
}
