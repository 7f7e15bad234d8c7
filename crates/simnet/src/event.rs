//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence number)`: events scheduled
//! for the same instant pop in the order they were scheduled, which makes
//! every simulation run bit-for-bit reproducible regardless of payload
//! type. Events can be cancelled cheaply by token.
//!
//! Inside, it is a timing wheel with one FIFO list per nanosecond of the
//! window `[now, now + SPAN)`: list `t % SPAN` holds the events at `t`,
//! threaded through a link inside each slab cell, beside the payload, so
//! payloads never move.
//! A two-level occupancy bitmap finds the earliest non-empty list. An
//! event at or beyond `now + SPAN` when it is queued waits in one far heap.
//! When a pop moves `now`, every far event that now falls inside the
//! window moves, in `(time, seq)` order, to the tail of its list, before
//! anything can be scheduled straight to its instant (which needs the
//! instant inside the window). A push appends with the newest seq, so each
//! list is in seq order, pops come out in exactly `(time, seq)` order,
//! nothing is ever relinked, and the head is a bit scan away. Only a pop
//! moves `now`: a peek finds the head without moving anything, so an event
//! may still be scheduled anywhere in `[now, head)` after it.

use std::{cmp::Reverse, collections::BinaryHeap};

use crate::time::{SimDuration, SimTime};

/// The end of a list: cell 0 is never an event's.
const NIL: u32 = 0;

/// The wheel's window, in nanoseconds: 99.7 % of the delays the fabric
/// schedules are shorter.
const SPAN: u64 = 1 << 15;

/// Identifies a scheduled event so it can be cancelled.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventToken {
    seq: u64,
    slot: u32,
}

/// One slab cell: the seq of the event holding it (a stale token's no
/// longer matches), the next cell of its list (or of the free list), and
/// its payload, gone while the cell is free and once the event is
/// cancelled (it stays queued until it surfaces or migrates).
struct Slot<E> {
    seq: u64,
    next: u32,
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
    /// `[head, tail]` of list `t % SPAN`, the events at `t` (`tail` only
    /// while `head` is set); zeroed, so empty, by the first schedule.
    wheel: Vec<[u32; 2]>,
    /// Bit `l % 64` of word `l / 64` is set while list `l` is non-empty.
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set while word `w` is non-zero.
    summary: [u64; SPAN as usize / 4096],
    /// The events at or beyond `now + SPAN` when they were queued, keyed
    /// `(time, cell)`. Each is `now + SPAN` or later after every pop.
    far: BinaryHeap<Reverse<(SimTime, u32)>>,
    slab: Vec<Slot<E>>,
    /// The head of the free list.
    free: u32,
    /// Pending (non-cancelled) events.
    pending: usize,
    /// The start of the window: the timestamp of the last pop.
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
            wheel: Vec::new(),
            words: Vec::new(),
            summary: [0; SPAN as usize / 4096],
            far: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            pending: 0,
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
            next: NIL,
            payload: Some(payload),
        };
        let slot = if self.free == NIL {
            if self.slab.is_empty() {
                // Cell 0 is `NIL`, never queued; zeroed lists are empty.
                self.wheel = vec![[NIL; 2]; SPAN as usize];
                self.words = vec![0; SPAN as usize / 64];
                self.slab.push(Slot {
                    seq,
                    next: NIL,
                    payload: None,
                });
            }
            let slot = u32::try_from(self.slab.len()).expect("too many pending events");
            self.slab.push(cell);
            slot
        } else {
            let slot = self.free;
            self.free = self.slab[slot as usize].next;
            self.slab[slot as usize] = cell;
            slot
        };
        self.pending += 1;
        self.queue(slot, at);
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
            self.pending -= 1;
        }
    }

    /// Timestamp of the next pending event without popping it. Never
    /// moves the clock, so an event can still be scheduled before it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // The window runs from `now`'s list round to the one before it.
        let start = (self.now.as_nanos() % SPAN) as usize;
        while let Some(l) = self.first_from(start).or_else(|| self.first_from(0)) {
            if self.slab[self.wheel[l][0] as usize].payload.is_some() {
                let ahead = (l as u64).wrapping_sub(self.now.as_nanos()) % SPAN;
                return Some(self.now + SimDuration::from_nanos(ahead));
            }
            let dead = self.take_head(l);
            self.release(dead);
        }
        while let Some(&Reverse((t, i))) = self.far.peek() {
            if self.slab[i as usize].payload.is_some() {
                return Some(t);
            }
            self.far.pop();
            self.release(i);
        }
        None
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = self.settle().map(|l| self.take_head(l))?;
        Some((self.now, self.fire(head)))
    }

    /// Pops the earliest event unless `defer` sends it back: `defer` sees
    /// the head's timestamp and payload and may return a later instant,
    /// in which case the event stays queued for that instant behind
    /// everything already scheduled there — exactly [`EventQueue::pop`]
    /// followed by [`EventQueue::schedule_at`] (the clock advances, the
    /// event gets a fresh sequence number, its old token goes stale), for
    /// an unlink and an append and no payload move.
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
        let head = self.settle().map(|l| self.take_head(l))?;
        let t = self.now;
        let cell = &mut self.slab[head as usize];
        let payload = cell.payload.as_ref().expect("settled head is live");
        let Some(at) = defer(t, payload) else {
            return Some((t, Some(self.fire(head))));
        };
        assert!(
            at >= t,
            "deferred event into the past: at={at:?}, now={t:?}"
        );
        cell.seq = self.next_seq;
        self.next_seq += 1;
        self.queue(head, at);
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
        let cells: Vec<u32> = if t.as_nanos() - self.now.as_nanos() < SPAN {
            let first = self.wheel[(t.as_nanos() % SPAN) as usize][0];
            std::iter::successors(Some(first), |&i| {
                Some(self.slab[i as usize].next).filter(|&next| next != NIL)
            })
            .collect()
        } else {
            // Still in the far heap, where nothing else is as early.
            let mut far: Vec<_> = self
                .far
                .iter()
                .filter(|e| e.0 .0 == t)
                .map(|e| e.0 .1)
                .collect();
            far.sort_unstable_by_key(|&i| self.slab[i as usize].seq);
            far
        };
        let due: Vec<(u64, &E)> = cells
            .into_iter()
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
        // List `l` now holds the due set: rebuild it without `seq`.
        let l = self.settle()?;
        let mut i = std::mem::replace(&mut self.wheel[l], [NIL; 2])[0];
        self.unmark(l);
        let mut found = NIL;
        while i != NIL {
            let next = self.slab[i as usize].next;
            if self.slab[i as usize].seq == seq {
                found = i;
            } else {
                self.append(i, l);
            }
            i = next;
        }
        Some((self.now, self.fire(found)))
    }

    /// Moves the clock to the earliest pending time, bringing far events
    /// into the window, and returns that instant's list (its head is live).
    fn settle(&mut self) -> Option<usize> {
        let t = self.peek_time()?;
        if t != self.now {
            self.now = t;
            let mut run = Vec::new();
            while let Some(&Reverse((at, _))) = self.far.peek() {
                if at.as_nanos() - t.as_nanos() >= SPAN {
                    break;
                }
                while let Some(&Reverse((_, i))) = self.far.peek().filter(|e| e.0 .0 == at) {
                    self.far.pop();
                    run.push(i);
                }
                // A run of equal times leaves the heap in cell order.
                run.sort_unstable_by_key(|&i| self.slab[i as usize].seq);
                for i in run.drain(..) {
                    if self.slab[i as usize].payload.is_some() {
                        self.append(i, (at.as_nanos() % SPAN) as usize);
                    } else {
                        self.release(i);
                    }
                }
            }
        }
        Some((t.as_nanos() % SPAN) as usize)
    }

    /// Queues cell `i`, due at `at`: at the tail of its instant's list
    /// inside the window, in the far heap beyond it.
    fn queue(&mut self, i: u32, at: SimTime) {
        if at.as_nanos() - self.now.as_nanos() < SPAN {
            self.append(i, (at.as_nanos() % SPAN) as usize);
        } else {
            self.far.push(Reverse((at, i)));
        }
    }

    /// Appends cell `i` to list `l`.
    fn append(&mut self, i: u32, l: usize) {
        self.slab[i as usize].next = NIL;
        let list = &mut self.wheel[l];
        if list[0] == NIL {
            *list = [i; 2];
            self.words[l / 64] |= 1 << (l % 64);
            self.summary[l / 4096] |= 1 << (l / 64 % 64);
        } else {
            let tail = std::mem::replace(&mut list[1], i);
            self.slab[tail as usize].next = i;
        }
    }

    /// Takes the head off non-empty list `l` and returns it.
    fn take_head(&mut self, l: usize) -> u32 {
        let head = self.wheel[l][0];
        self.wheel[l][0] = self.slab[head as usize].next;
        if self.wheel[l][0] == NIL {
            self.unmark(l);
        }
        head
    }

    /// Clears the occupancy bit of list `l`, which has just emptied.
    fn unmark(&mut self, l: usize) {
        let word = &mut self.words[l / 64];
        *word &= !(1 << (l % 64));
        if *word == 0 {
            self.summary[l / 4096] &= !(1 << (l / 64 % 64));
        }
    }

    /// The first non-empty list at or after list `l`.
    fn first_from(&self, l: usize) -> Option<usize> {
        // Unallocated words hold no list.
        let bits = self.words.get(l / 64).map_or(0, |&word| word >> (l % 64));
        if bits != 0 {
            return Some(l + bits.trailing_zeros() as usize);
        }
        let w = l / 64 + 1;
        let mut mask = !0 << (w % 64);
        for s in w / 64..self.summary.len() {
            let bits = self.summary[s] & mask;
            if bits != 0 {
                let w = s * 64 + bits.trailing_zeros() as usize;
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// Takes the payload of a live cell that has just left its list and
    /// frees the cell.
    fn fire(&mut self, i: u32) -> E {
        let payload = self.slab[i as usize].payload.take();
        self.release(i);
        self.pending -= 1;
        payload.expect("fired event is live")
    }

    /// Puts a dead cell that has left its list on the free list.
    fn release(&mut self, i: u32) {
        self.slab[i as usize].next = self.free;
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
    fn far_events_migrate_ahead_of_direct_inserts_and_free_the_cancelled() {
        let (at, far) = (SimTime::from_nanos, 3 * SPAN);
        let mut q = EventQueue::new();
        let dead = q.schedule_at(at(far - 1), "dead");
        q.schedule_at(at(far), "far");
        q.schedule_at(at(2 * SPAN + 7), "stone");
        q.cancel(dead);
        // Popping the stone brings `far` into the window ahead of direct
        // inserts at its instant, and frees `dead`'s cell for reuse.
        assert_eq!(q.pop(), Some((at(2 * SPAN + 7), "stone")));
        assert!(q.far.is_empty());
        q.schedule_at(at(far), "late");
        q.schedule_at(at(far - 1), "early");
        assert_eq!(q.slab.len(), 1 + 3);
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        assert_eq!(order, [(far - 1, "early"), (far, "far"), (far, "late")]);
    }

    /// The cells on the free list, in the order they will be reused.
    fn free_cells<E>(q: &EventQueue<E>) -> Vec<u32> {
        let first = Some(q.free).filter(|&i| i != NIL);
        std::iter::successors(first, |&i| {
            Some(q.slab[i as usize].next).filter(|&n| n != NIL)
        })
        .take(q.slab.len())
        .collect()
    }

    #[test]
    fn released_cells_are_reused_without_stale_links() {
        let at = SimTime::from_nanos;
        let mut q = EventQueue::new();
        // A cancelled head that still links to a successor is released by
        // a peek, and its cell is the next one scheduled.
        let dead = q.schedule_at(at(10), "dead");
        q.schedule_at(at(10), "next");
        q.cancel(dead);
        assert_eq!(q.peek_time(), Some(at(10)));
        assert_eq!(free_cells(&q), [dead.slot]);
        let reused = q.schedule_at(at(20), "reused");
        assert_eq!(reused.slot, dead.slot);
        assert_eq!(q.slab[reused.slot as usize].next, NIL);
        assert_eq!(q.pop(), Some((at(10), "next")));
        let due: Vec<_> = q.peek_due().into_iter().map(|(_, &e)| e).collect();
        assert_eq!(due, ["reused"]);
        assert_eq!(q.pop(), Some((at(20), "reused")));
        // A cancelled far event is released as it migrates, ahead of the
        // cell the pop that moved it frees.
        let (far, stone) = (3 * SPAN, 2 * SPAN + 7);
        let far_dead = q.schedule_at(at(far), "far dead");
        q.schedule_at(at(far), "far");
        let stone_tok = q.schedule_at(at(stone), "stone");
        q.cancel(far_dead);
        assert_eq!(q.pop(), Some((at(stone), "stone")));
        assert_eq!(free_cells(&q), [stone_tok.slot, far_dead.slot]);
        q.schedule_at(at(far), "first reuse");
        let second = q.schedule_at(at(far), "second reuse");
        assert_eq!(second.slot, far_dead.slot);
        assert_eq!(q.slab[second.slot as usize].next, NIL);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["far", "first reuse", "second reuse"]);
        // Every cell but `NIL` is free again, each once.
        let mut free = free_cells(&q);
        free.sort_unstable();
        assert_eq!(free, (1..q.slab.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn a_cell_is_32_bytes_for_a_16_byte_payload() {
        // The fabric's event: a tag beside a node and a 64-bit token, so
        // `Option` takes its niche and the payload stays 16 bytes.
        #[allow(dead_code)]
        enum Ev {
            Wake,
            Timer { node: u32, token: u64 },
        }
        assert_eq!(std::mem::size_of::<Ev>(), 16);
        assert!(std::mem::size_of::<Slot<Ev>>() <= 32);
    }
}
