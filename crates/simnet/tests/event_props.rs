//! Differential property test of [`simnet::EventQueue`]: random
//! interleavings of every operation against a sorted-`Vec` reference.
//! The queue's slab, its timing wheel, its far heap and its in-place
//! deferral are all invisible from outside, so the reference is the whole
//! specification: events pop in `(time, seq)` order, and a deferral is a
//! pop followed by a schedule.
//!
//! Why the wheel keeps that order: a push inside the window appends with
//! the newest seq, and when a pop moves `now` every far event that enters
//! the window moves, by `(time, seq)`, to its list before anything can be
//! scheduled straight to that instant. So every pop, every `peek_due` set
//! and every seq is the reference's. Only pops move `now`, so after a
//! peek an event can still be scheduled before the head it saw.

use proptest::prelude::*;
use simnet::{EventQueue, EventToken, SimDuration, SimTime};

/// The queue's window in nanoseconds: a delay below it goes straight to
/// its instant's list, one at or above it to the far heap.
const SPAN: u64 = 1 << 15;

/// Delays on both sides of power-of-two boundaries and on them, from the
/// low bits to far above any scheduling distance the fabric uses, with
/// zero repeated so that same-instant ties are common; among them both
/// sides of the window's edge and twice the window.
fn delays() -> Vec<u64> {
    let mut delays = vec![0, 0, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN];
    for k in [1, 8, 16, 17, 31, 40] {
        delays.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    delays
}

/// Absolute instants are multiples of this, twice the window, so a
/// far-ahead schedule and a later, nearer one land on the same instant,
/// one through the far heap and one straight to its list.
const GRID: u64 = 2 * SPAN;

#[derive(Clone, Debug)]
enum Op {
    /// Schedule after this delay, or at `SimTime::MAX` if that is sooner.
    ScheduleIn(u64),
    /// Schedule at `max(now, t)`: `t` is a multiple of `GRID`, or
    /// `SimTime::MAX`, the last instant.
    ScheduleAt(u64),
    /// Cancel the i-th token ever issued (modulo their count), fired or
    /// not.
    Cancel(usize),
    Pop,
    /// Defer the head by this delay if its payload is even.
    PopOrDefer(u64),
    PeekTime,
    PeekDue,
    /// Pop the i-th due event (modulo their count).
    PopSeq(usize),
    /// Pop a seq that is pending but not due, or not pending at all.
    PopSeqNotDue(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let delay = || prop::sample::select(delays());
    let instant = (0u64..41).prop_map(|k| if k == 40 { u64::MAX } else { k * GRID });
    prop_oneof![
        delay().prop_map(Op::ScheduleIn),
        delay().prop_map(Op::ScheduleIn),
        instant.prop_map(Op::ScheduleAt),
        any::<usize>().prop_map(Op::Cancel),
        Just(Op::Pop),
        delay().prop_map(Op::PopOrDefer),
        Just(Op::PeekTime),
        Just(Op::PeekDue),
        any::<usize>().prop_map(Op::PopSeq),
        any::<usize>().prop_map(Op::PopSeqNotDue),
    ]
}

/// The specification: pending `(time, seq, payload)` kept sorted.
#[derive(Default)]
struct Reference {
    pending: Vec<(u64, u64, u64)>,
    now: u64,
    next_seq: u64,
}

impl Reference {
    fn schedule(&mut self, at: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
        self.pending.sort_unstable();
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.pending.retain(|&(_, s, _)| s != seq);
    }

    fn due(&self) -> Vec<(u64, u64)> {
        let Some(&(head, _, _)) = self.pending.first() else {
            return Vec::new();
        };
        self.pending
            .iter()
            .take_while(|&&(t, _, _)| t == head)
            .map(|&(_, seq, payload)| (seq, payload))
            .collect()
    }

    fn pop_at(&mut self, i: usize) -> (u64, u64) {
        let (t, _, payload) = self.pending.remove(i);
        self.now = t;
        (t, payload)
    }
}

/// Runs `ops` on the queue and on the reference, comparing them after
/// every step and draining both at the end.
fn check(ops: Vec<Op>) -> Result<(), String> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut r = Reference::default();
    // Every token ever issued with the seq the reference gave it.
    let mut tokens: Vec<(EventToken, u64)> = Vec::new();
    let mut next_payload = 0u64;
    for op in ops {
        match op {
            Op::ScheduleIn(d) => {
                let d = d.min(u64::MAX - r.now);
                let token = q.schedule_in(SimDuration::from_nanos(d), next_payload);
                tokens.push((token, r.schedule(r.now + d, next_payload)));
                next_payload += 1;
            }
            Op::ScheduleAt(at) => {
                let at = at.max(r.now);
                let token = q.schedule_at(SimTime::from_nanos(at), next_payload);
                tokens.push((token, r.schedule(at, next_payload)));
                next_payload += 1;
            }
            Op::Cancel(i) => {
                if !tokens.is_empty() {
                    let (token, seq) = tokens[i % tokens.len()];
                    q.cancel(token);
                    r.cancel(seq);
                }
            }
            Op::Pop => {
                let want = (!r.pending.is_empty()).then(|| r.pop_at(0));
                let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
                prop_assert_eq!(got, want);
            }
            Op::PopOrDefer(d) => {
                let later = |t: u64| t + d.min(u64::MAX - t);
                let got = q
                    .pop_or_defer(|t, &p| {
                        (p % 2 == 0).then_some(SimTime::from_nanos(later(t.as_nanos())))
                    })
                    .map(|(t, p)| (t.as_nanos(), p));
                let want = (!r.pending.is_empty()).then(|| {
                    let (t, p) = r.pop_at(0);
                    if p % 2 == 0 {
                        // Deferred: a fresh seq, behind everything
                        // already scheduled for that instant.
                        r.schedule(later(t), p);
                        (t, None)
                    } else {
                        (t, Some(p))
                    }
                });
                prop_assert_eq!(got, want);
            }
            Op::PeekTime => {
                let want = r.pending.first().map(|&(t, _, _)| t);
                prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), want);
            }
            Op::PeekDue => {
                let got: Vec<(u64, u64)> = q.peek_due().into_iter().map(|(s, &p)| (s, p)).collect();
                prop_assert_eq!(got, r.due());
            }
            Op::PopSeq(i) => {
                let due = r.due();
                if !due.is_empty() {
                    let i = i % due.len();
                    let want = r.pop_at(i);
                    let got = q.pop_seq(due[i].0).map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, Some(want));
                }
            }
            Op::PopSeqNotDue(i) => {
                let due = r.due().len();
                // Past the due set: a pending event of a later
                // instant, or (one past the end) a seq never issued.
                let i = due + i % (r.pending.len() - due + 1);
                let seq = r.pending.get(i).map_or(r.next_seq, |&(_, s, _)| s);
                prop_assert!(q.pop_seq(seq).is_none());
            }
        }
        prop_assert_eq!(q.now().as_nanos(), r.now);
        prop_assert_eq!(q.len(), r.pending.len());
        prop_assert_eq!(q.is_empty(), r.pending.is_empty());
    }
    // Whatever is left drains in reference order.
    while !r.pending.is_empty() {
        let want = r.pop_at(0);
        prop_assert_eq!(q.pop().map(|(t, p)| (t.as_nanos(), p)), Some(want));
    }
    prop_assert!(q.pop().is_none());
    prop_assert_eq!(q.len(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn queue_matches_sorted_vec_reference(ops in prop::collection::vec(arb_op(), 1..160)) {
        check(ops)?;
    }
}

/// Fixed runs across the window's edges, each checked like a generated
/// one. Payloads count up from 0 in schedule order, and `PopOrDefer`
/// defers the even ones.
#[test]
fn window_edges() {
    use Op::*;
    let far = 3 * SPAN;
    let cases = [
        (
            "a far event, then an insert straight to its instant once it is near",
            vec![
                ScheduleAt(far),
                ScheduleAt(2 * SPAN + 7),
                Pop,
                ScheduleAt(far),
                Pop,
                Pop,
            ],
        ),
        (
            "a deferral into the far heap, behind what waits there",
            vec![
                ScheduleAt(5),
                ScheduleAt(5 + 2 * SPAN),
                PopOrDefer(2 * SPAN),
                Pop,
                ScheduleIn(0),
                Pop,
                Pop,
            ],
        ),
        (
            "the last instant, far ahead and then inside the window",
            vec![
                ScheduleAt(u64::MAX),
                ScheduleAt(u64::MAX - 1),
                Pop,
                ScheduleAt(u64::MAX),
                ScheduleIn(0),
                Pop,
                Pop,
                Pop,
            ],
        ),
        (
            "the due set while it is still in the far heap",
            vec![
                ScheduleAt(far),
                ScheduleAt(far + 1),
                ScheduleAt(far),
                Cancel(0),
                ScheduleAt(far),
                PeekDue,
                PopSeqNotDue(0),
                PopSeq(1),
                PeekDue,
                Pop,
                Pop,
            ],
        ),
        (
            // The free list hands the two cells back highest first, so
            // the heap's cell order is the reverse of seq order.
            "a far run of one instant leaves by seq, not by cell",
            vec![
                ScheduleAt(1),
                ScheduleAt(2),
                Pop,
                Pop,
                ScheduleAt(far),
                ScheduleAt(far),
                Pop,
                Pop,
            ],
        ),
    ];
    for (name, ops) in cases {
        check(ops).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
