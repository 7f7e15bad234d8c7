//! Differential property test of [`simnet::EventQueue`]: random
//! interleavings of every operation against a sorted-`Vec` reference.
//! The queue's slab, its radix buckets and its in-place deferral are all
//! invisible from outside, so the reference is the whole specification:
//! events pop in `(time, seq)` order, and a deferral is a pop followed
//! by a schedule.
//!
//! Why the buckets keep that order: equal times always share a bucket, a
//! push appends with the newest seq, and a pop that moves the base relinks
//! the lowest bucket in order into empty lower buckets. So every pop,
//! every `peek_due` set and every seq is the reference's. Only pops move
//! the base, so after a peek an event can still be scheduled before the
//! head it saw.

use proptest::prelude::*;
use simnet::{EventQueue, EventToken, SimDuration, SimTime};

/// Delays on both sides of power-of-two boundaries and on them, from the
/// low bits to far above any scheduling distance the fabric uses, with
/// zero repeated so that same-instant ties are common.
fn delays() -> Vec<u64> {
    let mut delays = vec![0, 0];
    for k in [1, 8, 16, 17, 31, 40] {
        delays.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    delays
}

/// Absolute instants are multiples of this, so a far-ahead schedule and a
/// later, nearer one land on the same instant from different buckets.
const GRID: u64 = 1 << 16;

#[derive(Clone, Debug)]
enum Op {
    /// Schedule after this delay, or at `SimTime::MAX` if that is sooner.
    ScheduleIn(u64),
    /// Schedule at `max(now, t)`: `t` is a multiple of `GRID`, or
    /// `SimTime::MAX`, whose bucket is the last.
    ScheduleAt(u64),
    /// Cancel the i-th token ever issued, fired or not.
    Cancel(prop::sample::Index),
    Pop,
    /// Defer the head by this delay if its payload is even.
    PopOrDefer(u64),
    PeekTime,
    PeekDue,
    /// Pop the i-th due event.
    PopSeq(prop::sample::Index),
    /// Pop a seq that is pending but not due, or not pending at all.
    PopSeqNotDue(prop::sample::Index),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let delay = || prop::sample::select(delays());
    let instant = (0u64..41).prop_map(|k| if k == 40 { u64::MAX } else { k * GRID });
    prop_oneof![
        delay().prop_map(Op::ScheduleIn),
        delay().prop_map(Op::ScheduleIn),
        instant.prop_map(Op::ScheduleAt),
        any::<prop::sample::Index>().prop_map(Op::Cancel),
        Just(Op::Pop),
        delay().prop_map(Op::PopOrDefer),
        Just(Op::PeekTime),
        Just(Op::PeekDue),
        any::<prop::sample::Index>().prop_map(Op::PopSeq),
        any::<prop::sample::Index>().prop_map(Op::PopSeqNotDue),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn queue_matches_sorted_vec_reference(ops in prop::collection::vec(arb_op(), 1..160)) {
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
                        let (token, seq) = tokens[i.index(tokens.len())];
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
                        let i = i.index(due.len());
                        let want = r.pop_at(i);
                        let got = q.pop_seq(due[i].0).map(|(t, p)| (t.as_nanos(), p));
                        prop_assert_eq!(got, Some(want));
                    }
                }
                Op::PopSeqNotDue(i) => {
                    let due = r.due().len();
                    // Past the due set: a pending event of a later
                    // instant, or (one past the end) a seq never issued.
                    let i = due + i.index(r.pending.len() - due + 1);
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
    }
}
