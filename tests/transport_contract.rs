//! The `Transport` contract (`verbs/src/transport.rs`), one row per rule.
//! Each rule is a scenario in [`rule`], written once and generic over the
//! transport, and each row runs it on a raw simulated `Fabric` (as
//! `ClusterSpec::fractus` ships it: hybrid completion mode), on a raw
//! `TcpFabric` over loopback sockets, and on the same `TcpFabric` over a
//! `MemNet`. A row asserts what each node hears, in order; how nodes
//! interleave is up to the backend. `MemNet`'s clock is virtual and moves
//! only when no byte can, so on it a row's timing claims are exact: a
//! failure-detect break lands at the crash plus the delay, not after it,
//! and a round's bytes all move before any later timer fires, whatever the
//! host's load. [`drain_with`] holds every row to monotone time and crash
//! silence, and every TCP run ends in a shutdown that surfaces no socket
//! error. On
//! `Fabric` a `SendDone` is the peer's acknowledgement, on TCP it means
//! "flushed to the socket" ("RDMA and the Completion Fallacy"): where a
//! crash or a break races a send, a row takes its completion or its
//! flush, once.
//!
//! Claims that hold on one backend only stay beside it:
//!
//! - `Fabric` (`verbs/src/tests.rs`):
//!   - exact virtual timings: wall clocks have no exact instants;
//!   - RNR retry, then break: TCP holds the frame (`rnr_arms`), never breaks;
//!   - CORE-Direct `wait_for`: TCP has no NIC to chain work in;
//!   - completion modes, jitter and CPU: TCP hosts have no host model;
//!   - `fabric_is_deterministic`: wall-clock runs do not repeat;
//!   - `crash_aborts_inflight_transfer`: TCP delivers what reached the socket.
//! - loopback TCP (`rdmc-tcp/src/tests.rs`): socket internals (sweeps,
//!   malformed frames, `MAX_FRAME`, failed set-up, stepped shards, a dead
//!   pump thread);
//! - `MemNet` (`analyzer/tests/memnet.rs`): delivery under scheduler-drawn
//!   interleavings of its pipes' bytes and deliveries, the explorer on the
//!   TCP datapath (kernel sockets offer a scheduler no choice point), and
//!   the socket sharing that write sites stage: one socket per node pair
//!   (`queue_pairs_between_two_nodes_share_one_socket`) and orphans
//!   (`breaking_one_queue_pair_leaves_its_socket_mates_running`).
//!
//! The protocol's claims above the verbs (delivery, wedging, recovery,
//! atomic order) are rows of the transport matrix and sites of the crash
//! sweep, run on all three backends.
//!
//! `Fabric` in hybrid mode does not yet keep one queue pair's completions
//! in posting order (ROADMAP item 13): one that lands while its node wakes
//! for an earlier one surfaces first. The four rows that see it poll
//! `Fabric`; their twins in [`in_hybrid_mode`], ignored, run it as it ships.

#[allow(dead_code)] // the cluster runner serves the matrix and the sweep
mod support;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::prop::collection::vec;
use rdmc_sim::ClusterSpec;
use simnet::{SimDuration, SimTime};
use support::sim_fabric as hybrid;
use verbs::Delivery::{QpBroken, RecvDone, SendDone, Timer, WrFlushed, WriteArrived, WriteDone};
use verbs::{CompletionMode, Delivery, Fabric, NodeId, QpHandle, Transport, VerbsError, WrId};

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);
const C: NodeId = NodeId(2);

/// The failure-detect delay of every backend.
const DETECT: SimDuration = SimDuration::from_millis(1);

/// `n` simulated nodes whose completion queues are polled.
fn polled(n: usize) -> Fabric {
    let mut spec = ClusterSpec::fractus(n);
    spec.completion_mode = CompletionMode::Polling;
    spec.build()
}

/// A row: one rule's scenario on `Fabric` built by `$sim`, then on
/// `TcpFabric` over loopback sockets, then over a `MemNet`.
macro_rules! on_all {
    ($sim:ident, $rule:ident($n:expr $(, $arg:expr)*)) => {{
        rule::$rule(&mut $sim($n) $(, $arg)*);
        let mut tcp = support::tcp_fabric($n);
        rule::$rule(&mut tcp $(, $arg)*);
        tcp.shutdown().expect("clean shutdown");
        let mut mem = support::mem_fabric($n);
        rule::$rule(&mut mem $(, $arg)*);
        mem.shutdown().expect("clean shutdown");
    }};
}

/// What each node heard, in order, as [`show`] names it.
type Heard = BTreeMap<NodeId, String>;

/// What a row expects each node to hear.
fn heard<const N: usize>(nodes: [(NodeId, &str); N]) -> Heard {
    nodes.map(|(node, seen)| (node, seen.to_string())).into()
}

/// `n` items, as [`Heard`] lists them.
fn list(n: usize, item: impl Fn(usize) -> String) -> String {
    (0..n).map(item).collect::<Vec<_>>().join(", ")
}

/// A delivery as a row names it: completions and flushes by work
/// request, a break by its connection.
fn show(d: &Delivery) -> String {
    match d {
        SendDone { wr_id, .. } => format!("send {}", wr_id.0),
        WriteDone { wr_id, .. } => format!("write {}", wr_id.0),
        RecvDone {
            wr_id, len, imm, ..
        } => format!("recv {} {len} {imm}", wr_id.0),
        WriteArrived { tag, payload, .. } => format!("arrived {tag} {:?}", payload.to_vec()),
        WrFlushed {
            wr_id, recv: true, ..
        } => format!("flushed recv {}", wr_id.0),
        WrFlushed { wr_id, .. } => format!("flushed {}", wr_id.0),
        QpBroken { qp } => format!("broken q{}", qp.conn_id()),
        Timer { token } => format!("timer {token}"),
        other => format!("{other:?}"),
    }
}

/// Runs `fabric` until it quiesces, handing each delivery to `act` as it
/// comes, and returns what each node heard. No stamp may come before the
/// last one, and no delivery surface on a crashed node.
fn drain_with<T: Transport>(
    fabric: &mut T,
    mut act: impl FnMut(&mut T, SimTime, NodeId, &Delivery),
) -> Heard {
    let (mut heard, mut last) = (BTreeMap::<_, Vec<_>>::new(), SimTime::ZERO);
    while let Some((at, node, d)) = fabric.advance() {
        assert!(at >= last, "{at:?} came after {last:?}");
        assert!(!fabric.is_crashed(node), "{node:?} crashed, heard {d:?}");
        last = at;
        act(fabric, at, node, &d);
        heard.entry(node).or_default().push(show(&d));
    }
    heard.into_iter().map(|(n, s)| (n, s.join(", "))).collect()
}

fn drain<T: Transport>(fabric: &mut T) -> Heard {
    drain_with(fabric, |_, _, _, _| {})
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fifo_exactly_once(sizes in vec(1u64..500_000, 1..30)) {
        on_all!(polled, fifo_exactly_once(2, &sizes));
    }

    #[test]
    fn completions_balance_posts(ops in vec((0u32..4, 0u32..4, 1u64..200_000), 1..40)) {
        on_all!(polled, completions_balance_posts(4, &ops));
    }

    #[test]
    fn writes_arrive_once_in_order_intact(payloads in vec(vec(any::<u8>(), 0..64), 1..20)) {
        on_all!(polled, writes_arrive_once_in_order_intact(2, &payloads));
    }
}

/// The other rows, one `#[test]` each, on `n` nodes.
macro_rules! rows {
    ($($sim:ident: $rule:ident($n:expr);)*) => {$(
        #[test]
        fn $rule() {
            on_all!($sim, $rule($n));
        }
    )*};
}

rows! {
    hybrid: send_longer_than_its_receive_breaks_the_qp(2);
    hybrid: posts_on_a_crashed_node_are_refused(2);
    hybrid: break_qp_flushes_in_posting_order_then_breaks(2);
    hybrid: survivors_break_after_failure_detect(3);
    hybrid: outstanding_work_at_a_crash_resolves_once(2);
    hybrid: connect_to_a_crashed_peer_breaks_after_failure_detect(2);
    hybrid: flushed_sends_reach_the_survivor_before_the_break(2);
    hybrid: a_crash_breaks_every_qp_of_the_pair_in_creation_order(2);
    polled: zero_delay_timer_fires_before_the_rounds_completions(2);
    hybrid: connecting_a_node_to_itself_panics(1);
    hybrid: connection_ids_are_dense_in_connect_order(4);
}

/// The rows that poll `Fabric`, on `Fabric` as it ships, each on an input
/// that shows the hybrid reorder: they fail until it is mended.
mod in_hybrid_mode {
    use super::*;

    macro_rules! twins {
        ($($rule:ident($n:expr $(, $arg:expr)*);)*) => {$(
            #[test]
            #[ignore = "hybrid completion reorder, see ROADMAP item 13"]
            fn $rule() {
                rule::$rule(&mut hybrid($n) $(, $arg)*);
            }
        )*};
    }

    twins! {
        fifo_exactly_once(2, &[200_000, 1]);
        completions_balance_posts(2, &[(0, 1, 200_000), (0, 1, 1)]);
        writes_arrive_once_in_order_intact(2, &[vec![0; 8], vec![0]]);
        zero_delay_timer_fires_before_the_rounds_completions(2);
    }
}

/// One scenario per rule of the contract.
mod rule {
    use super::*;

    /// Sends on one queue pair, each into a receive posted ahead of it,
    /// complete once each, in posting order, with lengths and immediates.
    pub fn fifo_exactly_once<T: Transport>(f: &mut T, sizes: &[u64]) {
        let (q0, q1) = f.connect(A, B);
        for (i, &len) in (0..).zip(sizes) {
            f.post_recv(q1, WrId(i), len).unwrap();
            f.post_send(q0, WrId(1000 + i), len, i, None).unwrap();
        }
        let sent = list(sizes.len(), |i| format!("send {}", 1000 + i));
        let received = list(sizes.len(), |i| format!("recv {i} {} {i}", sizes[i]));
        assert_eq!(drain(f), heard([(A, &sent), (B, &received)]));
    }

    /// Sends over random node pairs: every post completes exactly once,
    /// each queue pair's sends and receives in posting order.
    pub fn completions_balance_posts<T: Transport>(f: &mut T, ops: &[(u32, u32, u64)]) {
        let (mut qps, mut posted) = (BTreeMap::new(), BTreeMap::<_, Vec<u64>>::new());
        let mut done = posted.clone();
        for (i, &(a, b, len)) in (0..).zip(ops).filter(|(_, op)| op.0 != op.1) {
            let pair = (a.min(b), a.max(b));
            let (lo, hi) = *qps
                .entry(pair)
                .or_insert_with(|| f.connect(NodeId(pair.0), NodeId(pair.1)));
            let (qa, qb) = if a < b { (lo, hi) } else { (hi, lo) };
            f.post_recv(qb, WrId(i), len).unwrap();
            f.post_send(qa, WrId(i), len, 0, None).unwrap();
            posted.entry((qb, true)).or_default().push(i);
            posted.entry((qa, false)).or_default().push(i);
        }
        drain_with(f, |_, _, node, d| {
            let (qp, wr_id, recv) = match *d {
                SendDone { qp, wr_id } => (qp, wr_id, false),
                RecvDone { qp, wr_id, .. } => (qp, wr_id, true),
                _ => panic!("{node:?} heard {d:?}"),
            };
            done.entry((qp, recv)).or_default().push(wr_id.0);
        });
        assert_eq!(done, posted);
    }

    /// One-sided writes arrive once each, in order, intact, consuming no
    /// receive; the writer's completions come back in order.
    pub fn writes_arrive_once_in_order_intact<T: Transport>(f: &mut T, payloads: &[Vec<u8>]) {
        let (q0, q1) = f.connect(A, B);
        f.post_recv(q1, WrId(99), 64).unwrap();
        for (i, p) in (0..).zip(payloads) {
            f.post_write(q0, WrId(i), i, p.clone().into(), None)
                .unwrap();
        }
        let done = list(payloads.len(), |i| format!("write {i}"));
        let arrived = list(payloads.len(), |i| format!("arrived {i} {:?}", payloads[i]));
        assert_eq!(drain(f), heard([(A, &done), (B, &arrived)]));
        assert_eq!(f.posting_snapshot(q1).posted_recvs, 1);
    }

    /// A send longer than the receive it meets is the RDMA local-length
    /// error: the queue pair breaks. The receiver flushes that receive and
    /// every later one, in posting order, before the break; the sender's
    /// send completes or flushes, once, before it.
    pub fn send_longer_than_its_receive_breaks_the_qp<T: Transport>(f: &mut T) {
        let (q0, q1) = f.connect(A, B);
        f.post_recv(q1, WrId(1), 100).unwrap();
        f.post_recv(q1, WrId(3), 100).unwrap();
        f.post_send(q0, WrId(2), 1000, 0, None).unwrap();
        let seen = drain(f);
        assert_eq!(seen[&B], "flushed recv 1, flushed recv 3, broken q0");
        assert_eq!(seen[&A].replace("flushed", "send"), "send 2, broken q0");
        assert_eq!(f.posting_snapshot(q1).posted_recvs, 0);
    }

    /// A crashed node's posts are refused, whatever the verb; its peer
    /// hears the break.
    pub fn posts_on_a_crashed_node_are_refused<T: Transport>(f: &mut T) {
        let (q0, _) = f.connect(A, B);
        f.crash(A);
        let refused = Err(VerbsError::NodeCrashed);
        assert_eq!(f.post_send(q0, WrId(1), 10, 0, None), refused);
        assert_eq!(f.post_recv(q0, WrId(2), 10), refused);
        assert_eq!(f.post_write(q0, WrId(3), 0, vec![1].into(), None), refused);
        assert_eq!(drain(f), heard([(B, "broken q0")]));
    }

    /// Breaking a queue pair flushes all outstanding work at both ends, in
    /// posting order, before the break; later posts are refused.
    pub fn break_qp_flushes_in_posting_order_then_breaks<T: Transport>(f: &mut T) {
        let (q0, q1) = f.connect(A, B);
        (1..3).for_each(|wr| f.post_recv(q1, WrId(wr), 2000).unwrap());
        (10..13).for_each(|wr| f.post_send(q0, WrId(wr), 1 << 20, 0, None).unwrap());
        f.break_qp(q0);
        let sender = "flushed 10, flushed 11, flushed 12, broken q0";
        let receiver = "flushed recv 1, flushed recv 2, broken q0";
        assert_eq!(drain(f), heard([(A, sender), (B, receiver)]));
        let refused = Err(VerbsError::QpBroken);
        assert_eq!(f.post_send(q0, WrId(3), 10, 0, None), refused);
        assert_eq!(f.post_recv(q1, WrId(4), 10), refused);
    }

    /// Survivors hear of a crash only through failure detection: a break,
    /// once each, no sooner than the failure-detect delay after it.
    pub fn survivors_break_after_failure_detect<T: Transport>(f: &mut T) {
        f.connect(A, B);
        f.connect(A, C);
        f.crash(A);
        let detected = f.now() + DETECT;
        let seen = drain_with(f, |_, at, _, d| assert!(at >= detected, "{d:?} at {at:?}"));
        assert_eq!(seen, heard([(B, "broken q0"), (C, "broken q1")]));
    }

    /// When its peer crashes, every send the survivor has out resolves
    /// exactly once, in posting order — it may complete rather than flush,
    /// as its bytes may have left — and the survivor's break comes last.
    pub fn outstanding_work_at_a_crash_resolves_once<T: Transport>(f: &mut T) {
        const LEN: u64 = 16 << 20;
        let (q0, q1) = f.connect(A, B);
        for wr in 10..14 {
            f.post_recv(q1, WrId(wr), LEN).unwrap();
            f.post_send(q0, WrId(wr), LEN, 0, None).unwrap();
        }
        f.schedule_timer(A, DETECT, 5);
        let seen = drain_with(f, |f, _, _, d| {
            if matches!(d, Timer { token: 5 }) {
                f.crash(B);
            }
        });
        let survivor = seen[&A].replace("timer 5, ", "").replace("flushed", "send");
        assert_eq!(survivor, "send 10, send 11, send 12, send 13, broken q0");
    }

    /// Connecting to a crashed peer times out like a handshake: the queue
    /// pair breaks after the failure-detect delay, its posts flushed first.
    pub fn connect_to_a_crashed_peer_breaks_after_failure_detect<T: Transport>(f: &mut T) {
        f.crash(B);
        let (q0, _) = f.connect(A, B);
        let detected = f.now() + DETECT;
        f.post_send(q0, WrId(7), 1000, 0, None).unwrap();
        let seen = drain_with(f, |_, at, _, d| assert!(at >= detected, "{d:?} at {at:?}"));
        assert_eq!(seen, heard([(A, "flushed 7, broken q0")]));
    }

    /// A sender crashes once all its sends completed (on TCP: flushed to
    /// the socket): the survivor receives every one, in order, before its
    /// unused receive is flushed and the connection breaks.
    pub fn flushed_sends_reach_the_survivor_before_the_break<T: Transport>(f: &mut T) {
        const LEN: u64 = 512 << 10; // 3 MiB in all: several flush-and-read rounds
        let (tx, rx) = f.connect(A, B);
        (0..7).for_each(|i| f.post_recv(rx, WrId(100 + i), LEN).unwrap());
        (0..6).for_each(|i| f.post_send(tx, WrId(i), LEN, i, None).unwrap());
        let seen = drain_with(f, |f, _, _, d| {
            if matches!(d, SendDone { wr_id: WrId(5), .. }) {
                f.crash(A);
            }
        });
        let sends = list(6, |i| format!("send {i}"));
        let recvs = list(6, |i| format!("recv {} {LEN} {i}", 100 + i));
        let survivor = format!("{recvs}, flushed recv 106, broken q0");
        assert_eq!(seen, heard([(A, &sends), (B, &survivor)]));
    }

    /// A crash breaks every queue pair of the node pair in creation order,
    /// each one's receive flushed before its break.
    pub fn a_crash_breaks_every_qp_of_the_pair_in_creation_order<T: Transport>(f: &mut T) {
        let survivors: Vec<QpHandle> = (0..3).map(|_| f.connect(A, B).1).collect();
        for (wr, &qp) in (0..).zip(&survivors) {
            f.post_recv(qp, WrId(wr), 64).unwrap();
        }
        f.crash(A);
        let want = list(3, |i| format!("flushed recv {i}, broken q{i}"));
        assert_eq!(drain(f), heard([(B, &want)]));
    }

    /// Timers due when a round begins fire before any completion of that
    /// round: a zero-delay timer armed behind a write comes out before the
    /// write's completion, and a write its handler posts completes after.
    pub fn zero_delay_timer_fires_before_the_rounds_completions<T: Transport>(f: &mut T) {
        let (q0, _) = f.connect(A, B);
        let write = |f: &mut T, wr| f.post_write(q0, WrId(wr), 7, vec![1].into(), None).unwrap();
        write(f, 1);
        f.schedule_timer(A, SimDuration::ZERO, 42);
        let seen = drain_with(f, |f, _, _, d| {
            if matches!(d, Timer { token: 42 }) {
                write(f, 2);
            }
        });
        let (writer, reader) = ("timer 42, write 1, write 2", "arrived 7 [1], arrived 7 [1]");
        assert_eq!(seen, heard([(A, writer), (B, reader)]));
    }

    /// A connection joins two distinct nodes: `connect(a, a)` panics and
    /// leaves the backend as it was.
    pub fn connecting_a_node_to_itself_panics<T: Transport>(f: &mut T) {
        let looped = catch_unwind(AssertUnwindSafe(|| f.connect(A, A)));
        assert!(looped.is_err(), "connect({A:?}, {A:?}) returned");
        assert_eq!(drain(f), Heard::new());
    }

    /// `connect` mints connection ids `0, 1, 2, …` in call order, shared
    /// by the two endpoints: a connection to a crashed peer takes the next
    /// id (and breaks after the failure-detect delay), and so does the
    /// connect after it.
    pub fn connection_ids_are_dense_in_connect_order<T: Transport>(f: &mut T) {
        const D: NodeId = NodeId(3);
        let connect = |f: &mut T, a, b| {
            let (qa, qb) = f.connect(a, b);
            assert_eq!(qa.conn_id(), qb.conn_id(), "{a:?}-{b:?}");
            qa.conn_id()
        };
        let mut ids = vec![connect(f, A, B), connect(f, B, C), connect(f, A, B)];
        f.crash(D);
        ids.extend([connect(f, A, D), connect(f, C, A)]);
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        assert_eq!(drain(f), heard([(A, "broken q3")]));
    }
}
