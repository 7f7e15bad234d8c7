//! What the ledger-driven pump must not cost: failure detection on an
//! idle socket, and a typed error (never a panic) for a malformed frame,
//! an oversize post or a socket that cannot be set up. Then the
//! one-socket-per-pair contract: the queue pairs on a socket all break
//! together when it does (sharing one, and one breaking alone with its
//! frame half out, are staged by `MemNet` write sites in
//! `analyzer/tests/memnet.rs`). Last,
//! shards, under the stepped driver over a range of seeds: small and
//! bulk runs deal sockets to both and deliver everywhere, the worker is
//! parked whenever `run()` returns, a crash across shards keeps delivery
//! all-or-nothing with its breaks ahead of relayed gossip, two shards
//! run what one runs, and both answer posts and snapshots alike.
//!
//! Only socket internals live here. The verbs' contract is the root
//! `transport_contract` suite's, and the protocol's delivery claims are
//! the root transport matrix's and crash sweep's; each runs on all three
//! backends (`Fabric`, loopback sockets and `MemNet`), and on `MemNet`
//! bytes flushed but not yet read at a crash meet the survivor on every
//! run (`flushed_sends_reach_the_survivor_before_the_break`).

use super::*;
use std::net::{Shutdown, TcpListener};
use std::time::Instant;

use rdmc::Algorithm;
use rdmc_sim::{GroupSpec, RecoveryConfig};
use shard::Link;
use std::sync::mpsc::TryRecvError;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn pair() -> (TcpFabric, QpHandle, QpHandle) {
    let mut fabric = TcpFabric::launch(2).expect("launch");
    let (a, b) = fabric.connect(A, B);
    (fabric, a, b)
}

/// Frames queued for the wire, fabric-wide.
fn queued(fabric: &TcpFabric) -> usize {
    fabric
        .home
        .conns
        .iter()
        .flat_map(|c| &c.eps)
        .map(|ep| ep.out.len())
        .sum()
}

/// Polls until `want` deliveries matched `keep` or `limit` ran out.
fn collect<T>(
    fabric: &mut TcpFabric,
    want: usize,
    limit: Duration,
    keep: impl Fn(NodeId, Delivery) -> Option<T>,
) -> Vec<T> {
    let start = Instant::now();
    let mut kept = Vec::new();
    while kept.len() < want && start.elapsed() < limit {
        if let Some((_, node, delivery)) = fabric.advance() {
            kept.extend(keep(node, delivery));
        }
    }
    kept
}

/// An idle connection has nothing in its ledger, so only the periodic
/// sweep reads it: with the sweep taken out of `advance()` this loop
/// polls a quiescent fabric until the limit and finds nothing.
#[test]
fn idle_socket_killed_from_outside_breaks_both_ends_within_the_bound() {
    let (mut fabric, a, b) = pair();
    assert!(fabric.advance().is_none(), "idle");
    fabric.home.conns[0].eps[0]
        .stream
        .shutdown(Shutdown::Both)
        .expect("kill the socket behind the fabric's back");
    let broken = collect(&mut fabric, 2, 50 * FAILURE_DETECT, |node, d| match d {
        Delivery::QpBroken { qp } => Some((node, qp)),
        _ => None,
    });
    assert_eq!(broken, [(A, a), (B, b)]);
    assert!(
        fabric.advance().is_none(),
        "quiescent again after the break"
    );
    fabric
        .shutdown()
        .expect("an end of stream between frames is a break, not an error");
}

/// Due timers fire as a lap begins, before it moves any bytes: a
/// zero-delay timer armed behind a posted write comes out ahead of that
/// write's completion, and a write posted from the timer's handler leaves
/// in the same lap as the first — both completions are queued by the time
/// the first one surfaces.
#[test]
fn zero_delay_timer_fires_before_the_next_flush() {
    let (mut fabric, a, b) = pair();
    let write = |fabric: &mut TcpFabric, wr: u64| {
        fabric
            .post_write(a, WrId(wr), 7, Bytes::from_static(b"row"), None)
            .expect("post_write");
    };
    let name = |(_, node, d): (SimTime, NodeId, Delivery)| match d {
        Delivery::Timer { token } => format!("{node:?} timer {token}"),
        Delivery::WriteDone { qp, wr_id } if qp == a => format!("{node:?} done {}", wr_id.0),
        Delivery::WriteArrived { qp, .. } if qp == b => format!("{node:?} arrived"),
        other => panic!("unexpected {other:?}"),
    };
    write(&mut fabric, 1);
    fabric.schedule_timer(A, SimDuration::ZERO, 42);
    assert_eq!(
        name(fabric.advance().expect("the timer")),
        "NodeId(0) timer 42"
    );
    assert_eq!(
        queued(&fabric),
        1,
        "no byte moved before the timer surfaced"
    );
    write(&mut fabric, 2);
    assert_eq!(
        name(fabric.advance().expect("a completion")),
        "NodeId(0) done 1"
    );
    assert_eq!(queued(&fabric), 0, "one lap flushed both writes");
    assert_eq!(
        fabric.home.pump.ready.front().cloned().map(name).as_deref(),
        Some("NodeId(0) done 2")
    );
    let rest: Vec<String> = std::iter::from_fn(|| fabric.advance()).map(name).collect();
    assert_eq!(
        rest,
        ["NodeId(0) done 2", "NodeId(1) arrived", "NodeId(1) arrived"]
    );
    fabric.shutdown().expect("clean shutdown");
}

/// A lap hands each socket direction's deliveries out as soon as it is
/// read, and resumes after it: a relay that B posts on seeing A's write
/// crosses the B-C socket, later in the lap, and reaches C before the
/// zero-delay timer B armed alongside it, which waits for the next lap.
#[test]
fn a_reply_posted_mid_lap_leaves_in_the_same_lap() {
    const C: NodeId = NodeId(2);
    let mut fabric = TcpFabric::launch(3).expect("launch");
    let (ab, ba) = fabric.connect(A, B);
    let (bc, cb) = fabric.connect(B, C);
    let row = || Bytes::from_static(b"row");
    fabric
        .post_write(ab, WrId(1), 7, row(), None)
        .expect("post_write");
    let mut seen = Vec::new();
    while let Some((_, node, d)) = fabric.advance() {
        seen.push(match d {
            Delivery::WriteArrived { qp, .. } if qp == ba => {
                fabric
                    .post_write(bc, WrId(2), 7, row(), None)
                    .expect("relay");
                fabric.schedule_timer(B, SimDuration::ZERO, 42);
                "B arrived"
            }
            Delivery::WriteArrived { qp, .. } if qp == cb => "C arrived",
            Delivery::WriteDone { .. } => continue,
            Delivery::Timer { token: 42 } if node == B => "B timer",
            other => panic!("unexpected {other:?}"),
        });
    }
    assert_eq!(seen, ["B arrived", "C arrived", "B timer"]);
    fabric.shutdown().expect("clean shutdown");
}

/// A frame of no known kind breaks its connection and comes out of
/// `shutdown()` as `InvalidData`, naming the socket by its node pair:
/// here the second socket, which the second shard owns.
#[test]
fn malformed_frame_is_an_error_at_shutdown_not_a_panic() {
    let mut fabric = stepped(4, 1);
    fabric.connect(A, B);
    let (c, d) = fabric.connect(NodeId(2), NodeId(3));
    assert_eq!(fabric.sockets[1].shard, 1, "{fabric:?}");
    fabric.catch_up();
    let garbage = OutFrame::new(u32::MAX, WrId(1), 0xEE, 0, Payload::Filler(3));
    let Some(Link::Stepped(stepped)) = fabric.worker.as_mut().map(|w| &mut w.link) else {
        panic!("a stepped second shard");
    };
    stepped.shard.conns[0].eps[0].out.push_back(garbage);
    let broken = collect(&mut fabric, 2, 50 * FAILURE_DETECT, |_, d| match d {
        Delivery::QpBroken { qp } => Some(qp),
        _ => None,
    });
    assert_eq!(broken, [c, d]);
    let error = fabric.shutdown().expect_err("the protocol error surfaces");
    assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    let (error, want) = (error.to_string(), "socket 2-3: unknown frame kind 238");
    assert!(error.contains(want), "{error}");
}

/// A post over [`MAX_FRAME`] is a local-length error: the post is
/// refused with `QpBroken`, the connection breaks — both ends see what
/// they had queued flushed, then the break — and nothing else does.
#[test]
fn oversize_post_breaks_its_connection_and_no_other() {
    let (mut fabric, a, b) = pair();
    let (a2, b2) = fabric.connect(A, B);
    fabric.post_recv(b, WrId(7), 64).expect("post_recv");
    fabric
        .post_send(a, WrId(1), 64, 0, None)
        .expect("post_send");
    assert_eq!(
        fabric.post_send(a, WrId(2), MAX_FRAME + 1, 0, None),
        Err(VerbsError::QpBroken)
    );
    let seen = collect(&mut fabric, 4, 50 * FAILURE_DETECT, |node, d| match d {
        Delivery::WrFlushed { qp, wr_id, recv } => Some((node, qp, format!("{} {recv}", wr_id.0))),
        Delivery::QpBroken { qp } => Some((node, qp, "broken".to_string())),
        other => panic!("unexpected {other:?}"),
    });
    let expected = [
        (A, a, "1 false"),
        (A, a, "broken"),
        (B, b, "7 true"),
        (B, b, "broken"),
    ];
    assert_eq!(
        seen,
        expected.map(|(node, qp, what)| (node, qp, what.to_string()))
    );
    assert_eq!(
        fabric.post_send(a, WrId(3), 64, 0, None),
        Err(VerbsError::QpBroken)
    );
    fabric.post_recv(b2, WrId(8), 64).expect("post_recv");
    fabric
        .post_send(a2, WrId(4), 64, 9, None)
        .expect("post_send");
    let arrived = collect(&mut fabric, 1, 50 * FAILURE_DETECT, |_, d| match d {
        Delivery::RecvDone { qp, imm, .. } => Some((qp, imm)),
        _ => None,
    });
    assert_eq!(arrived, [(b2, 9)]);
    fabric
        .shutdown()
        .expect("a refused post is not an I/O error");
}

/// Socket set-up that fails panics nothing: the queue pair comes back
/// already broken at both ends, posts are refused, and the error comes
/// out of `shutdown()`.
#[test]
fn failed_socket_setup_is_a_broken_queue_pair_not_a_panic() {
    let mut fabric = TcpFabric::launch(2).expect("launch");
    let closed = TcpListener::bind("127.0.0.1:0").expect("bind");
    fabric.home.pump.net.addr = closed.local_addr().expect("local_addr");
    drop(closed);
    let (a, b) = fabric.connect(A, B);
    assert!(fabric.sockets.is_empty(), "no socket came up");
    assert_eq!(
        fabric.post_send(a, WrId(1), 64, 0, None),
        Err(VerbsError::QpBroken)
    );
    assert_eq!(fabric.post_recv(b, WrId(2), 64), Err(VerbsError::QpBroken));
    let broken = collect(&mut fabric, 2, 50 * FAILURE_DETECT, |node, d| match d {
        Delivery::QpBroken { qp } => Some((node, qp)),
        other => panic!("unexpected {other:?}"),
    });
    assert_eq!(broken, [(A, a), (B, b)]);
    assert!(fabric.advance().is_none(), "quiescent");
    let error = fabric.shutdown().expect_err("the set-up error surfaces");
    assert_eq!(error.kind(), io::ErrorKind::ConnectionRefused, "{error}");
}

/// The queue-pair field is peer input: a frame naming one its socket
/// does not carry breaks that socket — every queue pair on it, at both
/// ends — and comes out of `shutdown()` as `InvalidData`.
#[test]
fn frame_naming_a_queue_pair_not_carried_is_an_error_not_a_panic() {
    let mut fabric = TcpFabric::launch(2).expect("launch");
    let handles = [fabric.connect(A, B), fabric.connect(B, A)];
    let stray = OutFrame::new(999, WrId(1), KIND_WRITE, 0, Payload::Bytes(Bytes::new()));
    fabric.home.conns[0].eps[0].out.push_back(stray);
    let mut broken = collect(&mut fabric, 4, 50 * FAILURE_DETECT, |_, d| match d {
        Delivery::QpBroken { qp } => Some(qp),
        other => panic!("unexpected {other:?}"),
    });
    broken.sort();
    let mut expected: Vec<QpHandle> = handles.iter().flat_map(|&(x, y)| [x, y]).collect();
    expected.sort();
    assert_eq!(broken, expected);
    let error = fabric.shutdown().expect_err("the protocol error surfaces");
    assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    assert!(error.to_string().contains("not carried here"), "{error}");
}

/// A fabric whose hand-outs a test reads back: every delivery
/// `advance()` returned, in order, each checked for a stamp that does
/// not go back; and, once a node crashed, how many breaks of its queue
/// pairs were queued for software when the first came out. With
/// `cut_at`, the stepped worker dies once that many were handed out.
struct Tap {
    fabric: TcpFabric,
    handed: Vec<(NodeId, Delivery)>,
    last_at: SimTime,
    dead: Option<usize>,
    first_batch: Option<usize>,
    cut_at: Option<usize>,
}

impl Tap {
    fn new(fabric: TcpFabric) -> Tap {
        Tap {
            fabric,
            handed: Vec::new(),
            last_at: SimTime::ZERO,
            dead: None,
            first_batch: None,
            cut_at: None,
        }
    }

    /// Whether `delivery` breaks a queue pair to the crashed node.
    fn breaks_dead(&self, delivery: &Delivery) -> bool {
        let Delivery::QpBroken { qp } = delivery else {
            return false;
        };
        let nodes = self.fabric.qps[qp.conn_id() as usize].nodes;
        self.dead.is_some_and(|dead| nodes.contains(&dead))
    }
}

impl Transport for Tap {
    fn now(&self) -> SimTime {
        self.fabric.now()
    }
    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        if self.cut_at == Some(self.handed.len()) {
            if let Some(Link::Stepped(s)) = self.fabric.worker.as_mut().map(|w| &mut w.link) {
                s.dead = true;
            }
        }
        let next = self.fabric.advance();
        if let Some((at, node, delivery)) = &next {
            assert!(*at >= self.last_at, "a stamp went back: {delivery:?}");
            self.last_at = *at;
            if self.first_batch.is_none() && self.breaks_dead(delivery) {
                let ready = self.fabric.home.pump.ready.iter();
                let queued = ready.filter(|(_, _, d)| self.breaks_dead(d)).count();
                self.first_batch = Some(1 + queued);
            }
            self.handed.push((*node, delivery.clone()));
        }
        next
    }
    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        self.fabric.connect(a, b)
    }
    fn post_send(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        imm: u64,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        self.fabric.post_send(qp, wr_id, bytes, imm, wait_for)
    }
    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        self.fabric.post_write(qp, wr_id, tag, payload, wait_for)
    }
    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError> {
        self.fabric.post_recv(qp, wr_id, max_len)
    }
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.fabric.schedule_timer(node, delay, token);
    }
    fn consume_cpu(&mut self, node: NodeId, dur: SimDuration) {
        self.fabric.consume_cpu(node, dur);
    }
    fn crash(&mut self, node: NodeId) {
        self.dead = Some(node.index());
        self.fabric.crash(node);
    }
    fn is_crashed(&self, node: NodeId) -> bool {
        self.fabric.is_crashed(node)
    }
    fn break_qp(&mut self, qp: QpHandle) {
        self.fabric.break_qp(qp);
    }
    fn profile(&self, node: NodeId) -> &HostProfile {
        self.fabric.profile(node)
    }
    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        self.fabric.posting_snapshot(qp)
    }
    fn set_recorder(&mut self, recorder: trace::Recorder) {
        self.fabric.set_recorder(recorder);
    }
    fn stats(&self) -> FabricStats {
        self.fabric.stats()
    }
    fn cpu_report(&self, node: NodeId) -> CpuReport {
        self.fabric.cpu_report(node)
    }
    fn num_nodes(&self) -> usize {
        self.fabric.num_nodes()
    }
}

/// Seeds every stepped test runs over.
const SEEDS: std::ops::Range<u64> = 0..32;

/// An `n`-node fabric whose second shard the stepped driver turns.
fn stepped(n: usize, seed: u64) -> TcpFabric {
    let worker = |os: &Os| Some(Stepped::worker(Shard::new(n, os.clone()), seed));
    TcpFabric::assemble(n, Os::bind().expect("bind"), worker).expect("launch")
}

/// `n` members in one group over a tapped stepped fabric, in the
/// `tcp_large` shape (256 KiB blocks) or the `tcp_small` one (4 KiB),
/// three blocks in flight per queue pair; with `recovery`, survivors
/// reconfigure.
fn tapped_group(n: usize, seed: u64, block_size: u64, recovery: bool) -> (Cluster<Tap>, usize) {
    let mut builder = ClusterBuilder::from_transport(Tap::new(stepped(n, seed)));
    if recovery {
        builder = builder.recovery(RecoveryConfig::default());
    }
    let mut cluster = builder.build();
    let group = cluster.create_group(GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    (cluster, group)
}

/// Whether each shard holds a socket `node` is on.
fn on_both_shards(fabric: &TcpFabric, node: usize) -> bool {
    let on = |s: &Socket| s.nodes.contains(&node).then_some(s.shard);
    let shards: std::collections::BTreeSet<usize> = fabric.sockets.iter().filter_map(on).collect();
    shards.len() == 2
}

/// Node 0 has sockets on both shards, the worker is parked, and its
/// shard — taken back from it — is settled.
fn assert_settled_on_both_shards(mut fabric: TcpFabric) {
    assert!(on_both_shards(&fabric, 0), "{fabric:?}");
    let worker = fabric.worker.take().expect("a second shard");
    assert!(worker.idle(), "run() returned next to a running worker");
    let shard = worker.stop().expect("the stepped driver's shard");
    assert!(shard.conns.iter().all(Conn::settled), "worker unsettled");
    fabric.shutdown().expect("clean shutdown");
}

/// Small frames use both shards: a `tcp_small`-shaped run — 32 members,
/// single-block 4 KiB messages nine at a time — deals its sockets to
/// both, delivers every message at every member with stamps that never
/// go back, and each time `run()` returns the worker is parked, so
/// nothing spins between runs.
#[test]
fn a_small_frame_run_uses_both_shards_and_delivers_everywhere() {
    for seed in SEEDS {
        let (mut cluster, group) = tapped_group(32, seed, 4 << 10, false);
        for _ in 0..4 {
            for _ in 0..9 {
                cluster.submit_send(group, 4 << 10);
            }
            cluster.run();
            let worker = cluster.transport().fabric.worker.as_ref();
            assert!(worker.is_some_and(Worker::idle), "seed {seed}: parked");
        }
        assert_eq!(cluster.check_run(), Ok(()), "seed {seed}");
        for r in cluster.message_results() {
            assert!(r.latency().is_some(), "{r:?}");
        }
        assert_settled_on_both_shards(cluster.into_transport().fabric);
    }
}

/// Bulk frames use both shards too, and deliver what one thread would:
/// every message at every member, and a clean verdict.
#[test]
fn a_bulk_run_uses_both_shards_and_delivers_everywhere() {
    for seed in SEEDS {
        let (mut cluster, group) = tapped_group(8, seed, 256 << 10, false);
        for _ in 0..3 {
            cluster.submit_send(group, 4 << 20);
        }
        cluster.run();
        assert_eq!(cluster.check_run(), Ok(()), "seed {seed}");
        for r in cluster.message_results() {
            assert!(r.latency().is_some(), "{r:?}");
        }
        assert_settled_on_both_shards(cluster.into_transport().fabric);
    }
}

/// A relay whose sockets sit on both shards crashes mid-message: the
/// survivors reconfigure, and each message reaches every survivor or
/// none of them. The failure-detect breaks of the survivors' queue pairs
/// to the dead node surface as one batch — breaking the worker's sockets
/// is a round trip, so when the first break is handed out the rest are
/// queued behind it — and all of them ahead of any view row, a recovery
/// group's only failure gossip: no relayed failure notice is ever sent.
#[test]
fn a_relay_crash_across_shards_keeps_delivery_all_or_nothing() {
    /// The tag of a view row (`rdmc_sim`'s control plane); a relayed
    /// failure notice's is 1.
    const NOTICE: u64 = 3;
    const DEAD: usize = 3;
    for seed in SEEDS {
        let (mut cluster, group) = tapped_group(8, seed, 256 << 10, true);
        let first = cluster.submit_send(group, 4 << 20);
        cluster.submit_send(group, 4 << 20);
        for _ in 0..100 {
            assert!(cluster.step(), "the first message is under way");
        }
        let fabric = &cluster.transport().fabric;
        assert!(on_both_shards(fabric, DEAD), "{fabric:?}");
        let first_record = cluster.result(first).expect("submitted");
        assert!(first_record.latency().is_none(), "crash mid-message");
        cluster.crash_now(DEAD);
        cluster.run();
        assert_eq!(cluster.check_run(), Ok(()), "seed {seed}");
        assert_eq!(cluster.surviving_ranks(group), [0, 1, 2, 4, 5, 6, 7]);
        let tap = cluster.into_transport();
        let handed = &tap.handed;
        let breaks: Vec<usize> = (0..handed.len())
            .filter(|&i| tap.breaks_dead(&handed[i].1))
            .collect();
        let batch = Some(breaks.len());
        assert_eq!(tap.first_batch, batch, "seed {seed}: one batch of breaks");
        let notice =
            |(_, d): &(NodeId, Delivery)| matches!(d, Delivery::WriteArrived { tag: NOTICE, .. });
        let gossip = handed.iter().position(notice);
        assert!(
            !breaks.is_empty() && breaks.iter().all(|&i| Some(i) < gossip),
            "seed {seed}: breaks at {breaks:?}, the first view row at {gossip:?}"
        );
        let relayed =
            |(_, d): &(NodeId, Delivery)| matches!(d, Delivery::WriteArrived { tag: 1, .. });
        assert!(
            !handed.iter().any(relayed),
            "seed {seed}: a relayed failure notice"
        );
        tap.fabric.shutdown().expect("clean shutdown after a crash");
    }
}

/// A pump thread that dies mid-message panics nothing: the caller breaks
/// the sockets it pumped — both ends of every queue pair on them hear
/// `QpBroken` — `run()` returns on a wedged group, and `shutdown()`
/// reports the death.
#[test]
fn a_pump_worker_that_dies_mid_run_is_an_error_at_shutdown_not_a_panic() {
    for seed in SEEDS {
        let mut tap = Tap::new(stepped(8, seed));
        tap.cut_at = Some(200);
        let mut cluster = ClusterBuilder::from_transport(tap).build();
        let group = cluster.create_group(GroupSpec {
            members: (0..8).collect(),
            algorithm: Algorithm::BinomialPipeline,
            block_size: 256 << 10,
            ready_window: 3,
            max_outstanding_sends: 3,
        });
        let first = cluster.submit_send(group, 4 << 20);
        cluster.run();
        let first_record = cluster.result(first).expect("submitted");
        assert!(
            first_record.latency().is_none(),
            "seed {seed}: died mid-message"
        );
        let tap = cluster.into_transport();
        assert!(
            tap.fabric.worker.is_none(),
            "seed {seed}: one shard runs on"
        );
        let broken: std::collections::BTreeSet<QpHandle> = tap
            .handed
            .iter()
            .filter_map(|(_, d)| match d {
                Delivery::QpBroken { qp } => Some(*qp),
                _ => None,
            })
            .collect();
        let mut lost = 0;
        for (id, route) in tap.fabric.qps.iter().enumerate() {
            let Some((sock, _)) = route.at else { continue };
            if tap.fabric.sockets[sock].shard > 0 {
                lost += 1;
                for end in 0..2 {
                    let qp = QpHandle::from_parts(id as u32, end);
                    assert!(broken.contains(&qp), "seed {seed}: {qp:?} never broke");
                }
            }
        }
        assert!(lost > 0, "seed {seed}: the worker pumped queue pairs");
        let error = tap.fabric.shutdown().expect_err("the death surfaces");
        assert!(
            error.to_string().contains("the pump worker died"),
            "{error}"
        );
    }
}

/// An engine log in `transport_equivalence`'s canonical form: per
/// (group, rank, event class, peer) channel, its events in log order.
type Channels = BTreeMap<(usize, u32, &'static str, i64), Vec<u64>>;

fn canonicalize(log: &[rdmc_sim::EngineLogEntry]) -> Channels {
    use rdmc::engine::Event;
    let mut channels = Channels::new();
    for entry in log {
        let (class, peer, detail) = match entry.event {
            Event::StartSend { size } => ("start", -1, size),
            Event::BlockReceived { from, total_size } => ("block", i64::from(from), total_size),
            Event::ReadyReceived { from } => ("ready", i64::from(from), 0),
            Event::SendCompleted { to } => ("sendc", i64::from(to), 0),
            Event::PeerFailed { rank } => ("fail", i64::from(rank), 0),
        };
        let channel = channels.entry((entry.group, entry.rank, class, peer));
        channel.or_default().push(detail);
    }
    channels
}

/// The stepped driver changes when things happen, never what: a
/// crash-free 8-node run delivers the same messages to the same members
/// (the time-free digest) and its engines log the same events per
/// channel on every seed as on one shard.
#[test]
fn two_shards_run_what_one_shard_runs() {
    let run = |fabric: TcpFabric| {
        let mut cluster = ClusterBuilder::from_transport(fabric).engine_log().build();
        let group = cluster.create_group(GroupSpec {
            members: (0..8).collect(),
            algorithm: Algorithm::BinomialPipeline,
            block_size: 16 << 10,
            ready_window: 2,
            max_outstanding_sends: 2,
        });
        for size in [64 << 10, 1, (96 << 10) + 17, 4 << 10] {
            cluster.submit_send(group, size);
        }
        cluster.run();
        assert_eq!(cluster.check_run(), Ok(()));
        let mut digest = Vec::new();
        for r in cluster.message_results() {
            let got: Vec<bool> = (0..8).map(|o| r.delivered(o)).collect();
            digest.push((r.group, r.index, r.size, got));
        }
        let log = canonicalize(cluster.engine_log());
        let fabric = cluster.into_transport();
        let both = on_both_shards(&fabric, 0);
        assert_eq!(fabric.worker.is_some(), both, "{fabric:?}");
        fabric.shutdown().expect("clean shutdown");
        (digest, log)
    };
    let one = run(TcpFabric::assemble(8, Os::bind().expect("bind"), |_| None).expect("launch"));
    for seed in SEEDS {
        assert_eq!(run(stepped(8, seed)), one, "seed {seed}");
    }
}

/// Posts are answered, and snapshots taken, from what software heard of
/// a queue pair, whichever shard owns its socket: the same posts,
/// receives and break on a queue pair of each get the same answers and
/// the same snapshots at every point.
#[test]
fn both_shards_answer_posts_and_snapshots_alike() {
    for seed in SEEDS {
        let mut f = stepped(4, seed);
        let pairs = [f.connect(A, B), f.connect(NodeId(2), NodeId(3))];
        assert_eq!(f.sockets[1].shard, 1, "{f:?}");
        for act in 0..9 {
            match act {
                3 | 7 => while f.advance().is_some() {},
                4 => pairs.iter().for_each(|&(a, _)| f.break_qp(a)),
                _ => {}
            }
            let answers = pairs.map(|(a, b)| match act {
                0 | 6 | 8 => f.post_recv(b, WrId(act), 64),
                1 | 2 | 5 => f.post_send(a, WrId(act), 64, 0, None),
                _ => Ok(()),
            });
            let snaps = pairs.map(|(a, b)| [a, b].map(|qp| f.posting_snapshot(qp)));
            assert_eq!(answers[0], answers[1], "seed {seed}");
            assert_eq!(snaps[0], snaps[1], "seed {seed}");
        }
        f.shutdown().expect("clean shutdown");
    }
}

/// The stepped driver: the second shard on the calling thread. Each time
/// the caller looks for a report, a seeded choice says whether the shard
/// takes a turn first and whether a waiting report comes through, so
/// which shard steps next and when the caller hears of it vary by seed;
/// [`Worker::wait`] always turns it, so a caller that waits gets on.
/// Once `dead`, it turns no more, and when its reports run out the
/// caller finds its channel disconnected, as a pump thread's that died.
pub(crate) struct Stepped<N: Net> {
    pub(crate) shard: Shard<N>,
    pub(crate) inbox: VecDeque<Order<N>>,
    outbox: VecDeque<Report>,
    parked: bool,
    pub(crate) dead: bool,
    rng: simnet::SplitMix64,
    /// Out of 8: the odds a look turns the shard, and lets a report out.
    odds: [u64; 2],
}

impl<N: Net> Stepped<N> {
    fn worker(shard: Shard<N>, seed: u64) -> Worker<N> {
        let mut rng = simnet::SplitMix64::new(seed);
        let odds = [0; 2].map(|_| 1 + rng.next_u64() % 7);
        Worker::new(Link::Stepped(Box::new(Stepped {
            shard,
            inbox: VecDeque::new(),
            outbox: VecDeque::new(),
            parked: true,
            dead: false,
            rng,
            odds,
        })))
    }

    /// A turn, unless the shard is parked with nothing to apply, as a
    /// parked thread waits on its inbox.
    pub(crate) fn turn(&mut self) {
        if self.dead || self.parked && self.inbox.is_empty() {
            return;
        }
        let outbox = &mut self.outbox;
        let orders = self.inbox.drain(..);
        self.parked = self.shard.turn(orders, &mut |r| outbox.push_back(r));
    }

    pub(crate) fn next(&mut self) -> Result<Report, TryRecvError> {
        let mut roll = || self.rng.next_u64() % 8;
        let (turn, through) = (roll() < self.odds[0], roll() < self.odds[1]);
        if turn {
            self.turn();
        }
        match through.then(|| self.outbox.pop_front()).flatten() {
            Some(report) => Ok(report),
            None if self.dead && self.outbox.is_empty() => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
}
