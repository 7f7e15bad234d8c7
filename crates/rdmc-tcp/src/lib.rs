//! # rdmc-tcp — RDMC over real TCP sockets
//!
//! The paper's §5.3 observes that the binomial pipeline's slack should
//! make RDMC "work surprisingly well over high speed datacenter TCP
//! (with no RDMA)". This crate is that port, rebuilt as a
//! [`verbs::Transport`] backend: a **nonblocking event loop** driven by
//! the caller (no thread per peer, no staging copy on either side) that
//! carries the *entire* `rdmc-sim` orchestration stack unchanged. One
//! public API, two transports: everything built on
//! [`rdmc_sim::ClusterBuilder`] — groups, pacer
//! admission, epoch recovery, per-group reliability policies, the
//! flight recorder, the §4.6 close barrier — runs identically over the
//! simulated verbs fabric and over this backend, and the standing
//! `transport_equivalence` gate holds the two to bit-identical engine
//! event logs and delivery digests.
//!
//! TCP provides what RDMC needs from RDMA's reliable connections:
//! in-order exactly-once delivery per queue pair and failure reporting
//! on break. The mapping:
//!
//! - two nodes share **one socket**, opened when the protocol first
//!   pairs them; every queue pair between them is a logical one on it,
//!   and each frame names its queue pair in its header;
//! - a two-sided `post_send` becomes a framed write whose "hardware
//!   completion" ([`verbs::Delivery::SendDone`]) fires when the frame
//!   is fully flushed to the socket;
//! - a one-sided `post_write` becomes a framed write surfacing at the
//!   peer as [`verbs::Delivery::WriteArrived`];
//! - posted receives are a per-queue-pair queue consumed in arrival
//!   order — a data frame that finds no posted receive is held and
//!   counted in [`verbs::FabricStats::rnr_arms`], keeping the §4.2
//!   zero-RNR discipline observable on real sockets too;
//! - a crashed node goes silent; peers detect it after the
//!   failure-detect interval and see their queue pairs flush and break,
//!   exactly like the simulated NIC.
//!
//! All nodes live in one process. `advance()` runs resumable **laps**:
//! a lap hands out due timers, then pumps every socket direction in turn
//! — a socket end with queued frames flushes them a quantum at a time in
//! one gathered write, and its peer end is read at once — and returns as
//! soon as a direction produced deliveries, resuming at the next one.
//! On a host with a second core the sockets are dealt to two **shards**
//! as they open: a worker thread runs the lap over its own for their
//! whole life, and the caller runs it over the rest and hands out what
//! both deliver. DESIGN.md ("Transport abstraction")
//! describes the loop — quantum, streaming decoder, byte ledger, sweep,
//! timers between laps, shards, what is in-process about it — and
//! what a broken queue pair or a broken socket takes down with it.
//! `SendDone` means "flushed to the socket"; nothing the receiving end
//! does feeds into it.
//!
//! ```
//! use rdmc::Algorithm;
//! use rdmc_sim::GroupSpec;
//!
//! let mut cluster = rdmc_tcp::builder(4)?.build();
//! let group = cluster.create_group(GroupSpec {
//!     members: vec![0, 1, 2, 3],
//!     algorithm: Algorithm::BinomialPipeline,
//!     block_size: 64 << 10,
//!     ready_window: 2,
//!     max_outstanding_sends: 2,
//! });
//! cluster.submit_send(group, 256 << 10);
//! cluster.run();
//! assert!(cluster.destroy_group(group), "close barrier certifies delivery");
//! rdmc_tcp::shutdown(cluster)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod qp;
mod shard;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use frame::{
    Decoder, Event, OutFrame, Payload, GATHER_SLICES, KIND_SEND, KIND_WRITE, MAX_FRAME, QUANTUM,
};
use qp::{Qp, Route};
use rdmc_sim::{Cluster, ClusterBuilder};
use shard::{Order, Report, Sock, Worker};
use simnet::{HostProfile, SimDuration, SimTime};
use verbs::{
    CpuReport, Delivery, FabricStats, NodeId, PostingSnapshot, QpHandle, Transport, VerbsError,
    WaitSpec, WrId,
};

/// An RDMC cluster over the TCP backend (all nodes in one process).
pub type TcpCluster = Cluster<TcpFabric>;

/// How long a surviving endpoint takes to notice a crashed peer — the
/// TCP stand-in for the simulated fabric's failure-detect interval —
/// and the longest any socket goes unread (the sweep period).
const FAILURE_DETECT: Duration = Duration::from_millis(1);
const FAILURE_DETECT_NS: u64 = FAILURE_DETECT.as_nanos() as u64;

/// Read memory: one quantum and its headers, in two halves, one per
/// shard. So a read takes at most half a quantum. A shard's half starts
/// at a sixteenth and doubles whenever a read fills it, so small-frame
/// runs never touch the rest.
const SCRATCH: usize = QUANTUM as usize + 4096;

/// Strangers' connections a socket's set-up drops before it gives up.
const STRANGERS: usize = 16;

/// One end of a socket: its stream half, the outbound frames of every
/// queue pair on this end (in posting order), the inbound frame in
/// progress, and this end's side of the byte ledger.
struct Endpoint {
    node: usize,
    stream: TcpStream,
    out: VecDeque<OutFrame>,
    decoder: Decoder,
    /// Bytes written into this socket; the peer's `wire_read` trails it
    /// by what is in flight towards the peer.
    wire_sent: u64,
    /// Bytes read out of this socket.
    wire_read: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Alive,
    /// One end crashed; the failure-detect break timer is armed. The
    /// dead end flushes nothing more; the live end still drains
    /// pre-crash data off the socket until the break fires.
    Dying,
    Broken,
}

/// The one socket between two nodes and the state of every queue pair
/// it carries: pumping it needs nothing else but a [`Pump`].
struct Conn {
    eps: [Endpoint; 2],
    state: ConnState,
    qps: Vec<Qp>,
}

impl Conn {
    /// Bytes written towards `end` that it has not read yet.
    fn in_flight_to(&self, end: usize) -> u64 {
        self.eps[1 - end].wire_sent - self.eps[end].wire_read
    }

    /// Whether pumping has nothing left to do on it: no frame queued
    /// that will still go on the wire, and no byte written that its peer
    /// has not read. A dying socket flushes nothing more, so only its
    /// bytes in flight stand until its break timer fires; a broken
    /// socket's entries left the ledger when it broke.
    fn settled(&self) -> bool {
        let idle = || self.eps.iter().all(|ep| ep.out.is_empty());
        let read = || self.in_flight_to(0) + self.in_flight_to(1) == 0;
        match self.state {
            ConnState::Alive => idle() && read(),
            ConnState::Dying => read(),
            ConnState::Broken => true,
        }
    }
}

/// One thread's means to pump sockets: a view of who crashed and of
/// the clock, its read buffer, and what pumping yields for software.
/// The fabric has one, and the worker another.
struct Pump {
    crashed: Vec<bool>,
    start: Instant,
    /// The read buffer (one per thread, not per socket).
    scratch: Vec<u8>,
    /// Deliveries, stamped in the order they happened.
    ready: VecDeque<(SimTime, NodeId, Delivery)>,
    rnr_arms: u64,
    /// Socket and protocol errors observed mid-run, surfaced by
    /// [`TcpFabric::shutdown`] instead of being unwrapped or leaked.
    io_errors: Vec<io::Error>,
}

impl Pump {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    // Called from the `qp` module's break paths as well; without the
    // hint the per-frame path stops inlining it (measured: `tcp_large`
    // goodput ~3 % lower on one core).
    #[inline]
    fn push(&mut self, node: usize, delivery: Delivery) {
        if self.crashed[node] {
            return; // dead software observes nothing
        }
        let at = SimTime::from_nanos(self.now_ns());
        self.ready.push_back((at, NodeId(node as u32), delivery));
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerEntry {
    /// Failure detection expired: break this socket (the worker's, if
    /// `away`).
    Break { away: bool, conn: usize },
    /// A driver timer ([`Transport::schedule_timer`]).
    Driver { node: usize, token: u64 },
}

/// The TCP datapath: every node's sockets, one nonblocking event loop.
///
/// Implements [`Transport`], so [`rdmc_sim::ClusterBuilder`] drives it
/// exactly like the simulated fabric — see the crate docs. Create with
/// [`TcpFabric::launch`] (or [`builder`]); reclaim the sockets and
/// surface accumulated socket errors with [`TcpFabric::shutdown`].
pub struct TcpFabric {
    /// Loopback listener every socket handshakes through.
    listener: TcpListener,
    addr: SocketAddr,
    /// The caller's shard.
    conns: Vec<Conn>,
    /// Each queue pair's route, at the index its handles name.
    qps: Vec<Route>,
    /// Each node pair's newest socket (whether it is the worker's, and
    /// its index in its shard), keyed `(lower, higher)` node; the pair's
    /// next connect replaces a broken one.
    pairs: BTreeMap<(usize, usize), (bool, usize)>,
    pump: Pump,
    timers: BinaryHeap<Reverse<(u64, u64, TimerEntry)>>,
    timer_seq: u64,
    recorder: trace::Recorder,
    profile: HostProfile,
    /// When every socket was last read regardless of the ledger.
    last_sweep: u64,
    /// The lap in progress: the next socket direction it pumps
    /// (`2 * socket + end`), whether it reads every socket, and whether
    /// it has moved any bytes yet.
    cursor: usize,
    lap_sweep: bool,
    lap_moved: bool,
    /// The last timestamp `advance()` handed out.
    last_at: SimTime,
    /// Whether sockets may go to a worker: a second core, and a worker
    /// that started (lazily, with the second socket).
    parallel: bool,
    worker: Option<Worker>,
}

impl TcpFabric {
    /// Binds a loopback listener and readies `n` in-process nodes.
    /// Sockets are established lazily as the protocol first pairs two
    /// nodes.
    ///
    /// # Errors
    ///
    /// Any socket error during bring-up.
    pub fn launch(n: usize) -> io::Result<TcpFabric> {
        assert!(n >= 1, "cluster needs at least one node");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        Ok(TcpFabric {
            listener,
            addr,
            conns: Vec::new(),
            qps: Vec::new(),
            pairs: BTreeMap::new(),
            pump: Pump {
                crashed: vec![false; n],
                start: Instant::now(),
                scratch: vec![0; SCRATCH / 32],
                ready: VecDeque::new(),
                rnr_arms: 0,
                io_errors: Vec::new(),
            },
            timers: BinaryHeap::new(),
            timer_seq: 0,
            recorder: trace::Recorder::disabled(),
            profile: HostProfile::default(),
            last_sweep: 0,
            cursor: 0,
            lap_sweep: false,
            lap_moved: false,
            last_at: SimTime::ZERO,
            parallel: cores >= 2,
            worker: None,
        })
    }

    /// The loopback address of the listener every socket handshakes
    /// through.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Tears the fabric down: shuts down every socket and surfaces the
    /// first error observed — either mid-run (socket set-up, reads,
    /// writes and frame decoding never unwrap; errors are recorded and
    /// the queue pairs broken) or during the shutdown itself. The
    /// listener, all streams and the pump worker go on drop regardless,
    /// so repeated launch/shutdown cycles in one process stay clean.
    ///
    /// # Errors
    ///
    /// The first socket or protocol error the fabric observed.
    pub fn shutdown(mut self) -> io::Result<()> {
        match self.worker.take().map(Worker::stop) {
            Some(Some((conns, pump))) => {
                self.conns.extend(conns);
                self.pump.io_errors.extend(pump.io_errors);
            }
            Some(None) => self
                .pump
                .io_errors
                .push(io::Error::other("the pump worker panicked")),
            None => {}
        }
        for conn in &mut self.conns {
            if conn.state == ConnState::Broken {
                continue;
            }
            for ep in &mut conn.eps {
                if let Err(e) = ep.stream.shutdown(Shutdown::Both) {
                    if e.kind() != io::ErrorKind::NotConnected {
                        self.pump.io_errors.push(e);
                    }
                }
            }
        }
        match std::mem::take(&mut self.pump.io_errors).into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Opens the one socket between nodes `a` and `b` and deals it to a
    /// shard for its life. Inline handshake:
    /// this loop is the only caller, so the connect pairs up with the
    /// accept that names it as the peer, with no identification
    /// handshake on the wire. A stranger connecting to the listener
    /// first is accepted and dropped.
    fn open_socket(&mut self, a: usize, b: usize) -> io::Result<(bool, usize)> {
        let client = TcpStream::connect(self.addr)?;
        let me = client.local_addr()?;
        let accepted = (0..=STRANGERS).find_map(|_| match self.listener.accept() {
            Ok((server, peer)) => (peer == me).then_some(Ok(server)),
            Err(e) => Some(Err(e)),
        });
        let strangers = || io::Error::other(format!("{STRANGERS} strangers came first"));
        let server = accepted.unwrap_or_else(|| Err(strangers()))?;
        for s in [&client, &server] {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
        }
        let mk = |node: usize, stream: TcpStream| Endpoint {
            node,
            stream,
            out: VecDeque::new(),
            decoder: Decoder::default(),
            wire_sent: 0,
            wire_read: 0,
        };
        // Connecting to an already-crashed peer: the socket comes up but
        // the dead side never answers, so failure detection starts
        // ticking immediately, exactly as for a crash after connect.
        let dying = self.pump.crashed[a] || self.pump.crashed[b];
        let conn = Conn {
            eps: [mk(a, client), mk(b, server)],
            state: if dying {
                ConnState::Dying
            } else {
                ConnState::Alive
            },
            qps: Vec::new(),
        };
        let at = self.deal(conn);
        self.pairs.insert((a.min(b), a.max(b)), at);
        if dying {
            let deadline = self.pump.now_ns().saturating_add(FAILURE_DETECT_NS);
            let (away, conn) = at;
            self.arm_timer(deadline, TimerEntry::Break { away, conn });
        }
        Ok(at)
    }

    /// Deals a new socket to the shard with fewer sockets, the caller's
    /// on a tie; the worker starts with its first. Returns whether it
    /// went to the worker, and its index there.
    fn deal(&mut self, conn: Conn) -> (bool, usize) {
        if self.parallel && self.worker.is_none() && !self.conns.is_empty() {
            let pump = Pump {
                crashed: self.pump.crashed.clone(),
                start: self.pump.start,
                scratch: vec![0; SCRATCH / 32],
                ready: VecDeque::new(),
                rnr_arms: 0,
                io_errors: Vec::new(),
            };
            // A host that cannot start a thread keeps one shard.
            self.worker = Worker::start(pump).ok();
            self.parallel = self.worker.is_some();
        }
        match self.worker.as_mut() {
            Some(w) if w.socks.len() < self.conns.len() => {
                w.socks.push(Sock {
                    nodes: conn.eps.each_ref().map(|ep| ep.node),
                    state: conn.state,
                    qps: 0,
                });
                w.order(Order::Adopt(conn));
                (true, w.socks.len() - 1)
            }
            _ => {
                self.conns.push(conn);
                (false, self.conns.len() - 1)
            }
        }
    }

    /// Takes in every report the worker has sent: its deliveries join
    /// the queue stamped as they arrive, so stamps never go back, and
    /// what software sees of its queue pairs follows them.
    fn absorb(&mut self) {
        let Some(w) = self.worker.as_mut() else {
            return;
        };
        while let Some(report) = w.next() {
            let Report::Deliveries(batch) = report else {
                continue;
            };
            let at = SimTime::from_nanos(self.pump.now_ns());
            for (_, node, delivery) in batch {
                qp::see(&mut self.qps, &delivery);
                if !self.pump.crashed[node.index()] {
                    self.pump.ready.push_back((at, node, delivery));
                }
            }
        }
    }

    /// Spins, taking in reports, until a worker lap has run since the
    /// last order: what the caller posted so far has been flushed, read
    /// back and delivered.
    fn catch_up(&mut self) {
        while self.worker.as_ref().is_some_and(|w| !w.caught_up()) {
            std::hint::spin_loop();
            self.absorb();
        }
    }

    /// Fires every timer due at or before `now` — *all* of them, as a lap
    /// begins and before any of its socket completions surfaces. This
    /// ordering is what the [`Transport`] contract's timers-before-I/O
    /// guarantee asks for: every failure-detect break for a crashed node
    /// (all armed at the same deadline) batches ahead of relayed-failure
    /// gossip. The round's end includes the worker: what was posted to
    /// its sockets is delivered first, and breaking one of its sockets
    /// is a round trip that ends before the batch is handed out.
    fn fire_due_timers(&mut self, now: u64) {
        if self
            .timers
            .peek()
            .is_none_or(|Reverse((deadline, _, _))| *deadline > now)
        {
            return;
        }
        self.catch_up();
        while let Some(&Reverse((deadline, _, entry))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            match entry {
                TimerEntry::Break { away: false, conn } => {
                    self.conns[conn].expire(conn, &mut self.pump);
                }
                TimerEntry::Break { away: true, conn } => {
                    if let Some(w) = self.worker.as_mut() {
                        w.order(Order::Break(conn));
                    }
                }
                TimerEntry::Driver { node, token } => {
                    self.pump.push(node, Delivery::Timer { token });
                }
            }
        }
        self.catch_up();
    }

    /// Queues one outbound frame, or refuses it: a crashed node and a
    /// broken queue pair as the verbs do, a body over [`MAX_FRAME`] as
    /// an RDMA local-length error does — by breaking the queue pair.
    fn post_frame(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        kind: u8,
        meta: u64,
        payload: Payload,
    ) -> Result<(), VerbsError> {
        let (conn, slot) = self.check_postable(qp)?;
        if payload.len() > MAX_FRAME {
            self.break_qp(qp);
            return Err(VerbsError::QpBroken);
        }
        let (q, end) = (qp.conn_id(), usize::from(qp.endpoint()));
        let frame = OutFrame::new(q, wr_id, kind, meta, payload);
        let route = &mut self.qps[q as usize];
        match self.worker.as_mut().filter(|_| route.away) {
            Some(w) => {
                route.seen.queued[end] += 1;
                w.order(Order::Frame {
                    conn,
                    slot,
                    end,
                    frame,
                });
            }
            None => self.conns[conn].queue(slot, end, frame, &mut self.pump),
        }
        Ok(())
    }

    /// The socket and slot of the queue pair a post on `qp` goes to, or
    /// why the post is refused. A queue pair on the worker's shard is
    /// broken once software has seen it break (or broke it).
    fn check_postable(&self, qp: QpHandle) -> Result<(usize, usize), VerbsError> {
        let route = &self.qps[qp.conn_id() as usize];
        if self.pump.crashed[route.nodes[usize::from(qp.endpoint())]] {
            return Err(VerbsError::NodeCrashed);
        }
        let live = |&(ci, slot): &(usize, usize)| match route.away {
            true => !route.seen.broken,
            false => !self.conns[ci].qps[slot].broken,
        };
        route.at.filter(live).ok_or(VerbsError::QpBroken)
    }

    /// Quiescent when nothing is queued for software, every socket's
    /// side of the ledger is empty — the worker's too: it parked — and
    /// no timer is armed that could still matter. A dying socket's
    /// pending break timer keeps the loop alive until its ledger entries
    /// leave.
    fn quiescent(&self) -> bool {
        self.pump.ready.is_empty()
            && self.worker.as_ref().is_none_or(Worker::idle)
            && self.conns.iter().all(Conn::settled)
            && self
                .timers
                .iter()
                .all(|Reverse((_, _, entry))| match entry {
                    TimerEntry::Break { .. } => false,
                    TimerEntry::Driver { node, .. } => self.pump.crashed[*node],
                })
    }

    fn arm_timer(&mut self, deadline: u64, entry: TimerEntry) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((deadline, seq, entry)));
    }
}

/// What a post, a crash or an expiry does to one socket, on whichever
/// shard it lives.
impl Conn {
    /// Queues a frame of end `end` of the queue pair in `slot`.
    fn queue(&mut self, slot: usize, end: usize, frame: OutFrame, p: &mut Pump) {
        if self.flushes(slot, end, frame.wr_id, false, p) {
            return;
        }
        let q = &mut self.qps[slot];
        q.ends[end].queued += 1;
        self.eps[end ^ q.flip].out.push_back(frame);
    }

    /// Posts a receive at end `end` of the queue pair in `slot`. A held
    /// frame (arrived before any receive was posted) consumes it
    /// immediately, in arrival order.
    fn receive(&mut self, slot: usize, end: usize, (wr_id, max_len): (WrId, u64), p: &mut Pump) {
        if self.flushes(slot, end, wr_id, true, p) {
            return;
        }
        let qp_end = &mut self.qps[slot].ends[end];
        match qp_end.held.pop_front() {
            Some(send) => self.land(slot, end, (wr_id, max_len), send, p),
            None => qp_end.recvs.push_back((wr_id, max_len)),
        }
    }

    /// Whether a post at end `end` of the queue pair in `slot` is flushed
    /// on arrival: the queue pair broke before the post reached it (the
    /// worker's, before software heard), and RDMA flushes a post to a
    /// queue pair in the error state.
    fn flushes(&self, slot: usize, end: usize, wr_id: WrId, recv: bool, p: &mut Pump) -> bool {
        let q = &self.qps[slot];
        if q.broken {
            let qp = QpHandle::from_parts(q.id, end as u8);
            let flushed = Delivery::WrFlushed { qp, wr_id, recv };
            p.push(self.eps[end ^ q.flip].node, flushed);
        }
        q.broken
    }

    /// A crash of `node`: a live socket it is on starts dying — the dead
    /// side flushes nothing more, and what it had queued dies with the
    /// break. Returns whether this one did.
    fn dies_with(&mut self, node: usize) -> bool {
        let dies = self.state == ConnState::Alive && self.eps.iter().any(|ep| ep.node == node);
        if dies {
            self.state = ConnState::Dying;
        }
        dies
    }

    /// The failure-detect deadline passed: breaks the socket. Pre-crash
    /// data the dead end already flushed is genuinely on the wire, so
    /// it is delivered before the break, matching the simulated fabric
    /// where a completed transfer is a delivered transfer.
    fn expire(&mut self, ci: usize, p: &mut Pump) {
        for end in 0..2 {
            self.read_endpoint(ci, end, false, p);
        }
        self.break_all(p);
    }
}

/// The pump: one socket's share of a lap, and the per-frame path.
impl Conn {
    /// Flushes one quantum from `tx`, reads it straight back out of the
    /// peer end, and repeats while frames are queued and bytes move.
    /// With `sweep`, the peer end is read once whatever the ledger says,
    /// which is how a socket killed from outside is noticed. Returns
    /// whether any bytes moved.
    fn pump_direction(&mut self, ci: usize, tx: usize, sweep: bool, p: &mut Pump) -> bool {
        let mut moved = false;
        let mut force = sweep;
        loop {
            // A dying end's queued frames die with the break; its live
            // end is still read while the ledger shows bytes for it.
            let wrote = self.state == ConnState::Alive && self.flush_quantum(ci, tx, p);
            let read = self.read_endpoint(ci, 1 - tx, force, p);
            force = false;
            moved |= wrote || read;
            if !(wrote || read) || self.eps[tx].out.is_empty() {
                return moved;
            }
        }
    }

    /// One gathered write of at most [`QUANTUM`] payload bytes (and the
    /// headers that go with them) from the front of the queue; emits
    /// send/write completions for frames that left the host entirely.
    /// Returns whether any bytes moved.
    fn flush_quantum(&mut self, ci: usize, end: usize, p: &mut Pump) -> bool {
        let ep = &mut self.eps[end];
        if ep.out.is_empty() {
            return false;
        }
        let mut slices = [IoSlice::new(&[]); GATHER_SLICES];
        let n = frame::gather(&ep.out, &mut slices);
        let wrote = loop {
            match (&ep.stream).write_vectored(&slices[..n]) {
                Ok(0) => {
                    self.break_all(p);
                    return true;
                }
                Ok(wrote) => break wrote as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail(ci, e, p);
                    return true;
                }
            }
        };
        ep.wire_sent += wrote;
        let node = ep.node;
        let mut left = wrote;
        while let Some(frame) = self.eps[end].out.front_mut() {
            if !frame.advance(&mut left) {
                break; // partial write; the next gather resumes here
            }
            let (id, wr_id, two_sided) = (frame.qp, frame.wr_id, frame.two_sided);
            self.eps[end].out.pop_front();
            let Some(slot) = self.slot_of(id).filter(|&s| !self.qps[s].broken) else {
                continue; // an orphan completes nothing
            };
            let qp = &mut self.qps[slot];
            let qend = end ^ qp.flip;
            qp.ends[qend].queued -= 1;
            let qp = QpHandle::from_parts(id, qend as u8);
            let delivery = if two_sided {
                Delivery::SendDone { qp, wr_id }
            } else {
                Delivery::WriteDone { qp, wr_id }
            };
            p.push(node, delivery);
        }
        true
    }

    /// Reads `end`'s socket while the ledger shows bytes in flight
    /// towards it (`force`: once regardless) and decodes them out of
    /// the pump's read buffer. The ledger ends the turn exactly, so
    /// no trailing `WouldBlock` is paid for; one comes back only when
    /// the kernel has not delivered everything yet, and the next pass
    /// asks again. Returns whether any bytes moved.
    fn read_endpoint(&mut self, ci: usize, end: usize, force: bool, p: &mut Pump) -> bool {
        if p.crashed[self.eps[end].node] {
            return false; // dead software reads nothing
        }
        if !force && self.in_flight_to(end) == 0 {
            return false;
        }
        let mut scratch = std::mem::take(&mut p.scratch);
        let moved = self.read_into(ci, end, force, &mut scratch, p);
        p.scratch = scratch;
        moved
    }

    fn read_into(
        &mut self,
        ci: usize,
        end: usize,
        mut force: bool,
        scratch: &mut Vec<u8>,
        p: &mut Pump,
    ) -> bool {
        let mut moved = false;
        loop {
            if self.state == ConnState::Broken || !(force || self.in_flight_to(end) > 0) {
                return moved;
            }
            match self.eps[end].stream.read(scratch) {
                Ok(0) => {
                    // Orderly close without a protocol-level break: the
                    // peer's socket died under us. A dying socket's EOF
                    // just waits for its break timer.
                    if self.state == ConnState::Alive {
                        match self.eps[end].decoder.finish() {
                            Ok(()) => self.break_all(p),
                            Err(e) => self.fail(ci, e.into(), p),
                        }
                        return true;
                    }
                    return moved;
                }
                Ok(n) => {
                    self.eps[end].wire_read += n as u64;
                    moved = true;
                    self.decode(ci, end, &scratch[..n], p);
                    force = false;
                    if n == scratch.len() && n < SCRATCH / 2 {
                        scratch.resize(2 * n, 0);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return moved,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail(ci, e, p);
                    return true;
                }
            }
        }
    }

    /// Streams freshly read bytes through `end`'s decoder and acts on
    /// each frame they complete.
    fn decode(&mut self, ci: usize, end: usize, mut chunk: &[u8], p: &mut Pump) {
        while !chunk.is_empty() && self.state != ConnState::Broken {
            let (used, event) = match self.eps[end].decoder.feed(chunk) {
                Ok(step) => step,
                Err(e) => return self.fail(ci, e.into(), p),
            };
            chunk = &chunk[used..];
            if let Some(event) = event {
                self.deliver(ci, end, event, p);
            }
        }
    }

    /// Hands one inbound frame to the queue pair it names. The name is
    /// peer input: one this socket does not carry is a protocol error.
    fn deliver(&mut self, ci: usize, end: usize, event: Event, p: &mut Pump) {
        let (Event::Send { qp: id, .. } | Event::Write { qp: id, .. }) = event;
        let Some(slot) = self.slot_of(id) else {
            let e = format!("frame names queue pair {id}, not carried here");
            return self.fail(ci, io::Error::new(io::ErrorKind::InvalidData, e), p);
        };
        let node = self.eps[end].node;
        let qp = &mut self.qps[slot];
        if qp.broken {
            return; // the tail of a broken queue pair's frames: dropped
        }
        let qend = end ^ qp.flip;
        match event {
            Event::Write { tag, payload, .. } => {
                let qp = QpHandle::from_parts(id, qend as u8);
                p.push(node, Delivery::WriteArrived { qp, tag, payload });
            }
            Event::Send { len, imm, .. } => match qp.ends[qend].recvs.pop_front() {
                Some(recv) => self.land(slot, qend, recv, (len, imm), p),
                None => {
                    // Receiver-not-ready: a real NIC would arm an RNR
                    // retry timer; we hold the frame but make the
                    // discipline violation observable.
                    qp.ends[qend].held.push_back((len, imm));
                    p.rnr_arms += 1;
                }
            },
        }
    }

    /// A send of `len` bytes meets the receive `wr_id` at end `qend` of
    /// the queue pair in `slot`: `RecvDone`, or — the receive was too
    /// small — an RDMA local-length error, which breaks the queue pair.
    fn land(
        &mut self,
        slot: usize,
        qend: usize,
        (wr_id, max_len): (WrId, u64),
        (len, imm): (u64, u64),
        p: &mut Pump,
    ) {
        if len > max_len {
            return self.break_qp(slot, p);
        }
        let Qp { id, flip, .. } = self.qps[slot];
        let qp = QpHandle::from_parts(id, qend as u8);
        let done = Delivery::RecvDone {
            qp,
            wr_id,
            len,
            imm,
        };
        p.push(self.eps[qend ^ flip].node, done);
    }

    /// Records a socket or protocol error for [`TcpFabric::shutdown`]
    /// and breaks this socket.
    fn fail(&mut self, ci: usize, e: io::Error, p: &mut Pump) {
        let e = io::Error::new(e.kind(), format!("conn {ci}: {e}"));
        p.io_errors.push(e);
        self.break_all(p);
    }
}

impl Transport for TcpFabric {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.pump.now_ns())
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        loop {
            if let Some(d) = self.pump.ready.pop_front() {
                debug_assert!(d.0 >= self.last_at, "advance() went back in time");
                self.last_at = d.0;
                self.recorder.set_now(d.0.as_nanos());
                return Some(d);
            }
            self.absorb();
            if !self.pump.ready.is_empty() {
                continue;
            }
            if self.cursor == 0 {
                // Due timers fire only as a lap begins, so a zero-delay
                // timer is the end-of-round hook: it fires after every
                // delivery of the lap that armed it.
                let now = self.pump.now_ns();
                self.fire_due_timers(now);
                if !self.pump.ready.is_empty() {
                    continue;
                }
                let due = now - self.last_sweep >= FAILURE_DETECT_NS;
                self.lap_sweep |= due;
                if self.lap_sweep {
                    self.last_sweep = now;
                }
                // A parked worker reads its sockets when told to; one
                // that runs sweeps by its own clock.
                if let Some(w) = self.worker.as_mut().filter(|w| due && w.idle()) {
                    w.order(Order::Sweep);
                }
                self.lap_moved = false;
            }
            // The lap visits every socket direction in turn and hands what
            // one delivers to the caller at once; what the caller posts in
            // reaction leaves in this lap if its direction is still ahead.
            while self.cursor < 2 * self.conns.len() && self.pump.ready.is_empty() {
                let (ci, tx) = (self.cursor / 2, self.cursor % 2);
                self.cursor += 1;
                let sweep = self.lap_sweep;
                self.lap_moved |= self.conns[ci].pump_direction(ci, tx, sweep, &mut self.pump);
                self.absorb();
            }
            if !self.pump.ready.is_empty() {
                continue;
            }
            self.cursor = 0;
            let swept = std::mem::take(&mut self.lap_sweep);
            #[cfg(debug_assertions)]
            self.check_ledger();
            if self.quiescent() {
                return None;
            }
            if self.lap_moved {
                continue;
            }
            // The worker has work in flight: a sleeping or yielding
            // caller would hand its deliveries out late.
            if self.worker.as_ref().is_some_and(|w| !w.idle()) {
                std::hint::spin_loop();
                continue;
            }
            // Nothing moved in a lap that tried every read the ledger
            // still expects: park until the next timer, or just yield
            // while the kernel shuttles loopback bytes.
            let now = self.pump.now_ns();
            match self.timers.peek() {
                Some(&Reverse((deadline, _, _))) if deadline > now => {
                    // No socket goes unread across a sleep.
                    if !swept {
                        self.lap_sweep = true;
                        continue;
                    }
                    let wait = (deadline - now).min(FAILURE_DETECT_NS);
                    std::thread::sleep(Duration::from_nanos(wait));
                }
                _ => std::thread::yield_now(),
            }
        }
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        let (a, b) = (a.index(), b.index());
        let open = self.pairs.get(&(a.min(b), a.max(b))).copied();
        let live = |&(away, ci): &(bool, usize)| match self.worker.as_ref().filter(|_| away) {
            Some(w) => w.socks[ci].state != ConnState::Broken,
            None => self.conns[ci].state != ConnState::Broken,
        };
        let conn = match open.filter(live) {
            Some(at) => Some(at),
            None => match self.open_socket(a, b) {
                Ok(at) => Some(at),
                Err(e) => {
                    let e = io::Error::new(e.kind(), format!("connect {a}-{b}: {e}"));
                    self.pump.io_errors.push(e);
                    None
                }
            },
        };
        let id = self.qps.len() as u32;
        let away = conn.is_some_and(|(away, _)| away);
        let at = conn.map(|(away, ci)| match self.worker.as_mut().filter(|_| away) {
            Some(w) => {
                let sock = &mut w.socks[ci];
                let (flip, ends, broken) =
                    (usize::from(sock.nodes[0] != a), Default::default(), false);
                sock.qps += 1;
                let slot = sock.qps - 1;
                w.order(Order::Qp {
                    conn: ci,
                    qp: Qp {
                        id,
                        flip,
                        ends,
                        broken,
                    },
                });
                (ci, slot)
            }
            None => {
                let conn = &mut self.conns[ci];
                conn.qps.push(Qp {
                    id,
                    flip: usize::from(conn.eps[0].node != a),
                    ends: Default::default(),
                    broken: false,
                });
                (ci, conn.qps.len() - 1)
            }
        });
        self.qps.push(Route::new([a, b], away, at));
        let handles = [0, 1].map(|end| QpHandle::from_parts(id, end));
        if at.is_none() {
            // No socket: both live ends see the break at the next
            // `advance()`, and every post is refused.
            for (qp, node) in handles.into_iter().zip([a, b]) {
                self.pump.push(node, Delivery::QpBroken { qp });
            }
        }
        (handles[0], handles[1])
    }

    fn post_send(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        imm: u64,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        debug_assert!(wait_for.is_none(), "CORE-Direct chaining is sim-only");
        self.post_frame(qp, wr_id, KIND_SEND, imm, Payload::Filler(bytes))
    }

    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        debug_assert!(wait_for.is_none(), "CORE-Direct chaining is sim-only");
        self.post_frame(qp, wr_id, KIND_WRITE, tag, Payload::Bytes(payload))
    }

    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError> {
        let (conn, slot) = self.check_postable(qp)?;
        let end = usize::from(qp.endpoint());
        let route = &mut self.qps[qp.conn_id() as usize];
        let recv = (wr_id, max_len);
        match self.worker.as_mut().filter(|_| route.away) {
            Some(w) => {
                route.seen.recvs[end] += 1;
                w.order(Order::Recv {
                    conn,
                    slot,
                    end,
                    recv,
                });
            }
            None => self.conns[conn].receive(slot, end, recv, &mut self.pump),
        }
        Ok(())
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let deadline = self.pump.now_ns().saturating_add(delay.as_nanos());
        self.arm_timer(
            deadline,
            TimerEntry::Driver {
                node: node.index(),
                token,
            },
        );
    }

    fn consume_cpu(&mut self, _node: NodeId, _dur: SimDuration) {
        // Real hosts charge their own CPUs.
    }

    fn crash(&mut self, node: NodeId) {
        let idx = node.index();
        if self.pump.crashed[idx] {
            return;
        }
        self.pump.crashed[idx] = true;
        // Deliveries already queued for the dead node vanish: dead
        // software observes nothing, per the Transport contract.
        self.pump.ready.retain(|(_, n, _)| n.index() != idx);
        // The survivors notice at the failure-detect deadline.
        let deadline = self.pump.now_ns().saturating_add(FAILURE_DETECT_NS);
        let mut dying = Vec::new();
        for (ci, conn) in self.conns.iter_mut().enumerate() {
            if conn.dies_with(idx) {
                dying.push((false, ci));
            }
        }
        if let Some(w) = self.worker.as_mut() {
            w.order(Order::Crash(idx));
            for (ci, sock) in w.socks.iter_mut().enumerate() {
                if sock.state == ConnState::Alive && sock.nodes.contains(&idx) {
                    sock.state = ConnState::Dying;
                    dying.push((true, ci));
                }
            }
        }
        for (away, conn) in dying {
            self.arm_timer(deadline, TimerEntry::Break { away, conn });
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.pump.crashed[node.index()]
    }

    fn break_qp(&mut self, qp: QpHandle) {
        let route = &mut self.qps[qp.conn_id() as usize];
        let Some((conn, slot)) = route.at else {
            return;
        };
        match self.worker.as_mut().filter(|_| route.away) {
            Some(w) => {
                route.seen.broken = true;
                w.order(Order::BreakQp { conn, slot });
            }
            None => self.conns[conn].break_qp(slot, &mut self.pump),
        }
    }

    fn profile(&self, _node: NodeId) -> &HostProfile {
        &self.profile
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        let route = &self.qps[qp.conn_id() as usize];
        let Some((ci, slot)) = route.at.filter(|_| !route.away) else {
            return route.seen.snapshot(usize::from(qp.endpoint()));
        };
        let p = &self.conns[ci].qps[slot];
        let end = &p.ends[usize::from(qp.endpoint())];
        PostingSnapshot {
            queued_sends: end.queued,
            send_inflight: false,
            posted_recvs: end.recvs.len(),
            rnr_armed: !end.held.is_empty(),
            rnr_remaining: 0,
            broken: p.broken,
        }
    }

    fn set_recorder(&mut self, recorder: trace::Recorder) {
        recorder.set_now(self.pump.now_ns());
        self.recorder = recorder;
    }

    fn stats(&self) -> FabricStats {
        FabricStats {
            rnr_arms: self.pump.rnr_arms + self.worker.as_ref().map_or(0, |w| w.rnr_arms),
            ..FabricStats::default()
        }
    }

    fn cpu_report(&self, _node: NodeId) -> CpuReport {
        CpuReport::default()
    }

    fn num_nodes(&self) -> usize {
        self.pump.crashed.len()
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            w.stop();
        }
    }
}

impl std::fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFabric")
            .field("nodes", &self.pump.crashed.len())
            .field("sockets", &self.conns.len())
            .field("queue_pairs", &self.qps.len())
            .field(
                "worker_sockets",
                &self.worker.as_ref().map(|w| w.socks.len()),
            )
            .finish()
    }
}

/// Starts a [`ClusterBuilder`] over a freshly-launched `n`-node TCP
/// fabric — the one-line entry point mirroring
/// `ClusterBuilder::new(spec)` on the simulated side.
///
/// # Errors
///
/// Any socket error during bring-up.
pub fn builder(n: usize) -> io::Result<ClusterBuilder<TcpFabric>> {
    Ok(ClusterBuilder::from_transport(TcpFabric::launch(n)?))
}

/// Cleanly shuts a TCP-backed cluster down, surfacing any socket error
/// the run observed (see [`TcpFabric::shutdown`]).
///
/// # Errors
///
/// The first socket error the fabric observed.
pub fn shutdown(cluster: TcpCluster) -> io::Result<()> {
    cluster.into_transport().shutdown()
}

#[cfg(test)]
mod tests;
