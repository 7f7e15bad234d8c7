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
//! A lap with a quantum of queued bytes for each half of the socket
//! table **forks**: a worker thread pumps one half, the caller the
//! other. DESIGN.md ("Transport abstraction")
//! describes the loop — quantum, streaming decoder, byte ledger, sweep,
//! timers between laps, forked laps, what is in-process about it — and
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use frame::{
    Decoder, Event, OutFrame, Payload, GATHER_SLICES, KIND_SEND, KIND_WRITE, MAX_FRAME, QUANTUM,
};
use qp::{Qp, Route};
use rdmc_sim::{Cluster, ClusterBuilder};
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
/// thread of a forked lap. So a read takes at most half a quantum.
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

    /// Whether its side of the ledger is empty: no frame queued for the
    /// wire and no byte written that its peer has not read. A broken
    /// socket's entries left the ledger when it broke; a dying socket's
    /// stand until then.
    fn settled(&self) -> bool {
        let idle = self.eps.iter().all(|ep| ep.out.is_empty());
        self.state == ConnState::Broken || idle && self.in_flight_to(0) + self.in_flight_to(1) == 0
    }

    /// Bytes its queues still have to flush; a dying socket flushes
    /// nothing more.
    fn queued_bytes(&self) -> u64 {
        let frames = self.eps.iter().flat_map(|ep| &ep.out);
        match self.state {
            ConnState::Alive => frames.map(OutFrame::unsent).sum(),
            _ => 0,
        }
    }
}

/// One thread's means to pump sockets: a view of who crashed and of
/// the clock, its read buffer, and what pumping yields for software.
/// The fabric has one; a forked lap hands its worker another.
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

/// Sockets moved by value, with their table indices.
type Share = Vec<(usize, Conn)>;

/// Pumps both ways of `conns` in table order, as an inline lap does.
fn pump_all(conns: &mut Share, sweep: bool, p: &mut Pump) -> bool {
    let mut moved = false;
    for (ci, conn) in conns {
        for tx in 0..2 {
            moved |= conn.pump_direction(*ci, tx, sweep, p);
        }
    }
    moved
}

/// The persistent pump thread forked laps share. It takes a lap's other
/// half — sockets, a pump of their own, whether the lap sweeps — and
/// gives back the sockets, the pump and whether bytes moved. Between
/// forked laps it blocks on its channel.
struct Worker {
    tx: mpsc::Sender<(Share, Pump, bool)>,
    rx: mpsc::Receiver<(Share, Pump, bool)>,
    thread: thread::JoinHandle<bool>,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerEntry {
    /// Failure detection expired: break this socket.
    Break { conn: usize },
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
    conns: Vec<Conn>,
    /// Each queue pair's route, at the index its handles name.
    qps: Vec<Route>,
    /// Each node pair's newest socket, keyed `(lower, higher)` node; the
    /// pair's next connect replaces a broken one.
    pairs: BTreeMap<(usize, usize), usize>,
    pump: Pump,
    /// The other half of the read memory: the worker's, in forked laps
    /// (allocated with the worker).
    lent: Vec<u8>,
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
    /// Whether laps may fork: a second core, and a worker (lazily started).
    parallel: bool,
    worker: Option<Worker>,
    forked_laps: u64,
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
                scratch: vec![0; SCRATCH / 2],
                ready: VecDeque::new(),
                rnr_arms: 0,
                io_errors: Vec::new(),
            },
            lent: Vec::new(),
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
            forked_laps: 0,
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

    /// Opens the one socket between nodes `a` and `b`. Inline handshake:
    /// this loop is the only caller, so the connect pairs up with the
    /// accept that names it as the peer, with no identification
    /// handshake on the wire. A stranger connecting to the listener
    /// first is accepted and dropped.
    fn open_socket(&mut self, a: usize, b: usize) -> io::Result<usize> {
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
        let ci = self.conns.len();
        let mk = |node: usize, stream: TcpStream| Endpoint {
            node,
            stream,
            out: VecDeque::new(),
            decoder: Decoder::default(),
            wire_sent: 0,
            wire_read: 0,
        };
        self.conns.push(Conn {
            eps: [mk(a, client), mk(b, server)],
            state: ConnState::Alive,
            qps: Vec::new(),
        });
        self.pairs.insert((a.min(b), a.max(b)), ci);
        // Connecting to an already-crashed peer: the socket comes up but
        // the dead side never answers, so failure detection starts
        // ticking immediately, exactly as for a crash after connect.
        if self.pump.crashed[a] || self.pump.crashed[b] {
            let deadline = self.pump.now_ns().saturating_add(FAILURE_DETECT_NS);
            self.conns[ci].state = ConnState::Dying;
            self.arm_timer(deadline, TimerEntry::Break { conn: ci });
        }
        Ok(ci)
    }

    /// Fires every timer due at or before `now` — *all* of them, as a lap
    /// begins and before any of its socket completions surfaces. This
    /// ordering is what the [`Transport`] contract's timers-before-I/O
    /// guarantee asks for: every failure-detect break for a crashed node
    /// (all armed at the same deadline) batches ahead of relayed-failure
    /// gossip.
    fn fire_due_timers(&mut self, now: u64) {
        while let Some(&Reverse((deadline, _, entry))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            match entry {
                TimerEntry::Break { conn: ci } => {
                    // Pre-crash data the dead end already flushed is
                    // genuinely on the wire; deliver it before the
                    // break, matching the simulated fabric where a
                    // completed transfer is a delivered transfer.
                    for end in 0..2 {
                        self.conns[ci].read_endpoint(ci, end, false, &mut self.pump);
                    }
                    self.conns[ci].break_all(&mut self.pump);
                }
                TimerEntry::Driver { node, token } => {
                    self.pump.push(node, Delivery::Timer { token });
                }
            }
        }
    }

    /// The worker's half of the socket table (`true` at its sockets), if
    /// this lap forks: when the queued bytes, dealt largest socket first
    /// to the lighter half, give each half at least one quantum.
    fn fork_plan(&mut self) -> Option<Vec<bool>> {
        if !self.parallel || self.conns.iter().map(Conn::queued_bytes).sum::<u64>() < 2 * QUANTUM {
            return None;
        }
        let mut busy: Vec<(u64, usize)> =
            self.conns.iter().map(Conn::queued_bytes).zip(0..).collect();
        busy.sort_unstable_by(|x, y| y.cmp(x));
        let (mut away, mut halves) = (vec![false; self.conns.len()], [0; 2]);
        for (bytes, ci) in busy.into_iter().filter(|&(bytes, _)| bytes > 0) {
            let half = usize::from(halves[1] < halves[0]);
            halves[half] += bytes;
            away[ci] = half == 1;
        }
        if halves.iter().any(|&bytes| bytes < QUANTUM) {
            return None;
        }
        if self.worker.is_none() {
            let ((tx, inbox), (outbox, rx)) = (mpsc::channel(), mpsc::channel());
            let work = move || {
                inbox.into_iter().all(|(mut conns, mut pump, sweep)| {
                    let moved = pump_all(&mut conns, sweep, &mut pump);
                    outbox.send((conns, pump, moved)).is_ok()
                })
            };
            // A host that cannot start a thread pumps every lap inline.
            let named = thread::Builder::new().name("rdmc-tcp-pump".into());
            let thread = named.spawn(work);
            self.worker = thread.ok().map(|thread| Worker { tx, rx, thread });
            self.parallel = self.worker.is_some();
            self.lent = vec![0; SCRATCH - SCRATCH / 2];
        }
        self.worker.as_ref().map(|_| away)
    }

    /// Pumps the sockets `away` marks on the worker and the rest here, as
    /// an inline lap would. At the join the sockets come home in table
    /// order and what both halves delivered lands in `ready` in
    /// timestamp order. Returns whether any bytes moved.
    fn forked_lap(&mut self, away: &[bool]) -> bool {
        let (mut home, mut theirs) = (Vec::new(), Vec::new());
        for (ci, conn) in std::mem::take(&mut self.conns).into_iter().enumerate() {
            if away[ci] { &mut theirs } else { &mut home }.push((ci, conn));
        }
        let pump = Pump {
            crashed: self.pump.crashed.clone(),
            start: self.pump.start,
            scratch: std::mem::take(&mut self.lent),
            ready: VecDeque::new(),
            rnr_arms: 0,
            io_errors: Vec::new(),
        };
        let (sweep, worker) = (self.lap_sweep, self.worker.as_ref().expect("spawned"));
        let half = (theirs, pump, sweep);
        worker.tx.send(half).expect("the pump worker runs");
        let mut moved = pump_all(&mut home, sweep, &mut self.pump);
        // Spin, don't block, for the other half: a core that blocks may
        // halt, and waking it takes about as long as a half of the lap.
        let (conns, pump, moved_there) = loop {
            match worker.rx.try_recv() {
                Ok(half) => break half,
                Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
                Err(mpsc::TryRecvError::Disconnected) => panic!("the pump worker died"),
            }
        };
        moved |= moved_there;
        self.lent = pump.scratch;
        self.pump.rnr_arms += pump.rnr_arms;
        self.pump.io_errors.extend(pump.io_errors);
        // A stable sort keeps each half's own order among equal stamps.
        let mut ready: Vec<_> = self.pump.ready.drain(..).chain(pump.ready).collect();
        ready.sort_by_key(|&(at, _, _)| at);
        self.pump.ready.extend(ready);
        home.extend(conns);
        home.sort_unstable_by_key(|&(ci, _)| ci);
        self.conns = home.into_iter().map(|(_, conn)| conn).collect();
        self.forked_laps += 1;
        moved
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
        let (ci, slot) = self.check_postable(qp)?;
        let end = usize::from(qp.endpoint());
        let conn = &mut self.conns[ci];
        if payload.len() > MAX_FRAME {
            conn.break_qp(slot, &mut self.pump);
            return Err(VerbsError::QpBroken);
        }
        let q = &mut conn.qps[slot];
        q.ends[end].queued += 1;
        conn.eps[end ^ q.flip]
            .out
            .push_back(OutFrame::new(q.id, wr_id, kind, meta, payload));
        Ok(())
    }

    /// The socket and slot of the queue pair a post on `qp` goes to, or
    /// why the post is refused.
    fn check_postable(&self, qp: QpHandle) -> Result<(usize, usize), VerbsError> {
        let route = self.qps[qp.conn_id() as usize];
        if self.pump.crashed[route.nodes[usize::from(qp.endpoint())]] {
            return Err(VerbsError::NodeCrashed);
        }
        let live = |&(ci, slot): &(usize, usize)| !self.conns[ci].qps[slot].broken;
        route.at.filter(live).ok_or(VerbsError::QpBroken)
    }

    /// Quiescent when nothing is queued for software, every socket's
    /// side of the ledger is empty, and no timer is armed that could
    /// still matter. A dying socket's pending break timer keeps the loop
    /// alive until its ledger entries leave.
    fn quiescent(&self) -> bool {
        self.pump.ready.is_empty()
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
        scratch: &mut [u8],
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
            if self.cursor == 0 {
                // Due timers fire only as a lap begins, so a zero-delay
                // timer is the end-of-round hook: it fires after every
                // delivery of the lap that armed it.
                let now = self.pump.now_ns();
                self.fire_due_timers(now);
                if !self.pump.ready.is_empty() {
                    continue;
                }
                self.lap_sweep |= now - self.last_sweep >= FAILURE_DETECT_NS;
                if self.lap_sweep {
                    self.last_sweep = now;
                }
                self.lap_moved = false;
                // A forked lap runs whole: no reply leaves mid-lap.
                if let Some(away) = self.fork_plan() {
                    self.lap_moved = self.forked_lap(&away);
                    self.cursor = 2 * self.conns.len();
                }
            }
            // The lap visits every socket direction in turn and hands what
            // one delivers to the caller at once; what the caller posts in
            // reaction leaves in this lap if its direction is still ahead.
            while self.cursor < 2 * self.conns.len() && self.pump.ready.is_empty() {
                let (ci, tx) = (self.cursor / 2, self.cursor % 2);
                self.cursor += 1;
                let sweep = self.lap_sweep;
                self.lap_moved |= self.conns[ci].pump_direction(ci, tx, sweep, &mut self.pump);
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
        let conn = match open.filter(|&ci| self.conns[ci].state != ConnState::Broken) {
            Some(ci) => Some(ci),
            None => match self.open_socket(a, b) {
                Ok(ci) => Some(ci),
                Err(e) => {
                    let e = io::Error::new(e.kind(), format!("connect {a}-{b}: {e}"));
                    self.pump.io_errors.push(e);
                    None
                }
            },
        };
        let id = self.qps.len() as u32;
        let at = conn.map(|ci| {
            let conn = &mut self.conns[ci];
            conn.qps.push(Qp {
                id,
                flip: usize::from(conn.eps[0].node != a),
                ends: Default::default(),
                broken: false,
            });
            (ci, conn.qps.len() - 1)
        });
        self.qps.push(Route { nodes: [a, b], at });
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
        let (ci, slot) = self.check_postable(qp)?;
        let end = usize::from(qp.endpoint());
        let conn = &mut self.conns[ci];
        // A held frame (arrived before any receive was posted) consumes
        // this receive immediately, in arrival order.
        let qp_end = &mut conn.qps[slot].ends[end];
        match qp_end.held.pop_front() {
            Some(send) => conn.land(slot, end, (wr_id, max_len), send, &mut self.pump),
            None => qp_end.recvs.push_back((wr_id, max_len)),
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
        let deadline = self.pump.now_ns().saturating_add(FAILURE_DETECT_NS);
        for ci in 0..self.conns.len() {
            let conn = &mut self.conns[ci];
            if conn.state == ConnState::Alive && conn.eps.iter().any(|ep| ep.node == idx) {
                // The dead side flushes nothing more, and what it had
                // queued dies with the break; the survivor notices at
                // the failure-detect deadline.
                conn.state = ConnState::Dying;
                self.arm_timer(deadline, TimerEntry::Break { conn: ci });
            }
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.pump.crashed[node.index()]
    }

    fn break_qp(&mut self, qp: QpHandle) {
        if let Some((ci, slot)) = self.qps[qp.conn_id() as usize].at {
            self.conns[ci].break_qp(slot, &mut self.pump);
        }
    }

    fn profile(&self, _node: NodeId) -> &HostProfile {
        &self.profile
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        let Some((ci, slot)) = self.qps[qp.conn_id() as usize].at else {
            return PostingSnapshot {
                broken: true,
                ..PostingSnapshot::default()
            };
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
            rnr_arms: self.pump.rnr_arms,
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
        if let Some(Worker { tx, thread, .. }) = self.worker.take() {
            drop(tx); // the worker's channel closes, and it returns
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFabric")
            .field("nodes", &self.pump.crashed.len())
            .field("sockets", &self.conns.len())
            .field("queue_pairs", &self.qps.len())
            .field("forked_laps", &self.forked_laps)
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
