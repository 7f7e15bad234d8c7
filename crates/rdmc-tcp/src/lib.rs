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
//! Everything that touches the operating system sits behind one seam,
//! [`Net`]. [`Os`] is the default; [`MemNet`] carries the same datapath
//! over in-process pipes under a virtual clock, where a
//! [`verbs::Scheduler`] chooses how bytes and deliveries interleave.
//!
//! All nodes live in one process, and every socket in one **shard** for
//! its life. A shard's resumable **lap** pumps each socket direction in
//! turn — a socket end with queued frames flushes them a quantum at a
//! time in one gathered write, and its peer end is read at once — and
//! stops as soon as one delivered. `advance()` steps the caller's shard,
//! firing due timers as a lap begins; on a host with a second core a
//! pump thread steps a second one. DESIGN.md ("Transport abstraction")
//! describes the loop and what a broken queue pair or socket takes down
//! with it. `SendDone` means "flushed to the socket"; nothing the
//! receiving end does feeds into it.
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
mod mem;
mod net;
mod qp;
mod shard;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{self, IoSlice};
use std::net::SocketAddr;
use std::time::Duration;

use bytes::Bytes;
use frame::{
    Decoder, Event, OutFrame, Payload, GATHER_SLICES, KIND_SEND, KIND_WRITE, MAX_FRAME, QUANTUM,
};
use qp::{Qp, Route};
use rdmc_sim::{Cluster, ClusterBuilder};
use shard::{Order, Report, Shard, Worker};
use simnet::{HostProfile, SimDuration, SimTime};
use verbs::{
    CpuReport, Delivery, FabricStats, NodeId, PostingSnapshot, QpHandle, SharedScheduler,
    Transport, VerbsError, WaitSpec, WrId,
};

pub use mem::{MemNet, MemStream};
pub use net::{Net, Os, Ready};

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

/// One end of a socket: its stream half, the outbound frames of every
/// queue pair on this end (in posting order), the inbound frame in
/// progress, and this end's side of the byte ledger.
struct Endpoint<S> {
    node: usize,
    stream: S,
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
/// it carries: pumping it needs nothing else but a [`Pump`]. `id` is its
/// index in the caller's socket table.
struct Conn<N: Net> {
    id: usize,
    eps: [Endpoint<N::Stream>; 2],
    state: ConnState,
    qps: Vec<Qp>,
}

impl<N: Net> Conn<N> {
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

/// One shard's means to pump sockets: a view of who crashed, the net its
/// sockets and clock are on, its read buffer, and what pumping yields for
/// software.
struct Pump<N> {
    crashed: Vec<bool>,
    net: N,
    /// The read buffer (one per shard, not per socket).
    scratch: Vec<u8>,
    /// Deliveries, stamped in the order they happened. The caller's
    /// shard's queue is the one `advance()` hands out, the worker's
    /// deliveries joining it as they arrive.
    ready: VecDeque<Ready>,
    /// Sockets (by table index) that broke since the shard last said so.
    broke: Vec<usize>,
    rnr_arms: u64,
    /// Socket and protocol errors observed mid-run, surfaced by
    /// [`TcpFabric::shutdown`] instead of being unwrapped or leaked.
    io_errors: Vec<io::Error>,
}

impl<N: Net> Pump<N> {
    fn now_ns(&self) -> u64 {
        self.net.now_ns()
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
    /// Failure detection expired: break the socket with this table index.
    Break(usize),
    /// A driver timer ([`Transport::schedule_timer`]) of a node, and its
    /// token.
    Driver(usize, u64),
}

/// What the caller keeps of each socket, whichever shard owns it: the
/// shard (0 is the caller's) and its index there, its nodes, the state
/// software last heard — `Dying` at a crash, `Broken` once its shard
/// reported the break — and how many queue pairs it carries, so the next
/// one's slot.
struct Socket {
    shard: usize,
    index: usize,
    nodes: [usize; 2],
    state: ConnState,
    qps: usize,
}

/// The TCP datapath: every node's sockets, one nonblocking event loop,
/// on the net `N`.
///
/// Implements [`Transport`], so [`rdmc_sim::ClusterBuilder`] drives it
/// exactly like the simulated fabric — see the crate docs. Create with
/// [`TcpFabric::launch`] (or [`builder`]) on loopback sockets, or with
/// [`TcpFabric::in_memory`] on a [`MemNet`]; reclaim the sockets and
/// surface accumulated socket errors with [`TcpFabric::shutdown`].
pub struct TcpFabric<N: Net = Os> {
    /// The caller's shard, which it steps itself; its pump's crash view
    /// is the fabric's, and its net opens sockets.
    home: Shard<N>,
    /// The second shard, if the net starts one.
    worker: Option<Worker<N>>,
    /// Every socket, in the order they opened.
    sockets: Vec<Socket>,
    /// Each queue pair's route, at the index its handles name.
    qps: Vec<Route>,
    /// Each node pair's newest socket, keyed `(lower, higher)` node; the
    /// pair's next connect replaces a broken one.
    pairs: BTreeMap<(usize, usize), usize>,
    timers: BinaryHeap<Reverse<(u64, u64, TimerEntry)>>,
    timer_seq: u64,
    recorder: trace::Recorder,
    profile: HostProfile,
    /// The last timestamp `advance()` handed out.
    last_at: SimTime,
}

impl TcpFabric<Os> {
    /// Binds a loopback listener and readies `n` in-process nodes.
    /// Sockets are established lazily as the protocol first pairs two
    /// nodes.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for `n = 0`; any socket error during bring-up.
    pub fn launch(n: usize) -> io::Result<TcpFabric> {
        TcpFabric::with_net(n, Os::bind()?)
    }

    /// The loopback address of the listener every socket handshakes
    /// through.
    pub fn local_addr(&self) -> SocketAddr {
        self.home.pump.net.addr
    }
}

impl TcpFabric<MemNet> {
    /// Readies `n` nodes whose sockets are in-process pipes (see
    /// [`MemNet`]).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for `n = 0`.
    pub fn in_memory(n: usize) -> io::Result<TcpFabric<MemNet>> {
        TcpFabric::with_net(n, MemNet::default())
    }
}

impl<N: Net> TcpFabric<N> {
    /// `n` nodes on `net`, with a pump thread for the second shard if the
    /// net starts one (a host that cannot start the thread keeps one).
    fn with_net(n: usize, net: N) -> io::Result<TcpFabric<N>> {
        let worker = |net: &N| Worker::thread(Shard::new(n, net.worker()?));
        TcpFabric::assemble(n, net, worker)
    }

    /// `n` nodes on `net`, with the second shard, if any, that `worker`
    /// starts.
    fn assemble(
        n: usize,
        net: N,
        worker: impl FnOnce(&N) -> Option<Worker<N>>,
    ) -> io::Result<TcpFabric<N>> {
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fabric needs a node",
            ));
        }
        Ok(TcpFabric {
            worker: worker(&net),
            home: Shard::new(n, net),
            sockets: Vec::new(),
            qps: Vec::new(),
            pairs: BTreeMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            recorder: trace::Recorder::disabled(),
            profile: HostProfile::default(),
            last_at: SimTime::ZERO,
        })
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
        let mut errors = Vec::new();
        let mut worker = match self.worker.take().map(Worker::stop) {
            Some(None) => {
                errors.push(io::Error::other("the pump worker panicked"));
                None
            }
            stopped => stopped.flatten(),
        };
        for shard in std::iter::once(&mut self.home).chain(&mut worker) {
            errors.append(&mut shard.pump.io_errors);
            let live = shard.conns.iter().filter(|c| c.state != ConnState::Broken);
            for ep in live.flat_map(|c| &c.eps) {
                match shard.pump.net.shutdown(&ep.stream) {
                    Err(e) if e.kind() != io::ErrorKind::NotConnected => errors.push(e),
                    _ => {}
                }
            }
        }
        errors.into_iter().next().map_or(Ok(()), Err)
    }

    /// Opens the one socket between nodes `a` and `b` and returns its
    /// index in the table.
    fn open_socket(&mut self, a: usize, b: usize) -> io::Result<usize> {
        let [client, server] = self.home.pump.net.open([a, b])?;
        let mk = |node: usize, stream: N::Stream| Endpoint {
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
        let crashed = &self.home.pump.crashed;
        let state = match crashed[a] || crashed[b] {
            true => ConnState::Dying,
            false => ConnState::Alive,
        };
        let id = self.sockets.len();
        let conn = Conn {
            id,
            eps: [mk(a, client), mk(b, server)],
            state,
            qps: Vec::new(),
        };
        // Dealt for its life to the shard with fewer sockets, the
        // caller's on a tie.
        let home = self.home.conns.len();
        let there = id - home;
        let (shard, index) = match self.worker {
            Some(_) if there < home => (1, there),
            _ => (0, home),
        };
        self.sockets.push(Socket {
            shard,
            index,
            nodes: [a, b],
            state,
            qps: 0,
        });
        self.pairs.insert((a.min(b), a.max(b)), id);
        self.order(id, |_| Order::Adopt(Box::new(conn)));
        if state == ConnState::Dying {
            let deadline = self.home.pump.now_ns().saturating_add(FAILURE_DETECT_NS);
            self.arm_timer(deadline, TimerEntry::Break(id));
        }
        Ok(id)
    }

    /// Hands the order `make` builds for socket `sock`'s index in its
    /// shard to that shard: applied at once on the caller's, sent to the
    /// worker's.
    fn order(&mut self, sock: usize, make: impl FnOnce(usize) -> Order<N>) {
        let Socket { shard, index, .. } = self.sockets[sock];
        let order = make(index);
        match self.worker.as_mut() {
            Some(w) if shard > 0 => w.order(order),
            _ => self.home.apply(order),
        }
    }

    /// Takes in what the shards reported: the sockets that broke, and
    /// the worker's deliveries, which join the queue stamped as they
    /// arrive, so stamps never go back.
    fn absorb(&mut self) {
        for sock in self.home.pump.broke.drain(..) {
            self.sockets[sock].state = ConnState::Broken;
        }
        let Some(w) = self.worker.as_mut() else {
            return;
        };
        while let Some(report) = w.next() {
            match report {
                Report::Deliveries(batch) => {
                    let p = &mut self.home.pump;
                    let at = SimTime::from_nanos(p.now_ns());
                    for (_, node, delivery) in batch {
                        if !p.crashed[node.index()] {
                            p.ready.push_back((at, node, delivery));
                        }
                    }
                }
                Report::Broke(sock) => self.sockets[sock].state = ConnState::Broken,
                Report::Lap(..) => {}
            }
        }
    }

    /// The one place the caller waits on the worker: lets it move on
    /// (see [`Worker::wait`]), then takes in what it reported.
    fn wait(&mut self) {
        if let Some(w) = self.worker.as_mut() {
            w.wait();
        }
        self.absorb();
    }

    /// Waits until a worker lap has run since the last order: what the
    /// caller posted so far has been flushed, read back and delivered.
    fn catch_up(&mut self) {
        while self.worker.as_ref().is_some_and(|w| !w.caught_up()) {
            self.wait();
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
        let due =
            |timers: &BinaryHeap<_>| matches!(timers.peek(), Some(Reverse((t, _, _))) if *t <= now);
        if !due(&self.timers) {
            return;
        }
        self.catch_up();
        while due(&self.timers) {
            let Some(Reverse((_, _, entry))) = self.timers.pop() else {
                break;
            };
            match entry {
                TimerEntry::Break(sock) => self.order(sock, Order::Expire),
                TimerEntry::Driver(node, token) => {
                    self.home.pump.push(node, Delivery::Timer { token })
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
        let (sock, slot) = self.check_postable(qp)?;
        if payload.len() > MAX_FRAME {
            self.break_qp(qp);
            return Err(VerbsError::QpBroken);
        }
        let (q, end) = (qp.conn_id(), usize::from(qp.endpoint()));
        let frame = OutFrame::new(q, wr_id, kind, meta, payload);
        self.qps[q as usize].posted[0][end] += 1;
        self.order(sock, |conn| Order::Frame {
            conn,
            slot,
            end,
            frame,
        });
        Ok(())
    }

    /// The socket and slot of the queue pair a post on `qp` goes to, or
    /// why the post is refused: its node crashed, or software has seen
    /// the queue pair break (or broke it).
    fn check_postable(&self, qp: QpHandle) -> Result<(usize, usize), VerbsError> {
        let route = &self.qps[qp.conn_id() as usize];
        if self.home.pump.crashed[route.nodes[usize::from(qp.endpoint())]] {
            return Err(VerbsError::NodeCrashed);
        }
        let live = route.at.filter(|_| !route.broken);
        live.ok_or(VerbsError::QpBroken)
    }

    /// Quiescent when nothing is queued for software, every socket's
    /// side of the ledger is empty — the worker's too: it parked — and
    /// no timer is armed that could still matter. A dying socket's
    /// pending break timer keeps the loop alive until its ledger entries
    /// leave.
    fn quiescent(&self) -> bool {
        self.home.pump.ready.is_empty()
            && self.worker.as_ref().is_none_or(Worker::idle)
            && self.home.conns.iter().all(Conn::settled)
            && self
                .timers
                .iter()
                .all(|Reverse((_, _, entry))| match entry {
                    TimerEntry::Break(_) => false,
                    TimerEntry::Driver(node, _) => self.home.pump.crashed[*node],
                })
    }

    fn arm_timer(&mut self, deadline: u64, entry: TimerEntry) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((deadline, seq, entry)));
    }
}

/// The pump: one socket's share of a lap, and the per-frame path.
impl<N: Net> Conn<N> {
    /// Whether a post at end `end` of the queue pair in `slot` is flushed
    /// on arrival: the queue pair broke before the post reached it (the
    /// shard, before software heard), and RDMA flushes a post to a
    /// queue pair in the error state.
    fn flushes(&self, slot: usize, end: usize, wr_id: WrId, recv: bool, p: &mut Pump<N>) -> bool {
        let q = &self.qps[slot];
        if q.broken {
            let qp = QpHandle::from_parts(q.id, end as u8);
            let flushed = Delivery::WrFlushed { qp, wr_id, recv };
            p.push(self.eps[end ^ q.flip].node, flushed);
        }
        q.broken
    }

    /// Flushes one quantum from `tx`, reads it straight back out of the
    /// peer end, and repeats while frames are queued and bytes move.
    /// With `sweep`, the peer end is read once whatever the ledger says,
    /// which is how a socket killed from outside is noticed. Returns
    /// whether any bytes moved.
    fn pump_direction(&mut self, tx: usize, sweep: bool, p: &mut Pump<N>) -> bool {
        let mut moved = false;
        let mut force = sweep;
        loop {
            // A dying end's queued frames die with the break; its live
            // end is still read while the ledger shows bytes for it.
            let wrote = self.state == ConnState::Alive && self.flush_quantum(tx, p);
            let read = self.read_endpoint(1 - tx, force, p);
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
    fn flush_quantum(&mut self, end: usize, p: &mut Pump<N>) -> bool {
        let ep = &mut self.eps[end];
        if ep.out.is_empty() {
            return false;
        }
        let mut slices = [IoSlice::new(&[]); GATHER_SLICES];
        let n = frame::gather(&ep.out, &mut slices);
        let wrote = loop {
            match p.net.write_vectored(&ep.stream, &slices[..n]) {
                Ok(0) => {
                    self.break_all(p);
                    return true;
                }
                Ok(wrote) => break wrote as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail(e, p);
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
            let qp = QpHandle::from_parts(id, (end ^ self.qps[slot].flip) as u8);
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
    fn read_endpoint(&mut self, end: usize, force: bool, p: &mut Pump<N>) -> bool {
        if p.crashed[self.eps[end].node] {
            return false; // dead software reads nothing
        }
        if !force && self.in_flight_to(end) == 0 {
            return false;
        }
        let mut scratch = std::mem::take(&mut p.scratch);
        let moved = self.read_into(end, force, &mut scratch, p);
        p.scratch = scratch;
        moved
    }

    fn read_into(
        &mut self,
        end: usize,
        mut force: bool,
        scratch: &mut Vec<u8>,
        p: &mut Pump<N>,
    ) -> bool {
        let mut moved = false;
        loop {
            if self.state == ConnState::Broken || !(force || self.in_flight_to(end) > 0) {
                return moved;
            }
            match p.net.read(&self.eps[end].stream, scratch) {
                Ok(0) => {
                    // Orderly close without a protocol-level break: the
                    // peer's socket died under us. A dying socket's EOF
                    // just waits for its break timer.
                    if self.state == ConnState::Alive {
                        match self.eps[end].decoder.finish() {
                            Ok(()) => self.break_all(p),
                            Err(e) => self.fail(e.into(), p),
                        }
                        return true;
                    }
                    return moved;
                }
                Ok(n) => {
                    self.eps[end].wire_read += n as u64;
                    moved = true;
                    self.decode(end, &scratch[..n], p);
                    force = false;
                    if n == scratch.len() && n < SCRATCH / 2 {
                        scratch.resize(2 * n, 0);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return moved,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail(e, p);
                    return true;
                }
            }
        }
    }

    /// Streams freshly read bytes through `end`'s decoder and acts on
    /// each frame they complete.
    fn decode(&mut self, end: usize, mut chunk: &[u8], p: &mut Pump<N>) {
        while !chunk.is_empty() && self.state != ConnState::Broken {
            let (used, event) = match self.eps[end].decoder.feed(chunk) {
                Ok(step) => step,
                Err(e) => return self.fail(e.into(), p),
            };
            chunk = &chunk[used..];
            if let Some(event) = event {
                self.deliver(end, event, p);
            }
        }
    }

    /// Hands one inbound frame to the queue pair it names. The name is
    /// peer input: one this socket does not carry is a protocol error.
    fn deliver(&mut self, end: usize, event: Event, p: &mut Pump<N>) {
        let (Event::Send { qp: id, .. } | Event::Write { qp: id, .. }) = event;
        let Some(slot) = self.slot_of(id) else {
            let e = format!("frame names queue pair {id}, not carried here");
            return self.fail(io::Error::new(io::ErrorKind::InvalidData, e), p);
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
        p: &mut Pump<N>,
    ) {
        if len > max_len {
            // Not consumed: the break flushes it, in posting order.
            self.qps[slot].ends[qend].recvs.push_front((wr_id, max_len));
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

    /// Records a socket or protocol error for [`TcpFabric::shutdown`],
    /// naming the socket by its node pair, and breaks the socket.
    fn fail(&mut self, e: io::Error, p: &mut Pump<N>) {
        let [a, b] = self.eps.each_ref().map(|ep| ep.node);
        let e = io::Error::new(e.kind(), format!("socket {a}-{b}: {e}"));
        p.io_errors.push(e);
        self.break_all(p);
    }
}

impl<N: Net> Transport for TcpFabric<N> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.home.pump.now_ns())
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        loop {
            let pump = &mut self.home.pump;
            if let Some(d) = pump.net.next_ready(&mut pump.ready) {
                qp::see(&mut self.qps, &d.2);
                debug_assert!(d.0 >= self.last_at, "advance() went back in time");
                self.last_at = d.0;
                self.recorder.set_now(d.0.as_nanos());
                return Some(d);
            }
            self.absorb();
            if !self.home.pump.ready.is_empty() {
                continue;
            }
            if self.home.cursor == 0 {
                // Due timers fire only as a lap begins, so a zero-delay
                // timer is the end-of-round hook: it fires after every
                // delivery of the lap that armed it.
                let now = self.home.pump.now_ns();
                self.fire_due_timers(now);
                if !self.home.pump.ready.is_empty() {
                    continue;
                }
                // A parked worker reads its sockets when told to; one
                // that runs sweeps by its own clock.
                let due = self.home.sweep_due(now);
                if let Some(w) = self.worker.as_mut().filter(|w| due && w.idle()) {
                    w.order(Order::Sweep);
                }
            }
            // The lap visits every socket direction in turn and hands what
            // one delivers to the caller at once; what the caller posts in
            // reaction leaves in this lap if its direction is still ahead.
            if !self.home.step() {
                continue;
            }
            if self.quiescent() {
                return None;
            }
            if self.home.moved {
                continue;
            }
            // The worker has work in flight: a sleeping or yielding
            // caller would hand its deliveries out late.
            if self.worker.as_ref().is_some_and(|w| !w.idle()) {
                self.wait();
                continue;
            }
            // Nothing moved in a lap that tried every read the ledger
            // still expects: park until the next timer, or just yield
            // while the kernel shuttles loopback bytes.
            let now = self.home.pump.now_ns();
            match self.timers.peek() {
                Some(&Reverse((deadline, _, _))) if deadline > now => {
                    // No socket goes unread across a sleep.
                    if !self.home.swept {
                        self.home.sweep = true;
                        continue;
                    }
                    let wait = (deadline - now).min(FAILURE_DETECT_NS);
                    self.home.pump.net.idle(Some(wait));
                }
                _ => self.home.pump.net.idle(None),
            }
        }
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        assert_ne!(a, b, "cannot connect a node to itself");
        let (a, b) = (a.index(), b.index());
        let open = self.pairs.get(&(a.min(b), a.max(b))).copied();
        let sock = match open.filter(|&s| self.sockets[s].state != ConnState::Broken) {
            Some(sock) => Some(sock),
            None => match self.open_socket(a, b) {
                Ok(sock) => Some(sock),
                Err(e) => {
                    let e = io::Error::new(e.kind(), format!("connect {a}-{b}: {e}"));
                    self.home.pump.io_errors.push(e);
                    None
                }
            },
        };
        let id = self.qps.len() as u32;
        let at = sock.map(|sock| {
            let socket = &mut self.sockets[sock];
            let flip = usize::from(socket.nodes[0] != a);
            socket.qps += 1;
            let slot = socket.qps - 1;
            self.order(sock, |conn| Order::Qp { conn, id, flip });
            (sock, slot)
        });
        self.qps.push(Route::new([a, b], at));
        let handles = [0, 1].map(|end| QpHandle::from_parts(id, end));
        if at.is_none() {
            // No socket: both live ends see the break at the next
            // `advance()`, and every post is refused.
            for (qp, node) in handles.into_iter().zip([a, b]) {
                self.home.pump.push(node, Delivery::QpBroken { qp });
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
        let (sock, slot) = self.check_postable(qp)?;
        let end = usize::from(qp.endpoint());
        self.qps[qp.conn_id() as usize].posted[1][end] += 1;
        self.order(sock, |conn| Order::Recv {
            conn,
            slot,
            end,
            recv: (wr_id, max_len),
        });
        Ok(())
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let deadline = self.home.pump.now_ns().saturating_add(delay.as_nanos());
        self.arm_timer(deadline, TimerEntry::Driver(node.index(), token));
    }

    fn consume_cpu(&mut self, _node: NodeId, _dur: SimDuration) {
        // Real hosts charge their own CPUs.
    }

    fn crash(&mut self, node: NodeId) {
        let idx = node.index();
        if self.home.pump.crashed[idx] {
            return;
        }
        // Deliveries already queued for the dead node vanish: dead
        // software observes nothing, per the Transport contract.
        self.home.apply(Order::Crash(idx));
        if let Some(w) = self.worker.as_mut() {
            w.order(Order::Crash(idx));
        }
        // The survivors notice at the failure-detect deadline.
        let deadline = self.home.pump.now_ns().saturating_add(FAILURE_DETECT_NS);
        for sock in 0..self.sockets.len() {
            let socket = &mut self.sockets[sock];
            if socket.state == ConnState::Alive && socket.nodes.contains(&idx) {
                socket.state = ConnState::Dying;
                self.arm_timer(deadline, TimerEntry::Break(sock));
            }
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.home.pump.crashed[node.index()]
    }

    fn break_qp(&mut self, qp: QpHandle) {
        let route = &mut self.qps[qp.conn_id() as usize];
        let Some((sock, slot)) = route.at else {
            return;
        };
        route.broken = true;
        self.order(sock, |conn| Order::BreakQp { conn, slot });
    }

    fn profile(&self, _node: NodeId) -> &HostProfile {
        &self.profile
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        let (route, end) = (&self.qps[qp.conn_id() as usize], usize::from(qp.endpoint()));
        PostingSnapshot {
            queued_sends: route.posted[0][end],
            posted_recvs: route.posted[1][end],
            broken: route.broken,
            ..PostingSnapshot::default()
        }
    }

    fn set_recorder(&mut self, recorder: trace::Recorder) {
        recorder.set_now(self.home.pump.now_ns());
        self.recorder = recorder;
    }

    fn stats(&self) -> FabricStats {
        FabricStats {
            rnr_arms: self.home.pump.rnr_arms + self.worker.as_ref().map_or(0, |w| w.rnr_arms),
            ..FabricStats::default()
        }
    }

    fn cpu_report(&self, _node: NodeId) -> CpuReport {
        CpuReport::default()
    }

    fn num_nodes(&self) -> usize {
        self.home.pump.crashed.len()
    }

    fn set_scheduler(&mut self, scheduler: SharedScheduler) {
        self.home.pump.net.set_scheduler(scheduler);
    }
}

impl<N: Net> Drop for TcpFabric<N> {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            w.stop();
        }
    }
}

impl<N: Net> std::fmt::Debug for TcpFabric<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let worker = self.sockets.iter().filter(|s| s.shard > 0).count();
        f.debug_struct("TcpFabric")
            .field("nodes", &self.home.pump.crashed.len())
            .field("sockets", &self.sockets.len())
            .field("queue_pairs", &self.qps.len())
            .field("worker_sockets", &worker)
            .finish()
    }
}

/// Starts a [`ClusterBuilder`] over a freshly-launched `n`-node TCP
/// fabric — the one-line entry point mirroring
/// `ClusterBuilder::new(spec)` on the simulated side.
///
/// # Errors
///
/// As [`TcpFabric::launch`].
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
