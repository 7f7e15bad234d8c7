//! # rdmc-tcp — RDMC over real TCP sockets
//!
//! The paper's §5.3 observes that the binomial pipeline's slack should
//! make RDMC "work surprisingly well over high speed datacenter TCP
//! (with no RDMA)". This crate is that port, rebuilt as a
//! [`verbs::Transport`] backend: a **single nonblocking event loop**
//! (no thread per peer, no staging copy on either side) that carries the
//! *entire* `rdmc-sim` orchestration stack unchanged. One public API,
//! two transports: everything built on
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
//! DESIGN.md ("Transport abstraction") describes the loop — quantum,
//! streaming decoder, byte ledger, sweep, timers between laps, what is
//! in-process about it — and what a broken queue pair or a broken socket
//! takes down with it. `SendDone` means "flushed to the socket";
//! nothing the receiving end does feeds into it.
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
use std::time::{Duration, Instant};

use bytes::Bytes;
use frame::{
    Decoder, Event, OutFrame, Payload, GATHER_SLICES, KIND_SEND, KIND_WRITE, MAX_FRAME, QUANTUM,
};
use qp::{Qp, QpEnd};
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

/// Read buffer: one quantum and its headers fit, so one read takes
/// what one flush wrote.
const SCRATCH: usize = QUANTUM as usize + 4096;

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

/// The one socket between two nodes.
struct Conn {
    eps: [Endpoint; 2],
    state: ConnState,
}

impl Conn {
    /// Bytes written towards `end` that it has not read yet.
    fn in_flight_to(&self, end: usize) -> u64 {
        self.eps[1 - end].wire_sent - self.eps[end].wire_read
    }
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
    start: Instant,
    /// Loopback listener every socket handshakes through.
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
    qps: Vec<Qp>,
    /// Each node pair's unbroken socket, keyed `(lower, higher)` node.
    pairs: BTreeMap<(usize, usize), usize>,
    crashed: Vec<bool>,
    ready: VecDeque<(SimTime, NodeId, Delivery)>,
    timers: BinaryHeap<Reverse<(u64, u64, TimerEntry)>>,
    timer_seq: u64,
    recorder: trace::Recorder,
    profile: HostProfile,
    rnr_arms: u64,
    /// Socket and protocol errors observed mid-run, surfaced by
    /// [`TcpFabric::shutdown`] instead of being unwrapped or leaked.
    io_errors: Vec<io::Error>,
    /// Reused read buffer (one per fabric, not per socket).
    scratch: Vec<u8>,
    /// The ledger's fabric-wide sums over unbroken sockets: frames
    /// queued for the wire, and bytes written that no peer has read.
    queued: usize,
    in_flight: u64,
    /// When every socket was last read regardless of the ledger.
    last_sweep: u64,
    /// The lap in progress: the next socket direction it pumps
    /// (`2 * socket + end`), whether it reads every socket, and whether
    /// it has moved any bytes yet.
    cursor: usize,
    lap_sweep: bool,
    lap_moved: bool,
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
        Ok(TcpFabric {
            start: Instant::now(),
            listener,
            addr,
            conns: Vec::new(),
            qps: Vec::new(),
            pairs: BTreeMap::new(),
            crashed: vec![false; n],
            ready: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            recorder: trace::Recorder::disabled(),
            profile: HostProfile::default(),
            rnr_arms: 0,
            io_errors: Vec::new(),
            scratch: vec![0; SCRATCH],
            queued: 0,
            in_flight: 0,
            last_sweep: 0,
            cursor: 0,
            lap_sweep: false,
            lap_moved: false,
        })
    }

    /// Tears the fabric down: shuts down every socket and surfaces the
    /// first error observed — either mid-run (socket set-up, reads,
    /// writes and frame decoding never unwrap; errors are recorded and
    /// the queue pairs broken) or during the shutdown itself. The
    /// listener and all streams close on drop regardless, so repeated
    /// launch/shutdown cycles in one process stay clean.
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
                        self.io_errors.push(e);
                    }
                }
            }
        }
        match self.io_errors.into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    // Called from the `qp` module's break paths as well; without the
    // hint the per-frame path stops inlining it (measured: `tcp_large`
    // goodput ~3 % lower on one core).
    #[inline]
    fn push_delivery(&mut self, node: usize, delivery: Delivery) {
        if self.crashed[node] {
            return; // dead software observes nothing
        }
        self.ready.push_back((
            SimTime::from_nanos(self.now_ns()),
            NodeId(node as u32),
            delivery,
        ));
    }

    /// Records a socket or protocol error for [`TcpFabric::shutdown`]
    /// and breaks the socket it happened on.
    fn fail_conn(&mut self, ci: usize, e: io::Error) {
        self.io_errors
            .push(io::Error::new(e.kind(), format!("conn {ci}: {e}")));
        self.break_conn_now(ci);
    }

    /// Opens the one socket between nodes `a` and `b`. Inline handshake:
    /// this loop is the only caller, so the connect and its accept pair
    /// up deterministically with no identification handshake on the wire.
    fn open_socket(&mut self, a: usize, b: usize) -> io::Result<usize> {
        let client = TcpStream::connect(self.addr)?;
        let (server, _) = self.listener.accept()?;
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
        });
        self.pairs.insert((a.min(b), a.max(b)), ci);
        // Connecting to an already-crashed peer: the socket comes up but
        // the dead side never answers, so failure detection starts
        // ticking immediately, exactly as for a crash after connect.
        if self.crashed[a] || self.crashed[b] {
            let deadline = self.now_ns().saturating_add(FAILURE_DETECT_NS);
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
                TimerEntry::Break { conn } => {
                    // Pre-crash data the dead end already flushed is
                    // genuinely on the wire; deliver it before the
                    // break, matching the simulated fabric where a
                    // completed transfer is a delivered transfer.
                    for end in 0..2 {
                        self.read_endpoint(conn, end, false);
                    }
                    self.break_conn_now(conn);
                }
                TimerEntry::Driver { node, token } => {
                    self.push_delivery(node, Delivery::Timer { token });
                }
            }
        }
    }

    /// Flushes one quantum from `tx`, reads it straight back out of the
    /// peer end, and repeats while frames are queued and bytes move.
    /// With `sweep`, the peer end is read once whatever the ledger says,
    /// which is how a socket killed from outside is noticed. Returns
    /// whether any bytes moved.
    fn pump_direction(&mut self, ci: usize, tx: usize, sweep: bool) -> bool {
        let mut moved = false;
        let mut force = sweep;
        loop {
            // A dying end's queued frames die with the break; its live
            // end is still read while the ledger shows bytes for it.
            let wrote = self.conns[ci].state == ConnState::Alive && self.flush_quantum(ci, tx);
            let read = self.read_endpoint(ci, 1 - tx, force);
            force = false;
            moved |= wrote || read;
            if !(wrote || read) || self.conns[ci].eps[tx].out.is_empty() {
                return moved;
            }
        }
    }

    /// One gathered write of at most [`QUANTUM`] payload bytes (and the
    /// headers that go with them) from the front of the queue; emits
    /// send/write completions for frames that left the host entirely.
    /// Returns whether any bytes moved.
    fn flush_quantum(&mut self, ci: usize, end: usize) -> bool {
        let ep = &mut self.conns[ci].eps[end];
        if ep.out.is_empty() {
            return false;
        }
        let mut slices = [IoSlice::new(&[]); GATHER_SLICES];
        let n = frame::gather(&ep.out, &mut slices);
        let wrote = loop {
            match (&ep.stream).write_vectored(&slices[..n]) {
                Ok(0) => {
                    self.break_conn_now(ci);
                    return true;
                }
                Ok(wrote) => break wrote as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail_conn(ci, e);
                    return true;
                }
            }
        };
        ep.wire_sent += wrote;
        self.in_flight += wrote;
        let mut left = wrote;
        while let Some(frame) = self.conns[ci].eps[end].out.front_mut() {
            if !frame.advance(&mut left) {
                break; // partial write; the next gather resumes here
            }
            let (qp, wr_id, two_sided) = (frame.qp, frame.wr_id, frame.two_sided);
            self.conns[ci].eps[end].out.pop_front();
            self.queued -= 1;
            let Some((q, qend)) = self.sender_of(ci, end, qp) else {
                continue; // an orphan completes nothing
            };
            let qp_end = &mut self.qps[q].ends[qend];
            qp_end.queued -= 1;
            let node = qp_end.node;
            let qp = QpHandle::from_parts(q as u32, qend as u8);
            let delivery = if two_sided {
                Delivery::SendDone { qp, wr_id }
            } else {
                Delivery::WriteDone { qp, wr_id }
            };
            self.push_delivery(node, delivery);
        }
        true
    }

    /// Reads `end`'s socket while the ledger shows bytes in flight
    /// towards it (`force`: once regardless) and decodes them out of
    /// the shared scratch buffer. The ledger ends the turn exactly, so
    /// no trailing `WouldBlock` is paid for; one comes back only when
    /// the kernel has not delivered everything yet, and the next pass
    /// asks again. Returns whether any bytes moved.
    fn read_endpoint(&mut self, ci: usize, end: usize, force: bool) -> bool {
        let conn = &self.conns[ci];
        if self.crashed[conn.eps[end].node] {
            return false; // dead software reads nothing
        }
        if !force && conn.in_flight_to(end) == 0 {
            return false;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let moved = self.read_into(ci, end, force, &mut scratch);
        self.scratch = scratch;
        moved
    }

    fn read_into(&mut self, ci: usize, end: usize, mut force: bool, scratch: &mut [u8]) -> bool {
        let mut moved = false;
        loop {
            let conn = &mut self.conns[ci];
            if conn.state == ConnState::Broken || !(force || conn.in_flight_to(end) > 0) {
                return moved;
            }
            match conn.eps[end].stream.read(scratch) {
                Ok(0) => {
                    // Orderly close without a protocol-level break: the
                    // peer's socket died under us. A dying socket's EOF
                    // just waits for its break timer.
                    if conn.state == ConnState::Alive {
                        match conn.eps[end].decoder.finish() {
                            Ok(()) => self.break_conn_now(ci),
                            Err(e) => self.fail_conn(ci, e.into()),
                        }
                        return true;
                    }
                    return moved;
                }
                Ok(n) => {
                    conn.eps[end].wire_read += n as u64;
                    self.in_flight -= n as u64;
                    moved = true;
                    self.decode(ci, end, &scratch[..n]);
                    force = false;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return moved,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail_conn(ci, e);
                    return true;
                }
            }
        }
    }

    /// Streams freshly read bytes through `end`'s decoder and acts on
    /// each frame they complete.
    fn decode(&mut self, ci: usize, end: usize, mut chunk: &[u8]) {
        while !chunk.is_empty() && self.conns[ci].state != ConnState::Broken {
            let (used, event) = match self.conns[ci].eps[end].decoder.feed(chunk) {
                Ok(step) => step,
                Err(e) => return self.fail_conn(ci, e.into()),
            };
            chunk = &chunk[used..];
            if let Some(event) = event {
                self.deliver(ci, end, event);
            }
        }
    }

    /// The queue pair a frame at socket end `(ci, end)` names, and its
    /// end there, if socket `ci` carries it.
    fn qp_at(&self, ci: usize, end: usize, id: u32) -> Option<(usize, usize)> {
        let p = self.qps.get(id as usize).filter(|p| p.conn == Some(ci))?;
        Some((id as usize, end ^ p.flip))
    }

    /// [`Self::qp_at`] for a frame queued to leave: `None` also for an
    /// orphan, whose queue pair broke while it was part-way onto the wire.
    fn sender_of(&self, ci: usize, end: usize, id: u32) -> Option<(usize, usize)> {
        self.qp_at(ci, end, id)
            .filter(|&(q, _)| !self.qps[q].broken)
    }

    /// Hands one inbound frame to the queue pair it names. The name is
    /// peer input: one this socket does not carry is a protocol error.
    fn deliver(&mut self, ci: usize, end: usize, event: Event) {
        let (Event::Send { qp: id, .. } | Event::Write { qp: id, .. }) = event;
        let Some((q, qend)) = self.qp_at(ci, end, id) else {
            let e = format!("frame names queue pair {id}, not carried here");
            return self.fail_conn(ci, io::Error::new(io::ErrorKind::InvalidData, e));
        };
        if self.qps[q].broken {
            return; // the tail of a broken queue pair's frames: dropped
        }
        let qp_end = &mut self.qps[q].ends[qend];
        match event {
            Event::Write { tag, payload, .. } => {
                let (node, qp) = (qp_end.node, QpHandle::from_parts(q as u32, qend as u8));
                self.push_delivery(node, Delivery::WriteArrived { qp, tag, payload });
            }
            Event::Send { len, imm, .. } => match qp_end.recvs.pop_front() {
                Some(recv) => self.land(q, qend, recv, (len, imm)),
                None => {
                    // Receiver-not-ready: a real NIC would arm an RNR
                    // retry timer; we hold the frame but make the
                    // discipline violation observable.
                    qp_end.held.push_back((len, imm));
                    self.rnr_arms += 1;
                }
            },
        }
    }

    /// A send of `len` bytes meets the receive `wr_id` at queue-pair end
    /// `(q, qend)`: `RecvDone`, or — the receive was too small — an RDMA
    /// local-length error, which breaks the queue pair.
    fn land(
        &mut self,
        q: usize,
        qend: usize,
        (wr_id, max_len): (WrId, u64),
        (len, imm): (u64, u64),
    ) {
        if len > max_len {
            return self.break_qp_now(q);
        }
        let qp = QpHandle::from_parts(q as u32, qend as u8);
        let done = Delivery::RecvDone {
            qp,
            wr_id,
            len,
            imm,
        };
        self.push_delivery(self.qps[q].ends[qend].node, done);
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
        let ci = self.check_postable(qp)?;
        let (q, end) = (qp.conn_id() as usize, usize::from(qp.endpoint()));
        if payload.len() > MAX_FRAME {
            self.break_qp_now(q);
            return Err(VerbsError::QpBroken);
        }
        self.conns[ci].eps[end ^ self.qps[q].flip]
            .out
            .push_back(OutFrame::new(q as u32, wr_id, kind, meta, payload));
        self.qps[q].ends[end].queued += 1;
        self.queued += 1;
        Ok(())
    }

    /// The socket a post on `qp` goes to, or why the post is refused.
    fn check_postable(&self, qp: QpHandle) -> Result<usize, VerbsError> {
        let p = &self.qps[qp.conn_id() as usize];
        if self.crashed[p.ends[usize::from(qp.endpoint())].node] {
            return Err(VerbsError::NodeCrashed);
        }
        p.conn.filter(|_| !p.broken).ok_or(VerbsError::QpBroken)
    }

    /// Quiescent when nothing is queued for software, the ledger shows
    /// no frame queued for the wire and no byte written that its peer
    /// has not read, and no timer is armed that could still matter. A
    /// dying socket's ledger entries stand until its break, and its
    /// pending break timer keeps the loop alive that long anyway.
    fn quiescent(&self) -> bool {
        self.ready.is_empty()
            && self.queued == 0
            && self.in_flight == 0
            && self
                .timers
                .iter()
                .all(|Reverse((_, _, entry))| match entry {
                    TimerEntry::Break { .. } => false,
                    TimerEntry::Driver { node, .. } => self.crashed[*node],
                })
    }

    fn arm_timer(&mut self, deadline: u64, entry: TimerEntry) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((deadline, seq, entry)));
    }
}

impl Transport for TcpFabric {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns())
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        loop {
            if let Some(d) = self.ready.pop_front() {
                self.recorder.set_now(d.0.as_nanos());
                return Some(d);
            }
            if self.cursor == 0 {
                // Due timers fire only as a lap begins, so a zero-delay
                // timer is the end-of-round hook: it fires after every
                // delivery of the lap that armed it.
                let now = self.now_ns();
                self.fire_due_timers(now);
                if !self.ready.is_empty() {
                    continue;
                }
                self.lap_sweep |= now - self.last_sweep >= FAILURE_DETECT_NS;
                if self.lap_sweep {
                    self.last_sweep = now;
                }
                self.lap_moved = false;
            }
            // The lap visits every socket direction in turn and hands what
            // one delivers to the caller at once; what the caller posts in
            // reaction leaves in this lap if its direction is still ahead.
            while self.cursor < 2 * self.conns.len() && self.ready.is_empty() {
                let (ci, tx) = (self.cursor / 2, self.cursor % 2);
                self.cursor += 1;
                self.lap_moved |= self.pump_direction(ci, tx, self.lap_sweep);
            }
            if !self.ready.is_empty() {
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
            let now = self.now_ns();
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
        let conn = match self.pairs.get(&(a.min(b), a.max(b))) {
            Some(&ci) => Some(ci),
            None => match self.open_socket(a, b) {
                Ok(ci) => Some(ci),
                Err(e) => {
                    let e = io::Error::new(e.kind(), format!("connect {a}-{b}: {e}"));
                    self.io_errors.push(e);
                    None
                }
            },
        };
        let q = self.qps.len();
        let end = |node| QpEnd {
            node,
            recvs: VecDeque::new(),
            held: VecDeque::new(),
            queued: 0,
        };
        self.qps.push(Qp {
            conn,
            flip: conn.map_or(0, |ci| usize::from(self.conns[ci].eps[0].node != a)),
            ends: [end(a), end(b)],
            broken: false,
        });
        if conn.is_none() {
            // No socket: both live ends see the break at the next
            // `advance()`, and every post is refused.
            self.break_qp_now(q);
        }
        (
            QpHandle::from_parts(q as u32, 0),
            QpHandle::from_parts(q as u32, 1),
        )
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
        self.check_postable(qp)?;
        let (q, end) = (qp.conn_id() as usize, usize::from(qp.endpoint()));
        // A held frame (arrived before any receive was posted) consumes
        // this receive immediately, in arrival order.
        let qp_end = &mut self.qps[q].ends[end];
        match qp_end.held.pop_front() {
            Some(send) => self.land(q, end, (wr_id, max_len), send),
            None => qp_end.recvs.push_back((wr_id, max_len)),
        }
        Ok(())
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let deadline = self.now_ns().saturating_add(delay.as_nanos());
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
        if self.crashed[idx] {
            return;
        }
        self.crashed[idx] = true;
        // Deliveries already queued for the dead node vanish: dead
        // software observes nothing, per the Transport contract.
        self.ready.retain(|(_, n, _)| n.index() != idx);
        let deadline = self.now_ns().saturating_add(FAILURE_DETECT_NS);
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
        self.crashed[node.index()]
    }

    fn break_qp(&mut self, qp: QpHandle) {
        self.break_qp_now(qp.conn_id() as usize);
    }

    fn profile(&self, _node: NodeId) -> &HostProfile {
        &self.profile
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        let p = &self.qps[qp.conn_id() as usize];
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
        recorder.set_now(self.now_ns());
        self.recorder = recorder;
    }

    fn stats(&self) -> FabricStats {
        FabricStats {
            rnr_arms: self.rnr_arms,
            ..FabricStats::default()
        }
    }

    fn cpu_report(&self, _node: NodeId) -> CpuReport {
        CpuReport::default()
    }

    fn num_nodes(&self) -> usize {
        self.crashed.len()
    }
}

impl std::fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFabric")
            .field("nodes", &self.crashed.len())
            .field("sockets", &self.conns.len())
            .field("queue_pairs", &self.qps.len())
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
