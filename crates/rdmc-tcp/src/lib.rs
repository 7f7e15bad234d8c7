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
//! in-order exactly-once delivery per connection and failure reporting
//! on break. The mapping:
//!
//! - a two-sided `post_send` becomes a framed write whose "hardware
//!   completion" ([`verbs::Delivery::SendDone`]) fires when the frame
//!   is fully flushed to the socket;
//! - a one-sided `post_write` becomes a framed write surfacing at the
//!   peer as [`verbs::Delivery::WriteArrived`];
//! - posted receives are a per-connection queue consumed in arrival
//!   order — a data frame that finds no posted receive is held and
//!   counted in [`verbs::FabricStats::rnr_arms`], keeping the §4.2
//!   zero-RNR discipline observable on real sockets too;
//! - a crashed node goes silent; peers detect it after the
//!   failure-detect interval and see their connections flush and break,
//!   exactly like the simulated NIC.
//!
//! ## The event loop
//!
//! `advance()` runs one **pump** pass over the connections and then
//! hands out what it produced:
//!
//! - **Quantum.** An endpoint with queued frames flushes one quantum
//!   (512 KiB of payload: two blocks of the paper's regime) in a single
//!   `write_vectored` that gathers borrowed slices — up to eight queued
//!   frames, the last one possibly in part — and the *peer* end is read
//!   at once, while the bytes are still in cache; then the next
//!   quantum, until the queue is empty. Filling socket buffers first
//!   and reading them later is several times slower on loopback.
//! - **Streaming decode.** Reads land in one shared buffer and are
//!   decoded where they lie (the private `frame` module): a send's body
//!   is counted and dropped, a write's body is copied once into its
//!   `Bytes`, and a posted receive is matched when its frame completes.
//! - **Ledger.** Each endpoint counts bytes written and bytes read. A
//!   socket is read only while its peer has written bytes it has not
//!   read — no trailing empty read, and an idle connection costs no
//!   system call. The ledger's fabric-wide sums (frames queued, bytes
//!   in flight) are also the quiescence test.
//! - **Sweep.** Once per failure-detect interval, and before every
//!   sleep, every socket is read regardless — a socket killed from
//!   outside is still noticed within that bound.
//! - **Timers first.** Due timers are handed out before a pass starts,
//!   and the pass waits for their handlers: a zero-delay timer is the
//!   driver's end-of-batch hook, and what it posts leaves in the same
//!   pass as everything posted before it.
//!
//! None of this touches completion semantics: `SendDone` still means
//! "flushed to the socket" and nothing the receiving end does feeds
//! into it; the peer is merely read sooner.
//!
//! **What is in-process about it.** All nodes live in one process
//! (hundreds fit comfortably), so tests and benches launch whole
//! clusters as a value. Pairing a flush with its peer's read, and the
//! ledger, use that — as the inline connect/accept and the quiescence
//! test always have. The quantum, the decoder and the gather are
//! transport-general; across hosts the ledger's one call site
//! (`read_endpoint`'s "bytes in flight to me?") is where kernel
//! readiness would go.
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use frame::{
    Decoder, Event, OutFrame, Payload, GATHER_SLICES, KIND_SEND, KIND_WRITE, MAX_FRAME, QUANTUM,
};
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

/// One endpoint of a connection: its socket half plus every per-side
/// queue (outbound frames, the inbound frame in progress, posted
/// receives, held frames awaiting a receive).
struct Endpoint {
    node: usize,
    stream: TcpStream,
    out: VecDeque<OutFrame>,
    decoder: Decoder,
    recvs: VecDeque<(WrId, u64)>,
    /// Two-sided frames that arrived before a receive was posted
    /// (len, imm): held, not dropped — but counted as RNR arms.
    held: VecDeque<(u64, u64)>,
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
    /// Failure detection expired: break this connection.
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
    /// Loopback listener every connection handshakes through.
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
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
    /// Reused read buffer (one per fabric, not per connection).
    scratch: Vec<u8>,
    /// The ledger's fabric-wide sums over unbroken connections: frames
    /// queued for the wire, and bytes written that no peer has read.
    queued: usize,
    in_flight: u64,
    /// When every socket was last read regardless of the ledger.
    last_sweep: u64,
}

impl TcpFabric {
    /// Binds a loopback listener and readies `n` in-process nodes.
    /// Connections are established lazily as the protocol first pairs
    /// two nodes.
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
        })
    }

    /// Tears the fabric down: shuts down every socket and surfaces the
    /// first error observed — either mid-run (reads, writes and frame
    /// decoding never unwrap; errors are recorded and the connection
    /// broken) or during the shutdown itself. The listener and all
    /// streams close on drop regardless, so repeated launch/shutdown
    /// cycles in one process stay clean.
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
    /// and breaks the connection it happened on.
    fn fail_conn(&mut self, ci: usize, e: io::Error) {
        self.io_errors
            .push(io::Error::new(e.kind(), format!("conn {ci}: {e}")));
        self.break_conn_now(ci);
    }

    /// Fires every timer due at or before `now` — *all* of them, before
    /// any later socket completion surfaces. This ordering is what the
    /// [`Transport`] contract's timers-before-I/O guarantee asks for:
    /// every failure-detect break for a crashed node (all armed at the
    /// same deadline) batches ahead of relayed-failure gossip.
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

    /// One pass of the event loop over every connection and direction.
    /// With `sweep`, every live socket is read once whatever the ledger
    /// says, which is how a socket killed from outside is noticed.
    /// Returns whether any bytes moved.
    fn pump(&mut self, sweep: bool) -> bool {
        let mut moved = false;
        for ci in 0..self.conns.len() {
            for tx in 0..2 {
                moved |= self.pump_direction(ci, tx, sweep);
            }
        }
        moved
    }

    /// Flushes one quantum from `tx`, reads it straight back out of the
    /// peer end, and repeats while frames are queued and bytes move.
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
            let (wr_id, two_sided) = (frame.wr_id, frame.two_sided);
            self.conns[ci].eps[end].out.pop_front();
            self.queued -= 1;
            let qp = QpHandle::from_parts(ci as u32, end as u8);
            let delivery = if two_sided {
                Delivery::SendDone { qp, wr_id }
            } else {
                Delivery::WriteDone { qp, wr_id }
            };
            self.push_delivery(self.conns[ci].eps[end].node, delivery);
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
                    // peer's socket died under us. A dying connection's
                    // EOF just waits for its break timer.
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
        let qp = QpHandle::from_parts(ci as u32, end as u8);
        while !chunk.is_empty() && self.conns[ci].state != ConnState::Broken {
            let ep = &mut self.conns[ci].eps[end];
            let node = ep.node;
            let (used, event) = match ep.decoder.feed(chunk) {
                Ok(step) => step,
                Err(e) => return self.fail_conn(ci, e.into()),
            };
            chunk = &chunk[used..];
            match event {
                None => {}
                Some(Event::Write { tag, payload }) => {
                    self.push_delivery(node, Delivery::WriteArrived { qp, tag, payload });
                }
                Some(Event::Send { len, imm }) => match ep.recvs.pop_front() {
                    Some((wr_id, max_len)) if len <= max_len => {
                        let done = Delivery::RecvDone {
                            qp,
                            wr_id,
                            len,
                            imm,
                        };
                        self.push_delivery(node, done);
                    }
                    // RDMA local-length error: the posted receive was
                    // too small, which breaks the connection.
                    Some(_) => self.break_conn_now(ci),
                    None => {
                        // Receiver-not-ready: a real NIC would arm an
                        // RNR retry timer; we hold the frame but make
                        // the discipline violation observable.
                        ep.held.push_back((len, imm));
                        self.rnr_arms += 1;
                    }
                },
            }
        }
    }

    /// Breaks a connection now: every outstanding work request at each
    /// *live* end is flushed in posting order (queued sends first, then
    /// posted receives), then the `QpBroken` notice lands, then the
    /// sockets shut down.
    fn break_conn_now(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        if conn.state == ConnState::Broken {
            return;
        }
        conn.state = ConnState::Broken;
        // Whatever was queued or in flight here leaves the ledger.
        self.in_flight -= conn.in_flight_to(0) + conn.in_flight_to(1);
        for end in 0..2 {
            let (node, out, recvs) = {
                let ep = &mut self.conns[ci].eps[end];
                let out: Vec<WrId> = ep.out.drain(..).map(|f| f.wr_id).collect();
                let recvs: Vec<WrId> = ep.recvs.drain(..).map(|(wr, _)| wr).collect();
                ep.held.clear();
                let _ = ep.stream.shutdown(Shutdown::Both);
                (ep.node, out, recvs)
            };
            self.queued -= out.len();
            let qp = QpHandle::from_parts(ci as u32, end as u8);
            for (wr_ids, recv) in [(out, false), (recvs, true)] {
                for wr_id in wr_ids {
                    self.push_delivery(node, Delivery::WrFlushed { qp, wr_id, recv });
                }
            }
            self.push_delivery(node, Delivery::QpBroken { qp });
        }
    }

    /// Queues one outbound frame, or refuses it: a crashed node and a
    /// broken connection as the verbs do, a body over [`MAX_FRAME`] as
    /// an RDMA local-length error does — by breaking the connection.
    fn post_frame(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        kind: u8,
        meta: u64,
        payload: Payload,
    ) -> Result<(), VerbsError> {
        self.check_postable(qp)?;
        let ci = qp.conn_id() as usize;
        if payload.len() > MAX_FRAME {
            self.break_conn_now(ci);
            return Err(VerbsError::QpBroken);
        }
        self.conns[ci].eps[usize::from(qp.endpoint())]
            .out
            .push_back(OutFrame::new(wr_id, kind, meta, payload));
        self.queued += 1;
        Ok(())
    }

    fn check_postable(&self, qp: QpHandle) -> Result<usize, VerbsError> {
        let conn = &self.conns[qp.conn_id() as usize];
        let node = conn.eps[usize::from(qp.endpoint())].node;
        if self.crashed[node] {
            return Err(VerbsError::NodeCrashed);
        }
        if conn.state == ConnState::Broken {
            return Err(VerbsError::QpBroken);
        }
        Ok(node)
    }

    /// Quiescent when nothing is queued for software, the ledger shows
    /// no frame queued for the wire and no byte written that its peer
    /// has not read, and no timer is armed that could still matter. A
    /// dying connection's ledger entries stand until its break, and its
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
            let now = self.now_ns();
            self.fire_due_timers(now);
            // Due timers surface before the pump moves more bytes, so a
            // zero-delay timer is the end-of-batch hook: what its handler
            // posts leaves in the same pass as what was posted before it.
            if !self.ready.is_empty() {
                continue;
            }
            let sweep = now - self.last_sweep >= FAILURE_DETECT_NS;
            if sweep {
                self.last_sweep = now;
            }
            let moved = self.pump(sweep);
            if !self.ready.is_empty() {
                continue;
            }
            if self.quiescent() {
                return None;
            }
            if moved {
                continue;
            }
            // Nothing moved on a pass that tried every read the ledger
            // still expects: park until the next timer, or just yield
            // while the kernel shuttles loopback bytes.
            match self.timers.peek() {
                Some(&Reverse((deadline, _, _))) if deadline > now => {
                    // No socket goes unread across a sleep.
                    if !sweep {
                        self.last_sweep = now;
                        if self.pump(true) {
                            continue;
                        }
                    }
                    let wait = (deadline - now).min(FAILURE_DETECT_NS);
                    std::thread::sleep(Duration::from_nanos(wait));
                }
                _ => std::thread::yield_now(),
            }
        }
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        // Inline handshake: this loop is the only caller, so the
        // connect and its accept pair up deterministically with no
        // identification handshake on the wire.
        let client = TcpStream::connect(self.addr).expect("loopback connect");
        let (server, _) = self.listener.accept().expect("loopback accept");
        for s in [&client, &server] {
            s.set_nodelay(true).expect("set_nodelay");
            s.set_nonblocking(true).expect("set_nonblocking");
        }
        let ci = self.conns.len();
        let mk = |node: usize, stream: TcpStream| Endpoint {
            node,
            stream,
            out: VecDeque::new(),
            decoder: Decoder::default(),
            recvs: VecDeque::new(),
            held: VecDeque::new(),
            wire_sent: 0,
            wire_read: 0,
        };
        self.conns.push(Conn {
            eps: [mk(a.index(), client), mk(b.index(), server)],
            state: ConnState::Alive,
        });
        // Connecting to an already-crashed peer: the connection comes up
        // but the dead side never answers, so failure detection starts
        // ticking immediately, exactly as for a crash after connect.
        if self.crashed[a.index()] || self.crashed[b.index()] {
            let deadline = self.now_ns().saturating_add(FAILURE_DETECT_NS);
            self.conns[ci].state = ConnState::Dying;
            self.arm_timer(deadline, TimerEntry::Break { conn: ci });
        }
        (
            QpHandle::from_parts(ci as u32, 0),
            QpHandle::from_parts(ci as u32, 1),
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
        let node = self.check_postable(qp)?;
        let ci = qp.conn_id() as usize;
        let end = usize::from(qp.endpoint());
        // A held frame (arrived before any receive was posted) consumes
        // this receive immediately, in arrival order.
        let held = self.conns[ci].eps[end].held.pop_front();
        match held {
            Some((len, imm)) if len <= max_len => {
                self.push_delivery(
                    node,
                    Delivery::RecvDone {
                        qp,
                        wr_id,
                        len,
                        imm,
                    },
                );
            }
            Some(_) => self.break_conn_now(ci),
            None => self.conns[ci].eps[end].recvs.push_back((wr_id, max_len)),
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
            if self.conns[ci].state != ConnState::Alive {
                continue;
            }
            if self.conns[ci].eps.iter().any(|ep| ep.node == idx) {
                // The dead side posts nothing more and its unflushed
                // frames die with it; the survivor notices at the
                // failure-detect deadline.
                for ep in &mut self.conns[ci].eps {
                    if ep.node == idx {
                        self.queued -= ep.out.len();
                        ep.out.clear();
                    }
                }
                self.conns[ci].state = ConnState::Dying;
                self.arm_timer(deadline, TimerEntry::Break { conn: ci });
            }
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    fn break_qp(&mut self, qp: QpHandle) {
        self.break_conn_now(qp.conn_id() as usize);
    }

    fn profile(&self, _node: NodeId) -> &HostProfile {
        &self.profile
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        let conn = &self.conns[qp.conn_id() as usize];
        let ep = &conn.eps[usize::from(qp.endpoint())];
        PostingSnapshot {
            queued_sends: ep.out.len(),
            send_inflight: false,
            posted_recvs: ep.recvs.len(),
            rnr_armed: !ep.held.is_empty(),
            rnr_remaining: 0,
            broken: conn.state == ConnState::Broken,
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
            .field("conns", &self.conns.len())
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
