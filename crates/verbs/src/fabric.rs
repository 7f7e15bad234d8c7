//! The simulated RDMA fabric: reliable connections, work queues,
//! completions, and failure semantics over a [`simnet`] flow network.
//!
//! The fabric is *pull-based*: drivers call [`Transport::advance`] in a loop;
//! each call runs internal hardware events forward and returns the next
//! software-visible [`Delivery`] (a completion, an arrived one-sided
//! write, a broken-connection notice, or a driver timer). While handling a
//! delivery the driver may post new verbs, schedule timers, and charge CPU
//! time; the fabric serialises each node's software on a single virtual
//! core, exactly like RDMC's single completion thread (§4.2).

use std::collections::VecDeque;

use bytes::Bytes;
use simnet::{
    CpuMeter, EventQueue, EventToken, FlowId, FlowNet, HostProfile, JitterModel, LinkId,
    SimDuration, SimTime, Topology,
};

use crate::sched::{Candidate, CandidateKind, ChoicePoint, PointKind, SharedScheduler};
use crate::transport::Transport;
use crate::types::{
    CompletionMode, CpuReport, Delivery, FabricParams, NodeId, QpHandle, VerbsError, WaitSpec, WrId,
};

/// Transfers at or below this size bypass the bandwidth allocator and
/// complete at pure propagation latency (their serialisation time is
/// sub-nanosecond at the simulated link speeds).
const TINY_BYPASS_BYTES: u64 = 256;

/// What kind of data a pending send moves.
#[derive(Clone, Debug)]
enum SendKind {
    /// Two-sided send: consumes a posted receive at the peer.
    TwoSided { imm: u64 },
    /// One-sided write: no receive required; the peer's memory is updated.
    Write { tag: u64, payload: Bytes },
}

#[derive(Clone, Debug)]
struct PendingSend {
    wr_id: WrId,
    bytes: u64,
    kind: SendKind,
    wait_for: Option<WaitSpec>,
    /// Software finished posting at this instant; hardware may not start
    /// earlier.
    ready_at: SimTime,
}

#[derive(Debug, Default)]
struct DirState {
    queue: VecDeque<PendingSend>,
    /// The send currently on the wire, with its claimed receive (wr_id,
    /// max_len) if two-sided.
    inflight: Option<(FlowId, PendingSend, Option<WrId>)>,
    rnr_remaining: u32,
    /// Incremented whenever an armed RNR timer becomes irrelevant.
    rnr_epoch: u64,
    rnr_armed: bool,
}

#[derive(Debug)]
struct Conn {
    nodes: [NodeId; 2],
    paths: [Vec<LinkId>; 2],
    latency: [SimDuration; 2],
    /// Receives posted at each end, consumed in order by incoming sends.
    recvs: [VecDeque<(WrId, u64)>; 2],
    dirs: [DirState; 2],
    /// Ids of the WRs that have completed in hardware at each end, sorted,
    /// for cross-channel dependencies. Drivers reuse a handful of ids per
    /// queue pair (a block index, a fixed id per control write), so these
    /// stay a few entries long however many WRs complete.
    hw_completed: [Vec<u64>; 2],
    broken: bool,
    /// Work requests torn off the wire before the break was delivered
    /// (e.g. an in-flight send aborted by a peer crash): flushed as error
    /// completions when the break lands. `(endpoint, wr, is_recv)`.
    pending_flush: Vec<(u8, WrId, bool)>,
}

struct Node {
    profile: HostProfile,
    mode: CompletionMode,
    jitter: JitterModel,
    meter: CpuMeter,
    cpu_free_at: SimTime,
    /// Hybrid mode: polling continues until this instant.
    poll_until: SimTime,
    poll_busy: SimDuration,
    crashed: bool,
    conns: Vec<u32>,
    /// The node has posted a send with a cross-channel dependency at some
    /// point, so a hardware completion here may be what a head-of-line
    /// send on another of its connections is waiting for.
    posts_dependent_sends: bool,
}

#[derive(Debug)]
enum Ev {
    /// Re-check the flow network for due completions.
    NetWake,
    /// Try to start the head-of-line send of a connection direction.
    Kick { conn: u32, dir: u8 },
    /// An RNR retry timer fired.
    RnrRetry { conn: u32, dir: u8, epoch: u64 },
    /// A transfer's last byte reached the receiver / the ack reached the
    /// sender: the hardware completion, as the [`Delivery`] software will
    /// see (on the endpoint its `qp` names), parked in the completion
    /// table at `entry`.
    HwComplete { entry: u32 },
    /// A NIC noticed its peer died.
    BreakConn { conn: u32 },
    /// Software-visible delivery (after completion-mode delay + jitter)
    /// of the completion parked at `entry`.
    Deliver { node: NodeId, entry: u32 },
    /// A driver timer, delivered as [`Delivery::Timer`]. It rides in the
    /// event, not the completion table: a driver may park thousands of
    /// timers far ahead, and a table entry is a whole `Delivery`.
    Timer { node: NodeId, token: u64 },
}

impl Ev {
    /// Index of this event's kind in [`FabricStats::events_by_kind`].
    fn kind(&self) -> usize {
        match self {
            Ev::NetWake => 0,
            Ev::Kick { .. } => 1,
            Ev::RnrRetry { .. } => 2,
            Ev::HwComplete { .. } => 3,
            Ev::BreakConn { .. } => 4,
            Ev::Deliver { .. } | Ev::Timer { .. } => 5,
        }
    }
}

/// The completions between the hardware and software, each named by one
/// queued `HwComplete` or `Deliver` event, so that an event is 16 bytes
/// whatever a [`Delivery`] holds. An entry is parked when its event is
/// queued and taken exactly once, when the event surfaces.
#[derive(Default)]
struct CompletionTable {
    slab: Vec<Option<Delivery>>,
    free: Vec<u32>,
}

impl CompletionTable {
    fn park(&mut self, delivery: Delivery) -> u32 {
        match self.free.pop() {
            Some(entry) => {
                self.slab[entry as usize] = Some(delivery);
                entry
            }
            None => {
                self.slab.push(Some(delivery));
                u32::try_from(self.slab.len() - 1).expect("too many parked completions")
            }
        }
    }

    fn get(&self, entry: u32) -> &Delivery {
        self.slab[entry as usize]
            .as_ref()
            .expect("completion taken")
    }

    fn take(&mut self, entry: u32) -> Delivery {
        self.free.push(entry);
        self.slab[entry as usize].take().expect("completion taken")
    }

    fn is_empty(&self) -> bool {
        self.free.len() == self.slab.len()
    }
}

/// Internal event/work counters, for performance debugging.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricStats {
    /// Events popped from the queue.
    pub events: u64,
    /// `events` by kind: flow-network wakeups, kicks, RNR retries,
    /// hardware completions, connection breaks, deliveries (driver timers
    /// included). A delivery requeued for a busy CPU counts once per pop,
    /// so the last minus `cpu_requeues` is the deliveries that reached (or
    /// were discarded for) a node.
    pub events_by_kind: [u64; 6],
    /// Kick attempts.
    pub kicks: u64,
    /// Deliveries requeued because the node's CPU was busy.
    pub cpu_requeues: u64,
    /// Times a send found its peer without a posted receive and armed the
    /// RNR retry timer. Under RDMC's ready-for-block discipline this stays
    /// zero on healthy runs (§4.2); a non-zero count means senders are
    /// racing ahead of receive posting and burning retry budget.
    pub rnr_arms: u64,
    /// Payloads the fault model dropped on the wire (receiver-side
    /// completion suppressed; the sender still completed).
    pub payload_drops: u64,
    /// Payloads the fault model corrupted in flight (delivered as
    /// [`Delivery::RecvCorrupted`], or discarded for one-sided writes).
    pub payload_corruptions: u64,
}

/// A snapshot of one queue-pair endpoint's posting state, for static
/// analysis and debug-build invariant checks. `queued_sends` counts sends
/// not yet on the wire (including one blocked on receiver-not-ready);
/// `posted_recvs` counts receives not yet consumed. A non-zero
/// `rnr_started` with an empty peer receive queue is exactly the posting
/// window RDMC's ready-for-block protocol exists to keep closed (§4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PostingSnapshot {
    /// Sends posted on this endpoint that have not started transmitting.
    pub queued_sends: usize,
    /// Whether a send from this endpoint is currently on the wire.
    pub send_inflight: bool,
    /// Receives posted at this endpoint and not yet consumed.
    pub posted_recvs: usize,
    /// Whether this endpoint's head-of-line send has an RNR timer armed
    /// (it found the peer without a posted receive).
    pub rnr_armed: bool,
    /// Remaining RNR retries before the connection breaks.
    pub rnr_remaining: u32,
    /// Whether the connection has broken.
    pub broken: bool,
}

/// The simulated RDMA fabric. See the crate docs for an end-to-end
/// example.
pub struct Fabric {
    net: FlowNet,
    topo: Topology,
    params: FabricParams,
    queue: EventQueue<Ev>,
    /// The completions that queued `HwComplete` and `Deliver` events name.
    completions: CompletionTable,
    conns: Vec<Conn>,
    nodes: Vec<Node>,
    net_wake: Option<EventToken>,
    /// The NetWake event no longer points at the earliest flow completion
    /// (flows started/finished since it was aimed). Re-aiming is deferred
    /// to the event loop so a burst of same-instant flow changes costs
    /// one re-aim — and one rate recomputation — instead of one each.
    net_stale: bool,
    /// The `(conn, dir)` whose in-flight send each flow carries, indexed
    /// by the flow's slot. The full id is stored and compared, so a stale
    /// id never matches a slot the flow network has reused.
    inflight_index: Vec<Option<(FlowId, u32, u8)>>,
    /// Reusable buffer for a node's connection list while dependent sends
    /// are re-kicked (avoids one Vec allocation per hardware completion).
    conn_scratch: Vec<u32>,
    stats: FabricStats,
    /// Flight recorder for verb-level events (posts, completions, RNR
    /// arms, flushes); disabled — one branch per event — by default.
    recorder: trace::Recorder,
    /// Controlled scheduler for same-instant delivery races; when
    /// attached, [`Transport::advance`] routes tie-breaks through it
    /// instead of the queue's schedule-order default.
    scheduler: Option<SharedScheduler>,
    /// Seeded wire fault model; `None` (the default) is the paper's
    /// lossless fabric and costs nothing on the completion path.
    faults: Option<simnet::FaultProfile>,
    /// Remaining deliver-or-drop choice points to offer the attached
    /// scheduler (model-checking mode); 0 disables loss choice points.
    loss_choices: u64,
}

/// The simulator-only surface: construction, per-node host models, wire
/// faults and read-only views. Every verb a protocol driver calls is
/// [`Transport`]'s, implemented below.
impl Fabric {
    /// Creates a fabric over an already-built topology and flow network.
    /// All nodes start with default host profiles, hybrid completion mode,
    /// and no scheduling jitter.
    pub fn new(net: FlowNet, topo: Topology, params: FabricParams) -> Self {
        let nodes = (0..topo.num_nodes())
            .map(|_| Node {
                profile: HostProfile::default(),
                mode: CompletionMode::default(),
                jitter: JitterModel::none(),
                meter: CpuMeter::new(),
                cpu_free_at: SimTime::ZERO,
                poll_until: SimTime::ZERO,
                poll_busy: SimDuration::ZERO,
                crashed: false,
                conns: Vec::new(),
                posts_dependent_sends: false,
            })
            .collect();
        Fabric {
            net,
            topo,
            params,
            queue: EventQueue::new(),
            completions: CompletionTable::default(),
            conns: Vec::new(),
            nodes,
            net_wake: None,
            net_stale: false,
            inflight_index: Vec::new(),
            conn_scratch: Vec::new(),
            stats: FabricStats::default(),
            recorder: trace::Recorder::disabled(),
            scheduler: None,
            faults: None,
            loss_choices: 0,
        }
    }

    /// Attaches a seeded wire fault model ([`simnet::FaultProfile`]):
    /// completed transfers may be dropped (receiver-side completion
    /// suppressed — the sender still completes, SDR-RDMA's sender-local
    /// semantics) or corrupted (surfaced as [`Delivery::RecvCorrupted`]).
    /// Only allocator-managed transfers (larger than the control bypass
    /// threshold) are subject to faults: control-sized traffic models a
    /// separately protected reliable channel, which is what keeps
    /// membership, credits, and NACKs working on a lossy fabric.
    ///
    /// An all-clean profile is behaviourally identical to no profile,
    /// and runs without one are untouched — the lossless default stays
    /// bit-for-bit what it was.
    pub fn set_fault_profile(&mut self, profile: simnet::FaultProfile) {
        self.faults = if profile.is_clean() {
            None
        } else {
            Some(profile)
        };
    }

    /// Grants the attached scheduler `budget` deliver-or-drop choice
    /// points ([`crate::sched::PointKind::LossSite`]): while the budget
    /// lasts, every eligible completed transfer asks the scheduler
    /// whether to deliver or drop instead of sampling the fault
    /// profile. Model checkers use this to enumerate loss placements
    /// exhaustively; each offered site spends one unit of budget
    /// whatever the answer, so the explored depth stays bounded.
    pub fn set_loss_choice_budget(&mut self, budget: u64) {
        self.loss_choices = budget;
    }

    /// `set_path_interning` does nothing: the flow network always groups
    /// same-path transfers. It exists only because the frozen
    /// `benchmark/src/workloads.rs` calls it (ROADMAP item 15(b) retires
    /// it).
    pub fn set_path_interning(&mut self, _on: bool) {}

    /// The topology the fabric runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The underlying flow network (for link byte accounting).
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Fabric-wide hardware constants.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Sets a node's host cost profile.
    pub fn set_profile(&mut self, node: NodeId, profile: HostProfile) {
        self.nodes[node.index()].profile = profile;
    }

    /// Sets a node's completion mode.
    pub fn set_completion_mode(&mut self, node: NodeId, mode: CompletionMode) {
        self.nodes[node.index()].mode = mode;
    }

    /// Sets a node's scheduling-jitter model.
    pub fn set_jitter(&mut self, node: NodeId, jitter: JitterModel) {
        self.nodes[node.index()].jitter = jitter;
    }

    /// Which node owns a queue pair endpoint.
    pub fn qp_node(&self, qp: QpHandle) -> NodeId {
        self.conns[qp.conn as usize].nodes[qp.end as usize]
    }

    /// The peer node of a queue pair endpoint.
    pub fn qp_peer(&self, qp: QpHandle) -> NodeId {
        self.conns[qp.conn as usize].nodes[1 - qp.end as usize]
    }
}

/// The reference implementation of the datapath contract; what each
/// verb means is specified on the trait.
impl Transport for Fabric {
    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        loop {
            // Same-instant coalescing: while further events share the
            // current instant, keep deferring the NetWake re-aim — and
            // the rate recomputation forced through
            // [`FlowNet::next_completion`] — so a burst of k flow
            // changes at one instant costs one reallocation instead of
            // k. Safe because every allocator-managed flow is larger
            // than [`TINY_BYPASS_BYTES`] and thus never completes at
            // the instant it started, and no virtual time passes while
            // the changes are pending, so the batched fill is
            // bit-identical to k sequential same-instant fills.
            // Re-aimed at once when a flight recorder is attached
            // (traces pin every intermediate rate-change event) or a
            // scheduler is (the due set it is shown must depend on
            // protocol state, not on coalescing internals).
            if self.net_stale
                && (self.recorder.is_enabled()
                    || self.scheduler.is_some()
                    || self.queue.peek_time() != Some(self.queue.now()))
            {
                self.net_stale = false;
                self.resync_net();
            }
            let Some((t, ev)) = self.pop_event() else {
                // Every parked completion is named by one queued event.
                debug_assert!(
                    self.completions.is_empty(),
                    "completions parked with no event left to surface them"
                );
                return None;
            };
            // Keep the shared trace clock at the instant being
            // processed; everything recorded while handling this event
            // (including by protocol engines fed from it) stamps `t`.
            self.recorder.set_now(t.as_nanos());
            let (node, delivery) = match ev {
                // A delivery went back to wait for its node's CPU.
                None => continue,
                Some(Ev::Deliver { node, entry }) => (node, self.completions.take(entry)),
                Some(Ev::Timer { node, token }) => (node, Delivery::Timer { token }),
                Some(Ev::NetWake) => {
                    self.net_wake = None;
                    self.process_due_flows(t);
                    self.net_stale = true;
                    continue;
                }
                Some(Ev::Kick { conn, dir }) => {
                    self.kick(conn, dir);
                    continue;
                }
                Some(Ev::RnrRetry { conn, dir, epoch }) => {
                    self.rnr_retry(conn, dir, epoch);
                    continue;
                }
                Some(Ev::HwComplete { entry }) => {
                    let delivery = self.completions.take(entry);
                    self.hw_complete(t, delivery);
                    continue;
                }
                Some(Ev::BreakConn { conn }) => {
                    self.break_conn(conn);
                    continue;
                }
            };
            // A crashed node's software is gone: its deliveries drop.
            let n = &self.nodes[node.index()];
            if !n.crashed {
                let overhead = n.profile.completion_overhead;
                self.charge_cpu(node, overhead);
                return Some((t, node, delivery));
            }
        }
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        assert_ne!(a, b, "cannot connect a node to itself");
        let dead_peer = self.nodes[a.index()].crashed || self.nodes[b.index()].crashed;
        let path_ab = self.topo.path(a.index(), b.index());
        let path_ba = self.topo.path(b.index(), a.index());
        let lat_ab = self.net.path_latency(&path_ab);
        let lat_ba = self.net.path_latency(&path_ba);
        let idx = u32::try_from(self.conns.len()).expect("too many connections");
        self.conns.push(Conn {
            nodes: [a, b],
            paths: [path_ab, path_ba],
            latency: [lat_ab, lat_ba],
            recvs: [VecDeque::new(), VecDeque::new()],
            dirs: [
                DirState {
                    rnr_remaining: self.params.rnr_retry_limit,
                    ..DirState::default()
                },
                DirState {
                    rnr_remaining: self.params.rnr_retry_limit,
                    ..DirState::default()
                },
            ],
            hw_completed: [Vec::new(), Vec::new()],
            broken: false,
            pending_flush: Vec::new(),
        });
        self.nodes[a.index()].conns.push(idx);
        self.nodes[b.index()].conns.push(idx);
        if dead_peer {
            self.queue
                .schedule_in(self.params.failure_detect, Ev::BreakConn { conn: idx });
        }
        (
            QpHandle { conn: idx, end: 0 },
            QpHandle { conn: idx, end: 1 },
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
        self.post(qp, wr_id, bytes, SendKind::TwoSided { imm }, wait_for)
    }

    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        let bytes = payload.len() as u64;
        self.post(qp, wr_id, bytes, SendKind::Write { tag, payload }, wait_for)
    }

    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError> {
        let node = self.qp_node(qp);
        self.check_postable(qp, node)?;
        self.recorder.record_at(
            self.queue.now().as_nanos(),
            trace::Scope::node(node.index() as u32),
            || trace::EventKind::RecvPosted {
                conn: qp.conn,
                end: qp.end,
                wr: wr_id.0,
            },
        );
        let ready_at = self.charge_cpu(node, self.nodes[node.index()].profile.post_overhead);
        let conn = &mut self.conns[qp.conn as usize];
        conn.recvs[qp.end as usize].push_back((wr_id, max_len));
        // A sender blocked on receiver-not-ready can now proceed: kick the
        // opposite direction once the post is effective.
        self.queue.schedule_at(
            ready_at,
            Ev::Kick {
                conn: qp.conn,
                dir: 1 - qp.end,
            },
        );
        Ok(())
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.queue.schedule_in(delay, Ev::Timer { node, token });
    }

    fn consume_cpu(&mut self, node: NodeId, dur: SimDuration) {
        self.charge_cpu(node, dur);
    }

    fn crash(&mut self, node: NodeId) {
        let now = self.queue.now();
        if self.nodes[node.index()].crashed {
            return;
        }
        self.nodes[node.index()].crashed = true;
        self.recorder.record_at(
            now.as_nanos(),
            trace::Scope::node(node.index() as u32),
            || trace::EventKind::NodeCrashed,
        );
        let conns = self.nodes[node.index()].conns.clone();
        for c in conns {
            if self.conns[c as usize].broken {
                continue;
            }
            // The wire goes quiet immediately...
            for dir in 0..2 {
                self.tear_off_inflight(c, dir);
            }
            self.net_stale = true;
            // ...but the peer only notices after the NIC timeout.
            self.queue
                .schedule_in(self.params.failure_detect, Ev::BreakConn { conn: c });
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].crashed
    }

    fn break_qp(&mut self, qp: QpHandle) {
        self.break_conn(qp.conn);
    }

    fn profile(&self, node: NodeId) -> &HostProfile {
        &self.nodes[node.index()].profile
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        let conn = &self.conns[qp.conn as usize];
        let d = &conn.dirs[qp.end as usize];
        PostingSnapshot {
            queued_sends: d.queue.len(),
            send_inflight: d.inflight.is_some(),
            posted_recvs: conn.recvs[qp.end as usize].len(),
            rnr_armed: d.rnr_armed,
            rnr_remaining: d.rnr_remaining,
            broken: conn.broken,
        }
    }

    fn set_recorder(&mut self, recorder: trace::Recorder) {
        self.net.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }

    fn cpu_report(&self, node: NodeId) -> CpuReport {
        let n = &self.nodes[node.index()];
        CpuReport {
            handling: n.meter.busy(),
            polling: n.poll_busy,
            mode: n.mode,
        }
    }

    fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    fn set_scheduler(&mut self, scheduler: SharedScheduler) {
        self.scheduler = Some(scheduler);
    }
}

/// The hardware model behind the verbs.
impl Fabric {
    fn post(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        kind: SendKind,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        let node = self.qp_node(qp);
        self.check_postable(qp, node)?;
        self.recorder.record_at(
            self.queue.now().as_nanos(),
            trace::Scope::node(node.index() as u32),
            || match &kind {
                SendKind::TwoSided { .. } => trace::EventKind::SendPosted {
                    conn: qp.conn,
                    end: qp.end,
                    wr: wr_id.0,
                    bytes,
                },
                SendKind::Write { tag, .. } => trace::EventKind::WritePosted {
                    conn: qp.conn,
                    end: qp.end,
                    tag: *tag,
                    bytes,
                },
            },
        );
        let ready_at = self.charge_cpu(node, self.nodes[node.index()].profile.post_overhead);
        self.nodes[node.index()].posts_dependent_sends |= wait_for.is_some();
        let conn = &mut self.conns[qp.conn as usize];
        conn.dirs[qp.end as usize].queue.push_back(PendingSend {
            wr_id,
            bytes,
            kind,
            wait_for,
            ready_at,
        });
        self.queue.schedule_at(
            ready_at,
            Ev::Kick {
                conn: qp.conn,
                dir: qp.end,
            },
        );
        Ok(())
    }

    fn check_postable(&self, qp: QpHandle, node: NodeId) -> Result<(), VerbsError> {
        if self.nodes[node.index()].crashed {
            return Err(VerbsError::NodeCrashed);
        }
        if self.conns[qp.conn as usize].broken {
            return Err(VerbsError::QpBroken);
        }
        Ok(())
    }

    /// Serialises `dur` of CPU on the node's single core; returns the
    /// instant the work finishes.
    fn charge_cpu(&mut self, node: NodeId, dur: SimDuration) -> SimTime {
        let now = self.queue.now();
        let n = &mut self.nodes[node.index()];
        let start = if n.cpu_free_at > now {
            n.cpu_free_at
        } else {
            now
        };
        n.cpu_free_at = start + dur;
        n.meter.record(dur);
        n.cpu_free_at
    }

    /// Takes the next event off the queue, counting it, in the shape of
    /// [`EventQueue::pop_or_defer`]: `(t, None)` means the event was a
    /// completion whose node's software is busy, and it went back to wait
    /// for the CPU (queued again for `cpu_free_at`) instead of coming out.
    ///
    /// Without a scheduler the next event is the queue's head. With one,
    /// the first due event that is not an enabled delivery goes first:
    /// hardware progress at an instant commutes with software observation
    /// order, and a delivery to a crashed or busy node is no choice. Once
    /// only enabled deliveries are due, two or more of them racing at the
    /// instant is a choice point the scheduler answers.
    fn pop_event(&mut self) -> Option<(SimTime, Option<Ev>)> {
        let (nodes, stats) = (&self.nodes, &mut self.stats);
        let mut defer = |t: SimTime, ev: &Ev| {
            stats.events += 1;
            stats.events_by_kind[ev.kind()] += 1;
            let (Ev::Deliver { node, .. } | Ev::Timer { node, .. }) = ev else {
                return None;
            };
            let n = &nodes[node.index()];
            let busy = !n.crashed && n.cpu_free_at > t;
            stats.cpu_requeues += u64::from(busy);
            busy.then_some(n.cpu_free_at)
        };
        let Some(sched) = &self.scheduler else {
            return self.queue.pop_or_defer(defer);
        };
        let t = self.queue.peek_time()?;
        let due = self.queue.peek_due();
        let enabled = |n: &Node| !n.crashed && n.cpu_free_at <= t;
        let cands: Vec<_> = due
            .iter()
            .map_while(|&(seq, ev)| match *ev {
                Ev::Deliver { node, entry } if enabled(&nodes[node.index()]) => {
                    Some(Candidate::of(seq, node, self.completions.get(entry)))
                }
                Ev::Timer { node, token } if enabled(&nodes[node.index()]) => {
                    Some(Candidate::of(seq, node, &Delivery::Timer { token }))
                }
                _ => None,
            })
            .collect();
        let next = match cands.len() {
            n if n < due.len() => n,
            1 => 0,
            _ => crate::sched::pick(
                sched,
                &ChoicePoint {
                    time_ns: t.as_nanos(),
                    kind: PointKind::Delivery,
                    candidates: &cands,
                },
            ),
        };
        let (seq, ev) = due[next];
        let deferred_to = defer(t, ev);
        let (t, ev) = self.queue.pop_seq(seq).expect("due event vanished");
        Some(match deferred_to {
            Some(at) => {
                self.queue.schedule_at(at, ev);
                (t, None)
            }
            None => (t, Some(ev)),
        })
    }

    /// Forgets `flow`'s index entry, returning the `(conn, dir)` it carried.
    fn take_inflight(&mut self, flow: FlowId) -> Option<(u32, u8)> {
        let cell = self.inflight_index.get_mut(flow.slot())?;
        let (_, conn, dir) = cell.take_if(|(id, ..)| *id == flow)?;
        Some((conn, dir))
    }

    /// Completes every flow due at or before `now`. Uses the flow net's
    /// removal-tolerant due query, so a batch of same-instant completions
    /// is retired under one deferred rate recomputation; anything that
    /// became due only under the post-batch rates is caught by the
    /// follow-up NetWake re-aim (still at `now`).
    fn process_due_flows(&mut self, now: SimTime) {
        while let Some((_, flow)) = self.net.next_due(now) {
            self.net.complete_flow(now, flow);
            let Some((conn_idx, dir)) = self.take_inflight(flow) else {
                continue;
            };
            let (_, send, claimed_recv) = self.conns[conn_idx as usize].dirs[dir as usize]
                .inflight
                .take()
                .expect("inflight send vanished");
            // The wire fault model gets one verdict per traversal. Note
            // a dropped two-sided send already consumed its claimed
            // receive at flow start — exactly like a real RC NIC, whose
            // RQE is gone once the first packet matches it; software
            // above sees one fewer receive completion, never an RNR.
            let outcome = self.fault_outcome(now, conn_idx, dir);
            if outcome != simnet::FaultOutcome::Deliver {
                let dropped = outcome == simnet::FaultOutcome::Drop;
                if dropped {
                    self.stats.payload_drops += 1;
                } else {
                    self.stats.payload_corruptions += 1;
                }
                let receiver = self.conns[conn_idx as usize].nodes[1 - dir as usize];
                let imm = match &send.kind {
                    SendKind::TwoSided { imm } => *imm,
                    SendKind::Write { .. } => 0,
                };
                self.recorder.record_at(
                    now.as_nanos(),
                    trace::Scope::node(receiver.index() as u32),
                    || {
                        let (conn, end, wr) = (conn_idx, 1 - dir, send.wr_id.0);
                        if dropped {
                            trace::EventKind::PayloadDropped { conn, end, wr, imm }
                        } else {
                            trace::EventKind::PayloadCorrupted { conn, end, wr, imm }
                        }
                    },
                );
            }
            self.complete_transfer(now, conn_idx, dir, send, claimed_recv, outcome);
            // The wire is free: start the next queued send.
            self.kick(conn_idx, dir);
        }
    }

    /// Schedules the hardware completions of a transfer whose last byte
    /// left the sender at `now`: at the receiver one-way latency + NIC
    /// processing later, unless the wire lost the payload; at the sender
    /// once the hardware ack has made the round trip, whatever became of
    /// the payload.
    fn complete_transfer(
        &mut self,
        now: SimTime,
        conn_idx: u32,
        dir: u8,
        send: PendingSend,
        claimed_recv: Option<WrId>,
        outcome: simnet::FaultOutcome,
    ) {
        use simnet::FaultOutcome as O;
        let [sender, qp] = [dir, 1 - dir].map(|end| QpHandle {
            conn: conn_idx,
            end,
        });
        let (wr_id, len) = (send.wr_id, send.bytes);
        let (at_receiver, at_sender) = match send.kind {
            SendKind::TwoSided { imm } => {
                let sent = Delivery::SendDone { qp: sender, wr_id };
                let wr_id = claimed_recv.expect("two-sided send without claimed recv");
                let received = match outcome {
                    O::Deliver => Some(Delivery::RecvDone {
                        qp,
                        wr_id,
                        len,
                        imm,
                    }),
                    O::Corrupt => Some(Delivery::RecvCorrupted {
                        qp,
                        wr_id,
                        len,
                        imm,
                    }),
                    O::Drop => None,
                };
                (received, sent)
            }
            // A corrupted one-sided write never surfaces: the target's
            // software checks the region's integrity and ignores garbage,
            // which is indistinguishable from the write not having landed.
            SendKind::Write { tag, payload } => (
                (outcome == O::Deliver).then_some(Delivery::WriteArrived { qp, tag, payload }),
                Delivery::WriteDone { qp: sender, wr_id },
            ),
        };
        let latency = self.conns[conn_idx as usize].latency[dir as usize];
        let nic_op = self.params.nic_op_overhead;
        if let Some(delivery) = at_receiver {
            let entry = self.completions.park(delivery);
            self.queue
                .schedule_at(now + latency + nic_op, Ev::HwComplete { entry });
        }
        let acked = now + latency + latency + nic_op;
        let entry = self.completions.park(at_sender);
        self.queue.schedule_at(acked, Ev::HwComplete { entry });
    }

    /// Decides the fate of one completed transfer: a scheduler with
    /// loss-choice budget gets an explicit deliver-or-drop choice
    /// point; otherwise the fault profile samples; otherwise (the
    /// lossless default) the payload is delivered.
    fn fault_outcome(&mut self, now: SimTime, conn_idx: u32, dir: u8) -> simnet::FaultOutcome {
        use simnet::FaultOutcome as O;
        if self.loss_choices > 0 {
            if let Some(sched) = &self.scheduler {
                self.loss_choices -= 1;
                let receiver = self.conns[conn_idx as usize].nodes[1 - dir as usize];
                let cand = |i, drop| Candidate {
                    seq: i,
                    node: receiver.index() as u32,
                    conn: Some(conn_idx),
                    kind: CandidateKind::Loss { drop },
                };
                let cands = [cand(0, false), cand(1, true)];
                let idx = crate::sched::pick(
                    sched,
                    &ChoicePoint {
                        time_ns: now.as_nanos(),
                        kind: PointKind::LossSite,
                        candidates: &cands,
                    },
                );
                return if idx == 1 { O::Drop } else { O::Deliver };
            }
        }
        match &mut self.faults {
            Some(f) => f.sample(&self.conns[conn_idx as usize].paths[dir as usize]),
            None => O::Deliver,
        }
    }

    /// Attempts to start the head-of-line send on `(conn, dir)`.
    fn kick(&mut self, conn_idx: u32, dir: u8) {
        self.stats.kicks += 1;
        enum Decision {
            Nothing,
            ArmRnr { epoch: u64 },
            LengthError,
            Start,
        }
        let now = self.queue.now();
        let decision = {
            let conn = &self.conns[conn_idx as usize];
            // A crashed endpoint means the wire is already dead even if the
            // survivor has not yet been told; nothing new may start.
            if self.nodes[conn.nodes[0].index()].crashed
                || self.nodes[conn.nodes[1].index()].crashed
            {
                return;
            }
            let conn = &mut self.conns[conn_idx as usize];
            if conn.broken || conn.dirs[dir as usize].inflight.is_some() {
                return;
            }
            let Some(head) = conn.dirs[dir as usize].queue.front() else {
                return;
            };
            if head.ready_at > now {
                // A Kick is already scheduled at ready_at by post().
                return;
            }
            // Cross-channel dependency: the send waits in hardware until
            // the named WR completes; hw_complete() re-kicks us.
            let sender = conn.nodes[dir as usize];
            let waiting = head.wait_for.is_some_and(|wait| {
                let end = wait.qp.end as usize;
                let waited = &self.conns[wait.qp.conn as usize];
                // Only a WR on the sender's own queue pairs releases it.
                waited.nodes[end] != sender
                    || waited.hw_completed[end]
                        .binary_search(&wait.wr_id.0)
                        .is_err()
            });
            let conn = &mut self.conns[conn_idx as usize];
            if waiting {
                Decision::Nothing
            } else if matches!(
                conn.dirs[dir as usize].queue.front().unwrap().kind,
                SendKind::TwoSided { .. }
            ) {
                let receiver_end = 1 - dir as usize;
                match conn.recvs[receiver_end].front().copied() {
                    Some((_, max_len)) => {
                        if conn.dirs[dir as usize].queue.front().unwrap().bytes > max_len {
                            Decision::LengthError
                        } else {
                            Decision::Start
                        }
                    }
                    None => {
                        let d = &mut conn.dirs[dir as usize];
                        if d.rnr_armed {
                            Decision::Nothing
                        } else {
                            d.rnr_armed = true;
                            self.stats.rnr_arms += 1;
                            Decision::ArmRnr { epoch: d.rnr_epoch }
                        }
                    }
                }
            } else {
                Decision::Start
            }
        };
        match decision {
            Decision::Nothing => {}
            Decision::ArmRnr { epoch } => {
                let sender = self.conns[conn_idx as usize].nodes[dir as usize];
                self.recorder.record_at(
                    now.as_nanos(),
                    trace::Scope::node(sender.index() as u32),
                    || trace::EventKind::RnrArmed {
                        conn: conn_idx,
                        dir,
                    },
                );
                self.queue.schedule_in(
                    self.params.rnr_timer,
                    Ev::RnrRetry {
                        conn: conn_idx,
                        dir,
                        epoch,
                    },
                );
            }
            Decision::LengthError => self.break_conn(conn_idx),
            Decision::Start => {
                let retry_limit = self.params.rnr_retry_limit;
                let conn = &mut self.conns[conn_idx as usize];
                let d = &mut conn.dirs[dir as usize];
                // Starting successfully disarms any pending RNR countdown.
                d.rnr_armed = false;
                d.rnr_epoch += 1;
                d.rnr_remaining = retry_limit;
                let send = d.queue.pop_front().expect("head vanished");
                let claimed_recv = match send.kind {
                    SendKind::TwoSided { .. } => {
                        conn.recvs[1 - dir as usize].pop_front().map(|(wr, _)| wr)
                    }
                    SendKind::Write { .. } => None,
                };
                if send.bytes <= TINY_BYPASS_BYTES {
                    // Control-sized transfers (ready-for-block notices, SST
                    // counters) occupy the wire for well under a nanosecond
                    // at these link speeds; deliver them at pure latency
                    // instead of churning the bandwidth allocator. The wire
                    // was barely touched: the next queued send may start
                    // immediately.
                    let delivered = simnet::FaultOutcome::Deliver;
                    self.complete_transfer(now, conn_idx, dir, send, claimed_recv, delivered);
                    self.kick(conn_idx, dir);
                    return;
                }
                let flow = self
                    .net
                    .start_flow(now, &conn.paths[dir as usize], send.bytes as f64);
                if self.inflight_index.len() <= flow.slot() {
                    self.inflight_index.resize(flow.slot() + 1, None);
                }
                self.inflight_index[flow.slot()] = Some((flow, conn_idx, dir));
                self.conns[conn_idx as usize].dirs[dir as usize].inflight =
                    Some((flow, send, claimed_recv));
                self.net_stale = true;
            }
        }
    }

    fn rnr_retry(&mut self, conn_idx: u32, dir: u8, epoch: u64) {
        let exhausted = {
            let conn = &mut self.conns[conn_idx as usize];
            let d = &mut conn.dirs[dir as usize];
            if conn.broken || !d.rnr_armed || d.rnr_epoch != epoch {
                return;
            }
            if d.rnr_remaining == 0 {
                true
            } else {
                d.rnr_remaining -= 1;
                // Retry now: if a receive appeared, kick() starts the
                // transfer and disarms; otherwise re-arm below.
                d.rnr_armed = false;
                d.rnr_epoch += 1;
                false
            }
        };
        if exhausted {
            self.break_conn(conn_idx);
            return;
        }
        self.kick(conn_idx, dir);
        let rearm = {
            let conn = &self.conns[conn_idx as usize];
            let d = &conn.dirs[dir as usize];
            !conn.broken && d.inflight.is_none() && !d.queue.is_empty() && !d.rnr_armed
        };
        if rearm {
            let conn = &mut self.conns[conn_idx as usize];
            let d = &mut conn.dirs[dir as usize];
            d.rnr_armed = true;
            let epoch = d.rnr_epoch;
            self.queue.schedule_in(
                self.params.rnr_timer,
                Ev::RnrRetry {
                    conn: conn_idx,
                    dir,
                    epoch,
                },
            );
        }
    }

    /// Registers a hardware completion: resolves cross-channel
    /// dependencies, then forwards it to software with the node's
    /// completion-mode delay.
    fn hw_complete(&mut self, t: SimTime, delivery: Delivery) {
        // `Ok((id, is_recv))` for a work request of this endpoint's,
        // `Err(tag)` for a peer's write landing in its memory.
        let (qp, wr) = match &delivery {
            Delivery::SendDone { qp, wr_id } | Delivery::WriteDone { qp, wr_id } => {
                (*qp, Ok((wr_id.0, false)))
            }
            Delivery::RecvDone { qp, wr_id, .. } | Delivery::RecvCorrupted { qp, wr_id, .. } => {
                (*qp, Ok((wr_id.0, true)))
            }
            Delivery::WriteArrived { qp, tag, .. } => (*qp, Err(*tag)),
            other => unreachable!("{other:?} is not a hardware completion"),
        };
        let (conn, end) = (qp.conn, qp.end);
        let node = self.qp_node(qp);
        if self.conns[conn as usize].broken || self.nodes[node.index()].crashed {
            return;
        }
        self.recorder.record_at(
            t.as_nanos(),
            trace::Scope::node(node.index() as u32),
            || match wr {
                Ok((wr, recv)) => trace::EventKind::WrCompleted {
                    conn,
                    end,
                    wr,
                    recv,
                },
                Err(tag) => trace::EventKind::WriteDelivered { conn, end, tag },
            },
        );
        // Record for cross-channel waiters, then — on a node that posts
        // dependent sends — give all of its connections a chance to
        // release one. Every other reason a head-of-line send sits idle
        // has its own kick: the wire freeing up, its `ready_at`, a receive
        // being posted, the RNR timer.
        if let Ok((wr_id, _)) = wr {
            let done = &mut self.conns[conn as usize].hw_completed[end as usize];
            if let Err(at) = done.binary_search(&wr_id) {
                done.insert(at, wr_id);
            }
            if self.nodes[node.index()].posts_dependent_sends {
                let mut conns = std::mem::take(&mut self.conn_scratch);
                conns.clear();
                conns.extend_from_slice(&self.nodes[node.index()].conns);
                for &c in &conns {
                    for d in 0..2u8 {
                        if self.conns[c as usize].nodes[d as usize] == node {
                            self.kick(c, d);
                        }
                    }
                }
                self.conn_scratch = conns;
            }
        }
        // One-sided writes are observed by memory polling, not via the
        // completion queue, so they skip interrupt wakeup latency.
        let visible = match wr {
            Ok(_) => t + self.completion_delay(node, t),
            Err(_) => t,
        };
        let jitter = self.nodes[node.index()].jitter.sample();
        let entry = self.completions.park(delivery);
        self.queue
            .schedule_at(visible + jitter, Ev::Deliver { node, entry });
    }

    /// Completion-mode signalling delay, with hybrid poll-window
    /// bookkeeping.
    fn completion_delay(&mut self, node: NodeId, hw_time: SimTime) -> SimDuration {
        let n = &mut self.nodes[node.index()];
        match n.mode {
            CompletionMode::Polling => SimDuration::ZERO,
            CompletionMode::Interrupt => n.profile.interrupt_wakeup,
            CompletionMode::Hybrid => {
                let delay = if hw_time <= n.poll_until {
                    SimDuration::ZERO
                } else {
                    n.profile.interrupt_wakeup
                };
                let visible = hw_time + delay;
                let window_end = visible + n.profile.poll_window;
                // Accumulate the (union of) poll-window busy time.
                let extend_from = if n.poll_until > visible {
                    n.poll_until
                } else {
                    visible
                };
                n.poll_busy += window_end.saturating_since(extend_from);
                n.poll_until = window_end;
                delay
            }
        }
    }

    /// Aborts the send in flight in direction `dir` of connection
    /// `conn_idx`, if any, and records its work request and the receive
    /// it claimed for the break to flush as error completions.
    fn tear_off_inflight(&mut self, conn_idx: u32, dir: usize) {
        let Some((flow, send, claimed_recv)) =
            self.conns[conn_idx as usize].dirs[dir].inflight.take()
        else {
            return;
        };
        self.take_inflight(flow);
        self.net.abort_flow(self.queue.now(), flow);
        let conn = &mut self.conns[conn_idx as usize];
        conn.pending_flush.push((dir as u8, send.wr_id, false));
        if let Some(wr) = claimed_recv {
            conn.pending_flush.push((1 - dir as u8, wr, true));
        }
    }

    /// Breaks a connection: aborts in-flight transfers, flushes all
    /// outstanding work requests as error completions, and notifies both
    /// (surviving) endpoints.
    fn break_conn(&mut self, conn_idx: u32) {
        let now = self.queue.now();
        if self.conns[conn_idx as usize].broken {
            return;
        }
        self.conns[conn_idx as usize].broken = true;
        // Collect every outstanding WR per endpoint, in posting order:
        // WRs torn off earlier (peer crash), then per direction the
        // in-flight op with its claimed receive, queued sends, and
        // unconsumed posted receives.
        for dir in 0..2 {
            self.tear_off_inflight(conn_idx, dir);
            let conn = &mut self.conns[conn_idx as usize];
            let queued = conn.dirs[dir]
                .queue
                .drain(..)
                .map(|s| (dir as u8, s.wr_id, false));
            conn.pending_flush.extend(queued);
            let posted = conn.recvs[dir]
                .drain(..)
                .map(|(wr, _)| (dir as u8, wr, true));
            conn.pending_flush.extend(posted);
        }
        let flushes = std::mem::take(&mut self.conns[conn_idx as usize].pending_flush);
        self.net_stale = true;
        self.recorder
            .record_at(now.as_nanos(), trace::Scope::none(), || {
                trace::EventKind::QpBroken { conn: conn_idx }
            });
        for end in 0..2u8 {
            let node = self.conns[conn_idx as usize].nodes[end as usize];
            if self.nodes[node.index()].crashed {
                continue;
            }
            let qp = QpHandle {
                conn: conn_idx,
                end,
            };
            // Flush errors drain through the CQ ahead of the break notice
            // (same instant, FIFO), mirroring IBV_WC_WR_FLUSH_ERR order.
            for &(_, wr_id, recv) in flushes.iter().filter(|&&(e, _, _)| e == end) {
                self.recorder.record_at(
                    now.as_nanos(),
                    trace::Scope::node(node.index() as u32),
                    || trace::EventKind::WrFlushed {
                        conn: conn_idx,
                        end,
                        wr: wr_id.0,
                        recv,
                    },
                );
                let entry = self
                    .completions
                    .park(Delivery::WrFlushed { qp, wr_id, recv });
                self.queue.schedule_at(now, Ev::Deliver { node, entry });
            }
            let entry = self.completions.park(Delivery::QpBroken { qp });
            self.queue.schedule_at(now, Ev::Deliver { node, entry });
        }
    }

    /// Re-aims the single NetWake event at the earliest flow completion.
    fn resync_net(&mut self) {
        if let Some(tok) = self.net_wake.take() {
            self.queue.cancel(tok);
        }
        if let Some((t, _)) = self.net.next_completion() {
            let at = if t > self.queue.now() {
                t
            } else {
                self.queue.now()
            };
            self.net_wake = Some(self.queue.schedule_at(at, Ev::NetWake));
        }
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        let r = self.net.realloc_stats();
        crate::perf::record(crate::perf::KernelPerf {
            events: self.stats.events,
            kicks: self.stats.kicks,
            realloc_count: r.count,
            realloc_nanos: r.nanos,
            flows_visited: r.flows_visited,
            heap_pushes: r.heap_pushes,
            rate_changes: r.rate_changes,
            full_reallocs: r.full,
            link_visits: r.link_visits,
            coalesced: r.coalesced,
            heap_compactions: r.heap_compactions,
        });
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("now", &self.queue.now())
            .field("nodes", &self.nodes.len())
            .field("conns", &self.conns.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn an_event_is_16_bytes() {
        // A completion waits in the completion table, not in the queue.
        assert!(std::mem::size_of::<super::Ev>() <= 16);
    }
}
