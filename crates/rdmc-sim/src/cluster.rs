//! The simulation driver: binds `rdmc` protocol engines to the simulated
//! RDMA fabric and runs whole experiments under virtual time.
//!
//! A [`SimCluster`] hosts every group member's [`GroupEngine`] in one
//! process. Engine [`Action`]s become verbs (block sends carry the
//! message size as the immediate; ready-for-block notices and failure
//! relays are one-sided writes); fabric [`Delivery`]s become engine
//! [`Event`]s. Multiple groups — including fully overlapping ones with
//! different roots, as in the paper's Figs. 9–10 — run concurrently over
//! one fabric and contend for real link bandwidth.
//!
//! The orchestration is one core plus four concern modules, each a plain
//! `impl Cluster` block next to the state it drives: this file owns
//! groups, queue pairs, timers, submission and the
//! `step`/`dispatch`/`feed`/`execute` loop; `reconfig` owns failure
//! injection and the epoch-based view change, `reliability` the
//! lossy-fabric repair shim, `atomic` the total-order overlay, and
//! `pacer` per-NIC send admission.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::atomic::{AtomicGroupId, AtomicOverlays, TAG_FRONTIER};
use crate::pacer::{PacerState, PacingStats};
use crate::reconfig::{Reconfig, TAG_VIEW};
use crate::reliability::{
    Reliability, ReliabilityPolicy, TAG_NACK, TAG_PARITY, TAG_PROBE, TAG_RETRANS,
};
use bytes::Bytes;
use rdmc::engine::{Action, EngineConfig, Event, GroupEngine};
use rdmc::schedule::{PlanRequest, SchedulePlanner};
use rdmc::{Algorithm, Rank};
use recovery::MessagePlan;
use simnet::{SimDuration, SimTime};
use verbs::{CpuReport, Delivery, Fabric, NodeId, QpHandle, Transport, WrId};

// Control-write tags. The numeric values appear in recorded traces (the
// golden files pin them), so a retired tag's number is not reused; each
// concern module declares its own.
/// One-sided-write tag for ready-for-block notices.
const TAG_READY: u64 = 0;
/// One-sided-write tag for relayed failure notices.
const TAG_FAILURE: u64 = 1;

/// Identifies a group within a [`SimCluster`].
pub type GroupId = usize;

/// Opaque handle to one multicast message submitted on a [`SimCluster`]
/// (returned by [`SimCluster::submit_send`] and
/// [`SimCluster::schedule_send_at`]). Look its completion record up with
/// [`SimCluster::result`] — the handle-based replacement for positional
/// indexing into [`SimCluster::message_results`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub(crate) u64);

/// A group to instantiate on the cluster.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// Fabric node index of each member; `members[0]` is the root.
    pub members: Vec<usize>,
    /// Block-dissemination algorithm.
    pub algorithm: Algorithm,
    /// Block size in bytes.
    pub block_size: u64,
    /// Readiness credits granted ahead per peer.
    pub ready_window: u32,
    /// Block sends that may be posted to the NIC at once.
    pub max_outstanding_sends: u32,
}

/// Completion record of one multicast message. Once every original
/// member has delivered it the record is a fixed size: the per-member
/// stamps are dropped and [`MessageResult::completed`] keeps the last
/// one (a completed message's per-member times are in the flight
/// recorder, `trace::replay(..).delivered`).
#[derive(Clone, Debug)]
pub struct MessageResult {
    /// The group it was sent on.
    pub group: GroupId,
    /// Message index within the group (send order).
    pub index: usize,
    /// Message size in bytes.
    pub size: u64,
    /// When the root submitted the send.
    pub submitted: SimTime,
    /// Original rank that submitted it (its app buffer holds every
    /// block, so a view change can re-seed a resume from it).
    pub sender: Rank,
    /// The message's fate once a view change found it unrecoverable (a
    /// failed member took the only copy of some block): it is delivered
    /// at no survivor. `false` while in flight and once delivered.
    pub abandoned: bool,
    /// When the last original member delivered it (the paper measures
    /// until *all* members have the upcall); `None` until then.
    pub completed: Option<SimTime>,
    /// Local-completion time per original rank while the message is
    /// unfinished; `None` once it completed.
    pub(crate) stamps: Option<Box<[Option<SimTime>]>>,
}

impl MessageResult {
    /// Time until every member completed, if all did.
    pub fn latency(&self) -> Option<SimDuration> {
        Some(self.completed?.since(self.submitted))
    }

    /// `size / latency`, in gigabits per second.
    pub fn bandwidth_gbps(&self) -> Option<f64> {
        let lat = self.latency()?.as_secs_f64();
        (lat > 0.0).then(|| self.size as f64 * 8.0 / lat / 1e9)
    }

    /// Whether original rank `o` delivered the message.
    pub fn delivered(&self, o: usize) -> bool {
        self.stamps
            .as_ref()
            .map_or(self.completed.is_some(), |s| s[o].is_some())
    }

    /// Per-original-rank delivery times of an *unfinished* message (in
    /// flight, abandoned, or missing a member a view change evicted);
    /// `None` once every member delivered it.
    pub fn unfinished_stamps(&self) -> Option<&[Option<SimTime>]> {
        self.stamps.as_deref()
    }

    /// Files original rank `o`'s delivery at `at`; the last member's
    /// drops the stamps and sets [`MessageResult::completed`].
    fn deliver(&mut self, o: usize, at: SimTime) {
        let stamps = self.stamps.as_mut().expect("an unfinished message");
        stamps[o] = Some(at);
        if stamps.iter().all(Option::is_some) {
            self.completed = stamps.iter().flatten().max().copied();
            self.stamps = None;
        }
    }

    /// The latest delivery filed so far, at any member.
    fn last_stamp(&self) -> Option<SimTime> {
        match &self.stamps {
            Some(s) => s.iter().flatten().max().copied(),
            None => self.completed,
        }
    }
}

/// What an action timer token stands for: [`Cluster::arm_timer`] files
/// one in the [`TimerSlab`], `dispatch` fires it. A scheduled send is no
/// action: its token names its message ([`MessageSlot`]).
pub(crate) enum TimerAction {
    Crash {
        node: usize,
    },
    Reconfigure {
        group: GroupId,
        version: u64,
        attempt: u32,
    },
    /// Receiver retry timeout: re-NACK still-missing blocks on `qp` (or
    /// escalate once the budget is spent).
    RelRto {
        qp: QpHandle,
    },
    /// Sender quiet-period check: probe the send frontier on `qp` if no
    /// block has been posted for the policy's probe delay.
    RelProbe {
        qp: QpHandle,
    },
    /// Send `member`'s unsent frontier columns as one row write per live
    /// peer: the zero-delay end-of-batch hook its first unsent column
    /// armed.
    FrontierFlush {
        ag: AtomicGroupId,
        member: usize,
    },
}

/// The top bit of a timer token marks a message's token, whose low bits
/// are its id; any other token names a [`TimerSlab`] slot.
const MESSAGE_TOKEN: u64 = 1 << 63;

/// The armed [`TimerAction`]s, a slot reused once its action fired. A
/// token is its slot (low 32 bits) and the slot's generation (the next
/// 31, so the top bit stays clear), which firing bumps: a token never
/// fires what its slot holds later.
#[derive(Default)]
struct TimerSlab {
    slots: Vec<(u32, Option<TimerAction>)>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Files `action` and returns its token.
    fn arm(&mut self, action: TimerAction) -> u64 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let (generation, held) = &mut self.slots[slot as usize];
        *held = Some(action);
        u64::from(*generation) << 32 | u64::from(slot)
    }

    /// Takes the action `token` names, if its slot still holds it.
    fn fire(&mut self, token: u64) -> Option<TimerAction> {
        let slot = token as u32;
        let (generation, held) = self.slots.get_mut(slot as usize)?;
        if u64::from(*generation) != token >> 32 {
            return None;
        }
        let action = held.take()?;
        *generation = (*generation + 1) & (u32::MAX >> 1);
        self.free.push(slot);
        Some(action)
    }
}

/// What a [`MessageId`] names: a send its token submits when it fires
/// (on an atomic group, to the then-current rotation slot), or the
/// ledger record the send was filed under.
#[derive(Clone, Copy)]
pub(crate) enum MessageSlot {
    Scheduled { group: GroupId, size: u64 },
    ScheduledAtomic { ag: AtomicGroupId, size: u64 },
    Filed { group: GroupId, index: usize },
}

pub(crate) struct GroupRuntime {
    /// The creation spec, never reassigned: `spec.members[o]` is the
    /// fabric node of *original* rank `o`.
    pub(crate) spec: GroupSpec,
    /// The schedule source every member's engine plans with.
    planner: Arc<SchedulePlanner>,
    pub(crate) engines: Vec<GroupEngine>,
    /// (my rank, peer rank) -> my queue pair endpoint (current epoch).
    /// Ordered: epoch teardown iterates it, and iteration order must be
    /// run-to-run stable (the determinism audit; the PR 5 regression).
    pub(crate) qps: BTreeMap<(Rank, Rank), QpHandle>,
    /// The ledger: one record per message, in submission order (its
    /// per-member stamps and `sender` are *original* ranks).
    pub(crate) results: Vec<MessageResult>,
    /// Per original rank: its delivery cursor. Every message before it is
    /// delivered there or abandoned ([`GroupRuntime::outstanding`]).
    pub(crate) cursor: Vec<usize>,
    /// The view: current rank -> original rank (identity until a
    /// reconfiguration).
    pub(crate) orig_rank: Vec<usize>,
    /// How this group recovers blocks the fabric loses (None = the
    /// paper's lossless assumption: block immediates carry the raw
    /// message size and a loss stalls or wedges the transfer).
    pub(crate) reliability: Option<ReliabilityPolicy>,
    /// The atomic group this is a per-sender subgroup of, and its sender
    /// member index (`None` for a plain group).
    pub(crate) overlay: Option<(AtomicGroupId, usize)>,
}

impl GroupRuntime {
    /// Current rank of an original rank, if still a member.
    pub(crate) fn current_of(&self, orig: usize) -> Option<Rank> {
        self.orig_rank
            .iter()
            .position(|&o| o == orig)
            .map(|c| c as Rank)
    }

    /// Fabric node hosting current rank `rank`.
    pub(crate) fn node(&self, rank: Rank) -> NodeId {
        NodeId(self.spec.members[self.orig_rank[rank as usize]] as u32)
    }

    /// Original rank `o`'s outstanding messages, in delivery order: from
    /// its cursor on, neither delivered there nor abandoned. The engines
    /// deliver strictly in order, so the first names the message the
    /// member's next `DeliverMessage` is for.
    pub(crate) fn outstanding(&self, o: usize) -> impl Iterator<Item = usize> + '_ {
        let open = move |&i: &usize| {
            let m = &self.results[i];
            !m.abandoned && !m.delivered(o)
        };
        (self.cursor[o]..self.results.len()).filter(open)
    }

    /// Full trace scope of current rank `rank` (this group is `gid`).
    pub(crate) fn scope(&self, gid: GroupId, rank: Rank) -> trace::Scope {
        trace::Scope {
            node: Some(self.node(rank).0),
            group: Some(gid as u32),
            rank: Some(rank),
        }
    }
}

/// An RDMC deployment over any [`Transport`]: transport + engines +
/// bookkeeping. The orchestration — group creation, pacer admission,
/// epoch recovery, reliability policies, atomic overlays, the flight
/// recorder — is written once against the [`Transport`] contract and
/// runs unchanged over the simulated verbs fabric
/// (`Cluster<Fabric>`, aliased [`SimCluster`]) or the real nonblocking
/// TCP backend (`rdmc-tcp`'s `TcpFabric`).
pub struct Cluster<T: Transport = Fabric> {
    pub(crate) fabric: T,
    pub(crate) groups: Vec<GroupRuntime>,
    /// By connection id and endpoint ([`Cluster::qp_owner`]).
    qp_owners: Vec<[Option<(GroupId, Rank, Rank)>; 2]>,
    timers: TimerSlab,
    /// Indexed by [`MessageId`]: ids are dense from 0.
    message_slots: Vec<MessageSlot>,
    /// Flight recorder shared by the fabric, the net, and every engine
    /// (disabled — one branch per instrumentation point — by default).
    pub(crate) recorder: trace::Recorder,
    /// Engine events fed so far (the chaos harness's notion of a
    /// deterministic protocol step).
    pub(crate) fed_events: u64,
    /// Failure injection and the epoch-based view change (`reconfig`).
    pub(crate) reconfig: Reconfig,
    /// Lossy-fabric repair state (`reliability`).
    pub(crate) reliability: Reliability,
    /// Multi-sender atomic multicast overlays (`atomic`).
    pub(crate) atomic: AtomicOverlays,
    /// Per-NIC send admission (None = unpaced, the default; see
    /// [`crate::PacerConfig`]).
    pub(crate) pacer: Option<PacerState>,
    /// Pool of recycled engine-action buffers: `feed` pops one, fills it
    /// via [`GroupEngine::handle_into`], executes, and returns it — no
    /// per-event `Vec` allocation. A pool (not a single buffer) because
    /// executing actions can feed further events reentrantly.
    action_pool: Vec<Vec<Action>>,
    /// Controlled scheduler shared with the fabric when exploration is
    /// driving the run; the cluster consults it for pacer admission
    /// ties so every layer's choices form one global sequence.
    pub(crate) scheduler: Option<verbs::SharedScheduler>,
    /// When capturing ([`crate::ClusterBuilder::engine_log`]), every
    /// engine event in feed order — the raw material of the
    /// `transport_equivalence` gate.
    pub(crate) engine_log: Option<Vec<EngineLogEntry>>,
    /// One schedule planner per distinct built-in algorithm, shared by
    /// every group [`SimCluster::create_group`] makes with it.
    planners: Vec<Arc<SchedulePlanner>>,
}

/// One captured engine event (see [`crate::ClusterBuilder::engine_log`]): the
/// exact [`Event`] fed to `group`'s engine at `rank`, in feed order.
/// Deliberately time-free, so logs from different transports compare
/// bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineLogEntry {
    /// The group whose engine received the event.
    pub group: GroupId,
    /// The member rank the event was fed to.
    pub rank: Rank,
    /// The protocol event itself.
    pub event: Event,
}

/// A cluster over the simulated verbs fabric — the classic simulation
/// driver, and the reference [`Transport`] every other backend is
/// gated against.
pub type SimCluster = Cluster<Fabric>;

impl<T: Transport> Cluster<T> {
    /// The constructor proper ([`crate::ClusterBuilder::from_transport`]
    /// starts here): everything off, no groups.
    pub(crate) fn from_transport(fabric: T) -> Self {
        Cluster {
            fabric,
            groups: Vec::new(),
            qp_owners: Vec::new(),
            timers: TimerSlab::default(),
            message_slots: Vec::new(),
            recorder: trace::Recorder::disabled(),
            fed_events: 0,
            reconfig: Reconfig::default(),
            reliability: Reliability::default(),
            atomic: AtomicOverlays::default(),
            pacer: None,
            action_pool: Vec::new(),
            scheduler: None,
            engine_log: None,
            planners: Vec::new(),
        }
    }

    /// The captured engine events, in feed order (empty unless
    /// [`crate::ClusterBuilder::engine_log`] asked for the capture).
    /// The log is the transport-equivalence evidence: two backends
    /// carrying the same workload must produce identical per-channel
    /// event sequences.
    pub fn engine_log(&self) -> &[EngineLogEntry] {
        self.engine_log.as_deref().unwrap_or(&[])
    }

    /// Counters of the send admission layer, if pacing is enabled.
    pub fn pacing_stats(&self) -> Option<PacingStats> {
        self.pacer.as_ref().map(|p| p.stats)
    }

    /// The group's current membership as original ranks, ascending (new
    /// rank = index). Before any reconfiguration this is `0..n`.
    pub fn surviving_ranks(&self, group: GroupId) -> Vec<Rank> {
        self.groups[group]
            .orig_rank
            .iter()
            .map(|&o| o as Rank)
            .collect()
    }

    /// The configuration epoch the group's members currently run.
    pub fn group_epoch(&self, group: GroupId) -> u64 {
        self.groups[group]
            .engines
            .first()
            .map(|e| e.epoch())
            .unwrap_or(0)
    }

    /// The attached flight recorder (disabled unless
    /// [`crate::ClusterBuilder::flight_recorder`] configured one).
    pub fn recorder(&self) -> &trace::Recorder {
        &self.recorder
    }

    /// Snapshot of every recorded event so far, in order.
    pub fn trace_events(&self) -> Vec<trace::TraceEvent> {
        self.recorder.events()
    }

    /// Checks the complete flight recording with
    /// [`rdmc::schedule::check_trace`]: fresh messages against the group's
    /// [`SchedulePlanner`] at its size in that epoch, resumed ones against
    /// [`recovery::plan_message_resume`] from the recorded holdings.
    ///
    /// # Errors
    ///
    /// Every violation found, as text.
    pub fn check_trace(&self) -> Result<trace::check::CheckStats, Vec<String>> {
        rdmc::schedule::check_trace(&self.trace_events(), |request| match request {
            PlanRequest::Fresh { group, epoch, k } => {
                let g = self.groups.get(*group as usize)?;
                let n = if *epoch == 0 {
                    g.spec.members.len()
                } else {
                    let mut installed = self.recovery_stats().reconfigurations.iter();
                    let record =
                        installed.find(|r| r.group == *group as usize && r.epoch == *epoch)?;
                    record.survivors.len()
                };
                Some(g.planner.plan(n as u32, *k))
            }
            PlanRequest::Resume { held, .. } => match recovery::plan_message_resume(held) {
                MessagePlan::Resume { schedule, .. } => Some(Arc::new(schedule)),
                MessagePlan::Unrecoverable => None,
            },
        })
    }

    /// One node's CPU usage report.
    pub fn cpu_report(&self, node: usize) -> CpuReport {
        self.fabric.cpu_report(NodeId(node as u32))
    }

    /// Access the underlying transport.
    pub fn transport(&self) -> &T {
        &self.fabric
    }

    /// Consumes the cluster and returns the transport — how a real
    /// backend (e.g. `rdmc-tcp`) gets its sockets back for an
    /// error-surfacing shutdown.
    pub fn into_transport(self) -> T {
        self.fabric
    }

    /// Closes a group — the §4.6 close barrier. Drains every
    /// outstanding event first (like [`Cluster::run`]), then reports
    /// whether delivery is *certified*: no current member crashed, the
    /// group's share of [`Cluster::check_run`] holds, and every
    /// submitted message was delivered at every original member (one
    /// evicted after it delivered everything included). A `true` from
    /// every member's destroy proves every message reached every
    /// destination; a failure or incomplete transfer anywhere reports
    /// `false`.
    pub fn destroy_group(&mut self, group: GroupId) -> bool {
        self.run();
        let mut violations = Vec::new();
        self.check_group(group, &mut violations);
        let g = &self.groups[group];
        let all_live = (0..g.engines.len() as Rank).all(|r| !self.fabric.is_crashed(g.node(r)));
        let everywhere = g.results.iter().all(|m| m.latency().is_some());
        all_live && violations.is_empty() && everywhere
    }

    /// Creates a group; all members instantiate their engines and
    /// receivers pre-grant their first ready-for-block credit (the
    /// out-of-band bootstrap of §3 step 1).
    ///
    /// # Panics
    ///
    /// Panics if the member list is empty, repeats a node, or names a node
    /// outside the topology.
    pub fn create_group(&mut self, spec: GroupSpec) -> GroupId {
        let planner = self.planner_for(&spec.algorithm);
        self.create_group_with_planner(spec, planner)
    }

    /// The cluster's planner for `algorithm`, made on its first use.
    fn planner_for(&mut self, algorithm: &Algorithm) -> Arc<SchedulePlanner> {
        if let Some(p) = self.planners.iter().find(|p| p.algorithm() == algorithm) {
            return Arc::clone(p);
        }
        let planner = Arc::new(SchedulePlanner::new(algorithm.clone()));
        self.planners.push(Arc::clone(&planner));
        planner
    }

    /// Like [`SimCluster::create_group`], but with an explicit schedule
    /// planner — how custom schedule families (e.g. the `baselines`
    /// crate's MPI broadcast) run on the fabric. `spec.algorithm` is kept
    /// only as a label.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimCluster::create_group`].
    pub fn create_group_with_planner(
        &mut self,
        spec: GroupSpec,
        planner: Arc<SchedulePlanner>,
    ) -> GroupId {
        assert!(!spec.members.is_empty(), "group needs members");
        let n = spec.members.len() as u32;
        let total_nodes = self.fabric.num_nodes();
        let mut seen = BTreeSet::new();
        for &node in &spec.members {
            assert!(node < total_nodes, "member node {node} outside topology");
            assert!(seen.insert(node), "node {node} appears twice in the group");
        }
        let gid = self.groups.len();
        self.groups.push(GroupRuntime {
            spec,
            planner,
            engines: Vec::with_capacity(n as usize),
            qps: BTreeMap::new(),
            results: Vec::new(),
            cursor: vec![0; n as usize],
            orig_rank: (0..n as usize).collect(),
            reliability: self.reliability.default,
            overlay: None,
        });
        let mut initial: Vec<(Rank, Vec<Action>)> = Vec::new();
        for rank in 0..n {
            let g = &self.groups[gid];
            let (mut engine, actions) = GroupEngine::new(EngineConfig {
                rank,
                num_nodes: n,
                block_size: g.spec.block_size,
                ready_window: g.spec.ready_window,
                max_outstanding_sends: g.spec.max_outstanding_sends,
                planner: Arc::clone(&g.planner),
            });
            if self.recorder.is_enabled() {
                let scope = g.scope(gid, rank);
                engine.set_recorder(self.recorder.clone(), scope);
                // The constructor's idle-state credit predates the
                // recorder attach; restate it so credit accounting in the
                // trace starts balanced.
                for a in &actions {
                    if let Action::SendReady { to } = *a {
                        self.recorder
                            .record(scope, || trace::EventKind::ReadyGranted { to });
                    }
                }
            }
            self.groups[gid].engines.push(engine);
            initial.push((rank, actions));
        }
        self.reconfig.track_group(n as usize);
        for (rank, mut actions) in initial {
            self.execute(gid, rank, &mut actions);
        }
        gid
    }

    /// Submits a multicast of `size` random-content bytes on `group` now,
    /// returning the handle its completion record is filed under.
    pub fn submit_send(&mut self, group: GroupId, size: u64) -> MessageId {
        let id = self.new_message(MessageSlot::Scheduled { group, size });
        self.do_submit(group, size, id);
        id
    }

    /// Files a submission — its record in the ledger under `message`,
    /// with a delivery slot for every original member and the current
    /// root as its sender — and hands the send to the current root
    /// engine.
    pub(crate) fn do_submit(&mut self, group: GroupId, size: u64, message: MessageId) {
        let now = self.fabric.now();
        let g = &mut self.groups[group];
        let index = g.results.len();
        g.results.push(MessageResult {
            group,
            index,
            size,
            submitted: now,
            sender: g.orig_rank[0] as Rank,
            abandoned: false,
            completed: None,
            stamps: Some(vec![None; g.spec.members.len()].into()),
        });
        self.message_slots[message.0 as usize] = MessageSlot::Filed { group, index };
        self.feed(group, 0, Event::StartSend { size });
    }

    /// Schedules a multicast submission at an absolute virtual time,
    /// returning its handle immediately. The handle resolves to a
    /// completion record ([`SimCluster::result`]) once the timer fires
    /// and the send is actually submitted.
    pub fn schedule_send_at(&mut self, group: GroupId, at: SimTime, size: u64) -> MessageId {
        let message = self.new_message(MessageSlot::Scheduled { group, size });
        self.arm_message(self.groups[group].node(0), at, message);
        message
    }

    /// Asks the transport to fire `message`'s token on `node` at `at` (at
    /// once if `at` has passed).
    pub(crate) fn arm_message(&mut self, node: NodeId, at: SimTime, message: MessageId) {
        let delay = at.saturating_since(self.fabric.now());
        self.fabric
            .schedule_timer(node, delay, MESSAGE_TOKEN | message.0);
    }

    /// Allocates the next message handle, naming `slot`.
    pub(crate) fn new_message(&mut self, slot: MessageSlot) -> MessageId {
        let id = MessageId(self.message_slots.len() as u64);
        self.message_slots.push(slot);
        id
    }

    /// Files `action` under a fresh token and asks the transport to
    /// fire it on `node` after `delay`.
    pub(crate) fn arm_timer(&mut self, node: usize, delay: SimDuration, action: TimerAction) {
        let token = self.timers.arm(action);
        self.fabric
            .schedule_timer(NodeId(node as u32), delay, token);
    }

    /// The completion record of one message, by handle. `None` for a
    /// scheduled send whose timer has not fired yet.
    pub fn result(&self, id: MessageId) -> Option<&MessageResult> {
        match *self.message_slots.get(id.0 as usize)? {
            MessageSlot::Filed { group, index } => self.groups.get(group)?.results.get(index),
            MessageSlot::Scheduled { .. } | MessageSlot::ScheduledAtomic { .. } => None,
        }
    }

    /// Advances the simulation by one software-visible delivery (and
    /// everything it triggers). Returns `false` once no events remain.
    /// [`SimCluster::run`] is `while self.step() {}` plus the end-of-run
    /// asserts; model checkers call `step` directly so they can sample
    /// state digests and stop on invariant violations without tripping
    /// the terminal asserts first.
    pub fn step(&mut self) -> bool {
        match self.fabric.advance() {
            Some((_, _, delivery)) => {
                self.dispatch(delivery);
                true
            }
            None => false,
        }
    }

    /// Runs the simulation until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
        // Runtime mirror of the analyzer's static posting-order lint: the
        // ready-for-block discipline means no send ever finds its receiver
        // without a posted receive, so the RNR machinery must never arm
        // (§4.2) — not even on failure runs, where connections break via
        // crash detection rather than retry exhaustion.
        debug_assert_eq!(
            self.fabric.stats().rnr_arms,
            0,
            "a send raced ahead of receive posting and armed an RNR timer"
        );
    }

    /// Completion records for every message submitted so far, grouped by
    /// group and ordered by submission within each group. Prefer
    /// [`SimCluster::result`] with the [`MessageId`] a submission
    /// returned over positional indexing into this list.
    pub fn message_results(&self) -> Vec<MessageResult> {
        self.groups
            .iter()
            .flat_map(|g| g.results.iter().cloned())
            .collect()
    }

    /// When the run's last delivery landed, at any member of any group
    /// (`None` before the first) — the end of a throughput measurement.
    pub fn last_delivery(&self) -> Option<SimTime> {
        let results = self.groups.iter().flat_map(|g| &g.results);
        results.filter_map(MessageResult::last_stamp).max()
    }

    /// A canonical digest of all protocol-visible cluster state,
    /// deliberately *time-free*: two executions that moved the same
    /// messages to the same members through the same epochs digest
    /// equally even if virtual timestamps differ. The explorer's
    /// determinism audit compares digests across replays of one choice
    /// sequence (must match bit-for-bit) and across DPOR-equivalent
    /// interleavings (must converge to the same terminal state).
    pub fn state_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, w: u64) {
            *h ^= w;
            *h = h.wrapping_mul(PRIME);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (gid, g) in self.groups.iter().enumerate() {
            mix(&mut h, gid as u64);
            mix(&mut h, g.orig_rank.len() as u64);
            for &o in &g.orig_rank {
                mix(&mut h, o as u64);
            }
            for e in &g.engines {
                for w in e.state_digest() {
                    mix(&mut h, w);
                }
            }
            mix(&mut h, g.results.len() as u64);
            for m in &g.results {
                mix(&mut h, m.size);
                mix(&mut h, u64::from(m.sender));
                mix(&mut h, u64::from(m.abandoned));
                for o in 0..g.spec.members.len() {
                    mix(&mut h, u64::from(m.delivered(o)));
                }
            }
        }
        // Overlay state (mixed only when atomic groups exist, so plain
        // clusters digest bit-identically to pre-overlay builds).
        self.atomic.mix_digest(&mut |w| mix(&mut h, w));
        for &node in self.reconfig.crash_times.keys() {
            mix(&mut h, node as u64);
        }
        h
    }

    /// Ranks that consider the group wedged (learned of a failure).
    pub fn wedged_members(&self, group: GroupId) -> Vec<Rank> {
        self.groups[group]
            .engines
            .iter()
            .filter(|e| e.is_wedged())
            .map(|e| e.rank())
            .collect()
    }

    fn dispatch(&mut self, delivery: Delivery) {
        match delivery {
            Delivery::RecvDone { qp, imm, .. } => {
                // Completions for torn-down (old-epoch) queue pairs are
                // stale: their owner entries are gone, so ignore them.
                let Some((group, me, peer)) = self.qp_owner(qp) else {
                    return;
                };
                // Policy groups route through the reorder/repair shim so
                // the engine sees a gap-free FIFO.
                if self.groups[group].reliability.is_some() && self.rel_block_arrival(qp, imm) {
                    return;
                }
                self.feed(
                    group,
                    me,
                    Event::BlockReceived {
                        from: peer,
                        total_size: imm,
                    },
                );
            }
            Delivery::RecvCorrupted { qp, imm, .. } => self.rel_corrupt_arrival(qp, imm),
            Delivery::SendDone { qp, wr_id } => {
                let freed = self.release_send_slot(qp, wr_id);
                if let Some((group, me, peer)) = self.qp_owner(qp) {
                    self.feed(group, me, Event::SendCompleted { to: peer });
                }
                // Pump after feeding: sends the completion just triggered
                // are in the queue by now, so the policy arbitrates them
                // against everything already waiting.
                if let Some(node) = freed {
                    self.pump(node);
                }
            }
            Delivery::WriteDone { .. } => {}
            Delivery::WriteArrived { qp, tag, payload } => {
                let Some((group, me, peer)) = self.qp_owner(qp) else {
                    return;
                };
                match tag {
                    TAG_READY => {
                        self.feed(group, me, Event::ReadyReceived { from: peer });
                    }
                    TAG_FAILURE => {
                        // Peer input: a write too short to name a rank, or
                        // naming one outside the group, is dropped. So is a
                        // notice naming the receiver (a flap's far end):
                        // its own broken connection wedges it.
                        let members = self.groups[group].orig_rank.len();
                        let Some(failed) = payload
                            .first_chunk::<4>()
                            .map(|rank| u32::from_le_bytes(*rank))
                            .filter(|&rank| (rank as usize) < members && rank != me)
                        else {
                            return;
                        };
                        self.learned_failure(group, me, failed);
                    }
                    TAG_VIEW => {
                        self.view_update(group, me, peer, &payload);
                    }
                    TAG_NACK | TAG_RETRANS | TAG_PARITY | TAG_PROBE
                        if self.groups[group].reliability.is_some() =>
                    {
                        self.rel_control_arrival(qp, group, me, tag, &payload);
                    }
                    TAG_FRONTIER => {
                        self.atomic_frontier_arrival(group, me, peer, &payload);
                    }
                    // Peer input: a tag no layer of this group owns (a
                    // repair write to a group without a reliability
                    // policy included) is dropped.
                    _ => {}
                }
            }
            Delivery::WrFlushed { qp, wr_id, recv } => {
                // Flushed WRs carry no protocol state the engines need;
                // the QpBroken notice that follows triggers wedging. But a
                // flushed *send* never gets a SendDone, so its admission
                // slot must be released here. (A flushed control write with
                // a colliding work-request id may release the slot a beat
                // early; the ledger entry leaves exactly once either way,
                // so the accounting stays balanced through teardown.)
                if !recv {
                    if let Some(node) = self.release_send_slot(qp, wr_id) {
                        self.pump(node);
                    }
                }
            }
            Delivery::QpBroken { qp } => {
                if let Some((group, me, peer)) = self.qp_owner(qp) {
                    self.learned_failure(group, me, peer);
                }
            }
            Delivery::Timer { token } if token & MESSAGE_TOKEN != 0 => {
                let id = MessageId(token & !MESSAGE_TOKEN);
                match self.message_slots.get(id.0 as usize) {
                    Some(&MessageSlot::Scheduled { group, size }) => {
                        self.do_submit(group, size, id);
                    }
                    Some(&MessageSlot::ScheduledAtomic { ag, size }) => {
                        self.do_submit_atomic(ag, size, id);
                    }
                    None | Some(MessageSlot::Filed { .. }) => {} // stale or foreign
                }
            }
            Delivery::Timer { token } => match self.timers.fire(token) {
                Some(TimerAction::Crash { node }) => {
                    self.crash_now(node);
                }
                Some(TimerAction::Reconfigure {
                    group,
                    version,
                    attempt,
                }) => {
                    self.try_reconfigure(group, version, attempt);
                }
                Some(TimerAction::RelRto { qp }) => {
                    self.rel_rto_fired(qp);
                }
                Some(TimerAction::RelProbe { qp }) => {
                    self.rel_probe_fired(qp);
                }
                Some(TimerAction::FrontierFlush { ag, member }) => {
                    self.atomic_frontier_flush(ag, member);
                }
                None => {} // stale or foreign timer: ignore
            },
        }
    }

    /// `me` learned that current-rank `failed` is gone — from a broken
    /// connection, a relayed notice or a loss escalation. Without
    /// recovery its engine wedges and relays the notice; with recovery
    /// `me` suspects `failed` (its engine wedges, its view row spreads the
    /// news) and arms a reconfiguration attempt.
    pub(crate) fn learned_failure(&mut self, group: GroupId, me: Rank, failed: Rank) {
        let Some(grace) = self.reconfig.config.as_ref().map(|c| c.grace) else {
            self.feed(group, me, Event::PeerFailed { rank: failed });
            return;
        };
        let o = self.groups[group].orig_rank[failed as usize];
        if self.suspect(group, me, o) {
            self.arm_reconfigure(group, me, 0, grace);
        }
    }

    /// Feeds an event to one engine and executes the resulting actions.
    pub(crate) fn feed(&mut self, group: GroupId, rank: Rank, event: Event) {
        // Deterministic chaos trigger: crash nodes scheduled for this
        // protocol step just before the event reaches its engine.
        self.fire_event_crashes();
        self.fed_events += 1;
        if self.fabric.is_crashed(self.groups[group].node(rank)) {
            return; // dead software runs no handlers
        }
        if let Some(log) = self.engine_log.as_mut() {
            log.push(EngineLogEntry {
                group,
                rank,
                event: event.clone(),
            });
        }
        let mut actions = self.action_pool.pop().unwrap_or_default();
        self.groups[group].engines[rank as usize]
            .handle_into(event, &mut actions)
            .unwrap_or_else(|e| panic!("group {group} rank {rank}: protocol violation: {e}"));
        self.execute(group, rank, &mut actions);
        actions.clear();
        self.action_pool.push(actions);
    }

    /// Lazily creates the queue pair between two group members.
    pub(crate) fn ensure_qp(&mut self, group: GroupId, a: Rank, b: Rank) -> QpHandle {
        if let Some(&qp) = self.groups[group].qps.get(&(a, b)) {
            return qp;
        }
        let na = self.groups[group].node(a);
        let nb = self.groups[group].node(b);
        let (qa, qb) = self.fabric.connect(na, nb);
        self.groups[group].qps.insert((a, b), qa);
        self.groups[group].qps.insert((b, a), qb);
        for (qp, owner) in [(qa, (group, a, b)), (qb, (group, b, a))] {
            let conn = qp.conn_id() as usize;
            if self.qp_owners.len() <= conn {
                self.qp_owners.resize(conn + 1, [None; 2]);
            }
            self.qp_owners[conn][usize::from(qp.endpoint())] = Some(owner);
        }
        qa
    }

    /// Who owns endpoint `qp`: `(group, my rank, peer rank)`, unless it was
    /// torn down. Transports mint connection ids `0, 1, 2, …` in connect
    /// order (the `verbs::Transport` contract), so the table is dense.
    pub(crate) fn qp_owner(&self, qp: QpHandle) -> Option<(GroupId, Rank, Rank)> {
        self.qp_owners.get(qp.conn_id() as usize)?[usize::from(qp.endpoint())]
    }

    /// Tears endpoint `qp` down: completions still in flight for it find
    /// no owner.
    pub(crate) fn forget_qp_owner(&mut self, qp: QpHandle) {
        self.qp_owners[qp.conn_id() as usize][usize::from(qp.endpoint())] = None;
    }

    pub(crate) fn execute(&mut self, group: GroupId, rank: Rank, actions: &mut Vec<Action>) {
        let node = self.groups[group].node(rank);
        // The first-block copy is charged *after* all posts from this
        // handler: the paper's receivers post their receives first "and in
        // parallel, copy the first block" (§4.2), so the copy must not
        // delay readiness grants or relays.
        let mut deferred_copy = SimDuration::ZERO;
        for action in actions.drain(..) {
            match action {
                Action::SendReady { to } => {
                    let qp = self.ensure_qp(group, rank, to);
                    let block_size = self.groups[group].spec.block_size;
                    // Readiness implies the receive is pre-posted (§4.2):
                    // post it first so the peer's send always lands.
                    // Ignore failures: the group is wedging if the QP broke.
                    let _ = self.fabric.post_recv(qp, WrId(0), block_size);
                    let _ = self.fabric.post_write(
                        qp,
                        WrId(0),
                        TAG_READY,
                        Bytes::from_static(b"RDY"),
                        None,
                    );
                }
                Action::SendBlock {
                    to,
                    block,
                    bytes,
                    total_size,
                    ..
                } => {
                    self.admit_or_queue_block(group, rank, to, block, bytes, total_size);
                }
                Action::AllocateBuffer { size } => {
                    // malloc on the critical path (§4.6) gates everything;
                    // the copy of the size-announcing first block into the
                    // new buffer (Table 1 "Copy Time") is deferred past the
                    // posts below.
                    let profile = self.fabric.profile(node).clone();
                    let first_block = size.min(self.groups[group].spec.block_size);
                    self.fabric.consume_cpu(node, profile.malloc_latency);
                    deferred_copy += profile.memcpy_time(first_block);
                }
                Action::DeliverMessage { .. } => {
                    let now = self.fabric.now();
                    let g = &mut self.groups[group];
                    let orig = g.orig_rank[rank as usize];
                    let idx = g.outstanding(orig).next().unwrap_or_else(|| {
                        panic!("group {group} rank {rank}: delivery with no outstanding message")
                    });
                    g.results[idx].deliver(orig, now);
                    g.cursor[orig] = idx + 1;
                    // Atomic overlay: a subgroup delivery resolves one of
                    // its sender's data slots at this member — advance
                    // the member's received frontier and re-run its
                    // delivery engine.
                    self.atomic_on_rdmc_delivery(group, rank);
                }
                // A recovery group's view row is its failure notice
                // (`Cluster::suspect`): only a plain group relays.
                Action::RelayFailure { failed } if !self.recovery_enabled() => {
                    let payload = Bytes::copy_from_slice(&failed.to_le_bytes());
                    self.broadcast_write(group, rank, WrId(1), TAG_FAILURE, payload);
                }
                Action::RelayFailure { .. } => {}
            }
        }
        if deferred_copy > SimDuration::ZERO {
            self.fabric.consume_cpu(node, deferred_copy);
        }
    }

    /// Posts one tiny control write from `rank` to every current peer
    /// whose node is still up (failures ignored: a broken connection is
    /// already wedging the group).
    pub(crate) fn broadcast_write(
        &mut self,
        group: GroupId,
        rank: Rank,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
    ) {
        for peer in 0..self.groups[group].orig_rank.len() as Rank {
            if peer == rank || self.fabric.is_crashed(self.groups[group].node(peer)) {
                continue;
            }
            let qp = self.ensure_qp(group, rank, peer);
            let _ = self
                .fabric
                .post_write(qp, wr_id, tag, payload.clone(), None);
        }
    }

    /// Posts one block send to the fabric, recording it in the pacer's
    /// ledger (so its completion releases the admission slot) when pacing
    /// is on. Returns whether the fabric accepted the post.
    pub(crate) fn post_block(
        &mut self,
        group: GroupId,
        rank: Rank,
        to: Rank,
        block: u32,
        bytes: u64,
        total_size: u64,
    ) -> bool {
        let qp = self.ensure_qp(group, rank, to);
        let policy = self.groups[group].reliability;
        let imm = match policy {
            Some(p) => self.rel_tag_block(qp, p, bytes, total_size),
            None => total_size,
        };
        let posted = self
            .fabric
            .post_send(qp, WrId(u64::from(block)), bytes, imm, None)
            .is_ok();
        // Debug-build mirror of the static invariant: a block send is
        // emitted only against a ready credit, and each credit was granted
        // after the matching receive was posted — so the receiver's queue
        // cannot be empty here unless the connection already broke.
        #[cfg(debug_assertions)]
        {
            let peer_qp = self.groups[group].qps[&(to, rank)];
            let snap = self.fabric.posting_snapshot(peer_qp);
            debug_assert!(
                snap.broken || snap.posted_recvs >= 1,
                "group {group}: rank {rank} posted block {block} to {to} \
                 with no receive posted at the target"
            );
        }
        if posted {
            if let Some(p) = self.pacer.as_mut() {
                let node = self.groups[group].node(rank).index();
                p.note_posted(qp, WrId(u64::from(block)), node);
            }
            if policy.is_some() {
                self.rel_block_posted(group, rank, qp);
            }
        }
        posted
    }
}

impl<T: Transport> std::fmt::Debug for Cluster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.fabric.now())
            .field("groups", &self.groups.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterBuilder, ClusterSpec, RecoveryConfig};

    /// Control-write payloads are peer input: whatever rank 1 writes at
    /// rank 0 after a first message, the handler drops what it cannot
    /// use (a group without a reliability policy drops even well-formed
    /// repairs) or does work bounded by its ledger and credit window,
    /// and the group still delivers its next message.
    #[test]
    fn malformed_control_writes_are_dropped() {
        let words = |w: &[u64]| w.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let view = |col: u32| [&col.to_le_bytes()[..], &[0; 8]].concat();
        let nack_all = [&0u64.to_le_bytes()[..], &u32::MAX.to_le_bytes()].concat();
        let sack = Some(ReliabilityPolicy::SelectiveAck);
        let malformed = [
            (None, TAG_FAILURE, vec![1, 0]),
            (None, TAG_FAILURE, 99u32.to_le_bytes().to_vec()),
            (None, 0xdead, Vec::new()),
            (None, TAG_VIEW, vec![0; 5]),
            (None, TAG_VIEW, view(99)),
            (None, TAG_NACK, vec![0; 11]),
            (None, TAG_RETRANS, vec![0; 15]),
            (None, TAG_PROBE, vec![0; 7]),
            (None, TAG_PARITY, words(&[0, 1 << 60])),
            // Block 0 of a 4-block message (seq, total, length), and a
            // generation covering it (generation, count, seq, total).
            (None, TAG_RETRANS, words(&[0, 1 << 18, 1 << 16])),
            (None, TAG_PARITY, words(&[0, 1, 0, 1 << 18])),
            (sack, TAG_NACK, nack_all),
            (sack, TAG_PROBE, words(&[1 << 24])),
            (sack, TAG_PROBE, words(&[u64::MAX])),
        ];
        for (policy, tag, payload) in malformed {
            let mut builder = ClusterBuilder::new(ClusterSpec::fractus(3));
            if let Some(policy) = policy {
                builder = builder.reliability(policy);
            }
            let mut c = builder.recovery(RecoveryConfig::default()).build();
            let group = c.create_group(GroupSpec {
                members: vec![0, 1, 2],
                algorithm: Algorithm::BinomialPipeline,
                block_size: 1 << 16,
                ready_window: 2,
                max_outstanding_sends: 2,
            });
            c.submit_send(group, 1 << 18);
            c.run();
            let (len, qp) = (payload.len(), c.groups[group].qps[&(1, 0)]);
            c.fabric
                .post_write(qp, WrId(u64::MAX), tag, Bytes::from(payload), None)
                .unwrap();
            let id = c.submit_send(group, 1 << 18);
            c.run();
            let ctx = format!("after a {len}-byte write with tag {tag:#x}");
            assert!(c.result(id).unwrap().latency().is_some(), "{ctx}");
            let stats = c.reliability_stats();
            assert_eq!(stats.escalations, 0, "{ctx}");
            // Rank 0's ledger answers the NACK; nothing else repairs.
            let resent = policy.is_some() && tag == TAG_NACK;
            assert_eq!(stats.repairs_sent > 0, resent, "{ctx}");
        }
    }

    /// Tokens stay stale. A scheduled send has no record before its
    /// instant and one after; a message token for a filed id, or for an
    /// id never made, sends nothing; and an action token whose slab slot
    /// was since reused fires nothing, while the new token fires.
    #[test]
    fn stale_tokens_fire_nothing() {
        let mut c = ClusterBuilder::new(ClusterSpec::fractus(3)).build();
        let group = c.create_group(GroupSpec {
            members: vec![0, 1, 2],
            algorithm: Algorithm::BinomialPipeline,
            block_size: 1 << 16,
            ready_window: 2,
            max_outstanding_sends: 2,
        });
        let at = SimTime::from_nanos(1_000_000);
        let scheduled = c.schedule_send_at(group, at, 1 << 18);
        let mut steps_before = 0;
        while c.step() {
            let fired = c.fabric.now() >= at;
            steps_before += usize::from(!fired);
            assert_eq!(
                c.result(scheduled).is_some(),
                fired,
                "at {:?}",
                c.fabric.now()
            );
        }
        assert!(steps_before > 0, "the group's set-up ran before the send");
        assert_eq!(c.result(scheduled).unwrap().submitted, at);
        let submitted = c.submit_send(group, 1 << 18);
        for id in [scheduled.0, submitted.0, 99] {
            c.dispatch(Delivery::Timer {
                token: MESSAGE_TOKEN | id,
            });
        }
        c.run();
        assert_eq!(
            c.groups[group].results.len(),
            2,
            "a stale message token sent"
        );
        assert_eq!(c.check_run(), Ok(()));

        let stale = c.timers.arm(TimerAction::Crash { node: 2 });
        assert!(matches!(
            c.timers.fire(stale),
            Some(TimerAction::Crash { node: 2 })
        ));
        let fresh = c.timers.arm(TimerAction::Crash { node: 1 });
        assert_eq!(fresh as u32, stale as u32, "the slot is reused");
        c.dispatch(Delivery::Timer { token: stale });
        assert!(!c.fabric.is_crashed(NodeId(1)), "a stale token fired");
        c.dispatch(Delivery::Timer { token: fresh });
        assert!(
            c.fabric.is_crashed(NodeId(1)),
            "the reused slot's token fired nothing"
        );
    }

    /// Groups running equal algorithms plan with one planner; a hybrid
    /// over other racks, or a caller's own planner, stays apart.
    #[test]
    fn groups_with_equal_algorithms_share_one_planner() {
        let spec = |members: Vec<usize>, algorithm| GroupSpec {
            members,
            algorithm,
            block_size: 1 << 16,
            ready_window: 2,
            max_outstanding_sends: 2,
        };
        let hybrid = |rack_of: Vec<u32>| Algorithm::Hybrid { rack_of };
        let mut c = ClusterBuilder::new(ClusterSpec::fractus(8)).build();
        let a = c.create_group(spec(vec![0, 1, 2], Algorithm::BinomialPipeline));
        let b = c.create_group(spec(vec![3, 4, 5, 6], Algorithm::BinomialPipeline));
        let chain = c.create_group(spec(vec![7, 0], Algorithm::Chain));
        let h1 = c.create_group(spec(vec![0, 1, 2, 3], hybrid(vec![0, 0, 1, 1])));
        let h2 = c.create_group(spec(vec![4, 5, 6, 7], hybrid(vec![0, 0, 1, 1])));
        let h3 = c.create_group(spec(vec![4, 5, 6, 7], hybrid(vec![0, 1, 0, 1])));
        let own = Arc::new(SchedulePlanner::new(Algorithm::BinomialPipeline));
        let mine = c.create_group_with_planner(
            spec(vec![1, 2, 3], Algorithm::BinomialPipeline),
            Arc::clone(&own),
        );
        let planner = |g: GroupId| &c.groups[g].planner;
        assert!(Arc::ptr_eq(planner(a), planner(b)));
        assert!(Arc::ptr_eq(planner(h1), planner(h2)));
        assert!(!Arc::ptr_eq(planner(a), planner(chain)));
        assert!(!Arc::ptr_eq(planner(h1), planner(h3)));
        assert!(Arc::ptr_eq(planner(mine), &own));
        assert!(!Arc::ptr_eq(planner(mine), planner(a)));
        assert_eq!(c.planners.len(), 4, "one per distinct algorithm");
        for g in [a, b, chain, h1, h2, h3, mine] {
            c.submit_send(g, 1 << 18);
        }
        c.run();
        assert_eq!(c.check_run(), Ok(()));
    }
}
