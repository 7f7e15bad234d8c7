//! The sans-IO RDMC protocol engine (paper §4.2–4.3).
//!
//! [`GroupEngine`] is one group member's protocol state machine. It owns
//! no sockets, queues, or clocks: a *driver* feeds it [`Event`]s (a block
//! arrived, a ready-for-block notice arrived, a send completed) and
//! executes the [`Action`]s it returns (send this block, tell that peer
//! we're ready, hand the application a buffer, deliver the message). The
//! same engine therefore runs unchanged over simulated RDMA
//! (`rdmc-sim`), real TCP sockets (`rdmc-tcp`), and the in-memory
//! loopback used by the test suite.
//!
//! Protocol highlights, mirroring the paper:
//!
//! - **Deterministic schedules.** When a transfer starts, each member
//!   derives its full send/receive sequence from `(group size, rank,
//!   block count)` alone — no control traffic.
//! - **Size discovery via immediates.** Receivers learn the message size
//!   from the first block's immediate value; only then do they allocate a
//!   buffer and compute the schedule ([`Action::AllocateBuffer`]).
//! - **Ready-for-block gating.** A block is sent only after the target
//!   announced readiness ([`Event::ReadyReceived`]), so RDMA receives are
//!   always pre-posted and RNR retries never fire (§4.2). Readiness is
//!   credit-based, granted [`EngineConfig::ready_window`] transfers ahead.
//! - **Failure wedging.** On a peer failure the group stops transmitting
//!   and relays the notice so every survivor learns (§3 property 6).
//! - **Epoch-based recovery.** Once the survivors agree on the failure
//!   set, a membership layer calls [`GroupEngine::install_epoch`] with the
//!   surviving membership and per-message *resume* schedules that
//!   retransmit exactly the blocks each survivor was missing at the
//!   wedge; the engine then continues in the new epoch. Wedge-only
//!   operation (destroy and re-create the group by hand) remains the
//!   pre-recovery subset of this machinery.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::schedule::{RankSchedule, SchedulePlanner};
use crate::types::{MessageLayout, Rank};

/// Immutable configuration of one group member's engine.
#[derive(Clone)]
pub struct EngineConfig {
    /// This member's rank (0 is the root/sender).
    pub rank: Rank,
    /// Group size.
    pub num_nodes: u32,
    /// Block size in bytes used for every message in this group.
    pub block_size: u64,
    /// How many transfers ahead a receiver grants readiness per peer
    /// (≥ 1). Small values bound posted-receive memory, mirroring RDMC's
    /// "posts only a few receives per group" (§4.2).
    pub ready_window: u32,
    /// How many block sends may be posted to the NIC at once (≥ 1). The
    /// paper queues work requests ahead so the NIC never idles between
    /// blocks ("queues them up to run as asynchronously as possible",
    /// §3); 2 is usually enough to hide completion latency.
    pub max_outstanding_sends: u32,
    /// Source of block-transfer schedules.
    pub planner: Arc<SchedulePlanner>,
}

impl fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineConfig")
            .field("rank", &self.rank)
            .field("num_nodes", &self.num_nodes)
            .field("block_size", &self.block_size)
            .field("ready_window", &self.ready_window)
            .field("algorithm", self.planner.algorithm())
            .finish()
    }
}

/// An input to the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The application asked the root to multicast `size` bytes. Queued if
    /// a transfer is already active (sends complete in initiation order,
    /// §3 property 4).
    StartSend {
        /// Message size in bytes.
        size: u64,
    },
    /// A block arrived from `from`; `total_size` is the immediate value
    /// carrying the whole message's size. The block's identity is *not*
    /// on the wire: the engine derives it from the deterministic schedule
    /// and the per-connection arrival order, exactly as the paper's
    /// receivers do (§4.2).
    BlockReceived {
        /// The sending peer.
        from: Rank,
        /// The total message size from the immediate value.
        total_size: u64,
    },
    /// `from` announced readiness for our next scheduled block to it.
    ReadyReceived {
        /// The peer that is ready.
        from: Rank,
    },
    /// Our in-flight block send to `to` completed.
    SendCompleted {
        /// The target of the completed send.
        to: Rank,
    },
    /// A peer failed (a local connection break, or a notice from a peer:
    /// a relayed failure or a membership row).
    PeerFailed {
        /// The failed member.
        rank: Rank,
    },
}

/// An effect the driver must carry out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Tell `to` (e.g. via a one-sided write) that we are ready for its
    /// next scheduled block.
    SendReady {
        /// The peer to notify.
        to: Rank,
    },
    /// Transmit a block. `offset`/`bytes` locate it in the message;
    /// `total_size` must ride along as the immediate value.
    SendBlock {
        /// The receiving peer.
        to: Rank,
        /// The block number.
        block: u32,
        /// Byte offset of the block within the message.
        offset: u64,
        /// Block length in bytes.
        bytes: u64,
        /// The message's total size (the immediate).
        total_size: u64,
    },
    /// First block of a message arrived: the application must provide a
    /// buffer of `size` bytes (the `incoming_message_callback` of Fig. 1).
    AllocateBuffer {
        /// Total message size.
        size: u64,
    },
    /// The message is locally complete and its memory reusable (the
    /// `message_completion_callback` of Fig. 1).
    DeliverMessage {
        /// Total message size.
        size: u64,
    },
    /// Relay a failure notice to every surviving peer and inform the
    /// application; the group is now wedged. A driver that runs a
    /// membership epidemic may carry the notice there instead.
    RelayFailure {
        /// The member that failed.
        failed: Rank,
    },
}

/// A protocol violation detected by the engine — always a driver or peer
/// bug, never a normal runtime condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// `StartSend` on a non-root member (§4.1: only the root sends).
    NotRoot {
        /// The offending member's rank.
        rank: Rank,
    },
    /// A block arrived from a peer the schedule expects nothing (more)
    /// from.
    UnexpectedArrival {
        /// The sending peer.
        from: Rank,
    },
    /// The immediate value disagreed with the active transfer's size.
    SizeMismatch {
        /// Size the active transfer was created with.
        expected: u64,
        /// Size carried by the offending block.
        got: u64,
    },
    /// A send completion arrived with no send in flight to that peer.
    UnexpectedSendCompletion {
        /// The reported target.
        to: Rank,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NotRoot { rank } => {
                write!(f, "rank {rank} is not the root and cannot send")
            }
            EngineError::UnexpectedArrival { from } => {
                write!(f, "unscheduled block arrived from rank {from}")
            }
            EngineError::SizeMismatch { expected, got } => {
                write!(
                    f,
                    "immediate size {got} disagrees with active transfer size {expected}"
                )
            }
            EngineError::UnexpectedSendCompletion { to } => {
                write!(f, "no send in flight to rank {to}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One interrupted message's continuation plan for a member, installed
/// with [`GroupEngine::install_epoch`]. Built by the membership layer
/// (the `recovery` crate) from every survivor's received-block bitmap:
/// the schedule's incoming transfers are exactly this member's missing
/// blocks, and its outgoing transfers only ever carry blocks the member
/// holds (initially or after a scheduled receive).
#[derive(Clone, Debug)]
pub struct ResumeTransfer {
    /// The message's total size in bytes.
    pub total_size: u64,
    /// This member's slice of the resume schedule, expressed in
    /// *new-epoch* ranks.
    pub sched: RankSchedule,
    /// Which blocks this member already holds from the old epoch.
    pub have: Vec<bool>,
    /// True if the member already delivered the message before the wedge
    /// (it participates to re-seed others but must not deliver twice).
    pub already_delivered: bool,
}

/// A new-epoch installation order for one member: its new rank, the
/// surviving group size, and the interrupted messages to finish first
/// (in original submission order).
#[derive(Clone, Debug)]
pub struct EpochInstall {
    /// Monotonically increasing epoch number (the initial epoch is 0).
    pub epoch: u64,
    /// This member's rank in the new epoch.
    pub rank: Rank,
    /// Surviving group size.
    pub num_nodes: u32,
    /// Interrupted messages to resume, oldest first.
    pub resumes: Vec<ResumeTransfer>,
}

/// A snapshot of one not-yet-delivered (or delivered-but-still-relaying)
/// message at a wedged member, exported for the membership layer to plan
/// resumes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferStatus {
    /// The message's total size in bytes.
    pub total_size: u64,
    /// Received-block bitmap (true = this member holds the block).
    pub have: Vec<bool>,
    /// Whether the member already delivered the message locally.
    pub delivered: bool,
}

/// Per-peer counters in rank order. An entry stays once made, at zero
/// too, exactly as in a `BTreeMap`, so [`GroupEngine::state_digest`]
/// encodes the same entries; but a group's peers are few, and one
/// vector that keeps its capacity when cleared is reused message after
/// message.
#[derive(Clone, Debug, Default)]
struct PeerCounts(Vec<(Rank, u32)>);

impl PeerCounts {
    fn find(&self, peer: Rank) -> Result<usize, usize> {
        self.0.binary_search_by_key(&peer, |&(r, _)| r)
    }

    /// `peer`'s count (0 without an entry).
    fn get(&self, peer: Rank) -> u32 {
        self.find(peer).map_or(0, |i| self.0[i].1)
    }

    /// `peer`'s counter, made at 0 if it has none.
    fn entry(&mut self, peer: Rank) -> &mut u32 {
        let i = self.find(peer).unwrap_or_else(|i| {
            self.0.insert(i, (peer, 0));
            i
        });
        &mut self.0[i].1
    }

    /// `peer`'s counter, if it has an entry.
    fn get_mut(&mut self, peer: Rank) -> Option<&mut u32> {
        let i = self.find(peer).ok()?;
        Some(&mut self.0[i].1)
    }

    /// Appends the counters to a digest: their number, then every
    /// `(rank, count)` pair in rank order.
    fn push_digest(&self, d: &mut Vec<u64>) {
        d.push(self.0.len() as u64);
        d.extend(
            self.0
                .iter()
                .flat_map(|&(r, c)| [u64::from(r), u64::from(c)]),
        );
    }
}

/// What a transfer keeps per block and per peer. The engine owns one
/// set and resets it as each transfer begins, so the vectors keep their
/// capacity and from a member's second message on its transfers
/// allocate nothing.
#[derive(Clone, Debug, Default)]
struct Buffers {
    /// Which blocks this member holds.
    have: Vec<bool>,
    /// Posted-but-uncompleted block sends, per target.
    sends_inflight: PeerCounts,
    /// Per in-peer: how many of its transfers we've granted readiness for.
    granted: PeerCounts,
    /// Per in-peer: how many of its transfers have arrived.
    recvd: PeerCounts,
}

impl Buffers {
    /// Holds the blocks `have` marks and no counts.
    fn reset(&mut self, have: impl IntoIterator<Item = bool>) {
        self.have.clear();
        self.have.extend(have);
        for counts in [&mut self.sends_inflight, &mut self.granted, &mut self.recvd] {
            counts.0.clear();
        }
    }
}

/// State of an in-progress message transfer at this member.
#[derive(Clone, Debug)]
struct ActiveTransfer {
    layout: MessageLayout,
    /// This member's slice, shared with the planner's cache (a resumed
    /// transfer wraps its own recovery schedule).
    sched: Arc<RankSchedule>,
    received_count: u32,
    /// Index of the next outgoing transfer to issue, in schedule order.
    out_idx: usize,
    total_inflight: u32,
    delivered: bool,
}

impl ActiveTransfer {
    /// A transfer with nothing yet sent or received in this epoch (the
    /// engine's [`Buffers`] say what it holds going in).
    fn new(layout: MessageLayout, sched: Arc<RankSchedule>, delivered: bool) -> Self {
        ActiveTransfer {
            layout,
            sched,
            received_count: 0,
            out_idx: 0,
            total_inflight: 0,
            delivered,
        }
    }
}

/// Packs a received-block bitmap 64 blocks per word, low bit first.
fn pack_bitmap(have: &[bool]) -> impl Iterator<Item = u64> + '_ {
    have.chunks(64).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0, |word, (i, &bit)| word | (u64::from(bit) << i))
    })
}

/// One group member's protocol state machine. See the module docs.
#[derive(Clone, Debug)]
pub struct GroupEngine {
    config: EngineConfig,
    active: Option<ActiveTransfer>,
    /// The active transfer's blocks and per-peer counters (stale while
    /// none is active).
    bufs: Buffers,
    /// Root only: sizes waiting to be sent after the current transfer.
    send_queue: VecDeque<u64>,
    /// Unconsumed readiness credits from each peer (they persist across
    /// message boundaries: a peer may grant its next-message credit while
    /// we are still finishing this one).
    credits: PeerCounts,
    /// This member's slice of the last schedule it planned: a run of
    /// same-shape messages asks the planner once.
    planned: Option<Arc<RankSchedule>>,
    /// Who sends this member its first block in the current epoch.
    first_sender: Option<Rank>,
    failed: BTreeSet<Rank>,
    wedged: bool,
    messages_completed: u64,
    /// Current configuration epoch (bumped by `install_epoch`).
    epoch: u64,
    /// Interrupted messages awaiting resumption in the current epoch,
    /// oldest first; drained before any newly queued send.
    pending_resumes: VecDeque<ResumeTransfer>,
    /// Flight recorder for protocol events; disabled (one branch per
    /// event) unless the driver attaches one. The engine is sans-IO and
    /// has no clock — the recorder's shared clock, kept current by the
    /// driver, timestamps its events.
    recorder: trace::Recorder,
    /// Where this engine's events are recorded (node/group/rank); the
    /// rank coordinate follows epoch renumbering.
    scope: trace::Scope,
}

impl GroupEngine {
    /// Creates the engine and returns its initial actions (a non-root
    /// member immediately grants its first-block sender one readiness
    /// credit so the transfer can start before the message size is known).
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration (zero sizes, rank out of
    /// range).
    pub fn new(config: EngineConfig) -> (Self, Vec<Action>) {
        assert!(config.num_nodes >= 1, "group needs at least one member");
        assert!(config.rank < config.num_nodes, "rank out of range");
        assert!(config.block_size > 0, "block size must be positive");
        assert!(config.ready_window >= 1, "ready window must be at least 1");
        assert!(
            config.max_outstanding_sends >= 1,
            "need at least one outstanding send"
        );
        let mut actions = Vec::new();
        let first_sender = config.planner.first_sender(config.num_nodes, config.rank);
        // The root's incoming transfers (if its schedule has any) are
        // granted when a send starts, not while idle.
        if config.rank != 0 {
            if let Some(first) = first_sender {
                actions.push(Action::SendReady { to: first });
            }
        }
        (
            GroupEngine {
                config,
                active: None,
                bufs: Buffers::default(),
                send_queue: VecDeque::new(),
                credits: PeerCounts::default(),
                planned: None,
                first_sender,
                failed: BTreeSet::new(),
                wedged: false,
                messages_completed: 0,
                epoch: 0,
                pending_resumes: VecDeque::new(),
                recorder: trace::Recorder::disabled(),
                scope: trace::Scope::none(),
            },
            actions,
        )
    }

    /// Attaches a flight recorder, labelling this engine's events with
    /// `scope`. The initial readiness credit returned by
    /// [`GroupEngine::new`] predates this call; a driver that wants it
    /// on the record must record it itself.
    pub fn set_recorder(&mut self, recorder: trace::Recorder, scope: trace::Scope) {
        self.recorder = recorder;
        self.scope = scope;
    }

    /// This member's rank (in the current epoch).
    pub fn rank(&self) -> Rank {
        self.config.rank
    }

    /// The current configuration epoch (0 until a reconfiguration).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when no transfer is active, none is queued, and no resume is
    /// pending.
    pub fn is_idle(&self) -> bool {
        self.active.is_none() && self.send_queue.is_empty() && self.pending_resumes.is_empty()
    }

    /// True once a failure has wedged the group (no further transfers).
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Peers known to have failed.
    pub fn failed_peers(&self) -> impl Iterator<Item = Rank> + '_ {
        self.failed.iter().copied()
    }

    /// Messages locally completed so far.
    pub fn messages_completed(&self) -> u64 {
        self.messages_completed
    }

    /// Root only: sizes of messages accepted but not yet begun (the
    /// membership layer uses this to tell "never started" from
    /// "interrupted" at a wedge).
    pub fn queued_sizes(&self) -> impl Iterator<Item = u64> + '_ {
        self.send_queue.iter().copied()
    }

    /// Every message this member has begun but not fully finished with —
    /// the active transfer followed by any still-pending resumes, oldest
    /// first. Messages whose `delivered` flag is set were handed to the
    /// application before the wedge but may still owe relays to peers.
    pub fn incomplete_transfers(&self) -> Vec<TransferStatus> {
        let mut out = Vec::new();
        if let Some(t) = &self.active {
            out.push(TransferStatus {
                total_size: t.layout.size,
                have: self.bufs.have.clone(),
                delivered: t.delivered,
            });
        }
        for r in &self.pending_resumes {
            out.push(TransferStatus {
                total_size: r.total_size,
                have: r.have.clone(),
                delivered: r.already_delivered,
            });
        }
        out
    }

    /// Installs a new configuration epoch on a wedged member: adopts the
    /// surviving membership (`rank` / `num_nodes` are in new-epoch
    /// numbering), clears the failure state, and begins working through
    /// the resume plans — then any still-queued sends. Returns the
    /// actions to perform, exactly like [`GroupEngine::handle`].
    ///
    /// The caller (membership layer) must install compatible epochs on
    /// every survivor: same epoch number, same message list, schedules
    /// drawn from one global resume plan.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not wedged, the epoch does not advance,
    /// the new shape is nonsensical, or a resume's bitmap disagrees with
    /// its schedule's block count.
    pub fn install_epoch(&mut self, install: EpochInstall) -> Vec<Action> {
        assert!(self.wedged, "install_epoch requires a wedged engine");
        assert!(install.epoch > self.epoch, "epoch must advance");
        assert!(install.num_nodes >= 1, "new epoch needs members");
        assert!(install.rank < install.num_nodes, "new rank out of range");
        for r in &install.resumes {
            let layout = MessageLayout::new(r.total_size, self.config.block_size);
            assert_eq!(
                r.have.len(),
                layout.num_blocks as usize,
                "resume bitmap length disagrees with the block count"
            );
        }
        self.epoch = install.epoch;
        self.config.rank = install.rank;
        self.config.num_nodes = install.num_nodes;
        self.first_sender = self
            .config
            .planner
            .first_sender(install.num_nodes, install.rank);
        if self.scope.rank.is_some() {
            self.scope.rank = Some(install.rank);
        }
        if self.recorder.is_enabled() {
            let resume_blocks_out: u32 = install
                .resumes
                .iter()
                .map(|r| r.sched.outgoing().len() as u32)
                .sum();
            let (epoch, rank, num_nodes) = (install.epoch, install.rank, install.num_nodes);
            let resumes = install.resumes.len() as u32;
            self.recorder
                .record(self.scope, || trace::EventKind::EpochInstalled {
                    epoch,
                    rank,
                    num_nodes,
                    resumes,
                    resume_blocks_out,
                });
        }
        self.failed.clear();
        self.wedged = false;
        // Old-epoch credits and the interrupted transfer die with the old
        // connections; resumes restate everything in new-epoch terms.
        self.credits.0.clear();
        self.active = None;
        self.pending_resumes = install.resumes.into();
        if self.config.rank != 0 {
            // Queued sends belong to the root; a member that is no longer
            // rank 0 can never multicast them.
            self.send_queue.clear();
        }
        let mut actions = Vec::new();
        self.begin_next_work(&mut actions);
        actions
    }

    /// Starts the next unit of work: the oldest pending resume if any,
    /// else (root) the next queued send, else re-arm the idle credit.
    fn begin_next_work(&mut self, actions: &mut Vec<Action>) {
        if let Some(resume) = self.pending_resumes.pop_front() {
            self.begin_resume(resume, actions);
            return;
        }
        if self.config.rank == 0 {
            self.begin_next_send(actions);
        } else if let Some(first) = self.first_sender {
            // Re-grant the idle-state credit for the next message.
            self.recorder
                .record(self.scope, || trace::EventKind::ReadyGranted { to: first });
            actions.push(Action::SendReady { to: first });
        }
    }

    /// Activates one resume plan: the message continues from this
    /// member's old-epoch bitmap under the freshly built schedule.
    fn begin_resume(&mut self, resume: ResumeTransfer, actions: &mut Vec<Action>) {
        let layout = MessageLayout::new(resume.total_size, self.config.block_size);
        self.recorder
            .record(self.scope, || trace::EventKind::ResumeStarted {
                size: resume.total_size,
                blocks: layout.num_blocks,
                held: resume
                    .have
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &h)| h.then_some(i as u32))
                    .collect(),
                already_delivered: resume.already_delivered,
            });
        if !resume.already_delivered && resume.have.contains(&false) {
            // The buffer from the old epoch survives at this member in
            // real deployments; our drivers re-allocate, so surface the
            // allocation cost again only when blocks are still missing.
            actions.push(Action::AllocateBuffer {
                size: resume.total_size,
            });
            self.recorder
                .record(self.scope, || trace::EventKind::BufferRequested {
                    size: resume.total_size,
                });
        }
        self.bufs.reset(resume.have.iter().copied());
        self.active = Some(ActiveTransfer::new(
            layout,
            Arc::new(resume.sched),
            resume.already_delivered,
        ));
        self.top_up_grants(None, actions);
        self.try_issue_send(actions);
        self.try_complete(actions);
    }

    /// Canonical encoding of the protocol-visible state, for state-space
    /// exploration (two engines with equal digests behave identically on
    /// every future event sequence). The encoding covers the credit map,
    /// failure set, queued sends, and — when a transfer is active — the
    /// received-block bitmap, outgoing progress, in-flight sends, and the
    /// per-peer grant/arrival counters.
    pub fn state_digest(&self) -> Vec<u64> {
        let mut d = Vec::new();
        d.push(self.epoch);
        d.push(self.pending_resumes.len() as u64);
        for r in &self.pending_resumes {
            d.push(r.total_size);
            d.push(u64::from(r.already_delivered));
            d.extend(pack_bitmap(&r.have));
        }
        d.push(u64::from(self.wedged));
        d.push(self.messages_completed);
        self.credits.push_digest(&mut d);
        d.push(self.failed.len() as u64);
        d.extend(self.failed.iter().map(|&r| u64::from(r)));
        d.push(self.send_queue.len() as u64);
        d.extend(self.send_queue.iter().copied());
        match &self.active {
            None => d.push(0),
            Some(t) => {
                d.push(1);
                d.push(t.layout.size);
                d.push(t.out_idx as u64);
                d.push(u64::from(t.total_inflight));
                d.push(u64::from(t.delivered));
                d.extend(pack_bitmap(&self.bufs.have));
                self.bufs.sends_inflight.push_digest(&mut d);
                self.bufs.granted.push_digest(&mut d);
                self.bufs.recvd.push_digest(&mut d);
            }
        }
        d
    }

    /// Feeds one event to the engine, returning the actions the driver
    /// must perform (in order).
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] on protocol violations; the engine's
    /// state is unspecified afterwards and the group should be destroyed.
    pub fn handle(&mut self, event: Event) -> Result<Vec<Action>, EngineError> {
        let mut actions = Vec::new();
        self.handle_into(event, &mut actions)?;
        Ok(actions)
    }

    /// Like [`GroupEngine::handle`], but appends the resulting actions to
    /// a caller-owned buffer instead of allocating a fresh `Vec` per event
    /// — the hot path for drivers feeding thousands of events per virtual
    /// millisecond. Actions already in `out` are left untouched.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] on protocol violations; the engine's
    /// state is unspecified afterwards and the group should be destroyed.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) -> Result<(), EngineError> {
        let actions = out;
        match event {
            Event::StartSend { size } => {
                if self.config.rank != 0 {
                    return Err(EngineError::NotRoot {
                        rank: self.config.rank,
                    });
                }
                self.recorder
                    .record(self.scope, || trace::EventKind::MessageSubmitted { size });
                // A wedged group transmits nothing, but the message is
                // accepted: it goes out in the next epoch if this member
                // remains the root (§3 property 4 ordering is preserved
                // across the reconfiguration).
                self.send_queue.push_back(size);
                if !self.wedged && self.active.is_none() {
                    self.begin_next_send(actions);
                }
            }
            Event::BlockReceived { from, total_size } => {
                if self.wedged {
                    return Ok(());
                }
                let first = self.active.is_none();
                if first {
                    self.begin_receive(total_size, actions);
                }
                let t = self.active.as_mut().expect("just initialised");
                if t.layout.size != total_size {
                    return Err(EngineError::SizeMismatch {
                        expected: t.layout.size,
                        got: total_size,
                    });
                }
                // Derive which block this is from the schedule and the
                // per-connection FIFO arrival order.
                let expected = t
                    .sched
                    .incoming_from(from)
                    .get(self.bufs.recvd.get(from) as usize)
                    .copied();
                let Some((step, block)) = expected else {
                    return Err(EngineError::UnexpectedArrival { from });
                };
                *self.bufs.recvd.entry(from) += 1;
                t.received_count += 1;
                self.bufs.have[block as usize] = true;
                let epoch = self.epoch;
                self.recorder
                    .record(self.scope, || trace::EventKind::BlockArrived {
                        from,
                        block,
                        step,
                        first,
                        epoch,
                    });
                self.top_up_grants(Some(from), actions);
                self.try_issue_send(actions);
                self.try_complete(actions);
            }
            Event::ReadyReceived { from } => {
                *self.credits.entry(from) += 1;
                self.recorder
                    .record(self.scope, || trace::EventKind::ReadyHeard { from });
                if self.wedged {
                    return Ok(());
                }
                self.try_issue_send(actions);
                self.try_complete(actions);
            }
            Event::SendCompleted { to } => {
                let Some(t) = self.active.as_mut() else {
                    return Err(EngineError::UnexpectedSendCompletion { to });
                };
                match self.bufs.sends_inflight.get_mut(to) {
                    Some(c) if *c > 0 => {
                        *c -= 1;
                        t.total_inflight -= 1;
                    }
                    _ => return Err(EngineError::UnexpectedSendCompletion { to }),
                }
                self.recorder
                    .record(self.scope, || trace::EventKind::BlockSendCompleted { to });
                if self.wedged {
                    return Ok(());
                }
                self.try_issue_send(actions);
                self.try_complete(actions);
            }
            Event::PeerFailed { rank } => {
                if self.failed.insert(rank) {
                    self.wedged = true;
                    self.recorder
                        .record(self.scope, || trace::EventKind::Wedged { failed: rank });
                    actions.push(Action::RelayFailure { failed: rank });
                }
            }
        }
        Ok(())
    }

    /// The layout of a `size`-byte message and this member's slice of
    /// its schedule in the current epoch.
    fn plan(&mut self, size: u64) -> (MessageLayout, Arc<RankSchedule>) {
        let c = &self.config;
        let layout = MessageLayout::new(size, c.block_size);
        let k = layout.num_blocks;
        let sched = match &self.planned {
            Some(s) if (s.num_nodes(), s.num_blocks(), s.rank()) == (c.num_nodes, k, c.rank) => {
                Arc::clone(s)
            }
            _ => {
                let sched = c.planner.rank_schedule(c.num_nodes, k, c.rank);
                self.planned = Some(Arc::clone(&sched));
                sched
            }
        };
        (layout, sched)
    }

    /// Root: pop the next queued message and begin its transfer.
    fn begin_next_send(&mut self, actions: &mut Vec<Action>) {
        let Some(size) = self.send_queue.pop_front() else {
            return;
        };
        let (layout, sched) = self.plan(size);
        let k = layout.num_blocks;
        self.recorder
            .record(self.scope, || trace::EventKind::TransferStarted {
                size,
                blocks: k,
                root: true,
            });
        self.bufs.reset(std::iter::repeat_n(true, k as usize));
        self.active = Some(ActiveTransfer::new(layout, sched, false));
        // Some non-RDMC schedules (e.g. the MPI-style scatter/allgather
        // baseline) route blocks back through the root; grant readiness
        // for any incoming transfers it has.
        self.top_up_grants(None, actions);
        self.try_issue_send(actions);
        self.try_complete(actions);
    }

    /// Receiver: the first block of a message arrived — size now known.
    fn begin_receive(&mut self, total_size: u64, actions: &mut Vec<Action>) {
        let (layout, sched) = self.plan(total_size);
        actions.push(Action::AllocateBuffer { size: total_size });
        let k = layout.num_blocks;
        self.recorder
            .record(self.scope, || trace::EventKind::TransferStarted {
                size: total_size,
                blocks: k,
                root: false,
            });
        self.recorder
            .record(self.scope, || trace::EventKind::BufferRequested {
                size: total_size,
            });
        self.bufs.reset(std::iter::repeat_n(false, k as usize));
        if let Some(first) = self.first_sender {
            // The idle-state credit issued at construction / last
            // completion counts toward this message.
            *self.bufs.granted.entry(first) = 1;
        }
        self.active = Some(ActiveTransfer::new(layout, sched, false));
        self.top_up_grants(None, actions);
    }

    /// Grants readiness credits up to the window for one peer (or all).
    fn top_up_grants(&mut self, only: Option<Rank>, actions: &mut Vec<Action>) {
        let Some(t) = self.active.as_mut() else {
            return;
        };
        let window = self.config.ready_window;
        let (one, all) = match only {
            Some(p) => (Some(p), None),
            None => (None, Some(t.sched.in_peers())),
        };
        for peer in one.into_iter().chain(all.into_iter().flatten()) {
            let total = t.sched.incoming_from(peer).len() as u32;
            let recvd = self.bufs.recvd.get(peer);
            let granted = self.bufs.granted.entry(peer);
            let target = total.min(recvd + window);
            while *granted < target {
                *granted += 1;
                self.recorder
                    .record(self.scope, || trace::EventKind::ReadyGranted { to: peer });
                actions.push(Action::SendReady { to: peer });
            }
        }
    }

    /// Issues the next outgoing transfer if its block is here, the target
    /// granted a credit, and no send is in flight.
    fn try_issue_send(&mut self, actions: &mut Vec<Action>) {
        let Some(t) = self.active.as_mut() else {
            return;
        };
        let max_outstanding = self.config.max_outstanding_sends;
        loop {
            if t.total_inflight >= max_outstanding || t.out_idx >= t.sched.outgoing().len() {
                return;
            }
            let (step, transfer) = t.sched.outgoing()[t.out_idx];
            if self.failed.contains(&transfer.peer) {
                // Never send to the dead; the group is wedging anyway.
                return;
            }
            if !self.bufs.have[transfer.block as usize] {
                return; // strictly in schedule order: wait for the block
            }
            let credit = self.credits.entry(transfer.peer);
            if *credit == 0 {
                return; // target not ready yet (§4.2 ready-for-block)
            }
            *credit -= 1;
            t.out_idx += 1;
            *self.bufs.sends_inflight.entry(transfer.peer) += 1;
            t.total_inflight += 1;
            let (bytes, epoch) = (t.layout.block_bytes(transfer.block), self.epoch);
            self.recorder
                .record(self.scope, || trace::EventKind::BlockSendIssued {
                    to: transfer.peer,
                    block: transfer.block,
                    step,
                    bytes,
                    epoch,
                });
            actions.push(Action::SendBlock {
                to: transfer.peer,
                block: transfer.block,
                offset: t.layout.block_offset(transfer.block),
                bytes: t.layout.block_bytes(transfer.block),
                total_size: t.layout.size,
            });
        }
    }

    /// Delivers the message (unless it already was, pre-wedge) and
    /// returns to the next unit of work once all receives and relays are
    /// done.
    fn try_complete(&mut self, actions: &mut Vec<Action>) {
        let Some(t) = self.active.as_mut() else {
            return;
        };
        let all_received = t.received_count == t.sched.in_count();
        let all_sent = t.out_idx >= t.sched.outgoing().len() && t.total_inflight == 0;
        if !(all_received && all_sent) {
            return;
        }
        if !t.delivered {
            t.delivered = true;
            let size = t.layout.size;
            self.recorder
                .record(self.scope, || trace::EventKind::Delivered { size });
            actions.push(Action::DeliverMessage { size });
            self.messages_completed += 1;
        }
        self.active = None;
        self.begin_next_work(actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{GlobalSchedule, GlobalTransfer};
    use crate::Algorithm;
    use std::collections::{BTreeMap, VecDeque};

    fn engine(rank: Rank, n: u32) -> (GroupEngine, Vec<Action>) {
        GroupEngine::new(EngineConfig {
            rank,
            num_nodes: n,
            block_size: 1024,
            ready_window: 2,
            max_outstanding_sends: 2,
            planner: Arc::new(SchedulePlanner::new(Algorithm::BinomialPipeline)),
        })
    }

    #[test]
    fn non_root_send_is_rejected() {
        let (mut e, _) = engine(3, 4);
        let err = e.handle(Event::StartSend { size: 10 }).unwrap_err();
        assert_eq!(err.to_string(), "rank 3 is not the root and cannot send");
    }

    #[test]
    fn receivers_pre_grant_their_first_credit() {
        let (_, actions) = engine(3, 4);
        assert_eq!(actions, vec![Action::SendReady { to: 1 }]);
        let (_, actions) = engine(0, 4);
        assert!(actions.is_empty(), "the root grants nothing while idle");
    }

    #[test]
    fn start_send_waits_for_credit_then_fires() {
        let (mut e, _) = engine(0, 2);
        assert!(e
            .handle(Event::StartSend { size: 2000 })
            .unwrap()
            .is_empty());
        let actions = e.handle(Event::ReadyReceived { from: 1 }).unwrap();
        assert!(matches!(
            actions[0],
            Action::SendBlock {
                to: 1,
                block: 0,
                bytes: 1024,
                ..
            }
        ));
    }

    #[test]
    fn size_mismatch_is_a_protocol_error() {
        let (mut e, _) = engine(1, 2);
        e.handle(Event::BlockReceived {
            from: 0,
            total_size: 2048,
        })
        .unwrap();
        let err = e
            .handle(Event::BlockReceived {
                from: 0,
                total_size: 4096,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::SizeMismatch {
                expected: 2048,
                got: 4096
            }
        ));
    }

    #[test]
    fn arrival_from_an_unscheduled_peer_is_an_error() {
        // In a 4-member binomial pipeline, rank 1's first block comes from
        // the root; rank 2 never sends to rank 1's first position.
        let (mut e, _) = engine(1, 4);
        let err = e
            .handle(Event::BlockReceived {
                from: 2,
                total_size: 100,
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::UnexpectedArrival { from: 2 }));
    }

    #[test]
    fn stray_send_completion_is_an_error() {
        let (mut e, _) = engine(0, 2);
        let err = e.handle(Event::SendCompleted { to: 1 }).unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnexpectedSendCompletion { to: 1 }
        ));
        assert_eq!(err.to_string(), "no send in flight to rank 1");
    }

    #[test]
    fn wedged_engine_ignores_traffic_but_reports_failures_once() {
        let (mut e, _) = engine(1, 4);
        let actions = e.handle(Event::PeerFailed { rank: 2 }).unwrap();
        assert_eq!(actions, vec![Action::RelayFailure { failed: 2 }]);
        // Duplicate notice: no second relay.
        assert!(e.handle(Event::PeerFailed { rank: 2 }).unwrap().is_empty());
        // A second distinct failure is relayed.
        let actions = e.handle(Event::PeerFailed { rank: 3 }).unwrap();
        assert_eq!(actions, vec![Action::RelayFailure { failed: 3 }]);
        assert!(e.is_wedged());
        assert_eq!(e.failed_peers().collect::<Vec<_>>(), vec![2, 3]);
        // Incoming blocks are dropped silently.
        assert!(e
            .handle(Event::BlockReceived {
                from: 0,
                total_size: 10
            })
            .unwrap()
            .is_empty());
    }

    #[test]
    fn max_outstanding_limits_posted_sends() {
        // Sequential: the root owes 4 sends to rank 1 for a 4-block
        // message; with 2 outstanding and 4 credits, exactly 2 post.
        let (mut e, _) = GroupEngine::new(EngineConfig {
            rank: 0,
            num_nodes: 2,
            block_size: 1024,
            ready_window: 4,
            max_outstanding_sends: 2,
            planner: Arc::new(SchedulePlanner::new(Algorithm::Sequential)),
        });
        e.handle(Event::StartSend { size: 4096 }).unwrap();
        let mut posted = 0;
        for _ in 0..4 {
            posted += e
                .handle(Event::ReadyReceived { from: 1 })
                .unwrap()
                .iter()
                .filter(|a| matches!(a, Action::SendBlock { .. }))
                .count();
        }
        assert_eq!(posted, 2, "window must cap outstanding sends");
        // A completion frees a slot: one more posts.
        let actions = e.handle(Event::SendCompleted { to: 1 }).unwrap();
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::SendBlock { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn singleton_group_delivers_to_itself() {
        let (mut e, _) = engine(0, 1);
        let actions = e.handle(Event::StartSend { size: 10 }).unwrap();
        assert!(actions.contains(&Action::DeliverMessage { size: 10 }));
        assert!(e.is_idle());
        assert_eq!(e.messages_completed(), 1);
    }

    /// One member's slice of a hand-built resume schedule.
    fn resume_sched(n: u32, k: u32, steps: Vec<Vec<GlobalTransfer>>, rank: Rank) -> RankSchedule {
        GlobalSchedule::from_custom_steps("resume", n, k, steps).for_rank(rank)
    }

    #[test]
    fn wedge_then_resume_retransmits_only_missing_blocks() {
        // Rank 1 of a 3-member group receives one block of a 3-block
        // message, then learns rank 2 died (mid-transfer failure).
        let (mut e, _) = engine(1, 3);
        let planner = Arc::new(SchedulePlanner::new(Algorithm::BinomialPipeline));
        let first = planner.first_sender(3, 1).expect("rank 1 receives");
        let got_block = planner.plan(3, 3).for_rank(1).incoming_from(first)[0].1;
        e.handle(Event::BlockReceived {
            from: first,
            total_size: 3072,
        })
        .unwrap();
        e.handle(Event::PeerFailed { rank: 2 }).unwrap();
        assert!(e.is_wedged());
        // The wedge-time bitmap is exported for the membership layer.
        let have = e.incomplete_transfers()[0].have.clone();
        assert_eq!(have.iter().filter(|&&h| h).count(), 1);
        assert!(have[got_block as usize]);
        // Survivors {0, 1} renumber to {0, 1}; the resume schedule sends
        // rank 1 exactly its two missing blocks, nothing else.
        let missing: Vec<u32> = (0..3).filter(|&b| !have[b as usize]).collect();
        let steps: Vec<Vec<GlobalTransfer>> = missing
            .iter()
            .map(|&b| {
                vec![GlobalTransfer {
                    from: 0,
                    to: 1,
                    block: b,
                }]
            })
            .collect();
        let actions = e.install_epoch(EpochInstall {
            epoch: 1,
            rank: 1,
            num_nodes: 2,
            resumes: vec![ResumeTransfer {
                total_size: 3072,
                sched: resume_sched(2, 3, steps, 1),
                have,
                already_delivered: false,
            }],
        });
        assert!(!e.is_wedged());
        assert_eq!(e.epoch(), 1);
        // The resume grants readiness for both missing blocks up front.
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::SendReady { to: 0 }))
                .count(),
            2
        );
        let a = e.handle(Event::BlockReceived {
            from: 0,
            total_size: 3072,
        });
        assert!(a
            .unwrap()
            .iter()
            .all(|x| !matches!(x, Action::DeliverMessage { .. })));
        let a = e
            .handle(Event::BlockReceived {
                from: 0,
                total_size: 3072,
            })
            .unwrap();
        assert!(a.contains(&Action::DeliverMessage { size: 3072 }));
        assert!(e.is_idle());
        assert_eq!(e.messages_completed(), 1);
    }

    #[test]
    fn resume_after_sender_failure_relays_held_blocks() {
        // The current sender (old rank 0) dies mid-transfer; old rank 1
        // holds block 0 and becomes new rank 0. The resume plan has it
        // forward block 0 while fetching blocks 1-2 from new rank 1.
        let (mut e, _) = engine(1, 3);
        let planner = Arc::new(SchedulePlanner::new(Algorithm::BinomialPipeline));
        let first = planner.first_sender(3, 1).expect("rank 1 receives");
        e.handle(Event::BlockReceived {
            from: first,
            total_size: 3072,
        })
        .unwrap();
        let have = e.incomplete_transfers()[0].have.clone();
        let held: Vec<u32> = (0..3).filter(|&b| have[b as usize]).collect();
        assert_eq!(held.len(), 1);
        e.handle(Event::PeerFailed { rank: 0 }).unwrap();
        let missing: Vec<u32> = (0..3).filter(|&b| !have[b as usize]).collect();
        let mut steps = vec![vec![GlobalTransfer {
            from: 0,
            to: 1,
            block: held[0],
        }]];
        for &b in &missing {
            steps.push(vec![GlobalTransfer {
                from: 1,
                to: 0,
                block: b,
            }]);
        }
        let actions = e.install_epoch(EpochInstall {
            epoch: 1,
            rank: 0,
            num_nodes: 2,
            resumes: vec![ResumeTransfer {
                total_size: 3072,
                sched: resume_sched(2, 3, steps, 0),
                have,
                already_delivered: false,
            }],
        });
        // It grants readiness for its two missing blocks...
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::SendReady { to: 1 }))
                .count(),
            2
        );
        // ...and once the peer is ready, forwards the block it held.
        let a = e.handle(Event::ReadyReceived { from: 1 }).unwrap();
        assert!(a.iter().any(|x| matches!(
            x,
            Action::SendBlock { to: 1, block, .. } if *block == held[0]
        )));
        e.handle(Event::BlockReceived {
            from: 1,
            total_size: 3072,
        })
        .unwrap();
        // All blocks in, but the outgoing relay is still in flight:
        // delivery (and idling) wait for its completion.
        let a = e
            .handle(Event::BlockReceived {
                from: 1,
                total_size: 3072,
            })
            .unwrap();
        assert!(!a.contains(&Action::DeliverMessage { size: 3072 }));
        let a = e.handle(Event::SendCompleted { to: 1 }).unwrap();
        assert!(a.contains(&Action::DeliverMessage { size: 3072 }));
        assert!(e.is_idle());
    }

    #[test]
    fn already_delivered_member_reseeds_without_double_delivery() {
        let (mut e, _) = engine(1, 3);
        e.handle(Event::PeerFailed { rank: 2 }).unwrap();
        let steps = vec![vec![GlobalTransfer {
            from: 0,
            to: 1,
            block: 0,
        }]];
        // New rank 0 already delivered the 1-block message pre-wedge; it
        // only re-seeds new rank 1.
        let actions = e.install_epoch(EpochInstall {
            epoch: 1,
            rank: 0,
            num_nodes: 2,
            resumes: vec![ResumeTransfer {
                total_size: 1024,
                sched: resume_sched(2, 1, steps, 0),
                have: vec![true],
                already_delivered: true,
            }],
        });
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                Action::DeliverMessage { .. } | Action::AllocateBuffer { .. }
            )),
            "a delivered message must not deliver or allocate again"
        );
        let a = e.handle(Event::ReadyReceived { from: 1 }).unwrap();
        assert!(a.iter().any(|x| matches!(
            x,
            Action::SendBlock {
                to: 1,
                block: 0,
                ..
            }
        )));
        let a = e.handle(Event::SendCompleted { to: 1 }).unwrap();
        assert!(!a.contains(&Action::DeliverMessage { size: 1024 }));
        assert!(e.is_idle());
        assert_eq!(e.messages_completed(), 0, "counted in the old epoch");
    }

    #[test]
    fn wedged_start_send_queues_for_the_next_epoch() {
        let (mut e, _) = engine(0, 2);
        e.handle(Event::PeerFailed { rank: 1 }).unwrap();
        assert!(e.handle(Event::StartSend { size: 500 }).unwrap().is_empty());
        assert_eq!(e.queued_sizes().collect::<Vec<_>>(), vec![500]);
        // Sole survivor: the new epoch is a singleton group, and the
        // queued message delivers to itself immediately.
        let actions = e.install_epoch(EpochInstall {
            epoch: 1,
            rank: 0,
            num_nodes: 1,
            resumes: Vec::new(),
        });
        assert!(actions.contains(&Action::DeliverMessage { size: 500 }));
        assert!(e.is_idle());
        assert_eq!(e.epoch(), 1);
    }

    #[test]
    fn incomplete_transfers_snapshot_active_and_pending() {
        let (mut e, _) = engine(1, 2);
        e.handle(Event::BlockReceived {
            from: 0,
            total_size: 2048,
        })
        .unwrap();
        e.handle(Event::PeerFailed { rank: 0 }).unwrap();
        let snap = e.incomplete_transfers();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].total_size, 2048);
        assert_eq!(snap[0].have, vec![true, false]);
        assert!(!snap[0].delivered);
    }

    #[test]
    fn queued_sends_start_in_order_after_completion() {
        let (mut e, _) = engine(0, 2);
        e.handle(Event::StartSend { size: 100 }).unwrap();
        e.handle(Event::StartSend { size: 200 }).unwrap();
        // First message: one block.
        let a = e.handle(Event::ReadyReceived { from: 1 }).unwrap();
        assert!(matches!(
            a[0],
            Action::SendBlock {
                total_size: 100,
                ..
            }
        ));
        let a = e.handle(Event::SendCompleted { to: 1 }).unwrap();
        // Delivery of msg 1 chains into msg 2 (still needing a credit).
        assert!(a.contains(&Action::DeliverMessage { size: 100 }));
        let a = e.handle(Event::ReadyReceived { from: 1 }).unwrap();
        assert!(matches!(
            a[0],
            Action::SendBlock {
                total_size: 200,
                ..
            }
        ));
    }

    /// A seeded walk of one group over an in-memory wire: each engine's
    /// actions become its peers' events, queued FIFO per (kind, sender,
    /// receiver) channel, and a seeded generator picks which channel
    /// moves next. `visit` sees every engine after every event.
    fn walk(
        algorithm: Algorithm,
        n: u32,
        sizes: &[u64],
        seed: u64,
        mut visit: impl FnMut(Rank, &GroupEngine),
    ) {
        type Channels = BTreeMap<(u8, Rank, Rank), VecDeque<(Rank, Event)>>;
        fn post(channels: &mut Channels, me: Rank, actions: Vec<Action>) {
            for action in actions {
                let (key, to, event) = match action {
                    Action::SendReady { to } => {
                        ((0, me, to), to, Event::ReadyReceived { from: me })
                    }
                    Action::SendBlock { to, total_size, .. } => {
                        let done = Event::SendCompleted { to };
                        channels
                            .entry((2, me, to))
                            .or_default()
                            .push_back((me, done));
                        let block = Event::BlockReceived {
                            from: me,
                            total_size,
                        };
                        ((1, me, to), to, block)
                    }
                    _ => continue,
                };
                channels.entry(key).or_default().push_back((to, event));
            }
        }
        let planner = Arc::new(SchedulePlanner::new(algorithm));
        let mut channels = Channels::new();
        let mut engines: Vec<GroupEngine> = (0..n)
            .map(|rank| {
                let (e, actions) = GroupEngine::new(EngineConfig {
                    rank,
                    num_nodes: n,
                    block_size: 1024,
                    ready_window: 2,
                    max_outstanding_sends: 2,
                    planner: Arc::clone(&planner),
                });
                post(&mut channels, rank, actions);
                e
            })
            .collect();
        for &size in sizes {
            let actions = engines[0].handle(Event::StartSend { size }).unwrap();
            post(&mut channels, 0, actions);
        }
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (rng ^ (rng >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        loop {
            let live: Vec<_> = channels
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(k, _)| *k)
                .collect();
            if live.is_empty() {
                break;
            }
            let key = live[(next() % live.len() as u64) as usize];
            let (to, event) = channels.get_mut(&key).unwrap().pop_front().unwrap();
            let actions = engines[to as usize].handle(event).unwrap();
            post(&mut channels, to, actions);
            for (rank, e) in engines.iter().enumerate() {
                visit(rank as Rank, e);
            }
        }
        for e in &engines {
            assert_eq!(e.messages_completed(), sizes.len() as u64);
            assert!(e.is_idle());
        }
    }

    /// `state_digest` is the encoding the per-peer counters had as
    /// `BTreeMap`s: over seeded walks of four schedule families, every
    /// engine's digest after every event hashes to the stream that
    /// encoding gave (pinned), and every counter set is a map's entries:
    /// strictly ascending ranks, zero counts kept.
    #[test]
    fn state_digest_matches_the_btreemap_encoding_over_seeded_walks() {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let families = [
            Algorithm::BinomialPipeline,
            Algorithm::Sequential,
            Algorithm::Chain,
            Algorithm::BinomialTree,
        ];
        for (f, algorithm) in families.into_iter().enumerate() {
            for seed in 0..6 {
                let sizes: Vec<u64> = (0..5)
                    .map(|m| 1 + (seed * 7 + m * 1500 + f as u64 * 300) % 5000)
                    .collect();
                walk(algorithm.clone(), 6, &sizes, seed, |_, e| {
                    let mut counts = vec![&e.credits];
                    if e.active.is_some() {
                        let b = &e.bufs;
                        counts.extend([&b.sends_inflight, &b.granted, &b.recvd]);
                    }
                    for c in counts {
                        let map: BTreeMap<_, _> = c.0.iter().copied().collect();
                        assert!(map.into_iter().eq(c.0.iter().copied()), "{c:?}");
                    }
                    for word in e.state_digest() {
                        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                });
            }
        }
        assert_eq!(hash, 0x4a2f_da5a_66da_ec64, "the digest stream moved");
    }

    /// From its second message on, a member's transfers run in the
    /// buffers its first one grew: a steady run of same-shape messages
    /// reallocates no bitmap and no per-peer counter, at any member.
    #[test]
    fn transfer_buffers_keep_their_addresses_from_the_second_message_on() {
        for algorithm in [Algorithm::BinomialPipeline, Algorithm::Sequential] {
            let mut seen: BTreeMap<Rank, [*const (); 4]> = BTreeMap::new();
            walk(algorithm, 5, &[4096; 6], 3, |rank, e| {
                if e.active.is_none() || e.messages_completed() == 0 {
                    return;
                }
                let b = &e.bufs;
                let at = [
                    b.have.as_ptr().cast(),
                    b.sends_inflight.0.as_ptr().cast(),
                    b.granted.0.as_ptr().cast(),
                    b.recvd.0.as_ptr().cast(),
                ];
                let first = seen.entry(rank).or_insert(at);
                assert_eq!(*first, at, "rank {rank}: a buffer moved");
            });
            assert_eq!(seen.len(), 5, "every member ran a second message");
        }
    }
}
