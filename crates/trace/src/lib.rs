//! # trace — the flight recorder
//!
//! A structured event recorder threaded through every layer of the
//! reproduction: the flow network (`simnet`), the simulated verbs
//! fabric (`verbs`), the sans-IO protocol engine (`rdmc`), and the
//! simulation driver (`rdmc-sim`). The paper's evaluation (§5) explains
//! every result in per-block terms — which step a block moved at, who
//! stalled waiting on whom — and this crate is the substrate that makes
//! those explanations reproducible from inside the system:
//!
//! - [`Recorder`] — a cheap-clone handle that is **zero-cost when
//!   disabled**: every instrumentation point is a single branch on an
//!   `Option<Arc<_>>`, and the event payload is built inside a closure
//!   that never runs unless recording is on. An enabled recorder keeps
//!   every event, which is what the trace oracle and the exporters
//!   need.
//! - [`TraceEvent`] / [`EventKind`] — the event taxonomy, spanning flow
//!   starts and rate changes, verb posts/completions/RNR arms/flushes,
//!   protocol steps (block send/receive, credit grants, wedge/resume),
//!   and membership epidemics/reconfigurations. Each kind is declared
//!   once, with its fields and its wire name ([`EventKind::name`]);
//!   the exporters read both from that declaration.
//! - [`export`] — deterministic JSONL and Chrome `trace_event`
//!   exporters (load the latter in `chrome://tracing` or Perfetto).
//! - [`stall`] — critical-path stall attribution: classifies every
//!   nanosecond between submit and the last delivery as ideal transfer
//!   time, link-limited, sender-limited, receiver-limited (credit /
//!   posting order), or schedule-idle. The classes **sum exactly** to
//!   the end-to-end latency by construction. For multi-tenant runs,
//!   [`stall::rollup_by_group`] aggregates every block send in the
//!   trace into a per-group split of ideal transfer time, admission
//!   (sender-limited) wait, and link contention.
//! - [`check`] — the event half of the trace oracle: replays a captured
//!   trace against the protocol's event rules (no block received before
//!   sent, delivery completeness, no RNR arms, redelivery, atomic
//!   order). The schedule half (causality, port budgets, step bounds,
//!   the run executed its plan) is `rdmc::schedule::check_trace`.
//! - [`replay`] — recomputes engine-reported results (delivery times,
//!   resumed-block counts) from the trace alone, for differential
//!   testing.
//!
//! The recorder carries its own nanosecond clock (an atomic the driver
//! keeps current), because the protocol engine is sans-IO and owns no
//! clock of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod export;
pub mod replay;
pub mod stall;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where an event happened: a fabric node, a (group, rank), both, or
/// neither (network-level events). Absent coordinates are `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Scope {
    /// Fabric node index, when known.
    pub node: Option<u32>,
    /// Group id, for protocol-level events.
    pub group: Option<u32>,
    /// Member rank within the group (current-epoch numbering).
    pub rank: Option<u32>,
}

impl Scope {
    /// An event with no location (e.g. a flow-network event).
    pub const fn none() -> Self {
        Scope {
            node: None,
            group: None,
            rank: None,
        }
    }

    /// An event at a fabric node.
    pub const fn node(node: u32) -> Self {
        Scope {
            node: Some(node),
            group: None,
            rank: None,
        }
    }

    /// An event at one group member.
    pub const fn group_rank(group: u32, rank: u32) -> Self {
        Scope {
            node: None,
            group: Some(group),
            rank: Some(rank),
        }
    }

    /// A group-wide event (no single member).
    pub const fn group(group: u32) -> Self {
        Scope {
            node: None,
            group: Some(group),
            rank: None,
        }
    }
}

/// One recorded moment: a global sequence number (total order), the
/// virtual-time nanosecond it happened at, where, and what.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number: the event's index in the recording.
    pub seq: u64,
    /// Virtual time in nanoseconds.
    pub t_ns: u64,
    /// Where it happened.
    pub scope: Scope,
    /// What happened.
    pub kind: EventKind,
}

/// Declares [`EventKind`] once: every variant with its fields and its
/// stable wire name. The exporters read the name and the fields from
/// here, so a new kind needs no second table and the JSONL and Chrome
/// formats cannot drift apart.
macro_rules! event_kinds {
    ($(
        $(#[$attr:meta])*
        $variant:ident $({ $($field:ident: $ty:ty),* $(,)? })? => $wire:literal,
    )*) => {
        /// Everything the flight recorder distinguishes, across all layers.
        ///
        /// Rank-valued fields are in the *current epoch's* numbering at
        /// record time; [`EventKind::ReconfigInstalled`] carries the
        /// original-rank survivor list needed to map them back.
        #[derive(Clone, Debug, PartialEq)]
        #[allow(missing_docs)] // field meanings documented per variant
        pub enum EventKind {
            $($(#[$attr])* $variant $({ $($field: $ty),* })?,)*
        }

        impl EventKind {
            /// Every kind's wire name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($wire),*];

            /// The kind's stable wire name: the `kind` key of a JSONL line
            /// and the name of a Chrome instant event.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $wire,)*
                }
            }

            /// Calls `f` with each field's name and value, in declaration
            /// order.
            pub(crate) fn for_each_field(
                &self,
                mut f: impl FnMut(&'static str, &dyn export::Field),
            ) {
                match self {
                    $(EventKind::$variant $({ $($field),* })? => {
                        $($(f(stringify!($field), $field);)*)?
                    })*
                }
            }
        }
    };
}

event_kinds! {
    // ---- simnet: flow network -------------------------------------
    /// A bulk transfer started on the flow network.
    FlowStarted { flow: u64, bytes: u64 } => "flow_started",
    /// A flow's max-min fair rate changed (link contention).
    FlowRateChanged { flow: u64, gbps: f64 } => "flow_rate_changed",
    /// A flow left the network (completed, or aborted by a failure).
    FlowFinished { flow: u64, aborted: bool } => "flow_finished",

    // ---- verbs: simulated RDMA fabric -----------------------------
    /// A two-sided send was posted to a queue pair.
    SendPosted {
        conn: u32,
        end: u8,
        wr: u64,
        bytes: u64,
    } => "send_posted",
    /// A receive was posted to a queue pair.
    RecvPosted { conn: u32, end: u8, wr: u64 } => "recv_posted",
    /// A one-sided write was posted to a queue pair.
    WritePosted {
        conn: u32,
        end: u8,
        tag: u64,
        bytes: u64,
    } => "write_posted",
    /// A work request completed in hardware (`recv` = consumer side).
    WrCompleted {
        conn: u32,
        end: u8,
        wr: u64,
        recv: bool,
    } => "wr_completed",
    /// A one-sided write landed in the peer's memory.
    WriteDelivered { conn: u32, end: u8, tag: u64 } => "write_delivered",
    /// A send found its receiver without a posted receive and armed the
    /// RNR retry timer — under RDMC's ready-for-block discipline this
    /// must never happen on a healthy run (§4.2).
    RnrArmed { conn: u32, dir: u8 } => "rnr_armed",
    /// An outstanding work request was flushed by a connection break.
    WrFlushed {
        conn: u32,
        end: u8,
        wr: u64,
        recv: bool,
    } => "wr_flushed",
    /// A connection broke (failure detection, link flap, teardown).
    QpBroken { conn: u32 } => "qp_broken",
    /// A node crashed.
    NodeCrashed => "node_crashed",
    /// The fault model dropped a payload on the wire: the receiver-side
    /// completion never fires (the sender still completes, SDR-RDMA's
    /// sender-local semantics). `end` is the receiver endpoint; `imm`
    /// is the send's immediate value (0 for one-sided writes) —
    /// reliability layers pack the block sequence number into it, which
    /// is what lets the trace oracle pair a drop with its eventual
    /// repair or escalation.
    PayloadDropped {
        conn: u32,
        end: u8,
        wr: u64,
        imm: u64,
    } => "payload_dropped",
    /// The fault model corrupted a payload: it arrives and consumes its
    /// posted receive, but fails the receiver's integrity check and
    /// must be discarded by software. Same pairing fields as
    /// [`EventKind::PayloadDropped`].
    PayloadCorrupted {
        conn: u32,
        end: u8,
        wr: u64,
        imm: u64,
    } => "payload_corrupted",

    // ---- rdmc: protocol engine ------------------------------------
    /// The application submitted a multicast at the root.
    MessageSubmitted { size: u64 } => "message_submitted",
    /// A message transfer became active (`root` = this member holds
    /// every block from the start).
    TransferStarted { size: u64, blocks: u32, root: bool } => "transfer_started",
    /// An interrupted message resumed in a new epoch; `held` lists the
    /// blocks this member kept from the old epoch.
    ResumeStarted {
        size: u64,
        blocks: u32,
        held: Vec<u32>,
        already_delivered: bool,
    } => "resume_started",
    /// The engine asked the application for a receive buffer.
    BufferRequested { size: u64 } => "buffer_requested",
    /// We granted `to` a readiness credit (receive is pre-posted).
    ReadyGranted { to: u32 } => "ready_granted",
    /// `from` granted us a readiness credit.
    ReadyHeard { from: u32 } => "ready_heard",
    /// We posted a block send (schedule step `step` of epoch `epoch`).
    BlockSendIssued {
        to: u32,
        block: u32,
        step: u32,
        bytes: u64,
        epoch: u64,
    } => "block_send_issued",
    /// A posted block send completed.
    BlockSendCompleted { to: u32 } => "block_send_completed",
    /// The per-NIC admission layer released a block send to the fabric;
    /// `queued_ns` is how long admission control held it after the
    /// engine issued it (zero when a slot was free on arrival).
    SendAdmitted { to: u32, block: u32, queued_ns: u64 } => "send_admitted",
    /// A scheduled block arrived (`first` = it announced the message
    /// size and the transfer was not yet active).
    BlockArrived {
        from: u32,
        block: u32,
        step: u32,
        first: bool,
        epoch: u64,
    } => "block_arrived",
    /// The message completed locally (the delivery upcall).
    Delivered { size: u64 } => "delivered",
    /// A failure notice wedged this member.
    Wedged { failed: u32 } => "wedged",
    /// A new configuration epoch was installed on this member
    /// (`rank` is its new rank; `resume_blocks_out` counts the block
    /// transfers this member must send across all resume schedules).
    EpochInstalled {
        epoch: u64,
        rank: u32,
        num_nodes: u32,
        resumes: u32,
        resume_blocks_out: u32,
    } => "epoch_installed",

    // ---- rdmc-sim: membership / reconfiguration -------------------
    /// A member first suspected an original rank of having failed.
    Suspected { failed: u32 } => "suspected",
    /// A view-table merge taught a member `newly` new suspicions.
    ViewMerged { from: u32, newly: u32 } => "view_merged",
    /// The membership layer installed an agreed view group-wide.
    /// `survivors` are original ranks ascending (new rank = index).
    ReconfigInstalled {
        epoch: u64,
        survivors: Vec<u32>,
        removed: Vec<u32>,
        abandoned: Vec<u64>,
        resumed_blocks: u64,
        forced: bool,
    } => "reconfig_installed",

    // ---- rdmc-sim: reliability policies ---------------------------
    /// A receiver noticed a gap in the block sequence and NACKed the
    /// sender: `seq` is the first missing sequence number, `span` how
    /// many consecutive blocks the NACK covers.
    NackSent {
        conn: u32,
        end: u8,
        seq: u64,
        span: u64,
    } => "nack_sent",
    /// A sender retransmitted block `seq` (NACK response or timeout).
    RepairSent { conn: u32, seq: u64 } => "repair_sent",
    /// A missing block was filled at the receiver — by retransmission
    /// (`coded` = false) or erasure reconstruction (`coded` = true).
    RepairDelivered { conn: u32, seq: u64, coded: bool } => "repair_delivered",
    /// A sender emitted the parity block closing the erasure-coding
    /// generation that ends at data sequence `seq` and spans `data`
    /// data blocks.
    ParitySent { conn: u32, seq: u64, data: u64 } => "parity_sent",
    /// Loss on `conn` exhausted the policy's retry budget; the member
    /// escalated to epoch recovery (or wedged, when recovery is off).
    LossEscalated { conn: u32 } => "loss_escalated",

    // ---- rdmc-sim: atomic multicast (Derecho-style overlay) --------
    //
    // Scope convention: `group` is the atomic group's *anchor* RDMC
    // subgroup id, `rank` is the member's index in the atomic group's
    // (unrotated) member list, and `sender` fields use that same
    // member-index numbering.
    /// A message slot was appended to an atomic group's total order.
    /// `sender` owns the slot; `null` marks an elided send (an idle
    /// sender's slot resolved by a frontier bump, no data multicast).
    AtomicSubmitted {
        slot: u64,
        sender: u32,
        null: bool,
        size: u64,
    } => "atomic_submitted",
    /// This member's own received-frontier row for `sender` advanced to
    /// `frontier` (it has resolved that many of `sender`'s slots, in
    /// slot order).
    FrontierAdvanced { sender: u32, frontier: u64 } => "frontier_advanced",
    /// This member's *stability* frontier for `sender` — the min of the
    /// received-frontiers over the members of the group's view, read
    /// from its local SST replica — advanced to `frontier`.
    StableFrontier { sender: u32, frontier: u64 } => "stable_frontier",
    /// The atomic delivery upcall: slot `slot` (the `seq`-th slot owned
    /// by `sender`) became stable and was delivered in total order.
    AtomicDelivered {
        slot: u64,
        sender: u32,
        seq: u64,
        size: u64,
    } => "atomic_delivered",
    /// A slot was ragged-trimmed during reconfiguration: its sender
    /// died before the slot could stabilize, so every survivor removes
    /// it from the total order (all-or-nothing delivery).
    AtomicTrimmed { slot: u64 } => "atomic_trimmed",
}

struct Inner {
    now: AtomicU64,
    buf: Mutex<Vec<TraceEvent>>,
}

/// The recorder handle. Cloning is cheap (an `Arc` bump) and every
/// clone feeds the same buffer; the disabled recorder
/// ([`Recorder::disabled`], also [`Default`]) costs one branch per
/// instrumentation point and allocates nothing.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Inner>>);

impl Recorder {
    /// A recorder that records nothing (the default everywhere).
    pub const fn disabled() -> Self {
        Recorder(None)
    }

    /// A recorder keeping every event.
    pub fn full() -> Self {
        Recorder(Some(Arc::new(Inner {
            now: AtomicU64::new(0),
            buf: Mutex::new(Vec::new()),
        })))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Updates the recorder's notion of "now" (virtual nanoseconds).
    /// Drivers with a clock (the fabric's event loop) call this so that
    /// clock-less layers (the sans-IO engine) timestamp correctly.
    #[inline]
    pub fn set_now(&self, t_ns: u64) {
        if let Some(inner) = &self.0 {
            inner.now.store(t_ns, Ordering::Relaxed);
        }
    }

    /// The recorder's current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.now.load(Ordering::Relaxed))
    }

    /// Records an event at the recorder's current time. The `kind`
    /// closure only runs when recording is enabled, so a disabled
    /// recorder never constructs the payload.
    #[inline]
    pub fn record(&self, scope: Scope, kind: impl FnOnce() -> EventKind) {
        if let Some(inner) = &self.0 {
            let t = inner.now.load(Ordering::Relaxed);
            push(inner, t, scope, kind());
        }
    }

    /// Records an event at an explicit time (layers that carry their
    /// own clock, e.g. the flow network).
    #[inline]
    pub fn record_at(&self, t_ns: u64, scope: Scope, kind: impl FnOnce() -> EventKind) {
        if let Some(inner) = &self.0 {
            push(inner, t_ns, scope, kind());
        }
    }

    /// A snapshot of the captured events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.buf.lock().expect("recorder poisoned").clone()
        })
    }
}

fn push(inner: &Inner, t_ns: u64, scope: Scope, kind: EventKind) {
    let mut buf = inner.buf.lock().expect("recorder poisoned");
    let seq = buf.len() as u64;
    buf.push(TraceEvent {
        seq,
        t_ns,
        scope,
        kind,
    });
}

// `Debug` without exposing the buffer: engines derive `Debug`, and a
// full event dump would swamp their output.
impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "Recorder(disabled)"),
            Some(inner) => write!(
                f,
                "Recorder({} events)",
                inner.buf.lock().map(|b| b.len()).unwrap_or(0)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.set_now(123);
        assert_eq!(r.now(), 0);
        r.record(Scope::none(), || panic!("payload closure must not run"));
        assert!(r.events().is_empty());
    }

    #[test]
    fn full_mode_keeps_everything_in_order() {
        let r = Recorder::full();
        r.set_now(10);
        r.record(Scope::node(1), || EventKind::NodeCrashed);
        r.set_now(20);
        r.record(Scope::group_rank(0, 2), || EventKind::Delivered { size: 5 });
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[0].t_ns, 10);
        assert_eq!(ev[1].seq, 1);
        assert_eq!(ev[1].t_ns, 20);
        assert_eq!(ev[1].scope, Scope::group_rank(0, 2));
    }

    #[test]
    fn clones_share_one_buffer() {
        let r = Recorder::full();
        let r2 = r.clone();
        r2.set_now(7);
        r2.record(Scope::none(), || EventKind::NodeCrashed);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.now(), 7);
    }
}
