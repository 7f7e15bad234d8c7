//! Controlled scheduling of same-instant event races.
//!
//! The fabric's event queue breaks timestamp ties deterministically (by
//! schedule order), which makes every run reproducible — but it also
//! means one arbitrary interleaving out of many legal ones is the only
//! interleaving ever tested. A [`Scheduler`] externalises those
//! tie-breaks: when it is attached, every burst of same-instant
//! software-visible deliveries becomes an explicit *choice point*, and
//! the scheduler picks which delivery the software observes first.
//! Model checkers (the `analyzer::explore` module) drive this to
//! enumerate alternative executions; the choice sequence they record is
//! sufficient to replay any execution bit-for-bit.
//!
//! Choice points are deliberately restricted to *software-visible*
//! deliveries. Internal hardware events (kicks, completions, RNR
//! timers, flow wakeups) are processed eagerly in deterministic order:
//! hardware progress at an instant commutes with software observation
//! order, so exposing it would multiply the state space without adding
//! distinguishable behaviours.

use crate::types::{Delivery, NodeId};

/// What a schedulable candidate event is, summarised for footprint
/// computation and human-readable counterexamples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateKind {
    /// A two-sided receive completion (an arrived block).
    Recv,
    /// A send completion returning to the sender.
    Send,
    /// A one-sided write's local completion at the issuer.
    WriteDone,
    /// A one-sided write landing in the target's memory, with its
    /// control tag (ready credits, failure notices, status rows,
    /// TAG_VIEW epidemic payloads).
    WriteArrived {
        /// The write's control tag.
        tag: u64,
    },
    /// A flushed (errored) work request after a connection break.
    Flushed,
    /// A broken-connection notice.
    Broken,
    /// A socket direction's next gathered write reaching its reader
    /// (the in-memory TCP backend).
    Bytes,
    /// A driver timer (retransmit probes, reconfiguration holdoff).
    Timer {
        /// The driver's timer token.
        token: u64,
    },
    /// A queued block send competing for a freed pacer slot.
    PacerSend {
        /// Group the queued send belongs to.
        group: u64,
        /// Queue position at the time of the tie.
        slot: u64,
    },
    /// A fault-injection site: crash `victim` after the cluster has fed
    /// `step` protocol events.
    FaultSite {
        /// Number of fed events before the crash fires.
        step: u64,
        /// The node to crash.
        victim: u32,
    },
    /// One outcome at a wire loss site: deliver the payload intact, or
    /// drop it on the floor. Offered per completed data transfer while
    /// the fabric's loss-choice budget lasts, so model checkers can
    /// enumerate retransmit/escalation interleavings instead of
    /// sampling them.
    Loss {
        /// True for the drop outcome, false for intact delivery.
        drop: bool,
    },
    /// One outcome at a write site of the in-memory TCP backend: the
    /// gathered write takes its first `taken` bytes, all of them for the
    /// whole write. A shorter one ends inside a frame's header or body
    /// and fills the pipe until its reader has read it.
    Gathered {
        /// Bytes the write takes.
        taken: u64,
    },
    /// The other outcome there: the write goes whole, but it lands only
    /// once nothing else can and the clock has moved.
    Stall,
}

/// One enabled event at a choice point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Stable identifier within the run (the event-queue sequence
    /// number for deliveries; an enumeration index for pacer and fault
    /// candidates). Model checkers use it to correlate the same event
    /// across choice points.
    pub seq: u64,
    /// The node whose software observes the event — the primary
    /// footprint atom for independence reasoning.
    pub node: u32,
    /// The connection the event travels on, if any.
    pub conn: Option<u32>,
    /// Event class.
    pub kind: CandidateKind,
}

impl Candidate {
    /// Summarises `delivery`, queued for `node`, for the scheduler.
    pub fn of(seq: u64, node: NodeId, delivery: &Delivery) -> Candidate {
        use CandidateKind as K;
        let (conn, kind) = match delivery {
            // A corrupted receive races like any other receive
            // completion; the payload's fate is already decided.
            Delivery::RecvDone { qp, .. } | Delivery::RecvCorrupted { qp, .. } => {
                (Some(qp.conn), K::Recv)
            }
            Delivery::SendDone { qp, .. } => (Some(qp.conn), K::Send),
            Delivery::WriteDone { qp, .. } => (Some(qp.conn), K::WriteDone),
            Delivery::WriteArrived { qp, tag, .. } => {
                (Some(qp.conn), K::WriteArrived { tag: *tag })
            }
            Delivery::WrFlushed { qp, .. } => (Some(qp.conn), K::Flushed),
            Delivery::QpBroken { qp } => (Some(qp.conn), K::Broken),
            Delivery::Timer { token } => (None, K::Timer { token: *token }),
        };
        Candidate {
            seq,
            node: node.index() as u32,
            conn,
            kind,
        }
    }
}

/// Which layer is asking for a decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointKind {
    /// Same-instant software-visible deliveries racing in the fabric.
    Delivery,
    /// Equally-preferred queued sends competing for one pacer slot.
    PacerTie,
    /// Crash/flap injection sites offered before traffic starts.
    FaultSite,
    /// The outcomes at a wire site, within the backend's budget: deliver
    /// or drop a transfer on the simulated fabric; split or stall a
    /// gathered write on the in-memory TCP backend.
    LossSite,
}

/// A choice point: two or more enabled candidates at one instant.
#[derive(Debug)]
pub struct ChoicePoint<'a> {
    /// Virtual time of the racing events, in nanoseconds.
    pub time_ns: u64,
    /// Which layer is asking.
    pub kind: PointKind,
    /// The enabled candidates, in deterministic (default) order; the
    /// answer indexes into this slice. Always has at least two entries.
    pub candidates: &'a [Candidate],
}

/// Decides which of several enabled same-instant events runs first.
///
/// Implementations must return an index `< point.candidates.len()`;
/// out-of-range answers are clamped to the deterministic default
/// (index 0) by callers. A scheduler that always answers 0 reproduces
/// the queue's default tie-break order within each choice point.
pub trait Scheduler {
    /// Picks the candidate to execute now.
    fn choose(&mut self, point: &ChoicePoint<'_>) -> usize;
}

/// A scheduler shared between the fabric and higher layers (the
/// cluster's pacer and fault injector), so every layer's choices land
/// in one globally ordered sequence.
pub type SharedScheduler = std::sync::Arc<std::sync::Mutex<dyn Scheduler + Send>>;

/// Asks `sched` to pick among `candidates`, clamping out-of-range
/// answers to 0. Panics if the mutex is poisoned (a scheduler panic is
/// already fatal to the exploration).
pub fn pick(sched: &SharedScheduler, point: &ChoicePoint<'_>) -> usize {
    let idx = sched
        .lock()
        .expect("scheduler mutex poisoned")
        .choose(point);
    if idx < point.candidates.len() {
        idx
    } else {
        0
    }
}
