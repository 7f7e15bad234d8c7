//! Public identifier, parameter, and event types for the simulated fabric.

use bytes::Bytes;
use simnet::SimDuration;

/// A host attached to the fabric (index into the topology's node list).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a usize (for indexing driver-side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One endpoint of a reliable connection: the local queue pair.
///
/// Obtained from [`Transport::connect`](crate::Transport::connect), which returns
/// the two bound endpoints of a new reliable connection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QpHandle {
    pub(crate) conn: u32,
    pub(crate) end: u8,
}

impl QpHandle {
    /// Assembles a queue-pair handle from a connection index and an
    /// endpoint side. External [`Transport`](crate::Transport)
    /// implementations use this to mint the handles
    /// [`connect`](crate::Transport::connect) returns; the simulated
    /// fabric constructs its own internally.
    pub fn from_parts(conn: u32, end: u8) -> Self {
        QpHandle { conn, end }
    }

    /// The connection index shared by both endpoints — the `conn` the
    /// flight recorder stamps on every wire-level event, so drivers can
    /// correlate their own records with the fabric's. Every backend's
    /// [`connect`](crate::Transport::connect) mints them `0, 1, 2, …` in
    /// call order, so a driver may index a dense table by it.
    pub fn conn_id(self) -> u32 {
        self.conn
    }

    /// Which side of the connection this endpoint is (0 or 1).
    pub fn endpoint(self) -> u8 {
        self.end
    }
}

/// Caller-chosen work-request identifier, echoed in completions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WrId(pub u64);

/// Names a posted work request for cross-channel (CORE-Direct style)
/// dependencies: a send may be held in hardware until this WR completes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WaitSpec {
    /// Queue pair the awaited work request was posted on (must belong to
    /// the same node as the dependent send).
    pub qp: QpHandle,
    /// The awaited work request.
    pub wr_id: WrId,
}

/// How a node's software learns about completions (paper §4.2, §5.2.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompletionMode {
    /// Busy-poll the completion queue: zero signalling latency, one core
    /// pinned at 100%.
    Polling,
    /// Block on interrupts: pay a wakeup latency per completion, CPU load
    /// proportional to handling work only.
    Interrupt,
    /// The paper's scheme: poll for a window after each completion, then
    /// re-arm interrupts.
    #[default]
    Hybrid,
}

/// Fabric-wide hardware constants.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricParams {
    /// Receiver-not-ready retry interval.
    pub rnr_timer: SimDuration,
    /// Number of RNR retries before the NIC breaks the connection and
    /// reports failure (paper §2: "after a specified number of retries, it
    /// breaks the connection").
    pub rnr_retry_limit: u32,
    /// Fixed per-transfer NIC processing time (dominates 1-byte messages).
    pub nic_op_overhead: SimDuration,
    /// How long a surviving NIC takes to detect a crashed peer and report
    /// an error completion.
    pub failure_detect: SimDuration,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            rnr_timer: SimDuration::from_micros(500),
            rnr_retry_limit: 7,
            nic_op_overhead: SimDuration::from_nanos(600),
            failure_detect: SimDuration::from_millis(1),
        }
    }
}

/// A completion or notification made visible to a node's software.
#[derive(Clone, Debug)]
pub enum Delivery {
    /// A two-sided send finished (hardware ack received).
    SendDone {
        /// Local queue pair the send was posted on.
        qp: QpHandle,
        /// The completed work request.
        wr_id: WrId,
    },
    /// A two-sided receive finished: data is in the posted buffer.
    RecvDone {
        /// Local queue pair the receive was posted on.
        qp: QpHandle,
        /// The matching posted receive's work request id.
        wr_id: WrId,
        /// Payload length in bytes.
        len: u64,
        /// The sender-attached immediate value (RDMC uses it to carry the
        /// total message size, §4.2).
        imm: u64,
    },
    /// A one-sided RDMA write we issued completed locally.
    WriteDone {
        /// Local queue pair the write was posted on.
        qp: QpHandle,
        /// The completed work request.
        wr_id: WrId,
    },
    /// A one-sided RDMA write from the peer landed in our memory.
    ///
    /// Real one-sided writes are invisible to the remote CPU until it polls
    /// the written region; this notification models that poll observing the
    /// new value (so it bypasses interrupt-mode wakeup latency).
    WriteArrived {
        /// Local queue pair whose registered memory was written.
        qp: QpHandle,
        /// Caller-chosen tag identifying the region/offset written.
        tag: u64,
        /// The written bytes.
        payload: Bytes,
    },
    /// A two-sided receive completed, but the payload failed its
    /// integrity check (injected corruption): the posted receive was
    /// consumed and the buffer contents must be discarded by software.
    /// Only surfaced when a fault model is attached
    /// ([`Fabric::set_fault_profile`](crate::Fabric::set_fault_profile));
    /// lossless fabrics never emit it.
    RecvCorrupted {
        /// Local queue pair the receive was posted on.
        qp: QpHandle,
        /// The consumed posted receive's work request id.
        wr_id: WrId,
        /// Payload length in bytes (the garbage is full-length).
        len: u64,
        /// The sender-attached immediate value (assumed intact — real
        /// NICs protect headers and payload with separate CRCs).
        imm: u64,
    },
    /// The connection failed (peer crashed, RNR retries exhausted, or a
    /// receive was too small). Every outstanding work request on the
    /// queue pair is flushed back as a [`Delivery::WrFlushed`] error
    /// completion before this notice arrives.
    QpBroken {
        /// The broken local queue pair.
        qp: QpHandle,
    },
    /// An outstanding work request was flushed with an error completion
    /// because its queue pair broke (the verbs `IBV_WC_WR_FLUSH_ERR`
    /// status). Emitted for queued sends, the in-flight send, and posted
    /// receives, in posting order, ahead of the [`Delivery::QpBroken`]
    /// notice for the same queue pair.
    WrFlushed {
        /// The broken local queue pair the work request was posted on.
        qp: QpHandle,
        /// The flushed work request.
        wr_id: WrId,
        /// True if the flushed work request was a posted receive, false
        /// for a send or one-sided write.
        recv: bool,
    },
    /// A driver-scheduled timer fired.
    Timer {
        /// The token passed to [`Transport::schedule_timer`](crate::Transport::schedule_timer).
        token: u64,
    },
}

/// Errors returned by fabric verbs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerbsError {
    /// The queue pair's connection is broken; no further posts accepted.
    QpBroken,
    /// The node owning this queue pair has crashed.
    NodeCrashed,
}

impl std::fmt::Display for VerbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerbsError::QpBroken => write!(f, "queue pair connection is broken"),
            VerbsError::NodeCrashed => write!(f, "node has crashed"),
        }
    }
}

impl std::error::Error for VerbsError {}

/// Per-node CPU usage summary (for the paper's Fig. 11 CPU-load contrast).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuReport {
    /// Time spent in software handlers and posting verbs.
    pub handling: SimDuration,
    /// Time spent busy-polling (hybrid mode's poll windows).
    pub polling: SimDuration,
    /// The node's completion mode.
    pub mode: CompletionMode,
}

impl CpuReport {
    /// CPU load over a wall-clock interval: 1.0 for pure polling, poll
    /// windows + handling for hybrid, handling only for interrupts.
    pub fn load(&self, wall: SimDuration) -> f64 {
        if wall == SimDuration::ZERO {
            return 0.0;
        }
        let busy = match self.mode {
            CompletionMode::Polling => return 1.0,
            CompletionMode::Hybrid => self.polling + self.handling,
            CompletionMode::Interrupt => self.handling,
        };
        (busy.as_secs_f64() / wall.as_secs_f64()).min(1.0)
    }
}
