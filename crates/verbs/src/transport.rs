//! The datapath contract shared by every RDMC backend.
//!
//! [`Transport`] is the exact set of verbs that the protocol
//! orchestration (`rdmc-sim`'s cluster, pacer, epoch
//! recovery, reliability shim, and atomic overlay) consumes: reliable
//! connections, two-sided send/receive with immediates, one-sided
//! writes, driver timers, crash/break notifications, and a pull-based
//! completion loop ([`Transport::advance`]). Anything that implements it
//! — the simulated verbs fabric here, the nonblocking TCP event loop in
//! `rdmc-tcp` — can run the full RDMC stack unchanged, which is what the
//! paper's §5.3 "RDMC over TCP works surprisingly well" observation and
//! Derecho's dual verbs/TCP deployment call for.
//!
//! The contract inherits the fabric's ordering guarantees, and backends
//! must preserve them for the protocol to stay correct *and* for the
//! `transport_equivalence` gate to hold:
//!
//! - **Per-connection-direction FIFO**: two-sided sends and one-sided
//!   writes posted on one endpoint are delivered to the peer in posting
//!   order, sharing a single queue (hardware RC semantics; over TCP a
//!   QP's frames share its node pair's one socket).
//! - **Flush-then-break**: when a connection breaks, every outstanding
//!   work request is flushed ([`Delivery::WrFlushed`]) in posting order
//!   before the [`Delivery::QpBroken`] notice.
//! - **Crash silence**: no deliveries (including timers) ever surface on
//!   a crashed node; surviving peers learn of the crash only through
//!   their failure-detect timeout breaking the connection.
//! - **Timers before I/O**: a backend moves bytes in rounds — a lap over
//!   its sockets on TCP, one virtual instant in the simulator — and the
//!   timers due when a round begins fire before any completion of that
//!   round surfaces (within one simulated instant, timers and
//!   completions surface in the order they were armed). So every
//!   failure-detect break armed for one crash fires in one batch, ahead
//!   of gossip arriving from peers, and a zero-delay timer is the
//!   end-of-round hook: it fires once the round's completions are
//!   handled, so what its handler posts leaves together with what they
//!   posted, and delays nothing that was ready to go.
//! - **Monotone time**: the timestamps [`Transport::advance`] returns
//!   never go backwards.

use bytes::Bytes;
use simnet::{HostProfile, SimDuration, SimTime};

use crate::fabric::{FabricStats, PostingSnapshot};
use crate::types::{CpuReport, Delivery, NodeId, QpHandle, VerbsError, WaitSpec, WrId};

/// A reliable, connection-oriented datapath capable of carrying RDMC.
///
/// This trait is where the verbs are specified: the method docs below,
/// together with the ordering guarantees in the [module docs](self), are
/// the contract every backend is written against. The simulated
/// [`Fabric`](crate::Fabric) is the reference implementation and defines
/// each verb exactly once, in its `impl Transport`.
pub trait Transport {
    /// Current transport time. Simulated backends report virtual time;
    /// real backends report elapsed wall-clock time since creation.
    fn now(&self) -> SimTime;

    /// Runs the transport forward and returns the next software-visible
    /// delivery, or `None` when it has quiesced (no deliveries pending,
    /// nothing in flight, no timers armed for live nodes).
    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)>;

    /// Creates a reliable connection between two distinct nodes, returning
    /// the local endpoint for each (first for `a`, second for `b`).
    ///
    /// Connecting to a crashed peer is allowed — the connection attempt
    /// behaves like the real handshake timing out: the queue pair exists
    /// but breaks after the failure-detection delay.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle);

    /// Posts a two-sided send of `bytes` with immediate value `imm`; it
    /// consumes one posted receive at the peer.
    ///
    /// Sends on one queue pair execute in FIFO order. If `wait_for` is
    /// given, the send additionally waits (in hardware, CORE-Direct style)
    /// for that work request's completion.
    ///
    /// # Errors
    ///
    /// Fails if the connection is broken or the local node crashed.
    fn post_send(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        imm: u64,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError>;

    /// Posts a one-sided write of `payload` into the peer's memory region
    /// identified by `tag`. The peer's software observes it as
    /// [`Delivery::WriteArrived`]; no posted receive is consumed.
    ///
    /// # Errors
    ///
    /// Fails if the connection is broken or the local node crashed.
    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError>;

    /// Posts a receive of capacity `max_len`. Receives are consumed in
    /// order by incoming two-sided sends; an incoming send larger than the
    /// matched receive breaks the connection (the RDMA local-length
    /// error).
    ///
    /// # Errors
    ///
    /// Fails if the connection is broken or the local node crashed.
    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError>;

    /// Schedules a one-shot driver timer on `node` after `delay`; fires
    /// as [`Delivery::Timer`] with `token`.
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64);

    /// Charges `dur` of software work to `node` (e.g. a buffer allocation
    /// or memory copy on the critical path). Subsequent posts and
    /// deliveries on this node are pushed back accordingly. Backends
    /// without a CPU model treat this as a no-op.
    fn consume_cpu(&mut self, node: NodeId, dur: SimDuration);

    /// Crashes a node: all its connections break; peers learn after the
    /// failure-detection delay; the node receives nothing further.
    fn crash(&mut self, node: NodeId);

    /// Whether a node has crashed.
    fn is_crashed(&self, node: NodeId) -> bool;

    /// Forcibly breaks the connection a queue pair belongs to, as if the
    /// link failed, without crashing either node: outstanding work
    /// requests are flushed as [`Delivery::WrFlushed`] error completions
    /// and both surviving endpoints receive [`Delivery::QpBroken`].
    /// Idempotent. Drivers use this for deliberate teardown (epoch
    /// reconfiguration) and fault injection (link flaps).
    fn break_qp(&mut self, qp: QpHandle);

    /// The node's host cost profile. Backends without a host model
    /// return a default profile.
    fn profile(&self, node: NodeId) -> &HostProfile;

    /// Posting-order metadata for one queue-pair endpoint: what is queued,
    /// what is posted, and how close the endpoint is to RNR exhaustion.
    /// Static analyses (the `analyzer` crate) and debug-build runtime
    /// mirrors use this to check the receive-before-send discipline
    /// without disturbing the run.
    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot;

    /// Attaches a flight recorder. The transport keeps the recorder's
    /// clock current as its event loop advances, so clock-less layers
    /// sharing the recorder (the sans-IO protocol engines) timestamp
    /// correctly, and streams wire-level events into it.
    fn set_recorder(&mut self, recorder: trace::Recorder);

    /// Internal work counters, for performance debugging (see
    /// [`FabricStats`]).
    fn stats(&self) -> FabricStats;

    /// Per-node CPU usage summary.
    fn cpu_report(&self, node: NodeId) -> CpuReport;

    /// Number of nodes attached to the transport.
    fn num_nodes(&self) -> usize;

    /// Attaches a controlled scheduler: same-instant delivery races
    /// become explicit choice points answered by `scheduler` (see
    /// [`crate::sched`]). Without one, ties break by schedule order and
    /// runs are bit-for-bit reproducible; with one, reproducibility
    /// additionally requires replaying the same choice answers. Only
    /// meaningful on simulated backends; the default is a no-op so
    /// generic configuration code can call it unconditionally.
    fn set_scheduler(&mut self, scheduler: crate::sched::SharedScheduler) {
        let _ = scheduler;
    }
}
