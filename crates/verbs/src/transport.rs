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
//! must preserve them for the protocol to stay correct. Each rule is a
//! row of the root `tests/transport_contract.rs` (named in parentheses),
//! run on every backend (`Fabric`, and `TcpFabric` over loopback sockets
//! and over the in-memory `MemNet`); a new backend must pass the same
//! rows.
//!
//! - **Per-connection-direction FIFO, exactly once**: sends and writes
//!   posted on one endpoint reach the peer in posting order through one
//!   queue (RC semantics; over TCP, the node pair's one socket), and each
//!   completes once, in posting order (`fifo_exactly_once`,
//!   `completions_balance_posts`, `writes_arrive_once_in_order_intact`).
//!   `Fabric` in hybrid completion mode does not yet hold the order of
//!   completions: one that lands while its node wakes for an earlier one
//!   surfaces first (ROADMAP item 13), so these rows poll it.
//! - **Local length**: a send longer than the receive it meets breaks the
//!   connection, and that receive is flushed with the rest
//!   (`send_longer_than_its_receive_breaks_the_qp`).
//! - **Refused posts**: [`VerbsError::NodeCrashed`] on a crashed node,
//!   [`VerbsError::QpBroken`] on a broken queue pair
//!   (`posts_on_a_crashed_node_are_refused`).
//! - **Flush-then-break**: when a connection breaks, every outstanding
//!   work request is flushed ([`Delivery::WrFlushed`]) in posting order
//!   before the [`Delivery::QpBroken`] notice, and a crash breaks a node
//!   pair's queue pairs in creation order
//!   (`break_qp_flushes_in_posting_order_then_breaks`,
//!   `outstanding_work_at_a_crash_resolves_once`,
//!   `a_crash_breaks_every_qp_of_the_pair_in_creation_order`).
//! - **Crash silence**: nothing, timers included, surfaces on a crashed
//!   node; peers learn of the crash only when their failure-detect
//!   timeout breaks the connection, as does a connect to a dead node
//!   (every row; `survivors_break_after_failure_detect`,
//!   `connect_to_a_crashed_peer_breaks_after_failure_detect`,
//!   `flushed_sends_reach_the_survivor_before_the_break`).
//! - **Timers before I/O**: a backend moves bytes in rounds — a lap over
//!   its sockets on TCP, one virtual instant in the simulator — and the
//!   timers due when a round begins fire before any completion of that
//!   round surfaces (within one simulated instant, timers and
//!   completions surface in the order they were armed). So every
//!   failure-detect break armed for one crash fires in one batch, ahead
//!   of gossip arriving from peers, and a zero-delay timer is the
//!   end-of-round hook: it fires once the round's completions are
//!   handled, so what its handler posts leaves together with what they
//!   posted, and delays nothing that was ready to go
//!   (`zero_delay_timer_fires_before_the_rounds_completions`, which polls
//!   `Fabric` for the same reason).
//! - **Monotone time**: the timestamps [`Transport::advance`] returns
//!   never go backwards (every row).
//! - **Dense connection ids**: [`Transport::connect`] mints connection
//!   ids ([`QpHandle::conn_id`]) `0, 1, 2, …` in call order, a connect to
//!   a crashed peer included, so drivers index per-connection tables by
//!   them (`connection_ids_are_dense_in_connect_order`).
//!
//! Where the backends differ, by design: what a `SendDone` proves (the
//! peer's acknowledgement on the simulated fabric, "flushed to the socket"
//! on TCP); a send that finds no receive (the fabric retries, then breaks;
//! TCP holds it, counted in [`FabricStats::rnr_arms`]); `wait_for`
//! (simulated only); and data in flight at a crash (the fabric aborts it,
//! TCP delivers what reached the socket).

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
    /// Both endpoints carry the connection's id, the next of `0, 1, 2, …`
    /// (contract row `connection_ids_are_dense_in_connect_order`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (contract row `connecting_a_node_to_itself_panics`).
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
    /// meaningful on simulated backends and on `TcpFabric` over an
    /// in-memory `MemNet`; the default is a no-op so generic
    /// configuration code can call it unconditionally.
    fn set_scheduler(&mut self, scheduler: crate::sched::SharedScheduler) {
        let _ = scheduler;
    }
}
