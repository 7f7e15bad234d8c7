//! The per-layer instrument: a [`Transport`] decorator that times and
//! counts every call the orchestration makes into the datapath, from
//! outside the datapath. Handing `Timed::wrap(fabric)` to
//! `ClusterBuilder::from_transport` splits a run's wall time into
//! "inside the transport" (what [`Tally`] accumulates) and "everything
//! above it" without touching either crate.

use std::time::Instant;

use bytes::Bytes;
use rdmc_tcp::TcpFabric;
use simnet::{HostProfile, SimDuration, SimTime};
use verbs::{
    CpuReport, Delivery, Fabric, FabricStats, NodeId, PostingSnapshot, QpHandle, SharedScheduler,
    Transport, VerbsError, WaitSpec, WrId,
};

/// One-sided writes at or below this size are control traffic
/// (ready-for-block grants, SST rows, NACKs): the same threshold the
/// simulated fabric uses for its tiny-write bypass.
const CONTROL_WRITE_MAX: usize = 256;

/// Everything the decorator has seen so far. Plain counters, so two
/// snapshots subtract ([`Tally::since`]) into the cost of the calls
/// made between them — how a `Cluster::run()` span gets its children.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub advance_ns: u64,
    pub advance_calls: u64,
    /// `advance()` calls that surfaced a completion.
    pub deliveries: u64,
    pub post_send_ns: u64,
    pub post_send_calls: u64,
    pub post_write_ns: u64,
    pub post_write_calls: u64,
    pub post_recv_ns: u64,
    pub post_recv_calls: u64,
    pub timer_ns: u64,
    pub timer_calls: u64,
    pub control_writes: u64,
    pub control_bytes: u64,
    pub connect_ns: u64,
    pub connects: u64,
}

impl Tally {
    pub fn since(&self, base: &Tally) -> Tally {
        Tally {
            advance_ns: self.advance_ns - base.advance_ns,
            advance_calls: self.advance_calls - base.advance_calls,
            deliveries: self.deliveries - base.deliveries,
            post_send_ns: self.post_send_ns - base.post_send_ns,
            post_send_calls: self.post_send_calls - base.post_send_calls,
            post_write_ns: self.post_write_ns - base.post_write_ns,
            post_write_calls: self.post_write_calls - base.post_write_calls,
            post_recv_ns: self.post_recv_ns - base.post_recv_ns,
            post_recv_calls: self.post_recv_calls - base.post_recv_calls,
            timer_ns: self.timer_ns - base.timer_ns,
            timer_calls: self.timer_calls - base.timer_calls,
            control_writes: self.control_writes - base.control_writes,
            control_bytes: self.control_bytes - base.control_bytes,
            connect_ns: self.connect_ns - base.connect_ns,
            connects: self.connects - base.connects,
        }
    }

    pub fn post_ns(&self) -> u64 {
        self.post_send_ns + self.post_write_ns + self.post_recv_ns + self.timer_ns
    }

    pub fn post_calls(&self) -> u64 {
        self.post_send_calls + self.post_write_calls + self.post_recv_calls + self.timer_calls
    }

    /// All timed nanoseconds: the transport's share of a wall interval.
    pub fn transport_ns(&self) -> u64 {
        self.advance_ns + self.post_ns() + self.connect_ns
    }

    /// `(method, calls, total_ns)` rows for the timed methods that were
    /// called at all — the rolled-up child spans of one `run()`.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> {
        [
            ("transport.advance", self.advance_calls, self.advance_ns),
            (
                "transport.post_send",
                self.post_send_calls,
                self.post_send_ns,
            ),
            (
                "transport.post_write",
                self.post_write_calls,
                self.post_write_ns,
            ),
            (
                "transport.post_recv",
                self.post_recv_calls,
                self.post_recv_ns,
            ),
            ("transport.schedule_timer", self.timer_calls, self.timer_ns),
            ("transport.connect", self.connects, self.connect_ns),
        ]
        .into_iter()
        .filter(|&(_, calls, _)| calls > 0)
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The decorator. Behaviourally transparent: every method delegates
/// with unchanged arguments and results (`timed_fabric_is_transparent`
/// in `main.rs` holds it to the bare fabric's digest and engine log).
/// The calls that do work (`advance`, `connect`, the posts, timers) are
/// timed and counted; the cheap accessors (`now`, `is_crashed`, ...)
/// only delegate, because a clock pair costs more than they do.
pub struct Timed<T> {
    inner: T,
    tally: Tally,
}

impl<T: Transport> Transport for Timed<T> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        let t = Instant::now();
        let out = self.inner.advance();
        self.tally.advance_ns += elapsed_ns(t);
        self.tally.advance_calls += 1;
        self.tally.deliveries += u64::from(out.is_some());
        out
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        let t = Instant::now();
        let out = self.inner.connect(a, b);
        self.tally.connect_ns += elapsed_ns(t);
        self.tally.connects += 1;
        out
    }

    fn post_send(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        imm: u64,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        let t = Instant::now();
        let out = self.inner.post_send(qp, wr_id, bytes, imm, wait_for);
        self.tally.post_send_ns += elapsed_ns(t);
        self.tally.post_send_calls += 1;
        out
    }

    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        if payload.len() <= CONTROL_WRITE_MAX {
            self.tally.control_writes += 1;
            self.tally.control_bytes += payload.len() as u64;
        }
        let t = Instant::now();
        let out = self.inner.post_write(qp, wr_id, tag, payload, wait_for);
        self.tally.post_write_ns += elapsed_ns(t);
        self.tally.post_write_calls += 1;
        out
    }

    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError> {
        let t = Instant::now();
        let out = self.inner.post_recv(qp, wr_id, max_len);
        self.tally.post_recv_ns += elapsed_ns(t);
        self.tally.post_recv_calls += 1;
        out
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let t = Instant::now();
        self.inner.schedule_timer(node, delay, token);
        self.tally.timer_ns += elapsed_ns(t);
        self.tally.timer_calls += 1;
    }

    fn consume_cpu(&mut self, node: NodeId, dur: SimDuration) {
        self.inner.consume_cpu(node, dur);
    }

    fn crash(&mut self, node: NodeId) {
        self.inner.crash(node);
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.is_crashed(node)
    }

    fn break_qp(&mut self, qp: QpHandle) {
        self.inner.break_qp(qp);
    }

    fn profile(&self, node: NodeId) -> &HostProfile {
        self.inner.profile(node)
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        self.inner.posting_snapshot(qp)
    }

    fn set_recorder(&mut self, recorder: trace::Recorder) {
        self.inner.set_recorder(recorder);
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn cpu_report(&self, node: NodeId) -> CpuReport {
        self.inner.cpu_report(node)
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn set_scheduler(&mut self, scheduler: SharedScheduler) {
        self.inner.set_scheduler(scheduler);
    }
}

/// What a workload driver needs from its transport so that one generic
/// driver serves both runs: the untraced run instantiates it with the
/// bare fabric (no decorator in the path at all), the traced run with
/// [`Timed`] around the same fabric.
pub trait Probe: Transport + Sized {
    type Inner: Transport;
    /// Whether this instantiation is the traced one (engine log, spans
    /// and tallies are collected only then).
    const TRACED: bool;
    fn wrap(inner: Self::Inner) -> Self;
    fn unwrap(self) -> Self::Inner;
    fn tally(&self) -> Tally;
}

impl<T: Transport> Probe for Timed<T> {
    type Inner = T;
    const TRACED: bool = true;

    fn wrap(inner: T) -> Self {
        Timed {
            inner,
            tally: Tally::default(),
        }
    }

    fn unwrap(self) -> T {
        self.inner
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

macro_rules! bare_probe {
    ($fabric:ty) => {
        impl Probe for $fabric {
            type Inner = $fabric;
            const TRACED: bool = false;

            fn wrap(inner: Self) -> Self {
                inner
            }

            fn unwrap(self) -> Self {
                self
            }

            fn tally(&self) -> Tally {
                Tally::default()
            }
        }
    };
}

bare_probe!(TcpFabric);
bare_probe!(Fabric);
