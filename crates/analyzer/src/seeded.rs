//! Seeded bugs for the execution explorer, injected at the transport
//! boundary: [`Seeded`] wraps the explored fabric and distorts the verbs
//! the orchestration issues, so the production cluster carries no test
//! hooks. With no bug seeded every call passes through unchanged.

use std::collections::BTreeMap;

use bytes::Bytes;
use simnet::{HostProfile, SimDuration, SimTime};
use verbs::{
    CpuReport, Delivery, FabricStats, NodeId, PostingSnapshot, QpHandle, SharedScheduler,
    Transport, VerbsError, WaitSpec, WrId,
};

/// `rdmc-sim`'s gap-repair tag (`TAG_NACK`, `reliability.rs`); its
/// payload is `(base: u64 LE, span: u32 LE)` (`encode_nack`,
/// `reliability/codec.rs`). The golden traces pin both.
const TAG_NACK: u64 = 4;

/// A deliberately seeded bug the explorer's invariants must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// §4.2 inverted: a receive post is held back until the posting
    /// node's next delivery comes out of `advance()`, so the readiness
    /// grant after it goes out first. A block send that beats that
    /// delivery finds no receive and arms RNR (the zero-RNR invariant).
    /// A send or write completion stamped at the instant of the post
    /// does not count: on TCP a write completes once flushed, which says
    /// nothing of its peer (no simulated completion is that fast).
    LazyRecvPost,
    /// Every NACK asks for `(base + 1, span - 1)` and a one-block NACK is
    /// dropped: the first loss of a gap is never repaired, the receiver
    /// escalates and evicts a healthy sender (crash-free completeness or
    /// digest convergence).
    NackOffByOne,
    /// `break_qp` calls are queued and applied in a fresh `HashSet` order
    /// at the next mutating call, so two runs of one choice sequence tear
    /// an epoch down differently (the replay audit).
    UnsortedQpTeardown,
}

/// A [`Transport`] decorator that injects [`SeededBug`]s.
pub struct Seeded<T> {
    inner: T,
    bugs: Vec<SeededBug>,
    /// Each queue-pair endpoint's node, learned in `connect`.
    node_of: BTreeMap<QpHandle, NodeId>,
    /// Receive posts held back per node, each with when it was made.
    held: BTreeMap<NodeId, Vec<(SimTime, QpHandle, WrId, u64)>>,
    /// Breaks not yet applied.
    breaks: Vec<QpHandle>,
}

impl<T: Transport> Seeded<T> {
    /// Wraps `inner` with `bugs` seeded.
    pub fn new(inner: T, bugs: &[SeededBug]) -> Self {
        Seeded {
            inner,
            bugs: bugs.to_vec(),
            node_of: BTreeMap::new(),
            held: BTreeMap::new(),
            breaks: Vec::new(),
        }
    }

    /// Applies the queued breaks in a freshly seeded hash order.
    #[allow(clippy::disallowed_types)] // hash-order iteration is the seeded bug
    fn flush_breaks(&mut self) {
        if !self.breaks.is_empty() {
            let scrambled: std::collections::HashSet<QpHandle> = self.breaks.drain(..).collect();
            scrambled.into_iter().for_each(|qp| self.inner.break_qp(qp));
        }
    }
}

/// `(base + 1, span - 1)` for a NACK payload, `None` when nothing is left.
fn off_by_one(nack: &[u8]) -> Option<Bytes> {
    let (base, span) = nack.split_first_chunk::<8>()?;
    let span = u32::from_le_bytes(*span.first_chunk::<4>()?).checked_sub(1)?;
    let base = u64::from_le_bytes(*base) + 1;
    (span > 0).then(|| Bytes::from([&base.to_le_bytes()[..], &span.to_le_bytes()].concat()))
}

impl<T: Transport> Transport for Seeded<T> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        self.flush_breaks();
        let (time, node, delivery) = self.inner.advance()?;
        let local = matches!(
            delivery,
            Delivery::SendDone { .. } | Delivery::WriteDone { .. }
        );
        // The node's software runs: what it held back posts now, perhaps
        // on a queue pair a view change tore down meanwhile.
        let held = self.held.remove(&node).unwrap_or_default();
        let (post, keep): (Vec<_>, Vec<_>) = held.into_iter().partition(|h| !local || h.0 < time);
        if !keep.is_empty() {
            self.held.insert(node, keep);
        }
        for (_, qp, wr_id, max_len) in post {
            let _ = self.inner.post_recv(qp, wr_id, max_len);
        }
        Some((time, node, delivery))
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        self.flush_breaks();
        let (qa, qb) = self.inner.connect(a, b);
        self.node_of.extend([(qa, a), (qb, b)]);
        (qa, qb)
    }

    fn post_send(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        imm: u64,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        self.flush_breaks();
        self.inner.post_send(qp, wr_id, bytes, imm, wait_for)
    }

    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        self.flush_breaks();
        if tag != TAG_NACK || !self.bugs.contains(&SeededBug::NackOffByOne) {
            return self.inner.post_write(qp, wr_id, tag, payload, wait_for);
        }
        match off_by_one(&payload) {
            Some(nack) => self.inner.post_write(qp, wr_id, tag, nack, wait_for),
            None => Ok(()),
        }
    }

    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError> {
        self.flush_breaks();
        if !self.bugs.contains(&SeededBug::LazyRecvPost) {
            return self.inner.post_recv(qp, wr_id, max_len);
        }
        let now = self.inner.now();
        let held = self.held.entry(self.node_of[&qp]).or_default();
        held.push((now, qp, wr_id, max_len));
        Ok(())
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.flush_breaks();
        self.inner.schedule_timer(node, delay, token);
    }

    fn consume_cpu(&mut self, node: NodeId, dur: SimDuration) {
        self.flush_breaks();
        self.inner.consume_cpu(node, dur);
    }

    fn crash(&mut self, node: NodeId) {
        self.flush_breaks();
        self.inner.crash(node);
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.is_crashed(node)
    }

    fn break_qp(&mut self, qp: QpHandle) {
        if self.bugs.contains(&SeededBug::UnsortedQpTeardown) {
            self.breaks.push(qp);
        } else {
            self.inner.break_qp(qp);
        }
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
