//! Per-NIC send admission and pacing for multi-tenant clusters.
//!
//! With many overlapping groups on one fabric (the Derecho-style
//! deployment of §I/§VII), every group's engine paces itself, but
//! nothing bounds what one *NIC* has in flight across groups: on an
//! oversubscribed fabric dozens of concurrent block sends share the
//! uplink, every transfer slows down, and tail latency balloons. The
//! pacer is the cluster's admission layer: each node may have at most
//! [`PacerConfig::max_inflight`] outbound block sends posted at once,
//! and when a slot frees, the queued candidates — which may belong to
//! different groups — are admitted in [`PacingPolicy`] order.
//!
//! Pacing is off by default; an unpaced cluster behaves bit-for-bit as
//! before (the golden-trace suite pins this). Control traffic
//! (readiness grants, failure relays, view and frontier writes) is never
//! paced: it is latency-critical and tiny.

use std::collections::{BTreeMap, VecDeque};

use rdmc::Rank;
use verbs::{QpHandle, Transport, WrId};

use crate::cluster::{Cluster, GroupId};

/// How queued block sends contending for a NIC's admission slots are
/// ordered when a slot frees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacingPolicy {
    /// Admit in arrival order (the unpaced ordering, just bounded).
    Fifo,
    /// Admit the send belonging to the smallest message first
    /// (shortest-job-first across groups; ties break by arrival).
    SmallestFirst,
    /// Rotate admission across groups so no tenant starves another.
    RoundRobin,
}

impl PacingPolicy {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PacingPolicy::Fifo => "fifo",
            PacingPolicy::SmallestFirst => "smallest_first",
            PacingPolicy::RoundRobin => "round_robin",
        }
    }
}

/// Configuration of the per-node send admission layer
/// ([`crate::ClusterBuilder::pacing`]).
#[derive(Clone, Copy, Debug)]
#[must_use = "pass the config to `ClusterBuilder::pacing`"]
pub struct PacerConfig {
    /// Outbound block sends one node may have posted at once (≥ 1;
    /// admission keeps at least one send moving so progress never
    /// stalls).
    pub max_inflight: u32,
    /// Admission order for queued sends.
    pub policy: PacingPolicy,
}

impl PacerConfig {
    /// A bound with the given policy.
    pub fn new(max_inflight: u32, policy: PacingPolicy) -> Self {
        assert!(max_inflight >= 1, "pacer needs at least one inflight send");
        PacerConfig {
            max_inflight,
            policy,
        }
    }
}

/// Counters the pacer accumulates over a run, for load reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacingStats {
    /// Block sends that were held in an admission queue (at least once).
    pub deferred_sends: u64,
    /// Deepest any single node's admission queue ever got.
    pub peak_queue_depth: usize,
}

/// One block send held back by admission control.
#[derive(Clone, Debug)]
pub(crate) struct QueuedSend {
    pub group: GroupId,
    pub rank: Rank,
    pub to: Rank,
    pub block: u32,
    pub bytes: u64,
    pub total_size: u64,
    /// Recorder time the engine issued the send (for the
    /// `SendAdmitted` trace event's queue-wait field).
    pub enqueued_ns: u64,
}

/// Per-node admission state.
#[derive(Default)]
pub(crate) struct NodePacer {
    /// Block sends currently posted to the fabric from this node.
    pub inflight: u32,
    /// Held sends, in arrival order.
    pub queue: VecDeque<QueuedSend>,
    /// Group admitted last (the round-robin cursor).
    pub rr_last: Option<GroupId>,
}

/// The cluster-wide pacer: per-node admission plus the posted-send
/// ledger that maps completions back to their node.
pub(crate) struct PacerState {
    pub config: PacerConfig,
    /// Ordered map: reconfiguration iterates it, and iteration order
    /// must not depend on hashing (the determinism audit).
    pub nodes: BTreeMap<usize, NodePacer>,
    /// (queue pair, work request) -> posting node, for every block send
    /// the pacer admitted and the fabric accepted. Entries leave on
    /// `SendDone` or `WrFlushed`; control writes never enter.
    pub admitted: BTreeMap<(QpHandle, WrId), usize>,
    pub stats: PacingStats,
}

impl PacerState {
    pub fn new(config: PacerConfig) -> Self {
        PacerState {
            config,
            nodes: BTreeMap::new(),
            admitted: BTreeMap::new(),
            stats: PacingStats::default(),
        }
    }

    /// Ledgers a block send the fabric accepted: it holds one of
    /// `node`'s admission slots until its completion or flush.
    pub fn note_posted(&mut self, qp: QpHandle, wr_id: WrId, node: usize) {
        self.admitted.insert((qp, wr_id), node);
        self.nodes.entry(node).or_default().inflight += 1;
    }

    /// Dead software posts nothing: whatever `node`'s admission queue
    /// still held dies with it (its posted sends flush separately).
    pub fn drop_node_queue(&mut self, node: usize) {
        if let Some(np) = self.nodes.get_mut(&node) {
            np.queue.clear();
        }
    }

    /// Drops `group`'s queued (never-posted) sends everywhere: they
    /// carry old-epoch ranks, and the resume plans re-issue whatever
    /// still matters in new-epoch terms.
    pub fn drop_group_queue(&mut self, group: GroupId) {
        for np in self.nodes.values_mut() {
            np.queue.retain(|q| q.group != group);
        }
    }

    /// All equally-preferred queue indices under the policy, in arrival
    /// order; the first entry is the default (uncontrolled)
    /// choice. More than one entry means the policy is indifferent — a
    /// genuine admission tie that a controlled scheduler may resolve
    /// either way. Only smallest-first produces real ties (equal
    /// message sizes); FIFO and round-robin orders are total.
    pub fn pick_tied(config: &PacerConfig, np: &NodePacer) -> Vec<usize> {
        if np.queue.is_empty() {
            return Vec::new();
        }
        match config.policy {
            PacingPolicy::Fifo => vec![0],
            PacingPolicy::SmallestFirst => {
                let min = np
                    .queue
                    .iter()
                    .map(|q| q.total_size)
                    .min()
                    .expect("non-empty queue");
                np.queue
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| q.total_size == min)
                    .map(|(i, _)| i)
                    .collect()
            }
            PacingPolicy::RoundRobin => {
                // The next distinct group after the cursor (cycling);
                // within a group, arrival order.
                let mut groups: Vec<GroupId> = np.queue.iter().map(|q| q.group).collect();
                groups.sort_unstable();
                groups.dedup();
                let next = match np.rr_last {
                    Some(last) => groups
                        .iter()
                        .copied()
                        .find(|&g| g > last)
                        .unwrap_or(groups[0]),
                    None => groups[0],
                };
                np.queue
                    .iter()
                    .position(|q| q.group == next)
                    .into_iter()
                    .collect()
            }
        }
    }
}

/// The admission path proper: every engine block send enters through
/// [`Cluster::admit_or_queue_block`], and every retiring send leaves
/// through [`Cluster::release_send_slot`] followed by a
/// [`Cluster::pump`] of the freed node.
impl<T: Transport> Cluster<T> {
    /// Routes an engine block send through the admission layer: unpaced
    /// clusters post straight to the fabric; paced ones enqueue and let
    /// the policy decide what the NIC's free slots carry.
    pub(crate) fn admit_or_queue_block(
        &mut self,
        group: GroupId,
        rank: Rank,
        to: Rank,
        block: u32,
        bytes: u64,
        total_size: u64,
    ) {
        let node = self.groups[group].node(rank).index();
        let Some(p) = self.pacer.as_mut() else {
            self.post_block(group, rank, to, block, bytes, total_size);
            return;
        };
        let max = p.config.max_inflight;
        let np = p.nodes.entry(node).or_default();
        // Invariant: after every pump, a non-empty queue means the NIC is
        // saturated — so a send arriving with a free slot is admitted by
        // the pump below without ever waiting.
        if np.inflight >= max {
            p.stats.deferred_sends += 1;
        }
        let enqueued_ns = self.recorder.now();
        np.queue.push_back(QueuedSend {
            group,
            rank,
            to,
            block,
            bytes,
            total_size,
            enqueued_ns,
        });
        let depth = np.queue.len();
        p.stats.peak_queue_depth = p.stats.peak_queue_depth.max(depth);
        self.pump(node);
    }

    /// Admits queued sends on `node` while it has free admission slots,
    /// in policy order. With a controlled scheduler attached, genuine
    /// admission ties (more than one equally-preferred send) become
    /// explicit choice points the scheduler resolves.
    pub(crate) fn pump(&mut self, node: usize) {
        loop {
            // Borrow scope: compute the policy's tied candidates, then
            // release the pacer borrow before consulting the scheduler.
            let (first, candidates) = {
                let Some(p) = self.pacer.as_mut() else {
                    return;
                };
                let config = p.config;
                let Some(np) = p.nodes.get_mut(&node) else {
                    return;
                };
                if np.inflight >= config.max_inflight {
                    return;
                }
                let tied = PacerState::pick_tied(&config, np);
                let Some(&first) = tied.first() else {
                    return;
                };
                let candidates: Vec<verbs::Candidate> = if tied.len() > 1 {
                    tied.iter()
                        .map(|&slot| verbs::Candidate {
                            seq: slot as u64,
                            node: node as u32,
                            conn: None,
                            kind: verbs::CandidateKind::PacerSend {
                                group: np.queue[slot].group as u64,
                                slot: slot as u64,
                            },
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                (first, candidates)
            };
            let i = match (&self.scheduler, candidates.len()) {
                (Some(sched), 2..) => {
                    let point = verbs::ChoicePoint {
                        time_ns: self.fabric.now().as_nanos(),
                        kind: verbs::PointKind::PacerTie,
                        candidates: &candidates,
                    };
                    let chosen = verbs::sched::pick(sched, &point);
                    match candidates[chosen].kind {
                        verbs::CandidateKind::PacerSend { slot, .. } => slot as usize,
                        _ => first,
                    }
                }
                _ => first,
            };
            let p = self.pacer.as_mut().expect("pacing on");
            let np = p.nodes.get_mut(&node).expect("node has a pacer entry");
            let qs = np.queue.remove(i).expect("picked index in range");
            np.rr_last = Some(qs.group);
            // A rejected post (the connection broke while the send sat in
            // the queue) takes no slot, so the loop just tries the next
            // candidate.
            if self.post_block(qs.group, qs.rank, qs.to, qs.block, qs.bytes, qs.total_size) {
                self.recorder
                    .record(trace::Scope::group_rank(qs.group as u32, qs.rank), || {
                        trace::EventKind::SendAdmitted {
                            to: qs.to,
                            block: qs.block,
                            queued_ns: self.recorder.now().saturating_sub(qs.enqueued_ns),
                        }
                    });
            }
        }
    }

    /// Releases the admission slot a retiring work request held, if it
    /// was a pacer-admitted block send. Returns the posting node so the
    /// caller can pump its queue.
    pub(crate) fn release_send_slot(&mut self, qp: QpHandle, wr_id: WrId) -> Option<usize> {
        let p = self.pacer.as_mut()?;
        let node = p.admitted.remove(&(qp, wr_id))?;
        if let Some(np) = p.nodes.get_mut(&node) {
            np.inflight = np.inflight.saturating_sub(1);
        }
        Some(node)
    }
}
