//! Per-group reliability policies for lossy fabrics.
//!
//! RDMC proper assumes a lossless network (§2.2): a dropped block either
//! hangs the transfer or breaks the connection. This module supplies the
//! *software-defined reliability* layer that SDR-RDMA argues belongs
//! above the transport: when a group is configured with a
//! [`ReliabilityPolicy`], every block send carries a per-connection
//! sequence number in its immediate (packed by
//! [`trace::check::wire::pack_imm`]), receivers reorder and gap-detect,
//! and missing blocks are recovered by the policy:
//!
//! - [`ReliabilityPolicy::SelectiveAck`] — receivers NACK detected gaps
//!   (tiny control writes on the reliable side channel); the sending
//!   side retransmits exactly the missing blocks as one-sided writes. Each
//!   interior loss costs about one round trip; a retry timer with
//!   exponential backoff re-NACKs when repairs are themselves lost.
//! - [`ReliabilityPolicy::ErasureCode`] — the sending side closes every
//!   `data` consecutive blocks on a connection into a *generation* and
//!   follows it with `parity` parity writes; a receiver missing at most as many
//!   blocks as it has parity for reconstructs locally, without paying
//!   the retransmission round trip (the WAN story). NACK retransmission
//!   remains as the fallback for losses beyond the code's budget.
//! - [`ReliabilityPolicy::WedgeResume`] — no repair at all: the first
//!   detected loss escalates straight to the epoch-recovery path.
//!
//! Whatever the policy, a receiver whose retry budget is exhausted
//! *escalates*: it records [`trace::EventKind::LossEscalated`], feeds
//! `PeerFailed` into its engine, and lets the membership service resume
//! the transfer in a new epoch — no configuration hangs.
//!
//! Trailing losses (the last blocks of a burst, with no later arrival to
//! reveal the gap) are covered by a sender-side *probe*: after a quiet
//! period the sender announces its send frontier on the reliable side
//! channel, and the receiver NACKs (or escalates on) anything missing
//! below it. Control traffic — NACKs, probes — rides the fabric's
//! tiny-write bypass and is never subject to the fault model; block
//! retransmissions and parity are full-size writes and remain lossy.
//!
//! Groups without a policy are untouched: block immediates stay the raw
//! total size and no per-connection state exists, so lossless runs are
//! bit-for-bit identical to a build without this module.

use std::collections::{BTreeMap, BTreeSet};

use rdmc::engine::Event;
use rdmc::Rank;
use simnet::SimDuration;
use trace::check::wire;
use verbs::{QpHandle, Transport, WrId};

use crate::cluster::{Cluster, GroupId, TimerAction};

mod codec;
use codec::{
    contiguous_ranges, decode_nack, decode_parity, decode_probe, decode_repair, encode_nack,
    encode_parity, encode_probe, encode_repair,
};

/// One-sided-write tag for gap-repair requests.
pub(crate) const TAG_NACK: u64 = 4;
/// One-sided-write tag for retransmitted blocks.
pub(crate) const TAG_RETRANS: u64 = 5;
/// One-sided-write tag for erasure-coded parity writes.
pub(crate) const TAG_PARITY: u64 = 6;
/// One-sided-write tag for sender send-frontier probes (trailing-loss
/// detection after a quiet period).
pub(crate) const TAG_PROBE: u64 = 7;

/// Base receiver retry timeout: when known-missing blocks stay missing
/// this long, the receiver re-NACKs, doubling the wait per attempt
/// (capped). It must comfortably exceed the path round trip. 250 ms is
/// WAN-safe: geo links in the bench run at 50 ms one-way, so the repair
/// round trip is ~100 ms plus transfer time, and virtual time is free,
/// so the generous value costs LAN runs nothing.
const RTO: SimDuration = SimDuration::from_millis(250);
/// Re-NACK rounds a repairing policy spends before the receiver gives up
/// and escalates to epoch recovery.
const RETRY_BUDGET: u32 = 6;
/// A repairing sender's quiet period before its trailing-loss frontier
/// probe: two retry timeouts, so gaps a later arrival reveals are left
/// to the receiver's own NACKs and the probe only chases trailing
/// losses. Wedge-resume repairs nothing and probes after one.
const PROBE_DELAY: SimDuration = SimDuration::from_nanos(2 * RTO.as_nanos());

/// How a group recovers blocks the fabric loses (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReliabilityPolicy {
    /// NACK-driven selective retransmission.
    SelectiveAck,
    /// `data`-blocks-per-generation erasure coding with `parity` parity
    /// writes per generation, NACK retransmission as the fallback. Build
    /// it with [`ReliabilityPolicy::erasure`], which rejects zeros.
    ///
    /// Keep `data < ready_window`: the sender's credit window must span
    /// a whole generation, or a mid-generation loss stalls the sender
    /// before the generation closes and recovery waits for the
    /// quiet-period parity flush instead of completing inline.
    ErasureCode {
        /// Data blocks per generation (k).
        data: u32,
        /// Parity writes per generation (r): up to `r` losses per
        /// generation reconstruct without a retransmission round trip.
        parity: u32,
    },
    /// No repair: the first detected loss escalates to epoch recovery
    /// (or wedges the group when recovery is off).
    WedgeResume,
}

impl ReliabilityPolicy {
    /// Erasure coding: `data` blocks per generation, `parity` parity
    /// writes, NACK retransmission for losses beyond the parity.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `parity` is zero.
    pub fn erasure(data: u32, parity: u32) -> Self {
        assert!(data >= 1, "erasure generation needs at least one block");
        assert!(parity >= 1, "erasure coding needs at least one parity");
        ReliabilityPolicy::ErasureCode { data, parity }
    }

    /// Short label for reports and bench tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReliabilityPolicy::SelectiveAck => "selective-ack",
            ReliabilityPolicy::ErasureCode { .. } => "erasure",
            ReliabilityPolicy::WedgeResume => "wedge-resume",
        }
    }

    /// Re-NACK rounds before the receiver escalates (wedge-resume: none,
    /// so any retry attempt escalates).
    fn retry_budget(&self) -> u32 {
        match self {
            ReliabilityPolicy::WedgeResume => 0,
            _ => RETRY_BUDGET,
        }
    }

    /// Sender quiet period before the trailing-loss frontier probe.
    fn probe_delay(&self) -> SimDuration {
        match self {
            ReliabilityPolicy::WedgeResume => RTO,
            _ => PROBE_DELAY,
        }
    }
}

/// Counters of everything the reliability layer did (cluster-wide).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Gap-repair requests sent (one per contiguous missing range).
    pub nacks_sent: u64,
    /// Blocks retransmitted (NACK responses).
    pub repairs_sent: u64,
    /// Retransmitted blocks that arrived at receivers.
    pub repairs_received: u64,
    /// Parity writes emitted under erasure coding.
    pub parity_writes_sent: u64,
    /// Missing blocks reconstructed from parity, no retransmission.
    pub parity_repairs: u64,
    /// Frontier probes sent after sender quiet periods.
    pub probes_sent: u64,
    /// Duplicate arrivals discarded (late repairs racing re-NACKs).
    pub duplicates: u64,
    /// Receivers that exhausted their retry budget and escalated.
    pub escalations: u64,
}

/// Cluster-wide reliability state: the default policy plus every
/// policy connection's sender and receiver shim.
#[derive(Default)]
pub(crate) struct Reliability {
    /// Policy newly created groups inherit
    /// ([`crate::ClusterBuilder::reliability`]).
    pub(crate) default: Option<ReliabilityPolicy>,
    /// Sender-side state, keyed by the sender's local endpoint.
    send: BTreeMap<QpHandle, RelSendState>,
    /// Receiver-side state, keyed by the receiver's local endpoint.
    recv: BTreeMap<QpHandle, RelRecvState>,
    /// Counters of everything the layer did.
    stats: ReliabilityStats,
}

impl Reliability {
    /// Reliability state dies with its queue pair at epoch teardown:
    /// buffered not-yet-fed blocks are re-fetched by the resume plans
    /// (slightly wasteful, never wrong), and outstanding retry/probe
    /// timers go stale via the owner lookup.
    pub(crate) fn forget_qp(&mut self, qp: QpHandle) {
        self.send.remove(&qp);
        self.recv.remove(&qp);
    }
}

/// Sender-side per-connection state (keyed by the sender's local
/// [`verbs::QpHandle`]; dies with the queue pair at epoch teardown).
#[derive(Default)]
struct RelSendState {
    /// Next block sequence number on this connection.
    pub(crate) next_seq: u64,
    /// Everything sent, for retransmission: seq -> (length, imm total).
    /// Never pruned — the protocol is NACK-only, so no acknowledgement
    /// ever licenses forgetting (a real implementation would piggyback
    /// cumulative acks on the credit channel; entries are 24 bytes and
    /// simulated runs are finite).
    pub(crate) ledger: BTreeMap<u64, (u64, u64)>,
    /// Open erasure generation: (seq, length, imm total) per data block.
    pub(crate) gen_slots: Vec<(u64, u64, u64)>,
    /// Next erasure generation id.
    pub(crate) next_gen: u64,
    /// When the last block was posted (virtual ns), for the quiet-period
    /// probe.
    pub(crate) last_post_ns: u64,
    /// A probe timer is outstanding.
    pub(crate) probe_armed: bool,
    /// Send frontier already announced by a probe.
    pub(crate) probed_upto: u64,
}

/// One erasure generation as seen by the receiver.
struct ParityGen {
    /// Parity writes that arrived for this generation.
    pub(crate) received: u32,
    /// The data blocks the generation covers: (seq, imm total).
    pub(crate) slots: Vec<(u64, u64)>,
}

/// Receiver-side per-connection state (keyed by the receiver's local
/// [`verbs::QpHandle`]).
#[derive(Default)]
struct RelRecvState {
    /// Next sequence the engine will be fed (FIFO hole frontier).
    pub(crate) next_expected: u64,
    /// Arrived out of order, waiting for the hole to fill: seq -> total.
    pub(crate) buffered: BTreeMap<u64, u64>,
    /// Known-missing sequences awaiting repair.
    pub(crate) missing: BTreeSet<u64>,
    /// A retry (re-NACK) timer is outstanding.
    pub(crate) rto_armed: bool,
    /// Re-NACK rounds spent on the current hole set.
    pub(crate) rto_attempt: u32,
    /// Erasure generations with outstanding parity bookkeeping.
    pub(crate) parity: BTreeMap<u64, ParityGen>,
    /// This connection already escalated; suppress further repair.
    pub(crate) escalated: bool,
}

impl RelRecvState {
    /// Marks every sequence below `upto` that has not been fed, is not
    /// buffered and is not already being chased as missing, and returns
    /// these newly detected losses. `None` for a claim more than
    /// `window + 1` past the next sequence to feed: the engine grants
    /// its group's `ready_window` credits beyond the blocks it was fed
    /// of a message, plus one idle-state credit for the next, so no
    /// honest sender runs farther ahead. A farther claim is malformed
    /// peer input, dropped before it costs work in proportion to the
    /// number it names.
    fn note_gap(&mut self, upto: u64, window: u32) -> Option<Vec<u64>> {
        if upto > self.next_expected.saturating_add(u64::from(window) + 1) {
            return None;
        }
        let newly: Vec<u64> = (self.next_expected..upto)
            .filter(|s| !self.buffered.contains_key(s) && !self.missing.contains(s))
            .collect();
        self.missing.extend(&newly);
        Some(newly)
    }
}

/// The lossy-fabric reliability layer (see [`ReliabilityPolicy`] and
/// the `reliability` module docs). Everything here runs *between* the
/// fabric and the protocol engines: engines still see a gap-free FIFO
/// of `BlockReceived` events per peer, exactly as on a lossless fabric
/// — the shim reorders, repairs, reconstructs, or escalates underneath.
impl<T: Transport> Cluster<T> {
    /// Everything the reliability layer did so far, cluster-wide.
    pub fn reliability_stats(&self) -> ReliabilityStats {
        self.reliability.stats
    }

    /// Records a reliability-layer event under `rank`'s full scope.
    fn record_rel<F: FnOnce() -> trace::EventKind>(&self, group: GroupId, rank: Rank, f: F) {
        self.recorder
            .record(self.groups[group].scope(group, rank), f);
    }

    /// Tags an outgoing block of a policy group with its connection
    /// sequence number (packed alongside the message size) and ledgers
    /// it for retransmission; returns the immediate to post. Plain
    /// groups never come here and keep the raw size immediate, so
    /// lossless runs stay bit-for-bit unchanged.
    pub(crate) fn rel_tag_block(
        &mut self,
        qp: QpHandle,
        policy: ReliabilityPolicy,
        bytes: u64,
        total_size: u64,
    ) -> u64 {
        let st = self.reliability.send.entry(qp).or_default();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.ledger.insert(seq, (bytes, total_size));
        st.last_post_ns = self.fabric.now().as_nanos();
        if matches!(policy, ReliabilityPolicy::ErasureCode { .. }) {
            st.gen_slots.push((seq, bytes, total_size));
        }
        wire::pack_imm(seq, total_size)
    }

    /// The fabric accepted a tagged block: close the erasure generation
    /// if this block filled it, and (re)arm the quiet-period probe.
    pub(crate) fn rel_block_posted(&mut self, group: GroupId, rank: Rank, qp: QpHandle) {
        self.rel_flush_parity(group, rank, qp, false);
        self.rel_arm_probe(qp, group, rank);
    }

    /// A block landed on a policy group's connection. Returns `false`
    /// for an untagged immediate, which the caller feeds as on a plain
    /// group.
    pub(crate) fn rel_block_arrival(&mut self, qp: QpHandle, imm: u64) -> bool {
        let (Some(seq), total) = wire::unpack_imm(imm) else {
            return false;
        };
        self.rel_data_arrival(qp, seq, total);
        true
    }

    /// A block arrived with a corrupt payload. An unprotected group has
    /// no redelivery path: the block is gone and the transfer stalls —
    /// exactly what a lossless-assuming deployment does on a corrupting
    /// fabric (the trace oracle flags the unrepaired loss). On a policy
    /// group the immediate survives (headers and payload carry separate
    /// CRCs), so the receiver knows exactly which block to re-request
    /// without waiting for the gap to show up in the sequence stream.
    pub(crate) fn rel_corrupt_arrival(&mut self, qp: QpHandle, imm: u64) {
        let Some((group, me, _peer)) = self.qp_owner(qp) else {
            return;
        };
        if self.groups[group].reliability.is_none() {
            return;
        }
        let (Some(seq), _total) = wire::unpack_imm(imm) else {
            return;
        };
        let st = self.reliability.recv.entry(qp).or_default();
        let fresh = !st.escalated
            && seq >= st.next_expected
            && !st.buffered.contains_key(&seq)
            && st.missing.insert(seq);
        if fresh {
            self.rel_chase(qp, group, me, &[seq]);
        }
    }

    /// One of this layer's control writes landed at `me`. The payload is
    /// peer input: one that does not decode is dropped.
    pub(crate) fn rel_control_arrival(
        &mut self,
        qp: QpHandle,
        group: GroupId,
        me: Rank,
        tag: u64,
        payload: &[u8],
    ) {
        match tag {
            TAG_NACK => {
                if let Some((base, span)) = decode_nack(payload) {
                    self.rel_retransmit(qp, group, me, base, span);
                }
            }
            TAG_RETRANS => {
                let Some((seq, total)) = decode_repair(payload) else {
                    return;
                };
                self.reliability.stats.repairs_received += 1;
                self.record_rel(group, me, || trace::EventKind::RepairDelivered {
                    conn: qp.conn_id(),
                    seq,
                    coded: false,
                });
                self.rel_data_arrival(qp, seq, total);
            }
            TAG_PARITY => {
                if let Some((generation, slots)) = decode_parity(payload) {
                    self.rel_parity_arrival(qp, group, me, generation, slots);
                }
            }
            TAG_PROBE => {
                if let Some(frontier) = decode_probe(payload) {
                    self.rel_probe_arrival(qp, group, me, frontier);
                }
            }
            other => unreachable!("control tag {other} is not a reliability tag"),
        }
    }

    /// Starts repair of the newly detected losses `seqs` as the group's
    /// policy dictates: wedge-resume escalates at once, the repairing
    /// policies NACK and arm the retry timer.
    fn rel_chase(&mut self, qp: QpHandle, group: GroupId, me: Rank, seqs: &[u64]) {
        match self.groups[group].reliability {
            Some(ReliabilityPolicy::WedgeResume) => self.rel_escalate(qp),
            Some(_) => {
                self.rel_request(qp, group, me, seqs);
                self.rel_arm_rto(qp, group, me);
            }
            None => {}
        }
    }

    /// A sequence-tagged data block reached the receiver (original
    /// send, retransmission, or parity reconstruction — all converge
    /// here). Feeds the engine every block that became contiguous, and
    /// starts repair for any gap this arrival revealed.
    fn rel_data_arrival(&mut self, qp: QpHandle, seq: u64, total: u64) {
        let Some((group, me, peer)) = self.qp_owner(qp) else {
            return; // stale completion for a torn-down queue pair
        };
        let window = self.groups[group].spec.ready_window;
        let (feeds, newly_missing) = {
            let st = self.reliability.recv.entry(qp).or_default();
            if st.escalated {
                return; // the epoch recovery path owns this hole now
            }
            if seq < st.next_expected || st.buffered.contains_key(&seq) {
                // A late repair racing a re-NACK, or double reconstruction.
                self.reliability.stats.duplicates += 1;
                return;
            }
            st.missing.remove(&seq);
            let mut feeds: Vec<u64> = Vec::new();
            let mut newly: Vec<u64> = Vec::new();
            if seq == st.next_expected {
                // The hole frontier advanced: feed this block and drain
                // the contiguous run of buffered successors behind it.
                feeds.push(total);
                st.next_expected += 1;
                while let Some(t) = st.buffered.remove(&st.next_expected) {
                    feeds.push(t);
                    st.next_expected += 1;
                }
                if st.missing.is_empty() {
                    st.rto_attempt = 0; // gap closed: fresh budget next time
                }
            } else {
                // Arrived past the frontier: the gap in between is lost.
                let Some(gap) = st.note_gap(seq, window) else {
                    return;
                };
                st.buffered.insert(seq, total);
                newly = gap;
            }
            (feeds, newly)
        };
        for t in feeds {
            self.feed(
                group,
                me,
                Event::BlockReceived {
                    from: peer,
                    total_size: t,
                },
            );
        }
        if !newly_missing.is_empty() {
            self.rel_chase(qp, group, me, &newly_missing);
        }
    }

    /// Sends one NACK per contiguous missing range (tiny control writes
    /// on the reliable bypass).
    fn rel_request(&mut self, qp: QpHandle, group: GroupId, me: Rank, seqs: &[u64]) {
        for (base, span) in contiguous_ranges(seqs) {
            self.reliability.stats.nacks_sent += 1;
            self.record_rel(group, me, || trace::EventKind::NackSent {
                conn: qp.conn_id(),
                end: qp.endpoint(),
                seq: base,
                span: u64::from(span),
            });
            let _ = self
                .fabric
                .post_write(qp, WrId(3), TAG_NACK, encode_nack(base, span), None);
        }
    }

    /// Arms the receiver's retry timer (idempotent): when it fires with
    /// blocks still missing, they are re-NACKed with exponential backoff
    /// until the budget is spent, then the connection escalates.
    fn rel_arm_rto(&mut self, qp: QpHandle, group: GroupId, me: Rank) {
        let delay = {
            let st = self.reliability.recv.entry(qp).or_default();
            if st.rto_armed || st.escalated {
                return;
            }
            st.rto_armed = true;
            SimDuration::from_nanos(RTO.as_nanos().saturating_mul(1u64 << st.rto_attempt.min(6)))
        };
        let node = self.groups[group].node(me).index();
        self.arm_timer(node, delay, TimerAction::RelRto { qp });
    }

    /// The receiver retry timer fired.
    pub(crate) fn rel_rto_fired(&mut self, qp: QpHandle) {
        let Some((group, me, _peer)) = self.qp_owner(qp) else {
            return; // old-epoch timer: the queue pair is gone
        };
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        let budget = policy.retry_budget();
        let missing: Vec<u64> = {
            let Some(st) = self.reliability.recv.get_mut(&qp) else {
                return;
            };
            st.rto_armed = false;
            if st.escalated {
                return;
            }
            if st.missing.is_empty() {
                st.rto_attempt = 0;
                return; // everything healed before the timer fired
            }
            st.rto_attempt += 1;
            if st.rto_attempt > budget {
                Vec::new() // budget spent: escalate below
            } else {
                st.missing.iter().copied().collect()
            }
        };
        if missing.is_empty() {
            self.rel_escalate(qp);
            return;
        }
        self.rel_request(qp, group, me, &missing);
        self.rel_arm_rto(qp, group, me);
    }

    /// Loss beyond the policy's repair means: hand the connection to the
    /// §2.4 membership service (recovery on) or break it so both sides
    /// wedge (recovery off). Either way, no silent hang.
    fn rel_escalate(&mut self, qp: QpHandle) {
        let Some((group, me, peer)) = self.qp_owner(qp) else {
            return;
        };
        {
            let st = self.reliability.recv.entry(qp).or_default();
            if st.escalated {
                return;
            }
            st.escalated = true;
        }
        self.reliability.stats.escalations += 1;
        self.record_rel(group, me, || trace::EventKind::LossEscalated {
            conn: qp.conn_id(),
        });
        if self.recovery_enabled() {
            // The persistently lossy sender is treated as failed: the
            // group reconfigures and interrupted messages resume from
            // the survivors' wedge-time bitmaps (or are consistently
            // abandoned when the evicted sender held the only copy).
            self.learned_failure(group, me, peer);
        } else {
            self.fabric.break_qp(qp);
        }
    }

    /// An incoming NACK at the data sender: retransmit every ledgered
    /// block of the requested range as a one-sided write (no posted
    /// receive consumed — repairs sit outside the credit flow). The walk
    /// visits ledger entries only, so a range wider than the ledger
    /// costs no more than the ledger.
    fn rel_retransmit(&mut self, qp: QpHandle, group: GroupId, me: Rank, base: u64, span: u32) {
        let repairs: Vec<(u64, u64, u64)> = {
            let Some(st) = self.reliability.send.get(&qp) else {
                return;
            };
            st.ledger
                .range(base..base.saturating_add(u64::from(span)))
                .map(|(&s, &(len, total))| (s, len, total))
                .collect()
        };
        for (seq, len, total) in repairs {
            self.reliability.stats.repairs_sent += 1;
            self.record_rel(group, me, || trace::EventKind::RepairSent {
                conn: qp.conn_id(),
                seq,
            });
            let _ = self.fabric.post_write(
                qp,
                WrId(wire::REPAIR_WR_BASE + seq),
                TAG_RETRANS,
                encode_repair(seq, total, len),
                None,
            );
        }
    }

    /// An erasure parity write landed: if the generation's missing
    /// blocks number at most the parity received for it, reconstruct
    /// them locally (the no-round-trip repair); otherwise register the
    /// gaps so the retry timer can fall back to NACK retransmission.
    fn rel_parity_arrival(
        &mut self,
        qp: QpHandle,
        group: GroupId,
        me: Rank,
        generation: u64,
        slots: Vec<(u64, u64)>,
    ) {
        enum Outcome {
            Done,
            Repair(Vec<(u64, u64)>),
            Register(Vec<u64>),
        }
        let outcome = {
            let st = self.reliability.recv.entry(qp).or_default();
            if st.escalated {
                return;
            }
            let (received, covered) = {
                let pg = st
                    .parity
                    .entry(generation)
                    .or_insert_with(|| ParityGen { received: 0, slots });
                pg.received += 1;
                (pg.received as usize, pg.slots.clone())
            };
            let missing: Vec<(u64, u64)> = covered
                .into_iter()
                .filter(|&(s, _)| s >= st.next_expected && !st.buffered.contains_key(&s))
                .collect();
            if missing.is_empty() {
                st.parity.remove(&generation);
                Outcome::Done
            } else if missing.len() <= received {
                st.parity.remove(&generation);
                Outcome::Repair(missing)
            } else {
                Outcome::Register(missing.iter().map(|&(s, _)| s).collect())
            }
        };
        match outcome {
            Outcome::Done => {}
            Outcome::Repair(missing) => {
                for (seq, total) in missing {
                    self.reliability.stats.parity_repairs += 1;
                    self.record_rel(group, me, || trace::EventKind::RepairDelivered {
                        conn: qp.conn_id(),
                        seq,
                        coded: true,
                    });
                    self.rel_data_arrival(qp, seq, total);
                }
            }
            Outcome::Register(seqs) => {
                {
                    let st = self.reliability.recv.entry(qp).or_default();
                    for &s in &seqs {
                        st.missing.insert(s);
                    }
                }
                self.rel_arm_rto(qp, group, me);
            }
        }
    }

    /// A sender frontier probe landed: anything below the announced
    /// frontier that never arrived is a trailing loss — the kind no
    /// later arrival would ever reveal.
    fn rel_probe_arrival(&mut self, qp: QpHandle, group: GroupId, me: Rank, frontier: u64) {
        let window = self.groups[group].spec.ready_window;
        let st = self.reliability.recv.entry(qp).or_default();
        if st.escalated {
            return;
        }
        if let Some(newly) = st.note_gap(frontier, window).filter(|n| !n.is_empty()) {
            self.rel_chase(qp, group, me, &newly);
        }
    }

    /// Emits the open erasure generation's parity writes if it is full
    /// (or `force`, for the trailing partial generation at a quiet
    /// period). Parity is block-sized — it costs honest bandwidth and
    /// is itself subject to the fault model.
    fn rel_flush_parity(&mut self, group: GroupId, rank: Rank, qp: QpHandle, force: bool) {
        let Some(ReliabilityPolicy::ErasureCode { data, parity, .. }) =
            self.groups[group].reliability
        else {
            return;
        };
        let (generation, slots) = {
            let Some(st) = self.reliability.send.get_mut(&qp) else {
                return;
            };
            if st.gen_slots.is_empty() || (!force && (st.gen_slots.len() as u32) < data) {
                return;
            }
            let generation = st.next_gen;
            st.next_gen += 1;
            (generation, std::mem::take(&mut st.gen_slots))
        };
        let pad = slots.iter().map(|&(_, len, _)| len).max().unwrap_or(0);
        let covered: Vec<(u64, u64)> = slots.iter().map(|&(s, _, t)| (s, t)).collect();
        let payload = encode_parity(generation, &covered, pad);
        self.record_rel(group, rank, || trace::EventKind::ParitySent {
            conn: qp.conn_id(),
            seq: covered[0].0,
            data: covered.len() as u64,
        });
        for j in 0..u64::from(parity) {
            self.reliability.stats.parity_writes_sent += 1;
            let wr = wire::PARITY_WR_BASE + generation * u64::from(parity) + j;
            let _ = self
                .fabric
                .post_write(qp, WrId(wr), TAG_PARITY, payload.clone(), None);
        }
    }

    /// Arms the sender's quiet-period probe timer (idempotent; one per
    /// connection).
    fn rel_arm_probe(&mut self, qp: QpHandle, group: GroupId, rank: Rank) {
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        {
            let st = self.reliability.send.entry(qp).or_default();
            if st.probe_armed {
                return;
            }
            st.probe_armed = true;
        }
        let node = self.groups[group].node(rank).index();
        self.arm_timer(node, policy.probe_delay(), TimerAction::RelProbe { qp });
    }

    /// The sender quiet-period timer fired: if sends are still flowing,
    /// push the timer out; if the frontier was already announced and
    /// nothing is pending, stop (termination); otherwise flush any
    /// partial parity generation and announce the frontier so the
    /// receiver can detect trailing losses.
    pub(crate) fn rel_probe_fired(&mut self, qp: QpHandle) {
        let Some((group, rank, _peer)) = self.qp_owner(qp) else {
            return; // old-epoch timer
        };
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        let delay = policy.probe_delay();
        let now_ns = self.fabric.now().as_nanos();
        enum Next {
            Done,
            Rearm(SimDuration),
            Probe(u64),
        }
        let next = {
            let Some(st) = self.reliability.send.get_mut(&qp) else {
                return;
            };
            st.probe_armed = false;
            let quiet_at = st.last_post_ns.saturating_add(delay.as_nanos());
            if now_ns < quiet_at {
                st.probe_armed = true;
                Next::Rearm(SimDuration::from_nanos(quiet_at - now_ns))
            } else if st.probed_upto == st.next_seq && st.gen_slots.is_empty() {
                Next::Done
            } else {
                st.probe_armed = true;
                Next::Probe(st.next_seq)
            }
        };
        let node = self.groups[group].node(rank).index();
        match next {
            Next::Done => {}
            Next::Rearm(d) => self.arm_timer(node, d, TimerAction::RelProbe { qp }),
            Next::Probe(frontier) => {
                // The trailing partial erasure generation flushes now —
                // its parity would otherwise wait for blocks that are
                // never coming.
                self.rel_flush_parity(group, rank, qp, true);
                if let Some(st) = self.reliability.send.get_mut(&qp) {
                    st.probed_upto = frontier;
                }
                self.reliability.stats.probes_sent += 1;
                let _ =
                    self.fabric
                        .post_write(qp, WrId(4), TAG_PROBE, encode_probe(frontier), None);
                // One more firing confirms quiescence (or probes again
                // if new sends moved the frontier meanwhile).
                self.arm_timer(node, delay, TimerAction::RelProbe { qp });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_presets() {
        assert_eq!(ReliabilityPolicy::SelectiveAck.name(), "selective-ack");
        let ec = ReliabilityPolicy::erasure(4, 2);
        assert_eq!(ec.name(), "erasure");
        assert_eq!(ec.retry_budget(), RETRY_BUDGET);
        assert_eq!(ReliabilityPolicy::WedgeResume.retry_budget(), 0);
        // Probe waits two RTOs for the repairing policies, one for
        // wedge-resume.
        assert_eq!(
            ReliabilityPolicy::SelectiveAck.probe_delay().as_nanos(),
            RTO.as_nanos() * 2
        );
        assert_eq!(ReliabilityPolicy::WedgeResume.probe_delay(), RTO);
    }

    #[test]
    #[should_panic(expected = "parity")]
    fn erasure_rejects_zero_parity() {
        let _ = ReliabilityPolicy::erasure(4, 0);
    }
}
