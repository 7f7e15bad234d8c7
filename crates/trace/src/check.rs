//! The event half of the trace oracle: replays a captured event stream
//! against the protocol's rules that are about events, and reports every
//! violation.
//!
//! The schedule half — causality, per-step port budgets, the
//! completion-step bound, and "the run executed the plan it was given" —
//! is the one schedule rule, so it lives beside that rule in
//! `rdmc::schedule::check_trace`, which runs [`check_events`] first and
//! fills the unit counters of [`CheckStats`]. `trace` sits below `rdmc`
//! in the dependency graph and knows nothing of schedules.
//!
//! Invariants checked, per group:
//!
//! 1. **No block received before sent** — every `BlockArrived` must
//!    pair FIFO with an earlier `BlockSendIssued` on the same
//!    `(epoch, sender, receiver)` channel, for the same block number.
//!    Keying by epoch keeps pairing sound across reconfigurations,
//!    where ranks are renumbered.
//! 2. **Delivery completeness** — `Delivered` only fires once a member
//!    holds every block of the active message (the root's whole
//!    message, blocks carried into a resume epoch, or blocks arrived,
//!    each at most once).
//! 3. **No RNR arms** — under the paper's ready-for-block credit
//!    discipline (§4.2) a healthy or recovering run must never arm the
//!    receiver-not-ready retry path.
//! 4. **Redelivery** — every payload the fault model dropped or
//!    corrupted must eventually be repaired (a later
//!    `RepairDelivered` for the same `(conn, seq)`) or escalated (a
//!    later `LossEscalated`/`QpBroken` on that connection, or a
//!    trace-wide `ReconfigInstalled`/`NodeCrashed`). A lost block
//!    that is neither is a hang in the making — exactly what the
//!    reliability policies exist to rule out.
//! 5. **Atomic ordering** — an `AtomicDelivered` for the `seq`-th slot
//!    of `sender` at a member requires that member's own received
//!    frontier for `sender` to already cover it (local receipt,
//!    `FrontierAdvanced ≥ seq + 1`) *and* its stability frontier to
//!    already cover it (`StableFrontier ≥ seq + 1` — the min over live
//!    members' frontiers). Frontiers are monotone, per-member delivered
//!    slots strictly increase, and at end of trace every pair of
//!    members of one atomic group must have delivered identical slot
//!    sequences up to the shorter log (total order, prefix agreement).
//!
//! The oracle needs the complete trace, which is what every enabled
//! [`Recorder`](crate::Recorder) keeps.

use crate::{EventKind, TraceEvent};
// The oracle's hash maps are pure lookup tables — entry/get/insert
// keyed by trace-supplied ids, never iterated — so their randomized
// order cannot leak into the verdict or the violation list.
#[allow(clippy::disallowed_types)]
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Summary counters from a clean check, so callers can assert the
/// oracle actually saw the traffic it was supposed to vet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Block sends issued.
    pub issues: u64,
    /// Block arrivals, each matched against a send.
    pub arrivals: u64,
    /// Delivery upcalls.
    pub deliveries: u64,
    /// Fresh multicasts (one per message and epoch) whose transfers were
    /// checked against the schedule they were planned to run. Zero from
    /// [`check_events`] alone; `rdmc::schedule::check_trace` counts them.
    pub fresh_units: u64,
    /// Resumed multicasts checked against the recovery planner's
    /// schedule, counted like [`CheckStats::fresh_units`].
    pub resume_units: u64,
    /// Payloads the fault model dropped or corrupted, each proven
    /// repaired or escalated by the redelivery rule.
    pub losses: u64,
    /// Repair deliveries (retransmissions and reconstructions).
    pub repairs: u64,
    /// Atomic (total-order) delivery upcalls, each proven locally
    /// received and stable before delivery.
    pub atomic_deliveries: u64,
}

/// Wire conventions shared between the reliability layer (`rdmc-sim`)
/// and the oracle's redelivery rule, kept here — the one crate both
/// sides depend on — so they cannot drift apart.
///
/// When a reliability policy is active, data sends carry their block
/// sequence number in the high bits of the immediate value
/// ([`wire::pack_imm`]), and repair/parity one-sided writes use
/// work-request ids offset by [`wire::REPAIR_WR_BASE`] /
/// [`wire::PARITY_WR_BASE`]. That is what lets a fabric-level
/// `PayloadDropped` event name the block it lost without the fabric
/// knowing anything about the protocol above it.
pub mod wire {
    /// Bit position of the (seq + 1) tag inside an immediate value.
    /// Total message sizes stay below 2^40 (a terabyte), so the tag and
    /// the size never collide; untagged immediates (policy `None`) are
    /// always below `1 << SEQ_SHIFT`.
    pub const SEQ_SHIFT: u32 = 40;

    /// Repair (retransmission) writes use `REPAIR_WR_BASE + seq` as
    /// their work-request id.
    pub const REPAIR_WR_BASE: u64 = 1 << 32;

    /// Parity writes use `PARITY_WR_BASE + generation` as their
    /// work-request id. Parity loss alone is harmless (it is pure
    /// redundancy), so the redelivery rule exempts this range.
    pub const PARITY_WR_BASE: u64 = 1 << 33;

    /// Packs a block sequence number and the total message size into
    /// one immediate value. `seq + 1` so sequence 0 is distinguishable
    /// from an untagged immediate.
    #[must_use]
    pub fn pack_imm(seq: u64, total_size: u64) -> u64 {
        debug_assert!(total_size < 1 << SEQ_SHIFT, "message size overflows tag");
        ((seq + 1) << SEQ_SHIFT) | total_size
    }

    /// Splits an immediate value into `(block sequence, total size)`;
    /// the sequence is `None` for untagged immediates.
    #[must_use]
    pub fn unpack_imm(imm: u64) -> (Option<u64>, u64) {
        let tag = imm >> SEQ_SHIFT;
        if tag == 0 {
            (None, imm)
        } else {
            (Some(tag - 1), imm & ((1 << SEQ_SHIFT) - 1))
        }
    }
}

/// Per-member holding state for the delivery check. A member processes
/// one message at a time, and its events appear in processing order, so
/// flat (group, rank) keying is sound; each `TransferStarted` /
/// `ResumeStarted` resets the state.
#[derive(Default)]
struct MemberState {
    held: BTreeSet<u32>,
    blocks: Option<u32>,
}

type Chan = (u32, u64, u32, u32); // (group, epoch, sender, receiver)
type Member = (u32, u32); // (group, rank)
/// One atomic group's delivery logs for the end-of-trace agreement
/// sweep: each rank's delivered `(slot, sender, seq)` sequence.
type RankLogs<'a> = Vec<(u32, &'a Vec<(u64, u32, u64)>)>;

/// Checks every invariant over a complete event stream. Returns summary
/// counters on success, or every violation found (never just the
/// first — a broken run should be diagnosable in one pass).
#[allow(clippy::disallowed_types)] // lookup-only maps; see the import note
pub fn check_events(events: &[TraceEvent]) -> Result<CheckStats, Vec<String>> {
    let mut violations: Vec<String> = Vec::new();
    let mut stats = CheckStats::default();

    // FIFO per-channel queues of issued-but-unmatched sends.
    let mut in_flight: HashMap<Chan, VecDeque<(u64, u32)>> = HashMap::new();
    let mut members: HashMap<Member, MemberState> = HashMap::new();
    // Redelivery rule: every drop/corruption, and the latest trace seq
    // at which each (conn, block-seq) repair / per-conn escalation /
    // trace-wide recovery landed.
    struct Loss {
        at_seq: u64,
        conn: u32,
        block: Option<u64>,
        what: &'static str,
    }
    let mut losses: Vec<Loss> = Vec::new();
    let mut last_repair: HashMap<(u32, u64), u64> = HashMap::new();
    let mut last_escalation: HashMap<u32, u64> = HashMap::new();
    let mut last_recovery: Option<u64> = None;
    // Atomic-ordering rule: per (member, sender) own and stable
    // frontiers, and each member's delivered-slot log. BTreeMap so the
    // end-of-trace prefix-agreement sweep reports in rank order.
    let mut own_frontier: HashMap<(Member, u32), u64> = HashMap::new();
    let mut min_frontier: HashMap<(Member, u32), u64> = HashMap::new();
    let mut atomic_logs: BTreeMap<Member, Vec<(u64, u32, u64)>> = BTreeMap::new();

    for ev in events {
        match &ev.kind {
            EventKind::PayloadDropped { conn, wr, imm, .. }
            | EventKind::PayloadCorrupted { conn, wr, imm, .. } => {
                // Parity payloads are pure redundancy; their loss alone
                // can never strand a block.
                if (wire::PARITY_WR_BASE..wire::PARITY_WR_BASE * 2).contains(wr) {
                    continue;
                }
                let block = match wire::unpack_imm(*imm).0 {
                    Some(seq) => Some(seq),
                    // A dropped repair write names its block in the wr id.
                    None if (wire::REPAIR_WR_BASE..wire::PARITY_WR_BASE).contains(wr) => {
                        Some(wr - wire::REPAIR_WR_BASE)
                    }
                    None => None,
                };
                stats.losses += 1;
                losses.push(Loss {
                    at_seq: ev.seq,
                    conn: *conn,
                    block,
                    what: ev.kind.name(),
                });
                continue;
            }
            EventKind::RepairDelivered { conn, seq, .. } => {
                stats.repairs += 1;
                last_repair.insert((*conn, *seq), ev.seq);
                continue;
            }
            EventKind::LossEscalated { conn } | EventKind::QpBroken { conn } => {
                last_escalation.insert(*conn, ev.seq);
                continue;
            }
            EventKind::ReconfigInstalled { .. } | EventKind::NodeCrashed => {
                last_recovery = Some(ev.seq);
                // Fall through: ReconfigInstalled also matters to no
                // other rule, NodeCrashed neither; both lack a rank
                // scope and exit at the destructure below.
            }
            _ => {}
        }
        let place = |what: &str| -> String {
            format!(
                "seq {} t_ns {} [group {:?} rank {:?} node {:?}]: {what}",
                ev.seq, ev.t_ns, ev.scope.group, ev.scope.rank, ev.scope.node
            )
        };
        if let EventKind::RnrArmed { conn, dir } = &ev.kind {
            violations.push(place(&format!(
                "RNR retry armed on conn {conn} dir {dir}; the ready-for-block \
                 protocol must keep receives pre-posted"
            )));
            continue;
        }
        let (group, rank) = match (ev.scope.group, ev.scope.rank) {
            (Some(g), Some(r)) => (g, r),
            _ => continue,
        };
        let member = (group, rank);

        match &ev.kind {
            EventKind::TransferStarted { blocks, root, .. } => {
                let st = members.entry(member).or_default();
                st.blocks = Some(*blocks);
                st.held = if *root {
                    (0..*blocks).collect()
                } else {
                    BTreeSet::new()
                };
            }
            EventKind::ResumeStarted { blocks, held, .. } => {
                let st = members.entry(member).or_default();
                st.blocks = Some(*blocks);
                st.held = held.iter().copied().collect();
            }
            EventKind::BlockSendIssued {
                to, block, epoch, ..
            } => {
                stats.issues += 1;
                in_flight
                    .entry((group, *epoch, rank, *to))
                    .or_default()
                    .push_back((ev.t_ns, *block));
            }
            EventKind::BlockArrived {
                from, block, epoch, ..
            } => {
                stats.arrivals += 1;
                let chan = (group, *epoch, *from, rank);
                match in_flight.get_mut(&chan).and_then(VecDeque::pop_front) {
                    None => violations.push(place(&format!(
                        "block {block} arrived from rank {from} (epoch {epoch}) with no \
                         matching send in flight"
                    ))),
                    Some((t_sent, sent_block)) => {
                        if sent_block != *block {
                            violations.push(place(&format!(
                                "arrival block {block} does not match next in-flight block \
                                 {sent_block} from rank {from} (FIFO order broken)"
                            )));
                        }
                        if t_sent > ev.t_ns {
                            violations.push(place(&format!(
                                "block {block} arrived at {} before it was sent at {t_sent}",
                                ev.t_ns
                            )));
                        }
                    }
                }
                let st = members.entry(member).or_default();
                if !st.held.insert(*block) {
                    violations.push(place(&format!("block {block} arrived twice")));
                }
                if let Some(total) = st.blocks {
                    if *block >= total {
                        violations.push(place(&format!(
                            "block {block} out of range for a {total}-block message"
                        )));
                    }
                }
            }
            EventKind::FrontierAdvanced { sender, frontier } => {
                let f = own_frontier.entry((member, *sender)).or_insert(0);
                if *frontier < *f {
                    violations.push(place(&format!(
                        "received frontier for sender {sender} regressed {f} -> {frontier}"
                    )));
                }
                *f = (*f).max(*frontier);
            }
            EventKind::StableFrontier { sender, frontier } => {
                let received = own_frontier.get(&(member, *sender)).copied().unwrap_or(0);
                if *frontier > received {
                    violations.push(place(&format!(
                        "stable frontier {frontier} for sender {sender} exceeds this \
                         member's own received frontier {received} — stability cannot \
                         outrun local receipt"
                    )));
                }
                let f = min_frontier.entry((member, *sender)).or_insert(0);
                if *frontier < *f {
                    violations.push(place(&format!(
                        "stable frontier for sender {sender} regressed {f} -> {frontier}"
                    )));
                }
                *f = (*f).max(*frontier);
            }
            EventKind::AtomicDelivered {
                slot, sender, seq, ..
            } => {
                stats.atomic_deliveries += 1;
                let received = own_frontier.get(&(member, *sender)).copied().unwrap_or(0);
                if received < seq + 1 {
                    violations.push(place(&format!(
                        "atomic delivery of slot {slot} (sender {sender} seq {seq}) \
                         before local receipt: own frontier is {received}"
                    )));
                }
                let stable = min_frontier.get(&(member, *sender)).copied().unwrap_or(0);
                if stable < seq + 1 {
                    violations.push(place(&format!(
                        "atomic delivery of slot {slot} (sender {sender} seq {seq}) \
                         before stability: min frontier is {stable}"
                    )));
                }
                let log = atomic_logs.entry(member).or_default();
                if let Some(&(last, ..)) = log.last() {
                    if *slot <= last {
                        violations.push(place(&format!(
                            "atomic delivery of slot {slot} after slot {last} — total \
                             order must be strictly increasing"
                        )));
                    }
                }
                log.push((*slot, *sender, *seq));
            }
            EventKind::Delivered { .. } => {
                stats.deliveries += 1;
                let st = members.entry(member).or_default();
                let complete = st.blocks.is_some_and(|b| st.held.len() as u32 == b);
                if !complete {
                    violations.push(place(&format!(
                        "delivered holding {} of {:?} blocks",
                        st.held.len(),
                        st.blocks
                    )));
                }
                // Next message on this rank starts fresh.
                st.held.clear();
                st.blocks = None;
            }
            _ => {}
        }
    }

    // Total-order agreement: within one atomic group, every member's
    // delivered-slot sequence must be a prefix of the longest member's
    // (two prefixes of a common sequence always agree pairwise).
    let mut groups: BTreeMap<u32, RankLogs> = BTreeMap::new();
    for (&(group, rank), log) in &atomic_logs {
        groups.entry(group).or_default().push((rank, log));
    }
    for (group, logs) in &groups {
        let (long_rank, longest) = logs
            .iter()
            .max_by_key(|(_, l)| l.len())
            .copied()
            .expect("group with no logs is unrepresentable");
        for &(rank, log) in logs {
            if log[..] != longest[..log.len()] {
                let at = log
                    .iter()
                    .zip(&longest[..log.len()])
                    .position(|(a, b)| a != b)
                    .expect("a non-prefix diverges somewhere");
                violations.push(format!(
                    "group {group}: rank {rank}'s atomic delivery log diverges from \
                     rank {long_rank}'s at position {at} ({:?} vs {:?}) — members must \
                     deliver identical sequences",
                    log[at], longest[at]
                ));
            }
        }
    }

    for loss in &losses {
        let repaired = loss
            .block
            .and_then(|b| last_repair.get(&(loss.conn, b)))
            .is_some_and(|&at| at > loss.at_seq);
        let escalated = last_escalation
            .get(&loss.conn)
            .is_some_and(|&at| at > loss.at_seq)
            || last_recovery.is_some_and(|at| at > loss.at_seq);
        if !repaired && !escalated {
            violations.push(format!(
                "seq {}: {} on conn {} (block {:?}) was never repaired \
                 or escalated — a silent hole in the received-block bitmap",
                loss.at_seq, loss.what, loss.conn, loss.block
            ));
        }
    }

    if violations.is_empty() {
        Ok(stats)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Scope};

    fn two_rank_clean() -> Vec<TraceEvent> {
        let r = Recorder::full();
        let g = 0;
        r.set_now(0);
        r.record(Scope::group_rank(g, 0), || EventKind::MessageSubmitted {
            size: 2,
        });
        r.record(Scope::group_rank(g, 0), || EventKind::TransferStarted {
            size: 2,
            blocks: 2,
            root: true,
        });
        r.record(Scope::group_rank(g, 1), || EventKind::TransferStarted {
            size: 2,
            blocks: 2,
            root: false,
        });
        for b in 0..2u32 {
            r.set_now(u64::from(b + 1) * 100);
            r.record(Scope::group_rank(g, 0), || EventKind::BlockSendIssued {
                to: 1,
                block: b,
                step: b,
                bytes: 1,
                epoch: 0,
            });
            r.set_now(u64::from(b + 1) * 100 + 50);
            r.record(Scope::group_rank(g, 1), || EventKind::BlockArrived {
                from: 0,
                block: b,
                step: b,
                first: b == 0,
                epoch: 0,
            });
        }
        r.record(Scope::group_rank(g, 1), || EventKind::Delivered { size: 2 });
        r.record(Scope::group_rank(g, 0), || EventKind::Delivered { size: 2 });
        r.events()
    }

    #[test]
    fn clean_trace_passes() {
        let stats = check_events(&two_rank_clean()).expect("clean trace");
        assert_eq!(stats.issues, 2);
        assert_eq!(stats.arrivals, 2);
        assert_eq!(stats.deliveries, 2);
    }

    #[test]
    fn arrival_without_send_is_flagged() {
        let r = Recorder::full();
        r.record(Scope::group_rank(0, 1), || EventKind::BlockArrived {
            from: 0,
            block: 0,
            step: 0,
            first: true,
            epoch: 0,
        });
        let err = check_events(&r.events()).unwrap_err();
        assert!(err.iter().any(|v| v.contains("no matching send")));
    }

    #[test]
    fn rnr_arm_is_flagged() {
        let r = Recorder::full();
        r.record(Scope::node(3), || EventKind::RnrArmed { conn: 1, dir: 0 });
        let err = check_events(&r.events()).unwrap_err();
        assert!(err.iter().any(|v| v.contains("RNR")));
    }

    #[test]
    fn delivery_without_all_blocks_is_flagged() {
        let mut ev = two_rank_clean();
        // Drop rank 1's second arrival; its delivery is now premature.
        let idx = ev
            .iter()
            .position(|e| matches!(e.kind, EventKind::BlockArrived { block: 1, .. }))
            .unwrap();
        ev.remove(idx);
        let err = check_events(&ev).unwrap_err();
        assert!(err
            .iter()
            .any(|v| v.contains("delivered holding 1 of Some(2)")));
    }

    #[test]
    fn pack_unpack_imm_roundtrips() {
        assert_eq!(wire::unpack_imm(wire::pack_imm(0, 4096)), (Some(0), 4096));
        assert_eq!(
            wire::unpack_imm(wire::pack_imm(17, 1 << 30)),
            (Some(17), 1 << 30)
        );
        assert_eq!(wire::unpack_imm(4096), (None, 4096));
    }

    #[test]
    fn unrepaired_drop_is_flagged() {
        let r = Recorder::full();
        r.record(Scope::node(1), || EventKind::PayloadDropped {
            conn: 0,
            end: 1,
            wr: 2,
            imm: wire::pack_imm(2, 100),
        });
        let err = check_events(&r.events()).unwrap_err();
        assert!(err.iter().any(|v| v.contains("never repaired")));
    }

    #[test]
    fn repaired_drop_passes() {
        let r = Recorder::full();
        r.record(Scope::node(1), || EventKind::PayloadDropped {
            conn: 0,
            end: 1,
            wr: 2,
            imm: wire::pack_imm(2, 100),
        });
        r.record(Scope::node(1), || EventKind::RepairDelivered {
            conn: 0,
            seq: 2,
            coded: false,
        });
        let stats = check_events(&r.events()).expect("repaired");
        assert_eq!(stats.losses, 1);
        assert_eq!(stats.repairs, 1);
    }

    #[test]
    fn dropped_repair_write_is_tracked_by_wr_id() {
        let r = Recorder::full();
        // The retransmission of block 5 was itself dropped...
        r.record(Scope::node(1), || EventKind::PayloadDropped {
            conn: 3,
            end: 1,
            wr: wire::REPAIR_WR_BASE + 5,
            imm: 0,
        });
        let err = check_events(&r.events()).unwrap_err();
        assert!(err.iter().any(|v| v.contains("block Some(5)")));
        // ...but a second repair round landed it.
        r.record(Scope::node(1), || EventKind::RepairDelivered {
            conn: 3,
            seq: 5,
            coded: false,
        });
        assert!(check_events(&r.events()).is_ok());
    }

    #[test]
    fn escalation_excuses_a_drop() {
        for escalate in [true, false] {
            let r = Recorder::full();
            r.record(Scope::node(1), || EventKind::PayloadDropped {
                conn: 7,
                end: 0,
                wr: 0,
                imm: 0, // untagged: only escalation can excuse it
            });
            if escalate {
                r.record(Scope::node(1), || EventKind::LossEscalated { conn: 7 });
            }
            let res = check_events(&r.events());
            assert_eq!(res.is_ok(), escalate);
        }
    }

    #[test]
    fn dropped_parity_is_exempt() {
        let r = Recorder::full();
        r.record(Scope::node(1), || EventKind::PayloadDropped {
            conn: 0,
            end: 1,
            wr: wire::PARITY_WR_BASE + 1,
            imm: 0,
        });
        assert!(check_events(&r.events()).is_ok());
    }

    #[test]
    fn repair_before_the_drop_does_not_count() {
        let r = Recorder::full();
        r.record(Scope::node(1), || EventKind::RepairDelivered {
            conn: 0,
            seq: 1,
            coded: true,
        });
        r.record(Scope::node(1), || EventKind::PayloadDropped {
            conn: 0,
            end: 1,
            wr: 1,
            imm: wire::pack_imm(1, 64),
        });
        assert!(check_events(&r.events()).is_err());
    }

    /// A clean atomic-overlay trace: sender 0 owns slot 0; both members
    /// advance their received frontier, observe stability, and deliver.
    fn atomic_clean() -> Vec<TraceEvent> {
        let r = Recorder::full();
        let g = 0;
        r.record(Scope::group_rank(g, 0), || EventKind::AtomicSubmitted {
            slot: 0,
            sender: 0,
            null: false,
            size: 64,
        });
        for m in 0..2u32 {
            r.record(Scope::group_rank(g, m), || EventKind::FrontierAdvanced {
                sender: 0,
                frontier: 1,
            });
        }
        for m in 0..2u32 {
            r.record(Scope::group_rank(g, m), || EventKind::StableFrontier {
                sender: 0,
                frontier: 1,
            });
            r.record(Scope::group_rank(g, m), || EventKind::AtomicDelivered {
                slot: 0,
                sender: 0,
                seq: 0,
                size: 64,
            });
        }
        r.events()
    }

    #[test]
    fn clean_atomic_trace_passes() {
        let stats = check_events(&atomic_clean()).expect("clean");
        assert_eq!(stats.atomic_deliveries, 2);
    }

    #[test]
    fn atomic_delivery_without_stability_is_flagged() {
        // Strip rank 1's StableFrontier: its delivery is now premature.
        let ev: Vec<TraceEvent> = atomic_clean()
            .into_iter()
            .filter(|e| {
                !(e.scope.rank == Some(1) && matches!(e.kind, EventKind::StableFrontier { .. }))
            })
            .collect();
        let err = check_events(&ev).unwrap_err();
        assert!(err.iter().any(|v| v.contains("before stability")));
    }

    #[test]
    fn atomic_delivery_reordered_before_stability_is_flagged() {
        // Swap rank 1's StableFrontier and AtomicDelivered: same events,
        // wrong order — the oracle must still reject it.
        let mut ev = atomic_clean();
        let s = ev
            .iter()
            .position(|e| {
                e.scope.rank == Some(1) && matches!(e.kind, EventKind::StableFrontier { .. })
            })
            .unwrap();
        ev.swap(s, s + 1);
        assert!(matches!(ev[s].kind, EventKind::AtomicDelivered { .. }));
        let err = check_events(&ev).unwrap_err();
        assert!(err.iter().any(|v| v.contains("before stability")));
    }

    #[test]
    fn atomic_delivery_without_local_receipt_is_flagged() {
        // Strip rank 1's own FrontierAdvanced. Its StableFrontier now
        // claims more than the member received, and the delivery lacks
        // local receipt — both rules fire.
        let ev: Vec<TraceEvent> = atomic_clean()
            .into_iter()
            .filter(|e| {
                !(e.scope.rank == Some(1) && matches!(e.kind, EventKind::FrontierAdvanced { .. }))
            })
            .collect();
        let err = check_events(&ev).unwrap_err();
        assert!(err.iter().any(|v| v.contains("before local receipt")));
        assert!(err
            .iter()
            .any(|v| v.contains("cannot outrun local receipt")));
    }

    #[test]
    fn diverging_atomic_logs_are_flagged() {
        // Rank 1 delivers a different slot in position 0 than rank 0.
        let mut ev = atomic_clean();
        for e in &mut ev {
            if e.scope.rank == Some(1) {
                if let EventKind::AtomicDelivered { slot, seq, .. } = &mut e.kind {
                    *slot = 1;
                    *seq = 1;
                }
                if let EventKind::FrontierAdvanced { frontier, .. }
                | EventKind::StableFrontier { frontier, .. } = &mut e.kind
                {
                    *frontier = 2; // keep the per-member rules satisfied
                }
            }
        }
        let err = check_events(&ev).unwrap_err();
        assert!(err.iter().any(|v| v.contains("diverges")));
    }

    #[test]
    fn frontier_regression_is_flagged() {
        let r = Recorder::full();
        r.record(Scope::group_rank(0, 0), || EventKind::FrontierAdvanced {
            sender: 1,
            frontier: 3,
        });
        r.record(Scope::group_rank(0, 0), || EventKind::FrontierAdvanced {
            sender: 1,
            frontier: 2,
        });
        let err = check_events(&r.events()).unwrap_err();
        assert!(err.iter().any(|v| v.contains("regressed 3 -> 2")));
    }

    #[test]
    fn non_monotone_slot_order_is_flagged() {
        let mut ev = atomic_clean();
        // Duplicate rank 0's delivery: slot 0 delivered twice.
        let d = ev
            .iter()
            .position(|e| {
                e.scope.rank == Some(0) && matches!(e.kind, EventKind::AtomicDelivered { .. })
            })
            .unwrap();
        let dup = ev[d].clone();
        ev.insert(d + 1, dup);
        let err = check_events(&ev).unwrap_err();
        assert!(err.iter().any(|v| v.contains("strictly increasing")));
    }
}
