//! Stall attribution: explains *where* a multicast's end-to-end latency
//! went, the way the paper's evaluation (§5) explains its results.
//!
//! Starting from the last delivery, [`attribute`] walks the critical
//! path backwards through the trace. At each point it asks what the
//! current event was waiting on — the wire, the sender's send window,
//! a readiness credit from the receiver — attributes the interval down
//! to that predecessor, and jumps to it. Every jump covers a contiguous
//! interval, so the per-class totals **telescope to exactly the
//! end-to-end latency** no matter how the walk classifies; the classes
//! are:
//!
//! - `transfer` — ideal wire time for the blocks on the critical path
//!   (bytes at full link rate, plus propagation and NIC overhead per
//!   [`WireModel`]). This is the floor the schedule can never beat.
//! - `link_limited` — the slice of wire occupancy beyond ideal: the
//!   flow ran below full rate because links were shared.
//! - `sender_limited` — a block was held because its sender was busy
//!   with earlier scheduled sends (serialization on the send window).
//! - `receiver_limited` — a block was held because the receiver's
//!   readiness credit had not arrived: posting order, credit window,
//!   or credit propagation delay (§4.2's ready-for-block discipline).
//! - `schedule_idle` — the sender held the block with credit in hand
//!   and an idle wire; the schedule itself ordered the send later.
//!
//! The walk analyzes the first message of a group on a healthy
//! (no-reconfiguration) run — the Fig. 4 path.

use crate::{EventKind, TraceEvent};
use std::collections::{BTreeMap, VecDeque};

/// The fabric parameters that define ideal wire time for a block.
#[derive(Clone, Copy, Debug)]
pub struct WireModel {
    /// Full link rate in gigabits per second.
    pub gbps: f64,
    /// One-way propagation latency, nanoseconds.
    pub latency_ns: u64,
    /// Fixed per-operation NIC overhead, nanoseconds.
    pub nic_op_ns: u64,
}

impl WireModel {
    /// Ideal nanoseconds for `bytes` at the full link rate: one bit per
    /// nanosecond per Gbit/s, plus propagation and NIC overhead.
    pub fn ideal_ns(&self, bytes: u64) -> u64 {
        let wire = (bytes as f64 * 8.0 / self.gbps).round() as u64;
        wire + self.latency_ns + self.nic_op_ns
    }
}

/// Where the end-to-end latency of one multicast went. The five class
/// fields sum to `end_to_end_ns` exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Submit at the root to the last delivery.
    pub end_to_end_ns: u64,
    /// Ideal wire time on the critical path.
    pub transfer_ns: u64,
    /// Wire occupancy beyond ideal (shared links).
    pub link_limited_ns: u64,
    /// Waiting on the sender's send window.
    pub sender_limited_ns: u64,
    /// Waiting on receiver readiness credits.
    pub receiver_limited_ns: u64,
    /// Schedule-ordered idleness.
    pub schedule_idle_ns: u64,
}

impl StallBreakdown {
    /// Sum of the five attribution classes; equals `end_to_end_ns`.
    pub fn attributed_ns(&self) -> u64 {
        self.transfer_ns
            + self.link_limited_ns
            + self.sender_limited_ns
            + self.receiver_limited_ns
            + self.schedule_idle_ns
    }
}

/// One rank's life in a multicast, for the bench report's timelines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankTimeline {
    /// Rank within the group.
    pub rank: u32,
    /// First block arrival, if any (`None` at the root).
    pub first_block_ns: Option<u64>,
    /// Delivery upcall, if the rank completed.
    pub delivered_ns: Option<u64>,
    /// Blocks this rank received.
    pub blocks_received: u32,
    /// Blocks this rank sent.
    pub blocks_sent: u32,
}

/// Per-rank event index for one group, first message only.
#[derive(Default)]
struct RankIx {
    /// (t, from, block)
    arrivals: Vec<(u64, u32, u32)>,
    /// (t, to, block, bytes)
    issues: Vec<(u64, u32, u32, u64)>,
    /// (t, to)
    completions: Vec<(u64, u32)>,
    /// (t, from)
    heards: Vec<(u64, u32)>,
    /// (t, to)
    grants: Vec<(u64, u32)>,
    /// First `TransferStarted`: (t, root)
    start: Option<(u64, bool)>,
    delivered: Option<u64>,
}

fn index_group(events: &[TraceEvent], group: u32) -> (Option<u64>, BTreeMap<u32, RankIx>) {
    let mut ranks: BTreeMap<u32, RankIx> = BTreeMap::new();
    let mut submit = None;
    for ev in events {
        if ev.scope.group != Some(group) {
            continue;
        }
        let Some(rank) = ev.scope.rank else { continue };
        let ix = ranks.entry(rank).or_default();
        // First message only: ignore a rank's traffic after delivery.
        if ix.delivered.is_some() {
            continue;
        }
        match &ev.kind {
            EventKind::MessageSubmitted { .. } if submit.is_none() => {
                submit = Some(ev.t_ns);
            }
            EventKind::TransferStarted { root, .. } if ix.start.is_none() => {
                ix.start = Some((ev.t_ns, *root));
            }
            EventKind::BlockArrived { from, block, .. } => {
                ix.arrivals.push((ev.t_ns, *from, *block));
            }
            EventKind::BlockSendIssued {
                to, block, bytes, ..
            } => {
                ix.issues.push((ev.t_ns, *to, *block, *bytes));
            }
            EventKind::BlockSendCompleted { to } => ix.completions.push((ev.t_ns, *to)),
            EventKind::ReadyHeard { from } => ix.heards.push((ev.t_ns, *from)),
            EventKind::ReadyGranted { to } => ix.grants.push((ev.t_ns, *to)),
            EventKind::Delivered { .. } => ix.delivered = Some(ev.t_ns),
            _ => {}
        }
    }
    (submit, ranks)
}

/// `k`-th issue from this rank to `to` (0-indexed).
fn nth_issue_to(ix: &RankIx, to: u32, k: usize) -> Option<(u64, u32, u64)> {
    ix.issues
        .iter()
        .filter(|i| i.1 == to)
        .nth(k)
        .map(|&(t, _, block, bytes)| (t, block, bytes))
}

/// Ordinal of `arrivals[idx]` among arrivals from the same sender.
fn arrival_ordinal(ix: &RankIx, idx: usize) -> usize {
    let from = ix.arrivals[idx].1;
    ix.arrivals[..idx].iter().filter(|a| a.1 == from).count()
}

/// Whether this rank had block sends in flight or newly issued anywhere
/// in `[lo, hi)` — distinguishes sender-limited from schedule-idle.
fn sender_busy(ix: &RankIx, lo: u64, hi: u64) -> bool {
    if ix.issues.iter().any(|i| i.0 >= lo && i.0 < hi) {
        return true;
    }
    let issued = ix.issues.iter().filter(|i| i.0 <= lo).count();
    let done = ix.completions.iter().filter(|c| c.0 <= lo).count();
    issued > done
}

/// The critical-path walk's current position.
enum Node {
    /// `arrivals[idx]` at `rank`.
    Arr(u32, usize),
    /// `completions[idx]` at `rank`.
    Comp(u32, usize),
}

/// Attributes the first multicast of `group` (submit at the root to the
/// last delivery). Returns `None` when the trace has no submit or no
/// delivery for the group.
pub fn attribute(events: &[TraceEvent], group: u32, wire: &WireModel) -> Option<StallBreakdown> {
    let (submit, ranks) = index_group(events, group);
    let t_submit = submit?;
    let (&end_rank, t_end) = ranks
        .iter()
        .filter_map(|(r, ix)| ix.delivered.map(|t| (r, t)))
        .max_by_key(|&(r, t)| (t, *r))?;

    let mut b = StallBreakdown {
        end_to_end_ns: t_end.saturating_sub(t_submit),
        ..StallBreakdown::default()
    };
    // `frontier` is the lowest time covered so far; every attribution
    // extends coverage downward, which is what makes the sum exact.
    let mut frontier = t_end;
    let add = |acc: &mut u64, lo: u64, hi: u64, frontier: &mut u64| {
        let lo = lo.max(t_submit);
        let hi = hi.max(t_submit).min(*frontier);
        if hi > lo {
            *acc += hi - lo;
            *frontier = lo;
        } else {
            *frontier = (*frontier).min(lo.max(t_submit));
        }
    };

    // The delivery's predecessor: the rank's latest arrival, or (a root
    // delivering after its last send) latest send completion.
    let end_ix = &ranks[&end_rank];
    let last_arr = end_ix.arrivals.iter().rposition(|a| a.0 <= t_end);
    let last_comp = end_ix.completions.iter().rposition(|c| c.0 <= t_end);
    let mut node = match (last_arr, last_comp) {
        (None, None) => {
            // A one-rank group: nothing moved; all schedule time.
            b.schedule_idle_ns += b.end_to_end_ns;
            return Some(b);
        }
        (None, Some(c)) => Node::Comp(end_rank, c),
        (Some(a), None) => Node::Arr(end_rank, a),
        (Some(a), Some(c)) => {
            if end_ix.completions[c].0 > end_ix.arrivals[a].0 {
                Node::Comp(end_rank, c)
            } else {
                Node::Arr(end_rank, a)
            }
        }
    };
    {
        let t_node = match node {
            Node::Arr(r, i) => ranks[&r].arrivals[i].0,
            Node::Comp(r, i) => ranks[&r].completions[i].0,
        };
        add(&mut b.receiver_limited_ns, t_node, t_end, &mut frontier);
    }

    let total_points: usize = ranks
        .values()
        .map(|ix| ix.arrivals.len() + ix.completions.len())
        .sum();
    let mut iters = 0usize;

    loop {
        iters += 1;
        if iters > total_points + 16 {
            break; // degenerate trace; remainder attributed below
        }
        // Resolve the current point to the send issue behind it.
        let (sender, issue_k, t_wire_end) = match node {
            Node::Arr(r, i) => {
                let (t_arr, from, _) = ranks[&r].arrivals[i];
                (from, arrival_ordinal(&ranks[&r], i), t_arr)
            }
            Node::Comp(r, i) => {
                let (t_comp, to) = ranks[&r].completions[i];
                let k = ranks[&r].completions[..i]
                    .iter()
                    .filter(|c| c.1 == to)
                    .count();
                (r, k, t_comp)
            }
        };
        let to = match node {
            Node::Arr(r, _) => r,
            Node::Comp(r, i) => ranks[&r].completions[i].1,
        };
        let Some(s_ix) = ranks.get(&sender) else {
            break;
        };
        let Some((t_issue, block, bytes)) = nth_issue_to(s_ix, to, issue_k) else {
            break;
        };

        // Wire occupancy: ideal transfer plus link contention.
        let actual = t_wire_end.saturating_sub(t_issue);
        let ideal = wire.ideal_ns(bytes).min(actual);
        add(
            &mut b.link_limited_ns,
            t_issue + ideal,
            t_wire_end,
            &mut frontier,
        );
        add(&mut b.transfer_ns, t_issue, t_issue + ideal, &mut frontier);

        // Why did the sender issue at t_issue and not earlier?
        let is_root = s_ix.start.is_some_and(|(_, root)| root);
        let t_have = if is_root {
            Some(s_ix.start.map_or(t_submit, |(t, _)| t))
        } else {
            s_ix.arrivals
                .iter()
                .position(|a| a.2 == block && a.0 <= t_issue)
                .map(|i| s_ix.arrivals[i].0)
        };
        let t_credit = s_ix
            .heards
            .iter()
            .filter(|h| h.1 == to)
            .nth(issue_k)
            .map(|h| h.0);
        let t_have_v = t_have.unwrap_or(t_submit);
        let t_credit_v = t_credit.unwrap_or(t_submit);
        let t_gate = t_have_v.max(t_credit_v);

        let busy_class = if sender_busy(s_ix, t_gate, t_issue) {
            &mut b.sender_limited_ns
        } else {
            &mut b.schedule_idle_ns
        };
        add(busy_class, t_gate, t_issue, &mut frontier);

        if t_have_v >= t_credit_v {
            // Binding constraint: block acquisition at the sender.
            if is_root {
                add(&mut b.sender_limited_ns, t_submit, t_have_v, &mut frontier);
                break;
            }
            match s_ix
                .arrivals
                .iter()
                .position(|a| a.2 == block && a.0 <= t_issue)
            {
                Some(i) => node = Node::Arr(sender, i),
                None => break,
            }
        } else {
            // Binding constraint: the receiver's readiness credit.
            let r_ix = &ranks[&to];
            let t_grant = r_ix
                .grants
                .iter()
                .filter(|g| g.1 == sender)
                .nth(issue_k)
                .map_or(t_submit, |g| g.0);
            add(
                &mut b.receiver_limited_ns,
                t_grant,
                t_credit_v,
                &mut frontier,
            );
            // Why did the receiver grant only then? It was digesting
            // its previous arrival (posting order), or still setting
            // up. Either way the wait is on the receiver.
            match r_ix.arrivals.iter().rposition(|a| a.0 <= t_grant) {
                Some(i) => {
                    add(
                        &mut b.receiver_limited_ns,
                        r_ix.arrivals[i].0,
                        t_grant,
                        &mut frontier,
                    );
                    node = Node::Arr(to, i);
                }
                None => {
                    add(&mut b.receiver_limited_ns, t_submit, t_grant, &mut frontier);
                    break;
                }
            }
        }
    }

    // Any uncovered remainder (degenerate traces only) lands in
    // schedule_idle so the invariant `attributed == end_to_end` holds
    // unconditionally.
    if frontier > t_submit {
        b.schedule_idle_ns += frontier - t_submit;
    }
    Some(b)
}

/// Aggregate stall split of every block send one group moved over a
/// whole run — the multi-tenant counterpart of [`attribute`], which
/// walks a single message's critical path. The three time classes
/// cover each send's issue-to-completion span:
///
/// - `transfer_ns` — ideal wire time per [`WireModel`];
/// - `sender_limited_ns` — time the per-NIC admission layer held sends
///   after the engine issued them ([`EventKind::SendAdmitted`]);
/// - `link_limited_ns` — the remainder: the flow ran below full rate
///   because links were shared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStall {
    /// Completed block sends counted.
    pub sends: u64,
    /// Bytes those sends moved.
    pub bytes: u64,
    /// Ideal wire time across the counted sends.
    pub transfer_ns: u64,
    /// Admission-queue wait (pacer holds).
    pub sender_limited_ns: u64,
    /// Wire occupancy beyond ideal (shared links).
    pub link_limited_ns: u64,
}

impl GroupStall {
    /// Total issue-to-completion time across the counted sends.
    pub fn total_ns(&self) -> u64 {
        self.transfer_ns + self.sender_limited_ns + self.link_limited_ns
    }
}

/// Pairs each block send completion with the issue it completes, as
/// `(issue, completion)` indices into `events`, in completion order.
///
/// Sends to one peer complete in post order, so a completion closes the
/// oldest open issue of its (group, rank, destination) stream. A
/// group's reconfiguration ends all of the group's streams: the sends
/// still open were flushed by the failure and never complete, and the
/// new epoch renumbers the ranks that key the streams.
pub(crate) fn send_pairs(events: &[TraceEvent]) -> Vec<(usize, usize)> {
    let mut open: BTreeMap<(u32, u32, u32), VecDeque<usize>> = BTreeMap::new();
    let mut pairs = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match (&ev.kind, ev.scope.group, ev.scope.rank) {
            (EventKind::BlockSendIssued { to, .. }, Some(g), Some(r)) => {
                open.entry((g, r, *to)).or_default().push_back(i);
            }
            (EventKind::BlockSendCompleted { to }, Some(g), Some(r)) => {
                if let Some(issue) = open.get_mut(&(g, r, *to)).and_then(VecDeque::pop_front) {
                    pairs.push((issue, i));
                }
            }
            (EventKind::ReconfigInstalled { .. }, Some(g), _) => open.retain(|k, _| k.0 != g),
            _ => {}
        }
    }
    pairs
}

/// Splits every completed block send in the trace into ideal transfer,
/// admission wait, and link contention, grouped by group id.
///
/// Sends to the same peer complete in post order, so each completion is
/// paired with the oldest open issue of its (rank, destination) stream,
/// and a reconfiguration ends the group's streams. The aggregate span
/// is invariant under pairing, which keeps the totals exact even when
/// an admission policy reorders sends within a stream. Issues that
/// never completed (flushed by a failure) are left out.
pub fn rollup_by_group(events: &[TraceEvent], wire: &WireModel) -> BTreeMap<u32, GroupStall> {
    let mut out: BTreeMap<u32, GroupStall> = BTreeMap::new();
    for (issue, done) in send_pairs(events) {
        let issue = &events[issue];
        let (Some(group), &EventKind::BlockSendIssued { bytes, .. }) =
            (issue.scope.group, &issue.kind)
        else {
            unreachable!("send_pairs pairs scoped issues only");
        };
        let span = events[done].t_ns.saturating_sub(issue.t_ns);
        let ideal = wire.ideal_ns(bytes).min(span);
        let st = out.entry(group).or_default();
        st.sends += 1;
        st.bytes += bytes;
        st.transfer_ns += ideal;
        st.link_limited_ns += span - ideal;
    }
    let mut queued: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events {
        if let (Some(group), EventKind::SendAdmitted { queued_ns, .. }) = (ev.scope.group, &ev.kind)
        {
            *queued.entry(group).or_default() += queued_ns;
        }
    }
    // Admission wait is part of the issue-to-completion span; move it
    // out of the contention class it initially landed in.
    for (group, q) in queued {
        if let Some(st) = out.get_mut(&group) {
            let q = q.min(st.link_limited_ns);
            st.sender_limited_ns += q;
            st.link_limited_ns -= q;
        }
    }
    out
}

/// Per-rank timelines for the first message of `group`, rank order.
pub fn timelines(events: &[TraceEvent], group: u32) -> Vec<RankTimeline> {
    let (_, ranks) = index_group(events, group);
    ranks
        .into_iter()
        .map(|(rank, ix)| RankTimeline {
            rank,
            first_block_ns: ix.arrivals.first().map(|a| a.0),
            delivered_ns: ix.delivered,
            blocks_received: ix.arrivals.len() as u32,
            blocks_sent: ix.issues.len() as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Scope};

    /// Two ranks, two 1000-byte blocks over an 8 Gb/s, 50 ns wire:
    /// hand-computed critical path.
    fn two_rank_trace() -> Vec<TraceEvent> {
        let r = Recorder::full();
        let g = 0;
        let at = |t: u64, scope: Scope, k: EventKind, rec: &Recorder| rec.record_at(t, scope, || k);
        at(
            0,
            Scope::group_rank(g, 0),
            EventKind::MessageSubmitted { size: 2000 },
            &r,
        );
        at(
            0,
            Scope::group_rank(g, 0),
            EventKind::TransferStarted {
                size: 2000,
                blocks: 2,
                root: true,
            },
            &r,
        );
        at(
            0,
            Scope::group_rank(g, 1),
            EventKind::ReadyGranted { to: 0 },
            &r,
        );
        at(
            0,
            Scope::group_rank(g, 1),
            EventKind::ReadyGranted { to: 0 },
            &r,
        );
        at(
            50,
            Scope::group_rank(g, 0),
            EventKind::ReadyHeard { from: 1 },
            &r,
        );
        at(
            60,
            Scope::group_rank(g, 0),
            EventKind::ReadyHeard { from: 1 },
            &r,
        );
        for (b, (t_issue, t_done, t_arr)) in [
            (0u32, (50u64, 1050u64, 1100u64)),
            (1u32, (1050, 2050, 2100)),
        ] {
            at(
                t_issue,
                Scope::group_rank(g, 0),
                EventKind::BlockSendIssued {
                    to: 1,
                    block: b,
                    step: b,
                    bytes: 1000,
                    epoch: 0,
                },
                &r,
            );
            at(
                t_done,
                Scope::group_rank(g, 0),
                EventKind::BlockSendCompleted { to: 1 },
                &r,
            );
            at(
                t_arr,
                Scope::group_rank(g, 1),
                EventKind::BlockArrived {
                    from: 0,
                    block: b,
                    step: b,
                    first: b == 0,
                    epoch: 0,
                },
                &r,
            );
        }
        at(
            2050,
            Scope::group_rank(g, 0),
            EventKind::Delivered { size: 2000 },
            &r,
        );
        at(
            2100,
            Scope::group_rank(g, 1),
            EventKind::Delivered { size: 2000 },
            &r,
        );
        r.events()
    }

    #[test]
    fn breakdown_sums_exactly_and_classifies() {
        let wire = WireModel {
            gbps: 8.0,
            latency_ns: 50,
            nic_op_ns: 0,
        };
        let b = attribute(&two_rank_trace(), 0, &wire).expect("breakdown");
        assert_eq!(b.end_to_end_ns, 2100);
        assert_eq!(b.attributed_ns(), b.end_to_end_ns);
        // Critical path: block 1 arrives at 2100, issued at 1050
        // (ideal 1050 ns: fully transfer-bound), held 990 ns behind
        // block 0's send (sender-limited, gate at credit t=60), and
        // 60 ns of credit propagation (receiver-limited).
        assert_eq!(b.transfer_ns, 1050);
        assert_eq!(b.link_limited_ns, 0);
        assert_eq!(b.sender_limited_ns, 990);
        assert_eq!(b.receiver_limited_ns, 60);
        assert_eq!(b.schedule_idle_ns, 0);
    }

    #[test]
    fn attribution_never_loses_time_on_sparse_traces() {
        // A trace with a submit and a delivery but no block events at
        // the delivering rank still balances.
        let r = Recorder::full();
        r.record_at(0, Scope::group_rank(0, 0), || EventKind::MessageSubmitted {
            size: 1,
        });
        r.record_at(500, Scope::group_rank(0, 0), || EventKind::Delivered {
            size: 1,
        });
        let wire = WireModel {
            gbps: 100.0,
            latency_ns: 1,
            nic_op_ns: 1,
        };
        let b = attribute(&r.events(), 0, &wire).expect("breakdown");
        assert_eq!(b.end_to_end_ns, 500);
        assert_eq!(b.attributed_ns(), 500);
    }

    #[test]
    fn rollup_splits_admission_wait_from_link_contention() {
        let wire = WireModel {
            gbps: 8.0,
            latency_ns: 50,
            nic_op_ns: 0,
        };
        let r = Recorder::full();
        // Group 0: one 1000-byte send (ideal 1050 ns) issued at t=0,
        // held 200 ns by admission, completed at 1500: 250 ns of link
        // contention remain.
        r.record_at(0, Scope::group_rank(0, 0), || EventKind::BlockSendIssued {
            to: 1,
            block: 0,
            step: 0,
            bytes: 1000,
            epoch: 0,
        });
        r.record_at(200, Scope::group_rank(0, 0), || EventKind::SendAdmitted {
            to: 1,
            block: 0,
            queued_ns: 200,
        });
        r.record_at(1500, Scope::group_rank(0, 0), || {
            EventKind::BlockSendCompleted { to: 1 }
        });
        // Group 1: an unpaced send at the ideal rate — pure transfer.
        r.record_at(0, Scope::group_rank(1, 0), || EventKind::BlockSendIssued {
            to: 1,
            block: 0,
            step: 0,
            bytes: 1000,
            epoch: 0,
        });
        r.record_at(1050, Scope::group_rank(1, 0), || {
            EventKind::BlockSendCompleted { to: 1 }
        });
        // A dangling issue (never completed) must not be counted.
        r.record_at(2000, Scope::group_rank(1, 0), || {
            EventKind::BlockSendIssued {
                to: 1,
                block: 1,
                step: 1,
                bytes: 1000,
                epoch: 0,
            }
        });
        let rollup = rollup_by_group(&r.events(), &wire);
        assert_eq!(rollup.len(), 2);
        let g0 = rollup[&0];
        assert_eq!(g0.sends, 1);
        assert_eq!(g0.bytes, 1000);
        assert_eq!(g0.transfer_ns, 1050);
        assert_eq!(g0.sender_limited_ns, 200);
        assert_eq!(g0.link_limited_ns, 250);
        assert_eq!(g0.total_ns(), 1500);
        let g1 = rollup[&1];
        assert_eq!(g1.sends, 1);
        assert_eq!(g1.transfer_ns, 1050);
        assert_eq!(g1.sender_limited_ns, 0);
        assert_eq!(g1.link_limited_ns, 0);
    }

    #[test]
    fn rollup_totals_survive_reordered_admission() {
        // Two sends on one stream admitted out of issue order: the
        // completion order follows the posts, but the aggregate span —
        // and so the class totals — must still balance.
        let wire = WireModel {
            gbps: 8.0,
            latency_ns: 0,
            nic_op_ns: 0,
        };
        let r = Recorder::full();
        for (t_issue, bytes) in [(0u64, 1000u64), (100, 1000)] {
            r.record_at(t_issue, Scope::group_rank(0, 0), || {
                EventKind::BlockSendIssued {
                    to: 1,
                    block: 0,
                    step: 0,
                    bytes,
                    epoch: 0,
                }
            });
        }
        for t_done in [1100u64, 2100] {
            r.record_at(t_done, Scope::group_rank(0, 0), || {
                EventKind::BlockSendCompleted { to: 1 }
            });
        }
        let rollup = rollup_by_group(&r.events(), &wire);
        let g0 = rollup[&0];
        assert_eq!(g0.sends, 2);
        // Aggregate span 3100 = 2 * 1000-ns ideal + 1100 contention,
        // regardless of which completion belonged to which issue.
        assert_eq!(g0.total_ns(), 3100);
        assert_eq!(g0.transfer_ns, 2000);
        assert_eq!(g0.link_limited_ns, 1100);
    }

    #[test]
    fn send_streams_end_at_a_reconfiguration() {
        // Rank 1's send of block 0 to rank 2 is flushed by a failure and
        // never completes; after the view change the same (rank,
        // destination) stream carries block 5, which completes after
        // 1000 ns. Paired across the view change, the completion would
        // close the flushed send: a 3000 ns span labelled block 0.
        let r = Recorder::full();
        let issue = |t, block, epoch| {
            r.record_at(t, Scope::group_rank(0, 1), || EventKind::BlockSendIssued {
                to: 2,
                block,
                step: 0,
                bytes: 1000,
                epoch,
            });
        };
        issue(1000, 0, 0);
        r.record_at(2000, Scope::group(0), || EventKind::ReconfigInstalled {
            epoch: 1,
            survivors: vec![0, 1, 2],
            removed: vec![3],
            abandoned: vec![],
            resumed_blocks: 0,
            forced: false,
        });
        issue(3000, 5, 1);
        r.record_at(4000, Scope::group_rank(0, 1), || {
            EventKind::BlockSendCompleted { to: 2 }
        });
        let events = r.events();
        assert_eq!(send_pairs(&events), [(2, 3)]);
        let wire = WireModel {
            gbps: 8.0,
            latency_ns: 0,
            nic_op_ns: 0,
        };
        let g0 = rollup_by_group(&events, &wire)[&0];
        assert_eq!((g0.sends, g0.total_ns()), (1, 1000));
        let chrome = crate::export::to_chrome_trace(&events);
        assert!(chrome.contains("\"name\":\"send b5 -> r2\""), "{chrome}");
        assert!(chrome.contains("\"ts\":3.000,\"dur\":1.000"), "{chrome}");
    }

    #[test]
    fn timelines_report_per_rank_progress() {
        let tl = timelines(&two_rank_trace(), 0);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].rank, 0);
        assert_eq!(tl[0].blocks_sent, 2);
        assert_eq!(tl[0].first_block_ns, None);
        assert_eq!(tl[0].delivered_ns, Some(2050));
        assert_eq!(tl[1].blocks_received, 2);
        assert_eq!(tl[1].first_block_ns, Some(1100));
        assert_eq!(tl[1].delivered_ns, Some(2100));
    }
}
