//! The run executed the plan: a recorded trace, projected onto the
//! transfers each message ran, held to the one schedule rule and to the
//! schedule the message was given ([`check_trace`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use trace::check::{check_events, CheckStats};
use trace::{EventKind, TraceEvent};

use super::check::{port_conflicts, PortBudget, StepBound, TraceEntry, Violation};
use super::{GlobalSchedule, GlobalTransfer};

/// What [`check_trace`] asks its caller: the schedule one unit was
/// planned to run, over its epoch's ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanRequest {
    /// A fresh multicast of `k` blocks, at the group's size in `epoch`.
    Fresh {
        /// Trace group id.
        group: u32,
        /// Configuration epoch.
        epoch: u64,
        /// Block count.
        k: u32,
    },
    /// A message resumed in `epoch` from the wedge's holdings.
    Resume {
        /// Trace group id.
        group: u32,
        /// Configuration epoch.
        epoch: u64,
        /// `held[rank][block]` at step 0, one row per member.
        held: Vec<Vec<bool>>,
    },
}

/// One unit as the trace recorded it.
#[derive(Default)]
struct Unit {
    resume: bool,
    k: u32,
    /// Holdings at step 0 of each rank that started it.
    held: BTreeMap<u32, Vec<bool>>,
    /// Ranks that delivered it in this epoch, or resumed it delivered.
    done: BTreeSet<u32>,
    /// The block sends its members issued.
    sent: Vec<TraceEntry>,
}

/// Checks a complete trace: the event rules of [`check_events`], then
/// per *unit* — the m-th transfer each member starts in an epoch, which
/// is the same message at every rank because members run messages in
/// order — the transfers its members issued, from the holdings they
/// started with (the root's whole message, or `ResumeStarted::held`).
/// Those go through [`GlobalSchedule::check_from`], the port budget
/// ([`PortBudget::for_algorithm`] fresh, one send and one receive per
/// step resumed, as recovery plans), the [`StepBound`] of a complete
/// fresh unit, and the schedule `plan` answers. A unit is complete when
/// every member of its epoch delivered it there (or resumed it already
/// delivered): its transfers must then equal the plan's, with coverage;
/// otherwise they must be a subset, each at its planned step. A resume
/// some member never started has no recorded plan and gets the rules
/// alone.
///
/// # Errors
///
/// Every violation found: event rules first, then unit violations
/// reading `group g epoch e message m: ...`.
pub fn check_trace(
    events: &[TraceEvent],
    mut plan: impl FnMut(&PlanRequest) -> Option<Arc<GlobalSchedule>>,
) -> Result<CheckStats, Vec<String>> {
    let (mut stats, mut violations) = match check_events(events) {
        Ok(stats) => (stats, Vec::new()),
        Err(v) => (CheckStats::default(), v),
    };
    let mut units: BTreeMap<(u32, u64, u32), Unit> = BTreeMap::new();
    // (group, rank) -> its epoch; (group, epoch) -> the epoch's size;
    // (group, epoch, rank) -> units started there.
    let mut epoch_of: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut size_of: BTreeMap<(u32, u64), u32> = BTreeMap::new();
    let mut started: BTreeMap<(u32, u64, u32), u32> = BTreeMap::new();
    for ev in events {
        let (Some(g), Some(r)) = (ev.scope.group, ev.scope.rank) else {
            continue;
        };
        let epoch = match ev.kind {
            EventKind::EpochInstalled {
                epoch, num_nodes, ..
            } => {
                epoch_of.insert((g, r), epoch);
                size_of.insert((g, epoch), num_nodes);
                continue;
            }
            EventKind::BlockSendIssued { epoch, .. } => epoch,
            EventKind::TransferStarted { .. }
            | EventKind::ResumeStarted { .. }
            | EventKind::Delivered { .. } => epoch_of.get(&(g, r)).copied().unwrap_or(0),
            _ => continue,
        };
        let count = started.entry((g, epoch, r)).or_insert(0);
        if let EventKind::TransferStarted { .. } | EventKind::ResumeStarted { .. } = ev.kind {
            *count += 1;
        }
        let Some(m) = count.checked_sub(1) else {
            violations.push(format!(
                "group {g} epoch {epoch}: rank {r} acted before starting any transfer"
            ));
            continue;
        };
        let unit = units.entry((g, epoch, m)).or_default();
        match &ev.kind {
            EventKind::TransferStarted { blocks, root, .. } => {
                (unit.k, unit.resume) = (*blocks, false);
                unit.held.insert(r, vec![*root; *blocks as usize]);
            }
            EventKind::ResumeStarted {
                blocks,
                held,
                already_delivered,
                ..
            } => {
                (unit.k, unit.resume) = (*blocks, true);
                unit.held
                    .insert(r, (0..*blocks).map(|b| held.contains(&b)).collect());
                if *already_delivered {
                    unit.done.insert(r);
                }
            }
            EventKind::Delivered { .. } => {
                unit.done.insert(r);
            }
            EventKind::BlockSendIssued {
                to, block, step, ..
            } => unit.sent.push(TraceEntry {
                step: *step,
                from: r,
                to: *to,
                block: *block,
            }),
            _ => {}
        }
    }
    for ((g, epoch, m), unit) in units {
        let size = size_of.get(&(g, epoch)).copied();
        let request = if unit.resume {
            size.filter(|&n| unit.held.keys().copied().eq(0..n))
                .map(|_| PlanRequest::Resume {
                    group: g,
                    epoch,
                    held: unit.held.values().cloned().collect(),
                })
        } else {
            Some(PlanRequest::Fresh {
                group: g,
                epoch,
                k: unit.k,
            })
        };
        let planned = request.as_ref().and_then(&mut plan);
        let n = match request {
            Some(_) => planned.as_ref().map(|p| p.num_nodes()),
            None => size,
        };
        let at =
            |what: &dyn std::fmt::Display| format!("group {g} epoch {epoch} message {m}: {what}");
        let Some(n) = n else {
            violations.push(at(&"no plan to check it against"));
            continue;
        };
        let complete = (0..n).all(|r| unit.done.contains(&r));
        let found = unit.violations(n, complete, planned.as_deref());
        violations.extend(found.iter().map(|v| at(v)));
        match (planned, unit.resume) {
            (None, _) => {}
            (Some(_), false) => stats.fresh_units += 1,
            (Some(_), true) => stats.resume_units += 1,
        }
    }
    if violations.is_empty() {
        Ok(stats)
    } else {
        Err(violations)
    }
}

impl Unit {
    /// The schedule rule, port budget, step bound and plan, over this
    /// unit's transfers in an `n`-member epoch.
    fn violations(&self, n: u32, complete: bool, plan: Option<&GlobalSchedule>) -> Vec<Violation> {
        let depth = self.sent.iter().map(|t| t.step as usize + 1).max();
        let mut steps = vec![Vec::new(); depth.unwrap_or(0)];
        for t in &self.sent {
            let (from, to, block) = (t.from, t.to, t.block);
            steps[t.step as usize].push(GlobalTransfer { from, to, block });
        }
        let observed = GlobalSchedule::from_custom_steps("observed", n, self.k, steps);
        let held: Vec<Vec<bool>> = (0..n)
            .map(|r| self.held.get(&r).cloned().unwrap_or_default())
            .collect();
        let mut out = observed.check_from(&held);
        out.retain(|v| complete || !matches!(v, Violation::MissingBlock { .. }));
        let budget = match plan {
            Some(p) if !self.resume => PortBudget::for_algorithm(p.algorithm(), n),
            _ => PortBudget { send: 1, recv: 1 },
        };
        out.extend(port_conflicts(&observed, budget));
        let Some(plan) = plan else { return out };
        let bound = StepBound::for_algorithm(plan.algorithm(), n, self.k);
        let steps = observed.num_steps();
        if complete && !self.resume && !bound.admits(steps) {
            out.push(Violation::StepBoundViolated { steps, bound });
        }
        // The first transfer (in step order) that ran off the plan, else —
        // for a complete unit — the first the plan has and the run skipped.
        let ran: BTreeSet<TraceEntry> = observed.transfers().map(TraceEntry::from).collect();
        let planned: BTreeSet<TraceEntry> = plan.transfers().map(TraceEntry::from).collect();
        let unplanned = ran.difference(&planned).next().map(|&t| (t, true));
        let skipped = planned.difference(&ran).next().map(|&t| (t, false));
        if let Some((transfer, ran)) = unplanned.or(skipped.filter(|_| complete)) {
            out.push(Violation::OffPlan { transfer, ran });
        }
        out
    }
}
