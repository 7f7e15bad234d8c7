//! The one schedule-validity rule: a rank relays only what it holds,
//! every block a rank lacks arrives exactly once, and no step exceeds the
//! port budget.
//!
//! A fresh multicast and a resumed one differ only in where the blocks
//! start: at the root (§4.3), or wherever the wedge left them (§2.4). So
//! [`GlobalSchedule::check_from`] takes the holdings at step 0 and
//! [`GlobalSchedule::validate`], the analyzer, the recovery planner's
//! tests and the trace oracle ([`super::check_trace`], over the transfers
//! a recorded run issued) all call it. Port budgets ([`port_conflicts`])
//! and completion bounds ([`StepBound`]) are separate checks over the
//! same vocabulary.

use std::collections::BTreeMap;
use std::fmt;

use super::{GlobalSchedule, GlobalTransfer};
use crate::analysis::log2_ceil;
use crate::types::{Algorithm, Rank};

/// One schedule transfer, tagged with its step — the unit counterexample
/// traces are made of. Ordered by step first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct TraceEntry {
    /// Asynchronous step the transfer is scheduled in.
    pub step: u32,
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank.
    pub to: Rank,
    /// Block number.
    pub block: u32,
}

impl From<(u32, GlobalTransfer)> for TraceEntry {
    fn from((step, t): (u32, GlobalTransfer)) -> Self {
        TraceEntry {
            step,
            from: t.from,
            to: t.to,
            block: t.block,
        }
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: {} -> {} (block {})",
            self.step, self.from, self.to, self.block
        )
    }
}

/// A statically provable schedule defect. Every variant carries the
/// minimal witness needed to reproduce it by inspection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A transfer names an out-of-range rank or block.
    Malformed {
        /// The offending transfer.
        transfer: TraceEntry,
    },
    /// A rank is scheduled to send a block to itself.
    SelfSend {
        /// The offending transfer.
        transfer: TraceEntry,
    },
    /// A rank receives a block it already held at step 0 (for a fresh
    /// multicast: the root is scheduled to receive).
    ReceivesHeldBlock {
        /// The offending transfer.
        transfer: TraceEntry,
    },
    /// Causality: a rank relays a block strictly before any step that
    /// delivers that block to it. `provenance` is the minimal causal
    /// chain the checker could reconstruct for the sender's copy — it
    /// ends at the hole (or is empty when the sender never receives the
    /// block at all).
    SendWithoutBlock {
        /// The premature relay.
        transfer: TraceEntry,
        /// Backward causal slice of the sender's copy, oldest first.
        provenance: Vec<TraceEntry>,
    },
    /// A rank receives the same block twice.
    DuplicateDelivery {
        /// The redundant delivery.
        transfer: TraceEntry,
        /// The delivery that already covered it.
        first: TraceEntry,
    },
    /// Coverage: a rank never receives a block it lacked at step 0.
    MissingBlock {
        /// The rank that goes without.
        rank: Rank,
        /// The block that never arrives.
        block: u32,
    },
    /// A rank is scheduled to send more blocks in one step than the NIC
    /// model admits (§4.3: full-duplex, one channel each way).
    SendPortConflict {
        /// The conflicted step.
        step: u32,
        /// The over-committed rank.
        rank: Rank,
        /// Transfers it would have to emit simultaneously (budget + 1 of
        /// them — a minimal witness).
        transfers: Vec<TraceEntry>,
        /// The per-step budget for this algorithm and group size.
        budget: u32,
    },
    /// A rank is scheduled to receive more blocks in one step than the
    /// NIC model admits.
    RecvPortConflict {
        /// The conflicted step.
        step: u32,
        /// The over-committed rank.
        rank: Rank,
        /// Transfers it would have to absorb simultaneously.
        transfers: Vec<TraceEntry>,
        /// The per-step budget for this algorithm and group size.
        budget: u32,
    },
    /// The generator refused a shape the grid considers legal.
    BuildRejected {
        /// The builder's error message.
        reason: String,
    },
    /// A recorded run left the schedule it was planned to run: the first
    /// transfer (in step order) that ran but is not in the plan (`ran`),
    /// else the first one the plan of a complete run has and the run
    /// skipped (`!ran`).
    OffPlan {
        /// The differing transfer.
        transfer: TraceEntry,
        /// Whether it ran (and was not planned) or was planned (and did
        /// not run).
        ran: bool,
    },
    /// The schedule's step count misses its algorithm's completion bound
    /// (exact `ceil(log2 n) + k - 1` for the binomial pipeline; see
    /// [`StepBound::for_algorithm`] for the rest).
    StepBoundViolated {
        /// Steps the schedule actually takes.
        steps: u32,
        /// The bound it had to meet.
        bound: StepBound,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Malformed { transfer } => write!(f, "malformed transfer: {transfer}"),
            Violation::SelfSend { transfer } => write!(f, "self-send: {transfer}"),
            Violation::ReceivesHeldBlock { transfer } => {
                write!(f, "held-block receipt: {transfer} (held since step 0)")
            }
            Violation::SendWithoutBlock {
                transfer,
                provenance,
            } => {
                write!(f, "causality: {transfer} sent before the sender holds it")?;
                for p in provenance {
                    write!(f, "\n    via {p}")?;
                }
                Ok(())
            }
            Violation::DuplicateDelivery { transfer, first } => {
                write!(
                    f,
                    "duplicate delivery: {transfer} (already delivered by {first})"
                )
            }
            Violation::MissingBlock { rank, block } => {
                write!(f, "coverage: rank {rank} never receives block {block}")
            }
            Violation::SendPortConflict {
                step,
                rank,
                transfers,
                budget,
            } => {
                write!(
                    f,
                    "send port conflict: step {step} asks rank {rank} for {} sends (budget {budget})",
                    transfers.len()
                )?;
                for t in transfers {
                    write!(f, "\n    {t}")?;
                }
                Ok(())
            }
            Violation::RecvPortConflict {
                step,
                rank,
                transfers,
                budget,
            } => {
                write!(
                    f,
                    "recv port conflict: step {step} asks rank {rank} for {} receives (budget {budget})",
                    transfers.len()
                )?;
                for t in transfers {
                    write!(f, "\n    {t}")?;
                }
                Ok(())
            }
            Violation::BuildRejected { reason } => {
                write!(f, "generator refused a legal shape: {reason}")
            }
            Violation::OffPlan { transfer, ran } => match ran {
                true => write!(
                    f,
                    "off plan: {transfer} ran, but the plan has no such transfer"
                ),
                false => write!(f, "off plan: planned {transfer} never ran"),
            },
            Violation::StepBoundViolated { steps, bound } => {
                write!(
                    f,
                    "completion bound: schedule takes {steps} steps, bound is {bound}"
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

/// The per-step, per-rank send/receive budget of the NIC model. The
/// paper's full-duplex claim (§4.3) is one send and one receive per node
/// per step; the shadow-vertex generalisation to non-power-of-two groups
/// has one physical node play up to two virtual vertices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortBudget {
    /// Max scheduled sends per rank per step.
    pub send: u32,
    /// Max scheduled receives per rank per step.
    pub recv: u32,
}

impl PortBudget {
    /// The budget for `algorithm` at group size `n`, as established by
    /// exhaustively probing the generators over `n <= 64`, `k <= 32`:
    ///
    /// | algorithm               | send | recv | why                                      |
    /// |-------------------------|------|------|------------------------------------------|
    /// | sequential/chain/tree   | 1    | 1    | strict full-duplex (§4.3)                |
    /// | binomial pipeline, 2^x  | 1    | 1    | the paper's exact claim                  |
    /// | binomial pipeline, else | 2    | 2    | one node plays two shadow vertices       |
    /// | hybrid                  | 2    | 2    | shadow vertices among the rack leaders   |
    ///
    /// [`Algorithm::Custom`] gets no static budget (`u32::MAX`).
    pub fn for_algorithm(algorithm: &Algorithm, n: u32) -> PortBudget {
        match algorithm {
            Algorithm::Sequential | Algorithm::Chain | Algorithm::BinomialTree => {
                PortBudget { send: 1, recv: 1 }
            }
            Algorithm::BinomialPipeline => {
                if n.is_power_of_two() {
                    PortBudget { send: 1, recv: 1 }
                } else {
                    PortBudget { send: 2, recv: 2 }
                }
            }
            Algorithm::Hybrid { .. } => PortBudget { send: 2, recv: 2 },
            Algorithm::Custom { .. } => PortBudget {
                send: u32::MAX,
                recv: u32::MAX,
            },
        }
    }
}

/// A completion-step bound for one `(algorithm, n, k)` shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepBound {
    /// The schedule must take exactly this many steps.
    Exact(u32),
    /// The schedule must take at most this many steps.
    AtMost(u32),
    /// No static bound (custom schedule families).
    Unbounded,
}

impl fmt::Display for StepBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepBound::Exact(s) => write!(f, "exactly {s}"),
            StepBound::AtMost(s) => write!(f, "at most {s}"),
            StepBound::Unbounded => write!(f, "unbounded"),
        }
    }
}

impl StepBound {
    /// The bound for `algorithm` over `n` members and `k` blocks:
    ///
    /// - sequential: exactly `(n-1)·k` (root unicasts every block),
    /// - chain: exactly `(n-1) + (k-1)` (pipeline fill + drain),
    /// - binomial tree: exactly `ceil(log2 n)·k` (one full tree per block),
    /// - binomial pipeline: exactly `ceil(log2 n) + k - 1` — the paper's
    ///   headline bound (§4.3), which the shadow-vertex generalisation
    ///   preserves at every group size,
    /// - hybrid: at most `(L+k-1) + (I+k-1)` with `L = ceil(log2 #racks)`
    ///   and `I = ceil(log2 max-rack-size)` (inter phase then intra
    ///   phases).
    pub fn for_algorithm(algorithm: &Algorithm, n: u32, k: u32) -> StepBound {
        if n <= 1 {
            return StepBound::Exact(0);
        }
        match algorithm {
            Algorithm::Sequential => StepBound::Exact((n - 1) * k),
            Algorithm::Chain => StepBound::Exact(n - 1 + k - 1),
            Algorithm::BinomialTree => StepBound::Exact(log2_ceil(n) * k),
            Algorithm::BinomialPipeline => StepBound::Exact(log2_ceil(n) + k - 1),
            Algorithm::Hybrid { rack_of } => {
                if rack_of.len() != n as usize {
                    // The builder rejects this shape; don't bound it here.
                    return StepBound::Unbounded;
                }
                let num_racks = rack_of
                    .iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .len();
                let max_members = rack_of
                    .iter()
                    .map(|r| rack_of.iter().filter(|x| x == &r).count())
                    .max()
                    .unwrap_or(1) as u32;
                let l = log2_ceil(num_racks as u32);
                let i = log2_ceil(max_members);
                StepBound::AtMost((l + k).saturating_sub(1) + (i + k).saturating_sub(1))
            }
            Algorithm::Custom { .. } => StepBound::Unbounded,
        }
    }

    /// Whether `steps` satisfies the bound.
    pub fn admits(&self, steps: u32) -> bool {
        match *self {
            StepBound::Exact(s) => steps == s,
            StepBound::AtMost(s) => steps <= s,
            StepBound::Unbounded => true,
        }
    }
}

impl GlobalSchedule {
    /// Walks the schedule from the holdings at step 0 (`held[r][b]`: rank
    /// `r` holds block `b`; ranks and blocks past the table's end hold
    /// nothing, so `&[vec![true; k]]` is a fresh multicast from the root)
    /// and returns every violation, in step order, then coverage holes
    /// rank by rank. A transfer may only relay a block its sender held
    /// at step 0 or received in an earlier step, and every `(rank,
    /// block)` not held at step 0 must arrive exactly once. Port budgets
    /// and step bounds are not checked here (see [`port_conflicts`] and
    /// [`StepBound`]). Never panics, whatever the shape or transfers.
    pub fn check_from(&self, held: &[Vec<bool>]) -> Vec<Violation> {
        let (n, k) = (self.n, self.k);
        let start: Vec<Vec<bool>> = (0..n as usize)
            .map(|r| {
                (0..k as usize)
                    .map(|b| held.get(r).and_then(|h| h.get(b)) == Some(&true))
                    .collect()
            })
            .collect();
        // delivered[rank][block] = the transfer that first delivered it.
        let mut delivered: Vec<Vec<Option<TraceEntry>>> = vec![vec![None; k as usize]; n as usize];
        let mut violations = Vec::new();
        for entry in self.transfers().map(TraceEntry::from) {
            if entry.from >= n || entry.to >= n || entry.block >= k {
                violations.push(Violation::Malformed { transfer: entry });
                continue;
            }
            if entry.from == entry.to {
                violations.push(Violation::SelfSend { transfer: entry });
                continue;
            }
            let (from, to, b) = (entry.from as usize, entry.to as usize, entry.block as usize);
            if start[to][b] {
                violations.push(Violation::ReceivesHeldBlock { transfer: entry });
            }
            // Receipts become relayable at the next step.
            let holds = start[from][b] || delivered[from][b].is_some_and(|d| d.step < entry.step);
            if !holds {
                violations.push(Violation::SendWithoutBlock {
                    transfer: entry,
                    provenance: provenance(&start, &delivered, entry),
                });
            }
            if !start[to][b] {
                match delivered[to][b] {
                    Some(first) => violations.push(Violation::DuplicateDelivery {
                        transfer: entry,
                        first,
                    }),
                    None => delivered[to][b] = Some(entry),
                }
            }
        }
        for rank in 0..n {
            for block in 0..k {
                let (r, b) = (rank as usize, block as usize);
                if !start[r][b] && delivered[r][b].is_none() {
                    violations.push(Violation::MissingBlock { rank, block });
                }
            }
        }
        violations
    }
}

/// The minimal backward causal slice explaining how `entry.from` came to
/// hold `entry.block`: walk first deliveries back toward a rank that held
/// the block at step 0. The chain stops either there (complete
/// provenance) or at a hole — a sender with no earlier delivery of the
/// block — which is the point a causality counterexample demonstrates.
fn provenance(
    start: &[Vec<bool>],
    delivered: &[Vec<Option<TraceEntry>>],
    entry: TraceEntry,
) -> Vec<TraceEntry> {
    let b = entry.block as usize;
    let mut chain = Vec::new();
    let mut cur = entry.from as usize;
    while !start[cur][b] {
        let Some(d) = delivered[cur][b] else { break };
        chain.push(d);
        if chain.len() > delivered.len() {
            break; // defensive: corrupted schedules can loop
        }
        cur = d.from as usize;
    }
    chain.reverse();
    chain
}

/// Every step where some in-range rank sends or receives more blocks than
/// `budget` admits, with `budget + 1` of its transfers as the witness.
pub fn port_conflicts(schedule: &GlobalSchedule, budget: PortBudget) -> Vec<Violation> {
    let mut out = Vec::new();
    for (j, step) in schedule.steps.iter().enumerate() {
        let mut sends: BTreeMap<Rank, Vec<TraceEntry>> = BTreeMap::new();
        let mut recvs: BTreeMap<Rank, Vec<TraceEntry>> = BTreeMap::new();
        for &t in step {
            if t.from >= schedule.n || t.to >= schedule.n {
                continue; // already reported as malformed
            }
            let entry = TraceEntry::from((j as u32, t));
            sends.entry(t.from).or_default().push(entry);
            recvs.entry(t.to).or_default().push(entry);
        }
        for (rank, mut transfers) in sends {
            if transfers.len() as u32 > budget.send {
                // budget + 1 conflicting transfers are a minimal witness.
                transfers.truncate(budget.send as usize + 1);
                out.push(Violation::SendPortConflict {
                    step: j as u32,
                    rank,
                    transfers,
                    budget: budget.send,
                });
            }
        }
        for (rank, mut transfers) in recvs {
            if transfers.len() as u32 > budget.recv {
                transfers.truncate(budget.recv as usize + 1);
                out.push(Violation::RecvPortConflict {
                    step: j as u32,
                    rank,
                    transfers,
                    budget: budget.recv,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_step_bound_formula() {
        let bound = |n, k| StepBound::for_algorithm(&Algorithm::BinomialPipeline, n, k);
        assert_eq!(bound(8, 256), StepBound::Exact(3 + 255));
        assert_eq!(bound(512, 32), StepBound::Exact(9 + 31));
    }
}
