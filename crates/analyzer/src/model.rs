//! The schedule model checker.
//!
//! [`check_schedule_with`] is the one validity rule of
//! [`GlobalSchedule::check_from`] plus a port budget and a step bound,
//! collected into a [`ModelReport`]: unlike `GlobalSchedule::validate` it
//! keeps *all* violations, each with a minimal counterexample trace (the
//! smallest backward causal slice of the schedule that demonstrates the
//! defect). A fresh multicast starts from the root's holdings; a recovery
//! resume schedule is the same check started from wedge-time holdings.

use rdmc::schedule::{port_conflicts, GlobalSchedule, PortBudget, StepBound, Violation};

/// The model checker's verdict on one schedule.
#[derive(Clone, Debug)]
#[must_use = "check `is_clean()`; an unread report hides violations"]
pub struct ModelReport {
    /// Human-readable algorithm label.
    pub algorithm: String,
    /// Group size.
    pub n: u32,
    /// Block count.
    pub k: u32,
    /// Every violation found (empty = the schedule is proven correct
    /// against the static model).
    pub violations: Vec<Violation>,
}

impl ModelReport {
    /// True when no invariant is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ModelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(f, "{} n={} k={}: ok", self.algorithm, self.n, self.k)
        } else {
            writeln!(
                f,
                "{} n={} k={}: {} violation(s)",
                self.algorithm,
                self.n,
                self.k,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Model-checks `schedule` from the root's holdings with the budgets and
/// bounds of its own algorithm (see [`check_schedule_with`]).
pub fn check_schedule(schedule: &GlobalSchedule) -> ModelReport {
    let (n, k) = (schedule.num_nodes(), schedule.num_blocks());
    check_schedule_with(
        schedule,
        &[vec![true; k as usize]],
        PortBudget::for_algorithm(schedule.algorithm(), n),
        StepBound::for_algorithm(schedule.algorithm(), n, k),
    )
}

/// Model-checks `schedule` from the holdings at step 0 (see
/// [`GlobalSchedule::check_from`]) against an explicit port budget and
/// step bound, collecting every violation with its minimal
/// counterexample.
pub fn check_schedule_with(
    schedule: &GlobalSchedule,
    held: &[Vec<bool>],
    budget: PortBudget,
    bound: StepBound,
) -> ModelReport {
    let mut violations = schedule.check_from(held);
    violations.extend(port_conflicts(schedule, budget));
    let steps = schedule.num_steps();
    if !bound.admits(steps) {
        violations.push(Violation::StepBoundViolated { steps, bound });
    }
    ModelReport {
        algorithm: schedule.algorithm().to_string(),
        n: schedule.num_nodes(),
        k: schedule.num_blocks(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdmc::schedule::GlobalTransfer;
    use rdmc::Algorithm;

    #[test]
    fn pipeline_is_clean_and_exactly_bounded() {
        for n in [2u32, 3, 8, 16, 20] {
            for k in [1u32, 4, 9] {
                let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
                let r = check_schedule(&g);
                assert!(r.is_clean(), "n={n} k={k}: {r}");
                assert_eq!(g.num_steps(), rdmc::analysis::log2_ceil(n) + k - 1);
            }
        }
    }

    #[test]
    fn power_of_two_pipeline_has_strict_unit_budget() {
        let b = PortBudget::for_algorithm(&Algorithm::BinomialPipeline, 16);
        assert_eq!(b, PortBudget { send: 1, recv: 1 });
        let b = PortBudget::for_algorithm(&Algorithm::BinomialPipeline, 20);
        assert_eq!(b, PortBudget { send: 2, recv: 2 });
    }

    #[test]
    fn provenance_reaches_the_root_on_valid_schedules() {
        let g = GlobalSchedule::build(&Algorithm::Chain, 5, 1);
        // Build delivery map by checking (clean) and then ask for the
        // provenance of the last hop: it must walk back to rank 0.
        let r = check_schedule(&g);
        assert!(r.is_clean());
    }

    // Resume schedules: the same check from wedge-time holdings, under
    // the strict one-send-one-receive budget the sweep uses.

    fn custom(n: u32, k: u32, steps: Vec<Vec<(u32, u32, u32)>>) -> GlobalSchedule {
        let steps = steps
            .into_iter()
            .map(|s| {
                s.into_iter()
                    .map(|(from, to, block)| GlobalTransfer { from, to, block })
                    .collect()
            })
            .collect();
        GlobalSchedule::from_custom_steps("resume", n, k, steps)
    }

    fn check_resume(s: &GlobalSchedule, holdings: &[Vec<bool>]) -> ModelReport {
        check_schedule_with(
            s,
            holdings,
            PortBudget { send: 1, recv: 1 },
            StepBound::Unbounded,
        )
    }

    #[test]
    fn exact_resume_is_clean() {
        // Rank 0 holds both blocks, rank 1 holds none: two steps, one
        // block each.
        let s = custom(2, 2, vec![vec![(0, 1, 0)], vec![(0, 1, 1)]]);
        let holdings = vec![vec![true, true], vec![false, false]];
        let r = check_resume(&s, &holdings);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn retransmitting_a_held_block_is_flagged() {
        let s = custom(2, 1, vec![vec![(0, 1, 0)]]);
        // Rank 1 already holds block 0: nothing should move.
        let holdings = vec![vec![true], vec![true]];
        let r = check_resume(&s, &holdings);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::ReceivesHeldBlock { .. })),
            "{r}"
        );
    }

    #[test]
    fn relaying_before_receipt_is_flagged() {
        // Rank 1 forwards block 0 in the same step it receives it.
        let s = custom(3, 1, vec![vec![(0, 1, 0), (1, 2, 0)]]);
        let holdings = vec![vec![true], vec![false], vec![false]];
        let r = check_resume(&s, &holdings);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::SendWithoutBlock { .. })),
            "{r}"
        );
    }

    #[test]
    fn uncovered_hole_is_flagged() {
        let s = custom(2, 2, vec![]);
        let holdings = vec![vec![true, true], vec![true, false]];
        let r = check_resume(&s, &holdings);
        assert_eq!(
            r.violations,
            vec![Violation::MissingBlock { rank: 1, block: 1 }]
        );
    }

    #[test]
    fn transfer_to_a_failed_rank_is_flagged() {
        // Rank 2 does not exist in the two-survivor epoch: survivors are
        // renumbered densely, so a send to it is a send to a failed member.
        let s = custom(2, 1, vec![vec![(0, 2, 0)]]);
        let holdings = vec![vec![true], vec![true]];
        let r = check_resume(&s, &holdings);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::Malformed { .. })),
            "{r}"
        );
    }

    #[test]
    fn port_budget_is_strict_by_default() {
        // Rank 0 sends two blocks in one step.
        let s = custom(3, 2, vec![vec![(0, 1, 0), (0, 2, 1)]]);
        let holdings = vec![vec![true, true], vec![true, false], vec![false, true]];
        let r = check_resume(&s, &holdings);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::SendPortConflict { .. })),
            "{r}"
        );
    }
}
