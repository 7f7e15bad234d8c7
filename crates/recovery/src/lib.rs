//! Epoch-based failure recovery for RDMC (paper §2.4, §4.2).
//!
//! RDMC itself stops at the *wedge*: a failed connection freezes the
//! group and the notice spreads epidemically until every survivor knows
//! (§3 property 6). The paper assumes an external membership service —
//! Derecho, in practice — then restarts interrupted transfers in a new
//! group. This crate is that restart logic: given each survivor's
//! wedge-time received-block bitmap, it renumbers the survivors into a
//! fresh epoch and plans, per interrupted message, a *resume schedule*
//! that retransmits exactly the missing blocks.
//!
//! Three shapes fall out of the bitmaps:
//!
//! - **Block-wise resume**: at least one copy of every block survived
//!   somewhere; holders forward only what others lack.
//! - **Sender-side re-multicast**: one member (typically the original
//!   sender, or a member that finished early) holds the whole message
//!   and nobody else holds anything — a fresh binomial pipeline over the
//!   survivors, rooted at the holder, is the optimal resume.
//! - **Unrecoverable**: the failed members took the only copy of some
//!   block with them (e.g. the original sender died before relaying
//!   block 0). The survivors must discard the message *consistently* —
//!   all-or-nothing across the group — which the planner signals so the
//!   membership layer can do so.
//!
//! Schedules come back as [`GlobalSchedule`]s over *new-epoch* ranks;
//! [`resume_transfers`] slices them into the per-member
//! [`ResumeTransfer`]s that [`GroupEngine::install_epoch`] consumes.
//!
//! [`GroupEngine::install_epoch`]: rdmc::engine::GroupEngine::install_epoch

#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use rdmc::engine::ResumeTransfer;
use rdmc::schedule::{GlobalSchedule, GlobalTransfer};
use rdmc::{Algorithm, Rank};

/// How a message's resume schedule was derived (reported to stats and
/// benchmarks; the engines do not care).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResumeStrategy {
    /// Every survivor already holds every block; the schedule is empty
    /// (members may still owe the local delivery upcall).
    AlreadyComplete,
    /// Holders forward exactly the blocks others are missing.
    BlockResume,
    /// One full holder, everyone else empty, power-of-two survivor
    /// count: a fresh binomial pipeline rooted at the holder (the
    /// paper's sender-side re-multicast). Other survivor counts take
    /// [`ResumeStrategy::BlockResume`] to keep the strict per-step port
    /// budget.
    Remulticast,
}

/// The planner's verdict for one interrupted message.
#[derive(Clone, Debug)]
#[must_use = "the verdict decides whether survivors resume or discard; ignoring it loses the message"]
pub enum MessagePlan {
    /// The message can finish; run this schedule in the new epoch.
    Resume {
        /// Resume schedule over new-epoch ranks.
        schedule: GlobalSchedule,
        /// How the schedule was derived.
        strategy: ResumeStrategy,
    },
    /// Some block has no surviving copy: every survivor must discard the
    /// message (consistently — all or none).
    Unrecoverable,
}

/// Old ranks of the members surviving `failed`, ascending — the new
/// epoch's rank order (new rank = index into the returned vector). The
/// ordering is deterministic so every survivor derives the same map
/// locally.
pub fn survivor_map(num_nodes: u32, failed: &BTreeSet<Rank>) -> Vec<Rank> {
    (0..num_nodes).filter(|r| !failed.contains(r)).collect()
}

/// Plans the resumption of one interrupted message from the survivors'
/// wedge-time bitmaps. `holdings[r][b]` is true when new-epoch rank `r`
/// holds block `b`.
///
/// The returned schedule (when resumable) is clean under
/// [`GlobalSchedule::check_from`] started from `holdings`: each rank
/// receives exactly its missing blocks, exactly once, and blocks are only
/// sent by ranks that hold them at that step. No rank sends or receives
/// more than one block per step (RDMC's one-send-one-receive port budget,
/// §4.3).
///
/// # Panics
///
/// Panics if `holdings` is empty or its bitmaps disagree in length.
pub fn plan_message_resume(holdings: &[Vec<bool>]) -> MessagePlan {
    let n = holdings.len();
    assert!(n >= 1, "need at least one survivor");
    let k = holdings[0].len();
    assert!(
        holdings.iter().all(|h| h.len() == k),
        "bitmap lengths disagree"
    );
    // Coverage: every block must survive somewhere.
    for b in 0..k {
        if !holdings.iter().any(|h| h[b]) {
            return MessagePlan::Unrecoverable;
        }
    }
    if holdings.iter().all(|h| h.iter().all(|&x| x)) {
        return MessagePlan::Resume {
            schedule: GlobalSchedule::from_custom_steps("resume", n as u32, k as u32, Vec::new()),
            strategy: ResumeStrategy::AlreadyComplete,
        };
    }
    // Sender-side re-multicast: one full holder, all others empty. Only
    // taken at power-of-two survivor counts, where the binomial pipeline
    // keeps the strict one-send-one-receive budget; elsewhere the
    // shadow-vertex relabeling would double mid-recovery port budgets,
    // so the greedy builder (always strict) covers it instead.
    let full: Vec<usize> = (0..n).filter(|&r| holdings[r].iter().all(|&x| x)).collect();
    let empty_elsewhere = (0..n)
        .filter(|r| !full.contains(r))
        .all(|r| holdings[r].iter().all(|&x| !x));
    if full.len() == 1 && empty_elsewhere && n > 1 && n.is_power_of_two() {
        return MessagePlan::Resume {
            schedule: remulticast_schedule(n as u32, k as u32, full[0] as Rank),
            strategy: ResumeStrategy::Remulticast,
        };
    }
    MessagePlan::Resume {
        schedule: block_resume_schedule(holdings),
        strategy: ResumeStrategy::BlockResume,
    }
}

/// A fresh binomial pipeline over `n` survivors, relabeled so `root`
/// (new-epoch rank of the full holder) plays the pipeline's rank 0.
fn remulticast_schedule(n: u32, k: u32, root: Rank) -> GlobalSchedule {
    let base = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
    // Virtual rank 0 -> root; the others keep their relative order.
    let mut vmap: Vec<Rank> = Vec::with_capacity(n as usize);
    vmap.push(root);
    vmap.extend((0..n).filter(|&r| r != root));
    let steps = (0..base.num_steps())
        .map(|j| {
            base.step(j)
                .iter()
                .map(|t| GlobalTransfer {
                    from: vmap[t.from as usize],
                    to: vmap[t.to as usize],
                    block: t.block,
                })
                .collect()
        })
        .collect();
    GlobalSchedule::from_custom_steps("re-multicast", n, k, steps)
}

/// Greedy step builder for the general case: per step, match needers to
/// holders under the one-send-one-receive budget; blocks received in a
/// step become forwardable in the next, exactly like the engine's
/// schedule-order relay discipline.
fn block_resume_schedule(holdings: &[Vec<bool>]) -> GlobalSchedule {
    let n = holdings.len();
    let k = holdings[0].len();
    let mut have: Vec<Vec<bool>> = holdings.to_vec();
    let mut send_load = vec![0u32; n];
    let mut steps: Vec<Vec<GlobalTransfer>> = Vec::new();
    loop {
        let done = (0..n).all(|r| have[r].iter().all(|&x| x));
        if done {
            break;
        }
        // Blocks usable this step are those held at its start.
        let snapshot = have.clone();
        let mut busy_send = vec![false; n];
        let mut step: Vec<GlobalTransfer> = Vec::new();
        // `needer` names a rank (schedule addressing), not just a row
        // index, so a range loop reads better than enumerate here.
        #[allow(clippy::needless_range_loop)]
        for needer in 0..n {
            // One receive per rank per step: pick this rank's lowest
            // missing block that an idle holder can source, preferring
            // the least-loaded holder so fan-in spreads.
            let mut choice: Option<(usize, usize)> = None;
            for b in 0..k {
                if have[needer][b] {
                    continue;
                }
                let sender = (0..n)
                    .filter(|&s| s != needer && snapshot[s][b] && !busy_send[s])
                    .min_by_key(|&s| (send_load[s], s));
                if let Some(s) = sender {
                    choice = Some((s, b));
                    break;
                }
            }
            if let Some((s, b)) = choice {
                busy_send[s] = true;
                send_load[s] += 1;
                have[needer][b] = true;
                step.push(GlobalTransfer {
                    from: s as Rank,
                    to: needer as Rank,
                    block: b as u32,
                });
            }
        }
        // Coverage was checked up front, so some needer always finds an
        // idle holder: every step makes progress and the loop terminates
        // within n*k transfers.
        assert!(!step.is_empty(), "planner stalled despite block coverage");
        steps.push(step);
    }
    GlobalSchedule::from_custom_steps("resume", n as u32, k as u32, steps)
}

/// Slices a resume plan into the per-member [`ResumeTransfer`]s that
/// `install_epoch` consumes. `delivered[r]` marks members that already
/// delivered the message pre-wedge (they re-seed peers but must not
/// deliver twice).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the schedule's group size.
pub fn resume_transfers(
    schedule: &GlobalSchedule,
    total_size: u64,
    holdings: &[Vec<bool>],
    delivered: &[bool],
) -> Vec<ResumeTransfer> {
    let n = schedule.num_nodes() as usize;
    assert_eq!(holdings.len(), n, "one bitmap per survivor");
    assert_eq!(delivered.len(), n, "one delivered flag per survivor");
    (0..n)
        .map(|r| ResumeTransfer {
            total_size,
            sched: schedule.for_rank(r as Rank),
            have: holdings[r].clone(),
            already_delivered: delivered[r],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdmc::schedule::{port_conflicts, PortBudget, Violation};

    /// Every invariant the analyzer enforces on a resume schedule: the
    /// one schedule rule from the wedge-time holdings, under the strict
    /// one-send-one-receive port budget.
    fn resume_violations(schedule: &GlobalSchedule, holdings: &[Vec<bool>]) -> Vec<Violation> {
        let mut violations = schedule.check_from(holdings);
        violations.extend(port_conflicts(schedule, PortBudget { send: 1, recv: 1 }));
        violations
    }

    #[test]
    fn survivor_map_renumbers_in_order() {
        let failed: BTreeSet<Rank> = [1, 3].into_iter().collect();
        assert_eq!(survivor_map(5, &failed), vec![0, 2, 4]);
        assert_eq!(survivor_map(3, &BTreeSet::new()), vec![0, 1, 2]);
    }

    #[test]
    fn lost_block_is_unrecoverable() {
        // Nobody holds block 1: the failed sender took the only copy.
        let holdings = vec![vec![true, false], vec![true, false]];
        assert!(matches!(
            plan_message_resume(&holdings),
            MessagePlan::Unrecoverable
        ));
    }

    #[test]
    fn complete_holdings_need_no_transfers() {
        let holdings = vec![vec![true, true], vec![true, true]];
        match plan_message_resume(&holdings) {
            MessagePlan::Resume { schedule, strategy } => {
                assert_eq!(strategy, ResumeStrategy::AlreadyComplete);
                assert_eq!(schedule.num_transfers(), 0);
            }
            MessagePlan::Unrecoverable => panic!("fully held message is resumable"),
        }
    }

    #[test]
    fn lone_full_holder_triggers_remulticast() {
        // New rank 2 finished early; everyone else lost the race to the
        // wedge with nothing. Expect a binomial pipeline rooted at 2.
        let k = 4;
        let mut holdings = vec![vec![false; k]; 4];
        holdings[2] = vec![true; k];
        match plan_message_resume(&holdings) {
            MessagePlan::Resume { schedule, strategy } => {
                assert_eq!(strategy, ResumeStrategy::Remulticast);
                assert_eq!(resume_violations(&schedule, &holdings), vec![]);
                // The holder only sends; it never receives.
                assert!(schedule.transfers().all(|(_, t)| t.to != 2));
            }
            MessagePlan::Unrecoverable => panic!("full holder exists"),
        }
    }

    #[test]
    fn lone_holder_at_odd_survivor_count_stays_strict() {
        // Three survivors: the pipeline's shadow-vertex relabeling would
        // double port budgets, so the planner falls back to the greedy
        // builder — still a full re-spread, still one-send-one-receive.
        let k = 3;
        let mut holdings = vec![vec![false; k]; 3];
        holdings[1] = vec![true; k];
        match plan_message_resume(&holdings) {
            MessagePlan::Resume { schedule, strategy } => {
                assert_eq!(strategy, ResumeStrategy::BlockResume);
                assert_eq!(resume_violations(&schedule, &holdings), vec![]);
            }
            MessagePlan::Unrecoverable => panic!("full holder exists"),
        }
    }

    #[test]
    fn partial_holdings_resume_blockwise_with_exact_coverage() {
        let holdings = vec![
            vec![true, true, false, false],
            vec![false, false, true, true],
            vec![true, false, false, true],
        ];
        match plan_message_resume(&holdings) {
            MessagePlan::Resume { schedule, strategy } => {
                assert_eq!(strategy, ResumeStrategy::BlockResume);
                assert_eq!(resume_violations(&schedule, &holdings), vec![]);
                // Exactly the missing blocks move: per-rank receive count
                // equals the number of holes in its bitmap.
                for (r, h) in holdings.iter().enumerate() {
                    let holes = h.iter().filter(|&&x| !x).count();
                    let recvs = schedule
                        .transfers()
                        .filter(|(_, t)| t.to as usize == r)
                        .count();
                    assert_eq!(recvs, holes, "rank {r}");
                }
            }
            MessagePlan::Unrecoverable => panic!("coverage holds"),
        }
    }

    #[test]
    fn singleton_survivor_is_trivially_complete_or_dead() {
        match plan_message_resume(&[vec![true, true]]) {
            MessagePlan::Resume { schedule, strategy } => {
                assert_eq!(strategy, ResumeStrategy::AlreadyComplete);
                assert_eq!(schedule.num_transfers(), 0);
            }
            MessagePlan::Unrecoverable => panic!("sole survivor holds all"),
        }
        assert!(matches!(
            plan_message_resume(&[vec![true, false]]),
            MessagePlan::Unrecoverable
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any covered holdings produce a valid resume schedule: exact
        /// missing-block coverage, causality, and port budgets.
        #[test]
        fn random_covered_holdings_always_resume(
            n in 1usize..=6,
            k in 1usize..=6,
            bits in prop::collection::vec(any::<bool>(), 36),
            fixup in prop::collection::vec(any::<prop::sample::Index>(), 6),
        ) {
            let mut holdings: Vec<Vec<bool>> = (0..n)
                .map(|r| (0..k).map(|b| bits[r * 6 + b]).collect())
                .collect();
            // Force coverage: give blocks nobody holds to some rank.
            for b in 0..k {
                if !holdings.iter().any(|h| h[b]) {
                    let r = fixup[b].index(n);
                    holdings[r][b] = true;
                }
            }
            match plan_message_resume(&holdings) {
                MessagePlan::Resume { schedule, .. } => {
                    prop_assert_eq!(resume_violations(&schedule, &holdings), vec![]);
                }
                MessagePlan::Unrecoverable => prop_assert!(false, "coverage was forced"),
            }
        }
    }
}
