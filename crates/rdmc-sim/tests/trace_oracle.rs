//! The trace oracle run against real simulations: every algorithm's
//! flight recording must pass `Cluster::check_trace` — FIFO send/arrival
//! pairing, delivery completeness, and per message the one schedule rule
//! (causality), its port budget, its completion-step bound and the plan
//! it was given, fresh or resumed — and the oracle must still reject
//! doctored recordings with the walker's or the atomic ordering rule's
//! violation (no vacuous passes).

use std::collections::BTreeSet;
use std::sync::Arc;

use rdmc::schedule::{check_trace, GlobalSchedule, PlanRequest};
use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, SimCluster};
use trace::check::CheckStats;
use trace::{EventKind, TraceEvent};

const BLOCK: u64 = 64 << 10;

/// An `n`-member cluster with a full-capture recorder (and recovery, if
/// asked) and one group over every node.
fn cluster(n: usize, algorithm: Algorithm, recovery: bool) -> SimCluster {
    let mut builder = ClusterBuilder::new(ClusterSpec::fractus(n)).flight_recorder();
    if recovery {
        builder = builder.recovery(RecoveryConfig::default());
    }
    let mut cluster = builder.build();
    cluster.create_group(GroupSpec {
        members: (0..n).collect(),
        algorithm,
        block_size: BLOCK,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster
}

/// Runs one `k`-block multicast over `n` members and returns the cluster.
fn traced_run(n: usize, k: u64, algorithm: Algorithm) -> SimCluster {
    let mut cluster = cluster(n, algorithm, false);
    cluster.submit_send(0, k * BLOCK);
    cluster.run();
    cluster
}

/// Checks a doctored recording of a crash-free run of `algorithm` over
/// `n` members against the plans that run was given.
fn check_doctored(
    events: &[TraceEvent],
    algorithm: &Algorithm,
    n: u32,
) -> Result<CheckStats, Vec<String>> {
    check_trace(events, |request| match request {
        PlanRequest::Fresh { k, .. } => Some(Arc::new(GlobalSchedule::build(algorithm, n, *k))),
        PlanRequest::Resume { .. } => None,
    })
}

/// Indices of the block sends, in trace order.
fn sends(events: &[TraceEvent]) -> Vec<usize> {
    (0..events.len())
        .filter(|&i| matches!(events[i].kind, EventKind::BlockSendIssued { .. }))
        .collect()
}

/// The send at `send` and the arrival it pairs with (each block reaches
/// each rank once, so the channel and block name it).
fn with_arrival(events: &[TraceEvent], send: usize) -> [usize; 2] {
    let from = events[send].scope.rank;
    let EventKind::BlockSendIssued { to, block, .. } = events[send].kind else {
        panic!("event {send} is not a send");
    };
    let arrival = events
        .iter()
        .position(|e| {
            e.scope.rank == Some(to)
                && matches!(e.kind, EventKind::BlockArrived { from: f, block: b, .. }
                    if Some(f) == from && b == block)
        })
        .expect("the send arrived");
    [send, arrival]
}

/// Rewrites the `(block, step)` a send or arrival names.
fn relabel(event: &mut TraceEvent, edit: impl FnOnce(&mut u32, &mut u32)) {
    match &mut event.kind {
        EventKind::BlockSendIssued { block, step, .. }
        | EventKind::BlockArrived { block, step, .. } => edit(block, step),
        other => panic!("not a block event: {other:?}"),
    }
}

#[test]
fn all_algorithms_run_their_plan_within_bounds() {
    let algorithms = [
        Algorithm::Sequential,
        Algorithm::BinomialTree,
        Algorithm::Chain,
        Algorithm::BinomialPipeline,
    ];
    for algorithm in &algorithms {
        for &n in &[2usize, 4, 7] {
            let cluster = traced_run(n, 4, algorithm.clone());
            let stats = cluster
                .check_trace()
                .unwrap_or_else(|v| panic!("{algorithm:?} n={n}: oracle violations: {v:#?}"));
            // The oracle saw the whole conversation, not a fragment:
            // every member delivers, arrivals match issues, and the one
            // message was held to its plan — equal to it, so the run used
            // the schedule's full depth and no more.
            assert_eq!(stats.deliveries, n as u64, "{algorithm:?} n={n}");
            assert_eq!(stats.issues, stats.arrivals, "{algorithm:?} n={n}");
            assert_eq!(
                (stats.fresh_units, stats.resume_units),
                (1, 0),
                "{algorithm:?} n={n}"
            );
        }
    }
}

#[test]
fn hybrid_algorithms_pass_the_oracle() {
    // Two racks of four on a flat fabric: the schedule shape is what the
    // oracle vets; the topology does not need to match.
    let algorithm = Algorithm::Hybrid {
        rack_of: vec![0, 0, 0, 0, 1, 1, 1, 1],
    };
    let stats = traced_run(8, 4, algorithm)
        .check_trace()
        .unwrap_or_else(|v| panic!("oracle violations: {v:#?}"));
    assert_eq!(stats.fresh_units, 1);
}

#[test]
fn oracle_rejects_a_tampered_recording() {
    let mut events = traced_run(4, 4, Algorithm::BinomialPipeline).trace_events();
    // Erase one block send: its arrival is now uncaused.
    events.remove(sends(&events)[0]);
    let err = check_doctored(&events, &Algorithm::BinomialPipeline, 4)
        .expect_err("tampered trace must fail");
    assert!(
        err.iter()
            .any(|v| v.contains("no matching send") || v.contains("FIFO")),
        "unexpected violations: {err:#?}"
    );
}

#[test]
fn sending_unheld_block_is_flagged() {
    let algorithm = Algorithm::BinomialPipeline;
    let mut events = traced_run(4, 4, algorithm.clone()).trace_events();
    // A relay's send at step s, renamed to the block it is itself
    // receiving at step s (issued earlier in the trace): it does not hold
    // that block until step s + 1, and the walker can say where its copy
    // was coming from.
    let all = sends(&events);
    let (relay_send, block) = all
        .iter()
        .find_map(|&i| {
            let (
                Some(relay),
                EventKind::BlockSendIssued {
                    step, block: own, ..
                },
            ) = (events[i].scope.rank, &events[i].kind)
            else {
                return None;
            };
            all.iter()
                .take_while(|&&j| j < i)
                .find_map(|&j| match events[j].kind {
                    EventKind::BlockSendIssued {
                        to, block, step: s, ..
                    } if relay != 0 && to == relay && s == *step && block != *own => {
                        Some((i, block))
                    }
                    _ => None,
                })
        })
        .expect("some relay receives a block in the step it sends another");
    for i in with_arrival(&events, relay_send) {
        relabel(&mut events[i], |b, _| *b = block);
    }
    let err = check_doctored(&events, &algorithm, 4).expect_err("unheld relay must fail");
    assert!(
        err.iter()
            .any(|v| v.contains("causality:") && v.contains("\n    via ")),
        "no causality violation with provenance: {err:#?}"
    );
}

#[test]
fn step_bound_violation_is_flagged() {
    let algorithm = Algorithm::BinomialPipeline;
    let mut events = traced_run(4, 4, algorithm.clone()).trace_events();
    // Every transfer one step later: the run now takes one step more than
    // the exact ceil(log2 n) + k - 1 bound.
    let pairs: Vec<[usize; 2]> = sends(&events)
        .into_iter()
        .map(|s| with_arrival(&events, s))
        .collect();
    for i in pairs.into_iter().flatten() {
        relabel(&mut events[i], |_, step| *step += 1);
    }
    let err = check_doctored(&events, &algorithm, 4).expect_err("late run must fail");
    assert!(
        err.iter()
            .any(|v| v.contains("completion bound: schedule takes 6 steps, bound is exactly 5")),
        "unexpected violations: {err:#?}"
    );
}

#[test]
fn port_budget_violation_is_flagged() {
    let algorithm = Algorithm::BinomialPipeline;
    let mut events = traced_run(4, 4, algorithm.clone()).trace_events();
    // The root's second send moved into the step of its first: two sends
    // at one step, where a power-of-two pipeline admits one.
    let second = sends(&events)
        .into_iter()
        .filter(|&i| events[i].scope.rank == Some(0))
        .nth(1)
        .expect("the root sends twice");
    for i in with_arrival(&events, second) {
        relabel(&mut events[i], |_, step| *step -= 1);
    }
    let err = check_doctored(&events, &algorithm, 4).expect_err("over budget must fail");
    assert!(
        err.iter()
            .any(|v| v.contains("send port conflict: step 0 asks rank 0 for 2 sends (budget 1)")),
        "unexpected violations: {err:#?}"
    );
}

#[test]
fn rule_abiding_but_off_plan_run_is_rejected() {
    // Sequential, n = 3, k = 2: the root sends blocks 0 and 1 to rank 1
    // (steps 0 and 1), then to rank 2. Swapping the labels of the first
    // two sends and their arrivals breaks no rule — the root holds every
    // block, FIFO labels agree, nothing repeats, budgets and bound hold —
    // but it is not the schedule the message was planned to run.
    let algorithm = Algorithm::Sequential;
    let mut events = traced_run(3, 2, algorithm.clone()).trace_events();
    let to_rank_1: Vec<[usize; 2]> = sends(&events)
        .into_iter()
        .filter(|&i| matches!(events[i].kind, EventKind::BlockSendIssued { to: 1, .. }))
        .map(|s| with_arrival(&events, s))
        .collect();
    assert_eq!(to_rank_1.len(), 2);
    for (pair, block) in to_rank_1.into_iter().zip([1, 0]) {
        for i in pair {
            relabel(&mut events[i], |b, _| *b = block);
        }
    }
    let err = check_doctored(&events, &algorithm, 3).expect_err("off-plan run must fail");
    assert_eq!(
        err,
        vec![
            "group 0 epoch 0 message 0: off plan: step 0: 0 -> 1 (block 1) ran, \
             but the plan has no such transfer"
                .to_owned()
        ]
    );
}

#[test]
fn premature_atomic_delivery_is_flagged() {
    // One rotation of one-block messages on a three-member atomic group.
    let algorithm = Algorithm::BinomialPipeline;
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(3))
        .flight_recorder()
        .atomic(GroupSpec {
            members: (0..3).collect(),
            algorithm: algorithm.clone(),
            block_size: BLOCK,
            ready_window: 3,
            max_outstanding_sends: 3,
        })
        .build();
    for _ in 0..3 {
        cluster.submit_atomic(0, BLOCK);
    }
    cluster.run();
    let mut events = cluster.trace_events();
    check_doctored(&events, &algorithm, 3).expect("the recording passes as recorded");
    // A member's delivery, moved ahead of the `FrontierAdvanced` with
    // which that member received the slot.
    let delivered = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::AtomicDelivered { .. }))
        .expect("a member delivered");
    let scope = events[delivered].scope;
    let EventKind::AtomicDelivered { sender, seq, .. } = events[delivered].kind else {
        unreachable!()
    };
    let receipt = events
        .iter()
        .position(|e| {
            e.scope == scope
                && matches!(e.kind, EventKind::FrontierAdvanced { sender: s, frontier }
                    if s == sender && frontier > seq)
        })
        .expect("the member received what it delivered");
    let moved = events.remove(delivered);
    events.insert(receipt, moved);
    let err = check_doctored(&events, &algorithm, 3).expect_err("premature delivery must fail");
    assert!(
        err.iter().any(|v| v.contains("before local receipt")),
        "unexpected violations: {err:#?}"
    );
}

#[test]
fn resume_held_blocks_satisfy_causality() {
    let mut cluster = cluster(4, Algorithm::BinomialPipeline, true);
    cluster.crash_after_events(2, 40);
    cluster.submit_send(0, 8 * BLOCK);
    cluster.run();
    let stats = cluster
        .check_trace()
        .unwrap_or_else(|v| panic!("oracle violations: {v:#?}"));
    assert!(stats.resume_units >= 1, "{stats:?}");
    // Some survivor relayed a block it carried into the new epoch rather
    // than received there — and the walker, started from the recorded
    // holdings, accepted it.
    let events = cluster.trace_events();
    let mut held: Vec<(u32, Vec<u32>)> = Vec::new();
    let relayed_held = events.iter().any(|e| match &e.kind {
        EventKind::ResumeStarted { held: h, .. } => {
            held.push((e.scope.rank.unwrap(), h.clone()));
            false
        }
        EventKind::BlockSendIssued {
            block, epoch: 1, ..
        } => held
            .iter()
            .any(|(r, h)| Some(*r) == e.scope.rank && h.contains(block)),
        _ => false,
    });
    assert!(relayed_held, "no resume relayed a held block");
}

#[test]
fn relay_crash_resume_matches_the_recovery_plan() {
    let mut cluster = cluster(5, Algorithm::BinomialPipeline, true);
    cluster.crash_after_events(2, 40);
    cluster.submit_send(0, 8 * BLOCK);
    cluster.run();
    let rc = &cluster.recovery_stats().reconfigurations;
    assert_eq!(rc.len(), 1);
    assert!(rc[0].resumed_blocks > 0, "the crash left blocks to resume");
    let stats = cluster
        .check_trace()
        .unwrap_or_else(|v| panic!("oracle violations: {v:#?}"));
    assert_eq!((stats.fresh_units, stats.resume_units), (1, 1), "{stats:?}");
}

#[test]
fn two_view_changes_are_checked_epoch_by_epoch() {
    let mut cluster = cluster(5, Algorithm::BinomialPipeline, true);
    // The second crash lands after the first view is installed, with
    // messages still moving in epoch 1.
    cluster.crash_after_events(2, 40);
    cluster.crash_after_events(3, 160);
    for _ in 0..3 {
        cluster.submit_send(0, 8 * BLOCK);
    }
    cluster.run();
    let epochs: Vec<u64> = cluster
        .recovery_stats()
        .reconfigurations
        .iter()
        .map(|r| r.epoch)
        .collect();
    assert_eq!(epochs, vec![1, 2]);
    let stats = cluster
        .check_trace()
        .unwrap_or_else(|v| panic!("oracle violations: {v:#?}"));
    assert!(stats.resume_units >= 2, "{stats:?}");
    let sent_in: BTreeSet<u64> = cluster
        .trace_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BlockSendIssued { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    assert_eq!(sent_in, BTreeSet::from([0, 1, 2]));
}
