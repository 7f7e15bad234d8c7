//! Mutation tests: corrupt known-good schedules in targeted ways and
//! assert the analyzer catches each defect with the right violation kind
//! and a minimal counterexample trace. These are the analyzer's own
//! tier-1 tests — a checker that accepts broken schedules is worse than
//! no checker.

use analyzer::model::check_schedule_with;
use analyzer::{check_schedule, lint_schedule};
use rdmc::schedule::{GlobalSchedule, GlobalTransfer, PortBudget, StepBound, Violation};
use rdmc::Algorithm;

/// Clones a built schedule's steps so a test can corrupt them and rebuild
/// through the public custom-schedule constructor.
fn steps_of(g: &GlobalSchedule) -> Vec<Vec<GlobalTransfer>> {
    (0..g.num_steps()).map(|j| g.step(j).to_vec()).collect()
}

fn rebuild(name: &str, g: &GlobalSchedule, steps: Vec<Vec<GlobalTransfer>>) -> GlobalSchedule {
    GlobalSchedule::from_custom_steps(name, g.num_nodes(), g.num_blocks(), steps)
}

#[test]
fn dropped_transfer_is_a_coverage_hole() {
    let good = GlobalSchedule::build(&Algorithm::Chain, 5, 3);
    let mut steps = steps_of(&good);
    // Drop the last hop of block 2: rank 4 never receives it.
    let victim = steps
        .iter_mut()
        .flat_map(|s| s.iter_mut())
        .find(|t| t.to == 4 && t.block == 2)
        .copied()
        .expect("chain delivers every block to the tail");
    for s in &mut steps {
        s.retain(|t| *t != victim);
    }
    let r = check_schedule(&rebuild("chain-dropped", &good, steps));
    assert!(
        r.violations
            .iter()
            .any(|v| matches!(v, Violation::MissingBlock { rank: 4, block: 2 })),
        "expected a MissingBlock violation, got: {r}"
    );
}

#[test]
fn self_send_is_flagged_with_its_transfer() {
    let good = GlobalSchedule::build(&Algorithm::BinomialTree, 4, 1);
    let mut steps = steps_of(&good);
    steps[0].push(GlobalTransfer {
        from: 2,
        to: 2,
        block: 0,
    });
    let r = check_schedule(&rebuild("tree-self-send", &good, steps));
    let found = r.violations.iter().any(
        |v| matches!(v, Violation::SelfSend { transfer } if transfer.from == 2 && transfer.to == 2),
    );
    assert!(found, "expected a SelfSend violation, got: {r}");
}

#[test]
fn premature_relay_yields_causality_violation_with_provenance() {
    // Chain 0 -> 1 -> 2 -> 3, one block; swap the middle two hops so
    // rank 2 relays the block one step before receiving it.
    let good = GlobalSchedule::build(&Algorithm::Chain, 4, 1);
    let mut steps = steps_of(&good);
    steps.swap(1, 2);
    let r = check_schedule(&rebuild("chain-swapped", &good, steps));
    let causality = r
        .violations
        .iter()
        .find_map(|v| match v {
            Violation::SendWithoutBlock {
                transfer,
                provenance,
            } => Some((transfer, provenance)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected a SendWithoutBlock violation, got: {r}"));
    let (transfer, provenance) = causality;
    assert_eq!(transfer.from, 2);
    assert_eq!(transfer.to, 3);
    // The minimal counterexample trace is the backward causal slice of
    // rank 2's copy: it ends at the hole, before the late 1 -> 2 hop.
    assert!(
        provenance.iter().all(|p| p.step < transfer.step),
        "provenance must only contain earlier deliveries: {r}"
    );
}

#[test]
fn duplicate_delivery_names_both_transfers() {
    let good = GlobalSchedule::build(&Algorithm::Chain, 3, 2);
    let mut steps = steps_of(&good);
    // Re-deliver block 0 to rank 1 at the last step.
    let last = steps.len() - 1;
    steps[last].push(GlobalTransfer {
        from: 0,
        to: 1,
        block: 0,
    });
    let r = check_schedule(&rebuild("chain-duplicated", &good, steps));
    let found = r.violations.iter().any(|v| {
        matches!(
            v,
            Violation::DuplicateDelivery { transfer, first }
                if transfer.to == 1 && transfer.block == 0 && first.step < transfer.step
        )
    });
    assert!(found, "expected a DuplicateDelivery violation, got: {r}");
}

#[test]
fn overloaded_step_is_a_port_conflict_with_minimal_witness() {
    // Rank 0 sends both blocks in the same step: two sends against a
    // budget of one. The witness must contain exactly budget + 1
    // transfers — the smallest set demonstrating the conflict.
    let steps = vec![
        vec![
            GlobalTransfer {
                from: 0,
                to: 1,
                block: 0,
            },
            GlobalTransfer {
                from: 0,
                to: 2,
                block: 1,
            },
        ],
        vec![
            GlobalTransfer {
                from: 1,
                to: 2,
                block: 0,
            },
            GlobalTransfer {
                from: 2,
                to: 1,
                block: 1,
            },
        ],
    ];
    let g = GlobalSchedule::from_custom_steps("fan-out", 3, 2, steps);
    let r = check_schedule_with(
        &g,
        &[vec![true; 2]],
        PortBudget { send: 1, recv: 1 },
        StepBound::Unbounded,
    );
    let witness = r
        .violations
        .iter()
        .find_map(|v| match v {
            Violation::SendPortConflict {
                step: 0,
                rank: 0,
                transfers,
                budget: 1,
            } => Some(transfers),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected a SendPortConflict at step 0, got: {r}"));
    assert_eq!(witness.len(), 2, "minimal witness is budget + 1 transfers");
}

#[test]
fn padded_schedule_misses_the_exact_step_bound() {
    let good = GlobalSchedule::build(&Algorithm::BinomialPipeline, 8, 4);
    let mut steps = steps_of(&good);
    steps.push(Vec::new()); // one idle step too many
    let g = rebuild("pipeline-padded", &good, steps);
    let bound = StepBound::for_algorithm(&Algorithm::BinomialPipeline, 8, 4);
    let r = check_schedule_with(&g, &[vec![true; 4]], PortBudget { send: 1, recv: 1 }, bound);
    assert!(
        r.violations.iter().any(|v| matches!(
            v,
            Violation::StepBoundViolated {
                steps: 7,
                bound: StepBound::Exact(6)
            }
        )),
        "expected a StepBoundViolated violation, got: {r}"
    );
}

#[test]
fn relay_swap_is_a_posting_order_deadlock_cycle() {
    // Two ranks hand the same block to each other: each send's receive is
    // credit-gated behind the other's arrival. The lint must report one
    // cycle whose trace is exactly the two transfers involved.
    let steps = vec![
        vec![GlobalTransfer {
            from: 0,
            to: 1,
            block: 1,
        }],
        vec![GlobalTransfer {
            from: 1,
            to: 2,
            block: 0,
        }],
        vec![GlobalTransfer {
            from: 2,
            to: 1,
            block: 0,
        }],
        vec![GlobalTransfer {
            from: 0,
            to: 2,
            block: 1,
        }],
    ];
    let g = GlobalSchedule::from_custom_steps("relay-swap", 3, 2, steps);
    let d = lint_schedule(&g, 1);
    assert!(!d.is_clean(), "the relay swap must not lint clean: {d}");
    assert_eq!(d.cycles.len(), 1, "exactly one wait-for cycle: {d}");
    assert_eq!(
        d.cycles[0].len(),
        2,
        "the minimal counterexample is the two swapped transfers: {d}"
    );
    for t in &d.cycles[0] {
        assert_eq!(t.block, 0, "the cycle is about block 0's relay: {d}");
    }
}

#[test]
fn intact_generators_lint_clean_end_to_end() {
    // The mutations above must be the *only* way to trip the analyzer:
    // the real generators stay clean under the same checks.
    for (alg, n, k) in [
        (Algorithm::Sequential, 6, 2),
        (Algorithm::Chain, 6, 3),
        (Algorithm::BinomialTree, 6, 2),
        (Algorithm::BinomialPipeline, 6, 3),
        (
            Algorithm::Hybrid {
                rack_of: vec![0, 0, 0, 1, 1, 1],
            },
            6,
            3,
        ),
    ] {
        let g = GlobalSchedule::build(&alg, n, k);
        let m = check_schedule(&g);
        assert!(m.is_clean(), "{m}");
        let d = lint_schedule(&g, 1);
        assert!(d.is_clean(), "{d}");
        assert!(d.ungated_survivable() || d.ungated_exposed > 0);
    }
}

#[test]
fn sweep_over_a_small_grid_is_clean() {
    let report = analyzer::sweep(&analyzer::SweepConfig {
        max_n: 8,
        ks: vec![1, 2, 3],
        rack_counts: vec![2],
        ready_windows: vec![1],
        explore: false, // covered by tests/explore.rs
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.schedules_checked > 0);
    assert!(report.lints_run > 0);
    assert!(report.resumes_checked > 0);
}
