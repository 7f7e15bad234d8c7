//! Property-based tests of schedule and analysis invariants.

use proptest::prelude::*;
use rdmc::analysis;
use rdmc::schedule::{
    port_conflicts, send_at_step, GlobalSchedule, PortBudget, StepBound, TraceEntry, Violation,
};
use rdmc::Algorithm;

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Sequential),
        Just(Algorithm::Chain),
        Just(Algorithm::BinomialTree),
        Just(Algorithm::BinomialPipeline),
    ]
}

/// An algorithm paired with a legal group size — includes the hybrid
/// over an arbitrary rack assignment (so non-power-of-two group
/// and rack sizes are exercised constantly).
fn arb_algorithm_with_n() -> impl Strategy<Value = (Algorithm, u32)> {
    let flat = (arb_algorithm(), 1u32..40).prop_map(|(alg, n)| (alg, n));
    // Rack assignments: every rank gets a rack in 0..nr, remapped so the
    // used rack ids are contiguous (the builder requires rack ids to
    // cover 0..#racks).
    let hybrid =
        (2u32..20, 2u32..5, prop::collection::vec(0u32..4, 2..20)).prop_map(|(n, nr, raw)| {
            let mut rack_of: Vec<u32> = (0..n as usize)
                .map(|i| raw.get(i % raw.len()).copied().unwrap_or(0) % nr)
                .collect();
            // Remap to contiguous rack ids 0..#used.
            let mut seen: Vec<u32> = Vec::new();
            for r in &mut rack_of {
                let id = match seen.iter().position(|s| s == r) {
                    Some(p) => p as u32,
                    None => {
                        seen.push(*r);
                        (seen.len() - 1) as u32
                    }
                };
                *r = id;
            }
            (Algorithm::Hybrid { rack_of }, n)
        });
    prop_oneof![flat, hybrid]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm produces a valid schedule (exactly-once delivery,
    /// holders-only sends, no root receives) for arbitrary group sizes and
    /// block counts — and any suffix of it is a valid resume from the
    /// holdings its prefix leaves, under the algorithm's port budget.
    #[test]
    fn schedules_always_validate(
        (alg, n) in arb_algorithm_with_n(),
        k in 1u32..24,
        cut in any::<prop::sample::Index>(),
        pick in any::<prop::sample::Index>(),
    ) {
        let g = GlobalSchedule::build(&alg, n, k);
        prop_assert!(g.validate().is_ok(), "{alg} n={n} k={k}: {:?}", g.validate());

        let cut = cut.index(g.num_steps() as usize + 1) as u32;
        let mut held: Vec<Vec<bool>> = (0..n).map(|r| vec![r == 0; k as usize]).collect();
        for (_, t) in g.transfers().take_while(|&(j, _)| j < cut) {
            held[t.to as usize][t.block as usize] = true;
        }
        let rest = (cut..g.num_steps()).map(|j| g.step(j).to_vec()).collect();
        let suffix = GlobalSchedule::from_custom_steps("suffix", n, k, rest);
        let mut found = suffix.check_from(&held);
        found.extend(port_conflicts(&suffix, PortBudget::for_algorithm(&alg, n)));
        prop_assert_eq!(found, vec![], "{} n={} k={} cut={}", alg, n, k, cut);

        // Mark one block the suffix delivers as already held: the checker
        // names exactly that receipt and nothing else.
        if suffix.num_transfers() > 0 {
            let (step, t) = suffix.transfers().nth(pick.index(suffix.num_transfers())).unwrap();
            held[t.to as usize][t.block as usize] = true;
            let transfer = TraceEntry { step, from: t.from, to: t.to, block: t.block };
            prop_assert_eq!(
                suffix.check_from(&held),
                vec![Violation::ReceivesHeldBlock { transfer }],
                "{} n={} k={} cut={}", alg, n, k, cut
            );
        }
    }

    /// The binomial pipeline finishes in exactly `ceil(log2 n) + k - 1`
    /// asynchronous steps, matching the paper's bound, for every size.
    #[test]
    fn binomial_pipeline_step_count(n in 2u32..130, k in 1u32..20) {
        let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
        prop_assert_eq!(
            StepBound::for_algorithm(&Algorithm::BinomialPipeline, n, k),
            StepBound::Exact(g.num_steps())
        );
        // And nobody completes later than the final step.
        for rank in 1..n {
            let done = g.completion_step(rank).expect("receiver completes");
            prop_assert!(done < g.num_steps());
        }
    }

    /// The rank that delivers a member's first block never depends on the
    /// block count — the property that lets RDMC pre-grant the first
    /// ready-for-block credit before the message size is known (§4.2).
    #[test]
    fn first_sender_is_block_count_invariant(
        alg in arb_algorithm(),
        n in 2u32..34,
        k1 in 1u32..16,
        k2 in 1u32..16,
    ) {
        let a = GlobalSchedule::build(&alg, n, k1);
        let b = GlobalSchedule::build(&alg, n, k2);
        for rank in 0..n {
            prop_assert_eq!(a.first_sender(rank), b.first_sender(rank), "{} rank {}", alg, rank);
        }
    }

    /// Each rank's slice of the schedule exactly partitions the global
    /// transfer list.
    #[test]
    fn rank_slices_partition_global(alg in arb_algorithm(), n in 1u32..24, k in 1u32..12) {
        let g = GlobalSchedule::build(&alg, n, k);
        let mut out_total = 0usize;
        let mut in_total = 0usize;
        for rank in 0..n {
            let rs = g.for_rank(rank);
            out_total += rs.outgoing().len();
            in_total += rs.in_count() as usize;
            // Non-root members of a valid schedule receive exactly k blocks.
            if rank != 0 {
                prop_assert_eq!(rs.in_count(), k);
            }
        }
        prop_assert_eq!(out_total, g.num_transfers());
        prop_assert_eq!(in_total, g.num_transfers());
    }

    /// Exact partition: the multiset of `(step, from, to, block)` tuples
    /// reassembled from the per-rank sender slices — and, independently,
    /// from the per-rank receiver slices — is *identical* to the global
    /// schedule's transfer list. Every transfer lands in exactly one
    /// sender slice and exactly one receiver slice; nothing is dropped,
    /// duplicated, or re-addressed by the slicing. Covers the hybrid at
    /// non-power-of-two group and rack sizes.
    #[test]
    fn rank_slices_are_an_exact_partition((alg, n) in arb_algorithm_with_n(), k in 1u32..10) {
        let g = GlobalSchedule::build(&alg, n, k);
        let mut global: Vec<(u32, u32, u32, u32)> = g
            .transfers()
            .map(|(j, t)| (j, t.from, t.to, t.block))
            .collect();
        let mut from_senders = Vec::with_capacity(global.len());
        let mut from_receivers = Vec::with_capacity(global.len());
        for rank in 0..n {
            let rs = g.for_rank(rank);
            for &(j, t) in rs.outgoing() {
                from_senders.push((j, rank, t.peer, t.block));
            }
            for peer in rs.in_peers().collect::<Vec<_>>() {
                for &(j, block) in rs.incoming_from(peer) {
                    from_receivers.push((j, peer, rank, block));
                }
            }
        }
        global.sort_unstable();
        from_senders.sort_unstable();
        from_receivers.sort_unstable();
        prop_assert_eq!(&from_senders, &global, "{} n={} k={}: sender slices", alg, n, k);
        prop_assert_eq!(&from_receivers, &global, "{} n={} k={}: receiver slices", alg, n, k);
    }

    /// The §4.4 closed-form send rule agrees with the built power-of-two
    /// schedule: the union of per-step sends is identical.
    #[test]
    fn closed_form_matches_built_schedule(l in 1u32..7, k in 1u32..12) {
        let n = 1u32 << l;
        let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
        // Collect kept transfers per step, and check each appears in the
        // closed form (pruning only ever removes, and for powers of two
        // nothing is pruned).
        for j in 0..g.num_steps() {
            let mut formula: Vec<(u32, u32, u32)> = (0..n)
                .filter_map(|i| send_at_step(n, i, j, k).map(|t| (i, t.peer, t.block)))
                .collect();
            let mut built: Vec<(u32, u32, u32)> =
                g.step(j).iter().map(|t| (t.from, t.to, t.block)).collect();
            formula.sort_unstable();
            built.sort_unstable();
            prop_assert_eq!(formula, built, "step {}", j);
        }
    }

    /// Steady-state slack of the power-of-two binomial pipeline matches
    /// the paper's constant 2(1 − (l−1)/(n−2)) at every steady step.
    #[test]
    fn slack_constant_property(l in 2u32..7, k in 3u32..16) {
        let n = 1u32 << l;
        let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
        let predicted = analysis::predicted_avg_slack(n);
        for j in analysis::steady_steps(n, k) {
            let measured = analysis::empirical_avg_slack(&g, j).expect("senders exist");
            prop_assert!((measured - predicted).abs() < 1e-9,
                "n={} step {}: {} vs {}", n, j, measured, predicted);
        }
    }

    /// Chain: every block crosses every link exactly once — no redundant
    /// transfers (the property behind the Fig. 9 bisection argument).
    #[test]
    fn chain_has_no_redundant_transfers(n in 2u32..20, k in 1u32..12) {
        let g = GlobalSchedule::build(&Algorithm::Chain, n, k);
        prop_assert_eq!(g.num_transfers() as u32, (n - 1) * k);
    }

    /// The binomial pipeline also moves each block the minimum number of
    /// times: (n − 1) deliveries per block, nothing redundant.
    #[test]
    fn binomial_pipeline_minimal_transfer_count(n in 2u32..40, k in 1u32..12) {
        let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
        prop_assert_eq!(g.num_transfers() as u32, (n - 1) * k);
    }

    /// Slow-link fraction stays within (0, 1] and the paper's example
    /// ordering holds: more hypercube dimensions dilute a slow link more.
    #[test]
    fn slow_link_fraction_bounds(l in 1u32..10, slow_pct in 1u32..=100) {
        let f = analysis::slow_link_bandwidth_fraction(l, 1.0, slow_pct as f64 / 100.0);
        prop_assert!(f > 0.0 && f <= 1.0);
        if l >= 2 && slow_pct < 100 {
            let f_higher = analysis::slow_link_bandwidth_fraction(l + 1, 1.0, slow_pct as f64 / 100.0);
            prop_assert!(f_higher > f, "dimension should dilute the slow link");
        }
    }
}
