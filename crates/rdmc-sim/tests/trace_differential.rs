//! Differential testing of the flight recorder: everything the cluster
//! reports through its own bookkeeping — per-member delivery upcalls
//! with their timestamps and sizes, resumed-block counts, the number of
//! reconfigurations — must be recomputable from the trace alone via
//! [`trace::replay`]. Any instrumentation gap (a missed `Delivered`, a
//! double-counted resume block) shows up as a divergence here.

use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig};

const BLOCK: u64 = 4 << 10;

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Sequential),
        Just(Algorithm::Chain),
        Just(Algorithm::BinomialTree),
        Just(Algorithm::BinomialPipeline),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine-reported completions and resume counts equal the values
    /// recomputed from the trace, for every algorithm, with and without
    /// a mid-transfer crash.
    #[test]
    fn engine_reports_match_trace_replay(
        n in 2usize..=8,
        algorithm in arb_algorithm(),
        blocks in prop::collection::vec(1u64..=6, 1..=2),
        crash_on in any::<bool>(),
        victim_sel in any::<prop::sample::Index>(),
        crash_step in 10u64..120,
    ) {
        let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(n))
            .flight_recorder()
            .recovery(RecoveryConfig::default())
            .build();
        let recorder = cluster.recorder().clone();
        let group = cluster.create_group(GroupSpec {
            members: (0..n).collect(),
            algorithm,
            block_size: BLOCK,
            ready_window: 2,
            max_outstanding_sends: 2,
        });
        if crash_on {
            cluster.crash_after_events(victim_sel.index(n), crash_step);
        }
        for &k in &blocks {
            cluster.submit_send(group, k * BLOCK);
        }
        cluster.run();
        prop_assert_eq!(cluster.check_run(), Ok(()));

        let replayed = trace::replay::replay(&recorder.events());

        // Per member (keyed by fabric node — members are (0..n), so an
        // original rank IS its node id): the `Delivered` events in the
        // trace must be exactly the messages the ledger says the member
        // delivered, in message order, same sizes; an unfinished
        // record's stamps must be those events' times, and a completed
        // record's `completed` the latest of them over all members.
        let results = cluster.message_results();
        let mut last: Vec<Option<u64>> = vec![None; results.len()];
        let mut expected_deliveries = 0u64;
        for node in 0..n {
            let got = replayed
                .delivered
                .get(&(group as u32, node as u32))
                .cloned()
                .unwrap_or_default();
            let mine: Vec<_> = results.iter().filter(|r| r.delivered(node)).collect();
            prop_assert_eq!(
                got.len(), mine.len(),
                "node {} deliveries diverge from trace replay", node
            );
            expected_deliveries += mine.len() as u64;
            for (&(t, size), r) in got.iter().zip(&mine) {
                prop_assert_eq!(size, r.size, "node {} message {} size", node, r.index);
                if let Some(at) = r.unfinished_stamps() {
                    prop_assert_eq!(at[node].map(|t| t.as_nanos()), Some(t));
                }
                last[r.index] = last[r.index].max(Some(t));
            }
        }
        for r in &results {
            let done = r.unfinished_stamps().is_none();
            prop_assert_eq!(
                r.completed.map(|t| t.as_nanos()),
                if done { last[r.index] } else { None },
                "message {} completion diverges from trace replay", r.index
            );
        }
        prop_assert_eq!(replayed.deliveries, expected_deliveries);

        // Resume accounting three ways: the recovery stats the cluster
        // keeps, the cluster-side ReconfigInstalled events, and the
        // member-side EpochInstalled events must all agree.
        let stats = cluster.recovery_stats();
        let reported: u64 = stats
            .reconfigurations
            .iter()
            .map(|r| r.resumed_blocks as u64)
            .sum();
        prop_assert_eq!(replayed.reconfig_resumed_blocks, reported);
        prop_assert_eq!(replayed.member_resume_blocks, reported);
        prop_assert_eq!(
            replayed.reconfigurations,
            stats.reconfigurations.len() as u64
        );

        // The RNR invariant, cross-checked from the trace rather than
        // the fabric counters.
        prop_assert_eq!(replayed.rnr_arms, 0);
    }
}
