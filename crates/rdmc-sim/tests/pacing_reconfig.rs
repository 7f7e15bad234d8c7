//! Property tests of the admission layer across reconfiguration: under
//! any pacing policy, any admission bound, any backlog shape, and a
//! crash landing mid-backlog, the §4.2 invariant holds (the RNR
//! machinery never arms — pacing must delay *posting*, never break the
//! recv-before-grant discipline) and control traffic keeps bypassing
//! admission (epoch changes and readiness grants complete even when the
//! block-send queue is saturated, so survivors always quiesce).

use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, PacerConfig, PacingPolicy, RecoveryConfig};

const BLOCK: u64 = 64 << 10;
const NODES: usize = 6;

fn arb_policy() -> impl Strategy<Value = PacingPolicy> {
    prop_oneof![
        Just(PacingPolicy::Fifo),
        Just(PacingPolicy::SmallestFirst),
        Just(PacingPolicy::RoundRobin),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two overlapping groups, a randomized message backlog, and a
    /// mid-backlog crash under an arbitrary admission bound: survivors
    /// quiesce (control traffic bypassed the saturated admission
    /// queues), the RNR machinery never armed, and every admitted
    /// message either completed at all survivors or was abandoned
    /// group-wide consistently.
    #[test]
    fn pacing_with_crash_preserves_credit_discipline(
        policy in arb_policy(),
        max_inflight in 1u32..4,
        sizes in prop::collection::vec(1u64..12, 2..7),
        victim in 1usize..NODES,
        crash_step in 50u64..4_000,
    ) {
        let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(NODES))
            .pacing(PacerConfig::new(max_inflight, policy))
            .recovery(RecoveryConfig::default())
            .build();
        let g0 = cluster.create_group(GroupSpec {
            members: (0..NODES).collect(),
            algorithm: Algorithm::BinomialPipeline,
            block_size: BLOCK,
            ready_window: 2,
            max_outstanding_sends: 2,
        });
        let g1 = cluster.create_group(GroupSpec {
            members: vec![1, 2, 3, 4, 5, 0],
            algorithm: Algorithm::BinomialPipeline,
            block_size: BLOCK,
            ready_window: 2,
            max_outstanding_sends: 2,
        });
        for (i, &k) in sizes.iter().enumerate() {
            let group = if i % 2 == 0 { g0 } else { g1 };
            cluster.submit_send(group, k * BLOCK);
        }
        cluster.crash_after_events(victim, crash_step);
        cluster.run();

        // Control traffic must have bypassed the admission queues (a
        // wedged epoch change starved behind paced block sends would
        // leave survivors non-quiescent forever), pacing defers posting,
        // never the receive side (§4.2), and completion is all-or-nothing
        // per message over the survivors.
        prop_assert_eq!(cluster.check_run(), Ok(()), "{:?} inflight={}", policy, max_inflight);
        // Wherever an epoch change installed, the victim is gone from
        // the surviving view. (A crash landing after the backlog
        // drained triggers no detection, so the old view legally
        // stands.)
        for g in [g0, g1] {
            if cluster.group_epoch(g) > 0 {
                prop_assert!(!cluster.surviving_ranks(g).iter().any(|&r| {
                    // Map the surviving (original) rank to its node.
                    let members: [usize; NODES] =
                        if g == g0 { [0, 1, 2, 3, 4, 5] } else { [1, 2, 3, 4, 5, 0] };
                    members[r as usize] == victim
                }));
            }
        }
    }

    /// Crash-free control: the same backlog shapes without a crash must
    /// deliver every message everywhere under every policy, and equal
    /// backlogs under different policies reach the same delivery count.
    #[test]
    fn pacing_without_crash_delivers_everything(
        policy in arb_policy(),
        max_inflight in 1u32..4,
        sizes in prop::collection::vec(1u64..12, 2..7),
    ) {
        let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(NODES))
            .pacing(PacerConfig::new(max_inflight, policy))
            .build();
        let g0 = cluster.create_group(GroupSpec {
            members: (0..NODES).collect(),
            algorithm: Algorithm::BinomialPipeline,
            block_size: BLOCK,
            ready_window: 2,
            max_outstanding_sends: 2,
        });
        for &k in &sizes {
            cluster.submit_send(g0, k * BLOCK);
        }
        cluster.run();
        prop_assert_eq!(cluster.check_run(), Ok(()), "{:?}", policy);
    }
}
