//! Randomized soak tests: many overlapping groups, mixed algorithms,
//! mixed message sizes, scheduling jitter everywhere — assert the whole
//! stack stays consistent (every message delivered everywhere, engines
//! quiescent, byte conservation on receivers' NICs).
//!
//! The second half is the failure-recovery chaos harness: crash any rank
//! at *any* protocol step (deterministically indexed by the engine-event
//! counter) and prove the cluster always converges — survivors hold
//! every byte of every non-abandoned message, abandonment is group-wide
//! consistent, the RNR machinery never arms, and reruns are bit-for-bit
//! deterministic.

use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, SimCluster};
use simnet::{JitterModel, SimDuration};
use verbs::Transport;

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Sequential),
        Just(Algorithm::Chain),
        Just(Algorithm::BinomialTree),
        Just(Algorithm::BinomialPipeline),
    ]
}

#[derive(Debug, Clone)]
struct GroupPlan {
    algorithm: Algorithm,
    members: Vec<usize>,
    block_size: u64,
    messages: Vec<u64>,
}

fn arb_group(nodes: usize) -> impl Strategy<Value = GroupPlan> {
    (
        arb_algorithm(),
        prop::sample::subsequence((0..nodes).collect::<Vec<_>>(), 2..=nodes),
        prop::sample::select(vec![4u64 << 10, 64 << 10, 1 << 20]),
        prop::collection::vec(0u64..2_000_000, 1..4),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(algorithm, mut members, block_size, messages, root)| {
            // Rotate a random member into the root slot so senders vary.
            let r = root.index(members.len());
            members.swap(0, r);
            GroupPlan {
                algorithm,
                members,
                block_size,
                messages,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent groups with random membership, roots, sizes, and
    /// jitter: every message completes at every member and the cluster
    /// quiesces.
    #[test]
    fn chaos_soak(
        groups in prop::collection::vec(arb_group(10), 1..6),
        jitter_seed in any::<u64>(),
    ) {
        let mut builder = ClusterBuilder::new(ClusterSpec::fractus(10))
            .flight_recorder();
        for node in 0..10 {
            builder = builder.jitter(
                node,
                JitterModel::new(
                    jitter_seed ^ node as u64,
                    0.01,
                    SimDuration::from_micros(20),
                    SimDuration::from_micros(200),
                ),
            );
        }
        let mut cluster = builder.build();
        let mut ids = Vec::new();
        for plan in &groups {
            let id = cluster.create_group(GroupSpec {
                members: plan.members.clone(),
                algorithm: plan.algorithm.clone(),
                block_size: plan.block_size,
                ready_window: 3,
                max_outstanding_sends: 3,
            });
            ids.push(id);
        }
        for (plan, &id) in groups.iter().zip(&ids) {
            for &size in &plan.messages {
                cluster.submit_send(id, size);
            }
        }
        cluster.run();
        prop_assert_eq!(cluster.check_run(), Ok(()));
        let expected: usize = groups.iter().map(|p| p.messages.len()).sum();
        prop_assert_eq!(cluster.message_results().len(), expected);
        // Conservation: each member's downlink carried at least the bytes
        // of every message delivered to it (readies/control traffic is tiny
        // and bypasses the flow accounting entirely).
        let net = cluster.transport().net();
        let topo = cluster.transport().topology();
        let mut expected_rx = [0.0f64; 10];
        for (plan, &id) in groups.iter().zip(&ids) {
            let _ = id;
            for &m in &plan.members[1..] {
                expected_rx[m] += plan.messages.iter().map(|&s| s as f64).sum::<f64>();
            }
        }
        for (node, &expected) in expected_rx.iter().enumerate() {
            let carried = net.bytes_carried(topo.rx_link(node));
            prop_assert!(
                carried + 1024.0 >= expected,
                "node {} downlink carried {} < expected {}",
                node,
                carried,
                expected
            );
        }
    }
}

const BLOCK: u64 = 64 << 10;

/// One recovery run: an `n`-member binomial-pipeline group with recovery
/// enabled, one `k`-block message, optional scheduling jitter, and an
/// optional crash of `victim` just before engine event `step`.
fn recovery_run(
    n: usize,
    k: u64,
    crash: Option<(usize, u64)>,
    jitter_seed: Option<u64>,
) -> SimCluster {
    let mut builder = ClusterBuilder::new(ClusterSpec::fractus(n))
        .flight_recorder()
        .recovery(RecoveryConfig::default());
    if let Some(seed) = jitter_seed {
        for node in 0..n {
            builder = builder.jitter(
                node,
                JitterModel::new(
                    seed ^ node as u64,
                    0.02,
                    SimDuration::from_micros(20),
                    SimDuration::from_micros(200),
                ),
            );
        }
    }
    let mut cluster = builder.build();
    let group = cluster.create_group(GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    if let Some((victim, step)) = crash {
        cluster.crash_after_events(victim, step);
    }
    cluster.submit_send(group, k * BLOCK);
    cluster.run();
    cluster
}

/// Every chaos run ends with a clean verdict ([`SimCluster::check_run`])
/// and exactly the victim removed from the group.
fn assert_only_victim_removed(cluster: &SimCluster, n: usize, victim: usize) {
    assert_eq!(cluster.check_run(), Ok(()));
    let others: Vec<u32> = (0..n as u32).filter(|&r| r != victim as u32).collect();
    assert_eq!(
        cluster.surviving_ranks(0),
        others,
        "exactly the victim was removed"
    );
}

/// Exhaustive mini-sweep: a 4-member pipeline, crashing *every* rank at
/// *every* protocol step of the failure-free run. Quick but complete —
/// the proptest below extends the same property to larger shapes.
#[test]
fn every_rank_crashing_at_every_step_recovers() {
    let (n, k) = (4usize, 3u64);
    let total = recovery_run(n, k, None, None).events_fed();
    assert!(total > 0);
    for victim in 0..n {
        for step in 0..total {
            let cluster = recovery_run(n, k, Some((victim, step)), None);
            assert!(
                !cluster.recovery_stats().reconfigurations.is_empty(),
                "victim {victim} step {step}: no reconfiguration happened"
            );
            assert_only_victim_removed(&cluster, n, victim);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash any rank at any protocol step for n up to 8, with random
    /// scheduling jitter: the group always reconfigures and converges,
    /// and a rerun with identical parameters is identical (virtual time
    /// makes the whole failure/recovery path deterministic).
    #[test]
    fn crash_at_any_protocol_step_recovers(
        n in prop::sample::select(vec![2usize, 3, 4, 5, 6, 8]),
        k in prop::sample::select(vec![2u64, 4, 7]),
        victim_sel in any::<prop::sample::Index>(),
        step_sel in any::<prop::sample::Index>(),
        jitter_seed in any::<u64>(),
    ) {
        let total = recovery_run(n, k, None, Some(jitter_seed)).events_fed();
        let victim = victim_sel.index(n);
        let step = step_sel.index(total as usize) as u64;

        let cluster = recovery_run(n, k, Some((victim, step)), Some(jitter_seed));
        assert_only_victim_removed(&cluster, n, victim);

        // Determinism: the rerun reproduces the run event-for-event.
        let rerun = recovery_run(n, k, Some((victim, step)), Some(jitter_seed));
        prop_assert_eq!(cluster.events_fed(), rerun.events_fed());
        prop_assert_eq!(
            cluster.transport().now().as_nanos(),
            rerun.transport().now().as_nanos()
        );
        let (a, b) = (cluster.recovery_stats(), rerun.recovery_stats());
        prop_assert_eq!(a.reconfigurations.len(), b.reconfigurations.len());
        for (x, y) in a.reconfigurations.iter().zip(&b.reconfigurations) {
            prop_assert_eq!(x.epoch, y.epoch);
            prop_assert_eq!(&x.survivors, &y.survivors);
            prop_assert_eq!(x.installed_at, y.installed_at);
            prop_assert_eq!(x.resumed_blocks, y.resumed_blocks);
            prop_assert_eq!(&x.abandoned, &y.abandoned);
        }
    }
}
