//! Per-NIC send admission: paced clusters still deliver everything,
//! never deadlock at the tightest bound, count their deferrals, and
//! survive crashes with recovery enabled.

use rdmc::Algorithm;
use rdmc_sim::{
    ClusterBuilder, ClusterSpec, GroupSpec, PacerConfig, PacingPolicy, RecoveryConfig, SimCluster,
};
use simnet::SimTime;

const BLOCK: u64 = 64 << 10;

fn group_spec(members: Vec<usize>) -> GroupSpec {
    GroupSpec {
        members,
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 3,
        max_outstanding_sends: 3,
    }
}

/// Two fully-overlapping groups with distinct roots, several messages
/// each — enough concurrency that a small admission bound must defer
/// sends.
fn contended(policy: PacingPolicy, max_inflight: u32) -> SimCluster {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(6))
        .pacing(PacerConfig::new(max_inflight, policy))
        .build();
    let g0 = cluster.create_group(group_spec((0..6).collect()));
    let g1 = cluster.create_group(group_spec(vec![1, 2, 3, 4, 5, 0]));
    for _ in 0..3 {
        cluster.submit_send(g0, 24 * BLOCK);
        cluster.submit_send(g1, 4 * BLOCK);
    }
    cluster.run();
    cluster
}

#[test]
fn every_policy_delivers_everything_under_contention() {
    for policy in [
        PacingPolicy::Fifo,
        PacingPolicy::SmallestFirst,
        PacingPolicy::RoundRobin,
    ] {
        let cluster = contended(policy, 2);
        assert_eq!(cluster.check_run(), Ok(()), "{policy:?}");
        let stats = cluster.pacing_stats().expect("pacing enabled");
        assert!(
            stats.deferred_sends > 0,
            "{policy:?}: contended run never deferred a send"
        );
        assert!(stats.peak_queue_depth > 0);
    }
}

#[test]
fn tightest_bound_does_not_deadlock() {
    // One slot per NIC is the degenerate case: progress must still be
    // strictly serial, never stuck.
    let cluster = contended(PacingPolicy::Fifo, 1);
    assert_eq!(cluster.check_run(), Ok(()));
}

#[test]
fn unpaced_and_generous_bound_agree() {
    // A bound far above what the engines ever post concurrently admits
    // everything immediately: same deliveries as the unpaced cluster,
    // at the same times (per member, from the flight recorder).
    let run = |pacing: Option<PacerConfig>| {
        let mut builder = ClusterBuilder::new(ClusterSpec::fractus(6)).flight_recorder();
        if let Some(config) = pacing {
            builder = builder.pacing(config);
        }
        let mut cluster = builder.build();
        let g = cluster.create_group(group_spec((0..6).collect()));
        for _ in 0..4 {
            cluster.submit_send(g, 16 * BLOCK);
        }
        cluster.run();
        assert!(cluster
            .message_results()
            .iter()
            .all(|r| r.latency().is_some()));
        trace::replay::replay(&cluster.recorder().events()).delivered
    };
    let unpaced = run(None);
    let generous = run(Some(PacerConfig::new(1_000, PacingPolicy::Fifo)));
    assert_eq!(unpaced, generous);
}

#[test]
fn smallest_first_prefers_the_small_tenant() {
    // Same traffic, same bound: under smallest-first the small group's
    // messages must on average complete no later than under FIFO.
    let mean_small = |cluster: &SimCluster| {
        let small: Vec<f64> = cluster
            .message_results()
            .iter()
            .filter(|r| r.group == 1)
            .map(|r| r.latency().expect("complete").as_secs_f64())
            .collect();
        small.iter().sum::<f64>() / small.len() as f64
    };
    let fifo = contended(PacingPolicy::Fifo, 1);
    let sjf = contended(PacingPolicy::SmallestFirst, 1);
    assert!(
        mean_small(&sjf) <= mean_small(&fifo) * 1.001,
        "smallest-first should not delay the small tenant: {} vs {}",
        mean_small(&sjf),
        mean_small(&fifo)
    );
}

#[test]
fn pacing_survives_a_crash_with_recovery() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(6))
        .pacing(PacerConfig::new(2, PacingPolicy::RoundRobin))
        .recovery(RecoveryConfig::default())
        .build();
    let g = cluster.create_group(group_spec((0..6).collect()));
    for _ in 0..2 {
        cluster.submit_send(g, 16 * BLOCK);
    }
    cluster.schedule_crash_at(3, SimTime::from_nanos(400_000));
    cluster.run();
    // Whatever was not abandoned completed at every survivor.
    assert_eq!(cluster.check_run(), Ok(()));
    assert!(!cluster.surviving_ranks(g).contains(&3));
}
