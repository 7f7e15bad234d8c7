//! Integration tests for epoch-based failure recovery: wedged groups
//! reconfigure, interrupted multicasts resume block-wise, link flaps
//! evict both endpoints, and forced reconfiguration backs up the
//! epidemic agreement path. Every scenario must end with a clean
//! verdict, `Cluster::check_run`.

use std::collections::BTreeMap;

use rdmc::engine::Event;
use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, SimCluster};
use simnet::SimDuration;

const BLOCK: u64 = 64 << 10;

fn build(n: usize) -> (SimCluster, rdmc_sim::GroupId) {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(n))
        .flight_recorder()
        .recovery(RecoveryConfig::default())
        .build();
    let group = cluster.create_group(GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    (cluster, group)
}

#[test]
fn non_sender_crash_resumes_with_only_missing_blocks() {
    let (mut cluster, group) = build(4);
    let size = 8 * BLOCK;
    // Crash rank 2's node partway through the transfer (after 40 engine
    // events the pipeline is mid-flight on every lane).
    cluster.crash_after_events(2, 40);
    cluster.submit_send(group, size);
    cluster.run();

    let stats = cluster.recovery_stats().clone();
    assert_eq!(stats.reconfigurations.len(), 1, "exactly one view change");
    let rc = &stats.reconfigurations[0];
    assert_eq!(rc.epoch, 1);
    assert_eq!(rc.removed, vec![2]);
    assert_eq!(rc.survivors, vec![0, 1, 3]);
    assert_eq!(cluster.group_epoch(group), 1);
    assert_eq!(cluster.surviving_ranks(group), vec![0, 1, 3]);
    assert!(!rc.forced, "the epidemic path must agree without forcing");
    assert!(
        rc.resumed + rc.remulticast + rc.already_complete == 1 && rc.abandoned.is_empty(),
        "the interrupted message must be resumed, not abandoned: {rc:?}"
    );
    // The new epoch moves only the missing blocks: strictly fewer
    // transfers than re-multicasting all 8 blocks to both non-holders.
    assert!(
        rc.resumed_blocks > 0,
        "some blocks were missing at the wedge"
    );
    assert!(
        rc.resumed_blocks < 16,
        "resume must not re-send held blocks ({} transfers)",
        rc.resumed_blocks
    );

    assert_eq!(cluster.check_run(), Ok(()));

    // Per-rank block accounting at the NIC: each surviving receiver's
    // downlink carried every block at most once per epoch attempt — far
    // less than a full second copy of the message (control writes bypass
    // flow accounting entirely).
    let net = cluster.transport().net();
    let topo = cluster.transport().topology();
    for node in [1usize, 3] {
        let carried = net.bytes_carried(topo.rx_link(node));
        assert!(
            carried >= size as f64,
            "node {node} received {carried} < message size {size}"
        );
        assert!(
            carried < (size + 3 * BLOCK) as f64,
            "node {node} received {carried}: blocks were retransmitted \
             that the member already held"
        );
    }
    // Detection latency: the failure was suspected only after the crash,
    // and the new epoch came after the grace period.
    let crash_at = cluster.crash_time(2).expect("rank 2 crashed");
    let det = &stats.detections[0];
    assert_eq!(det.failed, 2);
    assert!(det.suspected_at >= crash_at);
    assert!(rc.first_suspected_at >= crash_at);
    assert!(rc.installed_at >= rc.first_suspected_at + RecoveryConfig::default().grace);
}

#[test]
fn sender_crash_is_resumed_or_consistently_abandoned() {
    let (mut cluster, group) = build(4);
    cluster.crash_after_events(0, 35);
    let first = cluster.submit_send(group, 6 * BLOCK);
    cluster.run();

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    let rc = &stats.reconfigurations[0];
    assert_eq!(rc.removed, vec![0]);
    assert_eq!(cluster.surviving_ranks(group), vec![1, 2, 3]);
    assert_eq!(cluster.check_run(), Ok(()));
    // The message's record carries its fate: abandoned exactly when the
    // view change says so, and then delivered at no survivor (otherwise
    // at every one).
    let fate = cluster.result(first).expect("submitted");
    assert_eq!(fate.sender, 0);
    assert_eq!(fate.abandoned, rc.abandoned.contains(&0));
    for o in [1usize, 2, 3] {
        assert_ne!(
            fate.delivered(o),
            fate.abandoned,
            "original rank {o} contradicts the message's fate"
        );
    }

    // The group stays usable: original rank 1 is the new root and can
    // multicast in the new epoch.
    let second = cluster.submit_send(group, 3 * BLOCK);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    let last = cluster.result(second).expect("second message");
    assert!(!last.abandoned, "post-recovery multicast abandoned");
    assert_eq!(last.sender, 1);
    for o in [1usize, 2, 3] {
        assert!(
            last.delivered(o),
            "post-recovery multicast missing at original rank {o}"
        );
    }
}

#[test]
fn cascading_failures_bump_the_epoch_twice() {
    let (mut cluster, group) = build(6);
    // The second crash lands while the first recovery cycle is likely in
    // flight; whether the cycles merge or stack, the group must converge.
    cluster.crash_after_events(4, 30);
    cluster.crash_after_events(2, 90);
    cluster.submit_send(group, 10 * BLOCK);
    cluster.run();

    let stats = cluster.recovery_stats();
    assert!(
        !stats.reconfigurations.is_empty() && stats.reconfigurations.len() <= 2,
        "one merged or two stacked view changes, got {}",
        stats.reconfigurations.len()
    );
    let survivors = cluster.surviving_ranks(group);
    assert_eq!(survivors, vec![0, 1, 3, 5]);
    assert_eq!(
        cluster.group_epoch(group) as usize,
        stats.reconfigurations.len()
    );
    assert_eq!(cluster.check_run(), Ok(()));
}

#[test]
fn link_flap_evicts_both_endpoints() {
    let (mut cluster, group) = build(5);
    // Sever the 1<->3 connection without crashing either node: with no
    // rejoin path, mutual suspicion must evict both.
    cluster.inject_link_flap(group, 1, 3);
    cluster.submit_send(group, 4 * BLOCK);
    cluster.run();

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    let rc = &stats.reconfigurations[0];
    assert_eq!(rc.removed, vec![1, 3]);
    assert_eq!(cluster.surviving_ranks(group), vec![0, 2, 4]);
    // Eviction is real: the flapped members' nodes are fenced off.
    assert!(cluster.crash_time(1).is_some());
    assert!(cluster.crash_time(3).is_some());
    assert_eq!(cluster.check_run(), Ok(()));
}

#[test]
fn impatient_config_forces_the_view_before_the_epidemic_settles() {
    // A grace period far below the fabric's propagation delay: all five
    // reconfiguration attempts beat the TAG_VIEW epidemic across the 50 ms
    // WAN hop, so the orchestrator must fall back to forcing the failure
    // evidence.
    let mut cluster = ClusterBuilder::new(ClusterSpec::geo(4))
        .recovery(RecoveryConfig {
            grace: SimDuration::from_nanos(10),
        })
        .build();
    let group = cluster.create_group(GroupSpec {
        members: vec![0, 1, 2, 3],
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    cluster.crash_after_events(3, 25);
    cluster.submit_send(group, 6 * BLOCK);
    cluster.run();

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    let rc = &stats.reconfigurations[0];
    assert!(
        rc.forced,
        "agreement cannot settle within 10ns of suspicion"
    );
    assert_eq!(rc.removed, vec![3]);
    assert_eq!(cluster.surviving_ranks(group), vec![0, 1, 2]);
    assert_eq!(cluster.check_run(), Ok(()));
}

#[test]
fn crash_between_messages_recovers_the_stream() {
    let (mut cluster, group) = build(4);
    // Three queued messages; the crash lands while the stream is flowing,
    // so later messages must be carried into the new epoch (resumed or
    // restarted) rather than lost.
    cluster.crash_after_events(1, 60);
    for _ in 0..3 {
        cluster.submit_send(group, 4 * BLOCK);
    }
    cluster.run();

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    assert_eq!(stats.reconfigurations[0].removed, vec![1]);
    assert_eq!(cluster.check_run(), Ok(()));
}

/// A recovery group's view row is its only failure notice, so each
/// survivor's engine hears of each failed member exactly once; and in
/// any group no engine is ever told that it failed itself (a flap's far
/// end wedges on its own broken connection, not on a relayed notice).
#[test]
fn each_engine_hears_of_a_failure_once_and_never_of_itself() {
    // (members, recovery, crash at an engine step, else a 1-3 flap)
    for (n, recovery, crash) in [(8, true, Some(60)), (5, true, None), (5, false, None)] {
        let mut builder = ClusterBuilder::new(ClusterSpec::fractus(n)).engine_log();
        if recovery {
            builder = builder.recovery(RecoveryConfig::default());
        }
        let mut cluster = builder.build();
        let group = cluster.create_group(GroupSpec {
            members: (0..n).collect(),
            algorithm: Algorithm::BinomialPipeline,
            block_size: BLOCK,
            ready_window: 2,
            max_outstanding_sends: 2,
        });
        match crash {
            Some(step) => cluster.crash_after_events(n / 2, step),
            None => cluster.inject_link_flap(group, 1, 3),
        }
        cluster.submit_send(group, 16 * BLOCK);
        cluster.run();
        let case = format!("n={n} recovery={recovery} crash={crash:?}");
        // Every notice lands before the one view change, so ranks in the
        // log are original ranks.
        let mut heard: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for entry in cluster.engine_log() {
            if let Event::PeerFailed { rank } = entry.event {
                assert_ne!(rank, entry.rank, "{case}: an engine was told it failed");
                heard.entry(entry.rank).or_default().push(rank);
            }
        }
        if recovery {
            let stats = cluster.recovery_stats();
            assert_eq!(stats.reconfigurations.len(), 1, "{case}");
            let removed = &stats.reconfigurations[0].removed;
            for survivor in cluster.surviving_ranks(group) {
                let mut got = heard.remove(&survivor).unwrap_or_default();
                got.sort_unstable();
                assert_eq!(&got, removed, "{case}: survivor {survivor}");
            }
        }
    }
}
