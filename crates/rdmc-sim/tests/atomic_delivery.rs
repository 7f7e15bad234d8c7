//! Derecho-style atomic delivery (paper §4.6): RDMC deliveries are held
//! back until every member is known to hold the message. The paper's
//! single-sender setting is the atomic overlay with every submission
//! pinned to member 0; this validates its claim that the added delay is
//! small and no bandwidth is lost.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, SimCluster};

const MB: u64 = 1 << 20;

fn spec_group(members: Vec<usize>) -> GroupSpec {
    GroupSpec {
        members,
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    }
}

/// `count` messages of `size` bytes from member 0 of an 8-node group:
/// as atomic group 0 when `atomic`, on a plain RDMC group otherwise.
fn run(atomic: bool, count: usize, size: u64) -> SimCluster {
    let builder = ClusterBuilder::new(ClusterSpec::fractus(8));
    let spec = spec_group((0..8).collect());
    if atomic {
        let mut cluster = builder.atomic(spec).build();
        for _ in 0..count {
            cluster.submit_atomic_from(0, 0, size);
        }
        cluster.run();
        cluster
    } else {
        let mut cluster = builder.build();
        let group = cluster.create_group(spec);
        for _ in 0..count {
            cluster.submit_send(group, size);
        }
        cluster.run();
        cluster
    }
}

#[test]
fn every_member_logs_every_message_in_submission_order() {
    let sizes = [8 * MB, 3 * MB, 8 * MB, 5 * MB, MB];
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(8))
        .atomic(spec_group((0..8).collect()))
        .build();
    let ids: Vec<_> = sizes
        .iter()
        .map(|&s| cluster.submit_atomic_from(0, 0, s))
        .collect();
    cluster.run();
    for member in 0..8 {
        let log = cluster.atomic_log(0, member);
        let got: Vec<_> = log.iter().map(|d| (d.message, d.size, d.sender)).collect();
        let want: Vec<_> = ids.iter().zip(sizes).map(|(&id, s)| (id, s, 0)).collect();
        assert_eq!(
            got, want,
            "member {member}: log is not the submission order"
        );
        assert!(log
            .windows(2)
            .all(|w| w[0].slot < w[1].slot && w[0].at <= w[1].at));
    }
}

#[test]
fn upcall_never_precedes_any_members_local_completion() {
    let cluster = run(true, 3, 16 * MB);
    for member in 0..8 {
        let log = cluster.atomic_log(0, member);
        assert_eq!(log.len(), 3, "member {member}");
        for d in log {
            // The upcall at `member` must follow EVERY member's local
            // RDMC completion of that message: the last one's included.
            let result = cluster.result(d.message).expect("submitted");
            let t = result
                .completed
                .expect("crash-free run completes everywhere");
            assert!(
                d.at >= t,
                "member {member} slot {}: upcall {:?} before local {t:?}",
                d.slot,
                d.at
            );
        }
    }
}

#[test]
fn added_delay_is_small_and_bandwidth_is_kept() {
    // The paper: "No loss of bandwidth is experienced, and the added delay
    // is surprisingly small."
    let count = 6;
    let size = 32 * MB;
    let plain = run(false, count, size);
    let atomic = run(true, count, size);
    let end_plain = plain.last_delivery().unwrap();
    let end_stable = (0..8)
        .flat_map(|m| atomic.atomic_log(0, m).iter().map(|d| d.at))
        .max()
        .unwrap();
    let plain_s = end_plain.as_secs_f64();
    let stable_s = end_stable.as_secs_f64();
    assert!(stable_s >= plain_s, "stability cannot be free");
    assert!(
        stable_s < plain_s * 1.05,
        "atomic delivery should cost <5% end-to-end: {plain_s} vs {stable_s}"
    );
}

#[test]
fn crash_without_recovery_delivers_nothing_at_survivors() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4))
        .atomic(spec_group((0..4).collect()))
        .build();
    cluster.submit_atomic_from(0, 0, 64 * MB);
    cluster.schedule_crash_at(2, simnet::SimTime::from_nanos(1_000_000));
    cluster.run();
    // The dead member's frontier row never advances and, with recovery
    // off, no view change removes it from the stability minimum — so
    // nothing becomes stable. (With `ClusterBuilder::recovery` the view
    // change is exactly the leader-based cleanup Derecho needs here.)
    for member in [0, 1, 3] {
        assert!(
            cluster.atomic_log(0, member).is_empty(),
            "member {member} must not deliver unstably after a crash"
        );
    }
    let sender_subgroup = cluster.atomic_subgroups(0)[0];
    assert!(!cluster.wedged_members(sender_subgroup).is_empty());
}
