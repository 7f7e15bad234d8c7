//! Functional tests of the Derecho-style atomic multicast overlay:
//! rotated multi-sender groups, round-robin slots, null-send elision,
//! SST stability frontiers, and total-order delivery logs identical at
//! every member.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, SimCluster};
use simnet::SimTime;

const KB: u64 = 1 << 10;

fn atomic_spec(n: usize) -> GroupSpec {
    GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: 64 * KB,
        ready_window: 2,
        max_outstanding_sends: 2,
    }
}

fn build(n: usize) -> SimCluster {
    ClusterBuilder::new(ClusterSpec::fractus(n))
        .flight_recorder()
        .atomic(atomic_spec(n))
        .build()
}

#[test]
fn all_members_deliver_identical_total_order() {
    let n = 4;
    let count = 8;
    let mut cluster = build(n);
    let mut ids = Vec::new();
    for _ in 0..count {
        ids.push(cluster.submit_atomic(0, 96 * KB));
    }
    cluster.run();
    let reference: Vec<_> = cluster.atomic_log(0, 0).to_vec();
    assert_eq!(reference.len(), count, "member 0 delivered everything");
    for (i, d) in reference.iter().enumerate() {
        // Round-robin slots: slot i belongs to member i % n and is its
        // (i / n)-th submission.
        assert_eq!(d.slot, i as u64);
        assert_eq!(d.sender, (i % n) as u32);
        assert_eq!(d.seq, (i / n) as u64);
        assert_eq!(d.size, 96 * KB);
        assert_eq!(d.message, ids[i]);
    }
    for m in 1..n {
        let log = cluster.atomic_log(0, m);
        assert_eq!(log.len(), count, "member {m} delivered everything");
        for (a, b) in reference.iter().zip(log) {
            // Same total order everywhere; only the upcall time differs.
            assert_eq!(
                (a.slot, a.sender, a.seq, a.size),
                (b.slot, b.sender, b.seq, b.size)
            );
        }
    }
    // Delivery always trails the underlying RDMC completion at that
    // member (stability cannot outrun local receipt). The local times
    // come from the flight recorder: member `m` is node `m`, and with no
    // crash a subgroup's `index`-th message is its `index`-th delivery.
    let replayed = trace::replay::replay(&cluster.recorder().events());
    for m in 0..n {
        for d in cluster.atomic_log(0, m) {
            let r = cluster.result(d.message).expect("message result");
            let at = &replayed.delivered[&(r.group as u32, m as u32)];
            let local = SimTime::from_nanos(at[r.index].0);
            assert!(d.at >= local, "member {m} delivered slot {} early", d.slot);
        }
    }
}

#[test]
fn null_slots_skip_quiet_senders() {
    let n = 4;
    let mut cluster = build(n);
    // Member 2 speaks first: owners 0 and 1 contribute nulls, slot 2 is
    // the data slot.
    let first = cluster.submit_atomic_from(0, 2, 64 * KB);
    // Then member 1: owners 3 and 0 contribute nulls, slot 5 is data.
    let second = cluster.submit_atomic_from(0, 1, 64 * KB);
    cluster.run();
    assert_eq!(cluster.atomic_num_slots(0), 6);
    for m in 0..n {
        let log = cluster.atomic_log(0, m);
        assert_eq!(log.len(), 2, "member {m}: only data slots reach the log");
        assert_eq!((log[0].slot, log[0].sender, log[0].message), (2, 2, first));
        assert_eq!((log[1].slot, log[1].sender, log[1].message), (5, 1, second));
    }
    assert!(
        cluster.atomic_trimmed_slots(0).is_empty(),
        "no view change, no ragged trim"
    );
}

#[test]
fn scheduled_sends_resolve_the_owner_at_fire_time() {
    let n = 3;
    let mut cluster = build(n);
    let a = cluster.schedule_atomic_send_at(0, SimTime::from_nanos(50_000), 64 * KB);
    let b = cluster.schedule_atomic_send_at(0, SimTime::from_nanos(9_000_000), 64 * KB);
    cluster.run();
    for m in 0..n {
        let log = cluster.atomic_log(0, m);
        assert_eq!(log.len(), 2);
        // Owners resolve in fire order from the rotation cursor.
        assert_eq!((log[0].sender, log[0].message), (0, a));
        assert_eq!((log[1].sender, log[1].message), (1, b));
        assert!(log[0].at < log[1].at);
    }
}

#[test]
fn trace_oracle_validates_the_atomic_run() {
    let n = 4;
    let mut cluster = build(n);
    for _ in 0..6 {
        cluster.submit_atomic(0, 128 * KB);
    }
    // A null in the middle exercises the elision path under the oracle.
    cluster.submit_atomic_from(0, 3, 64 * KB);
    cluster.run();
    let stats = cluster
        .check_trace()
        .unwrap_or_else(|v| panic!("oracle violations: {v:#?}"));
    assert_eq!(
        stats.atomic_deliveries,
        (7 * n) as u64,
        "every member's delivery passed the ordering rule"
    );
}

#[test]
fn overlay_coexists_with_plain_groups() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(6))
        .atomic(atomic_spec(4))
        .build();
    let plain = cluster.create_group(GroupSpec {
        members: vec![2, 3, 4, 5],
        algorithm: Algorithm::Chain,
        block_size: 64 * KB,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    let p = cluster.submit_send(plain, 256 * KB);
    cluster.submit_atomic(0, 256 * KB);
    cluster.run();
    assert!(cluster
        .result(p)
        .expect("plain message")
        .latency()
        .is_some());
    for m in 0..4 {
        assert_eq!(cluster.atomic_log(0, m).len(), 1);
    }
}

#[test]
fn reruns_are_bit_for_bit_identical() {
    let digest = |_: ()| {
        let mut cluster = build(5);
        for _ in 0..7 {
            cluster.submit_atomic(0, 160 * KB);
        }
        cluster.run();
        cluster.state_digest()
    };
    assert_eq!(digest(()), digest(()));
}
