//! Integration suite for the TCP backend behind the unified
//! [`rdmc_sim::ClusterBuilder`] API: every algorithm, multi-message
//! ordering, overlapping groups, the §4.6 close barrier (clean and
//! unclean), shutdown hygiene across repeated launches, the zero-RNR
//! discipline observed on real sockets, pre-crash data reaching the
//! survivor ahead of the break, and a stranger on the fabric's listener.

use std::net::TcpStream;

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, GroupSpec, RecoveryConfig};
use rdmc_tcp::TcpFabric;
use simnet::SimDuration;
use verbs::{Delivery, NodeId, Transport, WrId};

const KB: u64 = 1 << 10;

fn spec(members: Vec<usize>, algorithm: Algorithm) -> GroupSpec {
    GroupSpec {
        members,
        algorithm,
        block_size: 8 * KB,
        ready_window: 2,
        max_outstanding_sends: 2,
    }
}

/// Every dissemination algorithm delivers to every member over TCP.
#[test]
fn all_algorithms_deliver() {
    let algorithms = [
        Algorithm::Sequential,
        Algorithm::Chain,
        Algorithm::BinomialTree,
        Algorithm::BinomialPipeline,
    ];
    for algorithm in algorithms {
        let mut cluster = rdmc_tcp::builder(5).expect("launch").build();
        let group = cluster.create_group(spec((0..5).collect(), algorithm.clone()));
        cluster.submit_send(group, 60 * KB);
        cluster.run();
        assert_eq!(cluster.check_run(), Ok(()), "{algorithm:?}");
        for r in cluster.message_results() {
            assert!(
                r.latency().is_some(),
                "{algorithm:?}: a member missed the message"
            );
        }
        rdmc_tcp::shutdown(cluster).expect("clean shutdown");
    }
}

/// The rack-aware hybrid schedule (§4.3) also runs over TCP.
#[test]
fn hybrid_algorithm_delivers() {
    let mut cluster = rdmc_tcp::builder(6).expect("launch").build();
    let group = cluster.create_group(spec(
        (0..6).collect(),
        Algorithm::Hybrid {
            rack_of: vec![0, 0, 1, 1, 2, 2],
        },
    ));
    cluster.submit_send(group, 48 * KB);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    for r in cluster.message_results() {
        assert!(r.latency().is_some());
    }
    rdmc_tcp::shutdown(cluster).expect("clean shutdown");
}

/// Multiple messages complete in initiation order at every member
/// (§3 property 4), including a 1-byte message.
#[test]
fn several_messages_deliver_in_order() {
    let mut cluster = rdmc_tcp::builder(4)
        .expect("launch")
        .flight_recorder()
        .build();
    let group = cluster.create_group(spec((0..4).collect(), Algorithm::BinomialPipeline));
    let sizes = [24 * KB, 1, 33 * KB, 9 * KB];
    for &size in &sizes {
        cluster.submit_send(group, size);
    }
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    let results = cluster.message_results();
    assert_eq!(results.len(), sizes.len());
    assert!(results.iter().all(|r| r.latency().is_some()));
    // Each member's upcalls, from the flight recorder: every message
    // once, in submission order, at non-decreasing times.
    let replayed = trace::replay::replay(&cluster.recorder().events());
    for member in 0..4u32 {
        let upcalls = &replayed.delivered[&(group as u32, member)];
        let got: Vec<u64> = upcalls.iter().map(|&(_, size)| size).collect();
        assert_eq!(got, sizes, "member {member} reordered");
        assert!(
            upcalls.windows(2).all(|w| w[0].0 <= w[1].0),
            "member {member} went back in time"
        );
    }
    rdmc_tcp::shutdown(cluster).expect("clean shutdown");
}

/// Two groups with overlapping membership share the fabric without
/// interfering.
#[test]
fn overlapping_groups_coexist() {
    let mut cluster = rdmc_tcp::builder(6).expect("launch").build();
    let g0 = cluster.create_group(spec(vec![0, 1, 2, 3], Algorithm::BinomialPipeline));
    let g1 = cluster.create_group(spec(vec![2, 3, 4, 5], Algorithm::Chain));
    cluster.submit_send(g0, 40 * KB);
    cluster.submit_send(g1, 24 * KB);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    for r in cluster.message_results() {
        assert!(r.latency().is_some());
    }
    assert!(cluster.destroy_group(g0));
    assert!(cluster.destroy_group(g1));
    rdmc_tcp::shutdown(cluster).expect("clean shutdown");
}

/// The close barrier under concurrent sends: `destroy_group` drains all
/// in-flight traffic first and certifies every message reached every
/// member (§4.6 — a clean close proves delivery).
#[test]
fn close_barrier_under_concurrent_sends() {
    let mut cluster = rdmc_tcp::builder(5).expect("launch").build();
    let group = cluster.create_group(spec((0..5).collect(), Algorithm::BinomialPipeline));
    for _ in 0..4 {
        cluster.submit_send(group, 32 * KB);
    }
    // No run() in between: destroy must drain the concurrent sends
    // itself before judging the history.
    assert!(
        cluster.destroy_group(group),
        "clean history must close clean"
    );
    rdmc_tcp::shutdown(cluster).expect("clean shutdown");
}

/// The close barrier reports an unclean history when a member dies
/// mid-transfer.
#[test]
fn close_barrier_reports_lost_member() {
    let mut cluster = rdmc_tcp::builder(4).expect("launch").build();
    let group = cluster.create_group(spec((0..4).collect(), Algorithm::BinomialPipeline));
    cluster.submit_send(group, 64 * KB);
    cluster.crash_now(2);
    cluster.run();
    assert!(
        !cluster.destroy_group(group),
        "close must report the lost member"
    );
    rdmc_tcp::shutdown(cluster).expect("shutdown still clean after crash");
}

/// Epoch recovery runs over TCP: survivors reconfigure around a crash
/// and later messages reach the new view.
#[test]
fn recovery_reconfigures_over_tcp() {
    let mut cluster = rdmc_tcp::builder(5)
        .expect("launch")
        .recovery(RecoveryConfig {
            grace: SimDuration::from_millis(50),
            ..RecoveryConfig::default()
        })
        .build();
    let group = cluster.create_group(spec((0..5).collect(), Algorithm::BinomialPipeline));
    cluster.submit_send(group, 40 * KB);
    cluster.run();
    cluster.crash_now(1);
    cluster.run();
    cluster.submit_send(group, 24 * KB);
    cluster.run();
    // All-or-nothing delivery across the epoch, on real sockets.
    assert_eq!(cluster.check_run(), Ok(()));
    assert_eq!(cluster.surviving_ranks(group), vec![0, 2, 3, 4]);
    rdmc_tcp::shutdown(cluster).expect("shutdown clean after recovery");
}

/// Repeated launch/shutdown cycles in one process leak nothing: every
/// socket is torn down, every error surfaced, the pump worker a bulk
/// message starts (on a host with a second core) joined, and the next
/// cluster starts clean.
#[test]
fn repeated_launch_shutdown_cycles_are_clean() {
    for round in 0..5 {
        let mut cluster = rdmc_tcp::builder(8).expect("launch").build();
        let group = cluster.create_group(GroupSpec {
            block_size: 256 * KB,
            ready_window: 3,
            max_outstanding_sends: 3,
            ..spec((0..8).collect(), Algorithm::BinomialPipeline)
        });
        cluster.submit_send(group, 4096 * KB);
        cluster.run();
        assert_eq!(cluster.check_run(), Ok(()), "round {round}");
        rdmc_tcp::shutdown(cluster).unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

/// The §4.2 receive-before-send discipline holds on real sockets: no
/// data frame ever arrives before its receive is posted.
#[test]
fn zero_rnr_discipline_over_tcp() {
    let mut cluster = rdmc_tcp::builder(6).expect("launch").build();
    let group = cluster.create_group(spec((0..6).collect(), Algorithm::BinomialPipeline));
    for _ in 0..3 {
        cluster.submit_send(group, 48 * KB);
    }
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    assert_eq!(
        cluster.transport().stats().rnr_arms,
        0,
        "a block arrived before its receive was posted"
    );
    rdmc_tcp::shutdown(cluster).expect("clean shutdown");
}

/// A larger in-process cluster (the event loop carries dozens of nodes
/// without a thread per peer).
#[test]
fn thirty_two_nodes_in_one_process() {
    let mut cluster = rdmc_tcp::builder(32).expect("launch").build();
    let group = cluster.create_group(spec((0..32).collect(), Algorithm::BinomialPipeline));
    cluster.submit_send(group, 128 * KB);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    for r in cluster.message_results() {
        assert!(r.latency().is_some());
    }
    rdmc_tcp::shutdown(cluster).expect("clean shutdown");
}

/// A sender crashes right after its frames were flushed (`SendDone`
/// means flushed to the socket, no more): the survivor still receives
/// every one of them, in order, before its unused receive is flushed
/// and the connection breaks — a completed transfer is a delivered
/// transfer, as on the simulated fabric.
#[test]
fn frames_flushed_before_a_crash_reach_the_survivor_before_the_break() {
    const FRAMES: u64 = 6;
    const LEN: u64 = 512 * KB; // 3 MiB in all: several flush-and-read rounds
    let (sender, survivor) = (NodeId(0), NodeId(1));
    let mut fabric = TcpFabric::launch(2).expect("launch");
    let (tx, rx) = fabric.connect(sender, survivor);
    for i in 0..=FRAMES {
        fabric.post_recv(rx, WrId(100 + i), LEN).expect("post_recv");
    }
    for i in 0..FRAMES {
        fabric
            .post_send(tx, WrId(i), LEN, i, None)
            .expect("post_send");
    }
    let mut flushed = 0;
    let mut survivor_saw = Vec::new();
    while flushed < FRAMES {
        let (_, node, delivery) = fabric.advance().expect("sends still pending");
        match delivery {
            Delivery::SendDone { .. } => flushed += 1,
            other => {
                assert_eq!(node, survivor);
                survivor_saw.push(other);
            }
        }
    }
    fabric.crash(sender);
    while let Some((_, node, delivery)) = fabric.advance() {
        assert_eq!(node, survivor, "dead software observes nothing");
        survivor_saw.push(delivery);
    }
    let summary: Vec<String> = survivor_saw
        .iter()
        .map(|d| match d {
            Delivery::RecvDone {
                wr_id, len, imm, ..
            } => format!("recv {} {len} {imm}", wr_id.0),
            Delivery::WrFlushed { wr_id, recv, .. } => format!("flushed {} {recv}", wr_id.0),
            Delivery::QpBroken { .. } => "broken".to_string(),
            other => format!("{other:?}"),
        })
        .collect();
    let mut expected: Vec<String> = (0..FRAMES)
        .map(|i| format!("recv {} {LEN} {i}", 100 + i))
        .collect();
    expected.push(format!("flushed {} true", 100 + FRAMES));
    expected.push("broken".to_string());
    assert_eq!(summary, expected);
    fabric.shutdown().expect("clean shutdown after a crash");
}

/// A stranger connecting to the fabric's listener ahead of the fabric's
/// own sockets is dropped, not taken for a node: every member still gets
/// the message, and the run is clean.
#[test]
fn a_stray_connection_to_the_listener_wires_no_socket() {
    let fabric = TcpFabric::launch(4).expect("launch");
    let _stray = TcpStream::connect(fabric.local_addr()).expect("a stranger connects");
    let mut cluster = ClusterBuilder::from_transport(fabric).build();
    let group = cluster.create_group(spec((0..4).collect(), Algorithm::BinomialPipeline));
    cluster.submit_send(group, 64 * KB);
    cluster.run();
    for r in cluster.message_results() {
        assert!(r.latency().is_some(), "{r:?}");
    }
    assert_eq!(cluster.check_run(), Ok(()));
    rdmc_tcp::shutdown(cluster).expect("a stranger is no error");
}
