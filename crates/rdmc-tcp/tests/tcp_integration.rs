//! The TCP backend as a raw fabric: repeated launch and shutdown in one
//! process, frames flushed before a crash reaching the survivor ahead of
//! the break, a stranger on the fabric's listener, and a fabric of no
//! nodes refused. Cluster-level scenarios run on both transports in the
//! root `transport_equivalence` matrix.

use std::io;
use std::net::TcpStream;

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, GroupSpec};
use rdmc_tcp::TcpFabric;
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

/// A fabric of no nodes is an `InvalidInput` error, not a panic, through
/// both entry points.
#[test]
fn launching_no_nodes_is_an_error() {
    let refused = Err(io::ErrorKind::InvalidInput);
    assert_eq!(
        TcpFabric::launch(0).map(drop).map_err(|e| e.kind()),
        refused
    );
    assert_eq!(
        rdmc_tcp::builder(0).map(drop).map_err(|e| e.kind()),
        refused
    );
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
