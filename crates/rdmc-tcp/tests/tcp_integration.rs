//! The TCP backend as a raw fabric: repeated launch and shutdown in one
//! process, a stranger on the fabric's listener, and a fabric of no
//! nodes refused. The verbs' contract runs on every backend in the root
//! `transport_contract` suite, cluster-level scenarios in the root
//! `transport_equivalence` matrix and `crash_sweep`.

use std::io;
use std::net::TcpStream;

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, GroupSpec};
use rdmc_tcp::TcpFabric;

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
