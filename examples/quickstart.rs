//! Quickstart: one multicast over the simulated RDMA fabric, and the same
//! multicast — same builder, same group API — over real loopback TCP.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};

const MB: u64 = 1 << 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Simulated RDMA: 8 nodes on a 100 Gb/s switch. -------------
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(8)).build();
    let group = cluster.create_group(GroupSpec {
        members: (0..8).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, 64 * MB);
    cluster.run();
    let result = &cluster.message_results()[0];
    println!(
        "simulated RDMA: 64 MB to 7 receivers in {} ({:.1} Gb/s)",
        result.latency().expect("completed"),
        result.bandwidth_gbps().expect("completed"),
    );

    // ---- 2. Real TCP sockets: same API, different transport. -----------
    let mut tcp = rdmc_tcp::builder(4)?.flight_recorder().build();
    let group = tcp.create_group(GroupSpec {
        members: vec![0, 1, 2, 3],
        algorithm: Algorithm::BinomialPipeline,
        block_size: 256 << 10,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    tcp.submit_send(group, 4 * MB);
    tcp.run();
    // A completed record keeps only the last member's time; each
    // member's is in the flight recorder (member i is node i).
    let replayed = trace::replay::replay(&tcp.recorder().events());
    for member in 0..4u32 {
        let (t_ns, _) = replayed.delivered[&(group as u32, member)][0];
        println!(
            "TCP: member {member} completed at {}",
            simnet::SimTime::from_nanos(t_ns)
        );
    }
    // A successful close certifies every message reached every member.
    assert!(tcp.destroy_group(group), "close barrier must report clean");
    rdmc_tcp::shutdown(tcp)?;
    println!("TCP group closed cleanly: delivery certified");
    Ok(())
}
