//! RDMC over plain TCP (the paper's §5.3 direction): an in-process
//! cluster of real sockets streaming a sequence of large messages
//! through the binomial pipeline — the same `ClusterBuilder` API as the
//! simulated fabric, backed by one nonblocking event loop — finishing
//! with the §4.6 close barrier and a clean socket teardown.
//!
//! ```sh
//! cargo run --release --example tcp_multicast
//! ```

use std::time::Instant;

use rdmc::Algorithm;
use rdmc_sim::GroupSpec;

const NODES: usize = 5;
const MESSAGES: usize = 8;
const SIZE: u64 = 4 << 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cluster = rdmc_tcp::builder(NODES)?.build();
    let group = cluster.create_group(GroupSpec {
        members: (0..NODES).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: 256 << 10,
        ready_window: 3,
        max_outstanding_sends: 3,
    });

    let start = Instant::now();
    for _ in 0..MESSAGES {
        cluster.submit_send(group, SIZE);
    }
    cluster.run();
    let elapsed = start.elapsed().as_secs_f64();

    let results = cluster.message_results();
    assert_eq!(results.len(), MESSAGES);
    for r in &results {
        assert!(r.latency().is_some(), "message {} missed a member", r.index);
    }
    let goodput = (MESSAGES as u64 * SIZE) as f64 * 8.0 / elapsed / 1e9;
    println!(
        "{} x {} MB to {} receivers over loopback TCP in {:.2}s ({:.2} Gb/s goodput)",
        MESSAGES,
        SIZE >> 20,
        NODES - 1,
        elapsed,
        goodput
    );

    // A successful close certifies every message reached every member.
    assert!(cluster.destroy_group(group), "close barrier must be clean");
    rdmc_tcp::shutdown(cluster)?;
    println!("all messages delivered; group closed cleanly");
    Ok(())
}
