//! Derecho-style atomic delivery on top of RDMC (paper §1 and §4.6):
//! "RDMC can also be extended to offer stronger semantics... receivers
//! buffer messages and exchange status information. Delivery occurs when
//! RDMC messages are known to have reached all destinations. No loss of
//! bandwidth is experienced, and the added delay is surprisingly small."
//!
//! This example measures exactly that trade on the simulated fabric: the
//! same message stream with plain RDMC delivery vs stability-gated
//! delivery.
//!
//! ```sh
//! cargo run --release --example atomic_broadcast
//! ```

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};

const MB: u64 = 1 << 20;
const MESSAGES: usize = 10;
const SIZE: u64 = 16 * MB;

fn run(atomic: bool) -> (f64, f64) {
    let builder = ClusterBuilder::new(ClusterSpec::fractus(8));
    let spec = GroupSpec {
        members: (0..8).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    };
    // End-to-end: last relevant delivery across all members.
    let end = if atomic {
        // The paper's single-sender setting: an atomic group with every
        // submission pinned to member 0 (the other members' rotation
        // slots are elided as nulls).
        let mut cluster = builder.atomic(spec).build();
        for _ in 0..MESSAGES {
            cluster.submit_atomic_from(0, 0, SIZE);
        }
        cluster.run();
        (0..8)
            .flat_map(|m| cluster.atomic_log(0, m).iter().map(|d| d.at))
            .max()
    } else {
        let mut cluster = builder.build();
        let group = cluster.create_group(spec);
        for _ in 0..MESSAGES {
            cluster.submit_send(group, SIZE);
        }
        cluster.run();
        cluster.last_delivery()
    }
    .expect("deliveries")
    .as_secs_f64();
    let goodput = (MESSAGES as f64 * SIZE as f64 * 8.0) / end / 1e9;
    (end * 1e3, goodput)
}

fn main() {
    println!(
        "streaming {MESSAGES} x {} MB through an 8-node binomial pipeline\n",
        SIZE / MB
    );
    let (plain_ms, plain_bw) = run(false);
    let (stable_ms, stable_bw) = run(true);
    println!("plain RDMC delivery : {plain_ms:8.2} ms end-to-end  ({plain_bw:5.1} Gb/s)");
    println!("atomic  (stability) : {stable_ms:8.2} ms end-to-end  ({stable_bw:5.1} Gb/s)");
    println!(
        "\nstability tax: {:.2}% — the paper's \"surprisingly small\" added\n\
         delay, bought with batched SST frontier-row writes and no extra data multicast.",
        100.0 * (stable_ms / plain_ms - 1.0)
    );
    assert!(stable_ms >= plain_ms);
}
