//! Failure handling end-to-end (paper §3 property 6 and §4.6): a node
//! crashes mid-transfer on the simulated fabric; every survivor learns of
//! the failure and the group wedges. The application then does what the
//! paper prescribes: destroy the group, re-create it among the survivors,
//! and retry the transfer.
//!
//! ```sh
//! cargo run --release --example failure_recovery
//! ```

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};
use simnet::SimTime;

const MB: u64 = 1 << 20;

fn group_spec(members: Vec<usize>) -> GroupSpec {
    GroupSpec {
        members,
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    }
}

fn main() {
    // Attempt 1: node 5 dies 2 ms into a 256 MB transfer.
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(8)).build();
    let group = cluster.create_group(group_spec((0..8).collect()));
    cluster.submit_send(group, 256 * MB);
    cluster.schedule_crash_at(5, SimTime::from_nanos(2_000_000));
    cluster.run();

    let wedged = cluster.wedged_members(group);
    println!("node 5 crashed mid-transfer; members that learned of it: {wedged:?}");
    assert_eq!(wedged.len(), 7, "every survivor must wedge");
    let failed = &cluster.message_results()[0];
    assert!(
        failed.latency().is_none(),
        "the disrupted multicast must not complete everywhere"
    );
    let got = (0..8).filter(|&o| failed.delivered(o)).count();
    println!("first attempt aborted ({got}/8 members had completed)");

    // Recovery: close the broken group, re-form among survivors, resend.
    // (On the simulated fabric "destroy + recreate" is simply a new group;
    // the TCP transport's destroy_group would return false here,
    // reporting the failure, per §4.6.)
    let survivors: Vec<usize> = (0..8).filter(|&n| n != 5).collect();
    let retry = cluster.create_group(group_spec(survivors));
    cluster.submit_send(retry, 256 * MB);
    cluster.run();
    let result = cluster
        .message_results()
        .into_iter()
        .find(|r| r.group == retry)
        .expect("retry recorded");
    let latency = result.latency().expect("retry completes on survivors");
    println!(
        "retry on the 7 survivors completed in {} ({:.1} Gb/s)",
        latency,
        result.bandwidth_gbps().expect("completed"),
    );
}
