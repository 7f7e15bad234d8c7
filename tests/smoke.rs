//! Tier-1 smoke: one fast case per `Cluster` concern module (`atomic`
//! with `pacer`, `reconfig`, `reliability`) plus the core and the §4.6
//! SST multicast over real TCP sockets, so the root package's `cargo test` executes every module the
//! per-crate suites (`cargo test --workspace`) check in depth — and the
//! "fig4/fig8 byte-identity" gate, run in-process against the `report`
//! golden.

use rdmc::Algorithm;
use rdmc_sim::{
    AtomicDelivery, ClusterBuilder, ClusterSpec, GroupSpec, PacerConfig, PacingPolicy,
    RecoveryConfig, ReliabilityPolicy, SimCluster,
};
use simnet::{FaultProfile, LinkFault, SimTime};
use verbs::Transport;

const KB: u64 = 1 << 10;

fn spec(n: usize) -> GroupSpec {
    GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: 16 * KB,
        ready_window: 2,
        max_outstanding_sends: 2,
    }
}

/// The time-free part of a delivery log entry.
fn order(log: &[AtomicDelivery]) -> Vec<(u64, u32, u64, u64)> {
    log.iter()
        .map(|d| (d.slot, d.sender, d.seq, d.size))
        .collect()
}

#[test]
fn atomic_groups_log_identically_rotated_and_pinned() {
    let sizes = [64 * KB, 16 * KB, 100 * KB, 1, 48 * KB, 32 * KB];
    // Group 0 rotates the sender role; group 1 pins it to member 2. One
    // admission slot per NIC makes their eight subgroups queue.
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4))
        .pacing(PacerConfig::new(1, PacingPolicy::RoundRobin))
        .atomic(spec(4))
        .atomic(spec(4))
        .build();
    for &size in &sizes {
        cluster.submit_atomic(0, size);
        cluster.submit_atomic_from(1, 2, size);
    }
    cluster.run();
    for ag in [0, 1] {
        let reference = order(cluster.atomic_log(ag, 0));
        let got: Vec<u64> = reference.iter().map(|&(_, _, _, size)| size).collect();
        assert_eq!(got, sizes, "group {ag}: not the submission order");
        assert!(reference.windows(2).all(|w| w[0].0 < w[1].0));
        for member in 1..4 {
            assert_eq!(order(cluster.atomic_log(ag, member)), reference);
        }
    }
    assert!(cluster.atomic_log(1, 0).iter().all(|d| d.sender == 2));
    // Gapless: every slot is a delivered message or an elided null, none
    // was trimmed.
    assert_eq!(cluster.atomic_num_slots(0), sizes.len() as u64);
    assert!(cluster.atomic_trimmed_slots(1).is_empty());
    assert!(cluster.pacing_stats().expect("pacing on").deferred_sends > 0);
}

fn crash_and_recover() -> SimCluster {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(5))
        .recovery(RecoveryConfig::default())
        .build();
    let group = cluster.create_group(spec(5));
    for _ in 0..3 {
        cluster.submit_send(group, 40 * 16 * KB);
    }
    cluster.schedule_crash_at(3, SimTime::from_nanos(60_000));
    cluster.run();
    assert_eq!(cluster.surviving_ranks(group), [0, 1, 2, 4]);
    assert_eq!(cluster.check_run(), Ok(()));
    cluster
}

#[test]
fn crash_recovery_resumes_and_reruns_identically() {
    let first = crash_and_recover();
    let stats = first.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    assert!(stats.reconfigurations[0].abandoned.is_empty());
    assert_eq!(first.state_digest(), crash_and_recover().state_digest());
}

#[test]
fn erasure_policy_repairs_a_lossy_wan() {
    let fabric = ClusterSpec::geo(4).build();
    let mut profile = FaultProfile::new(7);
    for link in fabric.topology().wan_links() {
        profile.set_link(link, LinkFault::lossy(0.05));
    }
    let mut cluster = ClusterBuilder::from_transport(fabric)
        .fault_profile(profile)
        .recovery(RecoveryConfig::default())
        .reliability(ReliabilityPolicy::erasure(2, 1))
        .build();
    let mut group_spec = spec(4);
    group_spec.ready_window = 4;
    let group = cluster.create_group(group_spec);
    let id = cluster.submit_send(group, 64 * 16 * KB);
    cluster.run();
    assert!(cluster.transport().stats().payload_drops > 0, "no loss");
    let stats = cluster.reliability_stats();
    assert!(stats.parity_writes_sent > 0);
    assert!(stats.parity_repairs + stats.repairs_received > 0);
    assert_eq!(stats.escalations, 0);
    assert!(cluster.result(id).expect("submitted").latency().is_some());
}

#[test]
fn tcp_multicast_delivers_and_shuts_down_clean() {
    let mut cluster = rdmc_tcp::builder(4).expect("loopback sockets").build();
    let group = cluster.create_group(spec(4));
    let ids = [100 * KB, 1, 33 * KB + 5].map(|size| cluster.submit_send(group, size));
    assert!(cluster.destroy_group(group), "delivery not certified");
    for id in ids {
        let result = cluster.result(id).expect("submitted");
        assert!(result.latency().is_some());
    }
    assert_eq!(cluster.check_run(), Ok(()));
    rdmc_tcp::shutdown(cluster).expect("no deferred socket error");
}

#[test]
fn sst_multicast_completes_over_tcp() {
    let fabric = rdmc_tcp::TcpFabric::launch(4).expect("loopback sockets");
    let mut sst = sst::SstMulticast::new(fabric, &[0, 1, 2, 3], 16);
    for _ in 0..100 {
        sst.submit(KB);
    }
    sst.run();
    assert_eq!(sst.results().len(), 100);
    assert!(sst.results().iter().all(|r| r.completed.is_some()));
}

/// Fig. 4 and Fig. 8 at `--quick` size must equal their blocks of the
/// `report` golden. Only these two are pinned from inside a test
/// process: `scale`'s counts are process-wide `verbs::perf` deltas, exact
/// in `report` (one section at a time) but not beside other tests.
#[test]
fn fig4_and_fig8_match_the_report_golden() {
    use rdmc_bench::experiments::{fig4_latency, fig8_scalability};
    let golden = include_str!("../crates/bench/tests/golden/report_quick.txt");
    let figures = [
        ("fig4", fig4_latency(true)),
        ("fig8", fig8_scalability(true)),
    ];
    for (name, table) in figures {
        let rule = format!("==================== {name} ====================");
        let want: Vec<&str> = golden
            .lines()
            .skip_while(|l| *l != rule)
            .skip(1)
            .take_while(|l| !l.starts_with("==================== "))
            .collect();
        assert!(!want.is_empty(), "the golden has no {name} block");
        let text = table + "\n"; // `report` prints each table with println!
        let got: Vec<&str> = text.lines().collect();
        let differs = got
            .iter()
            .zip(&want)
            .position(|(a, b)| a != b)
            .or_else(|| (got.len() != want.len()).then(|| got.len().min(want.len())));
        if let Some(i) = differs {
            panic!(
                "{name} diverged from its golden block at line {}:\n  got:  {}\n  want: {}",
                i + 1,
                got.get(i).unwrap_or(&"<end of table>"),
                want.get(i).unwrap_or(&"<end of block>")
            );
        }
    }
}
