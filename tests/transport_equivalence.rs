//! The standing transport-equivalence gate: the same protocol
//! orchestration runs over the simulated verbs fabric and over real TCP
//! sockets, and the two must agree **bit-for-bit** on *what* happened —
//! the engine event logs and the delivery digests — leaving only *when*
//! to the fabric.
//!
//! Raw engine logs interleave differently across transports (wall-clock
//! completion timing is not virtual-time completion timing), but RDMC's
//! §4.2 design makes each *channel* deterministic: per (group, rank,
//! event class, peer) the sequence of events is fixed by the block
//! schedule and the per-connection FIFO guarantee. Canonicalizing the
//! log per channel therefore yields a transport-independent fingerprint
//! that any lost, duplicated, reordered, or misrouted event breaks.
//!
//! On mismatch each test writes both canonical logs under
//! `target/transport_equivalence/` so CI can upload them as artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rdmc::engine::Event;
use rdmc::{Algorithm, Rank};
use rdmc_sim::{
    Cluster, ClusterBuilder, ClusterSpec, EngineLogEntry, GroupId, GroupSpec, PacerConfig,
    PacingPolicy, RecoveryConfig,
};
use simnet::SimDuration;
use verbs::Transport;

const KB: u64 = 1 << 10;
const BLOCK: u64 = 16 * KB;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Sequential,
    Algorithm::Chain,
    Algorithm::BinomialTree,
    Algorithm::BinomialPipeline,
];

fn spec(n: usize, algorithm: Algorithm) -> GroupSpec {
    GroupSpec {
        members: (0..n).collect(),
        algorithm,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    }
}

/// Collapses an engine log into its per-channel canonical form: one
/// line per (group, rank, class, peer) channel listing that channel's
/// events in log order. Within a channel the order is fixed by the
/// protocol, so equal canonical logs mean equal protocol executions.
fn canonicalize(log: &[EngineLogEntry]) -> String {
    let mut channels: BTreeMap<(GroupId, Rank, &'static str, i64), Vec<String>> = BTreeMap::new();
    for entry in log {
        let (class, peer, detail) = match entry.event {
            Event::StartSend { size } => ("start", -1, format!("{size}")),
            Event::BlockReceived { from, total_size } => {
                ("block", i64::from(from), format!("{total_size}"))
            }
            Event::ReadyReceived { from } => ("ready", i64::from(from), String::new()),
            Event::SendCompleted { to } => ("sendc", i64::from(to), String::new()),
            Event::PeerFailed { rank } => ("fail", i64::from(rank), String::new()),
        };
        channels
            .entry((entry.group, entry.rank, class, peer))
            .or_default()
            .push(detail);
    }
    let mut out = String::new();
    for ((group, rank, class, peer), events) in channels {
        let _ = writeln!(
            out,
            "g{group} r{rank} {class} p{peer} n{} [{}]",
            events.len(),
            events.join(",")
        );
    }
    out
}

/// Time-free delivery digest: which message reached which of the
/// `members` original ranks, per group in send order — the observable
/// the paper's reliability claims are about.
fn delivery_digest<T: Transport>(cluster: &Cluster<T>, members: usize) -> String {
    let mut out = String::new();
    for r in cluster.message_results() {
        let delivered: String = (0..members)
            .map(|o| if r.delivered(o) { 'y' } else { 'n' })
            .collect();
        let _ = writeln!(
            out,
            "g{} i{} size={} delivered={delivered}",
            r.group, r.index, r.size
        );
    }
    out
}

/// Asserts both fingerprints match, dumping them for CI on divergence.
fn assert_equivalent(name: &str, sim: &(String, String), tcp: &(String, String)) {
    if sim == tcp {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/transport_equivalence");
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(
        dir.join(format!("{name}.sim.log")),
        format!("{}{}", sim.0, sim.1),
    );
    let _ = std::fs::write(
        dir.join(format!("{name}.tcp.log")),
        format!("{}{}", tcp.0, tcp.1),
    );
    assert_eq!(
        sim, tcp,
        "{name}: transports diverged (canonical logs dumped to target/transport_equivalence/)"
    );
}

/// One mixed-size multicast workload, returning the canonical engine
/// log and the delivery digest.
fn plain_workload<T: Transport>(mut cluster: Cluster<T>, algorithm: Algorithm) -> (String, String) {
    let group = cluster.create_group(spec(5, algorithm));
    for size in [4 * BLOCK, 1, 6 * BLOCK + 17] {
        cluster.submit_send(group, size);
    }
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()), "workload");
    (
        canonicalize(cluster.engine_log()),
        delivery_digest(&cluster, 5),
    )
}

/// All four algorithms: identical engine event logs and delivery
/// digests over simulated verbs and over real TCP.
#[test]
fn all_algorithms_equivalent_across_transports() {
    for algorithm in ALGORITHMS {
        let sim = plain_workload(
            ClusterBuilder::new(ClusterSpec::fractus(5))
                .engine_log()
                .build(),
            algorithm.clone(),
        );
        let tcp = plain_workload(
            rdmc_tcp::builder(5)
                .expect("tcp launch")
                .engine_log()
                .build(),
            algorithm.clone(),
        );
        assert_equivalent(&format!("plain_{algorithm:?}"), &sim, &tcp);
    }
}

/// Pacer admission (FIFO, bounded inflight) composes identically with
/// both transports.
fn paced_workload<T: Transport>(mut cluster: Cluster<T>) -> (String, String) {
    let group = cluster.create_group(spec(4, Algorithm::BinomialPipeline));
    for _ in 0..3 {
        cluster.submit_send(group, 5 * BLOCK);
    }
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()), "paced workload");
    (
        canonicalize(cluster.engine_log()),
        delivery_digest(&cluster, 4),
    )
}

#[test]
fn paced_workload_equivalent_across_transports() {
    let pacing = PacerConfig::new(1, PacingPolicy::Fifo);
    let sim = paced_workload(
        ClusterBuilder::new(ClusterSpec::fractus(4))
            .engine_log()
            .pacing(pacing)
            .build(),
    );
    let tcp = paced_workload(
        rdmc_tcp::builder(4)
            .expect("tcp launch")
            .engine_log()
            .pacing(pacing)
            .build(),
    );
    assert_equivalent("paced_fifo", &sim, &tcp);
}

/// The crash/recovery case: a message completes, a non-root member
/// fail-stops at quiescence, epoch recovery reconfigures, and a second
/// message reaches the survivors — identically on both transports.
fn recovery_workload<T: Transport>(mut cluster: Cluster<T>) -> (String, String) {
    let group = cluster.create_group(spec(5, Algorithm::BinomialPipeline));
    cluster.submit_send(group, 4 * BLOCK);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()), "first message");

    cluster.crash_now(3);
    cluster.run(); // detection, gossip, epoch agreement, reconfiguration

    cluster.submit_send(group, 3 * BLOCK);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()), "survivors");
    assert_eq!(
        cluster.surviving_ranks(group),
        vec![0, 1, 2, 4],
        "recovery installed the wrong view"
    );
    (
        canonicalize(cluster.engine_log()),
        delivery_digest(&cluster, 5),
    )
}

#[test]
fn crash_recovery_equivalent_across_transports() {
    // A generous grace keeps wall-clock failure detection (TCP) and
    // virtual-time detection (sim) on the same side of every protocol
    // deadline.
    let recovery = RecoveryConfig {
        grace: SimDuration::from_millis(100),
        ..RecoveryConfig::default()
    };
    let sim = recovery_workload(
        ClusterBuilder::new(ClusterSpec::fractus(5))
            .engine_log()
            .recovery(recovery.clone())
            .build(),
    );
    let tcp = recovery_workload(
        rdmc_tcp::builder(5)
            .expect("tcp launch")
            .engine_log()
            .recovery(recovery)
            .build(),
    );
    assert_equivalent("crash_recovery", &sim, &tcp);
}
