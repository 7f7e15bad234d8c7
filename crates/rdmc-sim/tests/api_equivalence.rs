//! Build determinism for the [`ClusterBuilder`] API: two
//! identically-configured builds must run identically, however many
//! node-targeted knobs the one-shot builder carried and in whatever
//! order its methods were called.
//!
//! 1. a jittered, paced run of two overlapping groups produces the same
//!    full flight recording and final virtual time from two builds that
//!    declare the same knobs in different orders;
//! 2. a crash/recovery run under jitter produces the same digest (events
//!    fed, final time, reconfiguration records, per-rank delivery times,
//!    full trace export).
//!
//! The checked-in golden traces are `tests/golden_traces.rs`'s to hold.

use std::sync::{Arc, Mutex};

use rdmc::Algorithm;
use rdmc_sim::{
    ClusterBuilder, ClusterSpec, GroupSpec, PacerConfig, PacingPolicy, RecoveryConfig, SimCluster,
};
use simnet::{JitterModel, SimDuration};
use verbs::{ChoicePoint, Scheduler, SharedScheduler, Transport};

const BLOCK: u64 = 64 << 10;

/// A jittered two-group run.
fn overlapping_run(mut cluster: SimCluster) -> (String, u64) {
    let recorder = cluster.recorder().clone();
    let g0 = cluster.create_group(GroupSpec {
        members: vec![0, 1, 2, 3, 4],
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    let g1 = cluster.create_group(GroupSpec {
        members: vec![3, 4, 5],
        algorithm: Algorithm::Chain,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    cluster.submit_send(g0, 6 * BLOCK);
    cluster.submit_send(g1, 3 * BLOCK);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    (
        trace::export::to_jsonl(&recorder.events()),
        cluster.transport().now().as_nanos(),
    )
}

/// The default tie-break, spelled as a scheduler.
struct FirstEnabled;

impl Scheduler for FirstEnabled {
    fn choose(&mut self, _: &ChoicePoint<'_>) -> usize {
        0
    }
}

/// Two identically-configured builds produce identical flight
/// recordings, whatever order the knobs were declared in: each builder
/// method writes its own field of the cluster, so node-targeted knobs
/// (jitter) and cluster-wide ones (recorder, recovery, pacing,
/// scheduler) land the same way first or last.
#[test]
fn jittered_builds_are_deterministic() {
    let jitter = |node: u64| {
        JitterModel::new(
            0xBEEF ^ node,
            0.02,
            SimDuration::from_micros(20),
            SimDuration::from_micros(200),
        )
    };
    let node_knobs = |mut builder: ClusterBuilder| {
        for node in 0..6u64 {
            builder = builder.jitter(node as usize, jitter(node));
        }
        builder
    };
    let spec = || ClusterBuilder::new(ClusterSpec::fractus(6));
    let pacing = PacerConfig::new(2, PacingPolicy::RoundRobin);
    let scheduler = || -> SharedScheduler { Arc::new(Mutex::new(FirstEnabled)) };
    let declared = node_knobs(spec().flight_recorder())
        .recovery(RecoveryConfig::default())
        .pacing(pacing)
        .scheduler(scheduler())
        .build();
    let reordered = node_knobs(
        spec()
            .scheduler(scheduler())
            .pacing(pacing)
            .recovery(RecoveryConfig::default()),
    )
    .flight_recorder()
    .build();

    let (trace_a, t_a) = overlapping_run(declared);
    let (trace_b, t_b) = overlapping_run(reordered);

    assert_eq!(trace_a, trace_b, "flight recordings diverged");
    assert_eq!(t_a, t_b, "final virtual times diverged");
}

/// A crash/recovery run under jitter, digested: events fed, final
/// virtual time, full trace export (which carries every delivery's
/// time), reconfiguration records, and each message's completion time
/// and per-rank delivered bits.
fn chaos_digest(mut cluster: SimCluster) -> String {
    let recorder = cluster.recorder().clone();
    let group = cluster.create_group(GroupSpec {
        members: (0..6).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    cluster.crash_after_events(2, 40);
    cluster.submit_send(group, 5 * BLOCK);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));

    let mut digest = String::new();
    digest.push_str(&format!(
        "events_fed={} now_ns={}\n",
        cluster.events_fed(),
        cluster.transport().now().as_nanos()
    ));
    for r in &cluster.recovery_stats().reconfigurations {
        digest.push_str(&format!(
            "epoch={} survivors={:?} installed_at={:?} resumed={} abandoned={:?}\n",
            r.epoch, r.survivors, r.installed_at, r.resumed_blocks, r.abandoned
        ));
    }
    for r in cluster.message_results() {
        let delivered: Vec<bool> = (0..6).map(|o| r.delivered(o)).collect();
        digest.push_str(&format!(
            "msg group={} index={} completed={:?} delivered={delivered:?}\n",
            r.group, r.index, r.completed
        ));
    }
    digest.push_str(&trace::export::to_jsonl(&recorder.events()));
    digest
}

#[test]
fn recovery_chaos_digest_is_deterministic() {
    let jitter = |node: u64| {
        JitterModel::new(
            0x5EED ^ node,
            0.02,
            SimDuration::from_micros(20),
            SimDuration::from_micros(200),
        )
    };
    let build = || {
        let mut builder = ClusterBuilder::new(ClusterSpec::fractus(6))
            .flight_recorder()
            .recovery(RecoveryConfig::default());
        for node in 0..6u64 {
            builder = builder.jitter(node as usize, jitter(node));
        }
        builder.build()
    };

    let a = chaos_digest(build());
    let b = chaos_digest(build());

    assert_eq!(a, b, "chaos digests diverged between identical builds");
}
