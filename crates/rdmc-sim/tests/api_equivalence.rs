//! Build determinism for the [`ClusterBuilder`] API: two
//! identically-configured builds must run identically, however many
//! node-targeted knobs the one-shot builder carried.
//!
//! 1. a jittered, completion-mode-mixed run of two overlapping groups
//!    produces the same full flight recording and final virtual time;
//! 2. a crash/recovery run under jitter produces the same digest (events
//!    fed, final time, reconfiguration records, per-rank delivery times,
//!    full trace export).
//!
//! The checked-in golden traces are `tests/golden_traces.rs`'s to hold.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, SimCluster};
use simnet::{JitterModel, SimDuration};
use verbs::{CompletionMode, Transport};

const BLOCK: u64 = 64 << 10;

/// A jittered, completion-mode-mixed, two-group run.
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
    assert!(cluster.all_quiescent());
    (
        trace::export::to_jsonl(&recorder.events()),
        cluster.transport().now().as_nanos(),
    )
}

/// Two identically-configured builds produce identical flight
/// recordings: node-targeted knobs (jitter, completion modes) land
/// deterministically regardless of the builder being a one-shot value.
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
    let build = || {
        let mut builder = ClusterBuilder::new(ClusterSpec::fractus(6))
            .flight_recorder(trace::Mode::Full)
            .completion_mode(1, CompletionMode::Interrupt)
            .completion_mode(4, CompletionMode::Hybrid);
        for node in 0..6u64 {
            builder = builder.jitter(node as usize, jitter(node));
        }
        builder.build()
    };

    let (trace_a, t_a) = overlapping_run(build());
    let (trace_b, t_b) = overlapping_run(build());

    assert_eq!(trace_a, trace_b, "flight recordings diverged");
    assert_eq!(t_a, t_b, "final virtual times diverged");
}

/// A crash/recovery run under jitter, digested: events fed, final
/// virtual time, full trace export, reconfiguration records, and
/// per-rank delivery times.
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
    assert!(cluster.live_quiescent(), "survivors failed to quiesce");

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
        digest.push_str(&format!(
            "msg group={} index={} delivered_at={:?}\n",
            r.group, r.index, r.delivered_at
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
            .flight_recorder(trace::Mode::Full)
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
