//! Failure chaos for the atomic multicast overlay: crash a sender at
//! *any* protocol step (deterministically indexed by the engine-event
//! counter) and prove every survivor converges on an *identical,
//! gapless* total-order delivery log after the ragged trim — slots are
//! all-or-nothing across the epoch change, the trace oracle's ordering
//! rule holds throughout, and reruns are bit-for-bit deterministic.

use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, SimCluster};
use simnet::{JitterModel, SimDuration};

const BLOCK: u64 = 64 << 10;

fn atomic_spec(n: usize) -> GroupSpec {
    GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    }
}

/// One atomic chaos run: an `n`-member atomic group with recovery on,
/// `count` two-block messages rotating through the senders, optional
/// jitter, and an optional crash of `victim` just before engine event
/// `step`.
fn atomic_run(
    n: usize,
    count: usize,
    crash: Option<(usize, u64)>,
    jitter_seed: Option<u64>,
) -> SimCluster {
    let mut builder = ClusterBuilder::new(ClusterSpec::fractus(n))
        .flight_recorder()
        .recovery(RecoveryConfig::default())
        .atomic(atomic_spec(n));
    if let Some(seed) = jitter_seed {
        for node in 0..n {
            builder = builder.jitter(
                node,
                JitterModel::new(
                    seed ^ node as u64,
                    0.02,
                    SimDuration::from_micros(20),
                    SimDuration::from_micros(200),
                ),
            );
        }
    }
    let mut cluster = builder.build();
    if let Some((victim, step)) = crash {
        cluster.crash_after_events(victim, step);
    }
    for _ in 0..count {
        cluster.submit_atomic(0, 2 * BLOCK);
    }
    cluster.run();
    cluster
}

/// Every atomic chaos run ends with a clean verdict
/// ([`SimCluster::check_run`]) and exactly the victim evicted.
fn assert_only_victim_evicted(cluster: &SimCluster, n: usize, victim: usize) {
    assert_eq!(cluster.check_run(), Ok(()));
    let others: Vec<usize> = (0..n).filter(|&m| m != victim).collect();
    assert_eq!(
        cluster.atomic_live_members(0),
        others,
        "exactly the victim was evicted"
    );
}

/// Exhaustive mini-sweep: a 4-member atomic group, crashing *every*
/// sender (each member is one) at *every* protocol step of the
/// failure-free run.
#[test]
fn every_sender_crashing_at_every_step_converges() {
    let (n, count) = (4usize, 4usize);
    let total = atomic_run(n, count, None, None).events_fed();
    assert!(total > 0);
    for victim in 0..n {
        for step in 0..total {
            let cluster = atomic_run(n, count, Some((victim, step)), None);
            assert!(
                !cluster.recovery_stats().reconfigurations.is_empty(),
                "victim {victim} step {step}: no reconfiguration happened"
            );
            assert_only_victim_evicted(&cluster, n, victim);
        }
    }
}

/// A crash run is bit-for-bit deterministic: identical parameters give
/// identical state digests (virtual time makes the whole
/// crash/trim/redelivery path replayable).
#[test]
fn crash_runs_are_deterministic() {
    let digest = |_: ()| atomic_run(5, 5, Some((2, 37)), Some(11)).state_digest();
    assert_eq!(digest(()), digest(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash any sender at any protocol step for n up to 8, with random
    /// scheduling jitter: survivors always converge on identical
    /// gapless logs, and a rerun with identical parameters is
    /// identical.
    #[test]
    fn crash_any_sender_at_any_step_converges(
        n in prop::sample::select(vec![3usize, 4, 5, 6, 8]),
        count in prop::sample::select(vec![3usize, 5, 7]),
        victim_sel in any::<prop::sample::Index>(),
        step_sel in any::<prop::sample::Index>(),
        jitter_seed in any::<u64>(),
    ) {
        let total = atomic_run(n, count, None, Some(jitter_seed)).events_fed();
        prop_assert!(total > 0);
        let victim = victim_sel.index(n);
        let step = step_sel.index(total as usize) as u64;
        let cluster = atomic_run(n, count, Some((victim, step)), Some(jitter_seed));
        prop_assert!(
            !cluster.recovery_stats().reconfigurations.is_empty(),
            "victim {victim} step {step}: no reconfiguration happened"
        );
        assert_only_victim_evicted(&cluster, n, victim);
        let again = atomic_run(n, count, Some((victim, step)), Some(jitter_seed));
        prop_assert_eq!(cluster.state_digest(), again.state_digest(), "rerun diverged");
    }
}
