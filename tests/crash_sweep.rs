//! The crash sweep: crash a member at *any* protocol step (indexed by
//! the engine-event counter) and prove the cluster converges — one
//! verdict ([`Cluster::check_run`]: survivors quiescent in one epoch,
//! every message at all survivors or none, identical gapless atomic
//! logs, the trace oracle's rules, no RNR arm) and exactly the victim
//! gone.
//!
//! The runner the transport matrix also uses (`support`) drives both
//! shapes, a plain group's `k`-block message and an atomic group's
//! `count` messages, over any transport. The
//! exhaustive sweeps (every member crashed at every step of the
//! failure-free run) run on all three backends: the simulated fabric,
//! real TCP sockets over loopback, where a `SendDone` only means
//! "flushed to the socket", and the same TCP datapath over in-process
//! pipes (`MemNet`), where a flushed frame waits for its reader on every
//! lap. Jitter and bit-for-bit reruns are simulator properties, so the
//! soak and the jittered proptests run on `Fabric` alone.

mod support;

use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{Cluster, ClusterBuilder, ClusterSpec};
use simnet::{JitterModel, SimDuration};
use support::{close, mem, sim, spec, tcp, Setup, KB};
use verbs::{Fabric, Transport};

const BLOCK: u64 = 64 * KB;

/// What a run multicasts over every node.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One `k`-block message on a plain group.
    Plain { k: u64 },
    /// `count` two-block messages rotating through an atomic group's
    /// senders.
    Atomic { count: usize },
}

/// A simulated cluster of `n` nodes, each with scheduling jitter.
fn jittered(n: usize, seed: u64, probability: f64) -> ClusterBuilder<Fabric> {
    (0..n).fold(ClusterBuilder::new(ClusterSpec::fractus(n)), |b, node| {
        let jitter = JitterModel::new(
            seed ^ node as u64,
            probability,
            SimDuration::from_micros(20),
            SimDuration::from_micros(200),
        );
        b.jitter(node, jitter)
    })
}

/// One run with recovery and the flight recorder on: `shape` over the
/// `n` nodes of `builder`'s transport, and an optional crash of
/// `victim` just before engine event `step`.
fn run<T: Transport>(
    builder: ClusterBuilder<T>,
    n: usize,
    shape: Shape,
    crash: Option<(usize, u64)>,
) -> Cluster<T> {
    let group = spec(0..n, Algorithm::BinomialPipeline, BLOCK, 2);
    let setup = match shape {
        Shape::Plain { .. } => Setup::recovering(),
        Shape::Atomic { .. } => Setup {
            atomic: Some(group.clone()),
            ..Setup::recovering()
        },
    };
    setup.run(builder, |cluster| {
        if let Some((victim, step)) = crash {
            cluster.crash_after_events(victim, step);
        }
        match shape {
            Shape::Plain { k } => {
                let plain = cluster.create_group(group);
                cluster.submit_send(plain, k * BLOCK);
            }
            Shape::Atomic { count } => {
                for _ in 0..count {
                    cluster.submit_atomic(0, 2 * BLOCK);
                }
            }
        }
        cluster.run();
    })
}

/// A crash run ends with a clean verdict, a reconfiguration, and exactly
/// the victim gone from the group's view.
fn assert_only_victim_gone<T: Transport>(
    cluster: &Cluster<T>,
    n: usize,
    shape: Shape,
    victim: usize,
) {
    let ctx = format!("{shape:?} on {n}, victim {victim}");
    assert_eq!(cluster.check_run(), Ok(()), "{ctx}");
    let reconfigured = !cluster.recovery_stats().reconfigurations.is_empty();
    assert!(reconfigured, "{ctx}: no reconfiguration happened");
    let view: Vec<usize> = match shape {
        Shape::Plain { .. } => cluster
            .surviving_ranks(0)
            .into_iter()
            .map(|r| r as usize)
            .collect(),
        Shape::Atomic { .. } => cluster.atomic_live_members(0),
    };
    let others: Vec<usize> = (0..n).filter(|&m| m != victim).collect();
    assert_eq!(view, others, "{ctx}: exactly the victim is gone");
}

/// Crashes every member at every protocol step of the failure-free run,
/// on the transport `launch` starts; `close` ends each run. Returns the
/// number of steps.
fn sweep<T: Transport>(
    n: usize,
    shape: Shape,
    launch: impl Fn() -> ClusterBuilder<T>,
    close: impl Fn(Cluster<T>),
) -> u64 {
    let clean = run(launch(), n, shape, None);
    assert_eq!(clean.check_run(), Ok(()));
    let total = clean.events_fed();
    close(clean);
    assert!(total > 0);
    for victim in 0..n {
        for step in 0..total {
            let cluster = run(launch(), n, shape, Some((victim, step)));
            assert_only_victim_gone(&cluster, n, shape, victim);
            close(cluster);
        }
    }
    total
}

/// The exhaustive sweep on the simulated fabric, then on loopback TCP
/// and on `MemNet`, where every run also shuts down clean. The protocol
/// fixes the engine events of a failure-free run, so all three sweeps
/// visit the same sites.
fn sweep_every_backend(n: usize, shape: Shape) {
    let steps = sweep(n, shape, || sim(n), drop);
    assert_eq!(sweep(n, shape, || tcp(n), close), steps, "{shape:?} on TCP");
    assert_eq!(
        sweep(n, shape, || mem(n), close),
        steps,
        "{shape:?} on MemNet"
    );
}

#[test]
fn every_member_crashing_at_every_step_recovers() {
    sweep_every_backend(4, Shape::Plain { k: 3 });
}

#[test]
fn every_sender_crashing_at_every_step_converges() {
    sweep_every_backend(4, Shape::Atomic { count: 4 });
}

/// Everything a rerun must reproduce: the engine events fed, the
/// virtual end time, the time-free state digest and every
/// reconfiguration record.
fn fingerprint(cluster: &Cluster<Fabric>) -> (u64, u64, u64, String) {
    let reconfigurations = &cluster.recovery_stats().reconfigurations;
    (
        cluster.events_fed(),
        cluster.transport().now().as_nanos(),
        cluster.state_digest(),
        format!("{reconfigurations:?}"),
    )
}

/// A crash run is bit-for-bit deterministic: virtual time makes the
/// whole crash/trim/redelivery path replayable.
#[test]
fn crash_runs_are_deterministic() {
    let once = || {
        let shape = Shape::Atomic { count: 5 };
        fingerprint(&run(jittered(5, 11, 0.02), 5, shape, Some((2, 37))))
    };
    assert_eq!(once(), once());
}

fn arb_shape() -> impl Strategy<Value = (usize, Shape)> {
    prop_oneof![
        (
            prop::sample::select(vec![2usize, 3, 4, 5, 6, 8]),
            prop::sample::select(vec![2u64, 4, 7]),
        )
            .prop_map(|(n, k)| (n, Shape::Plain { k })),
        (
            prop::sample::select(vec![3usize, 4, 5, 6, 8]),
            prop::sample::select(vec![3usize, 5, 7]),
        )
            .prop_map(|(n, count)| (n, Shape::Atomic { count })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Crash any member at any protocol step for n up to 8, with random
    /// scheduling jitter: the group always reconfigures and converges,
    /// and a rerun with identical parameters is identical.
    #[test]
    fn crash_at_any_protocol_step_converges(
        (n, shape) in arb_shape(),
        victim_sel in any::<prop::sample::Index>(),
        step_sel in any::<prop::sample::Index>(),
        jitter_seed in any::<u64>(),
    ) {
        let launch = || jittered(n, jitter_seed, 0.02);
        let total = run(launch(), n, shape, None).events_fed();
        prop_assert!(total > 0);
        let victim = victim_sel.index(n);
        let crash = Some((victim, step_sel.index(total as usize) as u64));
        let cluster = run(launch(), n, shape, crash);
        assert_only_victim_gone(&cluster, n, shape, victim);
        let rerun = run(launch(), n, shape, crash);
        prop_assert_eq!(fingerprint(&cluster), fingerprint(&rerun), "rerun diverged");
    }
}

#[derive(Debug, Clone)]
struct GroupPlan {
    algorithm: Algorithm,
    members: Vec<usize>,
    block_size: u64,
    messages: Vec<u64>,
}

fn arb_group(nodes: usize) -> impl Strategy<Value = GroupPlan> {
    let algorithm = prop_oneof![
        Just(Algorithm::Sequential),
        Just(Algorithm::Chain),
        Just(Algorithm::BinomialTree),
        Just(Algorithm::BinomialPipeline),
    ];
    (
        algorithm,
        prop::sample::subsequence((0..nodes).collect::<Vec<_>>(), 2..=nodes),
        prop::sample::select(vec![4u64 << 10, 64 << 10, 1 << 20]),
        prop::collection::vec(0u64..2_000_000, 1..4),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(algorithm, mut members, block_size, messages, root)| {
            // Rotate a random member into the root slot so senders vary.
            let r = root.index(members.len());
            members.swap(0, r);
            GroupPlan {
                algorithm,
                members,
                block_size,
                messages,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent groups with random membership, roots, sizes and
    /// jitter, no crash: every message completes at every member, the
    /// run's verdict is clean, and each receiver's downlink carried the
    /// bytes delivered to it.
    #[test]
    fn chaos_soak(
        groups in prop::collection::vec(arb_group(10), 1..6),
        jitter_seed in any::<u64>(),
    ) {
        let recorder = Setup { recorder: true, ..Setup::default() };
        let cluster = recorder.run(jittered(10, jitter_seed, 0.01), |cluster| {
            let ids: Vec<_> = groups
                .iter()
                .map(|p| cluster.create_group(spec(p.members.clone(), p.algorithm.clone(), p.block_size, 3)))
                .collect();
            for (plan, &id) in groups.iter().zip(&ids) {
                for &size in &plan.messages {
                    cluster.submit_send(id, size);
                }
            }
            cluster.run();
        });
        prop_assert_eq!(cluster.check_run(), Ok(()));
        let expected: usize = groups.iter().map(|p| p.messages.len()).sum();
        prop_assert_eq!(cluster.message_results().len(), expected);
        // Conservation: readies and other control traffic are tiny and
        // bypass the flow accounting, so each member's downlink carried
        // at least the bytes of every message delivered to it.
        let mut expected_rx = [0.0f64; 10];
        for plan in &groups {
            for &m in &plan.members[1..] {
                expected_rx[m] += plan.messages.iter().map(|&s| s as f64).sum::<f64>();
            }
        }
        let (net, topo) = (cluster.transport().net(), cluster.transport().topology());
        for (node, &expected) in expected_rx.iter().enumerate() {
            let carried = net.bytes_carried(topo.rx_link(node));
            prop_assert!(
                carried + 1024.0 >= expected,
                "node {} downlink carried {} < expected {}",
                node,
                carried,
                expected
            );
        }
    }
}
