//! The protocol over the production TCP datapath on in-process pipes
//! (`TcpFabric<MemNet>`) under scheduler-driven interleavings: every
//! member delivers every message, in send order, under seeded and drawn
//! scheduler scripts; and the explorer checks on this backend too — a
//! seeded §4.2 inversion comes back as a replayable counterexample, DPOR
//! agrees with exhaustive search, the command a failing sweep prints
//! replays its shape on the CLI, a run with no scheduler is the run whose
//! every choice is the default, and the seeded-bug decorator with no bug
//! changes nothing on either backend.
//!
//! The delivery claims under the default interleaving are not restated
//! here: every row of the root transport matrix
//! (`tests/transport_equivalence.rs`) and every site of the crash sweep
//! (`tests/crash_sweep.rs`) runs on `MemNet` as well as on `Fabric` and
//! loopback TCP.

use std::sync::{Arc, Mutex};

use analyzer::{
    explore_executions, replay, Backend, Counterexample, ExploreConfig, ExploreScenario, Seeded,
    SeededBug, SweepReport,
};
use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{Cluster, ClusterBuilder, ClusterSpec, GroupId, GroupSpec};
use rdmc_tcp::{MemNet, TcpFabric};
use simnet::SplitMix64;
use trace::EventKind;
use verbs::{ChoicePoint, Scheduler, Transport};

type MemCluster = Cluster<TcpFabric<MemNet>>;

/// Answers each choice point with the next of `picks` (a `len`-way pick
/// from each), then with the default.
struct Script<F>(F);

impl<F: FnMut(usize) -> usize + Send> Scheduler for Script<F> {
    fn choose(&mut self, point: &ChoicePoint<'_>) -> usize {
        (self.0)(point.candidates.len())
    }
}

/// `n` members in one group over in-memory TCP, with the flight recorder
/// on and two block sends in flight per member, interleaved by `picks`
/// if given.
fn group(
    n: usize,
    algorithm: Algorithm,
    block_size: u64,
    ready_window: u32,
    picks: Option<Box<dyn FnMut(usize) -> usize + Send>>,
) -> (MemCluster, GroupId) {
    let mut builder = ClusterBuilder::from_transport(in_memory(n)).flight_recorder();
    if let Some(picks) = picks {
        builder = builder.scheduler(Arc::new(Mutex::new(Script(picks))));
    }
    let mut cluster = builder.build();
    let group = cluster.create_group(GroupSpec {
        members: (0..n).collect(),
        algorithm,
        block_size,
        ready_window,
        max_outstanding_sends: 2,
    });
    (cluster, group)
}

/// Sends `sizes` from the root, runs to quiescence and returns what each
/// node delivered, in order, once the run's verdict is clean.
fn multicast(cluster: &mut MemCluster, group: GroupId, sizes: &[u64]) -> Vec<Vec<u64>> {
    for &size in sizes {
        cluster.submit_send(group, size);
    }
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    per_node(cluster, |kind| match kind {
        EventKind::Delivered { size } => Some(size),
        _ => None,
    })
}

/// What `pick` keeps of each node's recorded events, in order.
fn per_node<T>(cluster: &MemCluster, pick: impl Fn(EventKind) -> Option<T>) -> Vec<Vec<T>> {
    let n = cluster.transport().num_nodes();
    let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for e in cluster.trace_events() {
        if let (Some(node), Some(t)) = (e.scope.node, pick(e.kind)) {
            out[node as usize].push(t);
        }
    }
    out
}

fn algorithms() -> [Algorithm; 4] {
    [
        Algorithm::Sequential,
        Algorithm::Chain,
        Algorithm::BinomialTree,
        Algorithm::BinomialPipeline,
    ]
}

/// The same two messages under 20 seeded interleavings of bytes and
/// deliveries.
#[test]
fn random_interleavings_preserve_delivery() {
    for seed in 0..20 {
        for alg in algorithms() {
            let mut rng = SplitMix64::new(seed);
            let picks = Box::new(move |len| (rng.next_u64() % len as u64) as usize);
            let (mut cluster, g) = group(7, alg.clone(), 512, 2, Some(picks));
            let delivered = multicast(&mut cluster, g, &[6_000, 2_000]);
            assert_eq!(delivered, vec![vec![6_000, 2_000]; 7], "{alg} seed={seed}");
        }
    }
}

/// `messages` sent by the root to `n` members, the scheduler answering
/// the choice points in the order `choices` draws (the default once they
/// run out). Returns each member's deliveries.
fn interleaved(
    algorithm: Algorithm,
    n: usize,
    block_size: u64,
    messages: &[u64],
    choices: Vec<prop::sample::Index>,
) -> Vec<Vec<u64>> {
    let mut choices = choices.into_iter();
    let picks = Box::new(move |len| choices.next().map_or(0, |i| i.index(len)));
    let (mut cluster, g) = group(n, algorithm, block_size, 2, Some(picks));
    multicast(&mut cluster, g, messages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the interleaving, every member delivers every message, in
    /// order, exactly once.
    #[test]
    fn delivery_is_interleaving_invariant(
        n in 2usize..10,
        block_size in prop::sample::select(vec![64u64, 500, 1 << 12]),
        messages in prop::collection::vec(0u64..60_000, 1..5),
        choices in prop::collection::vec(any::<prop::sample::Index>(), 0..4096),
    ) {
        let delivered = interleaved(Algorithm::BinomialPipeline, n, block_size, &messages, choices);
        for (node, got) in delivered.iter().enumerate() {
            prop_assert_eq!(got, &messages, "node {} deliveries differ", node);
        }
    }

    /// The same holds for every schedule family.
    #[test]
    fn all_algorithms_are_interleaving_invariant(
        alg_idx in 0usize..4,
        n in 2usize..8,
        choices in prop::collection::vec(any::<prop::sample::Index>(), 0..2048),
    ) {
        let algorithm = algorithms()[alg_idx].clone();
        let messages = [10_000u64, 1];
        let delivered = interleaved(algorithm.clone(), n, 1024, &messages, choices);
        for (node, got) in delivered.iter().enumerate() {
            prop_assert_eq!(got.as_slice(), &messages[..], "{} node {}", algorithm, node);
        }
    }
}

/// §4.2 inverted on TCP: a receive posted only after its readiness grant
/// lets a block reach its reader first, which holds the frame and counts
/// an RNR arm. The explorer finds an interleaving where that happens, and
/// the counterexample replays bit-for-bit.
#[test]
fn lazy_recv_post_is_caught_on_memnet() {
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 3, 2)
        .on(Backend::MemNet)
        .with_bug(SeededBug::LazyRecvPost);
    let report = explore_executions(&ExploreConfig::dpor(scenario.clone()));
    let cex = report
        .counterexample
        .as_ref()
        .expect("mutation must be caught");
    assert!(
        cex.violations.iter().any(|v| v.starts_with("rnr:")),
        "expected a held frame: {report}"
    );
    for _ in 0..2 {
        let again = replay(&scenario, &cex.choices);
        assert_eq!(again.violations, cex.violations);
        assert_eq!(again.digest, cex.digest);
        assert_eq!(again.trace_jsonl, cex.trace_jsonl);
    }
}

/// DPOR prunes the in-memory TCP space without losing a terminal state.
#[test]
fn dpor_matches_exhaustive_on_memnet() {
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 3, 2).on(Backend::MemNet);
    let full = explore_executions(&ExploreConfig::exhaustive(scenario.clone()));
    let dpor = explore_executions(&ExploreConfig::dpor(scenario));
    assert!(full.is_clean() && !full.truncated, "{full}");
    assert!(dpor.is_clean() && !dpor.truncated, "{dpor}");
    assert_eq!(full.crash_free_digests, dpor.crash_free_digests);
    assert!(dpor.executions < full.executions, "{dpor} vs {full}");
}

/// A failing sweep's `rerun:` line is a whole command: run as printed,
/// the binary replays the sweep's scenario (here the hybrid shape of
/// its `MemNet` corner, and an atomic group on `Fabric`) and prints the
/// terminal digest the library's replay reaches.
#[test]
fn printed_rerun_command_replays_the_sweep_scenario() {
    let rack_of = vec![0, 0, 1, 1];
    let scenarios = [
        ExploreScenario::small(Algorithm::Hybrid { rack_of }, 4, 2).on(Backend::MemNet),
        ExploreScenario::atomic(Algorithm::BinomialPipeline, 3, 1),
    ];
    for scenario in scenarios {
        let exec = replay(&scenario, &[]);
        let mut report = explore_executions(&ExploreConfig::random(scenario.clone(), 1, 1));
        report.counterexample = Some(Counterexample {
            choices: exec.script(),
            violations: vec!["forged".into()],
            digest: exec.digest,
            trace_jsonl: String::new(),
        });
        let sweep = SweepReport {
            explore_failures: vec![(scenario.clone(), report)],
            ..SweepReport::default()
        }
        .to_string();
        let command = (sweep.lines())
            .find_map(|l| l.strip_prefix("  rerun: "))
            .unwrap_or_else(|| panic!("no rerun line in {sweep}"));
        let args: Vec<&str> = command.split(' ').skip(1).collect();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyzer"))
            .args(&args)
            .output()
            .expect("the analyzer binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{command}: {stdout}");
        let want = format!(
            "replayed {} choice points, terminal digest {:#018x}",
            exec.points.len(),
            exec.digest
        );
        assert!(!exec.points.is_empty(), "{command}: no choice point");
        assert_eq!(stdout.lines().next(), Some(want.as_str()), "{command}");
    }
    let seeded = ExploreScenario::small(Algorithm::Chain, 3, 1).with_bug(SeededBug::LazyRecvPost);
    assert_eq!(seeded.replay_command(&[]), None, "no flag seeds a bug");
}

#[test]
#[should_panic(expected = "loss sites are Fabric-only")]
fn memnet_scenarios_have_no_loss_sites() {
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 3, 1)
        .with_loss(1, rdmc_sim::ReliabilityPolicy::SelectiveAck)
        .on(Backend::MemNet);
    let _ = replay(&scenario, &[]);
}

/// A plain multicast beside one rotation of an atomic group over
/// `builder`'s transport, run to quiescence (with every choice at its
/// default if `defaults`): the terminal digest and the JSONL recording.
fn workload<T: Transport>(builder: ClusterBuilder<T>, defaults: bool) -> (u64, String) {
    let spec = GroupSpec {
        members: vec![0, 1, 2],
        algorithm: Algorithm::BinomialPipeline,
        block_size: 1 << 16,
        ready_window: 2,
        max_outstanding_sends: 2,
    };
    let mut builder = builder.flight_recorder();
    if defaults {
        builder = builder.scheduler(Arc::new(Mutex::new(Script(|_| 0))));
    }
    let mut cluster = builder.atomic(spec.clone()).build();
    let g = cluster.create_group(spec);
    cluster.submit_send(g, 4 << 16);
    for _ in 0..3 {
        cluster.submit_atomic(0, 1 << 16);
    }
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    let trace = trace::export::to_jsonl(&cluster.trace_events());
    (cluster.state_digest(), trace)
}

fn in_memory(n: usize) -> TcpFabric<MemNet> {
    TcpFabric::in_memory(n).expect("a node")
}

/// With no scheduler `MemNet` makes every choice the default one.
#[test]
fn no_scheduler_is_the_all_defaults_schedule() {
    let run = |defaults| workload(ClusterBuilder::from_transport(in_memory(3)), defaults);
    assert_eq!(run(false), run(true));
}

/// With no bug seeded, the explorer's decorator changes nothing on
/// either backend.
#[test]
fn seeded_transport_without_bugs_is_transparent() {
    let fabric = || ClusterSpec::fractus(3).build();
    let seeded = workload(
        ClusterBuilder::from_transport(Seeded::new(fabric(), &[])),
        true,
    );
    assert_eq!(
        workload(ClusterBuilder::from_transport(fabric()), true),
        seeded
    );
    let seeded = workload(
        ClusterBuilder::from_transport(Seeded::new(in_memory(3), &[])),
        true,
    );
    assert_eq!(
        workload(ClusterBuilder::from_transport(in_memory(3)), true),
        seeded
    );
}
