//! The protocol over the production TCP datapath on in-process pipes
//! (`TcpFabric<MemNet>`) under scheduler-driven interleavings: every
//! member delivers every message, in send order, under seeded and drawn
//! scheduler scripts; and the explorer checks on this backend too — DPOR
//! agrees with exhaustive search (with wire sites and crash sites too),
//! the command a failing sweep prints replays its shape on the CLI, a run
//! with no scheduler is the run whose every choice is the default, and
//! the seeded-bug decorator with no bug changes nothing on either
//! backend. Runs whose write sites a script answers close it: one
//! gathered write carries every queue pair's frames on a node pair's one
//! socket, a queue pair broken with its frame half out leaves its socket
//! mates running, and bytes stalled past a crash's break deadline still
//! reach the survivor.
//!
//! A seeded §4.2 inversion is caught on both backends by
//! `lazy_recv_post_mutation_is_caught` (`tests/explore.rs`). The
//! delivery claims under the default interleaving are not restated
//! here: every row of the root transport matrix
//! (`tests/transport_equivalence.rs`) and every site of the crash sweep
//! (`tests/crash_sweep.rs`) runs on `MemNet` as well as on `Fabric` and
//! loopback TCP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use analyzer::{
    explore_executions, replay, Backend, Counterexample, ExploreConfig, ExploreScenario, Seeded,
    SeededBug, SweepReport,
};
use bytes::Bytes;
use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{Cluster, ClusterBuilder, ClusterSpec, GroupId, GroupSpec, ReliabilityPolicy};
use rdmc_tcp::{MemNet, TcpFabric};
use simnet::{SimDuration, SimTime, SplitMix64};
use trace::EventKind;
use verbs::CandidateKind as K;
use verbs::{ChoicePoint, Delivery, NodeId, PointKind, Scheduler, Transport, WrId};

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

/// DPOR prunes the in-memory TCP space without losing a terminal state,
/// also where the first gathered write is a wire site and a member may
/// crash. That site offers the write whole, cut inside its frame's
/// header, cut inside its body, and stalled, and every branch is
/// explored.
#[test]
fn dpor_matches_exhaustive_on_memnet() {
    let plain = ExploreScenario::small(Algorithm::BinomialPipeline, 3, 2).on(Backend::MemNet);
    let sited = ExploreScenario::small(Algorithm::BinomialPipeline, 3, 1)
        .with_faults(vec![(4, 2), (8, 1)])
        .with_loss(1, ReliabilityPolicy::SelectiveAck)
        .on(Backend::MemNet);
    for scenario in [plain, sited.clone()] {
        let full = explore_executions(&ExploreConfig::exhaustive(scenario.clone()));
        let dpor = explore_executions(&ExploreConfig::dpor(scenario));
        assert!(full.is_clean() && !full.truncated, "{full}");
        assert!(dpor.is_clean() && !dpor.truncated, "{dpor}");
        assert_eq!(full.crash_free_digests, dpor.crash_free_digests);
        assert!(dpor.executions < full.executions, "{dpor} vs {full}");
    }
    // The first write is 28 bytes, a 25-byte header and its body.
    let kinds: Vec<K> = (replay(&sited, &[]).points.iter())
        .find(|p| p.kind == PointKind::LossSite)
        .map(|p| p.candidates.iter().map(|c| c.kind).collect())
        .expect("a wire site");
    let (whole, header, body) = (28, 12, 26);
    let taken = [whole, header, body].map(|taken| K::Gathered { taken });
    assert_eq!(kinds, [&taken[..], &[K::Stall]].concat());
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

/// A delivery as the scripted runs below name it: node, queue pair, what.
fn show((_, node, d): (SimTime, NodeId, Delivery)) -> String {
    let what = match d {
        Delivery::SendDone { qp, wr_id } => format!("q{} sent {}", qp.conn_id(), wr_id.0),
        Delivery::RecvDone { qp, wr_id, imm, .. } => {
            format!("q{} recv {} {imm}", qp.conn_id(), wr_id.0)
        }
        Delivery::WrFlushed { qp, wr_id, .. } => format!("q{} flushed {}", qp.conn_id(), wr_id.0),
        Delivery::QpBroken { qp } => format!("q{} broken", qp.conn_id()),
        Delivery::WriteDone { qp, wr_id } => format!("q{} wrote {}", qp.conn_id(), wr_id.0),
        Delivery::WriteArrived { qp, tag, .. } => format!("q{} arrived {tag}", qp.conn_id()),
        other => format!("{other:?}"),
    };
    format!("{} {what}", node.0)
}

/// Every queue pair between two nodes rides one socket, whichever node
/// connects: one gathered write (one write site) carries a frame of
/// each, and each arrives on its own queue pair in its posting order.
#[test]
fn queue_pairs_between_two_nodes_share_one_socket() {
    let (a, b) = (NodeId(0), NodeId(1));
    let mut fabric = in_memory(2);
    let sites = Arc::new(AtomicU64::new(0));
    let seen_sites = Arc::clone(&sites);
    let count = Script(move |len: usize| {
        seen_sites.fetch_add(u64::from(len == 4), Ordering::Relaxed);
        0
    });
    fabric.set_scheduler(Arc::new(Mutex::new(count)));
    fabric.set_loss_choice_budget(u64::MAX);
    let mut senders: Vec<_> = (0..3).map(|_| fabric.connect(a, b).0).collect();
    senders.push(fabric.connect(b, a).1);
    let posted: Vec<(usize, u64)> = (0..2)
        .flat_map(|r| (0..4).map(move |i: u64| (i as usize, 10 * i + r)))
        .collect();
    for &(i, tag) in &posted {
        let row = Bytes::from_static(b"row");
        fabric
            .post_write(senders[i], WrId(tag), tag, row, None)
            .unwrap();
    }
    let seen: Vec<String> = std::iter::from_fn(|| fabric.advance()).map(show).collect();
    let done = posted.iter().map(|(i, tag)| format!("0 q{i} wrote {tag}"));
    let arrived = posted
        .iter()
        .map(|(i, tag)| format!("1 q{i} arrived {tag}"));
    assert_eq!(seen, done.chain(arrived).collect::<Vec<_>>());
    let writes = sites.load(Ordering::Relaxed);
    assert_eq!(writes, 1, "one write carried every frame");
    assert!(format!("{fabric:?}").contains("sockets: 1"), "{fabric:?}");
    fabric.shutdown().expect("clean shutdown");
}

/// Breaking a queue pair while its send is half out (the first write
/// site, the only four-way point here, cuts it inside its body) breaks
/// only that queue pair: its work requests are flushed, then it breaks,
/// in posting order; its unsent tail still crosses the socket, keeping
/// the byte stream in sync, and is dropped at the peer without an RNR
/// arm; and its socket mates deliver in both directions.
#[test]
fn breaking_one_queue_pair_leaves_its_socket_mates_running() {
    let (a, b) = (NodeId(0), NodeId(1));
    let mut fabric = in_memory(2);
    let cut_body = Script(|len: usize| if len == 4 { 2 } else { 0 });
    fabric.set_scheduler(Arc::new(Mutex::new(cut_body)));
    fabric.set_loss_choice_budget(1);
    let (a1, b1) = fabric.connect(a, b);
    let (a2, b2) = fabric.connect(a, b);
    let (b3, a3) = fabric.connect(b, a);
    for (qp, wr, len) in [(b1, 11, 1 << 20), (b2, 12, 64), (a3, 13, 64)] {
        fabric.post_recv(qp, WrId(wr), len).unwrap();
    }
    for (qp, wr, len) in [(a1, 1, 1 << 20), (a2, 2, 64), (b3, 3, 64)] {
        fabric.post_send(qp, WrId(wr), len, wr, None).unwrap();
    }
    // The first lap cuts A's write inside a1's body and flushes B's whole.
    let sent = fabric.advance().expect("B's send is flushed");
    fabric.break_qp(a1);
    let rest = std::iter::from_fn(|| fabric.advance());
    let seen: Vec<String> = std::iter::once(sent).chain(rest).map(show).collect();
    let (a_broke, b_broke) = (
        ["0 q0 flushed 1", "0 q0 broken"],
        ["1 q0 flushed 11", "1 q0 broken"],
    );
    let mates = ["0 q1 sent 2", "0 q2 recv 13 3", "1 q1 recv 12 2"];
    assert_eq!(
        seen,
        [&["1 q2 sent 3"][..], &a_broke, &b_broke, &mates].concat()
    );
    let arms = fabric.stats().rnr_arms;
    assert_eq!(arms, 0, "the orphan's tail is dropped, not held");
    fabric.shutdown().expect("clean shutdown");
}

/// A crashed sender's last write stalls on the wire past the socket's
/// break deadline (the last outcome at a write site is the stall): the
/// break's drain of the dying socket still hands the survivor its
/// receive, then flushes the one left over.
#[test]
fn bytes_stalled_past_a_break_deadline_reach_the_survivor() {
    let (a, b) = (NodeId(0), NodeId(1));
    let mut fabric = in_memory(2);
    fabric.set_scheduler(Arc::new(Mutex::new(Script(|len: usize| len - 1))));
    fabric.set_loss_choice_budget(1);
    let (tx, rx) = fabric.connect(a, b);
    (1..3).for_each(|wr| fabric.post_recv(rx, WrId(wr), 4096).unwrap());
    fabric.post_send(tx, WrId(0), 4096, 7, None).unwrap();
    let sent = fabric.advance().expect("A's send is flushed");
    fabric.crash(a);
    let deadline = fabric.now() + SimDuration::from_millis(1);
    let survivor: Vec<_> = std::iter::from_fn(|| fabric.advance()).collect();
    let waited = survivor.iter().all(|s| s.0 >= deadline);
    assert!(waited, "the bytes did not wait");
    let seen: Vec<String> = std::iter::once(sent).chain(survivor).map(show).collect();
    let heard = ["1 q0 recv 1 7", "1 q0 flushed 2", "1 q0 broken"];
    assert_eq!(seen, [&["0 q0 sent 0"][..], &heard].concat());
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
