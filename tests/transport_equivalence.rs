//! The standing transport gate, one matrix: each cluster scenario below
//! is written once, generic over the transport, and every row runs it on
//! three backends: the simulated verbs fabric, real TCP sockets over
//! loopback, and the same TCP datapath over in-process pipes (`MemNet`).
//! On both TCP backends a `SendDone` only means "flushed to the socket";
//! on `MemNet` a flushed frame deterministically waits for its reader,
//! on every lap, so that gap is exercised on every run. A row
//!
//! - asserts its verdict on all three: [`Cluster::check_run`] holds, or,
//!   where a crash meets no recovery, reports the survivors wedged;
//! - if it is crash-free, asserts the TCP runs agree with the simulator
//!   **bit-for-bit** on *what* happened — the canonical engine logs and
//!   the delivery digests — leaving only *when* to the fabric, and that
//!   every message reached every member;
//! - if it crashes a node, asserts in its scenario the facts that hold on
//!   any interleaving: who was removed, the survivors, the epoch, each
//!   message's fate, and that the group still delivers afterwards. A
//!   crash is placed by protocol step (`crash_after_events`) or at a
//!   point of the scenario, never at a clock instant: on `MemNet` bytes
//!   move in zero virtual time, so an instant says nothing about how far
//!   a transfer got;
//! - ends its TCP runs in a clean shutdown.
//!
//! Claims that only mean something in virtual time or on a simulated
//! network stay `Fabric`-only, at the end of the file, each with its
//! reason.
//!
//! Raw engine logs interleave differently across transports (wall-clock
//! completion timing is not virtual-time completion timing), but RDMC's
//! §4.2 design makes each *channel* deterministic: per (group, rank,
//! event class, peer) the sequence of events is fixed by the block
//! schedule and the per-connection FIFO guarantee. Canonicalizing the
//! log per channel therefore yields a transport-independent fingerprint
//! that any lost, duplicated, reordered, or misrouted event breaks.
//!
//! On mismatch a row writes the simulator's canonical log and the
//! diverging backend's (`<row>.sim.log` beside `<row>.tcp.log` or
//! `<row>.mem.log`) under `target/transport_equivalence/` so CI can
//! upload them as artifacts.

mod support;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use proptest::prelude::*;
use rdmc::engine::Event;
use rdmc::{Algorithm, Rank};
use rdmc_sim::PacingPolicy::{self, Fifo, RoundRobin, SmallestFirst};
use rdmc_sim::{
    Cluster, ClusterBuilder, ClusterSpec, EngineLogEntry, GroupId, PacerConfig, RecoveryConfig,
    SimCluster,
};
use rdmc_tcp::{MemNet, TcpCluster, TcpFabric};
use simnet::{SimDuration, SimTime};
use support::{close, mem, sim, spec, tcp, Setup, KB};
use trace::EventKind;
use verbs::{Fabric, Transport};

type MemCluster = Cluster<TcpFabric<MemNet>>;

const MB: u64 = 1 << 20;
const BLOCK: u64 = 16 * KB;
/// An exact block multiple, a 1-byte and a zero-byte message, and a
/// ragged tail.
const MIXED: [u64; 4] = [4 * BLOCK, 1, 0, 6 * BLOCK + 17];
/// The plain rows' group sizes: powers of two and not, up to 16.
const GROUP_SIZES: [usize; 12] = [2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 16];
/// The ready (and send) windows the plain rows' groups cycle through.
const WINDOWS: [u32; 3] = [1, 2, 8];
const PIPELINE: Algorithm = Algorithm::BinomialPipeline;

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

/// A run's transport-independent fingerprint: the canonical engine log,
/// and a time-free delivery digest — which message reached which
/// original rank, per group in send order, the observable the paper's
/// reliability claims are about.
fn fingerprint<T: Transport>(cluster: &Cluster<T>) -> (String, String) {
    let mut digest = String::new();
    for r in cluster.message_results() {
        let delivered: String = (0..cluster.transport().num_nodes())
            .map(|o| if r.delivered(o) { 'y' } else { 'n' })
            .collect();
        let (g, i, size) = (r.group, r.index, r.size);
        let _ = writeln!(digest, "g{g} i{i} size={size} delivered={delivered}");
    }
    (canonicalize(cluster.engine_log()), digest)
}

/// What a row's three runs must end in.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    /// `check_run` holds and the runs agree; with no crash, every message
    /// also reached every member.
    Same,
    /// `check_run` holds (a crash row: interleavings may differ).
    Clean,
    /// A crash met no recovery: `check_run` finds survivors wedged.
    Wedged,
}

/// Asserts `verdict` of the run on `backend` and returns its fingerprint;
/// on a `Same` row, also that the fingerprint is `sim`'s, dumping both
/// for CI on divergence.
fn check<T: Transport>(
    name: &str,
    backend: &str,
    verdict: Verdict,
    cluster: &Cluster<T>,
    sim: Option<&(String, String)>,
) -> (String, String) {
    let run = cluster.check_run();
    if verdict == Verdict::Wedged {
        let wedged = matches!(&run, Err(v) if v.iter().any(|e| e.starts_with("quiescence:")));
        assert!(wedged, "{name} on {backend}: {run:?}");
        return fingerprint(cluster);
    }
    assert_eq!(run, Ok(()), "{name} on {backend}");
    let print = fingerprint(cluster);
    if verdict == Verdict::Clean {
        return print;
    }
    if (0..cluster.transport().num_nodes()).all(|n| cluster.crash_time(n).is_none()) {
        let results = cluster.message_results();
        let missed: Vec<_> = results.iter().filter(|r| r.latency().is_none()).collect();
        assert!(missed.is_empty(), "{name} on {backend}: missed {missed:?}");
    }
    let Some(sim) = sim.filter(|&sim| *sim != print) else {
        return print;
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/transport_equivalence");
    let _ = std::fs::create_dir_all(&dir);
    for (side, (log, digest)) in [("sim", sim), (backend, &print)] {
        let _ = std::fs::write(dir.join(format!("{name}.{side}.log")), log.clone() + digest);
    }
    assert_eq!(
        *sim, print,
        "{name}: {backend} diverged from sim (canonical logs dumped to target/transport_equivalence/)"
    );
    print
}

/// Judges a row's three runs, then shuts the TCP ones down.
fn judge(name: &str, verdict: Verdict, sim: SimCluster, tcp: TcpCluster, mem: MemCluster) {
    let want = check(name, "sim", verdict, &sim, None);
    check(name, "tcp", verdict, &tcp, Some(&want));
    check(name, "mem", verdict, &mem, Some(&want));
    close(tcp);
    close(mem);
}

/// One row: `scenario(cluster, args..)` on `nodes` nodes built with
/// `setup`, over `Fabric`, `TcpFabric` on loopback and `TcpFabric` on
/// `MemNet`, judged by `verdict`.
macro_rules! row {
    ($name:expr, $verdict:ident, $nodes:expr, $setup:expr, $scenario:ident($($arg:expr),*)) => {{
        let (nodes, setup): (usize, &Setup) = ($nodes, &$setup);
        let sim = setup.run(sim(nodes), |c| { $scenario(c $(, $arg)*); });
        let tcp = setup.run(tcp(nodes), |c| { $scenario(c $(, $arg)*); });
        let mem = setup.run(mem(nodes), |c| { $scenario(c $(, $arg)*); });
        judge($name, Verdict::$verdict, sim, tcp, mem);
    }};
}

/// The matrix: one `#[test]` per row, named in the first column.
macro_rules! matrix {
    ($($test:ident: $verdict:ident, $nodes:expr, $setup:expr, $scenario:ident($($arg:expr),*);)*) => {$(
        #[test]
        fn $test() {
            row!(stringify!($test), $verdict, $nodes, $setup, $scenario($($arg),*));
        }
    )*};
}

// One row per line: test name, verdict, nodes, setup, scenario.
matrix! {
    // Every dissemination algorithm, at every group size and window,
    // delivers `MIXED` to every member, in order.
    plain_sequential: Same, 16, recorded(), every_shape(Algorithm::Sequential);
    plain_chain: Same, 16, recorded(), every_shape(Algorithm::Chain);
    plain_binomial_tree: Same, 16, recorded(), every_shape(Algorithm::BinomialTree);
    plain_binomial_pipeline: Same, 16, recorded(), every_shape(PIPELINE);
    // The rack-aware hybrid schedule (§4.3) over three uneven racks.
    hybrid_algorithm_delivers: Same, 8, Setup::default(), multicast(racks(), KB / 2, &[48 * KB, 5_000]);
    // The TCP event loop carries dozens of nodes without a thread per peer.
    sixty_four_nodes_in_one_process: Same, 64, Setup::default(), multicast(PIPELINE, BIG, &[MB]);
    several_messages_deliver_in_order: Same, 4, recorded(), in_order();
    crash_without_recovery_wedges_every_survivor: Wedged, 8, recorded(), wedge();
    overlapping_groups_coexist: Same, 6, Setup::default(), overlapping();
    close_barrier_under_concurrent_sends: Same, 5, Setup::default(), close_concurrent();
    close_barrier_reports_lost_member: Wedged, 4, Setup::default(), close_lost_member();
    // Pacer admission (FIFO, one slot) composes identically with each.
    paced_workload_equivalent_across_transports: Same, 4, paced(Fifo, 1, false), multicast(PIPELINE, BLOCK, &[5 * BLOCK; 3]);

    crash_recovery_equivalent_across_transports: Same, 5, recovery(SimDuration::from_millis(100)), recovery_workload();
    non_sender_crash_resumes_with_only_missing_blocks: Clean, 4, Setup::recovering(), non_sender_crash();
    sender_crash_is_resumed_or_consistently_abandoned: Clean, 4, Setup::recovering(), sender_crash();
    cascading_failures_bump_the_epoch_twice: Clean, 6, Setup::recovering(), cascading();
    link_flap_evicts_both_endpoints: Clean, 5, Setup::recovering(), link_flap();
    crash_between_messages_recovers_the_stream: Clean, 4, Setup::recovering(), crash_between_messages();
    each_engine_hears_of_a_crash_once: Clean, 8, Setup::recovering(), hears_once(Some(60), 1);
    each_engine_hears_of_a_flap_once: Clean, 5, Setup::recovering(), hears_once(None, 1);
    no_engine_hears_of_its_own_flap: Wedged, 5, Setup::default(), hears_once(None, 0);

    all_members_deliver_identical_total_order: Same, 4, atomic(4), total_order();
    null_slots_skip_quiet_senders: Same, 4, atomic(4), null_slots();
    scheduled_sends_resolve_the_owner_at_fire_time: Same, 3, atomic(3), scheduled();
    trace_oracle_validates_the_atomic_run: Same, 4, atomic(4), oracle();
    overlay_coexists_with_plain_groups: Same, 6, Setup { recorder: false, ..atomic(4) }, beside_plain();
    every_member_logs_every_message_in_submission_order: Same, 8, single_sender(8), submission_order();
    upcall_never_precedes_any_members_local_completion: Same, 8, single_sender(8), after_every_completion();
    crash_without_recovery_delivers_nothing_at_survivors: Wedged, 4, single_sender(4), crash_unrecovered();
}

/// The flight recorder, nothing else.
fn recorded() -> Setup {
    Setup {
        recorder: true,
        ..Setup::default()
    }
}

/// Recovery with `grace`, and no flight recorder.
fn recovery(grace: SimDuration) -> Setup {
    Setup {
        recovery: Some(RecoveryConfig { grace }),
        ..Setup::default()
    }
}

// ---- Plain multicast -------------------------------------------------

/// A group over every node running `algorithm` in `block`-byte blocks,
/// sent `sizes` and run to the end.
fn multicast<T: Transport>(
    cluster: &mut Cluster<T>,
    algorithm: Algorithm,
    block: u64,
    sizes: &[u64],
) -> GroupId {
    let n = cluster.transport().num_nodes();
    let group = cluster.create_group(spec(0..n, algorithm, block, 2));
    for &size in sizes {
        cluster.submit_send(group, size);
    }
    cluster.run();
    group
}

/// Three racks of three, three and two.
fn racks() -> Algorithm {
    Algorithm::Hybrid {
        rack_of: vec![0, 0, 0, 1, 1, 1, 2, 2],
    }
}

/// From the flight recorder: each member of each group (`(group, n)`:
/// nodes `0..n`, root 0) upcalls every message of `sizes` once, in
/// submission order, at non-decreasing times (§3 property 4), and each
/// receiver requests exactly one buffer per message, of its size.
fn assert_in_order<T: Transport>(cluster: &Cluster<T>, groups: &[(GroupId, u32)], sizes: &[u64]) {
    let (mut upcalls, mut buffers) = (BTreeMap::new(), BTreeMap::new());
    for e in cluster.recorder().events() {
        let at = (e.scope.group, e.scope.node);
        match e.kind {
            EventKind::Delivered { size } => {
                upcalls.entry(at).or_insert(vec![]).push((e.t_ns, size))
            }
            EventKind::BufferRequested { size } => buffers.entry(at).or_insert(vec![]).push(size),
            _ => {}
        }
    }
    for &(group, n) in groups {
        for member in 0..n {
            let at = (Some(group as u32), Some(member));
            let upcalls = upcalls.remove(&at).unwrap_or_default();
            let got: Vec<u64> = upcalls.iter().map(|&(_, size)| size).collect();
            assert_eq!(got, sizes, "group {group} member {member} reordered");
            let monotone = upcalls.is_sorted_by_key(|&(t, _)| t);
            assert!(monotone, "group {group} member {member} went back in time");
            let want = if member == 0 { &[][..] } else { sizes };
            let requested = buffers.remove(&at).unwrap_or_default();
            assert_eq!(requested, want, "group {group} member {member} buffers");
        }
    }
}

/// One group per size in `GROUP_SIZES`, one after another, over the first
/// nodes, each running `algorithm` in `BLOCK`-byte blocks at the next of
/// `WINDOWS` (8 members at window 1) and sent `MIXED` in order.
fn every_shape<T: Transport>(cluster: &mut Cluster<T>, algorithm: Algorithm) {
    let mut groups = Vec::new();
    for (n, window) in GROUP_SIZES.into_iter().zip(WINDOWS.into_iter().cycle()) {
        let group = cluster.create_group(spec(0..n, algorithm.clone(), BLOCK, window));
        for size in MIXED {
            cluster.submit_send(group, size);
        }
        cluster.run();
        groups.push((group, n as u32));
    }
    assert_in_order(cluster, &groups, &MIXED);
}

/// Several messages, twenty tiny ones among them, in order everywhere.
fn in_order<T: Transport>(cluster: &mut Cluster<T>) {
    let sizes: Vec<u64> = [24 * KB, 1, 33 * KB, 9 * KB]
        .into_iter()
        .chain(1..=20)
        .collect();
    let group = multicast(cluster, PIPELINE, 8 * KB, &sizes);
    assert_eq!(cluster.message_results().len(), sizes.len());
    assert_in_order(cluster, &[(group, 4)], &sizes);
}

/// Two groups with overlapping membership share the fabric without
/// interfering, and both close clean.
fn overlapping<T: Transport>(cluster: &mut Cluster<T>) {
    let g0 = cluster.create_group(spec(0..4, PIPELINE, 8 * KB, 2));
    let g1 = cluster.create_group(spec(2..6, Algorithm::Chain, 8 * KB, 2));
    cluster.submit_send(g0, 40 * KB);
    cluster.submit_send(g1, 24 * KB);
    cluster.run();
    assert!(cluster.destroy_group(g0));
    assert!(cluster.destroy_group(g1));
}

/// The close barrier under concurrent sends: with no `run()` first,
/// `destroy_group` drains the in-flight traffic itself and certifies
/// every message reached every member (§4.6).
fn close_concurrent<T: Transport>(cluster: &mut Cluster<T>) {
    let group = cluster.create_group(spec(0..5, PIPELINE, 8 * KB, 2));
    for _ in 0..4 {
        cluster.submit_send(group, 32 * KB);
    }
    assert!(
        cluster.destroy_group(group),
        "clean history must close clean"
    );
}

/// The close barrier reports an unclean history when a member dies
/// mid-transfer.
fn close_lost_member<T: Transport>(cluster: &mut Cluster<T>) {
    let group = cluster.create_group(spec(0..4, PIPELINE, 8 * KB, 2));
    cluster.submit_send(group, 64 * KB);
    cluster.crash_now(2);
    cluster.run();
    assert!(
        !cluster.destroy_group(group),
        "close must report the lost member"
    );
}

/// A member crashes mid-transfer (engine step 150) and no recovery runs:
/// every survivor hears of it once — those not connected to it from the
/// relayed notice — and wedges (§3 property 6); the message completes
/// nowhere, and a later send delivers at no member.
fn wedge<T: Transport>(cluster: &mut Cluster<T>) {
    let group = cluster.create_group(spec(0..8, PIPELINE, BLOCK, 3));
    let first = cluster.submit_send(group, 64 * BLOCK);
    cluster.crash_after_events(5, 150);
    cluster.run();
    let mut failed: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for e in cluster.recorder().events() {
        if let (Some(node), EventKind::Wedged { failed: rank }) = (e.scope.node, e.kind) {
            failed.entry(node).or_default().push(rank);
        }
    }
    let survivors = [0, 1, 2, 3, 4, 6, 7];
    assert_eq!(failed, survivors.iter().map(|&m| (m, vec![5])).collect());
    assert_eq!(cluster.wedged_members(group), survivors);
    let first = cluster.result(first).expect("submitted");
    assert!(first.latency().is_none(), "completed despite the crash");
    let later = cluster.submit_send(group, 1000);
    cluster.run();
    let later = cluster.result(later).expect("submitted");
    assert!(
        (0..8).all(|m| !later.delivered(m)),
        "delivered after the wedge"
    );
}

// ---- Failure recovery ------------------------------------------------

const BIG: u64 = 64 * KB;

/// The recovery rows' group: every node, 64 KiB blocks.
fn big_group<T: Transport>(cluster: &mut Cluster<T>) -> GroupId {
    let n = cluster.transport().num_nodes();
    cluster.create_group(spec(0..n, PIPELINE, BIG, 2))
}

/// A message completes, a non-root member fail-stops at quiescence,
/// epoch recovery reconfigures, and a second message reaches the
/// survivors — identically on every backend. The row's generous grace
/// keeps wall-clock failure detection (TCP) and virtual-time detection
/// (sim) on the same side of every protocol deadline.
fn recovery_workload<T: Transport>(cluster: &mut Cluster<T>) {
    let group = multicast(cluster, PIPELINE, BLOCK, &[4 * BLOCK]);
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
}

/// Rank 2 crashes mid-transfer (after 40 engine events the pipeline is
/// mid-flight on every lane): one view change, found by the epidemic
/// and not forced, resumes the message with only the missing blocks.
fn non_sender_crash<T: Transport>(cluster: &mut Cluster<T>) {
    cluster.crash_after_events(2, 40);
    let group = multicast(cluster, PIPELINE, BIG, &[8 * BIG]);

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1, "exactly one view change");
    let rc = &stats.reconfigurations[0];
    assert_eq!((rc.epoch, cluster.group_epoch(group)), (1, 1));
    assert_eq!(rc.removed, vec![2]);
    assert_eq!(rc.survivors, vec![0, 1, 3]);
    assert_eq!(cluster.surviving_ranks(group), vec![0, 1, 3]);
    assert!(!rc.forced, "the epidemic path must agree without forcing");
    assert!(
        rc.resumed + rc.remulticast + rc.already_complete == 1 && rc.abandoned.is_empty(),
        "the interrupted message must be resumed, not abandoned: {rc:?}"
    );
    // The new epoch moves only the missing blocks: strictly fewer
    // transfers than re-multicasting all 8 blocks to both non-holders.
    assert!(
        rc.resumed_blocks > 0,
        "some blocks were missing at the wedge"
    );
    assert!(rc.resumed_blocks < 16, "resume re-sent held blocks: {rc:?}");
    // Suspicion only after the crash, the new epoch after the grace.
    let crash_at = cluster.crash_time(2).expect("rank 2 crashed");
    let det = &stats.detections[0];
    assert_eq!(det.failed, 2);
    assert!(det.suspected_at >= crash_at);
    assert!(rc.first_suspected_at >= crash_at);
    assert!(rc.installed_at >= rc.first_suspected_at + RecoveryConfig::default().grace);
}

/// The root crashes mid-message (step 35). The message's record carries
/// its fate: abandoned exactly when the view change says so, and then
/// delivered at no survivor (otherwise at every one). Original rank 1
/// is the new root, and its message reaches every survivor.
fn sender_crash<T: Transport>(cluster: &mut Cluster<T>) {
    let group = big_group(cluster);
    cluster.crash_after_events(0, 35);
    let first = cluster.submit_send(group, 6 * BIG);
    cluster.run();

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    let rc = &stats.reconfigurations[0];
    assert_eq!(rc.removed, vec![0]);
    assert_eq!(cluster.surviving_ranks(group), vec![1, 2, 3]);
    assert_eq!(cluster.check_run(), Ok(()));
    let fate = cluster.result(first).expect("submitted");
    assert_eq!(fate.sender, 0);
    assert_eq!(fate.abandoned, rc.abandoned.contains(&0));
    for o in [1usize, 2, 3] {
        assert_ne!(
            fate.delivered(o),
            fate.abandoned,
            "rank {o} contradicts the fate"
        );
    }

    let second = cluster.submit_send(group, 3 * BIG);
    cluster.run();
    let last = cluster.result(second).expect("second message");
    assert!(!last.abandoned, "post-recovery multicast abandoned");
    assert_eq!(last.sender, 1);
    for o in [1usize, 2, 3] {
        assert!(
            last.delivered(o),
            "post-recovery multicast missing at rank {o}"
        );
    }
}

/// The second crash lands while the first recovery cycle is likely in
/// flight; whether the cycles merge or stack, the group converges.
fn cascading<T: Transport>(cluster: &mut Cluster<T>) {
    cluster.crash_after_events(4, 30);
    cluster.crash_after_events(2, 90);
    let group = multicast(cluster, PIPELINE, BIG, &[10 * BIG]);

    let views = cluster.recovery_stats().reconfigurations.len();
    assert!(
        (1..=2).contains(&views),
        "one merged or two stacked, got {views}"
    );
    assert_eq!(cluster.surviving_ranks(group), vec![0, 1, 3, 5]);
    assert_eq!(cluster.group_epoch(group) as usize, views);
}

/// Severing 1<->3 without crashing either node: with no rejoin path,
/// mutual suspicion evicts both, and eviction fences their nodes off.
fn link_flap<T: Transport>(cluster: &mut Cluster<T>) {
    let group = big_group(cluster);
    cluster.inject_link_flap(group, 1, 3);
    cluster.submit_send(group, 4 * BIG);
    cluster.run();

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    assert_eq!(stats.reconfigurations[0].removed, vec![1, 3]);
    assert_eq!(cluster.surviving_ranks(group), vec![0, 2, 4]);
    assert!(cluster.crash_time(1).is_some() && cluster.crash_time(3).is_some());
}

/// A crash while three queued messages flow: later messages are carried
/// into the new epoch (resumed or restarted), not lost.
fn crash_between_messages<T: Transport>(cluster: &mut Cluster<T>) {
    cluster.crash_after_events(1, 60);
    multicast(cluster, PIPELINE, BIG, &[4 * BIG; 3]);

    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    assert_eq!(stats.reconfigurations[0].removed, vec![1]);
}

/// A recovery group's view row is its only failure notice, so each
/// survivor's engine hears of each failed member exactly once; and in
/// any group no engine is ever told that it failed itself (a flap's far
/// end wedges on its own broken connection, not on a relayed notice).
/// `crash` is an engine step to crash the middle node at, else a 1-3
/// flap; `views` is 1 with recovery on, else 0.
fn hears_once<T: Transport>(cluster: &mut Cluster<T>, crash: Option<u64>, views: usize) {
    let n = cluster.transport().num_nodes();
    let group = big_group(cluster);
    match crash {
        Some(step) => cluster.crash_after_events(n / 2, step),
        None => cluster.inject_link_flap(group, 1, 3),
    }
    cluster.submit_send(group, 16 * BIG);
    cluster.run();
    // Every notice lands before the one view change, so ranks in the
    // log are original ranks.
    let mut heard: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for entry in cluster.engine_log() {
        if let Event::PeerFailed { rank } = entry.event {
            assert_ne!(rank, entry.rank, "an engine was told it failed");
            heard.entry(entry.rank).or_default().push(rank);
        }
    }
    let reconfigurations = &cluster.recovery_stats().reconfigurations;
    assert_eq!(reconfigurations.len(), views);
    for rc in reconfigurations {
        for survivor in cluster.surviving_ranks(group) {
            let mut got = heard.remove(&survivor).unwrap_or_default();
            got.sort_unstable();
            assert_eq!(got, rc.removed, "survivor {survivor}");
        }
    }
}

// ---- Atomic multicast ------------------------------------------------

/// Atomic group 0 over the first `n` nodes, 64 KiB blocks, with the
/// flight recorder on.
fn atomic(n: usize) -> Setup {
    Setup {
        atomic: Some(spec(0..n, PIPELINE, BIG, 2)),
        recorder: true,
        ..Setup::default()
    }
}

/// Round-robin slots, identical total order at every member, and each
/// delivery after the underlying RDMC completion at that member.
fn total_order<T: Transport>(cluster: &mut Cluster<T>) {
    let (n, count) = (4, 8);
    let ids: Vec<_> = (0..count)
        .map(|_| cluster.submit_atomic(0, 96 * KB))
        .collect();
    cluster.run();
    let reference = cluster.atomic_log(0, 0).to_vec();
    assert_eq!(reference.len(), count, "member 0 delivered everything");
    for (i, d) in reference.iter().enumerate() {
        // Slot i belongs to member i % n and is its (i / n)-th submission.
        let slot = (d.slot, d.sender, d.seq, d.size, d.message);
        assert_eq!(
            slot,
            (i as u64, (i % n) as u32, (i / n) as u64, 96 * KB, ids[i])
        );
    }
    for m in 1..n {
        let log = cluster.atomic_log(0, m);
        assert_eq!(log.len(), count, "member {m} delivered everything");
        for (a, b) in reference.iter().zip(log) {
            // Same total order everywhere; only the upcall time differs.
            assert_eq!(
                (a.slot, a.sender, a.seq, a.size),
                (b.slot, b.sender, b.seq, b.size)
            );
        }
    }
    // Stability cannot outrun local receipt. Member `m` is node `m`, and
    // with no crash a subgroup's `index`-th message is its `index`-th
    // delivery in the flight recorder.
    let replayed = trace::replay::replay(&cluster.recorder().events());
    for m in 0..n {
        for d in cluster.atomic_log(0, m) {
            let r = cluster.result(d.message).expect("message result");
            let at = &replayed.delivered[&(r.group as u32, m as u32)];
            let local = SimTime::from_nanos(at[r.index].0);
            assert!(d.at >= local, "member {m} delivered slot {} early", d.slot);
        }
    }
}

/// Member 2 speaks first (owners 0 and 1 contribute nulls, slot 2 is
/// data), then member 1 (owners 3 and 0 null, slot 5 data).
fn null_slots<T: Transport>(cluster: &mut Cluster<T>) {
    let first = cluster.submit_atomic_from(0, 2, 64 * KB);
    let second = cluster.submit_atomic_from(0, 1, 64 * KB);
    cluster.run();
    assert_eq!(cluster.atomic_num_slots(0), 6);
    for m in 0..4 {
        let log = cluster.atomic_log(0, m);
        assert_eq!(log.len(), 2, "member {m}: only data slots reach the log");
        assert_eq!((log[0].slot, log[0].sender, log[0].message), (2, 2, first));
        assert_eq!((log[1].slot, log[1].sender, log[1].message), (5, 1, second));
    }
    let trimmed = cluster.atomic_trimmed_slots(0);
    assert!(trimmed.is_empty(), "no view change, no ragged trim");
}

/// Owners of scheduled sends resolve in fire order from the rotation
/// cursor.
fn scheduled<T: Transport>(cluster: &mut Cluster<T>) {
    let a = cluster.schedule_atomic_send_at(0, SimTime::from_nanos(50_000), 64 * KB);
    let b = cluster.schedule_atomic_send_at(0, SimTime::from_nanos(9_000_000), 64 * KB);
    cluster.run();
    for m in 0..3 {
        let log = cluster.atomic_log(0, m);
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].sender, log[0].message), (0, a));
        assert_eq!((log[1].sender, log[1].message), (1, b));
        assert!(log[0].at < log[1].at);
    }
}

/// Every member's delivery passes the oracle's ordering rule; a null in
/// the middle exercises the elision path under it.
fn oracle<T: Transport>(cluster: &mut Cluster<T>) {
    for _ in 0..6 {
        cluster.submit_atomic(0, 128 * KB);
    }
    cluster.submit_atomic_from(0, 3, 64 * KB);
    cluster.run();
    let stats = cluster
        .check_trace()
        .unwrap_or_else(|v| panic!("oracle: {v:#?}"));
    assert_eq!(stats.atomic_deliveries, 7 * 4);
}

/// The overlay on nodes 0-3 beside a plain chain group on nodes 2-5.
fn beside_plain<T: Transport>(cluster: &mut Cluster<T>) {
    let plain = cluster.create_group(spec(2..6, Algorithm::Chain, BIG, 2));
    let p = cluster.submit_send(plain, 256 * KB);
    cluster.submit_atomic(0, 256 * KB);
    cluster.run();
    assert!(cluster
        .result(p)
        .expect("plain message")
        .latency()
        .is_some());
    for m in 0..4 {
        assert_eq!(cluster.atomic_log(0, m).len(), 1);
    }
}

/// §4.6's single-sender setting: the overlay with every submission
/// pinned to member 0 of 8, in 1 MiB blocks.
fn single_sender(n: usize) -> Setup {
    Setup {
        atomic: Some(spec(0..n, PIPELINE, MB, 3)),
        ..Setup::default()
    }
}

/// Every member logs every message in submission order.
fn submission_order<T: Transport>(cluster: &mut Cluster<T>) {
    let sizes = [8 * MB, 3 * MB, 8 * MB, 5 * MB, MB];
    let ids: Vec<_> = sizes
        .iter()
        .map(|&s| cluster.submit_atomic_from(0, 0, s))
        .collect();
    cluster.run();
    let want: Vec<_> = ids.iter().zip(sizes).map(|(&id, s)| (id, s, 0)).collect();
    for member in 0..8 {
        let log = cluster.atomic_log(0, member);
        let got: Vec<_> = log.iter().map(|d| (d.message, d.size, d.sender)).collect();
        assert_eq!(
            got, want,
            "member {member}: log is not the submission order"
        );
        assert!(log
            .windows(2)
            .all(|w| w[0].slot < w[1].slot && w[0].at <= w[1].at));
    }
}

/// `count` messages of `size` bytes from member 0.
fn from_member_zero<T: Transport>(cluster: &mut Cluster<T>, count: usize, size: u64) {
    for _ in 0..count {
        cluster.submit_atomic_from(0, 0, size);
    }
    cluster.run();
}

/// The upcall at any member follows *every* member's local RDMC
/// completion of that message, the last one's included.
fn after_every_completion<T: Transport>(cluster: &mut Cluster<T>) {
    from_member_zero(cluster, 3, 16 * MB);
    for member in 0..8 {
        let log = cluster.atomic_log(0, member);
        assert_eq!(log.len(), 3, "member {member}");
        for d in log {
            let result = cluster.result(d.message).expect("submitted");
            let t = result
                .completed
                .expect("crash-free run completes everywhere");
            assert!(
                d.at >= t,
                "member {member} slot {}: upcall before {t:?}",
                d.slot
            );
        }
    }
}

/// The dead member's frontier row never advances and, with recovery off,
/// no view change removes it from the stability minimum — so nothing
/// becomes stable. (With recovery the view change is exactly the
/// leader-based cleanup Derecho needs here.)
fn crash_unrecovered<T: Transport>(cluster: &mut Cluster<T>) {
    cluster.submit_atomic_from(0, 0, 64 * MB);
    cluster.crash_after_events(2, 200);
    cluster.run();
    for member in [0, 1, 3] {
        let log = cluster.atomic_log(0, member);
        assert!(
            log.is_empty(),
            "member {member} delivered unstably after a crash"
        );
    }
    let sender_subgroup = cluster.atomic_subgroups(0)[0];
    assert!(!cluster.wedged_members(sender_subgroup).is_empty());
}

// ---- Pacing across reconfiguration -----------------------------------

const NODES: usize = 6;
const POLICIES: [PacingPolicy; 3] = [Fifo, SmallestFirst, RoundRobin];

/// A backlog of `sizes` (in blocks) alternating between two overlapping
/// groups, and a crash of `victim` at engine step `step`. Wherever an
/// epoch change installed, the victim is gone from the view (a crash
/// after the backlog drained is never detected, so the old view stands).
fn paced_crash<T: Transport>(cluster: &mut Cluster<T>, sizes: &[u64], victim: usize, step: u64) {
    let g0 = cluster.create_group(spec(0..NODES, PIPELINE, BIG, 2));
    let g1_members = [1, 2, 3, 4, 5, 0];
    let g1 = cluster.create_group(spec(g1_members, PIPELINE, BIG, 2));
    for (i, &k) in sizes.iter().enumerate() {
        cluster.submit_send([g0, g1][i % 2], k * BIG);
    }
    cluster.crash_after_events(victim, step);
    cluster.run();
    for (g, members) in [(g0, [0, 1, 2, 3, 4, 5]), (g1, g1_members)] {
        if cluster.group_epoch(g) > 0 {
            let survivors = cluster.surviving_ranks(g);
            assert!(!survivors.iter().any(|&r| members[r as usize] == victim));
        }
    }
}

/// The pacer with `max_inflight` admission slots under `policy`.
fn paced(policy: PacingPolicy, max_inflight: u32, recovery: bool) -> Setup {
    Setup {
        pacing: Some(PacerConfig::new(max_inflight, policy)),
        recovery: recovery.then(RecoveryConfig::default),
        ..Setup::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under any pacing policy, admission bound and backlog, with a crash
    /// landing mid-backlog: control traffic bypasses the saturated
    /// admission queues (a wedged epoch change starved behind paced block
    /// sends would leave survivors busy forever), pacing defers posting
    /// and never the receive side (no RNR arm, §4.2), and every message
    /// is all-or-nothing over the survivors — the verdict's rules 1-4.
    #[test]
    fn pacing_with_crash_preserves_credit_discipline(
        policy in prop::sample::select(POLICIES.to_vec()),
        max_inflight in 1u32..4,
        sizes in prop::collection::vec(1u64..12, 2..7),
        victim in 1usize..NODES,
        step in 50u64..4_000,
    ) {
        let setup = paced(policy, max_inflight, true);
        row!("paced_crash", Clean, NODES, setup, paced_crash(&sizes, victim, step));
    }

    /// Crash-free control: every backlog delivers everywhere under every
    /// policy, identically on every backend.
    #[test]
    fn pacing_without_crash_delivers_everything(
        policy in prop::sample::select(POLICIES.to_vec()),
        max_inflight in 1u32..4,
        blocks in prop::collection::vec(1u64..12, 2..7),
    ) {
        let setup = paced(policy, max_inflight, false);
        let sizes: Vec<u64> = blocks.iter().map(|k| k * BIG).collect();
        row!("paced_backlog", Same, NODES, setup, multicast(PIPELINE, BIG, &sizes));
    }
}

// ---- Fabric only -----------------------------------------------------

/// Fabric only, since per-link byte counts exist only on the simulated
/// network: in the non-sender crash row each surviving receiver's
/// downlink carried every block at most once per epoch attempt, far less
/// than a second copy of the message (control writes bypass the flow
/// accounting).
#[test]
fn resume_carries_only_the_missing_blocks() {
    let cluster = Setup::recovering().run(sim(4), non_sender_crash);
    let (net, topo) = (cluster.transport().net(), cluster.transport().topology());
    let size = 8 * BIG;
    for node in [1usize, 3] {
        let carried = net.bytes_carried(topo.rx_link(node));
        assert!(
            carried >= size as f64,
            "node {node} received {carried} < {size}"
        );
        assert!(
            carried < (size + 3 * BIG) as f64,
            "node {node} received {carried}: held blocks were retransmitted"
        );
    }
}

/// Fabric only, since it needs a 50 ms WAN hop: with a grace far below
/// the propagation delay, all five reconfiguration attempts beat the
/// `TAG_VIEW` epidemic, so the orchestrator forces the failure evidence.
#[test]
fn impatient_config_forces_the_view_before_the_epidemic_settles() {
    let geo = ClusterBuilder::new(ClusterSpec::geo(4));
    let cluster = recovery(SimDuration::from_nanos(10)).run(geo, |cluster| {
        let group = big_group(cluster);
        cluster.crash_after_events(3, 25);
        cluster.submit_send(group, 6 * BIG);
        cluster.run();
    });
    let stats = cluster.recovery_stats();
    assert_eq!(stats.reconfigurations.len(), 1);
    let rc = &stats.reconfigurations[0];
    assert!(
        rc.forced,
        "agreement cannot settle within 10ns of suspicion"
    );
    assert_eq!(rc.removed, vec![3]);
    assert_eq!(cluster.surviving_ranks(0), vec![0, 1, 2]);
    assert_eq!(cluster.check_run(), Ok(()));
}

/// Fabric only, since a delay ratio means something only in virtual
/// time: atomic delivery costs under 5 % end to end over plain RDMC, and
/// no bandwidth (§4.6: "No loss of bandwidth is experienced, and the
/// added delay is surprisingly small").
#[test]
fn added_delay_is_small_and_bandwidth_is_kept() {
    let (count, size) = (6, 32 * MB);
    let atomic = single_sender(8).run(sim(8), |c| from_member_zero(c, count, size));
    let plain = Setup::default().run(sim(8), |cluster| {
        let group = cluster.create_group(spec(0..8, PIPELINE, MB, 3));
        for _ in 0..count {
            cluster.submit_send(group, size);
        }
        cluster.run();
    });
    let plain_s = plain.last_delivery().unwrap().as_secs_f64();
    let stable = (0..8).flat_map(|m| atomic.atomic_log(0, m).iter().map(|d| d.at));
    let stable_s = stable.max().unwrap().as_secs_f64();
    assert!(stable_s >= plain_s, "stability cannot be free");
    assert!(
        stable_s < plain_s * 1.05,
        "atomic delivery should cost <5% end-to-end: {plain_s} vs {stable_s}"
    );
}

/// Fabric only, since only virtual time makes a run replayable: two
/// atomic runs are bit-for-bit identical.
#[test]
fn atomic_reruns_are_bit_for_bit_identical() {
    let digest = || {
        let cluster: Cluster<Fabric> = atomic(5).run(sim(5), |cluster| {
            for _ in 0..7 {
                cluster.submit_atomic(0, 160 * KB);
            }
            cluster.run();
        });
        cluster.state_digest()
    };
    assert_eq!(digest(), digest());
}
