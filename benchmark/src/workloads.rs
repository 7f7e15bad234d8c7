//! The five workloads. Each function here runs **one repetition** in a
//! fresh cluster and returns what it measured ([`Rep`]); `metrics.rs`
//! turns repetitions into named metrics. Work is a fixed operation
//! count, never a fixed duration: per-operation cost in this system
//! depends on how much history a group has, so a timed run would change
//! its own workload. `--seconds` only scales the counts ([`Scale`]).
//!
//! The TCP workloads are **closed loops**: submit a window of
//! operations, `run()` until every one is delivered everywhere, submit
//! the next window. `sim_sharded` is an **open loop in virtual time**
//! (a precomputed arrival schedule); `sim_dense` is one batch.
//! Everything runs on one thread of one process, and every TCP byte
//! crosses the host **loopback** interface, not a real link.
//!
//! Each repetition is also cut into **positions** — stretches of
//! identical work in every repetition (one closed-loop window on TCP,
//! [`SIM_SEGMENT_STEPS`] deterministic simulator steps) — and records
//! the time each took, so that `metrics.rs` can take the lower quartile
//! *per position* across repetitions. This host's speed changes for
//! seconds at a time; a whole repetition never escapes that, a position
//! does in some repetitions.
//!
//! Position times, latencies and set-up times are also **host-speed
//! compensated**: scaled by how long a fixed reference kernel
//! ([`HostKernel`]) took next to them ([`compensate`]).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use rdmc::Algorithm;
use rdmc_sim::{Cluster, ClusterBuilder, ClusterSpec, GroupSpec, MessageId};
use rdmc_tcp::TcpFabric;
use simnet::SimTime;
use verbs::perf::KernelPerf;
use verbs::{Fabric, Transport};
use workloads::ShardedWorkload;

use crate::replay::{replay, Replay};
use crate::spans::Spans;
use crate::timed::{Probe, Tally, Timed};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TcpLarge,
    TcpSmall,
    TcpAtomic,
    SimDense,
    SimSharded,
}

pub const WORKLOADS: [(&str, Kind); 5] = [
    ("tcp_large", Kind::TcpLarge),
    ("tcp_small", Kind::TcpSmall),
    ("tcp_atomic", Kind::TcpAtomic),
    ("sim_dense", Kind::SimDense),
    ("sim_sharded", Kind::SimSharded),
];

/// Simulator steps (software-visible deliveries) per position. The
/// simulation is deterministic, so the same steps do the same work in
/// every repetition.
const SIM_SEGMENT_STEPS: u64 = 8192;

impl Kind {
    pub fn is_tcp(self) -> bool {
        matches!(self, Kind::TcpLarge | Kind::TcpSmall | Kind::TcpAtomic)
    }

    /// Repetitions per run, each in a fresh cluster: as many as make
    /// the run last about `run_seconds` on the reference host. Every
    /// extra repetition is another sample under each position's
    /// quartile.
    pub fn reps(self) -> usize {
        match self {
            Kind::TcpSmall => 10,
            Kind::TcpAtomic => 5,
            Kind::TcpLarge | Kind::SimDense => 4,
            Kind::SimSharded => 3,
        }
    }

    /// Whether `--seed` changes this workload's inputs. The fixed-size
    /// workloads have no random input to seed.
    pub fn uses_seed(self) -> bool {
        matches!(self, Kind::TcpAtomic | Kind::SimSharded)
    }

    /// Group size and blocks per message: the schedule this workload
    /// plans (`core.plan_s`). `sim_sharded`'s sizes vary; its median
    /// message is 13 blocks.
    pub fn plan_shape(self, scale: Scale) -> (u32, u32) {
        match self {
            Kind::TcpLarge => (8, 64),
            Kind::TcpSmall => (32, 1),
            Kind::TcpAtomic => (8, 1),
            Kind::SimDense => (32, (dense_message_bytes(scale) / MIB) as u32),
            Kind::SimSharded => (3, 13),
        }
    }
}

/// `--seconds` as a fraction of the declared `run_seconds`: the factor
/// applied to every workload's reference operation count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    pub num: u64,
    pub den: u64,
}

impl Scale {
    /// `base` scaled, rounded down to a whole number of `step`s, at
    /// least one step.
    fn of(self, base: u64, step: u64) -> u64 {
        (base * self.num / self.den / step).max(1) * step
    }
}

fn dense_message_bytes(scale: Scale) -> u64 {
    scale.of(32 * MIB, MIB)
}

/// Simulated-time results of a `sim_*` repetition, as integers so that
/// "bit-identical" is plain equality. Virtual time: what the modelled
/// fabric would take, unvalidated against hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Model {
    pub events: u64,
    pub bytes: u64,
    /// First submit → last delivery.
    pub span_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Everything one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Compensated, like the latencies and the position times.
    pub setup_s: f64,
    /// The timed span in raw host seconds: first submit → return of
    /// the last `run()`, less the reference kernel's passes in between.
    pub wall_s: f64,
    /// Host seconds inside `submit_*` / `schedule_send_at` calls.
    pub submit_s: f64,
    pub attempted: u64,
    pub completed: u64,
    /// Payload bytes of completed operations, each counted once.
    pub bytes: u64,
    /// Receivers per operation (group size − 1), for `rx_gbps`.
    pub receivers: u64,
    /// Host-clock submit → completion per operation, compensated, by
    /// operation index (`None`: not completed). On TCP the completion is the
    /// transport's wall-clock stamp of the last member's delivery. The
    /// simulated fabric stamps virtual time, so there every operation
    /// completes, in host time, when the run goes quiescent and results
    /// become readable: at the end of the last position.
    pub latencies_ms: Vec<Option<f64>>,
    /// Whether operations complete at the end of the timed span (the
    /// simulated workloads) rather than at stamps of their own.
    pub completes_at_end: bool,
    /// Compensated host seconds each position took. (`wall_s` is the
    /// sum of the raw ones.)
    pub segments_s: Vec<f64>,
    pub rnr_arms: u64,
    /// Correctness-gate failures, human-readable; empty = clean.
    pub problems: Vec<String>,
    pub model: Option<Model>,
    pub perf: KernelPerf,
    pub generate_s: f64,
    /// Traced repetitions only: self seconds of the timed `Cluster`
    /// call spans (their time minus their transport children), the
    /// transport calls inside the timed span and over the whole
    /// repetition, and the `core` replay.
    pub cluster_self_s: f64,
    pub timed: Tally,
    pub whole: Tally,
    pub replay: Option<Replay>,
}

pub fn run_rep(
    kind: Kind,
    traced: bool,
    scale: Scale,
    seed: u64,
    spans: &mut Spans,
) -> Result<Rep, String> {
    match (kind.is_tcp(), traced) {
        (true, false) => tcp_rep::<TcpFabric>(kind, scale, seed, spans),
        (true, true) => tcp_rep::<Timed<TcpFabric>>(kind, scale, seed, spans),
        (false, false) => sim_rep::<Fabric>(kind, scale, seed, spans),
        (false, true) => sim_rep::<Timed<Fabric>>(kind, scale, seed, spans),
    }
}

/// Set-up alone (launch, groups, warm-up; then torn down), for the
/// extra `setup_s` samples a run takes beyond its repetitions.
pub fn setup_only(kind: Kind, scale: Scale, seed: u64) -> Result<f64, String> {
    let mut kernel = HostKernel::new()?;
    if kind.is_tcp() {
        let atomic = kind == Kind::TcpAtomic;
        let setup = tcp_setup::<TcpFabric>(&tcp_shape(kind, scale), atomic, &mut kernel)?;
        let fabric = setup.cluster.into_transport();
        fabric
            .shutdown()
            .map_err(|e| format!("TcpFabric::shutdown: {e}"))?;
        Ok(setup.setup_s)
    } else {
        let setup = sim_setup::<Fabric>(kind, scale, seed, &mut kernel);
        Ok(setup.setup_s)
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

fn binomial(members: Vec<usize>, block_size: u64, window: u32) -> GroupSpec {
    GroupSpec {
        members,
        algorithm: Algorithm::BinomialPipeline,
        block_size,
        ready_window: window,
        max_outstanding_sends: window,
    }
}

/// The seeded origin order of `tcp_atomic` (SplitMix64 underneath).
/// Every member is an active sender, so origins mostly follow the
/// rotation; one time in eight the next sender is instead any member,
/// uniformly, and the rotation owners it jumped over contribute null
/// slots — the overlay's other path, at a steady seeded rate.
struct Origins {
    state: u64,
    members: usize,
    /// The member the rotation expects next.
    cursor: usize,
}

impl Origins {
    fn next(&mut self) -> usize {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let origin = match z % 8 {
            0 => (z >> 8) as usize % self.members,
            _ => self.cursor,
        };
        self.cursor = (origin + 1) % self.members;
        origin
    }
}

struct TcpShape {
    nodes: usize,
    size: u64,
    block: u64,
    /// Operations in flight per closed-loop window.
    window: u64,
    ops: u64,
}

/// Windows are odd on purpose. Operations of one window complete one
/// after another, so latencies cluster by place in the window; with an
/// even window the median latency sits in the gap between two clusters
/// and jumps between them from run to run.
fn tcp_shape(kind: Kind, scale: Scale) -> TcpShape {
    let (nodes, size, block, window, ops) = match kind {
        Kind::TcpLarge => (8, 16 * MIB, 256 * KIB, 3, 150),
        Kind::TcpSmall => (32, 4 * KIB, 4 * KIB, 9, 3996),
        Kind::TcpAtomic => (8, 8 * KIB, 8 * KIB, 31, 4092),
        _ => unreachable!("not a TCP workload"),
    };
    TcpShape {
        nodes,
        size,
        block,
        window,
        ops: scale.of(ops, window),
    }
}

/// A TCP cluster ready for its first timed operation.
struct TcpSetup<P: Probe> {
    start: Instant,
    end: Instant,
    /// Compensated, like every end-to-end timing.
    setup_s: f64,
    cluster: Cluster<P>,
    spec: GroupSpec,
    /// The plain group; `None` for the atomic group (id 0).
    group: Option<usize>,
    warm: Vec<MessageId>,
}

fn tcp_submit<P: Probe>(
    cluster: &mut Cluster<P>,
    group: Option<usize>,
    origin: usize,
    size: u64,
) -> MessageId {
    match group {
        Some(g) => cluster.submit_send(g, size),
        None => cluster.submit_atomic_from(0, origin, size),
    }
}

/// Launches the fabric, builds the cluster and its group, and runs the
/// untimed warm-up: one operation from every sender, which forces every
/// lazy `connect` the timed operations will use.
fn tcp_setup<P: Probe<Inner = TcpFabric>>(
    shape: &TcpShape,
    atomic: bool,
    kernel: &mut HostKernel,
) -> Result<TcpSetup<P>, String> {
    let n = shape.nodes;
    let (made, start, end, setup_s) = timed_setup(kernel, || {
        let fabric = TcpFabric::launch(n).map_err(|e| format!("TcpFabric::launch: {e}"))?;
        let spec = binomial((0..n).collect(), shape.block, 3);
        let mut builder = ClusterBuilder::from_transport(P::wrap(fabric));
        if P::TRACED {
            builder = builder.engine_log();
        }
        if atomic {
            builder = builder.atomic(spec.clone());
        }
        let mut cluster = builder.build();
        let group = (!atomic).then(|| cluster.create_group(spec.clone()));
        let warm: Vec<MessageId> = (0..if atomic { n } else { 1 })
            .map(|origin| tcp_submit(&mut cluster, group, origin, shape.size))
            .collect();
        cluster.run();
        Ok::<_, String>((cluster, spec, group, warm))
    });
    let (cluster, spec, group, warm) = made?;
    Ok(TcpSetup {
        start,
        end,
        setup_s,
        cluster,
        spec,
        group,
        warm,
    })
}

/// One closed-loop repetition over real loopback sockets.
fn tcp_rep<P: Probe<Inner = TcpFabric>>(
    kind: Kind,
    scale: Scale,
    seed: u64,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let shape = tcp_shape(kind, scale);
    let atomic = kind == Kind::TcpAtomic;
    let n = shape.nodes;
    let mut kernel = HostKernel::new()?;
    let TcpSetup {
        start: rep_start,
        end: setup_end,
        setup_s,
        mut cluster,
        spec,
        group,
        warm,
    } = tcp_setup::<P>(&shape, atomic, &mut kernel)?;
    let warm_log = cluster.engine_log().len();
    let setup_tally = cluster.transport().tally();

    // The warm-up left the rotation at member 0 again.
    let mut origins = Origins {
        state: seed,
        members: n,
        cursor: 0,
    };
    let batches = (shape.ops / shape.window) as usize;
    let mut ids: Vec<MessageId> = Vec::with_capacity(shape.ops as usize);
    // Per batch: submit start, run start, run end (+ tallies, traced).
    let mut marks: Vec<[Instant; 3]> = Vec::with_capacity(batches);
    let mut tallies: Vec<[Tally; 3]> = Vec::new();
    let mut submit_s = 0.0;
    // A kernel time at every boundary between windows, outside them.
    let mut kernel_s = vec![kernel.time_s()];
    for _ in 0..batches {
        let t0 = cluster.transport().tally();
        let s0 = Instant::now();
        for _ in 0..shape.window {
            ids.push(tcp_submit(&mut cluster, group, origins.next(), shape.size));
        }
        let s1 = Instant::now();
        let t1 = cluster.transport().tally();
        cluster.run();
        let s2 = Instant::now();
        submit_s += secs(s0, s1);
        marks.push([s0, s1, s2]);
        if P::TRACED {
            tallies.push([t0, t1, cluster.transport().tally()]);
        }
        kernel_s.push(kernel.time_s());
    }
    // One position per closed-loop window.
    let raw_s: Vec<f64> = marks.iter().map(|m| secs(m[0], m[2])).collect();
    let segments_s = compensate(&raw_s, &kernel_s);

    let mut rep = Rep {
        setup_s,
        wall_s: raw_s.iter().sum(),
        submit_s,
        attempted: shape.ops,
        receivers: n as u64 - 1,
        ..Rep::default()
    };
    // Completion: every member has the operation. Plain groups read the
    // per-member delivery stamps; the atomic group reads the members'
    // total-order logs, which must also be identical and gapless.
    let mut latencies_ns: Vec<Option<u64>> = Vec::with_capacity(ids.len());
    if atomic {
        let submitted: Vec<MessageId> = warm.iter().chain(&ids).copied().collect();
        rep.problems
            .extend(check_atomic_logs(&cluster, n, &submitted));
        let logs: Vec<_> = (0..n).map(|m| cluster.atomic_log(0, m)).collect();
        for i in warm.len()..warm.len() + ids.len() {
            let committed = logs
                .iter()
                .map(|log| log.get(i).map(|d| d.at))
                .collect::<Option<Vec<SimTime>>>()
                .and_then(|at| at.into_iter().max());
            let submitted = logs[0]
                .get(i)
                .and_then(|d| cluster.result(d.message))
                .map(|r| r.submitted);
            latencies_ns.push(match (committed, submitted) {
                (Some(c), Some(s)) => Some(c.saturating_since(s).as_nanos()),
                _ => None,
            });
        }
    } else {
        for id in warm.iter().chain(&ids) {
            let latency = cluster.result(*id).and_then(|r| r.latency());
            latencies_ns.push(latency.map(|l| l.as_nanos()));
        }
        if latencies_ns.drain(..warm.len()).any(|l| l.is_none()) {
            rep.problems
                .push("warm-up operation was not delivered".into());
        }
    }
    rep.completed = latencies_ns.iter().flatten().count() as u64;
    rep.bytes = rep.completed * shape.size;
    // A latency is compensated like the window it was measured in.
    rep.latencies_ms = latencies_ns
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let window = i / shape.window as usize;
            l.map(|ns| ns as f64 / 1e6 * segments_s[window] / raw_s[window])
        })
        .collect();
    if rep.completed != rep.attempted {
        rep.problems.push(format!(
            "{} of {} operations not delivered at every member",
            rep.attempted - rep.completed,
            rep.attempted
        ));
    }
    rep.segments_s = segments_s;

    rep.rnr_arms = cluster.transport().stats().rnr_arms;
    if rep.rnr_arms != 0 {
        rep.problems
            .push(format!("{} RNR arms (must be 0)", rep.rnr_arms));
    }
    let groups: Vec<usize> = match group {
        Some(g) => vec![g],
        None => cluster.atomic_subgroups(0).to_vec(),
    };
    for &g in &groups {
        if !cluster.destroy_group(g) {
            rep.problems
                .push(format!("destroy_group({g}) did not certify delivery"));
        }
    }
    let rep_end = Instant::now();
    if P::TRACED {
        rep.whole = cluster.transport().tally();
        let specs = vec![spec; groups.len()];
        let replayed = replay(cluster.engine_log(), &specs, warm_log);
        let expect = (warm.len() + ids.len()) as u64 / groups.len() as u64;
        if !atomic && replayed.completed.iter().flatten().any(|&c| c != expect) {
            rep.problems
                .push("engine-log replay did not complete every message".into());
        }
        rep.replay = Some(replayed);
        rep.timed = tallies[batches - 1][2].since(&tallies[0][0]);
        let root = spans.push(None, "rep", rep_start, rep_end);
        spans.push_call(root, "setup", rep_start, setup_end, &setup_tally);
        let first_call = spans.all().len();
        for (m, t) in marks.iter().zip(&tallies) {
            spans.push_call(root, "cluster.submit", m[0], m[1], &t[1].since(&t[0]));
            spans.push_call(root, "cluster.run", m[1], m[2], &t[2].since(&t[1]));
        }
        rep.cluster_self_s = spans.cluster_self_s(first_call);
        for (i, latency) in latencies_ns.iter().enumerate() {
            if let Some(ns) = latency {
                let submitted = marks[i / shape.window as usize][0];
                spans.push_op(root, i as u64, submitted, *ns);
            }
        }
    }
    if let Err(e) = Probe::unwrap(cluster.into_transport()).shutdown() {
        rep.problems.push(format!("TcpFabric::shutdown: {e}"));
    }
    Ok(rep)
}

/// The atomic group's logs must be the same `(slot, sender, seq, size)`
/// sequence at every member, and that sequence must be gapless: every
/// submitted message, in submission order (one thread submits, so the
/// rotation's total order is the submission order), in rising slots.
fn check_atomic_logs<T: Transport>(
    cluster: &Cluster<T>,
    n: usize,
    submitted: &[MessageId],
) -> Vec<String> {
    let mut problems = Vec::new();
    let key = |m: usize| {
        cluster
            .atomic_log(0, m)
            .iter()
            .map(|d| (d.slot, d.sender, d.seq, d.size))
            .collect::<Vec<_>>()
    };
    let reference = key(0);
    for m in 1..n {
        if key(m) != reference {
            problems.push(format!("atomic log of member {m} differs from member 0"));
        }
    }
    let log = cluster.atomic_log(0, 0);
    if !log.iter().map(|d| d.message).eq(submitted.iter().copied()) {
        problems.push(format!(
            "atomic log ({} entries) is not the {} submitted messages in order",
            log.len(),
            submitted.len()
        ));
    }
    if !log.windows(2).all(|w| w[0].slot < w[1].slot) {
        problems.push("atomic log slots do not rise strictly".into());
    }
    problems
}

struct SimPlan {
    spec: ClusterSpec,
    intern_paths: bool,
    groups: Vec<GroupSpec>,
    /// `(group index, virtual submit time, size)`; `None` = submit now.
    sends: Vec<(usize, Option<SimTime>, u64)>,
    generate_s: f64,
}

fn sim_plan(kind: Kind, scale: Scale, seed: u64) -> SimPlan {
    match kind {
        // The Fig. 10b pattern: every group has the same 32 members of
        // a 56-node oversubscribed TOR, each rooted at a different one.
        Kind::SimDense => SimPlan {
            spec: ClusterSpec::apt(7, 8),
            intern_paths: false,
            groups: (0..32)
                .map(|root| binomial((0..32).map(|i| (root + i) % 32).collect(), MIB, 3))
                .collect(),
            sends: (0..32)
                .map(|g| (g, None, dense_message_bytes(scale)))
                .collect(),
            generate_s: 0.0,
        },
        Kind::SimSharded => {
            let workload = ShardedWorkload {
                seed,
                nodes: 1000,
                shards: 100,
                replication_factor: 3,
                offered_gbps: 400.0,
                median_bytes: 1.7e6,
                mean_bytes: 2e6,
                min_bytes: 256 * KIB,
                max_bytes: 6 * MIB,
            };
            let start = Instant::now();
            let arrivals = workload.generate(scale.of(30_000, 100) as usize);
            let generate_s = start.elapsed().as_secs_f64();
            SimPlan {
                spec: ClusterSpec::datacenter(workload.nodes),
                intern_paths: true,
                groups: (0..workload.shards)
                    .map(|s| binomial(workload.members(s), 128 * KIB, 6))
                    .collect(),
                sends: arrivals
                    .iter()
                    .map(|a| (a.shard, Some(SimTime::from_nanos(a.at_ns)), a.size))
                    .collect(),
                generate_s,
            }
        }
        _ => unreachable!("not a simulated workload"),
    }
}

/// The reference kernel: a fixed, small mix of the kinds of work the
/// workloads do, timed at every position boundary to read how fast the
/// host is *now*. This host is a shared VM whose speed moves by up to
/// 2x for seconds to minutes at a time, and not one way: its clock
/// steps between levels (a dependent ALU chain sees only that), and a
/// busy neighbour on the core's other hardware thread halves the issue
/// width and slows kernel entry (wide independent work, system calls
/// and loopback transfers see that; the ALU chain does not). So the
/// kernel has four parts of about 12 us each, timed as one:
///
/// 1. a dependent chain of ALU operations (clock level);
/// 2. eight independent multiply chains with L1 loads (issue width);
/// 3. four 4 KiB transfers over a loopback socket pair of its own
///    (the kernel's TCP path and its copies);
/// 4. 100 reads of that socket, now empty (system-call entry).
///
/// It shares nothing with the program under test, so a change to the
/// program cannot move it.
pub struct HostKernel {
    table: [u32; 1024],
    tx: TcpStream,
    rx: TcpStream,
}

impl HostKernel {
    pub fn new() -> Result<HostKernel, String> {
        let pair = || -> std::io::Result<(TcpStream, TcpStream)> {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let tx = TcpStream::connect(listener.local_addr()?)?;
            let (rx, _) = listener.accept()?;
            tx.set_nodelay(true)?;
            rx.set_nonblocking(true)?;
            Ok((tx, rx))
        };
        let (tx, rx) = pair().map_err(|e| format!("reference kernel's socket pair: {e}"))?;
        let mut table = [0u32; 1024];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = (i as u32).wrapping_mul(2_654_435_761);
        }
        Ok(HostKernel { table, tx, rx })
    }

    fn pass(&mut self) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..8_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut sum = 0u64;
        for i in 0..4_000u64 {
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane = lane
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i ^ k as u64);
                sum = sum.wrapping_add(u64::from(self.table[(*lane >> 54) as usize]));
            }
        }
        std::hint::black_box((x, lanes, sum));
        let mut buf = [0u8; 4096];
        for _ in 0..4 {
            self.tx
                .write_all(&buf)
                .expect("4 KiB fits the empty socket buffer of the kernel's own pair");
            let mut got = 0;
            while got < buf.len() {
                match self.rx.read(&mut buf[got..]) {
                    Ok(0) => panic!("the kernel's own socket pair closed"),
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("the kernel's own socket pair: {e}"),
                }
            }
        }
        for _ in 0..100 {
            let _ = std::hint::black_box(self.rx.read(&mut buf[..64]));
        }
    }

    /// Seconds one pass takes now (~50 us). An untimed pass runs
    /// first, so that the time does not depend on what the workload
    /// left in the caches.
    pub fn time_s(&mut self) -> f64 {
        self.pass();
        let start = Instant::now();
        self.pass();
        start.elapsed().as_secs_f64()
    }
}

/// One pass of the kernel on the reference host when nothing slows it.
/// Only a unit: compensated seconds are seconds at the host speed where
/// a pass takes this long, whatever speed the host was at.
const HOST_KERNEL_REFERENCE_S: f64 = 50e-6;

/// Host-speed compensation. `kernel_s[j]` and `kernel_s[j + 1]` are
/// kernel times taken just before and after position `j` (between
/// positions, outside their times); each position's time is scaled by
/// the reference over the median kernel time around it (a median,
/// because one 50 us sample can be hit by an interrupt). Measured on
/// eight to twelve runs per workload in stretches where the host's
/// speed moved by 2x: the spread of `ops_per_s` between runs
/// (inter-quartile distance over median) fell from 14-30 % raw to
/// 2.5-6 % (README, "How a timing is taken").
fn compensate(raw_s: &[f64], kernel_s: &[f64]) -> Vec<f64> {
    assert_eq!(
        kernel_s.len(),
        raw_s.len() + 1,
        "one kernel time per boundary"
    );
    raw_s
        .iter()
        .enumerate()
        .map(|(j, raw)| {
            let around = &kernel_s[j.saturating_sub(2)..(j + 4).min(kernel_s.len())];
            raw * HOST_KERNEL_REFERENCE_S / crate::metrics::median(around.to_vec())
        })
        .collect()
}

/// Runs `work` between two kernel times on each side. Returns its
/// result, when it started and ended, and its compensated seconds.
fn timed_setup<T>(kernel: &mut HostKernel, work: impl FnOnce() -> T) -> (T, Instant, Instant, f64) {
    let mut kernel_s = vec![kernel.time_s(), kernel.time_s()];
    let start = Instant::now();
    let made = work();
    let end = Instant::now();
    kernel_s.extend([kernel.time_s(), kernel.time_s()]);
    let setup_s = secs(start, end) * HOST_KERNEL_REFERENCE_S / crate::metrics::median(kernel_s);
    (made, start, end, setup_s)
}

/// A simulated cluster ready for its first submit.
struct SimSetup<P: Probe> {
    start: Instant,
    end: Instant,
    /// Compensated, like every end-to-end timing.
    setup_s: f64,
    plan: SimPlan,
    cluster: Cluster<P>,
    groups: Vec<usize>,
}

fn sim_setup<P: Probe<Inner = Fabric>>(
    kind: Kind,
    scale: Scale,
    seed: u64,
    kernel: &mut HostKernel,
) -> SimSetup<P> {
    let ((plan, cluster, groups), start, end, setup_s) = timed_setup(kernel, || {
        let plan = sim_plan(kind, scale, seed);
        let mut fabric = plan.spec.build();
        fabric.set_path_interning(plan.intern_paths);
        let mut builder = ClusterBuilder::from_transport(P::wrap(fabric));
        if P::TRACED {
            builder = builder.engine_log();
        }
        let mut cluster = builder.build();
        let groups = plan
            .groups
            .iter()
            .map(|spec| cluster.create_group(spec.clone()))
            .collect();
        (plan, cluster, groups)
    });
    SimSetup {
        start,
        end,
        setup_s,
        plan,
        cluster,
        groups,
    }
}

/// One repetition on the simulated fabric, measured in host time.
fn sim_rep<P: Probe<Inner = Fabric>>(
    kind: Kind,
    scale: Scale,
    seed: u64,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let mut kernel = HostKernel::new()?;
    let perf_base = verbs::perf::snapshot();
    let SimSetup {
        start: rep_start,
        end: setup_end,
        setup_s,
        plan,
        mut cluster,
        groups,
    } = sim_setup::<P>(kind, scale, seed, &mut kernel);
    let setup_tally = cluster.transport().tally();

    // A kernel time at every boundary between positions, outside them.
    let mut kernel_s = vec![kernel.time_s()];
    let t0 = cluster.transport().tally();
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(plan.sends.len());
    let ids: Vec<MessageId> = plan
        .sends
        .iter()
        .map(|&(g, at, size)| {
            submitted_at.push(Instant::now());
            match at {
                Some(at) => cluster.schedule_send_at(groups[g], at, size),
                None => cluster.submit_send(groups[g], size),
            }
        })
        .collect();
    let run_start = Instant::now();
    let t1 = cluster.transport().tally();
    let timed_start = submitted_at.first().copied().unwrap_or(run_start);
    // `Cluster::run()` is this loop; stepping it here lets the run be
    // cut into positions.
    let mut raw_s = Vec::new();
    let (mut steps, mut last) = (0u64, timed_start);
    while cluster.step() {
        steps += 1;
        if steps % SIM_SEGMENT_STEPS == 0 {
            raw_s.push(secs(last, Instant::now()));
            kernel_s.push(kernel.time_s());
            last = Instant::now();
        }
    }
    let run_end = Instant::now();
    raw_s.push(secs(last, run_end));
    kernel_s.push(kernel.time_s());
    let t2 = cluster.transport().tally();
    let segments_s = compensate(&raw_s, &kernel_s);
    let steady_wall_s: f64 = segments_s.iter().sum();
    // The kernel's passes fall between positions, inside the span.
    let wall_s: f64 = raw_s.iter().sum();
    let kernel_inside_s = secs(timed_start, run_end) - wall_s;

    let mut rep = Rep {
        setup_s,
        wall_s,
        submit_s: secs(timed_start, run_start),
        attempted: ids.len() as u64,
        receivers: plan.groups[0].members.len() as u64 - 1,
        generate_s: plan.generate_s,
        segments_s,
        completes_at_end: true,
        ..Rep::default()
    };
    let mut virtual_ns: Vec<u64> = Vec::with_capacity(ids.len());
    let (mut first_submit, mut last_delivery) = (SimTime::MAX, SimTime::ZERO);
    for (id, at) in ids.iter().zip(&submitted_at) {
        let Some((result, latency)) = cluster.result(*id).and_then(|r| Some((r, r.latency()?)))
        else {
            rep.latencies_ms.push(None);
            continue;
        };
        rep.completed += 1;
        rep.bytes += result.size;
        // Submitted this long into the span, complete at its end.
        rep.latencies_ms
            .push(Some((steady_wall_s - secs(timed_start, *at)) * 1e3));
        virtual_ns.push(latency.as_nanos());
        first_submit = first_submit.min(result.submitted);
        last_delivery = last_delivery.max(result.submitted + latency);
    }
    if rep.completed != rep.attempted {
        rep.problems.push(format!(
            "{} of {} messages not delivered at every member",
            rep.attempted - rep.completed,
            rep.attempted
        ));
    }
    rep.rnr_arms = cluster.transport().stats().rnr_arms;
    if rep.rnr_arms != 0 {
        rep.problems
            .push(format!("{} RNR arms (must be 0)", rep.rnr_arms));
    }
    for &g in &groups {
        if !cluster.destroy_group(g) {
            rep.problems
                .push(format!("destroy_group({g}) did not certify delivery"));
        }
    }
    let rep_end = Instant::now();
    if P::TRACED {
        rep.whole = cluster.transport().tally();
        rep.timed = t2.since(&t0);
        rep.replay = Some(replay(cluster.engine_log(), &plan.groups, 0));
        let root = spans.push(None, "rep", rep_start, rep_end);
        spans.push_call(root, "setup", rep_start, setup_end, &setup_tally);
        let first_call = spans.all().len();
        spans.push_call(
            root,
            "cluster.submit",
            timed_start,
            run_start,
            &t1.since(&t0),
        );
        spans.push_call(root, "cluster.run", run_start, run_end, &t2.since(&t1));
        rep.cluster_self_s = spans.cluster_self_s(first_call) - kernel_inside_s;
        for (i, at) in submitted_at.iter().enumerate() {
            let ns = run_end.duration_since(*at).as_nanos();
            spans.push_op(root, i as u64, *at, u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
    // A fabric folds its kernel counters into `verbs::perf` on drop.
    drop(cluster);
    rep.perf = verbs::perf::snapshot().delta_since(&perf_base);
    virtual_ns.sort_unstable();
    let rank = |p: f64| virtual_ns[(p * (virtual_ns.len() - 1) as f64).round() as usize];
    rep.model = (!virtual_ns.is_empty()).then(|| Model {
        events: rep.perf.events,
        bytes: rep.bytes,
        span_ns: last_delivery.saturating_since(first_submit).as_nanos(),
        p50_ns: rank(0.50),
        p99_ns: rank(0.99),
    });
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_divides_the_host_speed_out() {
        // Ten positions of 1 s of work at full speed. From the fourth
        // boundary on the host runs 1.27x slower: the kernel and the
        // positions both take 1.27x as long.
        let slow = |boundary: usize| if boundary >= 4 { 1.27 } else { 1.0 };
        let kernel_s: Vec<f64> = (0..=10)
            .map(|b| HOST_KERNEL_REFERENCE_S * slow(b))
            .collect();
        let raw_s: Vec<f64> = (0..10).map(slow).collect();
        let steady = compensate(&raw_s, &kernel_s);
        for (j, s) in steady.iter().enumerate() {
            // Within two positions of the change the median kernel
            // time straddles it; elsewhere the slowdown is gone.
            if !(2..6).contains(&j) {
                assert!((s - 1.0).abs() < 1e-9, "position {j}: {s}");
            }
        }
        // One kernel sample hit by an interrupt changes nothing.
        let mut spiked = kernel_s.clone();
        spiked[8] *= 40.0;
        assert_eq!(compensate(&raw_s, &spiked)[7..], steady[7..]);
    }

    #[test]
    fn scaled_counts_are_whole_windows_and_never_zero() {
        let full = Scale { num: 20, den: 20 };
        assert_eq!(tcp_shape(Kind::TcpLarge, full).ops, 150);
        assert_eq!(tcp_shape(Kind::TcpSmall, full).ops, 3996);
        assert_eq!(tcp_shape(Kind::TcpAtomic, full).ops, 4092);
        let quick = Scale { num: 1, den: 20 };
        assert_eq!(tcp_shape(Kind::TcpLarge, quick).ops, 6);
        assert_eq!(tcp_shape(Kind::TcpSmall, quick).ops, 198);
        assert_eq!(dense_message_bytes(quick), MIB);
        assert_eq!(dense_message_bytes(full), 32 * MIB);
        let tiny = Scale { num: 1, den: 1000 };
        assert_eq!(tcp_shape(Kind::TcpAtomic, tiny).ops, 31);
    }

    #[test]
    fn origins_are_seeded_and_mostly_follow_the_rotation() {
        let draw = |seed| {
            let mut origins = Origins {
                state: seed,
                members: 8,
                cursor: 0,
            };
            (0..4096).map(|_| origins.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let order = draw(3);
        let in_rotation = order.windows(2).filter(|w| w[1] == (w[0] + 1) % 8).count();
        // Seven in eight follow it outright, and a jump can land on it.
        assert!((3500..3800).contains(&in_rotation), "{in_rotation}");
    }
}
