//! Stateless model checking of protocol *executions*: drives a
//! deterministic transport through alternative interleavings and checks
//! every explored execution against the protocol's invariants.
//!
//! The rest of this crate proves properties of *schedules* — static
//! artifacts. This module checks the *dynamic* side: the event loop's
//! tie-breaks. A deterministic transport makes every run reproducible
//! but also means one arbitrary interleaving out of many legal ones is
//! the only one ever tested. The explorer externalises the tie-breaks
//! through the [`verbs::Scheduler`] trait, on the backend the scenario
//! names ([`Backend`]). On the simulated fabric, every burst of
//! same-instant software-visible deliveries is a *choice point*. On the
//! production TCP datapath over in-memory pipes, which pipe's next
//! gathered write lands and which node's next delivery comes out are. On
//! both, so is every pacer admission tie, every configured
//! crash-injection site and — within the scenario's
//! [`ExploreScenario::loss_choices`] budget — every wire site: a transfer
//! delivered or dropped on the fabric, a gathered write whole, cut short
//! or stalled on the pipes. A recorded choice sequence replays the
//! execution bit-for-bit.
//!
//! Three strategies:
//!
//! - [`Strategy::Exhaustive`] — enumerate every interleaving (small
//!   `n, k` only; the CI tier).
//! - [`Strategy::Dpor`] — dynamic partial-order reduction: prune
//!   interleavings that only permute *independent* events (disjoint node
//!   and connection footprints). Backtrack points are added at **every**
//!   earlier choice point where the executed event was enabled and
//!   dependent — a sound over-approximation of Flanagan–Godefroid
//!   persistent sets, validated against exhaustive enumeration in the
//!   test suite.
//! - [`Strategy::Random`] — a seeded random walk with an execution
//!   budget, for wide shallow coverage in time-boxed CI runs.
//!
//! Every explored execution is vetted by the run's verdict,
//! [`Cluster::check_run`], and by the determinism audit:
//! [`Cluster::state_digest`] equality across replays of one choice
//! sequence and across all crash-free interleavings. The audit is
//! the mechanical form of the review that once caught hash-order
//! iteration in epoch teardown: a `HashMap`-order bug diverges under
//! replay and fails immediately.
//!
//! Violations come back as a [`Counterexample`]: a minimal choice
//! sequence plus the flight-recorder trace, re-runnable bit-for-bit via
//! [`replay`] (the CLI's `--replay=CHOICES` flag).

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use rdmc::Algorithm;
use rdmc_sim::{
    Cluster, ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, ReliabilityPolicy,
};
use rdmc_tcp::TcpFabric;
use simnet::SplitMix64;
use verbs::{
    Candidate, CandidateKind, ChoicePoint, PointKind, Scheduler, SharedScheduler, Transport,
};

use crate::seeded::{Seeded, SeededBug};

/// Block size of every explored group. The message size is
/// `k * BLOCK_SIZE`; only the block count shapes the interleavings.
const BLOCK_SIZE: u64 = 64 << 10;
/// Readiness credits a member grants ahead per peer, and block sends it
/// may have posted at once: one each, the §4.2 credit rule at its
/// tightest and the interleaving space at its smallest.
const WINDOW: u32 = 1;

/// One resolved choice point, as recorded during an execution. The
/// sequence of records *is* the execution's identity: replaying the
/// `chosen` indices reproduces it bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointRecord {
    /// Virtual time of the racing events, in nanoseconds.
    pub time_ns: u64,
    /// Which layer asked.
    pub kind: PointKind,
    /// The enabled candidates, in deterministic default order.
    pub candidates: Vec<Candidate>,
    /// Index of the candidate that ran.
    pub chosen: usize,
}

/// How one execution's choices are made.
enum Pick {
    /// Follow a scripted prefix; answer the deterministic default (0)
    /// beyond it. Out-of-range scripted entries also fall back to 0, so
    /// any recorded script replays against any compatible run.
    Script(Vec<usize>),
    /// Uniform pseudorandom choices from a seeded generator.
    Random(SplitMix64),
}

/// The scheduler the explorer injects: resolves choices per [`Pick`] and
/// logs every resolved point.
struct LoggingScheduler {
    pick: Pick,
    log: Vec<PointRecord>,
}

impl Scheduler for LoggingScheduler {
    fn choose(&mut self, point: &ChoicePoint<'_>) -> usize {
        let n = point.candidates.len();
        let chosen = match &mut self.pick {
            Pick::Script(script) => {
                let scripted = script.get(self.log.len()).copied().unwrap_or(0);
                if scripted < n {
                    scripted
                } else {
                    0
                }
            }
            Pick::Random(rng) => (rng.next_u64() % n as u64) as usize,
        };
        self.log.push(PointRecord {
            time_ns: point.time_ns,
            kind: point.kind,
            candidates: point.candidates.to_vec(),
            chosen,
        });
        chosen
    }
}

/// The transport an execution runs on, behind the seeded-bug decorator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The simulated verbs fabric (`ClusterSpec::fractus`).
    #[default]
    Fabric,
    /// The TCP datapath over in-process pipes
    /// ([`MemNet`](rdmc_tcp::MemNet)), whose wire sites split or stall a
    /// gathered write.
    MemNet,
}

/// The workload one exploration drives: a single group, `messages`
/// multicasts from the root (or rotated through every member of an
/// atomic group), with optional recovery, crash-injection sites, and
/// seeded bugs.
#[derive(Clone, Debug)]
pub struct ExploreScenario {
    /// Block-dissemination algorithm.
    pub algorithm: Algorithm,
    /// Group size.
    pub n: u32,
    /// Blocks per message.
    pub k: u32,
    /// Multicasts submitted at time zero.
    pub messages: u32,
    /// Multi-sender atomic multicast (the Derecho overlay): every
    /// member is a sender, `messages` submissions rotate round-robin
    /// through one RDMC subgroup per sender. Built via
    /// [`ExploreScenario::atomic`]; mutually exclusive with
    /// `reliability`.
    pub multi_sender: bool,
    /// Crash-injection sites `(protocol step, victim node)`. When
    /// non-empty, the execution's *first* choice point picks one site —
    /// or none — and recovery is enabled so the run can finish.
    pub fault_sites: Vec<(u64, usize)>,
    /// Wire-site budget ([`verbs::PointKind::LossSite`]): on `Fabric`
    /// the first `loss_choices` data transfers are each delivered or
    /// dropped; on `MemNet` the first `loss_choices` gathered writes each
    /// go whole, cut inside a frame's header or body, or stalled. The
    /// explorer enumerates the outcomes instead of sampling them.
    pub loss_choices: u64,
    /// Reliability policy protecting the group when loss sites are
    /// explored; recovery is enabled alongside so escalations can
    /// finish.
    pub reliability: Option<ReliabilityPolicy>,
    /// Deliberately seeded bugs, injected at the transport boundary
    /// (see [`SeededBug`]).
    pub bugs: Vec<SeededBug>,
    /// The transport the executions run on.
    pub backend: Backend,
}

impl ExploreScenario {
    /// The CI-tier default: a small plain RDMC group moving a few
    /// blocks, sized so exhaustive enumeration stays tractable.
    pub fn small(algorithm: Algorithm, n: u32, k: u32) -> Self {
        ExploreScenario {
            algorithm,
            n,
            k,
            messages: 1,
            multi_sender: false,
            fault_sites: Vec::new(),
            loss_choices: 0,
            reliability: None,
            bugs: Vec::new(),
            backend: Backend::Fabric,
        }
    }

    /// The multi-sender CI tier: an `n`-member *atomic multicast* group
    /// (one rotated RDMC subgroup per sender, SST stability frontiers,
    /// total-order delivery), one full rotation of `k`-block messages,
    /// sized so exhaustive enumeration stays tractable.
    pub fn atomic(algorithm: Algorithm, n: u32, k: u32) -> Self {
        ExploreScenario {
            multi_sender: true,
            messages: n,
            ..Self::small(algorithm, n, k)
        }
    }

    /// A crash-exploring variant: recovery on, with the given
    /// `(protocol step, victim node)` sites offered to the explorer as
    /// alternative first choices.
    pub fn with_faults(mut self, sites: Vec<(u64, usize)>) -> Self {
        self.fault_sites = sites;
        self
    }

    /// The `analyzer` command that replays `choices` on this scenario,
    /// or `None` if the scenario has what no flag says: crash or loss
    /// sites, a reliability policy, seeded bugs, its own message count or
    /// a custom algorithm.
    pub fn replay_command(&self, choices: &[usize]) -> Option<String> {
        let algorithm = match &self.algorithm {
            Algorithm::Custom { .. } => return None,
            Algorithm::Hybrid { rack_of } => format!("hybrid:{}", comma_list(rack_of)),
            flat => flat.to_string(),
        };
        let flags = if self.multi_sender { " --atomic" } else { "" };
        let backend = format!("{:?}", self.backend).to_lowercase();
        let plain = self.fault_sites.is_empty()
            && self.loss_choices == 0
            && self.reliability.is_none()
            && self.bugs.is_empty()
            && self.messages == if self.multi_sender { self.n } else { 1 };
        plain.then(|| {
            format!(
                "analyzer --replay={} --algorithm {algorithm} --n {} --k {} --backend {backend}{flags}",
                comma_list(choices),
                self.n,
                self.k
            )
        })
    }

    /// A wire-site variant: the first `budget` transfers (`Fabric`) or
    /// gathered writes (`MemNet`) become choice points (see
    /// [`ExploreScenario::loss_choices`]), the group is protected by
    /// `policy`, and recovery is on so drop branches that escalate can
    /// still converge.
    pub fn with_loss(mut self, budget: u64, policy: ReliabilityPolicy) -> Self {
        self.loss_choices = budget;
        self.reliability = Some(policy);
        self
    }

    /// Seeds a deliberate bug (see [`SeededBug`]).
    pub fn with_bug(mut self, bug: SeededBug) -> Self {
        self.bugs.push(bug);
        self
    }

    /// The same workload on `backend`.
    pub fn on(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

/// Everything one execution produced.
#[derive(Clone, Debug)]
#[must_use = "check `violations`; an unread execution hides failures"]
pub struct ExecutionResult {
    /// The resolved choice points, in order. The `chosen` indices are
    /// the replay script.
    pub points: Vec<PointRecord>,
    /// Canonical time-free digest of the terminal cluster state
    /// (`0` when the run panicked).
    pub digest: u64,
    /// Invariant violations (empty for a clean execution).
    pub violations: Vec<String>,
    /// The flight-recorder trace, JSONL-encoded (for counterexample
    /// artifacts; empty when the run panicked).
    pub trace_jsonl: String,
    /// The panic message, if the run aborted (engine protocol-violation
    /// panics and debug asserts surface here; also counted as a
    /// violation).
    pub panic: Option<String>,
    /// Whether a crash was injected (the first choice picked a fault
    /// site rather than "no fault").
    pub crashed: bool,
}

impl ExecutionResult {
    /// The replay script: the chosen index at each point.
    pub fn script(&self) -> Vec<usize> {
        self.points.iter().map(|p| p.chosen).collect()
    }
}

/// A minimal failing execution: replaying `choices` through [`replay`]
/// reproduces `violations` bit-for-bit.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The minimized choice sequence.
    pub choices: Vec<usize>,
    /// What [`Cluster::check_run`] and the audits reported.
    pub violations: Vec<String>,
    /// Terminal digest of the failing execution (0 on panic).
    pub digest: u64,
    /// Flight-recorder trace of the failing execution, JSONL-encoded.
    pub trace_jsonl: String,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "counterexample: --replay={}", comma_list(&self.choices))?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        write!(f, "  terminal digest {:#018x}", self.digest)
    }
}

/// `1,2,3`.
fn comma_list<T: ToString>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    items.join(",")
}

/// How to walk the interleaving space.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Every interleaving, depth-first.
    Exhaustive,
    /// Dynamic partial-order reduction over the same space.
    Dpor,
    /// A seeded random walk of `executions` runs.
    Random {
        /// PRNG seed (the walk is fully determined by it).
        seed: u64,
        /// Executions to attempt.
        executions: u64,
    },
}

/// One exploration request.
#[derive(Clone, Debug)]
#[must_use = "pass the config to `explore_executions`"]
pub struct ExploreConfig {
    /// The workload.
    pub scenario: ExploreScenario,
    /// The walk.
    pub strategy: Strategy,
    /// Hard cap on executions (exhaustive/DPOR runs that hit it report
    /// `truncated` — loudly, never silently).
    pub max_executions: u64,
    /// Re-run every `n`-th execution with the identical script and
    /// compare digests, traces, and choice logs (the replay-determinism
    /// audit). `1` audits every execution; `0` audits only the first.
    pub replay_every: u64,
}

impl ExploreConfig {
    /// Exhaustive enumeration of a scenario with CI-friendly caps.
    pub fn exhaustive(scenario: ExploreScenario) -> Self {
        ExploreConfig {
            scenario,
            strategy: Strategy::Exhaustive,
            max_executions: 20_000,
            replay_every: 64,
        }
    }

    /// DPOR over the same space.
    pub fn dpor(scenario: ExploreScenario) -> Self {
        ExploreConfig {
            strategy: Strategy::Dpor,
            ..Self::exhaustive(scenario)
        }
    }

    /// A seeded random walk.
    pub fn random(scenario: ExploreScenario, seed: u64, executions: u64) -> Self {
        ExploreConfig {
            scenario,
            strategy: Strategy::Random { seed, executions },
            max_executions: executions,
            replay_every: 16,
        }
    }
}

/// What an exploration found.
#[derive(Clone, Debug)]
#[must_use = "check `is_clean()`; an unread report hides counterexamples"]
pub struct ExploreReport {
    /// Executions actually run (excluding replay-audit re-runs and
    /// minimization probes).
    pub executions: u64,
    /// Total choice points resolved across all executions.
    pub points_resolved: u64,
    /// Deepest execution (choice points in one run).
    pub max_depth: usize,
    /// Distinct terminal digests over crash-free executions (must stay
    /// at 1 — state convergence; a second digest is itself a violation).
    pub crash_free_digests: BTreeSet<u64>,
    /// Distinct terminal digests over crash-injected executions
    /// (informational: different detection timings may legally abandon
    /// different messages).
    pub crashed_digests: BTreeSet<u64>,
    /// The exploration hit `max_executions` before exhausting the space
    /// (a random walk never sets this: its budget *is* the space).
    pub truncated: bool,
    /// The first invariant violation found, minimized.
    pub counterexample: Option<Counterexample>,
}

impl ExploreReport {
    /// True when every explored execution satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none()
    }
}

impl std::fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} executions, {} choice points (max depth {}), {} crash-free digest(s){}{}",
            self.executions,
            self.points_resolved,
            self.max_depth,
            self.crash_free_digests.len(),
            if self.truncated {
                " [TRUNCATED at max_executions]"
            } else {
                ""
            },
            if self.is_clean() { ", clean" } else { "" },
        )?;
        if let Some(cex) = &self.counterexample {
            write!(f, "\n{cex}")?;
        }
        Ok(())
    }
}

/// Runs one execution under the given pick policy, on the scenario's
/// backend.
fn run_with(scenario: &ExploreScenario, pick: Pick) -> ExecutionResult {
    let (n, budget) = (scenario.n as usize, scenario.loss_choices);
    match scenario.backend {
        Backend::Fabric => run_on(scenario, pick, || {
            let mut fabric = ClusterSpec::fractus(n).build();
            fabric.set_loss_choice_budget(budget);
            fabric
        }),
        Backend::MemNet => run_on(scenario, pick, || {
            let mut fabric = TcpFabric::in_memory(n).expect("a group has a member");
            fabric.set_loss_choice_budget(budget);
            fabric
        }),
    }
}

/// Runs one execution on the transport `make` builds.
fn run_on<T: Transport>(
    scenario: &ExploreScenario,
    pick: Pick,
    make: impl FnOnce() -> T,
) -> ExecutionResult {
    let sched = Arc::new(Mutex::new(LoggingScheduler {
        pick,
        log: Vec::new(),
    }));
    let shared: SharedScheduler = sched.clone();

    let mut violations = Vec::new();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut builder = ClusterBuilder::from_transport(Seeded::new(make(), &scenario.bugs))
            .flight_recorder()
            .scheduler(shared.clone());
        if !scenario.fault_sites.is_empty() || scenario.reliability.is_some() {
            builder = builder.recovery(RecoveryConfig::default());
        }
        if let Some(policy) = scenario.reliability {
            builder = builder.reliability(policy);
        }
        let spec = GroupSpec {
            members: (0..scenario.n as usize).collect(),
            algorithm: scenario.algorithm.clone(),
            block_size: BLOCK_SIZE,
            ready_window: WINDOW,
            max_outstanding_sends: WINDOW,
        };
        let mut cluster = if scenario.multi_sender {
            builder.atomic(spec.clone()).build()
        } else {
            builder.build()
        };
        let group = (!scenario.multi_sender).then(|| cluster.create_group(spec));
        let injected = offer_fault_choice(scenario, &shared, &mut cluster);
        for _ in 0..scenario.messages {
            let size = BLOCK_SIZE * u64::from(scenario.k);
            let _ = match group {
                Some(group) => cluster.submit_send(group, size),
                None => cluster.submit_atomic(0, size),
            };
        }
        while cluster.step() {}
        (cluster, injected)
    }));

    let (digest, trace_jsonl, panic, crashed) = match outcome {
        Ok((cluster, injected)) => {
            violations.extend(cluster.check_run().err().unwrap_or_default());
            (
                cluster.state_digest(),
                trace::export::to_jsonl(&cluster.trace_events()),
                None,
                injected,
            )
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            violations.push(format!("execution panicked: {msg}"));
            (0, String::new(), Some(msg), false)
        }
    };

    let points = std::mem::take(&mut sched.lock().expect("scheduler mutex").log);
    ExecutionResult {
        points,
        digest,
        violations,
        trace_jsonl,
        panic,
        crashed,
    }
}

/// The fault-injection choice point: candidate 0 is "no fault", the rest
/// are the scenario's sites. Routed through the shared scheduler so the
/// choice lands in the same global sequence as every delivery race.
/// Returns whether a crash was scheduled.
fn offer_fault_choice<T: Transport>(
    scenario: &ExploreScenario,
    shared: &SharedScheduler,
    cluster: &mut Cluster<Seeded<T>>,
) -> bool {
    if scenario.fault_sites.is_empty() {
        return false;
    }
    let sites = (scenario.fault_sites.iter()).map(|&(step, victim)| (step, victim as u32));
    let candidates: Vec<Candidate> = std::iter::once((u64::MAX, u32::MAX))
        .chain(sites)
        .enumerate()
        .map(|(seq, (step, victim))| Candidate {
            seq: seq as u64,
            node: victim,
            conn: None,
            kind: CandidateKind::FaultSite { step, victim },
        })
        .collect();
    let point = ChoicePoint {
        time_ns: 0,
        kind: PointKind::FaultSite,
        candidates: &candidates,
    };
    let chosen = verbs::sched::pick(shared, &point);
    if let CandidateKind::FaultSite { step, victim } = candidates[chosen].kind {
        if victim != u32::MAX {
            cluster.crash_after_events(victim as usize, step);
            return true;
        }
    }
    false
}

/// Runs one execution of `scenario` under the given choice script
/// (default-0 beyond its end) and checks the per-execution invariants.
/// This is the exact runner the explorer uses, exposed so recorded
/// counterexamples replay bit-for-bit.
pub fn replay(scenario: &ExploreScenario, script: &[usize]) -> ExecutionResult {
    run_with(scenario, Pick::Script(script.to_vec()))
}

/// Replays `script` twice and reports any divergence — the determinism
/// audit. A divergence means some state consulted during the run is not
/// a pure function of (scenario, choices): unordered-map iteration,
/// address-dependent ordering, stray global state. Returns violations
/// (empty when the two runs match bit-for-bit).
pub fn audit_replay(scenario: &ExploreScenario, script: &[usize]) -> Vec<String> {
    let a = replay(scenario, script);
    let b = replay(scenario, script);
    let mut out = Vec::new();
    if a.digest != b.digest {
        out.push(format!(
            "replay divergence: digests {:#018x} vs {:#018x} for one choice sequence",
            a.digest, b.digest
        ));
    }
    if a.points != b.points {
        let at = a
            .points
            .iter()
            .zip(&b.points)
            .position(|(x, y)| x != y)
            .map_or_else(
                || format!("lengths {} vs {}", a.points.len(), b.points.len()),
                |i| format!("first divergent point {i}"),
            );
        out.push(format!("replay divergence in the choice-point log: {at}"));
    }
    if a.trace_jsonl != b.trace_jsonl {
        out.push("replay divergence in the flight-recorder trace".to_string());
    }
    out
}

/// Two candidates commute iff their footprints are disjoint: different
/// observing nodes and different connections. Timers are conservatively
/// dependent with everything (their handlers touch cluster-wide state:
/// submissions, crashes, reconfiguration).
fn dependent(a: &Candidate, b: &Candidate) -> bool {
    if matches!(a.kind, CandidateKind::Timer { .. })
        || matches!(b.kind, CandidateKind::Timer { .. })
    {
        return true;
    }
    if a.node == b.node {
        return true;
    }
    matches!((a.conn, b.conn), (Some(x), Some(y)) if x == y)
}

/// Shared bookkeeping across an exploration.
struct Driver<'a> {
    config: &'a ExploreConfig,
    report: ExploreReport,
}

impl<'a> Driver<'a> {
    fn new(config: &'a ExploreConfig) -> Self {
        Driver {
            config,
            report: ExploreReport {
                executions: 0,
                points_resolved: 0,
                max_depth: 0,
                crash_free_digests: BTreeSet::new(),
                crashed_digests: BTreeSet::new(),
                truncated: false,
                counterexample: None,
            },
        }
    }

    /// Runs one execution, folds the result into the report, and
    /// returns it — or `None` once a counterexample is locked in (the
    /// exploration stops at the first violation).
    fn run(&mut self, pick: Pick) -> Option<ExecutionResult> {
        let exec = run_with(&self.config.scenario, pick);
        self.report.executions += 1;
        self.report.points_resolved += exec.points.len() as u64;
        self.report.max_depth = self.report.max_depth.max(exec.points.len());
        let mut violations = exec.violations.clone();
        // Replay-determinism audit, sampled (always on the first
        // execution, so even single-run explorations get one).
        let audited = self.report.executions == 1
            || (self.config.replay_every != 0
                && self.report.executions % self.config.replay_every == 1);
        if violations.is_empty() && audited {
            violations.extend(audit_replay(&self.config.scenario, &exec.script()));
        }
        if violations.is_empty() {
            if exec.crashed {
                self.report.crashed_digests.insert(exec.digest);
            } else {
                // State convergence: every crash-free interleaving must
                // reach the same terminal state.
                self.report.crash_free_digests.insert(exec.digest);
                if self.report.crash_free_digests.len() > 1 {
                    violations.push(format!(
                        "crash-free interleavings diverged: {} distinct terminal digests",
                        self.report.crash_free_digests.len()
                    ));
                }
            }
        }
        if !violations.is_empty() {
            self.fail(exec.script(), violations);
            return None;
        }
        Some(exec)
    }

    /// Minimizes and records the counterexample.
    fn fail(&mut self, script: Vec<usize>, violations: Vec<String>) {
        let scenario = self.config.scenario.clone();
        let known_digests = self.report.crash_free_digests.clone();
        let still_fails = |s: &[usize]| -> bool {
            let e = replay(&scenario, s);
            if !e.violations.is_empty() {
                return true;
            }
            // Divergence violations only show under the audit; digest
            // splits only against the already-seen crash-free digests.
            !audit_replay(&scenario, s).is_empty()
                || (!e.crashed && !known_digests.is_empty() && !known_digests.contains(&e.digest))
        };
        let mut min = script;
        if still_fails(&min) {
            // Greedily reset choices to the default from the end; keep
            // each reset only if the violation survives.
            for i in (0..min.len()).rev() {
                if min[i] == 0 {
                    continue;
                }
                let mut probe = min.clone();
                probe[i] = 0;
                if still_fails(&probe) {
                    min = probe;
                }
            }
            while min.last() == Some(&0) {
                min.pop();
            }
        }
        let exec = replay(&scenario, &min);
        let final_violations = if exec.violations.is_empty() {
            violations
        } else {
            exec.violations.clone()
        };
        self.report.counterexample = Some(Counterexample {
            choices: min,
            violations: final_violations,
            digest: exec.digest,
            trace_jsonl: exec.trace_jsonl,
        });
    }
}

/// Runs an exploration.
pub fn explore_executions(config: &ExploreConfig) -> ExploreReport {
    let mut driver = Driver::new(config);
    match config.strategy {
        Strategy::Exhaustive => depth_first(&mut driver, false),
        Strategy::Dpor => depth_first(&mut driver, true),
        Strategy::Random { seed, executions } => random_walk(&mut driver, seed, executions),
    }
    driver.report
}

/// One frame of the depth-first search stack: a choice point on the
/// current execution path with its accumulated backtrack and done sets.
struct Frame {
    candidates: Vec<Candidate>,
    kind: PointKind,
    /// The choice taken on the path currently below this frame.
    path: usize,
    /// Choices that must be explored from this point.
    backtrack: BTreeSet<usize>,
    /// Choices already explored (or being explored) from this point.
    done: BTreeSet<usize>,
}

impl Frame {
    fn fresh(p: &PointRecord) -> Self {
        Frame {
            candidates: p.candidates.clone(),
            kind: p.kind,
            path: p.chosen,
            backtrack: BTreeSet::from([p.chosen]),
            done: BTreeSet::from([p.chosen]),
        }
    }

    fn pending(&self) -> Option<usize> {
        self.backtrack.difference(&self.done).next().copied()
    }
}

/// Depth-first search of the choice tree, deepest untried choice first.
/// Without `reduce` every alternative at every point is tried (the
/// exhaustive enumeration); with it, dynamic partial-order reduction
/// tries a choice at a point only if some executed event *dependent* on
/// it ran later from that point — interleavings that merely permute
/// independent events collapse into one representative.
fn depth_first(driver: &mut Driver<'_>, reduce: bool) {
    let Some(exec) = driver.run(Pick::Script(Vec::new())) else {
        return;
    };
    let mut frames: Vec<Frame> = exec.points.iter().map(Frame::fresh).collect();
    add_backtracks(&mut frames, &exec.points, reduce);
    loop {
        // Deepest frame with an untried backtrack choice.
        let Some(depth) = (0..frames.len())
            .rev()
            .find(|&i| frames[i].pending().is_some())
        else {
            return; // space exhausted
        };
        if driver.report.executions >= driver.config.max_executions {
            driver.report.truncated = true;
            return;
        }
        frames.truncate(depth + 1);
        let next = frames[depth].pending().expect("found above");
        frames[depth].done.insert(next);
        let mut script: Vec<usize> = frames[..depth].iter().map(|f| f.path).collect();
        script.push(next);
        let Some(exec) = driver.run(Pick::Script(script)) else {
            return;
        };
        // Refresh frames beyond the branch point from the new run;
        // shallower frames keep their accumulated sets.
        for (i, p) in exec.points.iter().enumerate() {
            if i < depth {
                debug_assert_eq!(frames[i].candidates, p.candidates, "prefix must replay");
                frames[i].path = p.chosen;
            } else if i == depth {
                frames[i].path = p.chosen;
                frames[i].done.insert(p.chosen);
                frames[i].backtrack.insert(p.chosen);
            } else if i < frames.len() {
                frames[i] = Frame::fresh(p);
            } else {
                frames.push(Frame::fresh(p));
            }
        }
        frames.truncate(exec.points.len());
        add_backtracks(&mut frames, &exec.points, reduce);
    }
}

/// Adds backtrack points implied by one execution: for every executed
/// event, every earlier choice point whose executed event is dependent
/// must also try this event (if it was enabled there; all alternatives
/// if it was not — the sound over-approximation). Non-delivery points
/// (pacer ties, fault and wire sites) are explored fully — their
/// candidates all touch shared admission, membership or wire state — and
/// so is every point when not reducing.
fn add_backtracks(frames: &mut [Frame], points: &[PointRecord], reduce: bool) {
    for i in 0..points.len() {
        if !reduce || frames[i].kind != PointKind::Delivery {
            let all: BTreeSet<usize> = (0..frames[i].candidates.len()).collect();
            frames[i].backtrack.extend(all);
            continue;
        }
        let ei = points[i].candidates[points[i].chosen];
        for j in (0..i).rev() {
            if points[j].kind != PointKind::Delivery {
                continue;
            }
            let ej = points[j].candidates[points[j].chosen];
            if !dependent(&ej, &ei) {
                continue;
            }
            match points[j].candidates.iter().position(|c| c.seq == ei.seq) {
                Some(idx) => {
                    frames[j].backtrack.insert(idx);
                }
                None => {
                    let all: BTreeSet<usize> = (0..frames[j].candidates.len()).collect();
                    frames[j].backtrack.extend(all);
                }
            }
        }
    }
}

/// A seeded random walk: uniform choices at every point, `executions`
/// runs. Each run's script is recovered from its log, so any violating
/// walk replays exactly.
fn random_walk(driver: &mut Driver<'_>, seed: u64, executions: u64) {
    let mut master = SplitMix64::new(seed ^ 0x6a09_e667_f3bc_c908);
    for _ in 0..executions {
        let walk = SplitMix64::new(master.next_u64());
        if driver.run(Pick::Random(walk)).is_none() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_scheduler_defaults_to_zero_beyond_script() {
        let mut s = LoggingScheduler {
            pick: Pick::Script(vec![1]),
            log: Vec::new(),
        };
        let cands = [
            Candidate {
                seq: 0,
                node: 0,
                conn: None,
                kind: CandidateKind::Recv,
            },
            Candidate {
                seq: 1,
                node: 1,
                conn: None,
                kind: CandidateKind::Recv,
            },
        ];
        let point = ChoicePoint {
            time_ns: 0,
            kind: PointKind::Delivery,
            candidates: &cands,
        };
        assert_eq!(s.choose(&point), 1);
        assert_eq!(s.choose(&point), 0);
        assert_eq!(s.log.len(), 2);
    }

    #[test]
    fn dependence_is_footprint_based() {
        let c = |node, conn| Candidate {
            seq: 0,
            node,
            conn,
            kind: CandidateKind::Recv,
        };
        assert!(dependent(&c(1, None), &c(1, None)));
        assert!(dependent(&c(1, Some(7)), &c(2, Some(7))));
        assert!(!dependent(&c(1, Some(7)), &c(2, Some(8))));
        let timer = Candidate {
            seq: 0,
            node: 3,
            conn: None,
            kind: CandidateKind::Timer { token: 0 },
        };
        assert!(dependent(&timer, &c(9, None)));
    }
}
