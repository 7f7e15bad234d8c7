//! The exhaustive `(algorithm, n, k)` sweep: model-checks and
//! deadlock-lints every generator over the full grid, always
//! model-checks the recovery planner's resume schedules over every wedge
//! point of the binomial pipeline, and explores executions on the small
//! corner where enumerating interleavings is feasible.

use std::collections::BTreeSet;

use rdmc::schedule::{GlobalSchedule, PortBudget, StepBound, Violation};
use rdmc::Algorithm;
use recovery::{plan_message_resume, survivor_map, MessagePlan};

use crate::deadlock::{lint_schedule, DeadlockReport};
use crate::explore::{explore_executions, Backend, ExploreConfig, ExploreReport, ExploreScenario};
use crate::model::{check_schedule, check_schedule_with, ModelReport};

/// Grid parameters for one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Largest group size checked (the schedule grid runs `n` from 1 up
    /// to this, every size — powers of two and not).
    pub max_n: u32,
    /// Block counts checked at every `n`.
    pub ks: Vec<u32>,
    /// Rack counts for the hybrid schedules (each paired with a round-robin
    /// and a skewed rack assignment).
    pub rack_counts: Vec<u32>,
    /// Ready windows the deadlock lint is run for.
    pub ready_windows: Vec<u32>,
    /// Whether to run the execution-exploration tier: interleaving
    /// enumeration on the small corner, on the simulated fabric and on
    /// the in-memory TCP datapath (see [`mod@crate::explore`]).
    pub explore: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            max_n: 64,
            ks: vec![1, 2, 3, 4, 5, 8, 16, 32],
            rack_counts: vec![2, 3, 4, 8],
            ready_windows: vec![1, 2],
            explore: true,
        }
    }
}

impl SweepConfig {
    /// A reduced grid for quick local runs (`--quick`).
    pub fn quick() -> Self {
        SweepConfig {
            max_n: 20,
            ks: vec![1, 2, 5, 8],
            rack_counts: vec![2, 3],
            ready_windows: vec![1],
            explore: true,
        }
    }
}

/// Everything a sweep found.
#[derive(Clone, Debug, Default)]
#[must_use = "check `is_clean()`; an unread report hides violations"]
pub struct SweepReport {
    /// Schedules model-checked.
    pub schedules_checked: usize,
    /// Schedules deadlock-linted (one entry per ready window).
    pub lints_run: usize,
    /// Resume plans model-checked (wedge point x failure pattern).
    pub resumes_checked: usize,
    /// Execution explorations run (scenario count).
    pub explore_runs: usize,
    /// Executions enumerated across explorations.
    pub explore_executions: u64,
    /// Model-checker reports with violations.
    pub model_failures: Vec<ModelReport>,
    /// Deadlock reports with cycles or premature sends.
    pub deadlock_failures: Vec<DeadlockReport>,
    /// Resume-schedule reports with violations (including planner
    /// verdicts that disagree with ground-truth block coverage).
    pub resume_failures: Vec<ModelReport>,
    /// Execution explorations with a counterexample or truncation, each
    /// with the scenario it explored.
    pub explore_failures: Vec<(ExploreScenario, ExploreReport)>,
}

impl SweepReport {
    /// True when the whole grid is proven clean.
    pub fn is_clean(&self) -> bool {
        self.model_failures.is_empty()
            && self.deadlock_failures.is_empty()
            && self.resume_failures.is_empty()
            && self.explore_failures.is_empty()
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "swept {} schedules, {} deadlock lints, {} resume plans, \
             {} explorations ({} executions)",
            self.schedules_checked,
            self.lints_run,
            self.resumes_checked,
            self.explore_runs,
            self.explore_executions
        )?;
        if self.is_clean() {
            write!(f, "all invariants hold")
        } else {
            for r in &self.model_failures {
                writeln!(f, "MODEL: {r}")?;
            }
            for r in &self.deadlock_failures {
                writeln!(f, "DEADLOCK: {r}")?;
            }
            for r in &self.resume_failures {
                writeln!(f, "RESUME: {r}")?;
            }
            for (s, r) in &self.explore_failures {
                let atomic = if s.multi_sender { " atomic" } else { "" };
                let shape = format!(
                    "{}{atomic} n={} k={} on {:?}",
                    s.algorithm, s.n, s.k, s.backend
                );
                writeln!(f, "EXPLORE {shape}: {r}")?;
                let cex = r.counterexample.as_ref();
                if let Some(command) = cex.and_then(|c| s.replay_command(&c.choices)) {
                    writeln!(f, "  rerun: {command}")?;
                }
            }
            write!(
                f,
                "{} model / {} deadlock / {} resume / {} explore failure(s)",
                self.model_failures.len(),
                self.deadlock_failures.len(),
                self.resume_failures.len(),
                self.explore_failures.len()
            )
        }
    }
}

/// The algorithms checked at group size `n`: the four flat generators
/// plus, for every configured rack count below `n`, a round-robin and a
/// skewed hybrid assignment.
fn algorithms_for(n: u32, rack_counts: &[u32]) -> Vec<Algorithm> {
    let mut algs = vec![
        Algorithm::Sequential,
        Algorithm::Chain,
        Algorithm::BinomialTree,
        Algorithm::BinomialPipeline,
    ];
    for &nr in rack_counts {
        if nr >= n.max(1) {
            continue;
        }
        // Round-robin: racks interleave through the rank space.
        let round_robin: Vec<u32> = (0..n).map(|r| r % nr).collect();
        // Skewed: rack 0 holds half the group, the rest split the rest —
        // exercises unequal rack sizes and non-power-of-two leader counts.
        let skewed: Vec<u32> = (0..n)
            .map(|r| {
                if r < n / 2 {
                    0
                } else {
                    1 + (r - n / 2) % (nr - 1).max(1)
                }
            })
            .collect();
        algs.extend([round_robin, skewed].map(|rack_of| Algorithm::Hybrid { rack_of }));
    }
    algs
}

/// Runs the full static sweep. Every violation is collected, none
/// short-circuits the grid.
pub fn sweep(config: &SweepConfig) -> SweepReport {
    let mut report = SweepReport::default();
    for n in 1..=config.max_n {
        for alg in algorithms_for(n, &config.rack_counts) {
            for &k in &config.ks {
                let g = match GlobalSchedule::try_build(&alg, n, k) {
                    Ok(g) => g,
                    Err(e) => {
                        // A generator refusing a legal shape is itself a
                        // violation; record and continue.
                        report.model_failures.push(ModelReport {
                            algorithm: alg.to_string(),
                            n,
                            k,
                            violations: vec![Violation::BuildRejected {
                                reason: e.to_string(),
                            }],
                        });
                        continue;
                    }
                };
                report.schedules_checked += 1;
                let m = check_schedule(&g);
                if !m.is_clean() {
                    report.model_failures.push(m);
                }
                for &w in &config.ready_windows {
                    report.lints_run += 1;
                    let d = lint_schedule(&g, w);
                    if !d.is_clean() {
                        report.deadlock_failures.push(d);
                    }
                }
            }
        }
    }

    sweep_resume(&mut report, config.max_n);

    if config.explore {
        sweep_explore(&mut report, config.max_n);
    }
    report
}

/// The execution-exploration tier: exhaustive interleaving enumeration
/// of the simulator on the small corner, a seeded random walk of the
/// 3-member atomic multicast group (its frontier epidemic makes the
/// space too wide to exhaust) for the total-order invariants, and the
/// [`memnet_corner`] on the TCP datapath.
fn sweep_explore(report: &mut SweepReport, max_n: u32) {
    let mut configs = Vec::new();
    for (n, k) in [(3, 1), (3, 2), (4, 1), (4, 2)] {
        if n <= max_n {
            let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, n, k);
            configs.push(ExploreConfig::exhaustive(scenario));
        }
    }
    if max_n >= 3 {
        let scenario = ExploreScenario::atomic(Algorithm::BinomialPipeline, 3, 1);
        configs.push(ExploreConfig::random(scenario, 0xa70_31c, 40));
    }
    for (algorithm, n, k) in memnet_corner() {
        if n <= max_n {
            let scenario = ExploreScenario::small(algorithm, n, k).on(Backend::MemNet);
            configs.push(ExploreConfig::dpor(scenario));
        }
    }
    for config in configs {
        let r = explore_executions(&config);
        report.explore_runs += 1;
        report.explore_executions += r.executions;
        if !r.is_clean() || r.truncated {
            report.explore_failures.push((config.scenario, r));
        }
    }
}

/// Model-checks the recovery planner over every wedge point of the
/// binomial pipeline: for each `(n, k)` on the grid, cut the schedule at
/// every step boundary, fail every single rank (and every rank pair at
/// small `n` — concurrent failures), plan the survivors' resume, and
/// check it against the wedge-time holdings. Planner verdicts are also
/// cross-checked against ground truth: `Unrecoverable` must coincide
/// exactly with a block losing its last copy.
fn sweep_resume(report: &mut SweepReport, max_n: u32) {
    for n in 2..=max_n.min(10) {
        for k in [1u32, 2, 4, 8] {
            let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
            for cut in 0..=g.num_steps() {
                // Holdings at the wedge: everything delivered in steps
                // strictly before `cut` (the root holds all from the
                // start).
                let mut held: Vec<Vec<bool>> = vec![vec![false; k as usize]; n as usize];
                held[0] = vec![true; k as usize];
                for j in 0..cut {
                    for t in g.step(j) {
                        held[t.to as usize][t.block as usize] = true;
                    }
                }
                let mut failure_sets: Vec<BTreeSet<u32>> =
                    (0..n).map(|f| BTreeSet::from([f])).collect();
                if (3..=6).contains(&n) {
                    for a in 0..n {
                        for b in a + 1..n {
                            failure_sets.push(BTreeSet::from([a, b]));
                        }
                    }
                }
                for failed in failure_sets {
                    let survivors = survivor_map(n, &failed);
                    let holdings: Vec<Vec<bool>> = survivors
                        .iter()
                        .map(|&r| held[r as usize].clone())
                        .collect();
                    let covered = (0..k as usize).all(|b| holdings.iter().any(|h| h[b]));
                    report.resumes_checked += 1;
                    match plan_message_resume(&holdings) {
                        MessagePlan::Resume { schedule, .. } => {
                            if !covered {
                                report.resume_failures.push(ModelReport {
                                    algorithm: "resume:planner-verdict".into(),
                                    n,
                                    k,
                                    violations: vec![Violation::BuildRejected {
                                        reason: format!(
                                            "planner resumed despite a lost block \
                                             (cut {cut}, failed {failed:?})"
                                        ),
                                    }],
                                });
                                continue;
                            }
                            // The one schedule rule, from the wedge-time
                            // holdings, under the strict resume budget.
                            let r = check_schedule_with(
                                &schedule,
                                &holdings,
                                PortBudget { send: 1, recv: 1 },
                                StepBound::Unbounded,
                            );
                            if !r.is_clean() {
                                report.resume_failures.push(r);
                            }
                        }
                        MessagePlan::Unrecoverable => {
                            if covered {
                                report.resume_failures.push(ModelReport {
                                    algorithm: "resume:planner-verdict".into(),
                                    n,
                                    k,
                                    violations: vec![Violation::BuildRejected {
                                        reason: format!(
                                            "planner gave up on a covered message \
                                             (cut {cut}, failed {failed:?})"
                                        ),
                                    }],
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The shapes explored on the TCP datapath: small ones covering every
/// schedule topology's structure — a pure relay chain, a power-of-two
/// pipeline, a shadow-vertex (non-power-of-two) pipeline, a tree, and a
/// hybrid with a rack leader relaying across racks. Each must deliver
/// all `k` blocks at every rank under every interleaving of bytes and
/// deliveries; a run that quiesces short of that is a stuck state.
fn memnet_corner() -> Vec<(Algorithm, u32, u32)> {
    let two_racks = |n: u32| -> Vec<u32> { (0..n).map(|r| u32::from(r >= n / 2)).collect() };
    vec![
        (Algorithm::Sequential, 3, 2),
        (Algorithm::Chain, 4, 2),
        (Algorithm::BinomialTree, 4, 2),
        (Algorithm::BinomialPipeline, 2, 2),
        (Algorithm::BinomialPipeline, 4, 2),
        (Algorithm::BinomialPipeline, 3, 2), // shadow vertex
        (Algorithm::BinomialPipeline, 5, 1), // shadow vertex
        (
            Algorithm::Hybrid {
                rack_of: two_racks(4),
            },
            4,
            2,
        ),
    ]
}
