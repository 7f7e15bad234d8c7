//! Block-transfer schedules (paper §4.3).
//!
//! A schedule maps a multicast of `k` blocks over an `n`-member group onto
//! a deterministic sequence of point-to-point block transfers, organised
//! in *asynchronous steps*. The determinism is load-bearing: both
//! endpoints of every transfer can compute, ahead of time, exactly which
//! block will cross which connection at which step — which is what lets
//! RDMC pre-post receives, pick buffer offsets without control traffic,
//! and (eventually) offload whole transfer graphs to a NIC (§2, §4.2).
//!
//! [`GlobalSchedule`] is the bird's-eye view used for validation and
//! analysis; [`RankSchedule`] is one member's slice of it, consumed by the
//! protocol engine.

mod binomial;
mod chain;
mod check;
mod executed;
mod hybrid;
mod sequential;
mod tree;

pub use binomial::{rotate_right, send_at_step};
pub use check::{port_conflicts, PortBudget, StepBound, TraceEntry, Violation};
pub use executed::{check_trace, PlanRequest};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::types::{Algorithm, Rank, Transfer};

/// One block transfer in the global view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GlobalTransfer {
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank.
    pub to: Rank,
    /// Block number.
    pub block: u32,
}

/// A complete multicast schedule: every transfer of every step.
#[derive(Clone, Debug)]
pub struct GlobalSchedule {
    algorithm: Algorithm,
    n: u32,
    k: u32,
    steps: Vec<Vec<GlobalTransfer>>,
}

/// A schedule builder refused its input (returned by
/// [`GlobalSchedule::try_build`]; schedule defects are [`Violation`]s).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScheduleError {
    /// The builder was asked for an impossible shape (zero members, zero
    /// blocks, a rack assignment that does not cover the group, or a
    /// custom family routed through [`GlobalSchedule::try_build`]).
    InvalidShape {
        /// What was wrong with the request.
        reason: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ScheduleError::InvalidShape { reason } = self;
        write!(f, "{reason}")
    }
}

impl std::error::Error for ScheduleError {}

impl GlobalSchedule {
    /// Assembles a schedule from per-step transfer lists (used by the
    /// algorithm builders).
    pub(crate) fn from_steps(
        algorithm: Algorithm,
        n: u32,
        k: u32,
        steps: Vec<Vec<GlobalTransfer>>,
    ) -> Self {
        GlobalSchedule {
            algorithm,
            n,
            k,
            steps,
        }
    }

    /// Assembles a schedule supplied by an external crate (e.g. an MPI
    /// baseline). Check it with [`GlobalSchedule::validate`] (or
    /// [`GlobalSchedule::check_from`]) before using it.
    pub fn from_custom_steps(name: &str, n: u32, k: u32, steps: Vec<Vec<GlobalTransfer>>) -> Self {
        GlobalSchedule::from_steps(
            Algorithm::Custom {
                name: name.to_owned(),
            },
            n,
            k,
            steps,
        )
    }

    /// Builds the global schedule for `algorithm` over `n` members and `k`
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0`, or (for [`Algorithm::Hybrid`]) the
    /// rack assignment length differs from `n`. Use
    /// [`GlobalSchedule::try_build`] to get the violation as an error
    /// instead.
    pub fn build(algorithm: &Algorithm, n: u32, k: u32) -> Self {
        match GlobalSchedule::try_build(algorithm, n, k) {
            Ok(g) => g,
            Err(e) => panic!("cannot build {algorithm} schedule for n={n} k={k}: {e}"),
        }
    }

    /// Like [`GlobalSchedule::build`], but reports impossible shapes as
    /// [`ScheduleError::InvalidShape`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidShape`] if `n == 0`, `k == 0`, a
    /// hybrid rack assignment does not cover every rank, or the algorithm
    /// is [`Algorithm::Custom`] (which only
    /// [`SchedulePlanner::from_fn`] can build).
    pub fn try_build(algorithm: &Algorithm, n: u32, k: u32) -> Result<Self, ScheduleError> {
        if n == 0 {
            return Err(ScheduleError::InvalidShape {
                reason: "group needs at least one member".to_owned(),
            });
        }
        if k == 0 {
            return Err(ScheduleError::InvalidShape {
                reason: "need at least one block".to_owned(),
            });
        }
        if n == 1 {
            // A group of one: the root already has the message.
            return Ok(GlobalSchedule::from_steps(
                algorithm.clone(),
                1,
                k,
                Vec::new(),
            ));
        }
        match algorithm {
            Algorithm::Sequential => Ok(sequential::build(n, k)),
            Algorithm::Chain => Ok(chain::build(n, k)),
            Algorithm::BinomialTree => Ok(tree::build(n, k)),
            Algorithm::BinomialPipeline => Ok(binomial::build(n, k)),
            Algorithm::Hybrid { rack_of } => hybrid::build(n, k, rack_of),
            Algorithm::Custom { name } => Err(ScheduleError::InvalidShape {
                reason: format!(
                    "custom schedule family '{name}' must be built through SchedulePlanner::from_fn"
                ),
            }),
        }
    }

    /// The algorithm that produced this schedule.
    pub fn algorithm(&self) -> &Algorithm {
        &self.algorithm
    }

    /// Group size.
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Block count.
    pub fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Number of asynchronous steps.
    pub fn num_steps(&self) -> u32 {
        self.steps.len() as u32
    }

    /// The transfers of step `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn step(&self, j: u32) -> &[GlobalTransfer] {
        &self.steps[j as usize]
    }

    /// Total number of block transfers across all steps.
    pub fn num_transfers(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// Every transfer of the schedule, tagged with its step, in step
    /// order. The flat view the static analyzer and the partition
    /// property tests consume.
    pub fn transfers(&self) -> impl Iterator<Item = (u32, GlobalTransfer)> + '_ {
        self.steps
            .iter()
            .enumerate()
            .flat_map(|(j, step)| step.iter().map(move |t| (j as u32, *t)))
    }

    /// The step at which `rank` receives `block`, if scheduled.
    pub fn receive_step(&self, rank: Rank, block: u32) -> Option<u32> {
        for (j, step) in self.steps.iter().enumerate() {
            if step.iter().any(|t| t.to == rank && t.block == block) {
                return Some(j as u32);
            }
        }
        None
    }

    /// The step at which `rank` has received every block (`None` for the
    /// root, which receives nothing).
    pub fn completion_step(&self, rank: Rank) -> Option<u32> {
        (0..self.k)
            .map(|b| self.receive_step(rank, b))
            .try_fold(0, |acc, s| s.map(|s| acc.max(s)))
    }

    /// Which rank delivers `rank`'s *first* block. This is independent of
    /// the block count for every algorithm in this crate, so receivers can
    /// pre-grant their first ready-for-block credit before the message
    /// size is known (§4.2). Returns `None` for the root.
    pub fn first_sender(&self, rank: Rank) -> Option<Rank> {
        for step in &self.steps {
            for t in step {
                if t.to == rank {
                    return Some(t.from);
                }
            }
        }
        None
    }

    /// Extracts `rank`'s slice of the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn for_rank(&self, rank: Rank) -> RankSchedule {
        assert!(rank < self.n, "rank {rank} out of range");
        let mut out = Vec::new();
        let mut in_per_peer: BTreeMap<Rank, Vec<(u32, u32)>> = BTreeMap::new();
        let mut in_count = 0u32;
        for (j, step) in self.steps.iter().enumerate() {
            for t in step {
                if t.from == rank {
                    out.push((
                        j as u32,
                        Transfer {
                            peer: t.to,
                            block: t.block,
                        },
                    ));
                }
                if t.to == rank {
                    in_per_peer
                        .entry(t.from)
                        .or_default()
                        .push((j as u32, t.block));
                    in_count += 1;
                }
            }
        }
        RankSchedule {
            rank,
            n: self.n,
            k: self.k,
            num_steps: self.num_steps(),
            out,
            in_per_peer,
            in_count,
        }
    }

    /// Checks every schedule invariant: transfers well-formed, blocks only
    /// sent by holders, exactly-once delivery of every block to every
    /// non-root rank, root never receives — [`GlobalSchedule::check_from`]
    /// from the root's holdings.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant in step order (coverage holes
    /// last).
    pub fn validate(&self) -> Result<(), Violation> {
        let root = [vec![true; self.k as usize]];
        self.check_from(&root)
            .into_iter()
            .next()
            .map_or(Ok(()), Err)
    }
}

/// One member's view of a [`GlobalSchedule`]: its outgoing transfers in
/// issue order and its expected incoming transfers per peer.
#[derive(Clone, Debug)]
pub struct RankSchedule {
    rank: Rank,
    n: u32,
    k: u32,
    num_steps: u32,
    /// Outgoing transfers in `(step, emission order)` — the order sends
    /// are posted.
    out: Vec<(u32, Transfer)>,
    /// Incoming `(step, block)` arrivals per sending peer, in wire order.
    in_per_peer: BTreeMap<Rank, Vec<(u32, u32)>>,
    in_count: u32,
}

impl RankSchedule {
    /// This member's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Group size.
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Block count.
    pub fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Number of asynchronous steps in the whole schedule.
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// Outgoing transfers in posting order, tagged with their step.
    pub fn outgoing(&self) -> &[(u32, Transfer)] {
        &self.out
    }

    /// Expected incoming `(step, block)` sequence from `peer`.
    pub fn incoming_from(&self, peer: Rank) -> &[(u32, u32)] {
        self.in_per_peer
            .get(&peer)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every peer this rank receives from, in ascending rank order.
    pub fn in_peers(&self) -> impl Iterator<Item = Rank> + '_ {
        self.in_per_peer.keys().copied()
    }

    /// Total number of blocks this rank will receive (equals the block
    /// count for non-root ranks of a valid schedule; 0 for the root).
    pub fn in_count(&self) -> u32 {
        self.in_count
    }
}

/// A shared, caching source of schedules, so the per-message schedule
/// build (which depends on the just-learned block count) is amortised
/// across messages, members and groups in one process: a cluster keeps
/// one planner per distinct built-in [`Algorithm`], shared by every group
/// that runs it. Beside each cached `(n, k)` schedule sit each rank's
/// [`RankSchedule`] slice and every rank's first sender, each built on
/// first use.
pub struct SchedulePlanner {
    algorithm: Algorithm,
    builder: Option<Box<dyn Fn(u32, u32) -> GlobalSchedule + Send + Sync>>,
    /// Block count used to probe `first_sender` (2 for the built-in
    /// algorithms, whose first senders are block-count invariant; custom
    /// families may need the true per-message value).
    probe_k: u32,
    /// Reader/writer cache: the steady state of a long run is all hits,
    /// which take only the shared lock, so concurrent experiment workers
    /// planning the same group shapes never serialize on each other.
    cache: RwLock<BTreeMap<(u32, u32), Arc<Planned>>>,
}

/// One cached `(n, k)` schedule and what is derived from it on demand.
struct Planned {
    global: Arc<GlobalSchedule>,
    /// `ranks[r]`: rank `r`'s slice.
    ranks: Box<[OnceLock<Arc<RankSchedule>>]>,
    /// `first[r]`: rank `r`'s [`GlobalSchedule::first_sender`].
    first: OnceLock<Box<[Option<Rank>]>>,
}

impl fmt::Debug for SchedulePlanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedulePlanner")
            .field("algorithm", &self.algorithm)
            .field("probe_k", &self.probe_k)
            .finish()
    }
}

impl SchedulePlanner {
    /// A planner for a built-in algorithm.
    pub fn new(algorithm: Algorithm) -> Self {
        assert!(
            !matches!(algorithm, Algorithm::Custom { .. }),
            "use SchedulePlanner::from_fn for custom schedule families"
        );
        SchedulePlanner {
            algorithm,
            builder: None,
            probe_k: 2,
            cache: RwLock::new(BTreeMap::new()),
        }
    }

    /// A planner for an externally defined schedule family. `probe_k` is
    /// the block count used to answer [`SchedulePlanner::first_sender`];
    /// pass the block count the messages will actually use if the family's
    /// first senders depend on it (MPI-style broadcasts may switch
    /// algorithms by size — a luxury RDMC does not have, as the paper
    /// notes in §6: MPI receivers know every transfer's size in advance).
    pub fn from_fn<F>(name: &str, probe_k: u32, build: F) -> Self
    where
        F: Fn(u32, u32) -> GlobalSchedule + Send + Sync + 'static,
    {
        SchedulePlanner {
            algorithm: Algorithm::Custom {
                name: name.to_owned(),
            },
            builder: Some(Box::new(build)),
            probe_k: probe_k.max(1),
            cache: RwLock::new(BTreeMap::new()),
        }
    }

    /// The algorithm this planner builds.
    pub fn algorithm(&self) -> &Algorithm {
        &self.algorithm
    }

    /// The cache entry for `(n, k)`, building its schedule on a miss.
    ///
    /// Hits take only the shared read lock. On a miss the schedule is
    /// built *outside* any lock (two racing builders may do redundant
    /// work, but schedule construction is pure so whichever insert lands
    /// first wins and both callers agree).
    fn entry(&self, n: u32, k: u32) -> Arc<Planned> {
        // A panic while holding the lock poisons it, but the cache itself
        // is never left mid-update (inserts are atomic at the BTreeMap
        // level), so recover the guard instead of propagating the panic.
        if let Some(hit) = self
            .cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(n, k))
        {
            return Arc::clone(hit);
        }
        let global = match &self.builder {
            Some(build) => build(n, k),
            None => GlobalSchedule::build(&self.algorithm, n, k),
        };
        let built = Arc::new(Planned {
            ranks: (0..global.num_nodes()).map(|_| OnceLock::new()).collect(),
            first: OnceLock::new(),
            global: Arc::new(global),
        });
        let mut cache = self.cache.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(cache.entry((n, k)).or_insert(built))
    }

    /// The (cached) global schedule for `n` members and `k` blocks.
    pub fn plan(&self, n: u32, k: u32) -> Arc<GlobalSchedule> {
        Arc::clone(&self.entry(n, k).global)
    }

    /// `rank`'s slice of the `(n, k)` schedule
    /// ([`GlobalSchedule::for_rank`]), built on first use and shared by
    /// every later caller.
    pub(crate) fn rank_schedule(&self, n: u32, k: u32, rank: Rank) -> Arc<RankSchedule> {
        let e = self.entry(n, k);
        Arc::clone(e.ranks[rank as usize].get_or_init(|| Arc::new(e.global.for_rank(rank))))
    }

    /// Who sends `rank` its first block in an `n`-member group (see
    /// [`GlobalSchedule::first_sender`]; probed at this planner's
    /// `probe_k`, and `None` for a rank outside the group).
    pub fn first_sender(&self, n: u32, rank: Rank) -> Option<Rank> {
        let e = self.entry(n, self.probe_k);
        let first = e.first.get_or_init(|| {
            let mut first = vec![None; e.global.num_nodes() as usize];
            for (_, t) in e.global.transfers() {
                if let Some(slot) = first.get_mut(t.to as usize) {
                    slot.get_or_insert(t.from);
                }
            }
            first.into()
        });
        first.get(rank as usize).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_validate_across_sizes() {
        let algorithms = [
            Algorithm::Sequential,
            Algorithm::Chain,
            Algorithm::BinomialTree,
            Algorithm::BinomialPipeline,
        ];
        for alg in &algorithms {
            for n in [1u32, 2, 3, 4, 5, 7, 8, 13, 16, 20] {
                for k in [1u32, 2, 4, 9] {
                    let g = GlobalSchedule::build(alg, n, k);
                    g.validate()
                        .unwrap_or_else(|e| panic!("{alg} n={n} k={k}: {e}"));
                }
            }
        }
    }

    #[test]
    fn singleton_group_has_no_transfers() {
        let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, 1, 5);
        assert_eq!(g.num_steps(), 0);
        assert_eq!(g.num_transfers(), 0);
        assert_eq!(g.completion_step(0), None);
    }

    #[test]
    fn rank_schedule_round_trips_the_global_view() {
        let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, 8, 4);
        let mut total_out = 0;
        let mut total_in = 0;
        for rank in 0..8 {
            let rs = g.for_rank(rank);
            total_out += rs.outgoing().len();
            total_in += rs.in_count() as usize;
            // Outgoing steps are non-decreasing (posting order).
            let steps: Vec<u32> = rs.outgoing().iter().map(|(s, _)| *s).collect();
            assert!(steps.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(total_out, g.num_transfers());
        assert_eq!(total_in, g.num_transfers());
    }

    #[test]
    fn root_never_receives() {
        for alg in [
            Algorithm::Sequential,
            Algorithm::Chain,
            Algorithm::BinomialTree,
            Algorithm::BinomialPipeline,
        ] {
            let g = GlobalSchedule::build(&alg, 9, 3);
            assert_eq!(g.for_rank(0).in_count(), 0, "{alg}");
            assert_eq!(g.first_sender(0), None);
        }
    }

    #[test]
    fn validate_catches_send_before_receive() {
        let g = GlobalSchedule::from_steps(
            Algorithm::Chain,
            3,
            1,
            vec![vec![GlobalTransfer {
                from: 1,
                to: 2,
                block: 0,
            }]],
        );
        assert!(matches!(
            g.validate(),
            Err(Violation::SendWithoutBlock { .. })
        ));
    }

    #[test]
    fn validate_catches_duplicate_delivery() {
        let t = GlobalTransfer {
            from: 0,
            to: 1,
            block: 0,
        };
        let g = GlobalSchedule::from_steps(Algorithm::Chain, 2, 1, vec![vec![t], vec![t]]);
        assert!(matches!(
            g.validate(),
            Err(Violation::DuplicateDelivery { .. })
        ));
    }

    #[test]
    fn validate_catches_missing_delivery() {
        let g = GlobalSchedule::from_steps(
            Algorithm::Chain,
            3,
            1,
            vec![vec![GlobalTransfer {
                from: 0,
                to: 1,
                block: 0,
            }]],
        );
        assert!(matches!(
            g.validate(),
            Err(Violation::MissingBlock { rank: 2, block: 0 })
        ));
    }

    #[test]
    fn validate_catches_root_receive_and_malformed() {
        let g = GlobalSchedule::from_steps(
            Algorithm::Chain,
            2,
            1,
            vec![vec![GlobalTransfer {
                from: 1,
                to: 0,
                block: 0,
            }]],
        );
        assert!(matches!(
            g.validate(),
            Err(Violation::ReceivesHeldBlock { .. })
        ));
        let g = GlobalSchedule::from_steps(
            Algorithm::Chain,
            2,
            1,
            vec![vec![GlobalTransfer {
                from: 0,
                to: 5,
                block: 0,
            }]],
        );
        assert!(matches!(g.validate(), Err(Violation::Malformed { .. })));
    }

    #[test]
    fn empty_shapes_validate_without_panicking() {
        GlobalSchedule::from_custom_steps("empty", 0, 1, vec![])
            .validate()
            .unwrap();
        let t = GlobalTransfer {
            from: 0,
            to: 1,
            block: 0,
        };
        for (n, k) in [(0, 1), (2, 0)] {
            let g = GlobalSchedule::from_custom_steps("empty", n, k, vec![vec![t]]);
            assert!(matches!(g.validate(), Err(Violation::Malformed { .. })));
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = Violation::MissingBlock { rank: 3, block: 7 };
        assert_eq!(e.to_string(), "coverage: rank 3 never receives block 7");
    }

    #[test]
    fn planner_returns_the_cached_schedule_on_a_hit() {
        let planner = SchedulePlanner::new(Algorithm::BinomialTree);
        let a = planner.plan(8, 4);
        let b = planner.plan(8, 4);
        let c = planner.plan(16, 4);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached schedule");
        assert!(
            !Arc::ptr_eq(&a, &c),
            "a different key is a different schedule"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A planner's cached rank slices and first senders are what the
        /// global schedule computes, for every built-in algorithm, and a
        /// repeated lookup returns the same slice.
        #[test]
        fn cached_slices_and_first_senders_match_the_schedule(
            which in 0usize..5,
            n in 1u32..=40,
            k in 1u32..=16,
            racks in 1u32..=4,
        ) {
            let rack_of: Vec<u32> = (0..n).map(|i| i % racks).collect();
            let algorithm = match which {
                0 => Algorithm::Sequential,
                1 => Algorithm::Chain,
                2 => Algorithm::BinomialTree,
                3 => Algorithm::BinomialPipeline,
                _ => Algorithm::Hybrid { rack_of },
            };
            let planner = SchedulePlanner::new(algorithm);
            let (global, probe) = (planner.plan(n, k), planner.plan(n, planner.probe_k));
            for rank in 0..n {
                let slice = planner.rank_schedule(n, k, rank);
                let want = global.for_rank(rank);
                proptest::prop_assert_eq!(format!("{slice:?}"), format!("{want:?}"));
                let again = planner.rank_schedule(n, k, rank);
                proptest::prop_assert!(Arc::ptr_eq(&slice, &again));
                let first = planner.first_sender(n, rank);
                proptest::prop_assert_eq!(first, probe.first_sender(rank));
            }
            proptest::prop_assert_eq!(planner.first_sender(n, n), None);
        }
    }
}
