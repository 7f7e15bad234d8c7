//! The engine reachability check.
//!
//! The schedule proofs in [`crate::model`] and [`crate::deadlock`] argue
//! about the *plan*; this module checks the *machine that executes it*.
//! It instantiates one [`GroupEngine`] per rank and exhaustively explores
//! the joint state space under every interleaving the transport permits:
//! per-connection-direction FIFO channels (RDMA reliable connections
//! deliver in order) carrying ready notices and blocks, plus send
//! completions that can reach the sender at any later point. The claim
//! proven is twofold: **no stuck states** (from every reachable state
//! some transition is enabled until the multicast is done) and **every
//! terminal state has delivered all `k` blocks at every rank**.
//!
//! The state space is exponential in flight depth, so this runs on small
//! `n, k` — which is exactly where every schedule topology's interesting
//! structure (first relay, shadow vertices, rack leaders) already shows
//! up.

// `visited` below is a membership-only digest set on the hot path of a
// multi-million-state search — hashing beats ordered comparison and its
// order is never observed.
#[allow(clippy::disallowed_types)]
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

use rdmc::engine::{Action, EngineConfig, Event, GroupEngine};
use rdmc::schedule::SchedulePlanner;
use rdmc::{Algorithm, Rank};

/// What flows over a directed rank-to-rank channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Msg {
    /// A ready-for-block notice.
    Ready,
    /// A block, carrying the message size (the immediate value).
    Block(u64),
}

/// One explored global state.
#[derive(Clone)]
struct State {
    engines: Vec<GroupEngine>,
    /// In-flight messages per directed pair, in FIFO (wire) order.
    channels: BTreeMap<(Rank, Rank), VecDeque<Msg>>,
    /// Outstanding send completions per directed pair (deliverable to the
    /// sender at any time — completion interrupts are unordered relative
    /// to everything else).
    completions: BTreeMap<(Rank, Rank), u32>,
    delivered: Vec<bool>,
}

impl State {
    fn digest(&self) -> Vec<u64> {
        let mut d = Vec::new();
        for e in &self.engines {
            let sd = e.state_digest();
            d.push(sd.len() as u64);
            d.extend(sd);
        }
        d.push(u64::MAX); // section separator
        for ((a, b), q) in &self.channels {
            if q.is_empty() {
                continue;
            }
            d.push(u64::from(*a));
            d.push(u64::from(*b));
            d.push(q.len() as u64);
            for m in q {
                d.push(match m {
                    Msg::Ready => 1,
                    Msg::Block(s) => 2 + *s,
                });
            }
        }
        d.push(u64::MAX);
        for ((a, b), c) in &self.completions {
            if *c == 0 {
                continue;
            }
            d.push(u64::from(*a));
            d.push(u64::from(*b));
            d.push(u64::from(*c));
        }
        d.push(u64::MAX);
        d.extend(self.delivered.iter().map(|&b| u64::from(b)));
        d
    }

    fn is_quiescent(&self) -> bool {
        self.channels.values().all(VecDeque::is_empty) && self.completions.values().all(|&c| c == 0)
    }
}

/// `EngineConfig::ready_window` and `max_outstanding_sends` of every
/// engine: one credit and one send in flight per member, the tightest
/// setting of the §4.2 credit rule.
const WINDOW: u32 = 1;
/// Abort after this many distinct states (guards against grid points
/// too large to enumerate; an aborted run proves nothing and is reported
/// as truncated); the sweep's corner stays far below it.
const MAX_STATES: usize = 2_000_000;

/// Configuration of one reachability run.
#[derive(Clone, Debug)]
pub struct ReachConfig {
    /// The schedule family to check.
    pub algorithm: Algorithm,
    /// Group size.
    pub n: u32,
    /// Block count (the message is `k` full blocks).
    pub k: u32,
}

/// The outcome of exploring one configuration's state space.
#[derive(Clone, Debug)]
#[must_use = "check `is_clean()`; an unread report hides stuck states"]
pub struct ReachReport {
    /// Human-readable algorithm label.
    pub algorithm: String,
    /// Group size.
    pub n: u32,
    /// Block count.
    pub k: u32,
    /// Distinct states visited.
    pub states: usize,
    /// Terminal states in which every rank had delivered the message.
    pub complete_terminals: usize,
    /// Stuck states: nothing deliverable, yet some rank had not
    /// delivered. Any entry is a violation.
    pub stuck: Vec<String>,
    /// Engine protocol errors hit during exploration (driver/peer bugs
    /// surfaced by an interleaving). Any entry is a violation.
    pub engine_errors: Vec<String>,
    /// True when the exploration hit its state cap and stopped early.
    pub truncated: bool,
}

impl ReachReport {
    /// True when the full space was explored and held both claims.
    pub fn is_clean(&self) -> bool {
        self.stuck.is_empty() && self.engine_errors.is_empty() && !self.truncated
    }
}

impl std::fmt::Display for ReachReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} n={} k={}: {} states, {} complete terminal(s), {} stuck, {} engine error(s){}",
            self.algorithm,
            self.n,
            self.k,
            self.states,
            self.complete_terminals,
            self.stuck.len(),
            self.engine_errors.len(),
            if self.truncated { " [truncated]" } else { "" }
        )
    }
}

/// Applies `actions` from `rank`'s engine to the state, enqueuing wire
/// messages and completions.
fn apply_actions(state: &mut State, rank: Rank, actions: Vec<Action>) {
    for action in actions {
        match action {
            Action::SendReady { to } => {
                state
                    .channels
                    .entry((rank, to))
                    .or_default()
                    .push_back(Msg::Ready);
            }
            Action::SendBlock { to, total_size, .. } => {
                state
                    .channels
                    .entry((rank, to))
                    .or_default()
                    .push_back(Msg::Block(total_size));
                *state.completions.entry((rank, to)).or_default() += 1;
            }
            Action::AllocateBuffer { .. } => {}
            Action::DeliverMessage { .. } => {
                state.delivered[rank as usize] = true;
            }
            Action::RelayFailure { .. } => {
                // No failures are injected; reaching this is a bug and
                // will show up as a stuck or incomplete terminal state.
            }
        }
    }
}

/// Exhaustively explores the joint engine state machine for one
/// configuration.
pub fn explore(config: &ReachConfig) -> ReachReport {
    let planner = Arc::new(SchedulePlanner::new(config.algorithm.clone()));
    let block_size = 64u64;
    let size = u64::from(config.k) * block_size;

    let mut init = State {
        engines: Vec::new(),
        channels: BTreeMap::new(),
        completions: BTreeMap::new(),
        delivered: vec![false; config.n as usize],
    };
    let mut initial_actions: Vec<(Rank, Vec<Action>)> = Vec::new();
    for rank in 0..config.n {
        let (engine, actions) = GroupEngine::new(EngineConfig {
            rank,
            num_nodes: config.n,
            block_size,
            ready_window: WINDOW,
            max_outstanding_sends: WINDOW,
            planner: Arc::clone(&planner),
        });
        init.engines.push(engine);
        initial_actions.push((rank, actions));
    }
    for (rank, actions) in initial_actions {
        apply_actions(&mut init, rank, actions);
    }

    let mut report = ReachReport {
        algorithm: config.algorithm.to_string(),
        n: config.n,
        k: config.k,
        states: 0,
        complete_terminals: 0,
        stuck: Vec::new(),
        engine_errors: Vec::new(),
        truncated: false,
    };

    // Kick off the multicast at the root.
    match init.engines[0].handle(Event::StartSend { size }) {
        Ok(actions) => apply_actions(&mut init, 0, actions),
        Err(e) => {
            report.engine_errors.push(format!("root StartSend: {e}"));
            return report;
        }
    }

    #[allow(clippy::disallowed_types)]
    let mut visited: HashSet<Vec<u64>> = HashSet::new();
    let mut stack: Vec<State> = Vec::new();
    if visited.insert(init.digest()) {
        stack.push(init);
    }

    while let Some(state) = stack.pop() {
        report.states += 1;
        if report.states >= MAX_STATES {
            report.truncated = true;
            break;
        }

        let mut any_transition = false;

        // Transition family 1: deliver the head of any non-empty channel.
        let heads: Vec<(Rank, Rank, Msg)> = state
            .channels
            .iter()
            .filter_map(|(&(a, b), q)| q.front().map(|&m| (a, b, m)))
            .collect();
        for (from, to, msg) in heads {
            any_transition = true;
            let mut next = state.clone();
            if let Some(q) = next.channels.get_mut(&(from, to)) {
                q.pop_front();
            }
            let event = match msg {
                Msg::Ready => Event::ReadyReceived { from },
                Msg::Block(total_size) => Event::BlockReceived { from, total_size },
            };
            match next.engines[to as usize].handle(event) {
                Ok(actions) => {
                    apply_actions(&mut next, to, actions);
                    if visited.insert(next.digest()) {
                        stack.push(next);
                    }
                }
                Err(e) => {
                    if report.engine_errors.len() < 8 {
                        report
                            .engine_errors
                            .push(format!("rank {to} on {msg:?} from {from}: {e}"));
                    }
                }
            }
        }

        // Transition family 2: deliver any outstanding send completion.
        let pending: Vec<(Rank, Rank)> = state
            .completions
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&pair, _)| pair)
            .collect();
        for (from, to) in pending {
            any_transition = true;
            let mut next = state.clone();
            if let Some(c) = next.completions.get_mut(&(from, to)) {
                *c -= 1;
            }
            match next.engines[from as usize].handle(Event::SendCompleted { to }) {
                Ok(actions) => {
                    apply_actions(&mut next, from, actions);
                    if visited.insert(next.digest()) {
                        stack.push(next);
                    }
                }
                Err(e) => {
                    if report.engine_errors.len() < 8 {
                        report
                            .engine_errors
                            .push(format!("rank {from} completion to {to}: {e}"));
                    }
                }
            }
        }

        if !any_transition {
            // Terminal: every rank must have delivered (the root counts
            // once its own send completes locally) and the wires must be
            // drained.
            let all_delivered = state.delivered.iter().all(|&d| d);
            if all_delivered && state.is_quiescent() {
                report.complete_terminals += 1;
            } else if report.stuck.len() < 8 {
                let undelivered: Vec<Rank> = (0..config.n)
                    .filter(|&r| !state.delivered[r as usize])
                    .collect();
                report.stuck.push(format!(
                    "stuck state: ranks {undelivered:?} never delivered"
                ));
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_has_no_stuck_states() {
        let r = explore(&ReachConfig {
            algorithm: Algorithm::BinomialPipeline,
            n: 3,
            k: 2,
        });
        assert!(r.is_clean(), "{r}");
        assert!(r.complete_terminals >= 1);
        assert!(r.states > 1);
    }
}
