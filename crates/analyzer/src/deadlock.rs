//! The posting-order deadlock lint.
//!
//! RDMC pre-posts every receive and gates every send on a ready-for-block
//! credit (§4.2), so a send can never find its receiver unprepared — *if*
//! the schedule lets the credit protocol make progress. This lint checks
//! that statically: it builds the wait-for graph between scheduled sends
//! and the receive postings implied by credit gating, and flags any cycle
//! — a schedule on which every participant waits forever and the fabric's
//! RNR machinery eventually tears the connections down.
//!
//! The graph has one node per scheduled transfer and four edge families
//! (X → Y meaning "X cannot happen until Y has"):
//!
//! 1. **availability** — a relay of block `b` by rank `r` waits for the
//!    transfer that delivers `b` to `r`;
//! 2. **send serialization** — a rank posts its outgoing transfers in
//!    schedule order, so each waits for its predecessor;
//! 3. **credit grant** — the `j`-th arrival from peer `a` at rank `b`
//!    waits for the `(j - w)`-th arrival from `a` (the receiver grants
//!    `w = ready_window` transfers ahead, re-granting as arrivals are
//!    processed);
//! 4. **first arrival** — only the first-block sender is pre-granted at
//!    group creation; every other peer's first transfer waits for the
//!    rank's first arrival (receivers grant the rest of their peers once
//!    the message becomes active).
//!
//! On every valid schedule this graph is acyclic. The lint also measures
//! the *ungated* exposure: dropping the credit edges (families 3–4), how
//! many sends could reach a receiver before the matching receive is
//! posted? That is the RNR-breakage window `verbs::fabric` models
//! dynamically — each such send survives only as long as the retry budget
//! (`rnr_retry_limit`) outlasts the receiver's posting lag.

use std::collections::BTreeMap;

use rdmc::schedule::{GlobalSchedule, TraceEntry};
use rdmc::Rank;

/// What the lint concluded about one schedule.
#[derive(Clone, Debug)]
#[must_use = "check `is_clean()`; an unread report hides deadlock cycles"]
pub struct DeadlockReport {
    /// Human-readable algorithm label.
    pub algorithm: String,
    /// Group size.
    pub n: u32,
    /// Block count.
    pub k: u32,
    /// The ready window the wait-for graph was built for.
    pub ready_window: u32,
    /// Wait-for cycles (each a minimal counterexample: the transfers on
    /// the cycle, in wait order). Any entry is a static RNR deadlock.
    pub cycles: Vec<Vec<TraceEntry>>,
    /// Sends that, even with credit gating, can be posted before their
    /// receive (possible only on corrupted schedules — gating makes the
    /// receive posting a transitive dependency of every send).
    pub premature: Vec<TraceEntry>,
    /// How many sends could arrive before their receive is posted if the
    /// protocol did *not* gate sends on credits — the window §4.2's
    /// design exists to close.
    pub ungated_exposed: usize,
    /// The deepest posting lag (in dependency waves) an ungated send
    /// would have to survive on RNR retries alone.
    pub ungated_max_depth: u32,
    /// The fabric's RNR retry budget the exposure is compared against.
    pub rnr_retry_limit: u32,
}

impl DeadlockReport {
    /// True when the credit-gated protocol cannot deadlock on this
    /// schedule.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty() && self.premature.is_empty()
    }

    /// Whether an ungated run could outlive its retry budget: an exposed
    /// send retries once per `rnr_timer`; if its receive is posted more
    /// dependency waves late than the fabric retries, the connection
    /// breaks. `false` means credit gating is load-bearing for this
    /// schedule even against the retry machinery.
    pub fn ungated_survivable(&self) -> bool {
        self.ungated_max_depth <= self.rnr_retry_limit
    }
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "{} n={} k={}: deadlock-free (w={}, ungated exposure {} sends, depth {} vs {} retries)",
                self.algorithm,
                self.n,
                self.k,
                self.ready_window,
                self.ungated_exposed,
                self.ungated_max_depth,
                self.rnr_retry_limit
            )
        } else {
            writeln!(
                f,
                "{} n={} k={}: {} cycle(s), {} premature send(s)",
                self.algorithm,
                self.n,
                self.k,
                self.cycles.len(),
                self.premature.len()
            )?;
            for cycle in &self.cycles {
                writeln!(f, "  wait-for cycle:")?;
                for t in cycle {
                    writeln!(f, "    {t}")?;
                }
            }
            for t in &self.premature {
                writeln!(f, "  premature send: {t}")?;
            }
            Ok(())
        }
    }
}

/// Per-transfer bookkeeping shared by both graph variants.
struct Graph {
    transfers: Vec<TraceEntry>,
    /// deps[t] = transfers that must happen before `t`.
    deps: Vec<Vec<u32>>,
}

impl Graph {
    /// Longest-path level of every node (`None` if the graph is cyclic).
    fn levels(&self) -> Option<Vec<u32>> {
        let n = self.transfers.len();
        let mut indegree = vec![0u32; n];
        let mut rdeps: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (t, deps) in self.deps.iter().enumerate() {
            indegree[t] = deps.len() as u32;
            for &d in deps {
                rdeps[d as usize].push(t as u32);
            }
        }
        let mut level = vec![0u32; n];
        let mut queue: std::collections::VecDeque<u32> = (0..n as u32)
            .filter(|&t| indegree[t as usize] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(t) = queue.pop_front() {
            seen += 1;
            for &next in &rdeps[t as usize] {
                let cand = level[t as usize] + 1;
                if cand > level[next as usize] {
                    level[next as usize] = cand;
                }
                indegree[next as usize] -= 1;
                if indegree[next as usize] == 0 {
                    queue.push_back(next);
                }
            }
        }
        (seen == n).then_some(level)
    }

    /// One wait-for cycle, if any (iterative DFS; the returned cycle is
    /// the back-edge loop, a minimal witness).
    fn find_cycle(&self) -> Option<Vec<TraceEntry>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let n = self.transfers.len();
        let mut color = vec![Color::White; n];
        for root in 0..n {
            if color[root] != Color::White {
                continue;
            }
            // (node, next dep index); `path` mirrors the grey stack.
            let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
            let mut path: Vec<u32> = Vec::new();
            color[root] = Color::Grey;
            path.push(root as u32);
            while let Some(&(node, idx)) = stack.last() {
                if idx < self.deps[node as usize].len() {
                    if let Some(top) = stack.last_mut() {
                        top.1 += 1;
                    }
                    let dep = self.deps[node as usize][idx];
                    match color[dep as usize] {
                        Color::White => {
                            color[dep as usize] = Color::Grey;
                            stack.push((dep, 0));
                            path.push(dep);
                        }
                        Color::Grey => {
                            // Found a cycle: slice the path from `dep`.
                            let start = path
                                .iter()
                                .position(|&p| p == dep)
                                .expect("grey node is on the path");
                            return Some(
                                path[start..]
                                    .iter()
                                    .map(|&t| self.transfers[t as usize])
                                    .collect(),
                            );
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node as usize] = Color::Black;
                    stack.pop();
                    path.pop();
                }
            }
        }
        None
    }
}

/// Builds the wait-for graph and runs the lint. `ready_window` mirrors
/// `EngineConfig::ready_window`; the retry cross-check uses the fabric's
/// default `rnr_retry_limit`.
pub fn lint_schedule(schedule: &GlobalSchedule, ready_window: u32) -> DeadlockReport {
    let w = ready_window.max(1) as usize;
    let transfers: Vec<TraceEntry> = schedule.transfers().map(TraceEntry::from).collect();

    // First delivery of (rank, block), outgoing order per rank, incoming
    // order per (receiver, sender), first arrival per rank — all in step
    // order, which is the wire order the engine assumes.
    let mut first_delivery: BTreeMap<(Rank, u32), u32> = BTreeMap::new();
    let mut outgoing: BTreeMap<Rank, Vec<u32>> = BTreeMap::new();
    let mut incoming: BTreeMap<(Rank, Rank), Vec<u32>> = BTreeMap::new();
    let mut first_arrival: BTreeMap<Rank, u32> = BTreeMap::new();
    for (tid, t) in transfers.iter().enumerate() {
        let tid = tid as u32;
        first_delivery.entry((t.to, t.block)).or_insert(tid);
        outgoing.entry(t.from).or_default().push(tid);
        incoming.entry((t.to, t.from)).or_default().push(tid);
        first_arrival.entry(t.to).or_insert(tid);
    }

    let mut base_deps: Vec<Vec<u32>> = vec![Vec::new(); transfers.len()]; // families 1-2
    let mut credit_deps: Vec<Vec<u32>> = vec![Vec::new(); transfers.len()]; // families 3-4

    for out in outgoing.values() {
        for pair in out.windows(2) {
            base_deps[pair[1] as usize].push(pair[0]); // serialization
        }
    }
    for (tid, t) in transfers.iter().enumerate() {
        if t.from != 0 {
            if let Some(&d) = first_delivery.get(&(t.from, t.block)) {
                if d != tid as u32 {
                    base_deps[tid].push(d); // availability
                }
            }
            // No delivery at all: the model checker reports the causality
            // violation; the lint has nothing to hang an edge on.
        }
    }
    for ((to, _from), arrivals) in &incoming {
        for (j, &tid) in arrivals.iter().enumerate() {
            if j >= w {
                credit_deps[tid as usize].push(arrivals[j - w]); // grant window
            } else {
                // Within the initial window: pre-granted only for the
                // rank's overall first sender; everyone else waits for
                // the first arrival to activate the transfer.
                let first = first_arrival[to];
                if first != tid {
                    credit_deps[tid as usize].push(first);
                }
            }
        }
    }

    let gated = Graph {
        transfers: transfers.clone(),
        deps: base_deps
            .iter()
            .zip(&credit_deps)
            .map(|(b, c)| b.iter().chain(c).copied().collect())
            .collect(),
    };

    let mut cycles = Vec::new();
    let mut premature = Vec::new();
    match gated.levels() {
        Some(levels) => {
            // Acyclic: verify no send can beat its receive posting. The
            // receive for arrival `j` is posted when its grant trigger is
            // processed, i.e. at the trigger's level + 1 (level 0 for the
            // pre-granted first window).
            for (tid, t) in transfers.iter().enumerate() {
                let posted_at = credit_deps[tid]
                    .iter()
                    .map(|&d| levels[d as usize] + 1)
                    .max()
                    .unwrap_or(0);
                if levels[tid] < posted_at {
                    premature.push(*t);
                }
            }
        }
        None => {
            if let Some(cycle) = gated.find_cycle() {
                cycles.push(cycle);
            }
        }
    }

    // Ungated exposure: the same schedule run without credit gating —
    // sends race ahead as soon as the data dependencies allow.
    let ungated = Graph {
        transfers: transfers.clone(),
        deps: base_deps,
    };
    let mut ungated_exposed = 0usize;
    let mut ungated_max_depth = 0u32;
    if let Some(levels) = ungated.levels() {
        for tid in 0..transfers.len() {
            let posted_at = credit_deps[tid]
                .iter()
                .map(|&d| levels[d as usize] + 1)
                .max()
                .unwrap_or(0);
            if levels[tid] < posted_at {
                ungated_exposed += 1;
                ungated_max_depth = ungated_max_depth.max(posted_at - levels[tid]);
            }
        }
    }

    DeadlockReport {
        algorithm: schedule.algorithm().to_string(),
        n: schedule.num_nodes(),
        k: schedule.num_blocks(),
        ready_window,
        cycles,
        premature,
        ungated_exposed,
        ungated_max_depth,
        rnr_retry_limit: verbs::FabricParams::default().rnr_retry_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdmc::Algorithm;

    #[test]
    fn generators_are_deadlock_free() {
        for alg in [
            Algorithm::Sequential,
            Algorithm::Chain,
            Algorithm::BinomialTree,
            Algorithm::BinomialPipeline,
        ] {
            for n in [2u32, 5, 8, 16] {
                for k in [1u32, 3, 8] {
                    let g = GlobalSchedule::build(&alg, n, k);
                    let r = lint_schedule(&g, 1);
                    assert!(r.is_clean(), "{r}");
                }
            }
        }
    }

    #[test]
    fn relay_swap_is_a_wait_for_cycle() {
        use rdmc::schedule::GlobalTransfer;
        // Rank 1 sends block 0 to rank 2 before anyone gave it to rank 1;
        // rank 2 "relays" it back. Each transfer's availability depends on
        // the other: a 2-cycle.
        let g = GlobalSchedule::from_custom_steps(
            "relay-swap",
            3,
            1,
            vec![
                vec![GlobalTransfer {
                    from: 1,
                    to: 2,
                    block: 0,
                }],
                vec![GlobalTransfer {
                    from: 2,
                    to: 1,
                    block: 0,
                }],
            ],
        );
        let r = lint_schedule(&g, 1);
        assert_eq!(r.cycles.len(), 1, "{r}");
        assert_eq!(r.cycles[0].len(), 2);
    }
}
