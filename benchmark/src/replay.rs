//! Times the `core` layer alone: the engine events a traced run
//! captured (`Cluster::engine_log()`) are fed again to fresh
//! `GroupEngine`s built with the same configurations, with nothing
//! underneath — no transport, no orchestration. The engine is sans-IO
//! and deterministic, so the replay does exactly the work the engines
//! did inside the run.

use std::sync::Arc;
use std::time::Instant;

use rdmc::engine::{Action, EngineConfig, GroupEngine};
use rdmc::schedule::SchedulePlanner;
use rdmc::Algorithm;
use rdmc_sim::{EngineLogEntry, GroupSpec};

pub struct Replay {
    /// Events replayed under the clock (those after `timed_from`).
    pub events: u64,
    pub replay_ns: u64,
    /// `messages_completed()` per group, per rank, after the whole log.
    pub completed: Vec<Vec<u64>>,
}

/// Replays `log` through one fresh engine per (group, rank). `groups`
/// is indexed by `GroupId`. Entries before `timed_from` (the warm-up)
/// are replayed off the clock.
pub fn replay(log: &[EngineLogEntry], groups: &[GroupSpec], timed_from: usize) -> Replay {
    let mut engines: Vec<Vec<GroupEngine>> = groups
        .iter()
        .map(|spec| {
            let planner = Arc::new(SchedulePlanner::new(spec.algorithm.clone()));
            (0..spec.members.len() as u32)
                .map(|rank| {
                    GroupEngine::new(EngineConfig {
                        rank,
                        num_nodes: spec.members.len() as u32,
                        block_size: spec.block_size,
                        ready_window: spec.ready_window,
                        max_outstanding_sends: spec.max_outstanding_sends,
                        planner: Arc::clone(&planner),
                    })
                    .0
                })
                .collect()
        })
        .collect();
    let mut actions: Vec<Action> = Vec::new();
    let mut feed = |entries: &[EngineLogEntry]| {
        for entry in entries {
            actions.clear();
            engines[entry.group][entry.rank as usize]
                .handle_into(entry.event.clone(), &mut actions)
                .expect("a captured log replays without protocol violations");
            std::hint::black_box(&actions);
        }
    };
    let timed_from = timed_from.min(log.len());
    feed(&log[..timed_from]);
    let start = Instant::now();
    feed(&log[timed_from..]);
    let replay_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Replay {
        events: (log.len() - timed_from) as u64,
        replay_ns,
        completed: engines
            .iter()
            .map(|g| g.iter().map(GroupEngine::messages_completed).collect())
            .collect(),
    }
}

/// Schedule planning for one (n, k), timed directly on a cold
/// `SchedulePlanner`: the work a group's first message of a new block
/// count pays. Median of five cold plans.
pub fn plan_seconds(n: u32, k: u32) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let planner = SchedulePlanner::new(Algorithm::BinomialPipeline);
            let start = Instant::now();
            std::hint::black_box(planner.plan(n, k));
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
