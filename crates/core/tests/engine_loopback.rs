//! End-to-end engine tests over an in-memory "perfect wire" that preserves
//! per-connection FIFO order but can otherwise interleave events
//! arbitrarily — the weakest ordering the real transports guarantee. The
//! wire delivers in channel order, in a seeded random order, or in the
//! order a proptest draws.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rdmc::engine::{Action, EngineConfig, Event, GroupEngine};
use rdmc::schedule::SchedulePlanner;
use rdmc::{Algorithm, Rank};

/// An in-memory cluster of engines connected by FIFO channels.
struct Loopback {
    engines: Vec<GroupEngine>,
    /// FIFO per (from, to) ordered channel, as RDMA RC / TCP would give us.
    channels: BTreeMap<(Rank, Rank), VecDeque<Event>>,
    delivered: Vec<Vec<u64>>,
    allocated: Vec<Vec<u64>>,
}

impl Loopback {
    fn new(n: u32, algorithm: Algorithm, block_size: u64, ready_window: u32) -> Self {
        let planner = Arc::new(SchedulePlanner::new(algorithm));
        let mut engines = Vec::new();
        let channels: BTreeMap<(Rank, Rank), VecDeque<Event>> = BTreeMap::new();
        let mut initial = Vec::new();
        for rank in 0..n {
            let (engine, actions) = GroupEngine::new(EngineConfig {
                rank,
                num_nodes: n,
                block_size,
                ready_window,
                max_outstanding_sends: 2,
                planner: Arc::clone(&planner),
            });
            engines.push(engine);
            initial.push(actions);
        }
        let mut this = Loopback {
            engines,
            channels,
            delivered: vec![Vec::new(); n as usize],
            allocated: vec![Vec::new(); n as usize],
        };
        for (rank, actions) in initial.into_iter().enumerate() {
            this.perform(rank as Rank, actions);
        }
        this
    }

    fn perform(&mut self, from: Rank, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::SendReady { to } => {
                    self.channels
                        .entry((from, to))
                        .or_default()
                        .push_back(Event::ReadyReceived { from });
                }
                Action::SendBlock { to, total_size, .. } => {
                    self.channels
                        .entry((from, to))
                        .or_default()
                        .push_back(Event::BlockReceived { from, total_size });
                    // The hardware ack: completion back to the sender,
                    // ordered after the data on the same channel pair.
                    self.channels
                        .entry((to, from))
                        .or_default()
                        .push_back(Event::SendCompleted { to });
                }
                Action::AllocateBuffer { size } => {
                    self.allocated[from as usize].push(size);
                }
                Action::DeliverMessage { size } => {
                    self.delivered[from as usize].push(size);
                }
                Action::RelayFailure { failed } => {
                    let n = self.engines.len() as Rank;
                    for peer in 0..n {
                        if peer != from {
                            self.channels
                                .entry((from, peer))
                                .or_default()
                                .push_back(Event::PeerFailed { rank: failed });
                        }
                    }
                }
            }
        }
    }

    fn submit(&mut self, rank: Rank, event: Event) {
        let actions = self.engines[rank as usize]
            .handle(event)
            .expect("engine error");
        self.perform(rank, actions);
    }

    /// Delivers queued events until quiescent, in deterministic channel
    /// order.
    fn run(&mut self) {
        self.run_picking(|_| 0);
    }

    /// Delivers queued events until quiescent; `pick(len)` chooses which
    /// of the `len` non-empty channels, in key order, delivers next. Every
    /// event on channel `(a, b)` is for `b`: a block's `SendCompleted`
    /// rides the reverse channel back to its sender.
    fn run_picking(&mut self, mut pick: impl FnMut(usize) -> usize) {
        loop {
            let keys: Vec<(Rank, Rank)> = self
                .channels
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(k, _)| *k)
                .collect();
            if keys.is_empty() {
                break;
            }
            let key = keys[pick(keys.len())];
            let event = self.channels.get_mut(&key).unwrap().pop_front().unwrap();
            self.submit(key.1, event);
        }
    }

    fn all_idle(&self) -> bool {
        self.engines.iter().all(|e| e.is_idle())
    }
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Sequential,
        Algorithm::Chain,
        Algorithm::BinomialTree,
        Algorithm::BinomialPipeline,
    ]
}

#[test]
fn single_message_reaches_every_member() {
    for alg in algorithms() {
        for n in [2u32, 3, 4, 5, 7, 8, 11, 16] {
            let mut lb = Loopback::new(n, alg.clone(), 1024, 2);
            lb.submit(0, Event::StartSend { size: 10_000 });
            lb.run();
            assert!(lb.all_idle(), "{alg} n={n}: not idle");
            for rank in 0..n as usize {
                assert_eq!(
                    lb.delivered[rank],
                    vec![10_000],
                    "{alg} n={n} rank={rank}: wrong deliveries"
                );
            }
            // Receivers allocated exactly one buffer of the right size.
            for rank in 1..n as usize {
                assert_eq!(lb.allocated[rank], vec![10_000], "{alg} n={n} rank={rank}");
            }
        }
    }
}

#[test]
fn hybrid_schedule_end_to_end() {
    let rack_of = vec![0, 0, 0, 1, 1, 1, 2, 2];
    let mut lb = Loopback::new(8, Algorithm::Hybrid { rack_of }, 512, 2);
    lb.submit(0, Event::StartSend { size: 5_000 });
    lb.run();
    assert!(lb.all_idle());
    for rank in 0..8 {
        assert_eq!(lb.delivered[rank], vec![5_000]);
    }
}

#[test]
fn message_smaller_than_block_is_single_block() {
    let mut lb = Loopback::new(4, Algorithm::BinomialPipeline, 1 << 20, 2);
    lb.submit(0, Event::StartSend { size: 1 });
    lb.run();
    for rank in 0..4 {
        assert_eq!(lb.delivered[rank], vec![1]);
    }
}

#[test]
fn zero_byte_message_still_delivers() {
    let mut lb = Loopback::new(3, Algorithm::Chain, 4096, 2);
    lb.submit(0, Event::StartSend { size: 0 });
    lb.run();
    for rank in 0..3 {
        assert_eq!(lb.delivered[rank], vec![0]);
    }
}

#[test]
fn exact_block_multiple_has_no_ragged_tail() {
    let mut lb = Loopback::new(6, Algorithm::BinomialPipeline, 1000, 2);
    lb.submit(0, Event::StartSend { size: 8_000 });
    lb.run();
    for rank in 0..6 {
        assert_eq!(lb.delivered[rank], vec![8_000]);
    }
}

#[test]
fn back_to_back_messages_of_different_sizes() {
    for alg in algorithms() {
        let mut lb = Loopback::new(5, alg.clone(), 1024, 2);
        // Queue three sends up front: sizes force different block counts,
        // so schedules are rebuilt per message.
        lb.submit(0, Event::StartSend { size: 10_000 });
        lb.submit(0, Event::StartSend { size: 100 });
        lb.submit(0, Event::StartSend { size: 50_000 });
        lb.run();
        assert!(lb.all_idle(), "{alg}");
        for rank in 0..5 {
            assert_eq!(
                lb.delivered[rank],
                vec![10_000, 100, 50_000],
                "{alg} rank={rank}: messages must arrive in send order"
            );
        }
    }
}

#[test]
fn many_small_messages_in_sequence() {
    let mut lb = Loopback::new(4, Algorithm::BinomialPipeline, 1 << 20, 2);
    for i in 0..20u64 {
        lb.submit(0, Event::StartSend { size: i + 1 });
    }
    lb.run();
    for rank in 0..4 {
        assert_eq!(lb.delivered[rank].len(), 20);
        assert_eq!(lb.delivered[rank][19], 20);
    }
}

#[test]
fn ready_window_of_one_still_completes() {
    for alg in algorithms() {
        let mut lb = Loopback::new(8, alg.clone(), 512, 1);
        lb.submit(0, Event::StartSend { size: 9_999 });
        lb.run();
        for rank in 0..8 {
            assert_eq!(lb.delivered[rank], vec![9_999], "{alg} rank={rank}");
        }
    }
}

#[test]
fn wide_ready_window_matches_narrow() {
    let mut narrow = Loopback::new(6, Algorithm::BinomialPipeline, 256, 1);
    let mut wide = Loopback::new(6, Algorithm::BinomialPipeline, 256, 8);
    for lb in [&mut narrow, &mut wide] {
        lb.submit(0, Event::StartSend { size: 4_096 });
        lb.run();
    }
    assert_eq!(narrow.delivered, wide.delivered);
}

#[test]
fn non_root_send_is_rejected() {
    let planner = Arc::new(SchedulePlanner::new(Algorithm::BinomialPipeline));
    let (mut engine, _) = GroupEngine::new(EngineConfig {
        rank: 3,
        num_nodes: 4,
        block_size: 1024,
        ready_window: 2,
        max_outstanding_sends: 2,
        planner,
    });
    let err = engine.handle(Event::StartSend { size: 10 }).unwrap_err();
    assert_eq!(err.to_string(), "rank 3 is not the root and cannot send");
}

#[test]
fn failure_notice_wedges_everyone() {
    let mut lb = Loopback::new(6, Algorithm::BinomialPipeline, 1024, 2);
    // Node 4 locally detects that node 2 died.
    lb.submit(4, Event::PeerFailed { rank: 2 });
    lb.run();
    for (rank, engine) in lb.engines.iter().enumerate() {
        if rank == 2 {
            continue; // the dead node's own engine is unreachable in reality
        }
        assert!(
            engine.is_wedged(),
            "rank {rank} did not learn of the failure"
        );
        assert_eq!(engine.failed_peers().collect::<Vec<_>>(), vec![2]);
    }
}

#[test]
fn wedged_root_refuses_new_transfers() {
    let mut lb = Loopback::new(4, Algorithm::Chain, 1024, 2);
    lb.submit(0, Event::PeerFailed { rank: 3 });
    lb.run();
    lb.submit(0, Event::StartSend { size: 1000 });
    lb.run();
    for rank in 0..4 {
        assert!(lb.delivered[rank].is_empty(), "no delivery after wedge");
    }
}

#[test]
fn random_event_interleavings_preserve_delivery() {
    // The same multicast under 20 random FIFO-preserving interleavings.
    for seed in 0..20u64 {
        for alg in algorithms() {
            let mut lb = Loopback::new(7, alg.clone(), 512, 2);
            lb.submit(0, Event::StartSend { size: 6_000 });
            lb.submit(0, Event::StartSend { size: 2_000 });
            let mut rng = StdRng::seed_from_u64(seed);
            lb.run_picking(|len| rng.random_range(0..len));
            assert!(lb.all_idle(), "{alg} seed={seed}");
            for rank in 0..7 {
                assert_eq!(
                    lb.delivered[rank],
                    vec![6_000, 2_000],
                    "{alg} seed={seed} rank={rank}"
                );
            }
        }
    }
}

#[test]
fn large_group_binomial_pipeline() {
    let mut lb = Loopback::new(64, Algorithm::BinomialPipeline, 4096, 3);
    lb.submit(0, Event::StartSend { size: 1 << 20 });
    lb.run();
    for rank in 0..64 {
        assert_eq!(lb.delivered[rank], vec![1 << 20]);
    }
}

/// `messages` sent by rank 0 to `n` engines, the channels delivering in
/// the order `choices` picks (the first channel once they run out).
/// Returns each rank's deliveries once every engine is idle.
fn interleaved(
    algorithm: Algorithm,
    n: u32,
    block_size: u64,
    messages: &[u64],
    choices: &[prop::sample::Index],
) -> Vec<Vec<u64>> {
    let mut lb = Loopback::new(n, algorithm, block_size, 2);
    for &size in messages {
        lb.submit(0, Event::StartSend { size });
    }
    let mut choices = choices.iter();
    lb.run_picking(|len| choices.next().map_or(0, |i| i.index(len)));
    assert!(lb.all_idle(), "engines not idle");
    lb.delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the interleaving, every member delivers every message, in
    /// order, exactly once.
    #[test]
    fn delivery_is_interleaving_invariant(
        n in 2u32..10,
        block_size in prop::sample::select(vec![64u64, 500, 1 << 12]),
        messages in prop::collection::vec(0u64..60_000, 1..5),
        choices in prop::collection::vec(any::<prop::sample::Index>(), 0..4096),
    ) {
        let delivered = interleaved(Algorithm::BinomialPipeline, n, block_size, &messages, &choices);
        for (rank, got) in delivered.iter().enumerate() {
            prop_assert_eq!(got, &messages, "rank {} deliveries differ", rank);
        }
    }

    /// The same holds for every schedule family.
    #[test]
    fn all_algorithms_are_interleaving_invariant(
        alg_idx in 0usize..4,
        n in 2u32..8,
        choices in prop::collection::vec(any::<prop::sample::Index>(), 0..2048),
    ) {
        let algorithm = algorithms().swap_remove(alg_idx);
        let messages = [10_000u64, 1];
        let delivered = interleaved(algorithm.clone(), n, 1024, &messages, &choices);
        for (rank, got) in delivered.iter().enumerate() {
            prop_assert_eq!(got.as_slice(), &messages[..], "{} rank {}", algorithm, rank);
        }
    }
}
