//! The simulated fabric's own semantics; the `Transport` contract's rules
//! are rows of the root `tests/transport_contract.rs`, on every backend.

use bytes::Bytes;
use proptest::prelude::*;
use simnet::{FlowNet, HostProfile, JitterModel, SimDuration, SimTime, Topology};

use crate::{
    CompletionMode, Delivery, Fabric, FabricParams, NodeId, Transport, VerbsError, WaitSpec, WrId,
};

/// A flat fabric: `n` nodes on `gbps` links with 2 µs one-hop latency,
/// hardware constants `params`, and hosts as `Fabric::new` makes them
/// (default overheads, hybrid completion mode).
fn flat_fabric(n: usize, gbps: f64, params: FabricParams) -> Fabric {
    let mut net = FlowNet::new();
    let topo = Topology::flat(&mut net, n, gbps, SimDuration::from_micros(2));
    Fabric::new(net, topo, params)
}

/// A flat fabric with `n` nodes on 100 Gb/s links and hardware constants
/// `params`, whose hosts poll with zeroed software overheads (so timing
/// assertions are exact).
fn quiet_fabric(n: usize, params: FabricParams) -> Fabric {
    let mut fabric = flat_fabric(n, 100.0, params);
    let mut quiet = HostProfile::default();
    (quiet.post_overhead, quiet.completion_overhead) = (SimDuration::ZERO, SimDuration::ZERO);
    for node in (0..n as u32).map(NodeId) {
        fabric.set_profile(node, quiet.clone());
        fabric.set_completion_mode(node, CompletionMode::Polling);
    }
    fabric
}

/// [`quiet_fabric`] with no NIC overhead either.
fn zero_overhead_fabric(n: usize) -> Fabric {
    let params = FabricParams {
        nic_op_overhead: SimDuration::ZERO,
        ..FabricParams::default()
    };
    quiet_fabric(n, params)
}

fn drain(fabric: &mut Fabric) -> Vec<(SimTime, NodeId, Delivery)> {
    std::iter::from_fn(|| fabric.advance()).collect()
}

#[test]
fn send_recv_timing_is_exact() {
    let mut f = zero_overhead_fabric(2);
    let (q0, q1) = f.connect(NodeId(0), NodeId(1));
    f.post_recv(q1, WrId(10), 1_250_000).unwrap();
    f.post_send(q0, WrId(20), 1_250_000, 5, None).unwrap();
    let events = drain(&mut f);
    // 1.25 MB = 10 Mb at 100 Gb/s = 100 us on the wire; +2 us to receiver,
    // +4 us round trip for the sender's ack.
    let recv = events
        .iter()
        .find(|(_, _, d)| matches!(d, Delivery::RecvDone { .. }))
        .unwrap();
    assert_eq!(recv.0.as_nanos(), 102_000);
    assert_eq!(recv.1, NodeId(1));
    let send = events
        .iter()
        .find(|(_, _, d)| matches!(d, Delivery::SendDone { .. }))
        .unwrap();
    assert_eq!(send.0.as_nanos(), 104_000);
    assert_eq!(send.1, NodeId(0));
}

#[test]
fn concurrent_qps_share_sender_nic_fairly() {
    // One sender, two receivers, simultaneous 1.25 MB sends: both complete
    // at ~200 us (half rate each) instead of 100 us.
    let mut f = zero_overhead_fabric(3);
    let (q0a, qa) = f.connect(NodeId(0), NodeId(1));
    let (q0b, qb) = f.connect(NodeId(0), NodeId(2));
    f.post_recv(qa, WrId(1), 1_250_000).unwrap();
    f.post_recv(qb, WrId(2), 1_250_000).unwrap();
    f.post_send(q0a, WrId(3), 1_250_000, 0, None).unwrap();
    f.post_send(q0b, WrId(4), 1_250_000, 0, None).unwrap();
    let events = drain(&mut f);
    let recv_times: Vec<u64> = events
        .iter()
        .filter(|(_, _, d)| matches!(d, Delivery::RecvDone { .. }))
        .map(|(t, _, _)| t.as_nanos())
        .collect();
    assert_eq!(recv_times.len(), 2);
    for t in recv_times {
        assert_eq!(t, 202_000);
    }
}

#[test]
fn relay_uses_full_duplex_bandwidth() {
    // 0 -> 1 -> 2 chain: node 1 receives and forwards concurrently, so the
    // two hops overlap almost perfectly.
    let mut f = zero_overhead_fabric(3);
    let (q01, q10) = f.connect(NodeId(0), NodeId(1));
    let (q12, q21) = f.connect(NodeId(1), NodeId(2));
    f.post_recv(q10, WrId(1), 1_250_000).unwrap();
    f.post_recv(q21, WrId(2), 1_250_000).unwrap();
    f.post_send(q01, WrId(3), 1_250_000, 0, None).unwrap();
    // Node 1 forwards as soon as its receive completes.
    let mut done_at = SimTime::ZERO;
    while let Some((t, node, d)) = f.advance() {
        match d {
            Delivery::RecvDone { .. } if node == NodeId(1) => {
                f.post_send(q12, WrId(4), 1_250_000, 0, None).unwrap();
            }
            Delivery::RecvDone { .. } if node == NodeId(2) => done_at = t,
            _ => {}
        }
    }
    // Hop 1 delivers at 102 us; hop 2 takes another 102 us.
    assert_eq!(done_at.as_nanos(), 204_000);
}

#[test]
fn rnr_retries_then_breaks_connection() {
    let params = FabricParams {
        rnr_timer: SimDuration::from_micros(100),
        rnr_retry_limit: 3,
        ..FabricParams::default()
    };
    let mut f = flat_fabric(2, 100.0, params);
    let (q0, _q1) = f.connect(NodeId(0), NodeId(1));
    // Send with no posted receive: must eventually break both endpoints.
    f.post_send(q0, WrId(1), 1000, 0, None).unwrap();
    let events = drain(&mut f);
    let broken: Vec<NodeId> = events
        .iter()
        .filter(|(_, _, d)| matches!(d, Delivery::QpBroken { .. }))
        .map(|(_, n, _)| *n)
        .collect();
    assert_eq!(broken.len(), 2);
    assert!(broken.contains(&NodeId(0)));
    assert!(broken.contains(&NodeId(1)));
    // Further posts on the broken QP are rejected.
    assert_eq!(
        f.post_send(q0, WrId(2), 10, 0, None),
        Err(VerbsError::QpBroken)
    );
}

#[test]
fn late_recv_post_rescues_rnr_wait() {
    let params = FabricParams {
        rnr_timer: SimDuration::from_micros(100),
        rnr_retry_limit: 7,
        nic_op_overhead: SimDuration::ZERO,
        ..FabricParams::default()
    };
    let mut f = quiet_fabric(2, params);
    let (q0, q1) = f.connect(NodeId(0), NodeId(1));
    f.post_send(q0, WrId(1), 1000, 0, None).unwrap();
    // Post the receive via a timer at t = 50 us, mid RNR wait.
    f.schedule_timer(NodeId(1), SimDuration::from_micros(50), 99);
    let mut recv_time = None;
    while let Some((t, node, d)) = f.advance() {
        match d {
            Delivery::Timer { token: 99 } => {
                assert_eq!(node, NodeId(1));
                f.post_recv(q1, WrId(2), 1000).unwrap();
            }
            Delivery::RecvDone { .. } => recv_time = Some(t),
            Delivery::QpBroken { .. } => panic!("connection should survive"),
            _ => {}
        }
    }
    // Transfer starts when the receive is posted (50 us), not at an RNR
    // retry boundary: wire time for 1000 B is negligible, ~2 us latency.
    let t = recv_time.expect("receive completed").as_nanos();
    assert!((52_000..60_000).contains(&t), "recv at {t}ns");
}

#[test]
fn cross_channel_send_waits_for_recv_completion() {
    // CORE-Direct: node 1's relay send is queued *before* its receive
    // completes, with a dependency on the receive; hardware fires it
    // without software involvement.
    let mut f = zero_overhead_fabric(3);
    let (q01, q10) = f.connect(NodeId(0), NodeId(1));
    let (q12, q21) = f.connect(NodeId(1), NodeId(2));
    f.post_recv(q10, WrId(1), 1_250_000).unwrap();
    f.post_recv(q21, WrId(2), 1_250_000).unwrap();
    // Pre-queue the dependent relay.
    f.post_send(
        q12,
        WrId(4),
        1_250_000,
        0,
        Some(WaitSpec {
            qp: q10,
            wr_id: WrId(1),
        }),
    )
    .unwrap();
    f.post_send(q01, WrId(3), 1_250_000, 0, None).unwrap();
    let events = drain(&mut f);
    let node2_recv = events
        .iter()
        .find(|(_, n, d)| *n == NodeId(2) && matches!(d, Delivery::RecvDone { .. }))
        .expect("node 2 got the relayed block");
    // Hop 1 hardware-completes at 102 us; relay finishes 102 us later.
    assert_eq!(node2_recv.0.as_nanos(), 204_000);
}

#[test]
fn dependent_send_posted_after_its_dependency_completed_starts_at_once() {
    // Node 1 posts no dependent send until hop 1 has completed, so that
    // completion re-kicked nothing on its behalf; the relay must start
    // from its own post-time kick, finding the dependency already met.
    let mut f = zero_overhead_fabric(3);
    let (q01, q10) = f.connect(NodeId(0), NodeId(1));
    let (q12, q21) = f.connect(NodeId(1), NodeId(2));
    f.post_recv(q10, WrId(1), 1_250_000).unwrap();
    f.post_recv(q21, WrId(2), 1_250_000).unwrap();
    f.post_send(q01, WrId(3), 1_250_000, 0, None).unwrap();
    let (t, ..) = std::iter::from_fn(|| f.advance())
        .find(|(_, n, d)| *n == NodeId(1) && matches!(d, Delivery::RecvDone { .. }))
        .expect("hop 1 arrived");
    assert_eq!(t.as_nanos(), 102_000);
    let wait = WaitSpec {
        qp: q10,
        wr_id: WrId(1),
    };
    f.post_send(q12, WrId(4), 1_250_000, 0, Some(wait)).unwrap();
    let (t, ..) = std::iter::from_fn(|| f.advance())
        .find(|(_, n, d)| *n == NodeId(2) && matches!(d, Delivery::RecvDone { .. }))
        .expect("node 2 got the relayed block");
    assert_eq!(t.as_nanos(), 204_000);
}

#[test]
fn one_completion_releases_dependents_in_connection_order() {
    // Two relays out of node 1, on different connections, wait for the
    // same receive. Its completion releases both at one instant, walking
    // node 1's connections in the order they were made (not the order of
    // the posts): the relays then share node 1's link, finish together,
    // and surface in the order they started.
    let mut f = zero_overhead_fabric(4);
    let (q01, q10) = f.connect(NodeId(0), NodeId(1));
    let (q12, q21) = f.connect(NodeId(1), NodeId(2));
    let (q13, q31) = f.connect(NodeId(1), NodeId(3));
    f.post_recv(q10, WrId(1), 1_250_000).unwrap();
    f.post_recv(q21, WrId(2), 1_250_000).unwrap();
    f.post_recv(q31, WrId(3), 1_250_000).unwrap();
    let wait = Some(WaitSpec {
        qp: q10,
        wr_id: WrId(1),
    });
    f.post_send(q13, WrId(5), 1_250_000, 0, wait).unwrap();
    f.post_send(q12, WrId(4), 1_250_000, 0, wait).unwrap();
    f.post_send(q01, WrId(6), 1_250_000, 0, None).unwrap();
    let relayed: Vec<(u64, NodeId)> = drain(&mut f)
        .into_iter()
        .filter(|(_, n, d)| *n != NodeId(1) && matches!(d, Delivery::RecvDone { .. }))
        .map(|(t, n, _)| (t.as_nanos(), n))
        .collect();
    // Released at 102 us, 200 us on the wire at half rate each, 2 us out.
    assert_eq!(relayed, [(304_000, NodeId(2)), (304_000, NodeId(3))]);
}

#[test]
fn kicks_do_not_scale_with_idle_connections() {
    // A node that never posts a dependent send has nothing a completion
    // could release, so its idle connections must cost nothing per
    // completion: the same traffic makes the same number of kick attempts
    // whether node 0 has 2 connections or 50.
    let kicks = |conns: u32| {
        let mut f = zero_overhead_fabric(51);
        let qps: Vec<_> = (1..=conns)
            .map(|i| f.connect(NodeId(0), NodeId(i)))
            .collect();
        let (q01, q10) = qps[0];
        for wr in 0..4 {
            f.post_recv(q10, WrId(wr), 1_250_000).unwrap();
            f.post_send(q01, WrId(10 + wr), 1_250_000, 0, None).unwrap();
        }
        f.post_recv(q01, WrId(20), 64).unwrap();
        f.post_send(q10, WrId(21), 64, 0, None).unwrap();
        assert_eq!(drain(&mut f).len(), 10);
        f.stats().kicks
    };
    assert_eq!(kicks(2), kicks(50));
}

/// Failure detection's virtual instants (that it comes no sooner than
/// the delay is a transport-contract row, on every backend). On hosts as
/// `Fabric::new` makes them, survivors hear of a crash within 0.3 ms of
/// one `failure_detect` after it; on zero-overhead hosts a connection
/// made to a dead node breaks exactly one `failure_detect` later.
#[test]
fn failure_detection_fires_at_its_instants() {
    let breaks = |f: &mut Fabric| -> Vec<_> {
        let events = drain(f).into_iter();
        let broken = events.filter(|(_, _, d)| matches!(d, Delivery::QpBroken { .. }));
        broken.map(|(t, node, _)| (t.as_nanos(), node)).collect()
    };
    let mut f = flat_fabric(3, 100.0, FabricParams::default());
    f.connect(NodeId(0), NodeId(1));
    f.connect(NodeId(0), NodeId(2));
    f.crash(NodeId(0));
    let detected = breaks(&mut f);
    assert_eq!(
        detected.iter().map(|b| b.1).collect::<Vec<_>>(),
        [NodeId(1), NodeId(2)]
    );
    for (t, _) in detected {
        assert!((1_000_000..1_300_000).contains(&t), "detected at {t}ns");
    }
    let mut f = zero_overhead_fabric(2);
    f.crash(NodeId(1));
    f.connect(NodeId(0), NodeId(1));
    assert_eq!(breaks(&mut f), [(1_000_000, NodeId(0))]);
}

/// A crash aborts the transfer on the wire, whichever end dies: the
/// survivor's work request neither completes nor lands, it is flushed.
/// `Fabric`-only: on TCP, bytes that reached the socket are delivered,
/// as there a `SendDone` means no more than "flushed".
#[test]
fn crash_aborts_inflight_transfer() {
    for (dead, survivor, recv) in [(0, 1, true), (1, 0, false)] {
        let mut f = flat_fabric(2, 100.0, FabricParams::default());
        let (q0, q1) = f.connect(NodeId(0), NodeId(1));
        f.post_recv(q1, WrId(1), 1 << 30).unwrap();
        // A 1 GB transfer takes ~86 ms; one end dies at 1 ms.
        f.post_send(q0, WrId(2), 1 << 30, 0, None).unwrap();
        f.schedule_timer(NodeId(survivor), SimDuration::from_millis(1), 5);
        let mut heard = Vec::new();
        while let Some((_, node, d)) = f.advance() {
            match d {
                Delivery::Timer { token: 5 } => f.crash(NodeId(dead)),
                d => heard.push((node, format!("{d:?}"))),
            }
        }
        let (qp, wr_id) = if recv { (q1, WrId(1)) } else { (q0, WrId(2)) };
        let want = [
            Delivery::WrFlushed { qp, wr_id, recv },
            Delivery::QpBroken { qp },
        ];
        assert_eq!(heard, want.map(|d| (NodeId(survivor), format!("{d:?}"))));
    }
}

#[test]
fn interrupt_mode_adds_wakeup_latency() {
    let mut f = zero_overhead_fabric(2);
    let wakeup = SimDuration::from_micros(4);
    f.set_profile(
        NodeId(1),
        HostProfile {
            post_overhead: SimDuration::ZERO,
            completion_overhead: SimDuration::ZERO,
            interrupt_wakeup: wakeup,
            ..HostProfile::default()
        },
    );
    f.set_completion_mode(NodeId(1), CompletionMode::Interrupt);
    let (q0, q1) = f.connect(NodeId(0), NodeId(1));
    f.post_recv(q1, WrId(1), 1_250_000).unwrap();
    f.post_send(q0, WrId(2), 1_250_000, 0, None).unwrap();
    let events = drain(&mut f);
    let recv = events
        .iter()
        .find(|(_, _, d)| matches!(d, Delivery::RecvDone { .. }))
        .unwrap();
    // Polling timing was 102 us; interrupts add exactly the wakeup.
    assert_eq!(recv.0.as_nanos(), 106_000);
}

#[test]
fn hybrid_mode_polls_within_window_then_sleeps() {
    let mut f = zero_overhead_fabric(2);
    let profile = HostProfile {
        post_overhead: SimDuration::ZERO,
        completion_overhead: SimDuration::ZERO,
        interrupt_wakeup: SimDuration::from_micros(4),
        poll_window: SimDuration::from_millis(1),
        ..HostProfile::default()
    };
    f.set_profile(NodeId(1), profile);
    f.set_completion_mode(NodeId(1), CompletionMode::Hybrid);
    let (q0, q1) = f.connect(NodeId(0), NodeId(1));
    for i in 0..3 {
        f.post_recv(q1, WrId(i), 2000).unwrap();
    }
    // First send at t=0 (cold: pays wakeup). Second lands within the poll
    // window (no wakeup). Third arrives 2 ms later (window expired: pays
    // wakeup again).
    f.post_send(q0, WrId(10), 1000, 0, None).unwrap();
    f.schedule_timer(NodeId(0), SimDuration::from_micros(100), 1);
    f.schedule_timer(NodeId(0), SimDuration::from_millis(3), 2);
    let mut recv_times = Vec::new();
    while let Some((t, node, d)) = f.advance() {
        match d {
            Delivery::Timer { token } => {
                assert_eq!(node, NodeId(0));
                f.post_send(q0, WrId(10 + token), 1000, 0, None).unwrap();
            }
            Delivery::RecvDone { .. } => recv_times.push(t.as_nanos()),
            _ => {}
        }
    }
    assert_eq!(recv_times.len(), 3);
    let wire = 2_000 + 80; // 2 us latency + 1000 B at 100 Gb/s
    assert_eq!(recv_times[0], wire + 4_000); // cold wakeup
    assert_eq!(recv_times[1], 100_000 + wire); // polled
    assert_eq!(recv_times[2], 3_000_000 + wire + 4_000); // expired window
    let report = f.cpu_report(NodeId(1));
    assert!(report.polling > SimDuration::from_millis(2));
}

/// Answers every choice point with the default and keeps what it saw.
#[derive(Default)]
struct FirstChoice(Vec<(u64, Vec<crate::CandidateKind>)>);

impl crate::Scheduler for FirstChoice {
    fn choose(&mut self, point: &crate::ChoicePoint<'_>) -> usize {
        let kinds = point.candidates.iter().map(|c| c.kind).collect();
        self.0.push((point.time_ns, kinds));
        0
    }
}

fn first_choice() -> std::sync::Arc<std::sync::Mutex<FirstChoice>> {
    Default::default()
}

#[test]
fn cpu_serialization_defers_deliveries() {
    let run = |scheduler: Option<crate::SharedScheduler>| {
        let mut f = zero_overhead_fabric(2);
        if let Some(s) = scheduler {
            f.set_scheduler(s);
        }
        let (q0, q1) = f.connect(NodeId(0), NodeId(1));
        f.post_recv(q1, WrId(1), 2000).unwrap();
        f.post_recv(q1, WrId(2), 2000).unwrap();
        f.post_send(q0, WrId(3), 1000, 0, None).unwrap();
        f.post_send(q0, WrId(4), 1000, 0, None).unwrap();
        let mut recv_times = Vec::new();
        let mut order = Vec::new();
        while let Some((t, node, d)) = f.advance() {
            if let Delivery::RecvDone { .. } = d {
                recv_times.push(t);
                if recv_times.len() == 1 {
                    // The handler spends 500 us of CPU: the second completion
                    // must wait for it even though it arrived earlier.
                    f.consume_cpu(node, SimDuration::from_micros(500));
                }
            }
            order.push((t, node, kind_and_wr(&d)));
        }
        assert_eq!(recv_times.len(), 2);
        assert!(recv_times[1].since(recv_times[0]) >= SimDuration::from_micros(500));
        // The deferral is one event of kind `deliver` that delivered nothing.
        let stats = f.stats();
        assert!(stats.cpu_requeues >= 1);
        assert_eq!(stats.events_by_kind.iter().sum::<u64>(), stats.events);
        assert_eq!(
            stats.events_by_kind[5],
            order.len() as u64 + stats.cpu_requeues
        );
        order
    };
    // One event loop: a scheduler that takes every default sees the same
    // deferrals and hands out the same deliveries at the same instants.
    assert_eq!(run(None), run(Some(first_choice())));
}

/// A hardware completion's variant and work request (for an arrived
/// write, its tag).
fn kind_and_wr(d: &Delivery) -> (&'static str, u64) {
    match d {
        Delivery::SendDone { wr_id, .. } => ("send", wr_id.0),
        Delivery::RecvDone { wr_id, .. } => ("recv", wr_id.0),
        Delivery::WriteDone { wr_id, .. } => ("write", wr_id.0),
        Delivery::WriteArrived { tag, .. } => ("arrived", *tag),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn tiny_bypass_and_allocator_transfers_complete_alike() {
    // 256 B completes at pure latency without touching the allocator, 257 B
    // is a flow: both go through one completion function, so each node sees
    // the same completions in the same order and only the instants differ.
    let run = |bytes: u64| {
        let mut f = zero_overhead_fabric(2);
        let (q0, q1) = f.connect(NodeId(0), NodeId(1));
        f.post_recv(q1, WrId(1), 1000).unwrap();
        f.post_send(q0, WrId(2), bytes, 9, None).unwrap();
        let payload = Bytes::from(vec![0u8; bytes as usize]);
        f.post_write(q0, WrId(3), 7, payload, None).unwrap();
        f.post_recv(q0, WrId(4), 1000).unwrap();
        f.post_send(q1, WrId(5), bytes, 9, None).unwrap();
        let events = drain(&mut f);
        assert_eq!(f.net().realloc_stats().count > 0, bytes > 256);
        let per_node = |n: u32| -> (Vec<_>, Vec<_>) {
            let mine = events.iter().filter(|(_, node, _)| *node == NodeId(n));
            mine.map(|(t, _, d)| (kind_and_wr(d), t.as_nanos())).unzip()
        };
        (per_node(0), per_node(1))
    };
    let ((tiny0, tiny0_at), (tiny1, tiny1_at)) = run(256);
    let ((flow0, flow0_at), (flow1, flow1_at)) = run(257);
    assert_eq!(tiny0, [("recv", 4), ("send", 2), ("write", 3)]);
    assert_eq!(tiny1, [("recv", 1), ("arrived", 7), ("send", 5)]);
    assert_eq!((&tiny0, &tiny1), (&flow0, &flow1));
    assert_ne!((tiny0_at, tiny1_at), (flow0_at, flow1_at));
}

/// Two timers parked far ahead — so they wait in the event queue's far
/// heap and move to the wheel before they fire — and a one-sided write
/// scheduled later for the same instant. Returns every delivery at that
/// instant, in order.
fn far_timers_tie_with_a_write(scheduler: Option<crate::SharedScheduler>) -> Vec<(u32, String)> {
    let mut f = zero_overhead_fabric(3);
    if let Some(s) = scheduler {
        f.set_scheduler(s);
    }
    let (q0, _q1) = f.connect(NodeId(0), NodeId(1));
    f.schedule_timer(NodeId(2), SimDuration::from_micros(202), 7);
    f.schedule_timer(NodeId(0), SimDuration::from_micros(202), 8);
    f.schedule_timer(NodeId(0), SimDuration::from_micros(200), 1);
    let mut tied = Vec::new();
    while let Some((t, node, d)) = f.advance() {
        match d {
            // 200 us + 2 us on the wire: the write lands on the timers.
            Delivery::Timer { token: 1 } => f
                .post_write(q0, WrId(9), 5, Bytes::from_static(b"x"), None)
                .unwrap(),
            Delivery::Timer { token } if t.as_nanos() == 202_000 => {
                tied.push((node.0, format!("timer {token}")));
            }
            Delivery::WriteArrived { tag, .. } if t.as_nanos() == 202_000 => {
                tied.push((node.0, format!("write {tag}")));
            }
            _ => {}
        }
    }
    let stats = f.stats();
    assert_eq!(stats.events_by_kind.iter().sum::<u64>(), stats.events);
    tied
}

#[test]
fn far_timer_and_same_instant_hardware_event_pop_in_schedule_order() {
    let want = vec![
        (2, "timer 7".to_string()),
        (0, "timer 8".to_string()),
        (1, "write 5".to_string()),
    ];
    assert_eq!(far_timers_tie_with_a_write(None), want);

    let sched = first_choice();
    assert_eq!(far_timers_tie_with_a_write(Some(sched.clone())), want);
    // Both parked timers were in the due set the scheduler was shown,
    // ahead of the write that the instant's hardware event produced.
    use crate::CandidateKind as K;
    assert_eq!(
        sched.lock().unwrap().0[0],
        (
            202_000,
            vec![
                K::Timer { token: 7 },
                K::Timer { token: 8 },
                K::WriteArrived { tag: 5 }
            ]
        )
    );
}

#[test]
fn jitter_delays_deliveries_deterministically() {
    let run = |seed: u64| {
        let mut f = zero_overhead_fabric(2);
        f.set_jitter(
            NodeId(1),
            JitterModel::new(
                seed,
                1.0,
                SimDuration::from_micros(50),
                SimDuration::from_micros(150),
            ),
        );
        let (q0, q1) = f.connect(NodeId(0), NodeId(1));
        f.post_recv(q1, WrId(1), 2000).unwrap();
        f.post_send(q0, WrId(2), 1000, 0, None).unwrap();
        drain(&mut f)
            .iter()
            .find(|(_, _, d)| matches!(d, Delivery::RecvDone { .. }))
            .unwrap()
            .0
            .as_nanos()
    };
    let base = 2_000 + 80;
    let a = run(9);
    assert!(a >= base + 50_000 && a <= base + 150_000, "got {a}");
    assert_eq!(a, run(9), "same seed, same schedule");
}

#[test]
fn qp_node_and_peer_accessors() {
    let mut f = zero_overhead_fabric(2);
    let (q0, q1) = f.connect(NodeId(0), NodeId(1));
    assert_eq!(f.qp_node(q0), NodeId(0));
    assert_eq!(f.qp_peer(q0), NodeId(1));
    assert_eq!(f.qp_node(q1), NodeId(1));
    assert_eq!(f.qp_peer(q1), NodeId(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulation is deterministic: identical workloads produce
    /// identical delivery timelines.
    #[test]
    fn fabric_is_deterministic(sizes in prop::collection::vec(1u64..300_000, 1..16)) {
        let run = || {
            let mut f = flat_fabric(3, 25.0, FabricParams::default());
            for i in 0..3 {
                f.set_completion_mode(NodeId(i), CompletionMode::Polling);
            }
            let (q01, q10) = f.connect(NodeId(0), NodeId(1));
            let (q02, q20) = f.connect(NodeId(0), NodeId(2));
            for (i, &s) in (0..).zip(&sizes) {
                let (qs, qr) = if i % 2 == 0 { (q01, q10) } else { (q02, q20) };
                f.post_recv(qr, WrId(i), s).unwrap();
                f.post_send(qs, WrId(i), s, 0, None).unwrap();
            }
            format!("{:?}", drain(&mut f))
        };
        prop_assert_eq!(run(), run());
    }
}
