//! Property-based tests of the simulated verbs semantics: RC ordering,
//! exactly-once completion accounting, and immediate fidelity under
//! random workloads.

use proptest::prelude::*;
use simnet::{FlowNet, HostProfile, SimDuration, Topology};
use verbs::{CompletionMode, Delivery, Fabric, FabricParams, NodeId, Transport, WrId};

fn fabric(n: usize) -> Fabric {
    let mut net = FlowNet::new();
    let topo = Topology::flat(&mut net, n, 25.0, SimDuration::from_micros(2));
    let mut f = Fabric::new(net, topo, FabricParams::default());
    for i in 0..n {
        f.set_completion_mode(NodeId(i as u32), CompletionMode::Polling);
        f.set_profile(NodeId(i as u32), HostProfile::default());
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sends (with pre-posted receives) on one connection: receives
    /// complete in posting order, immediates are faithful, every send gets
    /// exactly one completion at each side.
    #[test]
    fn rc_is_fifo_and_exactly_once(sizes in prop::collection::vec(1u64..500_000, 1..30)) {
        let mut f = fabric(2);
        let (q0, q1) = f.connect(NodeId(0), NodeId(1));
        for (i, &s) in sizes.iter().enumerate() {
            f.post_recv(q1, WrId(i as u64), s).unwrap();
            f.post_send(q0, WrId(1000 + i as u64), s, i as u64, None).unwrap();
        }
        let mut recvs = Vec::new();
        let mut send_dones = 0usize;
        while let Some((_, node, d)) = f.advance() {
            match d {
                Delivery::RecvDone { wr_id, len, imm, .. } => {
                    prop_assert_eq!(node, NodeId(1));
                    recvs.push((wr_id.0, len, imm));
                }
                Delivery::SendDone { .. } => {
                    prop_assert_eq!(node, NodeId(0));
                    send_dones += 1;
                }
                other => prop_assert!(false, "unexpected delivery {other:?}"),
            }
        }
        prop_assert_eq!(send_dones, sizes.len());
        prop_assert_eq!(recvs.len(), sizes.len());
        for (i, &(wr, len, imm)) in recvs.iter().enumerate() {
            prop_assert_eq!(wr, i as u64, "receive order violated");
            prop_assert_eq!(len, sizes[i]);
            prop_assert_eq!(imm, i as u64, "immediate corrupted");
        }
    }

    /// Interleaved traffic over random pairs: total completions balance
    /// total posts, regardless of contention patterns.
    #[test]
    fn completions_balance_posts(
        ops in prop::collection::vec((0usize..4, 0usize..4, 1u64..200_000), 1..40)
    ) {
        let mut f = fabric(4);
        let mut qps = std::collections::BTreeMap::new();
        let mut posted = 0usize;
        for (i, &(a, b, size)) in ops.iter().enumerate() {
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            let (qlo, qhi) = *qps.entry(key).or_insert_with(|| {
                f.connect(NodeId(key.0 as u32), NodeId(key.1 as u32))
            });
            let (qa, qb) = if a < b { (qlo, qhi) } else { (qhi, qlo) };
            f.post_recv(qb, WrId(i as u64), size).unwrap();
            f.post_send(qa, WrId(i as u64), size, 0, None).unwrap();
            posted += 1;
        }
        let mut recv_done = 0usize;
        let mut send_done = 0usize;
        while let Some((_, _, d)) = f.advance() {
            match d {
                Delivery::RecvDone { .. } => recv_done += 1,
                Delivery::SendDone { .. } => send_done += 1,
                _ => {}
            }
        }
        prop_assert_eq!(recv_done, posted);
        prop_assert_eq!(send_done, posted);
    }

    /// One-sided writes arrive exactly once, in order, with their payloads
    /// intact, and never consume receives.
    #[test]
    fn writes_preserve_payload_and_order(payloads in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..64), 1..20)
    ) {
        let mut f = fabric(2);
        let (q0, _q1) = f.connect(NodeId(0), NodeId(1));
        for (i, p) in payloads.iter().enumerate() {
            f.post_write(q0, WrId(i as u64), i as u64, bytes::Bytes::from(p.clone()), None)
                .unwrap();
        }
        let mut arrived = Vec::new();
        while let Some((_, node, d)) = f.advance() {
            if let Delivery::WriteArrived { tag, payload, .. } = d {
                prop_assert_eq!(node, NodeId(1));
                arrived.push((tag, payload.to_vec()));
            }
        }
        prop_assert_eq!(arrived.len(), payloads.len());
        for (i, (tag, p)) in arrived.iter().enumerate() {
            prop_assert_eq!(*tag, i as u64, "write order violated");
            prop_assert_eq!(p, &payloads[i], "payload corrupted");
        }
    }

    /// The simulation is deterministic: identical workloads produce
    /// identical delivery timelines.
    #[test]
    fn fabric_is_deterministic(sizes in prop::collection::vec(1u64..300_000, 1..16)) {
        let run = || {
            let mut f = fabric(3);
            let (q01, q10) = f.connect(NodeId(0), NodeId(1));
            let (q02, q20) = f.connect(NodeId(0), NodeId(2));
            let _ = (q10, q20);
            for (i, &s) in sizes.iter().enumerate() {
                let (qs, qr) = if i % 2 == 0 { (q01, q10) } else { (q02, q20) };
                f.post_recv(qr, WrId(i as u64), s).unwrap();
                f.post_send(qs, WrId(i as u64), s, 0, None).unwrap();
            }
            let mut log = Vec::new();
            while let Some((t, node, d)) = f.advance() {
                log.push((t.as_nanos(), node.0, format!("{d:?}")));
            }
            log
        };
        prop_assert_eq!(run(), run());
    }
}
