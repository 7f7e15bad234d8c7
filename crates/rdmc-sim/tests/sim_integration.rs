//! Full-stack tests: protocol engines over the simulated RDMA fabric,
//! chiefly what only the simulator measures (bandwidth, latency, link
//! bytes, topology). Delivery, wedging and close claims that hold on any
//! transport are rows of the root transport matrix
//! (`tests/transport_equivalence.rs`), run on every backend.

use rdmc::Algorithm;
use rdmc_sim::{
    run_concurrent_overlapping, run_single_multicast, run_stream, ClusterBuilder, ClusterSpec,
    GroupSpec,
};
use simnet::{JitterModel, SimDuration, SimTime};
use trace::EventKind;

const MB: u64 = 1 << 20;

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Sequential,
        Algorithm::Chain,
        Algorithm::BinomialTree,
        Algorithm::BinomialPipeline,
    ]
}

#[test]
fn every_algorithm_completes_on_fractus() {
    let spec = ClusterSpec::fractus(8);
    for alg in algorithms() {
        for group in [2usize, 3, 5, 8] {
            let out = run_single_multicast(&spec, group, alg.clone(), 4 * MB, MB);
            assert!(
                out.latency > SimDuration::ZERO,
                "{alg} n={group}: zero latency"
            );
            assert!(
                out.bandwidth_gbps > 0.5 && out.bandwidth_gbps < 100.0,
                "{alg} n={group}: implausible bandwidth {}",
                out.bandwidth_gbps
            );
        }
    }
}

#[test]
fn binomial_pipeline_beats_sequential_at_scale() {
    let spec = ClusterSpec::fractus(16);
    let seq = run_single_multicast(&spec, 16, Algorithm::Sequential, 64 * MB, MB);
    let pipe = run_single_multicast(&spec, 16, Algorithm::BinomialPipeline, 64 * MB, MB);
    // 15 sequential copies vs log2(16)+k-1 pipeline steps: the paper's
    // headline gap. Expect well over 5x here.
    assert!(
        pipe.latency.as_secs_f64() * 5.0 < seq.latency.as_secs_f64(),
        "pipeline {} vs sequential {}",
        pipe.latency,
        seq.latency
    );
}

#[test]
fn binomial_pipeline_matches_chain_for_deep_pipelines_small_groups() {
    // Fig. 4a: for 256 MB transfers chain and binomial pipeline are very
    // close at moderate group sizes.
    let spec = ClusterSpec::fractus(8);
    let chain = run_single_multicast(&spec, 8, Algorithm::Chain, 64 * MB, MB);
    let pipe = run_single_multicast(&spec, 8, Algorithm::BinomialPipeline, 64 * MB, MB);
    let ratio = chain.latency.as_secs_f64() / pipe.latency.as_secs_f64();
    assert!(
        (0.8..=1.3).contains(&ratio),
        "chain/pipeline latency ratio {ratio}"
    );
}

#[test]
fn replication_is_almost_free_at_scale() {
    // Fig. 8's punchline: 128 receivers cost barely more than 16.
    let spec = ClusterSpec::sierra(128);
    let small = run_single_multicast(&spec, 16, Algorithm::BinomialPipeline, 32 * MB, MB);
    let large = run_single_multicast(&spec, 128, Algorithm::BinomialPipeline, 32 * MB, MB);
    let ratio = large.latency.as_secs_f64() / small.latency.as_secs_f64();
    assert!(
        ratio < 1.5,
        "scaling 16 -> 128 nodes should cost <50% extra, got {ratio}"
    );
}

#[test]
fn streams_pipeline_back_to_back_messages() {
    let spec = ClusterSpec::fractus(4);
    let (aggregate, latencies) = run_stream(&spec, 4, Algorithm::BinomialPipeline, 16 * MB, MB, 8);
    assert_eq!(latencies.len(), 8);
    // Aggregate bandwidth should approach a decent fraction of line rate.
    assert!(aggregate > 30.0, "aggregate {aggregate} Gb/s");
}

#[test]
fn one_byte_messages_are_overhead_bound_not_bandwidth_bound() {
    // Fig. 7's metric: 1-byte messages per second. All messages are
    // submitted up front, so per-message latency is cumulative queueing;
    // the meaningful number is the sustained rate.
    let spec = ClusterSpec::fractus(4);
    let mut cluster = ClusterBuilder::new(spec.clone()).build();
    let group = cluster.create_group(GroupSpec {
        members: (0..4).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    let count = 200usize;
    for _ in 0..count {
        cluster.submit_send(group, 1);
    }
    cluster.run();
    let results = cluster.message_results();
    assert_eq!(results.len(), count);
    let end = cluster.last_delivery().unwrap();
    let rate = count as f64 / end.as_secs_f64();
    assert!(
        rate > 5_000.0,
        "1-byte message rate implausibly low: {rate}/s"
    );
    assert_eq!(cluster.check_run(), Ok(()));
}

#[test]
fn overlapping_groups_share_the_fabric_fairly() {
    let spec = ClusterSpec::fractus(8);
    // All-send pattern: 8 fully-overlapping groups, every member a root.
    let all = run_concurrent_overlapping(&spec, 8, 8, Algorithm::BinomialPipeline, 16 * MB, 2, MB);
    let one = run_concurrent_overlapping(&spec, 8, 1, Algorithm::BinomialPipeline, 16 * MB, 2, MB);
    // Concurrent senders extract more aggregate bandwidth than one sender.
    assert!(
        all > one,
        "all-senders {all} Gb/s should beat one-sender {one} Gb/s"
    );
    // And the aggregate cannot exceed bisection (8 nodes x 100 Gb/s rx).
    assert!(all < 800.0);
}

#[test]
fn oversubscribed_tor_caps_cross_rack_bandwidth() {
    // Apt-like: 2 racks x 4 hosts, 56 Gb/s NICs, but a TOR uplink of only
    // 16 Gb/s per rack. A cross-rack-heavy multicast is pinned well below
    // NIC line rate.
    let apt = ClusterSpec {
        topology: rdmc_sim::TopoSpec::Tor {
            racks: 2,
            per_rack: 4,
            host_gbps: 56.0,
            uplink_gbps: 16.0,
            latency: SimDuration::from_micros(3),
        },
        ..ClusterSpec::apt(2, 4)
    };
    let out = run_single_multicast(&apt, 8, Algorithm::BinomialPipeline, 64 * MB, MB);
    assert!(
        out.bandwidth_gbps < 35.0,
        "TOR should throttle: got {} Gb/s",
        out.bandwidth_gbps
    );
    // The same group entirely within one rack runs at NIC speeds.
    let mut cluster = ClusterBuilder::new(apt.clone()).build();
    let group = cluster.create_group(GroupSpec {
        members: vec![0, 1, 2, 3],
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, 64 * MB);
    cluster.run();
    let intra = cluster.message_results()[0].bandwidth_gbps().unwrap();
    assert!(
        intra > out.bandwidth_gbps * 1.5,
        "intra-rack {intra} vs cross-rack {}",
        out.bandwidth_gbps
    );
}

#[test]
fn hybrid_schedule_beats_random_embedding_on_tor() {
    // §4.3: on a *severely* oversubscribed TOR, the rack-aware hybrid
    // crosses the uplink once per block per rack and outperforms the plain
    // binomial pipeline whose hypercube ignores rack boundaries (a third
    // of its steps put four concurrent flows on the scarce uplink).
    let scarce = ClusterSpec {
        topology: rdmc_sim::TopoSpec::Tor {
            racks: 2,
            per_rack: 4,
            host_gbps: 56.0,
            uplink_gbps: 8.0,
            latency: SimDuration::from_micros(3),
        },
        ..ClusterSpec::apt(2, 4)
    };
    let plain = run_single_multicast(&scarce, 8, Algorithm::BinomialPipeline, 64 * MB, MB);
    let hybrid = run_single_multicast(
        &scarce,
        8,
        Algorithm::Hybrid {
            rack_of: vec![0, 0, 0, 0, 1, 1, 1, 1],
        },
        64 * MB,
        MB,
    );
    assert!(
        hybrid.bandwidth_gbps > plain.bandwidth_gbps,
        "hybrid {} Gb/s should beat plain {} Gb/s",
        hybrid.bandwidth_gbps,
        plain.bandwidth_gbps
    );
}

#[test]
fn scheduling_jitter_degrades_gracefully() {
    // §4.5: slack absorbs delays; heavy jitter on one relayer should not
    // collapse throughput.
    let spec = ClusterSpec::fractus(8);
    let clean = run_single_multicast(&spec, 8, Algorithm::BinomialPipeline, 64 * MB, MB);

    // 100 us preemption on 5% of node 3's software actions.
    let mut cluster = ClusterBuilder::new(spec.clone())
        .jitter(
            3,
            JitterModel::new(
                1234,
                0.05,
                SimDuration::from_micros(100),
                SimDuration::from_micros(100),
            ),
        )
        .build();
    let group = cluster.create_group(GroupSpec {
        members: (0..8).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, 64 * MB);
    cluster.run();
    let jittered = cluster.message_results()[0].latency().unwrap();
    let slowdown = jittered.as_secs_f64() / clean.latency.as_secs_f64();
    assert!(
        slowdown < 1.4,
        "jitter slowdown should be modest, got {slowdown}x"
    );
}

#[test]
fn slow_nic_costs_less_than_chain_would_suffer() {
    // §4.5 item 2: a single half-speed NIC is crossed on only 1/l of the
    // steps; effective bandwidth stays above the slow-link floor.
    use rdmc_sim::TopoSpec;
    let mk = |gbps: Vec<f64>| ClusterSpec {
        topology: TopoSpec::FlatPerNode {
            gbps,
            latency: SimDuration::from_micros(2),
        },
        ..ClusterSpec::fractus(0)
    };
    let uniform = mk(vec![100.0; 8]);
    let slow_one = mk({
        let mut v = vec![100.0; 8];
        v[4] = 50.0;
        v
    });
    let base = run_single_multicast(&uniform, 8, Algorithm::BinomialPipeline, 64 * MB, MB);
    let slow = run_single_multicast(&slow_one, 8, Algorithm::BinomialPipeline, 64 * MB, MB);
    let fraction = slow.bandwidth_gbps / base.bandwidth_gbps;
    // Chain would be pinned at ~0.5; the pipeline holds well above that.
    assert!(
        fraction > 0.55,
        "pipeline kept only {fraction} of bandwidth"
    );
    // Chain for contrast: every block crosses the slow node.
    let chain_base = run_single_multicast(&uniform, 8, Algorithm::Chain, 64 * MB, MB);
    let chain_slow = run_single_multicast(&slow_one, 8, Algorithm::Chain, 64 * MB, MB);
    let chain_fraction = chain_slow.bandwidth_gbps / chain_base.bandwidth_gbps;
    assert!(
        fraction > chain_fraction,
        "pipeline ({fraction}) should tolerate the slow NIC better than chain ({chain_fraction})"
    );
}

#[test]
fn tracing_captures_the_protocol_conversation() {
    let spec = ClusterSpec::stampede(4);
    let mut cluster = ClusterBuilder::new(spec.clone()).flight_recorder().build();
    let group = cluster.create_group(GroupSpec {
        members: (0..4).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, 8 * MB);
    cluster.run();
    let events = cluster.trace_events();
    let of_rank = |rank: u32| {
        events
            .iter()
            .filter(move |e| e.scope.group == Some(group as u32) && e.scope.rank == Some(rank))
            .map(|e| &e.kind)
    };
    // Every receiver allocated a buffer, received blocks, delivered.
    for rank in 1..4 {
        assert!(of_rank(rank).any(|k| matches!(k, EventKind::BufferRequested { .. })));
        assert!(of_rank(rank).any(|k| matches!(k, EventKind::Delivered { .. })));
        let arrivals = of_rank(rank)
            .filter(|k| matches!(k, EventKind::BlockArrived { .. }))
            .count();
        assert_eq!(arrivals, 8, "rank {rank} should receive 8 blocks");
    }
    // The root posted sends and heard readiness.
    assert!(of_rank(0).any(|k| matches!(k, EventKind::BlockSendIssued { .. })));
    assert!(of_rank(0).any(|k| matches!(k, EventKind::ReadyHeard { .. })));
}

#[test]
fn bandwidth_peaks_at_intermediate_block_size() {
    // Fig. 6: too-small blocks are overhead-bound, too-large blocks lose
    // pipelining; the curve peaks in between.
    let spec = ClusterSpec::fractus(4);
    let msg = 64 * MB;
    let bw = |block: u64| {
        run_single_multicast(&spec, 4, Algorithm::BinomialPipeline, msg, block).bandwidth_gbps
    };
    let tiny = bw(16 * 1024);
    let mid = bw(MB);
    let huge = bw(64 * MB); // one giant block: no pipelining at all
    assert!(mid > tiny, "mid {mid} should beat tiny-block {tiny}");
    assert!(mid > huge, "mid {mid} should beat single-block {huge}");
}

#[test]
fn binomial_pipeline_moves_no_redundant_bytes() {
    // Fig. 9's efficiency claim: "no redundant data transfers occur on
    // any network link." Each receiver's downlink carries exactly one
    // copy of the message (plus sub-percent control traffic), and the
    // senders' uplinks carry exactly (n-1) copies in total.
    let spec = ClusterSpec::fractus(8);
    let mut cluster = ClusterBuilder::new(spec.clone()).build();
    let group = cluster.create_group(GroupSpec {
        members: (0..8).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    let size = 32 * MB;
    cluster.submit_send(group, size);
    cluster.run();
    let net = cluster.transport().net();
    let topo = cluster.transport().topology();
    let mut total_tx = 0.0;
    for node in 0..8 {
        let rx = net.bytes_carried(topo.rx_link(node));
        total_tx += net.bytes_carried(topo.tx_link(node));
        if node == 0 {
            assert!(rx < size as f64 * 0.01, "the root must receive ~nothing");
        } else {
            assert!(
                (rx - size as f64).abs() < size as f64 * 0.01,
                "node {node} downlink carried {rx} bytes for a {size}-byte message"
            );
        }
    }
    let minimal = (7 * size) as f64;
    assert!(
        (total_tx - minimal).abs() < minimal * 0.01,
        "uplinks carried {total_tx} vs minimal {minimal}"
    );
}

#[test]
fn sequential_send_overloads_the_root_nic() {
    // §4.3: sequential send puts N*B bytes on the sender's NIC while
    // every receiver only downloads B — the hot spot the schedules fix.
    let spec = ClusterSpec::fractus(6);
    let mut cluster = ClusterBuilder::new(spec.clone()).build();
    let group = cluster.create_group(GroupSpec {
        members: (0..6).collect(),
        algorithm: Algorithm::Sequential,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    let size = 16 * MB;
    cluster.submit_send(group, size);
    cluster.run();
    let net = cluster.transport().net();
    let topo = cluster.transport().topology();
    let root_tx = net.bytes_carried(topo.tx_link(0));
    assert!(
        (root_tx - (5 * size) as f64).abs() < size as f64 * 0.05,
        "sequential root should emit 5 copies, emitted {root_tx}"
    );
    for node in 1..6 {
        let tx = net.bytes_carried(topo.tx_link(node));
        assert!(
            tx < size as f64 * 0.01,
            "sequential receivers relay nothing, node {node} sent {tx}"
        );
    }
}

#[test]
fn message_result_accessors_are_consistent() {
    let spec = ClusterSpec::fractus(3);
    let mut cluster = ClusterBuilder::new(spec.clone()).build();
    let group = cluster.create_group(GroupSpec {
        members: vec![0, 1, 2],
        algorithm: Algorithm::Chain,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, 10 * MB);
    cluster.run();
    let r = &cluster.message_results()[0];
    assert_eq!(r.group, group);
    assert_eq!(r.index, 0);
    assert_eq!(r.size, 10 * MB);
    assert!((0..3).all(|o| r.delivered(o)));
    assert_eq!(
        r.unfinished_stamps(),
        None,
        "a completed record keeps no stamps"
    );
    let lat = r.latency().unwrap();
    assert_eq!(r.completed, Some(r.submitted + lat));
    let bw = r.bandwidth_gbps().unwrap();
    let expected_bw = 10.0 * MB as f64 * 8.0 / lat.as_secs_f64() / 1e9;
    assert!((bw - expected_bw).abs() < 1e-9);
}

#[test]
fn traces_are_empty_unless_enabled() {
    let spec = ClusterSpec::fractus(3);
    let mut cluster = ClusterBuilder::new(spec.clone()).build();
    let group = cluster.create_group(GroupSpec {
        members: vec![0, 1, 2],
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, MB);
    cluster.run();
    assert!(cluster.trace_events().is_empty());
}

/// Sends `messages` 4 KiB messages in windows of 9 on a recorded
/// recovery group of `n` members (nodes `0..n`); `crash: (node, w)`
/// crashes `node` 200 steps into window `w`.
fn windowed(n: usize, messages: usize, crash: Option<(usize, usize)>) -> rdmc_sim::SimCluster {
    const KB4: u64 = 4 << 10;
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(n))
        .recovery(rdmc_sim::RecoveryConfig::default())
        .flight_recorder()
        .build();
    let group = cluster.create_group(GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: KB4,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    for w in 0..messages.div_ceil(9) {
        for _ in 0..(messages - w * 9).min(9) {
            cluster.submit_send(group, KB4);
        }
        if let Some((victim, _)) = crash.filter(|&(_, at)| at == w) {
            for _ in 0..200 {
                assert!(cluster.step(), "window {w} is under way");
            }
            cluster.crash_now(victim);
        }
        cluster.run();
    }
    assert_eq!(cluster.check_run(), Ok(()));
    cluster
}

/// Holds every record of group 0 (members `0..n` on nodes `0..n`) to the
/// flight recorder: `delivered(o)` is exactly "the recorder saw node `o`
/// deliver it", an unfinished record's stamps are the recorded times,
/// and a completed one's `latency()` ends at the last recorded delivery.
/// Returns how many records are unfinished.
fn ledger_matches_recorder(cluster: &rdmc_sim::SimCluster, n: usize) -> usize {
    let results = cluster.message_results();
    let replayed = trace::replay::replay(&cluster.recorder().events());
    let mut times = vec![vec![None; n]; results.len()];
    for (o, at) in (0..n).map(|o| (o, &replayed.delivered[&(0, o as u32)])) {
        let mine: Vec<_> = results.iter().filter(|r| r.delivered(o)).collect();
        assert_eq!(at.len(), mine.len(), "member {o}: delivered bits");
        for (&(t, size), r) in at.iter().zip(mine) {
            assert_eq!(size, r.size, "member {o} message {}", r.index);
            times[r.index][o] = Some(SimTime::from_nanos(t));
        }
    }
    let mut unfinished = 0;
    for (r, times) in results.iter().zip(&times) {
        match r.unfinished_stamps() {
            Some(stamps) => {
                unfinished += 1;
                assert_eq!(stamps, &times[..], "message {}: stamps", r.index);
                assert_eq!(r.completed, None, "message {}", r.index);
            }
            None => {
                let last = times.iter().copied().collect::<Option<Vec<_>>>();
                let last = last.and_then(|t| t.into_iter().max());
                let want = last.map(|t| t.since(r.submitted));
                assert_eq!(r.latency(), want, "message {}: latency", r.index);
            }
        }
    }
    unfinished
}

/// A finished message costs a fixed record: on a 32-member group that
/// never loses a member, every record drops its per-member stamps, and
/// what it keeps agrees with the flight recorder.
#[test]
fn a_completed_record_holds_nothing_per_member() {
    assert!(std::mem::size_of::<rdmc_sim::MessageResult>() <= 80);
    let cluster = windowed(32, 4_000, None);
    assert_eq!(cluster.message_results().len(), 4_000);
    assert_eq!(ledger_matches_recorder(&cluster, 32), 0);
}

/// With a member crashed mid-run, the messages it never delivered stay
/// unfinished and keep their stamps, which the recorder confirms.
#[test]
fn an_unfinished_record_keeps_stamps_the_recorder_confirms() {
    let cluster = windowed(8, 360, Some((5, 20)));
    assert_eq!(cluster.surviving_ranks(0), [0, 1, 2, 3, 4, 6, 7]);
    assert!(ledger_matches_recorder(&cluster, 8) > 0);
}
