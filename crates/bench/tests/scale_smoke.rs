//! Smoke regression pinning the datacenter-scale configuration: the
//! 1000-node, 100-shard `ShardedWorkload` on the fat-tree profile must
//! complete cleanly (every message delivered, zero RNR arms), the
//! trace-derived stall attribution must stay airtight (gap <= 1% of
//! end-to-end per group), and the 10k-flow churn microbench must keep
//! the >= 5x ripple link-visit reduction the kernel redesign claims.

use rdmc::Algorithm;
use rdmc_bench::experiments as e;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};
use simnet::SimTime;
use verbs::Transport;
use workloads::ShardedWorkload;

/// The quick-mode scale benchmark is the regression surface: it must
/// run to completion with a clean fabric and hold the kernel's
/// headline reduction.
#[test]
fn quick_scale_benchmark_completes_with_clean_counters() {
    let report = e::scale_benchmark(true);
    let s = &report.sharded;
    assert_eq!(s.nodes, 1000);
    assert_eq!(s.shards, 100);
    assert_eq!(s.rnr_arms, 0, "RNR retry armed during the scale run");
    assert!(s.agg_gbps > 0.0, "no goodput recorded");
    assert!(s.p99_ms >= s.p50_ms);
    assert!(s.reallocs > 0, "kernel did no allocation work");
    let c = &report.churn;
    assert_eq!(c.flows, 10_000);
    assert!(
        c.visit_speedup >= 5.0,
        "ripple link-visit reduction {:.1}x fell below the 5x bar \
         (legacy {:.1}/event vs hierarchy-aware {:.1}/event)",
        c.visit_speedup,
        c.two_tier_visits_per_event,
        c.fat_tree_visits_per_event,
    );
}

/// A bounded traced run of the same configuration: every group's stall
/// attribution must account for its end-to-end latency within 1%.
#[test]
fn scale_run_stall_attribution_is_airtight() {
    const NODES: usize = 1000;
    const SHARDS: usize = 100;
    const MESSAGES: usize = 60;
    let spec = ClusterSpec::datacenter(NODES);
    let workload = ShardedWorkload {
        seed: 0xDC5C,
        nodes: NODES,
        shards: SHARDS,
        replication_factor: 3,
        offered_gbps: 400.0,
        median_bytes: 1.7e6,
        mean_bytes: 2e6,
        min_bytes: 256 << 10,
        max_bytes: 6 << 20,
    };
    let memberships: Vec<Vec<usize>> = (0..SHARDS).map(|s| workload.members(s)).collect();
    let arrivals: Vec<rdmc_sim::OpenLoopArrival> = workload
        .generate(MESSAGES)
        .into_iter()
        .map(|a| rdmc_sim::OpenLoopArrival {
            at_ns: a.at_ns,
            group_index: a.shard,
            size: a.size,
        })
        .collect();
    let mut cluster = ClusterBuilder::new(spec.clone()).flight_recorder().build();
    let recorder = cluster.recorder().clone();
    let groups: Vec<_> = memberships
        .iter()
        .map(|members| {
            cluster.create_group(GroupSpec {
                members: members.clone(),
                algorithm: Algorithm::BinomialPipeline,
                block_size: 1 << 17,
                ready_window: 6,
                max_outstanding_sends: 6,
            })
        })
        .collect();
    for a in &arrivals {
        cluster.schedule_send_at(groups[a.group_index], SimTime::from_nanos(a.at_ns), a.size);
    }
    cluster.run();
    assert_eq!(
        cluster.transport().stats().rnr_arms,
        0,
        "RNR retry armed during the scale run"
    );
    let results = cluster.message_results();
    assert_eq!(results.len(), MESSAGES);
    for r in &results {
        assert!(
            r.latency().is_some(),
            "message {}/{} never completed",
            r.group,
            r.index
        );
    }
    // Every group that moved a message must have an airtight stall
    // attribution: the five classes sum to its end-to-end within 1%.
    let events = recorder.events();
    let wire = rdmc_sim::wire_model_for(&spec);
    let mut attributed_groups = 0;
    for &g in &groups {
        let Some(b) = trace::stall::attribute(&events, g as u32, &wire) else {
            continue;
        };
        let gap = b.attributed_ns().abs_diff(b.end_to_end_ns);
        assert!(
            gap as f64 <= 0.01 * b.end_to_end_ns as f64,
            "group {g}: attribution gap {gap}ns exceeds 1% of {}ns",
            b.end_to_end_ns
        );
        attributed_groups += 1;
    }
    assert!(
        attributed_groups > 0,
        "no group produced a stall attribution"
    );
}
