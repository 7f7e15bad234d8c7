//! Datacenter scale: the 1000-node sharded run and the 10k-flow churn
//! microbench, metered in kernel work counts.

use rdmc_sim::ClusterSpec;
use simnet::SimDuration;
use workloads::{stats, ShardedWorkload};

use super::MB;
use crate::row;
use crate::table::render;

/// The 1000-node sharded-workload half of the `scale` section.
pub struct ScaleShardedCell {
    /// Cluster (and workload) node count.
    pub nodes: usize,
    /// Shard groups sharing the fabric.
    pub shards: usize,
    /// Messages the open-loop schedule offered.
    pub messages: usize,
    /// Median delivery latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile delivery latency, milliseconds.
    pub p99_ms: f64,
    /// Goodput over the run, Gb/s.
    pub agg_gbps: f64,
    /// RNR arms during the run (must be zero).
    pub rnr_arms: u64,
    /// Fabric events processed.
    pub events: u64,
    /// Rate reallocations run.
    pub reallocs: u64,
    /// Reallocations per offered message.
    pub reallocs_per_arrival: f64,
    /// Links visited per reallocation (ripple-set size).
    pub link_visits_per_realloc: f64,
    /// Flow starts/removals absorbed by same-instant coalescing.
    pub coalesced: u64,
    /// Completion-heap compactions.
    pub heap_compactions: u64,
}

/// The 10k-flow churn half of the `scale` section: the same flow churn,
/// on the same kernel, over two descriptions of one fabric — the flat
/// `two_tier` (uplinks take part in the fill and couple every pod) and
/// the `fat_tree` whose aggregation tier is transparent.
pub struct ScaleChurnCell {
    /// Concurrent flows held live through the churn.
    pub flows: usize,
    /// Churn operations (each = one removal + one start).
    pub ops: usize,
    /// Ripple link-visits per kernel event, flat `two_tier`.
    pub two_tier_visits_per_event: f64,
    /// Ripple link-visits per kernel event, transparent-tier `fat_tree`.
    pub fat_tree_visits_per_event: f64,
    /// `two_tier / fat_tree` — the acceptance bar is >= 5x.
    pub visit_speedup: f64,
    /// Same-instant coalescing hits in the `fat_tree` run.
    pub fat_tree_coalesced: u64,
    /// Heap compactions in the `fat_tree` run.
    pub fat_tree_heap_compactions: u64,
}

/// The datacenter-scale section: sharded run + churn microbench.
pub struct ScaleReport {
    /// 1000-node, 100-shard open-loop run.
    pub sharded: ScaleShardedCell,
    /// 10k-flow churn microbench.
    pub churn: ScaleChurnCell,
}

impl ScaleReport {
    /// Text tables for the report output.
    pub fn text(&self) -> String {
        let s = &self.sharded;
        let mut out = String::from(
            "Datacenter scale: 1000-node fat-tree, 100-shard open-loop workload \
             (transparent aggregation tier)\n",
        );
        out.push_str(&render(
            &row![
                "nodes",
                "shards",
                "msgs",
                "p50 ms",
                "p99 ms",
                "agg Gb/s",
                "events",
                "reallocs/msg",
                "links/realloc",
                "coalesced"
            ],
            &[row![
                s.nodes,
                s.shards,
                s.messages,
                format!("{:.2}", s.p50_ms),
                format!("{:.2}", s.p99_ms),
                format!("{:.1}", s.agg_gbps),
                s.events,
                format!("{:.2}", s.reallocs_per_arrival),
                format!("{:.1}", s.link_visits_per_realloc),
                s.coalesced
            ]],
        ));
        let c = &self.churn;
        out.push_str(&format!(
            "\n10k-flow churn microbench: {} live flows, {} churn ops, one kernel, \
             two descriptions of the fabric\n",
            c.flows, c.ops
        ));
        out.push_str(&render(
            &row!["topology", "link-visits/event", "coalesced", "compactions"],
            &[
                row![
                    "flat two_tier",
                    format!("{:.1}", c.two_tier_visits_per_event),
                    "-",
                    "-"
                ],
                row![
                    "fat_tree, transparent tier",
                    format!("{:.1}", c.fat_tree_visits_per_event),
                    c.fat_tree_coalesced,
                    c.fat_tree_heap_compactions
                ],
            ],
        ));
        out.push_str(&format!(
            "ripple link-visit reduction: {:.1}x\n",
            c.visit_speedup
        ));
        out
    }
}

/// Runs the 1000-node, 100-shard `ShardedWorkload` on the fat-tree
/// datacenter profile — the kernel's 1000-node scale target — and
/// meters the kernel while it runs.
fn scale_sharded(quick: bool) -> ScaleShardedCell {
    const NODES: usize = 1000;
    const SHARDS: usize = 100;
    let messages = if quick { 150 } else { 1500 };
    let spec = ClusterSpec::datacenter(NODES);
    assert_eq!(spec.topology.nodes(), NODES);
    let workload = ShardedWorkload {
        seed: 0xDC5C,
        nodes: NODES,
        shards: SHARDS,
        replication_factor: 3,
        offered_gbps: 400.0,
        median_bytes: 1.7e6,
        mean_bytes: 2e6,
        min_bytes: 256 << 10,
        max_bytes: 6 * MB,
    };
    let memberships: Vec<Vec<usize>> = (0..SHARDS).map(|s| workload.members(s)).collect();
    let arrivals: Vec<rdmc_sim::OpenLoopArrival> = workload
        .generate(messages)
        .into_iter()
        .map(|a| rdmc_sim::OpenLoopArrival {
            at_ns: a.at_ns,
            group_index: a.shard,
            size: a.size,
        })
        .collect();
    let base = verbs::perf::snapshot();
    let outcome = rdmc_sim::run_open_loop(&spec, &memberships, &arrivals, MB / 8, None, false);
    let d = verbs::perf::snapshot().delta_since(&base);
    let latencies: Vec<f64> = outcome
        .all_latencies()
        .iter()
        .map(|l| l.as_secs_f64() * 1e3)
        .collect();
    ScaleShardedCell {
        nodes: NODES,
        shards: SHARDS,
        messages,
        p50_ms: stats::percentile(&latencies, 50.0),
        p99_ms: stats::percentile(&latencies, 99.0),
        agg_gbps: outcome.aggregate_gbps(),
        rnr_arms: outcome.rnr_arms,
        events: d.events,
        reallocs: d.realloc_count,
        reallocs_per_arrival: d.realloc_count as f64 / messages as f64,
        link_visits_per_realloc: if d.realloc_count == 0 {
            0.0
        } else {
            d.link_visits as f64 / d.realloc_count as f64
        },
        coalesced: d.coalesced,
        heap_compactions: d.heap_compactions,
    }
}

/// One churn run at the flow-network level: `conns` node pairs on a
/// 1000-host two-tier fabric, `flows_per_conn` long-lived flows per pair
/// (the multicast "many flows, same path" shape), then `ops` churn steps
/// of one removal plus one start each. `transparent_tier` builds the
/// fabric as a `fat_tree` (aggregation links transparent to the
/// allocator) instead of a flat `oversubscribed_tor` at full bisection
/// (the report's "flat two_tier" row). Returns the stats delta over the
/// churn loop.
fn churn_once(
    transparent_tier: bool,
    conns: usize,
    flows_per_conn: usize,
    ops: usize,
) -> simnet::ReallocStats {
    use simnet::SimTime;
    let (pods, per_pod) = (40usize, 25usize);
    let hosts = pods * per_pod;
    let mut net = simnet::FlowNet::new();
    let latency = SimDuration::from_micros(4);
    let topo = if transparent_tier {
        simnet::Topology::fat_tree(&mut net, pods, per_pod, 100.0, latency)
    } else {
        simnet::Topology::oversubscribed_tor(&mut net, pods, per_pod, 100.0, 2500.0, latency)
    };
    // Deterministic splitmix-style generator: no wall clock, no rand dep.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    // Disjoint cross-pod sender/receiver pairs — the sharded-multicast
    // shape: each connection carries many concurrent block transfers
    // (same path), and distinct connections share no host NIC. The only
    // thing coupling them is the aggregation tier, which is exactly what
    // the transparent marking says can never bind.
    assert!(2 * conns <= hosts, "pairs must be node-disjoint");
    let pairs: Vec<(usize, usize)> = (0..conns).map(|i| (i, hosts / 2 + i)).collect();
    // Big enough that nothing completes during the run.
    const FLOW_BYTES: f64 = 1e12;
    let mut live = Vec::with_capacity(conns * flows_per_conn);
    for &(a, b) in &pairs {
        for _ in 0..flows_per_conn {
            live.push(net.start_flow(SimTime::ZERO, &topo.path(a, b), FLOW_BYTES));
        }
    }
    net.next_completion(); // flush the setup burst before metering
    let base = net.realloc_stats();
    for op in 0..ops {
        let now = SimTime::from_nanos(1_000 * (op as u64 + 1));
        let victim = rnd(live.len());
        net.abort_flow(now, live.swap_remove(victim));
        let (a, b) = pairs[rnd(pairs.len())];
        live.push(net.start_flow(now, &topo.path(a, b), FLOW_BYTES));
        net.next_completion(); // force the deferred reallocation
    }
    let after = net.realloc_stats();
    simnet::ReallocStats {
        count: after.count - base.count,
        full: after.full - base.full,
        nanos: after.nanos - base.nanos,
        flows_visited: after.flows_visited - base.flows_visited,
        heap_pushes: after.heap_pushes - base.heap_pushes,
        rate_changes: after.rate_changes - base.rate_changes,
        link_visits: after.link_visits - base.link_visits,
        coalesced: after.coalesced - base.coalesced,
        heap_compactions: after.heap_compactions - base.heap_compactions,
    }
}

/// The 10k-flow churn microbench: identical churn on the flat `two_tier`
/// and on the transparent-tier `fat_tree`, compared on ripple link-visits
/// per kernel event (one event = one flow start or removal).
fn scale_churn(quick: bool) -> ScaleChurnCell {
    const CONNS: usize = 500;
    const FLOWS_PER_CONN: usize = 20; // 10k live flows
    let ops = if quick { 200 } else { 1_000 };
    let events = 2 * ops as u64;
    let two_tier = churn_once(false, CONNS, FLOWS_PER_CONN, ops);
    let fat_tree = churn_once(true, CONNS, FLOWS_PER_CONN, ops);
    let per_event = |d: &simnet::ReallocStats| d.link_visits as f64 / events as f64;
    ScaleChurnCell {
        flows: CONNS * FLOWS_PER_CONN,
        ops,
        two_tier_visits_per_event: per_event(&two_tier),
        fat_tree_visits_per_event: per_event(&fat_tree),
        visit_speedup: per_event(&two_tier) / per_event(&fat_tree).max(f64::MIN_POSITIVE),
        fat_tree_coalesced: fat_tree.coalesced,
        fat_tree_heap_compactions: fat_tree.heap_compactions,
    }
}

/// The datacenter-scale benchmark: the 1000-node sharded run plus the
/// 10k-flow churn microbench (the `scale` section).
pub fn scale_benchmark(quick: bool) -> ScaleReport {
    ScaleReport {
        sharded: scale_sharded(quick),
        churn: scale_churn(quick),
    }
}
