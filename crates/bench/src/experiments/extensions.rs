//! Beyond the paper, on the paper's clusters: multi-tenant sharded
//! steady state, atomic multicast, reliability policies under WAN loss.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig};
use workloads::{stats, ShardedWorkload};

use super::MB;
use crate::parallel::par_map;
use crate::row;
use crate::table::render;

/// One measured cell of the multigroup sweep: a (topology, shard count,
/// offered load, pacing policy) combination.
pub struct MultigroupCell {
    /// `"flat"` (Fractus-like) or `"oversubscribed"` (Apt-like ToR).
    pub topology: &'static str,
    /// Number of shard groups sharing the fabric.
    pub shards: usize,
    /// Aggregate offered load across all shards, Gb/s.
    pub offered_gbps: f64,
    /// `"unpaced"` or the admission policy label.
    pub policy: String,
    /// Messages the schedule offered.
    pub messages: usize,
    /// Median delivery latency (submit to last replica), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile delivery latency, milliseconds.
    pub p99_ms: f64,
    /// Goodput over the run (payload bytes once per group), Gb/s.
    pub agg_gbps: f64,
    /// Block sends the admission layer held back at least once.
    pub deferred_sends: u64,
    /// Trace rollup: ideal wire time across all groups, milliseconds.
    pub transfer_ms: f64,
    /// Trace rollup: admission (pacer) wait, milliseconds.
    pub sender_limited_ms: f64,
    /// Trace rollup: wire occupancy beyond ideal, milliseconds.
    pub link_limited_ms: f64,
}

/// The multigroup sweep's results.
pub struct MultigroupReport {
    /// One cell per (topology, shards, load, policy) run.
    pub cells: Vec<MultigroupCell>,
}

impl MultigroupReport {
    /// Text table for the report output.
    pub fn text(&self) -> String {
        let mut out = String::from(
            "Multigroup steady state: open-loop sharded tenants, per-NIC send admission\n",
        );
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                row![
                    c.topology,
                    c.shards,
                    format!("{:.0}", c.offered_gbps),
                    c.policy,
                    format!("{:.2}", c.p50_ms),
                    format!("{:.2}", c.p99_ms),
                    format!("{:.1}", c.agg_gbps),
                    c.deferred_sends,
                    format!("{:.1}", c.sender_limited_ms),
                    format!("{:.1}", c.link_limited_ms)
                ]
            })
            .collect();
        out.push_str(&render(
            &row![
                "topology",
                "shards",
                "offered Gb/s",
                "policy",
                "p50 ms",
                "p99 ms",
                "agg Gb/s",
                "deferred",
                "sender ms",
                "link ms"
            ],
            &rows,
        ));
        out.push('\n');
        out
    }
}

/// The multi-tenant traffic engine's sweep: a Derecho-style sharded
/// deployment (overlapping 3-replica shard groups over one fabric) under
/// an open-loop arrival schedule, at several shard-count x offered-load
/// points, on the flat Fractus-like fabric and the oversubscribed
/// Apt-like fabric — each point unpaced and under every admission
/// policy. Every run is traced so the per-group stall rollup can split
/// admission wait from link contention.
pub fn multigroup_sweep(quick: bool) -> MultigroupReport {
    const NODES: usize = 16;
    let messages = if quick { 64 } else { 160 };
    // (per-shard offered capacity scale in Gb/s, load factors): per-shard
    // sustainable throughput differs by an order of magnitude between the
    // full-bisection and oversubscribed fabrics.
    let topologies: [(&'static str, ClusterSpec, f64); 2] = [
        ("flat", ClusterSpec::fractus(NODES), 24.0),
        ("oversubscribed", ClusterSpec::apt(4, 4), 7.0),
    ];
    // Shard-count x relative-load grid: light load, near saturation, and
    // past it (open loop keeps offering regardless).
    let points: [(usize, f64); 5] = [(8, 0.5), (8, 1.5), (16, 0.5), (16, 1.5), (24, 1.2)];
    let policies: [(&'static str, Option<rdmc_sim::PacerConfig>); 4] = [
        ("unpaced", None),
        (
            "fifo",
            Some(rdmc_sim::PacerConfig::new(5, rdmc_sim::PacingPolicy::Fifo)),
        ),
        (
            "smallest_first",
            Some(rdmc_sim::PacerConfig::new(
                5,
                rdmc_sim::PacingPolicy::SmallestFirst,
            )),
        ),
        (
            "round_robin",
            Some(rdmc_sim::PacerConfig::new(
                5,
                rdmc_sim::PacingPolicy::RoundRobin,
            )),
        ),
    ];

    let mut configs = Vec::new();
    for (topo, spec, cap) in &topologies {
        for &(shards, factor) in &points {
            for (policy, pacing) in &policies {
                configs.push((
                    *topo,
                    spec.clone(),
                    shards,
                    factor * *cap * shards as f64,
                    *policy,
                    *pacing,
                ));
            }
        }
    }
    let cells = par_map(&configs, |(topo, spec, shards, offered, policy, pacing)| {
        let workload = ShardedWorkload {
            seed: 0x1DE5,
            nodes: NODES,
            shards: *shards,
            replication_factor: 4,
            offered_gbps: *offered,
            median_bytes: 1.7e6,
            mean_bytes: 2e6,
            min_bytes: 256 << 10,
            max_bytes: 6 * MB,
        };
        let memberships: Vec<Vec<usize>> = (0..*shards).map(|s| workload.members(s)).collect();
        let arrivals: Vec<rdmc_sim::OpenLoopArrival> = workload
            .generate(messages)
            .into_iter()
            .map(|a| rdmc_sim::OpenLoopArrival {
                at_ns: a.at_ns,
                group_index: a.shard,
                size: a.size,
            })
            .collect();
        let outcome = rdmc_sim::run_open_loop(spec, &memberships, &arrivals, MB / 8, *pacing, true);
        let latencies: Vec<f64> = outcome
            .all_latencies()
            .iter()
            .map(|l| l.as_secs_f64() * 1e3)
            .collect();
        let stall_sum = |f: fn(&trace::stall::GroupStall) -> u64| -> f64 {
            outcome
                .per_group
                .iter()
                .filter_map(|g| g.stall.as_ref())
                .map(f)
                .sum::<u64>() as f64
                / 1e6
        };
        MultigroupCell {
            topology: topo,
            shards: *shards,
            offered_gbps: *offered,
            policy: (*policy).to_owned(),
            messages,
            p50_ms: stats::percentile(&latencies, 50.0),
            p99_ms: stats::percentile(&latencies, 99.0),
            agg_gbps: outcome.aggregate_gbps(),
            deferred_sends: outcome.pacing.map_or(0, |p| p.deferred_sends),
            transfer_ms: stall_sum(|s| s.transfer_ns),
            sender_limited_ms: stall_sum(|s| s.sender_limited_ns),
            link_limited_ms: stall_sum(|s| s.link_limited_ns),
        }
    });
    MultigroupReport { cells }
}

/// One cell of the atomic multicast sweep: the sharded serving
/// workload replayed through one ordering mode at one shard-count /
/// offered-load point.
pub struct AtomicCell {
    /// `"multi_sender"` (rotated atomic overlay) or `"single_sender"`
    /// (raw RDMC from the shard root, committed at the last member's
    /// local completion — a lower bound on any stability protocol).
    pub mode: &'static str,
    /// Number of shard groups sharing the fabric.
    pub shards: usize,
    /// Aggregate offered load across all shards, Gb/s.
    pub offered_gbps: f64,
    /// Messages the schedule offered (all commit before quiescence).
    pub messages: usize,
    /// Committed (delivered-at-every-member) operations per second over
    /// the run's makespan.
    pub committed_ops_per_s: f64,
    /// Median commit latency (arrival to the last member's upcall), ms.
    pub p50_ms: f64,
    /// 99th-percentile commit latency, milliseconds.
    pub p99_ms: f64,
}

/// The atomic sweep's results.
pub struct AtomicReport {
    /// One cell per (shards, load, mode) run.
    pub cells: Vec<AtomicCell>,
}

impl AtomicReport {
    /// Text table for the report output.
    pub fn text(&self) -> String {
        let mut out = String::from(
            "Atomic multicast: committed ops/s, rotated multi-sender vs single-sender RDMC\n",
        );
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                row![
                    c.mode,
                    c.shards,
                    format!("{:.0}", c.offered_gbps),
                    c.messages,
                    format!("{:.0}", c.committed_ops_per_s),
                    format!("{:.2}", c.p50_ms),
                    format!("{:.2}", c.p99_ms)
                ]
            })
            .collect();
        out.push_str(&render(
            &row![
                "mode",
                "shards",
                "offered Gb/s",
                "messages",
                "committed/s",
                "p50 ms",
                "p99 ms"
            ],
            &rows,
        ));
        out.push('\n');
        out
    }
}

/// Runs the sharded workload once at one point in one ordering mode and
/// measures commit latency (arrival to the last member's total-order
/// upcall) for every message.
fn atomic_point(shards: usize, offered_gbps: f64, messages: usize, multi: bool) -> AtomicCell {
    const NODES: usize = 16;
    // The small-message end of the serving story (Spindle's regime):
    // dissemination latency, not fabric bandwidth, is what bounds a
    // single sender here, which is exactly where rotating the sender
    // role multiplies the in-flight message budget.
    let workload = ShardedWorkload {
        seed: 0xA70,
        nodes: NODES,
        shards,
        replication_factor: 4,
        offered_gbps,
        median_bytes: 192e3,
        mean_bytes: 256e3,
        min_bytes: 64 << 10,
        max_bytes: MB,
    };
    let group_spec = |members: Vec<usize>| GroupSpec {
        members,
        algorithm: Algorithm::BinomialPipeline,
        block_size: 64 << 10,
        ready_window: 2,
        max_outstanding_sends: 1,
    };
    let arrivals = workload.generate(messages);
    let spec = ClusterSpec::fractus(NODES);
    // (arrival ns, commit time) per message, either mode.
    let mut commits: Vec<(u64, simnet::SimTime)> = Vec::with_capacity(arrivals.len());
    if multi {
        let mut builder = ClusterBuilder::new(spec);
        for s in 0..shards {
            builder = builder.atomic(group_spec(workload.members(s)));
        }
        let mut cluster = builder.build();
        let mut pending: Vec<(usize, rdmc_sim::MessageId, u64)> = Vec::new();
        for a in &arrivals {
            let id = cluster.schedule_atomic_send_at(
                a.shard,
                simnet::SimTime::from_nanos(a.at_ns),
                a.size,
            );
            pending.push((a.shard, id, a.at_ns));
        }
        cluster.run();
        for (s, id, at_ns) in pending {
            let commit = cluster
                .atomic_live_members(s)
                .iter()
                .map(|&m| {
                    cluster
                        .atomic_log(s, m)
                        .iter()
                        .find(|d| d.message == id)
                        .expect("every offered message commits")
                        .at
                })
                .max()
                .expect("atomic group has members");
            commits.push((at_ns, commit));
        }
    } else {
        let mut cluster = ClusterBuilder::new(spec).build();
        let groups: Vec<rdmc_sim::GroupId> = (0..shards)
            .map(|s| cluster.create_group(group_spec(workload.members(s))))
            .collect();
        let pending: Vec<(rdmc_sim::MessageId, u64)> = arrivals
            .iter()
            .map(|a| {
                let at = simnet::SimTime::from_nanos(a.at_ns);
                (
                    cluster.schedule_send_at(groups[a.shard], at, a.size),
                    a.at_ns,
                )
            })
            .collect();
        cluster.run();
        for (id, at_ns) in pending {
            // Commit = the last member's local RDMC completion: a lower
            // bound on when *any* stability protocol could release it.
            let commit = cluster
                .result(id)
                .expect("timer fired")
                .completed
                .expect("every member completes");
            commits.push((at_ns, commit));
        }
    }
    let latencies: Vec<f64> = commits
        .iter()
        .map(|&(at_ns, commit)| (commit.as_secs_f64() - at_ns as f64 / 1e9) * 1e3)
        .collect();
    let first_arrival = commits.iter().map(|&(at, _)| at).min().unwrap_or(0) as f64 / 1e9;
    let last_commit = commits
        .iter()
        .map(|&(_, c)| c)
        .max()
        .map_or(0.0, |c| c.as_secs_f64());
    AtomicCell {
        mode: if multi {
            "multi_sender"
        } else {
            "single_sender"
        },
        shards,
        offered_gbps,
        messages,
        committed_ops_per_s: commits.len() as f64 / (last_commit - first_arrival).max(1e-9),
        p50_ms: stats::percentile(&latencies, 50.0),
        p99_ms: stats::percentile(&latencies, 99.0),
    }
}

/// The atomic multicast sweep: the ShardedWorkload serving story at the
/// small-message end, each shard ordered either by the rotated
/// multi-sender overlay or by a single root sender on raw RDMC (FIFO
/// from one root is already a total order; its commit instant is the
/// last member's local completion, the lower bound on any stability
/// protocol), measured as *committed* operations per second — a message
/// counts only once every member holds it. Rotation multiplies the per-shard in-flight
/// budget by the member count, which is what keeps the committed rate
/// at the offered rate when a lone sender's dissemination latency
/// cannot.
pub fn atomic_sweep(quick: bool) -> AtomicReport {
    let messages = if quick { 48 } else { 120 };
    // Per-shard offered capacity scale (Gb/s) x load factors: light,
    // and past what one sender can serialize.
    let points: [(usize, f64); 3] = [(8, 0.5), (8, 1.5), (16, 1.2)];
    let mut configs = Vec::new();
    for &(shards, factor) in &points {
        for &multi in &[true, false] {
            configs.push((shards, factor * 16.0 * shards as f64, multi));
        }
    }
    let cells = par_map(&configs, |(shards, offered, multi)| {
        atomic_point(*shards, *offered, messages, *multi)
    });
    AtomicReport { cells }
}

/// One cell of the lossy-WAN reliability sweep: one policy at one
/// per-WAN-link loss rate, aggregated over independent seeded runs.
pub struct ReliabilityCell {
    /// Reliability policy label.
    pub policy: &'static str,
    /// Per-WAN-link loss probability, percent.
    pub loss_pct: f64,
    /// Independent single-message runs at this point.
    pub messages: usize,
    /// Runs whose message reached every surviving rank.
    pub completed: usize,
    /// Median delivery latency (submit to last survivor), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile delivery latency, milliseconds.
    pub p99_ms: f64,
    /// NACK control writes sent across all runs.
    pub nacks: u64,
    /// Retransmitted blocks delivered across all runs.
    pub retransmissions: u64,
    /// Blocks reconstructed from erasure parity across all runs.
    pub parity_repairs: u64,
    /// Connections escalated to epoch recovery across all runs.
    pub escalations: u64,
}

/// The reliability sweep's results.
pub struct ReliabilityReport {
    /// One cell per (policy, loss rate) point.
    pub cells: Vec<ReliabilityCell>,
}

impl ReliabilityReport {
    /// Text table for the report output.
    pub fn text(&self) -> String {
        let mut out = String::from(
            "Reliability under WAN loss: geo 2-site cluster (50 ms WAN), 8 MB messages,\n\
             per-group reliability policy vs per-WAN-link loss rate\n",
        );
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                row![
                    c.policy,
                    format!("{:.1}%", c.loss_pct),
                    format!("{}/{}", c.completed, c.messages),
                    format!("{:.1}", c.p50_ms),
                    format!("{:.1}", c.p99_ms),
                    c.nacks,
                    c.retransmissions,
                    c.parity_repairs,
                    c.escalations
                ]
            })
            .collect();
        out.push_str(&render(
            &row![
                "policy",
                "loss",
                "completed",
                "p50 ms",
                "p99 ms",
                "nacks",
                "retrans",
                "parity fix",
                "escalations"
            ],
            &rows,
        ));
        out.push('\n');
        out
    }
}

/// One point of the reliability sweep: `messages` independent seeded
/// runs of an 8 MB multicast on the geo 2-site cluster, with `loss_pct`
/// per-WAN-link loss and the group protected by `policy`.
fn reliability_point(
    policy_label: &'static str,
    policy: rdmc_sim::ReliabilityPolicy,
    loss_pct: f64,
    messages: usize,
) -> ReliabilityCell {
    use simnet::{FaultProfile, LinkFault};
    let mut latencies = Vec::new();
    let mut completed = 0usize;
    let mut nacks = 0u64;
    let mut retransmissions = 0u64;
    let mut parity_repairs = 0u64;
    let mut escalations = 0u64;
    for run in 0..messages {
        let fabric = ClusterSpec::geo(4).build();
        // At 0% the profile is clean, which the fabric treats as none.
        let mut profile = FaultProfile::new(0xC0F_FEE ^ run as u64);
        for link in fabric.topology().wan_links() {
            profile.set_link(link, LinkFault::lossy(loss_pct / 100.0));
        }
        let mut cluster = ClusterBuilder::from_transport(fabric)
            .fault_profile(profile)
            .recovery(RecoveryConfig::default())
            .reliability(policy)
            .build();
        let group = cluster.create_group(GroupSpec {
            members: (0..4).collect(),
            algorithm: Algorithm::BinomialPipeline,
            block_size: MB,
            ready_window: 4,
            max_outstanding_sends: 2,
        });
        cluster.submit_send(group, 8 * MB);
        cluster.run();
        let survivors = cluster.surviving_ranks(group);
        let r = &cluster.message_results()[0];
        // Without an eviction the survivors are every member, so a
        // completed record's last stamp is theirs.
        let done_at = r.unfinished_stamps().map_or(r.completed, |at| {
            let ts: Option<Vec<_>> = survivors.iter().map(|&o| at[o as usize]).collect();
            ts?.into_iter().max()
        });
        if let Some(last) = done_at {
            completed += 1;
            latencies.push(last.since(r.submitted).as_secs_f64() * 1e3);
        }
        let s = cluster.reliability_stats();
        nacks += s.nacks_sent;
        retransmissions += s.repairs_received;
        parity_repairs += s.parity_repairs;
        escalations += s.escalations;
    }
    ReliabilityCell {
        policy: policy_label,
        loss_pct,
        messages,
        completed,
        p50_ms: stats::percentile(&latencies, 50.0),
        p99_ms: stats::percentile(&latencies, 99.0),
        nacks,
        retransmissions,
        parity_repairs,
        escalations,
    }
}

/// The lossy-WAN reliability sweep: every policy at every loss rate on
/// the geo 2-site cluster. The headline is the SDR-RDMA story —
/// selective-ack pays a 100 ms WAN round trip per lost block, so its
/// tail latency climbs with the loss rate, while erasure parity repairs
/// losses from data already on the wire and holds p99 nearly flat
/// through 1% loss; wedge/resume escalates every loss to epoch
/// recovery, the right trade only when losses mean a failing peer.
pub fn reliability_sweep(quick: bool) -> ReliabilityReport {
    let messages = if quick { 6 } else { 16 };
    let policies: [(&'static str, rdmc_sim::ReliabilityPolicy); 3] = [
        ("selective-ack", rdmc_sim::ReliabilityPolicy::SelectiveAck),
        ("erasure-2+1", rdmc_sim::ReliabilityPolicy::erasure(2, 1)),
        ("wedge-resume", rdmc_sim::ReliabilityPolicy::WedgeResume),
    ];
    let rates = [0.0, 0.1, 1.0, 5.0];
    let mut configs = Vec::new();
    for (label, policy) in &policies {
        for &pct in &rates {
            configs.push((*label, *policy, pct));
        }
    }
    let cells = par_map(&configs, |(label, policy, pct)| {
        reliability_point(label, *policy, *pct, messages)
    });
    ReliabilityReport { cells }
}
