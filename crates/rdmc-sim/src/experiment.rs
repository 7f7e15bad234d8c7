//! One-line experiment harnesses over [`crate::SimCluster`], shared by
//! the test suite and the figure-regenerating benchmarks.

use std::sync::Arc;

use rdmc::schedule::SchedulePlanner;
use rdmc::Algorithm;
use simnet::{SimDuration, SimTime};
use verbs::Transport;

use crate::{ClusterBuilder, ClusterSpec, GroupSpec, PacerConfig, PacingStats, TopoSpec};

/// Outcome of a single multicast run.
#[derive(Clone, Debug)]
pub struct MulticastOutcome {
    /// Message size in bytes.
    pub size: u64,
    /// Group size including the sender.
    pub group_size: usize,
    /// Time from submit until every member's completion upcall.
    pub latency: SimDuration,
    /// `size / latency` in Gb/s (the paper's bandwidth metric, §5.1).
    pub bandwidth_gbps: f64,
}

/// The one body behind [`run_single_multicast`],
/// [`run_planned_multicast`] and [`run_traced_multicast`]: the outcome
/// plus whatever the flight recorder captured (nothing unless `traced`).
fn single_multicast(
    spec: &ClusterSpec,
    group_size: usize,
    algorithm: Algorithm,
    planner: Arc<SchedulePlanner>,
    size: u64,
    block_size: u64,
    traced: bool,
) -> (MulticastOutcome, Vec<trace::TraceEvent>) {
    assert!(
        group_size <= spec.topology.nodes(),
        "group larger than cluster"
    );
    let mut builder = ClusterBuilder::new(spec.clone());
    if traced {
        builder = builder.flight_recorder();
    }
    let mut cluster = builder.build();
    let spec = GroupSpec {
        members: (0..group_size).collect(),
        algorithm,
        block_size,
        ready_window: 3,
        max_outstanding_sends: 3,
    };
    let group = cluster.create_group_with_planner(spec, planner);
    cluster.submit_send(group, size);
    cluster.run();
    let result = &cluster.message_results()[0];
    let latency = result
        .latency()
        .expect("multicast did not complete at every member");
    let outcome = MulticastOutcome {
        size,
        group_size,
        latency,
        bandwidth_gbps: result.bandwidth_gbps().expect("nonzero latency"),
    };
    (outcome, cluster.trace_events())
}

/// Runs one multicast of `size` bytes to a fresh group of `group_size`
/// nodes on `spec`'s cluster, returning its latency/bandwidth.
///
/// # Panics
///
/// Panics if the cluster is smaller than the group or the transfer fails
/// to complete (which would be a protocol bug).
pub fn run_single_multicast(
    spec: &ClusterSpec,
    group_size: usize,
    algorithm: Algorithm,
    size: u64,
    block_size: u64,
) -> MulticastOutcome {
    let planner = Arc::new(SchedulePlanner::new(algorithm.clone()));
    run_planned_multicast(spec, group_size, algorithm, planner, size, block_size)
}

/// Like [`run_single_multicast`], but with an explicit schedule planner
/// (`algorithm` is then only a label; see
/// [`crate::SimCluster::create_group_with_planner`]) — how the
/// `baselines` crate's comparators run.
///
/// # Panics
///
/// Panics under the same conditions as [`run_single_multicast`].
pub fn run_planned_multicast(
    spec: &ClusterSpec,
    group_size: usize,
    algorithm: Algorithm,
    planner: Arc<SchedulePlanner>,
    size: u64,
    block_size: u64,
) -> MulticastOutcome {
    single_multicast(
        spec, group_size, algorithm, planner, size, block_size, false,
    )
    .0
}

/// The [`trace::stall::WireModel`] matching a cluster's calibration:
/// host NIC rate (the slowest NIC on per-node topologies), one-hop
/// latency, and the fabric's fixed per-operation overhead.
pub fn wire_model_for(spec: &ClusterSpec) -> trace::stall::WireModel {
    let (gbps, latency) = match &spec.topology {
        TopoSpec::Flat { gbps, latency, .. } => (*gbps, *latency),
        TopoSpec::FlatPerNode { gbps, latency } => {
            (gbps.iter().copied().fold(f64::INFINITY, f64::min), *latency)
        }
        TopoSpec::Tor {
            host_gbps, latency, ..
        } => (*host_gbps, *latency),
        TopoSpec::FatTree {
            host_gbps, latency, ..
        } => (*host_gbps, *latency),
        // Intra-site numbers: the stall model reasons about the fast
        // local hops; WAN crossings dwarf it and show up as genuine
        // stalls, which is the point.
        TopoSpec::MultiDatacenter {
            host_gbps,
            lan_latency,
            ..
        } => (*host_gbps, *lan_latency),
    };
    trace::stall::WireModel {
        gbps,
        latency_ns: latency.as_nanos(),
        nic_op_ns: spec.fabric.nic_op_overhead.as_nanos(),
    }
}

/// Like [`run_single_multicast`], but with a flight recorder attached
/// for the whole run. Returns the outcome, the recorded event stream,
/// and the cluster's wire model so callers can feed
/// [`trace::stall::attribute`] directly.
///
/// # Panics
///
/// Panics under the same conditions as [`run_single_multicast`].
pub fn run_traced_multicast(
    spec: &ClusterSpec,
    group_size: usize,
    algorithm: Algorithm,
    size: u64,
    block_size: u64,
) -> (
    MulticastOutcome,
    Vec<trace::TraceEvent>,
    trace::stall::WireModel,
) {
    let planner = Arc::new(SchedulePlanner::new(algorithm.clone()));
    let (outcome, events) =
        single_multicast(spec, group_size, algorithm, planner, size, block_size, true);
    (outcome, events, wire_model_for(spec))
}

/// Runs a back-to-back stream of `count` equal-size messages on one group
/// and returns the aggregate bandwidth in Gb/s (total bytes over total
/// time), plus per-message latencies.
pub fn run_stream(
    spec: &ClusterSpec,
    group_size: usize,
    algorithm: Algorithm,
    size: u64,
    block_size: u64,
    count: usize,
) -> (f64, Vec<SimDuration>) {
    let mut cluster = ClusterBuilder::new(spec.clone()).build();
    let group = cluster.create_group(GroupSpec {
        members: (0..group_size).collect(),
        algorithm,
        block_size,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    for _ in 0..count {
        cluster.submit_send(group, size);
    }
    cluster.run();
    let results = cluster.message_results();
    let latencies: Vec<SimDuration> = results
        .iter()
        .map(|r| r.latency().expect("message completed"))
        .collect();
    let total_end = cluster.last_delivery().expect("at least one delivery");
    let elapsed = total_end.since(results[0].submitted).as_secs_f64();
    let aggregate = (size as f64 * count as f64 * 8.0) / elapsed / 1e9;
    (aggregate, latencies)
}

/// One offered message of an open-loop schedule ([`run_open_loop`]):
/// `group_index` indexes the harness's membership list, not a live
/// [`crate::GroupId`].
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopArrival {
    /// Virtual-time nanosecond the application submits the message.
    pub at_ns: u64,
    /// Which group (tenant) the message belongs to.
    pub group_index: usize,
    /// Message size in bytes.
    pub size: u64,
}

/// What [`run_open_loop`] measured for one group.
#[derive(Clone, Debug)]
pub struct GroupLoadReport {
    /// Index into the membership list the harness was given.
    pub group_index: usize,
    /// Submit-to-last-delivery latency of each of the group's messages,
    /// in submission order.
    pub latencies: Vec<SimDuration>,
    /// Bytes the group's messages carried.
    pub bytes: u64,
    /// Stall split of every block send the group moved (traced runs
    /// only).
    pub stall: Option<trace::stall::GroupStall>,
}

/// Outcome of one open-loop run across all groups.
#[derive(Clone, Debug)]
pub struct OpenLoopOutcome {
    /// Per-group reports, in membership-list order.
    pub per_group: Vec<GroupLoadReport>,
    /// First submit to last delivery.
    pub span: SimDuration,
    /// Admission-layer counters, when the run was paced.
    pub pacing: Option<PacingStats>,
    /// Times the RNR retry machinery armed during the run; the
    /// ready-for-block discipline means this must be zero (§4.2).
    pub rnr_arms: u64,
}

impl OpenLoopOutcome {
    /// Every message latency across all groups (unsorted).
    pub fn all_latencies(&self) -> Vec<SimDuration> {
        self.per_group
            .iter()
            .flat_map(|g| g.latencies.iter().copied())
            .collect()
    }

    /// Goodput over the whole run: every delivered payload byte,
    /// counted once per group (not per replica), over the span.
    pub fn aggregate_gbps(&self) -> f64 {
        let bytes: u64 = self.per_group.iter().map(|g| g.bytes).sum();
        let secs = self.span.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        bytes as f64 * 8.0 / secs / 1e9
    }
}

/// Drives a multi-tenant steady state: one RDMC group per membership
/// set, fed by a pre-computed open-loop arrival schedule
/// ([`crate::SimCluster::schedule_send_at`] keeps the offered timing
/// independent of delivery progress). `pacing` bounds each NIC's
/// concurrent outbound block sends; `traced` attaches a flight recorder
/// and returns a per-group stall split.
///
/// # Panics
///
/// Panics if a membership set does not fit the cluster, an arrival
/// references a missing group, or a message never completes (open-loop
/// schedules are finite, so every message must eventually deliver).
pub fn run_open_loop(
    spec: &ClusterSpec,
    memberships: &[Vec<usize>],
    arrivals: &[OpenLoopArrival],
    block_size: u64,
    pacing: Option<PacerConfig>,
    traced: bool,
) -> OpenLoopOutcome {
    let mut builder = ClusterBuilder::new(spec.clone());
    if let Some(config) = pacing {
        builder = builder.pacing(config);
    }
    if traced {
        builder = builder.flight_recorder();
    }
    let mut cluster = builder.build();
    let recorder = cluster.recorder().clone();
    let groups: Vec<_> = memberships
        .iter()
        .map(|members| {
            assert!(
                members.iter().all(|&m| m < spec.topology.nodes()),
                "membership {members:?} does not fit the cluster"
            );
            cluster.create_group(GroupSpec {
                members: members.clone(),
                algorithm: Algorithm::BinomialPipeline,
                block_size,
                ready_window: 6,
                max_outstanding_sends: 6,
            })
        })
        .collect();
    for a in arrivals {
        cluster.schedule_send_at(groups[a.group_index], SimTime::from_nanos(a.at_ns), a.size);
    }
    cluster.run();

    let rollup =
        traced.then(|| trace::stall::rollup_by_group(&recorder.events(), &wire_model_for(spec)));
    let mut per_group: Vec<GroupLoadReport> = groups
        .iter()
        .enumerate()
        .map(|(i, &g)| GroupLoadReport {
            group_index: i,
            latencies: Vec::new(),
            bytes: 0,
            stall: rollup
                .as_ref()
                .map(|r| r.get(&(g as u32)).copied().unwrap_or_default()),
        })
        .collect();
    let mut first_submit = None;
    for r in cluster.message_results() {
        let latency = r
            .latency()
            .unwrap_or_else(|| panic!("message {}/{} never completed", r.group, r.index));
        let i = groups
            .iter()
            .position(|&g| g == r.group)
            .expect("result for a group this run created");
        per_group[i].latencies.push(latency);
        per_group[i].bytes += r.size;
        first_submit = Some(first_submit.map_or(r.submitted, |t: SimTime| t.min(r.submitted)));
    }
    let span = match (first_submit, cluster.last_delivery()) {
        (Some(a), Some(b)) => b.since(a),
        _ => SimDuration::ZERO,
    };
    OpenLoopOutcome {
        per_group,
        span,
        pacing: cluster.pacing_stats(),
        rnr_arms: cluster.transport().stats().rnr_arms,
    }
}

/// The paper's Fig. 10 pattern: `roots` groups with *identical
/// membership* (`group_size` nodes) but distinct roots, each root streaming
/// `per_sender_bytes` in `message_size` messages concurrently. Returns the
/// aggregate bandwidth in Gb/s over total bytes moved.
pub fn run_concurrent_overlapping(
    spec: &ClusterSpec,
    group_size: usize,
    roots: usize,
    algorithm: Algorithm,
    message_size: u64,
    messages_per_sender: usize,
    block_size: u64,
) -> f64 {
    assert!(roots >= 1 && roots <= group_size);
    let mut cluster = ClusterBuilder::new(spec.clone()).build();
    let mut groups = Vec::new();
    for s in 0..roots {
        // Same members, rotated so member `s` is the root.
        let members: Vec<usize> = (0..group_size).map(|i| (s + i) % group_size).collect();
        groups.push(cluster.create_group(GroupSpec {
            members,
            algorithm: algorithm.clone(),
            block_size,
            ready_window: 3,
            max_outstanding_sends: 3,
        }));
    }
    for &g in &groups {
        for _ in 0..messages_per_sender {
            cluster.submit_send(g, message_size);
        }
    }
    cluster.run();
    let results = cluster.message_results();
    let total_end = cluster.last_delivery().expect("deliveries exist");
    let start = results
        .iter()
        .map(|r| r.submitted)
        .min()
        .expect("submissions exist");
    let elapsed = total_end.since(start).as_secs_f64();
    let total_bytes = message_size as f64 * messages_per_sender as f64 * roots as f64;
    total_bytes * 8.0 / elapsed / 1e9
}
