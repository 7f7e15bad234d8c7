//! Typed, one-shot construction of [`Cluster`]s over any transport.
//!
//! The builder replaces the grow-as-you-go mutator API: every knob is
//! declared up front — each method writes the one field of the cluster
//! it configures — the cluster comes out of [`ClusterBuilder::build`]
//! fully configured, and configuration that must precede traffic
//! (recovery, pacing, the flight recorder) cannot be applied too late
//! by accident. The builder is generic over the datapath: started from
//! a [`ClusterSpec`] or a [`Fabric`] it produces the classic
//! [`SimCluster`](crate::SimCluster); started from any other [`Transport`] (e.g.
//! `rdmc-tcp`'s nonblocking event-loop backend via
//! [`ClusterBuilder::from_transport`]) the same protocol-level knobs —
//! recovery, pacing, reliability, tracing, atomic groups — apply
//! unchanged, while the simulation-only knobs (jitter, fault injection,
//! and the [`ClusterSpec`] with its completion mode) are only offered
//! when the transport is the simulated fabric.

use simnet::{FaultProfile, JitterModel};
use verbs::{Fabric, NodeId, SharedScheduler, Transport};

use crate::cluster::{Cluster, GroupSpec};
use crate::pacer::{PacerConfig, PacerState};
use crate::profiles::ClusterSpec;
use crate::reconfig::RecoveryConfig;
use crate::reliability::ReliabilityPolicy;

/// Declarative configuration of a [`Cluster`].
///
/// # Example
///
/// ```
/// use rdmc::Algorithm;
/// use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};
///
/// let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4)).build();
/// let group = cluster.create_group(GroupSpec {
///     members: vec![0, 1, 2, 3],
///     algorithm: Algorithm::BinomialPipeline,
///     block_size: 1 << 20,
///     ready_window: 2,
///     max_outstanding_sends: 2,
/// });
/// let id = cluster.submit_send(group, 8 << 20);
/// cluster.run();
/// assert!(cluster.result(id).expect("submitted").latency().is_some());
/// ```
#[must_use = "call `.build()` to obtain the cluster"]
pub struct ClusterBuilder<T: Transport = Fabric> {
    /// The cluster under construction: each knob writes the one field it
    /// configures, so there is nothing left to apply in `build()`.
    cluster: Cluster<T>,
    /// Declared atomic groups, created in `build()` — after every knob a
    /// group reads at creation (recorder, recovery, reliability) is set.
    atomic_groups: Vec<GroupSpec>,
}

impl ClusterBuilder<Fabric> {
    /// Starts from a cluster profile (topology + host model); see the
    /// [`ClusterSpec`] presets.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::from_transport(spec.build())
    }

    /// Sets one node's scheduling-jitter model.
    pub fn jitter(mut self, node: usize, jitter: JitterModel) -> Self {
        self.cluster.fabric.set_jitter(NodeId(node as u32), jitter);
        self
    }

    /// Attaches a seeded fault model to the fabric (see
    /// [`simnet::FaultProfile`]): data-plane transfers become subject to
    /// per-link loss, burst loss, and corruption. Control writes under
    /// the tiny-write bypass stay reliable. A clean profile leaves the
    /// fabric bit-for-bit lossless. Pair with
    /// [`ClusterBuilder::reliability`] — an unprotected group on a lossy
    /// fabric stalls or wedges, exactly as the paper's §2.2 lossless
    /// assumption predicts.
    pub fn fault_profile(mut self, profile: FaultProfile) -> Self {
        self.cluster.fabric.set_fault_profile(profile);
        self
    }
}

impl<T: Transport> ClusterBuilder<T> {
    /// Starts from any [`Transport`] — the entry point for non-simulated
    /// backends such as `rdmc-tcp`'s nonblocking event loop. All
    /// protocol-level knobs apply; the simulation-only ones (jitter,
    /// fault injection) are absent because they have no meaning off the
    /// simulated fabric.
    pub fn from_transport(transport: T) -> Self {
        ClusterBuilder {
            cluster: Cluster::from_transport(transport),
            atomic_groups: Vec::new(),
        }
    }

    /// Attaches a controlled scheduler: same-instant delivery races in
    /// the fabric and admission ties in the pacer become explicit choice
    /// points resolved by `scheduler` instead of the queue's default
    /// tie-break. This is how the `analyzer` crate's interleaving
    /// explorer drives the cluster through alternative executions; a
    /// scheduler that always answers 0 reproduces the default run.
    /// (Non-simulated transports ignore the fabric half and only route
    /// pacer ties through the scheduler.)
    pub fn scheduler(mut self, scheduler: SharedScheduler) -> Self {
        self.cluster.fabric.set_scheduler(scheduler.clone());
        self.cluster.scheduler = Some(scheduler);
        self
    }

    /// Turns on epoch-based failure recovery (the §2.4 membership
    /// service): failures stop wedging groups forever and instead
    /// trigger agreement, reconfiguration, and block-wise resumption.
    pub fn recovery(mut self, config: RecoveryConfig) -> Self {
        self.cluster.reconfig.config = Some(config);
        self
    }

    /// Attaches a flight recorder that keeps every event; every layer
    /// (transport, verbs, engines, membership orchestration) streams
    /// structured events into it, stamped with the transport's clock.
    /// Retrieve the handle from the built cluster via
    /// [`Cluster::recorder`].
    pub fn flight_recorder(mut self) -> Self {
        self.cluster.recorder = trace::Recorder::full();
        self.cluster
            .fabric
            .set_recorder(self.cluster.recorder.clone());
        self
    }

    /// Captures every engine event fed on the cluster (see
    /// [`Cluster::engine_log`]) — the raw material of the
    /// `transport_equivalence` gate.
    pub fn engine_log(mut self) -> Self {
        self.cluster.engine_log = Some(Vec::new());
        self
    }

    /// Bounds each node's concurrent outbound block sends and picks the
    /// order in which queued sends take freed slots — the multi-tenant
    /// admission layer (see [`PacerConfig`]).
    pub fn pacing(mut self, config: PacerConfig) -> Self {
        self.cluster.pacer = Some(PacerState::new(config));
        self
    }

    /// Default [`ReliabilityPolicy`] for every group created on the
    /// cluster: block sends carry per-connection sequence numbers, and
    /// transport losses are repaired by selective retransmission, erasure
    /// parity, or escalation to epoch recovery instead of stalling the
    /// transfer.
    pub fn reliability(mut self, policy: ReliabilityPolicy) -> Self {
        self.cluster.reliability.default = Some(policy);
        self
    }

    /// Declares a multi-sender **atomic multicast** group (the
    /// Derecho construction over RDMC): every member of `spec.members`
    /// becomes a sender, backed by one RDMC subgroup per sender with
    /// the member list rotated so that sender sits at rank 0, and
    /// deliveries come out in an identical total order at every member.
    /// Groups declared here receive ids `0..` in declaration order;
    /// submit with [`SimCluster::submit_atomic`](crate::SimCluster) and read logs with
    /// [`Cluster::atomic_log`](crate::Cluster::atomic_log): the logs are gapless, identical
    /// prefixes at every member, even across crashes when recovery is enabled.
    pub fn atomic(mut self, spec: GroupSpec) -> Self {
        self.atomic_groups.push(spec);
        self
    }

    /// Creates the declared atomic groups and returns the cluster.
    pub fn build(mut self) -> Cluster<T> {
        for spec in self.atomic_groups {
            let _ = self.cluster.create_atomic_group(spec);
        }
        self.cluster
    }
}
