//! # rdmc-sim — RDMC over simulated RDMA
//!
//! Binds the transport-agnostic `rdmc` protocol engine to the simulated
//! verbs fabric, reproducing the paper's experimental setups under
//! deterministic virtual time:
//!
//! - [`ClusterSpec`] presets for the paper's testbeds (Fractus, Stampede,
//!   Sierra, Apt).
//! - [`ClusterBuilder`]: typed one-shot configuration — recovery, the
//!   flight recorder (which keeps every event), per-NIC send pacing,
//!   jitter — producing a [`SimCluster`]: multiple
//!   (possibly overlapping) RDMC groups over one fabric, timed message
//!   injection, crash injection, and per-message completion records
//!   filed under [`MessageId`] handles.
//! - [`ClusterBuilder::recovery`]: the §2.4 external membership
//!   service — epoch-based reconfiguration of wedged groups with
//!   block-wise resumption of interrupted multicasts, instrumented by
//!   [`RecoveryStats`].
//! - [`ClusterBuilder::pacing`]: the multi-tenant admission layer — a
//!   bound on each NIC's concurrent outbound block sends plus a
//!   [`PacingPolicy`] ordering the queued sends of overlapping groups.
//! - [`ClusterBuilder::reliability`]: repair on a lossy fabric —
//!   [`ReliabilityPolicy::SelectiveAck`], [`ReliabilityPolicy::erasure`]
//!   or [`ReliabilityPolicy::WedgeResume`]; the retry timing is fixed.
//! - [`ClusterBuilder::atomic`]: the Derecho-style atomic multicast
//!   overlay — one RDMC subgroup per sender (rotated member lists),
//!   SST stability frontiers, and total-order delivery logs identical
//!   at every member (see [`SimCluster::atomic_log`]).
//! - [`run_single_multicast`] and friends: the one-line harnesses the
//!   benchmark suite sweeps.
//!
//! ## Example
//!
//! ```
//! use rdmc::Algorithm;
//! use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};
//!
//! // 4 Fractus nodes, one group, one 8 MB multicast over the binomial
//! // pipeline with 1 MB blocks.
//! let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4)).build();
//! let group = cluster.create_group(GroupSpec {
//!     members: vec![0, 1, 2, 3],
//!     algorithm: Algorithm::BinomialPipeline,
//!     block_size: 1 << 20,
//!     ready_window: 2,
//!     max_outstanding_sends: 2,
//! });
//! let id = cluster.submit_send(group, 8 << 20);
//! cluster.run();
//! let result = cluster.result(id).expect("submitted");
//! let latency = result.latency().expect("all members delivered");
//! assert!(latency.as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
mod builder;
mod cluster;
mod experiment;
mod offload;
mod pacer;
mod profiles;
mod reconfig;
mod reliability;
mod verdict;

pub use atomic::{AtomicDelivery, AtomicGroupId};
pub use builder::ClusterBuilder;
pub use cluster::{
    Cluster, EngineLogEntry, GroupId, GroupSpec, MessageId, MessageResult, SimCluster,
};
pub use experiment::{
    run_concurrent_overlapping, run_open_loop, run_planned_multicast, run_single_multicast,
    run_stream, run_traced_multicast, wire_model_for, GroupLoadReport, MulticastOutcome,
    OpenLoopArrival, OpenLoopOutcome,
};
pub use offload::run_offloaded_chain;
pub use pacer::{PacerConfig, PacingPolicy, PacingStats};
pub use profiles::{ClusterSpec, TopoSpec};
pub use reconfig::{DetectionRecord, ReconfigRecord, RecoveryConfig, RecoveryStats};
pub use reliability::{ReliabilityPolicy, ReliabilityStats};
