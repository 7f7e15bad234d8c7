//! The one runner the transport matrix (`transport_equivalence.rs`) and
//! the crash sweep (`crash_sweep.rs`) share: a cluster built the same way
//! over any of the three backends — the simulated fabric, TCP over
//! loopback sockets, and the same TCP datapath over in-process pipes
//! (`MemNet`) — driven by a scenario written once.

use rdmc::Algorithm;
use rdmc_sim::{Cluster, ClusterBuilder, ClusterSpec, GroupSpec, PacerConfig, RecoveryConfig};
use rdmc_tcp::{MemNet, Net, TcpFabric};
use verbs::{Fabric, Transport};

pub const KB: u64 = 1 << 10;

/// A group over `members` whose ready and send windows are both `window`.
pub fn spec(
    members: impl IntoIterator<Item = usize>,
    algorithm: Algorithm,
    block_size: u64,
    window: u32,
) -> GroupSpec {
    GroupSpec {
        members: members.into_iter().collect(),
        algorithm,
        block_size,
        ready_window: window,
        max_outstanding_sends: window,
    }
}

/// What a cluster is built with beyond its transport. The engine log is
/// always on.
#[derive(Clone, Default)]
pub struct Setup {
    pub recovery: Option<RecoveryConfig>,
    pub pacing: Option<PacerConfig>,
    /// The spec of atomic group 0.
    pub atomic: Option<GroupSpec>,
    /// The flight recorder, whose oracle joins `check_run`.
    pub recorder: bool,
}

impl Setup {
    /// Recovery with its default configuration and the flight recorder.
    pub fn recovering() -> Setup {
        Setup {
            recovery: Some(RecoveryConfig::default()),
            recorder: true,
            ..Setup::default()
        }
    }

    /// Builds `builder`'s cluster and hands it to `drive`, which submits,
    /// crashes and runs it.
    pub fn run<T: Transport>(
        &self,
        builder: ClusterBuilder<T>,
        drive: impl FnOnce(&mut Cluster<T>),
    ) -> Cluster<T> {
        let mut builder = builder.engine_log();
        if let Some(recovery) = &self.recovery {
            builder = builder.recovery(recovery.clone());
        }
        if let Some(pacing) = self.pacing {
            builder = builder.pacing(pacing);
        }
        if let Some(atomic) = &self.atomic {
            builder = builder.atomic(atomic.clone());
        }
        if self.recorder {
            builder = builder.flight_recorder();
        }
        let mut cluster = builder.build();
        drive(&mut cluster);
        cluster
    }
}

/// `n` simulated nodes, as a raw fabric as `fractus` ships it.
pub fn sim_fabric(n: usize) -> Fabric {
    ClusterSpec::fractus(n).build()
}

/// `n` nodes on loopback TCP, as a raw fabric.
pub fn tcp_fabric(n: usize) -> TcpFabric {
    TcpFabric::launch(n).expect("launch")
}

/// `n` nodes on in-process pipes, as a raw fabric: the TCP datapath on
/// a virtual clock that moves only when no byte can.
pub fn mem_fabric(n: usize) -> TcpFabric<MemNet> {
    TcpFabric::in_memory(n).expect("in memory")
}

/// `n` simulated nodes.
pub fn sim(n: usize) -> ClusterBuilder<Fabric> {
    ClusterBuilder::from_transport(sim_fabric(n))
}

/// `n` nodes on loopback TCP.
pub fn tcp(n: usize) -> ClusterBuilder<TcpFabric> {
    ClusterBuilder::from_transport(tcp_fabric(n))
}

/// `n` nodes on in-process pipes.
pub fn mem(n: usize) -> ClusterBuilder<TcpFabric<MemNet>> {
    ClusterBuilder::from_transport(mem_fabric(n))
}

/// Every TCP run, on sockets or on pipes, ends here: a shutdown that
/// surfaces no socket error.
pub fn close<N: Net>(cluster: Cluster<TcpFabric<N>>) {
    cluster.into_transport().shutdown().expect("clean shutdown");
}
