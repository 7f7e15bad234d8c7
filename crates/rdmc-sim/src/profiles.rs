//! Cluster presets modelled on the paper's four testbeds (§5.1).
//!
//! Absolute constants are calibrations, not measurements: the simulator's
//! job is to reproduce the *shape* of the paper's results (who wins, where
//! crossovers fall), and those shapes are set by link speeds, topology,
//! and the ratio of per-block overhead to block transfer time.

use simnet::{FlowNet, HostProfile, SimDuration, Topology};
use verbs::{CompletionMode, Fabric, FabricParams};

/// Which fabric shape to build.
#[derive(Clone, Debug, PartialEq)]
pub enum TopoSpec {
    /// Single non-blocking switch (Fractus, Stampede stand-ins).
    Flat {
        /// Node count.
        nodes: usize,
        /// Per-NIC link speed, Gb/s.
        gbps: f64,
        /// One-hop latency.
        latency: SimDuration,
    },
    /// Flat switch with one custom-speed node (slow-NIC experiments).
    FlatPerNode {
        /// Per-node link speeds, Gb/s.
        gbps: Vec<f64>,
        /// One-hop latency.
        latency: SimDuration,
    },
    /// Racks behind (possibly oversubscribed) uplinks (Apt, Sierra
    /// stand-ins).
    Tor {
        /// Rack count.
        racks: usize,
        /// Hosts per rack.
        per_rack: usize,
        /// Host NIC speed, Gb/s.
        host_gbps: f64,
        /// Per-rack uplink speed, Gb/s (each direction).
        uplink_gbps: f64,
        /// One-hop latency.
        latency: SimDuration,
    },
    /// Non-blocking fat-tree: pods whose aggregation links carry exactly
    /// `per_pod * host_gbps` and are declared transparent to the
    /// allocator (never a bottleneck), so edge-link rate churn stays
    /// inside one pod — the datacenter-scale profile.
    FatTree {
        /// Pod count.
        pods: usize,
        /// Hosts per pod.
        per_pod: usize,
        /// Host NIC speed, Gb/s.
        host_gbps: f64,
        /// One-hop latency.
        latency: SimDuration,
    },
    /// Geo-replication: datacenter sites with fast local fabrics joined
    /// by slow, high-latency WAN uplinks (the real bottleneck links —
    /// retrievable via [`simnet::Topology::wan_links`] for targeted
    /// fault injection).
    MultiDatacenter {
        /// Site count.
        sites: usize,
        /// Hosts per site.
        per_site: usize,
        /// Host NIC speed within a site, Gb/s.
        host_gbps: f64,
        /// Per-site WAN uplink speed, Gb/s (each direction).
        wan_gbps: f64,
        /// Intra-site one-hop latency.
        lan_latency: SimDuration,
        /// Cross-site one-way latency.
        wan_latency: SimDuration,
    },
}

impl TopoSpec {
    /// Total node count.
    pub fn nodes(&self) -> usize {
        match self {
            TopoSpec::Flat { nodes, .. } => *nodes,
            TopoSpec::FlatPerNode { gbps, .. } => gbps.len(),
            TopoSpec::Tor {
                racks, per_rack, ..
            } => racks * per_rack,
            TopoSpec::FatTree { pods, per_pod, .. } => pods * per_pod,
            TopoSpec::MultiDatacenter {
                sites, per_site, ..
            } => sites * per_site,
        }
    }
}

/// Everything needed to stand up a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Fabric shape.
    pub topology: TopoSpec,
    /// Host software cost constants (applied to every node).
    pub profile: HostProfile,
    /// Fabric-wide hardware constants.
    pub fabric: FabricParams,
    /// Completion mode for every node.
    pub completion_mode: CompletionMode,
}

impl ClusterSpec {
    /// Fractus: 16 RDMA nodes on a non-blocking 100 Gb/s switch.
    pub fn fractus(nodes: usize) -> Self {
        ClusterSpec {
            topology: TopoSpec::Flat {
                nodes,
                gbps: 100.0,
                latency: SimDuration::from_micros(2),
            },
            profile: HostProfile::default(),
            fabric: FabricParams::default(),
            completion_mode: CompletionMode::Hybrid,
        }
    }

    /// Stampede-1: FDR NICs but ~40 Gb/s measured unicast; higher
    /// per-block overheads than Fractus (the Table 1 cluster).
    pub fn stampede(nodes: usize) -> Self {
        ClusterSpec {
            topology: TopoSpec::Flat {
                nodes,
                gbps: 40.0,
                latency: SimDuration::from_micros(3),
            },
            profile: HostProfile {
                post_overhead: SimDuration::from_micros(2),
                completion_overhead: SimDuration::from_micros(1),
                ..HostProfile::default()
            },
            fabric: FabricParams {
                nic_op_overhead: SimDuration::from_micros(2),
                ..FabricParams::default()
            },
            completion_mode: CompletionMode::Hybrid,
        }
    }

    /// Sierra: 4x QDR (40 Gb/s), ~2,000 nodes behind a federated fat-tree
    /// — modelled as pods with full-bisection uplinks but higher
    /// cross-pod latency exposure.
    pub fn sierra(nodes: usize) -> Self {
        let per_pod = 16usize;
        let pods = nodes.div_ceil(per_pod).max(1);
        ClusterSpec {
            topology: TopoSpec::Tor {
                racks: pods,
                per_rack: per_pod,
                host_gbps: 40.0,
                uplink_gbps: 40.0 * per_pod as f64, // full bisection
                latency: SimDuration::from_micros(4),
            },
            profile: HostProfile::default(),
            fabric: FabricParams::default(),
            completion_mode: CompletionMode::Hybrid,
        }
    }

    /// Apt: 56 Gb/s FDR NICs behind a significantly oversubscribed TOR
    /// that degrades to ~16 Gb/s per host under load (§5.1).
    pub fn apt(racks: usize, per_rack: usize) -> Self {
        ClusterSpec {
            topology: TopoSpec::Tor {
                racks,
                per_rack,
                host_gbps: 56.0,
                uplink_gbps: 16.0 * per_rack as f64,
                latency: SimDuration::from_micros(3),
            },
            profile: HostProfile::default(),
            fabric: FabricParams::default(),
            completion_mode: CompletionMode::Hybrid,
        }
    }

    /// Datacenter: `nodes` 100 Gb/s hosts in pods of 32 behind a
    /// non-blocking fat-tree whose aggregation tier is transparent to
    /// the allocator — the 1000-node scale profile.
    pub fn datacenter(nodes: usize) -> Self {
        let nodes = nodes.max(1);
        // Prefer an exact pod division (largest pod size up to 32) so the
        // cluster has exactly the requested node count; otherwise round
        // up to whole pods of 32.
        let per_pod = (16..=32.min(nodes))
            .rev()
            .find(|p| nodes.is_multiple_of(*p))
            .unwrap_or(32.min(nodes));
        let pods = nodes.div_ceil(per_pod);
        ClusterSpec {
            topology: TopoSpec::FatTree {
                pods,
                per_pod,
                host_gbps: 100.0,
                latency: SimDuration::from_micros(4),
            },
            profile: HostProfile::default(),
            fabric: FabricParams::default(),
            completion_mode: CompletionMode::Hybrid,
        }
    }

    /// Geo-replication: `nodes` hosts split across two datacenter sites
    /// — 100 Gb/s within a site, 10 Gb/s WAN uplinks at 50 ms one-way
    /// between them (the SDR-RDMA wide-area setting). Cross-site
    /// transfers ride lossy, high-latency WAN links, so pair this with
    /// [`crate::ClusterBuilder::reliability`] when injecting faults.
    ///
    /// ```
    /// use rdmc::Algorithm;
    /// use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, ReliabilityPolicy};
    ///
    /// // 4 nodes in 2 sites; erasure coding rides out WAN loss without
    /// // paying the 100 ms retransmission round trip.
    /// let mut cluster = ClusterBuilder::new(ClusterSpec::geo(4))
    ///     .reliability(ReliabilityPolicy::erasure(2, 1))
    ///     .build();
    /// let group = cluster.create_group(GroupSpec {
    ///     members: vec![0, 1, 2, 3],
    ///     algorithm: Algorithm::BinomialPipeline,
    ///     block_size: 1 << 20,
    ///     ready_window: 4,
    ///     max_outstanding_sends: 2,
    /// });
    /// let id = cluster.submit_send(group, 8 << 20);
    /// cluster.run();
    /// assert!(cluster.result(id).expect("submitted").latency().is_some());
    /// ```
    pub fn geo(nodes: usize) -> Self {
        let nodes = nodes.max(2);
        ClusterSpec {
            topology: TopoSpec::MultiDatacenter {
                sites: 2,
                per_site: nodes.div_ceil(2),
                host_gbps: 100.0,
                wan_gbps: 10.0,
                lan_latency: SimDuration::from_micros(2),
                wan_latency: SimDuration::from_millis(50),
            },
            profile: HostProfile::default(),
            fabric: FabricParams::default(),
            completion_mode: CompletionMode::Hybrid,
        }
    }

    /// Builds the fabric: flow network, topology, node profiles.
    pub fn build(&self) -> Fabric {
        let mut net = FlowNet::new();
        let topo = match &self.topology {
            TopoSpec::Flat {
                nodes,
                gbps,
                latency,
            } => Topology::flat(&mut net, *nodes, *gbps, *latency),
            TopoSpec::FlatPerNode { gbps, latency } => {
                Topology::flat_per_node(&mut net, gbps, *latency)
            }
            TopoSpec::Tor {
                racks,
                per_rack,
                host_gbps,
                uplink_gbps,
                latency,
            } => Topology::oversubscribed_tor(
                &mut net,
                *racks,
                *per_rack,
                *host_gbps,
                *uplink_gbps,
                *latency,
            ),
            TopoSpec::FatTree {
                pods,
                per_pod,
                host_gbps,
                latency,
            } => Topology::fat_tree(&mut net, *pods, *per_pod, *host_gbps, *latency),
            TopoSpec::MultiDatacenter {
                sites,
                per_site,
                host_gbps,
                wan_gbps,
                lan_latency,
                wan_latency,
            } => Topology::multi_datacenter(
                &mut net,
                *sites,
                *per_site,
                *host_gbps,
                *wan_gbps,
                *lan_latency,
                *wan_latency,
            ),
        };
        let nodes = topo.num_nodes();
        let mut fabric = Fabric::new(net, topo, self.fabric.clone());
        for i in 0..nodes {
            let node = verbs::NodeId(i as u32);
            fabric.set_profile(node, self.profile.clone());
            fabric.set_completion_mode(node, self.completion_mode);
        }
        fabric
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        assert_eq!(ClusterSpec::fractus(16).build().topology().num_nodes(), 16);
        assert_eq!(ClusterSpec::stampede(4).build().topology().num_nodes(), 4);
        assert_eq!(ClusterSpec::apt(4, 8).build().topology().num_nodes(), 32);
        let sierra = ClusterSpec::sierra(512);
        assert_eq!(sierra.build().topology().num_nodes(), 512);
        let dc = ClusterSpec::datacenter(1000);
        assert_eq!(dc.topology.nodes(), 1000); // 40 pods of 25
        assert_eq!(dc.build().topology().num_nodes(), 1000);
        assert_eq!(ClusterSpec::datacenter(1024).topology.nodes(), 1024);
        assert_eq!(ClusterSpec::datacenter(4).topology.nodes(), 4);
        assert_eq!(ClusterSpec::datacenter(37).topology.nodes(), 64); // no divisor
    }

    #[test]
    fn geo_preset_builds_two_sites_with_wan_links() {
        let spec = ClusterSpec::geo(6);
        assert_eq!(spec.topology.nodes(), 6);
        let fabric = spec.build();
        assert_eq!(fabric.topology().num_nodes(), 6);
        // Two sites, each with an up and a down WAN uplink.
        assert_eq!(fabric.topology().wan_links().len(), 4);
        // Odd requests round up to whole sites.
        assert_eq!(ClusterSpec::geo(5).topology.nodes(), 6);
    }

    #[test]
    fn topo_spec_node_counts() {
        assert_eq!(
            TopoSpec::FlatPerNode {
                gbps: vec![10.0, 20.0],
                latency: SimDuration::ZERO
            }
            .nodes(),
            2
        );
    }
}
