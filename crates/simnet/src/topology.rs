//! Datacenter topologies, mapped onto [`FlowNet`] links.
//!
//! Every node gets a dedicated transmit link (host → fabric) and receive
//! link (fabric → host), making NICs full-duplex exactly as the paper
//! emphasises ("a 100Gbps NIC can potentially send and receive 100Gbps
//! concurrently", §4.3). Three shapes cover the paper's clusters:
//!
//! - [`Topology::flat`] — single non-blocking switch, full bisection
//!   bandwidth (Fractus: 16 nodes, 100 Gb/s; Stampede-like: 40 Gb/s).
//! - [`Topology::oversubscribed_tor`] — racks whose top-of-rack uplinks are
//!   slower than the sum of their hosts (Apt: heavy cross-rack load
//!   degrades to ~16 Gb/s per host); with uplinks at full bisection it
//!   stands in for Sierra's federated fat-tree.

use crate::flow::{FlowNet, LinkId};
use crate::time::SimDuration;

/// Per-node link endpoints.
#[derive(Clone, Copy, Debug)]
struct NodePorts {
    tx: LinkId,
    rx: LinkId,
    rack: u32,
}

/// Per-rack aggregation links (absent in flat topologies).
#[derive(Clone, Copy, Debug)]
struct RackPorts {
    up: LinkId,
    down: LinkId,
}

/// A named topology over a [`FlowNet`].
///
/// # Examples
///
/// ```
/// use simnet::{FlowNet, Topology, SimDuration};
///
/// let mut net = FlowNet::new();
/// let topo = Topology::flat(&mut net, 4, 100.0, SimDuration::from_micros(1));
/// let path = topo.path(0, 3);
/// assert_eq!(path.len(), 2); // sender uplink + receiver downlink
/// ```
#[derive(Debug)]
pub struct Topology {
    nodes: Vec<NodePorts>,
    racks: Vec<RackPorts>,
}

impl Topology {
    /// A single non-blocking switch: every pair of nodes has a one-hop path
    /// and the fabric has full bisection bandwidth.
    pub fn flat(net: &mut FlowNet, nodes: usize, link_gbps: f64, latency: SimDuration) -> Self {
        Self::flat_per_node(net, &vec![link_gbps; nodes], latency)
    }

    /// Like [`Topology::flat`], but with an individual link speed per node
    /// — used to study one slow NIC dragging on a multicast (paper §4.5
    /// item 2).
    pub fn flat_per_node(net: &mut FlowNet, gbps: &[f64], latency: SimDuration) -> Self {
        assert!(!gbps.is_empty(), "topology needs at least one node");
        // Split the one-hop latency across the two links of a path.
        let half = SimDuration::from_nanos(latency.as_nanos() / 2);
        let nodes = gbps
            .iter()
            .map(|&g| NodePorts {
                tx: net.add_link(g, half),
                rx: net.add_link(g, half),
                rack: 0,
            })
            .collect();
        Topology {
            nodes,
            racks: Vec::new(),
        }
    }

    /// Racks of `per_rack` hosts behind an oversubscribed top-of-rack
    /// uplink of `uplink_gbps` (each direction). Intra-rack traffic never
    /// touches the uplink.
    pub fn oversubscribed_tor(
        net: &mut FlowNet,
        racks: usize,
        per_rack: usize,
        host_gbps: f64,
        uplink_gbps: f64,
        latency: SimDuration,
    ) -> Self {
        assert!(
            racks >= 1 && per_rack >= 1,
            "need at least one rack and host"
        );
        let half = SimDuration::from_nanos(latency.as_nanos() / 2);
        Self::racked(net, racks, per_rack, (host_gbps, half), (uplink_gbps, half))
    }

    /// `racks` racks of `per_rack` hosts, each behind an up/down pair of
    /// `(gbps, latency)` links `uplink`, the hosts' links being `host`:
    /// per rack its pair, then each host's transmit and receive link.
    fn racked(
        net: &mut FlowNet,
        racks: usize,
        per_rack: usize,
        host: (f64, SimDuration),
        uplink: (f64, SimDuration),
    ) -> Self {
        let mut nodes = Vec::with_capacity(racks * per_rack);
        let mut rack_ports = Vec::with_capacity(racks);
        for r in 0..racks {
            rack_ports.push(RackPorts {
                up: net.add_link(uplink.0, uplink.1),
                down: net.add_link(uplink.0, uplink.1),
            });
            for _ in 0..per_rack {
                nodes.push(NodePorts {
                    tx: net.add_link(host.0, host.1),
                    rx: net.add_link(host.0, host.1),
                    rack: r as u32,
                });
            }
        }
        Topology {
            nodes,
            racks: rack_ports,
        }
    }

    /// A non-blocking (full-bisection) fat-tree: pods of `per_pod` hosts
    /// whose aggregation links are provisioned at exactly
    /// `per_pod * host_gbps` per direction and *declared transparent* to
    /// the allocator ([`FlowNet::set_link_transparent`]). The aggregation
    /// tier can then never be a max-min bottleneck, so rate churn on a
    /// host edge link never ripples across pod boundaries — the
    /// structural fact the datacenter-scale kernel exploits. Paths,
    /// latencies, and byte accounting are identical to
    /// [`Topology::oversubscribed_tor`] with the same uplink capacity.
    pub fn fat_tree(
        net: &mut FlowNet,
        pods: usize,
        per_pod: usize,
        host_gbps: f64,
        latency: SimDuration,
    ) -> Self {
        let uplink_gbps = host_gbps * per_pod as f64;
        let topo = Self::oversubscribed_tor(net, pods, per_pod, host_gbps, uplink_gbps, latency);
        for rack in &topo.racks {
            net.set_link_transparent(rack.up);
            net.set_link_transparent(rack.down);
        }
        topo
    }

    /// A geo-replicated deployment: `sites` datacenters of `per_site`
    /// hosts each, every site behind a pair of WAN links (one per
    /// direction) of `wan_gbps`. Intra-site paths see `lan_latency`
    /// end to end; cross-site paths see `wan_latency` — the honest
    /// multi-millisecond RTTs that make geo-replication a different
    /// regime from the paper's single-cluster fabrics (§2.2 assumes a
    /// lossless local fabric; SDR-RDMA's planetary-scale argument does
    /// not). WAN links are deliberately *not* transparent: they are
    /// real, oversubscribable bottlenecks, and [`Topology::wan_links`]
    /// exposes them so a fault profile can target exactly the lossy
    /// wide-area segment.
    ///
    /// # Panics
    ///
    /// Panics if `wan_latency < lan_latency` — the WAN hop cannot make
    /// a path faster than its LAN segments.
    pub fn multi_datacenter(
        net: &mut FlowNet,
        sites: usize,
        per_site: usize,
        host_gbps: f64,
        wan_gbps: f64,
        lan_latency: SimDuration,
        wan_latency: SimDuration,
    ) -> Self {
        assert!(
            sites >= 1 && per_site >= 1,
            "need at least one site and host"
        );
        assert!(
            wan_latency.as_nanos() >= lan_latency.as_nanos(),
            "WAN latency below LAN latency"
        );
        let lan_half = SimDuration::from_nanos(lan_latency.as_nanos() / 2);
        // Cross-site paths traverse tx + up + down + rx; the two host
        // links already contribute a full LAN latency, so the WAN pair
        // carries the remainder.
        let wan_half =
            SimDuration::from_nanos((wan_latency.as_nanos() - lan_latency.as_nanos()) / 2);
        Self::racked(
            net,
            sites,
            per_site,
            (host_gbps, lan_half),
            (wan_gbps, wan_half),
        )
    }

    /// Every inter-site (WAN) link of a [`Topology::multi_datacenter`]
    /// fabric, in site order (up then down per site) — the links a
    /// lossy-WAN fault profile should target. Empty for single-site
    /// topologies; for rack/pod fabrics these are the aggregation links.
    pub fn wan_links(&self) -> Vec<LinkId> {
        self.racks.iter().flat_map(|r| [r.up, r.down]).collect()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The rack (pod) index a node belongs to; 0 for flat topologies.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rack_of(&self, node: usize) -> usize {
        self.nodes[node].rack as usize
    }

    /// The sequence of links a transfer from `from` to `to` occupies.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range, or if `from == to` (local
    /// copies don't traverse the network; model them as CPU time instead).
    pub fn path(&self, from: usize, to: usize) -> Vec<LinkId> {
        assert_ne!(from, to, "no network path from a node to itself");
        let a = &self.nodes[from];
        let b = &self.nodes[to];
        if self.racks.is_empty() || a.rack == b.rack {
            vec![a.tx, b.rx]
        } else {
            vec![
                a.tx,
                self.racks[a.rack as usize].up,
                self.racks[b.rack as usize].down,
                b.rx,
            ]
        }
    }

    /// The node's transmit-side link (useful for per-NIC I/O accounting).
    pub fn tx_link(&self, node: usize) -> LinkId {
        self.nodes[node].tx
    }

    /// The node's receive-side link.
    pub fn rx_link(&self, node: usize) -> LinkId {
        self.nodes[node].rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn flat_paths_are_two_hops() {
        let mut net = FlowNet::new();
        let t = Topology::flat(&mut net, 8, 100.0, SimDuration::from_micros(2));
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    let p = t.path(a, b);
                    assert_eq!(p.len(), 2);
                    assert_eq!(p[0], t.tx_link(a));
                    assert_eq!(p[1], t.rx_link(b));
                    assert_eq!(net.path_latency(&p), SimDuration::from_micros(2));
                }
            }
        }
    }

    #[test]
    fn tor_separates_intra_and_inter_rack() {
        let mut net = FlowNet::new();
        let t =
            Topology::oversubscribed_tor(&mut net, 2, 4, 56.0, 32.0, SimDuration::from_micros(2));
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(7), 1);
        assert_eq!(t.path(0, 3).len(), 2); // same rack
        assert_eq!(t.path(0, 4).len(), 4); // cross rack
    }

    #[test]
    fn oversubscription_throttles_cross_rack_aggregate() {
        // 4 hosts per rack at 56 Gb/s, but a 64 Gb/s uplink: four concurrent
        // cross-rack flows get 16 Gb/s each — the Apt behaviour.
        let mut net = FlowNet::new();
        let t =
            Topology::oversubscribed_tor(&mut net, 2, 4, 56.0, 64.0, SimDuration::from_micros(2));
        let mut flows = Vec::new();
        for i in 0..4 {
            flows.push(net.start_flow(SimTime::ZERO, &t.path(i, 4 + i), 1e9));
        }
        for f in &flows {
            let r = net.flow_rate_bps(*f).unwrap();
            assert!((r - 16e9).abs() < 1e3, "expected 16 Gb/s, got {r}");
        }
    }

    #[test]
    fn intra_rack_traffic_avoids_uplink() {
        let mut net = FlowNet::new();
        let t =
            Topology::oversubscribed_tor(&mut net, 2, 2, 56.0, 10.0, SimDuration::from_micros(2));
        let f = net.start_flow(SimTime::ZERO, &t.path(0, 1), 1e9);
        assert_eq!(net.flow_rate_bps(f), Some(56e9));
    }

    #[test]
    fn fat_tree_matches_participating_uplink_rates() {
        // The transparent aggregation tier must be allocation-neutral:
        // every flow rate equals the same scenario on a TOR fabric with
        // participating (but never-binding) uplinks.
        let run = |fat: bool| {
            let (mut net, latency) = (FlowNet::new(), SimDuration::from_micros(2));
            let t = if fat {
                Topology::fat_tree(&mut net, 3, 4, 25.0, latency)
            } else {
                Topology::oversubscribed_tor(&mut net, 3, 4, 25.0, 100.0, latency)
            };
            // Cross-pod fan-out from pod 0 plus intra-pod traffic in pod 1.
            let mut flows = vec![
                net.start_flow(SimTime::ZERO, &t.path(0, 4), 1e9),
                net.start_flow(SimTime::ZERO, &t.path(0, 8), 1e9),
                net.start_flow(SimTime::ZERO, &t.path(1, 4), 1e9),
                net.start_flow(SimTime::ZERO, &t.path(5, 6), 1e9),
            ];
            flows.push(net.start_flow(SimTime::from_nanos(100), &t.path(2, 9), 1e9));
            flows
                .into_iter()
                .map(|f| net.flow_rate_bps(f).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fat_tree_cross_pod_gets_full_host_rate() {
        let mut net = FlowNet::new();
        let t = Topology::fat_tree(&mut net, 2, 4, 25.0, SimDuration::from_micros(2));
        // All four hosts of pod 0 send cross-pod at once: full bisection
        // means every flow still gets the full host rate.
        let flows: Vec<_> = (0..4)
            .map(|i| net.start_flow(SimTime::ZERO, &t.path(i, 4 + i), 1e9))
            .collect();
        for f in flows {
            assert_eq!(net.flow_rate_bps(f), Some(25e9));
        }
    }

    #[test]
    fn multi_datacenter_latencies_split_lan_and_wan() {
        let mut net = FlowNet::new();
        let t = Topology::multi_datacenter(
            &mut net,
            2,
            4,
            100.0,
            10.0,
            SimDuration::from_micros(2),
            SimDuration::from_millis(50),
        );
        assert_eq!(t.num_nodes(), 8);
        // Intra-site: plain LAN latency, two hops.
        let lan = t.path(0, 1);
        assert_eq!(lan.len(), 2);
        assert_eq!(net.path_latency(&lan), SimDuration::from_micros(2));
        // Cross-site: the full WAN latency, through the site uplinks.
        let wan = t.path(0, 4);
        assert_eq!(wan.len(), 4);
        assert_eq!(net.path_latency(&wan), SimDuration::from_millis(50));
        // Every WAN link is exposed for fault targeting and really is
        // on the cross-site path but not the intra-site one.
        let wan_links = t.wan_links();
        assert_eq!(wan_links.len(), 4);
        assert!(wan.iter().filter(|l| wan_links.contains(l)).count() == 2);
        assert!(lan.iter().all(|l| !wan_links.contains(l)));
    }

    #[test]
    fn multi_datacenter_wan_is_the_bottleneck() {
        // Four hosts per site at 100 Gb/s behind a 10 Gb/s WAN pair:
        // four concurrent cross-site flows share the uplink at 2.5 Gb/s.
        let mut net = FlowNet::new();
        let t = Topology::multi_datacenter(
            &mut net,
            2,
            4,
            100.0,
            10.0,
            SimDuration::from_micros(2),
            SimDuration::from_millis(50),
        );
        let flows: Vec<_> = (0..4)
            .map(|i| net.start_flow(SimTime::ZERO, &t.path(i, 4 + i), 1e9))
            .collect();
        for f in flows {
            let r = net.flow_rate_bps(f).unwrap();
            assert!((r - 2.5e9).abs() < 1e3, "expected 2.5 Gb/s, got {r}");
        }
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_path_rejected() {
        let mut net = FlowNet::new();
        let t = Topology::flat(&mut net, 2, 100.0, SimDuration::ZERO);
        t.path(1, 1);
    }
}
