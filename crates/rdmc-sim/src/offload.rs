//! NIC-offloaded transfers via cross-channel work requests (paper §2 and
//! Fig. 12).
//!
//! Because RDMC's schedules are deterministic, a whole multicast can be
//! posted to the NICs as a dependency graph *before any data moves*: each
//! relay enqueues, for every block, a receive and a send that hardware
//! fires the moment the receive completes — no software on the critical
//! path (Mellanox CORE-Direct). The paper evaluated this for the chain
//! schedule (their firmware crashed on fancier patterns); we implement the
//! same experiment.

use rdmc::MessageLayout;
use simnet::SimTime;
use verbs::{Delivery, Fabric, NodeId, Transport, WaitSpec, WrId};

/// Runs a fully offloaded chain multicast of `size` bytes in `block_size`
/// blocks along `members` (first member sends), returning the completion
/// time (when the last member's final block lands).
///
/// # Panics
///
/// Panics if fewer than two members are given or the transfer fails.
pub fn run_offloaded_chain(
    mut fabric: Fabric,
    members: &[usize],
    size: u64,
    block_size: u64,
) -> SimTime {
    assert!(members.len() >= 2, "chain needs at least two members");
    let layout = MessageLayout::new(size, block_size);
    let k = layout.num_blocks;
    // Wire the chain: one connection per hop.
    let mut hops = Vec::new();
    for pair in members.windows(2) {
        let (tx, rx) = fabric.connect(NodeId(pair[0] as u32), NodeId(pair[1] as u32));
        hops.push((tx, rx));
    }
    // Pre-post the whole dependency graph (this is the offload: all work
    // requests exist before the first byte moves).
    for (hop, &(tx_qp, rx_qp)) in hops.iter().enumerate() {
        for b in 0..k {
            let bytes = layout.block_bytes(b);
            fabric
                .post_recv(rx_qp, WrId(u64::from(b)), block_size)
                .expect("post recv");
            if hop == 0 {
                // The root's sends depend on nothing; FIFO order per QP
                // keeps blocks sequential.
                fabric
                    .post_send(tx_qp, WrId(u64::from(b)), bytes, size, None)
                    .expect("post send");
            }
        }
    }
    // Relay sends wait, in hardware, for the matching upstream receive.
    for (hop, &(tx_qp, _)) in hops.iter().enumerate().skip(1) {
        let (_, upstream_rx) = hops[hop - 1];
        for b in 0..k {
            let bytes = layout.block_bytes(b);
            fabric
                .post_send(
                    tx_qp,
                    WrId(u64::from(b)),
                    bytes,
                    size,
                    Some(WaitSpec {
                        qp: upstream_rx,
                        wr_id: WrId(u64::from(b)),
                    }),
                )
                .expect("post dependent send");
        }
    }
    // Run to quiescence; completion = the tail node's final receive.
    let tail = NodeId(*members.last().expect("non-empty") as u32);
    let mut done_at = None;
    let mut tail_blocks = 0;
    while let Some((t, node, delivery)) = fabric.advance() {
        if node == tail {
            if let Delivery::RecvDone { .. } = delivery {
                tail_blocks += 1;
                if tail_blocks == k {
                    done_at = Some(t);
                }
            }
        }
    }
    done_at.expect("offloaded chain never completed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterSpec;
    use rdmc::Algorithm;
    use simnet::SimDuration;

    const MB: u64 = 1 << 20;

    #[test]
    fn offloaded_chain_completes() {
        let t = run_offloaded_chain(ClusterSpec::fractus(4).build(), &[0, 1, 2, 3], 16 * MB, MB);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn offload_beats_software_chain() {
        // Fig. 12: cross-channel removes per-hop software relays, good for
        // ~5% on the paper's hardware. Our simulated software costs give a
        // comparable edge.
        let spec = ClusterSpec::fractus(6);
        let offloaded = run_offloaded_chain(spec.build(), &[0, 1, 2, 3, 4, 5], 100 * MB, MB);
        let software =
            crate::run_single_multicast(&spec, 6, Algorithm::Chain, 100 * MB, MB).latency;
        let off = offloaded.as_secs_f64();
        let sw = software.as_secs_f64();
        assert!(off < sw, "offloaded {off}s should beat software {sw}s");
        assert!(off > sw * 0.5, "the gap should be an edge, not a rout");
    }

    #[test]
    fn offloaded_chain_respects_bandwidth() {
        // 100 MB over a 100 Gb/s chain cannot beat the line-rate floor.
        let t = run_offloaded_chain(ClusterSpec::fractus(3).build(), &[0, 1, 2], 100 * MB, MB);
        let floor = 100.0 * MB as f64 * 8.0 / 100e9;
        assert!(t.as_secs_f64() > floor);
        let _ = SimDuration::ZERO;
    }
}
