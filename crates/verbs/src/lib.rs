//! # verbs — simulated RDMA for the RDMC reproduction
//!
//! A faithful-semantics, simulated implementation of the slice of the RDMA
//! Verbs API that RDMC (DSN 2018) relies on:
//!
//! - **Reliable connections** ([`Transport::connect`]): in-order, exactly-once
//!   delivery per queue pair, like hardware RC mode.
//! - **Two-sided send/receive** with **immediate values**
//!   ([`Transport::post_send`], [`Transport::post_recv`]): a send consumes a
//!   posted receive; RDMC carries the total message size in the immediate.
//! - **Receiver-not-ready (RNR) semantics**: a send that finds no posted
//!   receive retries on a timer and, after the retry budget, *breaks the
//!   connection* and reports error completions at both ends — the failure
//!   signal RDMC's recovery story is built on (§2, §3 property 6).
//! - **One-sided writes** ([`Transport::post_write`]): how receivers tell
//!   senders they are ready for a block, and how the `sst` crate's shared
//!   state table works.
//! - **Cross-channel dependencies** ([`WaitSpec`]): Mellanox CORE-Direct
//!   style "send when that other WR completes", used to reproduce the
//!   offloading experiment (Fig. 12).
//! - **Completion modes** ([`CompletionMode`]): busy polling, interrupts,
//!   or the paper's 50 ms hybrid — with CPU-load accounting (Fig. 11).
//!
//! Time, bandwidth contention and topology come from [`simnet`]: every
//! transfer is a flow across full-duplex NIC links with max-min fair
//! sharing.
//!
//! ## Example
//!
//! ```
//! use simnet::{FlowNet, SimDuration, Topology};
//! use verbs::{Delivery, Fabric, FabricParams, NodeId, Transport, WrId};
//!
//! let mut net = FlowNet::new();
//! let topo = Topology::flat(&mut net, 2, 100.0, SimDuration::from_micros(2));
//! let mut fabric = Fabric::new(net, topo, FabricParams::default());
//!
//! let (qp0, qp1) = fabric.connect(NodeId(0), NodeId(1));
//! fabric.post_recv(qp1, WrId(7), 1 << 20).unwrap();
//! fabric.post_send(qp0, WrId(1), 1 << 20, 42, None).unwrap();
//!
//! let mut got_recv = false;
//! while let Some((_, node, delivery)) = fabric.advance() {
//!     if let Delivery::RecvDone { wr_id, len, imm, .. } = delivery {
//!         assert_eq!(node, NodeId(1));
//!         assert_eq!(wr_id, WrId(7));
//!         assert_eq!(len, 1 << 20);
//!         assert_eq!(imm, 42);
//!         got_recv = true;
//!     }
//! }
//! assert!(got_recv);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
pub mod perf;
pub mod sched;
pub mod transport;
mod types;

pub use fabric::{Fabric, FabricStats, PostingSnapshot};
pub use sched::{Candidate, CandidateKind, ChoicePoint, PointKind, Scheduler, SharedScheduler};
pub use transport::Transport;
pub use types::{
    CompletionMode, CpuReport, Delivery, FabricParams, NodeId, QpHandle, VerbsError, WaitSpec, WrId,
};

#[cfg(test)]
mod tests;
