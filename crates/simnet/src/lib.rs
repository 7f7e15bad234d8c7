//! # simnet — deterministic datacenter network simulation
//!
//! The substrate underneath the RDMC reproduction: a discrete-event kernel
//! with virtual nanosecond time (a timing wheel, since that time never
//! runs backwards), a flow-level network model with max-min fair
//! bandwidth sharing, datacenter topologies (full-bisection switch,
//! oversubscribed top-of-rack, two-tier fabric), and host-side cost models
//! (software overheads, scheduling jitter, CPU accounting).
//!
//! The RDMC paper evaluated on real RDMA clusters (Fractus, Sierra,
//! Stampede, Apt). This crate stands in for those fabrics: it reproduces
//! the properties the paper's results actually depend on — who shares
//! which link, full-duplex NICs, fair sharing, TOR oversubscription, and
//! occasional multi-microsecond software stalls — while remaining fully
//! deterministic and fast enough to sweep hundreds of configurations.
//!
//! ## Example
//!
//! ```
//! use simnet::{FlowNet, SimDuration, SimTime, Topology};
//!
//! // Four nodes on a 100 Gb/s switch; node 0 sends 1 MB to node 1.
//! let mut net = FlowNet::new();
//! let topo = Topology::flat(&mut net, 4, 100.0, SimDuration::from_micros(2));
//! let flow = net.start_flow(SimTime::ZERO, &topo.path(0, 1), 1_000_000.0);
//! let (done_at, id) = net.next_completion().unwrap();
//! assert_eq!(id, flow);
//! assert_eq!(done_at.as_nanos(), 80_000); // 8 Mb at 100 Gb/s
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod fault;
mod flow;
mod host;
mod time;
mod topology;

pub use event::{EventQueue, EventToken};
pub use fault::{FaultOutcome, FaultProfile, GilbertElliott, LinkFault, SplitMix64};
pub use flow::{FlowId, FlowNet, LinkId, ReallocStats};
pub use host::{CpuMeter, HostProfile, JitterModel};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
