//! Process-wide simulation-kernel performance counters.
//!
//! Every [`Fabric`](crate::Fabric) folds its event and rate-reallocation
//! counters into these global accumulators when it is dropped, so a
//! benchmark harness can meter *all* simulation work in a section — across
//! many clusters, worker threads, and harness styles (`SimCluster`, the
//! offloaded-chain runner, the SST table) — by taking a [`snapshot`]
//! before and after and diffing:
//!
//! ```
//! let before = verbs::perf::snapshot();
//! let wall = std::time::Instant::now();
//! // ... run experiments ...
//! let work = verbs::perf::snapshot().delta_since(&before);
//! let events_per_sec = work.events as f64 / wall.elapsed().as_secs_f64();
//! # let _ = events_per_sec;
//! ```
//!
//! The counters are monotonic `u64`s updated with relaxed atomics: exact
//! under any interleaving of fabric drops, and free when unused.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);
static KICKS: AtomicU64 = AtomicU64::new(0);
static REALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static REALLOC_NANOS: AtomicU64 = AtomicU64::new(0);
static FLOWS_VISITED: AtomicU64 = AtomicU64::new(0);
static HEAP_PUSHES: AtomicU64 = AtomicU64::new(0);
static RATE_CHANGES: AtomicU64 = AtomicU64::new(0);
static FULL_REALLOCS: AtomicU64 = AtomicU64::new(0);
static LINK_VISITS: AtomicU64 = AtomicU64::new(0);
static COALESCED: AtomicU64 = AtomicU64::new(0);
static HEAP_COMPACTIONS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the process-wide kernel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelPerf {
    /// Events popped from fabric event queues.
    pub events: u64,
    /// Connection kick attempts.
    pub kicks: u64,
    /// Flow-rate reallocations run by the flow network.
    pub realloc_count: u64,
    /// Wall-clock nanoseconds spent inside reallocations.
    pub realloc_nanos: u64,
    /// Flows visited across all reallocations (ripple-set size sum).
    pub flows_visited: u64,
    /// Water-filling heap pushes across all reallocations.
    pub heap_pushes: u64,
    /// Flows whose rate actually changed across all reallocations.
    pub rate_changes: u64,
    /// Reallocations that extended to a full recomputation.
    pub full_reallocs: u64,
    /// Links visited by ripple traversals and full scans, summed.
    pub link_visits: u64,
    /// Flow starts/removals coalesced into an already-pending
    /// reallocation (recomputations that never had to run).
    pub coalesced: u64,
    /// Completion-heap compactions (stale-entry sweeps).
    pub heap_compactions: u64,
}

impl KernelPerf {
    /// Counter increments since `base` (which must be an earlier
    /// snapshot; each field saturates at zero otherwise).
    pub fn delta_since(&self, base: &KernelPerf) -> KernelPerf {
        KernelPerf {
            events: self.events.saturating_sub(base.events),
            kicks: self.kicks.saturating_sub(base.kicks),
            realloc_count: self.realloc_count.saturating_sub(base.realloc_count),
            realloc_nanos: self.realloc_nanos.saturating_sub(base.realloc_nanos),
            flows_visited: self.flows_visited.saturating_sub(base.flows_visited),
            heap_pushes: self.heap_pushes.saturating_sub(base.heap_pushes),
            rate_changes: self.rate_changes.saturating_sub(base.rate_changes),
            full_reallocs: self.full_reallocs.saturating_sub(base.full_reallocs),
            link_visits: self.link_visits.saturating_sub(base.link_visits),
            coalesced: self.coalesced.saturating_sub(base.coalesced),
            heap_compactions: self.heap_compactions.saturating_sub(base.heap_compactions),
        }
    }
}

/// Reads the current process-wide totals.
pub fn snapshot() -> KernelPerf {
    KernelPerf {
        events: EVENTS.load(Ordering::Relaxed),
        kicks: KICKS.load(Ordering::Relaxed),
        realloc_count: REALLOC_COUNT.load(Ordering::Relaxed),
        realloc_nanos: REALLOC_NANOS.load(Ordering::Relaxed),
        flows_visited: FLOWS_VISITED.load(Ordering::Relaxed),
        heap_pushes: HEAP_PUSHES.load(Ordering::Relaxed),
        rate_changes: RATE_CHANGES.load(Ordering::Relaxed),
        full_reallocs: FULL_REALLOCS.load(Ordering::Relaxed),
        link_visits: LINK_VISITS.load(Ordering::Relaxed),
        coalesced: COALESCED.load(Ordering::Relaxed),
        heap_compactions: HEAP_COMPACTIONS.load(Ordering::Relaxed),
    }
}

/// Folds one finished fabric's counters into the globals (called from
/// `Fabric::drop`).
pub(crate) fn record(d: KernelPerf) {
    EVENTS.fetch_add(d.events, Ordering::Relaxed);
    KICKS.fetch_add(d.kicks, Ordering::Relaxed);
    REALLOC_COUNT.fetch_add(d.realloc_count, Ordering::Relaxed);
    REALLOC_NANOS.fetch_add(d.realloc_nanos, Ordering::Relaxed);
    FLOWS_VISITED.fetch_add(d.flows_visited, Ordering::Relaxed);
    HEAP_PUSHES.fetch_add(d.heap_pushes, Ordering::Relaxed);
    RATE_CHANGES.fetch_add(d.rate_changes, Ordering::Relaxed);
    FULL_REALLOCS.fetch_add(d.full_reallocs, Ordering::Relaxed);
    LINK_VISITS.fetch_add(d.link_visits, Ordering::Relaxed);
    COALESCED.fetch_add(d.coalesced, Ordering::Relaxed);
    HEAP_COMPACTIONS.fetch_add(d.heap_compactions, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_per_field_difference() {
        let a = KernelPerf {
            events: 10,
            kicks: 5,
            realloc_count: 3,
            realloc_nanos: 1000,
            flows_visited: 7,
            heap_pushes: 9,
            rate_changes: 2,
            full_reallocs: 1,
            link_visits: 20,
            coalesced: 6,
            heap_compactions: 1,
        };
        let mut b = a;
        b.events += 90;
        b.realloc_count += 2;
        let d = b.delta_since(&a);
        assert_eq!(d.events, 90);
        assert_eq!(d.realloc_count, 2);
        assert_eq!(d.kicks, 0);
    }

    #[test]
    fn dropped_fabric_is_recorded() {
        use crate::{Fabric, FabricParams, NodeId, Transport, WrId};
        use simnet::{FlowNet, SimDuration, Topology};

        let before = snapshot();
        let mut net = FlowNet::new();
        let topo = Topology::flat(&mut net, 2, 100.0, SimDuration::from_micros(2));
        let mut fabric = Fabric::new(net, topo, FabricParams::default());
        let (qp0, qp1) = fabric.connect(NodeId(0), NodeId(1));
        fabric.post_recv(qp1, WrId(7), 1 << 20).unwrap();
        fabric.post_send(qp0, WrId(1), 1 << 20, 42, None).unwrap();
        while fabric.advance().is_some() {}
        drop(fabric);
        let d = snapshot().delta_since(&before);
        assert!(d.events > 0, "no events recorded");
        assert!(d.realloc_count > 0, "no reallocations recorded");
    }
}
