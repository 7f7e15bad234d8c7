//! # baselines — comparator broadcast algorithms
//!
//! The RDMC paper evaluates against the heavily optimised `MPI_Bcast` of
//! MVAPICH (Fig. 4) and against the one-copy-at-a-time pattern common in
//! datacenter middleware (Figs. 4, 8, 9). This crate supplies those
//! comparators as schedules that run through the *same* protocol engine
//! and simulated fabric as RDMC itself:
//!
//! - [`mvapich_bcast`] — binomial tree for small messages, Van de Geijn
//!   binomial-scatter + ring-allgather for large ones (what MVAPICH
//!   actually does).
//! - The naive sequential baseline is RDMC's own
//!   [`Algorithm::Sequential`](rdmc::Algorithm::Sequential) schedule.
//!
//! ## Example
//!
//! ```
//! use baselines::{mvapich_planner, run_mvapich_multicast};
//! use rdmc_sim::ClusterSpec;
//!
//! // One 8 MB MVAPICH-style broadcast to 4 Fractus nodes, 1 MB blocks.
//! let outcome = run_mvapich_multicast(&ClusterSpec::fractus(4), 4, 8 << 20, 1 << 20);
//! assert!(outcome.bandwidth_gbps > 1.0);
//! # let _ = mvapich_planner(8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mpi;

pub use mpi::{mvapich_bcast, scatter_ring_allgather, total_block_sends, uses_scatter};

use std::sync::Arc;

use rdmc::schedule::SchedulePlanner;
use rdmc::MessageLayout;
use rdmc_sim::{run_planned_multicast, ClusterSpec, MulticastOutcome};

/// A planner serving MVAPICH-style broadcast schedules. `probe_k` must be
/// the block count the group's messages will use (MPI knows transfer
/// sizes in advance — paper §6 — so this is fair).
pub fn mvapich_planner(probe_k: u32) -> Arc<SchedulePlanner> {
    Arc::new(SchedulePlanner::from_fn("mvapich", probe_k, |n, k| {
        mvapich_bcast(n, k)
    }))
}

/// Runs one MVAPICH-style broadcast on a simulated cluster and reports
/// latency/bandwidth: [`rdmc_sim::run_planned_multicast`] with
/// [`mvapich_planner`].
///
/// # Panics
///
/// Panics if the group exceeds the cluster or the broadcast fails to
/// complete.
pub fn run_mvapich_multicast(
    spec: &ClusterSpec,
    group_size: usize,
    size: u64,
    block_size: u64,
) -> MulticastOutcome {
    let k = MessageLayout::new(size, block_size).num_blocks;
    let label = rdmc::Algorithm::Custom {
        name: "mvapich".to_owned(),
    };
    let planner = mvapich_planner(k);
    run_planned_multicast(spec, group_size, label, planner, size, block_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdmc::Algorithm;
    use rdmc_sim::run_single_multicast;

    const MB: u64 = 1 << 20;

    #[test]
    fn mvapich_completes_on_the_fabric() {
        let spec = ClusterSpec::fractus(8);
        for n in [2usize, 3, 4, 5, 8] {
            let out = run_mvapich_multicast(&spec, n, 16 * MB, MB);
            assert!(out.bandwidth_gbps > 1.0, "n={n}: {}", out.bandwidth_gbps);
        }
    }

    #[test]
    fn mvapich_lands_between_sequential_and_pipeline() {
        // Fig. 4's ordering: sequential slowest, MVAPICH in between
        // (1.03x-3x of binomial pipeline latency), pipeline fastest.
        let spec = ClusterSpec::fractus(16);
        let size = 64 * MB;
        let seq = run_single_multicast(&spec, 16, Algorithm::Sequential, size, MB);
        let pipe = run_single_multicast(&spec, 16, Algorithm::BinomialPipeline, size, MB);
        let mpi = run_mvapich_multicast(&spec, 16, size, MB);
        assert!(
            mpi.latency < seq.latency,
            "MVAPICH {} should beat sequential {}",
            mpi.latency,
            seq.latency
        );
        let ratio = mpi.latency.as_secs_f64() / pipe.latency.as_secs_f64();
        assert!(
            (1.0..=4.0).contains(&ratio),
            "MVAPICH/pipeline latency ratio {ratio} out of the paper's ballpark"
        );
    }

    #[test]
    fn mvapich_small_message_path_works_end_to_end() {
        // 3 blocks to 8 ranks: tree regime.
        let spec = ClusterSpec::fractus(8);
        let out = run_mvapich_multicast(&spec, 8, 3 * MB, MB);
        assert!(out.bandwidth_gbps > 1.0);
    }
}
