//! # sst — shared-state-table small-message multicast
//!
//! The comparator of the paper's §4.6: Derecho layers a *shared state
//! table* (SST) over one-sided RDMA writes, and multicasts small messages
//! by writing them straight into round-robin bounded buffers at every
//! receiver — no per-block handshakes, no relaying. That wins for small
//! messages in small groups (the paper reports up to ~5x over RDMC for
//! ≤ 16 members and ≤ 10 KB) and loses to the binomial pipeline beyond,
//! because the sender's NIC carries `n − 1` copies of every byte.
//!
//! [`SstTable`] is the shared state table itself — single-writer rows of
//! `u64` cells replicated by one-sided writes, read locally, driven by
//! monotone predicates (how Derecho layers stability tracking and commit
//! over RDMC) — and the one row-write codec: cells of the writer's own
//! row, no header, merged all or nothing. [`SstMulticast`] implements
//! the small-message protocol over any `verbs::Transport` (the simulated
//! verbs fabric by default);
//! [`small_message_rate`] is the one-call benchmark harness the
//! `sst_small_messages` bench sweeps against RDMC.
//!
//! [`ViewTracker`] layers the membership service the paper's §2.4
//! assumes over the same rows: epidemic failure-suspicion agreement and
//! monotone epoch installation, used by `rdmc-sim`'s recovery
//! orchestration to reconfigure wedged groups. `rdmc-sim`'s atomic
//! overlay keeps its per-sender stability frontiers on a plain
//! [`SstTable`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod membership;
mod multicast;
mod table;

pub use membership::{View, ViewTracker};
pub use multicast::{small_message_rate, SstMessageResult, SstMulticast};
pub use table::{RejectedWrite, SstTable};
