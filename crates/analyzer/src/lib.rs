//! # analyzer — static analysis for the RDMC reproduction
//!
//! RDMC's correctness hinges on a property that is *statically decidable*:
//! block-transfer schedules are deterministic functions of
//! `(algorithm, n, k)`, so every invariant the paper relies on can be
//! proven ahead of time, without running the simulator. This crate is that
//! proof, in three layers, two static and one dynamic:
//!
//! - [`model`] — a schedule **model checker**: coverage (every rank gets
//!   every block exactly once), causality (no rank relays a block before
//!   holding it), per-step send/receive **port-conflict freedom** against
//!   the full-duplex NIC model of §4.3, no self-sends, and per-algorithm
//!   completion-step bounds — exact `ceil(log2 n) + k - 1` for the
//!   binomial pipeline. Violations come with a **minimal counterexample
//!   trace** (a backward causal slice of the schedule). The rule and its
//!   vocabulary live in `rdmc::schedule`; recovery resume schedules are
//!   the same check started from wedge-time holdings.
//! - [`deadlock`] — a **posting-order lint**: builds the wait-for graph
//!   between pre-posted receives and scheduled sends implied by the
//!   credit-gated protocol of §4.2 and flags any cycle (a static RNR
//!   deadlock: every send on the cycle waits for a receive that is posted
//!   only after that send lands). It also measures how exposed the same
//!   schedule would be *without* credit gating, cross-checked against the
//!   fabric's `rnr_retry_limit`.
//! - [`mod@explore`] — a stateless **model checker of executions**: drives
//!   a deterministic transport — the simulated fabric, or the production
//!   TCP datapath over in-process pipes — through alternative
//!   interleavings via a controlled scheduler, exhaustively, with dynamic
//!   partial-order reduction, or as a seeded random walk. Every explored
//!   execution must pass `Cluster::check_run` (an engine left busy at
//!   quiescence is a stuck state) and replay bit-for-bit (the audit that
//!   mechanically catches unordered-map iteration). Violations come back
//!   as minimal replayable counterexamples. Its seeded bugs
//!   ([`SeededBug`], module [`seeded`]) are injected by a transport
//!   decorator, so the checker is itself checked without test hooks in
//!   production code.
//!
//! [`sweep()`] runs all of these over an `(algorithm, n, k)` grid; the
//! `analyzer` binary (`cargo run -p analyzer -- --sweep`) drives it from
//! the command line and exits non-zero on any violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod explore;
pub mod model;
pub mod seeded;
pub mod sweep;

pub use deadlock::{lint_schedule, DeadlockReport};
pub use explore::{
    audit_replay, explore_executions, replay, Backend, Counterexample, ExecutionResult,
    ExploreConfig, ExploreReport, ExploreScenario, PointRecord, Strategy,
};
pub use model::{check_schedule, ModelReport};
pub use seeded::{Seeded, SeededBug};
pub use sweep::{sweep, SweepConfig, SweepReport};
