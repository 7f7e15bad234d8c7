//! # rdmc — Reliable RDMA Multicast for Large Objects
//!
//! A from-scratch Rust implementation of **RDMC** (Behrens, Jha, Birman,
//! Tremel — DSN 2018): reliable multicast built from reliable unicast
//! transfers. Messages are split into blocks and moved along a
//! deterministic, precomputed schedule; the flagship *binomial pipeline*
//! delivers a `k`-block message to `n` nodes in `log2(n) + k − 1`
//! block-times while keeping every NIC busy in both directions.
//!
//! This crate is transport-agnostic. It contains:
//!
//! - [`schedule`] — the four block-dissemination algorithms of §4.3
//!   (sequential, chain, binomial tree, binomial pipeline) plus the
//!   rack-aware hybrid, and the one validity rule every schedule is
//!   checked against (`validate` walks it from the root's holdings,
//!   `check_from` from any holdings, e.g. a resume's wedge-time ones).
//! - [`engine`] — the sans-IO per-member protocol state machine
//!   (ready-for-block gating, size discovery via immediates, failure
//!   wedging and relay).
//! - [`analysis`] — the paper's §4.4–4.5 closed forms (slack, slow-link
//!   bandwidth bound) and empirical cross-checks.
//!
//! Drivers live in sibling crates: the orchestration in `rdmc-sim` is
//! generic over the `verbs` `Transport` trait, so one driver runs the
//! engine over both simulated RDMA verbs and the real-TCP backend in
//! `rdmc-tcp` (the paper's §5.3 port).
//!
//! ## Example: planning and inspecting a schedule
//!
//! ```
//! use rdmc::schedule::GlobalSchedule;
//! use rdmc::Algorithm;
//!
//! // 16 nodes, 8 blocks: the binomial pipeline finishes in
//! // log2(16) + 8 - 1 = 11 steps.
//! let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, 16, 8);
//! g.validate()?;
//! assert_eq!(g.num_steps(), 11);
//! # Ok::<(), rdmc::schedule::Violation>(())
//! ```
//!
//! ## Example: driving an engine by hand
//!
//! ```
//! use std::sync::Arc;
//! use rdmc::engine::{Action, EngineConfig, Event, GroupEngine};
//! use rdmc::schedule::SchedulePlanner;
//! use rdmc::Algorithm;
//!
//! let planner = Arc::new(SchedulePlanner::new(Algorithm::BinomialPipeline));
//! let config = EngineConfig {
//!     rank: 0,
//!     num_nodes: 2,
//!     block_size: 1 << 20,
//!     ready_window: 2,
//!     max_outstanding_sends: 2,
//!     planner,
//! };
//! let (mut root, actions) = GroupEngine::new(config);
//! assert!(actions.is_empty()); // the root grants no credits
//!
//! // The app submits a 1-byte message; the send waits for the receiver's
//! // ready-for-block credit.
//! let actions = root.handle(Event::StartSend { size: 1 })?;
//! assert!(actions.is_empty());
//! let actions = root.handle(Event::ReadyReceived { from: 1 })?;
//! assert!(matches!(actions[0], Action::SendBlock { to: 1, block: 0, .. }));
//! # Ok::<(), rdmc::engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod rotation;
pub mod schedule;
mod types;

pub use types::{Algorithm, MessageLayout, Rank, Transfer};
