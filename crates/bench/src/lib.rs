//! # rdmc-bench — the paper's evaluation, regenerated
//!
//! One function per table and figure of the RDMC paper's §5 (see
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record). The `report` binary prints every experiment as a text table
//! in virtual time; host speed is measured by `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod parallel;
pub mod table;

pub use experiments::MB;
pub use parallel::par_map;
