//! One function per table/figure of the paper's evaluation (§5), each
//! returning the reproduced rows as formatted text, grouped by family:
//! the paper's figures, the repository's verification layers, the
//! beyond-the-paper sweeps, and datacenter scale. The `report` binary
//! prints them all. Everything here is virtual time or a count — no
//! function in this module tree reads a clock.

mod extensions;
mod figures;
mod scale;
mod verification;

pub use extensions::*;
pub use figures::*;
pub use scale::*;
pub use verification::*;

use rdmc::Algorithm;
use rdmc_sim::GroupSpec;

/// One mebibyte.
pub const MB: u64 = 1 << 20;

fn pipeline_group_spec(members: Vec<usize>, block_size: u64, algorithm: Algorithm) -> GroupSpec {
    GroupSpec {
        members,
        algorithm,
        block_size,
        ready_window: 3,
        max_outstanding_sends: 3,
    }
}
