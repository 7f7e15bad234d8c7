//! Core vocabulary types shared across the RDMC library.

use std::fmt;

/// A member's position within an RDMC group. Rank 0 is always the root
/// (the only member allowed to send, §4.1).
pub type Rank = u32;

/// One block movement in a schedule: this rank exchanges `block` with
/// `peer` at some step.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Transfer {
    /// The other endpoint of the transfer.
    pub peer: Rank,
    /// Which block moves.
    pub block: u32,
}

/// The block-dissemination algorithms RDMC implements (§4.3), in the
/// paper's order of increasing effectiveness.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// Transmit the whole message to each receiver in turn — the pattern
    /// common in today's datacenters; creates a hot spot at the sender.
    Sequential,
    /// Bucket-brigade: each inner receiver relays blocks down a chain
    /// (cf. chain replication). Full bidirectional bandwidth, but high
    /// worst-case latency at the tail.
    Chain,
    /// Relay whole messages along a binomial tree: log-depth, but inner
    /// transfers cannot start until outer ones finish.
    BinomialTree,
    /// The paper's centerpiece: a binomial pipeline over a virtual
    /// hypercube (Ganesan & Seshadri), finishing in `log2(n) + k - 1`
    /// block-steps.
    BinomialPipeline,
    /// Two-level composition for rack-aware datacenters (§4.3 "Hybrid
    /// Algorithms"): a binomial pipeline among rack leaders, then binomial
    /// pipelines within each rack. `rack_of[rank]` assigns members to
    /// racks.
    Hybrid {
        /// Rack index of each rank; `rack_of.len()` must equal the group
        /// size when the schedule is built.
        rack_of: Vec<u32>,
    },
    /// An externally supplied schedule family (e.g. the MPI-style
    /// baselines in the `baselines` crate). Only usable through
    /// [`SchedulePlanner::from_fn`](crate::schedule::SchedulePlanner::from_fn);
    /// [`GlobalSchedule::build`](crate::schedule::GlobalSchedule::build)
    /// panics on it.
    Custom {
        /// Human-readable family name.
        name: String,
    },
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Sequential => write!(f, "sequential"),
            Algorithm::Chain => write!(f, "chain"),
            Algorithm::BinomialTree => write!(f, "binomial-tree"),
            Algorithm::BinomialPipeline => write!(f, "binomial-pipeline"),
            Algorithm::Hybrid { .. } => write!(f, "hybrid"),
            Algorithm::Custom { name } => write!(f, "{name}"),
        }
    }
}

/// Size bookkeeping for a message split into blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MessageLayout {
    /// Total message size in bytes.
    pub size: u64,
    /// Configured (full) block size in bytes.
    pub block_size: u64,
    /// Number of blocks, `ceil(size / block_size)`, at least 1.
    pub num_blocks: u32,
}

impl MessageLayout {
    /// Computes the layout of a `size`-byte message over `block_size`
    /// blocks. A zero-size message still occupies one (empty) block so the
    /// immediate-value size announcement has a carrier.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or the block count overflows `u32`.
    pub fn new(size: u64, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let num_blocks = if size == 0 {
            1
        } else {
            u32::try_from(size.div_ceil(block_size)).expect("message needs too many blocks")
        };
        MessageLayout {
            size,
            block_size,
            num_blocks,
        }
    }

    /// Size in bytes of block `b` (the final block may be short).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_bytes(&self, b: u32) -> u64 {
        assert!(b < self.num_blocks, "block {b} out of range");
        if b + 1 == self.num_blocks {
            self.size - u64::from(b) * self.block_size
        } else {
            self.block_size
        }
    }

    /// Byte offset of block `b` within the message.
    pub fn block_offset(&self, b: u32) -> u64 {
        assert!(b < self.num_blocks, "block {b} out of range");
        u64::from(b) * self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts_blocks() {
        let l = MessageLayout::new(10, 4);
        assert_eq!(l.num_blocks, 3);
        assert_eq!(l.block_bytes(0), 4);
        assert_eq!(l.block_bytes(1), 4);
        assert_eq!(l.block_bytes(2), 2);
        assert_eq!(l.block_offset(2), 8);
    }

    #[test]
    fn exact_multiple_has_full_last_block() {
        let l = MessageLayout::new(8, 4);
        assert_eq!(l.num_blocks, 2);
        assert_eq!(l.block_bytes(1), 4);
    }

    #[test]
    fn zero_size_message_is_one_empty_block() {
        let l = MessageLayout::new(0, 1024);
        assert_eq!(l.num_blocks, 1);
        assert_eq!(l.block_bytes(0), 0);
    }

    #[test]
    fn one_byte_message() {
        let l = MessageLayout::new(1, 1 << 20);
        assert_eq!(l.num_blocks, 1);
        assert_eq!(l.block_bytes(0), 1);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        MessageLayout::new(10, 0);
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::BinomialPipeline.to_string(), "binomial-pipeline");
        assert_eq!(
            Algorithm::Hybrid {
                rack_of: vec![0, 0]
            }
            .to_string(),
            "hybrid"
        );
    }
}
