//! The binomial pipeline (paper §4.3–4.4).
//!
//! For `n = 2^l` nodes, the group is laid over a virtual hypercube of
//! dimension `l`. At step `j` every node exchanges a block with its
//! neighbour along direction `j % l`; the sender pushes block
//! `min(j, k−1)` while every other node forwards the highest-numbered
//! block it holds. A `k`-block message reaches everyone in `l + k − 1`
//! steps.
//!
//! This module implements the paper's closed-form send rule
//! ([`send_at_step`]) verbatim, and generalises it to arbitrary group
//! sizes with a *shadow-vertex* construction (see [`build`]): the schedule
//! runs on the `2^l`-vertex hypercube for `l = ceil(log2 n)`, and each
//! non-existent vertex `v ≥ n` is played by the real node `v − 2^(l−1)`.
//! Transfers between co-located vertices are free, and a real node only
//! accepts the *first* wire arrival of each block; both kinds of redundant
//! transfer are pruned when the schedule is built. The paper notes that in
//! the non-power-of-two case "the final receipt spreads over two
//! asynchronous steps" — the same effect appears here as (at most) two
//! transfers scheduled on one real node in one step.

use crate::schedule::{GlobalSchedule, GlobalTransfer};
use crate::types::{Algorithm, Rank, Transfer};

/// Right circular shift of the `l`-bit number `x` by `r` positions
/// (the paper's `σ(x, r)`).
///
/// # Panics
///
/// Panics if `x` does not fit in `l` bits or `l` is 0 or more than 31.
pub fn rotate_right(x: u32, r: u32, l: u32) -> u32 {
    assert!(
        (1..=31).contains(&l),
        "hypercube dimension out of range: {l}"
    );
    assert!(x < (1 << l), "{x} does not fit in {l} bits");
    let r = r % l;
    if r == 0 {
        x
    } else {
        ((x >> r) | (x << (l - r))) & ((1 << l) - 1)
    }
}

/// The paper's send rule: which transfer does node `i` initiate at step
/// `j`, in a group of `n = 2^l` nodes moving `k` blocks?
///
/// Returns `None` when the node sits idle (or would be sending to the
/// root, which already has everything). Steps run from `0` to
/// `l + k − 2` inclusive.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2, `i ≥ n`, `k == 0`, or `j` is
/// beyond the last step.
pub fn send_at_step(n: u32, i: Rank, j: u32, k: u32) -> Option<Transfer> {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "n must be a power of two >= 2"
    );
    assert!(i < n, "rank {i} out of range for n={n}");
    assert!(k >= 1, "k must be at least 1");
    let l = n.trailing_zeros();
    assert!(j <= l + k - 2, "step {j} beyond schedule end");
    let dir = j % l;
    let peer = i ^ (1 << dir);
    if i == 0 {
        return Some(Transfer {
            peer,
            block: j.min(k - 1),
        });
    }
    let s = rotate_right(i, dir, l);
    if s == 1 {
        // Our neighbour along this direction is the sender; nothing to give it.
        return None;
    }
    let r = s.trailing_zeros();
    // j − l + r ≥ 0, computed without going negative in unsigned math.
    if j + r >= l {
        Some(Transfer {
            peer,
            block: (j + r - l).min(k - 1),
        })
    } else {
        None
    }
}

/// Builds the global binomial-pipeline schedule for any group size
/// `n ≥ 2` (power of two or not) and `k ≥ 1` blocks.
pub fn build(n: u32, k: u32) -> GlobalSchedule {
    assert!(n >= 2, "binomial pipeline needs at least 2 nodes");
    assert!(k >= 1, "need at least one block");
    let l = 32 - (n - 1).leading_zeros(); // ceil(log2 n)
    let virt_n = 1u32 << l;
    let total_steps = l + k - 1;
    // real(v): which node plays virtual vertex v.
    let real = |v: u32| -> Rank {
        if v < n {
            v
        } else {
            v - virt_n / 2
        }
    };
    // Virtual receipt step of (vertex, block): replay the virtual schedule.
    // recv_step[v][b] = step at which vertex v receives block b; the root
    // vertex starts with everything.
    let mut recv_step = vec![vec![u32::MAX; k as usize]; virt_n as usize];
    let mut virtual_steps: Vec<Vec<(u32, u32, u32)>> = Vec::with_capacity(total_steps as usize);
    for j in 0..total_steps {
        let mut this_step = Vec::new();
        for v in 0..virt_n {
            if let Some(t) = send_at_step(virt_n, v, j, k) {
                // The virtual sender must hold the block (sanity of the
                // closed form; v == 0 always holds everything).
                debug_assert!(
                    v == 0 || recv_step[v as usize][t.block as usize] < j,
                    "vertex {v} sends block {} at step {j} before receiving it",
                    t.block
                );
                this_step.push((v, t.peer, t.block));
            }
        }
        for &(_, to, b) in &this_step {
            let slot = &mut recv_step[to as usize][b as usize];
            debug_assert_eq!(*slot, u32::MAX, "virtual duplicate receive");
            *slot = j;
        }
        virtual_steps.push(this_step);
    }
    // presence[r][b]: the step at which real node r first holds block b,
    // i.e. the earliest virtual receipt over the vertices it plays.
    let mut presence = vec![vec![u32::MAX; k as usize]; n as usize];
    for b in 0..k {
        presence[0][b as usize] = 0; // the root holds everything from the start
    }
    for v in 0..virt_n {
        let r = real(v) as usize;
        for b in 0..k as usize {
            let s = recv_step[v as usize][b];
            if s != u32::MAX && s < presence[r][b] && r != 0 {
                presence[r][b] = s;
            }
        }
    }
    // Emit the pruned real schedule: keep only the first wire delivery of
    // each (real node, block); drop co-located transfers. A real node's
    // first acquisition of a block is always over the wire (a co-located
    // source would mean the node held the block even earlier), so pruning
    // by first arrival is exact.
    let mut got = vec![vec![false; k as usize]; n as usize];
    let mut steps = Vec::with_capacity(total_steps as usize);
    for (j, this_step) in virtual_steps.iter().enumerate() {
        let mut emitted = Vec::new();
        for &(u, v, b) in this_step {
            let from = real(u);
            let to = real(v);
            if from == to || to == 0 {
                continue; // free co-located move, or aimed at the root
            }
            if got[to as usize][b as usize] {
                continue; // the node already took this block earlier
            }
            got[to as usize][b as usize] = true;
            debug_assert_eq!(
                presence[to as usize][b as usize], j as u32,
                "first wire arrival disagrees with presence computation"
            );
            debug_assert!(
                from == 0 || presence[from as usize][b as usize] < j as u32,
                "emitting a send of a block the sender does not yet hold"
            );
            emitted.push(GlobalTransfer { from, to, block: b });
        }
        steps.push(emitted);
    }
    GlobalSchedule::from_steps(Algorithm::BinomialPipeline, n, k, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::StepBound;

    #[test]
    fn rotate_right_matches_paper_sigma() {
        // σ of a 3-bit number.
        assert_eq!(rotate_right(0b001, 1, 3), 0b100);
        assert_eq!(rotate_right(0b110, 1, 3), 0b011);
        assert_eq!(rotate_right(0b110, 2, 3), 0b101);
        assert_eq!(rotate_right(0b110, 3, 3), 0b110); // full rotation
        assert_eq!(rotate_right(5, 0, 3), 5);
    }

    #[test]
    fn paper_example_n4_k2() {
        // Worked out by hand from the §4.4 send rule.
        // Step 0 (dir 0): only 0 -> 1 with block 0.
        assert_eq!(
            send_at_step(4, 0, 0, 2),
            Some(Transfer { peer: 1, block: 0 })
        );
        assert_eq!(send_at_step(4, 1, 0, 2), None);
        assert_eq!(send_at_step(4, 2, 0, 2), None);
        assert_eq!(send_at_step(4, 3, 0, 2), None);
        // Step 1 (dir 1): 0 -> 2 block 1; 1 -> 3 block 0.
        assert_eq!(
            send_at_step(4, 0, 1, 2),
            Some(Transfer { peer: 2, block: 1 })
        );
        assert_eq!(
            send_at_step(4, 1, 1, 2),
            Some(Transfer { peer: 3, block: 0 })
        );
        assert_eq!(send_at_step(4, 2, 1, 2), None);
        assert_eq!(send_at_step(4, 3, 1, 2), None);
        // Step 2 (dir 0): 0 -> 1 block 1; 2 <-> 3 exchange.
        assert_eq!(
            send_at_step(4, 0, 2, 2),
            Some(Transfer { peer: 1, block: 1 })
        );
        assert_eq!(send_at_step(4, 1, 2, 2), None); // neighbour is the root
        assert_eq!(
            send_at_step(4, 2, 2, 2),
            Some(Transfer { peer: 3, block: 1 })
        );
        assert_eq!(
            send_at_step(4, 3, 2, 2),
            Some(Transfer { peer: 2, block: 0 })
        );
    }

    #[test]
    fn one_block_degenerates_to_hypercube_flood() {
        // k=1, n=8: block 0 reaches everyone in exactly l = 3 steps.
        let g = build(8, 1);
        assert_eq!(g.num_steps(), 3);
        for rank in 1..8 {
            assert!(g.receive_step(rank, 0).is_some());
        }
    }

    #[test]
    fn power_of_two_completes_in_l_plus_k_minus_1() {
        for (n, k) in [(2u32, 1u32), (4, 3), (8, 5), (16, 2), (32, 7), (64, 4)] {
            let g = build(n, k);
            assert_eq!(
                StepBound::for_algorithm(&Algorithm::BinomialPipeline, n, k),
                StepBound::Exact(g.num_steps()),
                "n={n} k={k}"
            );
            g.validate().unwrap();
        }
    }

    #[test]
    fn power_of_two_has_at_most_one_send_and_recv_per_node_per_step() {
        for (n, k) in [(8u32, 4u32), (16, 6), (32, 3)] {
            let g = build(n, k);
            for j in 0..g.num_steps() {
                let mut senders = std::collections::BTreeSet::new();
                let mut receivers = std::collections::BTreeSet::new();
                for t in g.step(j) {
                    assert!(senders.insert(t.from), "n={n} k={k} step {j}: double send");
                    assert!(
                        receivers.insert(t.to),
                        "n={n} k={k} step {j}: double receive"
                    );
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_validates() {
        for n in [3u32, 5, 6, 7, 9, 11, 12, 13, 15, 17, 24, 33, 48, 63] {
            for k in [1u32, 2, 5, 8] {
                let g = build(n, k);
                g.validate().unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn non_power_of_two_spreads_final_receipt_over_two_steps_at_most() {
        // Each real node receives at most 2 blocks per step.
        for n in [5u32, 11, 23] {
            let g = build(n, 6);
            for j in 0..g.num_steps() {
                let mut per_node = std::collections::BTreeMap::new();
                for t in g.step(j) {
                    *per_node.entry(t.to).or_insert(0u32) += 1;
                }
                for (node, c) in per_node {
                    assert!(c <= 2, "n={n} step {j}: node {node} receives {c} blocks");
                }
            }
        }
    }

    #[test]
    fn first_sender_is_independent_of_block_count() {
        for n in [2u32, 3, 4, 6, 8, 12, 16, 31] {
            let base = build(n, 2);
            for k in [1u32, 3, 9] {
                let g = build(n, k);
                for rank in 1..n {
                    assert_eq!(
                        g.first_sender(rank),
                        base.first_sender(rank),
                        "n={n} k={k} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn send_rule_rejects_non_power_of_two() {
        send_at_step(6, 1, 0, 1);
    }

    #[test]
    fn large_power_of_two_sanity() {
        let g = build(128, 16);
        g.validate().unwrap();
        assert_eq!(g.num_steps(), 7 + 16 - 1);
    }
}
