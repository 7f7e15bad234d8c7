//! Sender-rotation arithmetic for multi-sender (atomic) groups.
//!
//! RDMC groups have a single sender: rank 0 (§4.1). Derecho builds its
//! atomic multicast on top by creating **one RDMC subgroup per sender**,
//! each with the member list rotated so that sender sits at rank 0 —
//! exactly the `rotated_members[j] = members[(i + j) % num_nodes]`
//! pattern of the reference `rdmc_bw_test` harnesses. Message slots
//! then rotate round-robin through the members, giving every message a
//! deterministic total-order position.
//!
//! These helpers are pure index arithmetic, shared by the simulator's
//! delivery engine and its tests so the two cannot disagree about
//! where a member sits in a rotated subgroup.

use crate::Rank;

/// The member list of sender `sender`'s subgroup: `members` rotated
/// left so `members[sender]` is first (rank 0, the subgroup's root).
///
/// # Panics
///
/// Panics if `members` is empty or `sender` is out of range.
#[must_use]
pub fn rotated_members<T: Copy>(members: &[T], sender: usize) -> Vec<T> {
    assert!(!members.is_empty(), "empty group");
    assert!(sender < members.len(), "sender {sender} out of range");
    (0..members.len())
        .map(|i| members[(sender + i) % members.len()])
        .collect()
}

/// Member `member`'s rank inside sender `sender`'s rotated subgroup
/// (the inverse of [`rotated_members`]: rank 0 is the sender itself).
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn rotated_rank(member: usize, sender: usize, num_members: usize) -> Rank {
    assert!(member < num_members && sender < num_members, "out of range");
    ((member + num_members - sender) % num_members) as Rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_matches_the_bw_test_idiom() {
        let members = [10usize, 11, 12, 13];
        assert_eq!(rotated_members(&members, 0), vec![10, 11, 12, 13]);
        assert_eq!(rotated_members(&members, 1), vec![11, 12, 13, 10]);
        assert_eq!(rotated_members(&members, 3), vec![13, 10, 11, 12]);
    }

    #[test]
    fn every_member_roots_exactly_one_subgroup() {
        let members: Vec<usize> = (0..5).collect();
        for j in 0..5 {
            let rot = rotated_members(&members, j);
            assert_eq!(rot[0], members[j], "sender {j} must sit at rank 0");
            let mut sorted = rot.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, members, "rotation must be a permutation");
        }
    }

    #[test]
    fn rotated_rank_inverts_rotated_members() {
        let n = 6usize;
        let members: Vec<usize> = (0..n).collect();
        for sender in 0..n {
            let rot = rotated_members(&members, sender);
            for (rank, &m) in rot.iter().enumerate() {
                assert_eq!(
                    rotated_rank(m, sender, n),
                    rank as Rank,
                    "member {m} in subgroup {sender}"
                );
            }
        }
    }
}
