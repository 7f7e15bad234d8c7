//! Rack-aware hybrid schedule (paper §4.3 "Hybrid Algorithms"): run one
//! binomial pipeline among rack leaders over the (oversubscribed) TOR
//! layer, then parallel binomial pipelines inside each rack. Each block
//! crosses the TOR exactly once per remote rack, instead of the many
//! crossings a randomly-embedded hypercube incurs.

use std::collections::BTreeMap;

use crate::schedule::{GlobalSchedule, GlobalTransfer, ScheduleError};
use crate::types::{Algorithm, Rank};

use super::binomial;

/// Builds the hybrid schedule. `rack_of[rank]` assigns each member to a
/// rack; the lowest rank of each rack is its leader, so the root (rank 0)
/// always leads its own rack.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidShape`] if `rack_of.len() != n`.
pub fn build(n: u32, k: u32, rack_of: &[u32]) -> Result<GlobalSchedule, ScheduleError> {
    debug_assert!(n >= 2 && k >= 1);
    if rack_of.len() != n as usize {
        return Err(ScheduleError::InvalidShape {
            reason: "rack assignment must cover every rank".to_owned(),
        });
    }
    // Members by rack, ascending rank order within each rack.
    let mut racks: BTreeMap<u32, Vec<Rank>> = BTreeMap::new();
    for (rank, &rack) in rack_of.iter().enumerate() {
        racks.entry(rack).or_default().push(rank as Rank);
    }
    // Root's rack first, so the inter-rack pipeline is rooted at rank 0.
    let mut leaders: Vec<Rank> = vec![0];
    leaders.extend(racks.values().map(|members| members[0]).filter(|&l| l != 0));

    let mut steps: Vec<Vec<GlobalTransfer>> = Vec::new();
    // Phase 1: binomial pipeline among the leaders.
    if leaders.len() >= 2 {
        lay_pipeline(&mut steps, 0, &leaders, k);
    }
    // Phase 2: parallel binomial pipelines within each multi-member rack.
    let phase1_steps = steps.len();
    for members in racks.values().filter(|members| members.len() >= 2) {
        lay_pipeline(&mut steps, phase1_steps, members, k);
    }
    Ok(GlobalSchedule::from_steps(
        Algorithm::Hybrid {
            rack_of: rack_of.to_vec(),
        },
        n,
        k,
        steps,
    ))
}

/// Lays a binomial pipeline over `members` (its virtual rank `i` is
/// `members[i]`) into `steps`, starting at step `from`.
fn lay_pipeline(steps: &mut Vec<Vec<GlobalTransfer>>, from: usize, members: &[Rank], k: u32) {
    let pipeline = binomial::build(members.len() as u32, k);
    for j in 0..pipeline.num_steps() {
        let global = from + j as usize;
        if steps.len() <= global {
            steps.resize_with(global + 1, Vec::new);
        }
        steps[global].extend(pipeline.step(j).iter().map(|t| GlobalTransfer {
            from: members[t.from as usize],
            to: members[t.to as usize],
            block: t.block,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_racks(n: u32) -> Vec<u32> {
        (0..n).map(|r| if r < n / 2 { 0 } else { 1 }).collect()
    }

    #[test]
    fn validates_for_various_shapes() {
        for (n, racks) in [
            (8u32, two_racks(8)),
            (9, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]),
            (12, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]),
            (6, vec![0, 1, 2, 0, 1, 2]),
            (4, vec![0, 0, 0, 0]), // single rack: pure intra pipeline
            (5, vec![0, 1, 1, 1, 1]),
            // Five leaders: the inter phase needs shadow vertices.
            (10, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]),
        ] {
            for k in [1u32, 2, 3, 5, 6, 9] {
                let g = build(n, k, &racks).unwrap();
                g.validate()
                    .unwrap_or_else(|e| panic!("n={n} k={k} racks={racks:?}: {e}"));
            }
        }
    }

    #[test]
    fn each_block_crosses_rack_boundary_once_per_remote_rack() {
        let rack_of = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let g = build(8, 4, &rack_of).unwrap();
        for b in 0..4 {
            let crossings = (0..g.num_steps())
                .flat_map(|j| g.step(j).iter())
                .filter(|t| t.block == b && rack_of[t.from as usize] != rack_of[t.to as usize])
                .count();
            assert_eq!(crossings, 1, "block {b}");
        }
    }

    #[test]
    fn leaders_are_lowest_ranks() {
        let rack_of = vec![0, 1, 0, 1, 0, 1];
        let g = build(6, 2, &rack_of).unwrap();
        // Inter-rack transfers only ever involve ranks 0 and 1.
        for j in 0..g.num_steps() {
            for t in g.step(j) {
                if rack_of[t.from as usize] != rack_of[t.to as usize] {
                    assert!(t.from <= 1 && t.to <= 1, "cross-rack {t:?}");
                }
            }
        }
    }

    #[test]
    fn wrong_rack_assignment_length_is_an_error() {
        let err = build(4, 1, &[0, 0, 1]).unwrap_err();
        assert!(err.to_string().contains("cover every rank"), "{err}");
    }
}
