//! Rack-aware hybrid schedule (paper §4.3 "Hybrid Algorithms"): run one
//! binomial pipeline among rack leaders over the (oversubscribed) TOR
//! layer, then parallel binomial pipelines inside each rack. Each block
//! crosses the TOR exactly once per remote rack, instead of the many
//! crossings a randomly-embedded hypercube incurs.

use crate::schedule::{GlobalSchedule, GlobalTransfer, ScheduleError};
use crate::types::{Algorithm, Rank};

use super::binomial;

/// Groups members by rack (ascending rank order per rack) and returns the
/// rack map plus the leader list, root's rack first so the inter-rack
/// pipeline is rooted at rank 0.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidShape`] if the rack assignment does
/// not cover every rank.
#[allow(clippy::type_complexity)]
fn rack_layout(
    n: u32,
    rack_of: &[u32],
) -> Result<(std::collections::BTreeMap<u32, Vec<Rank>>, Vec<Rank>), ScheduleError> {
    if rack_of.len() != n as usize {
        return Err(ScheduleError::InvalidShape {
            reason: "rack assignment must cover every rank".to_owned(),
        });
    }
    let mut racks: std::collections::BTreeMap<u32, Vec<Rank>> = std::collections::BTreeMap::new();
    for (rank, &rack) in rack_of.iter().enumerate() {
        racks.entry(rack).or_default().push(rank as Rank);
    }
    let root_rack = rack_of[0];
    let mut leaders: Vec<Rank> = Vec::with_capacity(racks.len());
    leaders.push(racks[&root_rack][0]);
    debug_assert_eq!(leaders[0], 0, "rank 0 must lead its rack");
    for (&rack, members) in &racks {
        if rack != root_rack {
            leaders.push(members[0]);
        }
    }
    Ok((racks, leaders))
}

/// Builds the hybrid schedule. `rack_of[rank]` assigns each member to a
/// rack; the lowest rank of each rack is its leader, so the root (rank 0)
/// always leads its own rack.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidShape`] if `rack_of.len() != n`.
pub fn build(n: u32, k: u32, rack_of: &[u32]) -> Result<GlobalSchedule, ScheduleError> {
    debug_assert!(n >= 2 && k >= 1);
    let (racks, leaders) = rack_layout(n, rack_of)?;

    let mut steps: Vec<Vec<GlobalTransfer>> = Vec::new();
    // Phase 1: binomial pipeline among the leaders.
    if leaders.len() >= 2 {
        let inter = binomial::build(leaders.len() as u32, k);
        for j in 0..inter.num_steps() {
            steps.push(
                inter
                    .step(j)
                    .iter()
                    .map(|t| GlobalTransfer {
                        from: leaders[t.from as usize],
                        to: leaders[t.to as usize],
                        block: t.block,
                    })
                    .collect(),
            );
        }
    }
    // Phase 2: parallel binomial pipelines within each multi-member rack.
    let phase1_steps = steps.len();
    let mut phase2_steps = 0usize;
    for members in racks.values() {
        if members.len() < 2 {
            continue;
        }
        let intra = binomial::build(members.len() as u32, k);
        phase2_steps = phase2_steps.max(intra.num_steps() as usize);
        for j in 0..intra.num_steps() {
            let global_step = phase1_steps + j as usize;
            if steps.len() <= global_step {
                steps.resize_with(global_step + 1, Vec::new);
            }
            steps[global_step].extend(intra.step(j).iter().map(|t| GlobalTransfer {
                from: members[t.from as usize],
                to: members[t.to as usize],
                block: t.block,
            }));
        }
    }
    let _ = phase2_steps;
    Ok(GlobalSchedule::from_steps(
        Algorithm::Hybrid {
            rack_of: rack_of.to_vec(),
        },
        n,
        k,
        steps,
    ))
}

/// Builds the *pipelined* hybrid schedule: instead of waiting for the
/// whole inter-rack phase to finish, each rack starts its internal
/// dissemination as soon as its leader holds a first block, relaying
/// blocks in the leader's *arrival order*.
///
/// The construction: run the inter-rack binomial pipeline among leaders;
/// for each rack, record the order in which its leader acquires blocks;
/// lay an intra-rack binomial pipeline over the *positions* of that order
/// (position `i` = the leader's `i`-th block), offset so intra-rack step
/// `i` happens strictly after the leader's `i`-th arrival. Because the
/// binomial pipeline delivers its receivers one new block per step after
/// warm-up, position `i` is always in hand by intra step `i` — the
/// schedule validates under the standard invariants.
///
/// This removes the sequential-phase latency of [`build`]: total steps
/// drop from `steps_inter + steps_intra` to roughly
/// `max(steps_inter, warmup_inter + steps_intra)`.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidShape`] if `rack_of.len() != n`.
pub fn build_pipelined(n: u32, k: u32, rack_of: &[u32]) -> Result<GlobalSchedule, ScheduleError> {
    debug_assert!(n >= 2 && k >= 1);
    let (racks, leaders) = rack_layout(n, rack_of)?;
    let root_rack = rack_of[0];

    let mut steps: Vec<Vec<GlobalTransfer>> = Vec::new();
    let ensure_step = |steps: &mut Vec<Vec<GlobalTransfer>>, j: usize| {
        if steps.len() <= j {
            steps.resize_with(j + 1, Vec::new);
        }
    };
    // Phase 1 (runs throughout): the inter-rack pipeline among leaders.
    let inter = if leaders.len() >= 2 {
        Some(binomial::build(leaders.len() as u32, k))
    } else {
        None
    };
    if let Some(inter) = &inter {
        for j in 0..inter.num_steps() {
            ensure_step(&mut steps, j as usize);
            steps[j as usize].extend(inter.step(j).iter().map(|t| GlobalTransfer {
                from: leaders[t.from as usize],
                to: leaders[t.to as usize],
                block: t.block,
            }));
        }
    }
    // Phase 2 (overlapped): each rack relays its leader's blocks in
    // arrival order, offset past the leader's first arrival.
    for (&rack, members) in &racks {
        if members.len() < 2 {
            continue;
        }
        let leader = members[0];
        // The leader's block arrival order and first-arrival step.
        let (arrival_order, intra_offset): (Vec<u32>, u32) = if rack == root_rack {
            // The root holds everything from step 0 in numeric order.
            ((0..k).collect(), 0)
        } else {
            let inter = inter.as_ref().ok_or_else(|| ScheduleError::InvalidShape {
                reason: "a non-root rack exists but there is only one rack leader".to_owned(),
            })?;
            let virt = leaders.iter().position(|&l| l == leader).ok_or_else(|| {
                ScheduleError::InvalidShape {
                    reason: format!("rack leader {leader} missing from the leader list"),
                }
            })? as Rank;
            let mut arrivals: Vec<(u32, u32)> = Vec::with_capacity(k as usize);
            for b in 0..k {
                // A leader the inter-rack schedule never serves cannot
                // relay: refuse the shape, naming the missing delivery.
                let s = inter
                    .receive_step(virt, b)
                    .ok_or_else(|| ScheduleError::InvalidShape {
                        reason: format!("rank {virt} never receives block {b}"),
                    })?;
                arrivals.push((s, b));
            }
            arrivals.sort_unstable();
            // Valid offset: intra step i must land strictly after the
            // leader's i-th arrival. For power-of-two leader counts the
            // arrivals are consecutive and this is `first + 1`; the
            // shadow-vertex generalisation can bunch arrivals, so take
            // the worst position.
            let off = arrivals
                .iter()
                .enumerate()
                .map(|(i, &(s, _))| s as i64 - i as i64)
                .max()
                .unwrap_or(-1)
                + 1;
            let offset = u32::try_from(off.max(0)).map_err(|_| ScheduleError::InvalidShape {
                reason: format!("intra-rack offset {off} overflows the step counter"),
            })?;
            (arrivals.into_iter().map(|(_, b)| b).collect(), offset)
        };
        let intra = binomial::build(members.len() as u32, k);
        let offset = if rack == root_rack { 0 } else { intra_offset };
        for j in 0..intra.num_steps() {
            let global = (offset + j) as usize;
            ensure_step(&mut steps, global);
            steps[global].extend(intra.step(j).iter().map(|t| GlobalTransfer {
                from: members[t.from as usize],
                to: members[t.to as usize],
                block: arrival_order[t.block as usize],
            }));
        }
    }
    Ok(GlobalSchedule::from_steps(
        Algorithm::HybridPipelined {
            rack_of: rack_of.to_vec(),
        },
        n,
        k,
        steps,
    ))
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
            (6, vec![0, 1, 2, 0, 1, 2]),
            (4, vec![0, 0, 0, 0]), // single rack: pure intra pipeline
            (5, vec![0, 1, 1, 1, 1]),
        ] {
            for k in [1u32, 3, 6] {
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
        let err = build_pipelined(4, 1, &[0, 0, 1]).unwrap_err();
        assert!(err.to_string().contains("cover every rank"), "{err}");
    }

    #[test]
    fn pipelined_variant_validates_for_various_shapes() {
        for (n, racks) in [
            (8u32, two_racks(8)),
            (9, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]),
            (12, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]),
            (6, vec![0, 1, 2, 0, 1, 2]),
            (4, vec![0, 0, 0, 0]),
            (5, vec![0, 1, 1, 1, 1]),
            // Non-power-of-two leader counts exercise the shadow offset.
            (10, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]),
        ] {
            for k in [1u32, 2, 5, 9] {
                let g = build_pipelined(n, k, &racks).unwrap();
                g.validate()
                    .unwrap_or_else(|e| panic!("n={n} k={k} racks={racks:?}: {e}"));
            }
        }
    }

    #[test]
    fn pipelined_variant_finishes_in_fewer_steps() {
        let rack_of = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3];
        for k in [4u32, 16, 64] {
            let phased = build(16, k, &rack_of).unwrap();
            let pipelined = build_pipelined(16, k, &rack_of).unwrap();
            assert!(
                pipelined.num_steps() < phased.num_steps(),
                "k={k}: pipelined {} vs phased {}",
                pipelined.num_steps(),
                phased.num_steps()
            );
        }
    }

    #[test]
    fn pipelined_variant_still_crosses_racks_once_per_block() {
        let rack_of = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let g = build_pipelined(8, 6, &rack_of).unwrap();
        for b in 0..6 {
            let crossings = (0..g.num_steps())
                .flat_map(|j| g.step(j).iter())
                .filter(|t| t.block == b && rack_of[t.from as usize] != rack_of[t.to as usize])
                .count();
            assert_eq!(crossings, 1, "block {b}");
        }
    }
}
