//! The verdict on a finished run, [`Cluster::check_run`]: what every run
//! must look like once its traffic has drained, on any transport.

use std::collections::BTreeSet;

use rdmc::{rotation, Rank};
use verbs::{NodeId, Transport};

use crate::atomic::{AtomicDelivery, SlotKind};
use crate::cluster::{Cluster, GroupId};

impl<T: Transport> Cluster<T> {
    /// Checks a finished run (call it once [`Cluster::run`] returns)
    /// against the rules below. A node is *live* until it crashes; a
    /// crashed node runs no software and owes nothing.
    ///
    /// 1. *quiescence*: every engine on a live node is idle and unwedged;
    /// 2. *rnr*: the transport never armed an RNR retry (§4.2);
    /// 3. *epoch*: per group, the live members run one epoch;
    /// 4. *all-or-nothing*: per group, each message is delivered at every
    ///    live member of the current view, or its record says a view
    ///    change abandoned it and it is delivered at none of them;
    /// 5. *atomic*: per atomic group, the live members' logs are identical
    ///    and strictly slot-increasing, every data slot is delivered or
    ///    ragged-trimmed but never both, no null slot is delivered, and a
    ///    delivered slot's RDMC message reached every live member;
    /// 6. *trace oracle*: with the flight recorder on, everything
    ///    [`Cluster::check_trace`] reports.
    ///
    /// # Errors
    ///
    /// Every violation found, each led by its rule's name.
    pub fn check_run(&self) -> Result<(), Vec<String>> {
        let arms = self.fabric.stats().rnr_arms;
        let mut out: Vec<String> = (arms > 0)
            .then(|| format!("rnr: the transport armed {arms} RNR retries"))
            .into_iter()
            .collect();
        for group in 0..self.groups.len() {
            self.check_group(group, &mut out);
        }
        self.check_atomic(&mut out);
        // A disabled recorder holds no events, so the oracle finds nothing.
        if let Err(errs) = self.check_trace() {
            out.extend(errs.into_iter().map(|e| format!("trace oracle: {e}")));
        }
        out.is_empty().then_some(()).ok_or(out)
    }

    /// Rules 1, 3 and 4 of [`Cluster::check_run`] for one group: the
    /// share of the verdict the close barrier certifies with.
    pub(crate) fn check_group(&self, gid: GroupId, out: &mut Vec<String>) {
        let g = &self.groups[gid];
        let live = || (0..g.engines.len()).filter(|&r| !self.fabric.is_crashed(g.node(r as Rank)));
        for r in live().filter(|&r| !g.engines[r].is_idle() || g.engines[r].is_wedged()) {
            out.push(format!("quiescence: group {gid} rank {r} busy or wedged"));
        }
        let epoch = |r: usize| g.engines[r].epoch();
        if live().map(epoch).min() != live().map(epoch).max() {
            let epochs: BTreeSet<u64> = live().map(epoch).collect();
            out.push(format!("epoch: group {gid} runs epochs {epochs:?}"));
        }
        for m in &g.results {
            let (i, gone) = (m.index, m.abandoned);
            // Live original ranks whose delivery contradicts the message's fate.
            let contradicts = |&o: &usize| m.delivered(o) == gone;
            let wrong: Vec<usize> = live().map(|r| g.orig_rank[r]).filter(contradicts).collect();
            if !wrong.is_empty() {
                let what =
                    ["missing deliveries at", "abandoned but delivered at"][usize::from(gone)];
                out.push(format!(
                    "all-or-nothing: group {gid} message {i} {what} {wrong:?}"
                ));
            }
        }
    }

    /// Rule 5 of [`Cluster::check_run`], for every atomic group.
    fn check_atomic(&self, out: &mut Vec<String>) {
        for (ag, a) in self.atomic.groups.iter().enumerate() {
            let up = |&m: &usize| !self.fabric.is_crashed(NodeId(a.nodes[m] as u32));
            let view = self.atomic_live_members(ag);
            let live: Vec<usize> = view.into_iter().filter(up).collect();
            let Some(&first) = live.first() else {
                continue;
            };
            let key = |d: &AtomicDelivery| (d.slot, d.sender, d.seq, d.size);
            let order = |m: usize| a.members[m].log.iter().map(key);
            for m in live.iter().filter(|&&m| !order(m).eq(order(first))) {
                out.push(format!("atomic: group {ag} logs at {first}, {m} differ"));
            }
            let log = &a.members[first].log;
            if log.windows(2).any(|w| w[0].slot >= w[1].slot) {
                out.push(format!("atomic: group {ag} log not slot-increasing"));
            }
            let delivered: BTreeSet<u64> = log.iter().map(|d| d.slot).collect();
            for (s, slot) in a.slots.iter().enumerate() {
                let data = matches!(slot.kind, SlotKind::Data { .. });
                let what = match (data, delivered.contains(&(s as u64)), slot.trimmed) {
                    (false, true, _) => "a null, delivered",
                    (true, true, true) => "delivered and trimmed",
                    (true, false, false) => "neither delivered nor trimmed",
                    _ => continue,
                };
                out.push(format!("atomic: group {ag} slot {s} is {what}"));
            }
            for d in log {
                let at = self.result(d.message).expect("recorded");
                let rank = |m| rotation::rotated_rank(m, d.sender as usize, a.nodes.len()) as usize;
                let lack = |&&m: &&usize| !at.delivered(rank(m));
                let slot = d.slot;
                for m in live.iter().filter(lack) {
                    out.push(format!("atomic: group {ag} slot {slot} missing at {m}"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rdmc::Algorithm;
    use simnet::SimTime;

    use crate::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, SimCluster};

    /// A finished run on seven nodes: one rotation on an atomic group
    /// over nodes 0..3 (subgroups 0-2), and a plain group over nodes 3..7
    /// (group 3) whose root dies before its first message leaves, so that
    /// message is abandoned, and whose next root then sends a second.
    fn finished() -> SimCluster {
        let spec = |members| GroupSpec {
            members,
            algorithm: Algorithm::BinomialPipeline,
            block_size: 1 << 16,
            ready_window: 2,
            max_outstanding_sends: 2,
        };
        let mut c = ClusterBuilder::new(ClusterSpec::fractus(7))
            .recovery(RecoveryConfig::default())
            .flight_recorder()
            .atomic(spec(vec![0, 1, 2]))
            .build();
        let group = c.create_group(spec(vec![3, 4, 5, 6]));
        c.crash_after_events(3, 0);
        c.submit_send(group, 4 << 16);
        for _ in 0..3 {
            c.submit_atomic(0, 1 << 16);
        }
        c.run();
        c.submit_send(group, 1 << 16);
        c.run();
        c
    }

    /// Each violation seeded on a finished, clean run is named: a
    /// verdict that always answers `Ok` fails here.
    #[test]
    fn each_seeded_violation_is_named() {
        let names = [
            "group 3 message 1 missing deliveries at [2]",
            "group 3 message 0 abandoned but delivered at [2]",
            "slot 1 is delivered and trimmed",
            "logs at 0, 2 differ",
            "slot 1 missing at 0",
        ];
        for (seed, name) in names.into_iter().enumerate() {
            let mut c = finished();
            assert_eq!(c.check_run(), Ok(()), "{name}: before the seed");
            match seed {
                // Message 1 went out after rank 0's eviction and message 0
                // was abandoned: both are unfinished and keep their stamps.
                0 => c.groups[3].results[1].stamps.as_mut().expect("unfinished")[2] = None,
                1 => {
                    c.groups[3].results[0].stamps.as_mut().expect("abandoned")[2] =
                        Some(SimTime::ZERO)
                }
                2 => c.atomic.groups[0].slots[1].trimmed = true,
                3 => c.atomic.groups[0].members[2].log.truncate(2),
                // Slot 1 is member 1's; rank 2 of its subgroup is member 0.
                // The record completed, so it is re-expanded with rank 2 unset.
                _ => {
                    let r = &mut c.groups[1].results[0];
                    let mut stamps = vec![r.completed.take(); 3];
                    stamps[2] = None;
                    r.stamps = Some(stamps.into());
                }
            }
            let errs = c.check_run().expect_err(name);
            assert!(errs.iter().any(|e| e.contains(name)), "{name}: {errs:?}");
        }
    }
}
