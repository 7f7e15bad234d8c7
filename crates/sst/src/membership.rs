//! Membership views over the SST: epidemic failure agreement and epoch
//! installation (paper §2.4 and Derecho [9]).
//!
//! RDMC deliberately stops at the *wedge*: when a member detects a
//! failure it freezes the group and relays the notice, and §2.4 hands
//! the rest — agreeing on who failed, forming the next view, restarting
//! transfers — to an external membership service. This module is that
//! service, built the way Derecho builds it: over single-writer SST
//! rows and monotone predicates.
//!
//! Each member's row carries two cells: a **suspicion bitmask** (bit
//! `r` set = this member believes rank `r` failed) and an **installed
//! epoch**. Suspicions spread epidemically — every member unions every
//! row it can read into its own, so the masks grow monotonically and
//! converge even under cascading failures. A new view is *agreed* once
//! every unsuspected member publishes the identical mask: at that point
//! all survivors derive the same [`View`] (epoch, failed set, survivor
//! list) from purely local reads, install their new epoch, and the view
//! is *stable* once every survivor's installed-epoch cell catches up.
//!
//! The tracker is sans-IO like [`SstTable`] itself: membership
//! mutations return encoded row writes for the caller to replicate, and
//! a peer's write goes through the table's one decoder
//! ([`SstTable::merge_remote`]) under [`view_merge`], which refuses a
//! value no honest member publishes. `rdmc-sim` drives one per member of
//! every group to orchestrate recovery.

use std::collections::BTreeSet;

use crate::table::{RejectedWrite, SstTable};

/// Suspicion-bitmask column.
const COL_SUSPECT: u32 = 0;
/// Installed-epoch column.
const COL_EPOCH: u32 = 1;

/// The view cells' monotone merge in a group of `rows` members:
/// suspicion masks union and installed epochs take the max. It refuses
/// a mask bit at or above `rows`, which names no member, and an epoch at
/// or above `rows`, which no group reaches: every installed view removes
/// at least one member and keeps one, so a group of `rows` installs at
/// most `rows - 1` views (and `agreed_view`'s `+ 1` cannot overflow).
pub(crate) fn view_merge(rows: u32) -> impl Fn(u32, u64, u64) -> Option<u64> {
    let members = u64::MAX >> (64 - rows);
    move |col, old, val| match col {
        COL_SUSPECT => (val & !members == 0).then_some(old | val),
        _ => (val < u64::from(rows)).then_some(old.max(val)),
    }
}

/// An agreed membership view: the output of epidemic failure agreement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct View {
    /// Epoch number of this view (strictly increasing).
    pub epoch: u64,
    /// Ranks (in the *original* numbering) agreed to have failed.
    pub failed: BTreeSet<u32>,
    /// Surviving original ranks, ascending — the new epoch's rank order
    /// (new rank = index into this vector).
    pub members: Vec<u32>,
}

/// One member's membership tracker: an SST replica whose rows carry
/// suspicion masks and installed epochs.
///
/// # Examples
///
/// ```
/// use sst::ViewTracker;
///
/// let mut a = ViewTracker::new(0, 3);
/// let mut b = ViewTracker::new(1, 3);
/// // a suspects rank 2; the update replicates to b, which adopts it.
/// let up = a.suspect(2).expect("new suspicion");
/// let echo = b.apply_remote(0, &up).expect("a peer's cell");
/// let echo = echo.expect("b unions the suspicion in");
/// a.apply_remote(1, &echo).expect("a peer's cell");
/// // Both unsuspected members now publish identical masks: agreement.
/// let va = a.agreed_view().expect("a agrees");
/// let vb = b.agreed_view().expect("b agrees");
/// assert_eq!(va, vb);
/// assert_eq!(va.members, vec![0, 1]);
/// assert_eq!(va.epoch, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ViewTracker {
    table: SstTable,
}

impl ViewTracker {
    /// A tracker for rank `rank` in an initial view of `num_nodes`
    /// members, epoch 0, nobody suspected.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is 0 or exceeds 64 (masks are one `u64`
    /// cell), or if `rank` is out of range.
    pub fn new(rank: u32, num_nodes: u32) -> Self {
        assert!(num_nodes <= 64, "suspicion mask is a single u64 cell");
        ViewTracker {
            table: SstTable::new(rank, num_nodes, 2),
        }
    }

    /// This member's original rank.
    pub fn rank(&self) -> u32 {
        self.table.rank()
    }

    /// The epoch this member has installed.
    pub fn installed_epoch(&self) -> u64 {
        self.table.get(self.table.rank(), COL_EPOCH)
    }

    /// Ranks this member currently suspects (its own row's mask — the
    /// epidemic union of everything it has observed).
    pub fn suspected(&self) -> BTreeSet<u32> {
        let mask = self.table.get(self.table.rank(), COL_SUSPECT);
        (0..self.table.rows())
            .filter(|r| mask >> r & 1 == 1)
            .collect()
    }

    /// Records a local suspicion that `rank` failed. Returns the encoded
    /// row update to replicate to every peer, or `None` if `rank` was
    /// already suspected (masks are monotone; re-suspecting is a no-op).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or is this member itself.
    pub fn suspect(&mut self, rank: u32) -> Option<Vec<u8>> {
        assert!(rank < self.table.rows(), "rank outside the view");
        assert_ne!(rank, self.table.rank(), "cannot suspect ourselves");
        let me = self.table.rank();
        let mask = self.table.get(me, COL_SUSPECT);
        let grown = mask | 1 << rank;
        if grown == mask {
            return None;
        }
        Some(self.publish(COL_SUSPECT, grown))
    }

    /// Sets our own `col` to `val` and returns the one-cell row write.
    fn publish(&mut self, col: u32, val: u64) -> Vec<u8> {
        self.table.set_local(col, val);
        self.table.encode(&[col])
    }

    /// Applies a peer's row write and unions any new suspicions into
    /// our own row (the epidemic step). Returns our own row's update to
    /// re-relay when the union taught us something new — forwarding it
    /// is what makes agreement reach members the failed node partitioned
    /// from the original suspecter.
    ///
    /// Every cell is monotone (masks only grow, epochs only rise), so the
    /// write is *merged* rather than overwritten: a stale payload
    /// delivered out of order can never regress a row.
    ///
    /// # Errors
    ///
    /// [`RejectedWrite`] when the payload is not one or more cells of a
    /// peer's row, or carries a mask bit or an epoch at or above the
    /// group size ([`SstTable::merge_remote`]); nothing changes.
    pub fn apply_remote(
        &mut self,
        from_rank: u32,
        payload: &[u8],
    ) -> Result<Option<Vec<u8>>, RejectedWrite> {
        let merge = view_merge(self.table.rows());
        self.table.merge_remote(from_rank, payload, merge)?;
        let me = self.table.rank();
        let mine = self.table.get(me, COL_SUSPECT);
        let theirs = self.table.get(from_rank, COL_SUSPECT);
        let grown = mine | theirs;
        if grown == mine {
            return Ok(None);
        }
        Ok(Some(self.publish(COL_SUSPECT, grown)))
    }

    /// The agreed next view, if agreement has been reached: our mask is
    /// non-empty and every member we do *not* suspect publishes the
    /// identical mask. All survivors evaluate this predicate over local
    /// reads and derive byte-identical [`View`]s.
    pub fn agreed_view(&self) -> Option<View> {
        let me = self.table.rank();
        let mask = self.table.get(me, COL_SUSPECT);
        if mask == 0 || mask >> me & 1 == 1 {
            return None;
        }
        let survivors: Vec<u32> = (0..self.table.rows())
            .filter(|r| mask >> r & 1 == 0)
            .collect();
        if survivors
            .iter()
            .any(|&r| self.table.get(r, COL_SUSPECT) != mask)
        {
            return None;
        }
        // The next epoch outbids every epoch any survivor has installed,
        // so cascades (a second failure during recovery) keep advancing.
        let epoch = survivors
            .iter()
            .map(|&r| self.table.get(r, COL_EPOCH))
            .max()
            .expect("at least ourselves")
            + 1;
        Some(View {
            epoch,
            failed: (0..self.table.rows())
                .filter(|r| mask >> r & 1 == 1)
                .collect(),
            members: survivors,
        })
    }

    /// Publishes that this member installed `epoch`. Returns the encoded
    /// row update to replicate.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` would move our installed epoch backwards.
    pub fn install(&mut self, epoch: u64) -> Vec<u8> {
        assert!(
            epoch >= self.installed_epoch(),
            "epochs are monotone: cannot reinstall {epoch} over {}",
            self.installed_epoch()
        );
        self.publish(COL_EPOCH, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relays `payload` from `from` into every other live tracker,
    /// cascading any re-relay updates until quiescent — a synchronous
    /// stand-in for the fabric's epidemic spread.
    fn broadcast(trackers: &mut [Option<ViewTracker>], from: u32, payload: Vec<u8>) {
        let mut queue = vec![(from, payload)];
        while let Some((src, p)) = queue.pop() {
            for (i, slot) in trackers.iter_mut().enumerate() {
                if i as u32 == src {
                    continue;
                }
                let Some(t) = slot.as_mut() else {
                    continue;
                };
                if let Some(echo) = t.apply_remote(src, &p).expect("a peer's cell") {
                    queue.push((i as u32, echo));
                }
            }
        }
    }

    #[test]
    fn single_failure_reaches_agreement_everywhere() {
        let mut ts: Vec<Option<ViewTracker>> =
            (0..4).map(|r| Some(ViewTracker::new(r, 4))).collect();
        ts[2] = None; // rank 2 crashes
        let up = ts[1].as_mut().unwrap().suspect(2).unwrap();
        broadcast(&mut ts, 1, up);
        let expect = View {
            epoch: 1,
            failed: [2].into_iter().collect(),
            members: vec![0, 1, 3],
        };
        for t in ts.iter().flatten() {
            assert_eq!(t.agreed_view(), Some(expect.clone()), "rank {}", t.rank());
        }
    }

    #[test]
    fn no_agreement_until_suspicion_replicates() {
        let mut a = ViewTracker::new(0, 3);
        assert_eq!(a.agreed_view(), None, "empty mask is not a view change");
        a.suspect(2);
        // b's row still shows an empty mask: not agreed yet.
        assert_eq!(a.agreed_view(), None);
    }

    #[test]
    fn concurrent_suspicions_union_to_one_view() {
        // Ranks 0 and 3 independently suspect different members; the
        // epidemic union converges everyone on {1, 2} failed.
        let mut ts: Vec<Option<ViewTracker>> =
            (0..5).map(|r| Some(ViewTracker::new(r, 5))).collect();
        ts[1] = None;
        ts[2] = None;
        let up0 = ts[0].as_mut().unwrap().suspect(1).unwrap();
        let up3 = ts[3].as_mut().unwrap().suspect(2).unwrap();
        broadcast(&mut ts, 0, up0);
        broadcast(&mut ts, 3, up3);
        for t in ts.iter().flatten() {
            let v = t.agreed_view().expect("agreed");
            assert_eq!(v.failed, [1, 2].into_iter().collect());
            assert_eq!(v.members, vec![0, 3, 4]);
            assert_eq!(v.epoch, 1);
        }
    }

    #[test]
    fn cascading_failure_bumps_the_epoch_again() {
        let mut ts: Vec<Option<ViewTracker>> =
            (0..4).map(|r| Some(ViewTracker::new(r, 4))).collect();
        ts[3] = None;
        let up = ts[0].as_mut().unwrap().suspect(3).unwrap();
        broadcast(&mut ts, 0, up);
        let v1 = ts[0].as_ref().unwrap().agreed_view().unwrap();
        assert_eq!(v1.epoch, 1);
        // Everyone installs epoch 1 ...
        for r in [0u32, 1, 2] {
            let up = ts[r as usize].as_mut().unwrap().install(1);
            broadcast(&mut ts, r, up);
        }
        // ... then rank 1 dies during the new epoch.
        ts[1] = None;
        let up = ts[2].as_mut().unwrap().suspect(1).unwrap();
        broadcast(&mut ts, 2, up);
        let v2 = ts[0].as_ref().unwrap().agreed_view().unwrap();
        assert_eq!(v2.epoch, 2, "outbids the installed epoch");
        assert_eq!(v2.failed, [1, 3].into_iter().collect());
        assert_eq!(v2.members, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot suspect ourselves")]
    fn self_suspicion_is_rejected() {
        ViewTracker::new(1, 3).suspect(1);
    }

    #[test]
    fn resuspecting_is_a_monotone_no_op() {
        let mut t = ViewTracker::new(0, 3);
        assert!(t.suspect(1).is_some());
        assert!(t.suspect(1).is_none());
        assert_eq!(t.suspected(), [1].into_iter().collect());
    }

    /// A suspicion bit at or above the group size names no member. It
    /// used to merge and echo, after which agreement "removed" nobody.
    #[test]
    fn suspicion_of_a_rank_outside_the_group_is_rejected() {
        let mut b = ViewTracker::new(1, 3);
        let forged = SstTable::cell(COL_SUSPECT, 1 << 3 | 1 << 2);
        assert_eq!(b.apply_remote(0, &forged), Err(RejectedWrite::Malformed));
        assert!(b.suspected().is_empty());
        assert_eq!(b.agreed_view(), None);
    }

    /// An epoch no view change reaches is refused, so the next view's
    /// `+ 1` cannot overflow: it used to panic in debug and agree on
    /// epoch 0 in release. The largest honest epoch still merges.
    #[test]
    fn an_epoch_no_group_reaches_is_rejected() {
        let mut a = ViewTracker::new(0, 3);
        let mut b = ViewTracker::new(1, 3);
        let up = a.suspect(2).expect("new suspicion");
        let echo = b.apply_remote(0, &up).expect("a peer's cell");
        a.apply_remote(1, &echo.expect("b adopts it"))
            .expect("a peer's cell");
        let forged = a.apply_remote(1, &SstTable::cell(COL_EPOCH, u64::MAX));
        assert_eq!(a.agreed_view().map(|v| v.epoch), Some(1));
        assert_eq!(forged, Err(RejectedWrite::Malformed));
        let highest = a.apply_remote(1, &SstTable::cell(COL_EPOCH, 2));
        assert_eq!(highest, Ok(None));
        assert_eq!(a.agreed_view().map(|v| v.epoch), Some(3));
    }
}
