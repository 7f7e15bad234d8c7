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
//! mutations return encoded row updates for the caller to replicate,
//! applied at peers via [`ViewTracker::apply_remote`]; frontier advances
//! are encoded on demand ([`ViewTracker::frontier_cells`]), so a caller
//! can send several columns as one row write, applied via
//! [`ViewTracker::apply_remote_cells`]. `rdmc-sim` drives one per
//! simulated node to orchestrate recovery.

use std::collections::BTreeSet;

use crate::table::{RejectedWrite, SstTable};

/// Suspicion-bitmask column.
const COL_SUSPECT: u32 = 0;
/// Installed-epoch column.
const COL_EPOCH: u32 = 1;
/// First per-sender stability-frontier column (one per sender when the
/// tracker is built with [`ViewTracker::with_frontiers`]).
const COL_FRONTIER_BASE: u32 = 2;

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

    /// Like [`ViewTracker::new`], but each row additionally carries
    /// `senders` **stability-frontier** cells: column `2 + j` of row `r`
    /// holds how many of sender `j`'s message slots member `r` has
    /// received (counted gaplessly from slot 0). Frontiers are monotone
    /// counters merged by `max`, exactly as Derecho's SST uses them —
    /// the min over live rows is the stability frontier that gates
    /// atomic delivery.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ViewTracker::new`].
    pub fn with_frontiers(rank: u32, num_nodes: u32, senders: u32) -> Self {
        assert!(num_nodes <= 64, "suspicion mask is a single u64 cell");
        ViewTracker {
            table: SstTable::new(rank, num_nodes, 2 + senders),
        }
    }

    /// Number of per-sender frontier columns this tracker carries
    /// (zero when built with [`ViewTracker::new`]).
    pub fn num_senders(&self) -> u32 {
        self.table.columns() - COL_FRONTIER_BASE
    }

    /// Raises our own received-frontier for `sender` to `count`.
    /// Returns `false` if the frontier already stood at `count` or
    /// beyond (frontiers are monotone; a stale advance is a no-op).
    /// Nothing is encoded: the caller replicates whenever it chooses,
    /// with [`ViewTracker::frontier_cells`].
    ///
    /// # Panics
    ///
    /// Panics if `sender` has no frontier column.
    pub fn advance_frontier(&mut self, sender: u32, count: u64) -> bool {
        assert!(
            sender < self.num_senders(),
            "sender {sender} has no frontier"
        );
        let me = self.table.rank();
        if self.table.get(me, COL_FRONTIER_BASE + sender) >= count {
            return false;
        }
        self.table.set_local(COL_FRONTIER_BASE + sender, count);
        true
    }

    /// Our own row's current frontier cells for `senders`, encoded back
    /// to back in the order given (`col: u32 LE`, `val: u64 LE` each) —
    /// the payload a peer merges with [`ViewTracker::apply_remote_cells`].
    ///
    /// # Panics
    ///
    /// Panics if a sender has no frontier column.
    pub fn frontier_cells(&self, senders: &[u32]) -> Vec<u8> {
        let me = self.table.rank();
        let mut cells = Vec::with_capacity(12 * senders.len());
        for &s in senders {
            cells.extend_from_slice(&(COL_FRONTIER_BASE + s).to_le_bytes());
            cells.extend_from_slice(&self.frontier(me, s).to_le_bytes());
        }
        cells
    }

    /// Max-merges a peer's batch of frontier cells (one or more 12-byte
    /// cells, as [`ViewTracker::frontier_cells`] encodes them) into its
    /// row — all or nothing: every cell is checked before any merges.
    ///
    /// # Errors
    ///
    /// [`RejectedWrite`] when the payload is empty or not a whole
    /// number of cells, `from_rank` is not a peer's row, or any cell's
    /// column is not a frontier column (the suspicion and epoch cells
    /// travel through [`ViewTracker::apply_remote`]); nothing changes.
    pub fn apply_remote_cells(
        &mut self,
        from_rank: u32,
        cells: &[u8],
    ) -> Result<(), RejectedWrite> {
        if cells.is_empty() || !cells.len().is_multiple_of(12) {
            return Err(RejectedWrite::Malformed);
        }
        if from_rank >= self.table.rows() || from_rank == self.table.rank() {
            return Err(RejectedWrite::NotAPeerRow);
        }
        let frontier_cols = COL_FRONTIER_BASE..self.table.columns();
        if cells.chunks_exact(12).any(|cell| {
            let col = u32::from_le_bytes(cell[..4].try_into().expect("a 12-byte cell"));
            !frontier_cols.contains(&col)
        }) {
            return Err(RejectedWrite::UnknownColumn);
        }
        for cell in cells.chunks_exact(12) {
            self.table
                .merge_remote(from_rank, cell, |_, old, val| old.max(val))
                .expect("a peer row and a frontier column, both checked above");
        }
        Ok(())
    }

    /// Member `row`'s published received-frontier for `sender`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` has no frontier column.
    pub fn frontier(&self, row: u32, sender: u32) -> u64 {
        assert!(
            sender < self.num_senders(),
            "sender {sender} has no frontier"
        );
        self.table.get(row, COL_FRONTIER_BASE + sender)
    }

    /// Merges the knowledge that member `row` published a
    /// received-frontier of at least `count` for `sender` — the
    /// view-change state exchange: on a reconfiguration the survivors
    /// pool their replicas so everyone's picture of every row (in
    /// particular the *dead* rows, which will never publish again) is
    /// the union of what any survivor saw. Monotone max-merge; a no-op
    /// for our own row, which is single-writer and always freshest
    /// locally.
    ///
    /// # Panics
    ///
    /// Panics if `sender` has no frontier column.
    pub fn resync_frontier(&mut self, row: u32, sender: u32, count: u64) {
        assert!(
            sender < self.num_senders(),
            "sender {sender} has no frontier"
        );
        if row == self.table.rank() || self.table.get(row, COL_FRONTIER_BASE + sender) >= count {
            return;
        }
        let mut payload = Vec::with_capacity(12);
        payload.extend_from_slice(&(COL_FRONTIER_BASE + sender).to_le_bytes());
        payload.extend_from_slice(&count.to_le_bytes());
        self.table
            .apply_remote(row, &payload)
            .expect("a peer row and a frontier column, both read above");
    }

    /// The stability frontier for `sender`: the minimum received-frontier
    /// over the `live` rows. Every slot of `sender` below this count has
    /// been received by every live member, so delivering it can never be
    /// undone by a ragged trim.
    ///
    /// # Panics
    ///
    /// Panics if `live` is empty or `sender` has no frontier column.
    pub fn stable_frontier(&self, sender: u32, live: &[u32]) -> u64 {
        assert!(!live.is_empty(), "stability needs at least one live row");
        live.iter()
            .map(|&r| self.frontier(r, sender))
            .min()
            .expect("non-empty live set")
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
        Some(self.table.set_local(COL_SUSPECT, grown))
    }

    /// Applies a peer's row update and unions any new suspicions into
    /// our own row (the epidemic step). Returns our own row's update to
    /// re-relay when the union taught us something new — forwarding it
    /// is what makes agreement reach members the failed node partitioned
    /// from the original suspecter.
    ///
    /// Every cell is monotone (masks only grow, epochs and stability
    /// frontiers only rise), so the update is *merged* rather than
    /// overwritten: a stale payload delivered out of order can never
    /// regress a row.
    ///
    /// # Errors
    ///
    /// [`RejectedWrite`] when the payload is not one cell of a peer's
    /// row ([`SstTable::apply_remote`]); nothing changes.
    pub fn apply_remote(
        &mut self,
        from_rank: u32,
        payload: &[u8],
    ) -> Result<Option<Vec<u8>>, RejectedWrite> {
        self.table
            .merge_remote(from_rank, payload, |col, old, val| {
                if col == COL_SUSPECT {
                    old | val
                } else {
                    old.max(val)
                }
            })?;
        let me = self.table.rank();
        let mine = self.table.get(me, COL_SUSPECT);
        let theirs = self.table.get(from_rank, COL_SUSPECT);
        let grown = mine | theirs;
        if grown == mine {
            return Ok(None);
        }
        Ok(Some(self.table.set_local(COL_SUSPECT, grown)))
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
        self.table.set_local(COL_EPOCH, epoch)
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

    /// Advances `from`'s frontier for `sender` to `count` and merges the
    /// resulting row write into every other live tracker.
    fn advance_everywhere(
        trackers: &mut [Option<ViewTracker>],
        from: u32,
        sender: u32,
        count: u64,
    ) {
        let t = trackers[from as usize].as_mut().unwrap();
        assert!(t.advance_frontier(sender, count));
        let cells = t.frontier_cells(&[sender]);
        for (i, slot) in trackers.iter_mut().enumerate() {
            if let Some(t) = slot.as_mut().filter(|_| i as u32 != from) {
                t.apply_remote_cells(from, &cells).expect("a peer's cells");
            }
        }
    }

    #[test]
    fn frontiers_propagate_and_min_gates_stability() {
        let mut ts: Vec<Option<ViewTracker>> = (0..3)
            .map(|r| Some(ViewTracker::with_frontiers(r, 3, 3)))
            .collect();
        // Ranks 0 and 1 have received two of sender 2's slots; rank 2
        // has only received one. The min pins stability at 1.
        for (r, count) in [(0u32, 2u64), (1, 2), (2, 1)] {
            advance_everywhere(&mut ts, r, 2, count);
        }
        let live = [0u32, 1, 2];
        for t in ts.iter().flatten() {
            assert_eq!(t.stable_frontier(2, &live), 1, "rank {}", t.rank());
            assert_eq!(t.frontier(0, 2), 2);
            assert_eq!(t.frontier(2, 2), 1);
        }
        // Rank 2 catches up; everyone's min advances to 2.
        advance_everywhere(&mut ts, 2, 2, 2);
        for t in ts.iter().flatten() {
            assert_eq!(t.stable_frontier(2, &live), 2, "rank {}", t.rank());
        }
        // Excluding the laggard row from the live set raises the min —
        // the ragged-trim rule after a failure.
        assert_eq!(ts[0].as_ref().unwrap().stable_frontier(2, &[0, 1]), 2);
    }

    #[test]
    fn stale_frontier_updates_are_monotone_no_ops() {
        let mut a = ViewTracker::with_frontiers(0, 2, 2);
        let mut b = ViewTracker::with_frontiers(1, 2, 2);
        assert!(a.advance_frontier(1, 2));
        let up2 = a.frontier_cells(&[1]);
        assert!(a.advance_frontier(1, 5));
        let up5 = a.frontier_cells(&[1]);
        assert!(!a.advance_frontier(1, 5), "re-advance is a no-op");
        assert!(!a.advance_frontier(1, 3), "regress is a no-op");
        // Deliver the updates out of order: max-merge keeps row 0 at 5.
        b.apply_remote_cells(0, &up5).expect("a peer's cell");
        b.apply_remote_cells(0, &up2).expect("a peer's cell");
        assert_eq!(b.frontier(0, 1), 5);
        assert_eq!(b.frontier(1, 1), 0);
        assert_eq!(b.num_senders(), 2);
    }

    #[test]
    fn one_row_write_carries_every_column_given() {
        let mut a = ViewTracker::with_frontiers(0, 2, 3);
        let mut b = ViewTracker::with_frontiers(1, 2, 3);
        assert!(a.advance_frontier(0, 3));
        assert!(a.advance_frontier(2, 7));
        assert!(
            a.advance_frontier(2, 9),
            "the latest value is what goes out"
        );
        let row = a.frontier_cells(&[0, 2]);
        assert_eq!(row.len(), 24);
        b.apply_remote_cells(0, &row).expect("a peer's cells");
        assert_eq!(
            (0..3).map(|s| b.frontier(0, s)).collect::<Vec<_>>(),
            [3, 0, 9]
        );
    }

    #[test]
    fn frontier_columns_coexist_with_membership_agreement() {
        let mut ts: Vec<Option<ViewTracker>> = (0..3)
            .map(|r| Some(ViewTracker::with_frontiers(r, 3, 3)))
            .collect();
        advance_everywhere(&mut ts, 0, 0, 4);
        ts[2] = None;
        let up = ts[1].as_mut().unwrap().suspect(2).unwrap();
        broadcast(&mut ts, 1, up);
        for t in ts.iter().flatten() {
            let v = t.agreed_view().expect("agreed");
            assert_eq!(v.members, vec![0, 1]);
            assert_eq!(t.frontier(0, 0), 4, "frontier survives agreement");
        }
    }

    #[test]
    fn malformed_peer_writes_are_rejected() {
        // Member 1 of 3, with columns 0..5; the peer is row 0.
        let mut table = SstTable::new(1, 3, 5);
        let mut tracker = ViewTracker::with_frontiers(1, 3, 3);
        let cell = |col: u32| [col.to_le_bytes().as_slice(), &4u64.to_le_bytes()].concat();
        let good = cell(COL_FRONTIER_BASE);
        for (row, payload, why) in [
            (0, good[..11].to_vec(), RejectedWrite::Malformed),
            (
                0,
                [good.as_slice(), &[0]].concat(),
                RejectedWrite::Malformed,
            ),
            (1, good.clone(), RejectedWrite::NotAPeerRow),
            (3, good.clone(), RejectedWrite::NotAPeerRow),
            (0, cell(5), RejectedWrite::UnknownColumn),
        ] {
            assert_eq!(table.apply_remote(row, &payload), Err(why), "{payload:?}");
            assert_eq!(tracker.apply_remote(row, &payload), Err(why), "{payload:?}");
        }
        for t in [&table, &tracker.table] {
            assert!((0..3).all(|r| (0..5).all(|c| t.get(r, c) == 0)));
        }
        assert_eq!(tracker.apply_remote(0, &good), Ok(None));
        assert_eq!(tracker.frontier(0, 0), 4);
    }

    /// A batch of frontier cells merges all or nothing: one bad cell
    /// anywhere in it, and no cell of it lands.
    #[test]
    fn bad_cells_reject_the_whole_batch() {
        let mut tracker = ViewTracker::with_frontiers(1, 3, 3);
        let cell = |col: u32| [col.to_le_bytes().as_slice(), &4u64.to_le_bytes()].concat();
        let good = cell(COL_FRONTIER_BASE + 1);
        let batch = |tail: &[u8]| [good.as_slice(), tail].concat();
        for (row, payload, why) in [
            (0, Vec::new(), RejectedWrite::Malformed),
            (0, good[..11].to_vec(), RejectedWrite::Malformed),
            (0, batch(&good[..11]), RejectedWrite::Malformed),
            (
                0,
                [batch(&good), vec![0]].concat(),
                RejectedWrite::Malformed,
            ),
            (1, batch(&good), RejectedWrite::NotAPeerRow),
            (3, good.clone(), RejectedWrite::NotAPeerRow),
            (0, batch(&cell(COL_SUSPECT)), RejectedWrite::UnknownColumn),
            (0, batch(&cell(COL_EPOCH)), RejectedWrite::UnknownColumn),
            (0, batch(&cell(5)), RejectedWrite::UnknownColumn),
            (0, batch(&cell(u32::MAX)), RejectedWrite::UnknownColumn),
        ] {
            assert_eq!(
                tracker.apply_remote_cells(row, &payload),
                Err(why),
                "{payload:?}"
            );
            assert!((0..3).all(|r| (0..5).all(|c| tracker.table.get(r, c) == 0)));
        }
        assert_eq!(
            tracker.apply_remote_cells(0, &batch(&cell(COL_FRONTIER_BASE))),
            Ok(())
        );
        assert_eq!(
            (0..3).map(|s| tracker.frontier(0, s)).collect::<Vec<_>>(),
            [4, 4, 0]
        );
    }

    #[test]
    #[should_panic(expected = "has no frontier")]
    fn plain_tracker_rejects_frontier_reads() {
        ViewTracker::new(0, 3).frontier(0, 0);
    }

    #[test]
    fn resync_pools_survivor_knowledge_of_dead_rows() {
        // Member 2 announced frontier 3 to member 0 only, then died.
        let mut a = ViewTracker::with_frontiers(0, 3, 3);
        let b = ViewTracker::with_frontiers(1, 3, 3);
        a.resync_frontier(2, 2, 3);
        assert_eq!(a.frontier(2, 2), 3);
        assert_eq!(b.frontier(2, 2), 0, "b never heard it");
        // The view-change exchange: b adopts the max any survivor saw.
        let mut b = b;
        b.resync_frontier(2, 2, a.frontier(2, 2));
        assert_eq!(b.frontier(2, 2), 3);
        // Stale resyncs and own-row resyncs are no-ops.
        b.resync_frontier(2, 2, 1);
        assert_eq!(b.frontier(2, 2), 3);
        assert!(b.advance_frontier(1, 5));
        b.resync_frontier(1, 1, 9);
        assert_eq!(b.frontier(1, 1), 5, "own row is single-writer");
    }
}
