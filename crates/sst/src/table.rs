//! The shared state table itself: Derecho's core primitive (paper §4.6
//! and [9]).
//!
//! Every member owns one *row* of `u64` cells and replicates it into
//! every peer's copy with one-sided RDMA writes; nobody ever writes
//! another member's row. Reads are purely local. Protocols are built by
//! polling *monotone predicates* over the table — e.g. "the minimum of
//! column `c` across all rows reached `k`" — which is how Derecho layers
//! stability tracking, commit, and view changes over RDMC.
//!
//! [`SstTable`] is the sans-IO replica and the one row-write codec. A
//! row write is one or more 12-byte cells of the writer's own row, back
//! to back (`col: u32 LE`, `val: u64 LE` each), with no header: which
//! row it updates is named by where the write lands — the queue pair it
//! arrived on — so whoever carries the payloads between replicas passes
//! the writer's row in. A write is peer input: [`SstTable::merge_remote`]
//! checks all of it before it stores any ([`RejectedWrite`]), and stores
//! each cell through the monotone merge the caller passes in — OR for
//! [`crate::ViewTracker`]'s suspicion masks, max for counters — which
//! may refuse a value.

/// Bytes of one encoded cell: `col: u32 LE`, then `val: u64 LE`.
const CELL: usize = 12;

/// Why a replica refused a peer's row write; the replica is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectedWrite {
    /// The payload is not one or more whole 12-byte cells, or the merge
    /// refused one of their values.
    Malformed,
    /// The row is out of range, or it is ours: rows are single-writer.
    NotAPeerRow,
    /// A cell's column is out of range.
    UnknownColumn,
}

/// One member's replica of the shared state table.
///
/// # Examples
///
/// ```
/// use sst::SstTable;
///
/// let max = |_: u32, old: u64, val: u64| Some(old.max(val));
/// let mut mine = SstTable::new(0, 3, 2);
/// let mut yours = SstTable::new(1, 3, 2);
/// mine.set_local(1, 42);
/// yours
///     .merge_remote(0, &mine.encode(&[1]), max)
///     .expect("a peer's well-formed write");
/// assert_eq!(yours.get(0, 1), 42);
/// // A stale write lands as a no-op: counters merge by max.
/// yours.merge_remote(0, &SstTable::cell(1, 7), max).expect("well-formed");
/// assert_eq!(yours.get(0, 1), 42);
/// ```
#[derive(Clone, Debug)]
pub struct SstTable {
    rank: u32,
    rows: u32,
    columns: u32,
    /// Row-major `rows x columns` cells.
    cells: Vec<u64>,
}

impl SstTable {
    /// A zeroed table of `rows x columns`, owned-row = `rank`.
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension or an out-of-range rank.
    pub fn new(rank: u32, rows: u32, columns: u32) -> Self {
        assert!(rows >= 1 && columns >= 1, "table needs dimensions");
        assert!(rank < rows, "rank outside the table");
        SstTable {
            rank,
            rows,
            columns,
            cells: vec![0; (rows * columns) as usize],
        }
    }

    /// This replica's (writable) row index.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of rows (= members).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Reads a cell (always local — that is the point of an SST).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    // Inlined across the crate boundary, as is `set_local`: the atomic
    // overlay reads a cell per live row and sender on every delivery
    // pass, and the call cost ~3 % of `tcp_atomic`'s committed ops/s.
    #[inline]
    pub fn get(&self, row: u32, col: u32) -> u64 {
        assert!(row < self.rows && col < self.columns, "cell out of range");
        self.cells[(row * self.columns + col) as usize]
    }

    /// Updates a cell of *our* row. Nothing is encoded: the owner
    /// replicates whenever it chooses, with [`SstTable::encode`].
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    #[inline]
    pub fn set_local(&mut self, col: u32, val: u64) {
        assert!(col < self.columns, "column out of range");
        self.cells[(self.rank * self.columns + col) as usize] = val;
    }

    /// One encoded cell of a row write.
    pub fn cell(col: u32, val: u64) -> [u8; CELL] {
        let mut cell = [0; CELL];
        cell[..4].copy_from_slice(&col.to_le_bytes());
        cell[4..].copy_from_slice(&val.to_le_bytes());
        cell
    }

    /// Our own row's current `cols`, encoded back to back in the order
    /// given: the row write a peer applies with [`SstTable::merge_remote`].
    ///
    /// # Panics
    ///
    /// Panics if a column is out of range.
    pub fn encode(&self, cols: &[u32]) -> Vec<u8> {
        cols.iter()
            .flat_map(|&col| Self::cell(col, self.get(self.rank, col)))
            .collect()
    }

    /// Merges peer `from_row`'s row write (one or more cells, as
    /// [`SstTable::encode`] produces them) into its row, all or nothing:
    /// each cell stores `merge(col, old, val)`, cells apply in order, and
    /// the row changes only if every cell decodes, names a column, and
    /// has its value accepted (`merge` answers `None` to refuse one).
    ///
    /// # Errors
    ///
    /// [`RejectedWrite`] when the payload is empty or not a whole number
    /// of cells, `from_row` is not a peer's row, a column is out of
    /// range, or `merge` refuses a value; nothing changes.
    pub fn merge_remote(
        &mut self,
        from_row: u32,
        payload: &[u8],
        mut merge: impl FnMut(u32, u64, u64) -> Option<u64>,
    ) -> Result<(), RejectedWrite> {
        if payload.is_empty() || !payload.len().is_multiple_of(CELL) {
            return Err(RejectedWrite::Malformed);
        }
        if from_row >= self.rows || from_row == self.rank {
            return Err(RejectedWrite::NotAPeerRow);
        }
        let start = (from_row * self.columns) as usize;
        let row = &mut self.cells[start..start + self.columns as usize];
        let mut merged = row.to_vec();
        for cell in payload.chunks_exact(CELL) {
            let col = u32::from_le_bytes(cell[..4].try_into().expect("a 12-byte cell"));
            let val = u64::from_le_bytes(cell[4..].try_into().expect("a 12-byte cell"));
            let old = merged
                .get_mut(col as usize)
                .ok_or(RejectedWrite::UnknownColumn)?;
            *old = merge(col, *old, val).ok_or(RejectedWrite::Malformed)?;
        }
        row.copy_from_slice(&merged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::view_merge;

    fn max(_: u32, old: u64, val: u64) -> Option<u64> {
        Some(old.max(val))
    }

    fn replicas(n: u32, columns: u32) -> Vec<SstTable> {
        (0..n).map(|r| SstTable::new(r, n, columns)).collect()
    }

    /// `rank` sets a cell of its row and the write lands at every peer.
    fn set_everywhere(tables: &mut [SstTable], rank: u32, col: u32, val: u64) {
        tables[rank as usize].set_local(col, val);
        let payload = tables[rank as usize].encode(&[col]);
        for peer in tables.iter_mut().filter(|t| t.rank() != rank) {
            peer.merge_remote(rank, &payload, max)
                .expect("a peer's cell");
        }
    }

    #[test]
    fn local_reads_reflect_local_writes_immediately() {
        let mut t = SstTable::new(2, 4, 3);
        t.set_local(1, 9);
        assert_eq!(t.get(2, 1), 9);
        assert_eq!(t.get(0, 1), 0);
    }

    #[test]
    fn updates_replicate_to_every_member() {
        let mut tables = replicas(4, 2);
        set_everywhere(&mut tables, 1, 0, 7);
        set_everywhere(&mut tables, 3, 1, 11);
        for t in &tables {
            assert_eq!(t.get(1, 0), 7, "rank {}", t.rank());
            assert_eq!(t.get(3, 1), 11, "rank {}", t.rank());
            assert_eq!(t.get(1, 1), 0, "rank {}", t.rank());
        }
    }

    #[test]
    fn minimum_never_goes_backwards_as_updates_land() {
        // The §4.6 pattern: column 0 holds each member's received-count
        // and the minimum over it is the stability frontier. Counts only
        // grow, so the frontier is monotone whatever order writes land in,
        // and it moves only once the laggard's write has landed.
        let mut tables = replicas(4, 1);
        let min = |t: &SstTable| (0..4).map(|r| t.get(r, 0)).min().expect("rows");
        let mut last_min = 0;
        for round in 1..=3u64 {
            // Descending ranks, so row 0 (the laggard) moves last.
            for rank in (0..4u32).rev() {
                assert_eq!(min(&tables[0]), round - 1, "before row {rank} lands");
                set_everywhere(&mut tables, rank, 0, round * (rank as u64 + 1));
                let m = min(&tables[0]);
                assert!(m >= last_min, "min went backwards: {last_min} -> {m}");
                last_min = m;
            }
            assert_eq!(last_min, round, "frontier after round {round}");
        }
    }

    #[test]
    fn stale_writes_are_monotone_no_ops() {
        let mut a = SstTable::new(0, 2, 2);
        let mut b = SstTable::new(1, 2, 2);
        a.set_local(1, 2);
        let up2 = a.encode(&[1]);
        a.set_local(1, 5);
        let up5 = a.encode(&[1]);
        // Delivered out of order: max-merge keeps row 0 at 5.
        b.merge_remote(0, &up5, max).expect("a peer's cell");
        b.merge_remote(0, &up2, max).expect("a peer's cell");
        assert_eq!(b.get(0, 1), 5);
        assert_eq!(b.get(1, 1), 0);
    }

    #[test]
    fn one_row_write_carries_every_column_given() {
        let mut a = SstTable::new(0, 2, 3);
        let mut b = SstTable::new(1, 2, 3);
        a.set_local(0, 3);
        a.set_local(2, 7);
        a.set_local(2, 9); // the latest value is what goes out
        let row = a.encode(&[0, 2]);
        assert_eq!(row.len(), 24);
        b.merge_remote(0, &row, max).expect("a peer's cells");
        assert_eq!((0..3).map(|c| b.get(0, c)).collect::<Vec<_>>(), [3, 0, 9]);
    }

    #[test]
    fn pooling_fills_a_dead_row() {
        // Member 2 announced 3 in column 2 to member 0 only, then died.
        let mut a = SstTable::new(0, 3, 3);
        let mut b = SstTable::new(1, 3, 3);
        a.merge_remote(2, &SstTable::cell(2, 3), max)
            .expect("row 2's write");
        assert_eq!(b.get(2, 2), 0, "b never heard it");
        // The view-change exchange: b max-merges what a saw of row 2.
        let pooled = SstTable::cell(2, a.get(2, 2));
        b.merge_remote(2, &pooled, max).expect("a peer row");
        assert_eq!(b.get(2, 2), 3);
        // A stale pool is a no-op, and our own row is single-writer.
        b.merge_remote(2, &SstTable::cell(2, 1), max)
            .expect("a peer row");
        assert_eq!(b.get(2, 2), 3);
        b.set_local(1, 5);
        let own = b.merge_remote(1, &SstTable::cell(1, 9), max);
        assert_eq!(own, Err(RejectedWrite::NotAPeerRow));
        assert_eq!(b.get(1, 1), 5, "own row is single-writer");
    }

    /// The one decoder, under both merges in use (the view's OR/max and
    /// the frontiers' max), at member 1 of 3 whose peer is row 0: every
    /// malformed write is rejected whole — one bad cell anywhere and no
    /// cell of it lands — and the good batch then merges.
    #[test]
    fn malformed_writes_are_rejected_whole() {
        use RejectedWrite::{Malformed, NotAPeerRow, UnknownColumn};
        let cell = |col, val| SstTable::cell(col, val).to_vec();
        let good = cell(0, 4);
        let batch = |tail: &[u8]| [good.as_slice(), &cell(1, 2), tail].concat();
        let cases = [
            (0, Vec::new(), Malformed),
            (0, good[..11].to_vec(), Malformed),
            (0, [good.as_slice(), &[0]].concat(), Malformed),
            (0, batch(&good[..11]), Malformed),
            (0, [batch(&good), vec![0]].concat(), Malformed),
            (1, good.clone(), NotAPeerRow),
            (1, batch(&good), NotAPeerRow),
            (3, good.clone(), NotAPeerRow),
            (u32::MAX, good.clone(), NotAPeerRow),
            (0, cell(2, 4), UnknownColumn),
            (0, batch(&cell(2, 4)), UnknownColumn),
            (0, batch(&cell(u32::MAX, 4)), UnknownColumn),
        ];
        // Values only the view merge refuses, each after good cells: a
        // suspicion bit naming no member, an epoch no view change reaches.
        let refused = [
            (0, batch(&cell(0, 1 << 3)), Malformed),
            (0, batch(&cell(1, 3)), Malformed),
            (0, batch(&cell(1, u64::MAX)), Malformed),
        ];
        type Merge<'a> = &'a dyn Fn(u32, u64, u64) -> Option<u64>;
        let view = view_merge(3);
        let merges: [(Merge, &[_]); 2] = [(&view, &refused), (&max, &[])];
        for (merge, refused) in merges {
            let mut t = SstTable::new(1, 3, 2);
            t.set_local(0, 1);
            let before = t.cells.clone();
            for (row, payload, why) in cases.iter().chain(refused) {
                assert_eq!(
                    t.merge_remote(*row, payload, merge),
                    Err(*why),
                    "{payload:?}"
                );
                assert_eq!(t.cells, before, "{payload:?}");
            }
            // Cells apply in order: the stale last one cannot regress.
            assert_eq!(t.merge_remote(0, &batch(&cell(1, 1)), merge), Ok(()));
            assert_eq!([t.get(0, 0), t.get(0, 1), t.get(1, 0)], [4, 2, 1]);
        }
    }
}
