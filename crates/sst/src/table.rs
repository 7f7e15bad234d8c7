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
//! [`SstTable`] is the sans-IO replica: update locally, encode the wire
//! write, apply remote writes. Whoever owns the replicas carries the
//! payloads between them ([`crate::ViewTracker`]'s rows ride `rdmc-sim`'s
//! control writes), so a remote write is peer input: one that does not
//! decode to a peer's cell is rejected ([`RejectedWrite`]), never
//! trusted.

/// Why a replica refused a peer's row write; the replica is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectedWrite {
    /// The payload is not one encoded cell (`col: u32 LE`, `val: u64
    /// LE`, 12 bytes) — or, for a batch
    /// ([`crate::ViewTracker::apply_remote_cells`]), not one or more.
    Malformed,
    /// The row is out of range, or it is ours: rows are single-writer.
    NotAPeerRow,
    /// The column is out of range (for a batch: not a frontier column).
    UnknownColumn,
}

/// One member's replica of the shared state table.
///
/// # Examples
///
/// ```
/// use sst::SstTable;
///
/// let mut mine = SstTable::new(0, 3, 2);
/// let mut yours = SstTable::new(1, 3, 2);
/// let update = mine.set_local(1, 42);
/// yours.apply_remote(0, &update).expect("a peer's well-formed write");
/// assert_eq!(yours.get(0, 1), 42);
/// assert_eq!(yours.min_column(1), 0); // rows 1 and 2 still at zero
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

    /// Number of columns.
    pub fn columns(&self) -> u32 {
        self.columns
    }

    /// Reads a cell (always local — that is the point of an SST).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, row: u32, col: u32) -> u64 {
        assert!(row < self.rows && col < self.columns, "cell out of range");
        self.cells[(row * self.columns + col) as usize]
    }

    /// Updates a cell of *our* row and returns the encoded one-sided
    /// write to push to every peer.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn set_local(&mut self, col: u32, val: u64) -> Vec<u8> {
        assert!(col < self.columns, "column out of range");
        self.cells[(self.rank * self.columns + col) as usize] = val;
        let mut payload = Vec::with_capacity(12);
        payload.extend_from_slice(&col.to_le_bytes());
        payload.extend_from_slice(&val.to_le_bytes());
        payload
    }

    /// Applies a peer's row update (the payload produced by its
    /// [`SstTable::set_local`]).
    ///
    /// # Errors
    ///
    /// [`RejectedWrite`] when the payload is not one cell of a peer's
    /// row; nothing is written.
    pub fn apply_remote(&mut self, from_row: u32, payload: &[u8]) -> Result<(), RejectedWrite> {
        self.merge_remote(from_row, payload, |_, _, val| val)
    }

    /// [`SstTable::apply_remote`], storing `merge(col, old, val)` in
    /// place of the written `val`.
    pub(crate) fn merge_remote(
        &mut self,
        from_row: u32,
        payload: &[u8],
        merge: impl FnOnce(u32, u64, u64) -> u64,
    ) -> Result<(), RejectedWrite> {
        let (col, val) = payload
            .split_first_chunk::<4>()
            .ok_or(RejectedWrite::Malformed)?;
        let val = <[u8; 8]>::try_from(val).map_err(|_| RejectedWrite::Malformed)?;
        if from_row >= self.rows || from_row == self.rank {
            return Err(RejectedWrite::NotAPeerRow);
        }
        let col = u32::from_le_bytes(*col);
        if col >= self.columns {
            return Err(RejectedWrite::UnknownColumn);
        }
        let cell = &mut self.cells[(from_row * self.columns + col) as usize];
        *cell = merge(col, *cell, u64::from_le_bytes(val));
        Ok(())
    }

    /// Minimum of a column across all rows — the workhorse aggregate for
    /// stability tracking ("everyone has at least k").
    pub fn min_column(&self, col: u32) -> u64 {
        (0..self.rows)
            .map(|r| self.get(r, col))
            .min()
            .expect("rows >= 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicas(n: u32, columns: u32) -> Vec<SstTable> {
        (0..n).map(|r| SstTable::new(r, n, columns)).collect()
    }

    /// `rank` sets a cell of its row and the write lands at every peer.
    fn set_everywhere(tables: &mut [SstTable], rank: u32, col: u32, val: u64) {
        let payload = tables[rank as usize].set_local(col, val);
        for peer in tables.iter_mut().filter(|t| t.rank() != rank) {
            peer.apply_remote(rank, &payload).expect("a peer's cell");
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
    fn single_writer_rows_are_enforced() {
        let mut t = SstTable::new(1, 3, 1);
        let p = SstTable::new(0, 3, 1).set_local(0, 5);
        assert_eq!(t.apply_remote(1, &p), Err(RejectedWrite::NotAPeerRow));
        assert_eq!(t.get(1, 0), 0);
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
    fn last_write_wins_per_cell() {
        let mut tables = replicas(3, 1);
        for v in 1..=5 {
            set_everywhere(&mut tables, 0, 0, v);
        }
        for t in &tables {
            assert_eq!(t.get(0, 0), 5, "rank {}", t.rank());
        }
    }

    #[test]
    fn min_column_barrier() {
        // A classic SST barrier: everyone bumps column 0 to 1; "min of
        // column 0 >= 1" holds at a replica only once the last member's
        // write has landed there.
        let mut tables = replicas(5, 1);
        let payloads: Vec<Vec<u8>> = tables.iter_mut().map(|t| t.set_local(0, 1)).collect();
        for from in 1..5 {
            assert_eq!(tables[0].min_column(0), 0, "before row {from} lands");
            tables[0]
                .apply_remote(from, &payloads[from as usize])
                .expect("a peer's cell");
        }
        assert_eq!(tables[0].min_column(0), 1);
        assert_eq!(tables[1].min_column(0), 0, "nothing has landed at rank 1");
    }

    #[test]
    fn minimum_never_goes_backwards_as_updates_land() {
        // The §4.6 pattern: column 0 holds each member's received-count
        // and the minimum over it is the stability frontier. Counts only
        // grow, so the frontier is monotone whatever order writes land in.
        let mut tables = replicas(4, 1);
        let mut last_min = 0;
        for round in 1..=3u64 {
            // Descending ranks, so row 0 (the laggard) moves last.
            for rank in (0..4u32).rev() {
                set_everywhere(&mut tables, rank, 0, round * (rank as u64 + 1));
                let m = tables[0].min_column(0);
                assert!(m >= last_min, "min went backwards: {last_min} -> {m}");
                last_min = m;
            }
            assert_eq!(last_min, round, "frontier after round {round}");
        }
    }
}
