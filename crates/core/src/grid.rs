//! The Grid Cache (paper §3, Figure 3c–f).
//!
//! In the general case FastLSA divides a rectangle into `k × k` blocks
//! and stores the DP values along the internal grid lines: `k−1` full
//! rows and `k−1` full columns. Together with the rectangle's input
//! boundary these give every block its `cacheRow`/`cacheColumn`.

use crate::error::AlignError;
use crate::governor::MemoryGovernor;

/// Near-equal partition of `len` residues into `k` segments:
/// `bounds[i] = ⌊len·i/k⌋`, guaranteeing each segment is non-empty when
/// `len ≥ k`.
pub fn partition(len: usize, k: usize) -> Vec<usize> {
    (0..=k).map(|i| len * i / k).collect()
}

/// Locates the partition segment containing coordinate `i` (`1 ≤ i ≤ len`):
/// returns `s` with `bounds[s] < i ≤ bounds[s+1]`.
pub fn segment_of(bounds: &[usize], i: usize) -> usize {
    debug_assert!(i >= 1 && bounds.last().is_some_and(|&last| i <= last));
    bounds.partition_point(|&x| x < i) - 1
}

/// One recursion level's grid cache.
///
/// Each cached line holds `layers` i32 layers back to back, one per value
/// the gap model's frontier carries (DESIGN.md §6): `H` alone for linear
/// gaps; `H` then `F` on rows and `H` then `E` on columns for affine gaps.
#[derive(Debug)]
pub struct Grid {
    /// Row cut points, length `k_r + 1` (`[0, …, rows]`).
    pub row_bounds: Vec<usize>,
    /// Column cut points, length `k_c + 1`.
    pub col_bounds: Vec<usize>,
    /// `rows_cache[s]` holds the DP values along grid row
    /// `row_bounds[s+1]`, full width (`layers · (cols + 1)`); `s < k_r − 1`.
    pub rows_cache: Vec<Vec<i32>>,
    /// `cols_cache[t]` holds the DP values along grid column
    /// `col_bounds[t+1]`, full height (`layers · (rows + 1)`); `t < k_c − 1`.
    pub cols_cache: Vec<Vec<i32>>,
}

impl Grid {
    /// Allocates the grid for an `rows × cols` rectangle split into
    /// `k_r × k_c` blocks, with unbounded (but still `try_reserve`-based)
    /// allocation.
    pub fn new(rows: usize, cols: usize, k_r: usize, k_c: usize, layers: usize) -> Self {
        match Grid::try_new(rows, cols, k_r, k_c, layers, &MemoryGovernor::new(None)) {
            Ok(g) => g,
            // flsa-check: allow(panic) — only reachable on allocator
            // exhaustion with no budget, where Vec::new would abort anyway.
            Err(e) => panic!("grid allocation failed: {e}"),
        }
    }

    /// Fallibly allocates the grid through the memory governor: each cache
    /// line is charged against the budget and reserved with `try_reserve`,
    /// so an oversized grid surfaces as
    /// [`AlignError::AllocFailed`](crate::AlignError::AllocFailed) instead
    /// of an abort.
    pub fn try_new(
        rows: usize,
        cols: usize,
        k_r: usize,
        k_c: usize,
        layers: usize,
        governor: &MemoryGovernor,
    ) -> Result<Self, AlignError> {
        debug_assert!(k_r >= 2 && k_c >= 2);
        debug_assert!(rows >= k_r && cols >= k_c, "every block must be non-empty");
        let mut rows_cache = Vec::with_capacity(k_r - 1);
        let mut cols_cache = Vec::with_capacity(k_c - 1);
        let undo = |grid_rows: &Vec<Vec<i32>>, grid_cols: &Vec<Vec<i32>>| {
            for v in grid_rows.iter().chain(grid_cols.iter()) {
                governor.release_i32(v.len());
            }
        };
        for _ in 0..k_r - 1 {
            match governor.try_alloc_i32(layers * (cols + 1), "grid row cache") {
                Ok(v) => rows_cache.push(v),
                Err(e) => {
                    undo(&rows_cache, &cols_cache);
                    return Err(e);
                }
            }
        }
        for _ in 0..k_c - 1 {
            match governor.try_alloc_i32(layers * (rows + 1), "grid column cache") {
                Ok(v) => cols_cache.push(v),
                Err(e) => {
                    undo(&rows_cache, &cols_cache);
                    return Err(e);
                }
            }
        }
        Ok(Grid {
            row_bounds: partition(rows, k_r),
            col_bounds: partition(cols, k_c),
            rows_cache,
            cols_cache,
        })
    }

    /// Rebuilds a grid from a checkpoint snapshot, charging the cache
    /// lines against the governor exactly as [`Grid::try_new`] does. The
    /// caller ([`crate::align_resume`]) validates the snapshot's shape
    /// first; this only accounts for the memory.
    pub fn from_parts(
        state: crate::checkpoint::GridState,
        governor: &MemoryGovernor,
    ) -> Result<Self, AlignError> {
        let grid = Grid {
            row_bounds: state.row_bounds,
            col_bounds: state.col_bounds,
            rows_cache: state.rows_cache,
            cols_cache: state.cols_cache,
        };
        governor.reserve_i32(grid.cache_entries(), "resumed grid cache")?;
        Ok(grid)
    }

    /// Number of block rows.
    pub fn k_r(&self) -> usize {
        self.row_bounds.len() - 1
    }

    /// Number of block columns.
    pub fn k_c(&self) -> usize {
        self.col_bounds.len() - 1
    }

    /// DPM entries of cache storage (for the Theorem 3 space accounting).
    pub fn cache_entries(&self) -> usize {
        self.rows_cache.iter().map(Vec::len).sum::<usize>()
            + self.cols_cache.iter().map(Vec::len).sum::<usize>()
    }

    /// Grid row `row_bounds[s]`, the top edge of block row `s`, all
    /// layers. For `s == 0` the caller must use the rectangle's input top
    /// boundary instead (the grid does not store it), hence the `Option`.
    pub fn row_line(&self, s: usize) -> Option<&[i32]> {
        s.checked_sub(1).map(|i| self.rows_cache[i].as_slice())
    }

    /// Grid column `col_bounds[t]`, the left edge of block column `t`;
    /// `None` for `t == 0` (use the input left boundary).
    pub fn col_line(&self, t: usize) -> Option<&[i32]> {
        t.checked_sub(1).map(|i| self.cols_cache[i].as_slice())
    }
}

/// Entries `lo..=hi` of every layer of a layered line (layers of
/// `line.len() / layers` entries, back to back): the boundary of the
/// block spanning `lo..hi`.
pub fn sub_line(line: &[i32], layers: usize, lo: usize, hi: usize) -> Vec<i32> {
    let mut out = Vec::with_capacity(layers * (hi - lo + 1));
    for layer in line.chunks_exact(line.len() / layers) {
        out.extend_from_slice(&layer[lo..=hi]);
    }
    out
}

/// Writes a block's layered output edge into the layered grid `line`
/// from entry `at` on. Gap-state layers (all but the first) skip the
/// edge's first entry: the affine edge fill leaves it a placeholder, and
/// the true value, the neighbouring block's last entry, is in place.
pub fn store_edge(line: &mut [i32], edge: &[i32], layers: usize, at: usize) {
    let len = edge.len() / layers;
    let dst = line.chunks_exact_mut(line.len() / layers);
    for (l, (dst, src)) in dst.zip(edge.chunks_exact(len)).enumerate() {
        let skip = usize::from(l > 0);
        dst[at + skip..at + len].copy_from_slice(&src[skip..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_near_equal_and_complete() {
        let b = partition(10, 3);
        assert_eq!(b, vec![0, 3, 6, 10]);
        let b = partition(9, 3);
        assert_eq!(b, vec![0, 3, 6, 9]);
        // Every segment non-empty when len >= k.
        for len in 2..50 {
            for k in 2..=len {
                let b = partition(len, k);
                assert!(b.windows(2).all(|w| w[1] > w[0]), "len={len} k={k}");
                assert_eq!(*b.last().unwrap(), len);
            }
        }
    }

    #[test]
    fn segment_of_locates_blocks() {
        let b = partition(12, 4); // [0, 3, 6, 9, 12]
        assert_eq!(segment_of(&b, 1), 0);
        assert_eq!(segment_of(&b, 3), 0);
        assert_eq!(segment_of(&b, 4), 1);
        assert_eq!(segment_of(&b, 12), 3);
    }

    #[test]
    fn grid_storage_shape_matches_theorem_3() {
        // (k-1) rows of (cols+1) plus (k-1) cols of (rows+1).
        let g = Grid::new(100, 80, 4, 4, 1);
        assert_eq!(g.cache_entries(), 3 * 81 + 3 * 101);
        assert_eq!(g.k_r(), 4);
        assert_eq!(g.k_c(), 4);
    }

    #[test]
    fn try_new_respects_the_budget_and_rolls_back() {
        // 3 rows of 81 + 3 cols of 101 entries = 546 entries > 500.
        let g = MemoryGovernor::new(Some(500 * 4));
        let err = Grid::try_new(100, 80, 4, 4, 1, &g).unwrap_err();
        assert!(matches!(err, AlignError::AllocFailed { .. }));
        // Partial allocations were released.
        assert_eq!(g.used_bytes(), 0);
        // A roomier budget succeeds and stays charged while alive.
        let g = MemoryGovernor::new(Some(600 * 4));
        let grid = Grid::try_new(100, 80, 4, 4, 1, &g).unwrap();
        assert_eq!(g.used_bytes(), grid.cache_entries() * 4);
    }

    #[test]
    fn grid_lines_cover_block_edges() {
        let g = Grid::new(12, 8, 3, 2, 1);
        // Block (1, 1): rows 4..8, cols 4..8.
        assert_eq!(sub_line(g.row_line(1).unwrap(), 1, 4, 8).len(), 8 - 4 + 1);
        assert_eq!(sub_line(g.col_line(1).unwrap(), 1, 4, 8).len(), 8 - 4 + 1);
        assert!(g.row_line(0).is_none());
        assert!(g.col_line(0).is_none());
    }

    #[test]
    fn layered_lines_scale_storage_and_keep_the_placeholder_out() {
        // Two layers double every cache line.
        let mut g = Grid::new(100, 80, 4, 4, 2);
        assert_eq!(g.cache_entries(), 2 * (3 * 81 + 3 * 101));
        // Block edge over columns 20..=40 of the first grid row: H
        // 100..=120, gap state 200..=220 with a placeholder first entry.
        let edge: Vec<i32> = (100..=120)
            .chain(std::iter::once(-1))
            .chain(201..=220)
            .collect();
        g.rows_cache[0][81 + 20] = 7; // left neighbour's last gap-state entry
        store_edge(&mut g.rows_cache[0], &edge, 2, 20);
        let back = sub_line(g.row_line(1).unwrap(), 2, 20, 40);
        let want: Vec<i32> = (100..=120)
            .chain(std::iter::once(7))
            .chain(201..=220)
            .collect();
        assert_eq!(back, want);
    }
}
