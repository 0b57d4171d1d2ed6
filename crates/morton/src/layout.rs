//! Address arithmetic for the Morton-ordered quadtree layout.
//!
//! The layout of the paper's Figure 1: divide the (padded) matrix into
//! four quadrants and lay them out in memory in the order **NW, NE, SW,
//! SE**, recursively, until a `tile_rows × tile_cols` leaf tile is reached;
//! a tile is stored column-major. With `2^depth` tiles per side, the tile
//! at grid position `(tr, tc)` lands at Morton code `interleave(tr, tc)`
//! (row bit above column bit at every level, which yields exactly the
//! numbering printed in Figure 1).

use modgemm_mat::Scalar;

/// Description of a Morton-ordered buffer: `2^depth × 2^depth` leaf tiles
/// of `tile_rows × tile_cols` elements each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MortonLayout {
    /// Rows of a leaf tile.
    pub tile_rows: usize,
    /// Columns of a leaf tile.
    pub tile_cols: usize,
    /// Recursion depth (number of quadrant divisions).
    pub depth: usize,
}

/// Deepest recursion a layout may describe.
const MAX_DEPTH: usize = 28;

impl MortonLayout {
    /// Creates a layout; tiles must be non-empty.
    #[track_caller]
    pub fn new(tile_rows: usize, tile_cols: usize, depth: usize) -> Self {
        assert!(tile_rows > 0 && tile_cols > 0, "empty tile");
        assert!(depth <= MAX_DEPTH, "depth {depth} unreasonably large");
        Self { tile_rows, tile_cols, depth }
    }

    /// [`Self::new`] returning `None` instead of panicking, and also when
    /// the buffer length ([`Self::len`]) overflows `usize`.
    pub fn try_new(tile_rows: usize, tile_cols: usize, depth: usize) -> Option<Self> {
        if tile_rows == 0 || tile_cols == 0 || depth > MAX_DEPTH {
            return None;
        }
        tile_rows.checked_mul(tile_cols)?.checked_mul(1usize.checked_shl(2 * depth as u32)?)?;
        Some(Self { tile_rows, tile_cols, depth })
    }

    /// Total rows of the padded matrix (`tile_rows · 2^depth`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.tile_rows << self.depth
    }

    /// Total columns of the padded matrix (`tile_cols · 2^depth`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.tile_cols << self.depth
    }

    /// Tiles per side (`2^depth`).
    #[inline]
    pub fn grid(&self) -> usize {
        1 << self.depth
    }

    /// Elements per leaf tile.
    #[inline]
    pub fn tile_len(&self) -> usize {
        self.tile_rows * self.tile_cols
    }

    /// Total buffer length.
    #[inline]
    pub fn len(&self) -> usize {
        self.tile_len() << (2 * self.depth)
    }

    /// True iff the layout holds no elements (never, given the
    /// constructor invariant — provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Morton code of the tile at grid position `(tr, tc)`: bits of `tr`
    /// and `tc` interleaved, row bit more significant at each level, so a
    /// 2×2 grid numbers NW=0, NE=1, SW=2, SE=3 (Figure 1).
    #[inline]
    pub fn tile_code(&self, tr: usize, tc: usize) -> usize {
        debug_assert!(tr < self.grid() && tc < self.grid());
        interleave2(tr, tc, self.depth)
    }

    /// Buffer offset of the first element of the tile at `(tr, tc)`.
    #[inline]
    pub fn tile_offset(&self, tr: usize, tc: usize) -> usize {
        self.tile_code(tr, tc) * self.tile_len()
    }

    /// Buffer offset of the logical element `(i, j)` of the padded matrix.
    #[inline]
    pub fn elem_offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows() && j < self.cols());
        let (tr, ti) = (i / self.tile_rows, i % self.tile_rows);
        let (tc, tj) = (j / self.tile_cols, j % self.tile_cols);
        self.tile_offset(tr, tc) + ti + tj * self.tile_rows
    }

    /// The layout of one quadrant (one level down the quadtree).
    ///
    /// # Panics
    /// At depth 0 (a leaf tile has no quadrants).
    #[track_caller]
    pub fn child(&self) -> MortonLayout {
        assert!(self.depth > 0, "leaf tile has no quadrants");
        MortonLayout { tile_rows: self.tile_rows, tile_cols: self.tile_cols, depth: self.depth - 1 }
    }

    /// Buffer offsets of the four quadrants, in NW, NE, SW, SE order.
    /// Each quadrant occupies a *contiguous* quarter of the buffer — the
    /// property the whole algorithm design rests on.
    #[inline]
    pub fn quadrant_offsets(&self) -> [usize; 4] {
        let q = self.len() / 4;
        [0, q, 2 * q, 3 * q]
    }

    /// Length of one quadrant's contiguous buffer region.
    #[inline]
    pub fn quadrant_len(&self) -> usize {
        self.len() / 4
    }
}

/// Interleaves the low `depth` bits of `row` and `col`, with each row bit
/// placed above the corresponding column bit.
#[inline]
pub fn interleave2(row: usize, col: usize, depth: usize) -> usize {
    let mut z = 0usize;
    for b in 0..depth {
        z |= ((col >> b) & 1) << (2 * b);
        z |= ((row >> b) & 1) << (2 * b + 1);
    }
    z
}

/// Inverse of [`interleave2`]: recovers `(row, col)` from a Morton code.
#[inline]
pub fn deinterleave2(z: usize, depth: usize) -> (usize, usize) {
    let mut row = 0usize;
    let mut col = 0usize;
    for b in 0..depth {
        col |= ((z >> (2 * b)) & 1) << b;
        row |= ((z >> (2 * b + 1)) & 1) << b;
    }
    (row, col)
}

/// Renders the tile-numbering grid (Figure 1 of the paper) for a layout:
/// entry `(tr, tc)` is the tile's position in the buffer.
pub fn tile_number_grid(layout: &MortonLayout) -> Vec<Vec<usize>> {
    let g = layout.grid();
    (0..g).map(|tr| (0..g).map(|tc| layout.tile_code(tr, tc)).collect()).collect()
}

/// Allocates a zeroed buffer for `layout`.
pub fn alloc_buffer<S: Scalar>(layout: &MortonLayout) -> Vec<S> {
    vec![S::ZERO; layout.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_tile_numbering() {
        // The paper's Figure 1: an 8×8 tile grid (depth 3). First two rows:
        //   0  1  4  5 16 17 20 21
        //   2  3  6  7 18 19 22 23
        let l = MortonLayout::new(4, 4, 3);
        let grid = tile_number_grid(&l);
        assert_eq!(grid[0], vec![0, 1, 4, 5, 16, 17, 20, 21]);
        assert_eq!(grid[1], vec![2, 3, 6, 7, 18, 19, 22, 23]);
        assert_eq!(grid[2], vec![8, 9, 12, 13, 24, 25, 28, 29]);
        assert_eq!(grid[3], vec![10, 11, 14, 15, 26, 27, 30, 31]);
        assert_eq!(grid[4], vec![32, 33, 36, 37, 48, 49, 52, 53]);
        assert_eq!(grid[7][7], 63);
    }

    #[test]
    fn interleave_roundtrip() {
        let depth = 7;
        for tr in (0..128).step_by(11) {
            for tc in (0..128).step_by(13) {
                let z = interleave2(tr, tc, depth);
                assert_eq!(deinterleave2(z, depth), (tr, tc));
            }
        }
    }

    #[test]
    fn tile_codes_are_a_permutation() {
        let l = MortonLayout::new(3, 5, 2);
        let mut seen = [false; 16];
        for tr in 0..4 {
            for tc in 0..4 {
                let z = l.tile_code(tr, tc);
                assert!(!seen[z], "duplicate code {z}");
                seen[z] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dimensions_and_lengths() {
        let l = MortonLayout::new(33, 17, 4);
        assert_eq!(l.rows(), 33 * 16);
        assert_eq!(l.cols(), 17 * 16);
        assert_eq!(l.len(), 33 * 17 * 256);
        assert_eq!(l.grid(), 16);
        assert_eq!(l.quadrant_len() * 4, l.len());
    }

    #[test]
    fn elem_offset_is_column_major_within_tile() {
        let l = MortonLayout::new(4, 4, 1);
        // Element (1, 2) is in tile (0, 0) at local (1, 2): offset 1 + 2*4.
        assert_eq!(l.elem_offset(1, 2), 9);
        // Element (5, 2) is in tile (1, 0) = code 2: base 2*16 = 32,
        // local (1, 2): 32 + 9 = 41.
        assert_eq!(l.elem_offset(5, 2), 41);
    }

    #[test]
    fn elem_offsets_are_a_permutation() {
        let l = MortonLayout::new(3, 2, 2);
        let mut seen = vec![false; l.len()];
        for i in 0..l.rows() {
            for j in 0..l.cols() {
                let o = l.elem_offset(i, j);
                assert!(!seen[o], "duplicate offset {o} at ({i},{j})");
                seen[o] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn quadrants_tile_the_buffer_in_nw_ne_sw_se_order() {
        let l = MortonLayout::new(8, 8, 2);
        let [nw, ne, sw, se] = l.quadrant_offsets();
        let q = l.quadrant_len();
        assert_eq!([nw, ne, sw, se], [0, q, 2 * q, 3 * q]);
        // The NE quadrant (rows 0..16, cols 16..32) starts exactly at
        // offset q: its top-left element is (0, 16).
        assert_eq!(l.elem_offset(0, 16), q);
        assert_eq!(l.elem_offset(16, 0), 2 * q);
        assert_eq!(l.elem_offset(16, 16), 3 * q);
    }

    #[test]
    fn child_layout_describes_a_quadrant() {
        let l = MortonLayout::new(5, 7, 3);
        let c = l.child();
        assert_eq!(c.rows() * 2, l.rows());
        assert_eq!(c.len() * 4, l.len());
        // An element in the NW quadrant has the same offset under the
        // child layout as under the parent.
        for (i, j) in [(0, 0), (3, 6), (c.rows() - 1, c.cols() - 1)] {
            assert_eq!(l.elem_offset(i, j), c.elem_offset(i, j));
        }
    }

    #[test]
    fn depth_zero_is_a_single_tile() {
        let l = MortonLayout::new(6, 4, 0);
        assert_eq!(l.len(), 24);
        // Column-major within the tile.
        assert_eq!(l.elem_offset(2, 3), 2 + 3 * 6);
    }

    #[test]
    #[should_panic(expected = "no quadrants")]
    fn leaf_has_no_child() {
        MortonLayout::new(4, 4, 0).child();
    }
}
