//! Dynamic selection of the recursion truncation point (tile size).
//!
//! The padded size of a dimension of extent `x` is `t · 2^d` where `t` is
//! the tile extent and `d` the recursion depth. The paper's key observation
//! (§3.4, Figure 2) is that letting `t` range over `[16, 64]` instead of
//! fixing it makes the padding small and essentially independent of `x`
//! (≤ 15 across the paper's measured range), whereas a fixed `t` can pad
//! almost 2× (e.g. 513 → 1024 with `t = 32`).
//!
//! Because Strassen's division step halves *all three* GEMM dimensions at
//! once, `m`, `k`, and `n` must share one depth `d` (§3.5); only the tile
//! extents may differ per dimension. [`choose_joint_tiling`] intersects the
//! feasible depth sets and fails (returns `None`) exactly when the operands
//! are too rectangular — the signal for the Figure 4 submatrix splitting.

/// Inclusive range of admissible tile extents. The paper uses 16–64:
/// large enough to amortize loop overhead, small enough that a tile pair
/// fits in L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileRange {
    /// Smallest admissible tile extent.
    pub min: usize,
    /// Largest admissible tile extent.
    pub max: usize,
}

impl TileRange {
    /// The paper's range, 16–64.
    pub const PAPER: TileRange = TileRange { min: 16, max: 64 };

    /// Creates a range, checking `0 < min <= max`.
    #[track_caller]
    pub fn new(min: usize, max: usize) -> Self {
        assert!(min > 0 && min <= max, "invalid tile range [{min}, {max}]");
        Self { min, max }
    }
}

/// The chosen tiling of a single dimension: extent `x` is padded to
/// `tile · 2^depth`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DimTiling {
    /// Tile extent `t`.
    pub tile: usize,
    /// Recursion depth `d`.
    pub depth: usize,
    /// Padded extent `t · 2^d`.
    pub padded: usize,
}

impl DimTiling {
    /// Padding added to the original extent `x`.
    pub fn padding(&self, x: usize) -> usize {
        self.padded - x
    }
}

/// Feasible depths for extent `x`: all `d ≥ 1` with
/// `min ≤ ceil(x / 2^d) ≤ max`, plus `d = 0` whenever `x ≤ max`
/// (a single leaf tile needs no recursion, so a tile smaller than `min`
/// is harmless there).
pub fn feasible_depths(x: usize, range: TileRange) -> Vec<usize> {
    assert!(x > 0, "extent must be positive");
    let mut out = Vec::new();
    if x <= range.max {
        out.push(0);
    }
    let mut d = 1usize;
    loop {
        let half = 1usize << d;
        let t = x.div_ceil(half);
        if t < range.min {
            break;
        }
        if t <= range.max && t >= range.min {
            out.push(d);
        }
        d += 1;
        if d > 63 {
            break;
        }
    }
    out.sort_unstable();
    out
}

/// Tile extent for `x` at depth `d` (the smallest tile covering `x`,
/// clamped up to `range.min` so degenerate deep recursions still produce a
/// legal tile).
pub fn tile_at_depth(x: usize, d: usize, range: TileRange) -> usize {
    x.div_ceil(1usize << d).max(if d == 0 { 1 } else { range.min })
}

/// Chooses the tiling of one dimension minimizing padding; ties broken
/// toward smaller depth (bigger tiles ⇒ less recursion overhead).
///
/// With `range = [16, 64]` this reproduces the paper's example:
///
/// ```
/// use modgemm_morton::tiling::{choose_dim_tiling, TileRange};
///
/// let t = choose_dim_tiling(513, TileRange::PAPER);
/// assert_eq!((t.tile, t.depth, t.padded), (33, 4, 528)); // §3.4
/// ```
pub fn choose_dim_tiling(x: usize, range: TileRange) -> DimTiling {
    assert!(x > 0, "extent must be positive");
    let mut best: Option<DimTiling> = None;
    for d in feasible_depths(x, range) {
        let tile = tile_at_depth(x, d, range);
        let padded = tile << d;
        let cand = DimTiling { tile, depth: d, padded };
        best = Some(match best {
            None => cand,
            Some(b) if cand.padded < b.padded => cand,
            Some(b) => b,
        });
    }
    // Always feasible: d = 0 is in the set whenever x <= max; for larger x
    // the minimal covering depth is feasible too. If the loop somehow found
    // nothing (can't happen for x > 0), fall back to a single tile.
    best.unwrap_or(DimTiling { tile: x, depth: 0, padded: x })
}

/// Chooses a fixed-tile tiling: depth is the smallest `d` with
/// `t · 2^d ≥ x`. This is the *static* strategy of the paper's Figure 2
/// comparison line (`T = 32`), against which the dynamic strategy wins.
pub fn fixed_tile_tiling(x: usize, t: usize) -> DimTiling {
    assert!(x > 0 && t > 0);
    let mut d = 0usize;
    while (t << d) < x {
        d += 1;
    }
    DimTiling { tile: t, depth: d, padded: t << d }
}

/// A joint tiling of a GEMM problem: one shared recursion depth, per-
/// dimension tile extents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JointTiling {
    /// Shared recursion depth.
    pub depth: usize,
    /// Tiling of the `m` dimension (rows of A and C).
    pub m: DimTiling,
    /// Tiling of the `k` dimension (cols of A, rows of B).
    pub k: DimTiling,
    /// Tiling of the `n` dimension (cols of B and C).
    pub n: DimTiling,
}

impl JointTiling {
    /// Total extra elements across the padded A, B, and C, saturating at
    /// `usize::MAX` for volumes no buffer could hold.
    pub fn padded_volume_overhead(&self, m: usize, k: usize, n: usize) -> usize {
        let extra = |p: usize, q: usize, x: usize, y: usize| {
            p.saturating_mul(q).saturating_sub(x.saturating_mul(y))
        };
        extra(self.m.padded, self.k.padded, m, k)
            .saturating_add(extra(self.k.padded, self.n.padded, k, n))
            .saturating_add(extra(self.m.padded, self.n.padded, m, n))
    }
}

/// Chooses the shared-depth tiling of `(m, k, n)` minimizing the total
/// padded-volume overhead, or `None` when no depth is feasible for all
/// three dimensions — the "highly rectangular" case that must be split
/// into submatrix products (§3.5, Figure 4).
pub fn choose_joint_tiling(m: usize, k: usize, n: usize, range: TileRange) -> Option<JointTiling> {
    assert!(m > 0 && k > 0 && n > 0, "extents must be positive");
    let dm = feasible_depths(m, range);
    let dk = feasible_depths(k, range);
    let dn = feasible_depths(n, range);
    let mut best: Option<(usize, JointTiling)> = None;
    for &d in &dm {
        if !dk.contains(&d) || !dn.contains(&d) {
            continue;
        }
        let at = |x: usize| {
            let tile = tile_at_depth(x, d, range);
            DimTiling { tile, depth: d, padded: tile << d }
        };
        let jt = JointTiling { depth: d, m: at(m), k: at(k), n: at(n) };
        let score = jt.padded_volume_overhead(m, k, n);
        best = Some(match best {
            None => (score, jt),
            Some((s, _)) if score < s => (score, jt),
            Some(prev) => prev,
        });
    }
    best.map(|(_, jt)| jt)
}

/// The Figure 2 data point for one `n`: `(n, padded_dynamic, padded_fixed32,
/// chosen_tile)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaddingPoint {
    /// Original matrix extent.
    pub n: usize,
    /// Padded extent with the dynamic tile (min-padding over the range).
    pub padded_dynamic: usize,
    /// Padded extent with a fixed tile of 32.
    pub padded_fixed32: usize,
    /// The dynamically chosen tile extent.
    pub tile: usize,
}

/// Regenerates the Figure 2 series over `ns`.
pub fn padding_series(ns: impl IntoIterator<Item = usize>, range: TileRange) -> Vec<PaddingPoint> {
    ns.into_iter()
        .map(|n| {
            let dy = choose_dim_tiling(n, range);
            let fx = fixed_tile_tiling(n, 32);
            PaddingPoint { n, padded_dynamic: dy.padded, padded_fixed32: fx.padded, tile: dy.tile }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: TileRange = TileRange::PAPER;

    #[test]
    fn paper_example_513() {
        // §3.4: "a square matrix size of 513 ... select a tile size of 33,
        // which requires padding with only 15 extra elements ... padded
        // matrix size 528, recursively divided four times".
        let t = choose_dim_tiling(513, R);
        assert_eq!(t.tile, 33);
        assert_eq!(t.depth, 4);
        assert_eq!(t.padded, 528);
        assert_eq!(t.padding(513), 15);
    }

    #[test]
    fn paper_example_fixed_32_on_513() {
        // "With a fixed tile size of 32, static padding requires a padded
        // matrix of size 1024."
        let t = fixed_tile_tiling(513, 32);
        assert_eq!(t.padded, 1024);
        assert_eq!(t.depth, 5);
    }

    #[test]
    fn powers_of_two_need_no_padding() {
        for n in [256usize, 512, 1024] {
            let t = choose_dim_tiling(n, R);
            assert_eq!(t.padded, n, "n = {n}");
        }
    }

    #[test]
    fn small_extents_are_single_tiles() {
        for n in 1..=64 {
            let t = choose_dim_tiling(n, R);
            assert_eq!(t.depth, 0);
            assert_eq!(t.padded, n);
        }
    }

    #[test]
    fn padding_bounded_in_paper_range() {
        // Figure 2's claim: with tiles from [16, 64], padding over the
        // measured range (up to 1024) never exceeds 15.
        for n in 65..=1024 {
            let t = choose_dim_tiling(n, R);
            assert!(t.padding(n) <= 15, "n = {n} padded to {}", t.padded);
            assert!((R.min..=R.max).contains(&t.tile), "n = {n} tile {}", t.tile);
        }
    }

    #[test]
    fn padding_bounded_by_depth_generally() {
        for n in (65..5000).step_by(37) {
            let t = choose_dim_tiling(n, R);
            assert!(t.padding(n) < (1 << t.depth), "n = {n}: {t:?}");
        }
    }

    #[test]
    fn fixed_tile_padding_can_approach_double() {
        // The worst case of the static strategy: just past a power of two.
        let t = fixed_tile_tiling(1025, 32);
        assert_eq!(t.padded, 2048);
    }

    #[test]
    fn feasible_depths_monotone_window() {
        // For a large extent the feasible depths form a contiguous window.
        let ds = feasible_depths(1000, R);
        assert!(!ds.is_empty());
        for w in ds.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn joint_tiling_square_matches_dim_tiling() {
        for n in [150usize, 513, 700, 1024] {
            let j = choose_joint_tiling(n, n, n, R).unwrap();
            let d = choose_dim_tiling(n, R);
            assert_eq!(j.m.padded, d.padded, "n = {n}");
            assert_eq!(j.depth, d.depth);
            assert_eq!(j.m, j.k);
            assert_eq!(j.k, j.n);
        }
    }

    #[test]
    fn joint_tiling_moderate_rectangles() {
        // Ratio 4 (= max/min of the range) is still jointly feasible; the
        // paper's 1024x256 example works at depth 4 with tiles 64 and 16.
        let j = choose_joint_tiling(1024, 256, 1024, R).unwrap();
        assert_eq!(j.depth, 4);
        assert_eq!(j.m.tile, 64);
        assert_eq!(j.k.tile, 16);
    }

    #[test]
    fn joint_tiling_fails_beyond_range_ratio() {
        // Ratio 8 exceeds max/min = 4: no shared depth exists.
        assert!(choose_joint_tiling(2048, 256, 2048, R).is_none());
        assert!(choose_joint_tiling(256, 2048, 256, R).is_none());
    }

    #[test]
    fn joint_tiling_small_problem_is_depth_zero() {
        let j = choose_joint_tiling(20, 30, 40, R).unwrap();
        assert_eq!(j.depth, 0);
        assert_eq!(j.m.padded, 20);
        assert_eq!(j.k.padded, 30);
        assert_eq!(j.n.padded, 40);
    }

    #[test]
    fn joint_padding_is_small_relative_to_problem() {
        let j = choose_joint_tiling(700, 600, 650, R).unwrap();
        assert!(j.m.padding(700) <= 15);
        assert!(j.k.padding(600) <= 15);
        assert!(j.n.padding(650) <= 15);
    }

    #[test]
    fn padding_series_shape() {
        let pts = padding_series([100usize, 513, 1024], R);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1].padded_dynamic, 528);
        assert_eq!(pts[1].padded_fixed32, 1024);
        assert_eq!(pts[1].tile, 33);
    }

    #[test]
    fn tile_range_validation() {
        let r = TileRange::new(8, 128);
        assert_eq!(r.min, 8);
        let t = choose_dim_tiling(513, r);
        assert!(t.padding(513) <= 7, "{t:?}");
    }

    #[test]
    #[should_panic(expected = "invalid tile range")]
    fn tile_range_rejects_inverted() {
        TileRange::new(64, 16);
    }
}
