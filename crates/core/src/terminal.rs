//! The packed terminal: one Goto-style driver over a Morton subtree.
//!
//! Below the last Strassen level the recursion is conventional: a
//! subtree of `g × g` leaf tiles (`g = 2^levels`) of each operand. With
//! a packing kernel it does not recurse to the leaves and multiply tile
//! by tile; it runs as one packed product over the whole subtree
//! (Goto/BLIS, and the way Huang et al., *Implementing Strassen's
//! Algorithm with BLIS*, fold a fused level's operand sums into packing):
//!
//! 1. for each group of `nc` tile columns, the combined B panel of each
//!    column (at most [`crate::fuse::MAX_TERMS`] ± terms) is packed once
//!    over the subtree's whole `k = g · tk`;
//! 2. for each tile row, the combined A block is packed once per column
//!    group over the same `k`;
//! 3. the microkernel sweeps the group's C tiles of that row with that
//!    `k`, adding ± into at most two destinations straight from its
//!    registers.
//!
//! Every Morton leaf is a contiguous column-major tile, so packing
//! straight from the tiles stays unit-stride. Against a per-leaf loop,
//! each combined operand tile is packed once per column group instead of
//! once per partner tile, and each C tile is loaded and stored once per
//! product instead of once per `k` tile. A subtree of one tile (`g = 1`)
//! is exactly one leaf product on the leaf's packing slot.
//!
//! The driver's slot, one A block and `nc` B panels over the whole `k`,
//! grows with `g`, and every team rank needs its own. Under a tight
//! memory budget a call therefore spans a smaller subtree ([`Driver`]):
//! the Frens–Wise recursion runs above spans of `2^levels × 2^levels`
//! tiles and each span is one driver call, down to one tile per call —
//! the per-leaf loop and its slot. The plan picks the widest span the
//! budget holds for two ranks, then the team, then `nc`.
//!
//! A team splits the subtree by C sub-quadrant ([`Share`]): each rank
//! packs what its tiles need and sweeps only its tiles. Every C element
//! is summed over a span's whole `k` in one register accumulation and
//! added once per span, whoever computes it and whatever `nc` is; the
//! span does not depend on the worker count, so the team's result is
//! bitwise the one-thread result.

use modgemm_mat::pack::{pack_a_sum_at, pack_b_sum_at, packed_a_len, packed_b_len, packed_sweep};
use modgemm_mat::view::MatRef;
use modgemm_mat::Scalar;
use modgemm_morton::MortonLayout;

use crate::exec::{NodeLayouts, Share};
use crate::fuse::MAX_TERMS;

/// The packed terminal's shape: each driver call spans a subtree of
/// `2^levels × 2^levels` leaf tiles of the conventional subtree (all of
/// it once `levels` reaches its depth; the Frens–Wise recursion runs
/// above smaller spans), with `cols` tile columns per packed B panel.
/// A plan picks the widest span and panel its budget holds; the span
/// decides the summation order, the panel width does not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Driver {
    pub(crate) levels: usize,
    pub(crate) cols: usize,
}

impl Driver {
    /// One leaf tile per call and one column: exactly a leaf's packing
    /// slot and a leaf's arithmetic.
    pub(crate) const LEAF: Driver = Driver { levels: 0, cols: 1 };

    /// `(levels, cols)`, the form [`crate::counts::packed_bytes`] takes.
    pub(crate) fn shape(self) -> (usize, usize) {
        (self.levels, self.cols)
    }

    /// The layouts one driver call spans inside the conventional
    /// subtree `l`.
    pub(crate) fn span(self, l: NodeLayouts) -> NodeLayouts {
        let depth = self.levels.min(l.a.depth);
        let tile = |t: &MortonLayout| MortonLayout::new(t.tile_rows, t.tile_cols, depth);
        NodeLayouts::new(tile(&l.a), tile(&l.b), tile(&l.c))
    }
}

/// Columns of C one packed A block serves before it is packed again:
/// the widest B panel a plan asks for is `ceil(PANEL_COLS / tn)` tile
/// columns. At 256 columns each packed A element feeds 512 flops, and a
/// wider panel only costs memory: fully conventional 1024³ on 64-wide
/// tiles read the same with 4, 8 and 16 tile columns per panel, and
/// 10–15 % slower with one.
pub(crate) const PANEL_COLS: usize = 256;

/// A signed sum of up to [`MAX_TERMS`] equally-shaped Morton subtrees,
/// identified by their element offsets into the fused root buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Combo {
    /// Live terms in `off`/`neg`.
    pub(crate) n: u8,
    /// Element offset of each term's subtree.
    pub(crate) off: [usize; MAX_TERMS],
    /// True for terms entering with coefficient −1.
    pub(crate) neg: [bool; MAX_TERMS],
}

impl Combo {
    /// The whole buffer, once, with coefficient +1: the operand (or
    /// destination) of an unfused product.
    pub(crate) const WHOLE: Combo = Combo { n: 1, off: [0; MAX_TERMS], neg: [false; MAX_TERMS] };

    /// The combo of one fused-table entry: quadrant `qi` of the fused
    /// buffer (`q` = quadrant length) starts at element `qi * q`.
    pub(crate) fn of(quads: &[(usize, bool)], q: usize) -> Combo {
        let mut c = Combo { n: quads.len() as u8, off: [0; MAX_TERMS], neg: [false; MAX_TERMS] };
        for (i, &(qi, neg)) in quads.iter().enumerate() {
            c.off[i] = qi * q;
            c.neg[i] = neg;
        }
        c
    }

    /// True when no two live terms share an offset: scatter
    /// destinations must never alias.
    pub(crate) fn distinct(self) -> bool {
        let live = &self.off[..self.n as usize];
        live.iter().enumerate().all(|(i, o)| !live[i + 1..].contains(o))
    }

    /// The combo shifted into quadrant `base` of a parent buffer.
    pub(crate) fn shift(mut self, base: usize) -> Combo {
        for off in &mut self.off[..self.n as usize] {
            *off += base;
        }
        self
    }

    /// The combo's terms at the leaf tile `(r, c)` of `l`, as views into
    /// `buf` (entries past `n` repeat the last term and are never read).
    fn tiles<'t, S: Scalar>(
        self,
        buf: &'t [S],
        l: &MortonLayout,
        r: usize,
        c: usize,
    ) -> [(MatRef<'t, S>, bool); MAX_TERMS] {
        let (rows, cols, off) = (l.tile_rows, l.tile_cols, l.tile_offset(r, c));
        core::array::from_fn(|i| {
            let t = i.min(self.n as usize - 1);
            let start = self.off[t] + off;
            (MatRef::from_slice(&buf[start..start + rows * cols], rows, cols, rows), self.neg[t])
        })
    }
}

/// Elements of the packed terminal's buffers over the conventional
/// subtree `l` with driver shape `d`: one packed A block of a tile row
/// over the span's whole `k`, and one packed B panel of that `k` per
/// tile column of a group (`d.cols`, clamped to the span's `g`). The
/// one-tile span ([`Driver::LEAF`]) gives exactly the leaf's
/// [`modgemm_mat::pack::packed_len`].
pub(crate) fn packed_terminal_len(l: NodeLayouts, d: Driver) -> usize {
    let s = d.span(l);
    let g = s.a.grid();
    let kt = g * s.a.tile_cols;
    packed_a_len(s.a.tile_rows, kt) + d.cols.clamp(1, g) * packed_b_len(kt, s.b.tile_cols)
}

/// Elements the packed terminal over `l` packs in one product with
/// driver shape `d`: per driver call (`8^(depth − levels)` of them) every
/// B panel once and every A block once per column group — the serial
/// count; a team's ranks each pack the B panels their tiles need.
pub(crate) fn packed_terminal_elems(l: NodeLayouts, d: Driver) -> u64 {
    let s = d.span(l);
    let g = s.a.grid();
    let kt = g * s.a.tile_cols;
    let groups = g.div_ceil(d.cols.clamp(1, g));
    let b = g * packed_b_len(kt, s.b.tile_cols);
    let a = g * groups * packed_a_len(s.a.tile_rows, kt);
    8u64.pow((l.a.depth - s.a.depth) as u32) * (a + b) as u64
}

/// `ΣC-dests += (ΣA-terms)·(ΣB-terms)` over the subtree `l` (every tile
/// of the rank's `share`) by the packed driver of the module docs, with
/// `cols` tile columns per B panel, on `ws` of at least
/// [`packed_terminal_len`] elements for that shape. `l` sits `at.0`
/// levels below the conventional root the share is cut from, as its
/// Morton sub-quadrant `at.1`. Destination terms must be pairwise
/// distinct; their signs apply from the microkernel's registers.
///
/// # Safety
/// `c` is valid for writes at every destination subtree of `cc`
/// (`l.c.len()` elements from each offset); no other thread accesses
/// this rank's share of them, or writes `a`/`b`, meanwhile.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn packed_terminal<S: Scalar>(
    a: &[S],
    b: &[S],
    c: *mut S,
    (ac, bc, cc): (Combo, Combo, Combo),
    l: NodeLayouts,
    cols: usize,
    ws: &mut [S],
    share: Share,
    at: (u32, usize),
) {
    debug_assert!(cc.distinct(), "aliasing scatter destinations");
    let (na, nb, nd) = (ac.n as usize, bc.n as usize, cc.n as usize);
    let (depth, g) = (l.a.depth as u32, l.a.grid());
    let (tm, tk, tn) = (l.a.tile_rows, l.a.tile_cols, l.b.tile_cols);
    let kt = g * tk;
    let nc = cols.clamp(1, g);
    let (la, lb) = (packed_a_len(tm, kt), packed_b_len(kt, tn));
    let (abuf, rest) = ws.split_at_mut(la);
    let bbuf = &mut rest[..nc * lb];
    let neg_mask = (0..nd).fold(0u32, |m, d| m | u32::from(cc.neg[d]) << d);
    let owned = |r: usize, col: usize| {
        share.holds(at.0 + depth, at.1 << (2 * depth) | l.c.tile_code(r, col))
    };
    for j0 in (0..g).step_by(nc) {
        let cols = j0..g.min(j0 + nc);
        for j in cols.clone() {
            if !(0..g).any(|r| owned(r, j)) {
                continue;
            }
            let panel = &mut bbuf[(j - j0) * lb..(j - j0 + 1) * lb];
            for p in 0..g {
                pack_b_sum_at(&bc.tiles(b, &l.b, p, j)[..nb], panel, kt, p * tk);
            }
        }
        for r in 0..g {
            if !cols.clone().any(|j| owned(r, j)) {
                continue;
            }
            for p in 0..g {
                pack_a_sum_at(&ac.tiles(a, &l.a, r, p)[..na], abuf, kt, p * tk);
            }
            for j in cols.clone().filter(|&j| owned(r, j)) {
                let off = l.c.tile_offset(r, j);
                let dests: [*mut S; MAX_TERMS] =
                    core::array::from_fn(|d| if d < nd { c.add(cc.off[d] + off) } else { c });
                // SAFETY: each destination is one whole leaf tile (a
                // contiguous tm × tn window, ld tm) of a distinct
                // destination subtree, inside this rank's share.
                packed_sweep(abuf, &bbuf[(j - j0) * lb..], tm, kt, tn, &dests[..nd], neg_mask, tm);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::terminal_share;
    use crate::pool::Rank;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::view::Op;
    use modgemm_mat::Matrix;
    use modgemm_morton::convert::{from_morton, to_morton};

    /// Morton buffers of `terms` random `(g·tm) × (g·tk)` matrices laid
    /// out back to back, and the matrices.
    fn operands(terms: usize, l: &MortonLayout, seed: u64) -> (Vec<i64>, Vec<Matrix<i64>>) {
        let mut buf = vec![0i64; terms * l.len()];
        let mats: Vec<Matrix<i64>> =
            (0..terms).map(|t| random_matrix(l.rows(), l.cols(), seed + t as u64)).collect();
        for (t, m) in mats.iter().enumerate() {
            to_morton(m.view(), Op::NoTrans, l, &mut buf[t * l.len()..(t + 1) * l.len()]);
        }
        (buf, mats)
    }

    /// `Σ ±mats[t]` (sign `negs[t]`).
    fn combined(mats: &[Matrix<i64>], negs: &[bool]) -> Matrix<i64> {
        let (r, c) = (mats[0].rows(), mats[0].cols());
        Matrix::from_fn(r, c, |i, j| {
            mats.iter().zip(negs).map(|(m, &n)| if n { -m.get(i, j) } else { m.get(i, j) }).sum()
        })
    }

    /// Runs the driver for `na`/`nb` operand terms into `nd`
    /// destinations on `tm × tk × tn` tiles at depth `depth`, split among
    /// `ranks` (each rank with its own `ws`), and checks every
    /// destination bitwise against `init ± (ΣA)(ΣB)` from
    /// `naive_product`.
    #[allow(clippy::too_many_arguments)]
    fn check(
        (tm, tk, tn): (usize, usize, usize),
        depth: usize,
        (na, nb, nd): (usize, usize, usize),
        panel_tiles: usize,
        ranks: usize,
    ) {
        let l = NodeLayouts::new(
            MortonLayout::new(tm, tk, depth),
            MortonLayout::new(tk, tn, depth),
            MortonLayout::new(tm, tn, depth),
        );
        let seed = (tm * 131 + tk * 17 + tn + depth * 7 + na * 3 + nb * 5 + nd) as u64;
        let (ab, am) = operands(na, &l.a, seed);
        let (bb, bm) = operands(nb, &l.b, seed + 10);
        let (mut cb, cm) = operands(nd, &l.c, seed + 20);
        let (negs_a, negs_b, negs_c) = ([false, true], [true, false], [false, true]);
        let combo = |n: usize, len: usize, negs: [bool; 2]| {
            let quads: Vec<(usize, bool)> = (0..n).map(|t| (t, negs[t])).collect();
            Combo::of(&quads, len)
        };
        let combos = (
            combo(na, l.a.len(), negs_a),
            combo(nb, l.b.len(), negs_b),
            combo(nd, l.c.len(), negs_c),
        );
        let len = packed_terminal_len(l, Driver { levels: depth, cols: panel_tiles });
        for id in 0..ranks {
            let rank = Rank::detached(id, ranks);
            let share = terminal_share(l, crate::exec::ExecPolicy::default(), rank);
            let mut ws = vec![i64::MIN; len];
            // SAFETY: one rank at a time; the shares are disjoint.
            unsafe {
                let at = (0, 0);
                packed_terminal(
                    &ab,
                    &bb,
                    cb.as_mut_ptr(),
                    combos,
                    l,
                    panel_tiles,
                    &mut ws,
                    share,
                    at,
                )
            };
        }
        let p = naive_product(&combined(&am, &negs_a[..na]), &combined(&bm, &negs_b[..nb]));
        for d in 0..nd {
            let mut got = Matrix::zeros(l.c.rows(), l.c.cols());
            from_morton(&cb[d * l.c.len()..(d + 1) * l.c.len()], &l.c, got.view_mut());
            let want = Matrix::from_fn(got.rows(), got.cols(), |i, j| {
                let v = cm[d].get(i, j);
                if negs_c[d] {
                    v - p.get(i, j)
                } else {
                    v + p.get(i, j)
                }
            });
            assert_eq!(
                got, want,
                "{tm}x{tk}x{tn} depth {depth} terms {na}/{nb}/{nd} nc {panel_tiles} ranks {ranks}"
            );
        }
    }

    #[test]
    fn exact_on_i64_for_every_subtree_size_term_and_destination_count() {
        // g = 1, 2, 4 and 8; 1–2 operand terms, 1–2 destinations.
        for depth in 0..=3 {
            for terms in [(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2)] {
                check((9, 5, 6), depth, terms, 1, 1);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "large tiles; the 9·5·6 tests cover the same ragged panels")]
    fn ragged_tiles_stay_exact() {
        // tm ≠ tk ≠ tn with ragged MR/NR edges: 48/40/44 and 35/29/32.
        check((48, 40, 44), 1, (2, 2, 2), 2, 1);
        check((35, 29, 32), 2, (2, 1, 2), 3, 1);
        check((35, 29, 32), 1, (1, 2, 1), 1, 1);
    }

    #[test]
    fn every_panel_width_gives_the_same_product() {
        // nc = 1 (the tight-budget fallback) up to the whole subtree, and
        // past it (clamped); a width that does not divide g leaves a
        // narrower last group.
        for nc in [1, 2, 3, 4, 5, 8, 9] {
            check((9, 5, 6), 3, (2, 2, 2), nc, 1);
        }
    }

    #[test]
    fn team_shares_cover_every_tile_once() {
        // Each rank sweeps only its C sub-quadrants; together they give
        // the one-thread product, at every team size the split supports.
        for ranks in [2, 3, 4, 7] {
            check((9, 5, 6), 2, (2, 2, 2), 2, ranks);
            check((9, 5, 6), 3, (1, 1, 1), 3, ranks);
        }
    }

    #[test]
    fn one_tile_subtree_is_the_leaf_packing_slot() {
        let l = MortonLayout::new(33, 36, 0);
        let layouts =
            NodeLayouts::new(l, MortonLayout::new(36, 40, 0), MortonLayout::new(33, 40, 0));
        let wide = Driver { levels: 3, cols: 4 };
        let leaf = modgemm_mat::pack::packed_len(33, 36, 40);
        assert_eq!(packed_terminal_len(layouts, Driver::LEAF), leaf);
        assert_eq!(packed_terminal_len(layouts, wide), leaf);
        assert_eq!(
            packed_terminal_elems(layouts, wide),
            modgemm_mat::pack::packed_len(33, 36, 40) as u64
        );
    }

    #[test]
    fn every_span_through_the_recursion_stays_exact() {
        // Driver spans of 1 to 8 × 8 tiles under the Frens–Wise recursion
        // of an 8 × 8-tile subtree, and of 1 to 4 × 4 tiles below a fused
        // level, on one rank and split among three (each rank on its own
        // slot). Small ragged tiles keep it fast enough for Miri.
        use crate::exec::{morton_mul_share, ExecPolicy};
        use modgemm_mat::KernelKind;
        let (tm, tk, tn) = (5, 3, 6);
        for levels in 0..=3 {
            for ranks in [1, 3] {
                for fused in [false, true] {
                    let depth = 3;
                    let l = NodeLayouts::new(
                        MortonLayout::new(tm, tk, depth),
                        MortonLayout::new(tk, tn, depth),
                        MortonLayout::new(tm, tn, depth),
                    );
                    let (ab, am) = operands(1, &l.a, 700);
                    let (bb, bm) = operands(1, &l.b, 701);
                    let mut cb = vec![i64::MIN; l.c.len()];
                    let driver = Driver { levels, cols: 2 };
                    let policy = ExecPolicy {
                        kernel: KernelKind::Packed,
                        fuse: usize::from(fused),
                        ..Default::default()
                    };
                    let conv = if fused { l.child() } else { l };
                    for id in 0..ranks {
                        let share = terminal_share(l, policy, Rank::detached(id, ranks));
                        let mut ws = vec![i64::MIN; packed_terminal_len(conv, driver)];
                        let c = cb.as_mut_ptr();
                        // SAFETY: one rank at a time; the shares are disjoint.
                        unsafe {
                            if fused {
                                let kernel = KernelKind::Packed;
                                crate::fuse::fused_mul_share(
                                    &ab, &bb, c, l, kernel, driver, &mut ws, share,
                                );
                            } else {
                                morton_mul_share(
                                    &ab,
                                    &bb,
                                    c,
                                    l,
                                    KernelKind::Packed,
                                    driver,
                                    &mut ws,
                                    share,
                                );
                            }
                        }
                    }
                    let mut got = Matrix::zeros(l.c.rows(), l.c.cols());
                    from_morton(&cb, &l.c, got.view_mut());
                    let want = naive_product(&am[0], &bm[0]);
                    assert_eq!(got, want, "levels {levels} ranks {ranks} fused {fused}");
                }
            }
        }
    }
}
