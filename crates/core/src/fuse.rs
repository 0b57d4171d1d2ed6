//! The fused-operand Strassen level (the BLIS-style refactor of
//! Huang/Smith/Henry/van de Geijn, *Implementing Strassen's Algorithm
//! with BLIS*).
//!
//! The staged executor materializes every Winograd pre-add (`S`/`T`) and
//! post-merge product (`TP`) as arena temporaries before touching the leaf
//! kernel. This module runs the *innermost* Strassen level with no such
//! temporaries at all:
//!
//! * **pre-adds fold into packing** — [`modgemm_mat::pack::pack_a_sum_at`] /
//!   [`modgemm_mat::pack::pack_b_sum_at`] pack `±X ± Y` straight from the
//!   Morton quadrants into one MR/NR panel;
//! * **post-merges fold into the epilogue** —
//!   [`modgemm_mat::pack::packed_sweep`] accumulates each
//!   register-resident MR×NR tile into every C destination with ±1
//!   coefficients before the tile leaves the registers.
//!
//! Each fused product is a triple of operand **combos**: a signed list of
//! quadrant offsets into the A, B and C buffers of the fused subtree,
//! read from one row of the classical Strassen table (`TABLE`, 7
//! products, ≤ [`MAX_TERMS`] terms per combo). The classical recurrences
//! are chosen over Winograd's here because every operand combo stays a
//! plain ± sum of *input* quadrants — Winograd's chained `S`/`T` reuse is
//! precisely the staging this module eliminates. Both schedules compute
//! exactly `A·B`, so the staged Winograd path remains the bit-exact
//! oracle on integers.
//!
//! Only one level fuses ([`MAX_FUSE`]). A second level would compose the
//! table with itself (49 products, ~3 terms per combo, ~3 destinations
//! per product); it measured slower than one level at every size,
//! schedule tier and parallel shape tried, while saving only a few
//! percent of arena — the crossover Huang et al. report.
//!
//! Below the fused level the product is conventional (all eight
//! quadrant products at every level), applied to *every term of the
//! combo at once* — sound because quadrant selection distributes over the
//! operand sums. A packing kernel runs each fused product as packed
//! driver calls over the conventional subtree (the `terminal` module;
//! one call over all of it unless the memory budget is tight): each
//! combined B panel is packed once over a call's whole `k`, each combined
//! A block once per column group, and the microkernel scatters ± into
//! the destinations from its registers. With no conventional level below
//! (the default plans), that is one leaf product on the leaf's packing
//! slot. Non-packing kernels keep the Frens–Wise quadrant recursion down
//! to the leaves and materialize the combined operands in the (small,
//! leaf-sized) arena tail instead, so every [`modgemm_mat::KernelKind`]
//! executes fused plans correctly.

use modgemm_mat::addsub::{add_assign_flat, sub_assign_flat};
use modgemm_mat::view::{MatMut, MatRef};
use modgemm_mat::{KernelKind, LeafKernel, Scalar};

use crate::exec::{packs, zero_share, NodeLayouts, Share, CONV_STEPS};
use crate::terminal::{packed_terminal, Combo, Driver};

/// Maximum number of Strassen levels that run fused: the one level
/// `TABLE` covers. Each combined pack reads at most two quadrants for
/// the panel write it replaces a staged add *and* a plain pack with, so
/// this level never loses to the staged schedule; it is also what
/// [`crate::config::FuseDepth::Auto`] fuses on a packing kernel.
pub const MAX_FUSE: usize = 1;

/// Capacity of a fused operand combo: the ≤ 2 terms of a classical
/// Strassen table entry. Matches the kernel-side bound
/// [`modgemm_mat::pack::MAX_FUSE_TERMS`].
pub const MAX_TERMS: usize = 2;

/// One fused level: the classical Strassen recurrences as (A-combo,
/// B-combo, C-destination-list) triples over quadrant indices
/// `0 = 11 (NW), 1 = 12 (NE), 2 = 21 (SW), 3 = 22 (SE)`:
///
/// | product | A            | B            | scatters into    |
/// |---------|--------------|--------------|------------------|
/// | M1      | A11 + A22    | B11 + B22    | C11 +, C22 +     |
/// | M2      | A21 + A22    | B11          | C21 +, C22 −     |
/// | M3      | A11          | B12 − B22    | C12 +, C22 +     |
/// | M4      | A22          | B21 − B11    | C11 +, C21 +     |
/// | M5      | A11 + A12    | B22          | C12 +, C11 −     |
/// | M6      | A21 − A11    | B11 + B12    | C22 +            |
/// | M7      | A12 − A22    | B21 + B22    | C11 +            |
type TableRow = (&'static [(usize, bool)], &'static [(usize, bool)], &'static [(usize, bool)]);

#[rustfmt::skip]
const TABLE: [TableRow; 7] = [
    (&[(0, false), (3, false)], &[(0, false), (3, false)], &[(0, false), (3, false)]),
    (&[(2, false), (3, false)], &[(0, false)],             &[(2, false), (3, true)]),
    (&[(0, false)],             &[(1, false), (3, true)],  &[(1, false), (3, false)]),
    (&[(3, false)],             &[(2, false), (0, true)],  &[(0, false), (2, false)]),
    (&[(0, false), (1, false)], &[(3, false)],             &[(1, false), (0, true)]),
    (&[(2, false), (0, true)],  &[(0, false), (1, false)], &[(3, false)]),
    (&[(1, false), (3, true)],  &[(2, false), (3, false)], &[(0, false)]),
];

/// `C = A·B` over Morton buffers with the top Strassen level of
/// `layouts` run fused — the terminal the plan interpreter calls for the
/// innermost [`crate::exec::fused_levels`] of the recursion.
///
/// `ws` is the arena tail slot, at least [`crate::exec::fused_tail_len`]
/// elements for `layouts` under a fusing policy with `kernel`; its
/// contents are clobbered. Allocation-free.
pub fn fused_mul_with_ws<S: Scalar>(
    a: &[S],
    b: &[S],
    c: &mut [S],
    layouts: NodeLayouts,
    kernel: KernelKind,
    ws: &mut [S],
) {
    debug_assert_eq!(c.len(), layouts.c.len());
    // SAFETY: `c` is an exclusive borrow of the whole C buffer.
    let (c, leaf) = (c.as_mut_ptr(), Driver::LEAF);
    unsafe { fused_mul_share(a, b, c, layouts, kernel, leaf, ws, Share::ALL) }
}

/// One team rank's part of [`fused_mul_with_ws`]: zeroes its share of
/// every C quadrant, then runs the seven products restricted to that
/// share ([`crate::exec::terminal_share`]), each output element's
/// contributions in the serial order. A packing kernel runs each product
/// as packed driver calls of shape `driver` over the conventional subtree
/// below the fused level; other kernels recurse to the leaves.
///
/// # Safety
/// `c` is valid for writes of `layouts.c.len()` elements; no other
/// thread accesses this rank's share of it, or writes `a`/`b`, meanwhile.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn fused_mul_share<S: Scalar>(
    a: &[S],
    b: &[S],
    c: *mut S,
    layouts: NodeLayouts,
    kernel: KernelKind,
    driver: Driver,
    ws: &mut [S],
    share: Share,
) {
    assert!(layouts.a.depth >= 1, "a fused level needs layout depth >= 1");
    debug_assert_eq!(a.len(), layouts.a.len());
    debug_assert_eq!(b.len(), layouts.b.len());
    let kernel = kernel.resolve(layouts.a.tile_rows, layouts.a.tile_cols, layouts.b.tile_cols);
    let (qa, qb, qc) =
        (layouts.a.quadrant_len(), layouts.b.quadrant_len(), layouts.c.quadrant_len());
    let ch = layouts.child();
    for q in 0..4 {
        zero_share(c.add(q * qc), &ch.c, share);
    }
    if share.covers(0, 0) {
        for (ta, tb, tc) in TABLE {
            let (ac, bc, cc) = (Combo::of(ta, qa), Combo::of(tb, qb), Combo::of(tc, qc));
            fused_mul_add_rec(a, b, c, (ac, bc, cc), ch, kernel, driver, ws, share, 0, 0);
        }
    }
}

/// `ΣC-dests += (ΣA-terms)·(ΣB-terms)` by conventional quadrant
/// recursion applied to all combo terms in lockstep — quadrant selection
/// distributes over the sums, so every term (and destination) shifts by
/// the same quadrant offset. The eight calls keep the Frens-Wise
/// operand-reuse ordering of [`crate::exec::morton_mul_add_with_ws`];
/// `pos` is the destinations' C sub-quadrant `depth` levels below the
/// fused level, and sub-quadrants outside `share` are skipped. A packing
/// kernel hands each node of `driver.levels` or fewer levels to one
/// packed driver call; other kernels recurse to the leaves.
///
/// # Safety
/// As [`fused_mul_share`].
#[allow(clippy::too_many_arguments)]
unsafe fn fused_mul_add_rec<S: Scalar>(
    a: &[S],
    b: &[S],
    c: *mut S,
    (ac, bc, cc): (Combo, Combo, Combo),
    l: NodeLayouts,
    kernel: KernelKind,
    driver: Driver,
    ws: &mut [S],
    share: Share,
    depth: u32,
    pos: usize,
) {
    if packs(l, kernel) && l.a.depth <= driver.levels {
        packed_terminal(a, b, c, (ac, bc, cc), l, driver.cols, ws, share, (depth, pos));
        return;
    }
    if l.a.depth == 0 {
        fused_leaf(a, b, c, ac, bc, cc, l, kernel, ws);
        return;
    }
    let ch = l.child();
    let (qa, qb, qc) = (l.a.quadrant_len(), l.b.quadrant_len(), l.c.quadrant_len());
    for (ia, ib, ic) in CONV_STEPS {
        let p = pos * 4 + ic;
        if share.covers(depth + 1, p) {
            let combos = (ac.shift(ia * qa), bc.shift(ib * qb), cc.shift(ic * qc));
            fused_mul_add_rec(a, b, c, combos, ch, kernel, driver, ws, share, depth + 1, p);
        }
    }
}

/// One fused leaf product of a non-packing kernel: the combined
/// operands materialized in the (leaf-sized) arena tail, one tile
/// multiply, then a ± add into every destination tile (whole tiles of
/// the rank's share).
///
/// # Safety
/// As [`fused_mul_share`].
#[allow(clippy::too_many_arguments)]
unsafe fn fused_leaf<S: Scalar>(
    a: &[S],
    b: &[S],
    c: *mut S,
    ac: Combo,
    bc: Combo,
    cc: Combo,
    l: NodeLayouts,
    kernel: KernelKind,
    ws: &mut [S],
) {
    let (tm, tk, tn) = (l.a.tile_rows, l.a.tile_cols, l.b.tile_cols);
    let (la, lb, lc) = (tm * tk, tk * tn, tm * tn);
    debug_assert!(cc.distinct(), "aliasing scatter destinations");
    let nc = cc.n as usize;
    let (a_tmp, rest) = ws.split_at_mut(la);
    let (b_tmp, rest) = rest.split_at_mut(lb);
    let c_tmp = &mut rest[..lc];
    combine(a, ac, la, a_tmp);
    combine(b, bc, lb, b_tmp);
    c_tmp.fill(S::ZERO);
    let av = MatRef::from_slice(a_tmp, tm, tk, tm);
    let bv = MatRef::from_slice(b_tmp, tk, tn, tk);
    let cv = MatMut::from_slice(c_tmp, tm, tn, tm);
    kernel.mul_add_in(av, bv, cv, &mut []);
    for i in 0..nc {
        // The rank owns this whole destination tile.
        let dst = core::slice::from_raw_parts_mut(c.add(cc.off[i]), lc);
        if cc.neg[i] {
            sub_assign_flat(dst, c_tmp);
        } else {
            add_assign_flat(dst, c_tmp);
        }
    }
}

/// Materializes `ΣA-terms` (length `len` each) into `dst`.
fn combine<S: Scalar>(src: &[S], combo: Combo, len: usize, dst: &mut [S]) {
    let t0 = &src[combo.off[0]..combo.off[0] + len];
    dst.copy_from_slice(t0);
    if combo.neg[0] {
        for d in dst.iter_mut() {
            *d = -*d;
        }
    }
    for i in 1..combo.n as usize {
        let t = &src[combo.off[i]..combo.off[i] + len];
        if combo.neg[i] {
            sub_assign_flat(dst, t);
        } else {
            add_assign_flat(dst, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{fused_tail_len, ExecPolicy};
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::norms::assert_matrix_eq;
    use modgemm_mat::view::Op;
    use modgemm_mat::Matrix;
    use modgemm_morton::convert::{from_morton, to_morton};
    use modgemm_morton::MortonLayout;

    /// `A·B` through [`fused_mul_with_ws`] on `tm × tk × tn` leaf tiles
    /// at Morton depth `depth`: the top level fused, `depth - 1`
    /// conventional levels below it.
    fn run_fused<S: Scalar>(
        a: &Matrix<S>,
        b: &Matrix<S>,
        tm: usize,
        tk: usize,
        tn: usize,
        depth: usize,
        kernel: KernelKind,
    ) -> Matrix<S> {
        let la = MortonLayout::new(tm, tk, depth);
        let lb = MortonLayout::new(tk, tn, depth);
        let lc = MortonLayout::new(tm, tn, depth);
        let layouts = NodeLayouts::new(la, lb, lc);
        let mut ab = vec![S::ZERO; la.len()];
        let mut bb = vec![S::ZERO; lb.len()];
        let mut cb = vec![S::ZERO; lc.len()];
        to_morton(a.view(), Op::NoTrans, &la, &mut ab);
        to_morton(b.view(), Op::NoTrans, &lb, &mut bb);
        let policy = ExecPolicy { kernel, fuse: MAX_FUSE, ..Default::default() };
        let mut ws = vec![S::ZERO; fused_tail_len(layouts, policy)];
        fused_mul_with_ws(&ab, &bb, &mut cb, layouts, kernel, &mut ws);
        let mut out = Matrix::zeros(a.rows(), b.cols());
        from_morton(&cb, &lc, out.view_mut());
        out
    }

    #[test]
    fn table_reconstructs_the_product_exactly() {
        // Depth 1: the entire multiply runs through the fused table with
        // no conventional levels below it.
        for kernel in [KernelKind::Blocked, KernelKind::Packed, KernelKind::Naive] {
            let a: Matrix<i64> = random_matrix(8, 8, 101);
            let b: Matrix<i64> = random_matrix(8, 8, 201);
            let got = run_fused(&a, &b, 4, 4, 4, 1, kernel);
            assert_eq!(got, naive_product(&a, &b), "kernel {kernel}");
        }
    }

    #[test]
    fn conventional_levels_below_the_fused_levels_stay_exact() {
        // Depth 3: the fused products recurse conventionally for two
        // levels before bottoming out in the leaves.
        for kernel in [KernelKind::Blocked, KernelKind::Packed] {
            let a: Matrix<i64> = random_matrix(24, 24, 301);
            let b: Matrix<i64> = random_matrix(24, 24, 401);
            let got = run_fused(&a, &b, 3, 3, 3, 3, kernel);
            assert_eq!(got, naive_product(&a, &b), "kernel {kernel}");
        }
    }

    #[test]
    fn rectangular_tiles_and_padding_stay_exact() {
        let a: Matrix<i64> = random_matrix(19, 11, 500);
        let b: Matrix<i64> = random_matrix(11, 27, 501);
        let got = run_fused(&a, &b, 5, 3, 7, 2, KernelKind::Blocked);
        assert_eq!(got, naive_product(&a, &b));
        let got = run_fused(&a, &b, 5, 3, 7, 2, KernelKind::Packed);
        assert_eq!(got, naive_product(&a, &b), "packed");
    }

    #[test]
    fn floats_match_within_tolerance_through_the_simd_scatter() {
        // Full 8-wide tiles so the vectorized scatter epilogue (when the
        // host has one) covers whole panels, with 0..=2 conventional
        // levels below the fused one.
        let a: Matrix<f64> = random_matrix(64, 64, 600);
        let b: Matrix<f64> = random_matrix(64, 64, 601);
        let expect = naive_product(&a, &b);
        for depth in 1..=3 {
            let tile = 64 >> depth;
            let got = run_fused(&a, &b, tile, tile, tile, depth, KernelKind::Packed);
            assert_matrix_eq(got.view(), expect.view(), 64);
        }
        let a: Matrix<f32> = random_matrix(32, 32, 602);
        let b: Matrix<f32> = random_matrix(32, 32, 603);
        let expect = naive_product(&a, &b);
        let got = run_fused(&a, &b, 8, 8, 8, 2, KernelKind::Packed);
        assert_matrix_eq(got.view(), expect.view(), 32);
    }
}
