//! Fused-operand Strassen levels (the BLIS-style refactor of
//! Huang/Smith/Henry/van de Geijn, *Implementing Strassen's Algorithm
//! with BLIS*).
//!
//! The staged executor materializes every Winograd pre-add (`S`/`T`) and
//! post-merge (`TP`/`TQ`) as arena temporaries before touching the leaf
//! kernel. This module runs the *innermost* [`MAX_FUSE`] Strassen levels
//! with no such temporaries at all:
//!
//! * **pre-adds fold into packing** — [`modgemm_mat::pack::pack_a_sum`] /
//!   [`modgemm_mat::pack::pack_b_sum`] pack `±X ± Y` straight from the
//!   Morton quadrants into one MR/NR panel;
//! * **post-merges fold into the epilogue** —
//!   [`modgemm_mat::pack::packed_mul_scatter_in`] accumulates each
//!   register-resident MR×NR tile into every C destination with ±1
//!   coefficients before the tile leaves the registers.
//!
//! Each fused product is a triple of operand **combos**: a signed list of
//! quadrant offsets into the A, B and C buffers of the fused subtree.
//! One fused level is the classical Strassen table (`TABLE`, 7
//! products, ≤ 2 terms per combo); two levels compose the table with
//! itself (49 products, ≤ 4 terms — the capacity bound
//! [`MAX_TERMS`]). The classical recurrences are chosen over Winograd's
//! here because every operand combo stays a plain ± sum of *input*
//! quadrants — Winograd's chained `S`/`T` reuse is precisely the staging
//! this module eliminates. Both schedules compute exactly `A·B`, so the
//! staged Winograd path remains the bit-exact oracle on integers.
//!
//! Below the fused levels the recursion is conventional (all eight
//! quadrant products), applied to *every term of the combo at once* —
//! sound because quadrant selection distributes over the operand sums.
//! At the leaves a packed kernel runs pack-combine → microkernel →
//! multi-scatter; non-packing kernels materialize the combined operands
//! in the (small, leaf-sized) arena tail instead, so every
//! [`modgemm_mat::KernelKind`] executes fused plans correctly.

use modgemm_mat::addsub::{add_assign_flat, sub_assign_flat};
use modgemm_mat::pack::packed_mul_scatter_in;
use modgemm_mat::view::{MatMut, MatRef};
use modgemm_mat::{KernelKind, LeafKernel, Scalar};

use crate::exec::NodeLayouts;

/// Maximum number of Strassen levels the fused tables cover. Two levels
/// compose to 49 products with up to [`MAX_TERMS`] operand terms each —
/// the point past which combined packing stops being a bandwidth win
/// (every extra level doubles the packing reads per panel).
pub const MAX_FUSE: usize = 2;

/// The fused depth [`crate::config::FuseDepth::Auto`] resolves to when
/// the plan's kernel packs: one level. A single fused level is a pure
/// win — each combined pack reads at most two quadrants for the panel
/// write it replaces a staged add *and* a plain pack with. At two
/// levels the combos average ~3 terms and every product scatters into
/// ~3 C tiles; at cache-resident sizes that extra traffic costs more
/// than the staged adds it saves (measured: one level ≥ staged at
/// n = 512, two levels ≈ 12 % behind — the same crossover
/// Huang et al. report). Deeper fusion stays reachable by choice
/// (`Fixed`), by measurement (the tuner sweeps 0..=[`MAX_FUSE`]), and
/// by necessity (the memory-budget ladder climbs to [`MAX_FUSE`], where
/// the smaller arena — not speed — is the objective).
pub const AUTO_FUSE: usize = 1;

/// Capacity of a fused operand combo: 2 terms per classical-Strassen
/// level, squared at [`MAX_FUSE`] `== 2`. Matches the kernel-side bound
/// [`modgemm_mat::pack::MAX_FUSE_TERMS`].
pub const MAX_TERMS: usize = 4;

/// A signed sum of up to [`MAX_TERMS`] equally-shaped Morton subtrees,
/// identified by their element offsets into the fused root buffer.
#[derive(Clone, Copy, Debug)]
struct Combo {
    /// Live terms in `off`/`neg`.
    n: u8,
    /// Element offset of each term's subtree.
    off: [usize; MAX_TERMS],
    /// True for terms entering with coefficient −1.
    neg: [bool; MAX_TERMS],
}

impl Combo {
    /// The whole (un-refined) buffer as a single positive term.
    const WHOLE: Combo = Combo { n: 1, off: [0; MAX_TERMS], neg: [false; MAX_TERMS] };

    /// Substitutes each term by its `quads` quadrants (`q` = quadrant
    /// length at the current level): offsets advance into the quadrant,
    /// signs compose by XOR.
    fn refine(self, quads: &[(usize, bool)], q: usize) -> Combo {
        let mut out = Combo { n: 0, off: [0; MAX_TERMS], neg: [false; MAX_TERMS] };
        for t in 0..self.n as usize {
            for &(qi, qneg) in quads {
                let i = out.n as usize;
                assert!(i < MAX_TERMS, "combo overflow: fuse depth exceeds MAX_FUSE");
                out.off[i] = self.off[t] + qi * q;
                out.neg[i] = self.neg[t] ^ qneg;
                out.n += 1;
            }
        }
        out
    }

    /// The combo shifted into quadrant `base` of a parent buffer.
    fn shift(mut self, base: usize) -> Combo {
        for off in &mut self.off[..self.n as usize] {
            *off += base;
        }
        self
    }
}

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

/// `C = A·B` over Morton buffers with the `f` (≥ 1) Strassen levels of
/// `layouts` run fused — the terminal the plan interpreter calls for the
/// innermost [`crate::exec::fused_levels`] of the recursion.
///
/// `ws` is the arena tail slot, at least
/// [`modgemm_mat::KernelKind::fused_leaf_len`] elements for the leaf
/// tile shape; its contents are clobbered. Allocation-free.
pub fn fused_mul_with_ws<S: Scalar>(
    a: &[S],
    b: &[S],
    c: &mut [S],
    layouts: NodeLayouts,
    f: usize,
    kernel: KernelKind,
    ws: &mut [S],
) {
    assert!((1..=MAX_FUSE).contains(&f), "fuse depth {f} outside 1..={MAX_FUSE}");
    assert!(layouts.a.depth >= f, "fuse depth {f} exceeds layout depth {}", layouts.a.depth);
    debug_assert_eq!(a.len(), layouts.a.len());
    debug_assert_eq!(b.len(), layouts.b.len());
    debug_assert_eq!(c.len(), layouts.c.len());
    c.fill(S::ZERO);
    let kernel = kernel.resolve(layouts.a.tile_rows, layouts.a.tile_cols, layouts.b.tile_cols);
    // Odometer over the 7^f fused products: digit `i` selects the
    // classical-Strassen product taken at fused level `i`.
    let mut digits = [0usize; MAX_FUSE];
    loop {
        let mut l = layouts;
        let (mut ac, mut bc, mut cc) = (Combo::WHOLE, Combo::WHOLE, Combo::WHOLE);
        for &d in &digits[..f] {
            let (ta, tb, tc) = TABLE[d];
            ac = ac.refine(ta, l.a.quadrant_len());
            bc = bc.refine(tb, l.b.quadrant_len());
            cc = cc.refine(tc, l.c.quadrant_len());
            l = l.child();
        }
        fused_mul_add_rec(a, b, c, ac, bc, cc, l, kernel, ws);
        let mut i = 0;
        loop {
            if i == f {
                return;
            }
            digits[i] += 1;
            if digits[i] < 7 {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}

/// `ΣC-dests += (ΣA-terms)·(ΣB-terms)` by conventional quadrant
/// recursion applied to all combo terms in lockstep — quadrant selection
/// distributes over the sums, so every term (and destination) shifts by
/// the same quadrant offset. The eight calls keep the Frens-Wise
/// operand-reuse ordering of [`crate::exec::morton_mul_add_with_ws`].
#[allow(clippy::too_many_arguments)]
fn fused_mul_add_rec<S: Scalar>(
    a: &[S],
    b: &[S],
    c: &mut [S],
    ac: Combo,
    bc: Combo,
    cc: Combo,
    l: NodeLayouts,
    kernel: KernelKind,
    ws: &mut [S],
) {
    if l.a.depth == 0 {
        fused_leaf(a, b, c, ac, bc, cc, l, kernel, ws);
        return;
    }
    let ch = l.child();
    let (qa, qb, qc) = (l.a.quadrant_len(), l.b.quadrant_len(), l.c.quadrant_len());
    // (A-quadrant, B-quadrant, C-quadrant) of the eight conventional
    // products, in Frens-Wise order.
    const STEPS: [(usize, usize, usize); 8] =
        [(0, 0, 0), (0, 1, 1), (1, 3, 1), (1, 2, 0), (3, 2, 2), (3, 3, 3), (2, 1, 3), (2, 0, 2)];
    for (ia, ib, ic) in STEPS {
        fused_mul_add_rec(
            a,
            b,
            c,
            ac.shift(ia * qa),
            bc.shift(ib * qb),
            cc.shift(ic * qc),
            ch,
            kernel,
            ws,
        );
    }
}

/// One fused leaf product: combined operands → one tile multiply →
/// ± scatter into every destination tile.
#[allow(clippy::too_many_arguments)]
fn fused_leaf<S: Scalar>(
    a: &[S],
    b: &[S],
    c: &mut [S],
    ac: Combo,
    bc: Combo,
    cc: Combo,
    l: NodeLayouts,
    kernel: KernelKind,
    ws: &mut [S],
) {
    let (tm, tk, tn) = (l.a.tile_rows, l.a.tile_cols, l.b.tile_cols);
    let (la, lb, lc) = (tm * tk, tk * tn, tm * tn);
    let nc = cc.n as usize;
    if cfg!(debug_assertions) {
        for i in 0..nc {
            debug_assert!(cc.off[i] + lc <= c.len());
            for j in i + 1..nc {
                debug_assert_ne!(cc.off[i], cc.off[j], "aliasing scatter destinations");
            }
        }
    }
    if kernel == KernelKind::Packed {
        let at: [(MatRef<'_, S>, bool); MAX_TERMS] = core::array::from_fn(|i| {
            let t = i.min(ac.n as usize - 1);
            (MatRef::from_slice(&a[ac.off[t]..ac.off[t] + la], tm, tk, tm), ac.neg[t])
        });
        let bt: [(MatRef<'_, S>, bool); MAX_TERMS] = core::array::from_fn(|i| {
            let t = i.min(bc.n as usize - 1);
            (MatRef::from_slice(&b[bc.off[t]..bc.off[t] + lb], tk, tn, tk), bc.neg[t])
        });
        // Destination tiles are distinct leaf tiles of the Morton C
        // buffer (asserted above), so the reborrows are pairwise
        // disjoint; unused array entries get promoted empty slices, so
        // no live pointer is ever duplicated.
        let cptr = c.as_mut_ptr();
        let mut dests: [(&mut [S], bool); MAX_TERMS] = core::array::from_fn(|i| {
            if i < nc {
                // SAFETY: cc.off[i] + lc <= c.len() and the dest tiles
                // are pairwise disjoint (distinct tile offsets, tile
                // length apart by Morton layout).
                (unsafe { core::slice::from_raw_parts_mut(cptr.add(cc.off[i]), lc) }, cc.neg[i])
            } else {
                (&mut [][..], false)
            }
        });
        packed_mul_scatter_in(&at[..ac.n as usize], &bt[..bc.n as usize], &mut dests[..nc], tm, ws);
        return;
    }
    // Non-packing kernels: materialize the combined operands in the
    // (leaf-sized) arena tail, multiply once, scatter sequentially.
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
        let dst = &mut c[cc.off[i]..cc.off[i] + lc];
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

    #[allow(clippy::too_many_arguments)]
    fn run_fused<S: Scalar>(
        a: &Matrix<S>,
        b: &Matrix<S>,
        tm: usize,
        tk: usize,
        tn: usize,
        depth: usize,
        f: usize,
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
        let policy = ExecPolicy { kernel, fuse: f, ..Default::default() };
        let mut ws = vec![S::ZERO; fused_tail_len(layouts, policy)];
        fused_mul_with_ws(&ab, &bb, &mut cb, layouts, f, kernel, &mut ws);
        let mut out = Matrix::zeros(a.rows(), b.cols());
        from_morton(&cb, &lc, out.view_mut());
        out
    }

    #[test]
    fn table_reconstructs_the_product_exactly() {
        // Depth == fuse: the entire multiply runs through the fused
        // tables with no conventional levels in between.
        for f in 1..=MAX_FUSE {
            for kernel in [KernelKind::Blocked, KernelKind::Packed, KernelKind::Naive] {
                let a: Matrix<i64> = random_matrix(4 << f, 4 << f, 100 + f as u64);
                let b: Matrix<i64> = random_matrix(4 << f, 4 << f, 200 + f as u64);
                let got = run_fused(&a, &b, 4, 4, 4, f, f, kernel);
                assert_eq!(got, naive_product(&a, &b), "fuse {f} kernel {kernel}");
            }
        }
    }

    #[test]
    fn conventional_levels_below_the_fused_levels_stay_exact() {
        // Depth 3, fuse 1 and 2: the fused products recurse
        // conventionally before bottoming out in the leaves.
        for f in 1..=MAX_FUSE {
            for kernel in [KernelKind::Blocked, KernelKind::Packed] {
                let a: Matrix<i64> = random_matrix(24, 24, 300 + f as u64);
                let b: Matrix<i64> = random_matrix(24, 24, 400 + f as u64);
                let got = run_fused(&a, &b, 3, 3, 3, 3, f, kernel);
                assert_eq!(got, naive_product(&a, &b), "fuse {f} kernel {kernel}");
            }
        }
    }

    #[test]
    fn rectangular_tiles_and_padding_stay_exact() {
        let a: Matrix<i64> = random_matrix(19, 11, 500);
        let b: Matrix<i64> = random_matrix(11, 27, 501);
        for f in 1..=MAX_FUSE {
            let got = run_fused(&a, &b, 5, 3, 7, 2, f, KernelKind::Blocked);
            assert_eq!(got, naive_product(&a, &b), "fuse {f}");
            let got = run_fused(&a, &b, 5, 3, 7, 2, f, KernelKind::Packed);
            assert_eq!(got, naive_product(&a, &b), "fuse {f} packed");
        }
    }

    #[test]
    fn floats_match_within_tolerance_through_the_simd_scatter() {
        // Full 8-wide tiles so the vectorized scatter epilogue (when the
        // host has one) covers whole panels.
        let a: Matrix<f64> = random_matrix(64, 64, 600);
        let b: Matrix<f64> = random_matrix(64, 64, 601);
        let expect = naive_product(&a, &b);
        for f in 1..=MAX_FUSE {
            let got = run_fused(&a, &b, 8, 8, 8, 3, f, KernelKind::Packed);
            assert_matrix_eq(got.view(), expect.view(), 64);
        }
        let a: Matrix<f32> = random_matrix(32, 32, 602);
        let b: Matrix<f32> = random_matrix(32, 32, 603);
        let expect = naive_product(&a, &b);
        let got = run_fused(&a, &b, 8, 8, 8, 2, 2, KernelKind::Packed);
        assert_matrix_eq(got.view(), expect.view(), 32);
    }

    #[test]
    fn refine_composes_offsets_and_signs() {
        let c = Combo::WHOLE.refine(&[(2, false), (0, true)], 100);
        assert_eq!(c.n, 2);
        assert_eq!(&c.off[..2], &[200, 0]);
        assert_eq!(&c.neg[..2], &[false, true]);
        let c2 = c.refine(&[(1, false), (3, true)], 10);
        assert_eq!(c2.n, 4);
        assert_eq!(&c2.off[..4], &[210, 230, 10, 30]);
        assert_eq!(&c2.neg[..4], &[false, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn rejects_zero_fuse_depth() {
        let l = MortonLayout::new(4, 4, 1);
        let layouts = NodeLayouts::new(l, l, l);
        let a = vec![0i64; l.len()];
        let b = vec![0i64; l.len()];
        let mut c = vec![0i64; l.len()];
        fused_mul_with_ws(&a, &b, &mut c, layouts, 0, KernelKind::Blocked, &mut []);
    }
}
