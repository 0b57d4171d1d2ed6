//! The Morton-order Strassen-Winograd executor.
//!
//! Operates entirely on Morton buffers, exploiting the two properties the
//! layout guarantees (§3.3):
//!
//! * every quadrant at every recursion level is a **contiguous** quarter of
//!   its parent's buffer, so all 15 Winograd additions run as single-loop
//!   flat kernels;
//! * every leaf is a contiguous column-major tile, so the truncated
//!   recursion bottoms out in [`modgemm_mat::blocked`] with `ld == rows` —
//!   the stable, self-interference-free configuration of Figure 3.
//!
//! This module holds the execution policy, the node layouts, the
//! closed-form workspace model with its memory-budget ladder, and the
//! conventional Morton recursion below the truncation point. The
//! Strassen recursion itself runs from a compiled [`mod@crate::plan`]: it
//! interprets [`crate::schedule::WINOGRAD_LOWMEM_SCHEDULE`] at every
//! staged level; the four C quadrants serve as product scratch (sound
//! because Morton quadrants never alias), plus three workspace
//! temporaries per level (`TS`, `TT`, `TP`). Workspace is allocated
//! once, sized by [`workspace_len`], and consumed stack-wise down the
//! recursion.

use modgemm_mat::view::{MatMut, MatRef};
use modgemm_mat::{KernelKind, LeafKernel, Scalar};
use modgemm_morton::MortonLayout;

use crate::error::{GemmError, Operand};
use crate::pool::Rank;
use crate::terminal::{Combo, Driver};

/// Controls where the Strassen recursion hands over to the conventional
/// algorithm, how many innermost levels fuse, and which leaf kernel
/// multiplies the truncated tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Apply the Strassen step only while `min(m, k, n)` of the current
    /// node strictly exceeds this; below it, the Morton-aware conventional
    /// recursion ([`morton_mul_add_with_ws`]) takes over. `0` reproduces the paper:
    /// Strassen at every quadrant division down to single tiles.
    pub strassen_min: usize,
    /// Leaf multiply kernel ([`KernelKind::Blocked`] by default, matching
    /// the paper's blocked vendor-BLAS stand-in).
    pub kernel: KernelKind,
    /// Number of *innermost* Strassen levels to run fused (pre-adds folded
    /// into operand packing, post-merges scattered from the microkernel
    /// epilogue — no S/T arena slots; see [`crate::fuse`]). Clamped to the
    /// levels the recursion actually takes and to
    /// [`crate::fuse::MAX_FUSE`] (one). `0` keeps the fully staged
    /// pipeline.
    pub fuse: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self { strassen_min: 0, kernel: KernelKind::Blocked, fuse: 0 }
    }
}

/// The three layouts of one GEMM node. Invariants: equal depths, and
/// `A.tile_cols == B.tile_rows`, `A.tile_rows == C.tile_rows`,
/// `B.tile_cols == C.tile_cols`.
#[derive(Clone, Copy, Debug)]
pub struct NodeLayouts {
    /// Layout of A (`Tm × Tk` tiles).
    pub a: MortonLayout,
    /// Layout of B (`Tk × Tn` tiles).
    pub b: MortonLayout,
    /// Layout of C (`Tm × Tn` tiles).
    pub c: MortonLayout,
}

impl NodeLayouts {
    /// Validates the cross-layout invariants.
    #[track_caller]
    pub fn new(a: MortonLayout, b: MortonLayout, c: MortonLayout) -> Self {
        assert!(a.depth == b.depth && b.depth == c.depth, "depth mismatch");
        assert_eq!(a.tile_cols, b.tile_rows, "inner tile mismatch");
        assert_eq!(a.tile_rows, c.tile_rows, "row tile mismatch");
        assert_eq!(b.tile_cols, c.tile_cols, "col tile mismatch");
        Self { a, b, c }
    }

    /// Padded GEMM dimensions `(m, k, n)` of this node.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.a.rows(), self.a.cols(), self.b.cols())
    }

    /// Layouts of the half-size children.
    #[inline]
    #[track_caller]
    pub fn child(&self) -> NodeLayouts {
        NodeLayouts { a: self.a.child(), b: self.b.child(), c: self.c.child() }
    }

    /// True when this node applies the Strassen step (rather than the
    /// conventional recursion) under `policy`.
    #[inline]
    pub fn uses_strassen(&self, policy: ExecPolicy) -> bool {
        let (m, k, n) = self.dims();
        self.a.depth > 0 && m.min(k).min(n) > policy.strassen_min
    }
}

/// Packing workspace (elements) of the smallest packed terminal of
/// `layouts` under `policy`: one leaf tile per driver call
/// ([`modgemm_mat::KernelKind::pack_len`]; zero for non-packing
/// kernels). A packing kernel runs the conventional subtree below the
/// handover as packed products over spans of leaf tiles (the `terminal`
/// module); a plan widens the span and the B panel to what its budget
/// holds, so its slot is per span, and this one-tile slot is the floor
/// the budget ladder sizes against.
pub fn leaf_pack_len(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    policy.kernel.pack_len(layouts.a.tile_rows, layouts.a.tile_cols, layouts.b.tile_cols)
}

/// True when `kernel` packs its operands on `layouts`' leaf tiles
/// (`Packed`, or `Auto` resolving to it), so the terminal runs the packed
/// driver of the `terminal` module.
pub(crate) fn packs(layouts: NodeLayouts, kernel: KernelKind) -> bool {
    kernel.pack_len(layouts.a.tile_rows, layouts.a.tile_cols, layouts.b.tile_cols) > 0
}

/// Number of *innermost* Strassen levels of `layouts` that run fused
/// under `policy`: the requested [`ExecPolicy::fuse`], clamped to the
/// levels the recursion actually takes and to the one level the fused
/// operand table covers ([`crate::fuse::MAX_FUSE`]).
pub fn fused_levels(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    policy.fuse.min(crate::counts::strassen_levels(layouts, policy)).min(crate::fuse::MAX_FUSE)
}

/// True when this node runs a *staged* Strassen step — S/T temporaries
/// materialized in the arena. The innermost [`fused_levels`] level does
/// not stage: it executes inside the fused terminal
/// ([`crate::fuse::fused_mul_with_ws`]) instead.
pub fn staged_step(layouts: NodeLayouts, policy: ExecPolicy) -> bool {
    layouts.uses_strassen(policy)
        && crate::counts::strassen_levels(layouts, policy) > policy.fuse.min(crate::fuse::MAX_FUSE)
}

/// Arena tail slot (elements) for the terminal subtree rooted at
/// `layouts` (the node where the staged levels end), at the smallest
/// packed terminal: with a packing kernel the one-tile driver's
/// [`leaf_pack_len`] slot, fused or not. A non-packing kernel needs
/// nothing unfused and the fused-leaf working set
/// ([`modgemm_mat::KernelKind::fused_leaf_len`]) fused. The terminal runs
/// its products sequentially, so one tail slot serves the whole subtree.
pub fn fused_tail_len(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    terminal_len(layouts, policy, Driver::LEAF)
}

/// [`fused_tail_len`] for a packed terminal of shape `d` (only a
/// packing kernel's slot grows with it): the driver's buffers over its
/// span of the conventional subtree, below the fused level when one
/// fuses.
pub(crate) fn terminal_len(layouts: NodeLayouts, policy: ExecPolicy, d: Driver) -> usize {
    let fused = fused_levels(layouts, policy) > 0;
    if packs(layouts, policy.kernel) {
        let conv = if fused { layouts.child() } else { layouts };
        crate::terminal::packed_terminal_len(conv, d)
    } else if fused {
        policy.kernel.fused_leaf_len(layouts.a.tile_rows, layouts.a.tile_cols, layouts.b.tile_cols)
    } else {
        0
    }
}

/// Workspace (in elements) the serial schedule interpreter needs for
/// `layouts` under `policy`: each staged level's temporary slots
/// ([`crate::counts::staged_level_elems`], `|TS| + |TT| + |TP|`), summed
/// down the recursion (children run sequentially, so one child workspace
/// suffices) — roughly `(mk + kn + mn)/3` elements — plus one
/// [`fused_tail_len`] slot at the tail: the smallest packed terminal's
/// buffers (one leaf tile's packing slot), or a non-packing kernel's
/// fused-leaf working set. Fused levels contribute **no** per-level S/T
/// slots, which is exactly the arena saving operand fusion buys. A plan
/// widens the packed terminal's span and B panel with what its memory
/// budget leaves (`GemmPlan::arena_len` reports the widened arena).
///
/// Deliberately scalar-type-independent: all terms are element counts,
/// so non-generic callers (the cache simulator, the closed-form tests)
/// share the same model the allocator uses.
pub fn workspace_len(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    workspace_len_at(layouts, policy, Driver::LEAF)
}

/// [`workspace_len`] with a packed terminal of shape `d` in the tail
/// ([`terminal_len`]).
pub(crate) fn workspace_len_at(layouts: NodeLayouts, policy: ExecPolicy, d: Driver) -> usize {
    if !staged_step(layouts, policy) {
        return terminal_len(layouts, policy, d);
    }
    crate::counts::staged_level_elems(layouts) + workspace_len_at(layouts.child(), policy, d)
}

/// The node where the staged levels of `layouts` end under `policy`:
/// the root of the terminal (fused or conventional).
pub(crate) fn terminal_layouts(layouts: NodeLayouts, policy: ExecPolicy) -> NodeLayouts {
    let mut l = layouts;
    while staged_step(l, policy) {
        l = l.child();
    }
    l
}

/// Deepest policy whose [`workspace_len`] fits in `max_ws_elems`
/// elements — the graceful-degradation rule of the memory budget
/// ([`crate::config::MemoryBudget`]).
///
/// The ladder degrades in preference order:
///
/// 1. **Fuse the innermost level** (fuse 0 → 1). Fusing it removes its
///    staged S/T slots without giving up any Strassen arithmetic, so it
///    is always tried before dropping depth.
/// 2. **Shrink the team.** A plan sizes its team from what the budget
///    leaves beside this serial arena (`plan::team_size`), so the team
///    gives up ranks before a level goes.
/// 3. **Raise `strassen_min`** one padded recursion level at a time, so
///    one more level of the tree runs the workspace-free conventional
///    Morton recursion instead of the staged Strassen step; the fuse is
///    kept while depth drops. `workspace_len` is monotone non-increasing
///    in `strassen_min` at fixed fuse, so the first fit is the deepest.
/// 4. **Fully conventional** (`strassen_min = usize::MAX`).
/// 5. **Swap the kernel for Blocked**, the workspace-free last resort.
///
/// With `max_ws_elems == 0` the returned policy disables the Strassen
/// step entirely (still a correct multiply, just conventional).
pub fn budget_capped_policy(
    layouts: NodeLayouts,
    base: ExecPolicy,
    max_ws_elems: usize,
) -> ExecPolicy {
    if workspace_len(layouts, base) <= max_ws_elems {
        return base;
    }
    // Rung 1: fuse the innermost level before sacrificing depth.
    let fuse =
        base.fuse.max(crate::fuse::MAX_FUSE.min(crate::counts::strassen_levels(layouts, base)));
    let fused = ExecPolicy { fuse, ..base };
    if fuse > base.fuse && workspace_len(layouts, fused) <= max_ws_elems {
        return fused;
    }
    // The team rung sizes against this arena at plan time; depth drops
    // from the fused shape.
    let base = fused;
    let (m, k, n) = layouts.dims();
    let dmin = m.min(k).min(n);
    // Permitting exactly `lv` Strassen levels: the node at level `j` has
    // minimum dimension `dmin >> j` (padded dims are `tile << depth`), so
    // `strassen_min = dmin >> lv` admits levels `0..lv` and hands level
    // `lv` and below to the conventional recursion.
    for lv in (1..=layouts.a.depth).rev() {
        let policy = ExecPolicy { strassen_min: base.strassen_min.max(dmin >> lv), ..base };
        if workspace_len(layouts, policy) <= max_ws_elems {
            return policy;
        }
    }
    let conventional = ExecPolicy { strassen_min: usize::MAX, ..base };
    if workspace_len(layouts, conventional) <= max_ws_elems {
        return conventional;
    }
    // Even the single leaf packing slot of a fully conventional run
    // exceeds the budget: the last rung of the degradation ladder swaps
    // the kernel for the workspace-free blocked multiply.
    ExecPolicy { kernel: KernelKind::Blocked, ..conventional }
}

/// Wraps a contiguous Morton leaf tile as a column-major view.
#[inline]
fn tile_ref<'t, S: Scalar>(buf: &'t [S], l: &MortonLayout) -> MatRef<'t, S> {
    debug_assert_eq!(l.depth, 0);
    MatRef::from_slice(buf, l.tile_rows, l.tile_cols, l.tile_rows)
}

/// `(A quadrant, B quadrant, C quadrant)` of the eight conventional
/// quadrant products, in the operand-reuse order of Frens & Wise
/// (PPoPP'97): consecutive products share an `A` or a `B` operand.
/// Quadrant indices: 0 = NW (11), 1 = NE (12), 2 = SW (21), 3 = SE (22).
pub(crate) const CONV_STEPS: [(usize, usize, usize); 8] =
    [(0, 0, 0), (0, 1, 1), (1, 3, 1), (1, 2, 0), (3, 2, 2), (3, 3, 3), (2, 1, 3), (2, 0, 2)];

/// One team rank's part of a terminal subtree — the conventional
/// recursion below the last staged level, fused or not
/// ([`terminal_share`]): the C sub-quadrants `lo..hi`, numbered in Morton
/// order `levels` levels below the conventional root (the terminal node,
/// or each fused product's quadrant). Each rank runs its sub-quadrants'
/// leaf products in the serial order on its own terminal tail, so a
/// team's result is bitwise the serial one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Share {
    levels: u32,
    lo: usize,
    hi: usize,
}

impl Share {
    /// The whole terminal: the serial run's share.
    pub(crate) const ALL: Share = Share { levels: 0, lo: 0, hi: 1 };
    /// Nothing (a rank the split leaves idle).
    const NONE: Share = Share { levels: 0, lo: 0, hi: 0 };

    /// Whether C sub-quadrant `pos`, `depth` levels below the
    /// conventional root, holds any of this share.
    pub(crate) fn covers(self, depth: u32, pos: usize) -> bool {
        if depth > self.levels {
            return true;
        }
        let span = 1usize << (2 * (self.levels - depth));
        pos * span < self.hi && self.lo < (pos + 1) * span
    }

    /// Whether the node with Morton code `pos`, `depth ≥ levels` levels
    /// below the conventional root (a leaf tile, say), lies inside this
    /// share.
    pub(crate) fn holds(self, depth: u32, pos: usize) -> bool {
        debug_assert!(depth >= self.levels);
        (self.lo..self.hi).contains(&(pos >> (2 * (depth - self.levels))))
    }
}

/// How a team splits the terminal subtree at `layouts`: with
/// conventional levels below the terminal's root, by C sub-quadrant, at
/// the fewest levels that divide among the ranks within 25 %. A terminal
/// that is a single leaf per product runs on rank 0: splitting one leaf
/// between cores costs more in cross-core traffic than it saves (the team
/// pairs whole leaf products at the deepest staged level instead, see
/// [`crate::plan`]).
pub(crate) fn terminal_share(layouts: NodeLayouts, policy: ExecPolicy, rank: Rank<'_>) -> Share {
    if rank.size == 1 {
        return Share::ALL;
    }
    let fused = fused_levels(layouts, policy) > 0;
    let conv_depth = layouts.a.depth - usize::from(fused);
    if conv_depth == 0 {
        return if rank.id == 0 { Share::ALL } else { Share::NONE };
    }
    let quads = |levels: usize| 1usize << (2 * levels);
    let mut levels = 1;
    while levels < conv_depth
        && 4 * quads(levels).div_ceil(rank.size) * rank.size > 5 * quads(levels)
    {
        levels += 1;
    }
    let r = rank.units(quads(levels));
    Share { levels: levels as u32, lo: r.start, hi: r.end }
}

/// Zeroes `share` of the C buffer at `c`, laid out as `l` (the
/// conventional root's C layout).
///
/// # Safety
/// `c` is valid for writes of `l.len()` elements, and no other thread
/// accesses this share meanwhile.
pub(crate) unsafe fn zero_share<S: Scalar>(c: *mut S, l: &MortonLayout, share: Share) {
    let span = l.len() >> (2 * share.levels);
    let len = (share.hi - share.lo) * span;
    core::slice::from_raw_parts_mut(c.add(share.lo * span), len).fill(S::ZERO);
}

/// `C += A·B` by quadrant recursion over Morton buffers with an explicit
/// leaf kernel, on a caller-provided leaf packing workspace — the form
/// the plan interpreter calls with the arena's tail slot and its
/// plan-time [`KernelKind`]. `ws` must hold at least the kernel's
/// [`modgemm_mat::KernelKind::pack_len`] for the leaf tile shape (zero
/// for non-packing kernels); its contents are clobbered. The leaves run
/// sequentially, so one slot is reused by every leaf of the subtree.
///
/// The eight recursive calls follow the operand-reuse ordering of Frens &
/// Wise (PPoPP'97) (`CONV_STEPS`): consecutive calls share either an
/// `A` or a `B` operand, improving cache reuse of the just-touched
/// subtree.
pub fn morton_mul_add_with_ws<S: Scalar>(
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
    unsafe { morton_mul_add_share(a, b, c, layouts, kernel, leaf, ws, Share::ALL, 0, 0) }
}

/// One rank's part of `C = A·B` by the conventional Morton recursion:
/// zeroes its share of `c`, then adds its share of the product in the
/// serial order — a packing kernel by packed driver calls of shape
/// `driver` (the `terminal` module), other kernels leaf by leaf.
///
/// # Safety
/// `c` is valid for writes of `layouts.c.len()` elements; no other
/// thread accesses this rank's share of it, or writes `a`/`b`, meanwhile.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn morton_mul_share<S: Scalar>(
    a: &[S],
    b: &[S],
    c: *mut S,
    layouts: NodeLayouts,
    kernel: KernelKind,
    driver: Driver,
    ws: &mut [S],
    share: Share,
) {
    zero_share(c, &layouts.c, share);
    if share.covers(0, 0) {
        morton_mul_add_share(a, b, c, layouts, kernel, driver, ws, share, 0, 0);
    }
}

/// The recursion of [`morton_mul_add_with_ws`] over the C sub-quadrant
/// `pos`, `depth` levels below the root, skipping what `share` excludes.
/// A packing kernel hands each node of `driver.levels` or fewer levels
/// to one packed driver call; other kernels recurse to the leaves.
///
/// # Safety
/// As [`morton_mul_share`], for the node's C buffer at `c`.
#[allow(clippy::too_many_arguments)]
unsafe fn morton_mul_add_share<S: Scalar>(
    a: &[S],
    b: &[S],
    c: *mut S,
    layouts: NodeLayouts,
    kernel: KernelKind,
    driver: Driver,
    ws: &mut [S],
    share: Share,
    depth: u32,
    pos: usize,
) {
    debug_assert_eq!(a.len(), layouts.a.len());
    debug_assert_eq!(b.len(), layouts.b.len());

    if packs(layouts, kernel) && layouts.a.depth <= driver.levels {
        let whole = (Combo::WHOLE, Combo::WHOLE, Combo::WHOLE);
        let at = (depth, pos);
        crate::terminal::packed_terminal(a, b, c, whole, layouts, driver.cols, ws, share, at);
        return;
    }
    if layouts.a.depth == 0 {
        let av = tile_ref(a, &layouts.a);
        let bv = tile_ref(b, &layouts.b);
        let tm = layouts.c.tile_rows;
        // The whole tile belongs to this rank.
        let cs = core::slice::from_raw_parts_mut(c, layouts.c.len());
        kernel.mul_add_in(av, bv, MatMut::from_slice(cs, tm, layouts.c.tile_cols, tm), ws);
        return;
    }

    let ch = layouts.child();
    let (qa, qb, qc) =
        (layouts.a.quadrant_len(), layouts.b.quadrant_len(), layouts.c.quadrant_len());
    for (ia, ib, ic) in CONV_STEPS {
        let p = pos * 4 + ic;
        if share.covers(depth + 1, p) {
            morton_mul_add_share(
                &a[ia * qa..(ia + 1) * qa],
                &b[ib * qb..(ib + 1) * qb],
                c.add(ic * qc),
                ch,
                kernel,
                driver,
                ws,
                share,
                depth + 1,
                p,
            );
        }
    }
}

/// Validates the three Morton buffer lengths against `layouts`.
pub(crate) fn check_buffers(
    a_len: usize,
    b_len: usize,
    c_len: usize,
    layouts: NodeLayouts,
) -> Result<(), GemmError> {
    for (operand, needed, got) in [
        (Operand::A, layouts.a.len(), a_len),
        (Operand::B, layouts.b.len(), b_len),
        (Operand::C, layouts.c.len(), c_len),
    ] {
        if needed != got {
            return Err(GemmError::BufferLenMismatch { operand, needed, got });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModgemmConfig;
    use crate::metrics::NoopSink;
    use crate::plan::TiledPlan;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::norms::assert_matrix_eq;
    use modgemm_mat::view::Op;
    use modgemm_mat::Matrix;
    use modgemm_morton::convert::{from_morton, to_morton};

    /// Compiles `policy` for one worker (the serial interpreter) and runs
    /// it over the given Morton buffers on a fresh arena.
    fn run_serial<S: Scalar>(
        a: &[S],
        b: &[S],
        c: &mut [S],
        layouts: NodeLayouts,
        policy: ExecPolicy,
    ) -> Result<(), GemmError> {
        let cfg = ModgemmConfig { threads: 1, ..ModgemmConfig::paper() };
        let tp = TiledPlan::new::<S>(layouts, policy, &cfg);
        let mut ws = vec![S::ZERO; tp.ws_len()];
        tp.run(a, b, c, &mut ws, None, &mut NoopSink)
    }

    /// Runs the compiled compute stage on exact-fit Morton layouts and
    /// unpacks.
    fn run<S: Scalar>(
        a: &Matrix<S>,
        b: &Matrix<S>,
        tm: usize,
        tk: usize,
        tn: usize,
        depth: usize,
        policy: ExecPolicy,
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
        let (a0, b0) = (ab.clone(), bb.clone());
        run_serial(&ab, &bb, &mut cb, layouts, policy).unwrap();
        // The interpreter reads its operands and never writes them.
        assert!(ab == a0 && bb == b0, "operand buffers written");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        from_morton(&cb, &lc, out.view_mut());
        out
    }

    #[test]
    fn exact_on_integers_depth_3() {
        let a: Matrix<i64> = random_matrix(24, 24, 1);
        let b: Matrix<i64> = random_matrix(24, 24, 2);
        let got = run(&a, &b, 3, 3, 3, 3, ExecPolicy::default());
        assert_eq!(got, naive_product(&a, &b));
    }

    #[test]
    fn exact_with_rectangular_tiles() {
        // m=20 (tile 5), k=12 (tile 3), n=28 (tile 7), depth 2, on the
        // blocked leaf and on the packed terminal's ragged tiles.
        let a: Matrix<i64> = random_matrix(20, 12, 3);
        let b: Matrix<i64> = random_matrix(12, 28, 4);
        for kernel in [KernelKind::Blocked, KernelKind::Packed] {
            let got = run(&a, &b, 5, 3, 7, 2, ExecPolicy { kernel, ..Default::default() });
            assert_eq!(got, naive_product(&a, &b), "{kernel}");
        }
    }

    #[test]
    fn lowmem_and_inplace_tiers_stay_exact_and_restore_inputs() {
        // Only the low-mem tier remains; it stays exact on square and
        // ragged shapes, staged and fused, on both leaf kernels.
        for kernel in [KernelKind::Blocked, KernelKind::Packed] {
            for fuse in [0, 1] {
                let policy = ExecPolicy { kernel, fuse, ..Default::default() };
                let a: Matrix<i64> = random_matrix(24, 24, 90);
                let b: Matrix<i64> = random_matrix(24, 24, 91);
                let got = run(&a, &b, 3, 3, 3, 3, policy);
                assert_eq!(got, naive_product(&a, &b), "{kernel} fuse {fuse}");
                // Rectangular tiles + padding.
                let a: Matrix<i64> = random_matrix(19, 11, 92);
                let b: Matrix<i64> = random_matrix(11, 27, 93);
                let got = run(&a, &b, 5, 3, 7, 2, policy);
                assert_eq!(got, naive_product(&a, &b), "{kernel} fuse {fuse} ragged");
            }
        }
        // The operand buffers come back bit-exact (checked on the raw
        // Morton buffers, not the views), and a second run over them
        // gives the same C.
        let la = MortonLayout::new(4, 4, 2);
        let layouts = NodeLayouts::new(la, la, la);
        let a: Matrix<i64> = random_matrix(16, 16, 94);
        let b: Matrix<i64> = random_matrix(16, 16, 95);
        let mut ab = vec![0i64; la.len()];
        let mut bb = vec![0i64; la.len()];
        to_morton(a.view(), Op::NoTrans, &la, &mut ab);
        to_morton(b.view(), Op::NoTrans, &la, &mut bb);
        let (a0, b0) = (ab.clone(), bb.clone());
        let mut c1 = vec![0i64; la.len()];
        let mut c2 = vec![0i64; la.len()];
        run_serial(&ab, &bb, &mut c1, layouts, ExecPolicy::default()).unwrap();
        assert_eq!(ab, a0, "A not restored");
        assert_eq!(bb, b0, "B not restored");
        run_serial(&ab, &bb, &mut c2, layouts, ExecPolicy::default()).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn exact_with_padding() {
        // Logical 21x21 inside padded 24x24 (tile 3, depth 3).
        let a: Matrix<i64> = random_matrix(21, 21, 5);
        let b: Matrix<i64> = random_matrix(21, 21, 6);
        let got = run(&a, &b, 3, 3, 3, 3, ExecPolicy::default());
        assert_eq!(got, naive_product(&a, &b));
    }

    #[test]
    fn depth_zero_is_plain_tile_multiply() {
        let a: Matrix<i64> = random_matrix(9, 7, 7);
        let b: Matrix<i64> = random_matrix(7, 11, 8);
        let got = run(&a, &b, 9, 7, 11, 0, ExecPolicy::default());
        assert_eq!(got, naive_product(&a, &b));
    }

    #[test]
    fn truncation_threshold_switches_to_conventional() {
        let a: Matrix<i64> = random_matrix(32, 32, 9);
        let b: Matrix<i64> = random_matrix(32, 32, 10);
        // strassen_min = 16: the 32-node applies Strassen, the 16-children
        // fall to the conventional Morton recursion.
        let got = run(&a, &b, 4, 4, 4, 3, ExecPolicy { strassen_min: 16, ..Default::default() });
        assert_eq!(got, naive_product(&a, &b));
        // strassen_min huge: pure conventional path.
        let got =
            run(&a, &b, 4, 4, 4, 3, ExecPolicy { strassen_min: 1 << 20, ..Default::default() });
        assert_eq!(got, naive_product(&a, &b));
    }

    #[test]
    fn float_result_within_tolerance_f64_and_f32() {
        let a: Matrix<f64> = random_matrix(40, 40, 11);
        let b: Matrix<f64> = random_matrix(40, 40, 12);
        let got = run(&a, &b, 5, 5, 5, 3, ExecPolicy::default());
        let expect = naive_product(&a, &b);
        assert_matrix_eq(got.view(), expect.view(), 40);

        let a: Matrix<f32> = random_matrix(40, 40, 13);
        let b: Matrix<f32> = random_matrix(40, 40, 14);
        let got = run(&a, &b, 5, 5, 5, 3, ExecPolicy::default());
        let expect = naive_product(&a, &b);
        assert_matrix_eq(got.view(), expect.view(), 40);
    }

    #[test]
    fn morton_mul_matches_naive() {
        let la = MortonLayout::new(3, 4, 2);
        let lb = MortonLayout::new(4, 5, 2);
        let lc = MortonLayout::new(3, 5, 2);
        let layouts = NodeLayouts::new(la, lb, lc);
        let a: Matrix<i64> = random_matrix(la.rows(), la.cols(), 15);
        let b: Matrix<i64> = random_matrix(lb.rows(), lb.cols(), 16);
        let mut ab = vec![0; la.len()];
        let mut bb = vec![0; lb.len()];
        let mut cb = vec![0; lc.len()];
        to_morton(a.view(), Op::NoTrans, &la, &mut ab);
        to_morton(b.view(), Op::NoTrans, &lb, &mut bb);
        // The blocked kernel packs nothing, so it needs no workspace.
        morton_mul_add_with_ws(&ab, &bb, &mut cb, layouts, KernelKind::Blocked, &mut []);
        let mut out = Matrix::zeros(lc.rows(), lc.cols());
        from_morton(&cb, &lc, out.view_mut());
        assert_eq!(out, naive_product(&a, &b));
    }

    #[test]
    fn workspace_len_closed_form_sanity() {
        // One Strassen level on an 8x8 of 4x4 tiles: qa=qb=qc=16, so
        // 16+16+16 = 48; children are leaves → 0.
        let l = MortonLayout::new(4, 4, 1);
        let layouts = NodeLayouts::new(l, l, l);
        assert_eq!(workspace_len(layouts, ExecPolicy::default()), 48);
        // Two levels: level 0 has qa=qb=qc=64 → 3*64 = 192; plus the
        // child level's 3*16 = 48.
        let l2 = MortonLayout::new(4, 4, 2);
        let layouts2 = NodeLayouts::new(l2, l2, l2);
        assert_eq!(workspace_len(layouts2, ExecPolicy::default()), 3 * 64 + 3 * 16);
    }

    #[test]
    fn workspace_len_per_schedule_tier_closed_forms() {
        // Every staged level holds |TS| + |TT| + |TP| = qa + qb + qc. The
        // tiles are 2×3 (A), 3×5 (B) and 2×5 (C), so qa, qb and qc differ
        // and a transposed term would show.
        let node = |depth| {
            let (la, lb, lc) = (
                MortonLayout::new(2, 3, depth),
                MortonLayout::new(3, 5, depth),
                MortonLayout::new(2, 5, depth),
            );
            NodeLayouts::new(la, lb, lc)
        };
        assert_eq!(workspace_len(node(1), ExecPolicy::default()), 6 + 15 + 10);
        // Depth 2: the per-level slots sum down the recursion.
        assert_eq!(workspace_len(node(2), ExecPolicy::default()), 4 * (6 + 15 + 10) + 31);
    }

    #[test]
    fn workspace_zero_when_strassen_disabled() {
        let l = MortonLayout::new(4, 4, 3);
        let layouts = NodeLayouts::new(l, l, l);
        assert_eq!(
            workspace_len(layouts, ExecPolicy { strassen_min: usize::MAX, ..Default::default() }),
            0
        );
    }

    #[test]
    fn workspace_includes_leaf_packing_slot_for_packed_kernels() {
        let l = MortonLayout::new(8, 8, 2);
        let layouts = NodeLayouts::new(l, l, l);
        let blocked = ExecPolicy::default();
        let packed = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let pack = leaf_pack_len(layouts, packed);
        assert_eq!(pack, KernelKind::Packed.pack_len(8, 8, 8));
        assert!(pack > 0);
        // The packing slot rides at the arena tail, at every truncation.
        for strassen_min in [0, 16, usize::MAX] {
            let b = ExecPolicy { strassen_min, ..blocked };
            let p = ExecPolicy { strassen_min, ..packed };
            assert_eq!(workspace_len(layouts, p), workspace_len(layouts, b) + pack);
        }
        assert_eq!(leaf_pack_len(layouts, blocked), 0, "non-packing kernels add nothing");
    }

    #[test]
    fn packed_kernel_policies_stay_exact() {
        let a: Matrix<i64> = random_matrix(24, 24, 60);
        let b: Matrix<i64> = random_matrix(24, 24, 61);
        for kernel in [KernelKind::Packed, KernelKind::Auto] {
            for strassen_min in [0, 16, usize::MAX] {
                let policy = ExecPolicy { kernel, strassen_min, ..Default::default() };
                let got = run(&a, &b, 3, 3, 3, 3, policy);
                assert_eq!(got, naive_product(&a, &b), "{kernel} min {strassen_min}");
            }
        }
    }

    #[test]
    fn packed_kernel_stays_within_tolerance_on_floats() {
        // Tile 8 = one full register tile, so the vectorized body (when
        // the host has one) covers the whole leaf.
        let a: Matrix<f64> = random_matrix(64, 64, 62);
        let b: Matrix<f64> = random_matrix(64, 64, 63);
        let policy = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let got = run(&a, &b, 8, 8, 8, 3, policy);
        assert_matrix_eq(got.view(), naive_product(&a, &b).view(), 64);
    }

    #[test]
    fn budget_degrades_packed_kernel_to_blocked_as_last_resort() {
        let l = MortonLayout::new(8, 8, 2);
        let layouts = NodeLayouts::new(l, l, l);
        let base = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let capped = budget_capped_policy(layouts, base, 0);
        assert_eq!(capped.kernel, KernelKind::Blocked);
        assert_eq!(capped.strassen_min, usize::MAX);
        assert_eq!(workspace_len(layouts, capped), 0);
        // A budget that fits the packing slot keeps the packed kernel.
        let pack = leaf_pack_len(layouts, base);
        let capped = budget_capped_policy(layouts, base, pack);
        assert_eq!(capped.kernel, KernelKind::Packed);
        assert_eq!(workspace_len(layouts, capped), pack);
    }

    #[test]
    fn tiled_run_reports_buffer_mismatch() {
        let l = MortonLayout::new(4, 4, 1);
        let layouts = NodeLayouts::new(l, l, l);
        let a = vec![0.0f64; l.len()];
        let b = vec![0.0f64; l.len()];
        let mut c = vec![0.0f64; l.len()];
        let short_a = vec![0.0f64; l.len() - 1];
        assert_eq!(
            run_serial(&short_a, &b, &mut c, layouts, ExecPolicy::default()),
            Err(GemmError::BufferLenMismatch {
                operand: Operand::A,
                needed: l.len(),
                got: l.len() - 1
            })
        );
        assert_eq!(run_serial(&a, &b, &mut c, layouts, ExecPolicy::default()), Ok(()));
    }

    #[test]
    fn budget_capping_drops_levels_until_it_fits() {
        let l = MortonLayout::new(4, 4, 3); // 32x32 of 4x4 tiles
        let layouts = NodeLayouts::new(l, l, l);
        // Packed: a fused leaf reuses the packing slot, so fusing the
        // innermost level frees its staged slots (a non-packing kernel's
        // fused leaf needs as much as those slots free).
        let base = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let full = workspace_len(layouts, base);

        // Unlimited budget: the base policy unchanged.
        assert_eq!(budget_capped_policy(layouts, base, usize::MAX), base);
        assert_eq!(budget_capped_policy(layouts, base, full), base);

        // One element short of full: the first rung fuses the innermost
        // level — depth and kernel survive.
        let capped = budget_capped_policy(layouts, base, full - 1);
        assert_eq!(capped, ExecPolicy { fuse: crate::fuse::MAX_FUSE, ..base }, "fuse rung");

        // Below the fused footprint the ladder must start raising
        // strassen_min while keeping the fuse.
        let fused_floor = workspace_len(layouts, capped);
        let capped = budget_capped_policy(layouts, base, fused_floor - 1);
        assert!(capped.strassen_min > base.strassen_min, "recursion rung");
        assert_eq!(capped.fuse, crate::fuse::MAX_FUSE, "recursion rung keeps the fuse");

        // Zero budget: Strassen fully disabled, workspace-free.
        let none = budget_capped_policy(layouts, base, 0);
        assert_eq!(workspace_len(layouts, none), 0);

        // Every possible budget yields a fitting policy (monotone sweep).
        for budget in 0..=full {
            let p = budget_capped_policy(layouts, base, budget);
            assert!(workspace_len(layouts, p) <= budget, "budget {budget}");
        }
    }

    #[test]
    fn fused_policies_shrink_the_workspace() {
        // A packed fused leaf reuses the packing slot, so fusing gives a
        // strictly smaller arena than the staged plan at the same
        // recursion depth. A non-packing kernel's fused leaf materializes
        // the combined A, B and one product tile — exactly the
        // qa + qb + qc the staged low-mem level held — so it is never
        // larger.
        let l = MortonLayout::new(8, 8, 3);
        let layouts = NodeLayouts::new(l, l, l);
        for kernel in [KernelKind::Blocked, KernelKind::Packed] {
            let staged = ExecPolicy { kernel, ..Default::default() };
            let prev = workspace_len(layouts, staged);
            let ws = workspace_len(layouts, ExecPolicy { fuse: crate::fuse::MAX_FUSE, ..staged });
            if kernel == KernelKind::Packed {
                assert!(ws < prev, "{kernel}: {ws} >= {prev}");
            } else {
                assert_eq!(ws, prev, "{kernel}");
            }
        }
        // The closed form: the fused level removes its qa+qb+qc staged
        // slots; a fused Packed terminal reuses the same packing slot.
        let l = MortonLayout::new(8, 8, 2);
        let layouts = NodeLayouts::new(l, l, l);
        let packed = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let q = l.quadrant_len();
        let staged_slots = |levels: usize| -> usize {
            // Level j of the recursion has quadrant_len q / 4^j.
            (0..levels).map(|j| 3 * (q >> (2 * j))).sum()
        };
        assert_eq!(
            workspace_len(layouts, ExecPolicy { fuse: 1, ..packed }),
            staged_slots(1) + leaf_pack_len(layouts, packed)
        );
        // With its only level fused, no staged slot remains.
        let l = MortonLayout::new(8, 8, 1);
        let layouts = NodeLayouts::new(l, l, l);
        assert_eq!(
            workspace_len(layouts, ExecPolicy { fuse: 1, ..packed }),
            leaf_pack_len(layouts, packed)
        );
    }

    #[test]
    fn budget_prefers_fuse_over_dropping_depth() {
        // The pinned degradation ladder of the serial arena: fuse first,
        // then recursion depth, then the kernel swap.
        let l = MortonLayout::new(8, 8, 3);
        let layouts = NodeLayouts::new(l, l, l);
        let base = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };

        // A budget one fused level satisfies keeps every level and the
        // packed kernel.
        let one_fused = workspace_len(layouts, ExecPolicy { fuse: 1, ..base });
        assert!(one_fused < workspace_len(layouts, base));
        let capped = budget_capped_policy(layouts, base, one_fused);
        assert_eq!(capped, ExecPolicy { fuse: 1, ..base }, "fuse rung");

        // Once the fused arena overflows, depth goes next — on the fused
        // shape, with the kernel still packed.
        let capped = budget_capped_policy(layouts, base, one_fused - 1);
        assert_eq!(capped.fuse, 1, "depth rung keeps the fuse");
        assert!(capped.strassen_min > base.strassen_min, "depth rung");
        assert_eq!(capped.kernel, KernelKind::Packed, "depth rung keeps the kernel");

        // Budget below even the conventional packing slot: kernel swap.
        let capped = budget_capped_policy(layouts, base, 0);
        assert_eq!(capped.kernel, KernelKind::Blocked);
        assert_eq!(capped.strassen_min, usize::MAX);
    }

    #[test]
    fn budget_capped_policies_stay_correct() {
        let l = MortonLayout::new(4, 4, 3);
        let layouts = NodeLayouts::new(l, l, l);
        let base = ExecPolicy::default();
        let full = workspace_len(layouts, base);
        let a: Matrix<i64> = random_matrix(32, 32, 77);
        let b: Matrix<i64> = random_matrix(32, 32, 78);
        let expect = naive_product(&a, &b);
        for budget in [0, full / 4, full / 2, full] {
            let policy = budget_capped_policy(layouts, base, budget);
            let got = run(&a, &b, 4, 4, 4, 3, policy);
            assert_eq!(got, expect, "budget {budget}");
        }
    }

    #[test]
    fn variants_agree_on_floats_within_tolerance() {
        // The two forms of the innermost Strassen level: staged (the
        // low-mem Winograd table) and fused (the fused operand table).
        // They sum in different orders, so on floats they agree within
        // tolerance.
        let a: Matrix<f64> = random_matrix(40, 40, 50);
        let b: Matrix<f64> = random_matrix(40, 40, 51);
        for kernel in [KernelKind::Blocked, KernelKind::Packed] {
            let staged = run(&a, &b, 5, 5, 5, 3, ExecPolicy { kernel, ..Default::default() });
            let fused =
                run(&a, &b, 5, 5, 5, 3, ExecPolicy { kernel, fuse: 1, ..Default::default() });
            assert_matrix_eq(staged.view(), fused.view(), 40);
        }
    }

    #[test]
    fn strassen_and_conventional_agree_on_floats() {
        let a: Matrix<f64> = random_matrix(48, 48, 30);
        let b: Matrix<f64> = random_matrix(48, 48, 31);
        let s = run(&a, &b, 6, 6, 6, 3, ExecPolicy::default());
        let c =
            run(&a, &b, 6, 6, 6, 3, ExecPolicy { strassen_min: usize::MAX, ..Default::default() });
        assert_matrix_eq(s.view(), c.view(), 48);
    }
}
