//! The BLAS-compatible MODGEMM interface (§2.1 / §3.5).
//!
//! `modgemm` computes `C ← α·op(A)·op(B) + β·C` on column-major operands
//! with leading dimensions, exactly like Level-3 BLAS `dgemm`:
//!
//! 1. a joint tiling is planned (dynamic truncation point, §3.4) — or the
//!    problem is split into well-behaved submatrix products when the
//!    operands are too rectangular (§3.5);
//! 2. `op(A)` and `op(B)` are packed into Morton buffers (transposition is
//!    folded into the conversion, so one core routine suffices);
//! 3. the core routine computes `D ← A·B` over Morton storage;
//! 4. the result is unpacked with a fused `C ← α·D + β·C` (skipped in the
//!    common α=1, β=0 case, where the unpack writes `C` directly).
//!
//! [`GemmPlan::try_execute`] returns the conversion/compute split of
//! Figure 7 as a [`GemmBreakdown`]; [`MortonMatrix`] plus
//! [`modgemm_premorton`] expose the "matrices already in Morton order"
//! mode of Figure 8.

use std::time::Duration;

use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::Scalar;
use modgemm_morton::convert::{from_morton, to_morton};
use modgemm_morton::tiling::JointTiling;
use modgemm_morton::MortonLayout;

use crate::config::ModgemmConfig;
use crate::error::try_grow;
use crate::exec::{budget_capped_policy, ExecPolicy, NodeLayouts};
use crate::metrics::{MetricsSink, NoopSink};
use crate::plan::{team_size, team_ws_len, GemmPlan, TiledPlan};
use crate::pool::resolve_threads;

pub use crate::error::GemmError;

/// Wall-clock breakdown of one MODGEMM call (Figure 7's quantities).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GemmBreakdown {
    /// Packing `op(A)` and `op(B)` into Morton order.
    pub convert_in: Duration,
    /// The Strassen-Winograd computation proper.
    pub compute: Duration,
    /// Unpacking the result (including the α/β post-processing).
    pub convert_out: Duration,
}

impl GemmBreakdown {
    /// Total time.
    pub fn total(&self) -> Duration {
        self.convert_in + self.compute + self.convert_out
    }

    /// Conversion (in + out) as a fraction of total.
    pub fn conversion_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            (self.convert_in + self.convert_out).as_secs_f64() / t
        }
    }

    pub(crate) fn accumulate(&mut self, other: GemmBreakdown) {
        self.convert_in += other.convert_in;
        self.compute += other.compute;
        self.convert_out += other.convert_out;
    }
}

/// An owned matrix in Morton order, remembering its logical (unpadded)
/// dimensions.
#[derive(Clone, Debug)]
pub struct MortonMatrix<S> {
    buf: Vec<S>,
    layout: MortonLayout,
    rows: usize,
    cols: usize,
}

impl<S: Scalar> MortonMatrix<S> {
    /// Packs `op(src)` into Morton order under `layout`.
    #[track_caller]
    pub fn pack(src: MatRef<'_, S>, op: Op, layout: MortonLayout) -> Self {
        let (rows, cols) = op.apply_dims(src.rows(), src.cols());
        let mut buf = vec![S::ZERO; layout.len()];
        to_morton(src, op, &layout, &mut buf);
        Self { buf, layout, rows, cols }
    }

    /// An all-zero Morton matrix with logical dimensions `rows × cols`.
    #[track_caller]
    pub fn zeros(rows: usize, cols: usize, layout: MortonLayout) -> Self {
        assert!(rows <= layout.rows() && cols <= layout.cols(), "logical dims exceed layout");
        Self { buf: vec![S::ZERO; layout.len()], layout, rows, cols }
    }

    /// Unpacks the live region into `dst` (must be `rows × cols`).
    #[track_caller]
    pub fn unpack_into(&self, dst: MatMut<'_, S>) {
        assert_eq!(dst.dims(), (self.rows, self.cols), "destination dims mismatch");
        from_morton(&self.buf, &self.layout, dst);
    }

    /// Unpacks into an owned column-major matrix.
    pub fn to_matrix(&self) -> modgemm_mat::Matrix<S> {
        let mut m = modgemm_mat::Matrix::zeros(self.rows, self.cols);
        self.unpack_into(m.view_mut());
        m
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The layout.
    pub fn layout(&self) -> MortonLayout {
        self.layout
    }

    /// The raw Morton buffer.
    pub fn as_slice(&self) -> &[S] {
        &self.buf
    }

    /// The raw Morton buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.buf
    }
}

/// Layouts implied by a [`JointTiling`].
///
/// # Panics
/// When the tiling is too deep or too large for the Morton address
/// arithmetic (plan construction reports that as
/// [`GemmError::Allocation`]).
#[track_caller]
pub fn layouts_of(plan: &JointTiling) -> NodeLayouts {
    match try_layouts_of(plan) {
        Ok(layouts) => layouts,
        Err(e) => panic!("{e}"),
    }
}

/// [`layouts_of`] for plan construction: a tiling too deep or too large
/// for the Morton address arithmetic fails as [`GemmError::Allocation`]
/// (its element count saturated at `usize::MAX`) instead of panicking.
pub(crate) fn try_layouts_of(plan: &JointTiling) -> Result<NodeLayouts, GemmError> {
    let layout = |rows: usize, cols: usize| MortonLayout::try_new(rows, cols, plan.depth);
    let (a, b, c) = (
        layout(plan.m.tile, plan.k.tile),
        layout(plan.k.tile, plan.n.tile),
        layout(plan.m.tile, plan.n.tile),
    );
    match (a, b, c) {
        (Some(a), Some(b), Some(c))
            if a.len().checked_add(b.len()).and_then(|ab| ab.checked_add(c.len())).is_some() =>
        {
            Ok(NodeLayouts::new(a, b, c))
        }
        _ => Err(GemmError::Allocation { elements: usize::MAX }),
    }
}

/// `C ← α·op(A)·op(B) + β·C` — the paper's MODGEMM with the Level-3 BLAS
/// calling convention.
///
/// ```
/// use modgemm_core::{modgemm, ModgemmConfig};
/// use modgemm_mat::{Matrix, Op};
///
/// // C ← 2·Aᵀ·B − C on integer matrices (exact).
/// let a: Matrix<i64> = Matrix::from_fn(3, 2, |i, j| (i + j) as i64);
/// let b: Matrix<i64> = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as i64);
/// let mut c: Matrix<i64> = Matrix::from_fn(2, 2, |_, _| 1);
/// modgemm(2, Op::Trans, a.view(), Op::NoTrans, b.view(), -1,
///         c.view_mut(), &ModgemmConfig::paper());
/// // Entry (0,0): 2·(0·0 + 1·2 + 2·4) − 1 = 19.
/// assert_eq!(c.get(0, 0), 19);
/// ```
///
/// # Panics
/// On the conditions [`try_modgemm`] reports as errors, such as
/// dimension mismatches between `op(A)`, `op(B)`, and `C`.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn modgemm<S: Scalar>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    cfg: &ModgemmConfig,
) {
    if let Err(e) = try_modgemm(alpha, op_a, a, op_b, b, beta, c, cfg) {
        panic!("{e}");
    }
}

/// Fallible variant of [`modgemm`]: every illegal argument, resource
/// failure, rejected non-finite operand, and verification failure comes
/// back as a typed [`GemmError`] instead of a panic, and the configured
/// [`crate::config::MemoryBudget`] degrades the recursion depth
/// gracefully instead of failing.
///
/// Order of operations: configuration validation, dimension checks,
/// degenerate-case early outs, the [`crate::config::NonFinitePolicy`]
/// operand scan, the budget-capped fast computation (planned, or split
/// when the operands are too rectangular), and finally the
/// [`crate::config::VerifyMode`] Freivalds check with one
/// conventional-recompute retry.
///
/// Each call plans and allocates afresh. Callers that reuse buffers,
/// want the [`GemmBreakdown`], or report metrics build a [`GemmPlan`]
/// and call [`GemmPlan::try_execute`] or
/// [`GemmPlan::try_execute_with_metrics`] with a [`GemmContext`].
#[allow(clippy::too_many_arguments)]
pub fn try_modgemm<S: Scalar>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    cfg: &ModgemmConfig,
) -> Result<(), GemmError> {
    let mut ctx = GemmContext::new();
    try_modgemm_with_metrics(alpha, op_a, a, op_b, b, beta, c, cfg, &mut ctx, &mut NoopSink)
        .map(|_| ())
}

/// Reusable buffers for repeated MODGEMM calls: the two Morton operand
/// buffers, the Morton result buffer, and the Strassen workspace arena
/// (which also holds a team's per-rank tails and a batch's per-item
/// arenas).
/// Amortizes the four allocations of [`modgemm`] across calls of any
/// (not necessarily identical) shapes — buffers only ever grow during
/// execution; [`Self::shrink_to`] releases memory explicitly.
#[derive(Clone, Debug, Default)]
pub struct GemmContext<S> {
    pub(crate) a_buf: Vec<S>,
    pub(crate) b_buf: Vec<S>,
    pub(crate) c_buf: Vec<S>,
    pub(crate) ws: Vec<S>,
    /// Work-stealing pool scratch (dependency counters, worker queues,
    /// metric shards), reset in place per pooled execution so a warm
    /// context keeps the hot path allocation-free.
    pub(crate) pool: crate::pool::PoolScratch,
}

/// Buffer sizes (`a`, `b`, `c`, workspace, in elements) `batch`
/// executions of an `m × k × n` problem under `cfg` will carve from a
/// context, or `None` for degenerate or split problems (which size
/// themselves per sub-product). A single GEMM (`batch = 1`) carves one
/// set — the serial arena plus its team's extras; a whole-batch DAG
/// carves `window` slots of each. The service
/// front-end uses this as its admission-time memory estimate.
pub(crate) fn buffer_needs<S: Scalar>(
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    cfg: &ModgemmConfig,
) -> Option<(usize, usize, usize, usize)> {
    if m == 0 || k == 0 || n == 0 {
        return None;
    }
    let plan = cfg.plan(m, k, n)?;
    let layouts = try_layouts_of(&plan).ok()?;
    let policy = capped_policy::<S>(layouts, cfg);
    // Mirror plan arena sizing exactly: the serial arena plus the team's
    // extra terminal tails and paired temporaries.
    let threads = resolve_threads(cfg.threads);
    let (a, b, c) = (layouts.a.len(), layouts.b.len(), layouts.c.len());
    let ws = team_ws_len(layouts, policy, team_size::<S>(layouts, policy, cfg, threads));
    if batch < 2 || threads < 2 {
        return Some((a, b, c, ws));
    }
    // Mirror `BatchPlan`'s window resolution: requested (or 2·threads),
    // capped to the batch, then budget-capped via the per-slot closed
    // form.
    let requested = if cfg.batch_window > 0 { cfg.batch_window } else { (2 * threads).max(2) };
    let w = crate::counts::batch_window_cap(
        requested.min(batch),
        a + b + c + ws,
        cfg.memory_budget.max_elements(core::mem::size_of::<S>()),
    );
    Some((w * a, w * b, w * c, w * ws))
}

impl<S: Scalar> GemmContext<S> {
    /// An empty context (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the context for an `m × k × n` problem under `cfg`
    /// (no-op for problems that will be split).
    ///
    /// # Panics
    /// On allocation failure; [`Self::try_reserve_for`] reports it.
    #[track_caller]
    pub fn reserve_for(&mut self, m: usize, k: usize, n: usize, cfg: &ModgemmConfig) {
        if let Err(e) = self.try_reserve_for(m, k, n, cfg) {
            panic!("{e}");
        }
    }

    /// Fallible [`Self::reserve_for`]: surfaces allocation failure as
    /// [`GemmError::Allocation`]. Sizing honors the configured memory
    /// budget and parallelism, matching what execution will actually use
    /// (a team's per-rank tails included).
    pub fn try_reserve_for(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        cfg: &ModgemmConfig,
    ) -> Result<(), GemmError> {
        if let Some((a, b, c, ws)) = buffer_needs::<S>(m, k, n, 1, cfg) {
            try_grow(&mut self.a_buf, a)?;
            try_grow(&mut self.b_buf, b)?;
            try_grow(&mut self.c_buf, c)?;
            try_grow(&mut self.ws, ws)?;
        }
        Ok(())
    }

    /// Shrinks the context to what an `m × k × n` problem under `cfg`
    /// actually needs, returning excess capacity to the allocator — the
    /// inverse of [`Self::reserve_for`] for traffic that moved from large
    /// shapes to small ones. Degenerate or split shapes release
    /// everything (sub-products of a split re-grow on demand).
    pub fn shrink_to(&mut self, m: usize, k: usize, n: usize, cfg: &ModgemmConfig) {
        let (a, b, c, ws) = buffer_needs::<S>(m, k, n, 1, cfg).unwrap_or((0, 0, 0, 0));
        for (buf, need) in
            [(&mut self.a_buf, a), (&mut self.b_buf, b), (&mut self.c_buf, c), (&mut self.ws, ws)]
        {
            buf.truncate(need);
            buf.shrink_to_fit();
        }
    }

    /// Total elements of memory the context actually holds (buffer
    /// *capacities*, so over-allocation from amortized growth is counted,
    /// not hidden).
    pub fn footprint(&self) -> usize {
        self.a_buf.capacity() + self.b_buf.capacity() + self.c_buf.capacity() + self.ws.capacity()
    }

    /// Elements held by the Strassen workspace arena alone — the part of
    /// [`Self::footprint`] that [`crate::config::MemoryBudget`] caps (the
    /// three Morton conversion buffers are sized by the operands and are
    /// not subject to the budget). A team's terminal tails live here too
    /// and stay within the budget: a plan shrinks its team until they
    /// fit, and runs serially when no helper rank does.
    pub fn workspace_footprint(&self) -> usize {
        self.ws.capacity()
    }

    /// Lengths of the four buffers, the baseline for
    /// [`Self::record_growth`].
    pub(crate) fn lens(&self) -> [usize; 4] {
        [self.a_buf.len(), self.b_buf.len(), self.c_buf.len(), self.ws.len()]
    }

    /// Records every buffer that grew since `before` as a temp allocation
    /// — cold-path accounting: growth is heap traffic the plan could not
    /// avoid, so a warm context records nothing.
    pub(crate) fn record_growth<K: MetricsSink>(&self, before: [usize; 4], sink: &mut K) {
        if !K::ENABLED {
            return;
        }
        let (mut count, mut elems) = (0u64, 0u64);
        for (new, old) in self.lens().into_iter().zip(before) {
            if new > old {
                count += 1;
                elems += (new - old) as u64;
            }
        }
        if count > 0 {
            sink.record_temp_allocs(count, elems, elems * core::mem::size_of::<S>() as u64);
        }
    }
}

/// True when some stored entry of `x` is `NaN` or `±Inf` (by magnitude,
/// so one scan covers real and complex scalars; exact integer types can
/// never trip it).
pub(crate) fn has_non_finite<S: Scalar>(x: MatRef<'_, S>) -> bool {
    (0..x.cols()).any(|j| x.col(j).iter().any(|v| !v.abs_val().to_f64().is_finite()))
}

/// The one-shot pipeline behind [`try_modgemm`] and the §3.5 split
/// ([`crate::rect::split_gemm`]): builds a throwaway [`GemmPlan`] and
/// executes it on `ctx`, reporting through `sink` (see
/// [`crate::metrics`]). Each call records one plan built and one
/// execution; with [`NoopSink`] the instrumentation compiles out and the
/// product is bit-identical.
///
/// Errors come in the order `InvalidConfig` (plan construction
/// validates the configuration), `InnerDimMismatch`, then
/// `OutputDimMismatch` (checked by execution).
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_modgemm_with_metrics<S: Scalar, K: MetricsSink>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    cfg: &ModgemmConfig,
    ctx: &mut GemmContext<S>,
    sink: &mut K,
) -> Result<GemmBreakdown, GemmError> {
    let (m, ka) = op_a.apply_dims(a.rows(), a.cols());
    let (kb, n) = op_b.apply_dims(b.rows(), b.cols());
    let plan = GemmPlan::<S>::try_new(m, ka, n, cfg)?;
    if ka != kb {
        return Err(GemmError::InnerDimMismatch { a_cols: ka, b_rows: kb });
    }
    if K::ENABLED {
        sink.record_plan_built();
    }
    plan.try_execute_with_metrics(alpha, op_a, a, op_b, b, beta, c, ctx, sink)
}

/// In-place `C ← β·C` honoring the BLAS convention that `β = 0` writes
/// zeros without reading `C`.
pub(crate) fn scale_in_place<S: Scalar>(beta: S, c: &mut MatMut<'_, S>) {
    if beta == S::ONE {
        return;
    }
    for j in 0..c.cols() {
        let col = c.col_mut(j);
        if beta == S::ZERO {
            col.fill(S::ZERO);
        } else {
            for x in col {
                *x *= beta;
            }
        }
    }
}

/// The execution policy `cfg` implies for a node of `layouts`, with the
/// memory budget applied: fuse depth climbs, then recursion depth
/// degrades toward the conventional path, then the kernel, until the
/// serial arena fits ([`budget_capped_policy`]). The team is sized from
/// what the budget leaves over ([`team_size`]).
pub(crate) fn capped_policy<S: Scalar>(layouts: NodeLayouts, cfg: &ModgemmConfig) -> ExecPolicy {
    // Auto resolves here, once per plan: the stored policy always carries
    // a concrete kernel, so execution and arena sizing agree.
    let (tm, tk, tn) = (layouts.a.tile_rows, layouts.a.tile_cols, layouts.b.tile_cols);
    let kernel = cfg.leaf_kernel.resolve(tm, tk, tn);
    let mut base = ExecPolicy { strassen_min: cfg.strassen_min, kernel, fuse: 0 };
    // Auto fuses only when the plan resolved to the packed kernel (the
    // combined packs and scatter epilogue are its bandwidth win), at the
    // one level the fused table covers ([`crate::fuse::MAX_FUSE`]);
    // Staged and Fused pin it on any kernel. The rule reads the
    // config, never the resolved thread count, so float bits match at
    // every `MODGEMM_THREADS`. Clamped to the levels the recursion
    // actually takes so plan facts stay honest.
    let levels = crate::counts::strassen_levels(layouts, base);
    base.fuse = match cfg.fuse_depth {
        crate::config::FuseDepth::Auto if kernel == modgemm_mat::KernelKind::Packed => {
            crate::fuse::MAX_FUSE
        }
        crate::config::FuseDepth::Auto | crate::config::FuseDepth::Staged => 0,
        crate::config::FuseDepth::Fused => crate::fuse::MAX_FUSE,
    }
    .min(levels);
    let budget = cfg.memory_budget.max_elements(core::mem::size_of::<S>());
    budget_capped_policy(layouts, base, budget)
}

/// Figure 8 mode: multiply operands that are *already* in Morton order,
/// skipping all conversion. Computes `C ← A·B` (α = 1, β = 0).
///
/// Compiles the compute stage for the operands' own layouts under `cfg`
/// and runs it on the interpreter, as a team like any single GEMM.
/// `A` and `B` are borrowed shared and never written.
///
/// # Panics
/// On an invalid configuration (as [`modgemm`] does), if the layouts are
/// incompatible (depths differ or tile dimensions do not chain), or if
/// logical dimensions do not chain.
#[track_caller]
pub fn modgemm_premorton<S: Scalar>(
    a: &MortonMatrix<S>,
    b: &MortonMatrix<S>,
    c: &mut MortonMatrix<S>,
    cfg: &ModgemmConfig,
) {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    assert_eq!(a.cols, b.rows, "logical inner dimensions differ");
    assert_eq!((c.rows, c.cols), (a.rows, b.cols), "C logical dims mismatch");
    let layouts = NodeLayouts::new(a.layout, b.layout, c.layout);
    let tp = TiledPlan::new::<S>(layouts, capped_policy::<S>(layouts, cfg), cfg);
    let mut ws = vec![S::ZERO; tp.ws_len()];
    if let Err(e) = tp.run(&a.buf, &b.buf, &mut c.buf, &mut ws, None, &mut NoopSink) {
        panic!("{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Truncation;
    use crate::error::Operand;
    use modgemm_mat::gen::{random_matrix, random_problem};
    use modgemm_mat::naive::{naive_gemm, naive_product};
    use modgemm_mat::norms::assert_matrix_eq;
    use modgemm_mat::Matrix;
    use modgemm_morton::tiling::TileRange;

    #[allow(clippy::too_many_arguments)]
    fn check_full(
        m: usize,
        k: usize,
        n: usize,
        alpha: f64,
        beta: f64,
        op_a: Op,
        op_b: Op,
        cfg: &ModgemmConfig,
        seed: u64,
    ) {
        // Stored dims: op(stored) must be m×k / k×n; Trans is involutive.
        let (ar, ac) = op_a.apply_dims(m, k);
        let (br, bc) = op_b.apply_dims(k, n);
        let a: Matrix<f64> = random_matrix(ar, ac, seed);
        let b: Matrix<f64> = random_matrix(br, bc, seed + 1);
        let c0: Matrix<f64> = random_matrix(m, n, seed + 2);

        let mut got = c0.clone();
        modgemm(alpha, op_a, a.view(), op_b, b.view(), beta, got.view_mut(), cfg);

        let mut expect = c0.clone();
        naive_gemm(alpha, op_a, a.view(), op_b, b.view(), beta, expect.view_mut());
        assert_matrix_eq(got.view(), expect.view(), k);
    }

    #[test]
    fn square_alpha1_beta0() {
        let cfg = ModgemmConfig::default();
        for (n, seed) in [(64, 1), (150, 2), (171, 3), (256, 4)] {
            check_full(n, n, n, 1.0, 0.0, Op::NoTrans, Op::NoTrans, &cfg, seed);
        }
    }

    #[test]
    fn exact_integers_odd_sizes() {
        let cfg = ModgemmConfig::default();
        for (n, seed) in [(65usize, 10u64), (100, 11), (129, 12)] {
            let a: Matrix<i64> = random_matrix(n, n, seed);
            let b: Matrix<i64> = random_matrix(n, n, seed + 1);
            let mut c: Matrix<i64> = Matrix::zeros(n, n);
            modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c.view_mut(), &cfg);
            assert_eq!(c, naive_product(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn general_alpha_beta() {
        let cfg = ModgemmConfig::default();
        check_full(100, 80, 90, 2.5, -1.5, Op::NoTrans, Op::NoTrans, &cfg, 20);
        check_full(70, 70, 70, -1.0, 1.0, Op::NoTrans, Op::NoTrans, &cfg, 21);
        check_full(70, 70, 70, 0.5, 0.0, Op::NoTrans, Op::NoTrans, &cfg, 22);
    }

    #[test]
    fn transposed_operands() {
        let cfg = ModgemmConfig::default();
        check_full(90, 110, 75, 1.0, 0.0, Op::Trans, Op::NoTrans, &cfg, 30);
        check_full(90, 110, 75, 1.0, 0.0, Op::NoTrans, Op::Trans, &cfg, 31);
        check_full(90, 110, 75, 2.0, 3.0, Op::Trans, Op::Trans, &cfg, 32);
    }

    #[test]
    fn rectangular_within_joint_range() {
        let cfg = ModgemmConfig::default();
        check_full(200, 120, 90, 1.0, 0.0, Op::NoTrans, Op::NoTrans, &cfg, 40);
        check_full(65, 256, 100, 1.0, 0.0, Op::NoTrans, Op::NoTrans, &cfg, 41);
    }

    #[test]
    fn highly_rectangular_splits() {
        // Ratio > 4 forces the Figure 4 submatrix splitting.
        let cfg = ModgemmConfig::default();
        check_full(700, 80, 700, 1.0, 0.0, Op::NoTrans, Op::NoTrans, &cfg, 50);
        check_full(80, 700, 80, 1.0, 0.0, Op::NoTrans, Op::NoTrans, &cfg, 51);
        check_full(900, 900, 70, 1.0, 2.0, Op::NoTrans, Op::NoTrans, &cfg, 52);
        check_full(70, 900, 900, -1.0, 0.5, Op::Trans, Op::NoTrans, &cfg, 53);
    }

    #[test]
    fn degenerate_dimensions() {
        let cfg = ModgemmConfig::default();
        // k = 0: C ← β·C without reading A/B.
        let a: Matrix<f64> = Matrix::zeros(4, 0);
        let b: Matrix<f64> = Matrix::zeros(0, 5);
        let mut c = Matrix::from_fn(4, 5, |i, j| (i + j) as f64);
        modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 2.0, c.view_mut(), &cfg);
        for i in 0..4 {
            for j in 0..5 {
                assert_eq!(c.get(i, j), 2.0 * (i + j) as f64);
            }
        }
        // β = 0 wipes even NaN.
        let mut c = Matrix::from_fn(4, 5, |_, _| f64::NAN);
        modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
        // α = 0 never touches A·B.
        let a: Matrix<f64> = random_matrix(4, 3, 1);
        let b: Matrix<f64> = random_matrix(3, 5, 2);
        let mut c = Matrix::from_fn(4, 5, |_, _| 7.0);
        modgemm(0.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.5, c.view_mut(), &cfg);
        assert!(c.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn beta_zero_does_not_read_nan_garbage() {
        let cfg = ModgemmConfig::default();
        let a: Matrix<f64> = random_matrix(33, 33, 60);
        let b: Matrix<f64> = random_matrix(33, 33, 61);
        let mut c = Matrix::from_fn(33, 33, |_, _| f64::NAN);
        modgemm(2.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg);
        assert!(c.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn fixed_truncation_matches() {
        let cfg = ModgemmConfig { truncation: Truncation::Fixed(32), ..Default::default() };
        check_full(150, 150, 150, 1.0, 0.0, Op::NoTrans, Op::NoTrans, &cfg, 70);
        let cfg = ModgemmConfig { truncation: Truncation::Fixed(64), ..Default::default() };
        check_full(130, 200, 90, 1.5, -0.5, Op::NoTrans, Op::Trans, &cfg, 71);
    }

    #[test]
    fn custom_tile_range() {
        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(8, 32)),
            ..Default::default()
        };
        check_full(200, 200, 200, 1.0, 0.0, Op::NoTrans, Op::NoTrans, &cfg, 80);
    }

    #[test]
    fn timed_breakdown_is_consistent() {
        let cfg = ModgemmConfig::default();
        let (a, b, _): (Matrix<f64>, _, _) = random_problem(300, 300, 300, 90);
        let mut c: Matrix<f64> = Matrix::zeros(300, 300);
        let bd = try_modgemm_with_metrics(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &cfg,
            &mut GemmContext::new(),
            &mut NoopSink,
        )
        .unwrap();
        assert!(bd.compute > Duration::ZERO);
        assert!(bd.convert_in > Duration::ZERO);
        assert!(bd.total() >= bd.compute);
        let f = bd.conversion_fraction();
        assert!((0.0..1.0).contains(&f), "fraction {f}");
        assert_matrix_eq(c.view(), naive_product(&a, &b).view(), 300);
    }

    #[test]
    fn premorton_mode_matches_interface_mode() {
        let cfg = ModgemmConfig::default();
        let n = 160;
        let (a, b, _): (Matrix<f64>, _, _) = random_problem(n, n, n, 100);
        let plan = cfg.plan(n, n, n).unwrap();
        let layouts = layouts_of(&plan);
        let am = MortonMatrix::pack(a.view(), Op::NoTrans, layouts.a);
        let bm = MortonMatrix::pack(b.view(), Op::NoTrans, layouts.b);
        let mut cm = MortonMatrix::zeros(n, n, layouts.c);
        modgemm_premorton(&am, &bm, &mut cm, &cfg);
        let got = cm.to_matrix();
        assert_matrix_eq(got.view(), naive_product(&a, &b).view(), n);
    }

    #[test]
    #[should_panic(expected = "Freivalds verification needs at least one round")]
    fn premorton_validates_the_config() {
        let cfg = ModgemmConfig {
            verify: crate::config::VerifyMode::Freivalds { rounds: 0, seed: 1 },
            ..ModgemmConfig::paper()
        };
        let layouts = layouts_of(&cfg.plan(64, 64, 64).unwrap());
        let am = MortonMatrix::<f64>::zeros(64, 64, layouts.a);
        let bm = MortonMatrix::<f64>::zeros(64, 64, layouts.b);
        let mut cm = MortonMatrix::zeros(64, 64, layouts.c);
        modgemm_premorton(&am, &bm, &mut cm, &cfg);
    }

    #[test]
    fn premorton_leaves_operands_unchanged() {
        // Shared operands are never written, and the product is bitwise
        // the one-shot path's.
        let cfg = ModgemmConfig::paper();
        let n = 160;
        let (a, b, _): (Matrix<f64>, _, _) = random_problem(n, n, n, 101);
        let layouts = layouts_of(&cfg.plan(n, n, n).unwrap());
        let am = MortonMatrix::pack(a.view(), Op::NoTrans, layouts.a);
        let bm = MortonMatrix::pack(b.view(), Op::NoTrans, layouts.b);
        let (a0, b0) = (am.as_slice().to_vec(), bm.as_slice().to_vec());
        let mut cm = MortonMatrix::zeros(n, n, layouts.c);
        modgemm_premorton(&am, &bm, &mut cm, &cfg);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(am.as_slice()), bits(&a0), "A was written");
        assert_eq!(bits(bm.as_slice()), bits(&b0), "B was written");

        let mut oneshot: Matrix<f64> = Matrix::zeros(n, n);
        modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, oneshot.view_mut(), &cfg);
        assert_eq!(bits(cm.to_matrix().as_slice()), bits(oneshot.as_slice()));
    }

    #[test]
    fn morton_matrix_roundtrip_with_transpose() {
        let a: Matrix<f64> = random_matrix(50, 70, 110);
        let layout = MortonLayout::new(18, 13, 2); // 72x52 ≥ 70x50
        let m = MortonMatrix::pack(a.view(), Op::Trans, layout);
        assert_eq!((m.rows(), m.cols()), (70, 50));
        let back = m.to_matrix();
        assert_eq!(back, a.transposed());
    }

    #[test]
    fn try_modgemm_reports_typed_errors() {
        let cfg = ModgemmConfig::default();
        let a: Matrix<f64> = Matrix::zeros(4, 5);
        let b: Matrix<f64> = Matrix::zeros(6, 3);
        let mut c: Matrix<f64> = Matrix::zeros(4, 3);
        let err =
            try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
                .unwrap_err();
        assert_eq!(err, GemmError::InnerDimMismatch { a_cols: 5, b_rows: 6 });
        assert!(err.to_string().contains("inner dimensions"));

        let b: Matrix<f64> = Matrix::zeros(5, 3);
        let mut bad_c: Matrix<f64> = Matrix::zeros(4, 4);
        let err = try_modgemm(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            bad_c.view_mut(),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, GemmError::OutputDimMismatch { expected: (4, 3), got: (4, 4) });

        // And it succeeds (with a correct result) when dims are legal.
        let a: Matrix<i64> = random_matrix(10, 12, 1);
        let b: Matrix<i64> = random_matrix(12, 8, 2);
        let mut c: Matrix<i64> = Matrix::zeros(10, 8);
        try_modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c.view_mut(), &cfg)
            .unwrap();
        assert_eq!(c, naive_product(&a, &b));
    }

    #[test]
    fn memory_budget_degrades_gracefully_and_stays_correct() {
        use crate::config::MemoryBudget;
        let n = 150;
        let a: Matrix<f64> = random_matrix(n, n, 130);
        let b: Matrix<f64> = random_matrix(n, n, 131);
        let expect = naive_product(&a, &b);
        // From unlimited down to zero extra bytes: always a correct
        // product, never an error. `strassen_min: 0` starts the ladder
        // from Strassen levels for it to fuse and drop.
        for budget in [
            MemoryBudget::Unlimited,
            MemoryBudget::MaxWorkspaceBytes(64 * 1024),
            MemoryBudget::MaxWorkspaceBytes(4 * 1024),
            MemoryBudget::MaxWorkspaceBytes(0),
        ] {
            let cfg =
                ModgemmConfig { strassen_min: 0, memory_budget: budget, ..Default::default() };
            let mut c: Matrix<f64> = Matrix::zeros(n, n);
            try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
                .unwrap();
            assert_matrix_eq(c.view(), expect.view(), n);
        }
    }

    #[test]
    fn memory_budget_caps_the_context_workspace() {
        use crate::config::MemoryBudget;
        let cfg = ModgemmConfig {
            memory_budget: MemoryBudget::MaxWorkspaceBytes(4 * 1024),
            ..Default::default()
        };
        let mut ctx = GemmContext::<f64>::new();
        ctx.try_reserve_for(200, 200, 200, &cfg).unwrap();
        assert!(
            ctx.ws.len() * core::mem::size_of::<f64>() <= 4 * 1024,
            "workspace {} elements exceeds the 4 KiB budget",
            ctx.ws.len()
        );
        // And executing under the same config must not grow it.
        let a: Matrix<f64> = random_matrix(200, 200, 140);
        let b: Matrix<f64> = random_matrix(200, 200, 141);
        let mut c: Matrix<f64> = Matrix::zeros(200, 200);
        try_modgemm_with_metrics(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &cfg,
            &mut ctx,
            &mut NoopSink,
        )
        .unwrap();
        assert!(ctx.ws.len() * core::mem::size_of::<f64>() <= 4 * 1024);
        assert_matrix_eq(c.view(), naive_product(&a, &b).view(), 200);
    }

    #[test]
    fn non_finite_policies() {
        use crate::config::NonFinitePolicy;
        let n = 40;
        let mut a: Matrix<f64> = random_matrix(n, n, 150);
        let b: Matrix<f64> = random_matrix(n, n, 151);
        a.set(3, 7, f64::NAN);

        // Reject: typed error naming the poisoned operand.
        let cfg = ModgemmConfig { non_finite: NonFinitePolicy::Reject, ..Default::default() };
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        let err =
            try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
                .unwrap_err();
        assert_eq!(err, GemmError::NonFiniteInput { operand: Operand::A });

        // FallbackConventional: bitwise identical to the naive baseline
        // (same algorithm, same order), NaN only where IEEE says so.
        let cfg = ModgemmConfig {
            non_finite: NonFinitePolicy::FallbackConventional,
            ..Default::default()
        };
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
            .unwrap();
        let mut expect: Matrix<f64> = Matrix::zeros(n, n);
        naive_gemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, expect.view_mut());
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (c.get(i, j), expect.get(i, j));
                assert!(x == y || (x.is_nan() && y.is_nan()), "({i},{j}): {x} vs {y}");
            }
        }

        // Propagate (the default): computes without complaint.
        let cfg = ModgemmConfig::default();
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
            .unwrap();
        // Finite operands under Reject still compute.
        let cfg = ModgemmConfig { non_finite: NonFinitePolicy::Reject, ..Default::default() };
        let af: Matrix<f64> = random_matrix(n, n, 152);
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        try_modgemm(1.0, Op::NoTrans, af.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
            .unwrap();
        assert_matrix_eq(c.view(), naive_product(&af, &b).view(), n);
    }

    #[test]
    fn verified_mode_accepts_good_results() {
        use crate::config::VerifyMode;
        let cfg = ModgemmConfig {
            verify: VerifyMode::Freivalds { rounds: 8, seed: 42 },
            ..Default::default()
        };
        // Through the planned path and the rectangular-split path, with
        // general α/β.
        for (m, k, n, seed) in [(100usize, 80usize, 90usize, 160u64), (600, 70, 600, 161)] {
            let a: Matrix<f64> = random_matrix(m, k, seed);
            let b: Matrix<f64> = random_matrix(k, n, seed + 1);
            let c0: Matrix<f64> = random_matrix(m, n, seed + 2);
            let mut c = c0.clone();
            try_modgemm(
                1.5,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                -0.5,
                c.view_mut(),
                &cfg,
            )
            .unwrap();
            let mut expect = c0;
            naive_gemm(1.5, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -0.5, expect.view_mut());
            assert_matrix_eq(c.view(), expect.view(), k);
        }
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        use crate::config::VerifyMode;
        let cfg = ModgemmConfig {
            verify: VerifyMode::Freivalds { rounds: 0, seed: 0 },
            ..Default::default()
        };
        let a: Matrix<f64> = random_matrix(8, 8, 170);
        let b: Matrix<f64> = random_matrix(8, 8, 171);
        let mut c: Matrix<f64> = Matrix::zeros(8, 8);
        assert!(matches!(
            try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg),
            Err(GemmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn context_reuse_is_equivalent_and_allocation_stable() {
        let cfg = ModgemmConfig::default();
        let mut ctx = GemmContext::<f64>::new();
        // Mixed shapes, including one that splits (reuses ctx inside).
        for (m, k, n, seed) in [
            (100usize, 80usize, 90usize, 1u64),
            (150, 150, 150, 2),
            (60, 500, 60, 3),
            (100, 80, 90, 4),
        ] {
            let a: Matrix<f64> = random_matrix(m, k, seed);
            let b: Matrix<f64> = random_matrix(k, n, seed + 10);
            let mut with_ctx: Matrix<f64> = Matrix::zeros(m, n);
            try_modgemm_with_metrics(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                with_ctx.view_mut(),
                &cfg,
                &mut ctx,
                &mut NoopSink,
            )
            .unwrap();
            let mut fresh: Matrix<f64> = Matrix::zeros(m, n);
            modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, fresh.view_mut(), &cfg);
            assert_eq!(with_ctx, fresh, "{m}x{k}x{n}");
        }
        // Once warm, repeating a shape must not grow the footprint.
        let before = ctx.footprint();
        let a: Matrix<f64> = random_matrix(150, 150, 9);
        let b: Matrix<f64> = random_matrix(150, 150, 10);
        let mut c: Matrix<f64> = Matrix::zeros(150, 150);
        try_modgemm_with_metrics(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &cfg,
            &mut ctx,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(ctx.footprint(), before);
    }

    #[test]
    fn reserve_for_pre_sizes_the_context() {
        let cfg = ModgemmConfig::default();
        let mut ctx = GemmContext::<f64>::new();
        ctx.reserve_for(200, 200, 200, &cfg);
        let reserved = ctx.footprint();
        assert!(reserved > 0);
        let a: Matrix<f64> = random_matrix(200, 200, 1);
        let b: Matrix<f64> = random_matrix(200, 200, 2);
        let mut c: Matrix<f64> = Matrix::zeros(200, 200);
        try_modgemm_with_metrics(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &cfg,
            &mut ctx,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(ctx.footprint(), reserved, "reservation must cover the run");
    }

    #[test]
    fn reservation_covers_pooled_single_and_batch_dags() {
        // One sizing rule: a reserved context runs both a single GEMM's
        // team (300 pads above the team crossover) and a window-1
        // whole-batch DAG without growing.
        let (n, items) = (300usize, 3usize);
        let cfg = ModgemmConfig { threads: 2, batch_window: 1, ..Default::default() };
        let plan = GemmPlan::<f64>::try_new(n, n, n, &cfg).unwrap();
        let batch = crate::batch::BatchPlan::<f64>::try_new(n, n, n, items, &cfg).unwrap();
        assert!(plan.tiled().unwrap().team == 2 && batch.parallel_tasks() > 0);
        let mut ctx = GemmContext::<f64>::new();
        ctx.try_reserve_for(n, n, n, &cfg).unwrap();
        let reserved = ctx.footprint();

        let a: Matrix<f64> = random_matrix(n, n * items, 1);
        let b: Matrix<f64> = random_matrix(n, n * items, 2);
        let mut c: Matrix<f64> = Matrix::zeros(n, n * items);
        let mut sink = crate::metrics::CollectingSink::new();
        plan.try_execute_with_metrics(
            1.0,
            Op::NoTrans,
            a.view().submatrix(0, 0, n, n),
            Op::NoTrans,
            b.view().submatrix(0, 0, n, n),
            0.0,
            c.view_mut().submatrix_mut(0, 0, n, n),
            &mut ctx,
            &mut sink,
        )
        .unwrap();
        let desc = crate::batch::StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: a.as_slice(),
            lda: n,
            stride_a: n * n,
            op_b: Op::NoTrans,
            b: b.as_slice(),
            ldb: n,
            stride_b: n * n,
            beta: 0.0,
            ldc: n,
            stride_c: n * n,
        };
        batch.try_execute_with_metrics(&desc, c.as_mut_slice(), &mut ctx, &mut sink).unwrap();
        assert_eq!(sink.metrics.temp_allocations, 0, "reserved context must not grow");
        assert_eq!(ctx.footprint(), reserved);
        assert_eq!(sink.metrics.batch_items, items as u64);
    }

    #[test]
    fn shrink_to_releases_stale_capacity_and_context_stays_reusable() {
        let cfg = ModgemmConfig::default();
        let mut ctx = GemmContext::<f64>::new();

        // A big reservation followed by small traffic leaves a stale
        // oversized footprint; footprint() must report it (capacities,
        // not lengths) and shrink_to must release it.
        ctx.reserve_for(512, 512, 512, &cfg);
        let big = ctx.footprint();
        let a: Matrix<f64> = random_matrix(64, 64, 11);
        let b: Matrix<f64> = random_matrix(64, 64, 12);
        let mut c: Matrix<f64> = Matrix::zeros(64, 64);
        let run = |ctx: &mut GemmContext<f64>, c: &mut Matrix<f64>| {
            try_modgemm_with_metrics(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &cfg,
                ctx,
                &mut NoopSink,
            )
            .unwrap();
        };
        run(&mut ctx, &mut c);
        assert_eq!(ctx.footprint(), big, "small traffic must not hide the stale reservation");

        ctx.shrink_to(64, 64, 64, &cfg);
        let small = ctx.footprint();
        assert!(small < big, "shrink_to must release capacity ({small} !< {big})");
        let mut ctx_fresh = GemmContext::<f64>::new();
        ctx_fresh.reserve_for(64, 64, 64, &cfg);
        assert_eq!(small, ctx_fresh.footprint(), "shrunk context matches a fresh reservation");

        // Shrink-then-grow: the context stays correct and re-grows on
        // demand when large traffic returns.
        let mut c_small = Matrix::zeros(64, 64);
        run(&mut ctx, &mut c_small);
        assert_eq!(c_small, c, "post-shrink result must be identical");
        let a2: Matrix<f64> = random_matrix(300, 300, 13);
        let b2: Matrix<f64> = random_matrix(300, 300, 14);
        let mut c2: Matrix<f64> = Matrix::zeros(300, 300);
        try_modgemm_with_metrics(
            1.0,
            Op::NoTrans,
            a2.view(),
            Op::NoTrans,
            b2.view(),
            0.0,
            c2.view_mut(),
            &cfg,
            &mut ctx,
            &mut NoopSink,
        )
        .unwrap();
        assert!(ctx.footprint() > small, "large traffic must re-grow the context");
        assert_matrix_eq(c2.view(), naive_product(&a2, &b2).view(), 300);

        // Degenerate/split shapes release everything.
        ctx.shrink_to(0, 10, 10, &cfg);
        assert_eq!(ctx.footprint(), 0);
        assert_eq!(ctx.workspace_footprint(), 0);
    }

    #[test]
    fn auto_fuse_ignores_the_thread_count() {
        // Packed 48×48 leaves at the paper's depth (`strassen_min: 0`):
        // Auto fuses MAX_FUSE levels at every depth and whatever the
        // thread count resolves to, so the float bits do not depend on it.
        let fused_at = |depth: usize, threads: usize| {
            let l = modgemm_morton::MortonLayout::new(48, 48, depth);
            let cfg = ModgemmConfig {
                strassen_min: 0,
                leaf_kernel: modgemm_mat::KernelKind::Packed,
                threads,
                ..ModgemmConfig::default()
            };
            capped_policy::<f64>(NodeLayouts::new(l, l, l), &cfg).fuse
        };
        for threads in [0, 1, 4] {
            for depth in 1..4 {
                assert_eq!(fused_at(depth, threads), crate::fuse::MAX_FUSE, "depth {depth}");
            }
        }
    }

    #[test]
    fn parallel_config_matches_serial() {
        // 300 pads above the team crossover: the default runs a team of
        // the machine's workers, the serial side one thread.
        let n = 300;
        let (a, b, _): (Matrix<f64>, _, _) = random_problem(n, n, n, 120);
        let serial = ModgemmConfig { threads: 1, ..Default::default() };
        let par = ModgemmConfig::default();
        let mut c1: Matrix<f64> = Matrix::zeros(n, n);
        let mut c2: Matrix<f64> = Matrix::zeros(n, n);
        modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c1.view_mut(), &serial);
        modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c2.view_mut(), &par);
        // Identical schedules ⇒ bitwise identical results.
        assert_eq!(c1, c2);
    }
}
