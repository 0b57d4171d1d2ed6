//! Address-exact traced executors.
//!
//! These re-run MODGEMM and DGEFMM element access by element access,
//! mirroring the fast implementations' structure — the same 22-step
//! Winograd linearization, the same quadrant split order, the same
//! blocked-kernel loop nest and blocking factors, the same workspace
//! layout and reuse discipline — while feeding every load/store through a
//! [`TraceCtx`]. They also *compute* the product, so tests can assert the
//! traced run is bitwise identical to the fast run, and that the flop
//! counter matches the closed-form `modgemm_core::counts` model exactly.
//!
//! Flop accounting convention: one multiply and one add per inner-product
//! term (`2·m·k·n` per leaf multiply) and one flop per element of each
//! Winograd addition — identical to `modgemm_core::counts::strassen_flops`.

use modgemm_mat::blocked::{KC, MC, MR, NC, NR};
use modgemm_mat::view::{MatMut, MatRef};
use modgemm_mat::Matrix;
use modgemm_morton::MortonLayout;

use modgemm_core::exec::{ExecPolicy, NodeLayouts};
use modgemm_core::ModgemmConfig;

use crate::cache::{CacheConfig, CacheStats};
use crate::mem::{AddressSpace, TraceCtx, ELEM_SIZE};

/// Outcome of a traced run.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// L1 cache counters over the traced phase(s).
    pub stats: CacheStats,
    /// Counters of every hierarchy level, innermost first (length 1 for
    /// the single-cache entry points).
    pub levels: Vec<CacheStats>,
    /// Flops performed (see module docs for the convention).
    pub flops: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// The computed product `C = A·B`.
    pub result: Matrix<f64>,
}

impl TraceReport {
    /// Feeds this report's totals into a metrics sink
    /// ([`modgemm_core::metrics`]): cache hit/miss counts from the
    /// innermost level's counters, so simulated runs land in the same
    /// [`modgemm_core::metrics::ExecMetrics`] vocabulary the fast
    /// executors report through.
    pub fn record_into<K: modgemm_core::metrics::MetricsSink>(&self, sink: &mut K) {
        let hits = self.stats.accesses.saturating_sub(self.stats.misses);
        sink.record_cache(hits, self.stats.misses);
    }

    /// Misses summed over every hierarchy level — the deterministic
    /// minimization objective of `modgemm-tune --cachesim`: a scalar
    /// that orders candidate plans by total simulated data movement,
    /// reproducible to the last count across runs and machines.
    pub fn total_misses(&self) -> u64 {
        self.levels.iter().map(|s| s.misses).sum()
    }

    fn from_ctx(ctx: TraceCtx, result: Matrix<f64>) -> Self {
        Self {
            stats: ctx.stats(),
            levels: ctx.all_stats(),
            flops: ctx.flops,
            loads: ctx.loads,
            stores: ctx.stores,
            result,
        }
    }
}

type BinOp = fn(f64, f64) -> f64;

fn f_add(x: f64, y: f64) -> f64 {
    x + y
}
fn f_sub(x: f64, y: f64) -> f64 {
    x - y
}
/// For assign forms: `dst = a − dst` is `f(dst, a) = a − dst`.
fn f_rsub(d: f64, a: f64) -> f64 {
    a - d
}

// ---------------------------------------------------------------------------
// Traced flat (contiguous) buffers — the Morton side.
// ---------------------------------------------------------------------------

struct Flat<'a> {
    d: &'a [f64],
    base: u64,
}

struct FlatMut<'a> {
    d: &'a mut [f64],
    base: u64,
}

impl Flat<'_> {
    fn quarter(&self, i: usize) -> Flat<'_> {
        let q = self.d.len() / 4;
        Flat { d: &self.d[i * q..(i + 1) * q], base: self.base + (i * q) as u64 * ELEM_SIZE }
    }
}

impl<'a> FlatMut<'a> {
    fn reborrow(&mut self) -> FlatMut<'_> {
        FlatMut { d: self.d, base: self.base }
    }

    fn as_flat(&self) -> Flat<'_> {
        Flat { d: self.d, base: self.base }
    }

    fn split4(self) -> [FlatMut<'a>; 4] {
        let q = self.d.len() / 4;
        let base = self.base;
        let (a, rest) = self.d.split_at_mut(q);
        let (b, rest) = rest.split_at_mut(q);
        let (c, d) = rest.split_at_mut(q);
        [
            FlatMut { d: a, base },
            FlatMut { d: b, base: base + q as u64 * ELEM_SIZE },
            FlatMut { d: c, base: base + 2 * q as u64 * ELEM_SIZE },
            FlatMut { d, base: base + 3 * q as u64 * ELEM_SIZE },
        ]
    }
}

fn t_fill_zero(dst: &mut FlatMut<'_>, ctx: &mut TraceCtx) {
    for (i, x) in dst.d.iter_mut().enumerate() {
        ctx.write(dst.base + i as u64 * ELEM_SIZE);
        *x = 0.0;
    }
}

/// `dst = f(a, b)` elementwise with tracing.
fn t_zip(dst: &mut FlatMut<'_>, a: &Flat<'_>, b: &Flat<'_>, ctx: &mut TraceCtx, f: BinOp) {
    debug_assert!(dst.d.len() == a.d.len() && dst.d.len() == b.d.len());
    for i in 0..dst.d.len() {
        let o = i as u64 * ELEM_SIZE;
        ctx.read(a.base + o);
        ctx.read(b.base + o);
        ctx.write(dst.base + o);
        dst.d[i] = f(a.d[i], b.d[i]);
    }
    ctx.flops += dst.d.len() as u64;
}

/// `dst = f(dst, a)` elementwise with tracing.
fn t_zip_assign(dst: &mut FlatMut<'_>, a: &Flat<'_>, ctx: &mut TraceCtx, f: BinOp) {
    debug_assert_eq!(dst.d.len(), a.d.len());
    for i in 0..dst.d.len() {
        let o = i as u64 * ELEM_SIZE;
        ctx.read(dst.base + o);
        ctx.read(a.base + o);
        ctx.write(dst.base + o);
        dst.d[i] = f(dst.d[i], a.d[i]);
    }
    ctx.flops += dst.d.len() as u64;
}

// ---------------------------------------------------------------------------
// Traced strided (column-major) views — DGEFMM and leaf tiles.
// ---------------------------------------------------------------------------

/// A traced immutable view: a [`MatRef`] plus the byte address of its
/// element (0,0). Element (i,j) lives at `base + (i + j·ld)·8`.
#[derive(Clone, Copy)]
struct View<'a> {
    m: MatRef<'a, f64>,
    base: u64,
}

/// A traced mutable view (raw-pointer based via [`MatMut`], so
/// element-disjoint quadrants may coexist).
struct ViewMut<'a> {
    m: MatMut<'a, f64>,
    base: u64,
}

impl<'a> View<'a> {
    fn sub(&self, i: usize, j: usize, nr: usize, nc: usize) -> View<'a> {
        View {
            m: self.m.submatrix(i, j, nr, nc),
            base: self.base + (i + j * self.m.ld()) as u64 * ELEM_SIZE,
        }
    }

    #[inline]
    fn get(&self, i: usize, j: usize, ctx: &mut TraceCtx) -> f64 {
        ctx.read(self.base + (i + j * self.m.ld()) as u64 * ELEM_SIZE);
        self.m.get(i, j)
    }

    fn rows(&self) -> usize {
        self.m.rows()
    }

    fn cols(&self) -> usize {
        self.m.cols()
    }
}

impl<'a> ViewMut<'a> {
    fn as_view(&self) -> View<'_> {
        View { m: self.m.as_ref(), base: self.base }
    }

    fn reborrow(&mut self) -> ViewMut<'_> {
        ViewMut { m: self.m.reborrow(), base: self.base }
    }

    fn sub(self, i: usize, j: usize, nr: usize, nc: usize) -> ViewMut<'a> {
        let delta = i + j * self.m.ld();
        ViewMut {
            m: self.m.into_submatrix(i, j, nr, nc),
            base: self.base + delta as u64 * ELEM_SIZE,
        }
    }

    /// Element-disjoint quadrants (NW, NE, SW, SE) with correct bases.
    fn split_quad(
        self,
        rm: usize,
        cm: usize,
    ) -> (ViewMut<'a>, ViewMut<'a>, ViewMut<'a>, ViewMut<'a>) {
        let ld = self.m.ld();
        let base = self.base;
        let (nw, ne, sw, se) = self.m.split_quad(rm, cm);
        (
            ViewMut { m: nw, base },
            ViewMut { m: ne, base: base + (cm * ld) as u64 * ELEM_SIZE },
            ViewMut { m: sw, base: base + rm as u64 * ELEM_SIZE },
            ViewMut { m: se, base: base + (rm + cm * ld) as u64 * ELEM_SIZE },
        )
    }

    #[inline]
    fn get(&self, i: usize, j: usize, ctx: &mut TraceCtx) -> f64 {
        ctx.read(self.base + (i + j * self.m.ld()) as u64 * ELEM_SIZE);
        self.m.get(i, j)
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, v: f64, ctx: &mut TraceCtx) {
        ctx.write(self.base + (i + j * self.m.ld()) as u64 * ELEM_SIZE);
        self.m.set(i, j, v);
    }

    fn rows(&self) -> usize {
        self.m.rows()
    }

    fn cols(&self) -> usize {
        self.m.cols()
    }
}

/// Traced blocked kernel: mirrors `modgemm_mat::blocked::blocked_mul_add`
/// — same MC/KC/NC blocking, same MR×NR micro-tiles, same traversal
/// order. `C += A·B`.
fn t_blocked_mul_add(a: View<'_>, b: View<'_>, c: &mut ViewMut<'_>, ctx: &mut TraceCtx) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(b.rows(), k);
    debug_assert!(c.rows() == m && c.cols() == n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let mut jj = 0;
    while jj < n {
        let nc = NC.min(n - jj);
        let mut pp = 0;
        while pp < k {
            let kc = KC.min(k - pp);
            let mut ii = 0;
            while ii < m {
                let mc = MC.min(m - ii);
                let mut j = 0;
                while j < nc {
                    let nb = NR.min(nc - j);
                    let mut i = 0;
                    while i < mc {
                        let mb = MR.min(mc - i);
                        let mut acc = [[0.0f64; NR]; MR];
                        for p in 0..kc {
                            let mut av = [0.0f64; MR];
                            for (r, slot) in av.iter_mut().enumerate().take(mb) {
                                *slot = a.get(ii + i + r, pp + p, ctx);
                            }
                            #[allow(clippy::needless_range_loop)] // cidx also offsets the B trace
                            for cidx in 0..nb {
                                let bv = b.get(pp + p, jj + j + cidx, ctx);
                                for (r, &ar) in av.iter().enumerate().take(mb) {
                                    acc[r][cidx] += ar * bv;
                                }
                            }
                        }
                        ctx.flops += 2 * (mb * nb * kc) as u64;
                        for cidx in 0..nb {
                            for (r, row) in acc.iter().enumerate().take(mb) {
                                let old = c.get(ii + i + r, jj + j + cidx, ctx);
                                c.set(ii + i + r, jj + j + cidx, old + row[cidx], ctx);
                            }
                        }
                        i += mb;
                    }
                    j += nb;
                }
                ii += mc;
            }
            pp += kc;
        }
        jj += nc;
    }
}

/// The Figure 3 cache experiment: a `t × t` tile multiply with operands
/// placed per §3.4 (`A = M[1,1]`, `B = M[T+1,T+1]`, `C = M[2T+1,2T+1]` in
/// an `ld × ld` base matrix when `contiguous` is false; three dense
/// `ld = t` buffers when true). Returns the warm-cache stats of one
/// multiply (one priming pass runs first), which is what the steady-state
/// MFLOPS of the timing version reflects.
pub fn traced_tile_multiply(
    t: usize,
    ld: usize,
    contiguous: bool,
    cache_cfg: CacheConfig,
) -> CacheStats {
    assert!(contiguous || ld > 3 * t + 1, "base matrix too small for the Fig. 3 placement");
    let mut ctx = TraceCtx::new(cache_cfg);
    let mut space = AddressSpace::default_layout();

    let run = |ctx: &mut TraceCtx, a: View<'_>, b: View<'_>, c: &mut ViewMut<'_>| {
        t_blocked_mul_add(a, b, c, ctx);
    };

    if contiguous {
        let a_m: Matrix<f64> = Matrix::zeros(t, t);
        let b_m: Matrix<f64> = Matrix::zeros(t, t);
        let mut c_m: Matrix<f64> = Matrix::zeros(t, t);
        let (ab, bb, cb) = (space.alloc(t * t), space.alloc(t * t), space.alloc(t * t));
        let av = View { m: a_m.view(), base: ab };
        let bv = View { m: b_m.view(), base: bb };
        let mut cv = ViewMut { m: c_m.view_mut(), base: cb };
        run(&mut ctx, av, bv, &mut cv); // priming pass
        ctx.reset_stats();
        run(&mut ctx, av, bv, &mut cv);
    } else {
        let base_m: Matrix<f64> = Matrix::zeros(ld, ld);
        let mut out_m: Matrix<f64> = Matrix::zeros(ld, ld);
        let (bb, ob) = (space.alloc(ld * ld), space.alloc(ld * ld));
        let base = View { m: base_m.view(), base: bb };
        let av = base.sub(1, 1, t, t);
        let bv = base.sub(t + 1, t + 1, t, t);
        let out = ViewMut { m: out_m.view_mut(), base: ob };
        let mut cv = out.sub(2 * t + 1, 2 * t + 1, t, t);
        run(&mut ctx, av, bv, &mut cv);
        ctx.reset_stats();
        run(&mut ctx, av, bv, &mut cv);
    }
    ctx.stats()
}

// ---------------------------------------------------------------------------
// Traced MODGEMM (Morton Strassen-Winograd).
// ---------------------------------------------------------------------------

fn flat_as_tile<'x>(f: &'x Flat<'_>, l: &MortonLayout) -> View<'x> {
    debug_assert_eq!(l.depth, 0);
    View { m: MatRef::from_slice(f.d, l.tile_rows, l.tile_cols, l.tile_rows), base: f.base }
}

fn flat_as_tile_mut<'x>(f: &'x mut FlatMut<'_>, l: &MortonLayout) -> ViewMut<'x> {
    debug_assert_eq!(l.depth, 0);
    let base = f.base;
    ViewMut { m: MatMut::from_slice(f.d, l.tile_rows, l.tile_cols, l.tile_rows), base }
}

/// Traced `C += A·B` by Morton quadrant recursion (mirrors
/// `modgemm_core::exec::morton_mul_add`, including the Frens-Wise call
/// order).
fn t_morton_mul_add(
    a: &Flat<'_>,
    b: &Flat<'_>,
    c: &mut FlatMut<'_>,
    l: NodeLayouts,
    ctx: &mut TraceCtx,
) {
    if l.a.depth == 0 {
        let av = flat_as_tile(a, &l.a);
        let bv = flat_as_tile(b, &l.b);
        let mut cv = flat_as_tile_mut(c, &l.c);
        t_blocked_mul_add(av, bv, &mut cv, ctx);
        return;
    }
    let ch = l.child();
    let [mut c11, mut c12, mut c21, mut c22] = c.reborrow().split4();
    t_morton_mul_add(&a.quarter(0), &b.quarter(0), &mut c11, ch, ctx);
    t_morton_mul_add(&a.quarter(0), &b.quarter(1), &mut c12, ch, ctx);
    t_morton_mul_add(&a.quarter(1), &b.quarter(3), &mut c12, ch, ctx);
    t_morton_mul_add(&a.quarter(1), &b.quarter(2), &mut c11, ch, ctx);
    t_morton_mul_add(&a.quarter(3), &b.quarter(2), &mut c21, ch, ctx);
    t_morton_mul_add(&a.quarter(3), &b.quarter(3), &mut c22, ch, ctx);
    t_morton_mul_add(&a.quarter(2), &b.quarter(1), &mut c22, ch, ctx);
    t_morton_mul_add(&a.quarter(2), &b.quarter(0), &mut c21, ch, ctx);
}

fn t_morton_mul(
    a: &Flat<'_>,
    b: &Flat<'_>,
    c: &mut FlatMut<'_>,
    l: NodeLayouts,
    ctx: &mut TraceCtx,
) {
    t_fill_zero(c, ctx);
    t_morton_mul_add(a, b, c, l, ctx);
}

/// Traced Strassen node (mirrors `modgemm_core::exec::node`: the 22-step
/// schedule with the same single-arena workspace address discipline).
fn t_strassen_node(
    a: &Flat<'_>,
    b: &Flat<'_>,
    c: &mut FlatMut<'_>,
    l: NodeLayouts,
    ws_base: u64,
    ctx: &mut TraceCtx,
    policy: ExecPolicy,
) {
    if !l.uses_strassen(policy) {
        t_morton_mul(a, b, c, l, ctx);
        return;
    }
    let ch = l.child();
    let (qa, qb, qc) = (l.a.quadrant_len(), l.b.quadrant_len(), l.c.quadrant_len());

    let a11 = a.quarter(0);
    let a12 = a.quarter(1);
    let a21 = a.quarter(2);
    let a22 = a.quarter(3);
    let b11 = b.quarter(0);
    let b12 = b.quarter(1);
    let b21 = b.quarter(2);
    let b22 = b.quarter(3);
    let [mut c11, mut c12, mut c21, mut c22] = c.reborrow().split4();

    // Workspace temporaries: storage is local, addresses mirror the fast
    // executor's single-arena layout [TS | TT | TP | TQ | child...].
    let ts_base = ws_base;
    let tt_base = ts_base + qa as u64 * ELEM_SIZE;
    let tp_base = tt_base + qb as u64 * ELEM_SIZE;
    let tq_base = tp_base + qc as u64 * ELEM_SIZE;
    let child_ws = tq_base + qc as u64 * ELEM_SIZE;
    let mut ts_v = vec![0.0f64; qa];
    let mut tt_v = vec![0.0f64; qb];
    let mut tp_v = vec![0.0f64; qc];
    let mut tq_v = vec![0.0f64; qc];
    let mut ts = FlatMut { d: &mut ts_v, base: ts_base };
    let mut tt = FlatMut { d: &mut tt_v, base: tt_base };
    let mut tp = FlatMut { d: &mut tp_v, base: tp_base };
    let mut tq = FlatMut { d: &mut tq_v, base: tq_base };

    // The 22-step schedule (see modgemm_core::schedule).
    t_zip(&mut ts, &a11, &a21, ctx, f_sub); // S3
    t_zip(&mut tt, &b22, &b12, ctx, f_sub); // T3
    t_strassen_node(&ts.as_flat(), &tt.as_flat(), &mut tp, ch, child_ws, ctx, policy); // P5
    t_zip(&mut ts, &a21, &a22, ctx, f_add); // S1
    t_zip(&mut tt, &b12, &b11, ctx, f_sub); // T1
    t_strassen_node(&ts.as_flat(), &tt.as_flat(), &mut c22, ch, child_ws, ctx, policy); // P3
    t_zip_assign(&mut ts, &a11, ctx, f_sub); // S2 = S1 − A11
    t_zip_assign(&mut tt, &b22, ctx, f_rsub); // T2 = B22 − T1
    t_strassen_node(&ts.as_flat(), &tt.as_flat(), &mut c11, ch, child_ws, ctx, policy); // P4
    t_zip_assign(&mut ts, &a12, ctx, f_rsub); // S4 = A12 − S2
    t_strassen_node(&ts.as_flat(), &b22, &mut c12, ch, child_ws, ctx, policy); // P6
    t_zip_assign(&mut tt, &b21, ctx, f_rsub); // T4 = B21 − T2
    t_strassen_node(&a22, &tt.as_flat(), &mut c21, ch, child_ws, ctx, policy); // P7
    t_strassen_node(&a11, &b11, &mut tq, ch, child_ws, ctx, policy); // P1
    t_zip_assign(&mut c11, &tq.as_flat(), ctx, f_add); // U2
    t_zip_assign(&mut c12, &c22.as_flat(), ctx, f_add); // P6 + P3
    t_zip_assign(&mut c12, &c11.as_flat(), ctx, f_add); // U7 → C12 done
    t_zip_assign(&mut c11, &tp.as_flat(), ctx, f_add); // U3
    t_zip_assign(&mut c21, &c11.as_flat(), ctx, f_add); // U4 → C21 done
    t_zip_assign(&mut c22, &c11.as_flat(), ctx, f_add); // U5 → C22 done
    t_strassen_node(&a12, &b21, &mut tp, ch, child_ws, ctx, policy); // P2
    t_zip(&mut c11, &tq.as_flat(), &tp.as_flat(), ctx, f_add); // U1 → C11 done
}

/// Traced column-major → Morton pack (mirrors `morton::convert::to_morton`
/// for `NoTrans`, including the zero-fill of padding).
fn t_to_morton(src: View<'_>, layout: &MortonLayout, dst: &mut FlatMut<'_>, ctx: &mut TraceCtx) {
    let (lr, lc) = (src.rows(), src.cols());
    let (tm, tn) = (layout.tile_rows, layout.tile_cols);
    let tile_len = layout.tile_len();
    for z in 0..(dst.d.len() / tile_len) {
        let (tr, tc) = modgemm_morton::layout::deinterleave2(z, layout.depth);
        let row0 = tr * tm;
        let col0 = tc * tn;
        let live_r = lr.saturating_sub(row0).min(tm);
        let live_c = lc.saturating_sub(col0).min(tn);
        let tile0 = z * tile_len;
        for jj in 0..tn {
            for ii in 0..tm {
                let idx = tile0 + ii + jj * tm;
                let v = if jj < live_c && ii < live_r {
                    src.get(row0 + ii, col0 + jj, ctx)
                } else {
                    0.0
                };
                ctx.write(dst.base + idx as u64 * ELEM_SIZE);
                dst.d[idx] = v;
            }
        }
    }
}

/// Traced Morton → column-major unpack (live region only).
fn t_from_morton(src: &Flat<'_>, layout: &MortonLayout, dst: &mut ViewMut<'_>, ctx: &mut TraceCtx) {
    let (lr, lc) = (dst.rows(), dst.cols());
    let (tm, tn) = (layout.tile_rows, layout.tile_cols);
    let tile_len = layout.tile_len();
    for z in 0..(src.d.len() / tile_len) {
        let (tr, tc) = modgemm_morton::layout::deinterleave2(z, layout.depth);
        let row0 = tr * tm;
        let col0 = tc * tn;
        let live_r = lr.saturating_sub(row0).min(tm);
        let live_c = lc.saturating_sub(col0).min(tn);
        let tile0 = z * tile_len;
        for jj in 0..live_c {
            for ii in 0..live_r {
                let idx = tile0 + ii + jj * tm;
                ctx.read(src.base + idx as u64 * ELEM_SIZE);
                let v = src.d[idx];
                dst.set(row0 + ii, col0 + jj, v, ctx);
            }
        }
    }
}

/// Runs a traced MODGEMM `C = A·B` (α = 1, β = 0, `NoTrans`) through a
/// cache of geometry `cache_cfg`. When `include_conversion` is set, the
/// Morton pack/unpack accesses are traced too (the paper's Figure 9
/// traces whole executions); otherwise only the compute phase is traced
/// (the Figure 8 no-conversion regime).
///
/// # Panics
/// If `cfg.plan` fails (operands too rectangular for a traced run).
pub fn traced_modgemm(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    cfg: &ModgemmConfig,
    cache_cfg: CacheConfig,
    include_conversion: bool,
) -> TraceReport {
    traced_modgemm_with(a, b, cfg, TraceCtx::new(cache_cfg), include_conversion)
}

/// [`traced_modgemm`] through a multi-level cache hierarchy (e.g.
/// [`crate::Hierarchy::ultra60`], the §4 Sun Ultra 60 extension study).
pub fn traced_modgemm_hier(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    cfg: &ModgemmConfig,
    hier: crate::Hierarchy,
    include_conversion: bool,
) -> TraceReport {
    traced_modgemm_with(a, b, cfg, TraceCtx::new_hierarchy(hier), include_conversion)
}

fn traced_modgemm_with(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    cfg: &ModgemmConfig,
    mut ctx: TraceCtx,
    include_conversion: bool,
) -> TraceReport {
    let (m, k) = a.dims();
    let (_, n) = b.dims();
    assert_eq!(b.rows(), k);
    let plan = cfg.plan(m, k, n).expect("traced modgemm requires a jointly feasible tiling");
    let layouts = modgemm_core::layouts_of(&plan);
    assert_eq!(
        cfg.variant,
        modgemm_core::schedule::Variant::Winograd,
        "the traced executor implements the paper's Winograd variant only"
    );
    let policy = ExecPolicy { strassen_min: cfg.strassen_min, ..Default::default() };

    // Address map mirrors the fast path's allocation order: the two
    // column-major inputs and the output exist first (caller-owned), then
    // the Morton buffers, then the workspace arena.
    let mut space = AddressSpace::default_layout();
    let a_src_base = space.alloc(m * k);
    let b_src_base = space.alloc(k * n);
    let c_dst_base = space.alloc(m * n);
    let a_buf_base = space.alloc(layouts.a.len());
    let b_buf_base = space.alloc(layouts.b.len());
    let c_buf_base = space.alloc(layouts.c.len());
    let ws_base = space.alloc(modgemm_core::workspace_len(layouts, policy));

    let mut a_buf = vec![0.0f64; layouts.a.len()];
    let mut b_buf = vec![0.0f64; layouts.b.len()];
    let mut c_buf = vec![0.0f64; layouts.c.len()];

    if include_conversion {
        let a_view = View { m: a.view(), base: a_src_base };
        let b_view = View { m: b.view(), base: b_src_base };
        t_to_morton(a_view, &layouts.a, &mut FlatMut { d: &mut a_buf, base: a_buf_base }, &mut ctx);
        t_to_morton(b_view, &layouts.b, &mut FlatMut { d: &mut b_buf, base: b_buf_base }, &mut ctx);
    } else {
        modgemm_morton::to_morton(a.view(), modgemm_mat::Op::NoTrans, &layouts.a, &mut a_buf);
        modgemm_morton::to_morton(b.view(), modgemm_mat::Op::NoTrans, &layouts.b, &mut b_buf);
    }

    t_strassen_node(
        &Flat { d: &a_buf, base: a_buf_base },
        &Flat { d: &b_buf, base: b_buf_base },
        &mut FlatMut { d: &mut c_buf, base: c_buf_base },
        layouts,
        ws_base,
        &mut ctx,
        policy,
    );

    let mut result = Matrix::zeros(m, n);
    if include_conversion {
        let mut c_view = ViewMut { m: result.view_mut(), base: c_dst_base };
        t_from_morton(&Flat { d: &c_buf, base: c_buf_base }, &layouts.c, &mut c_view, &mut ctx);
    } else {
        modgemm_morton::from_morton(&c_buf, &layouts.c, result.view_mut());
    }

    TraceReport::from_ctx(ctx, result)
}

// ---------------------------------------------------------------------------
// Traced DGEFMM (column-major dynamic peeling).
// ---------------------------------------------------------------------------

/// Stack allocator for per-level temporaries, mirroring the fast DGEFMM's
/// allocate-use-free-per-level pattern (addresses are reused across
/// sibling recursion levels exactly as a malloc arena would reuse freed
/// chunks of identical size).
struct TempStack {
    next: u64,
}

impl TempStack {
    fn mark(&self) -> u64 {
        self.next
    }

    fn release(&mut self, mark: u64) {
        self.next = mark;
    }

    fn alloc(&mut self, elems: usize) -> u64 {
        let at = self.next.next_multiple_of(64);
        self.next = at + elems as u64 * ELEM_SIZE;
        at
    }
}

/// An owned column-major temporary with an assigned trace address.
struct OwnedTemp {
    d: Vec<f64>,
    rows: usize,
    cols: usize,
    base: u64,
}

impl OwnedTemp {
    fn new(rows: usize, cols: usize, base: u64) -> Self {
        Self { d: vec![0.0; rows * cols], rows, cols, base }
    }

    fn view(&self) -> View<'_> {
        View {
            m: MatRef::from_slice(&self.d, self.rows, self.cols, self.rows.max(1)),
            base: self.base,
        }
    }

    fn view_mut(&mut self) -> ViewMut<'_> {
        let base = self.base;
        ViewMut { m: MatMut::from_slice(&mut self.d, self.rows, self.cols, self.rows.max(1)), base }
    }
}

fn t_zip_view(dst: &mut ViewMut<'_>, a: View<'_>, b: View<'_>, ctx: &mut TraceCtx, f: BinOp) {
    for j in 0..dst.cols() {
        for i in 0..dst.rows() {
            let v = f(a.get(i, j, ctx), b.get(i, j, ctx));
            dst.set(i, j, v, ctx);
        }
    }
    ctx.flops += (dst.rows() * dst.cols()) as u64;
}

fn t_zip_assign_view(dst: &mut ViewMut<'_>, a: View<'_>, ctx: &mut TraceCtx, f: BinOp) {
    for j in 0..dst.cols() {
        for i in 0..dst.rows() {
            let v = f(dst.get(i, j, ctx), a.get(i, j, ctx));
            dst.set(i, j, v, ctx);
        }
    }
    ctx.flops += (dst.rows() * dst.cols()) as u64;
}

fn t_dgefmm_core(
    a: View<'_>,
    b: View<'_>,
    c: &mut ViewMut<'_>,
    trunc: usize,
    temps: &mut TempStack,
    ctx: &mut TraceCtx,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m.min(k).min(n) <= trunc.max(1) {
        // Leaf overwrite: zero then accumulate, mirroring blocked_mul.
        for j in 0..n {
            for i in 0..m {
                c.set(i, j, 0.0, ctx);
            }
        }
        t_blocked_mul_add(a, b, c, ctx);
        return;
    }
    let (me, ke, ne) = (m & !1, k & !1, n & !1);
    {
        let a_core = a.sub(0, 0, me, ke);
        let b_core = b.sub(0, 0, ke, ne);
        let mut c_core = c.reborrow().sub(0, 0, me, ne);
        t_winograd_views(a_core, b_core, &mut c_core, trunc, temps, ctx);
    }

    if ke < k {
        // Rank-1 fix-up over the even core.
        for j in 0..ne {
            let bj = b.get(k - 1, j, ctx);
            for i in 0..me {
                let ai = a.get(i, k - 1, ctx);
                let old = c.get(i, j, ctx);
                c.set(i, j, old + ai * bj, ctx);
                ctx.flops += 2;
            }
        }
    }
    if ne < n {
        // Last column: A[0..me, :] · b[:, n-1].
        for i in 0..me {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.get(i, p, ctx) * b.get(p, n - 1, ctx);
                ctx.flops += 2;
            }
            c.set(i, n - 1, acc, ctx);
        }
    }
    if me < m {
        // Last row: a[m-1, :] · B.
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.get(m - 1, p, ctx) * b.get(p, j, ctx);
                ctx.flops += 2;
            }
            c.set(m - 1, j, acc, ctx);
        }
    }
}

fn t_winograd_views(
    a: View<'_>,
    b: View<'_>,
    c: &mut ViewMut<'_>,
    trunc: usize,
    temps: &mut TempStack,
    ctx: &mut TraceCtx,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (m2, k2, n2) = (m / 2, k / 2, n / 2);
    let a11 = a.sub(0, 0, m2, k2);
    let a12 = a.sub(0, k2, m2, k2);
    let a21 = a.sub(m2, 0, m2, k2);
    let a22 = a.sub(m2, k2, m2, k2);
    let b11 = b.sub(0, 0, k2, n2);
    let b12 = b.sub(0, n2, k2, n2);
    let b21 = b.sub(k2, 0, k2, n2);
    let b22 = b.sub(k2, n2, k2, n2);
    let (mut c11, mut c12, mut c21, mut c22) = c.reborrow().split_quad(m2, n2);

    let mark = temps.mark();
    let mut ts = OwnedTemp::new(m2, k2, temps.alloc(m2 * k2));
    let mut tt = OwnedTemp::new(k2, n2, temps.alloc(k2 * n2));
    let mut tp = OwnedTemp::new(m2, n2, temps.alloc(m2 * n2));
    let mut tq = OwnedTemp::new(m2, n2, temps.alloc(m2 * n2));

    t_zip_view(&mut ts.view_mut(), a11, a21, ctx, f_sub); // S3
    t_zip_view(&mut tt.view_mut(), b22, b12, ctx, f_sub); // T3
    t_dgefmm_core(ts.view(), tt.view(), &mut tp.view_mut(), trunc, temps, ctx); // P5
    t_zip_view(&mut ts.view_mut(), a21, a22, ctx, f_add); // S1
    t_zip_view(&mut tt.view_mut(), b12, b11, ctx, f_sub); // T1
    t_dgefmm_core(ts.view(), tt.view(), &mut c22, trunc, temps, ctx); // P3
    t_zip_assign_view(&mut ts.view_mut(), a11, ctx, f_sub); // S2
    t_zip_assign_view(&mut tt.view_mut(), b22, ctx, f_rsub); // T2
    t_dgefmm_core(ts.view(), tt.view(), &mut c11, trunc, temps, ctx); // P4
    t_zip_assign_view(&mut ts.view_mut(), a12, ctx, f_rsub); // S4
    t_dgefmm_core(ts.view(), b22, &mut c12, trunc, temps, ctx); // P6
    t_zip_assign_view(&mut tt.view_mut(), b21, ctx, f_rsub); // T4
    t_dgefmm_core(a22, tt.view(), &mut c21, trunc, temps, ctx); // P7
    t_dgefmm_core(a11, b11, &mut tq.view_mut(), trunc, temps, ctx); // P1
    t_zip_assign_view(&mut c11, tq.view(), ctx, f_add); // U2
    t_zip_assign_view(&mut c12, c22.as_view(), ctx, f_add); // P6 + P3
    t_zip_assign_view(&mut c12, c11.as_view(), ctx, f_add); // U7 → C12 done
    t_zip_assign_view(&mut c11, tp.view(), ctx, f_add); // U3
    t_zip_assign_view(&mut c21, c11.as_view(), ctx, f_add); // U4 → C21 done
    t_zip_assign_view(&mut c22, c11.as_view(), ctx, f_add); // U5 → C22 done
    t_dgefmm_core(a12, b21, &mut tp.view_mut(), trunc, temps, ctx); // P2
    t_zip_view(&mut c11, tq.view(), tp.view(), ctx, f_add); // U1 → C11 done

    temps.release(mark);
}

/// Runs a traced DGEFMM `C = A·B` through a cache of geometry
/// `cache_cfg`. DGEFMM has no conversion phase; the whole run is traced.
pub fn traced_dgefmm(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    trunc: usize,
    cache_cfg: CacheConfig,
) -> TraceReport {
    traced_dgefmm_with(a, b, trunc, TraceCtx::new(cache_cfg))
}

/// [`traced_dgefmm`] through a multi-level cache hierarchy.
pub fn traced_dgefmm_hier(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    trunc: usize,
    hier: crate::Hierarchy,
) -> TraceReport {
    traced_dgefmm_with(a, b, trunc, TraceCtx::new_hierarchy(hier))
}

fn traced_dgefmm_with(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    trunc: usize,
    mut ctx: TraceCtx,
) -> TraceReport {
    let (m, k) = a.dims();
    let (_, n) = b.dims();
    assert_eq!(b.rows(), k);

    let mut space = AddressSpace::default_layout();
    let a_base = space.alloc(m * k);
    let b_base = space.alloc(k * n);
    let c_base = space.alloc(m * n);
    let temps_base = space.alloc(0);

    let mut temps = TempStack { next: temps_base };

    let mut result = Matrix::zeros(m, n);
    {
        let av = View { m: a.view(), base: a_base };
        let bv = View { m: b.view(), base: b_base };
        let mut cv = ViewMut { m: result.view_mut(), base: c_base };
        t_dgefmm_core(av, bv, &mut cv, trunc, &mut temps, &mut ctx);
    }

    TraceReport::from_ctx(ctx, result)
}

/// Runs a traced conventional blocked multiply `C = A·B` on column-major
/// operands — the `O(n³)` reference point for the Figure 9 comparison
/// (the paper's premise is that Strassen's recursion *worsens* locality
/// relative to this).
pub fn traced_conventional(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    cache_cfg: CacheConfig,
) -> TraceReport {
    let (m, k) = a.dims();
    let (_, n) = b.dims();
    assert_eq!(b.rows(), k);

    let mut space = AddressSpace::default_layout();
    let a_base = space.alloc(m * k);
    let b_base = space.alloc(k * n);
    let c_base = space.alloc(m * n);

    let mut ctx = TraceCtx::new(cache_cfg);
    let mut result = Matrix::zeros(m, n);
    {
        let av = View { m: a.view(), base: a_base };
        let bv = View { m: b.view(), base: b_base };
        let mut cv = ViewMut { m: result.view_mut(), base: c_base };
        for j in 0..n {
            for i in 0..m {
                cv.set(i, j, 0.0, &mut ctx);
            }
        }
        t_blocked_mul_add(av, bv, &mut cv, &mut ctx);
    }
    TraceReport::from_ctx(ctx, result)
}

// ---------------------------------------------------------------------------
// Traced DGEMMW (column-major dynamic overlap).
// ---------------------------------------------------------------------------

fn t_dgemmw_core(
    a: View<'_>,
    b: View<'_>,
    c: &mut ViewMut<'_>,
    trunc: usize,
    temps: &mut TempStack,
    ctx: &mut TraceCtx,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m.min(k).min(n) <= trunc.max(1) {
        for j in 0..n {
            for i in 0..m {
                c.set(i, j, 0.0, ctx);
            }
        }
        t_blocked_mul_add(a, b, c, ctx);
        return;
    }
    let m1 = m.div_ceil(2);
    let k1 = k.div_ceil(2);
    let n1 = n.div_ceil(2);

    let a11 = a.sub(0, 0, m1, k1);
    let a12 = a.sub(0, k - k1, m1, k1);
    let a21 = a.sub(m - m1, 0, m1, k1);
    let a22 = a.sub(m - m1, k - k1, m1, k1);
    let b11 = b.sub(0, 0, k1, n1);
    let b12 = b.sub(0, n - n1, k1, n1);
    let b21 = b.sub(k - k1, 0, k1, n1);
    let b22 = b.sub(k - k1, n - n1, k1, n1);

    let mark = temps.mark();
    let mut ts = OwnedTemp::new(m1, k1, temps.alloc(m1 * k1));
    let mut tt = OwnedTemp::new(k1, n1, temps.alloc(k1 * n1));
    let mut r11 = OwnedTemp::new(m1, n1, temps.alloc(m1 * n1));
    let mut r12 = OwnedTemp::new(m1, n1, temps.alloc(m1 * n1));
    let mut r21 = OwnedTemp::new(m1, n1, temps.alloc(m1 * n1));
    let mut r22 = OwnedTemp::new(m1, n1, temps.alloc(m1 * n1));
    let mut tp = OwnedTemp::new(m1, n1, temps.alloc(m1 * n1));
    let mut tq = OwnedTemp::new(m1, n1, temps.alloc(m1 * n1));

    t_zip_view(&mut ts.view_mut(), a11, a21, ctx, f_sub); // S3
    t_zip_view(&mut tt.view_mut(), b22, b12, ctx, f_sub); // T3
    t_dgemmw_core(ts.view(), tt.view(), &mut tp.view_mut(), trunc, temps, ctx); // P5
    t_zip_view(&mut ts.view_mut(), a21, a22, ctx, f_add); // S1
    t_zip_view(&mut tt.view_mut(), b12, b11, ctx, f_sub); // T1
    t_dgemmw_core(ts.view(), tt.view(), &mut r22.view_mut(), trunc, temps, ctx); // P3
    t_zip_assign_view(&mut ts.view_mut(), a11, ctx, f_sub); // S2
    t_zip_assign_view(&mut tt.view_mut(), b22, ctx, f_rsub); // T2
    t_dgemmw_core(ts.view(), tt.view(), &mut r11.view_mut(), trunc, temps, ctx); // P4
    t_zip_assign_view(&mut ts.view_mut(), a12, ctx, f_rsub); // S4
    t_dgemmw_core(ts.view(), b22, &mut r12.view_mut(), trunc, temps, ctx); // P6
    t_zip_assign_view(&mut tt.view_mut(), b21, ctx, f_rsub); // T4
    t_dgemmw_core(a22, tt.view(), &mut r21.view_mut(), trunc, temps, ctx); // P7
    t_dgemmw_core(a11, b11, &mut tq.view_mut(), trunc, temps, ctx); // P1
    t_zip_assign_view(&mut r11.view_mut(), tq.view(), ctx, f_add); // U2
    t_zip_assign_view(&mut r12.view_mut(), r22.view(), ctx, f_add); // P6 + P3
    t_zip_assign_view(&mut r12.view_mut(), r11.view(), ctx, f_add); // U7
    t_zip_assign_view(&mut r11.view_mut(), tp.view(), ctx, f_add); // U3
    t_zip_assign_view(&mut r21.view_mut(), r11.view(), ctx, f_add); // U4
    t_zip_assign_view(&mut r22.view_mut(), r11.view(), ctx, f_add); // U5
    t_dgemmw_core(a12, b21, &mut tp.view_mut(), trunc, temps, ctx); // P2
    t_zip_view(&mut r11.view_mut(), tq.view(), tp.view(), ctx, f_add); // U1

    // Copy quadrant results out (overlaps rewritten with equal values).
    let copy_out =
        |r: &OwnedTemp, i0: usize, j0: usize, ctx: &mut TraceCtx, c: &mut ViewMut<'_>| {
            for j in 0..n1 {
                for i in 0..m1 {
                    let v = r.view().get(i, j, ctx);
                    c.set(i0 + i, j0 + j, v, ctx);
                }
            }
        };
    copy_out(&r11, 0, 0, ctx, c);
    copy_out(&r12, 0, n - n1, ctx, c);
    copy_out(&r21, m - m1, 0, ctx, c);
    copy_out(&r22, m - m1, n - n1, ctx, c);

    // Odd k: remove the double-counted rank-1 term.
    if k % 2 == 1 {
        let mid = k1 - 1;
        for j in 0..n {
            let bj = b.get(mid, j, ctx);
            for i in 0..m {
                let ai = a.get(i, mid, ctx);
                let old = c.get(i, j, ctx);
                c.set(i, j, old - ai * bj, ctx);
                ctx.flops += 2;
            }
        }
    }

    temps.release(mark);
}

/// Runs a traced DGEMMW `C = A·B` through a cache of geometry
/// `cache_cfg` (extension beyond the paper's Figure 9, which traced only
/// MODGEMM and DGEFMM).
pub fn traced_dgemmw(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    trunc: usize,
    cache_cfg: CacheConfig,
) -> TraceReport {
    let (m, k) = a.dims();
    let (_, n) = b.dims();
    assert_eq!(b.rows(), k);

    let mut space = AddressSpace::default_layout();
    let a_base = space.alloc(m * k);
    let b_base = space.alloc(k * n);
    let c_base = space.alloc(m * n);
    let temps_base = space.alloc(0);

    let mut ctx = TraceCtx::new(cache_cfg);
    let mut temps = TempStack { next: temps_base };

    let mut result = Matrix::zeros(m, n);
    {
        let av = View { m: a.view(), base: a_base };
        let bv = View { m: b.view(), base: b_base };
        let mut cv = ViewMut { m: result.view_mut(), base: c_base };
        t_dgemmw_core(av, bv, &mut cv, trunc, &mut temps, &mut ctx);
    }

    TraceReport::from_ctx(ctx, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_core::counts::strassen_flops;
    use modgemm_core::Truncation;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::Op;
    use modgemm_morton::tiling::TileRange;

    fn small_cfg() -> ModgemmConfig {
        ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            ..ModgemmConfig::paper()
        }
    }

    #[test]
    fn traced_modgemm_bitwise_matches_fast_path() {
        let cfg = small_cfg();
        for (n, seed) in [(24usize, 1u64), (33, 2), (48, 3)] {
            let a: Matrix<f64> = random_matrix(n, n, seed);
            let b: Matrix<f64> = random_matrix(n, n, seed + 10);
            let rep = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, true);

            let mut fast = Matrix::zeros(n, n);
            modgemm_core::modgemm(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                fast.view_mut(),
                &cfg,
            );
            assert_eq!(rep.result, fast, "n = {n}: traced and fast paths diverge");
        }
    }

    #[test]
    fn traced_modgemm_flops_match_closed_form() {
        let cfg = small_cfg();
        for n in [16usize, 24, 40] {
            let a: Matrix<f64> = random_matrix(n, n, 5);
            let b: Matrix<f64> = random_matrix(n, n, 6);
            let rep = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, false);
            let plan = cfg.plan(n, n, n).unwrap();
            let layouts = modgemm_core::layouts_of(&plan);
            let expect = strassen_flops(layouts, ExecPolicy::default());
            assert_eq!(rep.flops, expect, "n = {n}");
        }
    }

    #[test]
    fn traced_dgemmw_matches_fast_path_bitwise() {
        for (m, k, n, trunc, seed) in
            [(16usize, 16usize, 16usize, 4usize, 1u64), (25, 25, 25, 4, 2), (33, 29, 31, 8, 3)]
        {
            let a: Matrix<f64> = random_matrix(m, k, seed);
            let b: Matrix<f64> = random_matrix(k, n, seed + 30);
            let rep = traced_dgemmw(&a, &b, trunc, CacheConfig::PAPER_FIG9);
            let mut fast = Matrix::zeros(m, n);
            modgemm_baselines::dgemmw::dgemmw_core(a.view(), b.view(), fast.view_mut(), trunc);
            assert_eq!(rep.result, fast, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn traced_dgefmm_matches_fast_path_bitwise() {
        for (m, k, n, trunc, seed) in
            [(16usize, 16usize, 16usize, 4usize, 1u64), (25, 25, 25, 4, 2), (33, 29, 31, 8, 3)]
        {
            let a: Matrix<f64> = random_matrix(m, k, seed);
            let b: Matrix<f64> = random_matrix(k, n, seed + 20);
            let rep = traced_dgefmm(&a, &b, trunc, CacheConfig::PAPER_FIG9);
            let mut fast = Matrix::zeros(m, n);
            modgemm_baselines::dgefmm::dgefmm_core(a.view(), b.view(), fast.view_mut(), trunc);
            assert_eq!(rep.result, fast, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn traced_results_are_correct_products() {
        let a: Matrix<f64> = random_matrix(20, 20, 30);
        let b: Matrix<f64> = random_matrix(20, 20, 31);
        let expect = naive_product(&a, &b);
        let cfg = small_cfg();
        let r1 = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, true);
        modgemm_mat::norms::assert_matrix_eq(r1.result.view(), expect.view(), 20);
        let r2 = traced_dgefmm(&a, &b, 4, CacheConfig::PAPER_FIG9);
        modgemm_mat::norms::assert_matrix_eq(r2.result.view(), expect.view(), 20);
    }

    #[test]
    fn conversion_tracing_adds_accesses() {
        let a: Matrix<f64> = random_matrix(32, 32, 40);
        let b: Matrix<f64> = random_matrix(32, 32, 41);
        let cfg = small_cfg();
        let with = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, true);
        let without = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, false);
        assert!(with.stats.accesses > without.stats.accesses);
        assert_eq!(with.flops, without.flops, "conversion performs no flops");
        assert_eq!(with.result, without.result);
    }

    #[test]
    fn bigger_cache_never_misses_more() {
        let a: Matrix<f64> = random_matrix(48, 48, 50);
        let b: Matrix<f64> = random_matrix(48, 48, 51);
        let cfg = small_cfg();
        let small = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, true);
        let big = traced_modgemm(
            &a,
            &b,
            &cfg,
            CacheConfig { size: 1024 * 1024, block: 32, assoc: 1 },
            true,
        );
        assert_eq!(small.stats.accesses, big.stats.accesses);
        assert!(big.stats.misses <= small.stats.misses);
    }

    #[test]
    fn hierarchy_run_filters_accesses_and_matches_results() {
        let a: Matrix<f64> = random_matrix(48, 48, 70);
        let b: Matrix<f64> = random_matrix(48, 48, 71);
        let cfg = small_cfg();
        let rep = traced_modgemm_hier(&a, &b, &cfg, crate::Hierarchy::ultra60(), true);
        assert_eq!(rep.levels.len(), 2);
        // L2 sees exactly the L1 misses.
        assert_eq!(rep.levels[1].accesses, rep.levels[0].misses);
        assert!(rep.levels[1].misses <= rep.levels[1].accesses);
        // Same computation as the single-level run.
        let flat = traced_modgemm(
            &a,
            &b,
            &cfg,
            CacheConfig { size: 16 * 1024, block: 32, assoc: 1 },
            true,
        );
        assert_eq!(rep.result, flat.result);
        assert_eq!(rep.flops, flat.flops);

        let repf = traced_dgefmm_hier(&a, &b, 16, crate::Hierarchy::ultra60());
        assert_eq!(repf.levels.len(), 2);
        assert_eq!(repf.levels[1].accesses, repf.levels[0].misses);
    }

    #[test]
    fn tile_multiply_contiguous_beats_power_of_two_ld() {
        // The Figure 3 architectural claim, in miniature: on the paper's
        // direct-mapped caches, a contiguous tile multiply misses less
        // than the same multiply on ld = 256 windows.
        for t in [24usize, 28, 32] {
            let contig = traced_tile_multiply(t, 0, true, CacheConfig::PAPER_FIG9);
            let strided = traced_tile_multiply(t, 256, false, CacheConfig::PAPER_FIG9);
            assert!(
                contig.miss_ratio() < strided.miss_ratio(),
                "T = {t}: contig {:.4} vs ld=256 {:.4}",
                contig.miss_ratio(),
                strided.miss_ratio()
            );
        }
    }

    #[test]
    fn traced_conventional_matches_fast_blocked_kernel() {
        let (m, k, n) = (19, 23, 17);
        let a: Matrix<f64> = random_matrix(m, k, 80);
        let b: Matrix<f64> = random_matrix(k, n, 81);
        let rep = traced_conventional(&a, &b, CacheConfig::PAPER_FIG9);
        let mut fast = Matrix::zeros(m, n);
        modgemm_mat::blocked::blocked_mul(a.view(), b.view(), fast.view_mut());
        assert_eq!(rep.result, fast);
        assert_eq!(rep.flops, 2 * (m * k * n) as u64);
    }

    #[test]
    fn strassen_trades_flops_for_locality_vs_conventional() {
        // The paper's core tension, measurable: at a recursion-friendly
        // size, traced MODGEMM performs fewer flops than the traced
        // conventional multiply but issues more memory references per
        // flop (the additions and temporaries).
        let n = 64;
        let a: Matrix<f64> = random_matrix(n, n, 90);
        let b: Matrix<f64> = random_matrix(n, n, 91);
        let cfg = small_cfg();
        let rs = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, false);
        let rc = traced_conventional(&a, &b, CacheConfig::PAPER_FIG9);
        assert!(rs.flops < rc.flops, "Strassen must save arithmetic: {} vs {}", rs.flops, rc.flops);
        let refs_per_flop_s = rs.stats.accesses as f64 / rs.flops as f64;
        let refs_per_flop_c = rc.stats.accesses as f64 / rc.flops as f64;
        assert!(
            refs_per_flop_s > refs_per_flop_c,
            "Strassen must touch more memory per flop: {refs_per_flop_s:.3} vs {refs_per_flop_c:.3}"
        );
    }

    #[test]
    fn load_store_totals_equal_accesses() {
        let a: Matrix<f64> = random_matrix(24, 24, 60);
        let b: Matrix<f64> = random_matrix(24, 24, 61);
        let rep = traced_modgemm(&a, &b, &small_cfg(), CacheConfig::PAPER_FIG9, true);
        assert_eq!(rep.loads + rep.stores, rep.stats.accesses);
    }
}
