//! Whole-batch scheduling: many same-shape GEMMs as **one** task DAG.
//!
//! The per-item executor ([`crate::plan::GemmPlan`]) already overlaps
//! nothing across calls: each `try_execute` converts its operands to
//! Morton order, runs the compute DAG to a full quiesce, and scatters the
//! result back — so a batch executed as a loop serializes conversion and
//! compute at every item boundary, exactly the §3.5-style bandwidth gap
//! the SC'98 paper's Figure 7 measures for the single-GEMM case.
//!
//! [`BatchPlan`] instead compiles the **entire batch** into a single
//! dependency-counted task graph: every item contributes
//! an independent subgraph
//!
//! ```text
//! ConvertA chunks ─┐
//!                  ├─► item compute (one task) ─► Unpack chunks ─► done gate
//! ConvertB chunks ─┘
//! ```
//!
//! and the subgraphs share nothing except the *window slots* they cycle
//! through, so item `i+1`'s conversion chunks fill worker deques while
//! item `i` is still multiplying — conversion/compute overlap falls out
//! of ordinary work stealing instead of a bespoke pipeline. Parallelism
//! is across items: each item's compute runs the serial interpreter in
//! its own arena slot. (A single GEMM parallelizes inside its one
//! interpreter instead, as a team — see [`crate::plan`].)
//!
//! Memory is admitted by an in-flight **window** `w`, not by the batch
//! size: the arenas hold `w` slots of `(A, B, C, arena)` (closed form in
//! [`crate::counts::batch_slot_elems`]) and item `i`'s first task depends
//! on the *done gate* of item `i − w` (its slot's previous occupant), so
//! a [`crate::config::MemoryBudget`] caps `w` toward 1 — concurrency
//! degrades before recursion depth does. `ModgemmConfig::batch_window = 0`
//! auto-sizes the window from the resolved worker count.

use core::mem::size_of;

use modgemm_mat::view::required_len;
use modgemm_mat::{MatMut, MatRef, Op, Scalar};

use crate::config::{ModgemmConfig, NonFinitePolicy, VerifyMode};
use crate::error::{try_grow, GemmError, Operand};
use crate::exec::{ExecPolicy, NodeLayouts};
use crate::gemm::GemmContext;
use crate::metrics::{MetricsSink, NoopSink};
use crate::plan::{BatchChunk, DagBuilder, GemmPlan, LevelPlan, TaskGraph, TaskKind, TiledPlan};
use crate::pool::{run_graph, BatchGeom, BatchInput, CancelToken, ItemIo};

/// Target elements per conversion/epilogue chunk task. Small enough that
/// converts interleave with compute on worker deques, large enough that a
/// chunk amortizes its dequeue (a 64 Ki-element pack touches ~512 KiB of
/// f64 traffic — far above task overhead).
const CONVERT_CHUNK_ELEMS: usize = 64 * 1024;

/// The strided operand description of one batched call, mirroring
/// `cblas_*gemm_batch_strided`: item `i`'s `A` starts at `a[i·stride_a]`
/// (likewise `B`), its `C` at `c[i·stride_c]` in the `c` slice passed
/// alongside. `stride_a`/`stride_b` may be `0` to broadcast one operand
/// across the batch; `stride_c` must keep the output windows disjoint.
#[derive(Clone, Copy, Debug)]
pub struct StridedBatch<'x, S> {
    /// Scales the product.
    pub alpha: S,
    /// Transposition applied to every item's `A`.
    pub op_a: Op,
    /// All items' `A` data.
    pub a: &'x [S],
    /// Leading dimension of each item's `A`.
    pub lda: usize,
    /// Element offset between consecutive items' `A` (0 broadcasts).
    pub stride_a: usize,
    /// Transposition applied to every item's `B`.
    pub op_b: Op,
    /// All items' `B` data.
    pub b: &'x [S],
    /// Leading dimension of each item's `B`.
    pub ldb: usize,
    /// Element offset between consecutive items' `B` (0 broadcasts).
    pub stride_b: usize,
    /// Scales the existing `C` contents.
    pub beta: S,
    /// Leading dimension of each item's `C`.
    pub ldc: usize,
    /// Element offset between consecutive items' `C`; at least
    /// `required_len(m, n, ldc)` when the batch has more than one item.
    pub stride_c: usize,
}

/// A compiled task DAG over `items` same-shape GEMMs and its window
/// geometry — only built by [`BatchPlan`] for a tiled plan on ≥ 2
/// workers and ≥ 2 items (fewer gain nothing from overlap and take the
/// per-item loop).
#[derive(Clone, Debug)]
pub(crate) struct BatchDag {
    graph: TaskGraph,
    levels: Vec<LevelPlan>,
    layouts: NodeLayouts,
    policy: ExecPolicy,
    threads: usize,
    items: usize,
    window: usize,
    /// Per-window-slot arena spans, in elements: the packed operands,
    /// the packed result, and the item's interpreter arena.
    slot_a: usize,
    slot_b: usize,
    slot_c: usize,
    slot_ws: usize,
    /// Shape of each item's packed terminal driver calls.
    driver: crate::terminal::Driver,
}

impl BatchDag {
    /// Tasks in the DAG.
    pub(crate) fn tasks(&self) -> usize {
        self.graph.tasks.len()
    }

    /// Workspace elements the DAG carves from the context: `window`
    /// item arenas.
    pub(crate) fn ws_len(&self) -> usize {
        self.window * self.slot_ws
    }

    /// Runs the DAG on the pool: grows the context's packed arenas and
    /// workspace to `window` slots, converts, multiplies and unpacks every
    /// item of `input` (`dims` is the logical `m × k × n`), and reports
    /// the executor's facts through `sink` — the per-item plan facts,
    /// workspace reservation and use, kernel, packing traffic, per-level
    /// times and pool counters, context growth, and the batch's items,
    /// window and conversion/compute overlap. The caller records the
    /// problem and plan-execution events.
    ///
    /// # Safety
    ///
    /// Every item of `input` must address operands of `dims` (under
    /// `op_a`/`op_b`) with valid leading dimensions, live for the whole
    /// call, with all `c` windows mutually disjoint and disjoint from
    /// every `a`/`b`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn run<S: Scalar, K: MetricsSink>(
        &self,
        tp: &TiledPlan,
        (m, k, n): (usize, usize, usize),
        op_a: Op,
        op_b: Op,
        alpha: S,
        beta: S,
        input: BatchInput<'_, S>,
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        let w = self.window;
        let ws_len = self.ws_len();
        let elem = size_of::<S>();
        if K::ENABLED {
            // One plan-facts record per item: aggregate flop/padding
            // accounting scales with the work actually done.
            for _ in 0..self.items {
                sink.record_plan(tp.facts);
            }
            sink.record_workspace(ws_len, ws_len * elem);
            sink.record_kernel(self.policy.kernel);
            sink.record_bytes_packed(
                crate::counts::packed_bytes(tp.layouts, self.policy, self.driver.shape(), elem)
                    * self.items as u64,
            );
        }
        // Start the pool before this call's buffers exist: its long-lived
        // allocations then sit below them in the heap instead of above,
        // where they would keep the freed buffers from returning to the
        // OS.
        crate::pool::ThreadPool::global(self.threads);
        let old_lens = ctx.lens();
        let a_arena = try_grow(&mut ctx.a_buf, w * self.slot_a)?;
        let b_arena = try_grow(&mut ctx.b_buf, w * self.slot_b)?;
        let c_arena = try_grow(&mut ctx.c_buf, w * self.slot_c)?;
        let ws = try_grow(&mut ctx.ws, ws_len)?;
        let geom = BatchGeom {
            m,
            k,
            n,
            op_a,
            op_b,
            slot_a: self.slot_a,
            slot_b: self.slot_b,
            slot_c: self.slot_c,
            slot_ws: self.slot_ws,
            driver: self.driver,
        };
        let (convert_nanos, overlap_nanos) = run_graph(
            &self.graph,
            &self.levels,
            self.layouts,
            self.policy,
            self.threads,
            input,
            geom,
            alpha,
            beta,
            a_arena,
            b_arena,
            c_arena,
            ws,
            &mut ctx.pool,
            cancel,
            sink,
        )?;
        if K::ENABLED {
            ctx.record_growth(old_lens, sink);
            // The DAG partitions its whole workspace by construction.
            sink.record_workspace_used(ws_len, ws_len * elem);
            let fraction =
                if convert_nanos == 0 { 0.0 } else { overlap_nanos as f64 / convert_nanos as f64 };
            sink.record_batch(self.items, w, fraction);
        }
        Ok(())
    }
}

/// A precompiled whole-batch execution plan for `batch` GEMMs of one
/// `m × k × n` shape under one [`ModgemmConfig`].
///
/// Compile once with [`BatchPlan::try_new`], execute repeatedly with
/// [`BatchPlan::try_execute`] against a warm [`GemmContext`] — repeated
/// executions are allocation-free, like the single-GEMM plan. The
/// convenience wrappers [`crate::blas::try_gemm_batch_strided`] /
/// [`crate::blas::gemm_batch_strided`] plan-and-execute in one call.
///
/// ```
/// use modgemm_core::{BatchPlan, GemmContext, ModgemmConfig, StridedBatch};
/// use modgemm_mat::Op;
///
/// let cfg = ModgemmConfig::default();
/// let plan: BatchPlan<f64> = BatchPlan::try_new(4, 4, 4, 3, &cfg).unwrap();
/// let a = vec![1.0; 16 * 3];
/// let b = vec![2.0; 16 * 3];
/// let mut c = vec![0.0; 16 * 3];
/// let desc = StridedBatch {
///     alpha: 1.0, op_a: Op::NoTrans, a: &a, lda: 4, stride_a: 16,
///     op_b: Op::NoTrans, b: &b, ldb: 4, stride_b: 16,
///     beta: 0.0, ldc: 4, stride_c: 16,
/// };
/// let mut ctx = GemmContext::new();
/// plan.try_execute(&desc, &mut c, &mut ctx).unwrap();
/// assert!(c.iter().all(|&x| x == 8.0));
/// ```
#[derive(Clone, Debug)]
pub struct BatchPlan<S> {
    item: GemmPlan<S>,
    batch: usize,
    dag: Option<BatchDag>,
}

impl<S: Scalar> BatchPlan<S> {
    /// Compiles a batch plan: one item plan (truncation search, layout
    /// tree, arenas) plus the whole-batch task DAG with a budget-capped
    /// in-flight window.
    pub fn try_new(
        m: usize,
        k: usize,
        n: usize,
        batch: usize,
        cfg: &ModgemmConfig,
    ) -> Result<Self, GemmError> {
        Ok(Self::from_plan(GemmPlan::try_new(m, k, n, cfg)?, batch))
    }

    /// Wraps an existing item plan (e.g. one from a service plan cache)
    /// into a batch plan for `batch` items.
    pub fn from_plan(item: GemmPlan<S>, batch: usize) -> Self {
        let dag = item
            .tiled()
            .filter(|_| batch >= 2)
            .and_then(|tp| build_dag(tp, batch, resolve_window::<S>(item.config(), tp, batch)));
        BatchPlan { item, batch, dag }
    }

    /// The per-item plan the batch was compiled around.
    pub fn item_plan(&self) -> &GemmPlan<S> {
        &self.item
    }

    /// The number of items the plan was compiled for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The in-flight window: how many items' workspaces are admitted
    /// concurrently. 1 when the DAG path is unavailable.
    pub fn window(&self) -> usize {
        self.dag.as_ref().map_or(1, |d| d.window)
    }

    /// Tasks in the whole-batch DAG (0 when execution falls back to the
    /// serial per-item loop). Drives cancellation sweep tests.
    pub fn parallel_tasks(&self) -> usize {
        self.dag.as_ref().map_or(0, BatchDag::tasks)
    }

    /// Executes the batch: `C_i ← α·op(A_i)·op(B_i) + β·C_i` for every
    /// item. See [`StridedBatch`] for the operand encoding.
    pub fn try_execute(
        &self,
        desc: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
    ) -> Result<(), GemmError> {
        self.try_execute_impl(desc, c, ctx, None, &mut NoopSink)
    }

    /// [`BatchPlan::try_execute`] reporting execution metrics (including
    /// `batch_items` / `batch_window` / `conversion_overlap_fraction`)
    /// through `sink`.
    pub fn try_execute_with_metrics<K: MetricsSink>(
        &self,
        desc: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        self.try_execute_impl(desc, c, ctx, None, sink)
    }

    /// Cancellable [`BatchPlan::try_execute_with_metrics`]: the token is
    /// checked at every task-dequeue boundary of the batch DAG (and
    /// between items of the serial fallback); on cancellation the context
    /// remains reusable.
    pub fn try_execute_cancellable_with_metrics<K: MetricsSink>(
        &self,
        desc: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        cancel: &CancelToken,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        self.try_execute_impl(desc, c, ctx, Some(cancel), sink)
    }

    fn try_execute_impl<K: MetricsSink>(
        &self,
        d: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        if self.batch == 0 {
            return Ok(());
        }
        let (m, k, n) = self.item.dims();
        let (ar, ac) = d.op_a.apply_dims(m, k);
        let (br, bc) = d.op_b.apply_dims(k, n);
        // Validate EVERY operand of EVERY item before touching any
        // output: a strided batch's per-item geometry is uniform, so the
        // whole batch is covered by one leading-dimension check and one
        // last-item length check per operand.
        check_strided(Operand::A, d.a.len(), ar, ac, d.lda, d.stride_a, self.batch)?;
        check_strided(Operand::B, d.b.len(), br, bc, d.ldb, d.stride_b, self.batch)?;
        check_strided(Operand::C, c.len(), m, n, d.ldc, d.stride_c, self.batch)?;
        let c_item = required_len(m, n, d.ldc);
        if self.batch > 1 && d.stride_c < c_item {
            return Err(GemmError::BatchOverlap { stride: d.stride_c, needed: c_item });
        }
        if let Some(token) = cancel {
            token.check()?;
        }
        // The DAG bakes in the fast path's assumptions; anything the
        // per-item executor handles specially (verification retries,
        // non-finite scans/rejection, α = 0 or k = 0 scaling early-outs)
        // routes through the serial loop, which is also the semantic
        // reference the property tests pin the DAG against.
        let cfg = self.item.config();
        let dag_ok = self.dag.is_some()
            && cfg.verify == VerifyMode::Off
            && cfg.non_finite == NonFinitePolicy::Propagate
            && d.alpha != S::ZERO;
        if dag_ok {
            self.execute_dag(d, c, ctx, cancel, sink)
        } else {
            self.execute_serial(d, c, ctx, cancel, sink)
        }
    }

    /// The per-item reference path: one planned execution per item on the
    /// shared context, outputs written in batch order.
    fn execute_serial<K: MetricsSink>(
        &self,
        d: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        let (m, k, n) = self.item.dims();
        let (ar, ac) = d.op_a.apply_dims(m, k);
        let (br, bc) = d.op_b.apply_dims(k, n);
        let a_one = required_len(ar, ac, d.lda);
        let b_one = required_len(br, bc, d.ldb);
        let c_one = required_len(m, n, d.ldc);
        for i in 0..self.batch {
            let av =
                MatRef::from_slice(&d.a[i * d.stride_a..i * d.stride_a + a_one], ar, ac, d.lda);
            let bv =
                MatRef::from_slice(&d.b[i * d.stride_b..i * d.stride_b + b_one], br, bc, d.ldb);
            let cv =
                MatMut::from_slice(&mut c[i * d.stride_c..i * d.stride_c + c_one], m, n, d.ldc);
            let res = match cancel {
                Some(token) => self.item.try_execute_cancellable_with_metrics(
                    d.alpha, d.op_a, av, d.op_b, bv, d.beta, cv, ctx, token, sink,
                ),
                None => self.item.try_execute_with_metrics(
                    d.alpha, d.op_a, av, d.op_b, bv, d.beta, cv, ctx, sink,
                ),
            };
            res.map(|_| ()).map_err(|e| match e {
                // Cancellation is a batch-level outcome, same as on the
                // DAG path; everything else names the failing item.
                GemmError::Cancelled | GemmError::DeadlineExceeded => e,
                other => GemmError::BatchItem { index: i, source: Box::new(other) },
            })?;
        }
        if K::ENABLED {
            sink.record_batch(self.batch, 1, 0.0);
        }
        Ok(())
    }

    fn execute_dag<K: MetricsSink>(
        &self,
        d: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        let input = BatchInput::Strided {
            a: d.a,
            lda: d.lda,
            stride_a: d.stride_a,
            b: d.b,
            ldb: d.ldb,
            stride_b: d.stride_b,
            c,
            ldc: d.ldc,
            stride_c: d.stride_c,
        };
        // SAFETY: `try_execute_impl` validated every item's window inside
        // the borrowed slices, and `c`'s windows are disjoint; an
        // exclusive `c` aliases neither `a` nor `b`.
        unsafe { self.run_dag(input, d.op_a, d.op_b, d.alpha, d.beta, ctx, cancel, sink) }
    }

    /// Executes the batch DAG over an explicit per-item pointer table —
    /// the [`crate::service::GemmService`] coalescing path, where items
    /// live in unrelated request buffers.
    ///
    /// # Safety
    ///
    /// Every `ItemIo` must point to operands of this plan's `m × k × n`
    /// shape (under `op_a`/`op_b`) with valid leading dimensions, live
    /// for the whole call, and with all `c` windows mutually disjoint
    /// and disjoint from every `a`/`b`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn try_execute_items<K: MetricsSink>(
        &self,
        op_a: Op,
        op_b: Op,
        alpha: S,
        beta: S,
        items: &[ItemIo<S>],
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        if items.len() != self.batch {
            return Err(GemmError::BatchLenMismatch {
                a: items.len(),
                b: items.len(),
                c: self.batch,
            });
        }
        if self.dag.is_none() {
            return Err(GemmError::InvalidConfig {
                reason: "batch DAG unavailable for the item-table path",
            });
        }
        if let Some(token) = cancel {
            token.check()?;
        }
        // SAFETY: the caller's contract is `run_dag`'s.
        unsafe {
            self.run_dag(BatchInput::Items(items), op_a, op_b, alpha, beta, ctx, cancel, sink)
        }
    }

    /// Records the per-batch events and runs the DAG.
    ///
    /// # Safety
    /// As [`BatchDag::run`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_dag<K: MetricsSink>(
        &self,
        input: BatchInput<'_, S>,
        op_a: Op,
        op_b: Op,
        alpha: S,
        beta: S,
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        let dag = self.dag.as_ref().expect("run_dag requires a compiled batch DAG");
        let tp = self.item.tiled().expect("a batch DAG implies a tiled plan");
        let (m, k, n) = self.item.dims();
        if K::ENABLED {
            sink.record_problem(m, k, n);
            // One planned-execution record per batch.
            sink.record_plan_execution((dag.ws_len() * size_of::<S>()) as u64);
        }
        dag.run(tp, (m, k, n), op_a, op_b, alpha, beta, input, ctx, cancel, sink)
    }
}

/// The in-flight window: requested (or `2·threads` capped to the batch
/// when auto), then budget-capped so `w` slots of packed operands plus
/// arena fit the [`crate::config::MemoryBudget`] — window admission
/// degrades toward 1 before the item plan loses recursion depth.
fn resolve_window<S: Scalar>(eff: &ModgemmConfig, tp: &TiledPlan, batch: usize) -> usize {
    let requested = if eff.batch_window > 0 { eff.batch_window } else { (2 * tp.threads).max(2) };
    let requested = requested.min(batch.max(1));
    let per_slot = crate::counts::batch_slot_elems(tp.layouts, tp.policy);
    crate::counts::batch_window_cap(
        requested,
        per_slot,
        eff.memory_budget.max_elements(size_of::<S>()),
    )
}

/// Splits `units` work units into `chunks` near-equal half-open ranges.
fn ranges(units: usize, chunks: usize) -> impl Iterator<Item = (usize, usize)> {
    let per = units / chunks.max(1);
    let rem = units % chunks.max(1);
    (0..chunks).scan(0usize, move |acc, i| {
        let len = per + usize::from(i < rem);
        let r0 = *acc;
        *acc += len;
        Some((r0, *acc))
    })
}

/// Conversion/epilogue chunk count for one item-side: enough chunks to
/// spread across workers, never below [`CONVERT_CHUNK_ELEMS`] elements
/// each (unless a single unit is smaller), never more than `units`.
fn chunk_count(total_elems: usize, units: usize, threads: usize) -> usize {
    (total_elems / CONVERT_CHUNK_ELEMS).max(1).min(threads).min(units).max(1)
}

/// Emits the convert chunk tasks of one item-side and returns the task
/// gating "this side's slot region is fully packed" (the single chunk
/// itself, or a zero-work join).
fn convert_gate(
    b: &mut DagBuilder,
    kind: TaskKind,
    item: u32,
    slot: u32,
    units: usize,
    chunks: usize,
    after: Option<u32>,
) -> u32 {
    let mut parts: Vec<Option<u32>> = Vec::with_capacity(chunks);
    for (r0, r1) in ranges(units, chunks) {
        let chunk = BatchChunk { item, slot, r0: r0 as u32, r1: r1 as u32 };
        parts.push(Some(b.chunk_task(kind, chunk, &[after])));
    }
    b.join(&parts)
}

/// Lowers `batch` items of `tp` with an in-flight `window` into one task
/// DAG where each item's compute is one `Leaf` task, or `None` on a
/// single worker.
pub(crate) fn build_dag(tp: &TiledPlan, batch: usize, window: usize) -> Option<BatchDag> {
    if tp.threads < 2 {
        return None;
    }
    let layouts = tp.layouts;
    let slot_a = layouts.a.len();
    let slot_b = layouts.b.len();
    let slot_c = layouts.c.len();
    let slot_ws = tp.arena_len;
    let tiles_a = slot_a / layouts.a.tile_len();
    let tiles_b = slot_b / layouts.b.tile_len();
    let grid_c = layouts.c.grid();
    let ca = chunk_count(slot_a, tiles_a, tp.threads);
    let cb = chunk_count(slot_b, tiles_b, tp.threads);
    let cu = chunk_count(slot_c, grid_c, tp.threads);

    let mut b = DagBuilder::default();
    // Window admission is encoded as edges: the first task of item `i`
    // depends on the done gate of item `i − w` (its slot's previous
    // occupant), so at most `w` items have live arena slots and the
    // first `w` items' converts are DAG roots, ready at submit.
    let mut prev_done: Vec<Option<u32>> = vec![None; window];
    for i in 0..batch {
        let slot = i % window;
        let after = prev_done[slot];
        let a_gate =
            convert_gate(&mut b, TaskKind::ConvertA, i as u32, slot as u32, tiles_a, ca, after);
        let b_gate =
            convert_gate(&mut b, TaskKind::ConvertB, i as u32, slot as u32, tiles_b, cb, after);
        // The item's compute: the serial interpreter on its window
        // slot's operands, result and arena.
        let whole = BatchChunk { item: i as u32, slot: slot as u32, r0: 0, r1: 0 };
        let leaf = b.chunk_task(TaskKind::Leaf, whole, &[Some(a_gate), Some(b_gate)]);
        let mut parts: Vec<Option<u32>> = Vec::with_capacity(cu);
        for (r0, r1) in ranges(grid_c, cu) {
            let chunk =
                BatchChunk { item: i as u32, slot: slot as u32, r0: r0 as u32, r1: r1 as u32 };
            parts.push(Some(b.chunk_task(TaskKind::Unpack, chunk, &[Some(leaf)])));
        }
        prev_done[slot] = Some(b.join(&parts));
    }
    Some(BatchDag {
        graph: b.finish(),
        levels: tp.levels.clone(),
        layouts,
        policy: tp.policy,
        threads: tp.threads,
        items: batch,
        window,
        slot_a,
        slot_b,
        slot_c,
        slot_ws,
        driver: tp.driver,
    })
}

/// One leading-dimension check plus one whole-batch length check for a
/// strided operand (per-item geometry is uniform, so the last item's
/// window bounds every other item's).
fn check_strided(
    operand: Operand,
    data_len: usize,
    rows: usize,
    cols: usize,
    ld: usize,
    stride: usize,
    batch: usize,
) -> Result<(), GemmError> {
    let min = rows.max(1);
    if ld < min {
        return Err(GemmError::BadLeadingDim { operand, ld, min });
    }
    let one = required_len(rows, cols, ld);
    let needed =
        (batch - 1).checked_mul(stride).and_then(|off| off.checked_add(one)).unwrap_or(usize::MAX);
    if data_len < needed {
        return Err(GemmError::SliceTooShort { operand, needed, got: data_len });
    }
    Ok(())
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::metrics::CollectingSink;

    fn cfg_threads(threads: usize) -> ModgemmConfig {
        ModgemmConfig { threads, ..Default::default() }
    }

    fn filled(len: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..len).map(f).collect()
    }

    /// Serial per-item reference over the same strided encoding.
    fn reference(plan: &GemmPlan<f64>, d: &StridedBatch<'_, f64>, c: &mut [f64], batch: usize) {
        let (m, k, n) = plan.dims();
        let (ar, ac) = d.op_a.apply_dims(m, k);
        let (br, bc) = d.op_b.apply_dims(k, n);
        let mut ctx = GemmContext::new();
        for i in 0..batch {
            let av = MatRef::from_slice(
                &d.a[i * d.stride_a..i * d.stride_a + required_len(ar, ac, d.lda)],
                ar,
                ac,
                d.lda,
            );
            let bv = MatRef::from_slice(
                &d.b[i * d.stride_b..i * d.stride_b + required_len(br, bc, d.ldb)],
                br,
                bc,
                d.ldb,
            );
            let cv = MatMut::from_slice(
                &mut c[i * d.stride_c..i * d.stride_c + required_len(m, n, d.ldc)],
                m,
                n,
                d.ldc,
            );
            plan.try_execute(d.alpha, d.op_a, av, d.op_b, bv, d.beta, cv, &mut ctx).unwrap();
        }
    }

    #[test]
    fn batch_dag_matches_serial_reference() {
        let (m, k, n, batch) = (24, 20, 28, 5);
        let cfg = cfg_threads(3);
        let plan: BatchPlan<f64> = BatchPlan::try_new(m, k, n, batch, &cfg).unwrap();
        assert!(plan.parallel_tasks() > 0, "multi-thread multi-item batch must lower to a DAG");
        // Ragged leading dimensions, padded strides, and op(B) = Bᵀ
        // (stored n × k): the DAG's converts must honor all of it.
        let (lda, ldb, ldc) = (m + 1, n + 2, m + 3);
        let sa = required_len(m, k, lda) + 5;
        let sb = required_len(n, k, ldb) + 2;
        let sc = required_len(m, n, ldc) + 1;
        let a = filled((batch - 1) * sa + required_len(m, k, lda), |i| (i % 13) as f64 - 6.0);
        let b = filled((batch - 1) * sb + required_len(n, k, ldb), |i| (i % 7) as f64 * 0.5);
        let c0 = filled((batch - 1) * sc + required_len(m, n, ldc), |i| (i % 5) as f64);
        let desc = StridedBatch {
            alpha: 1.25,
            op_a: Op::NoTrans,
            a: &a,
            lda,
            stride_a: sa,
            op_b: Op::Trans,
            b: &b,
            ldb,
            stride_b: sb,
            beta: -0.5,
            ldc,
            stride_c: sc,
        };
        let mut got = c0.clone();
        let mut want = c0.clone();
        let mut ctx = GemmContext::new();
        let mut sink = CollectingSink::default();
        plan.try_execute_with_metrics(&desc, &mut got, &mut ctx, &mut sink).unwrap();
        reference(plan.item_plan(), &desc, &mut want, batch);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "elem {i}: {g} vs {w}");
        }
        let m = sink.into_metrics();
        assert_eq!(m.batch_items, batch as u64);
        assert!(m.batch_window >= 1);
    }

    #[test]
    fn window_respects_budget_and_batch() {
        let cfg = cfg_threads(4);
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 16, &cfg).unwrap();
        // Auto window: 2·threads, capped by batch; budget unlimited.
        assert_eq!(plan.window(), 8);
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 3, &cfg).unwrap();
        assert_eq!(plan.window(), 3);
        let cfg = ModgemmConfig { batch_window: 2, ..cfg_threads(4) };
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 16, &cfg).unwrap();
        assert_eq!(plan.window(), 2);
        // A tiny budget degrades the window to 1 (but never kills the
        // batch path outright).
        let cfg = ModgemmConfig {
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(1),
            ..cfg_threads(4)
        };
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 16, &cfg).unwrap();
        assert_eq!(plan.window(), 1);
    }

    #[test]
    fn strided_validation_is_total_and_typed() {
        let cfg = cfg_threads(1);
        let plan: BatchPlan<f64> = BatchPlan::try_new(4, 4, 4, 3, &cfg).unwrap();
        let a = vec![0.0; 48];
        let b = vec![0.0; 48];
        let good = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &a,
            lda: 4,
            stride_a: 16,
            op_b: Op::NoTrans,
            b: &b,
            ldb: 4,
            stride_b: 16,
            beta: 0.0,
            ldc: 4,
            stride_c: 16,
        };
        let mut ctx = GemmContext::new();
        // Bad ld on A.
        let mut c = vec![1.0; 48];
        let d = StridedBatch { lda: 3, ..good };
        assert!(matches!(
            plan.try_execute(&d, &mut c, &mut ctx),
            Err(GemmError::BadLeadingDim { operand: Operand::A, ld: 3, min: 4 })
        ));
        // Last item's B window missing: typed, and C untouched even
        // though items 0..1 were individually valid.
        let d = StridedBatch { b: &b[..40], ..good };
        assert!(matches!(
            plan.try_execute(&d, &mut c, &mut ctx),
            Err(GemmError::SliceTooShort { operand: Operand::B, .. })
        ));
        assert!(c.iter().all(|&x| x == 1.0), "no output may be written before validation");
        // Overlapping C windows are rejected.
        let d = StridedBatch { stride_c: 15, ..good };
        assert!(matches!(
            plan.try_execute(&d, &mut c, &mut ctx),
            Err(GemmError::BatchOverlap { stride: 15, needed: 16 })
        ));
        // Broadcast A (stride 0) is legal.
        let d = StridedBatch { stride_a: 0, ..good };
        plan.try_execute(&d, &mut c, &mut ctx).unwrap();
    }

    #[test]
    fn empty_and_degenerate_batches_are_benign() {
        let cfg = cfg_threads(2);
        let plan: BatchPlan<f64> = BatchPlan::try_new(4, 4, 4, 0, &cfg).unwrap();
        let mut ctx = GemmContext::new();
        let d = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &[],
            lda: 4,
            stride_a: 0,
            op_b: Op::NoTrans,
            b: &[],
            ldb: 4,
            stride_b: 0,
            beta: 0.0,
            ldc: 4,
            stride_c: 0,
        };
        plan.try_execute(&d, &mut [], &mut ctx).unwrap();
        // k = 0 has no tiled strategy: the serial loop applies the β
        // scaling per item.
        let plan: BatchPlan<f64> = BatchPlan::try_new(2, 0, 2, 2, &cfg).unwrap();
        assert_eq!(plan.parallel_tasks(), 0);
        let mut c = vec![2.0; 8];
        let d = StridedBatch { ldc: 2, stride_c: 4, beta: 0.5, ..d };
        plan.try_execute(&d, &mut c, &mut ctx).unwrap();
        assert!(c.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn repeated_batch_execution_is_allocation_free() {
        let (m, k, n, batch) = (32, 32, 32, 6);
        let cfg = cfg_threads(2);
        let plan: BatchPlan<f64> = BatchPlan::try_new(m, k, n, batch, &cfg).unwrap();
        assert!(plan.parallel_tasks() > 0);
        let one = m * k;
        let a = filled(batch * one, |i| (i % 9) as f64);
        let b = filled(batch * k * n, |i| (i % 4) as f64);
        let mut c = vec![0.0; batch * m * n];
        let d = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &a,
            lda: m,
            stride_a: one,
            op_b: Op::NoTrans,
            b: &b,
            ldb: k,
            stride_b: k * n,
            beta: 0.0,
            ldc: m,
            stride_c: m * n,
        };
        let mut ctx = GemmContext::new();
        plan.try_execute(&d, &mut c, &mut ctx).unwrap();
        let mut sink = CollectingSink::default();
        plan.try_execute_with_metrics(&d, &mut c, &mut ctx, &mut sink).unwrap();
        let metrics = sink.into_metrics();
        assert_eq!(metrics.temp_alloc_bytes, 0, "warm batch execution must not allocate");
        assert_eq!(metrics.batch_items, batch as u64);
        assert!(metrics.conversion_overlap_fraction >= 0.0);
    }

    #[test]
    fn batch_cancellation_drains_and_context_survives() {
        let (m, k, n, batch) = (24, 24, 24, 4);
        let cfg = cfg_threads(2);
        let plan: BatchPlan<f64> = BatchPlan::try_new(m, k, n, batch, &cfg).unwrap();
        let tasks = plan.parallel_tasks();
        assert!(tasks > 0);
        let a = filled(batch * m * k, |i| (i % 11) as f64);
        let b = filled(batch * k * n, |i| (i % 6) as f64);
        let c0 = vec![0.25; batch * m * n];
        let d = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &a,
            lda: m,
            stride_a: m * k,
            op_b: Op::NoTrans,
            b: &b,
            ldb: k,
            stride_b: k * n,
            beta: 0.0,
            ldc: m,
            stride_c: m * n,
        };
        let mut want = c0.clone();
        reference(plan.item_plan(), &d, &mut want, batch);
        let mut ctx = GemmContext::new();
        // Trip mid-DAG, then prove the context is still good.
        let token = CancelToken::cancelling_after(tasks as u64 / 2);
        let mut got = c0.clone();
        let res = plan.try_execute_cancellable_with_metrics(
            &d,
            &mut got,
            &mut ctx,
            &token,
            &mut NoopSink,
        );
        assert!(matches!(res, Err(GemmError::Cancelled)));
        let mut got = c0;
        plan.try_execute(&d, &mut got, &mut ctx).unwrap();
        assert_eq!(got, want, "post-cancel reuse must produce exact results");
    }
}
