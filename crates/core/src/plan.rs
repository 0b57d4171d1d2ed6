//! The plan/execute split: compile the multiply once, run it many times.
//!
//! The paper's whole premise is that MODGEMM's memory behavior is decided
//! *before* the multiply: the truncation search fixes the tile sizes and
//! recursion depth, which fix the [`NodeLayouts`] tree, which fixes every
//! workspace slot the Strassen-Winograd recursion will ever touch. A
//! [`GemmPlan`] materializes that decision as data:
//!
//! * the truncation-point search result (or the verdict that the problem
//!   must be split, §3.5);
//! * the budget-capped [`ExecPolicy`] — truncation, schedule variant, and
//!   leaf kernel ([`modgemm_mat::KernelKind`]) are all plan-time choices;
//! * the per-level schedule, flattened into a [`LevelPlan`] list (one
//!   entry per Strassen level, each pointing at the variant's step list);
//! * a single workspace **arena** with precomputed slot offsets — the
//!   `TS/TT/TP/TQ` temporaries of every level laid out back to back, so
//!   execution carves slices instead of allocating.
//!
//! [`GemmPlan::execute`] then runs the compiled recipe against a
//! [`GemmContext`]: on a warm context the hot path performs **zero** heap
//! allocations (asserted via the temp-allocation accounting — see
//! `ExecMetrics::temp_alloc_bytes`). The one-shot entry points
//! ([`crate::gemm::try_modgemm`] and the BLAS calls built on it) build a
//! throwaway plan per call, and [`crate::gemm::modgemm_premorton`]
//! compiles only the compute stage (`TiledPlan`), so every path runs the
//! same interpreter (`exec_levels_raw`) and produces bit-identical
//! results. A plan that runs on the pool holds a whole-batch task DAG
//! ([`crate::batch`]) for a batch of one, whose conversion chunks,
//! compute tasks and α/β unpack chunks run as one dependency-counted
//! graph.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use modgemm_mat::addsub::{add_assign_flat, add_flat, rsub_assign_flat, sub_assign_flat, sub_flat};
use modgemm_mat::naive::naive_gemm;
use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::{Matrix, Scalar};
use modgemm_morton::convert::{from_morton, from_morton_axpby, to_morton};

use crate::batch::{build_dag, BatchDag};
use crate::config::{ModgemmConfig, NonFinitePolicy, VerifyMode};
use crate::error::{try_grow, try_zeroed_vec, GemmError, Operand};
use crate::exec::{
    check_buffers, fused_levels, fused_tail_len, morton_mul_add_with_ws, staged_step,
    workspace_len, ExecPolicy, NodeLayouts,
};
use crate::gemm::{
    capped_policy, has_non_finite, layouts_of, scale_in_place, GemmBreakdown, GemmContext,
};
use crate::metrics::{MetricsSink, NoopSink, PlanFacts};
use crate::pool::{resolve_threads, BatchInput, CancelToken, ItemIo};
use crate::rect;
use crate::schedule::{ASlot, AddKind, BSlot, Schedule, Step, Variant};
use crate::verify::verify_gemm;

/// Upper bound on Strassen levels a plan can hold in stack storage.
///
/// Padded dimensions are `tile << depth`, so `depth < usize::BITS` and 64
/// levels can never be reached on any address width.
pub const MAX_LEVELS: usize = 64;

/// Cap on the Freivalds round count the verified-retry escalation can
/// reach: `2⁻⁶⁴` false-accept probability is already negligible, and each
/// round costs a full `O(n²)` probe.
const MAX_VERIFY_ROUNDS: u32 = 64;

/// The compiled form of one Strassen recursion level: quadrant sizes, the
/// arena slot this level owns, and the schedule it interprets.
///
/// A level's arena slot holds its temporaries back to back at
/// `arena_offset` — which temporaries depends on the schedule tier:
/// standard carves `TS` (`qa` elements), `TT` (`qb`), `TP` (`qc`) and
/// `TQ` (`qc`); low-mem drops `TQ`; in-place keeps only `TP`. The child
/// level's slot follows immediately, so the whole recursion consumes one
/// contiguous arena of [`workspace_len`] elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelPlan {
    /// Elements of one `A` quadrant at this level (the `TS` slot size).
    pub qa: usize,
    /// Elements of one `B` quadrant at this level (the `TT` slot size).
    pub qb: usize,
    /// Elements of one `C` quadrant at this level (the `TP`/`TQ` slot
    /// size, each).
    pub qc: usize,
    /// Total elements of this level's arena slot
    /// ([`crate::schedule::Schedule::level_temp_elems`] of the policy's
    /// tier: `qa + qb + 2·qc` standard, `qa + qb + qc` low-mem, `qc`
    /// in-place).
    pub slot_len: usize,
    /// Offset of this level's slot from the arena start (prefix sum of
    /// the shallower levels' `slot_len`s).
    pub arena_offset: usize,
    /// The linearized schedule this level interprets
    /// ([`crate::schedule::steps_for`] of the policy's variant and tier).
    pub steps: &'static [Step],
}

impl LevelPlan {
    /// The all-zero placeholder used to initialize fixed-size level
    /// buffers before `fill_levels` overwrites the live prefix.
    pub const EMPTY: LevelPlan =
        LevelPlan { qa: 0, qb: 0, qc: 0, slot_len: 0, arena_offset: 0, steps: &[] };
}

/// Flattens the *staged* Strassen levels of `layouts` under `policy`
/// into `out`, returning how many levels materialize S/T arena slots.
/// The innermost [`fused_levels`] Strassen levels (when
/// [`ExecPolicy::fuse`] requests them) are absent from the list — they
/// execute inside the fused terminal — and everything below runs the
/// conventional Morton recursion.
///
/// Debug builds assert, at every level, that the arena layout agrees with
/// the closed-form [`workspace_len`]/[`crate::counts`] model — the
/// metrics model can never drift from the allocator.
pub(crate) fn fill_levels(
    out: &mut [LevelPlan],
    layouts: NodeLayouts,
    policy: ExecPolicy,
) -> usize {
    let mut l = layouts;
    let mut off = 0usize;
    let mut count = 0usize;
    while staged_step(l, policy) {
        let (qa, qb, qc) = (l.a.quadrant_len(), l.b.quadrant_len(), l.c.quadrant_len());
        // Tier-dependent slot: standard `qa+qb+2qc`, low-mem `qa+qb+qc`,
        // in-place `qc` (see [`crate::counts::schedule_level_extra_elems`]).
        let slot_len = policy.sched().level_temp_elems(qa, qb, qc);
        debug_assert_eq!(
            workspace_len(l, policy),
            slot_len + workspace_len(l.child(), policy),
            "arena slot at level {count} disagrees with the workspace model"
        );
        out[count] = LevelPlan { qa, qb, qc, slot_len, arena_offset: off, steps: policy.steps() };
        off += slot_len;
        count += 1;
        l = l.child();
    }
    debug_assert_eq!(
        off + fused_tail_len(layouts, policy),
        workspace_len(layouts, policy),
        "arena length disagrees with workspace_len (slots + terminal tail)"
    );
    debug_assert_eq!(
        count,
        crate::counts::staged_levels(layouts, policy),
        "flattened level count disagrees with counts::staged_levels"
    );
    count
}

/// The schedule interpreter: executes `levels[li..]` over the Morton
/// buffers, carving each level's temporaries from the front of `arena`
/// (which temporaries the schedule tier decides: `TS/TT/TP/TQ` standard,
/// `TS/TT/TP` low-mem, `TP` in-place) and handing the tail to the
/// recursion. Past the last flattened level the terminal takes over: the
/// fused executor ([`crate::fuse::fused_mul_with_ws`]) when
/// [`ExecPolicy::fuse`] covers the remaining Strassen level, else the
/// conventional Morton recursion with the plan's leaf kernel — what
/// remains of the arena at that point is exactly the [`fused_tail_len`]
/// tail (the packing slot or the fused leaf working set; non-packing
/// staged kernels ignore it).
///
/// `arena` must be exactly the remaining levels' combined slot length
/// plus the terminal tail (callers pass
/// `workspace_len(layouts, policy)` at the root).
///
/// Returns the measured peak arena occupancy in elements — this level's
/// slot plus the deepest child's peak (the terminal claims its whole
/// tail). Debug builds assert it equals the closed-form model at every
/// level, so a schedule whose footprint expression under-counts fails
/// loudly instead of silently overlapping slots.
///
/// # Safety
/// `a` and `b` must point to the node's full Morton operand buffers
/// (`layouts.a.len()` / `layouts.b.len()` elements), valid for reads for
/// the duration of the call, with no other access to them while it runs.
/// When `policy.sched().overwrites_inputs()` they must also be valid for
/// writes (the in-place schedule writes and then restores the quadrants);
/// non-overwriting tiers never write through them, so shared borrows cast
/// to `*mut` are sound for those.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn exec_levels_raw<S: Scalar, K: MetricsSink>(
    a: *mut S,
    b: *mut S,
    c: &mut [S],
    layouts: NodeLayouts,
    levels: &[LevelPlan],
    li: usize,
    arena: &mut [S],
    policy: ExecPolicy,
    sink: &mut K,
) -> usize {
    debug_assert_eq!(
        arena.len(),
        levels[li..].iter().map(|l| l.slot_len).sum::<usize>() + fused_tail_len(layouts, policy),
        "arena does not match the remaining levels' slots plus the terminal tail"
    );
    if li == levels.len() {
        debug_assert!(!staged_step(layouts, policy), "levels list ended early");
        // SAFETY (caller contract): `a`/`b` cover the node's operand
        // buffers and nothing else touches them during the call; the
        // terminal only reads them.
        let av = unsafe { core::slice::from_raw_parts(a as *const S, layouts.a.len()) };
        let bv = unsafe { core::slice::from_raw_parts(b as *const S, layouts.b.len()) };
        let fused = fused_levels(layouts, policy) > 0;
        let run = |c: &mut [S], arena: &mut [S]| {
            if fused {
                crate::fuse::fused_mul_with_ws(av, bv, c, layouts, policy.kernel, arena);
            } else {
                c.fill(S::ZERO);
                morton_mul_add_with_ws(av, bv, c, layouts, policy.kernel, arena);
            }
        };
        if K::ENABLED {
            let t0 = Instant::now();
            run(c, arena);
            sink.record_level_time(li, t0.elapsed());
        } else {
            run(c, arena);
        }
        return arena.len();
    }
    let lp = &levels[li];

    let ch = layouts.child();
    let (qa, qb, qc) =
        (layouts.a.quadrant_len(), layouts.b.quadrant_len(), layouts.c.quadrant_len());
    debug_assert_eq!((lp.qa, lp.qb, lp.qc), (qa, qb, qc), "level plan drifted from the layouts");
    let sched = policy.sched();

    let (c11, rest) = c.split_at_mut(qc);
    let (c12, rest) = rest.split_at_mut(qc);
    let (c21, c22) = rest.split_at_mut(qc);

    // Tier-dependent carving: the tiers below standard simply omit slots
    // their schedules never reference (asserted per step below). The
    // final split doubles as the high-water-mark check — a tier whose
    // closed form over- or under-counted the slot would leave `tq` the
    // wrong length.
    let (this_ws, child_ws) = arena.split_at_mut(lp.slot_len);
    let (ts_len, tt_len) = if sched.overwrites_inputs() { (0, 0) } else { (qa, qb) };
    let tq_len = if sched == Schedule::Standard { qc } else { 0 };
    let (ts, rest_ws) = this_ws.split_at_mut(ts_len);
    let (tt, rest_ws) = rest_ws.split_at_mut(tt_len);
    let (tp, tq) = rest_ws.split_at_mut(qc);
    debug_assert_eq!(
        ts_len + tt_len + qc + tq.len(),
        lp.slot_len,
        "schedule tier {sched:?}: closed-form slot length disagrees with the carving"
    );
    debug_assert_eq!(tq.len(), tq_len, "TQ carving drifted from the tier model");

    // Raw tables of the pairwise-disjoint slot buffers, indexed by
    // `ASlot::index()` / `BSlot::index()` / `CSlot::index()`. Access goes
    // exclusively through these tables below; the named locals are not
    // used again. Slots a tier does not materialize carry length 0 and
    // are never referenced by its schedule.
    let mut aslots: [(*mut S, usize); 5] = [
        (a, qa),
        // SAFETY (caller contract): `a` spans all four quadrants.
        unsafe { (a.add(qa), qa) },
        unsafe { (a.add(2 * qa), qa) },
        unsafe { (a.add(3 * qa), qa) },
        (ts.as_mut_ptr(), ts_len),
    ];
    let mut bslots: [(*mut S, usize); 5] = [
        (b, qb),
        // SAFETY (caller contract): `b` spans all four quadrants.
        unsafe { (b.add(qb), qb) },
        unsafe { (b.add(2 * qb), qb) },
        unsafe { (b.add(3 * qb), qb) },
        (tt.as_mut_ptr(), tt_len),
    ];
    let mut cslots: [(*mut S, usize); 6] = [
        (c11.as_mut_ptr(), qc),
        (c12.as_mut_ptr(), qc),
        (c21.as_mut_ptr(), qc),
        (c22.as_mut_ptr(), qc),
        (tp.as_mut_ptr(), qc),
        (tq.as_mut_ptr(), tq_len),
    ];

    // SAFETY helpers: the table buffers are pairwise disjoint (quadrants
    // of one allocation plus `&mut` workspace reborrows), so creating one
    // mutable and up to two shared slices is sound as long as the indices
    // differ — which every call site checks. A mutable slice over an
    // input-quadrant entry is only ever created under the in-place tier,
    // whose entry points hold exclusive operand borrows.
    unsafe fn slot_mut<'x, S, const N: usize>(
        t: &mut [(*mut S, usize); N],
        i: usize,
    ) -> &'x mut [S] {
        core::slice::from_raw_parts_mut(t[i].0, t[i].1)
    }
    unsafe fn slot_ref<'x, S, const N: usize>(t: &[(*mut S, usize); N], i: usize) -> &'x [S] {
        core::slice::from_raw_parts(t[i].0 as *const S, t[i].1)
    }

    /// Dispatches one `dst = lhs ± rhs` over a slot table with the
    /// aliasing discipline the schedules are tested to respect: `d == l`
    /// and `d == r` take the assign forms (one mutable reference),
    /// disjoint indices take the three-slice forms.
    unsafe fn add_step<S: Scalar, const N: usize>(
        t: &mut [(*mut S, usize); N],
        d: usize,
        l: usize,
        r: usize,
        kind: AddKind,
    ) {
        debug_assert!(!(d == l && d == r), "fully-aliased addition");
        if d == l {
            let dst_s = slot_mut(t, d);
            let rhs_s = slot_ref(t, r);
            match kind {
                AddKind::Add => add_assign_flat(dst_s, rhs_s),
                AddKind::Sub => sub_assign_flat(dst_s, rhs_s),
            }
        } else if d == r {
            let dst_s = slot_mut(t, d);
            let lhs_s = slot_ref(t, l);
            match kind {
                AddKind::Add => add_assign_flat(dst_s, lhs_s),
                AddKind::Sub => rsub_assign_flat(dst_s, lhs_s),
            }
        } else {
            let dst_s = slot_mut(t, d);
            let lhs_s = slot_ref(t, l);
            let rhs_s = slot_ref(t, r);
            match kind {
                AddKind::Add => add_flat(dst_s, lhs_s, rhs_s),
                AddKind::Sub => sub_flat(dst_s, lhs_s, rhs_s),
            }
        }
    }

    // Exclusive per-level time: the additions of this level's schedule
    // (the recursive multiplies attribute their own time to `li + 1`).
    let mut add_time = Duration::ZERO;
    let mut child_peak = 0usize;
    for &step in lp.steps {
        let t0 = if K::ENABLED && !matches!(step, Step::Mul { .. }) {
            Some(Instant::now())
        } else {
            None
        };
        match step {
            Step::AddA { dst, lhs, rhs, kind } => {
                let (d, l, r) = (dst.index(), lhs.index(), rhs.index());
                debug_assert!(
                    d == ASlot::TS.index() || sched.overwrites_inputs(),
                    "non-overwriting tier writes an A quadrant"
                );
                debug_assert!(
                    [d, l, r].iter().all(|&i| aslots[i].1 == qa),
                    "AddA references a slot this tier does not materialize"
                );
                // SAFETY: disjoint slots per the table invariant; the
                // schedules alias only via the assign forms.
                unsafe { add_step(&mut aslots, d, l, r, kind) }
            }
            Step::AddB { dst, lhs, rhs, kind } => {
                let (d, l, r) = (dst.index(), lhs.index(), rhs.index());
                debug_assert!(
                    d == BSlot::TT.index() || sched.overwrites_inputs(),
                    "non-overwriting tier writes a B quadrant"
                );
                debug_assert!(
                    [d, l, r].iter().all(|&i| bslots[i].1 == qb),
                    "AddB references a slot this tier does not materialize"
                );
                // SAFETY: as for AddA.
                unsafe { add_step(&mut bslots, d, l, r, kind) }
            }
            Step::AddC { dst, lhs, rhs, kind } => {
                let (d, l, r) = (dst.index(), lhs.index(), rhs.index());
                debug_assert!(
                    [d, l, r].iter().all(|&i| cslots[i].1 == qc),
                    "AddC references a slot this tier does not materialize"
                );
                // SAFETY: as for AddA.
                unsafe { add_step(&mut cslots, d, l, r, kind) }
            }
            Step::Mul { a: sa, b: sb, dst } => {
                let (ai, bi) = (sa.index(), sb.index());
                debug_assert!(
                    aslots[ai].1 == qa && bslots[bi].1 == qb && cslots[dst.index()].1 == qc,
                    "Mul references a slot this tier does not materialize"
                );
                // SAFETY: the destination is disjoint from every possible
                // operand (A/B buffers and the TS/TT workspace ranges).
                let cd = unsafe { slot_mut(&mut cslots, dst.index()) };
                // The child may overwrite (and restore) its own operand
                // view under the in-place tier, so it gets raw pointers —
                // under non-overwriting tiers it only reads them.
                let peak = unsafe {
                    exec_levels_raw(
                        aslots[ai].0,
                        bslots[bi].0,
                        cd,
                        ch,
                        levels,
                        li + 1,
                        child_ws,
                        policy,
                        sink,
                    )
                };
                child_peak = child_peak.max(peak);
            }
        }
        if let Some(t0) = t0 {
            add_time += t0.elapsed();
        }
    }
    if K::ENABLED {
        sink.record_level_time(li, add_time);
    }
    lp.slot_len + child_peak
}

// ---------------------------------------------------------------------------
// Task-DAG lowering (the compile side of the work-stealing executor)
// ---------------------------------------------------------------------------

/// Where a task operand or destination region lives: in the parallel
/// slab (`in_slab`) or at `off` in the corresponding Morton-packed
/// operand buffer (A regions resolve against the packed A buffer, B
/// against B, C against C).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Place {
    /// `true`: `off` indexes the slab; `false`: the operand's buffer.
    pub in_slab: bool,
    /// Element offset of the region start.
    pub off: usize,
}

/// The task flavors of the lowered DAG ([`crate::batch`]). The first four
/// are the compute tasks of one GEMM's Winograd recursion; the last four
/// make conversion and epilogue work ordinary dependency-counted tasks
/// that overlap with compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// `S1..S4` operand pre-additions of one Winograd node.
    SPre,
    /// `T1..T4` operand pre-additions of one Winograd node.
    TPre,
    /// The node's combination suffix (the `U` passes), gated on all
    /// seven product completions.
    Post,
    /// A serial subtree at the handover depth: `exec_levels_raw` on the
    /// subtree's own slab share.
    Leaf,
    /// Pack a Morton tile range of one item's A operand into its window
    /// slot. `TaskDesc::node` indexes [`TaskGraph::chunks`].
    ConvertA,
    /// Pack a Morton tile range of one item's B operand.
    ConvertB,
    /// Scatter a tile-column range of one item's Morton C result back to
    /// the strided output (with the α/β epilogue).
    Unpack,
    /// A zero-work join node (fan-in barrier) — e.g. "all of item *i*'s
    /// A-convert chunks are done" or "item *i* fully retired, its window
    /// slot may be reused".
    Gate,
}

/// One unit of conversion/epilogue work: a contiguous range of one
/// item's tiles (pack) or tile columns (unpack), bound to the window
/// slot the item occupies. Referenced by the conversion [`TaskKind`]s
/// through `TaskDesc::node`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchChunk {
    /// Batch item index.
    pub item: u32,
    /// In-flight window slot (`item % window`).
    pub slot: u32,
    /// Half-open unit range: Morton tile indices for `ConvertA`/
    /// `ConvertB`, tile-column indices for `Unpack`, `0..0` for `Gate`.
    pub r0: u32,
    pub r1: u32,
}

/// One dependency-counted task of the compiled DAG.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TaskDesc {
    pub kind: TaskKind,
    /// Index into [`TaskGraph::nodes`] for compute kinds, into
    /// [`TaskGraph::chunks`] for the conversion kinds.
    pub node: u32,
    /// Tasks that must complete before this one may run (the refcount
    /// the executor counts down).
    pub dep_count: u32,
    /// This task's dependents: `TaskGraph::dependents[dep_start..dep_start + dep_len]`.
    pub dep_start: u32,
    pub dep_len: u32,
}

/// One node of the parallel recursion: operand/destination regions plus
/// this node's slab share.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeDesc {
    /// Recursion level (= DAG depth); indexes the per-level layouts.
    pub level: u32,
    pub a: Place,
    pub b: Place,
    pub c: Place,
    /// Expanded nodes: start of the node's `S/T/P` temporaries (children
    /// slabs follow). Leaves: start of the subtree's serial arena.
    pub slab_off: usize,
    /// Leaves: the serial arena length ([`workspace_len`] of the
    /// subtree). Unused (0) for expanded nodes.
    pub ws_len: usize,
}

/// A batch of GEMMs lowered into dependency-counted tasks: conversion
/// chunks, every parallel recursion level of each item's flattened
/// schedule, and unpack chunks — the unit the work-stealing pool
/// executes. Compiled once at plan time; execution only resets
/// refcounts.
#[derive(Clone, Debug, Default)]
pub(crate) struct TaskGraph {
    pub tasks: Vec<TaskDesc>,
    pub nodes: Vec<NodeDesc>,
    /// Flat dependents array, indexed via `TaskDesc::{dep_start,dep_len}`.
    pub dependents: Vec<u32>,
    /// Tasks with no dependencies, in deterministic (DFS) order.
    pub roots: Vec<u32>,
    /// Slab elements the graph's places span (`window ·`
    /// [`parallel_slab_len`]).
    pub slab_len: usize,
    /// Conversion/epilogue work units, indexed by conversion-kind tasks'
    /// `node` field.
    pub chunks: Vec<BatchChunk>,
}

pub(crate) struct DagBuilder {
    /// `(kind, node, dep_count)` per task; edges resolved in `finish`.
    tasks: Vec<(TaskKind, u32, u32)>,
    nodes: Vec<NodeDesc>,
    chunks: Vec<BatchChunk>,
    /// `(task, dependent)` edges.
    edges: Vec<(u32, u32)>,
    policy: ExecPolicy,
}

impl DagBuilder {
    pub(crate) fn new(policy: ExecPolicy) -> Self {
        DagBuilder {
            tasks: Vec::new(),
            nodes: Vec::new(),
            chunks: Vec::new(),
            edges: Vec::new(),
            policy,
        }
    }

    pub(crate) fn task(&mut self, kind: TaskKind, node: u32, deps: &[Option<u32>]) -> u32 {
        let id = self.tasks.len() as u32;
        let mut count = 0;
        for &dep in deps.iter().flatten() {
            self.edges.push((dep, id));
            count += 1;
        }
        self.tasks.push((kind, node, count));
        id
    }

    /// A conversion-kind task over work unit `chunk` (same dependency
    /// semantics as [`Self::task`], but `node` indexes
    /// [`TaskGraph::chunks`]).
    pub(crate) fn chunk_task(
        &mut self,
        kind: TaskKind,
        chunk: BatchChunk,
        deps: &[Option<u32>],
    ) -> u32 {
        let id = self.chunks.len() as u32;
        self.chunks.push(chunk);
        self.task(kind, id, deps)
    }

    /// Lowers the subtree at `layouts` with `rem` parallel levels left.
    /// `a_ready`/`b_ready` gate the operand regions (the item's convert
    /// gates at the root); returns the task whose completion means the
    /// subtree's `c` region holds its product.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_node(
        &mut self,
        layouts: NodeLayouts,
        level: u32,
        rem: usize,
        a: Place,
        b: Place,
        c: Place,
        slab_off: usize,
        a_ready: Option<u32>,
        b_ready: Option<u32>,
    ) -> u32 {
        if rem == 0 || !staged_step(layouts, self.policy) {
            let ws_len = workspace_len(layouts, self.policy);
            let node = self.nodes.len() as u32;
            self.nodes.push(NodeDesc { level, a, b, c, slab_off, ws_len });
            return self.task(TaskKind::Leaf, node, &[a_ready, b_ready]);
        }
        let ch = layouts.child();
        let (qa, qb, qc) =
            (layouts.a.quadrant_len(), layouts.b.quadrant_len(), layouts.c.quadrant_len());
        let node = self.nodes.len() as u32;
        self.nodes.push(NodeDesc { level, a, b, c, slab_off, ws_len: 0 });
        let spre = self.task(TaskKind::SPre, node, &[a_ready]);
        let tpre = self.task(TaskKind::TPre, node, &[b_ready]);

        // Slab carving, byte-identical to the closed-form
        // [`parallel_slab_len`] model: s1..s4, t1..t4, p1/p2/p5, then the
        // seven child slabs in product order.
        let per_node = 4 * qa + 4 * qb + 3 * qc;
        let child_len = parallel_slab_len(ch, self.policy, rem - 1);
        let slab = |off: usize| Place { in_slab: true, off };
        let sq = |i: usize| slab(slab_off + i * qa);
        let tq = |i: usize| slab(slab_off + 4 * qa + i * qb);
        let pq = |i: usize| slab(slab_off + 4 * qa + 4 * qb + i * qc);
        let aq = |i: usize| Place { in_slab: a.in_slab, off: a.off + i * qa };
        let bq = |i: usize| Place { in_slab: b.in_slab, off: b.off + i * qb };
        let cq = |i: usize| Place { in_slab: c.in_slab, off: c.off + i * qc };
        let wj = |j: usize| slab_off + per_node + j * child_len;

        // Under the in-place tier a *leaf* child's serial subtree writes
        // (and restores) its raw operand quadrants mid-flight, so any
        // child reading a raw A/B quadrant must additionally wait for the
        // other reader of those quadrants — this node's own SPre/TPre
        // pre-adds — before it may start scribbling on them. The slab
        // S/T temporaries are safe either way: each has exactly one
        // reader. Non-overwriting tiers keep the original (wider)
        // parallelism.
        let overwrites = self.policy.sched().overwrites_inputs();
        let (raw_a, raw_b) = if overwrites { (Some(spre), Some(tpre)) } else { (a_ready, b_ready) };

        // The seven products with the same placement as the scoped-thread
        // executor had (P1/P2/P5 into slab temporaries, the rest straight
        // into the C quadrants), each gated on exactly the tasks that
        // write — or, in-place, also read — its operands.
        let children = [
            (aq(0), bq(0), pq(0), raw_a, raw_b),           // P1 = A11·B11
            (aq(1), bq(2), pq(1), raw_a, raw_b),           // P2 = A12·B21
            (sq(0), tq(0), cq(3), Some(spre), Some(tpre)), // P3 = S1·T1 → C22
            (sq(1), tq(1), cq(0), Some(spre), Some(tpre)), // P4 = S2·T2 → C11
            (sq(2), tq(2), pq(2), Some(spre), Some(tpre)), // P5 = S3·T3
            (sq(3), bq(3), cq(1), Some(spre), raw_b),      // P6 = S4·B22 → C12
            (aq(3), tq(3), cq(2), raw_a, Some(tpre)),      // P7 = A22·T4 → C21
        ];
        let mut products = [None; 7];
        for (j, (ca, cb, cc, ra, rb)) in children.into_iter().enumerate() {
            products[j] = Some(self.build_node(ch, level + 1, rem - 1, ca, cb, cc, wj(j), ra, rb));
        }
        self.task(TaskKind::Post, node, &products)
    }

    pub(crate) fn finish(self) -> TaskGraph {
        let n = self.tasks.len();
        let mut dep_lens = vec![0u32; n];
        for &(from, _) in &self.edges {
            dep_lens[from as usize] += 1;
        }
        let mut starts = vec![0u32; n];
        let mut acc = 0u32;
        for (start, len) in starts.iter_mut().zip(&dep_lens) {
            *start = acc;
            acc += len;
        }
        let mut dependents = vec![0u32; self.edges.len()];
        let mut cursors = starts.clone();
        for &(from, to) in &self.edges {
            let c = &mut cursors[from as usize];
            dependents[*c as usize] = to;
            *c += 1;
        }
        let tasks: Vec<TaskDesc> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, &(kind, node, dep_count))| TaskDesc {
                kind,
                node,
                dep_count,
                dep_start: starts[i],
                dep_len: dep_lens[i],
            })
            .collect();
        let roots: Vec<u32> = tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.dep_count == 0)
            .map(|(i, _)| i as u32)
            .collect();
        TaskGraph { tasks, nodes: self.nodes, dependents, roots, slab_len: 0, chunks: self.chunks }
    }
}

/// Closed-form size (in elements) of the slab the task DAG carves for a
/// node of `layouts` under `policy` with `par_depth` parallel levels: per
/// parallel Winograd level, 8 operand temporaries (`S1..S4` of `qa`
/// elements, `T1..T4` of `qb`) plus 3 product temporaries (`P1`, `P2`,
/// `P5` of `qc`), then seven child slabs; at the serial handover, one
/// [`workspace_len`] arena per subtree.
pub fn parallel_slab_len(layouts: NodeLayouts, policy: ExecPolicy, par_depth: usize) -> usize {
    if par_depth == 0 || !staged_step(layouts, policy) || policy.variant != Variant::Winograd {
        return workspace_len(layouts, policy);
    }
    let per_node =
        4 * layouts.a.quadrant_len() + 4 * layouts.b.quadrant_len() + 3 * layouts.c.quadrant_len();
    per_node + 7 * parallel_slab_len(layouts.child(), policy, par_depth - 1)
}

/// The parallel DAG depth a plan will actually execute with under `cfg`
/// on `threads` resolved workers — `0` means "run serially".
///
/// This is where the memory budget meets the parallel slab: the serial
/// recursion depth was already budget-capped by
/// [`crate::exec::budget_capped_policy`] against [`workspace_len`], but
/// parallel execution multiplies workspace across concurrent subtrees
/// ([`parallel_slab_len`]). A tight budget therefore caps the *DAG
/// depth* (worker parallelism) first, stepping `par_depth` down until
/// the slab fits, and only falls back to fully-serial execution — never
/// to a shallower Strassen recursion — when even one parallel level is
/// too big.
pub(crate) fn effective_par_depth<S: Scalar>(
    layouts: NodeLayouts,
    policy: ExecPolicy,
    cfg: &ModgemmConfig,
    threads: usize,
) -> usize {
    if cfg.parallel_depth == 0 || threads < 2 {
        return 0;
    }
    if policy.variant != Variant::Winograd || !staged_step(layouts, policy) {
        return 0;
    }
    let budget = cfg.memory_budget.max_elements(core::mem::size_of::<S>());
    // Only the *staged* levels lower to DAG nodes: a fused subtree runs
    // sequentially inside its Leaf task.
    let mut depth = cfg.parallel_depth.min(crate::counts::staged_levels(layouts, policy));
    while depth > 0 && parallel_slab_len(layouts, policy, depth) > budget {
        depth -= 1;
    }
    depth
}

/// The A/B Morton operands of a [`TiledPlan::run`]. The borrow kind
/// carries the operand-provenance rule: only exclusive borrows may back a
/// plan whose schedule overwrites (and restores) its inputs.
pub(crate) enum Operands<'x, S> {
    /// Shared borrows, for plans whose schedule never writes A or B.
    Shared(&'x [S], &'x [S]),
    /// Exclusive borrows, legal for every schedule tier.
    Exclusive(&'x mut [S], &'x mut [S]),
}

/// The compiled compute stage of a tiled (non-split) problem: the fixed
/// layout tree, budget-capped policy, flattened level list, the serial
/// arena size, and the DAG depth the pool runs it at. [`TiledPlan::run`]
/// is the serial path from Morton buffers to the interpreter; pooled
/// plans lower a task DAG from these fields
/// ([`crate::batch::build_dag`]).
#[derive(Clone, Debug)]
pub(crate) struct TiledPlan {
    pub(crate) layouts: NodeLayouts,
    pub(crate) policy: ExecPolicy,
    pub(crate) levels: Vec<LevelPlan>,
    /// Serial workspace arena, in elements ([`workspace_len`]).
    pub(crate) arena_len: usize,
    /// Resolved worker count ([`crate::pool::resolve_threads`] at plan
    /// time).
    pub(crate) threads: usize,
    /// Parallel recursion levels the task DAG lowers
    /// ([`effective_par_depth`]); `0` when a single GEMM runs serially
    /// (`parallel_depth == 0`, one thread, a non-Winograd schedule, or a
    /// budget that only admits the serial arena).
    pub(crate) par_depth: usize,
    pub(crate) facts: PlanFacts,
}

impl TiledPlan {
    /// Compiles the compute stage for `layouts` under `policy` (already
    /// budget-capped and tier-capped by the caller): flattens the staged
    /// levels, sizes the serial arena, and fixes the DAG depth `cfg`'s
    /// budget admits.
    pub(crate) fn new<S: Scalar>(
        layouts: NodeLayouts,
        policy: ExecPolicy,
        cfg: &ModgemmConfig,
    ) -> Self {
        let mut levels = vec![LevelPlan::EMPTY; MAX_LEVELS];
        let count = fill_levels(&mut levels, layouts, policy);
        levels.truncate(count);
        let threads = resolve_threads(cfg.threads);
        let par_depth = effective_par_depth::<S>(layouts, policy, cfg, threads);
        let (pm, pk, pn) = layouts.dims();
        let facts = PlanFacts {
            padded: (pm, pk, pn),
            depth: layouts.a.depth,
            strassen_levels: crate::counts::strassen_levels(layouts, policy),
            fused_levels: fused_levels(layouts, policy),
            schedule: policy.sched(),
            flops: crate::counts::strassen_flops(layouts, policy),
            conventional_flops: crate::counts::conventional_flops(pm, pk, pn),
        };
        TiledPlan {
            layouts,
            policy,
            levels,
            arena_len: workspace_len(layouts, policy),
            threads,
            par_depth,
            facts,
        }
    }

    /// The serial compute stage: `C = A·B` over Morton buffers on the
    /// schedule interpreter. `ws` must hold at least `arena_len`
    /// elements; its contents are clobbered and need not be zeroed.
    ///
    /// Reports the plan facts, the workspace reservation and its measured
    /// occupancy, the kernel, packing traffic and per-level times through
    /// `sink`. The interpreter is not interruptible mid-recursion: it
    /// checks `cancel` once, before computing.
    pub(crate) fn run<S: Scalar, K: MetricsSink>(
        &self,
        operands: Operands<'_, S>,
        c: &mut [S],
        ws: &mut [S],
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        let (a, b, a_len, b_len) = match operands {
            Operands::Shared(a, b) => {
                // A shared borrow must never be written through.
                assert!(
                    !self.policy.sched().overwrites_inputs(),
                    "the in-place schedule needs exclusive operands"
                );
                (a.as_ptr().cast_mut(), b.as_ptr().cast_mut(), a.len(), b.len())
            }
            Operands::Exclusive(a, b) => (a.as_mut_ptr(), b.as_mut_ptr(), a.len(), b.len()),
        };
        check_buffers(a_len, b_len, c.len(), self.layouts)?;
        let elem = core::mem::size_of::<S>();
        if K::ENABLED {
            sink.record_plan(self.facts);
            sink.record_workspace(self.arena_len, self.arena_len * elem);
            // Auto was resolved at plan time; the stored kind is concrete.
            sink.record_kernel(self.policy.kernel);
            sink.record_bytes_packed(crate::counts::packed_bytes(self.layouts, self.policy, elem));
        }
        if let Some(token) = cancel {
            token.check()?;
        }
        let arena = &mut ws[..self.arena_len];
        // SAFETY: `a`/`b` span the full operand buffers (checked above)
        // and stay borrowed, unaliased, for the call. They carry
        // write-capable provenance whenever the schedule overwrites its
        // inputs: the `Shared` arm rejected that case.
        let peak = unsafe {
            exec_levels_raw(a, b, c, self.layouts, &self.levels, 0, arena, self.policy, sink)
        };
        debug_assert_eq!(
            peak, self.arena_len,
            "measured peak workspace disagrees with the planned arena"
        );
        if K::ENABLED {
            sink.record_workspace_used(peak, peak * elem);
        }
        Ok(())
    }
}

/// A precompiled MODGEMM execution plan for one `m × k × n` problem
/// shape under one [`ModgemmConfig`].
///
/// Build once with [`GemmPlan::try_new`], execute repeatedly with
/// [`GemmPlan::execute`] / [`GemmPlan::try_execute`]: planning runs
/// the truncation-point search, fixes the layout tree, flattens the
/// schedule, and sizes the workspace arena; execution against a warm
/// [`GemmContext`] is then allocation-free on the hot path. The type
/// parameter is the scalar the plan will execute over — the memory budget
/// caps the recursion depth in *bytes*, so the element size is a
/// plan-time input.
#[derive(Clone, Debug)]
pub struct GemmPlan<S> {
    m: usize,
    k: usize,
    n: usize,
    cfg: ModgemmConfig,
    /// `None` when the problem is degenerate (a zero dimension) or too
    /// rectangular for a joint tiling; execution then early-outs or runs
    /// the §3.5 submatrix split (each sub-product planning itself).
    strategy: Option<TiledPlan>,
    /// The pooled task DAG, a batch of one: present when the strategy's
    /// DAG depth is at least 1 (which implies two or more workers).
    dag: Option<BatchDag>,
    /// True when a tuning profile (or forced choice) drove plan
    /// selection — reported through [`MetricsSink::record_tuning`] on
    /// every execution.
    profile_hit: bool,
    _marker: PhantomData<fn() -> S>,
}

impl<S: Scalar> GemmPlan<S> {
    /// Builds a plan for an `m × k × n` problem under `cfg` — the plan
    /// half of the plan/execute split: validates `cfg`, runs the
    /// truncation-point search, and compiles the layout tree, flattened
    /// schedule, arena offsets and, for a pooled plan, the task DAG.
    pub fn try_new(m: usize, k: usize, n: usize, cfg: &ModgemmConfig) -> Result<Self, GemmError> {
        cfg.validate()?;
        // Tuning resolves here, at the single plan-compilation choke
        // point: the effective configuration (config > profile > static
        // heuristic, see `crate::tune`) drives every plan-time decision
        // below, while the *original* config — including its
        // `TuningMode` — is what the plan stores, so §3.5 split
        // sub-plans re-consult the profile at their own sub-shapes. A
        // corrupt profile file surfaces typed here, before any layout
        // work.
        let (eff, profile_hit) = crate::tune::effective_config(cfg, m, k, n)?;
        // Resolve workers fallibly up front so a malformed
        // `MODGEMM_THREADS` surfaces as `InvalidConfig` here instead of
        // being silently ignored deep in the executor.
        crate::pool::try_resolve_threads(eff.threads)?;
        let strategy = if m == 0 || k == 0 || n == 0 {
            // Degenerate problems never reach an executor; the early-outs
            // in `try_execute_with_metrics` handle them.
            None
        } else {
            eff.plan(m, k, n).map(|tiling| {
                let layouts = layouts_of(&tiling);
                TiledPlan::new::<S>(layouts, capped_policy::<S>(layouts, &eff), &eff)
            })
        };
        let dag =
            strategy.as_ref().filter(|tp| tp.par_depth > 0).and_then(|tp| build_dag(tp, 1, 1));
        Ok(Self { m, k, n, cfg: *cfg, strategy, dag, profile_hit, _marker: PhantomData })
    }

    /// True when a tuning profile entry (or a
    /// [`crate::tune::TuningMode::Forced`] choice) drove this plan's
    /// selection; false when the static heuristics alone did. Also
    /// reported through [`MetricsSink::record_tuning`] on every
    /// execution.
    pub fn profile_hit(&self) -> bool {
        self.profile_hit
    }

    /// The logical problem dimensions `(m, k, n)` this plan was compiled
    /// for.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.k, self.n)
    }

    /// The configuration the plan was compiled under.
    pub fn config(&self) -> &ModgemmConfig {
        &self.cfg
    }

    /// True when no joint tiling exists and execution will run the §3.5
    /// submatrix split (each sub-product plans itself per call).
    pub fn is_split(&self) -> bool {
        self.strategy.is_none() && self.m > 0 && self.k > 0 && self.n > 0
    }

    /// Elements of the workspace arena an execution will carve from the
    /// context: the serial arena, or the task DAG's slab when
    /// `parallel_depth > 0`. Zero for split or degenerate plans.
    pub fn arena_len(&self) -> usize {
        match (&self.dag, &self.strategy) {
            (Some(dag), _) => dag.slab_len(),
            (None, Some(tp)) => tp.arena_len,
            (None, None) => 0,
        }
    }

    /// Effective parallel recursion depth the compiled plan will execute
    /// with — `0` when execution is serial. May be lower than the
    /// configured [`crate::ModgemmConfig::parallel_depth`] when the
    /// memory budget caps the parallel slab (worker parallelism degrades
    /// before recursion depth does) or when only one thread is resolved.
    pub fn parallel_depth(&self) -> usize {
        self.strategy.as_ref().map_or(0, |tp| tp.par_depth)
    }

    /// Worker count the plan resolved at compile time
    /// ([`crate::pool::resolve_threads`] over
    /// [`crate::ModgemmConfig::threads`]).
    pub fn threads(&self) -> usize {
        self.strategy
            .as_ref()
            .map_or_else(|| crate::pool::resolve_threads(self.cfg.threads), |tp| tp.threads)
    }

    /// Strassen levels the compiled recursion takes — staged *and* fused
    /// (zero for split, degenerate, or fully conventional plans).
    pub fn strassen_levels(&self) -> usize {
        self.strategy.as_ref().map_or(0, |tp| tp.facts.strassen_levels)
    }

    /// Innermost Strassen levels the compiled plan runs fused — no S/T
    /// arena slots; pre-adds in packing, post-merges in the scatter
    /// epilogue ([`crate::fuse`]). Zero for staged, split, degenerate,
    /// or fully conventional plans.
    pub fn fused_levels(&self) -> usize {
        self.strategy.as_ref().map_or(0, |tp| tp.facts.fused_levels)
    }

    /// Memory tier of the recursion-step linearization the compiled plan
    /// runs (see [`crate::schedule::Schedule`] and the budget ladder in
    /// [`crate::config::SchedulePolicy`]). `Standard` for split,
    /// degenerate, or fully conventional plans.
    pub fn schedule(&self) -> crate::schedule::Schedule {
        self.strategy.as_ref().map_or(crate::schedule::Schedule::Standard, |tp| tp.facts.schedule)
    }

    /// Task count of the compiled parallel DAG (conversion and unpack
    /// chunks included) — the cooperative cancellation granularity: a
    /// [`CancelToken`] is observed at every task-dequeue boundary, so a
    /// cancel or deadline expiry is noticed within one task's work. `0`
    /// when the plan executes serially (the serial interpreter checks the
    /// token once, before computing).
    pub fn parallel_tasks(&self) -> usize {
        self.dag.as_ref().map_or(0, BatchDag::tasks)
    }

    fn arena_bytes(&self) -> u64 {
        (self.arena_len() * core::mem::size_of::<S>()) as u64
    }

    /// The compiled tiled strategy, when one exists (None for degenerate
    /// or §3.5-split shapes). [`crate::batch`] builds its whole-batch DAG
    /// from these internals.
    pub(crate) fn tiled(&self) -> Option<&TiledPlan> {
        self.strategy.as_ref()
    }

    /// `C = A·B` through the plan (`α = 1`, `β = 0`, untransposed
    /// operands) — the hot-path signature of the plan/execute split.
    ///
    /// # Panics
    /// On the conditions [`GemmPlan::try_execute`] reports as errors
    /// (including operands whose dimensions differ from the planned
    /// shape).
    #[track_caller]
    pub fn execute(
        &self,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        c: MatMut<'_, S>,
        ctx: &mut GemmContext<S>,
    ) {
        if let Err(e) = self.try_execute(S::ONE, Op::NoTrans, a, Op::NoTrans, b, S::ZERO, c, ctx) {
            panic!("{e}");
        }
    }

    /// Full-generality fallible execution:
    /// `C ← α·op(A)·op(B) + β·C` through the plan.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute(
        &self,
        alpha: S,
        op_a: Op,
        a: MatRef<'_, S>,
        op_b: Op,
        b: MatRef<'_, S>,
        beta: S,
        c: MatMut<'_, S>,
        ctx: &mut GemmContext<S>,
    ) -> Result<GemmBreakdown, GemmError> {
        self.try_execute_with_metrics(alpha, op_a, a, op_b, b, beta, c, ctx, &mut NoopSink)
    }

    /// [`GemmPlan::try_execute`] reporting execution metrics through
    /// `sink` (see [`crate::metrics`]): the problem, the plan-execution
    /// event (arena bytes), plan facts, per-level times, temp-allocation
    /// accounting (zero on a warm context — the allocation-free hot
    /// path), and the conversion/compute breakdown.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_with_metrics<K: MetricsSink>(
        &self,
        alpha: S,
        op_a: Op,
        a: MatRef<'_, S>,
        op_b: Op,
        b: MatRef<'_, S>,
        beta: S,
        c: MatMut<'_, S>,
        ctx: &mut GemmContext<S>,
        sink: &mut K,
    ) -> Result<GemmBreakdown, GemmError> {
        self.try_execute_impl(alpha, op_a, a, op_b, b, beta, c, ctx, None, sink)
    }

    /// [`GemmPlan::try_execute_with_metrics`] under a cooperative
    /// [`CancelToken`] — the execution primitive of
    /// [`crate::service::GemmService`].
    ///
    /// The token is checked once up front (an already-cancelled token or
    /// an already-expired deadline is rejected *before any allocation or
    /// packing*) and then at every task-dequeue boundary of the parallel
    /// DAG, so an in-flight cancel is observed within roughly one task's
    /// work. On [`GemmError::Cancelled`] / [`GemmError::DeadlineExceeded`]
    /// the DAG drains fully before returning — no task is left running —
    /// and `ctx` remains warm and reusable: the next execute on it is
    /// allocation-free and correct. Output `c` contents are unspecified
    /// after a cancelled call.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_cancellable_with_metrics<K: MetricsSink>(
        &self,
        alpha: S,
        op_a: Op,
        a: MatRef<'_, S>,
        op_b: Op,
        b: MatRef<'_, S>,
        beta: S,
        c: MatMut<'_, S>,
        ctx: &mut GemmContext<S>,
        cancel: &CancelToken,
        sink: &mut K,
    ) -> Result<GemmBreakdown, GemmError> {
        self.try_execute_impl(alpha, op_a, a, op_b, b, beta, c, ctx, Some(cancel), sink)
    }

    #[allow(clippy::too_many_arguments)]
    fn try_execute_impl<K: MetricsSink>(
        &self,
        alpha: S,
        op_a: Op,
        a: MatRef<'_, S>,
        op_b: Op,
        b: MatRef<'_, S>,
        beta: S,
        mut c: MatMut<'_, S>,
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<GemmBreakdown, GemmError> {
        let (m, ka) = op_a.apply_dims(a.rows(), a.cols());
        let (kb, n) = op_b.apply_dims(b.rows(), b.cols());
        if ka != kb {
            return Err(GemmError::InnerDimMismatch { a_cols: ka, b_rows: kb });
        }
        if c.dims() != (m, n) {
            return Err(GemmError::OutputDimMismatch { expected: (m, n), got: c.dims() });
        }
        if (m, ka, n) != (self.m, self.k, self.n) {
            return Err(GemmError::PlanShapeMismatch {
                planned: (self.m, self.k, self.n),
                got: (m, ka, n),
            });
        }
        // An already-cancelled token or already-expired deadline is
        // rejected here, before any snapshot, packing, or allocation.
        if let Some(token) = cancel {
            token.check()?;
        }
        let k = ka;
        if K::ENABLED {
            sink.record_problem(m, k, n);
            sink.record_plan_execution(self.arena_bytes());
            sink.record_tuning(self.profile_hit);
        }

        if m == 0 || n == 0 {
            return Ok(GemmBreakdown::default());
        }
        if k == 0 || alpha == S::ZERO {
            scale_in_place(beta, &mut c);
            return Ok(GemmBreakdown::default());
        }

        if self.cfg.non_finite != NonFinitePolicy::Propagate {
            let bad = if has_non_finite(a) {
                Some(Operand::A)
            } else if has_non_finite(b) {
                Some(Operand::B)
            } else {
                None
            };
            if let Some(operand) = bad {
                return match self.cfg.non_finite {
                    NonFinitePolicy::Reject => Err(GemmError::NonFiniteInput { operand }),
                    // IEEE semantics of the conventional inner products,
                    // with none of Strassen's NaN-manufacturing
                    // reassociation.
                    NonFinitePolicy::FallbackConventional => {
                        naive_gemm(alpha, op_a, a, op_b, b, beta, c);
                        Ok(GemmBreakdown::default())
                    }
                    NonFinitePolicy::Propagate => unreachable!("checked above"),
                };
            }
        }

        // Snapshot C₀ before the fast path clobbers it: the Freivalds
        // check verifies against it, and the conventional retry restarts
        // from it.
        let c0: Option<Matrix<S>> = if matches!(self.cfg.verify, VerifyMode::Freivalds { .. }) {
            let buf = try_zeroed_vec::<S>(m * n)?;
            let mut snap = Matrix::from_vec(buf, m, n);
            snap.view_mut().copy_from(c.as_ref());
            Some(snap)
        } else {
            None
        };

        // Sub-products of a rectangular split skip the per-call scans;
        // this level already scanned the whole operands and verifies the
        // whole C.
        let inner_cfg = ModgemmConfig {
            verify: VerifyMode::Off,
            non_finite: NonFinitePolicy::Propagate,
            ..self.cfg
        };
        let bd = match &self.strategy {
            Some(tp) => {
                let bd = self.execute_tiled(
                    tp,
                    alpha,
                    op_a,
                    a,
                    op_b,
                    b,
                    beta,
                    c.reborrow(),
                    ctx,
                    cancel,
                    sink,
                )?;
                if K::ENABLED {
                    sink.record_breakdown(&bd);
                }
                bd
            }
            None => {
                // Highly rectangular: split into well-behaved products
                // (each sub-product builds its own one-shot plan and
                // reuses the same context sequentially). Cancellation
                // granularity here is the whole split — the sub-products
                // run the non-cancellable serial pipeline.
                if let Some(token) = cancel {
                    token.check()?;
                }
                let mut total = GemmBreakdown::default();
                rect::split_gemm(
                    alpha,
                    op_a,
                    a,
                    op_b,
                    b,
                    beta,
                    c.reborrow(),
                    &inner_cfg,
                    ctx,
                    sink,
                    &mut |bd| total.accumulate(bd),
                )?;
                // Sub-products each recorded their own breakdown through
                // `sink`; only the aggregate is returned here.
                total
            }
        };

        if let VerifyMode::Freivalds { rounds, seed } = self.cfg.verify {
            let c0 = c0.as_ref().expect("snapshot exists when verification is on");
            let mut rounds_now = rounds;
            let mut seed_now = seed;
            let mut attempt = 0u32;
            while !verify_gemm(
                alpha,
                op_a,
                a,
                op_b,
                b,
                beta,
                c0.view(),
                c.as_ref(),
                rounds_now,
                seed_now,
            ) {
                if attempt >= self.cfg.verify_retries {
                    return Err(GemmError::VerificationFailed { rounds: rounds_now });
                }
                attempt += 1;
                // Verified retry: restore C₀, recompute with the
                // conventional baseline, and re-check under a fresh probe
                // seed with exponentially escalated rounds (capped).
                rounds_now = rounds_now.saturating_mul(2).min(MAX_VERIFY_ROUNDS);
                seed_now = seed_now.wrapping_add(0x9E37_79B9_7F4A_7C15);
                c.copy_from(c0.view());
                naive_gemm(alpha, op_a, a, op_b, b, beta, c.reborrow());
            }
        }
        Ok(bd)
    }

    /// The tiled fast path. A pooled plan runs its task DAG on a
    /// one-entry item table (conversion chunks, compute, α/β unpack
    /// chunks), reporting the DAG's wall time as `compute`; a serial plan
    /// packs, runs the interpreter, and unpacks. All buffers come from
    /// `ctx`; any growth is recorded as temp allocations, so a warm
    /// context records none — the allocation-free hot path.
    #[allow(clippy::too_many_arguments)]
    fn execute_tiled<K: MetricsSink>(
        &self,
        tp: &TiledPlan,
        alpha: S,
        op_a: Op,
        a: MatRef<'_, S>,
        op_b: Op,
        b: MatRef<'_, S>,
        beta: S,
        mut c: MatMut<'_, S>,
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<GemmBreakdown, GemmError> {
        if let Some(dag) = &self.dag {
            let item = [ItemIo {
                a: a.as_ptr(),
                lda: a.ld(),
                b: b.as_ptr(),
                ldb: b.ld(),
                c: c.as_mut_ptr(),
                ldc: c.ld(),
            }];
            let t0 = Instant::now();
            // SAFETY: the views are the validated operands of this plan's
            // shape, borrowed for the whole call; `c` is an exclusive
            // borrow, so it aliases neither `a` nor `b`.
            unsafe {
                dag.run(
                    tp,
                    self.dims(),
                    op_a,
                    op_b,
                    alpha,
                    beta,
                    BatchInput::Items(&item),
                    ctx,
                    cancel,
                    sink,
                )
            }?;
            return Ok(GemmBreakdown { compute: t0.elapsed(), ..GemmBreakdown::default() });
        }
        let layouts = tp.layouts;
        let old_lens = ctx.lens();

        let t0 = Instant::now();
        let abuf = try_grow(&mut ctx.a_buf, layouts.a.len())?;
        let bbuf = try_grow(&mut ctx.b_buf, layouts.b.len())?;
        to_morton(a, op_a, &layouts.a, abuf);
        to_morton(b, op_b, &layouts.b, bbuf);
        let convert_in = t0.elapsed();

        let t1 = Instant::now();
        let cbuf = try_grow(&mut ctx.c_buf, layouts.c.len())?;
        let ws = try_grow(&mut ctx.ws, tp.arena_len)?;
        // The context owns its packed buffers, so every tier may run.
        tp.run(Operands::Exclusive(abuf, bbuf), cbuf, ws, cancel, sink)?;
        let compute = t1.elapsed();
        ctx.record_growth(old_lens, sink);

        crate::faults::maybe_poison(&mut ctx.c_buf[..layouts.c.len()]);
        let cbuf = &ctx.c_buf[..layouts.c.len()];
        let t2 = Instant::now();
        if alpha == S::ONE && beta == S::ZERO {
            from_morton(cbuf, &layouts.c, c);
        } else {
            from_morton_axpby(cbuf, &layouts.c, alpha, beta, c.reborrow());
        }
        let convert_out = t2.elapsed();

        Ok(GemmBreakdown { convert_in, compute, convert_out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Truncation;
    use crate::gemm::modgemm;
    use crate::metrics::CollectingSink;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::KernelKind;
    use modgemm_morton::MortonLayout;

    #[test]
    fn arena_layout_matches_closed_form_model() {
        // Satellite check: the flattened arena and the closed-form
        // counts/workspace model agree at every recursion level, for
        // every schedule tier.
        for sched in Schedule::ALL {
            for (tile, depth, strassen_min) in
                [(4usize, 3usize, 0usize), (4, 3, 8), (33, 4, 0), (5, 2, 1 << 20), (16, 1, 0)]
            {
                let l = MortonLayout::new(tile, tile, depth);
                let layouts = NodeLayouts::new(l, l, l);
                let policy = ExecPolicy { strassen_min, schedule: sched, ..ExecPolicy::default() };
                let mut buf = [LevelPlan::EMPTY; MAX_LEVELS];
                let count = fill_levels(&mut buf, layouts, policy);
                assert_eq!(count, crate::counts::strassen_levels(layouts, policy));

                let mut off = 0usize;
                let mut node = layouts;
                for lp in &buf[..count] {
                    assert_eq!(lp.arena_offset, off, "offsets must be the prefix sums");
                    let (qa, qb, qc) =
                        (node.a.quadrant_len(), node.b.quadrant_len(), node.c.quadrant_len());
                    // Spell out the per-tier closed forms rather than
                    // round-tripping through level_temp_elems.
                    let expect = match sched {
                        Schedule::Standard => qa + qb + 2 * qc,
                        Schedule::LowMem => qa + qb + qc,
                        Schedule::InPlace => qc,
                    };
                    assert_eq!(lp.slot_len, expect, "{sched:?}");
                    assert_eq!(
                        lp.slot_len,
                        crate::counts::schedule_level_extra_elems(sched, node),
                        "{sched:?}: counts closed form drifted from the arena"
                    );
                    assert_eq!(lp.steps, crate::schedule::steps_for(policy.variant, sched));
                    off += lp.slot_len;
                    node = node.child();
                }
                assert_eq!(
                    off,
                    workspace_len(layouts, policy),
                    "{sched:?}: arena must equal workspace_len"
                );
            }
        }

        // Acceptance pin: the in-place arena is *exactly* the sum of the
        // per-level `qc` closed forms — at tile 4 / depth 3 that is
        // 256 + 64 + 16 = 336 elements (Blocked kernel, no packing tail).
        let l = MortonLayout::new(4, 4, 3);
        let layouts = NodeLayouts::new(l, l, l);
        let ip = ExecPolicy { schedule: Schedule::InPlace, ..ExecPolicy::default() };
        assert_eq!(workspace_len(layouts, ip), 336);
        let std = ExecPolicy::default();
        let lm = ExecPolicy { schedule: Schedule::LowMem, ..ExecPolicy::default() };
        assert_eq!(workspace_len(layouts, std), 1344);
        assert_eq!(workspace_len(layouts, lm), 1008);
    }

    #[test]
    fn planned_execute_matches_one_shot_exactly() {
        let cfg = ModgemmConfig::default();
        for (m, k, n, seed) in
            [(64usize, 64usize, 64usize, 1u64), (100, 80, 90, 2), (129, 65, 97, 3)]
        {
            let a: Matrix<i64> = random_matrix(m, k, seed);
            let b: Matrix<i64> = random_matrix(k, n, seed + 10);
            let p: GemmPlan<i64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
            let mut ctx = GemmContext::new();
            let mut c_planned: Matrix<i64> = Matrix::zeros(m, n);
            p.execute(a.view(), b.view(), c_planned.view_mut(), &mut ctx);
            let mut c_oneshot: Matrix<i64> = Matrix::zeros(m, n);
            modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c_oneshot.view_mut(), &cfg);
            assert_eq!(c_planned, c_oneshot, "{m}x{k}x{n}");
            assert_eq!(c_planned, naive_product(&a, &b));
        }
    }

    #[test]
    fn second_execution_on_warm_context_is_allocation_free() {
        // The acceptance criterion: temp_alloc_bytes == 0 on the second
        // execution with a reused GemmContext — for every leaf kernel,
        // including Packed (whose panel buffers must come from the plan
        // arena, never a fresh allocation) and Auto.
        for leaf_kernel in [KernelKind::Blocked, KernelKind::Packed, KernelKind::Auto] {
            let cfg = ModgemmConfig { leaf_kernel, ..Default::default() };
            let (m, k, n) = (150usize, 150usize, 150usize);
            let a: Matrix<f64> = random_matrix(m, k, 5);
            let b: Matrix<f64> = random_matrix(k, n, 6);
            let p: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
            let mut ctx = GemmContext::new();
            let mut c: Matrix<f64> = Matrix::zeros(m, n);

            // Cold run: the context grows, which must be *reported*.
            let mut cold = CollectingSink::new();
            p.try_execute_with_metrics(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &mut ctx,
                &mut cold,
            )
            .unwrap();
            assert!(
                cold.metrics.temp_alloc_bytes > 0,
                "{leaf_kernel}: cold run must report its allocations"
            );

            // Warm run: zero heap traffic on the hot path.
            let mut warm = CollectingSink::new();
            p.try_execute_with_metrics(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &mut ctx,
                &mut warm,
            )
            .unwrap();
            assert_eq!(
                warm.metrics.temp_alloc_bytes, 0,
                "{leaf_kernel}: warm execution must be allocation-free"
            );
            assert_eq!(warm.metrics.temp_allocations, 0);
            assert_eq!(warm.metrics.plan_executions, 1);
            assert_eq!(warm.metrics.arena_bytes, p.arena_len() as u64 * 8);

            // The sink reports the concrete kernel that ran and, for a
            // packing kernel, its modeled panel traffic.
            let selected = warm.metrics.kernel_selected.expect("kernel must be recorded");
            assert_ne!(selected, KernelKind::Auto, "Auto must resolve at plan time");
            if leaf_kernel == KernelKind::Packed {
                assert_eq!(selected, KernelKind::Packed);
                assert!(warm.metrics.bytes_packed > 0, "packed runs report packing traffic");
            }
            if selected != KernelKind::Packed {
                assert_eq!(warm.metrics.bytes_packed, 0);
            }
        }
    }

    #[test]
    fn warm_context_stays_allocation_free_with_profile_loaded() {
        // The tuned counterpart of the allocation-free acceptance
        // criterion: a plan whose selection was driven by a tuning
        // profile (Forced mode — the same application path a loaded
        // file drives, minus the filesystem) must still execute
        // allocation-free on a warm context, and must report the
        // profile hit through the sink.
        let choice = crate::tune::TunedChoice {
            tile_min: 16,
            tile_max: 64,
            strassen_min: 32,
            kernel: KernelKind::Packed,
            parallel_depth: 0,
            threads: 0,
            fuse_depth: crate::fuse::MAX_FUSE,
            batch_window: 0,
            schedule: Schedule::Standard,
        };
        let cfg = ModgemmConfig {
            leaf_kernel: KernelKind::Auto,
            tuning: crate::tune::TuningMode::Forced(choice),
            ..Default::default()
        };
        let (m, k, n) = (150usize, 150usize, 150usize);
        let a: Matrix<f64> = random_matrix(m, k, 5);
        let b: Matrix<f64> = random_matrix(k, n, 6);
        let p: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
        assert!(p.profile_hit(), "a forced choice must count as a profile hit");
        let mut ctx = GemmContext::new();
        let mut c: Matrix<f64> = Matrix::zeros(m, n);
        p.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
        let mut warm = CollectingSink::new();
        p.try_execute_with_metrics(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &mut ctx,
            &mut warm,
        )
        .unwrap();
        assert_eq!(
            warm.metrics.temp_alloc_bytes, 0,
            "tuned warm execution must be allocation-free"
        );
        assert_eq!(warm.metrics.temp_allocations, 0);
        assert_eq!(warm.metrics.profile_hits, 1, "the sink must see the profile hit");
        assert_eq!(
            warm.metrics.kernel_selected,
            Some(KernelKind::Packed),
            "the forced kernel choice must drive plan-time selection"
        );
        // An untuned plan of the same shape reports no hit.
        let untuned: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &ModgemmConfig::default()).unwrap();
        assert!(!untuned.profile_hit());
    }

    #[test]
    fn warm_parallel_execution_is_allocation_free_too() {
        // threads = 0 resolves from the machine (may degrade to serial on
        // one core); threads = 3 forces the pooled DAG executor whatever
        // the machine's own parallelism — both must keep the warm hot
        // path allocation-free.
        for threads in [0usize, 3] {
            let cfg = ModgemmConfig { parallel_depth: 2, threads, ..Default::default() };
            let (m, k, n) = (96usize, 96usize, 96usize);
            let a: Matrix<f64> = random_matrix(m, k, 7);
            let b: Matrix<f64> = random_matrix(k, n, 8);
            let p: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
            let mut ctx = GemmContext::new();
            let mut c: Matrix<f64> = Matrix::zeros(m, n);
            p.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
            let mut warm = CollectingSink::new();
            p.try_execute_with_metrics(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &mut ctx,
                &mut warm,
            )
            .unwrap();
            assert_eq!(
                warm.metrics.temp_alloc_bytes, 0,
                "threads = {threads}: parallel slab must come from the context"
            );
            if threads == 3 {
                assert!(p.parallel_depth() >= 1, "explicit threads must engage the DAG");
                let pool = warm.metrics.pool.expect("pooled run must report pool counters");
                assert_eq!(pool.workers, 3);
                assert!(pool.tasks_executed > 0);
            }

            // And the result still matches the serial one-shot path of the
            // same config on one worker bitwise.
            let mut serial: Matrix<f64> = Matrix::zeros(m, n);
            modgemm(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                serial.view_mut(),
                &ModgemmConfig { threads: 1, ..cfg },
            );
            assert_eq!(c, serial, "threads = {threads}");
        }
    }

    #[test]
    fn serial_and_pooled_runs_report_identical_plan_facts() {
        // The old parallel instrumentation was "coarser than serial":
        // whole-run wall time booked against level 0 and no per-level
        // split. Pin the fix: a serial and a pooled execution of the same
        // problem report identical plans_built / flop / level counts, and
        // both report per-level wall times.
        let (m, k, n) = (128usize, 128usize, 128usize);
        let a: Matrix<f64> = random_matrix(m, k, 31);
        let b: Matrix<f64> = random_matrix(k, n, 32);
        let run = |cfg: &ModgemmConfig| {
            let p: GemmPlan<f64> = GemmPlan::try_new(m, k, n, cfg).unwrap();
            let mut ctx = GemmContext::new();
            let mut c: Matrix<f64> = Matrix::zeros(m, n);
            let mut sink = CollectingSink::new();
            sink.record_plan_built();
            p.try_execute_with_metrics(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &mut ctx,
                &mut sink,
            )
            .unwrap();
            (sink.into_metrics(), c)
        };
        let pooled_cfg = ModgemmConfig { parallel_depth: 2, threads: 4, ..Default::default() };
        let (serial, c_serial) = run(&ModgemmConfig { threads: 1, ..pooled_cfg });
        let (pooled, c_pooled) = run(&pooled_cfg);

        assert_eq!(c_serial, c_pooled, "pooled result must be bitwise serial");
        assert_eq!(pooled.plans_built, serial.plans_built);
        assert_eq!(pooled.plans, serial.plans);
        assert_eq!(pooled.flops, serial.flops);
        assert_eq!(pooled.conventional_flops, serial.conventional_flops);
        assert_eq!(pooled.strassen_levels, serial.strassen_levels);
        assert_eq!(pooled.depth, serial.depth);
        // Both executors attribute wall time to recursion levels now.
        assert!(serial.level_time_total() > Duration::ZERO);
        assert!(pooled.level_time_total() > Duration::ZERO);
        assert!(
            pooled.level_times.iter().filter(|t| **t > Duration::ZERO).count() > 1,
            "pooled run must report a per-level split, not one coarse bucket: {:?}",
            pooled.level_times
        );
        assert!(serial.pool.is_none(), "serial runs report no pool counters");
        let pool = pooled.pool.expect("pooled runs report pool counters");
        assert_eq!(pool.workers, 4);
        assert!(pool.tasks_executed > 0);
    }

    #[test]
    fn tight_budget_caps_parallel_depth_before_recursion_depth() {
        // The budget bugfix: a budget that admits the serial workspace but
        // not the depth-2 parallel slab must degrade *worker parallelism*
        // (DAG depth 2 → 1), leaving the Strassen recursion at full depth.
        let cfg0 = ModgemmConfig {
            truncation: Truncation::Fixed(16),
            parallel_depth: 2,
            threads: 4,
            ..Default::default()
        };
        let (m, k, n) = (128usize, 128usize, 128usize);
        let free: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg0).unwrap();
        assert_eq!(free.parallel_depth(), 2, "unlimited budget keeps the configured depth");
        let full_levels = free.strassen_levels();
        assert!(full_levels >= 2);

        // Squeeze the budget to exactly the depth-1 slab.
        let slab1 = {
            let l = MortonLayout::new(16, 16, 3); // 128 = 16·2^3
            let layouts = NodeLayouts::new(l, l, l);
            let policy = crate::gemm::capped_policy::<f64>(layouts, &cfg0);
            crate::plan::parallel_slab_len(layouts, policy, 1)
        };
        let cfg1 = ModgemmConfig {
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(slab1 * 8),
            ..cfg0
        };
        let capped: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg1).unwrap();
        assert_eq!(capped.parallel_depth(), 1, "budget must cap the DAG depth first");
        assert_eq!(
            capped.strassen_levels(),
            full_levels,
            "recursion depth must survive the parallel-slab cap"
        );
        assert!(capped.arena_len() * 8 <= slab1 * 8, "reserved arena must respect the budget");

        // The capped plan still produces the bitwise-serial product.
        let a: Matrix<f64> = random_matrix(m, k, 33);
        let b: Matrix<f64> = random_matrix(k, n, 34);
        let mut ctx = GemmContext::new();
        let mut c: Matrix<f64> = Matrix::zeros(m, n);
        capped.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
        let mut serial: Matrix<f64> = Matrix::zeros(m, n);
        modgemm(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            serial.view_mut(),
            &ModgemmConfig { truncation: Truncation::Fixed(16), ..Default::default() },
        );
        assert_eq!(c, serial);
    }

    #[test]
    fn budget_ladder_schedule_then_fuse_then_par_depth_then_recursion_then_kernel() {
        // The full degradation ladder, pinned end to end: schedule tier
        // (standard → low-mem → in-place) → fuse 0 → 1 → par-depth →
        // recursion depth → kernel. The schedule rungs come first because
        // they are free in arithmetic: every tier multiplies the same
        // seven products, only the temporary-buffer linearization
        // changes. Speed-bearing knobs (fusion layout, DAG width,
        // Strassen depth, the packed kernel) are sacrificed only after
        // the cheapest tier still doesn't fit.
        let cfg0 = ModgemmConfig {
            truncation: Truncation::Fixed(32),
            leaf_kernel: KernelKind::Packed,
            fuse_depth: crate::config::FuseDepth::Fixed(0),
            parallel_depth: 2,
            threads: 4,
            ..Default::default()
        };
        // 256 = 32·2^3: three Strassen levels, all staged (Fixed(0)
        // starts the fuse rung at zero); the parallel DAG takes the top
        // two, so each leaf subtree keeps one staged level whose
        // temporaries the tier rungs shrink and the fuse rung removes.
        let (m, k, n) = (256usize, 256usize, 256usize);
        let l = MortonLayout::new(32, 32, 3);
        let layouts = NodeLayouts::new(l, l, l);
        let policy0 = crate::gemm::capped_policy::<f64>(layouts, &cfg0);
        assert_eq!(policy0.fuse, 0, "Fixed(0) keeps every level staged");
        assert_eq!(policy0.schedule, Schedule::Standard, "unlimited budget keeps standard");
        let at =
            |schedule: Schedule, fuse: usize| crate::exec::ExecPolicy { schedule, fuse, ..policy0 };
        let slab2 = |p| crate::plan::parallel_slab_len(layouts, p, 2);
        let slab2_lm = slab2(at(Schedule::LowMem, 0));
        let slab2_ip = slab2(at(Schedule::InPlace, 0));
        let slab2_f1 = slab2(at(Schedule::Standard, 1));
        let slab1_std = crate::plan::parallel_slab_len(layouts, policy0, 1);
        let ws_ip = crate::exec::workspace_len(layouts, at(Schedule::InPlace, 0));
        let ws_ip_f1 = crate::exec::workspace_len(layouts, at(Schedule::InPlace, 1));
        assert!(slab2_lm < slab2(policy0), "low-mem must shrink the DAG slab");
        assert!(slab2_ip < slab2_lm, "in-place must shrink it further");
        assert!(slab2_f1 < slab2_ip, "fusing the last staged level beats every tier's slab");
        assert!(slab1_std < slab2_f1, "one DAG level must cost less than two at any tier");
        assert!(ws_ip < slab1_std, "serial in-place is the cheapest full-depth shape");

        let budgeted = |bytes: usize| ModgemmConfig {
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(bytes),
            ..cfg0
        };
        let facts = |p: &GemmPlan<f64>| {
            (p.parallel_depth(), p.strassen_levels(), p.fused_levels(), p.schedule())
        };

        // Rung 0 — unlimited: parallel, full depth, standard schedule.
        let free: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg0).unwrap();
        assert_eq!(
            facts(&free),
            (2, 3, 0, Schedule::Standard),
            "rung 0 (unlimited budget): nothing may degrade"
        );

        // Rung 1 — the depth-2 slab no longer fits at standard but does
        // at low-mem: the schedule tier degrades FIRST, before fuse
        // depth, par-depth, recursion depth, or the kernel.
        let lowmem: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(slab2_lm * 8)).unwrap();
        assert_eq!(
            facts(&lowmem),
            (2, 3, 0, Schedule::LowMem),
            "rung 1 (schedule → low-mem): tier drops before any speed-bearing knob"
        );

        // Rung 2 — only the in-place depth-2 slab fits: the tier walks
        // down again, still before fuse/par-depth/recursion/kernel.
        let inplace: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(slab2_ip * 8)).unwrap();
        assert_eq!(
            facts(&inplace),
            (2, 3, 0, Schedule::InPlace),
            "rung 2 (schedule → in-place): tier exhausts before fuse depth moves"
        );

        // Rung 3 — no tier fits with every level staged: only now does
        // the innermost level fuse (0 → 1). (Then no staged levels
        // remain below the DAG, so the slab is tier-independent and the
        // climb keeps the fastest schedule that fits — standard.)
        let fused: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(slab2_f1 * 8)).unwrap();
        assert_eq!(
            facts(&fused),
            (2, 3, 1, Schedule::Standard),
            "rung 3 (fuse depth): fusion deepens only after the schedule rungs"
        );

        // Rung 4 — no (schedule, fuse) combination buys back DAG depth
        // 2: worker parallelism is sacrificed, and with the slab
        // pressure gone the plan keeps the fastest schedule.
        let par1: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(slab1_std * 8)).unwrap();
        assert_eq!(
            facts(&par1),
            (1, 3, 0, Schedule::Standard),
            "rung 4 (par-depth): DAG width drops only after schedule and fuse climbs fail"
        );

        // Rung 5 — the acceptance rung: a budget that fits only the
        // serial in-place workspace. The schedule-only ladder keeps full
        // Strassen depth AND the packed kernel, where the old ladder
        // (schedule capped at standard) had to sacrifice recursion depth.
        let serial: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(ws_ip * 8)).unwrap();
        assert_eq!(
            facts(&serial),
            (0, 3, 0, Schedule::InPlace),
            "rung 5 (serial in-place): full depth survives on the cheapest tier"
        );
        let serial_policy = crate::gemm::capped_policy::<f64>(layouts, &budgeted(ws_ip * 8));
        assert_eq!(serial_policy.kernel, KernelKind::Packed, "kernel survives the schedule rungs");
        let old_ladder = crate::exec::budget_capped_policy_with_tier_cap(
            layouts,
            policy0,
            ws_ip,
            Schedule::Standard,
        );
        assert!(
            crate::counts::strassen_levels(layouts, old_ladder) < 3
                || old_ladder.kernel != KernelKind::Packed,
            "without the schedule rungs this budget forced a depth or kernel loss"
        );

        // Rung 6 — below every tier's full-depth workspace: recursion
        // depth is sacrificed next, on the cheapest tier, with the
        // kernel still packed.
        let shallow_cfg = budgeted(ws_ip_f1 * 8 - 8);
        let shallow_policy = crate::gemm::capped_policy::<f64>(layouts, &shallow_cfg);
        assert_eq!(
            shallow_policy.kernel,
            KernelKind::Packed,
            "rung 6 (recursion depth): kernel survives the depth rung"
        );
        let shallow: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &shallow_cfg).unwrap();
        assert!(
            shallow.strassen_levels() < 3,
            "rung 6 (recursion depth): depth must drop below every tier's workspace"
        );

        // Rung 7 — a budget nothing packed fits in: the kernel itself is
        // swapped for the workspace-free blocked fallback, last.
        let floor_policy = crate::gemm::capped_policy::<f64>(layouts, &budgeted(1));
        assert_eq!(floor_policy.kernel, KernelKind::Blocked, "rung 7 (kernel): the last rung");
        let floor: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(1)).unwrap();
        assert_eq!((floor.strassen_levels(), floor.fused_levels()), (0, 0));

        // Every rung still multiplies correctly — including the pooled
        // in-place DAG (rung 2) and the serial in-place executor
        // (rung 5).
        let a: Matrix<f64> = random_matrix(m, k, 43);
        let b: Matrix<f64> = random_matrix(k, n, 44);
        let expect = modgemm_mat::naive::naive_product(&a, &b);
        let mut ctx = GemmContext::new();
        for (rung, plan) in
            [&free, &lowmem, &inplace, &fused, &par1, &serial, &shallow, &floor].iter().enumerate()
        {
            let mut c: Matrix<f64> = Matrix::zeros(m, n);
            plan.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
            modgemm_mat::norms::assert_matrix_eq(c.view(), expect.view(), k);
            let _ = rung;
        }
    }

    #[test]
    fn quarter_budget_at_513_keeps_in_place_and_one_fused_level() {
        // A blas_budget shape: 513³ under a quarter of the unbudgeted
        // plan's arena. The ladder walks the tier down to in-place,
        // fuses the innermost level and drops one Strassen level (of
        // four) to fit; the product stays bitwise the unbudgeted one.
        let (m, k, n) = (513usize, 513usize, 513usize);
        let cfg = ModgemmConfig { leaf_kernel: KernelKind::Packed, ..Default::default() };
        let free: GemmPlan<i64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
        assert_eq!(free.strassen_levels(), 4);
        let budget = free.arena_len() * 8 / 4;
        let cfg_q = ModgemmConfig {
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(budget),
            ..cfg
        };
        let quarter: GemmPlan<i64> = GemmPlan::try_new(m, k, n, &cfg_q).unwrap();
        assert_eq!(quarter.schedule(), Schedule::InPlace);
        assert_eq!(quarter.fused_levels(), 1);
        assert_eq!(quarter.strassen_levels(), 3);
        assert!(quarter.arena_len() * 8 <= budget, "{} > {budget}", quarter.arena_len() * 8);

        let a: Matrix<i64> = random_matrix(m, k, 51);
        let b: Matrix<i64> = random_matrix(k, n, 52);
        let mut ctx = GemmContext::new();
        let mut c_free: Matrix<i64> = Matrix::zeros(m, n);
        free.execute(a.view(), b.view(), c_free.view_mut(), &mut ctx);
        let mut c_quarter: Matrix<i64> = Matrix::zeros(m, n);
        quarter.execute(a.view(), b.view(), c_quarter.view_mut(), &mut ctx);
        assert_eq!(c_quarter, c_free);
    }

    #[test]
    fn plan_rejects_mismatched_operands() {
        let cfg = ModgemmConfig::default();
        let p: GemmPlan<f64> = GemmPlan::try_new(64, 64, 64, &cfg).unwrap();
        let a: Matrix<f64> = Matrix::zeros(32, 32);
        let b: Matrix<f64> = Matrix::zeros(32, 32);
        let mut c: Matrix<f64> = Matrix::zeros(32, 32);
        let mut ctx = GemmContext::new();
        assert_eq!(
            p.try_execute(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &mut ctx
            ),
            Err(GemmError::PlanShapeMismatch { planned: (64, 64, 64), got: (32, 32, 32) })
        );
    }

    #[test]
    fn split_and_degenerate_plans_execute_correctly() {
        let cfg = ModgemmConfig::default();
        // Too rectangular for a joint tiling: the plan records the split
        // verdict and execution runs the §3.5 decomposition.
        let p: GemmPlan<f64> = GemmPlan::try_new(600, 70, 600, &cfg).unwrap();
        assert!(p.is_split());
        assert_eq!(p.arena_len(), 0);
        let a: Matrix<f64> = random_matrix(600, 70, 20);
        let b: Matrix<f64> = random_matrix(70, 600, 21);
        let mut ctx = GemmContext::new();
        let mut c: Matrix<f64> = Matrix::zeros(600, 600);
        p.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
        modgemm_mat::norms::assert_matrix_eq(c.view(), naive_product(&a, &b).view(), 70);

        // k = 0 degenerates to C ← β·C.
        let p: GemmPlan<f64> = GemmPlan::try_new(4, 0, 5, &cfg).unwrap();
        assert!(!p.is_split());
        let a: Matrix<f64> = Matrix::zeros(4, 0);
        let b: Matrix<f64> = Matrix::zeros(0, 5);
        let mut c = Matrix::from_fn(4, 5, |i, j| (i + j) as f64);
        p.try_execute(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            2.0,
            c.view_mut(),
            &mut ctx,
        )
        .unwrap();
        for i in 0..4 {
            for j in 0..5 {
                assert_eq!(c.get(i, j), 2.0 * (i + j) as f64);
            }
        }
    }

    #[test]
    fn plan_accessors_reflect_the_compilation() {
        let cfg = ModgemmConfig { truncation: Truncation::Fixed(32), ..Default::default() };
        let p: GemmPlan<f64> = GemmPlan::try_new(256, 256, 256, &cfg).unwrap();
        assert_eq!(p.dims(), (256, 256, 256));
        assert_eq!(p.config(), &cfg);
        assert!(!p.is_split());
        assert_eq!(p.strassen_levels(), 3); // 256 = 32 << 3
        assert!(p.arena_len() > 0);
    }

    #[test]
    fn micro_kernel_plans_stay_correct() {
        let cfg = ModgemmConfig { leaf_kernel: KernelKind::Micro, ..Default::default() };
        let (m, k, n) = (96usize, 64usize, 80usize);
        let a: Matrix<i64> = random_matrix(m, k, 30);
        let b: Matrix<i64> = random_matrix(k, n, 31);
        let p: GemmPlan<i64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
        let mut ctx = GemmContext::new();
        let mut c: Matrix<i64> = Matrix::zeros(m, n);
        p.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
        assert_eq!(c, naive_product(&a, &b));

        let naive_cfg = ModgemmConfig { leaf_kernel: KernelKind::Naive, ..Default::default() };
        let mut c2: Matrix<i64> = Matrix::zeros(m, n);
        modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c2.view_mut(), &naive_cfg);
        assert_eq!(c2, naive_product(&a, &b));
    }
}
