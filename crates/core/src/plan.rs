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
//! * the budget-capped [`ExecPolicy`] — truncation, fused level, and
//!   leaf kernel ([`modgemm_mat::KernelKind`]) are all plan-time choices;
//! * the staged levels, flattened into a [`LevelPlan`] list (one entry
//!   per staged Strassen level, each interpreting
//!   [`crate::schedule::WINOGRAD_LOWMEM_SCHEDULE`]);
//! * a single workspace **arena** with precomputed slot offsets — the
//!   `TS/TT/TP` temporaries of every level laid out back to back, so
//!   execution carves slices instead of allocating;
//! * the team that runs it, sized from what the memory budget leaves
//!   beside the arena.
//!
//! [`GemmPlan::execute`] then runs the compiled recipe against a
//! [`GemmContext`]: on a warm context the hot path performs **zero** heap
//! allocations (asserted via the temp-allocation accounting — see
//! `ExecMetrics::temp_alloc_bytes`). The one-shot entry points
//! ([`crate::gemm::try_modgemm`] and the BLAS calls built on it) build a
//! throwaway plan per call, and [`crate::gemm::modgemm_premorton`]
//! compiles only the compute stage (`TiledPlan`), so every path runs the
//! same interpreter (`exec_levels_raw`) and produces bit-identical
//! results — on one thread, or on a team of pool workers that split
//! every step by output (`pool::run_team`). Only a batch lowers to a
//! task DAG ([`crate::batch`]), where each item's compute is one task.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use modgemm_mat::addsub::{add_assign_flat, add_flat, rsub_assign_flat, sub_assign_flat, sub_flat};
use modgemm_mat::naive::naive_gemm;
use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::{Matrix, Scalar};
use modgemm_morton::{pack_tile_range, unpack_tile_cols_raw};

use crate::config::{ModgemmConfig, NonFinitePolicy, VerifyMode};
use crate::error::{try_grow, try_zeroed_vec, GemmError, Operand};
use crate::exec::{
    check_buffers, fused_levels, fused_tail_len, morton_mul_share, packs, staged_step,
    terminal_layouts, terminal_len, terminal_share, workspace_len, workspace_len_at, ExecPolicy,
    NodeLayouts,
};
use crate::gemm::{
    capped_policy, has_non_finite, scale_in_place, try_layouts_of, GemmBreakdown, GemmContext,
};
use crate::metrics::{MetricsSink, NoopSink, PlanFacts};
use crate::pool::{resolve_threads, run_team, CancelToken, Rank};
use crate::rect;
use crate::schedule::{ASlot, AddKind, BSlot, Schedule, Step, WINOGRAD_LOWMEM_SCHEDULE};
use crate::terminal::Driver;
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

/// The compiled form of one staged Strassen recursion level: quadrant
/// sizes and the arena slot this level owns.
///
/// A level's arena slot holds its temporaries back to back at
/// `arena_offset`: `TS` (`qa` elements), `TT` (`qb`) and `TP` (`qc`). The
/// child level's slot follows immediately, so the whole recursion
/// consumes one contiguous arena of [`workspace_len`] elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelPlan {
    /// Elements of one `A` quadrant at this level (the `TS` slot size).
    pub qa: usize,
    /// Elements of one `B` quadrant at this level (the `TT` slot size).
    pub qb: usize,
    /// Elements of one `C` quadrant at this level (the `TP` slot size).
    pub qc: usize,
    /// Total elements of this level's arena slot, `qa + qb + qc`
    /// ([`crate::counts::staged_level_elems`]).
    pub slot_len: usize,
    /// Offset of this level's slot from the arena start (prefix sum of
    /// the shallower levels' `slot_len`s).
    pub arena_offset: usize,
}

impl LevelPlan {
    /// The all-zero placeholder used to initialize fixed-size level
    /// buffers before `fill_levels` overwrites the live prefix.
    pub const EMPTY: LevelPlan = LevelPlan { qa: 0, qb: 0, qc: 0, slot_len: 0, arena_offset: 0 };
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
        let slot_len = crate::counts::staged_level_elems(l);
        debug_assert_eq!(
            workspace_len(l, policy),
            slot_len + workspace_len(l.child(), policy),
            "arena slot at level {count} disagrees with the workspace model"
        );
        out[count] = LevelPlan { qa, qb, qc, slot_len, arena_offset: off };
        off += slot_len;
        count += 1;
        l = l.child();
    }
    debug_assert_eq!(
        off + fused_tail_len(l, policy),
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

/// What every level of one rank's interpreter walk shares: the level
/// list, the policy, the rank, and the rank's own terminal tail.
pub(crate) struct Walk<'w, S> {
    pub levels: &'w [LevelPlan],
    pub policy: ExecPolicy,
    pub rank: Rank<'w>,
    /// This rank's terminal tail slot ([`terminal_tail_len`] elements):
    /// rank 0's is the arena's own tail, every other rank's one of the
    /// extra tails after the serial arena.
    pub tail: *mut S,
    pub tail_len: usize,
    /// Shape of the packed terminal's driver calls ([`team_size`]).
    pub driver: Driver,
    /// The second `TS`/`TT`/`TP` temporaries of the deepest staged level
    /// when the team runs it on [`PAIRED_LOWMEM`]; null otherwise.
    pub paired: *mut S,
}

/// One step of [`PAIRED_LOWMEM`]: an add `dst = lhs ± rhs` over a
/// six-entry slot table of one shape (`0..4` the quadrants 11, 12, 21,
/// 22; `4` and `5` the two temporaries), or a group of products
/// `(A slot, B slot, C slot)` that run at once, one rank each.
#[derive(Clone, Copy, Debug)]
enum PairStep {
    A(usize, usize, usize, AddKind),
    B(usize, usize, usize, AddKind),
    C(usize, usize, usize, AddKind),
    Muls(&'static [(usize, usize, usize)]),
}

/// The low-mem Winograd step ([`crate::schedule::WINOGRAD_LOWMEM_SCHEDULE`])
/// re-linearized for a team at the deepest staged level, where every
/// product is a terminal: with a second temporary of each shape, six of
/// the seven products run two at a time, each on one rank with its own
/// terminal tail, instead of every rank splitting every small leaf. Each
/// sum and product has the low-mem table's operands in the same order,
/// so the result is bitwise the serial one.
const PAIRED_LOWMEM: [PairStep; 19] = {
    use AddKind::{Add, Sub};
    use PairStep::*;
    const P5_P3: [(usize, usize, usize); 2] = [(4, 4, 2), (5, 5, 3)];
    const P4_P6: [(usize, usize, usize); 2] = [(4, 4, 1), (5, 3, 0)];
    const P1_P7: [(usize, usize, usize); 2] = [(0, 0, 4), (3, 5, 5)];
    const P2: [(usize, usize, usize); 1] = [(1, 2, 0)];
    [
        A(4, 0, 2, Sub), // S3 = A11 − A21
        B(4, 3, 1, Sub), // T3 = B22 − B12
        A(5, 2, 3, Add), // S1 = A21 + A22
        B(5, 1, 0, Sub), // T1 = B12 − B11
        Muls(&P5_P3),    // P5 = S3·T3 → C21, P3 = S1·T1 → C22
        A(4, 5, 0, Sub), // S2 = S1 − A11
        B(4, 3, 5, Sub), // T2 = B22 − T1
        A(5, 1, 4, Sub), // S4 = A12 − S2
        B(5, 2, 4, Sub), // T4 = B21 − T2
        Muls(&P4_P6),    // P4 = S2·T2 → C12, P6 = S4·B22 → C11
        Muls(&P1_P7),    // P1 = A11·B11 → TP, P7 = A22·T4 → TP2
        C(1, 4, 1, Add), // U2 = P1 + P4
        C(2, 1, 2, Add), // U3 = U2 + P5
        C(1, 1, 3, Add), // U6 = U2 + P3, then C12 = U7 = U6 + P6
        C(1, 1, 0, Add),
        C(3, 2, 3, Add), // C22 = U5 = U3 + P3
        C(2, 2, 5, Add), // C21 = U4 = U3 + P7
        Muls(&P2),       // P2 = A12·B21 → C11, on the whole team
        C(0, 4, 0, Add), // C11 = U1 = P1 + P2
    ]
};

/// Dispatches one `dst = lhs ± rhs` over elements `r` of three slots
/// of a table with the aliasing discipline the schedules are tested
/// to respect: `d == l` and `d == r` take the assign forms (one
/// mutable reference), disjoint indices take the three-slice forms.
///
/// # Safety
/// The table buffers are pairwise disjoint (quadrants of one allocation
/// plus workspace ranges), and no other rank touches elements `range` of
/// any slot of this kind during the step.
unsafe fn add_step<S: Scalar, const N: usize>(
    t: &[(*mut S, usize); N],
    d: usize,
    l: usize,
    r: usize,
    kind: AddKind,
    range: core::ops::Range<usize>,
) {
    debug_assert!(!(d == l && d == r), "fully-aliased addition");
    let len = range.end - range.start;
    let slot = |i: usize| {
        debug_assert!(range.end <= t[i].1);
        t[i].0.add(range.start)
    };
    let dst_s = core::slice::from_raw_parts_mut(slot(d), len);
    if d == l {
        let rhs_s = core::slice::from_raw_parts(slot(r), len);
        match kind {
            AddKind::Add => add_assign_flat(dst_s, rhs_s),
            AddKind::Sub => sub_assign_flat(dst_s, rhs_s),
        }
    } else if d == r {
        let lhs_s = core::slice::from_raw_parts(slot(l), len);
        match kind {
            AddKind::Add => add_assign_flat(dst_s, lhs_s),
            AddKind::Sub => rsub_assign_flat(dst_s, lhs_s),
        }
    } else {
        let lhs_s = core::slice::from_raw_parts(slot(l), len);
        let rhs_s = core::slice::from_raw_parts(slot(r), len);
        match kind {
            AddKind::Add => add_flat(dst_s, lhs_s, rhs_s),
            AddKind::Sub => sub_flat(dst_s, lhs_s, rhs_s),
        }
    }
}

/// The schedule interpreter: executes `levels[li..]` over the Morton
/// buffers, each level running [`WINOGRAD_LOWMEM_SCHEDULE`] on its
/// `TS/TT/TP` temporaries carved from the front of the arena and handing
/// the rest to the recursion. Past the last flattened level the terminal
/// takes over: the fused executor ([`crate::fuse::fused_mul_share`]) when
/// [`ExecPolicy::fuse`] covers the remaining Strassen level, else the
/// conventional product with the plan's leaf kernel, on the rank's
/// [`Walk::tail`] (the packed terminal's buffers or the fused leaf
/// working set; non-packing staged kernels ignore it).
///
/// Every rank of a team ([`crate::pool::run_team`]) walks the same
/// steps over the same buffers and arena. Each add step does the rank's
/// aligned element range ([`Rank::share`]) of its slots — every slot of
/// a kind has one length, so consecutive adds need no barrier — and each
/// terminal does the rank's [`crate::exec::terminal_share`]. A barrier
/// goes before every `Mul` that follows an add and after every `Mul`, so
/// the walk is entered and left with every rank synchronized. Each
/// output element sees the serial operations in the serial order: a
/// team's result is bitwise the serial one.
///
/// `arena_len` must be exactly the remaining levels' combined slot
/// length plus the terminal tail (callers pass `workspace_len(layouts,
/// policy)` at the root).
///
/// Returns the measured peak arena occupancy in elements — this level's
/// slot plus the deepest child's peak (the terminal claims its whole
/// tail) — or the team's first error ([`Rank::sync`]). Debug builds
/// assert the peak equals the closed-form model at every level, so a
/// schedule whose footprint expression under-counts fails loudly
/// instead of silently overlapping slots.
///
/// # Safety
/// `a` and `b` must point to the node's full Morton operand buffers
/// (`layouts.a.len()` / `layouts.b.len()` elements), `c` to its C buffer
/// and `arena` to `arena_len` elements, all valid for the duration of
/// the call and accessed by nothing but this team's walk. The schedule
/// never writes `a` or `b` (its A- and B-shaped adds write only `TS` and
/// `TT`), so shared borrows cast to `*mut` are sound. [`Walk::tail`] is
/// this rank's alone.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn exec_levels_raw<S: Scalar, K: MetricsSink>(
    walk: &Walk<'_, S>,
    a: *mut S,
    b: *mut S,
    c: *mut S,
    layouts: NodeLayouts,
    li: usize,
    arena: *mut S,
    arena_len: usize,
    sink: &mut K,
) -> Result<usize, GemmError> {
    let (levels, policy, rank) = (walk.levels, walk.policy, walk.rank);
    debug_assert_eq!(
        arena_len,
        levels[li..].iter().map(|l| l.slot_len).sum::<usize>() + walk.tail_len,
        "arena does not match the remaining levels' slots plus the terminal tail"
    );
    if li == levels.len() {
        debug_assert!(!staged_step(layouts, policy), "levels list ended early");
        debug_assert_eq!(walk.tail_len, arena_len, "tail slot drifted from the terminal");
        // SAFETY (caller contract): `a`/`b` cover the node's operand
        // buffers and the team only reads them here; the tail is this
        // rank's own.
        let av = unsafe { core::slice::from_raw_parts(a as *const S, layouts.a.len()) };
        let bv = unsafe { core::slice::from_raw_parts(b as *const S, layouts.b.len()) };
        let tail = unsafe { core::slice::from_raw_parts_mut(walk.tail, walk.tail_len) };
        let share = terminal_share(layouts, policy, rank);
        let fused = fused_levels(layouts, policy) > 0;
        let t0 = K::ENABLED.then(Instant::now);
        // SAFETY: the share is this rank's alone (terminal_share splits
        // disjointly), and the team entered synchronized.
        unsafe {
            let (kernel, driver) = (policy.kernel, walk.driver);
            if fused {
                crate::fuse::fused_mul_share(av, bv, c, layouts, kernel, driver, tail, share);
            } else {
                morton_mul_share(av, bv, c, layouts, kernel, driver, tail, share);
            }
        }
        rank.sync()?;
        if let Some(t0) = t0 {
            sink.record_level_time(li, t0.elapsed());
        }
        return Ok(arena_len);
    }
    if li + 1 == levels.len() && !walk.paired.is_null() {
        return unsafe { exec_paired_node(walk, a, b, c, layouts, li, arena, arena_len, sink) };
    }
    let lp = &levels[li];

    let ch = layouts.child();
    let (qa, qb, qc) =
        (layouts.a.quadrant_len(), layouts.b.quadrant_len(), layouts.c.quadrant_len());
    debug_assert_eq!((lp.qa, lp.qb, lp.qc), (qa, qb, qc), "level plan drifted from the layouts");
    debug_assert!(lp.slot_len <= arena_len);
    // SAFETY (caller contract): the arena holds this level's slot
    // followed by the child's arena.
    let (ts, tt, tp, child_ws) =
        unsafe { (arena, arena.add(qa), arena.add(qa + qb), arena.add(lp.slot_len)) };
    let child_len = arena_len - lp.slot_len;

    // Raw tables of the pairwise-disjoint slot buffers, indexed by
    // `ASlot::index()` / `BSlot::index()` / `CSlot::index()`.
    // SAFETY (caller contract): `a`, `b` and `c` span all four quadrants.
    let table = |base: *mut S, q: usize, t: *mut S| unsafe {
        [(base, q), (base.add(q), q), (base.add(2 * q), q), (base.add(3 * q), q), (t, q)]
    };
    let (aslots, bslots, cslots) = (table(a, qa, ts), table(b, qb, tt), table(c, qc, tp));

    // Exclusive per-level time: the additions of this level's schedule
    // (the recursive multiplies attribute their own time to `li + 1`).
    let mut add_time = Duration::ZERO;
    let mut child_peak = 0usize;
    // The team entered synchronized; an add step leaves it unsynchronized
    // until the barrier before the next `Mul`.
    let mut synced = true;
    for step in WINOGRAD_LOWMEM_SCHEDULE {
        let t0 = (K::ENABLED && !matches!(step, Step::Mul { .. })).then(Instant::now);
        match step {
            Step::AddA { dst, lhs, rhs, kind } => {
                debug_assert_eq!(dst, ASlot::TS, "the schedule writes an A quadrant");
                let (d, l, r) = (dst.index(), lhs.index(), rhs.index());
                // SAFETY: disjoint slots per the table invariant; the
                // schedule aliases only via the assign forms.
                unsafe { add_step(&aslots, d, l, r, kind, rank.share(qa)) }
                synced = false;
            }
            Step::AddB { dst, lhs, rhs, kind } => {
                debug_assert_eq!(dst, BSlot::TT, "the schedule writes a B quadrant");
                let (d, l, r) = (dst.index(), lhs.index(), rhs.index());
                // SAFETY: as for AddA.
                unsafe { add_step(&bslots, d, l, r, kind, rank.share(qb)) }
                synced = false;
            }
            Step::AddC { dst, lhs, rhs, kind } => {
                let (d, l, r) = (dst.index(), lhs.index(), rhs.index());
                // SAFETY: as for AddA.
                unsafe { add_step(&cslots, d, l, r, kind, rank.share(qc)) }
                synced = false;
            }
            Step::Mul { a: sa, b: sb, dst } => {
                let (ai, bi) = (sa.index(), sb.index());
                if !synced {
                    rank.sync()?;
                }
                // The destination is disjoint from every possible operand
                // (A/B buffers and the TS/TT workspace ranges); the child
                // only reads its operands.
                let peak = unsafe {
                    exec_levels_raw(
                        walk,
                        aslots[ai].0,
                        bslots[bi].0,
                        cslots[dst.index()].0,
                        ch,
                        li + 1,
                        child_ws,
                        child_len,
                        sink,
                    )
                }?;
                synced = true;
                child_peak = child_peak.max(peak);
            }
        }
        if let Some(t0) = t0 {
            add_time += t0.elapsed();
        }
    }
    if !synced {
        rank.sync()?;
    }
    if K::ENABLED {
        sink.record_level_time(li, add_time);
    }
    Ok(lp.slot_len + child_peak)
}

/// The deepest staged level on [`PAIRED_LOWMEM`], the path a team with
/// [`Walk::paired`] set takes there. Adds split by element range as in
/// [`exec_levels_raw`]. A two-product group runs product `j` on rank `j`
/// alone, on that rank's own terminal tail, while any further ranks wait
/// at the group's closing barrier; the one-product group runs on the
/// whole team.
///
/// # Safety
/// As [`exec_levels_raw`]; [`Walk::paired`] holds `qa + qb + qc`
/// elements no one else touches, and every rank's tail is its own.
#[allow(clippy::too_many_arguments)]
unsafe fn exec_paired_node<S: Scalar, K: MetricsSink>(
    walk: &Walk<'_, S>,
    a: *mut S,
    b: *mut S,
    c: *mut S,
    layouts: NodeLayouts,
    li: usize,
    arena: *mut S,
    arena_len: usize,
    sink: &mut K,
) -> Result<usize, GemmError> {
    let (lp, rank) = (&walk.levels[li], walk.rank);
    let ch = layouts.child();
    let (qa, qb, qc) = (lp.qa, lp.qb, lp.qc);
    debug_assert_eq!(lp.slot_len, qa + qb + qc);
    let (ts, tt, tp) = (arena, arena.add(qa), arena.add(qa + qb));
    let (ts2, tt2, tp2) = (walk.paired, walk.paired.add(qa), walk.paired.add(qa + qb));
    let (child_ws, child_len) = (arena.add(lp.slot_len), arena_len - lp.slot_len);
    let table = |base: *mut S, q: usize, t: *mut S, t2: *mut S| {
        [(base, q), (base.add(q), q), (base.add(2 * q), q), (base.add(3 * q), q), (t, q), (t2, q)]
    };
    let (aslots, bslots, cslots) =
        (table(a, qa, ts, ts2), table(b, qb, tt, tt2), table(c, qc, tp, tp2));
    let solo = Walk {
        levels: walk.levels,
        policy: walk.policy,
        rank: Rank::SOLO,
        tail: walk.tail,
        tail_len: walk.tail_len,
        driver: walk.driver,
        paired: core::ptr::null_mut(),
    };
    let mut add_time = Duration::ZERO;
    let mut child_peak = 0usize;
    let mut synced = true;
    for step in PAIRED_LOWMEM {
        let t0 = (K::ENABLED && !matches!(step, PairStep::Muls(_))).then(Instant::now);
        match step {
            PairStep::A(d, l, r, kind) => add_step(&aslots, d, l, r, kind, rank.share(qa)),
            PairStep::B(d, l, r, kind) => add_step(&bslots, d, l, r, kind, rank.share(qb)),
            PairStep::C(d, l, r, kind) => add_step(&cslots, d, l, r, kind, rank.share(qc)),
            PairStep::Muls(group) => {
                if !synced {
                    rank.sync()?;
                }
                if let Some(&(ai, bi, ci)) = group.get(rank.id) {
                    let (a, b, c) = (aslots[ai].0, bslots[bi].0, cslots[ci].0);
                    let peak =
                        exec_levels_raw(&solo, a, b, c, ch, li + 1, child_ws, child_len, sink)?;
                    child_peak = child_peak.max(peak);
                }
                rank.sync()?;
            }
        }
        synced = matches!(step, PairStep::Muls(_));
        if let Some(t0) = t0 {
            add_time += t0.elapsed();
        }
    }
    if !synced {
        rank.sync()?;
    }
    if K::ENABLED {
        sink.record_level_time(li, add_time);
    }
    Ok(lp.slot_len + child_peak)
}

// ---------------------------------------------------------------------------
// Task-DAG lowering (the compile side of the work-stealing executor)
// ---------------------------------------------------------------------------

/// The task flavors of the lowered batch DAG ([`crate::batch`]): one
/// compute task per item, plus conversion and epilogue work as ordinary
/// dependency-counted tasks that overlap with compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// One item's whole compute stage: the serial interpreter
    /// (`exec_levels_raw`) on the item's window slot and arena share.
    Leaf,
    /// Pack a Morton tile range of one item's A operand into its window
    /// slot.
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

/// One unit of work: a contiguous range of one item's tiles (pack) or
/// tile columns (unpack), or its whole compute (`Leaf`), bound to the
/// window slot the item occupies. Referenced by every [`TaskKind`] but
/// `Gate` through `TaskDesc::chunk`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchChunk {
    /// Batch item index.
    pub item: u32,
    /// In-flight window slot (`item % window`).
    pub slot: u32,
    /// Half-open unit range: Morton tile indices for `ConvertA`/
    /// `ConvertB`, tile-column indices for `Unpack`, `0..0` for `Leaf`.
    pub r0: u32,
    pub r1: u32,
}

/// One dependency-counted task of the compiled DAG.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TaskDesc {
    pub kind: TaskKind,
    /// Index into [`TaskGraph::chunks`] (unused by `Gate`).
    pub chunk: u32,
    /// Tasks that must complete before this one may run (the refcount
    /// the executor counts down).
    pub dep_count: u32,
    /// This task's dependents: `TaskGraph::dependents[dep_start..dep_start + dep_len]`.
    pub dep_start: u32,
    pub dep_len: u32,
}

/// A batch of GEMMs lowered into dependency-counted tasks: conversion
/// chunks, one compute task per item, and unpack chunks — the unit the
/// work-stealing pool executes. Compiled once at plan time; execution
/// only resets refcounts.
#[derive(Clone, Debug, Default)]
pub(crate) struct TaskGraph {
    pub tasks: Vec<TaskDesc>,
    /// Flat dependents array, indexed via `TaskDesc::{dep_start,dep_len}`.
    pub dependents: Vec<u32>,
    /// Tasks with no dependencies, in deterministic (DFS) order.
    pub roots: Vec<u32>,
    /// Work units, indexed by every task's `chunk` field but `Gate`'s.
    pub chunks: Vec<BatchChunk>,
}

#[derive(Default)]
pub(crate) struct DagBuilder {
    /// `(kind, chunk, dep_count)` per task; edges resolved in `finish`.
    tasks: Vec<(TaskKind, u32, u32)>,
    chunks: Vec<BatchChunk>,
    /// `(task, dependent)` edges.
    edges: Vec<(u32, u32)>,
}

impl DagBuilder {
    /// The task that completes once every task in `parts` has: the
    /// single part itself, or a zero-work join (`Gate`).
    pub(crate) fn join(&mut self, parts: &[Option<u32>]) -> u32 {
        match parts {
            [Some(only)] => *only,
            _ => self.task(TaskKind::Gate, 0, parts),
        }
    }

    fn task(&mut self, kind: TaskKind, chunk: u32, deps: &[Option<u32>]) -> u32 {
        let id = self.tasks.len() as u32;
        let mut count = 0;
        for &dep in deps.iter().flatten() {
            self.edges.push((dep, id));
            count += 1;
        }
        self.tasks.push((kind, chunk, count));
        id
    }

    /// A task of `kind` over work unit `chunk`, run once every task in
    /// `deps` has completed (`None` entries are skipped).
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
            .map(|(i, &(kind, chunk, dep_count))| TaskDesc {
                kind,
                chunk,
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
        TaskGraph { tasks, dependents, roots, chunks: self.chunks }
    }
}

/// Padded `m·k·n` volume up to which a single GEMM runs serially even
/// when two or more workers resolve. On a 2-vCPU host the team breaks
/// even near 128³ and wins from 160³; the crossover sits at 256³ so that
/// small-problem traffic never starts the pool, whose first use leaves a
/// few long-lived allocations in the middle of the heap (see
/// EXPERIMENTS.md, "Team execution").
const SERIAL_MAX_VOLUME: usize = 256 * 256 * 256;

/// Terminal tail (elements) of `layouts` under `policy` with packed
/// driver calls of shape `driver`: the [`terminal_len`] of the node where
/// the staged levels end — the per-rank working set a team member needs
/// of its own.
pub(crate) fn terminal_tail_len(layouts: NodeLayouts, policy: ExecPolicy, driver: Driver) -> usize {
    terminal_len(terminal_layouts(layouts, policy), policy, driver)
}

/// Elements of the second temporaries [`PAIRED_LOWMEM`] needs: the
/// deepest staged level's slot, or 0 when no level stages.
pub(crate) fn paired_len(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    if !staged_step(layouts, policy) {
        return 0;
    }
    let mut l = layouts;
    while staged_step(l.child(), policy) {
        l = l.child();
    }
    crate::counts::staged_level_elems(l)
}

/// How a single GEMM's team runs ([`crate::pool::run_team`]):
/// `(ranks, paired, driver)`. The ranks are the resolved `threads` when
/// the padded problem exceeds [`SERIAL_MAX_VOLUME`], else 1 (serial). A
/// team needs one terminal tail per rank past the first, plus `paired`
/// elements for the deepest level's second temporaries.
///
/// With a packing kernel the terminal's slot grows with its driver's
/// span and panel (the `terminal` module), so three choices share the
/// budget, in this order:
///
/// 1. **Span**: the most conventional levels one driver call covers
///    whose slots, for two ranks above the team crossover (one below it),
///    fit beside the serial arena. The span fixes the summation order,
///    so it must not depend on the worker count: every team size then
///    gives the one-thread result bit for bit.
/// 2. **Ranks**: the team shrinks, before any Strassen level is shed,
///    until its slots at that span fit.
/// 3. **Panel**: the B panel widens to what the budget leaves
///    ([`panel_cols`]); the team never shrinks for a wider panel.
pub(crate) fn team_size<S: Scalar>(
    layouts: NodeLayouts,
    policy: ExecPolicy,
    cfg: &ModgemmConfig,
    threads: usize,
) -> (usize, usize, Driver) {
    let budget = cfg.memory_budget.max_elements(core::mem::size_of::<S>());
    let (m, k, n) = layouts.dims();
    let above = m * k * n > SERIAL_MAX_VOLUME;
    let paired = paired_len(layouts, policy);
    let reserve = if above { (2, paired) } else { (1, 0) };
    let l = terminal_layouts(layouts, policy);
    let conv_depth = l.a.depth - usize::from(fused_levels(l, policy) > 0);
    let levels = (0..=conv_depth)
        .rev()
        .find(|&levels| {
            let span = Driver { levels, cols: 1 };
            team_ws_len(layouts, policy, (reserve.0, reserve.1, span)) <= budget
        })
        .unwrap_or(0);
    let span = Driver { levels, cols: 1 };
    let (team, paired) = if threads < 2 || !above {
        (1, 0)
    } else {
        let mut team = threads;
        while team > 1 && team_ws_len(layouts, policy, (team, paired, span)) > budget {
            team -= 1;
        }
        if team > 1 {
            (team, paired)
        } else {
            (1, 0)
        }
    };
    let cols = panel_cols(layouts, policy, (team, paired, span), budget);
    (team, paired, Driver { levels, cols })
}

/// Tile columns per packed B panel of a terminal whose team and driver
/// span `shape` fixes: the widest panel, up to the span's `g` columns
/// and to [`crate::terminal::PANEL_COLS`] columns of C, whose tails fit
/// in what `budget` (elements) leaves beside the serial arena and the
/// paired temporaries. Each further column costs every rank one B panel
/// over the span's whole `k`. One column when nothing is left over, and
/// for kernels that do not pack.
pub(crate) fn panel_cols(
    layouts: NodeLayouts,
    policy: ExecPolicy,
    (team, paired, span): (usize, usize, Driver),
    budget: usize,
) -> usize {
    let l = terminal_layouts(layouts, policy);
    if !packs(l, policy.kernel) {
        return 1;
    }
    let conv = if fused_levels(l, policy) > 0 { l.child() } else { l };
    let s = span.span(conv);
    let widest = s.a.grid().min(crate::terminal::PANEL_COLS.div_ceil(s.b.tile_cols));
    let at = |cols| team_ws_len(layouts, policy, (team, paired, Driver { cols, ..span }));
    let narrow = at(1);
    if widest == 1 || narrow > budget {
        return 1;
    }
    widest.min(1 + (budget - narrow) / (at(2) - narrow))
}

/// Workspace elements a team of `team` ranks carves for `layouts` under
/// `policy`: the serial arena with a packed terminal of shape `driver`
/// in its tail, one more tail per rank past the first, and the `paired`
/// temporaries.
pub(crate) fn team_ws_len(
    layouts: NodeLayouts,
    policy: ExecPolicy,
    (team, paired, driver): (usize, usize, Driver),
) -> usize {
    workspace_len_at(layouts, policy, driver)
        + (team - 1) * terminal_tail_len(layouts, policy, driver)
        + paired
}

/// Raw buffer pointers shared by a team's ranks. Each rank touches only
/// its share of each buffer between barriers ([`exec_levels_raw`]).
struct TeamBufs<S> {
    a: *mut S,
    b: *mut S,
    c: *mut S,
    ws: *mut S,
}

// SAFETY: see the struct docs — access is split by rank and ordered by
// the team barrier.
unsafe impl<S: Send> Send for TeamBufs<S> {}
unsafe impl<S: Sync> Sync for TeamBufs<S> {}

/// The compiled compute stage of a tiled (non-split) problem: the fixed
/// layout tree, budget-capped policy, flattened level list, the arena
/// size, and the team of ranks that runs the one interpreter.
/// [`TiledPlan::run`] is the path from Morton buffers to the
/// interpreter; batch DAGs lower from these fields
/// ([`crate::batch::build_dag`]).
#[derive(Clone, Debug)]
pub(crate) struct TiledPlan {
    pub(crate) layouts: NodeLayouts,
    pub(crate) policy: ExecPolicy,
    pub(crate) levels: Vec<LevelPlan>,
    /// The interpreter's workspace arena, in elements: [`workspace_len`]
    /// with the packed terminal's tail at [`Self::driver`]'s shape. A
    /// team carves [`Self::team_len`] more after it.
    pub(crate) arena_len: usize,
    /// Resolved worker count ([`crate::pool::resolve_threads`] at plan
    /// time).
    pub(crate) threads: usize,
    /// Ranks of the team that runs the interpreter ([`team_size`]); 1 =
    /// serial.
    pub(crate) team: usize,
    /// One rank's terminal tail ([`terminal_tail_len`]).
    pub(crate) tail_len: usize,
    /// Shape of the packed terminal's driver calls ([`team_size`]).
    pub(crate) driver: Driver,
    /// Second temporaries of the deepest staged level, after the tails
    /// ([`PAIRED_LOWMEM`]); 0 for a serial plan.
    pub(crate) paired_len: usize,
    pub(crate) facts: PlanFacts,
}

impl TiledPlan {
    /// Compiles the compute stage for `layouts` under `policy` (already
    /// budget-capped by the caller): flattens the staged levels, sizes
    /// the arena, and fixes the team size `cfg`'s budget admits.
    pub(crate) fn new<S: Scalar>(
        layouts: NodeLayouts,
        policy: ExecPolicy,
        cfg: &ModgemmConfig,
    ) -> Self {
        let mut levels = vec![LevelPlan::EMPTY; MAX_LEVELS];
        let count = fill_levels(&mut levels, layouts, policy);
        levels.truncate(count);
        let threads = resolve_threads(cfg.threads);
        let (team, paired_len, driver) = team_size::<S>(layouts, policy, cfg, threads);
        let tail_len = terminal_tail_len(layouts, policy, driver);
        let (pm, pk, pn) = layouts.dims();
        let facts = PlanFacts {
            padded: (pm, pk, pn),
            depth: layouts.a.depth,
            strassen_levels: crate::counts::strassen_levels(layouts, policy),
            fused_levels: fused_levels(layouts, policy),
            schedule: Some(Schedule::LowMem),
            flops: crate::counts::strassen_flops(layouts, policy),
            conventional_flops: crate::counts::conventional_flops(pm, pk, pn),
        };
        TiledPlan {
            layouts,
            policy,
            levels,
            arena_len: workspace_len_at(layouts, policy, driver),
            threads,
            team,
            tail_len,
            driver,
            paired_len,
            facts,
        }
    }

    /// One rank's walk of the compute stage over the team's buffers
    /// (`ws` holds [`Self::ws_len`] elements): the interpreter on the
    /// shared serial arena, with the rank's own terminal tail. Returns
    /// the measured serial-arena peak.
    ///
    /// SAFETY: as [`exec_levels_raw`], with every rank of `rank`'s team
    /// walking the same buffers; `rank.size <= self.team`.
    unsafe fn walk<S: Scalar, K: MetricsSink>(
        &self,
        bufs: &TeamBufs<S>,
        rank: Rank<'_>,
        sink: &mut K,
    ) -> Result<usize, GemmError> {
        debug_assert!(rank.size <= self.team, "team larger than its planned arena");
        let serial = self.arena_len;
        let tail = if rank.id == 0 {
            bufs.ws.add(serial - self.tail_len)
        } else {
            bufs.ws.add(serial + (rank.id - 1) * self.tail_len)
        };
        let walk = Walk {
            levels: &self.levels,
            policy: self.policy,
            rank,
            tail,
            tail_len: self.tail_len,
            driver: self.driver,
            paired: if rank.size > 1 && self.paired_len > 0 {
                bufs.ws.add(serial + (self.team - 1) * self.tail_len)
            } else {
                core::ptr::null_mut()
            },
        };
        exec_levels_raw(&walk, bufs.a, bufs.b, bufs.c, self.layouts, 0, bufs.ws, serial, sink)
    }

    /// The compute stage: `C = A·B` over Morton buffers on the schedule
    /// interpreter, run by the plan's team. `ws` must hold at least
    /// [`Self::ws_len`] elements; its contents are clobbered and need not
    /// be zeroed.
    ///
    /// Reports the plan facts, the workspace reservation and its measured
    /// occupancy, the kernel, packing traffic, per-level times and (for a
    /// team) the pool counters through `sink`. `cancel` is checked once
    /// before computing and, on a team, at every barrier.
    pub(crate) fn run<S: Scalar, K: MetricsSink>(
        &self,
        a: &[S],
        b: &[S],
        c: &mut [S],
        ws: &mut [S],
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        check_buffers(a.len(), b.len(), c.len(), self.layouts)?;
        self.record_facts::<S, K>(sink);
        if let Some(token) = cancel {
            token.check()?;
        }
        let ws = &mut ws[..self.ws_len()];
        // SAFETY: `a`/`b` span the full operand buffers (checked above)
        // and stay borrowed for the call; the interpreter never writes
        // through them.
        let (a, b) = (a.as_ptr().cast_mut(), b.as_ptr().cast_mut());
        let bufs = TeamBufs { a, b, c: c.as_mut_ptr(), ws: ws.as_mut_ptr() };
        let (peak, stats) = run_team(
            self.team,
            cancel,
            K::ENABLED,
            |rank| unsafe { self.walk(&bufs, rank, sink) },
            &|rank| unsafe { self.walk(&bufs, rank, &mut NoopSink).map(drop) },
        );
        self.record_team::<S, K>(peak?, stats, sink);
        Ok(())
    }

    /// What the team carves after the interpreter's arena: one terminal
    /// tail per rank past the first, and the paired temporaries.
    pub(crate) fn team_len(&self) -> usize {
        (self.team - 1) * self.tail_len + self.paired_len
    }

    /// Workspace an execution carves from the context: the interpreter's
    /// arena plus [`Self::team_len`].
    pub(crate) fn ws_len(&self) -> usize {
        self.arena_len + self.team_len()
    }

    fn record_facts<S: Scalar, K: MetricsSink>(&self, sink: &mut K) {
        if K::ENABLED {
            let elem = core::mem::size_of::<S>();
            sink.record_plan(self.facts);
            sink.record_workspace(self.ws_len(), self.ws_len() * elem);
            // Auto was resolved at plan time; the stored kind is concrete.
            sink.record_kernel(self.policy.kernel);
            let packed =
                crate::counts::packed_bytes(self.layouts, self.policy, self.driver.shape(), elem);
            sink.record_bytes_packed(packed);
        }
    }

    /// Reports the arena a finished team run occupied (the serial peak
    /// plus one tail per helper rank and the paired temporaries) and its
    /// pool counters.
    fn record_team<S: Scalar, K: MetricsSink>(
        &self,
        peak: usize,
        stats: Option<crate::metrics::PoolStats>,
        sink: &mut K,
    ) {
        debug_assert_eq!(
            peak, self.arena_len,
            "measured peak workspace disagrees with the planned arena"
        );
        if K::ENABLED {
            let ranks = stats.map_or(1, |s| s.workers);
            let paired = if ranks > 1 { self.paired_len } else { 0 };
            let used = peak + (ranks - 1) * self.tail_len + paired;
            sink.record_workspace_used(used, used * core::mem::size_of::<S>());
            if let Some(stats) = stats {
                sink.record_pool(stats);
            }
        }
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
    _marker: PhantomData<fn() -> S>,
}

impl<S: Scalar> GemmPlan<S> {
    /// Builds a plan for an `m × k × n` problem under `cfg` — the plan
    /// half of the plan/execute split: validates `cfg`, runs the
    /// truncation-point search, and compiles the layout tree, flattened
    /// schedule, arena offsets and team size.
    pub fn try_new(m: usize, k: usize, n: usize, cfg: &ModgemmConfig) -> Result<Self, GemmError> {
        cfg.validate()?;
        // Resolve workers fallibly up front so a malformed
        // `MODGEMM_THREADS` surfaces as `InvalidConfig` here instead of
        // being silently ignored deep in the executor.
        crate::pool::try_resolve_threads(cfg.threads)?;
        let strategy = if m == 0 || k == 0 || n == 0 {
            // Degenerate problems never reach an executor; the early-outs
            // in `try_execute_with_metrics` handle them.
            None
        } else {
            cfg.plan(m, k, n)
                .map(|tiling| {
                    let layouts = try_layouts_of(&tiling)?;
                    Ok(TiledPlan::new::<S>(layouts, capped_policy::<S>(layouts, cfg), cfg))
                })
                .transpose()?
        };
        Ok(Self { m, k, n, cfg: *cfg, strategy, _marker: PhantomData })
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

    /// Elements of the interpreter's workspace arena: the staged
    /// levels' temporaries and the terminal's tail — with a packing
    /// kernel, the packed driver's buffers, its span and B panel widened
    /// to what the budget leaves (the whole conventional subtree when
    /// unbudgeted). Zero for split or degenerate
    /// plans. A team of `W` workers carves `W − 1` more terminal tails
    /// and one more set of deepest-level temporaries after the arena;
    /// they count toward the [`crate::MemoryBudget`] (the team shrinks to
    /// fit) and the service's admission estimate.
    pub fn arena_len(&self) -> usize {
        self.strategy.as_ref().map_or(0, |tp| tp.arena_len)
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
    /// packing*), once more before computing, and, on a team, at every
    /// barrier, so an in-flight cancel is observed within one step of the
    /// interpreter. On [`GemmError::Cancelled`] /
    /// [`GemmError::DeadlineExceeded`] every rank has left the team before
    /// the call returns, and `ctx` remains warm and reusable: the next
    /// execute on it is allocation-free and correct. Output `c` contents
    /// are unspecified after a cancelled call.
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

    /// The tiled fast path: the plan's team ([`run_rank`] on every rank;
    /// one rank when serial) packs, runs the interpreter, and unpacks,
    /// rank 0 timing the stages. All
    /// buffers come from `ctx`; any growth is recorded as temp
    /// allocations, so a warm context records none — the allocation-free
    /// hot path.
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
        let layouts = tp.layouts;
        if tp.team > 1 {
            // Start the pool before this call's buffers exist: its
            // long-lived allocations then sit below them in the heap
            // instead of above, where they would keep the freed buffers
            // from returning to the OS.
            crate::pool::ThreadPool::global(tp.team);
        }
        let old_lens = ctx.lens();
        let t0 = Instant::now();
        try_grow(&mut ctx.a_buf, layouts.a.len())?;
        try_grow(&mut ctx.b_buf, layouts.b.len())?;
        try_grow(&mut ctx.c_buf, layouts.c.len())?;
        try_grow(&mut ctx.ws, tp.ws_len())?;
        let alloc = t0.elapsed();
        ctx.record_growth(old_lens, sink);
        tp.record_facts::<S, K>(sink);
        if let Some(token) = cancel {
            token.check()?;
        }
        let bufs = TeamBufs {
            a: ctx.a_buf.as_mut_ptr(),
            b: ctx.b_buf.as_mut_ptr(),
            c: ctx.c_buf.as_mut_ptr(),
            ws: ctx.ws.as_mut_ptr(),
        };
        let (m, n) = c.dims();
        let io = TeamIo { a, op_a, b, op_b, c: c.as_mut_ptr(), ldc: c.ld(), m, n, alpha, beta };
        let mut bd = GemmBreakdown::default();
        let (peak, stats) = run_team(
            tp.team,
            cancel,
            K::ENABLED,
            // SAFETY: the buffers were grown to the plan's sizes above and
            // stay borrowed for the call; `c` is an exclusive borrow of
            // the validated output, so it aliases neither `a` nor `b`.
            |rank| unsafe { run_rank(tp, &io, &bufs, rank, sink, Some(&mut bd)) },
            &|rank| unsafe { run_rank(tp, &io, &bufs, rank, &mut NoopSink, None).map(drop) },
        );
        tp.record_team::<S, K>(peak?, stats, sink);
        bd.convert_in += alloc;
        Ok(bd)
    }
}

/// The caller's operands and output of a team run, as the ranks see
/// them.
struct TeamIo<'x, S> {
    a: MatRef<'x, S>,
    op_a: Op,
    b: MatRef<'x, S>,
    op_b: Op,
    /// The `m × n` output, leading dimension `ldc`.
    c: *mut S,
    ldc: usize,
    m: usize,
    n: usize,
    alpha: S,
    beta: S,
}

// SAFETY: `a`/`b` are shared views; each rank writes only its own tile
// columns of `c`.
unsafe impl<S: Sync> Sync for TeamIo<'_, S> {}

/// One rank's whole tiled execution: its tile range of the Morton
/// conversion of A and B, every step of the interpreter
/// ([`TiledPlan::walk`]), and its tile columns of the α/β unpack, with a
/// barrier between stages. Rank 0 passes `times` to get the stage
/// breakdown. Returns the serial-arena peak.
///
/// SAFETY: as [`TiledPlan::walk`]; `bufs` hold the plan's Morton
/// buffers and arena, and `io` the validated caller views of its shape.
unsafe fn run_rank<S: Scalar, K: MetricsSink>(
    tp: &TiledPlan,
    io: &TeamIo<'_, S>,
    bufs: &TeamBufs<S>,
    rank: Rank<'_>,
    sink: &mut K,
    times: Option<&mut GemmBreakdown>,
) -> Result<usize, GemmError> {
    let layouts = tp.layouts;
    let t0 = Instant::now();
    for (src, op, layout, buf) in
        [(io.a, io.op_a, &layouts.a, bufs.a), (io.b, io.op_b, &layouts.b, bufs.b)]
    {
        let tile = layout.tile_len();
        let r = rank.units(layout.len() / tile);
        let dst = core::slice::from_raw_parts_mut(buf.add(r.start * tile), r.len() * tile);
        pack_tile_range(src, op, layout, dst, r.start, r.end);
    }
    rank.sync()?;
    let t1 = Instant::now();
    let peak = tp.walk(bufs, rank, sink)?;
    if cfg!(feature = "failpoints") {
        if rank.id == 0 {
            crate::faults::maybe_poison(core::slice::from_raw_parts_mut(bufs.c, layouts.c.len()));
        }
        rank.sync()?;
    }
    let t2 = Instant::now();
    let cbuf = core::slice::from_raw_parts(bufs.c, layouts.c.len());
    let r = rank.units(layouts.c.grid());
    let (m, n) = (io.m, io.n);
    unpack_tile_cols_raw(cbuf, &layouts.c, io.alpha, io.beta, io.c, io.ldc, m, n, r.start, r.end);
    if let Some(bd) = times {
        *bd = GemmBreakdown { convert_in: t1 - t0, compute: t2 - t1, convert_out: t2.elapsed() };
    }
    Ok(peak)
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
        // The flattened arena and the closed-form counts/workspace model
        // agree at every recursion level.
        for (tile, depth, strassen_min) in
            [(4usize, 3usize, 0usize), (4, 3, 8), (33, 4, 0), (5, 2, 1 << 20), (16, 1, 0)]
        {
            let l = MortonLayout::new(tile, tile, depth);
            let layouts = NodeLayouts::new(l, l, l);
            let policy = ExecPolicy { strassen_min, ..ExecPolicy::default() };
            let mut buf = [LevelPlan::EMPTY; MAX_LEVELS];
            let count = fill_levels(&mut buf, layouts, policy);
            assert_eq!(count, crate::counts::strassen_levels(layouts, policy));

            let mut off = 0usize;
            let mut node = layouts;
            for lp in &buf[..count] {
                assert_eq!(lp.arena_offset, off, "offsets must be the prefix sums");
                // Spell out the closed form rather than round-tripping
                // through counts::staged_level_elems.
                let (qa, qb, qc) =
                    (node.a.quadrant_len(), node.b.quadrant_len(), node.c.quadrant_len());
                assert_eq!(lp.slot_len, qa + qb + qc);
                assert_eq!(lp.slot_len, crate::counts::staged_level_elems(node));
                off += lp.slot_len;
                node = node.child();
            }
            assert_eq!(off, workspace_len(layouts, policy), "arena must equal workspace_len");
        }
        // At tile 4 / depth 3 the arena is 3 · (256 + 64 + 16) = 1008
        // elements (Blocked kernel, no packing tail).
        let l = MortonLayout::new(4, 4, 3);
        let layouts = NodeLayouts::new(l, l, l);
        assert_eq!(workspace_len(layouts, ExecPolicy::default()), 1008);
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
        // arena, never a fresh allocation) and Auto — and for a
        // budget-shaped plan (513³ at `strassen_min: 0` under a quarter of
        // its arena: one fused level over 8 × 8 tiles on a team of two,
        // whose packed terminal widens its B panel to two tile columns).
        let deep = ModgemmConfig { strassen_min: 0, ..Default::default() };
        let quarter = GemmPlan::<f64>::try_new(513, 513, 513, &deep).unwrap().arena_len() / 4;
        let budgeted = ModgemmConfig {
            leaf_kernel: KernelKind::Packed,
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(quarter * 8),
            threads: 2,
            ..deep
        };
        let kernels = [KernelKind::Blocked, KernelKind::Packed, KernelKind::Auto]
            .map(|leaf_kernel| (ModgemmConfig { leaf_kernel, ..Default::default() }, 150));
        for (cfg, dim) in kernels.into_iter().chain([(budgeted, 513)]) {
            let leaf_kernel = cfg.leaf_kernel;
            let (m, k, n) = (dim, dim, dim);
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
            let tp = p.tiled().unwrap();
            if leaf_kernel == KernelKind::Packed {
                assert_eq!(selected, KernelKind::Packed);
                assert!(warm.metrics.bytes_packed > 0, "packed runs report packing traffic");
            }
            let model = crate::counts::packed_bytes(tp.layouts, tp.policy, tp.driver.shape(), 8);
            assert_eq!(warm.metrics.bytes_packed, model, "{leaf_kernel} {dim}");
            if selected != KernelKind::Packed {
                assert_eq!(warm.metrics.bytes_packed, 0);
            }
            if dim == 513 {
                assert_eq!((p.fused_levels(), tp.team, tp.driver.shape()), (1, 2, (3, 2)));
            }
        }
    }

    #[test]
    fn warm_parallel_execution_is_allocation_free_too() {
        // threads = 0 resolves from the machine (may degrade to serial on
        // one core); threads = 6 forces a team of six whatever the
        // machine's own parallelism — both must keep the warm hot path
        // allocation-free. 300 pads to 304 > 256, above the team
        // crossover.
        for threads in [0usize, 6] {
            // `strassen_min: 0`, so the team also carves the paired
            // temporaries of its staged levels.
            let cfg = ModgemmConfig { strassen_min: 0, threads, ..Default::default() };
            let (m, k, n) = (300usize, 300usize, 300usize);
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
                "threads = {threads}: the team's tails must come from the context"
            );
            if threads == 6 {
                assert_eq!(p.tiled().unwrap().team, 6, "explicit threads must engage the team");
                let pool = warm.metrics.pool.expect("a team run must report pool counters");
                assert_eq!(pool.workers, 6);
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
        // A serial and a team execution of the same problem report
        // identical plans_built / flop / level counts, and both report
        // per-level wall times (the team's rank 0 walks every level of
        // the paper-depth recursion, `strassen_min: 0`).
        let (m, k, n) = (300usize, 300usize, 300usize);
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
        let pooled_cfg = ModgemmConfig { strassen_min: 0, threads: 5, ..Default::default() };
        assert!(GemmPlan::<f64>::try_new(m, k, n, &pooled_cfg).unwrap().strassen_levels() >= 1);
        let (serial, c_serial) = run(&ModgemmConfig { threads: 1, ..pooled_cfg });
        let (pooled, c_pooled) = run(&pooled_cfg);

        assert_eq!(c_serial, c_pooled, "team result must be bitwise serial");
        assert_eq!(pooled.plans_built, serial.plans_built);
        assert_eq!(pooled.plans, serial.plans);
        assert_eq!(pooled.flops, serial.flops);
        assert_eq!(pooled.conventional_flops, serial.conventional_flops);
        assert_eq!(pooled.strassen_levels, serial.strassen_levels);
        assert_eq!(pooled.depth, serial.depth);
        assert!(serial.level_time_total() > Duration::ZERO);
        assert!(pooled.level_time_total() > Duration::ZERO);
        assert!(
            pooled.level_times.iter().filter(|t| **t > Duration::ZERO).count() > 1,
            "a team run must report a per-level split, not one coarse bucket: {:?}",
            pooled.level_times
        );
        assert!(serial.pool.is_none(), "serial runs report no pool counters");
        let pool = pooled.pool.expect("team runs report pool counters");
        assert_eq!(pool.workers, 5);
    }

    #[test]
    fn budget_ladder_fuse_then_team_then_recursion_then_kernel() {
        // The full degradation ladder, pinned end to end: fuse 0 → 1 →
        // team → recursion depth → kernel. The fuse, depth and kernel
        // rungs size the serial arena
        // ([`crate::exec::budget_capped_policy`]); the team then takes
        // what the budget leaves over, one terminal tail per helper rank
        // plus the paired temporaries ([`team_size`]), and shrinks to one
        // before a Strassen level goes.
        let cfg0 = ModgemmConfig {
            truncation: Truncation::Fixed(40),
            strassen_min: 0,
            leaf_kernel: KernelKind::Packed,
            fuse_depth: crate::config::FuseDepth::Staged,
            threads: 4,
            ..Default::default()
        };
        // 320 = 40·2^3: three Strassen levels, all staged (`Staged`
        // starts the fuse rung at zero), and above the team crossover.
        let (m, k, n) = (320usize, 320usize, 320usize);
        let l = MortonLayout::new(40, 40, 3);
        let layouts = NodeLayouts::new(l, l, l);
        let policy0 = crate::gemm::capped_policy::<f64>(layouts, &cfg0);
        assert_eq!(policy0.fuse, 0, "Staged keeps every level staged");
        let f1 = ExecPolicy { fuse: 1, ..policy0 };
        let ws = |p| workspace_len(layouts, p);
        // The arena of a team of `w` ranks: the serial arena, one tail per
        // helper rank, and the paired temporaries.
        let team_ws = |p, w: usize| {
            ws(p) + (w - 1) * terminal_tail_len(layouts, p, Driver::LEAF) + paired_len(layouts, p)
        };
        assert!(ws(f1) < ws(policy0), "fusing shrinks the arena");
        assert!(ws(f1) < team_ws(f1, 2), "the team costs memory beyond the serial arena");

        let budgeted = |bytes: usize| ModgemmConfig {
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(bytes),
            ..cfg0
        };
        let facts = |p: &GemmPlan<f64>| {
            let tp = p.tiled().unwrap();
            (tp.team, p.strassen_levels(), p.fused_levels())
        };

        // Rung 0 — unlimited: a full team, full depth, every level staged.
        let free: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg0).unwrap();
        assert_eq!(facts(&free), (4, 3, 0), "rung 0: nothing degrades");

        // Rung 1 — the staged arena no longer fits: the innermost level
        // fuses (0 → 1). The team keeps every rank whose tail fits in
        // what the fused arena leaves over.
        let b1 = ws(policy0) - 1;
        let fused: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(b1 * 8)).unwrap();
        let ranks = (2..=4).rev().find(|&w| team_ws(f1, w) <= b1).unwrap_or(1);
        assert_eq!(facts(&fused), (ranks, 3, 1), "rung 1 (fuse depth)");

        // Rung 2 — the fused full-depth arena fits but its team does
        // not: the team shrinks to one, and the plan keeps every level.
        let solo: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(ws(f1) * 8)).unwrap();
        assert_eq!(facts(&solo), (1, 3, 1), "rung 2 (team)");
        assert_eq!(solo.tiled().unwrap().ws_len(), ws(f1), "a team of one is the arena");

        // Rung 3 — below the fused full-depth arena: recursion depth is
        // sacrificed next, with the fuse and the packed kernel kept.
        let shallow_cfg = budgeted(ws(f1) * 8 - 8);
        let shallow_policy = crate::gemm::capped_policy::<f64>(layouts, &shallow_cfg);
        assert_eq!(shallow_policy.kernel, KernelKind::Packed, "rung 3: kernel survives");
        let shallow: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &shallow_cfg).unwrap();
        assert!(shallow.strassen_levels() < 3, "rung 3 (recursion depth)");
        assert_eq!(shallow.fused_levels(), 1, "rung 3 keeps the fused level");

        // Rung 4 — a budget nothing packed fits in: the kernel itself is
        // swapped for the workspace-free blocked fallback, last.
        let floor_policy = crate::gemm::capped_policy::<f64>(layouts, &budgeted(1));
        assert_eq!(floor_policy.kernel, KernelKind::Blocked, "rung 4 (kernel): the last rung");
        let floor: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &budgeted(1)).unwrap();
        assert_eq!((floor.strassen_levels(), floor.fused_levels()), (0, 0));

        // Every rung still multiplies correctly.
        let a: Matrix<f64> = random_matrix(m, k, 43);
        let b: Matrix<f64> = random_matrix(k, n, 44);
        let expect = modgemm_mat::naive::naive_product(&a, &b);
        let mut ctx = GemmContext::new();
        for plan in [&free, &fused, &solo, &shallow, &floor] {
            let mut c: Matrix<f64> = Matrix::zeros(m, n);
            plan.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
            modgemm_mat::norms::assert_matrix_eq(c.view(), expect.view(), k);
        }
    }

    #[test]
    fn blas_budget_plans_stay_pinned() {
        // The blas_budget shapes, each under a quarter of the unbudgeted
        // plan's arena. The default plans stage no level, so the ladder
        // has no level to fuse or drop: the team of two keeps both ranks
        // and the packed terminal's driver span and B panel shrink until
        // both ranks' slots fit the budget. That is less than one
        // top-level C quadrant, so no level could stage either. Pinning
        // the arenas and spans keeps a ladder edit from moving the
        // benchmark's plans unnoticed. The product stays bitwise the
        // unbudgeted one (i64, 513³).
        let cfg =
            ModgemmConfig { leaf_kernel: KernelKind::Packed, threads: 2, ..Default::default() };
        for ((m, k, n), arena, driver) in [
            ((513, 513, 513), 20_064, (3, 1)),
            ((576, 576, 576), 21_888, (3, 1)),
            ((640, 640, 640), 25_600, (3, 1)),
            ((704, 704, 704), 23_936, (2, 2)),
            ((768, 640, 704), 21_760, (2, 2)),
        ] {
            let free: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
            let budget = free.arena_len() * 8 / 4;
            let memory_budget = crate::config::MemoryBudget::MaxWorkspaceBytes(budget);
            let cfg_q = ModgemmConfig { memory_budget, ..cfg };
            let quarter: GemmPlan<f64> = GemmPlan::try_new(m, k, n, &cfg_q).unwrap();
            let tp = quarter.tiled().unwrap();
            let shape = format!("{m}x{k}x{n}");
            assert_eq!((quarter.strassen_levels(), quarter.fused_levels()), (0, 0), "{shape}");
            assert_eq!((tp.team, quarter.arena_len()), (2, arena), "{shape}");
            assert_eq!(tp.driver.shape(), driver, "{shape}");
            let (pm, pn) = (tp.layouts.c.rows(), tp.layouts.c.cols());
            assert!(budget / 8 < (pm / 2) * (pn / 2), "{shape}: a quarter stages no level");
            assert!(tp.ws_len() * 8 <= budget, "{shape}: {} > {budget}", tp.ws_len() * 8);
            if m == 513 {
                assert_budgeted_product_is_unbudgeted((m, k, n), &cfg, &cfg_q);
            }
        }
    }

    /// Asserts the i64 product of `budgeted` is bitwise that of `free`.
    fn assert_budgeted_product_is_unbudgeted(
        (m, k, n): (usize, usize, usize),
        free: &ModgemmConfig,
        budgeted: &ModgemmConfig,
    ) {
        let a: Matrix<i64> = random_matrix(m, k, 51);
        let b: Matrix<i64> = random_matrix(k, n, 52);
        let mut ctx = GemmContext::new();
        let run = |cfg: &ModgemmConfig, ctx: &mut GemmContext<i64>| {
            let mut c: Matrix<i64> = Matrix::zeros(m, n);
            GemmPlan::try_new(m, k, n, cfg).unwrap().execute(a.view(), b.view(), c.view_mut(), ctx);
            c
        };
        assert!(run(budgeted, &mut ctx) == run(free, &mut ctx), "{m}x{k}x{n}");
    }

    #[test]
    fn half_default_arena_at_1024_shortens_the_conventional_span() {
        // The default plan at 1024³ stages no level: its team of two
        // packs over a driver span of the whole 4-level tree and four
        // tile columns per B panel. Half that arena keeps the packed
        // kernel and both ranks; the span drops to three levels at one
        // column. The ladder only raises `strassen_min`, so it never adds
        // the one fused level whose arena would also fit.
        let n = 1024;
        let cfg =
            ModgemmConfig { leaf_kernel: KernelKind::Packed, threads: 2, ..Default::default() };
        let free = GemmPlan::<f64>::try_new(n, n, n, &cfg).unwrap();
        assert_eq!((free.strassen_levels(), free.tiled().unwrap().driver.shape()), (0, (4, 4)));
        let budget = free.arena_len() * 8 / 2;
        let memory_budget = crate::config::MemoryBudget::MaxWorkspaceBytes(budget);
        let half = ModgemmConfig { memory_budget, ..cfg };
        let p: GemmPlan<f64> = GemmPlan::try_new(n, n, n, &half).unwrap();
        let tp = p.tiled().unwrap();
        assert_eq!((p.strassen_levels(), p.fused_levels()), (0, 0));
        assert_eq!((tp.team, tp.policy.kernel, tp.driver.shape()), (2, KernelKind::Packed, (3, 1)));
        assert!(tp.ws_len() * 8 <= budget);
        assert_budgeted_product_is_unbudgeted((n, n, n), &cfg, &half);
    }

    #[test]
    fn span_team_and_panel_take_what_the_budget_leaves_in_turn() {
        // 513³ at the paper's depth (`strassen_min: 0`) under a quarter of
        // its arena: one fused level over 8 × 8 conventional tiles of 33.
        // The driver spans all three conventional levels (k = 264) when
        // two ranks' slots fit; the team is sized at that span, and the
        // packed B panel then widens by one tile column (9 504 elements)
        // per rank while the budget leaves room. The team never shrinks
        // for a wider panel, and the span never depends on the worker
        // count, so every plan of one budget gives the same f64 bits.
        let n = 513;
        let packed = ModgemmConfig {
            strassen_min: 0,
            leaf_kernel: KernelKind::Packed,
            ..Default::default()
        };
        let quarter = GemmPlan::<f64>::try_new(n, n, n, &packed).unwrap().arena_len() / 4;
        let at = |threads: usize, elems: usize| {
            let memory_budget = crate::config::MemoryBudget::MaxWorkspaceBytes(elems * 8);
            let cfg = ModgemmConfig { threads, memory_budget, ..packed };
            GemmPlan::<f64>::try_new(n, n, n, &cfg).unwrap()
        };
        let shape = |p: &GemmPlan<f64>| {
            let tp = p.tiled().unwrap();
            (tp.team, tp.driver.shape())
        };
        // Two ranks: 2 × (A block + 2 panels) fits 69 234, 3 panels not.
        let narrow = at(2, quarter);
        assert_eq!(shape(&narrow), (2, (3, 2)));
        assert!(narrow.tiled().unwrap().ws_len() <= quarter);
        // Three ranks fit only at one panel column: the nc = 1 fallback.
        assert_eq!(shape(&at(3, quarter)), (3, (3, 1)));
        // Four workers: the budget holds three ranks; the team keeps them.
        assert_eq!(shape(&at(4, quarter)), (3, (3, 1)));
        // One rank alone takes six columns. Unbudgeted, the same plan
        // shape (cut by `strassen_min` instead) takes all eight.
        assert_eq!(shape(&at(1, quarter)), (1, (3, 6)));
        let cut = ModgemmConfig { strassen_min: 528 / 2, threads: 1, ..packed };
        let free = GemmPlan::<f64>::try_new(n, n, n, &cut).unwrap();
        assert_eq!((free.strassen_levels(), free.fused_levels()), (1, 1));
        assert_eq!(shape(&free), (1, (3, 8)));
        // One element short of two full-span slots (2 × 20 064): the span
        // drops to 4 × 4 tiles (10 032 per slot) and both ranks stay, on
        // one worker and on two alike.
        let tight = |threads| at(threads, 2 * 20_064 - 1);
        assert_eq!(shape(&tight(2)), (2, (2, 3)));
        assert_eq!(shape(&tight(1)), (1, (2, 4)));
        // A sixteenth of the default arena still keeps the packed kernel
        // and the team, at a span of 2 × 2 tiles.
        let sixteenth = at(2, 4 * quarter / 16);
        assert_eq!(shape(&sixteenth), (2, (1, 2)));
        assert_eq!(sixteenth.strassen_levels(), 1);
        let a: Matrix<f64> = random_matrix(n, n, 61);
        let b: Matrix<f64> = random_matrix(n, n, 62);
        let run = |p: &GemmPlan<f64>| {
            let mut c: Matrix<f64> = Matrix::zeros(n, n);
            p.execute(a.view(), b.view(), c.view_mut(), &mut GemmContext::new());
            c
        };
        let want = run(&free);
        for p in [&narrow, &at(3, quarter), &at(1, quarter)] {
            assert!(run(p) == want, "{:?}", shape(p));
        }
        assert!(run(&tight(2)) == run(&tight(1)), "a shorter span, one worker or two");
    }

    #[test]
    fn default_arenas_stay_pinned() {
        // The default plans stage no Strassen level up to the crossover,
        // so the arena is the packed terminal's slot alone: one A block
        // and one B panel over a driver span of the whole tree (packed
        // leaves, as `Auto` picks on a vector host). At 256³ that panel
        // is all of B.
        let packed = ModgemmConfig { leaf_kernel: KernelKind::Packed, ..Default::default() };
        for ((m, k, n), arena) in [
            ((640, 640, 640), 204_800),
            ((1100, 900, 1000), 274_688),
            ((1025, 1025, 1025), 346_368),
            ((17, 17, 17), 748),
            ((256, 256, 256), 81_920),
            ((513, 513, 513), 173_184),
            ((384, 200, 300), 65_600),
        ] {
            let p = GemmPlan::<f64>::try_new(m, k, n, &packed).unwrap();
            assert_eq!(p.arena_len(), arena, "{m}x{k}x{n}");
            if modgemm_mat::simd::has_vector_unit() {
                let d = GemmPlan::<f64>::try_new(m, k, n, &ModgemmConfig::default()).unwrap();
                assert_eq!(d.arena_len(), arena, "default {m}x{k}x{n}");
            }
        }
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
        let cfg = ModgemmConfig {
            truncation: Truncation::Fixed(32),
            strassen_min: 0,
            ..Default::default()
        };
        let p: GemmPlan<f64> = GemmPlan::try_new(256, 256, 256, &cfg).unwrap();
        assert_eq!(p.dims(), (256, 256, 256));
        assert_eq!(p.config(), &cfg);
        assert!(!p.is_split());
        assert_eq!(p.strassen_levels(), 3); // 256 = 32 << 3
        assert!(p.arena_len() > 0);
    }

    #[test]
    fn naive_kernel_plans_stay_correct() {
        // The test-oracle kernel and the paper's kernel, through a plan
        // and through the one-shot entry.
        let (m, k, n) = (96usize, 64usize, 80usize);
        let a: Matrix<i64> = random_matrix(m, k, 30);
        let b: Matrix<i64> = random_matrix(k, n, 31);
        for leaf_kernel in [KernelKind::Naive, KernelKind::Blocked] {
            let cfg = ModgemmConfig { leaf_kernel, ..Default::default() };
            let p: GemmPlan<i64> = GemmPlan::try_new(m, k, n, &cfg).unwrap();
            let mut ctx = GemmContext::new();
            let mut c: Matrix<i64> = Matrix::zeros(m, n);
            p.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
            assert_eq!(c, naive_product(&a, &b), "{leaf_kernel}");
            let mut c2: Matrix<i64> = Matrix::zeros(m, n);
            modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c2.view_mut(), &cfg);
            assert_eq!(c2, naive_product(&a, &b), "{leaf_kernel}");
        }
    }
}
