//! Closed-form operation counts.
//!
//! Used three ways: to report the arithmetic savings of the Strassen
//! recursion, to cross-check the address-tracing executor in
//! `modgemm-cachesim` (which must perform *exactly* this many flops), and
//! to reproduce the §3.1 observation that the arithmetic-only crossover
//! (`T ≈ 16`) is far below the empirically good truncation point
//! (`T ≈ 64`).

use crate::exec::{ExecPolicy, NodeLayouts};
use crate::schedule::Schedule;

/// Flops (multiply + add each counted once) of a conventional
/// `m × k × n` multiply: `2·m·k·n` (the `m·n` final products each need
/// `k` multiplies and `k` adds, counting the add into the accumulator).
pub fn conventional_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// Flops performed by the Morton Strassen-Winograd executor on padded
/// dimensions described by `layouts`, truncated per `policy`. Mirrors
/// [`crate::exec::strassen_mul`] exactly.
pub fn strassen_flops(layouts: NodeLayouts, policy: ExecPolicy) -> u64 {
    if !layouts.uses_strassen(policy) {
        let (m, k, n) = layouts.dims();
        return conventional_flops(m, k, n);
    }
    // Per level: the schedule's A/B/C-shaped additions (one flop per
    // element) plus 7 recursive multiplies. Fused subtrees always run
    // the standard linearization (the fold into packing/epilogue keeps
    // the standard 4+4+7 add structure); only *staged* levels interpret
    // the policy's schedule tier, whose in-place variant spends extra
    // restoring additions on the operands.
    let steps = if fused_levels(layouts, policy) == strassen_levels(layouts, policy) {
        crate::schedule::steps_for(policy.variant, Schedule::Standard)
    } else {
        policy.steps()
    };
    let ops = crate::schedule::count_ops(steps);
    let adds = ops.adds_a as u64 * layouts.a.quadrant_len() as u64
        + ops.adds_b as u64 * layouts.b.quadrant_len() as u64
        + ops.adds_c as u64 * layouts.c.quadrant_len() as u64;
    adds + ops.muls as u64 * strassen_flops(layouts.child(), policy)
}

/// Per-staged-level extra-memory closed forms of the schedule tiers
/// (Boyer/Dumas/Pernet/Zhou, *Memory efficient scheduling of
/// Strassen-Winograd*), in elements, for a node whose quadrants hold
/// `qa`/`qb`/`qc` elements:
///
/// * [`Schedule::Standard`] — `qa + qb + 2·qc`: one S operand slot, one
///   T operand slot, and two product slots (P, Q).
/// * [`Schedule::LowMem`]   — `qa + qb + qc`: the Q slot is scheduled
///   away by accumulating partial U-sums in the `C` quadrants; inputs
///   stay read-only.
/// * [`Schedule::InPlace`]  — `qc`: one product slot only; S/T operands
///   are formed by overwriting the `A`/`B` quadrants and restored by
///   inverse additions before the node completes.
///
/// [`crate::exec::workspace_len`] sums this expression over the staged
/// levels (plus the fused-leaf footprint) to size the serial arena;
/// `GemmPlan` arena sizing and the service's admission estimate
/// (`gemm::buffer_needs`) both consult it through that path.
pub fn schedule_level_extra_elems(sched: Schedule, layouts: NodeLayouts) -> usize {
    sched.level_temp_elems(
        layouts.a.quadrant_len(),
        layouts.b.quadrant_len(),
        layouts.c.quadrant_len(),
    )
}

/// Number of recursion levels that take the Strassen step under
/// `policy` (0 = fully conventional). The level below the last Strassen
/// level — and everything under it — runs the conventional Morton
/// recursion.
pub fn strassen_levels(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    if layouts.uses_strassen(policy) {
        1 + strassen_levels(layouts.child(), policy)
    } else {
        0
    }
}

/// Number of *innermost* Strassen levels that run fused under `policy`
/// (pre-adds folded into packing, post-merges into the epilogue; see
/// [`crate::fuse`]). Delegates to [`crate::exec::fused_levels`].
pub fn fused_levels(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    crate::exec::fused_levels(layouts, policy)
}

/// Number of *staged* Strassen levels — those that materialize S/T arena
/// temporaries: [`strassen_levels`] minus [`fused_levels`].
pub fn staged_levels(layouts: NodeLayouts, policy: ExecPolicy) -> usize {
    strassen_levels(layouts, policy) - fused_levels(layouts, policy)
}

/// Number of leaf multiplies the executor performs under `policy`:
/// each Strassen level spawns the schedule's `muls` (7) recursive
/// products, and every remaining conventional Morton level spawns 8.
pub fn leaf_muls(layouts: NodeLayouts, policy: ExecPolicy) -> u64 {
    if layouts.uses_strassen(policy) {
        let ops = crate::schedule::count_ops(policy.variant.schedule());
        ops.muls as u64 * leaf_muls(layouts.child(), policy)
    } else {
        8u64.pow(layouts.a.depth as u32)
    }
}

/// Modeled bytes moved into packing buffers over one execution: the
/// per-leaf panel footprint ([`modgemm_mat::KernelKind::pack_len`], in
/// elements, zero for non-packing kernels) times [`leaf_muls`] times the
/// element size. This is the `bytes_packed` figure surfaced in
/// [`crate::metrics::ExecMetrics`].
pub fn packed_bytes(layouts: NodeLayouts, policy: ExecPolicy, elem_bytes: usize) -> u64 {
    let (m, k, n) = (layouts.a.tile_rows, layouts.a.tile_cols, layouts.b.tile_cols);
    let per_leaf = policy.kernel.pack_len(m, k, n) as u64;
    if per_leaf == 0 {
        return 0;
    }
    leaf_muls(layouts, policy) * per_leaf * elem_bytes as u64
}

/// Elements one batch item's in-flight window slot occupies across the
/// whole-batch DAG executor's arenas: packed A + packed B + Morton C
/// plus the item's compute slab ([`crate::parallel::parallel_slab_len`]
/// at `item_depth`, which equals the serial [`crate::exec::workspace_len`]
/// when `item_depth == 0`). The batch arena closed form is then simply
/// `window · batch_slot_elems` — admitting *w* items' workspaces instead
/// of `batch · workspace`.
pub fn batch_slot_elems(layouts: NodeLayouts, policy: ExecPolicy, item_depth: usize) -> usize {
    layouts.a.len()
        + layouts.b.len()
        + layouts.c.len()
        + crate::parallel::parallel_slab_len(layouts, policy, item_depth)
}

/// The [`crate::config::MemoryBudget`]-driven in-flight window: the
/// largest `w ≤ requested` with `w · per_slot ≤ max_elems`, floored at 1
/// (the window degrades before the recursion depth does; one slot is the
/// minimum any execution needs). `requested` is also floored at 1.
pub fn batch_window_cap(requested: usize, per_slot: usize, max_elems: usize) -> usize {
    let requested = requested.max(1);
    if per_slot == 0 {
        return requested;
    }
    requested.min(max_elems / per_slot).max(1)
}

/// The arithmetic-count model of §3.1: the recursion is profitable (by
/// operation count alone) down to the size where one Strassen step stops
/// saving flops. For square `n`, one step costs
/// `7·2·(n/2)³ + 15·(n/2)²` versus `2n³` conventionally; the crossover
/// solves to `n = 15/2 · ... ≈ 15` — returns the smallest even `n` where
/// the step saves flops.
pub fn arithmetic_crossover() -> usize {
    let mut n = 2usize;
    loop {
        let conv = conventional_flops(n, n, n);
        let half = n / 2;
        let step = 7 * conventional_flops(half, half, half) + 15 * (half * half) as u64;
        if step < conv {
            return n;
        }
        n += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_morton::MortonLayout;

    fn square(tile: usize, depth: usize) -> NodeLayouts {
        let l = MortonLayout::new(tile, tile, depth);
        NodeLayouts::new(l, l, l)
    }

    #[test]
    fn conventional_count() {
        assert_eq!(conventional_flops(2, 3, 4), 48);
    }

    #[test]
    fn leaf_equals_conventional() {
        let l = square(32, 0);
        assert_eq!(strassen_flops(l, ExecPolicy::default()), conventional_flops(32, 32, 32));
    }

    #[test]
    fn one_level_formula() {
        // n = 64, tile 32, depth 1: 15 adds of 32² + 7 multiplies of 32³·2.
        let l = square(32, 1);
        let expect = 15 * 32 * 32 + 7 * conventional_flops(32, 32, 32);
        assert_eq!(strassen_flops(l, ExecPolicy::default()), expect);
    }

    #[test]
    fn strassen_beats_conventional_at_scale() {
        // 1024 = 32·2⁵: full unfolding must save a lot of arithmetic.
        let l = square(32, 5);
        let s = strassen_flops(l, ExecPolicy::default());
        let c = conventional_flops(1024, 1024, 1024);
        assert!(s < c, "{s} >= {c}");
        // Savings ratio approaches (7/8)^5 ≈ 0.51 for the multiplies.
        assert!((s as f64) < 0.75 * c as f64);
    }

    #[test]
    fn truncation_increases_flops_monotonically_toward_conventional() {
        let l = square(16, 6); // 1024 with tile 16
        let full = strassen_flops(l, ExecPolicy::default());
        let trunc = strassen_flops(l, ExecPolicy { strassen_min: 128, ..Default::default() });
        let conv = strassen_flops(l, ExecPolicy { strassen_min: usize::MAX, ..Default::default() });
        assert!(full < trunc && trunc < conv);
        assert_eq!(conv, conventional_flops(1024, 1024, 1024));
    }

    #[test]
    fn strassen_levels_follow_policy() {
        let l = square(4, 3); // 32 = 4·2³
        assert_eq!(strassen_levels(l, ExecPolicy::default()), 3);
        assert_eq!(strassen_levels(l, ExecPolicy { strassen_min: 16, ..Default::default() }), 1);
        assert_eq!(
            strassen_levels(l, ExecPolicy { strassen_min: usize::MAX, ..Default::default() }),
            0
        );
        assert_eq!(strassen_levels(square(4, 0), ExecPolicy::default()), 0);
    }

    #[test]
    fn leaf_muls_mixes_strassen_and_conventional_branching() {
        use modgemm_mat::KernelKind;
        let l = square(4, 3); // 32 = 4·2³
                              // Full Strassen: 7 per level.
        assert_eq!(leaf_muls(l, ExecPolicy::default()), 7 * 7 * 7);
        // One Strassen level, two conventional: 7·8².
        let one = ExecPolicy { strassen_min: 16, ..Default::default() };
        assert_eq!(leaf_muls(l, one), 7 * 8 * 8);
        // Fully conventional: 8³.
        let conv = ExecPolicy { strassen_min: usize::MAX, ..Default::default() };
        assert_eq!(leaf_muls(l, conv), 8 * 8 * 8);
        // Leaf node: exactly one multiply.
        assert_eq!(leaf_muls(square(4, 0), ExecPolicy::default()), 1);

        // packed_bytes: zero for non-packing kernels; for Packed it is
        // leaves × per-leaf panel footprint × element size.
        assert_eq!(packed_bytes(l, ExecPolicy::default(), 8), 0);
        let packed = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let per_leaf = KernelKind::Packed.pack_len(4, 4, 4) as u64;
        assert!(per_leaf > 0);
        assert_eq!(packed_bytes(l, packed, 8), 7 * 7 * 7 * per_leaf * 8);
        // Auto resolves inside pack_len; on a tiny 4-wide tile it falls
        // back to Blocked, which packs nothing.
        let auto = ExecPolicy { kernel: KernelKind::Auto, ..Default::default() };
        assert_eq!(packed_bytes(l, auto, 8), 0);
    }

    #[test]
    fn fused_and_staged_levels_partition_the_recursion() {
        use modgemm_mat::KernelKind;
        let l = square(4, 3); // 32 = 4·2³, three Strassen levels
        for fuse in 0..=4 {
            let p = ExecPolicy { fuse, ..Default::default() };
            let f = fused_levels(l, p);
            assert_eq!(f, fuse.min(crate::fuse::MAX_FUSE).min(3));
            assert_eq!(staged_levels(l, p) + f, strassen_levels(l, p));
        }
        // Conventional policies fuse nothing.
        let conv = ExecPolicy { fuse: 2, strassen_min: usize::MAX, ..Default::default() };
        assert_eq!(fused_levels(l, conv), 0);

        // The fused arena closed form, pinned against the workspace
        // model: each fused level removes its 4-slot staged footprint
        // while leaf_muls / packed_bytes are unchanged (fused packing
        // writes one combined panel per leaf product — no double-count).
        let packed = ExecPolicy { kernel: KernelKind::Packed, ..Default::default() };
        let fused1 = ExecPolicy { fuse: 1, ..packed };
        let innermost_slots = 4 * square(4, 1).a.quadrant_len();
        assert_eq!(
            crate::exec::workspace_len(l, fused1),
            crate::exec::workspace_len(l, packed) - innermost_slots
        );
        assert_eq!(leaf_muls(l, fused1), leaf_muls(l, packed));
        assert_eq!(packed_bytes(l, fused1, 8), packed_bytes(l, packed, 8));
    }

    #[test]
    fn batch_slot_and_window_closed_forms() {
        let l = square(4, 3);
        let p = ExecPolicy::default();
        // item_depth 0: the slot is the three Morton buffers plus the
        // serial arena.
        let serial = crate::exec::workspace_len(l, p);
        let slot0 = batch_slot_elems(l, p, 0);
        assert_eq!(slot0, 3 * l.a.len() + serial);
        // A deeper item DAG swaps the serial arena for the parallel slab.
        let slot1 = batch_slot_elems(l, p, 1);
        assert_eq!(slot1, 3 * l.a.len() + crate::parallel::parallel_slab_len(l, p, 1));
        assert!(slot1 > slot0);

        // Window capping: unlimited admits the request, a tight budget
        // degrades toward 1 but never to 0.
        assert_eq!(batch_window_cap(8, slot0, usize::MAX), 8);
        assert_eq!(batch_window_cap(8, slot0, 3 * slot0), 3);
        assert_eq!(batch_window_cap(8, slot0, slot0 - 1), 1);
        assert_eq!(batch_window_cap(0, slot0, usize::MAX), 1);
        assert_eq!(batch_window_cap(4, 0, 0), 4);
    }

    #[test]
    fn schedule_tiers_change_add_counts_and_extra_memory() {
        let l = square(4, 1); // one staged level, 4×4 quadrants (qa = qb = qc = 16)
        let std = ExecPolicy::default();
        let lowmem = ExecPolicy { schedule: Schedule::LowMem, ..std };
        let inplace = ExecPolicy { schedule: Schedule::InPlace, ..std };

        // Standard and LowMem perform the same 15 adds; InPlace spends
        // 9 + 8 + 7 = 24 (the restoring additions) — still 7 multiplies.
        let leaf = conventional_flops(4, 4, 4);
        assert_eq!(strassen_flops(l, std), 15 * 16 + 7 * leaf);
        assert_eq!(strassen_flops(l, lowmem), 15 * 16 + 7 * leaf);
        assert_eq!(strassen_flops(l, inplace), 24 * 16 + 7 * leaf);

        // Per-level extra-memory closed forms: qa+qb+2qc / qa+qb+qc / qc.
        assert_eq!(schedule_level_extra_elems(Schedule::Standard, l), 4 * 16);
        assert_eq!(schedule_level_extra_elems(Schedule::LowMem, l), 3 * 16);
        assert_eq!(schedule_level_extra_elems(Schedule::InPlace, l), 16);

        // Fused levels always run the standard fold: with every level
        // fused, the tier no longer changes the flop count.
        let l2 = square(4, 2);
        let fused_all = ExecPolicy { fuse: 2, ..std };
        let fused_all_ip = ExecPolicy { fuse: 2, ..inplace };
        assert_eq!(fused_levels(l2, fused_all), 2);
        assert_eq!(strassen_flops(l2, fused_all_ip), strassen_flops(l2, fused_all));
        // With one staged + one fused level, only the staged level pays
        // the in-place surcharge: (24 − 15) · qc of the outer level.
        let half = ExecPolicy { fuse: 1, ..std };
        let half_ip = ExecPolicy { fuse: 1, ..inplace };
        let outer_q = l2.c.quadrant_len() as u64;
        assert_eq!(strassen_flops(l2, half_ip), strassen_flops(l2, half) + 9 * outer_q);
    }

    #[test]
    fn crossover_matches_paper_ballpark() {
        // §3.1: "If one were to estimate running time by counting
        // arithmetic operations, the recursion truncation point would be
        // around 16."
        let x = arithmetic_crossover();
        assert!((10..=20).contains(&x), "crossover {x}");
    }
}
