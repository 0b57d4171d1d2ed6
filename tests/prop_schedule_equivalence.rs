//! Property tests for the Boyer et al. schedule tiers (low-mem /
//! in-place): the tier changes *where temporaries live*, never *what is
//! computed*. On integer scalars every tier must be **bit-identical** to
//! the naive product — the in-place schedule's operand-restoring add
//! chains are exact on `i64` (adds and subtracts cancel exactly; only
//! floats see rounding perturbation).
//!
//! Covered here:
//! * every tier × every leaf kernel × fuse depths × ragged shapes,
//!   bit-identical to `naive_gemm` on `i64`, for a single GEMM and for a
//!   two-item batch DAG on {1, 2, 7} workers;
//! * warm-context re-execution stays allocation-free on every tier, and
//!   the measured peak workspace equals the planned arena exactly (the
//!   closed-form `counts` model);
//! * cooperative cancellation at every task-dequeue index of an in-place
//!   batch DAG: typed outcome, warm exact allocation-free follow-up.
//!
//! The team a single GEMM runs above 256³ is pinned against the serial
//! interpreter on both tiers by the core crate's
//! `parallel::tests::team_is_bitwise_serial_at_every_team_size`.

use modgemm::core::plan::GemmPlan;
use modgemm::core::{
    BatchPlan, CancelToken, CollectingSink, GemmContext, GemmError, ModgemmConfig, NoopSink,
    Schedule, SchedulePolicy, StridedBatch, Truncation,
};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_product;
use modgemm::mat::{KernelKind, Matrix, Op};
use modgemm::morton::TileRange;
use proptest::prelude::*;

/// Batch DAG worker counts: serial, fewer workers than tasks, and more.
const THREADS: [usize; 3] = [1, 2, 7];

/// Two items `(A, B)` and `(B', A')` of shape `m × k × n`, laid side by
/// side, through a [`BatchPlan`] under `cfg`; returns both outputs
/// side by side as one `m × 2n` matrix.
fn run_pair(
    cfg: &ModgemmConfig,
    (m, k, n): (usize, usize, usize),
    a2: &Matrix<i64>,
    b2: &Matrix<i64>,
) -> Result<Matrix<i64>, GemmError> {
    let plan = BatchPlan::<i64>::try_new(m, k, n, 2, cfg)?;
    let desc = StridedBatch {
        alpha: 1,
        op_a: Op::NoTrans,
        a: a2.as_slice(),
        lda: m,
        stride_a: m * k,
        op_b: Op::NoTrans,
        b: b2.as_slice(),
        ldb: k,
        stride_b: k * n,
        beta: 0,
        ldc: m,
        stride_c: m * n,
    };
    let mut c: Matrix<i64> = Matrix::zeros(m, 2 * n);
    plan.try_execute(&desc, c.as_mut_slice(), &mut GemmContext::new())?;
    Ok(c)
}

/// Runs a planned execution of `cfg` and returns the product plus the
/// metrics of a second (warm) execution on the same context.
fn run_planned(
    cfg: &ModgemmConfig,
    m: usize,
    k: usize,
    n: usize,
    a: &Matrix<i64>,
    b: &Matrix<i64>,
) -> Result<(Matrix<i64>, GemmPlan<i64>, CollectingSink), GemmError> {
    let plan = GemmPlan::<i64>::try_new(m, k, n, cfg)?;
    let mut ctx = GemmContext::new();
    let mut c: Matrix<i64> = Matrix::zeros(m, n);
    plan.try_execute(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c.view_mut(), &mut ctx)?;
    // The warm re-execution: same plan, same context, fresh output.
    let mut c2: Matrix<i64> = Matrix::zeros(m, n);
    let mut sink = CollectingSink::new();
    plan.try_execute_with_metrics(
        1,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        0,
        c2.view_mut(),
        &mut ctx,
        &mut sink,
    )?;
    assert_eq!(c, c2, "warm re-execution must be bit-identical to the cold one");
    Ok((c, plan, sink))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every schedule tier, pinned through the public config, is
    /// bit-identical to `naive_gemm` on `i64` across ragged shapes, leaf
    /// kernels and fuse depths, for a single GEMM and for a two-item
    /// batch DAG at the drawn worker count — and every warm re-execution
    /// is allocation-free with a measured peak workspace exactly equal
    /// to the planned arena.
    #[test]
    fn every_tier_is_bitwise_standard_on_i64(
        m in 1usize..72,
        k in 1usize..72,
        n in 1usize..72,
        kernel_ix in 0usize..KernelKind::ALL.len(),
        fuse in 0usize..2,
        threads_ix in 0usize..THREADS.len(),
        seed in 0u64..1000,
    ) {
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 7);
        let base = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            leaf_kernel: KernelKind::ALL[kernel_ix],
            fuse_depth: modgemm::core::FuseDepth::Fixed(fuse),
            threads: THREADS[threads_ix],
            ..ModgemmConfig::paper()
        };
        // The batch's second item multiplies other operands of the same
        // shape, so a window slot read before its item's convert shows.
        let (a_1, b_1): (Matrix<i64>, Matrix<i64>) =
            (random_matrix(m, k, seed + 11), random_matrix(k, n, seed + 13));
        let a2 = Matrix::from_fn(m, 2 * k, |i, j| if j < k { a.get(i, j) } else { a_1.get(i, j - k) });
        let b2 = Matrix::from_fn(k, 2 * n, |i, j| if j < n { b.get(i, j) } else { b_1.get(i, j - n) });
        let expect2 = {
            let c_1 = naive_product(&a_1, &b_1);
            let c_0 = naive_product(&a, &b);
            Matrix::from_fn(m, 2 * n, |i, j| if j < n { c_0.get(i, j) } else { c_1.get(i, j - n) })
        };

        let expect = naive_product(&a, &b);
        let (c_auto, _, _) = run_planned(&base, m, k, n, &a, &b).unwrap();
        prop_assert_eq!(&c_auto, &expect, "the Auto tier must be exact");

        for sched in Schedule::ALL {
            let cfg = ModgemmConfig { schedule: SchedulePolicy::Fixed(sched), ..base };
            let (c, plan, sink) = run_planned(&cfg, m, k, n, &a, &b).unwrap();
            prop_assert_eq!(
                &c, &expect,
                "tier {:?} kernel {:?} fuse {} must be bitwise naive",
                sched, base.leaf_kernel, fuse
            );
            prop_assert_eq!(
                &run_pair(&cfg, (m, k, n), &a2, &b2).unwrap(), &expect2,
                "batch: tier {:?} kernel {:?} fuse {} threads {} must be bitwise naive",
                sched, base.leaf_kernel, fuse, THREADS[threads_ix]
            );
            prop_assert_eq!(
                sink.metrics.temp_alloc_bytes, 0,
                "tier {:?}: warm re-execution must be allocation-free", sched
            );
            if plan.strassen_levels() > plan.fused_levels() {
                // Staged levels exist, so the tier was actually run (a
                // fully fused or conventional plan normalizes away).
                prop_assert_eq!(
                    sink.metrics.schedule_selected, Some(plan.schedule()),
                    "metrics must report the executed tier"
                );
            }
            if plan.arena_len() > 0 {
                // The measured peak equals the closed-form arena model
                // exactly: the summed per-level slots plus the terminal
                // tail.
                prop_assert_eq!(
                    sink.metrics.workspace_used_elems, plan.arena_len(),
                    "tier {:?}: measured peak workspace must match the planned arena", sched
                );
            }
        }
    }

    /// The one-shot `try_modgemm` pipeline (a throwaway plan per call)
    /// runs every pinned tier; each must match the naive product
    /// exactly.
    #[test]
    fn shared_reference_pipeline_runs_the_borrowable_tiers(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 3);
        let base = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            ..ModgemmConfig::paper()
        };
        let expect = naive_product(&a, &b);
        let mut c_auto: Matrix<i64> = Matrix::zeros(m, n);
        modgemm::core::try_modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0,
            c_auto.view_mut(), &base).unwrap();
        prop_assert_eq!(&c_auto, &expect, "the Auto tier must be exact");
        // The plan owns its packed operands, so a pinned in-place tier
        // runs as pinned and still computes the exact product.
        for sched in Schedule::ALL {
            let cfg = ModgemmConfig { schedule: SchedulePolicy::Fixed(sched), ..base };
            let mut c: Matrix<i64> = Matrix::zeros(m, n);
            modgemm::core::try_modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0,
                c.view_mut(), &cfg).unwrap();
            prop_assert_eq!(&c, &expect, "one-shot tier {:?} must be bitwise naive", sched);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Cancelling an in-place batch DAG at every task-dequeue index:
    /// each item task scribbles on its window slot's packed operand
    /// quadrants mid-flight, so an interrupted run must never poison the
    /// context — the warm follow-up must be allocation-free and
    /// bit-identical.
    #[test]
    fn cancel_at_every_task_index_with_the_in_place_tier(
        m in 24usize..56,
        k in 24usize..56,
        n in 24usize..56,
        seed in 0u64..1000,
    ) {
        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            threads: 4,
            schedule: SchedulePolicy::Fixed(Schedule::InPlace),
            ..ModgemmConfig::paper()
        };
        let plan = BatchPlan::<i64>::try_new(m, k, n, 2, &cfg).unwrap();
        let tasks = plan.parallel_tasks() as u64;
        prop_assert!(tasks > 0, "these shapes must compile a batch DAG");
        prop_assert_eq!(plan.item_plan().schedule(), Schedule::InPlace, "the pin must survive planning");

        let a: Matrix<i64> = random_matrix(m, 2 * k, seed);
        let b: Matrix<i64> = random_matrix(k, 2 * n, seed + 7);
        let desc = StridedBatch {
            alpha: 1, op_a: Op::NoTrans, a: a.as_slice(), lda: m, stride_a: m * k,
            op_b: Op::NoTrans, b: b.as_slice(), ldb: k, stride_b: k * n,
            beta: 0, ldc: m, stride_c: m * n,
        };
        let mut ctx = GemmContext::new();
        let mut c_ref = vec![0i64; 2 * m * n];
        plan.try_execute(&desc, &mut c_ref, &mut ctx).unwrap();

        for cut in 0..=tasks {
            let token = CancelToken::cancelling_after(cut);
            let mut c = vec![0i64; 2 * m * n];
            match plan.try_execute_cancellable_with_metrics(
                &desc, &mut c, &mut ctx, &token, &mut NoopSink,
            ) {
                Ok(()) => prop_assert_eq!(&c, &c_ref, "completed run must be exact (cut {})", cut),
                Err(GemmError::Cancelled) => {}
                other => prop_assert!(false, "unexpected outcome at cut {}: {:?}", cut, other),
            }

            let mut c2 = vec![0i64; 2 * m * n];
            let mut sink = CollectingSink::new();
            plan.try_execute_with_metrics(&desc, &mut c2, &mut ctx, &mut sink).unwrap();
            prop_assert_eq!(&c2, &c_ref, "follow-up after cut {} must be exact", cut);
            prop_assert_eq!(sink.metrics.temp_alloc_bytes, 0,
                "follow-up after cut {} must be allocation-free", cut);
        }
    }
}

/// One deterministic anchor so a broken harness assumption fails loudly:
/// the two tiers pin distinct arena sizes for the same plan, ordered
/// low-mem > in-place, and an unbudgeted `Auto` plan starts at low-mem.
#[test]
fn tiers_order_the_planned_arena() {
    let mk = |schedule| {
        let cfg =
            ModgemmConfig { truncation: Truncation::Fixed(16), schedule, ..ModgemmConfig::paper() };
        let plan = GemmPlan::<i64>::try_new(256, 256, 256, &cfg).unwrap();
        (plan.schedule(), plan.arena_len())
    };
    let (lm, ip) = (Schedule::LowMem, Schedule::InPlace);
    let (auto, lm_len, ip_len) = (
        mk(SchedulePolicy::Auto),
        mk(SchedulePolicy::Fixed(lm)).1,
        mk(SchedulePolicy::Fixed(ip)).1,
    );
    assert_eq!(auto, (lm, lm_len), "Auto starts the ladder at low-mem");
    assert!(lm_len > ip_len, "arena must shrink per tier: {lm_len} > {ip_len}");
    // Square operands and the Blocked kernel (no packing tail): low-mem
    // holds qa + qb + qc = 3q per staged level, in-place q.
    assert_eq!(lm_len, 3 * ip_len);
}
