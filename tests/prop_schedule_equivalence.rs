//! Property tests for the one Winograd linearization every staged level
//! runs ([`modgemm::core::schedule::WINOGRAD_LOWMEM_SCHEDULE`]): where
//! its temporaries live never changes *what is computed*. On integer
//! scalars every plan must be **bit-identical** to the naive product.
//!
//! Covered here:
//! * every leaf kernel × fuse depths × ragged shapes, bit-identical to
//!   `naive_gemm` on `i64`, for a single GEMM and for a two-item batch DAG
//!   on {1, 2, 7} workers;
//! * warm-context re-execution stays allocation-free, and the measured
//!   peak workspace equals the planned arena exactly (the closed-form
//!   `counts` model);
//! * the shared-reference entry (`modgemm_premorton`) never writes its
//!   operands;
//! * cooperative cancellation at every task-dequeue index of a batch
//!   DAG: typed outcome, warm exact allocation-free follow-up.
//!
//! The team a single GEMM runs above 256³ is pinned against the serial
//! interpreter by the core crate's
//! `parallel::tests::team_is_bitwise_serial_at_every_team_size`.

use modgemm::core::plan::GemmPlan;
use modgemm::core::{
    layouts_of, modgemm_premorton, BatchPlan, CancelToken, CollectingSink, GemmContext, GemmError,
    ModgemmConfig, MortonMatrix, NoopSink, Schedule, StridedBatch, Truncation,
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

    /// Every plan is bit-identical to `naive_gemm` on `i64` across
    /// ragged shapes, leaf kernels and fuse depths, for a single GEMM and
    /// for a two-item batch DAG at the drawn worker count — and every
    /// warm re-execution is allocation-free with a measured peak
    /// workspace exactly equal to the planned arena.
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
        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            leaf_kernel: KernelKind::ALL[kernel_ix],
            fuse_depth: [modgemm::core::FuseDepth::Staged, modgemm::core::FuseDepth::Fused][fuse],
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
        let (c, plan, sink) = run_planned(&cfg, m, k, n, &a, &b).unwrap();
        prop_assert_eq!(
            &c, &expect,
            "kernel {:?} fuse {} must be bitwise naive", cfg.leaf_kernel, fuse
        );
        prop_assert_eq!(
            &run_pair(&cfg, (m, k, n), &a2, &b2).unwrap(), &expect2,
            "batch: kernel {:?} fuse {} threads {} must be bitwise naive",
            cfg.leaf_kernel, fuse, THREADS[threads_ix]
        );
        prop_assert_eq!(
            sink.metrics.temp_alloc_bytes, 0, "warm re-execution must be allocation-free"
        );
        if plan.arena_len() > 0 {
            prop_assert_eq!(
                sink.metrics.schedule_selected, Some(Schedule::LowMem),
                "metrics must report the executed schedule"
            );
            // The measured peak equals the closed-form arena model
            // exactly: the summed per-level slots plus the terminal tail.
            prop_assert_eq!(
                sink.metrics.workspace_used_elems, plan.arena_len(),
                "measured peak workspace must match the planned arena"
            );
        }
    }

    /// `modgemm_premorton` borrows its Morton operands shared: it must
    /// match the naive product exactly and leave both operand buffers as
    /// they were.
    #[test]
    fn shared_reference_pipeline_runs_the_borrowable_tiers(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 3);
        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            ..ModgemmConfig::paper()
        };
        // Extreme rectangles have no joint tiling; the one-shot path
        // splits those, and the pre-Morton entry has no split.
        if let Some(tiling) = cfg.plan(m, k, n) {
            let layouts = layouts_of(&tiling);
            let am = MortonMatrix::pack(a.view(), Op::NoTrans, layouts.a);
            let bm = MortonMatrix::pack(b.view(), Op::NoTrans, layouts.b);
            let (a0, b0) = (am.as_slice().to_vec(), bm.as_slice().to_vec());
            let mut cm = MortonMatrix::zeros(m, n, layouts.c);
            modgemm_premorton(&am, &bm, &mut cm, &cfg);
            prop_assert_eq!(cm.to_matrix(), naive_product(&a, &b));
            prop_assert!(am.as_slice() == &a0[..] && bm.as_slice() == &b0[..], "operands written");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Cancelling a batch DAG at every task-dequeue index: each item
    /// task fills its window slot's arena temporaries and Morton C
    /// mid-flight, so an interrupted run must never poison the context —
    /// the warm follow-up must be allocation-free and bit-identical.
    #[test]
    fn cancel_at_every_task_index_of_a_batch_dag(
        m in 24usize..56,
        k in 24usize..56,
        n in 24usize..56,
        seed in 0u64..1000,
    ) {
        let cfg = ModgemmConfig {
            truncation: Truncation::MinPadding(TileRange::new(4, 16)),
            threads: 4,
            ..ModgemmConfig::paper()
        };
        let plan = BatchPlan::<i64>::try_new(m, k, n, 2, &cfg).unwrap();
        let tasks = plan.parallel_tasks() as u64;
        prop_assert!(tasks > 0, "these shapes must compile a batch DAG");

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
