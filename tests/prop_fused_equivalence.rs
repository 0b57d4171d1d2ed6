//! Property tests for operand fusion's cardinal invariant: folding the
//! Winograd adds into packing and the scatter epilogue changes *how*
//! the product is computed, never *what* it computes.
//!
//! * For `fuse_depth` 1 versus 0 × every [`KernelKind`] × ragged and
//!   strided shapes, the fused product on **integer** matrices is
//!   bit-identical to the fully staged schedule. The staged Winograd
//!   path materializes every pre-add and post-merge as an arena
//!   temporary; the fused path materializes none of them — integer
//!   arithmetic leaves no tolerance for the two to hide a discrepancy
//!   behind.
//! * A fused plan executes allocation-free on a warm context, exactly
//!   like its staged counterpart.
//! * Cancelling a fused batch DAG at every task-dequeue index — where
//!   each item task runs a whole fused plan — resolves `Ok` or typed
//!   `Cancelled`, never a hang, panic, or corrupted warm context.

use modgemm::core::fuse::MAX_FUSE;
use modgemm::core::plan::GemmPlan;
use modgemm::core::{
    try_modgemm, BatchPlan, CancelToken, CollectingSink, FuseDepth, GemmContext, GemmError,
    ModgemmConfig, StridedBatch,
};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::view::required_len;
use modgemm::mat::{KernelKind, MatMut, MatRef, Matrix, Op};
use proptest::prelude::*;

/// Fills a leading-dimension-padded backing buffer: in-bounds entries
/// from `seed`, the `ld` gap rows with a sentinel the multiply must
/// never touch.
fn strided_buf(rows: usize, cols: usize, ld: usize, seed: u64) -> Vec<i64> {
    let src: Matrix<i64> = random_matrix(rows, cols, seed);
    let mut buf = vec![i64::MIN + 7; required_len(rows, cols, ld)];
    for j in 0..cols {
        for i in 0..rows {
            buf[j * ld + i] = src.get(i, j);
        }
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The i64 bit-exactness oracle across the whole fusion matrix:
    /// ragged shapes, strided operands, every kernel, the one fused
    /// level. The staged run (`Staged`) is the reference; the
    /// padding gap in the strided output must come through untouched.
    #[test]
    fn fused_is_bit_identical_to_staged_on_i64(
        m in 1usize..56,
        k in 1usize..56,
        n in 1usize..56,
        pad_a in 0usize..5,
        pad_b in 0usize..5,
        pad_c in 0usize..5,
        kernel_sel in 0usize..5,
        alpha in -3i64..4,
        beta in -3i64..4,
        seed in 0u64..1000,
    ) {
        let kernel = KernelKind::ALL[kernel_sel % KernelKind::ALL.len()];
        let (lda, ldb, ldc) = (m + pad_a, k + pad_b, m + pad_c);
        let ab = strided_buf(m, k, lda, seed);
        let bb = strided_buf(k, n, ldb, seed + 1);
        let c0 = strided_buf(m, n, ldc, seed + 2);

        // `strassen_min: 0` keeps Strassen at every quadrant division, so
        // every shape that tiles below its root takes a level to fuse.
        let cfg_at = |fuse_depth| ModgemmConfig {
            strassen_min: 0,
            leaf_kernel: kernel,
            fuse_depth,
            ..Default::default()
        };
        let depth = cfg_at(FuseDepth::Fused).plan(m, k, n).map_or(0, |t| t.depth);
        let levels = GemmPlan::<i64>::try_new(m, k, n, &cfg_at(FuseDepth::Fused))
            .expect("well-formed shape must plan")
            .strassen_levels();
        prop_assert_eq!(levels, depth, "every level of the tiling runs Strassen");
        let run = |fuse_depth: FuseDepth| -> Vec<i64> {
            let cfg = cfg_at(fuse_depth);
            let mut cb = c0.clone();
            try_modgemm(
                alpha,
                Op::NoTrans,
                MatRef::from_slice(&ab, m, k, lda),
                Op::NoTrans,
                MatRef::from_slice(&bb, k, n, ldb),
                beta,
                MatMut::from_slice(&mut cb, m, n, ldc),
                &cfg,
            )
            .expect("well-formed operands must multiply");
            cb
        };

        let staged = run(FuseDepth::Staged);
        let fused = run(FuseDepth::Fused);
        // Whole backing buffers: equality covers the product, the beta
        // blend, and the untouched sentinel rows in the ld gap at once.
        prop_assert_eq!(&fused, &staged, "kernel {}", kernel);
    }
}

#[test]
fn fused_plans_execute_allocation_free_on_a_warm_context() {
    let cfg = ModgemmConfig {
        strassen_min: 0,
        leaf_kernel: KernelKind::Packed,
        fuse_depth: FuseDepth::Fused,
        ..Default::default()
    };
    let (m, k, n) = (150usize, 130, 140);
    let plan = GemmPlan::<f64>::try_new(m, k, n, &cfg).unwrap();
    assert_eq!(plan.fused_levels(), MAX_FUSE, "the plan must actually fuse");
    let a: Matrix<f64> = random_matrix(m, k, 21);
    let b: Matrix<f64> = random_matrix(k, n, 22);
    let mut ctx = GemmContext::new();
    let mut c: Matrix<f64> = Matrix::zeros(m, n);
    plan.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
    let mut warm = CollectingSink::new();
    let mut c2: Matrix<f64> = Matrix::zeros(m, n);
    plan.try_execute_with_metrics(
        1.0,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        0.0,
        c2.view_mut(),
        &mut ctx,
        &mut warm,
    )
    .unwrap();
    assert_eq!(c2, c, "warm fused re-execution must be deterministic");
    assert_eq!(warm.metrics.temp_alloc_bytes, 0, "warm fused execution must be allocation-free");
    assert_eq!(warm.metrics.temp_allocations, 0);
    assert_eq!(warm.metrics.fused_levels, MAX_FUSE, "the sink must report the fused levels");
}

#[test]
fn cancel_mid_dag_covers_fused_leaf_tasks() {
    // A batch DAG whose item tasks each run a whole fused plan: depth 4
    // of Strassen with the innermost level fused. Cancelling at every
    // task-dequeue index must resolve Ok (cancel arrived past the last
    // check) or typed Cancelled — and the warm context must survive for
    // an exact, allocation-free follow-up either way.
    let cfg = ModgemmConfig {
        // 176 = 11·2^4: four Strassen levels, three staged above the
        // fused one.
        truncation: modgemm::core::Truncation::MinPadding(modgemm::morton::TileRange::new(4, 16)),
        strassen_min: 0,
        leaf_kernel: KernelKind::Packed,
        fuse_depth: FuseDepth::Fused,
        threads: 4,
        ..Default::default()
    };
    let (m, k, n, items) = (176usize, 176, 176, 2);
    let plan = BatchPlan::<i64>::try_new(m, k, n, items, &cfg).unwrap();
    assert_eq!(plan.item_plan().fused_levels(), 1, "the item tasks must run fused plans");
    let tasks = plan.parallel_tasks() as u64;
    assert!(tasks > 0, "this batch must compile a task DAG");

    let a: Matrix<i64> = random_matrix(m, items * k, 31);
    let b: Matrix<i64> = random_matrix(k, items * n, 32);
    let desc = StridedBatch {
        alpha: 1,
        op_a: Op::NoTrans,
        a: a.as_slice(),
        lda: m,
        stride_a: m * k,
        op_b: Op::NoTrans,
        b: b.as_slice(),
        ldb: k,
        stride_b: k * n,
        beta: 0,
        ldc: m,
        stride_c: m * n,
    };
    let mut ctx = GemmContext::new();
    let mut c_ref = vec![0i64; items * m * n];
    plan.try_execute(&desc, &mut c_ref, &mut ctx).unwrap();

    for cut in 0..=tasks {
        let token = CancelToken::cancelling_after(cut);
        let mut c = vec![0i64; items * m * n];
        match plan.try_execute_cancellable_with_metrics(
            &desc,
            &mut c,
            &mut ctx,
            &token,
            &mut modgemm::core::NoopSink,
        ) {
            Ok(()) => assert_eq!(c, c_ref, "completed run must be exact (cut {cut})"),
            Err(GemmError::Cancelled) => {}
            other => panic!("unexpected outcome at cut {cut}: {other:?}"),
        }

        let mut c2 = vec![0i64; items * m * n];
        let mut sink = CollectingSink::new();
        plan.try_execute_with_metrics(&desc, &mut c2, &mut ctx, &mut sink).unwrap();
        assert_eq!(c2, c_ref, "follow-up after cut {cut} must be exact");
        assert_eq!(
            sink.metrics.temp_alloc_bytes, 0,
            "follow-up after cut {cut} must be allocation-free"
        );
    }
}
