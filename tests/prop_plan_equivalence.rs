//! Property tests for the plan/execute split: a precompiled
//! [`GemmPlan`] must be *observationally identical* to the legacy
//! one-shot pipeline it refactors.
//!
//! * For random shapes, `(α, β)` pairs, transposes, truncation
//!   policies, kernels, thread counts, fuse depths and batch windows,
//!   planned execution over **integer** matrices — warm, cold, and as a
//!   two-item [`BatchPlan`] — is bit-identical to `try_modgemm` and to
//!   the naive oracle: a knob changes *which* plan is built, never
//!   *what* it computes.
//! * The `try_*` planning and execution paths never panic: mismatched
//!   operands and degenerate dimensions all come back as `Ok` or a typed
//!   [`GemmError`].

use modgemm::core::plan::GemmPlan;
use modgemm::core::{
    try_modgemm, BatchPlan, FuseDepth, GemmContext, GemmError, ModgemmConfig, StridedBatch,
    Truncation, VerifyMode,
};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_gemm;
use modgemm::mat::{KernelKind, Matrix, Op};
use modgemm::morton::TileRange;
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::NoTrans), Just(Op::Trans)]
}

/// Decodes a drawn `(selector, lo, width)` triple into a truncation
/// policy (the vendored proptest has no `prop_map`, so composite values
/// are decoded in the test body).
fn decode_truncation(selector: bool, lo: usize, width: usize) -> Truncation {
    if selector {
        Truncation::MinPadding(TileRange::new(lo, lo + width))
    } else {
        Truncation::Fixed(lo + width)
    }
}

fn decode_kernel(selector: usize) -> KernelKind {
    KernelKind::ALL[selector % KernelKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Planned execution is bit-identical to the one-shot path on
    /// integer matrices, across shapes (including split-prone
    /// rectangles), scaling parameters, transposes, truncation policies,
    /// leaf kernels, thread counts, fuse depths and batch windows; every
    /// result equals the one naive product.
    #[test]
    fn planned_execute_is_bit_identical_to_one_shot(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        alpha in -3i64..4,
        beta in -3i64..4,
        op_a in op_strategy(),
        op_b in op_strategy(),
        trunc_kind in any::<bool>(),
        trunc_lo in 2usize..8,
        trunc_width in 4usize..20,
        kernel_sel in 0usize..5,
        strassen_min in 0usize..12,
        threads in 0usize..4,
        fuse_sel in 0usize..3,
        batch_window in 0usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = ModgemmConfig {
            truncation: decode_truncation(trunc_kind, trunc_lo, trunc_width),
            leaf_kernel: decode_kernel(kernel_sel),
            strassen_min,
            threads,
            fuse_depth: [FuseDepth::Auto, FuseDepth::Staged, FuseDepth::Fused][fuse_sel],
            batch_window,
            ..Default::default()
        };
        let (ar, ac) = op_a.apply_dims(m, k);
        let (br, bc) = op_b.apply_dims(k, n);
        let a: Matrix<i64> = random_matrix(ar, ac, seed);
        let b: Matrix<i64> = random_matrix(br, bc, seed + 1);
        let c0: Matrix<i64> = random_matrix(m, n, seed + 2);

        let mut expected = c0.clone();
        naive_gemm(alpha, op_a, a.view(), op_b, b.view(), beta, expected.view_mut());

        let mut c_legacy = c0.clone();
        try_modgemm(alpha, op_a, a.view(), op_b, b.view(), beta, c_legacy.view_mut(), &cfg)
            .expect("legacy path must accept well-formed operands");
        prop_assert_eq!(&c_legacy, &expected);

        let plan = GemmPlan::<i64>::try_new(m, k, n, &cfg)
            .expect("planning must accept a valid configuration");
        let mut ctx = GemmContext::new();
        let mut c_planned = c0.clone();
        plan.try_execute(
            alpha, op_a, a.view(), op_b, b.view(), beta, c_planned.view_mut(), &mut ctx,
        )
        .expect("planned path must accept matching operands");
        prop_assert_eq!(&c_planned, &expected);

        // A second execution on the warm context must agree too.
        let mut c_again = c0.clone();
        plan.try_execute(
            alpha, op_a, a.view(), op_b, b.view(), beta, c_again.view_mut(), &mut ctx,
        )
        .expect("warm re-execution must succeed");
        prop_assert_eq!(&c_again, &expected);

        // The plan as a two-item batch (both items broadcast the same
        // operands; the threads and window shape the batch DAG) agrees
        // item by item.
        let batch = BatchPlan::from_plan(plan, 2);
        let desc = StridedBatch {
            alpha, op_a, a: a.as_slice(), lda: ar, stride_a: 0,
            op_b, b: b.as_slice(), ldb: br, stride_b: 0,
            beta, ldc: m, stride_c: m * n,
        };
        let mut c_batch = [c0.as_slice(), c0.as_slice()].concat();
        batch.try_execute(&desc, &mut c_batch, &mut ctx).expect("batch must execute");
        prop_assert_eq!(&c_batch[..m * n], expected.as_slice());
        prop_assert_eq!(&c_batch[m * n..], expected.as_slice());
    }

    /// The `try_*` plan paths are total: wrong-shaped operands, degenerate
    /// dimensions, and verification modes surface as typed errors or Ok,
    /// never as panics — and a shape mismatch is reported as
    /// `PlanShapeMismatch` with the planned triple echoed back.
    #[test]
    fn try_plan_paths_never_panic(
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        am in 0usize..40,
        ak in 0usize..40,
        bk in 0usize..40,
        bn in 0usize..40,
        verify_rounds in 0u32..4,
        seed in 0u64..1000,
    ) {
        let verify = if verify_rounds == 0 {
            VerifyMode::Off
        } else {
            VerifyMode::Freivalds { rounds: verify_rounds, seed }
        };
        let cfg = ModgemmConfig { verify, ..Default::default() };
        let plan = GemmPlan::<f64>::try_new(m, k, n, &cfg)
            .unwrap_or_else(|e| panic!("planning rejected {m}x{k}x{n}: {e}"));
        let a: Matrix<f64> = random_matrix(am, ak, seed);
        let b: Matrix<f64> = random_matrix(bk, bn, seed + 1);
        let mut c: Matrix<f64> = Matrix::zeros(am, bn);
        let mut ctx = GemmContext::new();
        let result = plan.try_execute(
            1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &mut ctx,
        );
        match result {
            Ok(_) => {
                // Success requires the operands to have matched the plan.
                prop_assert_eq!((am, ak, bk, bn), (m, k, k, n));
            }
            Err(GemmError::PlanShapeMismatch { planned, got }) => {
                prop_assert_eq!(planned, (m, k, n));
                prop_assert_ne!(got, planned);
            }
            Err(GemmError::InnerDimMismatch { a_cols, b_rows }) => {
                prop_assert_eq!((a_cols, b_rows), (ak, bk));
            }
            Err(GemmError::OutputDimMismatch { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
