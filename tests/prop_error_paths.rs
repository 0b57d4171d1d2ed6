//! Property tests for the fallible (`try_*`) entry points: malformed
//! shapes, leading dimensions, slice lengths, and non-finite
//! operands must surface as typed [`GemmError`]s — never as panics — and
//! the degradation policies (memory budget, conventional fallback) must
//! still produce correct products.
//!
//! The `proptest!` harness wraps each case in `catch_unwind`, so any
//! panic escaping a `try_*` call fails the property with the drawn
//! inputs; most properties therefore assert *outcomes* (Ok ⇔ the
//! arguments were legal, and Ok ⇒ the numbers are right).

use modgemm::core::blas::{try_dgemm, try_gemm, try_gemm_batch};
use modgemm::core::{
    try_modgemm, GemmError, GemmPlan, MemoryBudget, ModgemmConfig, NonFinitePolicy, Operand,
    Truncation, VerifyMode,
};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_gemm;
use modgemm::mat::view::required_len;
use modgemm::mat::{Matrix, Op};
use modgemm::morton::tiling::TileRange;
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::NoTrans), Just(Op::Trans)]
}

/// Small tile range so small cases still recurse.
fn small_cfg() -> ModgemmConfig {
    ModgemmConfig {
        truncation: Truncation::MinPadding(TileRange::new(4, 16)),
        ..ModgemmConfig::paper()
    }
}

/// Deterministic fill for raw slices (values in roughly ±8).
fn fill(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            ((x >> 40) as i64 as f64).rem_euclid(17.0) - 8.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary — frequently illegal — raw-slice arguments: `try_dgemm`
    /// must return, and Ok must imply a correct product.
    #[test]
    fn try_dgemm_is_total_and_correct_when_ok(
        m in 0usize..24,
        n in 0usize..24,
        k in 0usize..24,
        lda in 0usize..32,
        ldb in 0usize..32,
        ldc in 0usize..32,
        alen in 0usize..900,
        blen in 0usize..900,
        clen in 0usize..900,
        transa in op_strategy(),
        transb in op_strategy(),
        seed in 0u64..1000,
    ) {
        let a = fill(alen, seed);
        let b = fill(blen, seed + 1);
        let c0 = fill(clen, seed + 2);
        let mut c = c0.clone();
        let result = try_dgemm(
            transa, transb, m, n, k, 1.0, &a, lda, &b, ldb, 0.5, &mut c, ldc, &small_cfg(),
        );
        // Legality, recomputed independently of the library's checker.
        let (ar, ac) = transa.apply_dims(m, k);
        let (br, bc) = transb.apply_dims(k, n);
        let legal = lda >= ar.max(1)
            && ldb >= br.max(1)
            && ldc >= m.max(1)
            && alen >= required_len(ar, ac, lda)
            && blen >= required_len(br, bc, ldb)
            && clen >= required_len(m, n, ldc);
        prop_assert_eq!(result.is_ok(), legal, "result {:?}", result);
        if legal {
            // Untouched padding outside the (m, n, ldc) window…
            let window = required_len(m, n, ldc);
            prop_assert!(c[window..] == c0[window..]);
            // …and the window itself matches the naive oracle.
            let mut expect = c0;
            naive_gemm(
                1.0,
                transa,
                modgemm::mat::MatRef::from_slice(&a, ar, ac, lda),
                transb,
                modgemm::mat::MatRef::from_slice(&b, br, bc, ldb),
                0.5,
                modgemm::mat::MatMut::from_slice(&mut expect, m, n, ldc),
            );
            for (i, (&x, &y)) in c[..window].iter().zip(&expect[..window]).enumerate() {
                prop_assert!((x - y).abs() <= 1e-8 * (1.0 + y.abs()), "index {i}: {x} vs {y}");
            }
        }
    }

    /// Every single-argument corruption of a legal call is rejected with
    /// the matching typed error.
    #[test]
    fn each_corruption_yields_its_typed_error(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..20,
        pad in 0usize..4,
        which in 0usize..5,
        seed in 0u64..1000,
    ) {
        let (lda, ldb, ldc) = (m + pad, k + pad, m + pad);
        let a = fill(required_len(m, k, lda), seed);
        let b = fill(required_len(k, n, ldb), seed + 1);
        let mut c = fill(required_len(m, n, ldc), seed + 2);
        let cfg = small_cfg();
        let err = match which {
            0 => try_dgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, &a, m - 1, &b, ldb, 0.0, &mut c, ldc, &cfg),
            1 => try_dgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, &a, lda, &b, k - 1, 0.0, &mut c, ldc, &cfg),
            2 => try_dgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, &a, lda, &b, ldb, 0.0, &mut c, m - 1, &cfg),
            3 => try_dgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, &a[..a.len() - 1], lda, &b, ldb, 0.0, &mut c, ldc, &cfg),
            _ => {
                let short = c.len() - 1;
                try_dgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, &a, lda, &b, ldb, 0.0, &mut c[..short], ldc, &cfg)
            }
        }
        .unwrap_err();
        match which {
            0 => prop_assert_eq!(err, GemmError::BadLeadingDim { operand: Operand::A, ld: m - 1, min: m }),
            1 => prop_assert_eq!(err, GemmError::BadLeadingDim { operand: Operand::B, ld: k - 1, min: k }),
            2 => prop_assert_eq!(err, GemmError::BadLeadingDim { operand: Operand::C, ld: m - 1, min: m }),
            3 => prop_assert!(matches!(err, GemmError::SliceTooShort { operand: Operand::A, .. }), "{err:?}"),
            _ => prop_assert!(matches!(err, GemmError::SliceTooShort { operand: Operand::C, .. }), "{err:?}"),
        }
    }

    /// View-level shape mismatches through `try_modgemm`.
    #[test]
    fn try_modgemm_rejects_mismatched_views(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..20,
        skew in 1usize..5,
        seed in 0u64..1000,
    ) {
        let a: Matrix<f64> = random_matrix(m, k, seed);
        let b_bad: Matrix<f64> = random_matrix(k + skew, n, seed + 1);
        let mut c: Matrix<f64> = Matrix::zeros(m, n);
        prop_assert_eq!(
            try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b_bad.view(), 0.0,
                        c.view_mut(), &small_cfg()),
            Err(GemmError::InnerDimMismatch { a_cols: k, b_rows: k + skew })
        );
        let b: Matrix<f64> = random_matrix(k, n, seed + 1);
        let mut c_bad: Matrix<f64> = Matrix::zeros(m + skew, n);
        prop_assert_eq!(
            try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0,
                        c_bad.view_mut(), &small_cfg()),
            Err(GemmError::OutputDimMismatch { expected: (m, n), got: (m + skew, n) })
        );
    }

    /// Any memory budget — including zero — degrades recursion depth but
    /// never correctness (exact on integers).
    #[test]
    fn memory_budget_never_costs_correctness(
        m in 1usize..60,
        k in 1usize..60,
        n in 1usize..60,
        budget_bytes in 0usize..32_768,
        seed in 0u64..1000,
    ) {
        let cfg = ModgemmConfig {
            memory_budget: MemoryBudget::MaxWorkspaceBytes(budget_bytes),
            ..small_cfg()
        };
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 1);
        let c0: Matrix<i64> = random_matrix(m, n, seed + 2);
        let mut c = c0.clone();
        try_modgemm(2, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -1, c.view_mut(), &cfg)
            .unwrap();
        let mut expect = c0;
        naive_gemm(2, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -1, expect.view_mut());
        prop_assert_eq!(c, expect);
    }

    /// Non-finite operands: `Reject` names the poisoned operand,
    /// `FallbackConventional` agrees with the conventional baseline
    /// bit-for-bit, and neither path panics.
    #[test]
    fn non_finite_policies_are_total(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        poison_b in any::<bool>(),
        use_inf in any::<bool>(),
        pos in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let mut a: Matrix<f64> = random_matrix(m, k, seed);
        let mut b: Matrix<f64> = random_matrix(k, n, seed + 1);
        let bad = if use_inf { f64::INFINITY } else { f64::NAN };
        if poison_b {
            b.set(pos % k, (pos / k) % n, bad);
        } else {
            a.set(pos % m, (pos / m) % k, bad);
        }

        let reject = ModgemmConfig { non_finite: NonFinitePolicy::Reject, ..small_cfg() };
        let mut c: Matrix<f64> = Matrix::zeros(m, n);
        let expected_operand = if poison_b { Operand::B } else { Operand::A };
        prop_assert_eq!(
            try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0,
                        c.view_mut(), &reject),
            Err(GemmError::NonFiniteInput { operand: expected_operand })
        );

        let fallback =
            ModgemmConfig { non_finite: NonFinitePolicy::FallbackConventional, ..small_cfg() };
        let c0: Matrix<f64> = random_matrix(m, n, seed + 2);
        let mut c = c0.clone();
        try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 2.0, c.view_mut(), &fallback)
            .unwrap();
        let mut expect = c0;
        naive_gemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 2.0, expect.view_mut());
        for i in 0..m {
            for j in 0..n {
                let (x, y) = (c.get(i, j), expect.get(i, j));
                prop_assert!(
                    x == y || (x.is_nan() && y.is_nan()),
                    "({}, {}): {} vs {}", i, j, x, y
                );
            }
        }
    }

    /// Freivalds verification accepts honest results for arbitrary
    /// shapes, scalars, and seeds (no spurious `VerificationFailed`).
    #[test]
    fn verification_accepts_honest_products(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        rounds in 1u32..10,
        vseed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let cfg = ModgemmConfig {
            verify: VerifyMode::Freivalds { rounds, seed: vseed },
            ..small_cfg()
        };
        let a: Matrix<f64> = random_matrix(m, k, seed);
        let b: Matrix<f64> = random_matrix(k, n, seed + 1);
        let c0: Matrix<f64> = random_matrix(m, n, seed + 2);
        let bt = b.transposed();
        let mut c = c0.clone();
        try_modgemm(1.5, Op::NoTrans, a.view(), Op::Trans, bt.view(), -0.5,
                    c.view_mut(), &cfg)
            .unwrap();
        let mut expect = c0;
        naive_gemm(1.5, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -0.5, expect.view_mut());
        modgemm::mat::norms::assert_matrix_eq(c.view(), expect.view(), k);
    }

    /// Batched interface: length skew is typed, and generic `try_gemm`
    /// stays total over an integer instantiation too.
    #[test]
    fn batch_and_generic_paths_are_total(
        m in 1usize..12,
        n in 1usize..12,
        k in 1usize..12,
        batch in 1usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = small_cfg();
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 1);
        let mut cs: Vec<Vec<f64>> = (0..batch).map(|i| fill(m * n, seed + 3 + i as u64)).collect();
        let a_refs: Vec<&[f64]> = (0..batch).map(|_| a.as_slice()).collect();
        let b_refs: Vec<&[f64]> = (0..batch).map(|_| b.as_slice()).collect();
        let mut c_refs: Vec<&mut [f64]> = cs.iter_mut().map(|c| c.as_mut_slice()).collect();
        let err = try_gemm_batch(
            m, n, k, 1.0, 0.0, &a_refs[..batch - 1], &b_refs, &mut c_refs, &cfg,
        )
        .unwrap_err();
        prop_assert_eq!(err, GemmError::BatchLenMismatch { a: batch - 1, b: batch, c: batch });

        let ai: Vec<i64> = (0..m * k).map(|i| (i as i64 % 7) - 3).collect();
        let bi: Vec<i64> = (0..k * n).map(|i| (i as i64 % 5) - 2).collect();
        let mut ci = vec![0i64; m * n];
        prop_assert!(try_gemm(
            Op::NoTrans, Op::NoTrans, m, n, k, 1, &ai, m, &bi, k, 0, &mut ci, m, &cfg,
        )
        .is_ok());
    }
}

/// Shapes whose Morton layouts overflow the address arithmetic fail at
/// plan construction with a typed allocation error, never a panic: a
/// joint tiling too deep for a layout, and a fixed tile whose element
/// count wraps `usize`.
#[test]
fn layout_overflow_fails_typed() {
    let huge = 1usize << 40;
    let plan = GemmPlan::<f64>::try_new(huge, huge, huge, &ModgemmConfig::default());
    assert!(matches!(plan, Err(GemmError::Allocation { .. })), "{plan:?}");

    let a: Matrix<f64> = random_matrix(10, 10, 1);
    let b: Matrix<f64> = random_matrix(10, 10, 2);
    let mut c: Matrix<f64> = Matrix::zeros(10, 10);
    let cfg = ModgemmConfig { truncation: Truncation::Fixed(1 << 32), ..ModgemmConfig::default() };
    let got =
        try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg);
    assert!(matches!(got, Err(GemmError::Allocation { .. })), "{got:?}");
}
