//! Freivalds-style probabilistic result verification.
//!
//! A production fast-matrix-multiply library should let users check a
//! result in `O(n²)` instead of recomputing in `O(n³)`: Freivalds'
//! algorithm tests `C = A·B` by drawing random vectors `x` and comparing
//! `C·x` against `A·(B·x)`. A wrong product is caught with probability at
//! least `1 − 2⁻ʳᵒᵘⁿᵈˢ`; floating-point roundoff is absorbed by a
//! tolerance scaled like the [`modgemm_mat::norms`] model.

use modgemm_mat::view::{MatRef, Op};
use modgemm_mat::Scalar;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `y = op(M)·x` (dense, O(rows·cols)).
fn op_gemv<S: Scalar>(m: MatRef<'_, S>, op: Op, x: &[S], y: &mut [S]) {
    let (r, c) = op.apply_dims(m.rows(), m.cols());
    assert_eq!(x.len(), c);
    assert_eq!(y.len(), r);
    y.fill(S::ZERO);
    match op {
        Op::NoTrans => {
            for (p, &xp) in x.iter().enumerate() {
                for (yi, &mi) in y.iter_mut().zip(m.col(p)) {
                    *yi += mi * xp;
                }
            }
        }
        Op::Trans => {
            for (i, yi) in y.iter_mut().enumerate() {
                // Row i of op(M) is column i of M: a unit-stride dot.
                let mut acc = S::ZERO;
                for (&mp, &xp) in m.col(i).iter().zip(x) {
                    acc += mp * xp;
                }
                *yi = acc;
            }
        }
    }
}

/// Verifies `C ≈ α·op(A)·op(B) + β·C₀` probabilistically in
/// `O(rounds · n²)`.
///
/// Each round draws `x ∈ {0, 1}ⁿ` and checks
/// `‖C·x − (α·op(A)·(op(B)·x) + β·C₀·x)‖∞` against a roundoff-scaled
/// tolerance. Returns `false` as soon as a round fails.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn verify_gemm<S: Scalar>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c0: MatRef<'_, S>,
    c: MatRef<'_, S>,
    rounds: u32,
    seed: u64,
) -> bool {
    let (m, ka) = op_a.apply_dims(a.rows(), a.cols());
    let (kb, n) = op_b.apply_dims(b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions differ");
    assert_eq!(c.dims(), (m, n), "C dims mismatch");
    assert_eq!(c0.dims(), (m, n), "C0 dims mismatch");
    let k = ka;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut x = vec![S::ZERO; n];
    let mut bx = vec![S::ZERO; k];
    let mut abx = vec![S::ZERO; m];
    let mut cx = vec![S::ZERO; m];
    let mut c0x = vec![S::ZERO; m];

    // Tolerance: an entry of C·x sums up to n terms, each an inner
    // product of length k — reuse the GEMM tolerance model with an
    // effective depth of k·n.
    let scale = modgemm_mat::norms::max_abs(c).max(modgemm_mat::norms::max_abs(c0)).max(1.0);
    let tol = modgemm_mat::norms::gemm_tolerance::<S>(k.saturating_mul(n.max(1)), scale);

    for _ in 0..rounds.max(1) {
        for xi in x.iter_mut() {
            *xi = if rng.gen::<bool>() { S::ONE } else { S::ZERO };
        }
        op_gemv(b, op_b, &x, &mut bx);
        op_gemv(a, op_a, &bx, &mut abx);
        op_gemv(c, Op::NoTrans, &x, &mut cx);
        // β = 0 never reads C₀ (BLAS semantics): garbage there, NaN
        // included, must not leak into the reference.
        if beta != S::ZERO {
            op_gemv(c0, Op::NoTrans, &x, &mut c0x);
        }

        for i in 0..m {
            let want = alpha * abx[i] + beta * c0x[i];
            let diff = (cx[i] - want).abs_val().to_f64();
            // A NaN in C·x that the reference does not share (a NaN
            // difference against a finite reference) is a mismatch too;
            // `diff > tol` alone lets it through.
            if diff > tol || (diff.is_nan() && want.abs_val().to_f64().is_finite()) {
                return false;
            }
        }
    }
    true
}

/// Verifies a plain product `C ≈ A·B` (α = 1, β = 0).
#[track_caller]
pub fn verify_product<S: Scalar>(
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    c: MatRef<'_, S>,
    rounds: u32,
    seed: u64,
) -> bool {
    // β = 0 makes C₀ irrelevant; pass C itself to avoid an allocation.
    verify_gemm(S::ONE, Op::NoTrans, a, Op::NoTrans, b, S::ZERO, c, c, rounds, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{modgemm, ModgemmConfig};
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::{Matrix, Op};

    #[test]
    fn accepts_correct_products() {
        for (m, k, n, seed) in [(30usize, 40usize, 20usize, 1u64), (100, 100, 100, 2)] {
            let a: Matrix<f64> = random_matrix(m, k, seed);
            let b: Matrix<f64> = random_matrix(k, n, seed + 1);
            let c = naive_product(&a, &b);
            assert!(verify_product(a.view(), b.view(), c.view(), 8, 99));
        }
    }

    #[test]
    fn accepts_modgemm_results_despite_reassociation() {
        let n = 150;
        let a: Matrix<f64> = random_matrix(n, n, 3);
        let b: Matrix<f64> = random_matrix(n, n, 4);
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        modgemm(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &ModgemmConfig::paper(),
        );
        assert!(verify_product(a.view(), b.view(), c.view(), 8, 100));
    }

    #[test]
    fn rejects_corrupted_entries() {
        let n = 60;
        let a: Matrix<f64> = random_matrix(n, n, 5);
        let b: Matrix<f64> = random_matrix(n, n, 6);
        let mut c = naive_product(&a, &b);
        c.set(17, 42, c.get(17, 42) + 0.01);
        // One round may miss the column (x[42] = 0 half the time);
        // eight rounds miss with probability 2⁻⁸.
        assert!(!verify_gemm(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view(),
            c.view(),
            8,
            101
        ));
    }

    #[test]
    fn rejects_nan_entries_of_a_finite_product() {
        // A NaN difference compares false against any tolerance; the
        // check must still reject it when the reference is finite.
        let n = 60;
        let a: Matrix<f64> = random_matrix(n, n, 5);
        let b: Matrix<f64> = random_matrix(n, n, 6);
        let mut c = naive_product(&a, &b);
        c.set(17, 42, f64::NAN);
        assert!(!verify_product(a.view(), b.view(), c.view(), 8, 101));
    }

    #[test]
    fn rejects_wrong_operand() {
        let n = 50;
        let a: Matrix<f64> = random_matrix(n, n, 7);
        let b: Matrix<f64> = random_matrix(n, n, 8);
        let wrong: Matrix<f64> = random_matrix(n, n, 9);
        let c = naive_product(&a, &wrong);
        assert!(!verify_product(a.view(), b.view(), c.view(), 8, 102));
    }

    #[test]
    fn full_gemm_semantics_with_ops_and_scalars() {
        let (m, k, n) = (40, 30, 50);
        let a: Matrix<f64> = random_matrix(k, m, 10); // op(A) = Aᵀ
        let b: Matrix<f64> = random_matrix(k, n, 11);
        let c0: Matrix<f64> = random_matrix(m, n, 12);
        let mut c = c0.clone();
        modgemm(
            2.0,
            Op::Trans,
            a.view(),
            Op::NoTrans,
            b.view(),
            -0.5,
            c.view_mut(),
            &ModgemmConfig::paper(),
        );
        assert!(verify_gemm(
            2.0,
            Op::Trans,
            a.view(),
            Op::NoTrans,
            b.view(),
            -0.5,
            c0.view(),
            c.view(),
            8,
            103
        ));
        // And the same call must fail against a wrong β.
        assert!(!verify_gemm(
            2.0,
            Op::Trans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.5,
            c0.view(),
            c.view(),
            8,
            104
        ));
    }

    #[test]
    fn exact_on_integers() {
        let a: Matrix<i64> = random_matrix(25, 25, 13);
        let b: Matrix<i64> = random_matrix(25, 25, 14);
        let c = naive_product(&a, &b);
        assert!(verify_product(a.view(), b.view(), c.view(), 4, 105));
        let mut bad = c.clone();
        bad.set(0, 0, bad.get(0, 0) + 1);
        assert!(!verify_product(a.view(), b.view(), bad.view(), 16, 106));
    }
}
