//! Interface plumbing shared by the column-major baselines.
//!
//! The baselines' core routines compute the plain overwrite product
//! `D ← A·B` on `NoTrans` operands, like the paper's core routines
//! (§3.5). This module supplies the standard BLAS wrapper around such a
//! core: transposition is realized by an explicit transpose copy at the
//! interface (the column-major analogue of MODGEMM folding `op` into the
//! Morton conversion), and general `α`/`β` by computing into a temporary
//! `D` and post-processing `C ← α·D + β·C`.

use modgemm_mat::addsub::axpby_view;
use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::{Matrix, Scalar};

/// Owned `op(x)` as a contiguous column-major matrix when a copy is
/// needed, or `None` when the stored matrix can be used directly.
fn materialize_op<S: Scalar>(x: MatRef<'_, S>, op: Op) -> Option<Matrix<S>> {
    match op {
        Op::NoTrans => None,
        Op::Trans => Some(Matrix::from_fn(x.cols(), x.rows(), |i, j| x.get(j, i))),
    }
}

/// Scales `C ← β·C` in place, honoring the BLAS rule that `β = 0` writes
/// zeros without reading `C`.
pub fn scale_view<S: Scalar>(beta: S, c: &mut MatMut<'_, S>) {
    if beta == S::ONE {
        return;
    }
    for j in 0..c.cols() {
        let col = c.col_mut(j);
        if beta == S::ZERO {
            col.fill(S::ZERO);
        } else {
            for x in col {
                *x *= beta;
            }
        }
    }
}

/// An overwrite multiply callback: computes `D ← A·B` into its third
/// argument. [`blas_wrap`] wraps one into full GEMM semantics;
/// [`winograd_step_views`] recurses through one.
pub type MulCore<'a, S> = dyn FnMut(MatRef<'_, S>, MatRef<'_, S>, MatMut<'_, S>) + 'a;

/// Wraps a `D ← A·B` overwrite core into the full
/// `C ← α·op(A)·op(B) + β·C` interface.
///
/// # Panics
/// On dimension mismatch between `op(A)`, `op(B)`, and `C`.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn blas_wrap<S: Scalar>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
    core: &mut MulCore<'_, S>,
) {
    let (m, ka) = op_a.apply_dims(a.rows(), a.cols());
    let (kb, n) = op_b.apply_dims(b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions differ: {ka} vs {kb}");
    assert_eq!(c.dims(), (m, n), "C must be {m}x{n}, got {:?}", c.dims());

    if m == 0 || n == 0 {
        return;
    }
    if ka == 0 || alpha == S::ZERO {
        scale_view(beta, &mut c);
        return;
    }

    let a_owned = materialize_op(a, op_a);
    let b_owned = materialize_op(b, op_b);
    let av = a_owned.as_ref().map(|x| x.view()).unwrap_or(a);
    let bv = b_owned.as_ref().map(|x| x.view()).unwrap_or(b);

    if alpha == S::ONE && beta == S::ZERO {
        core(av, bv, c);
    } else {
        let mut d: Matrix<S> = Matrix::zeros(m, n);
        core(av, bv, d.view_mut());
        if beta == S::ZERO {
            // Write α·D without reading C.
            for j in 0..n {
                for (dst, &src) in c.col_mut(j).iter_mut().zip(d.view().col(j)) {
                    *dst = alpha * src;
                }
            }
        } else {
            axpby_view(alpha, d.view(), beta, c);
        }
    }
}

/// One Winograd division step over column-major views with even
/// dimensions. `recurse(a, b, c)` computes the half-size overwrite
/// products. The step order is DGEFMM's own 22-step linearization, with
/// the C quadrants as product scratch — legal because an exact even
/// split never aliases — and four per-level temporaries (`ts`, `tt`,
/// `tp`, `tq`).
///
/// Shared by DGEFMM (recursing into the peeling core) and the
/// Bailey-style fixed-unfolding code (recursing a fixed number of
/// levels).
#[track_caller]
pub fn winograd_step_views<S: Scalar>(
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    c: MatMut<'_, S>,
    recurse: &mut MulCore<'_, S>,
) {
    use modgemm_mat::addsub::{
        add_assign_view, add_view, rsub_assign_view, sub_assign_view, sub_view,
    };

    let (m, k) = a.dims();
    let (_, n) = b.dims();
    debug_assert!(m % 2 == 0 && k % 2 == 0 && n % 2 == 0, "even dimensions required");
    let (m2, k2, n2) = (m / 2, k / 2, n / 2);

    let (a11, a12, a21, a22) = a.split_quad(m2, k2);
    let (b11, b12, b21, b22) = b.split_quad(k2, n2);
    let (mut c11, mut c12, mut c21, mut c22) = c.split_quad(m2, n2);

    let mut ts: Matrix<S> = Matrix::zeros(m2, k2);
    let mut tt: Matrix<S> = Matrix::zeros(k2, n2);
    let mut tp: Matrix<S> = Matrix::zeros(m2, n2);
    let mut tq: Matrix<S> = Matrix::zeros(m2, n2);

    sub_view(ts.view_mut(), a11, a21); // S3 = A11 − A21
    sub_view(tt.view_mut(), b22, b12); // T3 = B22 − B12
    recurse(ts.view(), tt.view(), tp.view_mut()); // P5 → tp
    add_view(ts.view_mut(), a21, a22); // S1 = A21 + A22
    sub_view(tt.view_mut(), b12, b11); // T1 = B12 − B11
    recurse(ts.view(), tt.view(), c22.reborrow()); // P3 → C22
    sub_assign_view(ts.view_mut(), a11); // S2 = S1 − A11
    rsub_assign_view(tt.view_mut(), b22); // T2 = B22 − T1
    recurse(ts.view(), tt.view(), c11.reborrow()); // P4 → C11
    rsub_assign_view(ts.view_mut(), a12); // S4 = A12 − S2
    recurse(ts.view(), b22, c12.reborrow()); // P6 → C12
    rsub_assign_view(tt.view_mut(), b21); // T4 = B21 − T2
    recurse(a22, tt.view(), c21.reborrow()); // P7 → C21
    recurse(a11, b11, tq.view_mut()); // P1 → tq
    add_assign_view(c11.reborrow(), tq.view()); // U2 = P4 + P1
    add_assign_view(c12.reborrow(), c22.as_ref()); // P6 + P3
    add_assign_view(c12.reborrow(), c11.as_ref()); // U7 → C12 done
    add_assign_view(c11.reborrow(), tp.view()); // U3 = U2 + P5
    add_assign_view(c21.reborrow(), c11.as_ref()); // U4 → C21 done
    add_assign_view(c22.reborrow(), c11.as_ref()); // U5 → C22 done
    recurse(a12, b21, tp.view_mut()); // P2 → tp
    add_view(c11, tq.view(), tp.view()); // U1 = P1 + P2 → C11 done
}

/// `y ← A·x` (matrix-vector, overwrite), column-major friendly: walks the
/// columns of `A` accumulating `x[p] · A[:,p]`.
#[track_caller]
pub fn gemv_overwrite<S: Scalar>(a: MatRef<'_, S>, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), a.cols(), "x length mismatch");
    assert_eq!(y.len(), a.rows(), "y length mismatch");
    y.fill(S::ZERO);
    for (p, &xp) in x.iter().enumerate() {
        for (yi, &ai) in y.iter_mut().zip(a.col(p)) {
            *yi += ai * xp;
        }
    }
}

/// `yᵀ ← xᵀ·B` (vector-matrix, overwrite): for each column of `B`, a dot
/// product with `x` (the column is contiguous; `x` is reused from cache).
#[track_caller]
pub fn gevm_overwrite<S: Scalar>(x: &[S], b: MatRef<'_, S>, y: &mut [S]) {
    assert_eq!(x.len(), b.rows(), "x length mismatch");
    assert_eq!(y.len(), b.cols(), "y length mismatch");
    for (j, yj) in y.iter_mut().enumerate() {
        let mut acc = S::ZERO;
        for (&xp, &bp) in x.iter().zip(b.col(j)) {
            acc += xp * bp;
        }
        *yj = acc;
    }
}

/// Gathers row `i` of a view into a `Vec` (rows are strided in
/// column-major storage).
pub fn gather_row<S: Scalar>(x: MatRef<'_, S>, i: usize) -> Vec<S> {
    (0..x.cols()).map(|j| x.get(i, j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::blocked::blocked_mul;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::{naive_gemm, naive_product};

    #[test]
    fn wrap_reproduces_full_blas_semantics() {
        for (op_a, op_b) in [
            (Op::NoTrans, Op::NoTrans),
            (Op::Trans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::Trans),
        ] {
            let (m, k, n) = (7, 9, 5);
            let (ar, ac) = op_a.apply_dims(m, k);
            let (br, bc) = op_b.apply_dims(k, n);
            let a: Matrix<i64> = random_matrix(ar, ac, 1);
            let b: Matrix<i64> = random_matrix(br, bc, 2);
            let c0: Matrix<i64> = random_matrix(m, n, 3);

            let mut got = c0.clone();
            blas_wrap(3, op_a, a.view(), op_b, b.view(), -2, got.view_mut(), &mut |x, y, z| {
                blocked_mul(x, y, z)
            });
            let mut expect = c0;
            naive_gemm(3, op_a, a.view(), op_b, b.view(), -2, expect.view_mut());
            assert_eq!(got, expect, "{op_a:?} {op_b:?}");
        }
    }

    #[test]
    fn wrap_beta_zero_ignores_nan() {
        let a: Matrix<f64> = random_matrix(4, 4, 1);
        let b: Matrix<f64> = random_matrix(4, 4, 2);
        let mut c = Matrix::from_fn(4, 4, |_, _| f64::NAN);
        blas_wrap(
            2.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &mut |x, y, z| blocked_mul(x, y, z),
        );
        assert!(c.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gemv_and_gevm_match_naive() {
        let a: Matrix<i64> = random_matrix(5, 7, 4);
        let x: Vec<i64> = (0..7).map(|i| i - 3).collect();
        let mut y = vec![0i64; 5];
        gemv_overwrite(a.view(), &x, &mut y);
        let xm = Matrix::from_vec(x.clone(), 7, 1);
        let expect = naive_product(&a, &xm);
        assert_eq!(y, expect.as_slice());

        let x2: Vec<i64> = (0..5).map(|i| 2 * i + 1).collect();
        let mut y2 = vec![0i64; 7];
        gevm_overwrite(&x2, a.view(), &mut y2);
        let xm2 = Matrix::from_vec(x2, 1, 5);
        let expect2 = naive_product(&xm2, &a);
        assert_eq!(y2, expect2.as_slice());
    }

    #[test]
    fn gather_row_reads_strided_rows() {
        let a: Matrix<i64> = modgemm_mat::gen::coordinate_matrix(4, 6);
        let r = gather_row(a.view(), 2);
        assert_eq!(r.len(), 6);
        for (j, &rj) in r.iter().enumerate() {
            assert_eq!(rj, a.get(2, j));
        }
    }

    #[test]
    fn scale_view_cases() {
        let mut c: Matrix<f64> = Matrix::from_fn(3, 3, |_, _| 2.0);
        scale_view(0.5, &mut c.view_mut());
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
        scale_view(1.0, &mut c.view_mut());
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
        scale_view(0.0, &mut c.view_mut());
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }
}
