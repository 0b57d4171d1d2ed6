//! DGEMMW — Strassen-Winograd with **dynamic overlap**
//! (Douglas, Heroux, Slishman, Smith — JCP'94).
//!
//! Odd dimensions are handled by splitting into *ceil*-halves that
//! conceptually overlap by one row or column (§3.2: "subdividing the
//! matrix into submatrices that (conceptually) overlap by one row or
//! column, computing the results for the shared row or column in both
//! subproblems, and ignoring one of the copies"). Concretely, with
//! `m1 = ⌈m/2⌉` etc.:
//!
//! * quadrants `X11 = X[0..x1, 0..y1]` and `X22 = X[x-x1.., y-y1..]`
//!   overlap their siblings by one row/column whenever the dimension is
//!   odd;
//! * the `m`/`n` overlaps affect only the *output*: the shared row/column
//!   of `C` is computed twice with identical values, and the second write
//!   simply overwrites the first (this is the "ignore one copy");
//! * the `k` overlap double-counts one term of the inner-product sum —
//!   block row/column `k1-1` — uniformly across all of `C`, and is
//!   removed afterwards by a single rank-1 correction
//!   `C −= a_{·,k1-1} · b_{k1-1,·}` (our realization of "ignoring one
//!   copy" for the reduction dimension; see DESIGN.md).
//!
//! Because the `C` quadrants may alias (overlap), the in-place schedule
//! used by MODGEMM/DGEFMM is illegal here: all seven products go to
//! temporaries and the quadrant results are copied out at the end —
//! matching GEMMW's character as the most temporary-hungry of the three
//! codes.

use modgemm_mat::addsub::{
    add_assign_view, add_view, rank1_update, rsub_assign_view, sub_assign_view, sub_view,
};
use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::{KernelKind, LeafKernel, Matrix, Scalar};

use crate::common::{blas_wrap, gather_row};

/// DGEMMW configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DgemmwConfig {
    /// Recursion truncation point (same meaning as DGEFMM's).
    pub truncation: usize,
    /// Leaf-multiply kernel (same selector the MODGEMM plan uses).
    pub kernel: KernelKind,
}

impl Default for DgemmwConfig {
    fn default() -> Self {
        Self { truncation: 64, kernel: KernelKind::Blocked }
    }
}

/// `C ← α·op(A)·op(B) + β·C` with dynamic overlap.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn dgemmw<S: Scalar>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    cfg: &DgemmwConfig,
) {
    blas_wrap(alpha, op_a, a, op_b, b, beta, c, &mut |x, y, z| {
        dgemmw_core_with(x, y, z, cfg.truncation, cfg.kernel)
    });
}

/// The overwrite core: `C ← A·B` with per-level overlap and the default
/// ([`KernelKind::Blocked`]) leaf kernel.
pub fn dgemmw_core<S: Scalar>(a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>, trunc: usize) {
    dgemmw_core_with(a, b, c, trunc, KernelKind::Blocked)
}

/// [`dgemmw_core`] with an explicit leaf kernel.
pub fn dgemmw_core_with<S: Scalar>(
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    mut c: MatMut<'_, S>,
    trunc: usize,
    kernel: KernelKind,
) {
    let (m, k) = a.dims();
    let (_, n) = b.dims();
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(c.dims(), (m, n));

    if m.min(k).min(n) <= trunc.max(1) {
        kernel.mul(a, b, c);
        return;
    }

    let m1 = m.div_ceil(2);
    let k1 = k.div_ceil(2);
    let n1 = n.div_ceil(2);

    // Overlapping quadrants: the "second half" starts at `dim - dim1`,
    // which equals `dim1` for even dims and `dim1 - 1` for odd dims.
    let a11 = a.submatrix(0, 0, m1, k1);
    let a12 = a.submatrix(0, k - k1, m1, k1);
    let a21 = a.submatrix(m - m1, 0, m1, k1);
    let a22 = a.submatrix(m - m1, k - k1, m1, k1);
    let b11 = b.submatrix(0, 0, k1, n1);
    let b12 = b.submatrix(0, n - n1, k1, n1);
    let b21 = b.submatrix(k - k1, 0, k1, n1);
    let b22 = b.submatrix(k - k1, n - n1, k1, n1);

    // Operand temporaries and the seven product slots. Products must not
    // target C: overlapping C quadrants alias each other.
    let mut ts: Matrix<S> = Matrix::zeros(m1, k1);
    let mut tt: Matrix<S> = Matrix::zeros(k1, n1);
    let mut r11: Matrix<S> = Matrix::zeros(m1, n1);
    let mut r12: Matrix<S> = Matrix::zeros(m1, n1);
    let mut r21: Matrix<S> = Matrix::zeros(m1, n1);
    let mut r22: Matrix<S> = Matrix::zeros(m1, n1);
    let mut tp: Matrix<S> = Matrix::zeros(m1, n1);
    let mut tq: Matrix<S> = Matrix::zeros(m1, n1);

    // DGEFMM's four-temporary 22-step linearization, with R-slots
    // playing the role of the C quadrants.
    sub_view(ts.view_mut(), a11, a21); // S3
    sub_view(tt.view_mut(), b22, b12); // T3
    dgemmw_core_with(ts.view(), tt.view(), tp.view_mut(), trunc, kernel); // P5 → tp
    add_view(ts.view_mut(), a21, a22); // S1
    sub_view(tt.view_mut(), b12, b11); // T1
    dgemmw_core_with(ts.view(), tt.view(), r22.view_mut(), trunc, kernel); // P3 → R22
    sub_assign_view(ts.view_mut(), a11); // S2
    rsub_assign_view(tt.view_mut(), b22); // T2
    dgemmw_core_with(ts.view(), tt.view(), r11.view_mut(), trunc, kernel); // P4 → R11
    rsub_assign_view(ts.view_mut(), a12); // S4
    dgemmw_core_with(ts.view(), b22, r12.view_mut(), trunc, kernel); // P6 → R12
    rsub_assign_view(tt.view_mut(), b21); // T4
    dgemmw_core_with(a22, tt.view(), r21.view_mut(), trunc, kernel); // P7 → R21
    dgemmw_core_with(a11, b11, tq.view_mut(), trunc, kernel); // P1 → tq
    add_assign_view(r11.view_mut(), tq.view()); // U2
    add_assign_view(r12.view_mut(), r22.view()); // P6 + P3
    add_assign_view(r12.view_mut(), r11.view()); // U7 → R12 done
    add_assign_view(r11.view_mut(), tp.view()); // U3
    add_assign_view(r21.view_mut(), r11.view()); // U4 → R21 done
    add_assign_view(r22.view_mut(), r11.view()); // U5 → R22 done
    dgemmw_core_with(a12, b21, tp.view_mut(), trunc, kernel); // P2 → tp
    add_view(r11.view_mut(), tq.view(), tp.view()); // U1 → R11 done

    // Write the quadrant results out. Overlapped rows/columns are written
    // twice with identical values; later writes win harmlessly.
    c.submatrix_mut(0, 0, m1, n1).copy_from(r11.view());
    c.submatrix_mut(0, n - n1, m1, n1).copy_from(r12.view());
    c.submatrix_mut(m - m1, 0, m1, n1).copy_from(r21.view());
    c.submatrix_mut(m - m1, n - n1, m1, n1).copy_from(r22.view());

    // Odd k double-counted block row/column k1-1 in every C block:
    // subtract the rank-1 term once, over all of C.
    if k % 2 == 1 {
        let mid = k1 - 1;
        let a_col = a.submatrix(0, mid, m, 1).to_vec();
        let b_row = gather_row(b.submatrix(mid, 0, 1, n), 0);
        rank1_update(c, -S::ONE, &a_col, &b_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::{naive_gemm, naive_product};
    use modgemm_mat::norms::assert_matrix_eq;

    fn check_core_i64(m: usize, k: usize, n: usize, trunc: usize, seed: u64) {
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 1);
        let mut c: Matrix<i64> = Matrix::zeros(m, n);
        dgemmw_core(a.view(), b.view(), c.view_mut(), trunc);
        assert_eq!(c, naive_product(&a, &b), "{m}x{k}x{n} trunc {trunc}");
    }

    #[test]
    fn even_sizes_no_overlap() {
        check_core_i64(16, 16, 16, 4, 1);
        check_core_i64(32, 24, 40, 8, 2);
    }

    #[test]
    fn odd_sizes_exercise_each_overlap() {
        check_core_i64(17, 16, 16, 4, 3); // m odd: output-row overlap
        check_core_i64(16, 17, 16, 4, 4); // k odd: rank-1 correction
        check_core_i64(16, 16, 17, 4, 5); // n odd: output-column overlap
        check_core_i64(17, 17, 17, 4, 6); // all three
        check_core_i64(31, 29, 27, 4, 7); // odd at every level
    }

    #[test]
    fn overlap_recurses_through_multiple_levels() {
        // Ceil-halving of odd sizes yields odd sizes again (17 → 9 → 5).
        check_core_i64(65, 65, 65, 4, 8);
        check_core_i64(100, 99, 98, 12, 9);
    }

    #[test]
    fn full_interface_matches_oracle() {
        let cfg = DgemmwConfig { truncation: 16, ..Default::default() };
        for (m, k, n, alpha, beta, op_a, op_b, seed) in [
            (65usize, 65usize, 65usize, 1.0f64, 0.0f64, Op::NoTrans, Op::NoTrans, 10u64),
            (100, 81, 77, 2.0, -1.0, Op::Trans, Op::NoTrans, 11),
            (90, 95, 85, -0.5, 0.5, Op::NoTrans, Op::Trans, 12),
        ] {
            let (ar, ac) = op_a.apply_dims(m, k);
            let (br, bc) = op_b.apply_dims(k, n);
            let a: Matrix<f64> = random_matrix(ar, ac, seed);
            let b: Matrix<f64> = random_matrix(br, bc, seed + 1);
            let c0: Matrix<f64> = random_matrix(m, n, seed + 2);
            let mut got = c0.clone();
            dgemmw(alpha, op_a, a.view(), op_b, b.view(), beta, got.view_mut(), &cfg);
            let mut expect = c0;
            naive_gemm(alpha, op_a, a.view(), op_b, b.view(), beta, expect.view_mut());
            assert_matrix_eq(got.view(), expect.view(), k);
        }
    }

    #[test]
    fn agrees_with_dgefmm_on_floats() {
        // Different odd-size strategies, same mathematical product.
        let a: Matrix<f64> = random_matrix(123, 131, 20);
        let b: Matrix<f64> = random_matrix(131, 117, 21);
        let mut cw: Matrix<f64> = Matrix::zeros(123, 117);
        let mut cf: Matrix<f64> = Matrix::zeros(123, 117);
        dgemmw_core(a.view(), b.view(), cw.view_mut(), 16);
        crate::dgefmm::dgefmm_core(a.view(), b.view(), cf.view_mut(), 16);
        assert_matrix_eq(cw.view(), cf.view(), 131);
    }
}
