//! Output checks, run outside the timed region: Freivalds' test on a
//! seed-chosen share of operations, and a comparison against the
//! conventional baseline on another, which gives the scaled error.

use modgemm_baselines::conventional_gemm;
use modgemm_core::verify_gemm;
use modgemm_mat::norms::{max_abs, max_abs_diff};
use modgemm_mat::{MatMut, MatRef, Op};

/// Freivalds rounds per check; a wrong product escapes with probability at
/// most 2⁻⁸.
const ROUNDS: u32 = 8;

/// Largest scaled error accepted as rounding: the constant of
/// `modgemm_mat::norms::gemm_tolerance`, whose `k · scale` factor the
/// scaling in [`scaled_error`] already divides out.
pub const REL_TOL: f64 = 64.0 * f64::EPSILON;

/// One computed `C = α·op(A)·op(B) + β·C₀`, as stored.
#[derive(Clone, Copy)]
pub struct Gemm<'a> {
    pub alpha: f64,
    pub ta: Op,
    pub a: MatRef<'a, f64>,
    pub tb: Op,
    pub b: MatRef<'a, f64>,
    pub beta: f64,
    pub c0: MatRef<'a, f64>,
    pub c: MatRef<'a, f64>,
}

impl Gemm<'_> {
    fn k(&self) -> usize {
        self.ta.apply_dims(self.a.rows(), self.a.cols()).1
    }
}

/// Freivalds' probabilistic check of `g.c`.
pub fn freivalds(g: &Gemm<'_>, seed: u64) -> bool {
    verify_gemm(g.alpha, g.ta, g.a, g.tb, g.b, g.beta, g.c0, g.c, ROUNDS, seed)
}

/// The [`scaled_error`] of `g.c` against `modgemm_baselines::conventional_gemm`
/// of the same inputs, computed into `buf` (at least `m·n` long).
pub fn reference_error(g: &Gemm<'_>, buf: &mut [f64]) -> f64 {
    let (m, n) = g.c0.dims();
    let expect = &mut buf[..m * n];
    for (j, col) in expect.chunks_exact_mut(m).enumerate() {
        col.copy_from_slice(g.c0.col(j));
    }
    conventional_gemm(g.alpha, g.ta, g.a, g.tb, g.b, g.beta, MatMut::from_slice(expect, m, n, m));
    scaled_error(g, MatRef::from_slice(expect, m, n, m))
}

/// `max |C − C_ref|` over the magnitude bound of an entry,
/// `k·|α|·max|A|·max|B| + |β|·max|C₀|`.
pub fn scaled_error(g: &Gemm<'_>, reference: MatRef<'_, f64>) -> f64 {
    let scale =
        g.k() as f64 * g.alpha.abs() * max_abs(g.a) * max_abs(g.b) + g.beta.abs() * max_abs(g.c0);
    max_abs_diff(g.c, reference) / scale.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_core::blas::try_dgemm;
    use modgemm_core::ModgemmConfig;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::Matrix;

    #[test]
    fn a_corrupted_result_is_caught_and_a_correct_one_passes() {
        let (m, k, n) = (97, 80, 65);
        let a: Matrix<f64> = random_matrix(k, m, 1); // stored k×m: op(A) = Aᵀ
        let b: Matrix<f64> = random_matrix(k, n, 2);
        let c0: Matrix<f64> = random_matrix(m, n, 3);
        let mut c = c0.clone();
        let cfg = ModgemmConfig::default();
        try_dgemm(
            Op::Trans,
            Op::NoTrans,
            m,
            n,
            k,
            1.5,
            a.as_slice(),
            k,
            b.as_slice(),
            k,
            0.5,
            c.as_mut_slice(),
            m,
            &cfg,
        )
        .expect("valid arguments");
        let check = |c: &Matrix<f64>| {
            let g = Gemm {
                alpha: 1.5,
                ta: Op::Trans,
                a: a.view(),
                tb: Op::NoTrans,
                b: b.view(),
                beta: 0.5,
                c0: c0.view(),
                c: c.view(),
            };
            (freivalds(&g, 7), reference_error(&g, &mut vec![0.0; m * n]))
        };
        let (ok, err) = check(&c);
        assert!(ok);
        assert!(err > 0.0 && err < REL_TOL, "scaled error {err:e}");

        let mut bad = c.clone();
        bad.set(40, 30, bad.get(40, 30) + 1e-3);
        let (ok, err) = check(&bad);
        assert!(!ok, "Freivalds misses a corrupted entry");
        assert!(err > REL_TOL, "scaled error {err:e} does not flag a corrupted entry");
    }
}
