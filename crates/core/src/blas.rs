//! Raw-slice entry points with the classical BLAS calling shape.
//!
//! The paper's implementation "follows the same calling conventions as
//! the dgemm subroutine in the Level 3 BLAS library" (§2.1): operands are
//! raw column-major buffers with leading dimensions. [`crate::modgemm`]
//! exposes that through typed views; this module provides the flat
//! `dgemm`/`sgemm` shape for callers porting from BLAS, including the
//! dimension bookkeeping (`op(A)` is `m × k`, so the *stored* `A` is
//! `m × k` or `k × m` depending on `transa`).

use modgemm_mat::view::{required_len, MatMut, MatRef, Op};
use modgemm_mat::Scalar;

use crate::config::ModgemmConfig;
use crate::error::{GemmError, Operand};
use crate::gemm::try_modgemm;

/// Validates one raw-slice operand's `(rows, cols, ld)` window against
/// its backing slice length — the reference-BLAS illegal-argument checks,
/// as data.
fn check_operand(
    operand: Operand,
    data_len: usize,
    rows: usize,
    cols: usize,
    ld: usize,
) -> Result<(), GemmError> {
    let min = rows.max(1);
    if ld < min {
        return Err(GemmError::BadLeadingDim { operand, ld, min });
    }
    let needed = required_len(rows, cols, ld);
    if data_len < needed {
        return Err(GemmError::SliceTooShort { operand, needed, got: data_len });
    }
    Ok(())
}

/// Fallible generic raw-slice GEMM: `C ← α·op(A)·op(B) + β·C`, reporting
/// every illegal argument as a typed [`GemmError`] instead of panicking.
///
/// `a` must hold a column-major `m × k` matrix when `transa` is
/// [`Op::NoTrans`] (leading dimension `lda ≥ m`) or `k × m` when
/// [`Op::Trans`] (`lda ≥ k`); analogously for `b` (`k × n` / `n × k`)
/// and `c` (always `m × n`, `ldc ≥ m`).
#[allow(clippy::too_many_arguments)]
pub fn try_gemm<S: Scalar>(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
    cfg: &ModgemmConfig,
) -> Result<(), GemmError> {
    // Stored dimensions of A and B (op(stored) has the logical dims).
    let (ar, ac) = transa.apply_dims(m, k);
    let (br, bc) = transb.apply_dims(k, n);
    check_operand(Operand::A, a.len(), ar, ac, lda)?;
    check_operand(Operand::B, b.len(), br, bc, ldb)?;
    check_operand(Operand::C, c.len(), m, n, ldc)?;
    // The checks above establish exactly the invariants the view
    // constructors assert, so these cannot panic.
    let av = MatRef::from_slice(a, ar, ac, lda);
    let bv = MatRef::from_slice(b, br, bc, ldb);
    let cv = MatMut::from_slice(c, m, n, ldc);
    try_modgemm(alpha, transa, av, transb, bv, beta, cv, cfg)
}

/// Generic raw-slice GEMM: `C ← α·op(A)·op(B) + β·C`.
///
/// See [`try_gemm`] for the operand layout contract.
///
/// # Panics
/// If a leading dimension is smaller than its matrix's row count or a
/// slice is too short — the same conditions a reference BLAS treats as
/// illegal arguments ([`try_gemm`] reports them as errors).
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn gemm<S: Scalar>(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
    cfg: &ModgemmConfig,
) {
    if let Err(e) = try_gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg) {
        panic!("{e}");
    }
}

/// Fallible double-precision raw-slice GEMM.
#[allow(clippy::too_many_arguments)]
pub fn try_dgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    cfg: &ModgemmConfig,
) -> Result<(), GemmError> {
    try_gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg)
}

/// Double-precision raw-slice GEMM (the paper's `dgemm` interface).
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn dgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    cfg: &ModgemmConfig,
) {
    gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg)
}

/// Fallible complex double-precision raw-slice GEMM.
#[allow(clippy::too_many_arguments)]
pub fn try_zgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: modgemm_mat::complex::C64,
    a: &[modgemm_mat::complex::C64],
    lda: usize,
    b: &[modgemm_mat::complex::C64],
    ldb: usize,
    beta: modgemm_mat::complex::C64,
    c: &mut [modgemm_mat::complex::C64],
    ldc: usize,
    cfg: &ModgemmConfig,
) -> Result<(), GemmError> {
    try_gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg)
}

/// Complex double-precision raw-slice GEMM (Strassen's construction is
/// ring-generic, so `zgemm` is a pure element-type instantiation).
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn zgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: modgemm_mat::complex::C64,
    a: &[modgemm_mat::complex::C64],
    lda: usize,
    b: &[modgemm_mat::complex::C64],
    ldb: usize,
    beta: modgemm_mat::complex::C64,
    c: &mut [modgemm_mat::complex::C64],
    ldc: usize,
    cfg: &ModgemmConfig,
) {
    gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg)
}

/// Fallible single-precision raw-slice GEMM.
#[allow(clippy::too_many_arguments)]
pub fn try_sgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    cfg: &ModgemmConfig,
) -> Result<(), GemmError> {
    try_gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg)
}

/// Single-precision raw-slice GEMM.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn sgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    cfg: &ModgemmConfig,
) {
    gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg)
}

/// Fallible batched GEMM: validates the batch lengths and **every**
/// entry's buffer before computing anything, reporting the first problem
/// as a typed error that names the failing item
/// ([`GemmError::BatchItem`]). A shape error therefore guarantees no
/// entry of `c_batch` was modified — validation is not interleaved with
/// execution.
///
/// All entries share one `m × k × n` shape, so the truncation-point
/// search, layout tree, and arena sizing are compiled **once** into a
/// [`crate::plan::GemmPlan`]; each entry then executes the plan against a
/// shared [`crate::GemmContext`], making every multiply after the first
/// allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_batch<S: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    beta: S,
    a_batch: &[&[S]],
    b_batch: &[&[S]],
    c_batch: &mut [&mut [S]],
    cfg: &ModgemmConfig,
) -> Result<(), GemmError> {
    if a_batch.len() != b_batch.len() || a_batch.len() != c_batch.len() {
        return Err(GemmError::BatchLenMismatch {
            a: a_batch.len(),
            b: b_batch.len(),
            c: c_batch.len(),
        });
    }
    let item_err =
        |index: usize| move |e: GemmError| GemmError::BatchItem { index, source: Box::new(e) };
    for (i, ((a, b), c)) in a_batch.iter().zip(b_batch).zip(c_batch.iter()).enumerate() {
        check_operand(Operand::A, a.len(), m, k, m.max(1)).map_err(item_err(i))?;
        check_operand(Operand::B, b.len(), k, n, k.max(1)).map_err(item_err(i))?;
        check_operand(Operand::C, c.len(), m, n, m.max(1)).map_err(item_err(i))?;
    }
    let plan = crate::plan::GemmPlan::<S>::try_new(m, k, n, cfg)?;
    let mut ctx = crate::GemmContext::new();
    ctx.try_reserve_for(m, k, n, cfg)?;
    for (i, ((a, b), c)) in a_batch.iter().zip(b_batch).zip(c_batch.iter_mut()).enumerate() {
        let av = MatRef::from_slice(a, m, k, m.max(1));
        let bv = MatRef::from_slice(b, k, n, k.max(1));
        let cv = MatMut::from_slice(c, m, n, m.max(1));
        plan.try_execute(alpha, Op::NoTrans, av, Op::NoTrans, bv, beta, cv, &mut ctx)
            .map_err(item_err(i))?;
    }
    Ok(())
}

/// Batched GEMM: applies the same `(α, β)` to a sequence of independent
/// `m × k × n` problems given as contiguous column-major buffers,
/// reusing one [`crate::GemmContext`] across the batch so packing and
/// workspace memory is allocated once. Entries run sequentially; each
/// entry above the team crossover runs as a team of `cfg.threads`
/// workers.
///
/// # Panics
/// On the conditions [`try_gemm_batch`] reports as errors.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn gemm_batch<S: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    beta: S,
    a_batch: &[&[S]],
    b_batch: &[&[S]],
    c_batch: &mut [&mut [S]],
    cfg: &ModgemmConfig,
) {
    if let Err(e) = try_gemm_batch(m, n, k, alpha, beta, a_batch, b_batch, c_batch, cfg) {
        panic!("{e}");
    }
}

/// Fallible strided batched GEMM (`cblas_*gemm_batch_strided` layout):
/// `batch` independent `C_i ← α·op(A_i)·op(B_i) + β·C_i` where item `i`'s
/// operands start at `a[i·stride_a]`, `b[i·stride_b]`, `c[i·stride_c]`.
/// `stride_a`/`stride_b` may be 0 to broadcast one operand; `stride_c`
/// must keep the output windows disjoint.
///
/// Unlike [`try_gemm_batch`]'s sequential loop, this compiles the whole
/// batch into **one** dependency-counted task DAG
/// ([`crate::batch::BatchPlan`]): per-item conversion, compute, and
/// epilogue tasks share the work-stealing pool, so item `i+1`'s Morton
/// conversion overlaps item `i`'s multiplication, and a
/// [`crate::config::MemoryBudget`] admits a bounded in-flight window of
/// item workspaces instead of `batch ·` workspace. Reuse the plan
/// directly via [`crate::batch::BatchPlan`] to amortize planning.
///
/// All items are validated before any output is touched; errors name the
/// failing operand (and item, where applicable).
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_batch_strided<S: Scalar>(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    stride_a: usize,
    b: &[S],
    ldb: usize,
    stride_b: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
    stride_c: usize,
    batch: usize,
    cfg: &ModgemmConfig,
) -> Result<(), GemmError> {
    let plan = crate::batch::BatchPlan::<S>::try_new(m, k, n, batch, cfg)?;
    let desc = crate::batch::StridedBatch {
        alpha,
        op_a: transa,
        a,
        lda,
        stride_a,
        op_b: transb,
        b,
        ldb,
        stride_b,
        beta,
        ldc,
        stride_c,
    };
    let mut ctx = crate::GemmContext::new();
    plan.try_execute(&desc, c, &mut ctx)
}

/// Strided batched GEMM; see [`try_gemm_batch_strided`].
///
/// # Panics
/// On the conditions [`try_gemm_batch_strided`] reports as errors.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub fn gemm_batch_strided<S: Scalar>(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: S,
    a: &[S],
    lda: usize,
    stride_a: usize,
    b: &[S],
    ldb: usize,
    stride_b: usize,
    beta: S,
    c: &mut [S],
    ldc: usize,
    stride_c: usize,
    batch: usize,
    cfg: &ModgemmConfig,
) {
    if let Err(e) = try_gemm_batch_strided(
        transa, transb, m, n, k, alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc, stride_c,
        batch, cfg,
    ) {
        panic!("{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::{naive_gemm, naive_product};
    use modgemm_mat::norms::assert_matrix_eq;
    use modgemm_mat::Matrix;

    #[test]
    fn dgemm_matches_view_interface() {
        let (m, n, k) = (70, 50, 60);
        let a: Matrix<f64> = random_matrix(m, k, 1);
        let b: Matrix<f64> = random_matrix(k, n, 2);
        let c0: Matrix<f64> = random_matrix(m, n, 3);
        let cfg = ModgemmConfig::paper();

        let mut c = c0.clone();
        dgemm(
            Op::NoTrans,
            Op::NoTrans,
            m,
            n,
            k,
            1.5,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            -0.5,
            c.as_mut_slice(),
            m,
            &cfg,
        );
        let mut expect = c0;
        naive_gemm(1.5, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -0.5, expect.view_mut());
        assert_matrix_eq(c.view(), expect.view(), k);
    }

    #[test]
    fn dgemm_with_padded_leading_dimensions() {
        // Operands embedded in larger buffers (ld > rows), the classic
        // BLAS submatrix pattern.
        let (m, n, k) = (30, 25, 40);
        let (lda, ldb, ldc) = (37, 45, 33);
        let a_buf: Matrix<f64> = random_matrix(lda, k, 4);
        let b_buf: Matrix<f64> = random_matrix(ldb, n, 5);
        let mut c_buf: Matrix<f64> = Matrix::zeros(ldc, n);
        let cfg = ModgemmConfig::paper();
        dgemm(
            Op::NoTrans,
            Op::NoTrans,
            m,
            n,
            k,
            1.0,
            a_buf.as_slice(),
            lda,
            b_buf.as_slice(),
            ldb,
            0.0,
            c_buf.as_mut_slice(),
            ldc,
            &cfg,
        );
        let a_sub = Matrix::from_vec(a_buf.view().submatrix(0, 0, m, k).to_vec(), m, k);
        let b_sub = Matrix::from_vec(b_buf.view().submatrix(0, 0, k, n).to_vec(), k, n);
        let expect = naive_product(&a_sub, &b_sub);
        let got = c_buf.view().submatrix(0, 0, m, n);
        assert_matrix_eq(got, expect.view(), k);
        // Rows m..ldc of the C buffer must be untouched.
        for j in 0..n {
            for i in m..ldc {
                assert_eq!(c_buf.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn dgemm_transposed_storage() {
        let (m, n, k) = (20, 30, 25);
        // A stored as k×m (transa = Trans), B stored as n×k.
        let a: Matrix<f64> = random_matrix(k, m, 6);
        let b: Matrix<f64> = random_matrix(n, k, 7);
        let mut c: Matrix<f64> = Matrix::zeros(m, n);
        let cfg = ModgemmConfig::paper();
        dgemm(
            Op::Trans,
            Op::Trans,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            k,
            b.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            m,
            &cfg,
        );
        let expect = naive_product(&a.transposed(), &b.transposed());
        assert_matrix_eq(c.view(), expect.view(), k);
    }

    #[test]
    fn sgemm_single_precision() {
        let (m, n, k) = (40, 40, 40);
        let a: Matrix<f32> = random_matrix(m, k, 8);
        let b: Matrix<f32> = random_matrix(k, n, 9);
        let mut c: Matrix<f32> = Matrix::zeros(m, n);
        let cfg = ModgemmConfig::paper();
        sgemm(
            Op::NoTrans,
            Op::NoTrans,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c.as_mut_slice(),
            m,
            &cfg,
        );
        let expect = naive_product(&a, &b);
        assert_matrix_eq(c.view(), expect.view(), k);
    }

    #[test]
    fn batch_matches_individual_calls() {
        let (m, n, k, count) = (33, 29, 31, 5);
        let cfg = ModgemmConfig::paper();
        let aas: Vec<Matrix<f64>> =
            (0..count).map(|i| random_matrix(m, k, 10 + i as u64)).collect();
        let bbs: Vec<Matrix<f64>> =
            (0..count).map(|i| random_matrix(k, n, 20 + i as u64)).collect();
        let mut cc: Vec<Matrix<f64>> = (0..count).map(|_| Matrix::zeros(m, n)).collect();

        {
            let a_refs: Vec<&[f64]> = aas.iter().map(|x| x.as_slice()).collect();
            let b_refs: Vec<&[f64]> = bbs.iter().map(|x| x.as_slice()).collect();
            let mut c_refs: Vec<&mut [f64]> = cc.iter_mut().map(|x| x.as_mut_slice()).collect();
            gemm_batch(m, n, k, 1.0, 0.0, &a_refs, &b_refs, &mut c_refs, &cfg);
        }

        for i in 0..count {
            let mut expect: Matrix<f64> = Matrix::zeros(m, n);
            crate::gemm::modgemm(
                1.0,
                Op::NoTrans,
                aas[i].view(),
                Op::NoTrans,
                bbs[i].view(),
                0.0,
                expect.view_mut(),
                &cfg,
            );
            assert_eq!(cc[i], expect, "batch entry {i}");
        }
    }

    #[test]
    fn zgemm_complex_matrices() {
        use modgemm_mat::complex::C64;
        use modgemm_mat::gen::random_complex_matrix;
        let (m, n, k) = (60, 45, 50);
        let a = random_complex_matrix(m, k, 40);
        let b = random_complex_matrix(k, n, 41);
        let mut c: Matrix<C64> = Matrix::zeros(m, n);
        let cfg = ModgemmConfig::paper();
        zgemm(
            Op::NoTrans,
            Op::NoTrans,
            m,
            n,
            k,
            C64::new(1.0, 1.0), // a genuinely complex α
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            C64::ZERO,
            c.as_mut_slice(),
            m,
            &cfg,
        );
        let mut expect: Matrix<C64> = Matrix::zeros(m, n);
        naive_gemm(
            C64::new(1.0, 1.0),
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            C64::ZERO,
            expect.view_mut(),
        );
        // Entrywise modulus of the difference within the f64 tolerance
        // envelope (complex madds are ~4 real flops each).
        let tol = modgemm_mat::norms::gemm_tolerance::<C64>(4 * k, 4.0);
        for i in 0..m {
            for j in 0..n {
                let d = (c.get(i, j) - expect.get(i, j)).abs();
                assert!(d <= tol, "({i},{j}): |diff| = {d:.3e} > {tol:.3e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn rejects_small_lda() {
        let cfg = ModgemmConfig::paper();
        let a = vec![0.0f64; 100];
        let b = vec![0.0f64; 100];
        let mut c = vec![0.0f64; 100];
        dgemm(Op::NoTrans, Op::NoTrans, 10, 10, 10, 1.0, &a, 9, &b, 10, 0.0, &mut c, 10, &cfg);
    }

    #[test]
    fn try_dgemm_reports_typed_argument_errors() {
        use crate::error::{GemmError, Operand};
        let cfg = ModgemmConfig::paper();
        let a = vec![0.0f64; 100];
        let b = vec![0.0f64; 100];
        let mut c = vec![0.0f64; 100];
        // lda < stored rows.
        assert_eq!(
            try_dgemm(
                Op::NoTrans,
                Op::NoTrans,
                10,
                10,
                10,
                1.0,
                &a,
                9,
                &b,
                10,
                0.0,
                &mut c,
                10,
                &cfg
            ),
            Err(GemmError::BadLeadingDim { operand: Operand::A, ld: 9, min: 10 })
        );
        // ldb only has to cover B's *stored* rows: with transb = Trans the
        // stored matrix is n×k, so ldb ≥ n.
        assert_eq!(
            try_dgemm(
                Op::NoTrans,
                Op::Trans,
                10,
                10,
                10,
                1.0,
                &a,
                10,
                &b,
                9,
                0.0,
                &mut c,
                10,
                &cfg
            ),
            Err(GemmError::BadLeadingDim { operand: Operand::B, ld: 9, min: 10 })
        );
        // Short C slice: 10 columns at ldc 12 need 9·12 + 10 = 118.
        assert_eq!(
            try_dgemm(
                Op::NoTrans,
                Op::NoTrans,
                10,
                10,
                10,
                1.0,
                &a,
                10,
                &b,
                10,
                0.0,
                &mut c,
                12,
                &cfg
            ),
            Err(GemmError::SliceTooShort { operand: Operand::C, needed: 118, got: 100 })
        );
        // Legal arguments compute.
        try_dgemm(Op::NoTrans, Op::NoTrans, 10, 10, 10, 1.0, &a, 10, &b, 10, 0.0, &mut c, 10, &cfg)
            .unwrap();
    }

    #[test]
    fn try_variants_cover_all_precisions() {
        let cfg = ModgemmConfig::paper();
        let n = 8;
        let af: Vec<f32> = (0..n * n).map(|x| x as f32).collect();
        let mut cf = vec![0.0f32; n * n];
        try_sgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, &af, n, &af, n, 0.0, &mut cf, n, &cfg)
            .unwrap();
        use modgemm_mat::complex::C64;
        let az: Vec<C64> = (0..n * n).map(|x| C64::new(x as f64, 1.0)).collect();
        let mut cz = vec![C64::ZERO; n * n];
        try_zgemm(
            Op::NoTrans,
            Op::NoTrans,
            n,
            n,
            n,
            C64::ONE,
            &az,
            n,
            &az,
            n,
            C64::ZERO,
            &mut cz,
            n,
            &cfg,
        )
        .unwrap();
    }

    #[test]
    fn try_batch_reports_length_mismatch() {
        use crate::error::GemmError;
        let cfg = ModgemmConfig::paper();
        let a = vec![0.0f64; 4];
        let b = vec![0.0f64; 4];
        let mut c1 = vec![0.0f64; 4];
        let mut c2 = vec![0.0f64; 4];
        let a_refs: Vec<&[f64]> = vec![&a];
        let b_refs: Vec<&[f64]> = vec![&b];
        let mut c_refs: Vec<&mut [f64]> = vec![&mut c1, &mut c2];
        assert_eq!(
            try_gemm_batch(2, 2, 2, 1.0, 0.0, &a_refs, &b_refs, &mut c_refs, &cfg),
            Err(GemmError::BatchLenMismatch { a: 1, b: 1, c: 2 })
        );
    }

    #[test]
    fn try_batch_validates_every_item_before_computing() {
        use crate::error::GemmError;
        let cfg = ModgemmConfig::paper();
        let a = vec![1.0f64; 4];
        let b = vec![1.0f64; 4];
        let bad = vec![1.0f64; 3]; // one element short for 2×2
        let mut c1 = vec![7.0f64; 4];
        let mut c2 = vec![7.0f64; 4];
        let mut c3 = vec![7.0f64; 4];
        let a_refs: Vec<&[f64]> = vec![&a, &a, &bad];
        let b_refs: Vec<&[f64]> = vec![&b, &b, &b];
        let mut c_refs: Vec<&mut [f64]> = vec![&mut c1, &mut c2, &mut c3];
        let err =
            try_gemm_batch(2, 2, 2, 1.0, 0.0, &a_refs, &b_refs, &mut c_refs, &cfg).unwrap_err();
        match err {
            GemmError::BatchItem { index, source } => {
                assert_eq!(index, 2, "the failing item must be named");
                assert!(matches!(*source, GemmError::SliceTooShort { operand: Operand::A, .. }));
            }
            other => panic!("expected BatchItem, got {other:?}"),
        }
        // Items 0 and 1 were individually valid, but nothing may run
        // before the whole batch validates.
        assert!(c1.iter().chain(&c2).chain(&c3).all(|&x| x == 7.0));
    }

    #[test]
    fn strided_batch_matches_individual_calls() {
        let (m, n, k, count) = (21, 18, 24, 4);
        let cfg = ModgemmConfig::paper();
        let (sa, sb, sc) = (m * k + 3, k * n, m * n + 1);
        let a: Vec<f64> = (0..(count - 1) * sa + m * k).map(|i| (i % 17) as f64 - 8.0).collect();
        let b: Vec<f64> = (0..(count - 1) * sb + k * n).map(|i| (i % 11) as f64 * 0.25).collect();
        let c0: Vec<f64> = (0..(count - 1) * sc + m * n).map(|i| (i % 5) as f64).collect();
        let mut c = c0.clone();
        gemm_batch_strided(
            Op::NoTrans,
            Op::NoTrans,
            m,
            n,
            k,
            2.0,
            &a,
            m,
            sa,
            &b,
            k,
            sb,
            -1.0,
            &mut c,
            m,
            sc,
            count,
            &cfg,
        );
        for i in 0..count {
            let mut expect = Matrix::zeros(m, n);
            expect.as_mut_slice().copy_from_slice(&c0[i * sc..i * sc + m * n]);
            let av = MatRef::from_slice(&a[i * sa..i * sa + m * k], m, k, m);
            let bv = MatRef::from_slice(&b[i * sb..i * sb + k * n], k, n, k);
            crate::gemm::modgemm(
                2.0,
                Op::NoTrans,
                av,
                Op::NoTrans,
                bv,
                -1.0,
                expect.view_mut(),
                &cfg,
            );
            assert_eq!(&c[i * sc..i * sc + m * n], expect.as_slice(), "batch entry {i}");
        }
    }
}
