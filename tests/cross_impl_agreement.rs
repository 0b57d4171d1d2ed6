//! Cross-implementation agreement: MODGEMM, DGEFMM, DGEMMW, and the
//! conventional baseline must compute the same product (up to
//! Strassen-grade roundoff) for the same inputs — the precondition for
//! every comparison in the paper's §4.

use modgemm::baselines::{
    bailey_gemm, conventional_gemm, dgefmm, dgemmw, BaileyConfig, DgefmmConfig, DgemmwConfig,
};
use modgemm::core::{modgemm, ModgemmConfig};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_gemm;
use modgemm::mat::norms::assert_matrix_eq;
use modgemm::mat::{KernelKind, Matrix, Op};

#[allow(clippy::too_many_arguments)]
fn check_all(m: usize, k: usize, n: usize, alpha: f64, beta: f64, op_a: Op, op_b: Op, seed: u64) {
    let (ar, ac) = op_a.apply_dims(m, k);
    let (br, bc) = op_b.apply_dims(k, n);
    let a: Matrix<f64> = random_matrix(ar, ac, seed);
    let b: Matrix<f64> = random_matrix(br, bc, seed + 1);
    let c0: Matrix<f64> = random_matrix(m, n, seed + 2);

    let mut oracle = c0.clone();
    naive_gemm(alpha, op_a, a.view(), op_b, b.view(), beta, oracle.view_mut());

    let mut c = c0.clone();
    modgemm(alpha, op_a, a.view(), op_b, b.view(), beta, c.view_mut(), &ModgemmConfig::paper());
    assert_matrix_eq(c.view(), oracle.view(), k);

    let mut c = c0.clone();
    dgefmm(
        alpha,
        op_a,
        a.view(),
        op_b,
        b.view(),
        beta,
        c.view_mut(),
        &DgefmmConfig { truncation: 16, ..Default::default() },
    );
    assert_matrix_eq(c.view(), oracle.view(), k);

    let mut c = c0.clone();
    dgemmw(
        alpha,
        op_a,
        a.view(),
        op_b,
        b.view(),
        beta,
        c.view_mut(),
        &DgemmwConfig { truncation: 16, ..Default::default() },
    );
    assert_matrix_eq(c.view(), oracle.view(), k);

    let mut c = c0.clone();
    conventional_gemm(alpha, op_a, a.view(), op_b, b.view(), beta, c.view_mut());
    assert_matrix_eq(c.view(), oracle.view(), k);
}

#[test]
fn square_sizes_from_paper_sweep() {
    for (n, seed) in [(150usize, 1u64), (171, 2), (200, 3), (255, 4)] {
        check_all(n, n, n, 1.0, 0.0, Op::NoTrans, Op::NoTrans, seed);
    }
}

#[test]
fn sizes_around_powers_of_two() {
    for (n, seed) in [(127usize, 10u64), (128, 11), (129, 12)] {
        check_all(n, n, n, 1.0, 0.0, Op::NoTrans, Op::NoTrans, seed);
    }
}

#[test]
fn general_parameters_and_transposes() {
    check_all(120, 90, 160, 2.0, -0.5, Op::Trans, Op::NoTrans, 20);
    check_all(77, 133, 99, -1.0, 1.0, Op::NoTrans, Op::Trans, 21);
    check_all(101, 101, 101, 0.5, 0.25, Op::Trans, Op::Trans, 22);
}

#[test]
fn all_implementations_on_integers_are_exact() {
    // Integer workloads make agreement exact, not just within tolerance.
    let (m, k, n) = (73, 85, 61);
    let a: Matrix<i64> = random_matrix(m, k, 30);
    let b: Matrix<i64> = random_matrix(k, n, 31);
    let mut expect: Matrix<i64> = Matrix::zeros(m, n);
    naive_gemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, expect.view_mut());

    let mut c: Matrix<i64> = Matrix::zeros(m, n);
    modgemm(
        1,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        0,
        c.view_mut(),
        &ModgemmConfig::paper(),
    );
    assert_eq!(c, expect, "modgemm");

    let mut c: Matrix<i64> = Matrix::zeros(m, n);
    dgefmm(
        1,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        0,
        c.view_mut(),
        &DgefmmConfig { truncation: 8, ..Default::default() },
    );
    assert_eq!(c, expect, "dgefmm");

    let mut c: Matrix<i64> = Matrix::zeros(m, n);
    dgemmw(
        1,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        0,
        c.view_mut(),
        &DgemmwConfig { truncation: 8, ..Default::default() },
    );
    assert_eq!(c, expect, "dgemmw");
}

#[test]
fn every_leaf_kernel_agrees_across_implementations() {
    // The kernel selector threads through MODGEMM's plan and all four
    // baselines; integer workloads make agreement exact for each choice.
    let (m, k, n) = (53, 47, 61);
    let a: Matrix<i64> = random_matrix(m, k, 40);
    let b: Matrix<i64> = random_matrix(k, n, 41);
    let mut expect: Matrix<i64> = Matrix::zeros(m, n);
    naive_gemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, expect.view_mut());

    for kernel in [KernelKind::Naive, KernelKind::Blocked] {
        let mut c: Matrix<i64> = Matrix::zeros(m, n);
        let cfg = ModgemmConfig { leaf_kernel: kernel, ..Default::default() };
        modgemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c.view_mut(), &cfg);
        assert_eq!(c, expect, "modgemm {kernel:?}");

        let mut c: Matrix<i64> = Matrix::zeros(m, n);
        let cfg = DgefmmConfig { truncation: 8, kernel };
        dgefmm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c.view_mut(), &cfg);
        assert_eq!(c, expect, "dgefmm {kernel:?}");

        let mut c: Matrix<i64> = Matrix::zeros(m, n);
        let cfg = DgemmwConfig { truncation: 8, kernel };
        dgemmw(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c.view_mut(), &cfg);
        assert_eq!(c, expect, "dgemmw {kernel:?}");

        let mut c: Matrix<i64> = Matrix::zeros(m, n);
        let cfg = BaileyConfig { levels: 2, kernel };
        bailey_gemm(1, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0, c.view_mut(), &cfg);
        assert_eq!(c, expect, "bailey {kernel:?}");
    }
}
