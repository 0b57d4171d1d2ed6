//! Instrumented wrappers: the baselines reporting through the same
//! [`MetricsSink`] vocabulary as MODGEMM (`modgemm_core::metrics`).
//!
//! Each wrapper records the logical problem, plan facts, and the whole
//! call's wall time (attributed to level 0 — the baselines do not expose
//! per-level hooks). Flops are reported as the *conventional-equivalent*
//! count `2·m·k·n` in both fields: DGEFMM/DGEMMW have no exact
//! closed-form executed-flop model here, and benchmark throughput is
//! normalized by effective flops regardless (so Strassen's savings show
//! up as higher effective GFLOP/s, the usual convention). The
//! `strassen_levels` fact is the modeled number of divisions the
//! baseline's truncation rule admits.

use std::time::Instant;

use modgemm_core::counts::conventional_flops;
use modgemm_core::metrics::{MetricsSink, PlanFacts};
use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::Scalar;

use crate::{
    bailey_gemm, conventional_gemm, dgefmm, dgemmw, BaileyConfig, DgefmmConfig, DgemmwConfig,
};

/// Levels a halving recursion with handover point `trunc` takes on a
/// `min_dim`-sized problem (the DGEFMM/DGEMMW truncation rule).
fn halving_levels(mut min_dim: usize, trunc: usize) -> usize {
    let mut levels = 0;
    while min_dim > trunc.max(1) {
        min_dim /= 2;
        levels += 1;
    }
    levels
}

/// Shared wrapper: record problem/plan facts, run `f`, attribute its
/// wall time to level 0.
#[allow(clippy::too_many_arguments)]
fn instrumented<S: Scalar, K: MetricsSink>(
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    strassen_levels: usize,
    sink: &mut K,
    f: impl FnOnce(),
) {
    if !K::ENABLED {
        f();
        return;
    }
    let (m, k) = op_a.apply_dims(a.rows(), a.cols());
    let (_, n) = op_b.apply_dims(b.rows(), b.cols());
    sink.record_problem(m, k, n);
    let flops = conventional_flops(m, k, n);
    sink.record_plan(PlanFacts {
        padded: (m, k, n),
        depth: strassen_levels,
        strassen_levels,
        fused_levels: 0,
        schedule: None,
        flops,
        conventional_flops: flops,
    });
    let t0 = Instant::now();
    f();
    sink.record_level_time(0, t0.elapsed());
}

/// [`conventional_gemm`] reporting through `sink`.
#[allow(clippy::too_many_arguments)]
pub fn conventional_gemm_with_sink<S: Scalar, K: MetricsSink>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    sink: &mut K,
) {
    instrumented(op_a, a, op_b, b, 0, sink, || conventional_gemm(alpha, op_a, a, op_b, b, beta, c));
}

/// [`fn@dgefmm`] (dynamic peeling) reporting through `sink`.
#[allow(clippy::too_many_arguments)]
pub fn dgefmm_with_sink<S: Scalar, K: MetricsSink>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    cfg: &DgefmmConfig,
    sink: &mut K,
) {
    let (m, k) = op_a.apply_dims(a.rows(), a.cols());
    let (_, n) = op_b.apply_dims(b.rows(), b.cols());
    let levels = halving_levels(m.min(k).min(n), cfg.truncation);
    instrumented(op_a, a, op_b, b, levels, sink, || dgefmm(alpha, op_a, a, op_b, b, beta, c, cfg));
}

/// [`fn@dgemmw`] (dynamic overlap) reporting through `sink`.
#[allow(clippy::too_many_arguments)]
pub fn dgemmw_with_sink<S: Scalar, K: MetricsSink>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    cfg: &DgemmwConfig,
    sink: &mut K,
) {
    let (m, k) = op_a.apply_dims(a.rows(), a.cols());
    let (_, n) = op_b.apply_dims(b.rows(), b.cols());
    let levels = halving_levels(m.min(k).min(n), cfg.truncation);
    instrumented(op_a, a, op_b, b, levels, sink, || dgemmw(alpha, op_a, a, op_b, b, beta, c, cfg));
}

/// [`bailey_gemm`] (static padding) reporting through `sink`.
#[allow(clippy::too_many_arguments)]
pub fn bailey_gemm_with_sink<S: Scalar, K: MetricsSink>(
    alpha: S,
    op_a: Op,
    a: MatRef<'_, S>,
    op_b: Op,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
    cfg: &BaileyConfig,
    sink: &mut K,
) {
    // Bailey's scheme unfolds a fixed number of levels (2 in the paper).
    instrumented(op_a, a, op_b, b, cfg.levels, sink, || {
        bailey_gemm(alpha, op_a, a, op_b, b, beta, c, cfg)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_core::metrics::CollectingSink;
    use modgemm_mat::gen::random_matrix;
    use modgemm_mat::naive::naive_product;
    use modgemm_mat::norms::assert_matrix_eq;
    use modgemm_mat::Matrix;

    #[test]
    fn halving_levels_model() {
        assert_eq!(halving_levels(512, 64), 3);
        assert_eq!(halving_levels(64, 64), 0);
        assert_eq!(halving_levels(65, 64), 1);
        assert_eq!(halving_levels(100, 0), halving_levels(100, 1));
    }

    #[test]
    fn instrumented_baselines_record_and_stay_correct() {
        let n = 96;
        let a: Matrix<f64> = random_matrix(n, n, 1);
        let b: Matrix<f64> = random_matrix(n, n, 2);
        let expect = naive_product(&a, &b);

        let mut sink = CollectingSink::new();
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        conventional_gemm_with_sink(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &mut sink,
        );
        assert_matrix_eq(c.view(), expect.view(), n);
        let m = sink.into_metrics();
        assert_eq!(m.problem, Some((n, n, n)));
        assert_eq!(m.flops, 2 * (n as u64).pow(3));
        assert_eq!(m.flop_ratio(), 1.0);
        assert!(m.level_time_total() > std::time::Duration::ZERO);

        let mut sink = CollectingSink::new();
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        dgefmm_with_sink(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &DgefmmConfig { truncation: 32, ..Default::default() },
            &mut sink,
        );
        assert_matrix_eq(c.view(), expect.view(), n);
        // 96 → 48 → 24: two divisions before reaching the 32 handover.
        assert_eq!(sink.metrics.strassen_levels, 2);

        let mut sink = CollectingSink::new();
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        dgemmw_with_sink(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &DgemmwConfig::default(),
            &mut sink,
        );
        assert_matrix_eq(c.view(), expect.view(), n);

        let mut sink = CollectingSink::new();
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        bailey_gemm_with_sink(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &BaileyConfig::default(),
            &mut sink,
        );
        assert_matrix_eq(c.view(), expect.view(), n);
        assert_eq!(sink.metrics.strassen_levels, 2);
    }
}
