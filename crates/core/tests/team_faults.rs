//! A single GEMM's team whose helper rank panics must fail typed on
//! every rank, never hang, and leave the pool usable.
//!
//! Runs only with the `failpoints` feature; the fault sites are
//! process-global, so this binary owns them.

#![cfg(feature = "failpoints")]

use modgemm_core::faults::{self, FaultSite, FaultSpec};
use modgemm_core::{GemmContext, GemmError, GemmPlan, ModgemmConfig};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::{Matrix, Op};

#[test]
fn a_panicking_helper_rank_fails_the_run_and_the_pool_recovers() {
    let n = 513;
    let a: Matrix<f64> = random_matrix(n, n, 1);
    let b: Matrix<f64> = random_matrix(n, n, 2);
    let run = |threads: usize, ctx: &mut GemmContext<f64>| {
        let plan =
            GemmPlan::try_new(n, n, n, &ModgemmConfig { threads, ..Default::default() }).unwrap();
        let mut c = Matrix::zeros(n, n);
        let out = plan.try_execute(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            ctx,
        );
        (out.map(drop), c)
    };
    let (out, want) = run(1, &mut GemmContext::new());
    out.unwrap();

    // Helper ranks (never rank 0, the caller) pass the worker-panic site
    // once per run; the first one to arrive panics.
    let mut ctx = GemmContext::new();
    faults::arm(FaultSite::WorkerPanic, FaultSpec::always(1));
    let (out, _) = run(3, &mut ctx);
    let fired = faults::fired(FaultSite::WorkerPanic);
    faults::disarm_all();
    assert_eq!(fired, 1, "exactly one helper rank panics");
    assert!(matches!(out, Err(GemmError::WorkerPanic { .. })), "{out:?}");

    // The pool and the context stay usable, and the product is exact.
    let (out, c) = run(3, &mut ctx);
    out.unwrap();
    assert!(c == want, "the run after a panic must be bitwise serial");
}
