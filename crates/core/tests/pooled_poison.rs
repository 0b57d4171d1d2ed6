//! A pooled single GEMM whose Morton result is poisoned inside its task
//! DAG must be caught by Freivalds verification and repaired by the
//! verified retry.
//!
//! Runs only with the `failpoints` feature; the fault sites are
//! process-global, so this binary owns them.

#![cfg(feature = "failpoints")]

use modgemm_core::faults::{self, FaultSite, FaultSpec};
use modgemm_core::{GemmContext, GemmPlan, ModgemmConfig, VerifyMode};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::naive::naive_gemm;
use modgemm_mat::{Matrix, Op};

#[test]
fn poisoned_pooled_result_is_caught_and_retried() {
    let n = 96;
    let cfg = ModgemmConfig {
        parallel_depth: 1,
        threads: 2,
        verify: VerifyMode::Freivalds { rounds: 8, seed: 5 },
        verify_retries: 1,
        ..ModgemmConfig::default()
    };
    let plan = GemmPlan::<f64>::try_new(n, n, n, &cfg).unwrap();
    assert!(plan.parallel_depth() > 0, "the product must run on the task DAG");
    let a: Matrix<f64> = random_matrix(n, n, 1);
    let b: Matrix<f64> = random_matrix(n, n, 2);
    let c0: Matrix<f64> = random_matrix(n, n, 3);

    faults::arm(FaultSite::NonFinite, FaultSpec::always(1));
    let mut c = c0.clone();
    let run = plan.try_execute(
        1.5,
        Op::NoTrans,
        a.view(),
        Op::NoTrans,
        b.view(),
        -0.5,
        c.view_mut(),
        &mut GemmContext::new(),
    );
    let fired = faults::fired(FaultSite::NonFinite);
    faults::disarm_all();
    run.expect("the verified retry must repair the poisoned product");
    assert_eq!(fired, 1, "the DAG's root task must poison the result once");

    // The retry recomputes conventionally from the C snapshot, so the
    // result is the conventional product exactly.
    let mut want = c0;
    naive_gemm(1.5, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -0.5, want.view_mut());
    assert_eq!(c, want);
}
