//! A pooled product whose Morton result is poisoned inside the pool must
//! be caught: a single GEMM's team by Freivalds verification and the
//! verified retry, a batch DAG item in that item's output alone.
//!
//! Runs only with the `failpoints` feature; the fault sites are
//! process-global, so this binary owns them (its tests share one lock).

#![cfg(feature = "failpoints")]

use std::sync::Mutex;

use modgemm_core::faults::{self, FaultSite, FaultSpec};
use modgemm_core::{BatchPlan, GemmContext, GemmPlan, ModgemmConfig, StridedBatch, VerifyMode};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::naive::naive_gemm;
use modgemm_mat::{Matrix, Op};

/// Serializes the tests: an armed site fires in whichever test reaches it.
static SITES: Mutex<()> = Mutex::new(());

#[test]
fn poisoned_pooled_result_is_caught_and_retried() {
    let _sites = SITES.lock().unwrap_or_else(|p| p.into_inner());
    // 300 pads above the team crossover: a team of two runs the product.
    let n = 300;
    let cfg = ModgemmConfig {
        threads: 2,
        verify: VerifyMode::Freivalds { rounds: 8, seed: 5 },
        verify_retries: 1,
        ..ModgemmConfig::default()
    };
    let plan = GemmPlan::<f64>::try_new(n, n, n, &cfg).unwrap();
    assert_eq!(plan.threads(), 2, "the product must run on a team");
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
    assert_eq!(fired, 1, "the team's rank 0 must poison the result once");

    // The retry recomputes conventionally from the C snapshot, so the
    // result is the conventional product exactly.
    let mut want = c0;
    naive_gemm(1.5, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -0.5, want.view_mut());
    assert_eq!(c, want);
}

#[test]
fn poisoned_batch_item_reaches_only_its_own_output() {
    let _sites = SITES.lock().unwrap_or_else(|p| p.into_inner());
    // Two items on two workers: the batch runs its task DAG, which has no
    // verification, so the poison must show in exactly one item's output
    // and leave the other item's product exact.
    let (n, items) = (64, 2);
    let cfg = ModgemmConfig { threads: 2, ..ModgemmConfig::default() };
    let plan = BatchPlan::<f64>::try_new(n, n, n, items, &cfg).unwrap();
    assert!(plan.parallel_tasks() > 0, "the batch must run as a task DAG");
    let a: Matrix<f64> = random_matrix(n, n * items, 1);
    let b: Matrix<f64> = random_matrix(n, n * items, 2);
    let desc = StridedBatch {
        alpha: 1.0,
        op_a: Op::NoTrans,
        a: a.as_slice(),
        lda: n,
        stride_a: n * n,
        op_b: Op::NoTrans,
        b: b.as_slice(),
        ldb: n,
        stride_b: n * n,
        beta: 0.0,
        ldc: n,
        stride_c: n * n,
    };
    let mut want: Matrix<f64> = Matrix::zeros(n, n * items);
    plan.try_execute(&desc, want.as_mut_slice(), &mut GemmContext::new()).unwrap();

    faults::arm(FaultSite::NonFinite, FaultSpec::always(1));
    let mut c: Matrix<f64> = Matrix::zeros(n, n * items);
    let run = plan.try_execute(&desc, c.as_mut_slice(), &mut GemmContext::new());
    let fired = faults::fired(FaultSite::NonFinite);
    faults::disarm_all();
    run.expect("an unverified batch completes despite the poison");
    assert_eq!(fired, 1, "one item task must poison its result once");
    let item = |m: &Matrix<f64>, i: usize| m.as_slice()[i * n * n..(i + 1) * n * n].to_vec();
    let poisoned: Vec<usize> =
        (0..items).filter(|&i| item(&c, i).iter().any(|x| x.is_nan())).collect();
    assert_eq!(poisoned.len(), 1, "exactly one item is poisoned: {poisoned:?}");
    let clean = 1 - poisoned[0];
    assert!(item(&c, clean) == item(&want, clean), "the other item stays bitwise exact");
}
