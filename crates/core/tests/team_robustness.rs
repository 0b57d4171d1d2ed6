//! A single GEMM above the team crossover runs as a team of ranks over
//! the one schedule interpreter. These tests pin what happens around the
//! team: a cancel or deadline mid-run stops every rank at its next
//! barrier, and callers that share the pool — another plan, or a batch
//! task DAG — all finish bitwise equal to one thread, the one that finds
//! the pool busy running as a team of one.
//!
//! Each test uses its own worker count, so each has its own pool and no
//! other test of this binary holds its job slot.

use std::time::{Duration, Instant};

use modgemm_core::{
    BatchPlan, CancelToken, CollectingSink, GemmContext, GemmError, GemmPlan, ModgemmConfig,
    NoopSink, StridedBatch,
};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::{Matrix, Op};

/// 33-wide ragged leaves, well above the team crossover.
const N: usize = 513;

/// The default at the paper's depth (`strassen_min: 0`): four Strassen
/// levels, so a run passes a barrier per staged step for a cancel to
/// trip at.
fn cfg(threads: usize) -> ModgemmConfig {
    ModgemmConfig { strassen_min: 0, threads, ..ModgemmConfig::default() }
}

fn operands() -> (Matrix<f64>, Matrix<f64>) {
    (random_matrix(N, N, 1), random_matrix(N, N, 2))
}

/// `C = A·B` through `plan` on `ctx`, reporting whether a team ran.
fn run(
    plan: &GemmPlan<f64>,
    (a, b): &(Matrix<f64>, Matrix<f64>),
    ctx: &mut GemmContext<f64>,
    cancel: Option<&CancelToken>,
) -> (Result<(), GemmError>, Matrix<f64>, bool) {
    let mut c = Matrix::zeros(N, N);
    let mut sink = CollectingSink::new();
    let (va, vb, vc) = (a.view(), b.view(), c.view_mut());
    let out = match cancel {
        Some(t) => plan.try_execute_cancellable_with_metrics(
            1.0,
            Op::NoTrans,
            va,
            Op::NoTrans,
            vb,
            0.0,
            vc,
            ctx,
            t,
            &mut sink,
        ),
        None => plan.try_execute_with_metrics(
            1.0,
            Op::NoTrans,
            va,
            Op::NoTrans,
            vb,
            0.0,
            vc,
            ctx,
            &mut sink,
        ),
    };
    let team = sink.metrics.pool.is_some_and(|p| p.workers > 1);
    (out.map(drop), c, team)
}

fn serial(ab: &(Matrix<f64>, Matrix<f64>)) -> Matrix<f64> {
    let plan = GemmPlan::try_new(N, N, N, &cfg(1)).unwrap();
    let (out, c, team) = run(&plan, ab, &mut GemmContext::new(), None);
    out.unwrap();
    assert!(!team);
    c
}

#[test]
fn a_cancel_mid_run_stops_every_rank_and_the_context_stays_usable() {
    let ab = operands();
    let want = serial(&ab);
    let plan = GemmPlan::try_new(N, N, N, &cfg(3)).unwrap();
    assert_eq!(plan.strassen_levels(), 4);
    let mut ctx = GemmContext::new();
    // Checks 1 and 2 are the pre-flight gates; from the third on, the
    // token trips at a barrier, mid-run.
    for cut in [0u64, 1, 2, 3, 5, 8, 13, 40] {
        let token = CancelToken::cancelling_after(cut);
        let (out, _, _) = run(&plan, &ab, &mut ctx, Some(&token));
        assert_eq!(out, Err(GemmError::Cancelled), "cut {cut}");
        let (out, c, team) = run(&plan, &ab, &mut ctx, None);
        out.unwrap();
        assert!(team, "a free pool runs the whole team");
        assert!(c == want, "the run after cut {cut} must be bitwise serial");
    }
}

#[test]
fn a_deadline_mid_run_stops_every_rank() {
    let ab = operands();
    let want = serial(&ab);
    let plan = GemmPlan::try_new(N, N, N, &cfg(5)).unwrap();
    let mut ctx = GemmContext::new();
    run(&plan, &ab, &mut ctx, None).0.unwrap();
    for ms in [1u64, 2, 5, 20, 10_000] {
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms));
        let (out, c, _) = run(&plan, &ab, &mut ctx, Some(&token));
        match out {
            Ok(()) => assert!(c == want, "a finished run must be bitwise serial ({ms} ms)"),
            Err(GemmError::DeadlineExceeded) => assert!(ms < 10_000, "{ms} ms cannot expire"),
            other => panic!("unexpected outcome at {ms} ms: {other:?}"),
        }
    }
    // One millisecond is far less than the product takes.
    let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(1));
    assert_eq!(run(&plan, &ab, &mut ctx, Some(&token)).0, Err(GemmError::DeadlineExceeded));
    let (out, c, _) = run(&plan, &ab, &mut ctx, None);
    out.unwrap();
    assert!(c == want);
}

#[test]
fn two_callers_at_once_both_finish_bitwise_serial() {
    // Both threads submit teams to the same pool; whichever finds its job
    // slot taken runs as a team of one instead of waiting.
    let ab = operands();
    let want = serial(&ab);
    let plan = GemmPlan::try_new(N, N, N, &cfg(2)).unwrap();
    let teams: usize = std::thread::scope(|s| {
        let callers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut ctx = GemmContext::new();
                    (0..6)
                        .map(|_| {
                            let (out, c, team) = run(&plan, &ab, &mut ctx, None);
                            out.unwrap();
                            assert!(c == want, "a concurrent caller must be bitwise serial");
                            usize::from(team)
                        })
                        .sum::<usize>()
                })
            })
            .collect();
        callers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // The first submission always finds the slot free.
    assert!(teams >= 1, "no caller ever ran as a team");
}

#[test]
fn a_plan_beside_a_batch_dag_finishes_bitwise_serial() {
    // A batch task DAG and single-GEMM teams share the pool for four
    // workers; every single GEMM stays bitwise serial whether it got the
    // pool or ran alone.
    let ab = operands();
    let want = serial(&ab);
    let plan = GemmPlan::try_new(N, N, N, &cfg(4)).unwrap();
    let (bn, items) = (96usize, 16usize);
    let batch = BatchPlan::<f64>::try_new(bn, bn, bn, items, &cfg(4)).unwrap();
    assert!(batch.parallel_tasks() > 0, "the batch must run as a task DAG");
    let xa: Vec<f64> = random_matrix::<f64>(bn * bn * items, 1, 3).into_vec();
    let xb: Vec<f64> = random_matrix::<f64>(bn * bn * items, 1, 4).into_vec();
    let desc = StridedBatch {
        alpha: 1.0,
        op_a: Op::NoTrans,
        a: &xa,
        lda: bn,
        stride_a: bn * bn,
        op_b: Op::NoTrans,
        b: &xb,
        ldb: bn,
        stride_b: bn * bn,
        beta: 0.0,
        ldc: bn,
        stride_c: bn * bn,
    };
    let mut first = vec![0.0; bn * bn * items];
    batch
        .try_execute_with_metrics(&desc, &mut first, &mut GemmContext::new(), &mut NoopSink)
        .unwrap();
    std::thread::scope(|s| {
        let dag = s.spawn(|| {
            let mut ctx = GemmContext::new();
            let mut c = vec![0.0; bn * bn * items];
            for _ in 0..10 {
                batch.try_execute(&desc, &mut c, &mut ctx).unwrap();
                assert!(c == first, "the batch DAG must be deterministic");
            }
        });
        let mut ctx = GemmContext::new();
        for _ in 0..6 {
            let (out, c, _) = run(&plan, &ab, &mut ctx, None);
            out.unwrap();
            assert!(c == want, "a team beside a batch DAG must be bitwise serial");
        }
        dag.join().unwrap();
    });
}
