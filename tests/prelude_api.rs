//! The `modgemm::prelude` surface: everything a typical caller needs,
//! importable with one line.

use modgemm::prelude::*;

#[test]
fn prelude_covers_the_typical_call() {
    let a: Matrix<f64> = Matrix::from_fn(20, 30, |i, j| (i + 2 * j) as f64 / 10.0);
    let b: Matrix<f64> = Matrix::from_fn(30, 10, |i, j| (3 * i + j) as f64 / 10.0);
    let mut c: Matrix<f64> = Matrix::zeros(20, 10);
    let cfg = ModgemmConfig::paper();
    modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg);

    let mut expect: Matrix<f64> = Matrix::zeros(20, 10);
    modgemm::mat::naive::naive_mul(a.view(), b.view(), expect.view_mut());
    modgemm::mat::norms::assert_matrix_eq(c.view(), expect.view(), 30);
}

#[test]
fn prelude_exposes_configuration_types() {
    let cfg = ModgemmConfig {
        truncation: Truncation::MinPadding(TileRange::new(8, 32)),
        variant: Variant::Strassen,
        ..ModgemmConfig::paper()
    };
    assert!(cfg.plan(100, 100, 100).is_some());

    let layout = MortonLayout::new(16, 16, 2);
    assert_eq!(layout.rows(), 64);

    let mut ctx: GemmContext<f64> = GemmContext::new();
    ctx.reserve_for(64, 64, 64, &cfg);
    assert!(ctx.footprint() > 0);

    // Context reuse, the conversion/compute breakdown and metrics all go
    // through a compiled plan.
    let a: Matrix<f64> = Matrix::from_fn(64, 64, |i, j| (i + j) as f64);
    let mut c: Matrix<f64> = Matrix::zeros(64, 64);
    let plan: GemmPlan<f64> = GemmPlan::try_new(64, 64, 64, &cfg).unwrap();
    let mut sink = CollectingSink::new();
    let bd = plan
        .try_execute_with_metrics(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            a.view(),
            0.0,
            c.view_mut(),
            &mut ctx,
            &mut sink,
        )
        .unwrap();
    assert!(bd.total() >= bd.compute);
    assert_eq!(sink.into_metrics().plan_executions, 1);
}

#[test]
fn prelude_fallible_entry_point() {
    let a: Matrix<f64> = Matrix::zeros(3, 4);
    let b: Matrix<f64> = Matrix::zeros(5, 2);
    let mut c: Matrix<f64> = Matrix::zeros(3, 2);
    assert_eq!(
        try_modgemm(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &ModgemmConfig::paper()
        ),
        Err(GemmError::InnerDimMismatch { a_cols: 4, b_rows: 5 })
    );
}

#[test]
fn prelude_exposes_error_and_policy_types() {
    // The robustness vocabulary is importable with the one-line prelude:
    // the error taxonomy, operand names, and all degradation policies.
    let cfg = ModgemmConfig {
        memory_budget: MemoryBudget::MaxWorkspaceBytes(8 * 1024),
        non_finite: NonFinitePolicy::Reject,
        verify: VerifyMode::Freivalds { rounds: 4, seed: 7 },
        ..ModgemmConfig::paper()
    };
    assert!(cfg.validate().is_ok());

    let a: Matrix<f64> = Matrix::from_fn(33, 33, |i, j| (i * 33 + j) as f64 / 100.0);
    let b: Matrix<f64> = Matrix::from_fn(33, 33, |i, j| (i + j) as f64 / 100.0);
    let mut c: Matrix<f64> = Matrix::zeros(33, 33);
    try_modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &cfg)
        .expect("budgeted, verified multiply of finite operands succeeds");

    let err = GemmError::SliceTooShort { operand: Operand::C, needed: 10, got: 3 };
    assert!(err.to_string().contains("too short"));
}

#[test]
fn prelude_covers_the_raw_slice_entry_points() {
    let cfg = ModgemmConfig::paper();
    let a = vec![1.0f64; 6];
    let b = vec![1.0f64; 6];
    let mut c = vec![0.0f64; 4];
    try_dgemm(Op::NoTrans, Op::NoTrans, 2, 2, 3, 1.0, &a, 2, &b, 3, 0.0, &mut c, 2, &cfg).unwrap();
    assert_eq!(c, vec![3.0; 4]);

    let af = vec![1.0f32; 6];
    let bf = vec![1.0f32; 6];
    let mut cf = vec![0.0f32; 4];
    try_sgemm(Op::NoTrans, Op::NoTrans, 2, 2, 3, 1.0, &af, 2, &bf, 3, 0.0, &mut cf, 2, &cfg)
        .unwrap();
    assert_eq!(cf, vec![3.0f32; 4]);

    // Generic and complex variants resolve through the same prelude.
    let ai = vec![1i64; 6];
    let bi = vec![1i64; 6];
    let mut ci = vec![0i64; 4];
    try_gemm(Op::NoTrans, Op::NoTrans, 2, 2, 3, 1, &ai, 2, &bi, 3, 0, &mut ci, 2, &cfg).unwrap();
    assert_eq!(ci, vec![3; 4]);

    use modgemm::mat::complex::C64;
    let az = vec![C64::new(1.0, 0.0); 6];
    let bz = vec![C64::new(1.0, 0.0); 6];
    let mut cz = vec![C64::new(0.0, 0.0); 4];
    try_zgemm(
        Op::NoTrans,
        Op::NoTrans,
        2,
        2,
        3,
        C64::new(1.0, 0.0),
        &az,
        2,
        &bz,
        3,
        C64::new(0.0, 0.0),
        &mut cz,
        2,
        &cfg,
    )
    .unwrap();
    assert_eq!(cz, vec![C64::new(3.0, 0.0); 4]);

    // Batched form with a deliberate length skew: typed error.
    let refs_a: Vec<&[f64]> = vec![&a];
    let refs_b: Vec<&[f64]> = vec![];
    let mut c2 = vec![0.0f64; 4];
    let mut refs_c: Vec<&mut [f64]> = vec![&mut c2];
    assert_eq!(
        try_gemm_batch(2, 2, 3, 1.0, 0.0, &refs_a, &refs_b, &mut refs_c, &cfg),
        Err(GemmError::BatchLenMismatch { a: 1, b: 0, c: 1 })
    );
}
