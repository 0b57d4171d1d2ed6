//! The default configuration (the measured fast path: `Auto` leaf kernel,
//! which resolves to the packed SIMD kernel with one fused level on a
//! vector host) against [`ModgemmConfig::paper`] (the staged `Blocked`
//! pipeline the paper describes), on the large BLAS shapes where the two
//! pipelines differ most.
//!
//! On integers every kernel, fuse depth and schedule tier computes the
//! exact product, so the two configurations must agree bit for bit. On
//! floats the default must stay within the same scaled-error envelope the
//! end-to-end benchmark checks every call against: 64 ε of the entry
//! magnitude bound `k·|α|·max|A|·max|B| + |β|·max|C₀|`.

use modgemm::baselines::conventional_gemm;
use modgemm::core::blas::{try_dgemm, try_gemm};
use modgemm::core::{GemmPlan, MemoryBudget, ModgemmConfig};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::{Matrix, Op, Scalar};

/// `(m, k, n, op_a, op_b, quarter_budget)`: the large one-shot shapes
/// (1025 is a padding worst case) with mixed transposes, and 513 under a
/// quarter of the default plan's workspace arena, which runs the
/// low-memory schedule tiers.
const CASES: [(usize, usize, usize, Op, Op, bool); 6] = [
    (640, 640, 640, Op::NoTrans, Op::NoTrans, false),
    (768, 768, 768, Op::Trans, Op::NoTrans, false),
    (1000, 1000, 1000, Op::NoTrans, Op::Trans, false),
    (1025, 1025, 1025, Op::Trans, Op::Trans, false),
    (1100, 900, 1000, Op::Trans, Op::NoTrans, false),
    (513, 513, 513, Op::NoTrans, Op::Trans, true),
];

/// The default and paper configurations for one case, both under the
/// quarter-arena budget when the case asks for it.
fn configs(m: usize, k: usize, n: usize, quarter_budget: bool) -> [ModgemmConfig; 2] {
    let (default, paper) = (ModgemmConfig::default(), ModgemmConfig::paper());
    if !quarter_budget {
        return [default, paper];
    }
    let full = GemmPlan::<f64>::try_new(m, k, n, &default).expect("plannable shape").arena_len();
    let memory_budget = MemoryBudget::MaxWorkspaceBytes(full * 8 / 4);
    [ModgemmConfig { memory_budget, ..default }, ModgemmConfig { memory_budget, ..paper }]
}

/// Column-major operands of `op(A)` (`m × k`) and `op(B)` (`k × n`) as
/// stored, plus the initial `C₀`.
fn operands<S: Scalar>(
    (m, k, n): (usize, usize, usize),
    (op_a, op_b): (Op, Op),
    seed: u64,
) -> (Matrix<S>, Matrix<S>, Matrix<S>) {
    let (ar, ac) = op_a.apply_dims(m, k);
    let (br, bc) = op_b.apply_dims(k, n);
    (random_matrix(ar, ac, seed), random_matrix(br, bc, seed + 1), random_matrix(m, n, seed + 2))
}

fn max_abs(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |acc, v| acc.max(v.abs()))
}

#[test]
fn default_matches_paper_bitwise_on_i64() {
    let (alpha, beta) = (3i64, -2i64);
    for (i, &(m, k, n, op_a, op_b, quarter)) in CASES.iter().enumerate() {
        let (a, b, c0) = operands::<i64>((m, k, n), (op_a, op_b), 100 + i as u64);
        let run = |cfg: &ModgemmConfig| {
            let mut c = c0.clone();
            try_gemm(
                op_a,
                op_b,
                m,
                n,
                k,
                alpha,
                a.as_slice(),
                a.rows(),
                b.as_slice(),
                b.rows(),
                beta,
                c.as_mut_slice(),
                m,
                cfg,
            )
            .expect("valid arguments");
            c
        };
        let [default, paper] = configs(m, k, n, quarter);
        assert!(run(&default) == run(&paper), "{m}x{k}x{n} {op_a:?}/{op_b:?}: default != paper");
    }
}

#[test]
fn default_stays_within_64_eps_of_conventional_on_f64() {
    let (alpha, beta) = (1.5f64, 0.5f64);
    for (i, &(m, k, n, op_a, op_b, quarter)) in CASES.iter().enumerate() {
        let (a, b, c0) = operands::<f64>((m, k, n), (op_a, op_b), 200 + i as u64);
        let [default, _] = configs(m, k, n, quarter);
        let mut c = c0.clone();
        try_dgemm(
            op_a,
            op_b,
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            a.rows(),
            b.as_slice(),
            b.rows(),
            beta,
            c.as_mut_slice(),
            m,
            &default,
        )
        .expect("valid arguments");
        let mut reference = c0.clone();
        conventional_gemm(alpha, op_a, a.view(), op_b, b.view(), beta, reference.view_mut());
        let diff = c
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()));
        let scale = k as f64 * alpha.abs() * max_abs(a.as_slice()) * max_abs(b.as_slice())
            + beta.abs() * max_abs(c0.as_slice());
        let err = diff / scale;
        assert!(
            err <= 64.0 * f64::EPSILON,
            "{m}x{k}x{n} {op_a:?}/{op_b:?}: scaled error {err:e} exceeds 64 eps"
        );
    }
}
