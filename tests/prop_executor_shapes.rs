//! Property tests driving the Morton-order compute stage across
//! arbitrary (rectangular) tile shapes and recursion depths through
//! `modgemm_premorton`, which runs on the operands' own layouts (the
//! planned `modgemm` interface only ever uses planner-chosen shapes;
//! these reach the rest of the space).

use modgemm::core::{modgemm_premorton, ModgemmConfig, MortonMatrix};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_product;
use modgemm::mat::{Matrix, Op};
use modgemm::morton::MortonLayout;
use proptest::prelude::*;

fn run_exec(
    a: &Matrix<i64>,
    b: &Matrix<i64>,
    tm: usize,
    tk: usize,
    tn: usize,
    depth: usize,
    cfg: &ModgemmConfig,
) -> Matrix<i64> {
    let am = MortonMatrix::pack(a.view(), Op::NoTrans, MortonLayout::new(tm, tk, depth));
    let bm = MortonMatrix::pack(b.view(), Op::NoTrans, MortonLayout::new(tk, tn, depth));
    let mut cm = MortonMatrix::zeros(a.rows(), b.cols(), MortonLayout::new(tm, tn, depth));
    modgemm_premorton(&am, &bm, &mut cm, cfg);
    cm.to_matrix()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn executor_is_exact_for_any_tile_shape(
        tm in 1usize..7,
        tk in 1usize..7,
        tn in 1usize..7,
        depth in 0usize..4,
        pad_m in 0usize..3,
        pad_k in 0usize..3,
        pad_n in 0usize..3,
        strassen_min in prop_oneof![Just(0usize), Just(8), Just(usize::MAX)],
        seed in 0u64..1000,
    ) {
        // Logical sizes at most the padded sizes, shrunk a little to
        // exercise zero-padding.
        let (pm, pk, pn) = (tm << depth, tk << depth, tn << depth);
        let m = pm.saturating_sub(pad_m).max(1);
        let k = pk.saturating_sub(pad_k).max(1);
        let n = pn.saturating_sub(pad_n).max(1);

        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 1);
        // The paper configuration: Blocked leaves, fully staged.
        let cfg = ModgemmConfig { strassen_min, ..ModgemmConfig::paper() };
        let got = run_exec(&a, &b, tm, tk, tn, depth, &cfg);
        prop_assert_eq!(got, naive_product(&a, &b));
    }
}
