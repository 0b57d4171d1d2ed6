//! Figure 7: the cost of column-major ⇄ Morton conversion, including the
//! transpose-fused pack. (Pooled conversion runs as chunk tasks of the
//! GEMM task DAG; see the `threads_*` and `batch_*` cases of
//! `bench_runner`.)

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use modgemm_bench::criterion;
use modgemm_mat::gen::random_matrix;
use modgemm_mat::{Matrix, Op};
use modgemm_morton::tiling::{choose_dim_tiling, TileRange};
use modgemm_morton::{from_morton, to_morton, MortonLayout};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_conversion");
    for n in [513usize, 1024] {
        let t = choose_dim_tiling(n, TileRange::PAPER);
        let layout = MortonLayout::new(t.tile, t.tile, t.depth);
        let a: Matrix<f64> = random_matrix(n, n, 1);
        let mut buf = vec![0.0f64; layout.len()];
        let mut out: Matrix<f64> = Matrix::zeros(n, n);
        g.throughput(Throughput::Bytes((n * n * 8) as u64));

        g.bench_with_input(BenchmarkId::new("to_morton", n), &n, |bch, _| {
            bch.iter(|| {
                to_morton(a.view(), Op::NoTrans, &layout, &mut buf);
                black_box(&buf);
            })
        });
        g.bench_with_input(BenchmarkId::new("to_morton_transposed", n), &n, |bch, _| {
            bch.iter(|| {
                to_morton(a.view(), Op::Trans, &layout, &mut buf);
                black_box(&buf);
            })
        });
        g.bench_with_input(BenchmarkId::new("from_morton", n), &n, |bch, _| {
            bch.iter(|| {
                from_morton(&buf, &layout, out.view_mut());
                black_box(out.as_slice());
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
