//! Figure 7: Morton conversion time as a percentage of total execution
//! time.
//!
//! Expected shape: ~15% for small matrices, falling to ~5% for large ones
//! (conversion is O(n²) against O(n^2.8) compute).

use modgemm_core::{GemmBreakdown, GemmContext, GemmPlan, ModgemmConfig};
use modgemm_experiments::{ms, protocol, Cli, JsonArtifact, Table};
use modgemm_mat::gen::random_problem;
use modgemm_mat::{Matrix, Op};

fn main() {
    let mut art = JsonArtifact::new("fig7_conversion");
    let cli = Cli::parse();
    let sizes = cli.sweep();
    let cfg = ModgemmConfig::paper();

    let mut table = Table::new(&[
        "n",
        "convert_in_ms",
        "compute_ms",
        "convert_out_ms",
        "total_ms",
        "conversion_pct",
    ]);

    for &n in &sizes {
        let (a, b, _) = random_problem::<f64>(n, n, n, 42);
        let mut c: Matrix<f64> = Matrix::zeros(n, n);

        // Take the breakdown of the repetition with the minimal total,
        // mirroring the §4 protocol.
        let mut best: Option<GemmBreakdown> = None;
        // Each rep plans and allocates afresh, as a one-shot call does.
        for _ in 0..protocol::OUTER_REPS {
            let bd = GemmPlan::try_new(n, n, n, &cfg)
                .and_then(|plan| {
                    plan.try_execute(
                        1.0,
                        Op::NoTrans,
                        a.view(),
                        Op::NoTrans,
                        b.view(),
                        0.0,
                        c.view_mut(),
                        &mut GemmContext::new(),
                    )
                })
                .expect("valid config");
            std::hint::black_box(c.as_slice());
            best = Some(match best {
                None => bd,
                Some(prev) if bd.total() < prev.total() => bd,
                Some(prev) => prev,
            });
        }
        let bd = best.unwrap();
        table.row(vec![
            n.to_string(),
            ms(bd.convert_in),
            ms(bd.compute),
            ms(bd.convert_out),
            ms(bd.total()),
            format!("{:.1}", 100.0 * bd.conversion_fraction()),
        ]);
        eprintln!("done n = {n}");
    }

    art.print_table("Figure 7: Morton conversion as % of total execution time", &table);
    println!("\nPaper shape: ~15% at small n falling to ~5% at large n.");

    art.finish();
}
