//! A realistic pipeline: load matrices from disk, multiply with MODGEMM
//! reusing a context, verify the result probabilistically (Freivalds,
//! O(n²)), and save the product — the workflow a downstream user of a
//! fast-but-reassociating multiply actually wants.
//!
//! ```sh
//! cargo run --release --example verified_pipeline
//! ```

use modgemm::core::verify::verify_product;
use modgemm::core::{GemmContext, GemmPlan, ModgemmConfig};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::io::{load_matrix, save_matrix};
use modgemm::mat::Matrix;

fn main() {
    let dir = std::env::temp_dir().join("modgemm-pipeline");
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // Stage 1: produce inputs on disk (stand-in for an external producer).
    let n = 300;
    let a: Matrix<f64> = random_matrix(n, n, 1);
    let b: Matrix<f64> = random_matrix(n, n, 2);
    save_matrix(&a, dir.join("a.txt")).expect("save A");
    save_matrix(&b, dir.join("b.txt")).expect("save B");
    println!("wrote {n}x{n} inputs to {}", dir.display());

    // Stage 2: load, multiply (context reused across repeated calls),
    // verify.
    let a: Matrix<f64> = load_matrix(dir.join("a.txt")).expect("load A");
    let b: Matrix<f64> = load_matrix(dir.join("b.txt")).expect("load B");
    let cfg = ModgemmConfig::paper();
    let mut ctx = GemmContext::new();
    ctx.reserve_for(n, n, n, &cfg);

    let mut c: Matrix<f64> = Matrix::zeros(n, n);
    let t0 = std::time::Instant::now();
    let plan = GemmPlan::try_new(n, n, n, &cfg).expect("valid config");
    plan.execute(a.view(), b.view(), c.view_mut(), &mut ctx);
    let t_mul = t0.elapsed();

    let t1 = std::time::Instant::now();
    let ok = verify_product(a.view(), b.view(), c.view(), 8, 42);
    let t_verify = t1.elapsed();
    assert!(ok, "Freivalds verification failed");
    println!(
        "multiplied in {:.2} ms, verified in {:.2} ms (O(n^2), {:.1}x cheaper)",
        t_mul.as_secs_f64() * 1e3,
        t_verify.as_secs_f64() * 1e3,
        t_mul.as_secs_f64() / t_verify.as_secs_f64()
    );

    // Stage 3: corruptions are caught.
    let mut corrupted = c.clone();
    corrupted.set(n / 2, n / 3, corrupted.get(n / 2, n / 3) * 1.001);
    assert!(
        !verify_product(a.view(), b.view(), corrupted.view(), 8, 42),
        "corruption must be detected"
    );
    println!("single-entry corruption detected by the verifier");

    // Stage 4: persist the verified product.
    save_matrix(&c, dir.join("c.txt")).expect("save C");
    let back: Matrix<f64> = load_matrix(dir.join("c.txt")).expect("reload C");
    assert_eq!(back, c, "text round-trip must be exact");
    println!("product saved and round-tripped exactly: {}", dir.join("c.txt").display());

    for f in ["a.txt", "b.txt", "c.txt"] {
        std::fs::remove_file(dir.join(f)).ok();
    }
    println!("OK");
}
