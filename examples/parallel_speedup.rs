//! Serial vs parallel MODGEMM (the plan's one interpreter run by a team
//! of workers on the persistent pool, each rank doing a disjoint output
//! share of every step) — the natural extension of the paper's future
//! work. `ModgemmConfig::threads` (or `MODGEMM_THREADS`) picks the team
//! size; 0 means auto.
//!
//! ```sh
//! cargo run --release --example parallel_speedup
//! ```

use modgemm::core::{modgemm, ModgemmConfig};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::{Matrix, Op};
use std::time::Instant;

fn time_once(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &mut Matrix<f64>,
    cfg: &ModgemmConfig,
) -> std::time::Duration {
    let mut best = std::time::Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), cfg);
        std::hint::black_box(c.as_slice());
        best = best.min(t0.elapsed());
    }
    best
}

fn main() {
    let n = 1024;
    let a: Matrix<f64> = random_matrix(n, n, 1);
    let b: Matrix<f64> = random_matrix(n, n, 2);
    let mut c: Matrix<f64> = Matrix::zeros(n, n);

    println!(
        "hardware threads: {}",
        std::thread::available_parallelism().map(|x| x.get()).unwrap_or(1)
    );

    let serial_cfg = ModgemmConfig::paper();
    let t_serial = time_once(&a, &b, &mut c, &serial_cfg);
    let serial_result = c.clone();
    println!("serial     : {:>8.1} ms", t_serial.as_secs_f64() * 1e3);

    // The same plan as a team of workers that split every step by
    // output (0 = auto: `MODGEMM_THREADS` or the machine's CPUs).
    for threads in [0usize, 2, 4] {
        let cfg = ModgemmConfig { threads, ..serial_cfg };
        let t = time_once(&a, &b, &mut c, &cfg);
        // Same products, same kernels, same order per element ⇒ bitwise
        // identical to serial.
        assert_eq!(c, serial_result, "team result must be bitwise identical");
        println!(
            "threads {threads}  : {:>8.1} ms  (speedup {:.2}x, bitwise identical)",
            t.as_secs_f64() * 1e3,
            t_serial.as_secs_f64() / t.as_secs_f64()
        );
    }
}
