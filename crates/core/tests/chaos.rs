//! Chaos soak: hammer a [`GemmService`] from multiple client threads
//! while randomized faults fire at every planted site. The robustness
//! contract under test:
//!
//! * every accepted request resolves — `Ok` or a *typed* error, never a
//!   hang (all waits are bounded) and never an escaped panic;
//! * after the storm the service, its plan cache, and its dispatcher
//!   contexts remain usable: a clean request computes the exact product;
//! * the counters stay coherent (every submission is accounted for).
//!
//! Runs only with the `failpoints` feature (the CI `chaos` job); the
//! sites are process-global, which is fine here — this binary owns the
//! whole process.

#![cfg(feature = "failpoints")]

use std::sync::Arc;
use std::time::Duration;

use modgemm_core::faults::{self, FaultSite, FaultSpec};
use modgemm_core::{
    GemmError, GemmRequest, GemmService, MemoryBudget, ModgemmConfig, ServiceConfig, VerifyMode,
};
use modgemm_mat::naive::naive_gemm;
use modgemm_mat::{Matrix, Op};

fn filled(rows: usize, cols: usize, salt: u64) -> Matrix<f64> {
    let data = (0..rows * cols)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
            ((x >> 48) as i64 % 17 - 8) as f64
        })
        .collect::<Vec<_>>();
    Matrix::from_vec(data, rows, cols)
}

const CLIENTS: u64 = 4;
const REQUESTS_PER_CLIENT: u64 = 250; // 1000 total

#[test]
fn chaos_soak_every_request_resolves_typed() {
    // Arm every site with deterministic pseudo-random firing. Rates are
    // co-prime so the sites interleave rather than synchronize.
    faults::arm(FaultSite::Alloc, FaultSpec::one_in(97, 11));
    faults::arm(FaultSite::WorkerPanic, FaultSpec::one_in(61, 22));
    faults::arm(FaultSite::NonFinite, FaultSpec::one_in(41, 33));
    faults::arm(
        FaultSite::Latency,
        FaultSpec { latency: Duration::from_micros(300), ..FaultSpec::one_in(31, 44) },
    );

    // Parallel plans (so the DAG sites run; `threads: 0` keeps the CI
    // MODGEMM_THREADS matrix meaningful) under a finite memory budget.
    let gemm = ModgemmConfig { parallel_depth: 1, ..ModgemmConfig::default() };
    let svc = Arc::new(GemmService::<f64>::start(ServiceConfig {
        queue_capacity: 32,
        dispatchers: 4,
        memory_budget: MemoryBudget::MaxWorkspaceBytes(64 << 20),
        plan_cache_capacity: 16,
        gemm,
        ..ServiceConfig::default()
    }));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let (mut ok, mut typed_err, mut overload) = (0u64, 0u64, 0u64);
                for i in 0..REQUESTS_PER_CLIENT {
                    // A small shape vocabulary (the service's plan cache
                    // is sized for repeating traffic) spanning padded and
                    // ragged cases.
                    let dim = [17, 32, 48, 65][((ci + i) % 4) as usize];
                    let mut req = GemmRequest::new(
                        filled(dim, dim, ci * 1000 + i),
                        filled(dim, dim, ci * 2000 + i),
                    );
                    // A slice of traffic turns on verification, so the
                    // NonFinite poison site is actually *caught* (and the
                    // verified-retry path runs) rather than propagating
                    // silently.
                    if i % 3 == 0 {
                        req = req.config(ModgemmConfig {
                            verify: VerifyMode::Freivalds { rounds: 8, seed: i % 2 },
                            verify_retries: 2,
                            ..gemm
                        });
                    }
                    // A slice gets aggressive deadlines…
                    if i % 5 == 0 {
                        req = req.deadline_in(Duration::from_micros(150));
                    }
                    match svc.submit(req) {
                        Ok(ticket) => {
                            // …and a slice gets cancelled mid-flight.
                            if i % 7 == 0 {
                                ticket.cancel();
                            }
                            // Bounded wait: a hang here is a test failure,
                            // not a CI timeout.
                            match ticket
                                .wait_timeout(Duration::from_secs(60))
                                .expect("request hung: every ticket must resolve")
                            {
                                Ok(_) => ok += 1,
                                Err(
                                    GemmError::Cancelled
                                    | GemmError::DeadlineExceeded
                                    | GemmError::Allocation { .. }
                                    | GemmError::WorkerPanic { .. }
                                    | GemmError::VerificationFailed { .. }
                                    | GemmError::BudgetExceeded { .. },
                                ) => typed_err += 1,
                                Err(other) => {
                                    panic!("unexpected error class under chaos: {other:?}")
                                }
                            }
                        }
                        Err(GemmError::Overloaded { .. }) => overload += 1,
                        Err(other) => panic!("unexpected submit rejection: {other:?}"),
                    }
                }
                (ok, typed_err, overload)
            })
        })
        .collect();

    let (mut ok, mut typed_err, mut overload) = (0u64, 0u64, 0u64);
    for client in clients {
        let (o, e, v) = client.join().expect("client threads must not panic");
        ok += o;
        typed_err += e;
        overload += v;
    }
    assert_eq!(ok + typed_err + overload, CLIENTS * REQUESTS_PER_CLIENT);
    assert!(ok > 0, "some requests must survive the chaos");

    let stats = svc.stats();
    assert_eq!(stats.submitted, ok + typed_err, "accepted = resolved");
    assert_eq!(stats.rejected_overload, overload);
    assert_eq!(stats.finished(), stats.submitted, "no request left behind");
    assert_eq!(stats.bytes_in_use, 0, "ledger must drain to zero");
    assert!(stats.plan_cache_hits > 0, "repeated shapes must hit the plan cache");

    // Quiet the faults: the service (pool, cache, contexts) must still
    // produce exact products afterward.
    faults::disarm_all();
    let (a, b) = (filled(48, 48, 7), filled(48, 48, 9));
    let mut want = Matrix::zeros(48, 48);
    naive_gemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, want.view_mut());
    let got = svc.call(GemmRequest::new(a, b)).expect("clean request after disarm");
    assert_eq!(got, want, "service must be exact after the chaos storm");
}
