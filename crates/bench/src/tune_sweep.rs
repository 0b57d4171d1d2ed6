//! The plan-space sweep behind the `modgemm-tune` binary.
//!
//! For each problem size the sweep enumerates candidate operating points
//! — truncation tile range, `strassen_min` (the Strassen-depth knob),
//! leaf [`KernelKind`], the thread axis, and (for multi-worker
//! candidates) the whole-batch `batch_window` axis, timed through a
//! small [`BatchPlan`] workload — drives each
//! through the same plan/execute machinery `bench_runner` times (a plan
//! compiled once, a warm context, an untimed warmup repetition, then
//! min-of-reps wall time), and records the winner as a
//! [`TuningProfile`] entry.
//!
//! Two objectives are available:
//!
//! * **`min-time`** (default): minimum wall seconds per execution over
//!   the repetitions, converted to effective GFLOP/s (`2·m·k·n`-based)
//!   for the recorded score. Machine-specific, which is the point.
//! * **`cachesim-misses`** (`--cachesim`): total simulated cache misses
//!   from `modgemm-cachesim`'s traced executor under the paper's
//!   Figure 9 cache model — bit-for-bit deterministic across runs and
//!   machines. The simulator models the *schedule's* memory behaviour,
//!   not kernel register tiling or threading, so this objective sweeps
//!   only the truncation/`strassen_min` axes and records neutral
//!   (`Auto`/serial) choices for the others. Simulation cost scales with
//!   `n³`, so sizes above [`CACHESIM_SIZE_CAP`] are evaluated at the cap
//!   (the schedule axes' relative ordering is size-stable in the paper's
//!   regime; the entry is still recorded at the requested size).
//!
//! The sweep deliberately runs candidates through
//! [`TuningMode::Forced`] — the same code path a loaded profile drives —
//! so tuning exercises exactly what tuned production plans will execute.

use std::time::Instant;

use modgemm_cachesim::cache::CacheConfig;
use modgemm_cachesim::traced::traced_modgemm;
use modgemm_core::plan::GemmPlan;
use modgemm_core::tune::{ProfileEntry, TunedChoice, TuningMode, TuningProfile};
use modgemm_core::{BatchPlan, GemmContext, GemmError, ModgemmConfig, StridedBatch};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::simd::has_vector_unit;
use modgemm_mat::view::Op;
use modgemm_mat::{KernelKind, Matrix};
use modgemm_morton::tiling::TileRange;

/// Largest size the `--cachesim` objective simulates directly; larger
/// requested sizes are evaluated at this surrogate (see module docs).
pub const CACHESIM_SIZE_CAP: usize = 256;

/// Which suite of problem sizes and candidate grids to sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// The CI-speed sweep: the `bench_runner` smoke sizes (256, 513)
    /// over a small candidate grid.
    Smoke,
    /// The full grid: more sizes, more truncation points, every viable
    /// kernel.
    Full,
}

impl Suite {
    /// Parses `smoke` / `full` (the `--suite` CLI values).
    pub fn parse(s: &str) -> Option<Suite> {
        match s {
            _ if s.eq_ignore_ascii_case("smoke") => Some(Suite::Smoke),
            _ if s.eq_ignore_ascii_case("full") => Some(Suite::Full),
            _ => None,
        }
    }

    /// Problem sizes this suite records entries for.
    pub fn sizes(self) -> &'static [usize] {
        match self {
            Suite::Smoke => &[256, 513],
            Suite::Full => &[128, 256, 384, 513, 768, 1024],
        }
    }
}

/// Options of one sweep run.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Candidate-grid selection.
    pub suite: Suite,
    /// Problem sizes to record entries for (defaults to
    /// [`Suite::sizes`]).
    pub sizes: Vec<usize>,
    /// Timed repetitions per candidate (after one untimed warmup).
    pub reps: u32,
    /// Use the deterministic cache-simulator objective instead of wall
    /// time.
    pub cachesim: bool,
}

impl SweepOptions {
    /// Defaults for a suite: the suite's sizes, 3 timed reps
    /// (min-of-reps is stable at small counts), timing objective.
    pub fn new(suite: Suite) -> Self {
        Self { suite, sizes: suite.sizes().to_vec(), reps: 3, cachesim: false }
    }
}

/// The candidate operating points for one sweep, in evaluation order.
/// The first candidate is always [`TunedChoice::baseline`]-equivalent
/// (paper truncation range, no depth cap, `Auto` kernel resolution,
/// auto-resolved threads, unfused), so ties and near-ties keep the
/// untuned behaviour.
pub fn candidates(suite: Suite, cachesim: bool) -> Vec<TunedChoice> {
    let tile_ranges: &[(usize, usize)] = match suite {
        Suite::Smoke => &[(16, 64)],
        Suite::Full => &[(16, 64), (8, 32), (32, 64)],
    };
    let strassen_mins: &[usize] = match suite {
        Suite::Smoke => &[0, 64],
        Suite::Full => &[0, 16, 32, 64, 128],
    };
    let fuse_depths: &[usize] = match suite {
        Suite::Smoke => &[0, 1],
        Suite::Full => &[0, 1],
    };
    // The whole-batch in-flight window only matters to the batch DAG,
    // which needs a multi-worker pool — so the axis is swept only for
    // candidates that may resolve several workers (0 keeps the
    // auto-derived window).
    let batch_windows: &[usize] = match suite {
        Suite::Smoke => &[0, 2],
        Suite::Full => &[0, 2, 4],
    };
    if cachesim {
        // The simulator sees only the schedule: sweep the truncation /
        // depth axes and keep the kernel, threading, and fusion axes
        // neutral (the traced executor models the staged schedule).
        let mut out = Vec::new();
        for &(tile_min, tile_max) in tile_ranges {
            for &strassen_min in strassen_mins {
                out.push(TunedChoice {
                    tile_min,
                    tile_max,
                    strassen_min,
                    ..TunedChoice::baseline()
                });
            }
        }
        return out;
    }
    let mut kernels = vec![KernelKind::Auto, KernelKind::Blocked];
    if has_vector_unit() {
        kernels.push(KernelKind::Packed);
    }
    let threads_axis: &[usize] =
        if std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) > 1 {
            // Auto-resolved workers (a team above the crossover, the
            // batch DAG's workers), and one thread.
            &[0, 1]
        } else {
            &[0]
        };
    let mut out = Vec::new();
    for &(tile_min, tile_max) in tile_ranges {
        for &strassen_min in strassen_mins {
            for &kernel in &kernels {
                for &threads in threads_axis {
                    for &fuse_depth in fuse_depths {
                        for &batch_window in batch_windows {
                            if batch_window > 0 && threads == 1 {
                                continue;
                            }
                            out.push(TunedChoice {
                                tile_min,
                                tile_max,
                                strassen_min,
                                kernel,
                                threads,
                                fuse_depth,
                                batch_window,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// The base configuration candidates are forced into: every tunable
/// knob at its delegating default, so a [`TuningMode::Forced`] choice
/// drives all of them — the exact posture a profile-consulting caller
/// (`leaf_kernel: Auto`, everything else default) runs with.
fn sweep_base_config() -> ModgemmConfig {
    ModgemmConfig { leaf_kernel: KernelKind::Auto, ..ModgemmConfig::default() }
}

/// Times one candidate at `n × n × n`: plan compiled once from the
/// forced configuration, one untimed warmup execution, then `reps`
/// timed executions on the warm context. Returns min seconds per
/// execution, or an error when the forced plan cannot be built.
fn time_candidate(
    n: usize,
    choice: TunedChoice,
    reps: u32,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> Result<f64, GemmError> {
    let cfg = ModgemmConfig { tuning: TuningMode::Forced(choice), ..sweep_base_config() };
    let plan = GemmPlan::<f64>::try_new(n, n, n, &cfg)?;
    let mut c: Matrix<f64> = Matrix::zeros(n, n);
    let mut ctx = GemmContext::new();
    let mut best = f64::INFINITY;
    for rep in 0..=reps {
        let t0 = Instant::now();
        plan.try_execute(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &mut ctx,
        )?;
        if rep > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    Ok(best)
}

/// Items in the miniature batched workload candidates with a pinned
/// `batch_window` are timed through — small enough to keep sweep cost
/// near the single-GEMM axis, large enough that conversion/compute
/// overlap across items shows up in the score.
const TUNE_BATCH: usize = 4;

/// Times one `batch_window`-pinned candidate through a [`BatchPlan`]
/// over [`TUNE_BATCH`] same-shape items (operands broadcast, outputs
/// strided), returning min seconds per *item* so batched and
/// single-GEMM scores stay directly comparable.
fn time_candidate_batched(
    n: usize,
    choice: TunedChoice,
    reps: u32,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> Result<f64, GemmError> {
    let cfg = ModgemmConfig { tuning: TuningMode::Forced(choice), ..sweep_base_config() };
    let plan = BatchPlan::<f64>::try_new(n, n, n, TUNE_BATCH, &cfg)?;
    let mut c = vec![0.0f64; n * n * TUNE_BATCH];
    let desc = StridedBatch {
        alpha: 1.0,
        op_a: Op::NoTrans,
        a: a.as_slice(),
        lda: n,
        stride_a: 0,
        op_b: Op::NoTrans,
        b: b.as_slice(),
        ldb: n,
        stride_b: 0,
        beta: 0.0,
        ldc: n,
        stride_c: n * n,
    };
    let mut ctx = GemmContext::new();
    let mut best = f64::INFINITY;
    for rep in 0..=reps {
        let t0 = Instant::now();
        plan.try_execute(&desc, &mut c, &mut ctx)?;
        if rep > 0 {
            best = best.min(t0.elapsed().as_secs_f64() / TUNE_BATCH as f64);
        }
    }
    Ok(best)
}

/// Evaluates one candidate under the deterministic cache-simulator
/// objective: total misses across the hierarchy for an `n_sim`-sized
/// run of the candidate's schedule, conversion included. The choice's
/// schedule knobs are materialized directly into the paper
/// configuration (the traced executor mirrors only its staged `Blocked`
/// pipeline and plans from the config fields, not through `GemmPlan`).
fn simulate_candidate(n_sim: usize, choice: TunedChoice) -> Result<u64, GemmError> {
    let cfg = ModgemmConfig {
        truncation: modgemm_core::Truncation::MinPadding(TileRange {
            min: choice.tile_min,
            max: choice.tile_max,
        }),
        strassen_min: choice.strassen_min,
        ..ModgemmConfig::paper()
    };
    cfg.validate()?;
    if cfg.plan(n_sim, n_sim, n_sim).is_none() {
        return Err(GemmError::InvalidConfig {
            reason: "cachesim candidate admits no joint tiling at the simulated size",
        });
    }
    let a: Matrix<f64> = random_matrix(n_sim, n_sim, 11);
    let b: Matrix<f64> = random_matrix(n_sim, n_sim, 13);
    let report = traced_modgemm(&a, &b, &cfg, CacheConfig::PAPER_FIG9, true);
    Ok(report.total_misses())
}

/// Progress callback: `(size, candidate, score, is_best_so_far)`.
/// `score` is effective GFLOP/s for the timing objective and negated
/// total misses for `--cachesim` (always larger-is-better).
pub type Progress<'a> = &'a mut dyn FnMut(usize, TunedChoice, f64, bool);

/// Runs the sweep and returns the recorded profile. Candidates that
/// fail to plan (e.g. a tile range no joint tiling admits at some size)
/// are skipped; a size where *every* candidate fails records no entry.
/// Errors only on conditions that invalidate the whole sweep (none
/// today; the signature leaves room for I/O-backed objectives).
pub fn run_sweep(opts: &SweepOptions, progress: Progress<'_>) -> Result<TuningProfile, GemmError> {
    let objective = if opts.cachesim { "cachesim-misses" } else { "min-time" };
    let mut profile = TuningProfile::new_for_host(objective);
    let cands = candidates(opts.suite, opts.cachesim);
    for &n in &opts.sizes {
        let a: Matrix<f64> = random_matrix(n, n, 11);
        let b: Matrix<f64> = random_matrix(n, n, 13);
        let mut best: Option<(TunedChoice, f64)> = None;
        for &choice in &cands {
            let score = if opts.cachesim {
                let n_sim = n.min(CACHESIM_SIZE_CAP);
                match simulate_candidate(n_sim, choice) {
                    Ok(misses) => -(misses as f64),
                    Err(_) => continue,
                }
            } else {
                // A pinned batch_window is only observable through the
                // whole-batch DAG, so those candidates time a miniature
                // batched workload (per-item seconds either way).
                let timed = if choice.batch_window > 0 {
                    time_candidate_batched(n, choice, opts.reps, &a, &b)
                } else {
                    time_candidate(n, choice, opts.reps, &a, &b)
                };
                match timed {
                    Ok(secs) if secs > 0.0 && secs.is_finite() => {
                        let flops = 2.0 * (n as f64).powi(3);
                        flops / secs / 1e9
                    }
                    _ => continue,
                }
            };
            let improved = best.map_or(true, |(_, s)| score > s);
            progress(n, choice, score, improved);
            if improved {
                best = Some((choice, score));
            }
        }
        if let Some((choice, score)) = best {
            profile.entries.push(ProfileEntry { m: n, k: n, n, choice, score });
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_grids_have_the_declared_shape() {
        let smoke = candidates(Suite::Smoke, false);
        // 1 tile range × 2 strassen_mins × (2 or 3 kernels) × (1 or 2
        // thread options) — and the first candidate keeps the baseline
        // schedule so ties preserve untuned behaviour.
        assert!(smoke.len() >= 4);
        assert_eq!(smoke[0].tile_min, TileRange::PAPER.min);
        assert_eq!(smoke[0].strassen_min, 0);
        assert_eq!(smoke[0].kernel, KernelKind::Auto);
        let full = candidates(Suite::Full, false);
        assert!(full.len() > smoke.len());
        // The cachesim grid only varies schedule knobs.
        for c in candidates(Suite::Full, true) {
            assert_eq!(c.kernel, KernelKind::Auto);
            assert_eq!(c.threads, 0);
        }
    }

    #[test]
    fn suite_parse_roundtrip() {
        assert_eq!(Suite::parse("smoke"), Some(Suite::Smoke));
        assert_eq!(Suite::parse("FULL"), Some(Suite::Full));
        assert_eq!(Suite::parse("medium"), None);
        assert_eq!(Suite::Smoke.sizes(), &[256, 513]);
    }

    #[test]
    fn tiny_timing_sweep_records_valid_entries() {
        // A miniature sweep (smoke candidate grid, tiny sizes, 1 rep —
        // the unit suite runs unoptimized) must produce a schema-valid
        // profile whose JSON round-trips, with one entry per size.
        let opts =
            SweepOptions { suite: Suite::Smoke, sizes: vec![32, 48], reps: 1, cachesim: false };
        let mut calls = 0u32;
        let profile = run_sweep(&opts, &mut |_, _, _, _| calls += 1).unwrap();
        assert!(calls > 0);
        assert_eq!(profile.entries.len(), opts.sizes.len());
        for e in &profile.entries {
            assert!(e.score > 0.0, "timing scores are positive GFLOP/s");
        }
        let back = TuningProfile::from_json_str(&profile.to_json()).unwrap();
        assert_eq!(&back, &profile);
        // The recorded profile must itself drive plan selection.
        let e = &profile.entries[0];
        assert!(profile.lookup(e.m, e.k, e.n).is_some());
    }

    #[test]
    fn cachesim_objective_is_deterministic() {
        let choice = TunedChoice::baseline();
        let m1 = simulate_candidate(64, choice).unwrap();
        let m2 = simulate_candidate(64, choice).unwrap();
        assert_eq!(m1, m2, "simulated misses must be bit-deterministic");
        assert!(m1 > 0);
    }
}
