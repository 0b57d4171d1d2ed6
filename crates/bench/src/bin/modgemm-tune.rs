//! `modgemm-tune` — records a per-machine [`TuningProfile`] by sweeping
//! the plan space (see [`modgemm_bench::tune_sweep`]).
//!
//! [`TuningProfile`]: modgemm_core::tune::TuningProfile
//!
//! ```text
//! modgemm-tune [--suite smoke|full] [--out PATH] [--reps N] [--cachesim]
//! ```
//!
//! * `--suite smoke` (default): the CI-speed grid at the bench smoke
//!   sizes (256, 513). `--suite full`: more sizes, more candidates.
//! * `--out PATH`: where to write the profile JSON. Defaults to the
//!   load location plan compilation consults —
//!   [`modgemm_core::tune::profile_path`], i.e. `MODGEMM_PROFILE` if
//!   set, else `~/.cache/modgemm/profile.json` — so a plain
//!   `modgemm-tune` run immediately takes effect for
//!   `TuningMode::Profile` callers.
//! * `--reps N`: timed repetitions per candidate (default 3; one extra
//!   untimed warmup always runs).
//! * `--cachesim`: replace wall time with the deterministic
//!   cache-simulator miss count objective (schedule axes only — see the
//!   sweep module docs).
//!
//! Exit codes: 0 on success, 2 on usage or I/O errors. A corrupt
//! *existing* profile at the output path is irrelevant (it is
//! overwritten); load-side corruption handling lives in
//! `modgemm_core::tune` and its tests.

use std::process::ExitCode;

use modgemm_bench::tune_sweep::{run_sweep, Suite, SweepOptions};
use modgemm_core::tune::profile_path;

fn usage(msg: &str) -> ExitCode {
    eprintln!("modgemm-tune: {msg}");
    eprintln!("usage: modgemm-tune [--suite smoke|full] [--out PATH] [--reps N] [--cachesim]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = SweepOptions::new(Suite::Smoke);
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => match it.next().and_then(|s| Suite::parse(s)) {
                Some(suite) => {
                    opts.suite = suite;
                    opts.sizes = suite.sizes().to_vec();
                }
                None => return usage("--suite needs smoke|full"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            "--reps" => match it.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(r) if r > 0 => opts.reps = r,
                _ => return usage("--reps needs a positive count"),
            },
            "--cachesim" => opts.cachesim = true,
            other => return usage(&format!("unknown option {other}")),
        }
    }

    let objective = if opts.cachesim { "cachesim-misses" } else { "min-time" };
    eprintln!(
        "modgemm-tune: suite={:?} sizes={:?} reps={} objective={objective}",
        opts.suite, opts.sizes, opts.reps
    );
    let mut progress = |n: usize, choice: modgemm_core::TunedChoice, score: f64, best: bool| {
        let marker = if best { " <- best" } else { "" };
        let value = if opts.cachesim {
            format!("{:.0} misses", -score)
        } else {
            format!("{score:.2} GFLOP/s")
        };
        eprintln!(
            "  n={n} tiles={}..{} strassen_min={} kernel={} threads={} batch_window={}: \
             {value}{marker}",
            choice.tile_min,
            choice.tile_max,
            choice.strassen_min,
            choice.kernel,
            choice.threads,
            choice.batch_window,
        );
    };
    let profile = match run_sweep(&opts, &mut progress) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("modgemm-tune: sweep failed: {e}");
            return ExitCode::from(2);
        }
    };
    if profile.entries.is_empty() {
        eprintln!("modgemm-tune: no candidate produced a usable measurement");
        return ExitCode::from(2);
    }

    let path = out.map(std::path::PathBuf::from).unwrap_or_else(profile_path);
    if let Err(e) = profile.save_to_path(&path) {
        eprintln!("modgemm-tune: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    eprintln!("modgemm-tune: wrote {} ({} entries)", path.display(), profile.entries.len());
    for e in &profile.entries {
        eprintln!(
            "  {}x{}x{} -> tiles={}..{} strassen_min={} kernel={} threads={} \
             batch_window={} (score {:.2})",
            e.m,
            e.k,
            e.n,
            e.choice.tile_min,
            e.choice.tile_max,
            e.choice.strassen_min,
            e.choice.kernel,
            e.choice.threads,
            e.choice.batch_window,
            e.score,
        );
    }
    ExitCode::SUCCESS
}
