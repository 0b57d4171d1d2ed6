//! `e2e_bench` — the end-to-end benchmark of the modgemm library.
//!
//! ```text
//! e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! e2e_bench run --seed N [--seconds S] [--out REPORT] [--trace PREFIX]
//! e2e_bench compare PARENT_REPORT... -- CHANGE_REPORT... [--spec BENCHMARK.json] [--baseline FILE]
//! e2e_bench baseline REPORT...
//! e2e_bench capacity --seed N [--seconds S]
//! ```
//!
//! The first form runs one workload and prints each metric as
//! `workload metric value unit`, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also writes
//! the spans as Chrome trace-event JSON to `--trace-out`). It exits non-zero
//! when any output is wrong or any call fails.
//!
//! `run` executes every workload in its own child process, one after
//! another, and writes a report; `compare` sets reports of a change against
//! reports of its parent; `baseline` folds reports into the medians and
//! quartiles recorded in `baseline.json`; `capacity` measures the request
//! rate at which the `service_mixed` service saturates, which its fixed send
//! rate is set against. See BENCHMARK.md beside this crate.

mod check;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use modgemm_experiments::json::{parse, Value};

use stats::Better;

/// A metric the benchmark reports.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the library sees, printed by untraced runs.
pub const END_TO_END: &[Spec] = &[
    spec("gflops", "GFLOP/s", Higher),
    spec("lat_p50_ms", "ms", Lower),
    spec("goodput_rps", "1/s", Higher),
    spec("setup_s", "s", Lower),
    spec("peak_rss_mb", "MiB", Lower),
];

/// Metrics of single layers, printed by traced runs. A metric a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[Spec] = &[
    spec("plan.compile_us", "us", Lower),
    spec("plan.builds", "count", Lower),
    spec("plan.cache_hit_rate", "ratio", Higher),
    spec("morton.in_ms", "ms", Lower),
    spec("morton.out_ms", "ms", Lower),
    spec("morton.bytes", "B", Lower),
    spec("morton.gbs", "GB/s", Higher),
    spec("morton.frac_of_copy", "ratio", Higher),
    spec("morton.share", "ratio", Lower),
    spec("exec.compute_ms", "ms", Lower),
    spec("exec.adds_ms", "ms", Lower),
    spec("exec.strassen_levels", "count", Higher),
    spec("exec.fused_levels", "count", Higher),
    spec("exec.schedule_tier", "index", Lower),
    spec("exec.flop_ratio", "ratio", Lower),
    spec("exec.padding_ratio", "ratio", Lower),
    spec("exec.workspace_mb", "MiB", Lower),
    spec("exec.workspace_used_mb", "MiB", Lower),
    spec("exec.temp_alloc_bytes", "B", Lower),
    spec("kernel.leaf_ms", "ms", Lower),
    spec("kernel.gflops", "GFLOP/s", Higher),
    spec("kernel.frac_of_peak", "ratio", Higher),
    spec("kernel.selected", "index", Higher),
    spec("pool.workers", "count", Higher),
    spec("pool.resolved_threads", "count", Higher),
    spec("pool.tasks", "count", Lower),
    spec("pool.steals", "count", Lower),
    spec("pool.idle_frac", "ratio", Lower),
    spec("batch.window", "count", Higher),
    spec("batch.overlap_frac", "ratio", Higher),
    spec("service.submit_us", "us", Lower),
    spec("service.wait_ms", "ms", Lower),
    spec("service.gen_lag_p99_ms", "ms", Lower),
    spec("service.peak_queue_depth", "count", Lower),
    spec("service.rejected", "count", Lower),
    spec("service.peak_ledger_mb", "MiB", Lower),
    spec("gemm.overhead_ms", "ms", Lower),
    spec("probe.copy_gbs", "GB/s", Higher),
    spec("probe.copy_array_mb", "MiB", Higher),
    spec("probe.llc_mb", "MiB", Higher),
    spec("probe.kernel_peak_gflops", "GFLOP/s", Higher),
    spec("probe.host_gflops", "GFLOP/s", Higher),
    spec("probe.host_spread", "ratio", Lower),
    spec("probe.disturbed", "flag", Lower),
    spec("trace.overhead_frac", "ratio", Lower),
    spec("trace.accounted_frac", "ratio", Higher),
    spec("trace.compared_ops", "count", Higher),
    spec("trace.mismatches", "count", Lower),
    spec("check.fail_frac", "ratio", Lower),
    spec("check.rel_err_max", "ratio", Lower),
    spec("lat_tail_ms", "ms", Lower),
    spec("lat_tail.pct", "percentile", Higher),
    spec("lat_tail.beyond", "count", Higher),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("baseline") => baseline(&args[1..]),
        Some("capacity") => capacity(&args[1..]),
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(f: &BTreeMap<&str, &str>, name: &str) -> Result<Option<T>, String> {
    f.get(name).map(|v| v.parse().map_err(|_| format!("--{name}: not a number: `{v}`"))).transpose()
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let workload = *f.get("workload").ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}` (one of {:?})", workloads::WORKLOADS));
    }
    let seed: u64 = number(&f, "seed")?.ok_or("--seed is required")?;
    let seconds: f64 = number(&f, "seconds")?.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let traced = match f.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };

    let out = workloads::run(workload, seed, seconds, traced)?;
    if let (Some(path), Some(tr)) = (f.get("trace-out"), &out.tracer) {
        std::fs::write(path, tr.to_chrome().to_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let specs = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Value::object();
    let mut finite = true;
    for s in specs {
        let v = out.metrics.get(s.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            eprintln!("{workload}: {} is not a number ({v})", s.name);
            finite = false;
        }
        println!("{workload} {} {v} {}", s.name, s.unit);
        metrics.set(s.name, Value::object().with("value", v).with("unit", s.unit));
    }
    if out.disturbed {
        let spread = out.metrics.get("probe.host_spread").copied().unwrap_or(0.0);
        println!(
            "{workload} disturbed: host sentinel spread {spread:.3} exceeds {}",
            probe::DISTURBED_SPREAD
        );
    }
    let correct = out.failed == 0 && finite;
    let line = Value::object()
        .with("correct", correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics);
    println!("{}", line.to_json());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs this program with `args` in a child process, echoing its output.
/// Returns what it printed and whether it exited successfully.
fn child(exe: &std::path::Path, args: &[&str]) -> Result<(String, bool), String> {
    let out =
        Command::new(exe).args(args).output().map_err(|e| format!("running {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok((stdout, out.status.success()))
}

/// The last line a child printed, parsed.
fn result_line(stdout: &str) -> Result<Value, String> {
    parse(stdout.lines().last().ok_or("the run printed nothing")?)
}

/// Untraced runs per workload in `run`: one the host sentinel flags as
/// disturbed is made again, up to this many times in all.
const ATTEMPTS: usize = 3;

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let seed: u64 = number(&f, "seed")?.ok_or("--seed is required")?;
    let seconds: f64 = number(&f, "seconds")?.unwrap_or(20.0);
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (seed_arg, seconds_arg) = (seed.to_string(), seconds.to_string());
    let mut report = Value::object()
        .with("seed", seed as f64)
        .with("seconds", seconds)
        .with("nproc", nproc)
        .with("llc_mb", probe::llc_bytes().unwrap_or(0) as f64 / (1 << 20) as f64);
    let mut all = Value::object();
    let mut ok = true;
    for w in workloads::WORKLOADS {
        let mut entry = Value::object();
        let base = ["--workload", w, "--seed", &seed_arg, "--seconds", &seconds_arg];
        let mut disturbed_attempts = 0;
        let line = loop {
            let (stdout, success) = child(&exe, &[&base[..], &["--trace", "0"]].concat())?;
            let line = result_line(&stdout).map_err(|e| format!("{w}: {e}"))?;
            ok &= success && line.get("correct") == Some(&Value::Bool(true));
            let disturbed = stdout.lines().any(|l| l.starts_with(&format!("{w} disturbed:")));
            if !disturbed {
                break line;
            }
            disturbed_attempts += 1;
            if disturbed_attempts == ATTEMPTS {
                break line;
            }
        };
        for k in ["correct", "attempted", "failed", "metrics"] {
            entry.set(k, line.get(k).cloned().unwrap_or(Value::Null));
        }
        entry.set("disturbed_attempts", disturbed_attempts);
        entry.set("disturbed", disturbed_attempts == ATTEMPTS);
        if let Some(prefix) = f.get("trace") {
            let out = format!("{prefix}{w}.trace.json");
            let traced = [&base[..], &["--trace", "1", "--trace-out", &out]].concat();
            let (stdout, success) = child(&exe, &traced)?;
            let line = result_line(&stdout).map_err(|e| format!("{w}: {e}"))?;
            ok &= success && line.get("correct") == Some(&Value::Bool(true));
            entry.set("per_layer", line.get("metrics").cloned().unwrap_or(Value::Null));
        }
        all.set(w, entry);
    }
    report.set("workloads", all);
    let (stdout, success) = child(&exe, &["capacity", "--seed", &seed_arg])?;
    ok &= success;
    let capacity = stdout.split_whitespace().nth(2).and_then(|v| v.parse::<f64>().ok());
    report.set("service_capacity_rps", capacity.ok_or("capacity printed no rate")?);
    match f.get("out") {
        Some(path) => std::fs::write(path, report.to_json_pretty())
            .map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{}", report.to_json_pretty()),
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `capacity --seed N [--seconds S]`: prints the `service_mixed` service's
/// capacity as `service_mixed capacity_rps VALUE 1/s`.
fn capacity(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let seed: u64 = number(&f, "seed")?.ok_or("--seed is required")?;
    let seconds: f64 = number(&f, "seconds")?.unwrap_or(10.0);
    let rps = workloads::service_capacity(seed, seconds)?;
    println!("service_mixed capacity_rps {rps} 1/s");
    Ok(ExitCode::SUCCESS)
}

/// Each end-to-end metric's regression bound, from BENCHMARK.json.
fn bounds(spec_path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;
    let doc = parse(&text)?;
    let list = doc.get("end_to_end").and_then(Value::as_array).ok_or("no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("a metric without a name")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("a metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One report written by `run`, parsed.
fn load_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `workload → metric → value` of report `doc`, read from `path`.
fn report_values(
    doc: &Value,
    path: &str,
) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no `workloads` object"));
    };
    let mut out = BTreeMap::new();
    for (w, entry) in workloads {
        let mut values = BTreeMap::new();
        for section in ["metrics", "per_layer"] {
            if let Some(Value::Obj(metrics)) = entry.get(section) {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        values.insert(name.clone(), v);
                    }
                }
            }
        }
        out.insert(w.clone(), values);
    }
    Ok(out)
}

/// Per workload, each end-to-end metric's own bound from `baseline.json`
/// (see [`workload_bound`]).
fn workload_bounds(path: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let doc = load_report(path)?;
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no `workloads` object"));
    };
    let mut out = BTreeMap::new();
    for (w, entry) in workloads {
        if let Some(Value::Obj(metrics)) = entry.get("metrics") {
            for (name, m) in metrics {
                if let Some(bound) = m.get("bound").and_then(Value::as_f64) {
                    out.insert((w.clone(), name.clone()), bound);
                }
            }
        }
    }
    Ok(out)
}

/// A workload's own bound on an end-to-end metric: three times the spread
/// that metric showed on that workload, and at least 2%. `compare` uses it
/// where it is tighter than the metric's bound in BENCHMARK.json, which
/// has to cover the noisiest workload.
fn workload_bound(spread: f64) -> f64 {
    (3.0 * spread).max(0.02)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    const USAGE: &str =
        "usage: compare PARENT... -- CHANGE... [--spec BENCHMARK.json] [--baseline FILE]";
    let split = args.iter().position(|a| a == "--").ok_or(USAGE)?;
    let (parent_paths, rest) = (&args[..split], &args[split + 1..]);
    let flagged = rest.iter().position(|a| a.starts_with("--")).unwrap_or(rest.len());
    let (change_paths, f) = (&rest[..flagged], flags(&rest[flagged..])?);
    if parent_paths.is_empty() || change_paths.is_empty() {
        return Err(format!("compare needs at least one report on each side of `--`; {USAGE}"));
    }
    let spec_path = f.get("spec").copied().unwrap_or("BENCHMARK.json");
    let bounds = bounds(spec_path)?;
    let baseline_path = f.get("baseline").copied().unwrap_or("e2ebench/baseline.json");
    let own = if std::path::Path::new(baseline_path).exists() {
        workload_bounds(baseline_path)?
    } else {
        BTreeMap::new()
    };
    let load = |paths: &[String]| {
        paths.iter().map(|p| report_values(&load_report(p)?, p)).collect::<Result<Vec<_>, _>>()
    };
    let (parents, changes) = (load(parent_paths)?, load(change_paths)?);
    let series =
        |reports: &[BTreeMap<String, BTreeMap<String, f64>>], w: &str, m: &str| -> Vec<f64> {
            reports.iter().filter_map(|r| r.get(w).and_then(|v| v.get(m)).copied()).collect()
        };
    println!(
        "{:<14} {:<12} {:>12} {:>18} {:>12} {:>18} {:>6}  verdict",
        "workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "bound"
    );
    let mut regressed = false;
    for w in workloads::WORKLOADS {
        for s in END_TO_END {
            let (p, c) = (series(&parents, w, s.name), series(&changes, w, s.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let global = *bounds
                .get(s.name)
                .ok_or_else(|| format!("{spec_path} has no bound for {}", s.name))?;
            let bound =
                own.get(&(w.to_string(), s.name.to_string())).map_or(global, |&b| b.min(global));
            let v = stats::verdict(&p, &c, s.better, bound);
            regressed |= v == stats::Verdict::Regressed;
            let (p1, pm, p3) = stats::quartiles(&p);
            let (c1, cm, c3) = stats::quartiles(&c);
            println!(
                "{w:<14} {:<12} {pm:>12.4} {:>18} {cm:>12.4} {:>18} {bound:>6.3}  {}",
                s.name,
                format!("{p1:.4}..{p3:.4}"),
                format!("{c1:.4}..{c3:.4}"),
                v.name()
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Median, quartiles and relative spread of `v`, for `baseline.json`.
fn summary(v: &[f64], unit: &str) -> Value {
    let (q1, median, q3) = stats::quartiles(v);
    let spread = if median == 0.0 { 0.0 } else { (q3 - q1) / median.abs() };
    Value::object()
        .with("median", median)
        .with("q1", q1)
        .with("q3", q3)
        .with("spread", spread)
        .with("runs", v.len())
        .with("unit", unit)
}

/// Prints `baseline.json`: per workload × metric, the median, quartiles
/// and relative spread over the given reports, with the machine they ran
/// on, the `service_mixed` capacity and the runs still flagged disturbed.
fn baseline(paths: &[String]) -> Result<ExitCode, String> {
    if paths.is_empty() {
        return Err("usage: baseline REPORT...".into());
    }
    let docs = paths.iter().map(|p| load_report(p)).collect::<Result<Vec<_>, _>>()?;
    let reports =
        docs.iter().zip(paths).map(|(d, p)| report_values(d, p)).collect::<Result<Vec<_>, _>>()?;
    let seeds: Vec<Value> =
        docs.iter().map(|d| d.get("seed").cloned().unwrap_or(Value::Null)).collect();
    let capacity: Vec<f64> =
        docs.iter().filter_map(|d| d.get("service_capacity_rps")?.as_f64()).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workloads = Value::object();
    for w in workloads::WORKLOADS {
        let mut metrics = Value::object();
        for (i, s) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            let v: Vec<f64> =
                reports.iter().filter_map(|r| r.get(w)?.get(s.name).copied()).collect();
            if v.is_empty() {
                continue;
            }
            let mut entry = summary(&v, s.unit);
            if i < END_TO_END.len() {
                let spread = entry.get("spread").and_then(Value::as_f64).unwrap_or(0.0);
                entry.set("bound", workload_bound(spread));
            }
            metrics.set(s.name, entry);
        }
        let disturbed = docs
            .iter()
            .filter(|d| {
                let entry = d.get("workloads").and_then(|ws| ws.get(w));
                entry.and_then(|e| e.get("disturbed")) == Some(&Value::Bool(true))
            })
            .count();
        workloads
            .set(w, Value::object().with("disturbed_runs", disturbed).with("metrics", metrics));
    }
    let doc = Value::object()
        .with("cpu", probe::cpu_model())
        .with("nproc", nproc)
        .with("llc_mb", probe::llc_bytes().unwrap_or(0) as f64 / (1 << 20) as f64)
        .with("default_seed", 1usize)
        .with("held_out_seed", 7usize)
        .with("seeds", seeds)
        .with("service_rate_rps", workloads::SERVICE_RATE)
        .with("service_capacity_rps", summary(&capacity, "1/s"))
        .with("workloads", workloads);
    print!("{}", doc.to_json_pretty());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and BENCHMARK.json at the repository root
    /// must name the same metrics with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let list = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(list.len(), table.len(), "{key} length");
            for (m, s) in list.iter().zip(table) {
                assert_eq!(m.get("name").and_then(Value::as_str), Some(s.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(s.unit), "{}", s.name);
                assert_eq!(
                    m.get("better").and_then(Value::as_str),
                    Some(s.better.name()),
                    "{}",
                    s.name
                );
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, workloads::WORKLOADS);
    }
}
