//! Machine-readable bench reports (`BENCH_<suite>.json`) and the
//! regression comparator behind `bench_runner compare`.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "smoke",
//!   "created_unix": 1754500000,
//!   "git_sha": "…",
//!   "machine": {"os": "linux", "arch": "x86_64", "num_cpus": 8},
//!   "cases": [
//!     {
//!       "name": "modgemm_256", "m": 256, "k": 256, "n": 256, "reps": 2,
//!       "secs_median": 0.01, "secs_min": 0.009,
//!       "gflops_median": 3.2, "gflops_min": 3.0, "score": 1.4,
//!       "metrics": {"flops": 1, "conventional_flops": 1, "...": 0}
//!     }
//!   ]
//! }
//! ```
//!
//! GFLOP/s are *effective*: normalized by the conventional-equivalent
//! flop count `2·m·k·n` of the logical problem, so Strassen's savings
//! appear as higher throughput. `score` is the case's median effective
//! GFLOP/s divided by the `conventional_256` case's — a machine-portable
//! ratio that CI can gate on across runner generations.

use modgemm_core::json::{index_by, Value};

/// The schema version this crate emits and understands.
pub const SCHEMA_VERSION: u64 = 1;

/// The case whose median GFLOP/s normalizes every `score` field.
pub const SCORE_REFERENCE_CASE: &str = "conventional_256";

/// Median of a sample (mean of the middle pair for even lengths).
/// Panics on empty input.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Which per-case field `compare_reports` gates on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareMetric {
    /// `gflops_median` — absolute throughput (same-machine comparisons).
    Gflops,
    /// `score` — throughput relative to the in-file conventional
    /// reference (portable across machines).
    Score,
}

impl CompareMetric {
    /// Parses `gflops` / `score`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "gflops" => Some(CompareMetric::Gflops),
            "score" => Some(CompareMetric::Score),
            _ => None,
        }
    }

    fn field(self) -> &'static str {
        match self {
            CompareMetric::Gflops => "gflops_median",
            CompareMetric::Score => "score",
        }
    }
}

/// The outcome of diffing two reports.
#[derive(Debug, Default)]
pub struct CompareOutcome {
    /// One human-readable line per compared case.
    pub lines: Vec<String>,
    /// Cases that regressed past the threshold (or went missing).
    pub regressions: Vec<String>,
}

impl CompareOutcome {
    /// True when no case regressed.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn cases_of(report: &Value) -> Result<&[Value], String> {
    let version =
        report.get("schema_version").and_then(Value::as_f64).ok_or("missing schema_version")?
            as u64;
    if version != SCHEMA_VERSION {
        return Err(format!("unsupported schema_version {version} (expected {SCHEMA_VERSION})"));
    }
    report.get("cases").and_then(Value::as_array).ok_or_else(|| "missing cases".to_string())
}

/// Diffs `new` against `old`: a case regresses when its metric falls
/// below `old * (1 - threshold)`, and a case present in `old` but absent
/// from `new` is always a regression (a silently dropped benchmark must
/// not pass the gate). Cases only in `new` are reported but accepted.
pub fn compare_reports(
    old: &Value,
    new: &Value,
    metric: CompareMetric,
    threshold: f64,
) -> Result<CompareOutcome, String> {
    if !(0.0..1.0).contains(&threshold) {
        return Err(format!("threshold {threshold} outside [0, 1)"));
    }
    let old_cases = cases_of(old).map_err(|e| format!("old report: {e}"))?;
    let new_cases = cases_of(new).map_err(|e| format!("new report: {e}"))?;
    let new_idx = index_by(new_cases, "name");
    let old_idx = index_by(old_cases, "name");
    let field = metric.field();

    let mut out = CompareOutcome::default();
    for case in old_cases {
        let name = case.get("name").and_then(Value::as_str).ok_or("old case without name")?;
        let old_val = case
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("old case {name} lacks {field}"))?;
        let Some(new_case) = new_idx.get(name) else {
            out.regressions.push(format!("{name}: present in old report, missing from new"));
            continue;
        };
        let new_val = new_case
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("new case {name} lacks {field}"))?;
        let floor = old_val * (1.0 - threshold);
        let delta = if old_val != 0.0 { (new_val - old_val) / old_val * 100.0 } else { 0.0 };
        if new_val < floor {
            out.regressions.push(format!(
                "{name}: {field} {new_val:.4} < {floor:.4} (old {old_val:.4}, {delta:+.1}%)"
            ));
        } else {
            out.lines.push(format!("{name}: {field} {old_val:.4} -> {new_val:.4} ({delta:+.1}%)"));
        }
    }
    for case in new_cases {
        if let Some(name) = case.get("name").and_then(Value::as_str) {
            if !old_idx.contains_key(name) {
                out.lines.push(format!("{name}: new case (no old reference)"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cases: &[(&str, f64)]) -> Value {
        Value::object().with("schema_version", SCHEMA_VERSION).with(
            "cases",
            cases
                .iter()
                .map(|(name, g)| {
                    Value::object().with("name", *name).with("gflops_median", *g).with("score", *g)
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn within_threshold_passes() {
        let old = report(&[("a", 10.0), ("b", 5.0)]);
        let new = report(&[("a", 8.0), ("b", 5.5)]);
        let out = compare_reports(&old, &new, CompareMetric::Gflops, 0.25).unwrap();
        assert!(out.ok(), "{:?}", out.regressions);
        assert_eq!(out.lines.len(), 2);
    }

    #[test]
    fn past_threshold_fails() {
        let old = report(&[("a", 10.0)]);
        let new = report(&[("a", 7.4)]);
        let out = compare_reports(&old, &new, CompareMetric::Gflops, 0.25).unwrap();
        assert!(!out.ok());
        assert!(out.regressions[0].contains("a:"));
    }

    #[test]
    fn missing_case_fails_extra_case_passes() {
        let old = report(&[("a", 10.0), ("gone", 1.0)]);
        let new = report(&[("a", 10.0), ("brandnew", 9.0)]);
        let out = compare_reports(&old, &new, CompareMetric::Gflops, 0.25).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("gone"));
        assert!(out.lines.iter().any(|l| l.contains("brandnew")));
    }

    #[test]
    fn schema_version_checked() {
        let bad = Value::object().with("schema_version", 99u64).with("cases", Vec::new());
        let good = report(&[]);
        assert!(compare_reports(&bad, &good, CompareMetric::Gflops, 0.25).is_err());
        assert!(compare_reports(&good, &bad, CompareMetric::Score, 0.25).is_err());
        assert!(compare_reports(&good, &good, CompareMetric::Gflops, 1.5).is_err());
    }

    #[test]
    fn score_metric_uses_score_field() {
        let old = report(&[("a", 2.0)]);
        let mut new = report(&[("a", 2.0)]);
        // Degrade only the score field; gflops gate would still pass.
        if let Value::Obj(entries) = &mut new {
            if let Value::Arr(cases) =
                &mut entries.iter_mut().find(|(k, _)| k == "cases").unwrap().1
            {
                cases[0].set("score", 0.5);
            }
        }
        assert!(compare_reports(&old, &new, CompareMetric::Gflops, 0.25).unwrap().ok());
        assert!(!compare_reports(&old, &new, CompareMetric::Score, 0.25).unwrap().ok());
    }
}
