#![warn(missing_docs)]

//! Shared machinery for the per-figure experiment drivers.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the SC'98
//! paper (see DESIGN.md's per-experiment index). This library provides the
//! paper's measurement protocol (§4), the size sweeps, and plain-text /
//! CSV emitters.

use std::time::{Duration, Instant};

// The JSON layer lives in `modgemm-core`. This re-export keeps the
// `modgemm_experiments::json` path alive only for the end-to-end benchmark
// harness (`e2ebench/`), which imports it by that name; new code imports
// `modgemm_core::json`.
pub use modgemm_core::json;

pub mod protocol {
    //! The paper's §4 timing protocol: "For matrices less than 500 we
    //! compute the average of 10 invocations … we execute the above
    //! experiments three times for each matrix size, and use the minimum
    //! value."

    use super::*;

    /// Invocations to average for one measurement at size `n`.
    pub fn reps_for(n: usize) -> u32 {
        if n < 500 {
            10
        } else {
            1
        }
    }

    /// Outer repetitions whose minimum is reported.
    pub const OUTER_REPS: u32 = 3;

    /// Measures `f` with the paper's protocol at problem size `n`:
    /// min over [`OUTER_REPS`] of (mean over [`reps_for`]`(n)` calls).
    pub fn measure(n: usize, mut f: impl FnMut()) -> Duration {
        let inner = reps_for(n);
        let mut best = Duration::MAX;
        for _ in 0..OUTER_REPS {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            let mean = t0.elapsed() / inner;
            best = best.min(mean);
        }
        best
    }

    /// A cheaper protocol for quick runs: min of `outer` single calls.
    pub fn measure_quick(outer: u32, mut f: impl FnMut()) -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..outer {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed());
        }
        best
    }
}

/// The paper's Figure 5/6 sweep: matrix sizes from 150 to 1024. The exact
/// grid is not printed in the paper; we use a grid dense enough to show
/// every crossover, including the power-of-two neighbourhoods where the
/// implementations differ most.
pub fn paper_sweep() -> Vec<usize> {
    let mut v: Vec<usize> = (150..500).step_by(25).collect();
    v.extend((500..1000).step_by(50));
    v.extend([1000, 1023, 1024]);
    v
}

/// A fast subset for smoke runs (`--quick`).
pub fn quick_sweep() -> Vec<usize> {
    vec![150, 200, 255, 256, 300, 400, 500, 513]
}

/// Parses common CLI options: `--quick`, `--sizes a,b,c`.
pub struct Cli {
    /// Use the reduced sweep.
    pub quick: bool,
    /// Explicit sizes (overrides sweeps).
    pub sizes: Option<Vec<usize>>,
}

impl Cli {
    /// Parses `std::env::args`.
    pub fn parse() -> Self {
        let mut quick = false;
        let mut sizes = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--sizes" => {
                    let v = args
                        .next()
                        .expect("--sizes needs a comma-separated list")
                        .split(',')
                        .map(|s| s.trim().parse().expect("bad size"))
                        .collect();
                    sizes = Some(v);
                }
                other => panic!("unknown argument: {other} (supported: --quick, --sizes a,b,c)"),
            }
        }
        Self { quick, sizes }
    }

    /// The sweep this invocation should run.
    pub fn sweep(&self) -> Vec<usize> {
        match (&self.sizes, self.quick) {
            (Some(s), _) => s.clone(),
            (None, true) => quick_sweep(),
            (None, false) => paper_sweep(),
        }
    }
}

/// Prints a header + aligned rows, and the same data as CSV after a
/// marker line (easy to grep into EXPERIMENTS.md).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders aligned text followed by a CSV block.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        for row in &self.rows {
            line(row);
        }
        println!("-- csv --");
        println!("{}", self.headers.join(","));
        for row in &self.rows {
            println!("{}", row.join(","));
        }
    }

    /// The table as a JSON object: `{"title", "headers", "rows"}`. Cells
    /// that parse as numbers are emitted as JSON numbers.
    pub fn to_json(&self, title: &str) -> json::Value {
        let cell = |c: &String| match c.parse::<f64>() {
            Ok(x) if x.is_finite() => json::Value::Num(x),
            _ => json::Value::Str(c.clone()),
        };
        json::Value::object()
            .with("title", title)
            .with(
                "headers",
                self.headers.iter().map(|h| json::Value::from(h.as_str())).collect::<Vec<_>>(),
            )
            .with(
                "rows",
                self.rows
                    .iter()
                    .map(|r| json::Value::Arr(r.iter().map(cell).collect()))
                    .collect::<Vec<_>>(),
            )
    }
}

/// Collects the tables a driver prints and writes them as one JSON file
/// next to the text output, so downstream tooling does not have to scrape
/// the `-- csv --` blocks.
pub struct JsonArtifact {
    driver: String,
    tables: Vec<json::Value>,
}

impl JsonArtifact {
    /// Starts an artifact for the named driver (the binary name).
    pub fn new(driver: &str) -> Self {
        Self { driver: driver.to_string(), tables: Vec::new() }
    }

    /// Adds one rendered table under `title`.
    pub fn add_table(&mut self, title: &str, table: &Table) {
        self.tables.push(table.to_json(title));
    }

    /// Prints the table (text + CSV) and records it in the artifact —
    /// the one-liner the figure drivers use for every table they show.
    pub fn print_table(&mut self, title: &str, table: &Table) {
        table.print(title);
        self.add_table(title, table);
    }

    /// Writes the artifact and announces the path. Panics on I/O errors
    /// so a driver that cannot leave its JSON behind fails visibly
    /// (all_figures turns that into a red smoke run).
    pub fn finish(&self) {
        let path = self.write().expect("write JSON artifact");
        println!("(json: {})", path.display());
    }

    /// Writes `<dir>/<driver>.json` where `<dir>` is `$MODGEMM_RESULTS_DIR`
    /// or `results`, creating the directory if needed. Returns the path.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var("MODGEMM_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir)?;
        let doc = json::Value::object()
            .with("schema_version", 1u64)
            .with("driver", self.driver.as_str())
            .with("tables", self.tables.clone());
        let path = dir.join(format!("{}.json", self.driver));
        std::fs::write(&path, doc.to_json_pretty())?;
        Ok(path)
    }
}

/// Formats a `Duration` in milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Formats a ratio with three decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// MFLOP/s for `flops` done in `d`.
pub fn mflops(flops: u64, d: Duration) -> f64 {
    flops as f64 / d.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_follow_paper_rule() {
        assert_eq!(protocol::reps_for(499), 10);
        assert_eq!(protocol::reps_for(500), 1);
    }

    #[test]
    fn measure_returns_positive_duration() {
        let d = protocol::measure_quick(2, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn sweeps_are_sorted_and_in_range() {
        let s = paper_sweep();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*s.first().unwrap(), 150);
        assert_eq!(*s.last().unwrap(), 1024);
        assert!(quick_sweep().iter().all(|&n| n >= 150));
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["1".into()]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn table_to_json_types_cells() {
        let mut t = Table::new(&["n", "algo", "ms"]);
        t.row(vec!["256".into(), "modgemm".into(), "1.500".into()]);
        let v = t.to_json("demo");
        assert_eq!(v.get("title").unwrap().as_str(), Some("demo"));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        let cells = rows[0].as_array().unwrap();
        assert_eq!(cells[0].as_f64(), Some(256.0));
        assert_eq!(cells[1].as_str(), Some("modgemm"));
        assert_eq!(cells[2].as_f64(), Some(1.5));
        let text = v.to_json_pretty();
        assert_eq!(json::parse(&text).unwrap(), v);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.000");
        assert_eq!(ratio(0.5), "0.500");
        assert!(mflops(2_000_000, Duration::from_secs(1)) - 2.0 < 1e-9);
    }
}
