//! Summary statistics and the change-versus-parent verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads printed here are the ones a
//! script computing them from the same runs would get.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// True when `x` is strictly better than `y`.
    pub fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Higher => x > y,
            Better::Lower => x < y,
        }
    }

    /// How much worse `x` is than `base`, as a share of `base` (negative
    /// when `x` is better).
    pub fn worsening(self, x: f64, base: f64) -> f64 {
        let d = match self {
            Better::Higher => base - x,
            Better::Lower => x - base,
        };
        d / base.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `NaN` when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` exactly as `statistics.quantiles(values, n=4)`
/// computes the cut points; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The tail latency the benchmark reports: the highest of p99, p95, p90
/// (then p75, p50) that has at least [`TAIL_MIN_BEYOND`] samples above it,
/// so the number always rests on ten or more observations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

pub const TAIL_MIN_BEYOND: usize = 10;

/// The smallest rank covering `pct`% of `n` samples (1-based).
fn rank(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// The `pct`th percentile by nearest rank; `NaN` when `values` is empty.
pub fn nearest_rank(values: &[f64], pct: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        f64::NAN
    } else {
        v[rank(pct, v.len()) - 1]
    }
}

/// See [`Tail`]; with too few samples for even the median to qualify, the
/// maximum is reported with `beyond = 0`.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail { pct: 100.0, value: f64::NAN, beyond: 0 };
    }
    for pct in [99, 95, 90, 75, 50] {
        let r = rank(pct, n);
        if n - r >= TAIL_MIN_BEYOND {
            return Tail { pct: pct as f64, value: v[r - 1], beyond: n - r };
        }
    }
    Tail { pct: 100.0, value: v[n - 1], beyond: 0 }
}

/// The [`median`] of the list in which each `(value, count)` pair stands
/// for `count` copies of `value`, without building that list; `NaN` when
/// the counts sum to 0.
pub fn weighted_median(pairs: &[(f64, u64)]) -> f64 {
    let mut v = pairs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n: u64 = v.iter().map(|p| p.1).sum();
    // The value at 1-based rank `r` of the spelled-out list.
    let at = |r: u64| {
        let mut seen = 0;
        v.iter().find(|p| {
            seen += p.1;
            seen >= r
        })
    };
    match (at(n.div_ceil(2)), at(n / 2 + 1)) {
        (Some(lo), Some(hi)) => (lo.0 + hi.0) / 2.0,
        _ => f64::NAN,
    }
}

/// How a change compares with its parent on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest alternating pairs on which a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

/// Classifies a change against its parent from runs made in alternating
/// pairs (`parent[i]` beside `change[i]`):
///
/// * improved — there are at least [`MIN_PAIRS`] pairs, the change wins at
///   least nine tenths of them (ties count for neither) and the medians
///   differ by more than the parent's interquartile distance;
/// * regressed — the change's median is worse than the parent's by more
///   than `bound` (a share of the parent's median);
/// * unresolved — neither, but either side's relative spread exceeds
///   `bound`, and the change does not read better on every run than the
///   parent on every run; also a change that would read improved on fewer
///   than [`MIN_PAIRS`] pairs;
/// * unchanged — otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better.beats(c, p)).count();
    let (p1, pm, p3) = quartiles(parent);
    let cm = median(change);
    if pairs > 0 && wins * 10 >= pairs * 9 && better.beats(cm, pm) && (cm - pm).abs() > p3 - p1 {
        return if pairs >= MIN_PAIRS { Verdict::Improved } else { Verdict::Unresolved };
    }
    if better.worsening(cm, pm) > bound {
        return Verdict::Regressed;
    }
    let noisy = rel_iqr(parent) > bound || rel_iqr(change) > bound;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    if noisy && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((rel_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Tail { pct: 99.0, value: 990.0, beyond: 10 });
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 leaves only 9 beyond; p95 leaves 49.
        assert_eq!(tail(&v), Tail { pct: 95.0, value: 950.0, beyond: 49 });
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Tail { pct: 90.0, value: 90.0, beyond: 10 });
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail(&v), Tail { pct: 75.0, value: 45.0, beyond: 15 });
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v), Tail { pct: 100.0, value: 5.0, beyond: 0 });
        assert_eq!(nearest_rank(&v, 50), 3.0);
        assert_eq!(nearest_rank(&v, 99), 5.0);
    }

    #[test]
    fn weighted_median_is_the_median_of_the_spelled_out_list() {
        // Per-op rates of three calls made 3, 1 and 2 times: 10 10 10 20
        // 1000 1000. The two fast ops do not drag the median the way they
        // drag a pooled rate.
        let rates = [(10.0, 3), (1000.0, 2), (20.0, 1)];
        assert_eq!(weighted_median(&rates), 15.0);
        assert_eq!(weighted_median(&[(10.0, 3), (1000.0, 2)]), 10.0);
        let pairs = [(5.0, 2), (1.0, 1), (3.0, 4), (2.0, 0), (4.0, 3)];
        let spelled: Vec<f64> =
            pairs.iter().flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize)).collect();
        assert_eq!(weighted_median(&pairs), median(&spelled));
        assert!(weighted_median(&[]).is_nan());
        assert!(weighted_median(&[(1.0, 0)]).is_nan());
    }

    #[test]
    fn verdict_follows_the_pairwise_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.10).collect();
        assert_eq!(verdict(&parent, &faster, Better::Higher, 0.05), Verdict::Improved);
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.90).collect();
        assert_eq!(verdict(&parent, &slower, Better::Higher, 0.05), Verdict::Regressed);
        // The same numbers read as latencies: lower wins.
        assert_eq!(verdict(&parent, &slower, Better::Lower, 0.05), Verdict::Improved);
        assert_eq!(verdict(&parent, &parent, Better::Higher, 0.05), Verdict::Unchanged);
        // Within the bound but wider than it: unresolved.
        let noisy = [80.0, 120.0, 85.0, 115.0, 90.0, 110.0, 95.0, 105.0, 100.0, 100.0];
        assert_eq!(verdict(&parent, &noisy, Better::Higher, 0.05), Verdict::Unresolved);
        // Eight wins in ten are not enough for "improved".
        let mut mostly = faster.clone();
        mostly[0] = 90.0;
        mostly[1] = 90.0;
        assert_eq!(verdict(&parent, &mostly, Better::Higher, 0.2), Verdict::Unchanged);
        // Nine pairs, or a single one, are too few to claim a gain.
        assert_eq!(verdict(&parent[..9], &faster[..9], Better::Higher, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&parent[..1], &faster[..1], Better::Higher, 0.05), Verdict::Unresolved);
        // Too few pairs still show a regression.
        assert_eq!(verdict(&parent[..1], &slower[..1], Better::Higher, 0.05), Verdict::Regressed);
    }
}
