//! Bench-side spans, kept in memory and exported as Chrome trace-event
//! JSON (which the Perfetto UI opens directly).
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer: name, start, end, the span that caused it, and the operation it
//! belongs to. A span's self time is its duration minus the part of it
//! that its children cover.

use std::time::Instant;

use modgemm_experiments::json::Value;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Operation (or request) the span belongs to.
    pub op: u64,
    /// Index into the tracer's track names.
    pub track: usize,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    tracks: Vec<String>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new(), tracks: Vec::new() }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The index of the track named `name`, created on first use.
    pub fn track(&mut self, name: &str) -> usize {
        match self.tracks.iter().position(|t| t == name) {
            Some(i) => i,
            None => {
                self.tracks.push(name.to_string());
                self.tracks.len() - 1
            }
        }
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        track: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span { name, start: self.ns(start), end: self.ns(end), parent, op, track };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves span `id`'s end to `end` (a parent closing after a child it
    /// records late).
    pub fn end_at(&mut self, id: usize, end: Instant) {
        self.spans[id].end = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span
    /// and one thread-name record per track.
    pub fn to_chrome(&self) -> Value {
        let mut events: Vec<Value> = self
            .tracks
            .iter()
            .enumerate()
            .map(|(tid, name)| {
                Value::object()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 1usize)
                    .with("tid", tid)
                    .with("args", Value::object().with("name", name.as_str()))
            })
            .collect();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1.0, |p| p as f64);
            events.push(
                Value::object()
                    .with("name", s.name)
                    .with("cat", "e2e")
                    .with("ph", "X")
                    .with("ts", s.start as f64 / 1e3)
                    .with("dur", s.dur() as f64 / 1e3)
                    .with("pid", 1usize)
                    .with("tid", s.track)
                    .with(
                        "args",
                        Value::object().with("span", id).with("parent", parent).with("op", s.op),
                    ),
            );
        }
        Value::object().with("traceEvents", events).with("displayTimeUnit", "ms")
    }
}

/// Length of `[start, end]` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Assigns overlapping intervals on one thread to separate tracks, so that
/// slices on each track nest (the trace viewer requires it): an interval
/// takes the first lane that is free at its start.
pub struct Lanes {
    base: &'static str,
    free_at: Vec<u64>,
}

impl Lanes {
    pub fn new(base: &'static str) -> Self {
        Self { base, free_at: Vec::new() }
    }

    pub fn assign(&mut self, tracer: &mut Tracer, start: Instant, end: Instant) -> usize {
        let (s, e) = (tracer.ns(start), tracer.ns(end));
        let lane = match self.free_at.iter().position(|&f| f <= s) {
            Some(i) => i,
            None => {
                self.free_at.push(0);
                self.free_at.len() - 1
            }
        };
        self.free_at[lane] = e;
        tracer.track(&format!("{} {lane}", self.base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_experiments::json::parse;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, vec![(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(10, 20, vec![(0, 15), (18, 40)]), 7);
        assert_eq!(covered(0, 10, vec![]), 0);
    }

    #[test]
    fn chrome_export_nests_and_self_times_add_up() {
        let mut t = Tracer::new(Instant::now());
        let track = t.track("client");
        for op in 0..3u64 {
            // Children are recorded before their parent closes, as in a
            // real run; the parent is pushed first so it precedes them.
            let t0 = Instant::now();
            let root = t.push("op", op, None, track, t0, t0);
            for name in ["plan", "execute", "verify"] {
                let c0 = Instant::now();
                busy(Duration::from_micros(300));
                t.push(name, op, Some(root), track, c0, Instant::now());
                busy(Duration::from_micros(50));
            }
            t.end_at(root, Instant::now());
        }
        let selfs = t.self_ns();
        let doc = parse(&t.to_chrome().to_json()).expect("the export parses as JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
        let spans: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 12);
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64).expect(k);
        let arg = |e: &Value, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Value::as_f64);
        for (id, e) in spans.iter().enumerate() {
            assert_eq!(arg(e, "span"), Some(id as f64));
            let (ts, dur) = (field(e, "ts"), field(e, "dur"));
            let kids: Vec<&&Value> =
                spans.iter().filter(|c| arg(c, "parent") == Some(id as f64)).collect();
            let mut kid_sum = 0.0;
            for c in &kids {
                let (cts, cdur) = (field(c, "ts"), field(c, "dur"));
                assert!(cts >= ts && cts + cdur <= ts + dur + 1e-6, "child lies inside parent");
                kid_sum += cdur;
            }
            let self_us = selfs[id] as f64 / 1e3;
            assert!(self_us >= 0.0);
            assert!(
                (self_us + kid_sum - dur).abs() <= 0.01 * dur,
                "self {self_us} + children {kid_sum} != duration {dur}"
            );
            if !kids.is_empty() {
                // The 50 µs gaps between children are the parent's own time.
                assert!(self_us >= 150.0, "op self time {self_us} µs");
            }
        }
    }

    #[test]
    fn lanes_keep_overlapping_intervals_apart() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Tracer::new(t0);
        let mut lanes = Lanes::new("requests");
        assert_eq!(lanes.assign(&mut t, at(0), at(10)), 0);
        assert_eq!(lanes.assign(&mut t, at(5), at(8)), 1);
        assert_eq!(lanes.assign(&mut t, at(9), at(12)), 1);
        assert_eq!(lanes.assign(&mut t, at(10), at(11)), 0);
    }
}
