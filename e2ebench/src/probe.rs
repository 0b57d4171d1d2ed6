//! Machine probes: copy bandwidth, packed-kernel peak, the host-speed
//! sentinel, and the process's peak resident memory.
//!
//! These numbers are reference points for the per-layer table (conversion
//! against copy bandwidth, leaf kernel against its own peak); none of them
//! gates a change.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use modgemm_mat::{KernelKind, LeafKernel, MatMut, MatRef};

use crate::stats;

/// Largest array the copy probe allocates. On hosts whose last-level cache
/// reports hundreds of MiB (a virtual machine sees the whole socket's), four
/// times the cache would claim gigabytes of a shared machine; the probe then
/// copies this much and the report states both sizes.
const COPY_ARRAY_CAP: usize = 256 << 20;

/// Size in bytes of the highest-level CPU cache the kernel reports for
/// cpu0, or `None` when sysfs does not describe it.
pub fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_cache_size(size.trim()))
        else {
            continue;
        };
        if best.map_or(true, |(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// The CPU model the kernel reports, or an empty string.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info.lines().find_map(|l| l.strip_prefix("model name")?.split_once(':'));
    model.map_or_else(String::new, |(_, name)| name.trim().to_string())
}

/// Parses sysfs cache sizes such as `32K`, `2048K` or `30M`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(scale)
}

/// Copy bandwidth in GB/s (bytes read plus bytes written per second) over
/// two arrays of `array_bytes` each, best of a few passes.
pub fn copy_gbs(array_bytes: usize) -> f64 {
    let len = array_bytes / 8;
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * (len * 8) as f64 / best / 1e9
}

/// Array size for [`copy_gbs`]: four times the last-level cache, capped.
pub fn copy_array_bytes(llc: Option<usize>) -> usize {
    llc.map_or(COPY_ARRAY_CAP, |l| l.saturating_mul(4)).min(COPY_ARRAY_CAP)
}

/// Peak rate of the packed leaf kernel on a cache-resident 64³ tile,
/// through `LeafKernel::mul_add_in` with a preallocated panel workspace —
/// the rate the leaf layer is set against.
pub fn kernel_peak_gflops(duration: Duration) -> f64 {
    const T: usize = 64;
    let a: Vec<f64> = (0..T * T).map(|i| (i % 7) as f64 * 0.25 - 0.75).collect();
    let b: Vec<f64> = (0..T * T).map(|i| (i % 5) as f64 * 0.5 - 1.0).collect();
    let mut c = vec![0.0f64; T * T];
    let mut ws = vec![0.0f64; KernelKind::Packed.pack_len(T, T, T)];
    let kernel = modgemm_mat::kernel::Packed;
    let mut rates = Vec::new();
    let end = Instant::now() + duration;
    while Instant::now() < end {
        let t = Instant::now();
        for _ in 0..16 {
            let av = MatRef::from_slice(black_box(&a), T, T, T);
            let bv = MatRef::from_slice(black_box(&b), T, T, T);
            kernel.mul_add_in(av, bv, MatMut::from_slice(&mut c, T, T, T), &mut ws);
        }
        black_box(&mut c);
        rates.push(16.0 * 2.0 * (T * T * T) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    rates.iter().copied().fold(0.0, f64::max)
}

/// The host-speed sentinel: a fixed scalar multiply-add chain timed every
/// [`Sentinel::PERIOD`] for about 2% of it, so a run can tell whether the
/// machine itself changed speed under it.
pub struct Sentinel {
    start: Instant,
    last: Instant,
    /// Per sample: seconds since `start`, and GFLOP/s.
    samples: Vec<(f64, f64)>,
}

impl Sentinel {
    pub const PERIOD: Duration = Duration::from_millis(100);
    /// Samples are grouped into bins this many seconds long. A single
    /// 2 ms sample moves by several percent with an interrupt or with what
    /// the other hardware thread of the core runs; a change of host speed
    /// that matters to a run lasts seconds, and moves a bin's median.
    const BIN_SECS: f64 = 1.0;
    /// Samples per [`Self::burst`].
    const BURST: usize = 5;
    /// Multiply-adds per sample (about 2 ms on a 3 GHz core).
    const FMAS: u64 = 1 << 22;

    pub fn new() -> Self {
        let now = Instant::now();
        Self { start: now, last: now, samples: Vec::new() }
    }

    /// True when a sample is due.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= Self::PERIOD
    }

    /// Takes one sample now.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        let (x, y) = black_box((0.999_999_9f64, 1e-9f64));
        for _ in 0..Self::FMAS / 8 {
            for v in acc.iter_mut() {
                *v = *v * x + y;
            }
        }
        black_box(acc);
        let rate = 2.0 * Self::FMAS as f64 / t.elapsed().as_secs_f64() / 1e9;
        self.samples.push(((t - self.start).as_secs_f64(), rate));
        self.last = Instant::now();
    }

    /// Samples one if due.
    pub fn tick(&mut self) {
        if self.due() {
            self.sample();
        }
    }

    /// Takes [`Self::BURST`] samples now, for a loop that cannot sample
    /// every [`Self::PERIOD`] without competing with the calls it times.
    pub fn burst(&mut self) {
        for _ in 0..Self::BURST {
            self.sample();
        }
    }

    /// The samples' median GFLOP/s, and the relative interquartile spread
    /// of the medians of [`Self::BIN_SECS`] bins.
    pub fn summary(&self) -> (f64, f64) {
        let rates: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        let mut bins: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(t, rate) in &self.samples {
            bins.entry((t / Self::BIN_SECS) as u64).or_default().push(rate);
        }
        let medians: Vec<f64> = bins.values().map(|v| stats::median(v)).collect();
        (stats::median(&rates), stats::rel_iqr(&medians))
    }
}

/// Spread of the sentinel above which a run is flagged `disturbed`.
pub const DISTURBED_SPREAD: f64 = 0.05;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("32K"), Some(32 << 10));
        assert_eq!(parse_cache_size("30M"), Some(30 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("xK"), None);
        assert_eq!(copy_array_bytes(Some(8 << 20)), 32 << 20);
        assert_eq!(copy_array_bytes(Some(300 << 20)), COPY_ARRAY_CAP);
    }

    #[test]
    fn sentinel_spread_is_over_bin_medians() {
        let mut s = Sentinel::new();
        // Ten samples a second, alternating 9 and 11: every second's median
        // is 10, so the host did not change speed.
        s.samples = (0..60).map(|i| (i as f64 * 0.1, [9.0, 11.0][i % 2])).collect();
        assert_eq!(s.summary(), (10.0, 0.0));
        // The last three seconds run at 8: that is a change.
        for (t, rate) in s.samples.iter_mut() {
            if *t >= 3.0 {
                *rate = 8.0;
            }
        }
        assert!(s.summary().1 > DISTURBED_SPREAD);
    }
}
