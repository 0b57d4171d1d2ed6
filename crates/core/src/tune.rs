//! The I/O-guided autotuner's persistence and plan-selection layer.
//!
//! The paper picks its truncation points by padding-minimization alone,
//! but the real objective on a concrete machine is *data movement*
//! (Bilardi/De Stefani's I/O-complexity bounds), and the winning
//! (depth, kernel, blocking) combination is machine-dependent
//! (Huang et al.'s BLIS Strassen). This module closes the loop: the
//! `modgemm-tune` binary (crates/bench) sweeps the plan space —
//! truncation range, `strassen_min` (the Strassen-depth knob),
//! [`KernelKind`], thread count — through the bench timing machinery
//! (optionally through the deterministic cache simulator) and persists
//! the winners as a schema-versioned [`TuningProfile`]; plan compilation
//! ([`crate::GemmPlan::try_new`]) then consults the loaded profile before
//! falling back to the static heuristics.
//!
//! ## Profile location
//!
//! [`profile_path`] resolves, in order: the `MODGEMM_PROFILE` environment
//! variable, `$XDG_CACHE_HOME/modgemm/profile.json`, then
//! `$HOME/.cache/modgemm/profile.json`. The profile is loaded **once per
//! process** ([`global_profile`]) so every plan compiled under
//! [`TuningMode::Profile`] sees the same snapshot — this is what keeps
//! the [`crate::service::GemmService`] plan cache's config-keyed entries
//! correct while a profile is active.
//!
//! ## Precedence: config > profile > static heuristic
//!
//! A profile never overrides an explicit configuration choice. A knob
//! left at its default ("auto") value consults the profile; a knob moved
//! off its default wins. Concretely, a [`TunedChoice`] applies to:
//!
//! * `truncation` — only while the config holds the default
//!   `MinPadding(TileRange::PAPER)` policy;
//! * `strassen_min` — only while the config holds the default `0`;
//! * `leaf_kernel` — only for [`KernelKind::Auto`] (delegated selection
//!   is Auto's whole purpose; a pinned concrete kernel wins);
//! * `parallel_depth` / `threads` — only while the config holds the
//!   default `0` (auto);
//! * `fuse_depth` — only while the config holds the default
//!   [`FuseDepth::Auto`]; an explicit `Fixed(n)` wins.
//! * `batch_window` — only while the config holds the default `0`
//!   (auto: the batch executor derives the in-flight window from the
//!   thread count and memory budget); an explicit window wins.
//!
//! With no profile entry in range (or [`TuningMode::Off`]), everything
//! falls through to the static heuristics exactly as before — a profile
//! changes *which* plan is built, never *what* it computes, which the
//! `prop_tuning_equivalence` property suite pins on `i64`.
//!
//! ## Failure semantics
//!
//! A corrupt, truncated, or future-schema-version profile file is a
//! typed [`GemmError::InvalidConfig`], never a panic: `try_*` entry
//! points running under [`TuningMode::Profile`] surface it, and the
//! `modgemm-tune` binary exits nonzero with the reason. A *missing* file
//! at the default location is simply "no profile" (`Ok(None)`); a
//! missing file at an explicit `MODGEMM_PROFILE` path is an error — a
//! deliberately-pointed-at profile that cannot be read should fail
//! loudly.

use std::path::PathBuf;
use std::sync::OnceLock;

use modgemm_mat::KernelKind;
use modgemm_morton::tiling::TileRange;

use crate::config::{FuseDepth, ModgemmConfig, Truncation};
use crate::error::GemmError;
use crate::json::{self, Value};

/// The profile schema version this build emits and understands. Loading
/// a profile with a *newer* version fails typed (forward compatibility
/// is refused, not guessed at), and so does an *older* one: version 2
/// added the `fuse_depth` knob, version 3 the `batch_window` knob, and
/// version 4 the `schedule` knob (the memory tier of the recursion-step
/// linearization) to every entry, and an older profile's recorded
/// winners were measured without those axes, so silently defaulting the
/// missing field would misrepresent the measurement. Re-running
/// `modgemm-tune` regenerates a current-schema profile.
pub const PROFILE_SCHEMA_VERSION: u64 = 4;

/// Environment variable overriding the profile location (takes
/// precedence over the `~/.cache/modgemm/profile.json` default).
pub const MODGEMM_PROFILE_ENV: &str = "MODGEMM_PROFILE";

// ---------------------------------------------------------------------------
// The tuned operating point and how plans consult it
// ---------------------------------------------------------------------------

/// One tuned operating point: the plan-space coordinates `modgemm-tune`
/// found fastest for a recorded problem shape.
///
/// All fields are plain `Copy` data so [`TuningMode::Forced`] keeps
/// [`ModgemmConfig`] `Copy + Eq` — and therefore usable as the service
/// plan-cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TunedChoice {
    /// Lower bound of the truncation tile range
    /// ([`Truncation::MinPadding`]).
    pub tile_min: usize,
    /// Upper bound of the truncation tile range.
    pub tile_max: usize,
    /// Hand over to the conventional Morton recursion once
    /// `min(m, k, n) ≤ strassen_min` — the Strassen-depth knob.
    pub strassen_min: usize,
    /// Leaf kernel to run ([`KernelKind`]; concrete kinds only in
    /// recorded profiles).
    pub kernel: KernelKind,
    /// Parallel DAG depth (`0` = serial).
    pub parallel_depth: usize,
    /// Pool worker count (`0` = resolve from the environment).
    pub threads: usize,
    /// Fused Strassen levels to pin ([`FuseDepth::Fixed`]), at most
    /// [`crate::fuse::MAX_FUSE`]. Applied only while the configuration
    /// leaves [`ModgemmConfig::fuse_depth`] at [`FuseDepth::Auto`].
    pub fuse_depth: usize,
    /// In-flight window for whole-batch execution
    /// ([`ModgemmConfig::batch_window`]; `0` = derive from the thread
    /// count and memory budget). Applied only while the configuration
    /// leaves `batch_window` at its default `0`.
    pub batch_window: usize,
    /// Memory tier of the recursion-step linearization to pin
    /// ([`crate::config::SchedulePolicy::Fixed`]). A tuner can find a
    /// frugal tier fastest when the shrunken working set stays
    /// cache-resident. Applied only while the configuration leaves
    /// [`ModgemmConfig::schedule`] at
    /// [`crate::config::SchedulePolicy::Auto`] and the variant has the
    /// tier (Winograd; standard applies everywhere).
    pub schedule: crate::schedule::Schedule,
}

impl TunedChoice {
    /// The static-heuristic operating point: every knob at the value the
    /// untuned pipeline would pick on its own.
    pub fn baseline() -> Self {
        Self {
            tile_min: TileRange::PAPER.min,
            tile_max: TileRange::PAPER.max,
            strassen_min: 0,
            kernel: KernelKind::Auto,
            parallel_depth: 0,
            threads: 0,
            fuse_depth: 0,
            batch_window: 0,
            schedule: crate::schedule::Schedule::Standard,
        }
    }

    /// Applies this choice to `cfg` under the config > profile > static
    /// precedence (see the module docs), returning the effective
    /// configuration plan compilation should use. `m × k × n` are the
    /// problem dimensions, used to resolve a kernel hint.
    pub fn apply_to(&self, cfg: &ModgemmConfig, m: usize, k: usize, n: usize) -> ModgemmConfig {
        let mut eff = *cfg;
        if cfg.truncation == Truncation::default() && self.tile_min >= 1 {
            eff.truncation = Truncation::MinPadding(TileRange {
                min: self.tile_min,
                max: self.tile_max.max(self.tile_min),
            });
        }
        if cfg.strassen_min == 0 {
            eff.strassen_min = self.strassen_min;
        }
        if cfg.leaf_kernel == KernelKind::Auto {
            eff.leaf_kernel = KernelKind::Auto.resolve_with_hint(Some(self.kernel), m, k, n);
        }
        if cfg.parallel_depth == 0 {
            eff.parallel_depth = self.parallel_depth;
        }
        if cfg.threads == 0 {
            eff.threads = self.threads;
        }
        if cfg.fuse_depth == FuseDepth::Auto {
            eff.fuse_depth = FuseDepth::Fixed(self.fuse_depth.min(crate::fuse::MAX_FUSE));
        }
        if cfg.batch_window == 0 {
            eff.batch_window = self.batch_window;
        }
        if cfg.schedule == crate::config::SchedulePolicy::Auto
            && (self.schedule == crate::schedule::Schedule::Standard
                || cfg.variant == crate::schedule::Variant::Winograd)
        {
            eff.schedule = crate::config::SchedulePolicy::Fixed(self.schedule);
        }
        eff
    }
}

/// How plan compilation consults tuning data — the
/// [`ModgemmConfig::tuning`] knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TuningMode {
    /// Never consult a profile: the static heuristics alone (the paper's
    /// setting, and the default).
    #[default]
    Off,
    /// Consult the process-global profile ([`global_profile`]) with a
    /// nearest-shape lookup; fall back to the static heuristics when no
    /// profile (or no entry) is available. A corrupt or future-schema
    /// profile file surfaces as [`GemmError::InvalidConfig`].
    Profile,
    /// Apply this exact operating point (still under the config >
    /// profile precedence), bypassing any profile file. The
    /// deterministic mode tests and benchmarks use.
    Forced(TunedChoice),
}

/// Resolves the effective configuration `cfg` implies for an
/// `m × k × n` problem: applies the forced choice or the profile's
/// nearest-shape entry per [`ModgemmConfig::tuning`], and reports
/// whether a tuned choice actually drove selection (the
/// `ExecMetrics::profile_hits` signal).
pub(crate) fn effective_config(
    cfg: &ModgemmConfig,
    m: usize,
    k: usize,
    n: usize,
) -> Result<(ModgemmConfig, bool), GemmError> {
    let choice = match cfg.tuning {
        TuningMode::Off => None,
        TuningMode::Forced(c) => Some(c),
        TuningMode::Profile => global_profile()?.and_then(|p| p.lookup(m, k, n)),
    };
    match choice {
        Some(c) => {
            let eff = c.apply_to(cfg, m, k, n);
            eff.validate().map_err(|_| GemmError::InvalidConfig {
                reason: "tuning choice produces a self-contradictory configuration",
            })?;
            Ok((eff, true))
        }
        None => Ok((*cfg, false)),
    }
}

// ---------------------------------------------------------------------------
// The persisted profile
// ---------------------------------------------------------------------------

/// One recorded shape → choice pair of a [`TuningProfile`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileEntry {
    /// Problem dimensions the choice was measured at.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// The winning operating point.
    pub choice: TunedChoice,
    /// The measured objective value (effective GFLOP/s for the timing
    /// objective; negated simulated misses for `--cachesim`, so larger
    /// is always better). Informational.
    pub score: f64,
}

impl ProfileEntry {
    /// Geometric-mean dimension — the 1-D coordinate the nearest-shape
    /// lookup orders entries by.
    fn gdim(&self) -> f64 {
        gdim(self.m, self.k, self.n)
    }
}

fn gdim(m: usize, k: usize, n: usize) -> f64 {
    ((m as f64) * (k as f64) * (n as f64)).cbrt()
}

/// A per-machine tuning profile: the schema-versioned, JSON-persisted
/// artifact `modgemm-tune` records and plan compilation consults.
#[derive(Clone, Debug, PartialEq)]
pub struct TuningProfile {
    /// Schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Unix timestamp of the recording run.
    pub created_unix: u64,
    /// `std::env::consts::OS` of the recording host.
    pub os: String,
    /// `std::env::consts::ARCH` of the recording host.
    pub arch: String,
    /// CPU count of the recording host.
    pub num_cpus: usize,
    /// The sweep objective (`"min-time"` or `"cachesim-misses"`).
    pub objective: String,
    /// Recorded operating points, any order (lookup sorts internally).
    pub entries: Vec<ProfileEntry>,
}

impl TuningProfile {
    /// An empty profile stamped for the current host.
    pub fn new_for_host(objective: &str) -> Self {
        Self {
            schema_version: PROFILE_SCHEMA_VERSION,
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            num_cpus: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            objective: objective.to_string(),
            entries: Vec::new(),
        }
    }

    /// Nearest-shape lookup with interpolation between recorded sizes.
    ///
    /// Entries are ordered by geometric-mean dimension `∛(m·k·n)`. A
    /// query outside the recorded range clamps to the nearest endpoint;
    /// a query between two recorded sizes takes the discrete knobs
    /// (kernel, parallel depth, threads) from the *nearer* entry and
    /// linearly interpolates the numeric knobs (tile bounds,
    /// `strassen_min`), rounding to integers — so a 384-point between
    /// recorded 256 and 513 entries lands on a blend rather than a
    /// cliff. Returns `None` for an empty profile.
    pub fn lookup(&self, m: usize, k: usize, n: usize) -> Option<TunedChoice> {
        if self.entries.is_empty() {
            return None;
        }
        let g = gdim(m, k, n);
        let mut sorted: Vec<&ProfileEntry> = self.entries.iter().collect();
        sorted.sort_by(|a, b| a.gdim().total_cmp(&b.gdim()));
        let lo = sorted.iter().rev().find(|e| e.gdim() <= g);
        let hi = sorted.iter().find(|e| e.gdim() >= g);
        match (lo, hi) {
            (Some(lo), Some(hi)) if (lo.gdim() - hi.gdim()).abs() > f64::EPSILON => {
                let t = (g - lo.gdim()) / (hi.gdim() - lo.gdim());
                let near = if t <= 0.5 { lo } else { hi };
                let lerp = |a: usize, b: usize| -> usize {
                    ((a as f64) + t * (b as f64 - a as f64)).round() as usize
                };
                let tile_min = lerp(lo.choice.tile_min, hi.choice.tile_min).max(1);
                let tile_max = lerp(lo.choice.tile_max, hi.choice.tile_max).max(tile_min);
                Some(TunedChoice {
                    tile_min,
                    tile_max,
                    strassen_min: lerp(lo.choice.strassen_min, hi.choice.strassen_min),
                    kernel: near.choice.kernel,
                    parallel_depth: near.choice.parallel_depth,
                    threads: near.choice.threads,
                    fuse_depth: near.choice.fuse_depth,
                    batch_window: near.choice.batch_window,
                    schedule: near.choice.schedule,
                })
            }
            (Some(e), _) | (_, Some(e)) => Some(e.choice),
            (None, None) => unreachable!("non-empty sorted list has an endpoint"),
        }
    }

    /// Serializes the profile as pretty-printed JSON (stable key order,
    /// so committed profiles diff cleanly).
    pub fn to_json(&self) -> String {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|e| {
                Value::object()
                    .with("m", e.m)
                    .with("k", e.k)
                    .with("n", e.n)
                    .with("tile_min", e.choice.tile_min)
                    .with("tile_max", e.choice.tile_max)
                    .with("strassen_min", e.choice.strassen_min)
                    .with("kernel", e.choice.kernel.to_string())
                    .with("parallel_depth", e.choice.parallel_depth)
                    .with("threads", e.choice.threads)
                    .with("fuse_depth", e.choice.fuse_depth)
                    .with("batch_window", e.choice.batch_window)
                    .with("schedule", e.choice.schedule.name())
                    .with("score", e.score)
            })
            .collect();
        Value::object()
            .with("schema_version", self.schema_version)
            .with("created_unix", self.created_unix)
            .with(
                "machine",
                Value::object()
                    .with("os", self.os.as_str())
                    .with("arch", self.arch.as_str())
                    .with("num_cpus", self.num_cpus),
            )
            .with("objective", self.objective.as_str())
            .with("entries", entries)
            .to_json_pretty()
    }

    /// Parses a profile from JSON text. Corrupt or truncated input, a
    /// missing or non-numeric `schema_version`, a *future* schema
    /// version, and malformed entries all come back as typed
    /// [`GemmError::InvalidConfig`] — never a panic.
    pub fn from_json_str(text: &str) -> Result<Self, GemmError> {
        const BAD_JSON: GemmError =
            GemmError::InvalidConfig { reason: "tuning profile is not valid JSON" };
        let root = json::parse(text).map_err(|_| BAD_JSON)?;
        if !matches!(root, Value::Obj(_)) {
            return Err(BAD_JSON);
        }
        let version =
            root.get("schema_version").and_then(Value::as_f64).ok_or(GemmError::InvalidConfig {
                reason: "tuning profile lacks a numeric schema_version",
            })? as u64;
        if version > PROFILE_SCHEMA_VERSION {
            return Err(GemmError::InvalidConfig {
                reason: "tuning profile schema version is newer than this library understands",
            });
        }
        if version < PROFILE_SCHEMA_VERSION {
            return Err(GemmError::InvalidConfig {
                reason: "tuning profile schema version is outdated; re-run modgemm-tune to record \
                         a current profile",
            });
        }
        const BAD_ENTRY: GemmError =
            GemmError::InvalidConfig { reason: "tuning profile entry is malformed" };
        let machine = root.get("machine");
        let mstr = |key: &str| -> String {
            machine.and_then(|m| m.get(key)).and_then(Value::as_str).unwrap_or_default().to_string()
        };
        let mut entries = Vec::new();
        for e in root.get("entries").and_then(Value::as_array).ok_or(BAD_JSON)? {
            if !matches!(e, Value::Obj(_)) {
                return Err(BAD_ENTRY);
            }
            let u = |key: &str| -> Result<usize, GemmError> {
                e.get(key).and_then(Value::as_f64).and_then(count).ok_or(BAD_ENTRY)
            };
            let kernel: KernelKind =
                e.get("kernel").and_then(Value::as_str).and_then(|s| s.parse().ok()).ok_or(
                    GemmError::InvalidConfig {
                        reason: "tuning profile entry names an unknown kernel",
                    },
                )?;
            let entry = ProfileEntry {
                m: u("m")?,
                k: u("k")?,
                n: u("n")?,
                choice: TunedChoice {
                    tile_min: u("tile_min")?,
                    tile_max: u("tile_max")?,
                    strassen_min: u("strassen_min")?,
                    kernel,
                    parallel_depth: u("parallel_depth")?,
                    threads: u("threads")?,
                    fuse_depth: u("fuse_depth")?,
                    batch_window: u("batch_window")?,
                    schedule: e
                        .get("schedule")
                        .and_then(Value::as_str)
                        .and_then(|s| s.parse().ok())
                        .ok_or(GemmError::InvalidConfig {
                            reason: "tuning profile entry names an unknown schedule tier",
                        })?,
                },
                score: e.get("score").and_then(Value::as_f64).unwrap_or(0.0),
            };
            if !entry.score.is_finite() {
                return Err(BAD_ENTRY);
            }
            if entry.m == 0 || entry.k == 0 || entry.n == 0 {
                return Err(GemmError::InvalidConfig {
                    reason: "tuning profile entry has a zero problem dimension",
                });
            }
            if entry.choice.tile_min == 0 || entry.choice.tile_min > entry.choice.tile_max {
                return Err(GemmError::InvalidConfig {
                    reason: "tuning profile entry has an invalid tile range",
                });
            }
            if entry.choice.fuse_depth > crate::fuse::MAX_FUSE {
                return Err(GemmError::InvalidConfig {
                    reason: "tuning profile entry records an unsupported fuse depth",
                });
            }
            entries.push(entry);
        }
        Ok(Self {
            schema_version: version,
            created_unix: root.get("created_unix").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            os: mstr("os"),
            arch: mstr("arch"),
            num_cpus: machine
                .and_then(|m| m.get("num_cpus"))
                .and_then(Value::as_f64)
                .map(|x| x as usize)
                .unwrap_or(0),
            objective: root
                .get("objective")
                .and_then(Value::as_str)
                .unwrap_or("min-time")
                .to_string(),
            entries,
        })
    }

    /// Loads a profile from `path`. An unreadable file and unparsable
    /// contents are both typed [`GemmError::InvalidConfig`].
    pub fn load_from_path(path: &std::path::Path) -> Result<Self, GemmError> {
        let text = std::fs::read_to_string(path).map_err(|_| GemmError::InvalidConfig {
            reason: "tuning profile file is missing or unreadable",
        })?;
        Self::from_json_str(&text)
    }

    /// Writes the profile (pretty JSON) to `path`, creating parent
    /// directories as needed.
    pub fn save_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// The default profile recorded in `results/profile_default.json` and
/// compiled into the library — a last-resort embeddable profile for
/// hosts that have never run `modgemm-tune`. It is **not** loaded
/// automatically (tuned behaviour stays opt-in via
/// [`TuningMode::Profile`] plus an on-disk profile); callers that want
/// it can install it at [`profile_path`] themselves.
pub fn embedded_default() -> Result<TuningProfile, GemmError> {
    TuningProfile::from_json_str(include_str!("../../../results/profile_default.json"))
}

// ---------------------------------------------------------------------------
// Location and the process-global snapshot
// ---------------------------------------------------------------------------

/// Resolves the profile location: `MODGEMM_PROFILE` if set, else
/// `$XDG_CACHE_HOME/modgemm/profile.json`, else
/// `$HOME/.cache/modgemm/profile.json`, else `modgemm-profile.json` in
/// the working directory (last-resort for HOME-less environments).
pub fn profile_path() -> PathBuf {
    if let Some(p) = std::env::var_os(MODGEMM_PROFILE_ENV) {
        return PathBuf::from(p);
    }
    if let Some(cache) = std::env::var_os("XDG_CACHE_HOME").filter(|v| !v.is_empty()) {
        return PathBuf::from(cache).join("modgemm").join("profile.json");
    }
    if let Some(home) = std::env::var_os("HOME").filter(|v| !v.is_empty()) {
        return PathBuf::from(home).join(".cache").join("modgemm").join("profile.json");
    }
    PathBuf::from("modgemm-profile.json")
}

/// Loads the profile from [`profile_path`]. A missing file at the
/// *default* location is `Ok(None)` (no profile recorded yet); a missing
/// file at an explicit `MODGEMM_PROFILE` path, or unparsable contents
/// anywhere, is a typed [`GemmError::InvalidConfig`].
pub fn load_default() -> Result<Option<TuningProfile>, GemmError> {
    let explicit = std::env::var_os(MODGEMM_PROFILE_ENV).is_some();
    let path = profile_path();
    if !path.exists() {
        if explicit {
            return Err(GemmError::InvalidConfig {
                reason: "MODGEMM_PROFILE points at a missing profile file",
            });
        }
        return Ok(None);
    }
    TuningProfile::load_from_path(&path).map(Some)
}

static GLOBAL_PROFILE: OnceLock<Result<Option<TuningProfile>, GemmError>> = OnceLock::new();

/// The process-global profile snapshot [`TuningMode::Profile`] consults:
/// loaded from [`profile_path`] exactly once per process, so every plan
/// (and every service plan-cache entry) compiled in this process sees
/// the same tuning data. Load failures are sticky and re-surface on
/// every call — a corrupt profile cannot half-apply.
pub fn global_profile() -> Result<Option<&'static TuningProfile>, GemmError> {
    match GLOBAL_PROFILE.get_or_init(load_default) {
        Ok(opt) => Ok(opt.as_ref()),
        Err(e) => Err(e.clone()),
    }
}

/// A profile entry's JSON number as a `usize`: finite, non-negative,
/// integral, and at most 2^53 (past which `f64` skips integers).
fn count(x: f64) -> Option<usize> {
    if x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
        usize::try_from(x as u64).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> TuningProfile {
        TuningProfile {
            schema_version: PROFILE_SCHEMA_VERSION,
            created_unix: 1_754_600_000,
            os: "linux".into(),
            arch: "x86_64".into(),
            num_cpus: 4,
            objective: "min-time".into(),
            entries: vec![
                ProfileEntry {
                    m: 256,
                    k: 256,
                    n: 256,
                    choice: TunedChoice {
                        tile_min: 16,
                        tile_max: 64,
                        strassen_min: 0,
                        kernel: KernelKind::Packed,
                        parallel_depth: 0,
                        threads: 1,
                        fuse_depth: 1,
                        batch_window: 0,
                        schedule: crate::schedule::Schedule::Standard,
                    },
                    score: 3.5,
                },
                ProfileEntry {
                    m: 513,
                    k: 513,
                    n: 513,
                    choice: TunedChoice {
                        tile_min: 32,
                        tile_max: 64,
                        strassen_min: 64,
                        kernel: KernelKind::Blocked,
                        parallel_depth: 2,
                        threads: 4,
                        fuse_depth: 0,
                        batch_window: 4,
                        schedule: crate::schedule::Schedule::InPlace,
                    },
                    score: 2.9,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let p = sample_profile();
        let text = p.to_json();
        let back = TuningProfile::from_json_str(&text).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn corrupt_and_truncated_profiles_fail_typed() {
        // The satellite fix: garbage must come back as InvalidConfig,
        // never a panic. The cases cover binary garbage, truncation at
        // several depths, wrong top-level types, and trailing garbage.
        let full = sample_profile().to_json();
        let mut bad: Vec<String> = vec![
            String::new(),
            "not json at all".into(),
            "\u{0}\u{1}\u{2}binary".into(),
            "{".into(),
            "{\"schema_version\":".into(),
            "[1, 2, 3]".into(),
            "42".into(),
            "{\"schema_version\": \"one\", \"entries\": []}".into(),
            "{\"entries\": []}".into(),
            format!("{full}trailing"),
            "{\"schema_version\": 4, \"entries\": [{\"m\": 0}]}".into(),
            "{\"schema_version\": 4, \"entries\": [7]}".into(),
            // Entry with an inverted tile range.
            "{\"schema_version\": 4, \"entries\": [{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":64,\
             \"tile_max\":16,\"strassen_min\":0,\"kernel\":\"blocked\",\"parallel_depth\":0,\
             \"threads\":0,\"fuse_depth\":0,\"batch_window\":0,\"schedule\":\"standard\",\
             \"score\":1.0}]}"
                .into(),
            // Unknown kernel name.
            "{\"schema_version\": 4, \"entries\": [{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":16,\
             \"tile_max\":64,\"strassen_min\":0,\"kernel\":\"turbo\",\"parallel_depth\":0,\
             \"threads\":0,\"fuse_depth\":0,\"batch_window\":0,\"schedule\":\"standard\",\
             \"score\":1.0}]}"
                .into(),
            // Entry missing the v2 fuse_depth field.
            "{\"schema_version\": 4, \"entries\": [{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":16,\
             \"tile_max\":64,\"strassen_min\":0,\"kernel\":\"blocked\",\"parallel_depth\":0,\
             \"threads\":0,\"batch_window\":0,\"schedule\":\"standard\",\"score\":1.0}]}"
                .into(),
            // Entry missing the v3 batch_window field.
            "{\"schema_version\": 4, \"entries\": [{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":16,\
             \"tile_max\":64,\"strassen_min\":0,\"kernel\":\"blocked\",\"parallel_depth\":0,\
             \"threads\":0,\"fuse_depth\":0,\"schedule\":\"standard\",\"score\":1.0}]}"
                .into(),
            // Entry missing the v4 schedule field.
            "{\"schema_version\": 4, \"entries\": [{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":16,\
             \"tile_max\":64,\"strassen_min\":0,\"kernel\":\"blocked\",\"parallel_depth\":0,\
             \"threads\":0,\"fuse_depth\":0,\"batch_window\":0,\"score\":1.0}]}"
                .into(),
            // Entry naming an unknown schedule tier.
            "{\"schema_version\": 4, \"entries\": [{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":16,\
             \"tile_max\":64,\"strassen_min\":0,\"kernel\":\"blocked\",\"parallel_depth\":0,\
             \"threads\":0,\"fuse_depth\":0,\"batch_window\":0,\"schedule\":\"psychic\",\
             \"score\":1.0}]}"
                .into(),
            // Entry recording a fuse depth beyond MAX_FUSE.
            "{\"schema_version\": 4, \"entries\": [{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":16,\
             \"tile_max\":64,\"strassen_min\":0,\"kernel\":\"blocked\",\"parallel_depth\":0,\
             \"threads\":0,\"fuse_depth\":2,\"batch_window\":0,\"schedule\":\"standard\",\
             \"score\":1.0}]}"
                .into(),
            // Nesting far past the parser's depth cap.
            format!("{{\"schema_version\": 4, \"entries\": {}", "[".repeat(200_000)),
        ];
        // Entry numbers out of range for their usize fields (fractional,
        // negative, past 2^53) and a non-finite score.
        let entry = "{\"m\":8,\"k\":8,\"n\":8,\"tile_min\":16,\"tile_max\":64,\
                     \"strassen_min\":0,\"kernel\":\"blocked\",\"parallel_depth\":0,\
                     \"threads\":0,\"fuse_depth\":0,\"batch_window\":0,\"schedule\":\"standard\",\
                     \"score\":1.0}";
        for (field, value) in [
            ("\"m\":8", "\"m\":64.9"),
            ("\"m\":8", "\"m\":9007199254740994"),
            ("\"strassen_min\":0", "\"strassen_min\":-5"),
            ("\"fuse_depth\":0", "\"fuse_depth\":-1"),
            ("\"tile_max\":64", "\"tile_max\":1e30"),
            ("\"threads\":0", "\"threads\":1e30"),
            ("\"parallel_depth\":0", "\"parallel_depth\":1e30"),
            ("\"strassen_min\":0", "\"strassen_min\":1e30"),
            ("\"score\":1.0", "\"score\":1e999"),
        ] {
            let edited = entry.replacen(field, value, 1);
            assert_ne!(edited, entry, "{field} must occur in the template entry");
            bad.push(format!("{{\"schema_version\": 4, \"entries\": [{edited}]}}"));
        }
        // The unedited template entry loads.
        let good = format!("{{\"schema_version\": 4, \"entries\": [{entry}]}}");
        assert!(TuningProfile::from_json_str(&good).is_ok());
        // Truncate the valid serialization at many byte offsets: every
        // prefix must fail typed (or parse, only for the degenerate
        // full-length case, which the loop excludes).
        for cut in (1..full.len() - 1).step_by(17) {
            if full.is_char_boundary(cut) {
                bad.push(full[..cut].to_string());
            }
        }
        for text in bad {
            match TuningProfile::from_json_str(&text) {
                Err(GemmError::InvalidConfig { .. }) => {}
                other => panic!("{text:?} must fail with InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn future_schema_version_fails_typed() {
        let text = "{\"schema_version\": 99, \"entries\": []}";
        match TuningProfile::from_json_str(text) {
            Err(GemmError::InvalidConfig { reason }) => {
                assert!(reason.contains("newer"), "{reason}");
            }
            other => panic!("future schema must be refused, got {other:?}"),
        }
        assert!(matches!(
            TuningProfile::from_json_str("{\"schema_version\": 0, \"entries\": []}"),
            Err(GemmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn outdated_schema_version_fails_typed() {
        // Version 1 predates the fuse_depth knob, version 2 the
        // batch_window knob, and version 3 the schedule knob: their
        // recorded winners were measured without those axes, so all are
        // refused typed rather than silently defaulted.
        for text in [
            "{\"schema_version\": 1, \"entries\": []}",
            "{\"schema_version\": 2, \"entries\": []}",
            "{\"schema_version\": 3, \"entries\": []}",
        ] {
            match TuningProfile::from_json_str(text) {
                Err(GemmError::InvalidConfig { reason }) => {
                    assert!(reason.contains("outdated"), "{reason}");
                }
                other => panic!("outdated schema must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn lookup_clamps_and_interpolates() {
        let p = sample_profile();
        // Exact hits return the recorded choice.
        assert_eq!(p.lookup(256, 256, 256).unwrap().kernel, KernelKind::Packed);
        assert_eq!(p.lookup(513, 513, 513).unwrap().strassen_min, 64);
        // Below/above the recorded range clamps to the endpoints.
        assert_eq!(p.lookup(32, 32, 32).unwrap(), p.entries[0].choice);
        assert_eq!(p.lookup(4096, 4096, 4096).unwrap(), p.entries[1].choice);
        // Between entries: numeric knobs interpolate, discrete knobs come
        // from the nearer entry. 384 sits ~at midpoint-low of [256, 513].
        let mid = p.lookup(384, 384, 384).unwrap();
        assert!(mid.strassen_min > 0 && mid.strassen_min < 64, "{mid:?}");
        assert!(mid.tile_min >= 16 && mid.tile_min <= 32);
        assert!(mid.tile_max >= mid.tile_min);
        // Non-square shapes use the geometric mean.
        assert!(p.lookup(513, 256, 513).is_some());
        // Empty profiles have nothing to say.
        let empty = TuningProfile { entries: Vec::new(), ..sample_profile() };
        assert_eq!(empty.lookup(256, 256, 256), None);
    }

    #[test]
    fn apply_respects_config_over_profile_precedence() {
        let choice = TunedChoice {
            tile_min: 8,
            tile_max: 32,
            strassen_min: 48,
            kernel: KernelKind::Packed,
            parallel_depth: 2,
            threads: 4,
            fuse_depth: 1,
            batch_window: 6,
            schedule: crate::schedule::Schedule::LowMem,
        };
        // Default config: every knob consults the choice, the kernel
        // included (the default kernel is Auto, which delegates).
        let d = ModgemmConfig::default();
        let eff = choice.apply_to(&d, 256, 256, 256);
        assert_eq!(eff.truncation, Truncation::MinPadding(TileRange { min: 8, max: 32 }));
        assert_eq!(eff.strassen_min, 48);
        assert_eq!(eff.parallel_depth, 2);
        assert_eq!(eff.threads, 4);
        assert_eq!(eff.leaf_kernel, KernelKind::Packed, "the Auto default takes the hint");
        assert_eq!(eff.fuse_depth, FuseDepth::Fixed(1), "Auto fuse_depth consults the profile");
        assert_eq!(eff.batch_window, 6, "auto batch_window consults the profile");
        assert_eq!(
            eff.schedule,
            crate::config::SchedulePolicy::Fixed(crate::schedule::Schedule::LowMem),
            "Auto schedule consults the profile"
        );
        // A recorded frugal tier never reaches the Strassen variant
        // (which has only the standard linearization).
        let strassen =
            ModgemmConfig { variant: crate::schedule::Variant::Strassen, ..Default::default() };
        let eff = choice.apply_to(&strassen, 256, 256, 256);
        assert_eq!(eff.schedule, crate::config::SchedulePolicy::Auto);
        assert!(eff.validate().is_ok(), "profile application must never create an invalid config");

        // An explicitly pinned Blocked kernel (the paper's) wins.
        let paper = ModgemmConfig::paper();
        assert_eq!(choice.apply_to(&paper, 256, 256, 256).leaf_kernel, KernelKind::Blocked);

        // Explicitly pinned knobs win over the profile.
        let pinned = ModgemmConfig {
            truncation: Truncation::Fixed(16),
            strassen_min: 7,
            parallel_depth: 1,
            threads: 2,
            leaf_kernel: KernelKind::Micro,
            fuse_depth: FuseDepth::Fixed(0),
            batch_window: 3,
            ..Default::default()
        };
        let eff = choice.apply_to(&pinned, 256, 256, 256);
        assert_eq!(eff.truncation, Truncation::Fixed(16));
        assert_eq!(eff.strassen_min, 7);
        assert_eq!(eff.parallel_depth, 1);
        assert_eq!(eff.threads, 2);
        assert_eq!(eff.leaf_kernel, KernelKind::Micro);
        assert_eq!(eff.fuse_depth, FuseDepth::Fixed(0), "explicit fuse_depth wins");
        assert_eq!(eff.batch_window, 3, "explicit batch_window wins");
        let pinned_sched = ModgemmConfig {
            schedule: crate::config::SchedulePolicy::Fixed(crate::schedule::Schedule::InPlace),
            ..Default::default()
        };
        assert_eq!(
            choice.apply_to(&pinned_sched, 256, 256, 256).schedule,
            crate::config::SchedulePolicy::Fixed(crate::schedule::Schedule::InPlace),
            "explicit schedule wins"
        );
    }

    #[test]
    fn effective_config_reports_hits() {
        let off = ModgemmConfig::default();
        let (eff, hit) = effective_config(&off, 100, 100, 100).unwrap();
        assert_eq!(eff, off);
        assert!(!hit, "TuningMode::Off never reports a hit");

        let forced = ModgemmConfig {
            tuning: TuningMode::Forced(TunedChoice { strassen_min: 32, ..TunedChoice::baseline() }),
            ..Default::default()
        };
        let (eff, hit) = effective_config(&forced, 100, 100, 100).unwrap();
        assert!(hit);
        assert_eq!(eff.strassen_min, 32);
    }

    #[test]
    fn forced_garbage_choice_is_typed_not_a_panic() {
        let bad = ModgemmConfig {
            tuning: TuningMode::Forced(TunedChoice {
                tile_min: 0,
                tile_max: 0,
                ..TunedChoice::baseline()
            }),
            ..Default::default()
        };
        // tile_min 0 is ignored by apply (guarded), so this stays valid…
        assert!(effective_config(&bad, 64, 64, 64).is_ok());
        // …but an inverted forced range is rejected by config validation
        // itself, as a typed error rather than a downstream panic.
        let inverted = ModgemmConfig {
            tuning: TuningMode::Forced(TunedChoice {
                tile_min: 64,
                tile_max: 16,
                ..TunedChoice::baseline()
            }),
            ..Default::default()
        };
        assert!(matches!(inverted.validate(), Err(GemmError::InvalidConfig { .. })));
    }

    #[test]
    fn save_and_load_roundtrip_via_fs() {
        let dir = std::env::temp_dir().join(format!("modgemm-tune-test-{}", std::process::id()));
        let path = dir.join("nested").join("profile.json");
        let p = sample_profile();
        p.save_to_path(&path).unwrap();
        let back = TuningProfile::load_from_path(&path).unwrap();
        assert_eq!(p, back);
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            TuningProfile::load_from_path(&path),
            Err(GemmError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn embedded_default_parses() {
        let p = embedded_default().expect("committed results/profile_default.json must parse");
        assert_eq!(p.schema_version, PROFILE_SCHEMA_VERSION);
        assert!(!p.entries.is_empty(), "the committed default profile records entries");
    }
}
