//! Configuration of the MODGEMM algorithm.

use modgemm_morton::tiling::{choose_joint_tiling, fixed_tile_tiling, JointTiling, TileRange};

use crate::error::GemmError;

/// How the recursion truncation point (leaf tile size) is chosen — the
/// central knob of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truncation {
    /// Dynamic selection from a range to minimize padding (§3.4, the
    /// paper's contribution). Fails over to submatrix splitting for
    /// highly rectangular operands.
    MinPadding(TileRange),
    /// A fixed tile size with whatever static padding it implies — the
    /// strategy the paper's Figure 2 argues against; kept for ablation.
    Fixed(usize),
}

impl Default for Truncation {
    fn default() -> Self {
        Truncation::MinPadding(TileRange::PAPER)
    }
}

/// A cap on the extra memory the Strassen recursion may claim beyond the
/// three Morton operand buffers — the axis Boyer et al. (arXiv:0707.2347)
/// optimize schedules for.
///
/// The budget degrades *gracefully*: instead of failing, the executor
/// drops Strassen recursion levels (each dropped level hands a deeper
/// slice of the tree to the workspace-free conventional Morton recursion)
/// until the workspace fits. With a budget of zero the whole multiply
/// runs conventionally and still returns the right product.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemoryBudget {
    /// No cap (the paper's setting): full-depth Strassen workspace,
    /// roughly `(mk + kn + 2mn)/3` elements.
    #[default]
    Unlimited,
    /// At most this many **bytes** of Strassen workspace. The recursion
    /// depth shrinks toward the conventional path as needed.
    MaxWorkspaceBytes(usize),
}

impl MemoryBudget {
    /// Largest workspace (in elements of `elem_size` bytes) the budget
    /// admits.
    pub fn max_elements(self, elem_size: usize) -> usize {
        match self {
            MemoryBudget::Unlimited => usize::MAX,
            MemoryBudget::MaxWorkspaceBytes(bytes) => bytes / elem_size.max(1),
        }
    }
}

/// How many innermost Strassen levels run *fused* — pre-adds folded into
/// operand packing and post-merges into the microkernel scatter epilogue
/// ([`crate::fuse`]), with no S/T arena temporaries for those levels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FuseDepth {
    /// Fuse while the packed kernel is eligible for the planned leaf
    /// tile (the combined-pack path is a bandwidth win only when the
    /// panels feed a packing kernel): [`crate::fuse::AUTO_FUSE`] levels,
    /// the depth that never loses to the staged schedule, less any level
    /// a requested [`ModgemmConfig::parallel_depth`] needs staged for the
    /// task DAG (decided from the config alone, so the fused levels, and
    /// the float bits, do not depend on the resolved thread count).
    /// Plans that resolve to a non-packing kernel stay staged; deeper
    /// fusion takes `Fixed`, a tuning profile, or memory-budget pressure.
    #[default]
    Auto,
    /// Exactly this many fused levels (clamped to the recursion depth
    /// actually taken), on every kernel. `Fixed(0)` pins the fully
    /// staged pipeline — the bit-exact oracle.
    Fixed(usize),
}

/// Which memory tier of the recursion-step linearization
/// ([`crate::schedule::Schedule`]) plans run — the Boyer et al.
/// scheduling axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Start at the standard (fastest, most-temporary) schedule and let
    /// the memory-budget ladder degrade the tier — standard → low-mem →
    /// in-place — *before* it touches fuse depth, parallel depth,
    /// recursion depth, or kernel choice. With an unlimited budget this
    /// reproduces the paper's schedule exactly.
    #[default]
    Auto,
    /// Pin exactly this tier (for ablation, benchmarking, or when the
    /// caller knows the smaller footprint keeps the working set
    /// cache-resident). The ladder neither climbs past nor starts below
    /// it. Only [`crate::schedule::Variant::Winograd`] has the low-mem
    /// and in-place linearizations; pinning a non-standard tier with the
    /// Strassen variant is rejected by [`ModgemmConfig::validate`].
    /// Shared-reference entry points (`modgemm_premorton` and the
    /// one-shot `try_strassen_mul`) cannot run the input-overwriting
    /// tier and clamp a pinned `InPlace` to low-mem.
    Fixed(crate::schedule::Schedule),
}

/// What to do when an operand contains `NaN` or `±Inf`.
///
/// This matters more for Strassen-Winograd than for conventional GEMM:
/// the 15 pre-additions can manufacture `Inf − Inf = NaN` in an
/// intermediate operand whose product then poisons *several* output
/// quadrants — entries a conventional multiply would have computed as
/// finite (or as `Inf` of a defensible sign).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NonFinitePolicy {
    /// No scanning (the paper's setting): non-finite values flow through
    /// the fast path with Strassen's (reassociated) semantics.
    #[default]
    Propagate,
    /// Scan operands up front and return
    /// [`GemmError::NonFiniteInput`] instead of computing.
    Reject,
    /// Scan operands up front; on a non-finite value, compute with the
    /// conventional algorithm so IEEE semantics match a reference BLAS.
    FallbackConventional,
}

/// Result verification mode for the fallible pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// No verification (the paper's setting).
    #[default]
    Off,
    /// Run the Freivalds check ([`crate::verify::verify_gemm`]) after the
    /// fast path. On failure, recompute once with the conventional
    /// baseline and re-verify; only if that also fails does the call
    /// report [`GemmError::VerificationFailed`].
    Freivalds {
        /// Verification rounds; a wrong product escapes detection with
        /// probability at most `2^-rounds`.
        rounds: u32,
        /// RNG seed for the probe vectors.
        seed: u64,
    },
}

/// Full MODGEMM configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModgemmConfig {
    /// Leaf tile selection policy.
    pub truncation: Truncation,
    /// Which §2 recursion to run (Winograd by default, like the paper).
    pub variant: crate::schedule::Variant,
    /// Hand over to the conventional Morton recursion once
    /// `min(m, k, n) ≤ strassen_min`. `0` (default) reproduces the paper:
    /// Strassen at every quadrant division.
    pub strassen_min: usize,
    /// Evaluate the seven products of the top `parallel_depth` recursion
    /// levels on separate threads (`0` = serial, the paper's setting).
    pub parallel_depth: usize,
    /// Worker count for the work-stealing pool (calling thread included).
    /// `0` (default) resolves via the `MODGEMM_THREADS` environment
    /// variable, falling back to `std::thread::available_parallelism`
    /// (see [`crate::pool::resolve_threads`]). Takes effect only when
    /// `parallel_depth > 0`; a resolved count of 1 runs serially.
    pub threads: usize,
    /// Use multi-threaded Morton conversion.
    pub parallel_convert: bool,
    /// Cap on the Strassen workspace; recursion depth degrades to fit.
    pub memory_budget: MemoryBudget,
    /// Handling of `NaN`/`Inf` operand values on the fallible path.
    pub non_finite: NonFinitePolicy,
    /// Post-hoc result verification on the fallible path.
    pub verify: VerifyMode,
    /// Verified-retry attempts when a Freivalds check fails: each attempt
    /// restores `C₀`, recomputes with the conventional baseline, and
    /// re-checks with exponentially escalated rounds (doubling per
    /// attempt, capped at 64). `0` reports
    /// [`GemmError::VerificationFailed`] on the first failed check; the
    /// default `1` reproduces the single conventional recompute the
    /// pipeline always had. Ignored when [`Self::verify`] is `Off`.
    pub verify_retries: u32,
    /// Leaf-multiply kernel selected at plan time (see
    /// [`modgemm_mat::kernel`]). `Auto` (default) picks `Packed` or
    /// `Blocked` from the detected CPU features and the planned leaf
    /// tile, resolved once per plan; `Packed` adds Goto-style panel
    /// packing with runtime-dispatched SIMD microkernels (panel buffers
    /// carved from the plan arena); `Blocked` reproduces the paper (see
    /// [`Self::paper`]).
    pub leaf_kernel: modgemm_mat::KernelKind,
    /// How many innermost Strassen levels run fused (no S/T arena
    /// temporaries; see [`FuseDepth`] and [`crate::fuse`]). `Auto`
    /// (default) fuses [`crate::fuse::AUTO_FUSE`] level whenever
    /// the plan resolves to the packed kernel; with a `Blocked` leaf
    /// kernel (as in [`Self::paper`]) the pipeline stays fully staged,
    /// preserving the paper's layout.
    pub fuse_depth: FuseDepth,
    /// Whether plan compilation consults a measured tuning profile
    /// (see [`crate::tune`]). `Off` (default) reproduces the static
    /// heuristics; `Profile` consults the process-global profile loaded
    /// from `MODGEMM_PROFILE` / `~/.cache/modgemm/profile.json`;
    /// `Forced` pins an exact operating point. The profile only fills
    /// knobs the config leaves at their defaults (config > profile >
    /// static heuristic). Part of the service plan-cache key, so tuned
    /// and untuned plans for the same shape never alias.
    pub tuning: crate::tune::TuningMode,
    /// Which memory tier of the recursion-step linearization plans run
    /// (see [`SchedulePolicy`] and [`crate::schedule::Schedule`]).
    /// `Auto` (default) starts at the standard schedule and lets the
    /// memory-budget ladder degrade the tier before any speed-bearing
    /// knob; `Fixed` pins a tier for ablation.
    pub schedule: SchedulePolicy,
    /// In-flight window of the whole-batch DAG executor
    /// ([`crate::BatchPlan`]): how many batch items' packed operand /
    /// result / slab slots are resident at once. `0` (default) sizes the
    /// window automatically from the resolved thread count; any window
    /// (explicit or auto) is then capped by [`Self::memory_budget`] so
    /// `window · per-item` footprint fits, degrading toward 1 before the
    /// recursion depth degrades. Also the number of same-shape queued
    /// requests [`crate::service::GemmService`] coalesces per dispatch.
    pub batch_window: usize,
}

impl Default for ModgemmConfig {
    fn default() -> Self {
        Self {
            truncation: Truncation::default(),
            variant: crate::schedule::Variant::Winograd,
            strassen_min: 0,
            parallel_depth: 0,
            threads: 0,
            parallel_convert: false,
            memory_budget: MemoryBudget::Unlimited,
            non_finite: NonFinitePolicy::Propagate,
            verify: VerifyMode::Off,
            verify_retries: 1,
            leaf_kernel: modgemm_mat::KernelKind::Auto,
            fuse_depth: FuseDepth::Auto,
            tuning: crate::tune::TuningMode::Off,
            schedule: SchedulePolicy::Auto,
            batch_window: 0,
        }
    }
}

impl ModgemmConfig {
    /// The configuration used for the paper's headline experiments: the
    /// default with the leaf kernel pinned to `Blocked`, so `FuseDepth::Auto`
    /// resolves to zero fused levels and every Strassen level runs the
    /// staged schedule the paper describes. The figure drivers and the
    /// cache-simulator mirror in `modgemm-cachesim` run it;
    /// [`Self::default`] is the measured fast path.
    pub fn paper() -> Self {
        Self { leaf_kernel: modgemm_mat::KernelKind::Blocked, ..Self::default() }
    }

    /// Checks the configuration for self-contradictions. Every `try_*`
    /// entry point validates before computing, so a bad configuration
    /// surfaces as [`GemmError::InvalidConfig`] instead of a downstream
    /// panic or a silent wrong plan.
    pub fn validate(&self) -> Result<(), GemmError> {
        match self.truncation {
            Truncation::Fixed(0) => {
                return Err(GemmError::InvalidConfig { reason: "fixed tile size must be nonzero" })
            }
            Truncation::MinPadding(range) => {
                if range.min == 0 {
                    return Err(GemmError::InvalidConfig {
                        reason: "tile range minimum must be nonzero",
                    });
                }
                if range.min > range.max {
                    return Err(GemmError::InvalidConfig {
                        reason: "tile range minimum exceeds maximum",
                    });
                }
            }
            Truncation::Fixed(_) => {}
        }
        if let VerifyMode::Freivalds { rounds: 0, .. } = self.verify {
            return Err(GemmError::InvalidConfig {
                reason: "Freivalds verification needs at least one round",
            });
        }
        if let FuseDepth::Fixed(n) = self.fuse_depth {
            if n > crate::fuse::MAX_FUSE {
                return Err(GemmError::InvalidConfig {
                    reason: "fuse_depth exceeds the supported maximum of 2 levels",
                });
            }
        }
        if let SchedulePolicy::Fixed(s) = self.schedule {
            if s != crate::schedule::Schedule::Standard
                && self.variant == crate::schedule::Variant::Strassen
            {
                return Err(GemmError::InvalidConfig {
                    reason: "the Strassen variant has only the standard schedule; \
                             low-mem/in-place tiers are Winograd linearizations",
                });
            }
        }
        if let crate::tune::TuningMode::Forced(choice) = self.tuning {
            if choice.tile_min > choice.tile_max {
                return Err(GemmError::InvalidConfig {
                    reason: "forced tuning choice has an inverted tile range",
                });
            }
        }
        Ok(())
    }

    /// Plans the joint tiling for a `(m, k, n)` problem, or `None` when
    /// the operands are too rectangular for a shared recursion depth and
    /// must be split (§3.5 / Figure 4).
    pub fn plan(&self, m: usize, k: usize, n: usize) -> Option<JointTiling> {
        match self.truncation {
            Truncation::MinPadding(range) => choose_joint_tiling(m, k, n, range),
            Truncation::Fixed(t) => {
                let (dm, dk, dn) =
                    (fixed_tile_tiling(m, t), fixed_tile_tiling(k, t), fixed_tile_tiling(n, t));
                let depth = dm.depth.max(dk.depth).max(dn.depth);
                let lift = |_x: usize| modgemm_morton::tiling::DimTiling {
                    tile: t,
                    depth,
                    padded: t << depth,
                };
                Some(JointTiling { depth, m: lift(m), k: lift(k), n: lift(n) })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_keeps_the_paper_tiling_and_serial_execution() {
        let c = ModgemmConfig::default();
        assert_eq!(c.truncation, Truncation::MinPadding(TileRange::PAPER));
        assert_eq!(c.strassen_min, 0);
        assert_eq!(c.parallel_depth, 0);
        assert_eq!(c.threads, 0); // 0 = auto (MODGEMM_THREADS / CPU count)
    }

    #[test]
    fn min_padding_plan_mirrors_joint_tiling() {
        let c = ModgemmConfig::default();
        let p = c.plan(513, 513, 513).unwrap();
        assert_eq!(p.m.tile, 33);
        assert_eq!(p.depth, 4);
    }

    #[test]
    fn min_padding_plan_fails_on_extreme_rectangles() {
        let c = ModgemmConfig::default();
        assert!(c.plan(4096, 100, 4096).is_none());
    }

    #[test]
    fn fixed_plan_shares_max_depth() {
        let c = ModgemmConfig { truncation: Truncation::Fixed(32), ..Default::default() };
        let p = c.plan(513, 100, 60).unwrap();
        // 513 needs depth 5 at tile 32 → all dims padded to 1024.
        assert_eq!(p.depth, 5);
        assert_eq!(p.m.padded, 1024);
        assert_eq!(p.k.padded, 1024);
        assert_eq!(p.n.padded, 1024);
    }

    #[test]
    fn fixed_plan_never_fails() {
        let c = ModgemmConfig { truncation: Truncation::Fixed(64), ..Default::default() };
        assert!(c.plan(10000, 3, 10000).is_some());
    }

    /// Plan-time `(kernel, fused levels)` of a 512³ `f64` multiply.
    fn resolved_512(cfg: &ModgemmConfig) -> (modgemm_mat::KernelKind, usize) {
        let layouts = crate::layouts_of(&cfg.plan(512, 512, 512).unwrap());
        let policy = crate::gemm::capped_policy::<f64>(layouts, cfg);
        (policy.kernel, policy.fuse)
    }

    #[test]
    fn default_is_the_measured_fast_path() {
        let c = ModgemmConfig::default();
        assert_eq!(c.leaf_kernel, modgemm_mat::KernelKind::Auto);
        assert_eq!(c.fuse_depth, FuseDepth::Auto);
        let (kernel, fused) = resolved_512(&c);
        if modgemm_mat::simd::has_vector_unit() {
            assert_eq!(kernel, modgemm_mat::KernelKind::Packed);
            assert_eq!(fused, crate::fuse::AUTO_FUSE);
        } else {
            assert_eq!((kernel, fused), (modgemm_mat::KernelKind::Blocked, 0));
        }
    }

    #[test]
    fn paper_policies_preserve_paper_behavior() {
        let c = ModgemmConfig::paper();
        assert_eq!(c, ModgemmConfig { leaf_kernel: c.leaf_kernel, ..ModgemmConfig::default() });
        assert_eq!(c.memory_budget, MemoryBudget::Unlimited);
        assert_eq!(c.non_finite, NonFinitePolicy::Propagate);
        assert_eq!(c.verify, VerifyMode::Off);
        assert_eq!(c.leaf_kernel, modgemm_mat::KernelKind::Blocked);
        assert_eq!(c.fuse_depth, FuseDepth::Auto);
        assert_eq!(c.schedule, SchedulePolicy::Auto);
        assert_eq!(resolved_512(&c), (modgemm_mat::KernelKind::Blocked, 0));
        assert!(c.validate().is_ok());
        for n in 0..=crate::fuse::MAX_FUSE {
            let c = ModgemmConfig { fuse_depth: FuseDepth::Fixed(n), ..Default::default() };
            assert!(c.validate().is_ok(), "Fixed({n})");
        }
        for s in crate::schedule::Schedule::ALL {
            let c = ModgemmConfig { schedule: SchedulePolicy::Fixed(s), ..Default::default() };
            assert!(c.validate().is_ok(), "Fixed({s:?}) on Winograd");
        }
    }

    #[test]
    fn validate_rejects_contradictions() {
        let bad = [
            ModgemmConfig { truncation: Truncation::Fixed(0), ..Default::default() },
            ModgemmConfig {
                truncation: Truncation::MinPadding(TileRange { min: 0, max: 8 }),
                ..Default::default()
            },
            ModgemmConfig {
                truncation: Truncation::MinPadding(TileRange { min: 9, max: 8 }),
                ..Default::default()
            },
            ModgemmConfig {
                verify: VerifyMode::Freivalds { rounds: 0, seed: 1 },
                ..Default::default()
            },
            ModgemmConfig { fuse_depth: FuseDepth::Fixed(3), ..Default::default() },
            ModgemmConfig {
                variant: crate::schedule::Variant::Strassen,
                schedule: SchedulePolicy::Fixed(crate::schedule::Schedule::LowMem),
                ..Default::default()
            },
            ModgemmConfig {
                variant: crate::schedule::Variant::Strassen,
                schedule: SchedulePolicy::Fixed(crate::schedule::Schedule::InPlace),
                ..Default::default()
            },
        ];
        for cfg in bad {
            assert!(
                matches!(cfg.validate(), Err(GemmError::InvalidConfig { .. })),
                "{cfg:?} should be invalid"
            );
        }
    }

    #[test]
    fn budget_converts_bytes_to_elements() {
        assert_eq!(MemoryBudget::Unlimited.max_elements(8), usize::MAX);
        assert_eq!(MemoryBudget::MaxWorkspaceBytes(64).max_elements(8), 8);
        assert_eq!(MemoryBudget::MaxWorkspaceBytes(0).max_elements(8), 0);
        // Degenerate element size must not divide by zero.
        assert_eq!(MemoryBudget::MaxWorkspaceBytes(64).max_elements(0), 64);
    }
}
