//! Configuration of the MODGEMM algorithm: truncation, kernel, fusion,
//! workers and the memory budget. Every staged Strassen level runs the
//! one low-memory Winograd linearization
//! ([`crate::schedule::WINOGRAD_LOWMEM_SCHEDULE`]); the memory budget
//! trades fusion, team size, recursion depth and kernel for workspace,
//! never the schedule.

use modgemm_morton::tiling::{choose_joint_tiling, fixed_tile_tiling, JointTiling, TileRange};

use crate::error::GemmError;

/// Default [`ModgemmConfig::strassen_min`]: a node runs a Strassen level
/// only while its smallest padded dimension exceeds this. Huang et al.'s
/// model (*Implementing Strassen's Algorithm with BLIS*) prices a level
/// at a node of smallest dimension `d` as a saving of `d³/4` flops at the
/// packed terminal's rate against `c·d²` extra add and pack traffic, so a
/// level pays only above a fixed `d`. Fitted to the terminal on a
/// two-vCPU AVX-512F host, that crossover lies at 2.2k on one and on two
/// threads, and no level won at 1024³, 1536³ or 2048³ on either
/// (EXPERIMENTS.md, "Default plan shape"). A constant, not a measurement
/// at run time, so float bits depend only on the config and the shape.
pub const STRASSEN_CROSSOVER: usize = 2048;

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
/// The budget degrades *gracefully*: instead of failing, the plan walks
/// a ladder until the workspace fits — fuse the innermost Strassen level,
/// shrink the team, drop Strassen recursion levels (each dropped level
/// hands a deeper slice of the tree to the conventional Morton
/// recursion), and last swap the packed leaf kernel for the
/// workspace-free blocked one ([`crate::exec::budget_capped_policy`]).
/// With a budget of zero the whole multiply runs conventionally and still
/// returns the right product.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemoryBudget {
    /// No cap (the paper's setting): full-depth Strassen workspace,
    /// roughly `(mk + kn + mn)/3` elements.
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

/// Whether the innermost Strassen level runs *fused* — pre-adds folded
/// into operand packing and post-merges into the microkernel scatter
/// epilogue ([`crate::fuse`]), with no S/T arena temporaries for that
/// level. Only one level can fuse ([`crate::fuse::MAX_FUSE`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FuseDepth {
    /// Fuse while the packed kernel is eligible for the planned leaf
    /// tile (the combined-pack path is a bandwidth win only when the
    /// panels feed a packing kernel): the one level that never loses to
    /// the staged schedule (decided from the config alone, so the fused
    /// level, and the float bits, do not depend on the resolved thread
    /// count). Plans that resolve to a non-packing kernel stay staged;
    /// fusing them takes [`FuseDepth::Fused`] or memory-budget pressure.
    /// Under the default [`ModgemmConfig::strassen_min`] a plan takes a
    /// level only above [`STRASSEN_CROSSOVER`], so `Auto` fuses that one
    /// level there, or wherever a lower `strassen_min` admits levels.
    #[default]
    Auto,
    /// Every Strassen level runs staged, on every kernel — the
    /// bit-exact oracle. A memory budget may still fuse the innermost
    /// level to fit.
    Staged,
    /// The innermost Strassen level runs fused on every kernel (no-op
    /// when the plan takes no Strassen level).
    Fused,
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
    /// Hand over to the conventional Morton recursion once a node's
    /// padded `min(m, k, n) ≤ strassen_min`. The default,
    /// [`STRASSEN_CROSSOVER`], runs a level only where one measures
    /// faster over the packed terminal, so a shape whose padded smallest
    /// dimension is at most 2048 runs conventionally. `0` reproduces the
    /// paper (see [`Self::paper`]): Strassen at every quadrant division.
    pub strassen_min: usize,
    /// Worker count for the pool (calling thread included): the team
    /// size of a single GEMM above a small-problem crossover (the team
    /// walks one interpreter and splits every step by output, in the
    /// serial arena plus one small leaf buffer per worker), and the
    /// batch DAG's workers.
    /// `0` (default) resolves via the `MODGEMM_THREADS` environment
    /// variable, falling back to `std::thread::available_parallelism`
    /// (see [`crate::pool::resolve_threads`]); a resolved count of 1
    /// runs serially. Results are bitwise the same at every count.
    pub threads: usize,
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
    /// Whether the innermost Strassen level runs fused (no S/T arena
    /// temporaries; see [`FuseDepth`] and [`crate::fuse`]). `Auto`
    /// (default) fuses it whenever the plan resolves to the packed
    /// kernel; with a `Blocked` leaf kernel (as in [`Self::paper`]) the
    /// pipeline stays fully staged, preserving the paper's layout.
    pub fuse_depth: FuseDepth,
    /// In-flight window of the whole-batch DAG executor
    /// ([`crate::BatchPlan`]): how many batch items' packed operand /
    /// result / arena slots are resident at once. `0` (default) sizes the
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
            strassen_min: STRASSEN_CROSSOVER,
            threads: 0,
            memory_budget: MemoryBudget::Unlimited,
            non_finite: NonFinitePolicy::Propagate,
            verify: VerifyMode::Off,
            verify_retries: 1,
            leaf_kernel: modgemm_mat::KernelKind::Auto,
            fuse_depth: FuseDepth::Auto,
            batch_window: 0,
        }
    }
}

impl ModgemmConfig {
    /// The configuration used for the paper's headline experiments: the
    /// default with Strassen at every quadrant division (`strassen_min:
    /// 0`, the paper's truncation down to single tiles) and the leaf
    /// kernel pinned to `Blocked`, so `FuseDepth::Auto` resolves to zero
    /// fused levels and every Strassen level runs the staged schedule the
    /// paper describes, on one thread (the paper's single-CPU setting).
    /// The figure drivers and the cache-simulator mirror in
    /// `modgemm-cachesim` run it; [`Self::default`] is the measured fast
    /// path.
    pub fn paper() -> Self {
        Self {
            strassen_min: 0,
            leaf_kernel: modgemm_mat::KernelKind::Blocked,
            threads: 1,
            ..Self::default()
        }
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
    fn default_keeps_the_paper_tiling_and_resolves_threads() {
        // The default runs a team of the resolved workers; the paper
        // configuration pins the single-CPU setting.
        let c = ModgemmConfig::default();
        assert_eq!(c.truncation, Truncation::MinPadding(TileRange::PAPER));
        assert_eq!(c.strassen_min, STRASSEN_CROSSOVER);
        assert_eq!(c.threads, 0); // 0 = auto (MODGEMM_THREADS / CPU count)
        assert_eq!(ModgemmConfig::paper().threads, 1);
        assert_eq!(ModgemmConfig::paper().strassen_min, 0);
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

    /// Plan-time `(kernel, Strassen levels, fused levels)` of an `n³`
    /// `f64` multiply.
    fn resolved(cfg: &ModgemmConfig, n: usize) -> (modgemm_mat::KernelKind, usize, usize) {
        let layouts = crate::layouts_of(&cfg.plan(n, n, n).unwrap());
        let policy = crate::gemm::capped_policy::<f64>(layouts, cfg);
        (policy.kernel, crate::counts::strassen_levels(layouts, policy), policy.fuse)
    }

    #[test]
    fn default_is_the_measured_fast_path() {
        // The packed terminal with no Strassen level at 512³ (the levels
        // above the crossover are
        // `default_plans_stage_no_level_below_the_crossover`'s).
        let c = ModgemmConfig::default();
        assert_eq!(c.leaf_kernel, modgemm_mat::KernelKind::Auto);
        assert_eq!(c.fuse_depth, FuseDepth::Auto);
        let kernel = if modgemm_mat::simd::has_vector_unit() {
            modgemm_mat::KernelKind::Packed
        } else {
            modgemm_mat::KernelKind::Blocked
        };
        assert_eq!(resolved(&c, 512), (kernel, 0, 0));
    }

    #[test]
    fn default_plans_stage_no_level_below_the_crossover() {
        // Plans only, no execution. Every shape the end-to-end workloads
        // run (blas_large, blas_small's ceiling, service_mixed and the
        // batch_strided items) runs conventionally by default. A shape
        // whose padded smallest dimension lies in (X, 2X] takes exactly
        // one level, fused over the packed terminal, and the paper's
        // configuration keeps Strassen down to single tiles.
        let default = ModgemmConfig::default();
        let levels = |cfg: &ModgemmConfig, (m, k, n): (usize, usize, usize)| {
            let p = crate::GemmPlan::<f64>::try_new(m, k, n, cfg).unwrap();
            (p.strassen_levels(), p.fused_levels())
        };
        for shape in [
            (256, 256, 256),
            (384, 200, 300),
            (513, 513, 513),
            (640, 640, 640),
            (768, 768, 768),
            (1000, 1000, 1000),
            (1025, 1025, 1025),
            (1100, 900, 1000),
            (64, 64, 64),
            (128, 128, 128),
            (192, 160, 128),
        ] {
            assert_eq!(levels(&default, shape), (0, 0), "{shape:?}");
        }
        let one = (3000, 3000, 3000);
        let tiling = default.plan(one.0, one.1, one.2).unwrap();
        let dmin = tiling.m.padded.min(tiling.k.padded).min(tiling.n.padded);
        assert!(dmin > STRASSEN_CROSSOVER && dmin <= 2 * STRASSEN_CROSSOVER, "{dmin}");
        let fused = usize::from(modgemm_mat::simd::has_vector_unit());
        assert_eq!(levels(&default, one), (1, fused), "{one:?}");
        let paper = ModgemmConfig::paper();
        assert_eq!(levels(&paper, (513, 513, 513)), (4, 0));
        assert_eq!(levels(&paper, (1025, 1025, 1025)), (5, 0));
    }

    #[test]
    fn paper_policies_preserve_paper_behavior() {
        let c = ModgemmConfig::paper();
        assert_eq!(
            c,
            ModgemmConfig {
                strassen_min: 0,
                leaf_kernel: c.leaf_kernel,
                threads: 1,
                ..ModgemmConfig::default()
            }
        );
        assert_eq!(c.memory_budget, MemoryBudget::Unlimited);
        assert_eq!(c.non_finite, NonFinitePolicy::Propagate);
        assert_eq!(c.verify, VerifyMode::Off);
        assert_eq!(c.leaf_kernel, modgemm_mat::KernelKind::Blocked);
        assert_eq!(c.fuse_depth, FuseDepth::Auto);
        assert_eq!(resolved(&c, 513), (modgemm_mat::KernelKind::Blocked, 4, 0));
        assert!(c.validate().is_ok());
        for fuse_depth in [FuseDepth::Auto, FuseDepth::Staged, FuseDepth::Fused] {
            let c = ModgemmConfig { fuse_depth, ..Default::default() };
            assert!(c.validate().is_ok(), "{fuse_depth:?}");
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
