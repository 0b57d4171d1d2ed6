//! Runtime SIMD dispatch for the packed microkernel.
//!
//! The packed kernel ([`crate::pack`]) reduces every leaf multiply to one
//! inner shape: an `MR × NR` register tile updated from zero-padded
//! panels and added ± into one or more destination windows. That shape is
//! what vendor BLAS microkernels are written for, and this module
//! provides the vectorized bodies:
//!
//! * **x86_64** — AVX2 + FMA bodies for `f64` (`8×4` over four pairs of
//!   256-bit accumulators) and `f32` (`8×4` over four 256-bit
//!   accumulators), selected with [`is_x86_feature_detected!`]. With
//!   AVX-512F as well ([`SimdLevel::Avx512f`]), `f64` also gets a *block
//!   body* ([`block_microkernel_f64`]): a `16×8` tile in sixteen 512-bit
//!   accumulators over a 2×2 block of the same `8 × k` A and `4 × k` B
//!   panels. The packed format, `PACK_MR`/`PACK_NR` and every workspace
//!   size are unchanged; the packed sweep runs 2×2 blocks of full panels
//!   through the block body and every other tile through the `8×4` body,
//!   with the same bits (each element is the same FMA chain over `k`).
//!   The block body needs Rust 1.89 (stable AVX-512 intrinsics); the
//!   build script enables it by compiler version, so older compilers
//!   build the AVX2 bodies only;
//! * **aarch64** — NEON bodies of the same shape, selected with
//!   `is_aarch64_feature_detected!`;
//! * everywhere else (and for every scalar type without a vector body,
//!   e.g. `i64` or complex) — the portable body
//!   [`crate::pack::microkernel_scatter_generic`].
//!
//! A body always computes its full tile. The packed driver runs interior
//! tiles straight into `C` and edge tiles into a local `MR × NR` buffer
//! whose live window it then adds out, so ragged leaves run at vector
//! speed too.
//!
//! Detection runs **once** per process (cached in a [`OnceLock`]). Plan
//! construction resolves [`crate::KernelKind::Auto`] against the cached
//! [`SimdLevel`], and each packed leaf call looks its body up from the
//! same cache (one atomic load), so the hot loop never re-detects. Under
//! Miri the detected level is forced to [`SimdLevel::None`]: the vendor
//! intrinsics are not interpretable, and forcing the portable body means
//! the Miri CI job checks exactly the `unsafe` packing, window and
//! write-back code that runs on hosts without vector units. (No block
//! body is selected there either; a test drives the sweep's block pass
//! with a portable block body made of four `8×4` calls.)

use std::sync::OnceLock;

/// A microkernel body: accumulates one full `MR × NR` product tile of two
/// packed panels in registers, then adds it to (or subtracts it from)
/// each of `ndests` destination windows —
/// `C_d[0..MR, 0..NR] ±= Apanel · Bpanel` — without ever spilling the
/// product tile to memory. One destination is a plain `C += A·B` tile;
/// several are the fused Strassen post-merge.
///
/// `dests` points at `ndests` window base pointers (each the tile's
/// top-left element); bit `d` of `neg_mask` set means destination `d`
/// subtracts. All windows share the leading dimension `ldc`.
///
/// # Safety
/// * `a` must point at `MR·k` readable elements (one packed A panel),
/// * `b` must point at `NR·k` readable elements (one packed B panel),
/// * each of the `ndests ≤ `[`crate::pack::MAX_FUSE_TERMS`] pointers
///   must address a writable column-major `MR × NR` window with leading
///   dimension `ldc ≥ MR`, and the windows must be pairwise disjoint,
/// * the CPU must support the features the body was compiled for (the
///   selectors below only hand out pointers after runtime detection).
pub type ScatterMicroKernelFn<S> = unsafe fn(
    k: usize,
    a: *const S,
    b: *const S,
    dests: *const *mut S,
    ndests: usize,
    neg_mask: u32,
    ldc: usize,
);

/// The vector instruction family detected on this host, in the order the
/// selectors consult them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// No usable vector unit (or running under Miri): portable fallback.
    None,
    /// x86_64 with AVX2 and FMA.
    Avx2Fma,
    /// x86_64 with AVX2, FMA and AVX-512F: the AVX2 bodies plus the
    /// `f64` block body.
    Avx512f,
    /// aarch64 with NEON (Advanced SIMD).
    Neon,
}

fn detect() -> SimdLevel {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            #[cfg(modgemm_avx512)]
            if is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512f;
            }
            return SimdLevel::Avx2Fma;
        }
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdLevel::Neon;
        }
    }
    SimdLevel::None
}

/// The host's [`SimdLevel`], detected once and cached for the process
/// lifetime. Plan-time [`crate::KernelKind::Auto`] resolution and the
/// microkernel selectors below all read this cache.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// The vectorized `f64` scatter microkernel for this host, or `None`
/// when only [`crate::pack::microkernel_scatter_generic`] applies.
pub fn scatter_microkernel_f64() -> Option<ScatterMicroKernelFn<f64>> {
    match simd_level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2Fma | SimdLevel::Avx512f => {
            Some(x86::mk_scatter_f64_avx2fma as ScatterMicroKernelFn<f64>)
        }
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        SimdLevel::Neon => Some(neon::mk_scatter_f64_neon as ScatterMicroKernelFn<f64>),
        _ => None,
    }
}

/// The vectorized `f32` scatter microkernel for this host, or `None`
/// when only [`crate::pack::microkernel_scatter_generic`] applies.
pub fn scatter_microkernel_f32() -> Option<ScatterMicroKernelFn<f32>> {
    match simd_level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2Fma | SimdLevel::Avx512f => {
            Some(x86::mk_scatter_f32_avx2fma as ScatterMicroKernelFn<f32>)
        }
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        SimdLevel::Neon => Some(neon::mk_scatter_f32_neon as ScatterMicroKernelFn<f32>),
        _ => None,
    }
}

/// The `f64` block body for this host, or `None` when the packed sweep
/// runs every tile through the `MR × NR` body. A block body has the
/// [`ScatterMicroKernelFn`] signature over a `2·MR × 2·NR` tile: it reads
/// two consecutive A panels (the second at `a + MR·k`) and two
/// consecutive B panels (the second at `b + NR·k`) of the unchanged
/// packed format, so its contract is that of a plain body with `a`
/// readable for `2·MR·k` elements, `b` for `2·NR·k`, and each destination
/// window `2·MR × 2·NR` with `ldc ≥ 2·MR`. Each element is the same FMA
/// chain over `p = 0..k` that the `MR × NR` body computes, so the two
/// agree bit for bit.
pub fn block_microkernel_f64() -> Option<ScatterMicroKernelFn<f64>> {
    match simd_level() {
        #[cfg(all(target_arch = "x86_64", modgemm_avx512, not(miri)))]
        SimdLevel::Avx512f => Some(x86::mk_block_f64_avx512f as ScatterMicroKernelFn<f64>),
        _ => None,
    }
}

/// True when [`crate::Scalar::packed_scatter_microkernel`] returns a vector
/// body for at least one supported scalar — the signal [`crate::KernelKind::Auto`]
/// keys its Packed-vs-Blocked choice on.
pub fn has_vector_unit() -> bool {
    simd_level() != SimdLevel::None
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use core::arch::x86_64::*;

    use crate::pack::{PACK_MR, PACK_NR};

    // Every body keeps its whole tile in registers: the 8×4 f64 body uses
    // eight 256-bit accumulators (4 lanes × 2 per column), the f32 body
    // four (8 lanes each), the 16×8 f64 block body sixteen 512-bit ones
    // (8 lanes × 2 per column). Loads are unaligned — panels live inside
    // a larger arena.

    /// AVX2+FMA `8×4` `f64` scatter microkernel: FMA accumulation over
    /// the panels, with the epilogue writing ± into each destination
    /// window while the product tile stays in registers. Safety
    /// contract: [`super::ScatterMicroKernelFn`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mk_scatter_f64_avx2fma(
        k: usize,
        a: *const f64,
        b: *const f64,
        dests: *const *mut f64,
        ndests: usize,
        neg_mask: u32,
        ldc: usize,
    ) {
        debug_assert_eq!((PACK_MR, PACK_NR), (8, 4));
        let mut acc_lo = [_mm256_setzero_pd(); PACK_NR];
        let mut acc_hi = [_mm256_setzero_pd(); PACK_NR];
        for p in 0..k {
            let a_lo = _mm256_loadu_pd(a.add(p * PACK_MR));
            let a_hi = _mm256_loadu_pd(a.add(p * PACK_MR + 4));
            for j in 0..PACK_NR {
                let bj = _mm256_set1_pd(*b.add(p * PACK_NR + j));
                acc_lo[j] = _mm256_fmadd_pd(a_lo, bj, acc_lo[j]);
                acc_hi[j] = _mm256_fmadd_pd(a_hi, bj, acc_hi[j]);
            }
        }
        for d in 0..ndests {
            let base = *dests.add(d);
            let neg = neg_mask & (1 << d) != 0;
            for j in 0..PACK_NR {
                let cj = base.add(j * ldc);
                let (lo, hi) = (acc_lo[j], acc_hi[j]);
                if neg {
                    _mm256_storeu_pd(cj, _mm256_sub_pd(_mm256_loadu_pd(cj), lo));
                    _mm256_storeu_pd(cj.add(4), _mm256_sub_pd(_mm256_loadu_pd(cj.add(4)), hi));
                } else {
                    _mm256_storeu_pd(cj, _mm256_add_pd(_mm256_loadu_pd(cj), lo));
                    _mm256_storeu_pd(cj.add(4), _mm256_add_pd(_mm256_loadu_pd(cj.add(4)), hi));
                }
            }
        }
    }

    /// AVX-512F `16×8` `f64` block body over 2×2 panels: rows `0..8` come
    /// from the A panel at `a`, rows `8..16` from the one at `a + MR·k`;
    /// columns `0..4` from the B panel at `b`, columns `4..8` from the
    /// one at `b + NR·k`. The tile lives in 16 zmm accumulators (two per
    /// column), and the epilogue writes it ± into each destination as
    /// [`mk_scatter_f64_avx2fma`] does. Safety contract:
    /// [`super::block_microkernel_f64`].
    #[cfg(modgemm_avx512)]
    // The build script sets `modgemm_avx512` only on Rust ≥ 1.89, where
    // these intrinsics are stable; the 1.75 MSRV never compiles this body.
    #[allow(clippy::incompatible_msrv)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mk_block_f64_avx512f(
        k: usize,
        a: *const f64,
        b: *const f64,
        dests: *const *mut f64,
        ndests: usize,
        neg_mask: u32,
        ldc: usize,
    ) {
        const NB: usize = 2 * PACK_NR;
        debug_assert_eq!((PACK_MR, PACK_NR), (8, 4));
        let (a1, b1) = (a.add(PACK_MR * k), b.add(PACK_NR * k));
        let mut acc_lo = [_mm512_setzero_pd(); NB];
        let mut acc_hi = [_mm512_setzero_pd(); NB];
        for p in 0..k {
            let a_lo = _mm512_loadu_pd(a.add(p * PACK_MR));
            let a_hi = _mm512_loadu_pd(a1.add(p * PACK_MR));
            for j in 0..NB {
                let bp = if j < PACK_NR { b.add(j) } else { b1.add(j - PACK_NR) };
                let bj = _mm512_set1_pd(*bp.add(p * PACK_NR));
                acc_lo[j] = _mm512_fmadd_pd(a_lo, bj, acc_lo[j]);
                acc_hi[j] = _mm512_fmadd_pd(a_hi, bj, acc_hi[j]);
            }
        }
        for d in 0..ndests {
            let base = *dests.add(d);
            let neg = neg_mask & (1 << d) != 0;
            for j in 0..NB {
                let cj = base.add(j * ldc);
                let (lo, hi) = (acc_lo[j], acc_hi[j]);
                let c_hi = cj.add(PACK_MR);
                if neg {
                    _mm512_storeu_pd(cj, _mm512_sub_pd(_mm512_loadu_pd(cj), lo));
                    _mm512_storeu_pd(c_hi, _mm512_sub_pd(_mm512_loadu_pd(c_hi), hi));
                } else {
                    _mm512_storeu_pd(cj, _mm512_add_pd(_mm512_loadu_pd(cj), lo));
                    _mm512_storeu_pd(c_hi, _mm512_add_pd(_mm512_loadu_pd(c_hi), hi));
                }
            }
        }
    }

    /// AVX2+FMA `8×4` `f32` scatter microkernel. Safety contract:
    /// [`super::ScatterMicroKernelFn`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mk_scatter_f32_avx2fma(
        k: usize,
        a: *const f32,
        b: *const f32,
        dests: *const *mut f32,
        ndests: usize,
        neg_mask: u32,
        ldc: usize,
    ) {
        debug_assert_eq!((PACK_MR, PACK_NR), (8, 4));
        let mut acc = [_mm256_setzero_ps(); PACK_NR];
        for p in 0..k {
            let ap = _mm256_loadu_ps(a.add(p * PACK_MR));
            for (j, aj) in acc.iter_mut().enumerate() {
                let bj = _mm256_set1_ps(*b.add(p * PACK_NR + j));
                *aj = _mm256_fmadd_ps(ap, bj, *aj);
            }
        }
        for d in 0..ndests {
            let base = *dests.add(d);
            let neg = neg_mask & (1 << d) != 0;
            for (j, aj) in acc.iter().enumerate() {
                let cj = base.add(j * ldc);
                if neg {
                    _mm256_storeu_ps(cj, _mm256_sub_ps(_mm256_loadu_ps(cj), *aj));
                } else {
                    _mm256_storeu_ps(cj, _mm256_add_ps(_mm256_loadu_ps(cj), *aj));
                }
            }
        }
    }
}

#[cfg(all(target_arch = "aarch64", not(miri)))]
mod neon {
    use core::arch::aarch64::*;

    use crate::pack::{PACK_MR, PACK_NR};

    // Same register tiles as the x86 bodies: f64 in 2-lane vectors (4 per
    // column), f32 in 4-lane vectors (2 per column).

    /// NEON `8×4` `f64` scatter microkernel: FMA accumulation over the
    /// panels, with the epilogue writing ± into each destination window
    /// while the product tile stays in registers. Safety contract:
    /// [`super::ScatterMicroKernelFn`].
    #[target_feature(enable = "neon")]
    pub unsafe fn mk_scatter_f64_neon(
        k: usize,
        a: *const f64,
        b: *const f64,
        dests: *const *mut f64,
        ndests: usize,
        neg_mask: u32,
        ldc: usize,
    ) {
        debug_assert_eq!((PACK_MR, PACK_NR), (8, 4));
        let mut acc = [[vdupq_n_f64(0.0); 4]; PACK_NR];
        for p in 0..k {
            let av = [
                vld1q_f64(a.add(p * PACK_MR)),
                vld1q_f64(a.add(p * PACK_MR + 2)),
                vld1q_f64(a.add(p * PACK_MR + 4)),
                vld1q_f64(a.add(p * PACK_MR + 6)),
            ];
            for (j, aj) in acc.iter_mut().enumerate() {
                let bj = vdupq_n_f64(*b.add(p * PACK_NR + j));
                for (lane, a_lane) in av.into_iter().enumerate() {
                    aj[lane] = vfmaq_f64(aj[lane], a_lane, bj);
                }
            }
        }
        for d in 0..ndests {
            let base = *dests.add(d);
            let neg = neg_mask & (1 << d) != 0;
            for (j, aj) in acc.iter().enumerate() {
                let cj = base.add(j * ldc);
                for (lane, v) in aj.iter().enumerate() {
                    let off = cj.add(2 * lane);
                    let cur = vld1q_f64(off);
                    vst1q_f64(off, if neg { vsubq_f64(cur, *v) } else { vaddq_f64(cur, *v) });
                }
            }
        }
    }

    /// NEON `8×4` `f32` scatter microkernel. Safety contract:
    /// [`super::ScatterMicroKernelFn`].
    #[target_feature(enable = "neon")]
    pub unsafe fn mk_scatter_f32_neon(
        k: usize,
        a: *const f32,
        b: *const f32,
        dests: *const *mut f32,
        ndests: usize,
        neg_mask: u32,
        ldc: usize,
    ) {
        debug_assert_eq!((PACK_MR, PACK_NR), (8, 4));
        let mut acc = [[vdupq_n_f32(0.0); 2]; PACK_NR];
        for p in 0..k {
            let av = [vld1q_f32(a.add(p * PACK_MR)), vld1q_f32(a.add(p * PACK_MR + 4))];
            for (j, aj) in acc.iter_mut().enumerate() {
                let bj = vdupq_n_f32(*b.add(p * PACK_NR + j));
                for (lane, a_lane) in av.into_iter().enumerate() {
                    aj[lane] = vfmaq_f32(aj[lane], a_lane, bj);
                }
            }
        }
        for d in 0..ndests {
            let base = *dests.add(d);
            let neg = neg_mask & (1 << d) != 0;
            for (j, aj) in acc.iter().enumerate() {
                let cj = base.add(j * ldc);
                for (lane, v) in aj.iter().enumerate() {
                    let off = cj.add(4 * lane);
                    let cur = vld1q_f32(off);
                    vst1q_f32(off, if neg { vsubq_f32(cur, *v) } else { vaddq_f32(cur, *v) });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{
        microkernel_block_generic, microkernel_scatter_generic, MAX_FUSE_TERMS, PACK_MR, PACK_NR,
    };
    use crate::scalar::Scalar;

    #[test]
    fn detection_is_cached_and_stable() {
        assert_eq!(simd_level(), simd_level());
        assert_eq!(has_vector_unit(), simd_level() != SimdLevel::None);
        #[cfg(miri)]
        assert_eq!(simd_level(), SimdLevel::None, "Miri must take the portable path");
    }

    #[test]
    fn selectors_agree_with_the_detected_level() {
        // The per-scalar lookup the packed driver makes on every leaf.
        let vec_unit = has_vector_unit();
        assert_eq!(f64::packed_scatter_microkernel().is_some(), vec_unit);
        assert_eq!(f32::packed_scatter_microkernel().is_some(), vec_unit);
        assert!(i64::packed_scatter_microkernel().is_none(), "i64 has no vector body");
    }

    /// Runs the vector body `mk` and the portable `reference` over the
    /// same packed panels of an `mr × nr` tile into `ndests` ±
    /// destinations (leading dimension above `mr`) and asserts the
    /// results equal exactly. The operands are multiples of 1/4 small
    /// enough that every product and partial sum is exact in `f32` and
    /// `f64`, with or without FMA contraction.
    fn check_against_portable<S: Scalar>(
        mk: ScatterMicroKernelFn<S>,
        reference: ScatterMicroKernelFn<S>,
        (mr, nr): (usize, usize),
        ndests: usize,
    ) {
        let ldc = mr + 3;
        let neg = [false, true, true, false];
        let mut neg_mask = 0u32;
        for (d, &n) in neg.iter().enumerate().take(ndests) {
            neg_mask |= u32::from(n) << d;
        }
        for k in [0, 1, 2, 7, 32] {
            let a: Vec<S> =
                (0..mr * k).map(|i| S::from_f64(((i * 7 + 3) % 23) as f64 / 4.0 - 2.0)).collect();
            let b: Vec<S> =
                (0..nr * k).map(|i| S::from_f64(((i * 5 + 1) % 19) as f64 / 4.0 - 2.0)).collect();
            let init: Vec<Vec<S>> = (0..ndests)
                .map(|d| (0..ldc * nr).map(|i| S::from_f64(((i + d) % 7) as f64)).collect())
                .collect();
            let run = |body: ScatterMicroKernelFn<S>| {
                let mut out = init.clone();
                let ptrs: Vec<*mut S> = out.iter_mut().map(|d| d.as_mut_ptr()).collect();
                // SAFETY: the panels are exactly mr·k / nr·k long, each
                // window is mr×nr with ldc ≥ mr in its own buffer, and a
                // vector body came from a runtime selector.
                unsafe { body(k, a.as_ptr(), b.as_ptr(), ptrs.as_ptr(), ndests, neg_mask, ldc) };
                out
            };
            assert_eq!(run(mk), run(reference), "k {k}, {ndests} dests");
        }
    }

    /// [`check_against_portable`] on one `MR × NR` tile.
    fn check_tile<S: Scalar>(mk: ScatterMicroKernelFn<S>, ndests: usize) {
        check_against_portable(mk, microkernel_scatter_generic::<S>, (PACK_MR, PACK_NR), ndests);
    }

    #[test]
    fn vector_f64_matches_portable_reference() {
        if let Some(mk) = scatter_microkernel_f64() {
            check_tile::<f64>(mk, 1);
        }
    }

    #[test]
    fn vector_f32_matches_portable_reference() {
        if let Some(mk) = scatter_microkernel_f32() {
            check_tile::<f32>(mk, 1);
        }
    }

    #[test]
    fn scatter_selectors_agree_with_the_detected_level() {
        let vec_unit = has_vector_unit();
        assert_eq!(scatter_microkernel_f64().is_some(), vec_unit);
        assert_eq!(scatter_microkernel_f32().is_some(), vec_unit);
    }

    #[test]
    fn vector_scatter_f64_matches_portable_reference() {
        if let Some(mk) = scatter_microkernel_f64() {
            for ndests in 2..=MAX_FUSE_TERMS {
                check_tile::<f64>(mk, ndests);
            }
        }
    }

    #[test]
    fn block_selector_is_f64_on_avx512f_only() {
        assert_eq!(block_microkernel_f64().is_some(), simd_level() == SimdLevel::Avx512f);
        assert_eq!(f64::packed_block_microkernel().is_some(), block_microkernel_f64().is_some());
        assert!(f32::packed_block_microkernel().is_none(), "f32 has no block body");
        assert!(i64::packed_block_microkernel().is_none(), "i64 has no block body");
    }

    #[test]
    fn avx512_block_f64_matches_portable_reference() {
        // The 16×8 block against four portable 8×4 tiles at the block's
        // panel offsets, into 1..=MAX_FUSE_TERMS ± destinations with
        // ldc = 19 > 16.
        let Some(mk) = block_microkernel_f64() else {
            eprintln!("skipped: no f64 block body on this host (needs AVX-512F)");
            return;
        };
        for ndests in 1..=MAX_FUSE_TERMS {
            let shape = (2 * PACK_MR, 2 * PACK_NR);
            check_against_portable::<f64>(mk, microkernel_block_generic::<f64>, shape, ndests);
        }
    }

    #[test]
    fn vector_scatter_f32_matches_portable_reference() {
        if let Some(mk) = scatter_microkernel_f32() {
            for ndests in 2..=MAX_FUSE_TERMS {
                check_tile::<f32>(mk, ndests);
            }
        }
    }
}
