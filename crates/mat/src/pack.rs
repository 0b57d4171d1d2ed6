//! Goto/BLIS-style panel packing for the [`crate::kernel::Packed`] leaf
//! kernel.
//!
//! The packed kernel copies its operands into two panel buffers before
//! multiplying:
//!
//! * **A** is packed into *row panels* of [`PACK_MR`] rows each. Panel
//!   `i` holds rows `i·MR .. i·MR+MR`, stored k-major: element
//!   `(i_local, p)` lives at `panel_base + p·MR + i_local`, so one
//!   microkernel step reads `MR` consecutive elements.
//! * **B** is packed into *column panels* of [`PACK_NR`] columns each,
//!   also k-major: element `(p, j_local)` at `panel_base + p·NR +
//!   j_local`.
//!
//! Ragged tails are **zero-padded** to the full panel width, so the
//! microkernel always sees complete `MR × k` / `NR × k` panels and only
//! the write-back to `C` has to honor the logical `m × n` bounds. After
//! packing, the inner loop walks both panels with unit stride regardless
//! of the original leading dimensions — the same argument the paper makes
//! for Morton leaves, applied one level deeper.
//!
//! One driver, [`packed_mul_scatter_in`], sweeps every leaf product with
//! one microkernel body: the host's vector body from [`crate::simd`], or
//! the portable [`microkernel_scatter_generic`] for `i64`, under Miri and
//! on hosts without SIMD. Where the scalar has a block body (`f64` on
//! AVX-512F), 2×2 blocks of full panels run through it first, over the
//! same panels and with the same bits. Interior tiles go straight into
//! `C`. Edge tiles (the ragged last row or column panel, e.g. 13 of the
//! 45 tiles of a 33-wide leaf) run the same body into a local `MR × NR`
//! buffer, whose live `mb × nb` window one out-of-line helper adds to
//! each destination.
//! A plain `C += A·B` ([`packed_mul_add_in`]) is the driver's
//! one-destination case. Callers that pack once and multiply many times
//! use the two halves directly: [`pack_a_sum_at`] / [`pack_b_sum_at`]
//! pack an operand as one k-slice of deeper panels (a Morton tile row or
//! column, tile by tile), and [`packed_sweep`] runs the microkernel over
//! packed panels.
//!
//! Buffer sizes ([`packed_a_len`] / [`packed_b_len`] / [`packed_len`])
//! are closed-form in the tile dimensions and deliberately
//! **scalar-type-independent** (element counts, not bytes), so the
//! plan-arena sizing in `modgemm-core` stays non-generic.

use crate::scalar::Scalar;
use crate::simd::ScatterMicroKernelFn;
use crate::view::{required_len, MatMut, MatRef};

/// Rows per packed A panel — the microkernel's register-tile height.
/// `8` fills one AVX2 register pair, one AVX-512 register or four NEON
/// registers of `f64`.
pub const PACK_MR: usize = 8;

/// Columns per packed B panel — the microkernel's register-tile width.
pub const PACK_NR: usize = 4;

/// Most ± source terms one combined pack ([`pack_a_sum`] /
/// [`pack_b_sum`]) and most ± destinations one scatter epilogue
/// ([`microkernel_scatter_generic`]) support. A fused Strassen level
/// reads at most two quadrant terms per operand and scatters into at
/// most two destinations, so two is the ceiling the fused executor
/// needs.
pub const MAX_FUSE_TERMS: usize = 2;

/// Elements of the packed form of an `m × k` A operand:
/// `ceil(m / MR) · MR · k` (ragged row panels are zero-padded).
pub const fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(PACK_MR) * PACK_MR * k
}

/// Elements of the packed form of a `k × n` B operand:
/// `ceil(n / NR) · NR · k` (ragged column panels are zero-padded).
pub const fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(PACK_NR) * PACK_NR * k
}

/// Total packing workspace (elements) of one `m × k × n` leaf multiply:
/// the A panels followed by the B panels.
pub const fn packed_len(m: usize, k: usize, n: usize) -> usize {
    packed_a_len(m, k) + packed_b_len(k, n)
}

/// Packs `a` (`m × k`, any leading dimension) into `buf` in MR-row-panel
/// order, zero-padding the last panel's missing rows.
///
/// # Panics
/// When `buf` is shorter than [`packed_a_len`].
#[track_caller]
pub fn pack_a<S: Scalar>(a: MatRef<'_, S>, buf: &mut [S]) {
    let (m, k) = a.dims();
    let need = packed_a_len(m, k);
    assert!(buf.len() >= need, "pack_a buffer too small: {} < {need}", buf.len());
    for pi in 0..m.div_ceil(PACK_MR) {
        let i0 = pi * PACK_MR;
        let mb = PACK_MR.min(m - i0);
        let base = pi * PACK_MR * k;
        for p in 0..k {
            let src = &a.col(p)[i0..i0 + mb];
            let dst = &mut buf[base + p * PACK_MR..base + (p + 1) * PACK_MR];
            dst[..mb].copy_from_slice(src);
            dst[mb..].fill(S::ZERO);
        }
    }
}

/// Packs `b` (`k × n`, any leading dimension) into `buf` in
/// NR-column-panel order, zero-padding the last panel's missing columns.
///
/// # Panics
/// When `buf` is shorter than [`packed_b_len`].
#[track_caller]
pub fn pack_b<S: Scalar>(b: MatRef<'_, S>, buf: &mut [S]) {
    let (k, n) = b.dims();
    let need = packed_b_len(k, n);
    assert!(buf.len() >= need, "pack_b buffer too small: {} < {need}", buf.len());
    for pj in 0..n.div_ceil(PACK_NR) {
        let j0 = pj * PACK_NR;
        let nb = PACK_NR.min(n - j0);
        let base = pj * PACK_NR * k;
        let panel = &mut buf[base..base + PACK_NR * k];
        if nb == PACK_NR {
            // Full panel: transpose the k×NR block in one pass, writing
            // all NR interleaved entries per p.
            let c: [&[S]; PACK_NR] = core::array::from_fn(|jl| &b.col(j0 + jl)[..k]);
            for (p, d) in panel.chunks_exact_mut(PACK_NR).enumerate() {
                for jl in 0..PACK_NR {
                    d[jl] = c[jl][p];
                }
            }
        } else {
            for jl in 0..PACK_NR {
                if jl < nb {
                    let col = &b.col(j0 + jl)[..k];
                    for (p, &v) in col.iter().enumerate() {
                        panel[p * PACK_NR + jl] = v;
                    }
                } else {
                    for p in 0..k {
                        panel[p * PACK_NR + jl] = S::ZERO;
                    }
                }
            }
        }
    }
}

/// Packs the ± sum of up to [`MAX_FUSE_TERMS`] equal-shape `m × k`
/// operands into `buf` in the exact [`pack_a`] panel format (MR row
/// panels, k-major, zero-padded tails): `buf` receives
/// `Σ ±terms[t].0` combined *during* the single packing pass, so a fused
/// Strassen pre-addition costs no extra sweep over memory and no
/// temporary operand buffer.
///
/// `terms[t].1 == true` negates that term. A one-term call is exactly
/// [`pack_a`].
///
/// # Panics
/// When `terms` is empty or exceeds [`MAX_FUSE_TERMS`], on shape
/// disagreement between terms, or when `buf` is shorter than
/// [`packed_a_len`].
#[track_caller]
pub fn pack_a_sum<S: Scalar>(terms: &[(MatRef<'_, S>, bool)], buf: &mut [S]) {
    let k = terms.first().map_or(0, |t| t.0.cols());
    pack_a_sum_at(terms, buf, k, 0);
}

/// [`pack_a_sum`] into rows `p0 .. p0 + k` of `kt`-deep panels: the
/// `m × k` terms become k-slice `p0` of an `m × kt` packed operand
/// (`buf` holds [`packed_a_len`]`(m, kt)` elements). Packing the `kt / k`
/// column blocks of a block row this way packs the whole row once, for
/// one microkernel sweep over `kt` — the packed Morton terminal packs a
/// row of leaf tiles so.
///
/// # Panics
/// As [`pack_a_sum`], and when `p0 + k > kt`.
#[track_caller]
pub fn pack_a_sum_at<S: Scalar>(
    terms: &[(MatRef<'_, S>, bool)],
    buf: &mut [S],
    kt: usize,
    p0: usize,
) {
    assert!(
        !terms.is_empty() && terms.len() <= MAX_FUSE_TERMS,
        "pack_a_sum takes 1..={MAX_FUSE_TERMS} terms, got {}",
        terms.len()
    );
    let (m, k) = terms[0].0.dims();
    for (t, _) in terms {
        assert_eq!(t.dims(), (m, k), "pack_a_sum term shape mismatch");
    }
    assert!(p0 + k <= kt, "pack_a_sum k-slice {p0}+{k} exceeds panel depth {kt}");
    let need = packed_a_len(m, kt);
    assert!(buf.len() >= need, "pack_a_sum buffer too small: {} < {need}", buf.len());
    // First term writes (so a one-term call costs a — possibly negated —
    // `pack_a`), the remaining terms accumulate; each pass keeps
    // `pack_a`'s panel loop shape.
    let (&(t0, neg0), rest) = terms.split_first().unwrap();
    for pi in 0..m.div_ceil(PACK_MR) {
        let i0 = pi * PACK_MR;
        let mb = PACK_MR.min(m - i0);
        let base = pi * PACK_MR * kt + p0 * PACK_MR;
        for p in 0..k {
            let src = &t0.col(p)[i0..i0 + mb];
            let dst = &mut buf[base + p * PACK_MR..base + (p + 1) * PACK_MR];
            if neg0 {
                for (x, &v) in dst.iter_mut().zip(src) {
                    *x = -v;
                }
            } else {
                dst[..mb].copy_from_slice(src);
            }
            // The tail rows [mb..MR] stay zero padding across all terms.
            dst[mb..].fill(S::ZERO);
        }
        for &(t, neg) in rest {
            for p in 0..k {
                let src = &t.col(p)[i0..i0 + mb];
                let dst = &mut buf[base + p * PACK_MR..base + p * PACK_MR + mb];
                add_signed(dst, src, neg);
            }
        }
    }
}

/// Packs the ± sum of up to [`MAX_FUSE_TERMS`] equal-shape `k × n`
/// operands into `buf` in the exact [`pack_b`] panel format (NR column
/// panels, k-major, zero-padded tails) — the B-side twin of
/// [`pack_a_sum`].
///
/// # Panics
/// When `terms` is empty or exceeds [`MAX_FUSE_TERMS`], on shape
/// disagreement between terms, or when `buf` is shorter than
/// [`packed_b_len`].
#[track_caller]
pub fn pack_b_sum<S: Scalar>(terms: &[(MatRef<'_, S>, bool)], buf: &mut [S]) {
    let k = terms.first().map_or(0, |t| t.0.rows());
    pack_b_sum_at(terms, buf, k, 0);
}

/// [`pack_b_sum`] into rows `p0 .. p0 + k` of `kt`-deep panels — the
/// B-side twin of [`pack_a_sum_at`]: `buf` holds
/// [`packed_b_len`]`(kt, n)` elements, and the `k × n` terms become its
/// k-slice `p0`.
///
/// # Panics
/// As [`pack_b_sum`], and when `p0 + k > kt`.
#[track_caller]
pub fn pack_b_sum_at<S: Scalar>(
    terms: &[(MatRef<'_, S>, bool)],
    buf: &mut [S],
    kt: usize,
    p0: usize,
) {
    assert!(
        !terms.is_empty() && terms.len() <= MAX_FUSE_TERMS,
        "pack_b_sum takes 1..={MAX_FUSE_TERMS} terms, got {}",
        terms.len()
    );
    let (k, n) = terms[0].0.dims();
    for (t, _) in terms {
        assert_eq!(t.dims(), (k, n), "pack_b_sum term shape mismatch");
    }
    assert!(p0 + k <= kt, "pack_b_sum k-slice {p0}+{k} exceeds panel depth {kt}");
    let need = packed_b_len(kt, n);
    assert!(buf.len() >= need, "pack_b_sum buffer too small: {} < {need}", buf.len());
    let (&(t0, neg0), rest) = terms.split_first().unwrap();
    for pj in 0..n.div_ceil(PACK_NR) {
        let j0 = pj * PACK_NR;
        let nb = PACK_NR.min(n - j0);
        let base = pj * PACK_NR * kt + p0 * PACK_NR;
        let panel = &mut buf[base..base + PACK_NR * k];
        if nb == PACK_NR {
            // Full panel: transpose k×NR blocks column-set-at-a-time —
            // the first term writes all NR interleaved entries per p,
            // the remaining terms accumulate in the same shape.
            let c: [&[S]; PACK_NR] = core::array::from_fn(|jl| &t0.col(j0 + jl)[..k]);
            for (p, d) in panel.chunks_exact_mut(PACK_NR).enumerate() {
                for jl in 0..PACK_NR {
                    d[jl] = if neg0 { -c[jl][p] } else { c[jl][p] };
                }
            }
            for &(t, neg) in rest {
                let c: [&[S]; PACK_NR] = core::array::from_fn(|jl| &t.col(j0 + jl)[..k]);
                for (p, d) in panel.chunks_exact_mut(PACK_NR).enumerate() {
                    for jl in 0..PACK_NR {
                        if neg {
                            d[jl] -= c[jl][p];
                        } else {
                            d[jl] += c[jl][p];
                        }
                    }
                }
            }
        } else {
            // Ragged tail panel: zero once (live columns and padding
            // alike), then accumulate every term into the live columns.
            panel.fill(S::ZERO);
            for &(t, neg) in terms {
                for jl in 0..nb {
                    let col = &t.col(j0 + jl)[..k];
                    for (p, &v) in col.iter().enumerate() {
                        if neg {
                            panel[p * PACK_NR + jl] -= v;
                        } else {
                            panel[p * PACK_NR + jl] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Adds (`neg == false`) or subtracts `src` into `dst`, elementwise over
/// the shorter of the two.
#[inline(always)]
fn add_signed<S: Scalar>(dst: &mut [S], src: &[S], neg: bool) {
    if neg {
        for (x, &v) in dst.iter_mut().zip(src) {
            *x -= v;
        }
    } else {
        for (x, &v) in dst.iter_mut().zip(src) {
            *x += v;
        }
    }
}

/// The portable microkernel body, a [`ScatterMicroKernelFn`]: accumulates
/// the `MR × NR` product of one A panel and one B panel into
/// `PACK_MR · PACK_NR` local accumulators, then adds it ± into each full
/// `MR × NR` destination window. The compiler unrolls the fixed-size
/// accumulator loops. It is the body for scalars without a vector body
/// (`i64`, complex), for hosts without a vector unit and under Miri, and
/// the reference the SIMD bodies are tested against.
///
/// # Safety
/// The [`ScatterMicroKernelFn`] contract; it needs no CPU feature.
pub unsafe fn microkernel_scatter_generic<S: Scalar>(
    k: usize,
    a: *const S,
    b: *const S,
    dests: *const *mut S,
    ndests: usize,
    neg_mask: u32,
    ldc: usize,
) {
    let a = core::slice::from_raw_parts(a, PACK_MR * k);
    let b = core::slice::from_raw_parts(b, PACK_NR * k);
    let mut acc = [[S::ZERO; PACK_MR]; PACK_NR];
    for (ac, br) in a.chunks_exact(PACK_MR).zip(b.chunks_exact(PACK_NR)) {
        for (col, &bv) in acc.iter_mut().zip(br) {
            for (x, &av) in col.iter_mut().zip(ac) {
                *x = av.madd(bv, *x);
            }
        }
    }
    for d in 0..ndests {
        let base = *dests.add(d);
        for (j, col) in acc.iter().enumerate() {
            let cj = core::slice::from_raw_parts_mut(base.add(j * ldc), PACK_MR);
            add_signed(cj, col, neg_mask & (1 << d) != 0);
        }
    }
}

/// The portable block body (tests only): the `2·MR × 2·NR` block as four
/// [`microkernel_scatter_generic`] calls at the block's panel offsets,
/// each into its `MR × NR` quarter of every destination. It is the
/// reference the vector block body is checked against, and it drives the
/// sweep's block pass under Miri, where no vector body is selected.
///
/// # Safety
/// The block-body contract of [`crate::simd::block_microkernel_f64`].
#[cfg(test)]
pub(crate) unsafe fn microkernel_block_generic<S: Scalar>(
    k: usize,
    a: *const S,
    b: *const S,
    dests: *const *mut S,
    ndests: usize,
    neg_mask: u32,
    ldc: usize,
) {
    for (bi, bj) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
        let w: [*mut S; MAX_FUSE_TERMS] = core::array::from_fn(|d| {
            if d < ndests {
                (*dests.add(d)).add(bi * PACK_MR + bj * PACK_NR * ldc)
            } else {
                core::ptr::null_mut()
            }
        });
        let (ap, bp) = (a.add(bi * PACK_MR * k), b.add(bj * PACK_NR * k));
        microkernel_scatter_generic(k, ap, bp, w.as_ptr(), ndests, neg_mask, ldc);
    }
}

/// Runs `body` on one edge tile and writes back only its live window.
/// The panels are zero-padded, so the body computes the full `MR × NR`
/// tile, here into a local buffer; the live `mb × nb` part of that
/// buffer is then added ± into each destination. Kept out of line so the
/// driver's interior loop stays small.
///
/// # Safety
/// `a`, `b` and `body` meet the [`ScatterMicroKernelFn`] contract; each
/// `dests[d]` addresses a writable column-major `mb × nb` window with
/// leading dimension `ldc ≥ mb`, the windows are pairwise disjoint, and
/// bit `d` of `neg_mask` is destination `d`'s sign.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
unsafe fn edge_tile<S: Scalar>(
    body: ScatterMicroKernelFn<S>,
    k: usize,
    a: *const S,
    b: *const S,
    dests: &[*mut S],
    neg_mask: u32,
    ldc: usize,
    mb: usize,
    nb: usize,
) {
    debug_assert!(mb <= PACK_MR && nb <= PACK_NR);
    let mut tile = [S::ZERO; PACK_MR * PACK_NR];
    let tp = tile.as_mut_ptr();
    body(k, a, b, &tp, 1, 0, PACK_MR);
    for (d, &base) in dests.iter().enumerate() {
        for (j, col) in tile.chunks_exact(PACK_MR).take(nb).enumerate() {
            let cj = core::slice::from_raw_parts_mut(base.add(j * ldc), mb);
            add_signed(cj, col, neg_mask & (1 << d) != 0);
        }
    }
}

/// One leaf product through the packed pipeline: `(Σ ±Aᵢ)·(Σ ±Bⱼ)` is
/// packed by [`pack_a_sum`] / [`pack_b_sum`] into `ws`, then added ± into
/// every destination by one microkernel sweep. The sweep runs the host's
/// vector body from [`crate::simd`] when the scalar has one, and the
/// portable [`microkernel_scatter_generic`] otherwise. Interior tiles run
/// the body straight into the destinations; edge tiles run it into a
/// local `MR × NR` buffer and add out only their live window. One term
/// and one destination is a plain `C += A·B` ([`packed_mul_add_in`]);
/// more are the fused Strassen leaf.
///
/// Every destination is a column-major `m × n` window with leading
/// dimension `ldc ≥ m`, at least [`required_len`]`(m, n, ldc)` elements
/// long. `ws` needs [`packed_len`]`(m, k, n)` elements — the same packing
/// slot a plain leaf uses; fusion adds no workspace.
///
/// # Panics
/// On term/destination counts outside `1..=`[`MAX_FUSE_TERMS`], shape
/// mismatches, `ldc < m`, undersized destinations, or an undersized `ws`.
#[track_caller]
pub fn packed_mul_scatter_in<S: Scalar>(
    a_terms: &[(MatRef<'_, S>, bool)],
    b_terms: &[(MatRef<'_, S>, bool)],
    dests: &mut [(&mut [S], bool)],
    ldc: usize,
    ws: &mut [S],
) {
    assert!(!a_terms.is_empty() && !b_terms.is_empty(), "fused product needs operand terms");
    assert!(
        !dests.is_empty() && dests.len() <= MAX_FUSE_TERMS,
        "fused product takes 1..={MAX_FUSE_TERMS} destinations, got {}",
        dests.len()
    );
    let (m, k) = a_terms[0].0.dims();
    let (kb, n) = b_terms[0].0.dims();
    assert_eq!(k, kb, "inner dimension mismatch");
    assert!(ldc >= m.max(1), "leading dimension {ldc} < rows {m}");
    let need_c = required_len(m, n, ldc);
    for (d, _) in dests.iter() {
        assert!(d.len() >= need_c, "destination tile too small: {} < {need_c}", d.len());
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let need = packed_len(m, k, n);
    assert!(ws.len() >= need, "packing workspace too small: {} < {need}", ws.len());
    let (abuf, rest) = ws.split_at_mut(packed_a_len(m, k));
    let bbuf = &mut rest[..packed_b_len(k, n)];
    pack_a_sum(a_terms, abuf);
    pack_b_sum(b_terms, bbuf);

    let mut dptrs = [core::ptr::null_mut::<S>(); MAX_FUSE_TERMS];
    let mut neg_mask = 0u32;
    for (i, (dest, neg)) in dests.iter_mut().enumerate() {
        dptrs[i] = dest.as_mut_ptr();
        neg_mask |= u32::from(*neg) << i;
    }
    // SAFETY: each destination was checked to hold the m×n window with
    // leading dimension ldc ≥ m, and the destinations are distinct
    // exclusive borrows.
    unsafe { packed_sweep(abuf, bbuf, m, k, n, &dptrs[..dests.len()], neg_mask, ldc) }
}

/// The microkernel sweep of [`packed_mul_scatter_in`] over operands
/// already packed: `abuf` holds the [`pack_a`]-format panels of an
/// `m × k` operand, `bbuf` the [`pack_b`]-format panels of a `k × n`
/// one, and the `m × n` product is added ± into every destination.
///
/// The sweep runs in two passes over the unchanged panel format. When the
/// scalar has a block body ([`Scalar::packed_block_microkernel`]: `f64`
/// on an AVX-512F host), 2×2 blocks of *full* panels first run through it
/// as `2·MR × 2·NR` tiles. Every remaining tile (a leftover panel row or
/// column, or a ragged edge) then runs the `MR × NR` body: the host's
/// vector body from [`crate::simd`] when the scalar has one, else the
/// portable [`microkernel_scatter_generic`]. Interior tiles run straight
/// into the destinations; edge tiles run into a local `MR × NR` buffer
/// and add out only their live window. Each output element is one FMA
/// chain over `p = 0..k` added to each destination once, whichever body
/// computes it, so the block pass changes no output bit.
///
/// Callers that pack once and sweep many times (the packed Morton
/// terminal reuses one packed row block against every B panel of a
/// column group) call this directly.
///
/// # Safety
/// Each `dests[d]` addresses a writable column-major `m × n` window with
/// leading dimension `ldc ≥ m` that nothing else accesses during the
/// call, the windows are pairwise disjoint, and bit `d` of `neg_mask` is
/// destination `d`'s sign.
///
/// # Panics
/// On more than [`MAX_FUSE_TERMS`] destinations, or when `abuf` / `bbuf`
/// are shorter than [`packed_a_len`]`(m, k)` / [`packed_b_len`]`(k, n)`.
#[allow(clippy::too_many_arguments)]
#[track_caller]
pub unsafe fn packed_sweep<S: Scalar>(
    abuf: &[S],
    bbuf: &[S],
    m: usize,
    k: usize,
    n: usize,
    dests: &[*mut S],
    neg_mask: u32,
    ldc: usize,
) {
    let body = S::packed_scatter_microkernel().unwrap_or(microkernel_scatter_generic::<S>);
    sweep_with(body, S::packed_block_microkernel(), abuf, bbuf, m, k, n, dests, neg_mask, ldc);
}

/// [`packed_sweep`] with its bodies given: `block`, when present, runs
/// every 2×2 block of full panels, and `body` every other tile.
///
/// # Safety
/// As [`packed_sweep`], and `body` / `block` meet the
/// [`ScatterMicroKernelFn`] contract on `MR × NR` / `2·MR × 2·NR` tiles.
#[allow(clippy::too_many_arguments)]
#[track_caller]
unsafe fn sweep_with<S: Scalar>(
    body: ScatterMicroKernelFn<S>,
    block: Option<ScatterMicroKernelFn<S>>,
    abuf: &[S],
    bbuf: &[S],
    m: usize,
    k: usize,
    n: usize,
    dests: &[*mut S],
    neg_mask: u32,
    ldc: usize,
) {
    assert!(dests.len() <= MAX_FUSE_TERMS, "at most {MAX_FUSE_TERMS} destinations");
    assert!(abuf.len() >= packed_a_len(m, k) && bbuf.len() >= packed_b_len(k, n));
    let nd = dests.len();
    // SAFETY (both passes): the tile's window at (i0, j0) — 2·MR×2·NR for
    // a block, MR×NR inside, mb×nb at an edge — lies within each
    // destination's m×n window (caller contract), the panels at `ap`/`bp`
    // hold the MR·k / NR·k elements per panel the body reads, and a
    // vector body came from the runtime feature detector.
    let tile_ptrs = |i0: usize, j0: usize| -> [*mut S; MAX_FUSE_TERMS] {
        core::array::from_fn(|d| {
            dests.get(d).map_or(core::ptr::null_mut(), |p| p.add(i0 + j0 * ldc))
        })
    };
    // Panel rows and columns covered by 2×2 blocks of full panels.
    let (bm, bn) = match block {
        Some(_) => (m / (2 * PACK_MR) * 2, n / (2 * PACK_NR) * 2),
        None => (0, 0),
    };
    for pj in 0..n.div_ceil(PACK_NR) {
        let j0 = pj * PACK_NR;
        let nb = PACK_NR.min(n - j0);
        let bp = bbuf[pj * PACK_NR * k..].as_ptr();
        // Panel columns pj and pj + 1 of a block column: the first runs
        // the column's blocks, both then run the rows below them.
        if let Some(block) = block.filter(|_| pj < bn && pj % 2 == 0) {
            for pi in (0..bm).step_by(2) {
                let ap = abuf[pi * PACK_MR * k..].as_ptr();
                let w = tile_ptrs(pi * PACK_MR, j0);
                block(k, ap, bp, w.as_ptr(), nd, neg_mask, ldc);
            }
        }
        let pi0 = if pj < bn { bm } else { 0 };
        for pi in pi0..m.div_ceil(PACK_MR) {
            let i0 = pi * PACK_MR;
            let mb = PACK_MR.min(m - i0);
            let ap = abuf[pi * PACK_MR * k..].as_ptr();
            let w = tile_ptrs(i0, j0);
            if mb == PACK_MR && nb == PACK_NR {
                body(k, ap, bp, w.as_ptr(), nd, neg_mask, ldc);
            } else {
                edge_tile(body, k, ap, bp, &w[..nd], neg_mask, ldc, mb, nb);
            }
        }
    }
}

/// `C += A·B` through the packed pipeline: the one-term, one-destination
/// case of [`packed_mul_scatter_in`], writing the strided view `c`.
///
/// `ws` must hold at least [`packed_len`]`(m, k, n)` elements; its
/// contents are clobbered. Callers on the planned hot path hand in an
/// arena slice so this function never allocates.
///
/// # Panics
/// On dimension mismatch or an undersized `ws`.
#[track_caller]
pub fn packed_mul_add_in<S: Scalar>(
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    mut c: MatMut<'_, S>,
    ws: &mut [S],
) {
    let (m, n) = (a.rows(), b.cols());
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.dims(), (m, n), "output dimension mismatch");
    let ldc = c.ld();
    // SAFETY: the slice runs from the first to the last element of `c`'s
    // m×n window (leading dimension ldc), all inside the buffer `c`
    // points into. It lives for this call only, and the packed sweep
    // reads and writes only the window's own elements, which `c` borrows
    // exclusively; the rows between its columns are never touched.
    let cs = unsafe { core::slice::from_raw_parts_mut(c.as_mut_ptr(), required_len(m, n, ldc)) };
    packed_mul_scatter_in(&[(a, false)], &[(b, false)], &mut [(cs, false)], ldc, ws);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::naive::naive_product;
    use crate::norms::assert_matrix_eq;
    use crate::Matrix;

    #[test]
    fn packed_lengths_closed_form() {
        assert_eq!(packed_a_len(8, 5), 8 * 5);
        assert_eq!(packed_a_len(9, 5), 16 * 5); // one ragged row panel
        assert_eq!(packed_b_len(5, 4), 4 * 5);
        assert_eq!(packed_b_len(5, 6), 8 * 5); // one ragged column panel
        assert_eq!(packed_len(9, 5, 6), 16 * 5 + 8 * 5);
        assert_eq!(packed_len(0, 0, 0), 0);
    }

    #[test]
    fn pack_a_layout_and_zero_padding() {
        // 3×2: one panel of 8 rows, 5 of them padding.
        let a = Matrix::from_fn(3, 2, |i, j| (10 * i + j) as i64);
        let mut buf = vec![-1i64; packed_a_len(3, 2)];
        pack_a(a.view(), &mut buf);
        for p in 0..2 {
            for i in 0..PACK_MR {
                let want = if i < 3 { (10 * i + p) as i64 } else { 0 };
                assert_eq!(buf[p * PACK_MR + i], want, "p={p} i={i}");
            }
        }
    }

    #[test]
    fn pack_b_layout_and_zero_padding() {
        // 2×5: two column panels, the second 3 columns short.
        let b = Matrix::from_fn(2, 5, |i, j| (10 * i + j) as i64);
        let mut buf = vec![-1i64; packed_b_len(2, 5)];
        pack_b(b.view(), &mut buf);
        for p in 0..2 {
            for j in 0..PACK_NR {
                assert_eq!(buf[p * PACK_NR + j], (10 * p + j) as i64);
                let second = buf[PACK_NR * 2 + p * PACK_NR + j];
                let want = if j < 1 { (10 * p + j + 4) as i64 } else { 0 };
                assert_eq!(second, want, "p={p} j={j}");
            }
        }
    }

    #[test]
    fn packing_respects_strided_views() {
        let base: Matrix<i64> = random_matrix(12, 12, 3);
        let v = base.view().submatrix(2, 1, 7, 6); // ld = 12 != rows
        let mut strided = vec![0i64; packed_a_len(7, 6)];
        pack_a(v, &mut strided);
        let copy = Matrix::from_vec(v.to_vec(), 7, 6);
        let mut contiguous = vec![0i64; packed_a_len(7, 6)];
        pack_a(copy.view(), &mut contiguous);
        assert_eq!(strided, contiguous);
    }

    #[test]
    fn packed_mul_matches_naive_over_shapes() {
        // Shapes hit full tiles, ragged row tails, ragged column tails,
        // and sub-register sizes.
        for (m, k, n) in [(8, 4, 4), (16, 8, 12), (7, 6, 5), (9, 9, 9), (1, 1, 1), (23, 17, 10)] {
            let a: Matrix<i64> = random_matrix(m, k, (m + k) as u64);
            let b: Matrix<i64> = random_matrix(k, n, (k + n) as u64);
            let mut c: Matrix<i64> = Matrix::zeros(m, n);
            let mut ws = vec![0i64; packed_len(m, k, n)];
            packed_mul_add_in(a.view(), b.view(), c.view_mut(), &mut ws);
            assert_eq!(c, naive_product(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_mul_accumulates_into_c() {
        let (m, k, n) = (10, 6, 7);
        let a: Matrix<f64> = random_matrix(m, k, 5);
        let b: Matrix<f64> = random_matrix(k, n, 6);
        let base: Matrix<f64> = random_matrix(m, n, 7);
        let mut c = base.clone();
        let mut ws = vec![0.0; packed_len(m, k, n)];
        packed_mul_add_in(a.view(), b.view(), c.view_mut(), &mut ws);
        let mut want = naive_product(&a, &b);
        for j in 0..n {
            for i in 0..m {
                let v = want.get(i, j) + base.get(i, j);
                want.set(i, j, v);
            }
        }
        assert_matrix_eq(c.view(), want.view(), k);
    }

    #[test]
    fn pack_a_sum_matches_pack_a_of_combined_operand() {
        // Ragged shape (one padded row panel) over a strided view, with
        // 1..=MAX_FUSE_TERMS ± terms: the combined pack must equal
        // packing the explicitly combined matrix.
        let base: Matrix<i64> = random_matrix(14, 9, 17);
        let views: Vec<_> = (0..MAX_FUSE_TERMS)
            .map(|t| base.view().submatrix(t % 3, t % 2, 11, 7)) // ld = 14
            .collect();
        let negs = [false, true, false, true];
        for nterms in 1..=MAX_FUSE_TERMS {
            let terms: Vec<_> = (0..nterms).map(|t| (views[t], negs[t])).collect();
            let mut got = vec![-7i64; packed_a_len(11, 7)];
            pack_a_sum(&terms, &mut got);

            let mut combined = Matrix::<i64>::zeros(11, 7);
            for (v, neg) in &terms {
                for j in 0..7 {
                    for i in 0..11 {
                        let s = if *neg { -v.get(i, j) } else { v.get(i, j) };
                        combined.set(i, j, combined.get(i, j) + s);
                    }
                }
            }
            let mut want = vec![-7i64; packed_a_len(11, 7)];
            pack_a(combined.view(), &mut want);
            assert_eq!(got, want, "nterms = {nterms}");
        }
    }

    #[test]
    fn pack_b_sum_matches_pack_b_of_combined_operand() {
        let base: Matrix<i64> = random_matrix(12, 11, 18);
        let views: Vec<_> =
            (0..MAX_FUSE_TERMS).map(|t| base.view().submatrix(t % 2, t % 3, 7, 6)).collect();
        let negs = [true, false, true, false];
        for nterms in 1..=MAX_FUSE_TERMS {
            let terms: Vec<_> = (0..nterms).map(|t| (views[t], negs[t])).collect();
            let mut got = vec![-7i64; packed_b_len(7, 6)];
            pack_b_sum(&terms, &mut got);

            let mut combined = Matrix::<i64>::zeros(7, 6);
            for (v, neg) in &terms {
                for j in 0..6 {
                    for i in 0..7 {
                        let s = if *neg { -v.get(i, j) } else { v.get(i, j) };
                        combined.set(i, j, combined.get(i, j) + s);
                    }
                }
            }
            let mut want = vec![-7i64; packed_b_len(7, 6)];
            pack_b(combined.view(), &mut want);
            assert_eq!(got, want, "nterms = {nterms}");
        }
    }

    #[test]
    fn single_term_sum_packs_are_exactly_plain_packs() {
        let a: Matrix<i64> = random_matrix(9, 5, 19);
        let mut sum = vec![0i64; packed_a_len(9, 5)];
        let mut plain = vec![0i64; packed_a_len(9, 5)];
        pack_a_sum(&[(a.view(), false)], &mut sum);
        pack_a(a.view(), &mut plain);
        assert_eq!(sum, plain);
        let b: Matrix<i64> = random_matrix(5, 9, 20);
        let mut sum = vec![0i64; packed_b_len(5, 9)];
        let mut plain = vec![0i64; packed_b_len(5, 9)];
        pack_b_sum(&[(b.view(), false)], &mut sum);
        pack_b(b.view(), &mut plain);
        assert_eq!(sum, plain);
    }

    /// One packed A panel and one packed B panel of small integers,
    /// and their exact `MR × NR` product tile (column-major, ld MR).
    fn panels_and_tile(k: usize) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
        let a: Vec<i64> = (0..PACK_MR * k).map(|i| (i as i64 * 3 + 1) % 11 - 5).collect();
        let b: Vec<i64> = (0..PACK_NR * k).map(|i| (i as i64 * 7 + 2) % 13 - 6).collect();
        let tile = (0..PACK_MR * PACK_NR)
            .map(|t| {
                let (i, j) = (t % PACK_MR, t / PACK_MR);
                (0..k).map(|p| a[p * PACK_MR + i] * b[p * PACK_NR + j]).sum()
            })
            .collect();
        (a, b, tile)
    }

    /// Checks `got` (one buffer per destination, leading dimension `ldc`)
    /// against `init ± tile` inside the `mb × nb` window and `init`
    /// everywhere else.
    #[allow(clippy::too_many_arguments)]
    fn assert_window(
        got: &[Vec<i64>],
        init: &[Vec<i64>],
        tile: &[i64],
        negs: &[bool],
        ldc: usize,
        mb: usize,
        nb: usize,
    ) {
        for (d, (g, w0)) in got.iter().zip(init).enumerate() {
            for (idx, (&gv, &w)) in g.iter().zip(w0).enumerate() {
                let (i, j) = (idx % ldc, idx / ldc);
                let want = match (i < mb && j < nb, negs[d]) {
                    (false, _) => w,
                    (true, false) => w + tile[i + j * PACK_MR],
                    (true, true) => w - tile[i + j * PACK_MR],
                };
                assert_eq!(gv, want, "{mb}x{nb} window, dest {d} ({i},{j})");
            }
        }
    }

    /// `ndests` pre-filled destination buffers of `ldc · NR` elements.
    fn prefilled(ndests: usize, ldc: usize) -> Vec<Vec<i64>> {
        (0..ndests).map(|d| (0..ldc * PACK_NR).map(|i| (i + d) as i64 % 9).collect()).collect()
    }

    #[test]
    fn scatter_generic_matches_staged_add_sub() {
        // The portable body scattering one full tile ± into up to
        // MAX_FUSE_TERMS destinations must equal computing the product
        // tile once and staging the adds/subtracts — exactly, on i64 —
        // and must leave the rows between ldc-strided columns alone.
        let k = 6;
        let (a, b, tile) = panels_and_tile(k);
        let ldc = PACK_MR + 2;
        let negs = [false, true, false, true];
        for ndests in 1..=MAX_FUSE_TERMS {
            let init = prefilled(ndests, ldc);
            let mut got = init.clone();
            let ptrs: Vec<*mut i64> = got.iter_mut().map(|g| g.as_mut_ptr()).collect();
            let neg_mask = (0..ndests).fold(0u32, |m, d| m | u32::from(negs[d]) << d);
            // SAFETY: panels are MR·k / NR·k long; each destination is its
            // own MR×NR window with ldc ≥ MR.
            unsafe {
                microkernel_scatter_generic(
                    k,
                    a.as_ptr(),
                    b.as_ptr(),
                    ptrs.as_ptr(),
                    ndests,
                    neg_mask,
                    ldc,
                )
            };
            assert_window(&got, &init, &tile, &negs, ldc, PACK_MR, PACK_NR);
        }
    }

    #[test]
    fn edge_tile_adds_only_the_live_window() {
        // The edge write-back with the portable body, on every (mb, nb)
        // an edge tile can have and 1..=MAX_FUSE_TERMS ± destinations:
        // inside the window each destination gets exactly ± the product
        // tile, outside it nothing changes. Under Miri this is the
        // coverage of the raw-pointer window write-back.
        let k = 5;
        let (a, b, tile) = panels_and_tile(k);
        let ldc = PACK_MR + 2;
        let negs = [true, false, false, true];
        for mb in 1..=PACK_MR {
            for nb in 1..=PACK_NR {
                for ndests in 1..=MAX_FUSE_TERMS {
                    let init = prefilled(ndests, ldc);
                    let mut got = init.clone();
                    let ptrs: Vec<*mut i64> = got.iter_mut().map(|g| g.as_mut_ptr()).collect();
                    let neg_mask = (0..ndests).fold(0u32, |m, d| m | u32::from(negs[d]) << d);
                    // SAFETY: panels are MR·k / NR·k long; each destination
                    // is its own buffer holding an mb×nb window at ldc ≥ mb.
                    unsafe {
                        edge_tile(
                            microkernel_scatter_generic::<i64>,
                            k,
                            a.as_ptr(),
                            b.as_ptr(),
                            &ptrs,
                            neg_mask,
                            ldc,
                            mb,
                            nb,
                        )
                    };
                    assert_window(&got, &init, &tile, &negs, ldc, mb, nb);
                }
            }
        }
    }

    /// Integer-valued operands in `[-4, 4]`: every product and partial
    /// sum of a leaf is exact in `f32` and `f64`, with or without FMA.
    fn int_valued<S: Scalar>(rows: usize, cols: usize, seed: usize) -> Matrix<S> {
        Matrix::from_fn(rows, cols, |i, j| S::from_f64(((i * 7 + j * 13 + seed) % 9) as f64 - 4.0))
    }

    /// Every edge remainder of the register tile (`m` in 1..=3·MR+1, `n`
    /// in 1..=3·NR+1) through `Packed::mul_add_in` on a strided `C` and
    /// through the scatter driver into 1..=MAX_FUSE_TERMS ± destinations,
    /// bitwise against `naive_product`. On a SIMD host this drives the
    /// vector body on interior and edge tiles alike; with a block body
    /// one sweep mixes 2×2 blocks, leftover single panels and ragged edges.
    fn vector_path_is_exact<S: Scalar>() {
        use crate::kernel::{LeafKernel, Packed};
        let bits = |x: S| x.to_f64().to_bits();
        let negs = [false, true, true, false];
        for k in [1, 7, 33] {
            for m in 1..=3 * PACK_MR + 1 {
                for n in 1..=3 * PACK_NR + 1 {
                    let a: Matrix<S> = int_valued(m, k, 1);
                    let b: Matrix<S> = int_valued(k, n, 2);
                    let p = naive_product(&a, &b);
                    let ldc = m + 3;
                    let init = |d: usize| -> Vec<S> {
                        (0..ldc * n).map(|i| S::from_f64(((i + 3 * d) % 5) as f64)).collect()
                    };
                    let check = |got: &[S], d: usize, neg: bool| {
                        for (idx, (&g, w0)) in got.iter().zip(init(d)).enumerate() {
                            let (i, j) = (idx % ldc, idx / ldc);
                            let want = match (i < m, neg) {
                                (false, _) => w0,
                                (true, false) => w0 + p.get(i, j),
                                (true, true) => w0 - p.get(i, j),
                            };
                            assert_eq!(bits(g), bits(want), "{m}x{k}x{n} dest {d} ({i},{j})");
                        }
                    };
                    let mut ws = vec![S::ZERO; packed_len(m, k, n)];

                    let mut c = init(0);
                    Packed.mul_add_in(
                        a.view(),
                        b.view(),
                        MatMut::from_slice(&mut c, m, n, ldc),
                        &mut ws,
                    );
                    check(&c, 0, false);

                    for ndests in 1..=MAX_FUSE_TERMS {
                        let mut bufs: Vec<Vec<S>> = (0..ndests).map(init).collect();
                        let mut dests: Vec<(&mut [S], bool)> = bufs
                            .iter_mut()
                            .zip(negs)
                            .map(|(buf, neg)| (buf.as_mut_slice(), neg))
                            .collect();
                        packed_mul_scatter_in(
                            &[(a.view(), false)],
                            &[(b.view(), false)],
                            &mut dests,
                            ldc,
                            &mut ws,
                        );
                        for (d, buf) in bufs.iter().enumerate() {
                            check(buf, d, negs[d]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri forces the portable body, which edge_tile_* covers")]
    fn vector_path_is_exact_on_integer_valued_f64() {
        if f64::packed_block_microkernel().is_none() {
            eprintln!("block pass skipped: no f64 block body on this host (needs AVX-512F)");
        }
        vector_path_is_exact::<f64>();
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri forces the portable body, which edge_tile_* covers")]
    fn vector_path_is_exact_on_integer_valued_f32() {
        vector_path_is_exact::<f32>();
    }

    /// Sweeps 2-term packed operands into two ± destinations (leading
    /// dimension above `m`, random prefill) once with `block` and once
    /// with `body` alone, and asserts the two results equal bit for bit.
    fn assert_block_pass_is_tile_pass<S: Scalar>(
        body: ScatterMicroKernelFn<S>,
        block: ScatterMicroKernelFn<S>,
        shapes: &[(usize, usize, usize)],
    ) {
        let bits = |v: &[S]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        for (s, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = 100 * s as u64;
            let (a1, a2) = (random_matrix::<S>(m, k, seed), random_matrix::<S>(m, k, seed + 1));
            let (b1, b2) = (random_matrix::<S>(k, n, seed + 2), random_matrix::<S>(k, n, seed + 3));
            let mut abuf = vec![S::ZERO; packed_a_len(m, k)];
            let mut bbuf = vec![S::ZERO; packed_b_len(k, n)];
            pack_a_sum(&[(a1.view(), false), (a2.view(), true)], &mut abuf);
            pack_b_sum(&[(b1.view(), true), (b2.view(), false)], &mut bbuf);
            let ldc = m + 5;
            let init: Vec<S> = random_matrix::<S>(ldc, 2 * n, seed + 4).as_slice().to_vec();
            let run = |block: Option<ScatterMicroKernelFn<S>>| {
                let mut out = init.clone();
                let base = out.as_mut_ptr();
                // SAFETY: the two m×n windows (ld ldc ≥ m) are the disjoint
                // column ranges 0..n and n..2n of `out`, and the panels
                // were packed for m×k and k×n.
                unsafe {
                    let dests = [base, base.add(n * ldc)];
                    sweep_with(body, block, &abuf, &bbuf, m, k, n, &dests, 0b10, ldc);
                }
                out
            };
            assert_eq!(bits(&run(Some(block))), bits(&run(None)), "{m}x{k}x{n}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri selects no vector body; the portable block test covers it")]
    fn block_body_sweep_is_bitwise_the_tile_sweep_on_random_f64() {
        let Some(block) = f64::packed_block_microkernel() else {
            eprintln!("skipped: no f64 block body on this host (needs AVX-512F)");
            return;
        };
        let body = f64::packed_scatter_microkernel().expect("a block host has a tile body");
        let mut shapes = vec![(48, 320, 44), (40, 352, 40), (33, 264, 36), (64, 64, 64)];
        for m in [8, 16, 17, 24, 32, 41] {
            for n in [4, 8, 9, 12, 16, 21] {
                shapes.extend([(m, 1, n), (m, 13, n)]);
            }
        }
        assert_block_pass_is_tile_pass(body, block, &shapes);
    }

    #[test]
    fn portable_block_pass_is_bitwise_the_tile_pass() {
        // The block traversal with the portable bodies, on random floats
        // and on integers: 33 rows are two blocks and a ragged panel row,
        // 13 columns one block column, a full leftover column and a
        // ragged one. Miri selects no vector body, so this is its
        // coverage of the block pass's window arithmetic.
        let shapes = [(33, 3, 13), (16, 2, 8), (7, 2, 5)];
        assert_block_pass_is_tile_pass::<f64>(
            microkernel_scatter_generic,
            microkernel_block_generic,
            &shapes,
        );
        assert_block_pass_is_tile_pass::<i64>(
            microkernel_scatter_generic,
            microkernel_block_generic,
            &shapes,
        );
    }

    #[test]
    fn packed_scatter_matches_staged_products_exactly() {
        // (A1 − A2)·(B1 + B2) scattered into {+C1, −C2} must equal the
        // staged computation, exactly on i64, over full/ragged shapes.
        for (m, k, n) in [(8, 8, 8), (16, 8, 12), (7, 6, 5), (9, 9, 9), (23, 17, 10), (1, 1, 1)] {
            let a1: Matrix<i64> = random_matrix(m, k, 31);
            let a2: Matrix<i64> = random_matrix(m, k, 32);
            let b1: Matrix<i64> = random_matrix(k, n, 33);
            let b2: Matrix<i64> = random_matrix(k, n, 34);
            let c1_0: Matrix<i64> = random_matrix(m, n, 35);
            let c2_0: Matrix<i64> = random_matrix(m, n, 36);

            let mut c1 = c1_0.as_slice().to_vec();
            let mut c2 = c2_0.as_slice().to_vec();
            let mut ws = vec![0i64; packed_len(m, k, n)];
            let mut dests: Vec<(&mut [i64], bool)> =
                vec![(c1.as_mut_slice(), false), (c2.as_mut_slice(), true)];
            packed_mul_scatter_in(
                &[(a1.view(), false), (a2.view(), true)],
                &[(b1.view(), false), (b2.view(), false)],
                &mut dests,
                m,
                &mut ws,
            );

            // Staged oracle: materialize the combined operands, multiply,
            // then add/subtract.
            let mut ac = a1.clone();
            let mut bc = b1.clone();
            for j in 0..k {
                for i in 0..m {
                    ac.set(i, j, a1.get(i, j) - a2.get(i, j));
                }
            }
            for j in 0..n {
                for i in 0..k {
                    bc.set(i, j, b1.get(i, j) + b2.get(i, j));
                }
            }
            let p = naive_product(&ac, &bc);
            for j in 0..n {
                for i in 0..m {
                    let idx = i + j * m;
                    assert_eq!(c1[idx], c1_0.get(i, j) + p.get(i, j), "{m}x{k}x{n} C1 ({i},{j})");
                    assert_eq!(c2[idx], c2_0.get(i, j) - p.get(i, j), "{m}x{k}x{n} C2 ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn packed_scatter_floats_match_staged_packed_pipeline() {
        // On floats the fused path must agree with packing the combined
        // operand and running the plain packed kernel — same panel
        // contents, same microkernel accumulation order, only the
        // epilogue differs; the products are bitwise equal.
        let (m, k, n) = (24, 16, 20);
        let a1: Matrix<f64> = random_matrix(m, k, 41);
        let a2: Matrix<f64> = random_matrix(m, k, 42);
        let b1: Matrix<f64> = random_matrix(k, n, 43);
        let b2: Matrix<f64> = random_matrix(k, n, 44);

        let mut fused = vec![0.0f64; m * n];
        let mut ws = vec![0.0f64; packed_len(m, k, n)];
        let mut dests: Vec<(&mut [f64], bool)> = vec![(fused.as_mut_slice(), false)];
        packed_mul_scatter_in(
            &[(a1.view(), false), (a2.view(), true)],
            &[(b1.view(), false), (b2.view(), true)],
            &mut dests,
            m,
            &mut ws,
        );

        let mut ac = a1.clone();
        let mut bc = b1.clone();
        for j in 0..k {
            for i in 0..m {
                ac.set(i, j, a1.get(i, j) - a2.get(i, j));
            }
        }
        for j in 0..n {
            for i in 0..k {
                bc.set(i, j, b1.get(i, j) - b2.get(i, j));
            }
        }
        let mut staged: Matrix<f64> = Matrix::zeros(m, n);
        let mut ws2 = vec![0.0f64; packed_len(m, k, n)];
        packed_mul_add_in(ac.view(), bc.view(), staged.view_mut(), &mut ws2);
        assert_eq!(fused, staged.as_slice());
    }

    #[test]
    #[should_panic(expected = "destinations")]
    fn packed_scatter_rejects_too_many_destinations() {
        let a: Matrix<i64> = Matrix::zeros(4, 4);
        let b: Matrix<i64> = Matrix::zeros(4, 4);
        let mut bufs = vec![vec![0i64; 16]; MAX_FUSE_TERMS + 1];
        let mut dests: Vec<(&mut [i64], bool)> =
            bufs.iter_mut().map(|b| (b.as_mut_slice(), false)).collect();
        let mut ws = vec![0i64; packed_len(4, 4, 4)];
        packed_mul_scatter_in(&[(a.view(), false)], &[(b.view(), false)], &mut dests, 4, &mut ws);
    }

    #[test]
    #[should_panic(expected = "packing workspace too small")]
    fn packed_mul_rejects_short_workspace() {
        let a: Matrix<f64> = Matrix::zeros(8, 8);
        let b: Matrix<f64> = Matrix::zeros(8, 8);
        let mut c: Matrix<f64> = Matrix::zeros(8, 8);
        let mut ws = vec![0.0; 3];
        packed_mul_add_in(a.view(), b.view(), c.view_mut(), &mut ws);
    }
}
