//! Conversion between column-major and Morton storage.
//!
//! MODGEMM converts its operands at the interface level (§3.5): the two
//! inputs are packed from column-major into Morton buffers (folding in any
//! requested transposition, so the core algorithm only ever sees `NoTrans`
//! operands), and the result is unpacked back. Padding introduced by the
//! tiling is zero-filled on ingest; the unpack reads only the live region,
//! so the redundant arithmetic performed on the pad is invisible to the
//! caller.
//!
//! The pack walks tiles in **buffer order** (Morton code order), so writes
//! to the destination are perfectly sequential; reads from the column-major
//! source are the strided part. The unpack is the mirror image.

use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::Scalar;

use crate::layout::{deinterleave2, MortonLayout};

/// Packs `op(src)` into the Morton buffer `dst` described by `layout`,
/// zero-filling the padding.
///
/// `op(src)` must fit inside the padded matrix:
/// `op(src).rows ≤ layout.rows()` and `op(src).cols ≤ layout.cols()`.
///
/// # Panics
/// If `dst.len() != layout.len()` or the logical matrix does not fit.
#[track_caller]
pub fn to_morton<S: Scalar>(src: MatRef<'_, S>, op: Op, layout: &MortonLayout, dst: &mut [S]) {
    assert_eq!(dst.len(), layout.len(), "destination buffer length mismatch");
    let tiles = layout.len() / layout.tile_len();
    pack_tile_range(src, op, layout, dst, 0, tiles);
}

/// Packs Morton tiles `[z0, z1)` of `op(src)` — the task-granular unit
/// the GEMM task DAG schedules. `dst_range`
/// is exactly those tiles of the full Morton buffer (length
/// `(z1 - z0) · tile_len`); concurrent callers covering disjoint tile
/// ranges therefore write disjoint memory.
///
/// # Panics
/// If the range is out of bounds, `dst_range` has the wrong length, or
/// the logical matrix does not fit the padded one.
#[track_caller]
pub fn pack_tile_range<S: Scalar>(
    src: MatRef<'_, S>,
    op: Op,
    layout: &MortonLayout,
    dst_range: &mut [S],
    z0: usize,
    z1: usize,
) {
    let (lr, lc) = op.apply_dims(src.rows(), src.cols());
    let (tm, tn, grid) = (layout.tile_rows, layout.tile_cols, layout.grid());
    let tile_len = layout.tile_len();
    assert!(z0 <= z1 && z1 * tile_len <= layout.len(), "tile range out of bounds");
    assert_eq!(dst_range.len(), (z1 - z0) * tile_len, "tile range buffer length mismatch");
    assert!(
        lr <= layout.rows() && lc <= layout.cols(),
        "logical {lr}x{lc} does not fit padded {}x{}",
        layout.rows(),
        layout.cols()
    );

    for (i, tile) in dst_range.chunks_exact_mut(tile_len).enumerate() {
        let z = z0 + i;
        let (tr, tc) = deinterleave2(z, layout.depth);
        debug_assert!(tr < grid && tc < grid);
        let row0 = tr * tm;
        let col0 = tc * tn;
        // Live extent of this tile.
        let live_r = lr.saturating_sub(row0).min(tm);
        let live_c = lc.saturating_sub(col0).min(tn);

        if live_r == 0 || live_c == 0 {
            tile.fill(S::ZERO);
            continue;
        }
        match op {
            Op::NoTrans => {
                for jj in 0..live_c {
                    let dst_col = &mut tile[jj * tm..jj * tm + tm];
                    let src_col = &src.col(col0 + jj)[row0..row0 + live_r];
                    dst_col[..live_r].copy_from_slice(src_col);
                    dst_col[live_r..].fill(S::ZERO);
                }
            }
            Op::Trans => {
                for jj in 0..live_c {
                    let dst_col = &mut tile[jj * tm..jj * tm + tm];
                    for (ii, d) in dst_col.iter_mut().enumerate().take(live_r) {
                        // Logical (row0+ii, col0+jj) of op(src) = src(col, row).
                        *d = src.get(col0 + jj, row0 + ii);
                    }
                    dst_col[live_r..].fill(S::ZERO);
                }
            }
        }
        if live_c < tn {
            tile[live_c * tm..].fill(S::ZERO);
        }
    }
}

/// Unpacks the live `dst.rows() × dst.cols()` region from the Morton
/// buffer `src` into the column-major view `dst`, ignoring padding.
///
/// # Panics
/// If `src.len() != layout.len()` or `dst` is larger than the padded
/// matrix.
#[track_caller]
pub fn from_morton<S: Scalar>(src: &[S], layout: &MortonLayout, mut dst: MatMut<'_, S>) {
    let (lr, lc) = dst.dims();
    assert_eq!(src.len(), layout.len(), "source buffer length mismatch");
    assert!(
        lr <= layout.rows() && lc <= layout.cols(),
        "destination {lr}x{lc} exceeds padded {}x{}",
        layout.rows(),
        layout.cols()
    );
    let (tm, tn) = (layout.tile_rows, layout.tile_cols);
    let tile_len = layout.tile_len();

    for (z, tile) in src.chunks_exact(tile_len).enumerate() {
        let (tr, tc) = deinterleave2(z, layout.depth);
        let row0 = tr * tm;
        let col0 = tc * tn;
        let live_r = lr.saturating_sub(row0).min(tm);
        let live_c = lc.saturating_sub(col0).min(tn);
        if live_r == 0 {
            continue;
        }
        for jj in 0..live_c {
            let src_col = &tile[jj * tm..jj * tm + live_r];
            let dst_col = &mut dst.col_mut(col0 + jj)[row0..row0 + live_r];
            dst_col.copy_from_slice(src_col);
        }
    }
}

/// Unpacks with a fused update: `dst ← α·morton + β·dst` over the live
/// region. Used by the BLAS interface's post-processing step (§3.5:
/// `C ← α·D + β·C`) without materializing `D` in column-major form.
#[track_caller]
pub fn from_morton_axpby<S: Scalar>(
    src: &[S],
    layout: &MortonLayout,
    alpha: S,
    beta: S,
    mut dst: MatMut<'_, S>,
) {
    let (lr, lc) = dst.dims();
    assert_eq!(src.len(), layout.len(), "source buffer length mismatch");
    assert!(
        lr <= layout.rows() && lc <= layout.cols(),
        "destination {lr}x{lc} exceeds padded {}x{}",
        layout.rows(),
        layout.cols()
    );
    let (tm, tn) = (layout.tile_rows, layout.tile_cols);
    let tile_len = layout.tile_len();

    for (z, tile) in src.chunks_exact(tile_len).enumerate() {
        let (tr, tc) = deinterleave2(z, layout.depth);
        let row0 = tr * tm;
        let col0 = tc * tn;
        let live_r = lr.saturating_sub(row0).min(tm);
        let live_c = lc.saturating_sub(col0).min(tn);
        if live_r == 0 {
            continue;
        }
        for jj in 0..live_c {
            let src_col = &tile[jj * tm..jj * tm + live_r];
            let dst_col = &mut dst.col_mut(col0 + jj)[row0..row0 + live_r];
            if beta == S::ZERO {
                // BLAS semantics: β = 0 means C is not read (garbage,
                // including NaN, must not propagate).
                for (d, &s) in dst_col.iter_mut().zip(src_col) {
                    *d = alpha * s;
                }
            } else {
                modgemm_mat::addsub::axpby_flat(alpha, src_col, beta, dst_col);
            }
        }
    }
}

/// Unpacks tile columns `[tc0, tc1)` of the Morton buffer `src` into a
/// raw column-major destination, applying `dst ← α·src + β·dst` over the
/// live region (`β = 0` writes without reading `dst` — BLAS semantics).
/// This is the task-granular unpack unit of the GEMM task DAG: each task
/// owns a disjoint tile-column range, hence a disjoint destination
/// column block.
///
/// `lr × lc` are the logical destination dimensions; `ld` its leading
/// dimension (column stride).
///
/// # Safety
/// `dst` must be valid for writes of an `lr × lc` column-major matrix
/// with leading dimension `ld ≥ lr`, and concurrent callers over the
/// same destination must cover disjoint tile-column ranges.
#[allow(clippy::too_many_arguments)]
pub unsafe fn unpack_tile_cols_raw<S: Scalar>(
    src: &[S],
    layout: &MortonLayout,
    alpha: S,
    beta: S,
    dst: *mut S,
    ld: usize,
    lr: usize,
    lc: usize,
    tc0: usize,
    tc1: usize,
) {
    debug_assert_eq!(src.len(), layout.len());
    debug_assert!(lr <= layout.rows() && lc <= layout.cols());
    debug_assert!(tc0 <= tc1 && tc1 <= layout.grid());
    let (tm, tn) = (layout.tile_rows, layout.tile_cols);
    let grid = layout.grid();
    for tc in tc0..tc1 {
        let col0 = tc * tn;
        if col0 >= lc {
            break;
        }
        let live_c = (lc - col0).min(tn);
        for tr in 0..grid {
            let row0 = tr * tm;
            if row0 >= lr {
                break;
            }
            let live_r = (lr - row0).min(tm);
            let tile0 = layout.tile_offset(tr, tc);
            for jj in 0..live_c {
                let src_col = &src[tile0 + jj * tm..tile0 + jj * tm + live_r];
                // SAFETY (caller contract): this task owns destination
                // columns `[tc0·tn, tc1·tn)` — a disjoint column block.
                let p = dst.add((col0 + jj) * ld + row0);
                if alpha == S::ONE && beta == S::ZERO {
                    std::ptr::copy_nonoverlapping(src_col.as_ptr(), p, live_r);
                } else {
                    let dst_col = std::slice::from_raw_parts_mut(p, live_r);
                    if beta == S::ZERO {
                        for (d, &s) in dst_col.iter_mut().zip(src_col) {
                            *d = alpha * s;
                        }
                    } else {
                        modgemm_mat::addsub::axpby_flat(alpha, src_col, beta, dst_col);
                    }
                }
            }
        }
    }
}

/// Reads the logical element `(i, j)` of a Morton buffer (slow; for tests
/// and diagnostics).
#[track_caller]
pub fn morton_get<S: Scalar>(buf: &[S], layout: &MortonLayout, i: usize, j: usize) -> S {
    buf[layout.elem_offset(i, j)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::gen::{coordinate_matrix, random_matrix};
    use modgemm_mat::Matrix;

    fn roundtrip(rows: usize, cols: usize, layout: MortonLayout) {
        let m: Matrix<i64> = coordinate_matrix(rows, cols);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut out: Matrix<i64> = Matrix::zeros(rows, cols);
        from_morton(&buf, &layout, out.view_mut());
        assert_eq!(out, m, "{rows}x{cols} via {layout:?}");
    }

    #[test]
    fn roundtrip_exact_fit() {
        roundtrip(8, 8, MortonLayout::new(4, 4, 1));
        roundtrip(12, 20, MortonLayout::new(3, 5, 2));
    }

    #[test]
    fn roundtrip_with_padding() {
        roundtrip(7, 6, MortonLayout::new(4, 4, 1));
        roundtrip(513, 513, MortonLayout::new(33, 33, 4));
        roundtrip(1, 1, MortonLayout::new(4, 4, 2));
    }

    #[test]
    fn padding_is_zero_filled() {
        let m: Matrix<i64> = coordinate_matrix(5, 5);
        let layout = MortonLayout::new(4, 4, 1);
        let mut buf = vec![99i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        for i in 0..8 {
            for j in 0..8 {
                let v = morton_get(&buf, &layout, i, j);
                if i < 5 && j < 5 {
                    assert_eq!(v, m.get(i, j));
                } else {
                    assert_eq!(v, 0, "pad at ({i},{j}) not zeroed");
                }
            }
        }
    }

    #[test]
    fn transpose_is_folded_into_pack() {
        let m: Matrix<i64> = coordinate_matrix(6, 9);
        let layout = MortonLayout::new(5, 4, 1); // 10x8 padded, fits 9x6.
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::Trans, &layout, &mut buf);
        for i in 0..9 {
            for j in 0..6 {
                assert_eq!(morton_get(&buf, &layout, i, j), m.get(j, i), "({i},{j})");
            }
        }
    }

    #[test]
    fn elements_land_at_layout_offsets() {
        let m: Matrix<i64> = coordinate_matrix(8, 8);
        let layout = MortonLayout::new(4, 4, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        // NE quadrant (cols 4..8) occupies the second contiguous quarter.
        assert_eq!(buf[layout.quadrant_len()], m.get(0, 4));
        // SE quadrant begins at 3/4.
        assert_eq!(buf[3 * layout.quadrant_len()], m.get(4, 4));
    }

    #[test]
    fn strided_source_views_work() {
        let base: Matrix<i64> = coordinate_matrix(20, 20);
        let window = base.view().submatrix(3, 5, 7, 9);
        let layout = MortonLayout::new(4, 5, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(window, Op::NoTrans, &layout, &mut buf);
        for i in 0..7 {
            for j in 0..9 {
                assert_eq!(morton_get(&buf, &layout, i, j), base.get(3 + i, 5 + j));
            }
        }
    }

    #[test]
    fn unpack_into_strided_destination() {
        let m: Matrix<i64> = coordinate_matrix(6, 6);
        let layout = MortonLayout::new(3, 3, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut big: Matrix<i64> = Matrix::zeros(10, 10);
        let mut bm = big.view_mut();
        from_morton(&buf, &layout, bm.submatrix_mut(2, 2, 6, 6));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(big.get(2 + i, 2 + j), m.get(i, j));
            }
        }
        assert_eq!(big.get(0, 0), 0);
        assert_eq!(big.get(9, 9), 0);
    }

    #[test]
    fn roundtrip_random_f64() {
        let m: Matrix<f64> = random_matrix(37, 53, 5);
        let layout = MortonLayout::new(10, 14, 2);
        let mut buf = vec![0.0; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut out: Matrix<f64> = Matrix::zeros(37, 53);
        from_morton(&buf, &layout, out.view_mut());
        assert_eq!(out, m);
    }

    /// Splits `units` into `parts` contiguous half-open ranges, the way a
    /// task DAG hands tiles or tile columns to its conversion chunks.
    fn chunks(units: usize, parts: usize) -> Vec<(usize, usize)> {
        let per = units.div_ceil(parts);
        (0..units).step_by(per).map(|r0| (r0, (r0 + per).min(units))).collect()
    }

    /// Packs `op(m)` into a dirty buffer one tile range at a time, last
    /// range first when `reverse`.
    fn pack_in_ranges(
        m: &Matrix<f64>,
        op: Op,
        layout: &MortonLayout,
        parts: usize,
        reverse: bool,
    ) -> Vec<f64> {
        let tile_len = layout.tile_len();
        let mut buf = vec![1.0; layout.len()];
        let mut ranges = chunks(layout.len() / tile_len, parts);
        if reverse {
            ranges.reverse();
        }
        for (z0, z1) in ranges {
            let dst = &mut buf[z0 * tile_len..z1 * tile_len];
            pack_tile_range(m.view(), op, layout, dst, z0, z1);
        }
        buf
    }

    /// Unpacks `buf` tile-column range by tile-column range into `out`.
    fn unpack_in_ranges(buf: &[f64], layout: &MortonLayout, out: &mut Matrix<f64>, parts: usize) {
        let (lr, lc) = (out.rows(), out.cols());
        let mut view = out.view_mut();
        let ld = view.ld();
        for (tc0, tc1) in chunks(layout.grid(), parts).into_iter().rev() {
            // SAFETY: `out` is an `lr × lc` matrix with leading dimension
            // `ld`, and the ranges are disjoint.
            unsafe {
                unpack_tile_cols_raw(buf, layout, 1.0, 0.0, view.as_mut_ptr(), ld, lr, lc, tc0, tc1)
            };
        }
    }

    #[test]
    fn tile_range_pack_matches_serial() {
        let m: Matrix<f64> = coordinate_matrix(600, 600);
        let layout = MortonLayout::new(38, 38, 4); // 608x608 padded.
        let mut serial = vec![0.0; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut serial);
        assert_eq!(pack_in_ranges(&m, Op::NoTrans, &layout, 7, false), serial);
    }

    #[test]
    fn tile_range_pack_with_transpose() {
        let m: Matrix<f64> = coordinate_matrix(500, 600);
        let layout = MortonLayout::new(38, 32, 4); // 608x512 padded, holds 600x500.
        let mut serial = vec![0.0; layout.len()];
        to_morton(m.view(), Op::Trans, &layout, &mut serial);
        assert_eq!(pack_in_ranges(&m, Op::Trans, &layout, 5, false), serial);
    }

    #[test]
    fn tile_column_unpack_matches_serial() {
        let m: Matrix<f64> = coordinate_matrix(600, 600);
        let layout = MortonLayout::new(38, 38, 4);
        let mut buf = vec![0.0; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut out: Matrix<f64> = Matrix::zeros(600, 600);
        unpack_in_ranges(&buf, &layout, &mut out, 3);
        assert_eq!(out, m);
    }

    #[test]
    fn ranges_in_any_order_and_count_match_serial() {
        // Chunks write disjoint memory, so neither their number nor the
        // order they run in may change the result.
        let m: Matrix<f64> = coordinate_matrix(600, 555);
        let layout = MortonLayout::new(38, 38, 4); // 608x608, ragged columns.
        let mut serial = vec![0.0; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut serial);
        for parts in [1, 2, 3, 16] {
            assert_eq!(pack_in_ranges(&m, Op::NoTrans, &layout, parts, true), serial, "{parts}");
            let mut out: Matrix<f64> = Matrix::zeros(600, 555);
            unpack_in_ranges(&serial, &layout, &mut out, parts);
            assert_eq!(out, m, "unpack parts = {parts}");
        }
    }

    #[test]
    fn tile_column_unpack_applies_alpha_beta() {
        // The α/β epilogue matches `from_morton_axpby` bit for bit,
        // including β = 0 ignoring NaN garbage in the destination.
        let m: Matrix<f64> = random_matrix(37, 53, 6);
        let layout = MortonLayout::new(10, 14, 2);
        let mut buf = vec![0.0; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        for (alpha, beta, init) in [(2.5, -0.5, 3.0), (0.5, 0.0, f64::NAN), (1.0, 0.0, f64::NAN)] {
            let mut want = Matrix::from_fn(37, 53, |_, _| init);
            from_morton_axpby(&buf, &layout, alpha, beta, want.view_mut());
            let mut got = Matrix::from_fn(37, 53, |_, _| init);
            let mut view = got.view_mut();
            let ld = view.ld();
            for (tc0, tc1) in chunks(layout.grid(), 3) {
                // SAFETY: as in `unpack_in_ranges`.
                unsafe {
                    unpack_tile_cols_raw(
                        &buf,
                        &layout,
                        alpha,
                        beta,
                        view.as_mut_ptr(),
                        ld,
                        37,
                        53,
                        tc0,
                        tc1,
                    )
                };
            }
            let bits =
                |x: &Matrix<f64>| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "alpha {alpha} beta {beta}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_logical_matrix() {
        let m: Matrix<i64> = Matrix::zeros(9, 9);
        let layout = MortonLayout::new(4, 4, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
    }
}
