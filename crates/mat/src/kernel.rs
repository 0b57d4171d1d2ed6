//! Pluggable leaf-multiply kernels behind one interface.
//!
//! Every Strassen implementation in the workspace bottoms out in a leaf
//! multiply over column-major views. Historically that call was hard-wired
//! to [`blocked_mul_add`]; the plan/execute split makes the kernel a
//! *plan-time decision* instead: a [`KernelKind`] is chosen when a plan is
//! built and threaded — via the [`LeafKernel`] trait — through the serial
//! executor, the parallel executor, and the four baseline codes, so every
//! executor multiplies leaves through the same interface.
//!
//! Three kernel objects are provided:
//!
//! * [`Naive`] — the textbook triple loop ([`naive_gemm`]). The oracle;
//!   useful to isolate kernel effects from schedule effects.
//! * [`Blocked`] — the cache-blocked, register-tiled kernel
//!   ([`blocked_mul_add`]). The default, matching the paper's setup.
//! * [`Packed`] — the Goto/BLIS-style packed kernel ([`crate::pack`]):
//!   copies A and B into MR/NR panel buffers, then drives one runtime-
//!   dispatched register-tile microkernel body ([`crate::simd`]) over
//!   every tile of the packed panels, ragged edge tiles included. The
//!   only kernel that needs workspace, which the planned executors carve
//!   from the plan arena via [`LeafKernel::mul_add_in`].
//!
//! [`KernelKind::Auto`] additionally selects between `Packed` and
//! `Blocked` from the detected vector features and the leaf tile size —
//! resolved **once at plan time** ([`KernelKind::resolve`]), never per
//! leaf.
//!
//! All kernels compute `C += A·B` with `NoTrans` operands; transposition
//! is handled a level up, exactly as for [`blocked_mul_add`].

use core::fmt;
use core::str::FromStr;

use crate::blocked::blocked_mul_add;
use crate::naive::naive_gemm;
use crate::pack::{packed_len, packed_mul_add_in, PACK_MR};
use crate::scalar::Scalar;
use crate::simd::has_vector_unit;
use crate::view::{MatMut, MatRef, Op};

/// The leaf-multiply interface: `C += op-free A·B` over column-major
/// views. Implementations must panic on dimension mismatch (the callers
/// validate shapes before the hot loop, so a mismatch here is a bug).
pub trait LeafKernel<S: Scalar> {
    /// `C += A·B`.
    ///
    /// # Panics
    /// On dimension mismatch.
    fn mul_add(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>);

    /// `C = A·B` (zeroes `C` first).
    ///
    /// # Panics
    /// On dimension mismatch.
    fn mul(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, mut c: MatMut<'_, S>) {
        c.fill(S::ZERO);
        self.mul_add(a, b, c);
    }

    /// `C += A·B` with an explicit packing workspace of at least
    /// [`KernelKind::pack_len`] elements — the allocation-free form the
    /// planned executors call with an arena slice. Kernels that pack
    /// nothing ignore `ws`; [`Packed`] panics if it is undersized.
    ///
    /// # Panics
    /// On dimension mismatch, or an undersized `ws` for a packing kernel.
    fn mul_add_in(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>, ws: &mut [S]) {
        let _ = ws;
        self.mul_add(a, b, c);
    }
}

/// The textbook triple-loop kernel ([`naive_gemm`] with `α = β = 1`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Naive;

impl<S: Scalar> LeafKernel<S> for Naive {
    fn mul_add(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>) {
        naive_gemm(S::ONE, Op::NoTrans, a, Op::NoTrans, b, S::ONE, c);
    }
}

/// The cache-blocked, register-tiled kernel ([`blocked_mul_add`]) — the
/// paper configuration's leaf multiply, standing in for the paper's
/// vendor BLAS kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Blocked;

impl<S: Scalar> LeafKernel<S> for Blocked {
    fn mul_add(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>) {
        blocked_mul_add(a, b, c);
    }
}

/// The Goto/BLIS-style packed kernel: operands are copied into MR/NR
/// panel buffers ([`crate::pack`]) and multiplied by a register-tile
/// microkernel, vectorized when the host supports it ([`crate::simd`]).
/// Edge tiles of a ragged leaf (e.g. 33 = 4·8 + 1 rows) run the same
/// body into a local `MR × NR` buffer and add out only the live window,
/// so every tile runs at the body's speed. It is the one-destination
/// case of [`crate::pack::packed_mul_scatter_in`], whose packing and
/// microkernel sweep the planned executors' packed terminal also drives
/// over whole Morton subtrees.
///
/// [`LeafKernel::mul_add_in`] is the intended entry point — the planned
/// executors hand it an arena slice, so the hot path never allocates.
/// The plain [`LeafKernel::mul_add`] form (used by the one-shot baselines
/// on arbitrary views) allocates its own panel buffer per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Packed;

impl<S: Scalar> LeafKernel<S> for Packed {
    #[track_caller]
    fn mul_add(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>) {
        let (m, k) = a.dims();
        let mut ws = vec![S::ZERO; packed_len(m, k, b.cols())];
        packed_mul_add_in(a, b, c, &mut ws);
    }

    #[track_caller]
    fn mul_add_in(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>, ws: &mut [S]) {
        packed_mul_add_in(a, b, c, ws);
    }
}

/// Plan-time kernel selector: a plain enum (so configurations stay `Copy`
/// and comparable) that dispatches to the three kernel objects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The triple-loop reference kernel ([`Naive`]).
    Naive,
    /// The cache-blocked, register-tiled kernel ([`Blocked`]) — the
    /// enum's default (a concrete kind, matching the paper's setup; the
    /// library's default configuration selects [`KernelKind::Auto`]).
    #[default]
    Blocked,
    /// The packed-panel SIMD kernel ([`Packed`]).
    Packed,
    /// Resolve to [`KernelKind::Packed`] or [`KernelKind::Blocked`] at
    /// plan time, from the detected vector features and the leaf tile
    /// size ([`KernelKind::resolve`]).
    Auto,
}

impl KernelKind {
    /// Every selectable kind, in declaration order (handy for sweeps).
    pub const ALL: [KernelKind; 4] =
        [KernelKind::Naive, KernelKind::Blocked, KernelKind::Packed, KernelKind::Auto];

    /// Resolves [`KernelKind::Auto`] for an `m × k × n` leaf multiply;
    /// every concrete kind passes through unchanged. `Auto` picks
    /// [`KernelKind::Packed`] when the host has a detected vector unit
    /// ([`has_vector_unit`]) **and** every leaf dimension reaches the
    /// register-tile height ([`PACK_MR`]) so packing overhead can
    /// amortize; otherwise [`KernelKind::Blocked`]. Plan construction
    /// calls this once and stores the concrete kind, so execution never
    /// re-detects.
    ///
    /// The choice is deliberately scalar-type-independent (like
    /// [`KernelKind::pack_len`]): exact types simply run `Packed`'s
    /// portable body, which keeps planned `i64` runs bit-comparable with
    /// float runs of the same plan shape.
    #[must_use]
    pub fn resolve(self, m: usize, k: usize, n: usize) -> KernelKind {
        match self {
            KernelKind::Auto => {
                if has_vector_unit() && m.min(k).min(n) >= PACK_MR {
                    KernelKind::Packed
                } else {
                    KernelKind::Blocked
                }
            }
            other => other,
        }
    }

    /// Packing workspace (elements) one `m × k × n` leaf multiply needs
    /// under this kind: [`packed_len`] for `Packed` (after resolving
    /// `Auto`), zero for every non-packing kernel. Element counts, not
    /// bytes — the plan-arena sizing stays scalar-type-independent.
    #[must_use]
    pub fn pack_len(self, m: usize, k: usize, n: usize) -> usize {
        match self.resolve(m, k, n) {
            KernelKind::Packed => packed_len(m, k, n),
            _ => 0,
        }
    }

    /// Workspace (elements) one **fused** `m × k × n` leaf product needs
    /// under this kind (after resolving `Auto`): `Packed` combines its
    /// operand terms *during* packing and scatters straight from
    /// registers, so it needs exactly its ordinary [`packed_len`] slot;
    /// every non-packing kernel materializes the combined `A`, combined
    /// `B`, and one product tile (`m·k + k·n + m·n`) before scattering.
    /// Element counts, not bytes, like [`KernelKind::pack_len`].
    #[must_use]
    pub fn fused_leaf_len(self, m: usize, k: usize, n: usize) -> usize {
        match self.resolve(m, k, n) {
            KernelKind::Packed => packed_len(m, k, n),
            _ => m * k + k * n + m * n,
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelKind::Naive => "naive",
            KernelKind::Blocked => "blocked",
            KernelKind::Packed => "packed",
            KernelKind::Auto => "auto",
        })
    }
}

/// Error of parsing a [`KernelKind`] from a string that names no kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseKernelKindError {
    got: String,
}

impl fmt::Display for ParseKernelKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown kernel {:?} (expected naive|blocked|packed|auto)", self.got)
    }
}

impl std::error::Error for ParseKernelKindError {}

impl FromStr for KernelKind {
    type Err = ParseKernelKindError;

    /// Parses the lowercase names [`fmt::Display`] emits
    /// (ASCII-case-insensitively), e.g. for a `--kernel` CLI flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KernelKind::ALL
            .into_iter()
            .find(|k| s.eq_ignore_ascii_case(&k.to_string()))
            .ok_or_else(|| ParseKernelKindError { got: s.to_string() })
    }
}

impl<S: Scalar> LeafKernel<S> for KernelKind {
    fn mul_add(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>) {
        match self {
            KernelKind::Naive => Naive.mul_add(a, b, c),
            KernelKind::Blocked => Blocked.mul_add(a, b, c),
            KernelKind::Packed => Packed.mul_add(a, b, c),
            KernelKind::Auto => {
                let (m, k) = a.dims();
                self.resolve(m, k, b.cols()).mul_add(a, b, c)
            }
        }
    }

    fn mul_add_in(&self, a: MatRef<'_, S>, b: MatRef<'_, S>, c: MatMut<'_, S>, ws: &mut [S]) {
        match self {
            KernelKind::Packed => Packed.mul_add_in(a, b, c, ws),
            KernelKind::Auto => {
                let (m, k) = a.dims();
                self.resolve(m, k, b.cols()).mul_add_in(a, b, c, ws)
            }
            other => other.mul_add(a, b, c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::naive::naive_product;
    use crate::norms::assert_matrix_eq;
    use crate::Matrix;

    const KINDS: [KernelKind; 4] = KernelKind::ALL;

    #[test]
    fn all_kernels_are_exact_on_integers() {
        let a: Matrix<i64> = random_matrix(13, 9, 1);
        let b: Matrix<i64> = random_matrix(9, 17, 2);
        let expect = naive_product(&a, &b);
        for kind in KINDS {
            let mut c: Matrix<i64> = Matrix::zeros(13, 17);
            kind.mul(a.view(), b.view(), c.view_mut());
            assert_eq!(c, expect, "{kind:?}");
        }
    }

    #[test]
    fn mul_add_accumulates() {
        let a: Matrix<i64> = random_matrix(8, 8, 3);
        let b: Matrix<i64> = random_matrix(8, 8, 4);
        let base: Matrix<i64> = random_matrix(8, 8, 5);
        let ab = naive_product(&a, &b);
        for kind in KINDS {
            let mut c = base.clone();
            kind.mul_add(a.view(), b.view(), c.view_mut());
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(c.get(i, j), base.get(i, j) + ab.get(i, j), "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn mul_overwrites_prior_contents() {
        let a: Matrix<f64> = random_matrix(6, 5, 6);
        let b: Matrix<f64> = random_matrix(5, 7, 7);
        let expect = naive_product(&a, &b);
        for kind in KINDS {
            let mut c: Matrix<f64> = random_matrix(6, 7, 8);
            kind.mul(a.view(), b.view(), c.view_mut());
            assert_matrix_eq(c.view(), expect.view(), 5);
        }
    }

    #[test]
    fn all_kernels_handle_strided_views_and_ragged_tails() {
        // Windows of larger bases exercise ld != rows for all three
        // operands; the shape list hits full unrolled/register tiles,
        // scalar tails in every dimension, and sub-tile sizes.
        for kind in KINDS {
            for (m, k, n) in [(7, 6, 5), (8, 4, 8), (9, 9, 9), (16, 8, 12), (1, 1, 1), (23, 17, 9)]
            {
                let base_a: Matrix<f64> = random_matrix(m + 9, k + 7, 9);
                let base_b: Matrix<f64> = random_matrix(k + 8, n + 6, 10);
                let mut base_c: Matrix<f64> = Matrix::zeros(m + 5, n + 4);
                let av = base_a.view().submatrix(2, 3, m, k);
                let bv = base_b.view().submatrix(4, 5, k, n);
                let mut cm = base_c.view_mut();
                let cv = cm.submatrix_mut(1, 1, m, n);
                kind.mul(av, bv, cv);

                let a_copy = Matrix::from_vec(av.to_vec(), m, k);
                let b_copy = Matrix::from_vec(bv.to_vec(), k, n);
                let expect = naive_product(&a_copy, &b_copy);
                let got = base_c.view().submatrix(1, 1, m, n);
                assert_matrix_eq(got, expect.view(), k.max(4));

                // The rest of C must be untouched (no edge overwrite).
                for j in 0..n + 4 {
                    for i in 0..m + 5 {
                        if (1..=m).contains(&i) && (1..=n).contains(&j) {
                            continue;
                        }
                        assert_eq!(base_c.get(i, j), 0.0, "{kind} clobbered C({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn mul_add_in_matches_mul_add_with_exact_workspace() {
        for kind in KINDS {
            let (m, k, n) = (11, 9, 13);
            let a: Matrix<i64> = random_matrix(m, k, 21);
            let b: Matrix<i64> = random_matrix(k, n, 22);
            let mut c1: Matrix<i64> = Matrix::zeros(m, n);
            kind.mul_add(a.view(), b.view(), c1.view_mut());
            let mut c2: Matrix<i64> = Matrix::zeros(m, n);
            let mut ws = vec![0i64; kind.pack_len(m, k, n)];
            kind.mul_add_in(a.view(), b.view(), c2.view_mut(), &mut ws);
            assert_eq!(c1, c2, "{kind}");
            assert_eq!(c1, naive_product(&a, &b), "{kind}");
        }
    }

    #[test]
    fn display_fromstr_roundtrip_and_errors() {
        for kind in KINDS {
            assert_eq!(kind.to_string().parse::<KernelKind>(), Ok(kind));
        }
        assert_eq!("PACKED".parse::<KernelKind>(), Ok(KernelKind::Packed));
        let err = "turbo".parse::<KernelKind>().unwrap_err();
        assert!(err.to_string().contains("turbo"));
        assert!(err.to_string().contains("packed"));
    }

    #[test]
    fn auto_resolution_and_pack_len_accounting() {
        // Auto resolves to a concrete kind, consistent with its pack_len.
        let r = KernelKind::Auto.resolve(64, 64, 64);
        assert!(matches!(r, KernelKind::Packed | KernelKind::Blocked));
        assert_eq!(r, r.resolve(64, 64, 64), "resolution is idempotent");
        assert_eq!(
            KernelKind::Auto.pack_len(64, 64, 64),
            r.pack_len(64, 64, 64),
            "Auto's workspace must match its resolution"
        );
        // Leaves below the register tile never auto-select Packed.
        assert_eq!(KernelKind::Auto.resolve(4, 64, 64), KernelKind::Blocked);
        // Concrete kinds pass through and only Packed needs workspace.
        for kind in [KernelKind::Naive, KernelKind::Blocked] {
            assert_eq!(kind.resolve(64, 64, 64), kind);
            assert_eq!(kind.pack_len(64, 64, 64), 0);
        }
        assert_eq!(KernelKind::Packed.pack_len(9, 5, 6), crate::pack::packed_len(9, 5, 6));
    }

    #[test]
    fn zero_dims_are_noops() {
        for kind in KINDS {
            let a: Matrix<f64> = Matrix::zeros(3, 0);
            let b: Matrix<f64> = Matrix::zeros(0, 4);
            let mut c: Matrix<f64> = random_matrix(3, 4, 11);
            let orig = c.clone();
            kind.mul_add(a.view(), b.view(), c.view_mut());
            assert_eq!(c, orig, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn blocked_rejects_mismatched_inner_dims() {
        let a: Matrix<f64> = Matrix::zeros(3, 4);
        let b: Matrix<f64> = Matrix::zeros(5, 2);
        let mut c: Matrix<f64> = Matrix::zeros(3, 2);
        Blocked.mul_add(a.view(), b.view(), c.view_mut());
    }
}
