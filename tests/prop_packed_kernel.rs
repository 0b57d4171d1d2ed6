//! Property tests for the packed SIMD leaf kernel.
//!
//! The packed kernel reorders nothing arithmetically that matters over a
//! commutative, associative scalar: on **integers** it must be
//! bit-identical to the naive triple loop, whatever the SIMD dispatch
//! picked (integer leaves always take the portable microkernel, and
//! integer addition is associative, so panel traversal order is
//! invisible). On **floats** the SIMD microkernel reassociates the
//! `k`-loop across register lanes, so agreement is required only within
//! the standard backward-error envelope — except on integer-valued
//! floats, where every product and sum is exact and the vector path must
//! match the integer product bit for bit.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use modgemm::core::{modgemm, GemmPlan, MemoryBudget, ModgemmConfig};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::kernel::{Naive, Packed};
use modgemm::mat::naive::naive_gemm;
use modgemm::mat::norms::assert_matrix_eq;
use modgemm::mat::simd::ScatterMicroKernelFn;
use modgemm::mat::{KernelKind, LeafKernel, Matrix, Op, Scalar};
use proptest::prelude::*;

/// The default configuration end to end (the packed vector kernel with
/// one fused level on a SIMD host) on integer-valued `f64`: operands in
/// `[-4, 4]` keep every product, Winograd sum and accumulation exact, so
/// the result must equal the `i64` product (from the naive triple loop,
/// which shares no code with the packed path) bit for bit. 513³ pads to
/// 33-wide leaves and 70×58×66 fuses one level over 35×29×33 leaves, so
/// both shapes end in ragged register tiles on every side.
#[test]
fn default_modgemm_is_exact_on_integer_valued_f64() {
    let cfg = ModgemmConfig::default();
    let as_f64 = |x: &Matrix<i64>| Matrix::from_fn(x.rows(), x.cols(), |i, j| x.get(i, j) as f64);
    for (m, k, n) in [(513, 513, 513), (70, 58, 66)] {
        let a: Matrix<i64> = random_matrix(m, k, 11);
        let b: Matrix<i64> = random_matrix(k, n, 12);
        let c0: Matrix<i64> = random_matrix(m, n, 13);
        let mut want = c0.clone();
        naive_gemm(2, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -1, want.view_mut());
        let mut got = as_f64(&c0);
        let (af, bf) = (as_f64(&a), as_f64(&b));
        modgemm(2.0, Op::NoTrans, af.view(), Op::NoTrans, bf.view(), -1.0, got.view_mut(), &cfg);
        for j in 0..n {
            for i in 0..m {
                let (g, w) = (got.get(i, j), want.get(i, j) as f64);
                assert_eq!(g.to_bits(), w.to_bits(), "{m}x{k}x{n} ({i},{j}): {g} vs {w}");
            }
        }
    }
}

/// `f64` whose packed sweep runs every tile through the `8×4` body: it
/// takes `f64`'s tile body but no block body, and every other operation
/// is `f64`'s. A plan executed on it is the reference the block pass must
/// reproduce bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(transparent)]
struct TileOnly(f64);

impl fmt::Display for TileOnly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

macro_rules! tile_only_ops {
    ($($op:ident $f:ident $op_assign:ident $f_assign:ident $sym:tt),*) => {$(
        impl $op for TileOnly {
            type Output = Self;
            fn $f(self, rhs: Self) -> Self {
                TileOnly(self.0 $sym rhs.0)
            }
        }
        impl $op_assign for TileOnly {
            fn $f_assign(&mut self, rhs: Self) {
                self.0 = self.0 $sym rhs.0;
            }
        }
    )*};
}
tile_only_ops!(Add add AddAssign add_assign +, Sub sub SubAssign sub_assign -,
    Mul mul MulAssign mul_assign *);

impl Neg for TileOnly {
    type Output = Self;
    fn neg(self) -> Self {
        TileOnly(-self.0)
    }
}

impl Scalar for TileOnly {
    const ZERO: Self = TileOnly(0.0);
    const ONE: Self = TileOnly(1.0);
    fn abs_val(self) -> Self {
        TileOnly(self.0.abs())
    }
    fn from_f64(x: f64) -> Self {
        TileOnly(x)
    }
    fn to_f64(self) -> f64 {
        self.0
    }
    fn epsilon_f64() -> f64 {
        f64::EPSILON
    }
    fn packed_scatter_microkernel() -> Option<ScatterMicroKernelFn<Self>> {
        // SAFETY: `TileOnly` is `repr(transparent)` over `f64`, so the
        // body's pointer arguments address identically laid-out elements.
        f64::packed_scatter_microkernel().map(|body| unsafe {
            std::mem::transmute::<ScatterMicroKernelFn<f64>, ScatterMicroKernelFn<Self>>(body)
        })
    }
}

/// The block pass changes no output bit of a whole plan: the default plan
/// at 640³ and an e2e `blas_budget`-shaped plan (513³ under a quarter of
/// the default arena: one fused level over 8 × 8 packed tiles) on random
/// non-integer `f64` equal the same plans run through the `8×4`-only
/// sweep.
#[test]
fn block_body_changes_no_plan_output_bit() {
    if f64::packed_block_microkernel().is_none() {
        eprintln!("skipped: no f64 block body on this host (needs AVX-512F)");
        return;
    }
    let default = ModgemmConfig::default();
    let full = GemmPlan::<f64>::try_new(513, 513, 513, &default).unwrap().arena_len();
    let budget =
        ModgemmConfig { memory_budget: MemoryBudget::MaxWorkspaceBytes(full * 8 / 4), ..default };
    for ((m, k, n), cfg) in [((640, 640, 640), &default), ((513, 513, 513), &budget)] {
        let a: Matrix<f64> = random_matrix(m, k, 21);
        let b: Matrix<f64> = random_matrix(k, n, 22);
        let c0: Matrix<f64> = random_matrix(m, n, 23);
        let mut got = c0.clone();
        modgemm(1.5, Op::NoTrans, a.view(), Op::NoTrans, b.view(), -0.5, got.view_mut(), cfg);
        let wrap =
            |x: &Matrix<f64>| Matrix::from_fn(x.rows(), x.cols(), |i, j| TileOnly(x.get(i, j)));
        let (aw, bw) = (wrap(&a), wrap(&b));
        let mut want = wrap(&c0);
        let (alpha, beta) = (TileOnly(1.5), TileOnly(-0.5));
        modgemm(alpha, Op::NoTrans, aw.view(), Op::NoTrans, bw.view(), beta, want.view_mut(), cfg);
        for j in 0..n {
            for i in 0..m {
                let (g, w) = (got.get(i, j), want.get(i, j).0);
                assert_eq!(g.to_bits(), w.to_bits(), "{m}x{k}x{n} ({i},{j}): {g} vs {w}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Packed ≡ Naive, bit for bit, on integer matrices — including
    /// ragged shapes that exercise the zero-padded panel tails.
    #[test]
    fn packed_is_bit_identical_to_naive_on_i64(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 1);
        let c0: Matrix<i64> = random_matrix(m, n, seed + 2);

        let mut c_naive = c0.clone();
        Naive.mul_add(a.view(), b.view(), c_naive.view_mut());
        let mut c_packed = c0.clone();
        Packed.mul_add(a.view(), b.view(), c_packed.view_mut());
        prop_assert_eq!(&c_packed, &c_naive);

        // Auto resolves to Packed or Blocked; both are exact on i64.
        let mut c_auto = c0.clone();
        KernelKind::Auto.mul_add(a.view(), b.view(), c_auto.view_mut());
        prop_assert_eq!(&c_auto, &c_naive);
    }

    /// Packed agrees with Naive on `f64` within the standard `k`-scaled
    /// roundoff tolerance (the SIMD body reassociates the inner product
    /// across lanes, so bitwise equality is not expected).
    #[test]
    fn packed_matches_naive_within_tolerance_on_f64(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a: Matrix<f64> = random_matrix(m, k, seed);
        let b: Matrix<f64> = random_matrix(k, n, seed + 1);
        let c0: Matrix<f64> = random_matrix(m, n, seed + 2);

        let mut c_naive = c0.clone();
        Naive.mul_add(a.view(), b.view(), c_naive.view_mut());
        let mut c_packed = c0;
        Packed.mul_add(a.view(), b.view(), c_packed.view_mut());
        assert_matrix_eq(c_packed.view(), c_naive.view(), k);
    }
}
