//! The element trait shared by all kernels.
//!
//! Every algorithm in the workspace is generic over [`Scalar`]. Three
//! instances are provided:
//!
//! * `f64` — the type of the paper's `dgemm` experiments,
//! * `f32` — the single-precision (`sgemm`) variant,
//! * `i64` — an exact arithmetic instance used by the test suite to verify
//!   that the Strassen-Winograd *schedules* compute exactly `A·B` with no
//!   tolerance fudging.
//!
//! A scalar may also supply a vectorized body for the packed kernel
//! ([`Scalar::packed_scatter_microkernel`]). `f32` and `f64` do on SIMD
//! hosts; `i64` always runs the portable body, so integer results are
//! exact and identical on every host.

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Element type of a matrix. A commutative ring with a handful of helpers
/// needed by the kernels and the test machinery.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + Debug
    + Display
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// `self * a + b`, written out so the compiler may (but is not forced
    /// to) contract it; we intentionally avoid `f64::mul_add`, which falls
    /// back to a slow libm call on targets without an FMA unit.
    #[inline(always)]
    fn madd(self, a: Self, b: Self) -> Self {
        self * a + b
    }

    /// Absolute value.
    fn abs_val(self) -> Self;

    /// Lossy conversion from `f64` (used by generators; for `i64` this
    /// truncates, which is fine because integer workloads are generated
    /// from small integral values).
    fn from_f64(x: f64) -> Self;

    /// Lossy conversion to `f64` (used by norms and reporting).
    fn to_f64(self) -> f64;

    /// Machine epsilon as `f64` (`0.0` for exact types). Drives the scaled
    /// tolerances in [`crate::norms`].
    fn epsilon_f64() -> f64;

    /// The vectorized packed-panel microkernel body for this scalar on
    /// the current host, or `None` when only the portable
    /// [`crate::pack::microkernel_scatter_generic`] applies (exact types,
    /// complex, or hosts without a detected vector unit). The default is
    /// `None`; `f32`/`f64` override it with the runtime selectors in
    /// [`crate::simd`]. Detection is cached process-wide, so the packed
    /// driver's lookup on every leaf multiply costs one atomic load.
    #[inline]
    fn packed_scatter_microkernel() -> Option<crate::simd::ScatterMicroKernelFn<Self>> {
        None
    }

    /// The `2·MR × 2·NR` block body the packed sweep runs over 2×2 blocks
    /// of full panels ([`crate::simd::block_microkernel_f64`]), or `None`
    /// when every tile runs [`Self::packed_scatter_microkernel`]'s body.
    /// Only `f64` on an AVX-512F host has one.
    #[inline]
    fn packed_block_microkernel() -> Option<crate::simd::ScatterMicroKernelFn<Self>> {
        None
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn abs_val(self) -> Self {
        self.abs()
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    fn epsilon_f64() -> f64 {
        f64::EPSILON
    }

    #[inline]
    fn packed_scatter_microkernel() -> Option<crate::simd::ScatterMicroKernelFn<Self>> {
        crate::simd::scatter_microkernel_f64()
    }

    #[inline]
    fn packed_block_microkernel() -> Option<crate::simd::ScatterMicroKernelFn<Self>> {
        crate::simd::block_microkernel_f64()
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn abs_val(self) -> Self {
        self.abs()
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    fn epsilon_f64() -> f64 {
        f32::EPSILON as f64
    }

    #[inline]
    fn packed_scatter_microkernel() -> Option<crate::simd::ScatterMicroKernelFn<Self>> {
        crate::simd::scatter_microkernel_f32()
    }
}

impl Scalar for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn abs_val(self) -> Self {
        self.abs()
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as i64
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    fn epsilon_f64() -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::eq_op)] // `a - a == 0` is the law under test
    fn ring_laws<S: Scalar>(a: S, b: S, c: S) {
        assert_eq!(a + S::ZERO, a);
        assert_eq!(a * S::ONE, a);
        assert_eq!(a * S::ZERO, S::ZERO);
        assert_eq!(a + b, b + a);
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a - a, S::ZERO);
        assert_eq!(-a + a, S::ZERO);
    }

    #[test]
    fn f64_ring() {
        ring_laws(2.5f64, -3.0, 4.0);
    }

    #[test]
    fn f32_ring() {
        ring_laws(2.5f32, -3.0, 4.0);
    }

    #[test]
    fn i64_ring() {
        ring_laws(7i64, -3, 11);
    }

    #[test]
    fn madd_matches_expression() {
        assert_eq!(3.0f64.madd(4.0, 5.0), 17.0);
        assert_eq!(3i64.madd(4, 5), 17);
    }

    #[test]
    fn conversions_roundtrip_small_ints() {
        for v in -10..=10 {
            assert_eq!(i64::from_f64(v as f64), v);
            assert_eq!(f64::from_f64(v as f64), v as f64);
            assert_eq!((v as f64).to_f64(), v as f64);
        }
    }

    #[test]
    fn epsilon_ordering() {
        assert!(i64::epsilon_f64() == 0.0);
        assert!(f64::epsilon_f64() < f32::epsilon_f64());
    }
}
