//===- simd_math.h - Vectorized f32 transcendentals -------------*- C++ -*-===//
///
/// \file
/// Polynomial, range-reduced f32 transcendentals written against the
/// width-generic vector backends of simd.h. One template per function
/// instantiates at both vector widths, so the AVX2 and AVX-512 tiers
/// evaluate the *same* polynomial; the scalar tier calls libm instead.
/// The tiers reach these functions only through their tile ops and the
/// fused epilogue (tile_ops_simd.h).
///
/// Accuracy (validated by tests/test_simd_math.cpp against double libm,
/// through the AVX2 and AVX-512 tile-op tables):
///   vexp      <= 4 ULP on [-104, 89]; gradual denormals below -87.34;
///             exact 0 / +inf saturation outside; NaN propagates
///   vtanh     <= 8 ULP (Cephes split: odd polynomial for |x| < 0.625,
///             exp-based 1 - 2/(e^2|x|+1) above); +-1 saturation; NaN ok
///   vsigmoid  <= 8 ULP via vexp; exact 0/1 saturation; NaN propagates
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_SIMD_MATH_H
#define GC_KERNELS_SIMD_MATH_H

#include "kernels/simd.h"

namespace gc {
namespace kernels {
namespace simd {

/// exp(x), Cephes-style: n = round(x*log2e), f = x - n*ln2 (split constant),
/// degree-5 polynomial in f, then R * 2^n via two-step exponent insertion.
template <typename V> inline V vexp(V X) {
  // Clamp keeps n in the range ldexpFast supports; values past the clamp
  // saturate to 0 / +inf anyway (2^n overflow / underflow does it for us).
  V Xc = V::min_(V::max_(X, V::set1(-104.0f)), V::set1(89.0f));
  const V Fx = V::round(V::mul(Xc, V::set1(1.44269504088896341f)));
  // Two-part ln2 so f keeps full precision: C1 is ln2 rounded to 1 ulp of
  // a short mantissa, C2 the residual.
  V F = V::fma(Fx, V::set1(-0.693359375f), Xc);
  F = V::fma(Fx, V::set1(2.12194440e-4f), F);
  V P = V::set1(1.9875691500e-4f);
  P = V::fma(P, F, V::set1(1.3981999507e-3f));
  P = V::fma(P, F, V::set1(8.3334519073e-3f));
  P = V::fma(P, F, V::set1(4.1665795894e-2f));
  P = V::fma(P, F, V::set1(1.6666665459e-1f));
  P = V::fma(P, F, V::set1(5.0000001201e-1f));
  V R = V::fma(V::mul(F, F), P, V::add(F, V::set1(1.0f)));
  R = V::ldexpFast(R, Fx);
  // min/max quietly replaced NaN lanes with the clamp bound; restore them.
  return V::blend(V::isNanMask(X), X, R);
}

/// tanh(x). Cephes split: odd polynomial for |x| < 0.625, otherwise
/// 1 - 2/(exp(2|x|) + 1) with the sign restored bitwise.
template <typename V> inline V vtanh(V X) {
  const V Ax = V::abs(X);
  const V Z = V::mul(X, X);
  V Ps = V::set1(-5.70498872745e-3f);
  Ps = V::fma(Ps, Z, V::set1(2.06390887954e-2f));
  Ps = V::fma(Ps, Z, V::set1(-5.37397155531e-2f));
  Ps = V::fma(Ps, Z, V::set1(1.33314422036e-1f));
  Ps = V::fma(Ps, Z, V::set1(-3.33332819422e-1f));
  // tanh is sign-preserving: restoring the sign bit explicitly also fixes
  // the x = -0 lane, where x + (x z P) would produce +0.
  V Small = V::fma(V::mul(Ps, Z), X, X);
  Small = V::orBits(Small, V::andBits(X, V::bitsConst(0x80000000u)));
  const V E = vexp(V::add(Ax, Ax));
  V Big = V::sub(V::set1(1.0f),
                 V::div(V::set1(2.0f), V::add(E, V::set1(1.0f))));
  Big = V::orBits(Big, V::andBits(X, V::bitsConst(0x80000000u)));
  // NaN lanes: Ax is NaN, the compare is false, and the Big path carried
  // the NaN through vexp — so the blend picks the right lane already.
  return V::blend(V::ltMask(Ax, V::set1(0.625f)), Small, Big);
}

/// sigmoid(x), computed from e = exp(-|x|) so the exponential never
/// overflows: 1/(1+e) for x >= 0, e/(1+e) for x < 0. The negative branch
/// keeps vexp's relative accuracy all the way into the denormal tail
/// (sigmoid(-103) is a denormal, not 0). No cancellation anywhere.
template <typename V> inline V vsigmoid(V X) {
  const V E = vexp(V::neg(V::abs(X)));
  const V Den = V::add(E, V::set1(1.0f));
  const V Num = V::blend(V::ltMask(X, V::zero()), E, V::set1(1.0f));
  const V R = V::div(Num, Den);
  // NaN lanes fell into the positive branch and computed 1/(1+NaN) = NaN.
  return R;
}

} // namespace simd
} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_SIMD_MATH_H
