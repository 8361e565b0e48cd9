//===- test_simd_math.cpp - ULP accuracy of the vectorized math ---------------===//
//
// Validates the polynomial transcendentals of simd_math.h at every SIMD
// width, through the Exp, Tanh and Sigmoid entries of the AVX2 and AVX-512
// tile-op tables, against double-precision libm over dense sweeps and the
// edge cases: +-0, denormals, the exp overflow/underflow boundaries
// (|x| >= 88), +-inf and NaN. The bounds asserted here are the documented
// accuracy contract of simd_math.h:
//
//   exp      <= 4 ULP     tanh    <= 8 ULP     sigmoid <= 8 ULP
//
// A cross-width check pins AVX2 to within 1 ULP of AVX-512, so the
// masked-tail and ldexp paths cannot drift between instantiations. Every
// input list runs as one 1 x N tile, and the sweeps have an odd N, so the
// masked tail runs too. The scalar tier calls libm and is not under test.
//
//===----------------------------------------------------------------------===//

#include "kernels/tile_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace gc;
using namespace gc::kernels;

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// Distance in representable floats (denormals included); 0 when both NaN.
uint64_t ulpDiff(float A, float B) {
  if (std::isnan(A) && std::isnan(B))
    return 0;
  if (std::isnan(A) != std::isnan(B))
    return UINT64_MAX;
  int32_t Ia, Ib;
  std::memcpy(&Ia, &A, 4);
  std::memcpy(&Ib, &B, 4);
  // Map the sign-magnitude float order onto a monotonic integer order.
  if (Ia < 0)
    Ia = std::numeric_limits<int32_t>::min() - Ia;
  if (Ib < 0)
    Ib = std::numeric_limits<int32_t>::min() - Ib;
  const int64_t D = static_cast<int64_t>(Ia) - static_cast<int64_t>(Ib);
  return static_cast<uint64_t>(D < 0 ? -D : D);
}

/// Dense linear sweep of \p N points plus 21 edge values: an even N gives
/// an odd tile width, so the sweep ends in a masked tail at every width.
std::vector<float> sweepInputs(float Lo, float Hi, int N) {
  std::vector<float> X;
  X.reserve(static_cast<size_t>(N) + 21);
  for (int I = 0; I < N; ++I)
    X.push_back(Lo + (Hi - Lo) * static_cast<float>(I) /
                         static_cast<float>(N - 1));
  const float Edges[] = {0.0f,     -0.0f,    1e-44f,   -1e-44f, 1e-38f,
                         -1e-38f,  0.624f,   -0.624f,  0.626f,  -0.626f,
                         87.33f,   -87.33f,  88.72f,   -88.72f, 88.9f,
                         -103.97f, 1e30f,    -1e30f,   kInf,    -kInf,
                         kNan};
  X.insert(X.end(), std::begin(Edges), std::end(Edges));
  return X;
}

/// The SIMD tiers available in this build / on this CPU.
std::vector<KernelTier> simdTiers() {
  std::vector<KernelTier> T;
  for (KernelTier Tier : {KernelTier::Avx2, KernelTier::Avx512})
    if (tileOpsTable(Tier))
      T.push_back(Tier);
  return T;
}

using UnaryOp = void (*)(const TileF32 &);

/// Runs one tier's tile op over X, as a single 1 x X.size() tile.
std::vector<float> runTier(KernelTier Tier, UnaryOp TileOpsTable::*Fn,
                           const std::vector<float> &X) {
  std::vector<float> Y = X;
  const int64_t N = static_cast<int64_t>(Y.size());
  (tileOpsTable(Tier)->*Fn)(TileF32{Y.data(), 1, N, N});
  return Y;
}

void checkUlp(UnaryOp TileOpsTable::*Fn, double (*Ref)(double),
              const std::vector<float> &X, uint64_t MaxUlp) {
  ASSERT_EQ(X.size() % 2, 1u) << "the sweep must end in a masked tail";
  for (KernelTier Tier : simdTiers()) {
    const std::vector<float> Y = runTier(Tier, Fn, X);
    for (size_t I = 0; I < X.size(); ++I) {
      const float Want = static_cast<float>(Ref(static_cast<double>(X[I])));
      ASSERT_LE(ulpDiff(Y[I], Want), MaxUlp)
          << "tier " << kernelTierName(Tier) << " x=" << X[I]
          << " got=" << Y[I] << " want=" << Want;
    }
  }
}

TEST(SimdMath, ExpUlp) {
  checkUlp(&TileOpsTable::Exp, std::exp, sweepInputs(-105.0f, 90.0f, 30000),
           /*MaxUlp=*/4);
}

TEST(SimdMath, ExpEdges) {
  for (KernelTier Tier : simdTiers()) {
    const std::vector<float> X = {kInf, -kInf, kNan, 89.0f, 1e30f, -1e30f};
    const std::vector<float> Y = runTier(Tier, &TileOpsTable::Exp, X);
    EXPECT_EQ(Y[0], kInf);
    EXPECT_EQ(Y[1], 0.0f);
    EXPECT_TRUE(std::isnan(Y[2]));
    EXPECT_EQ(Y[3], kInf); // e^89 > FLT_MAX
    EXPECT_EQ(Y[4], kInf);
    EXPECT_EQ(Y[5], 0.0f);
  }
}

TEST(SimdMath, ExpDenormalOutputs) {
  // exp underflows gradually below ~-87.34; the two-step 2^n scaling must
  // produce denormals, not flush to zero.
  for (KernelTier Tier : simdTiers()) {
    const std::vector<float> X = {-88.0f, -95.0f, -100.0f, -102.0f};
    const std::vector<float> Y = runTier(Tier, &TileOpsTable::Exp, X);
    for (size_t I = 0; I < X.size(); ++I) {
      const float Want = static_cast<float>(std::exp(double(X[I])));
      ASSERT_GT(Y[I], 0.0f) << "flushed to zero at x=" << X[I];
      ASSERT_LE(ulpDiff(Y[I], Want), 4u) << "x=" << X[I];
    }
  }
}

TEST(SimdMath, TanhUlp) {
  checkUlp(&TileOpsTable::Tanh, std::tanh, sweepInputs(-12.0f, 12.0f, 30000),
           /*MaxUlp=*/8);
}

TEST(SimdMath, TanhSaturatesAndSigns) {
  for (KernelTier Tier : simdTiers()) {
    const std::vector<float> X = {kInf, -kInf, 20.0f, -20.0f, 0.0f, -0.0f,
                                  kNan};
    const std::vector<float> Y = runTier(Tier, &TileOpsTable::Tanh, X);
    EXPECT_EQ(Y[0], 1.0f);
    EXPECT_EQ(Y[1], -1.0f);
    EXPECT_EQ(Y[2], 1.0f);
    EXPECT_EQ(Y[3], -1.0f);
    EXPECT_EQ(Y[4], 0.0f);
    EXPECT_TRUE(std::signbit(Y[5])); // tanh(-0) = -0
    EXPECT_TRUE(std::isnan(Y[6]));
  }
}

TEST(SimdMath, SigmoidUlp) {
  const auto Ref = [](double X) { return 1.0 / (1.0 + std::exp(-X)); };
  checkUlp(&TileOpsTable::Sigmoid, +Ref, sweepInputs(-105.0f, 105.0f, 30000),
           /*MaxUlp=*/8);
}

TEST(SimdMath, SigmoidEdges) {
  for (KernelTier Tier : simdTiers()) {
    const std::vector<float> X = {kInf, -kInf, 200.0f, -200.0f, kNan};
    const std::vector<float> Y = runTier(Tier, &TileOpsTable::Sigmoid, X);
    EXPECT_EQ(Y[0], 1.0f);
    EXPECT_EQ(Y[1], 0.0f);
    EXPECT_EQ(Y[2], 1.0f);
    EXPECT_EQ(Y[3], 0.0f);
    EXPECT_TRUE(std::isnan(Y[4]));
  }
}

TEST(SimdMath, TiersAgreeWithinOneUlp) {
  // Both widths run the same polynomial and the same two-step 2^n scaling;
  // the contract leaves them 1 ULP apart.
  if (!tileOpsTable(KernelTier::Avx2) || !tileOpsTable(KernelTier::Avx512))
    GTEST_SKIP() << "needs both the AVX2 and the AVX-512 tier";
  const std::vector<float> X = sweepInputs(-30.0f, 30.0f, 5002); // odd: tail
  for (UnaryOp TileOpsTable::*Fn :
       {&TileOpsTable::Exp, &TileOpsTable::Tanh, &TileOpsTable::Sigmoid}) {
    const std::vector<float> Base = runTier(KernelTier::Avx512, Fn, X);
    const std::vector<float> Y = runTier(KernelTier::Avx2, Fn, X);
    for (size_t I = 0; I < X.size(); ++I)
      ASSERT_LE(ulpDiff(Y[I], Base[I]), 1u) << "x=" << X[I];
  }
}

} // namespace
