//===- test_kernels_tile_ops.cpp - tile kernel tests ---------------------------===//
//
// Per-kernel correctness of the fusible-op tile vocabulary, including the
// strided (Ld > Cols) forms the fused-op template uses when a tile is a
// window into a larger blocked tensor, and the quantization bridges.
//
//===----------------------------------------------------------------------===//

#include "kernels/tile_ops.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

using namespace gc;
using namespace gc::kernels;
using namespace gc::test;

namespace {

constexpr int64_t Rows = 7, Cols = 13, Ld = 16; // strided on purpose

/// Builds a Rows x Ld backing region; only the first Cols of each row are
/// "the tile"; the rest must never be touched.
struct StridedTile {
  std::vector<float> Data;
  StridedTile(uint64_t Seed) : Data(randomF32(Rows * Ld, Seed)) {}
  TileF32 tile() { return TileF32{Data.data(), Rows, Cols, Ld}; }
  float &at(int64_t R, int64_t C) {
    return Data[static_cast<size_t>(R * Ld + C)];
  }
};

/// Asserts the padding columns kept their original values.
void expectPaddingUntouched(const StridedTile &T, const StridedTile &Orig) {
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = Cols; C < Ld; ++C)
      ASSERT_EQ(T.Data[static_cast<size_t>(R * Ld + C)],
                Orig.Data[static_cast<size_t>(R * Ld + C)])
          << "kernel wrote outside the tile";
}

TEST(TileOps, Relu) {
  StridedTile T(1), Orig(1);
  activeTileOps().Relu(T.tile());
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_EQ(T.at(R, C), std::max(Orig.at(R, C), 0.0f));
  expectPaddingUntouched(T, Orig);
}

TEST(TileOps, Exp) {
  StridedTile T(2), Orig(2);
  activeTileOps().Exp(T.tile());
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_NEAR(T.at(R, C), std::exp(Orig.at(R, C)), kF32Tol);
  expectPaddingUntouched(T, Orig);
}

TEST(TileOps, Affine) {
  StridedTile T(3), Orig(3);
  activeTileOps().Affine(T.tile(), 2.5f, -1.25f);
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_NEAR(T.at(R, C), Orig.at(R, C) * 2.5f - 1.25f, kF32Tol);
}

TEST(TileOps, BinaryOps) {
  StridedTile X(5), Y(6), OrigX(5);
  ConstTileF32 YT{Y.Data.data(), Ld};
  activeTileOps().Add(X.tile(), YT);
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_NEAR(X.at(R, C), OrigX.at(R, C) + Y.at(R, C), kF32Tol);

  StridedTile X2(5);
  activeTileOps().Div(X2.tile(), YT);
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_NEAR(X2.at(R, C), OrigX.at(R, C) / Y.at(R, C), kF32Tol);

  StridedTile X3(5);
  activeTileOps().Max(X3.tile(), YT);
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_EQ(X3.at(R, C), std::max(OrigX.at(R, C), Y.at(R, C)));
}

TEST(TileOps, RowVecBroadcast) {
  StridedTile X(7), Orig(7);
  const auto V = randomF32(Cols, 8);
  activeTileOps().MulRowVec(X.tile(), V.data());
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_NEAR(X.at(R, C), Orig.at(R, C) * V[static_cast<size_t>(C)],
                  kF32Tol);
}

TEST(TileOps, ColVecBroadcast) {
  StridedTile X(9), Orig(9);
  auto V = randomF32(Rows, 10);
  for (float &F : V)
    F = std::abs(F) + 0.5f; // keep divisors away from zero
  activeTileOps().DivColVec(X.tile(), V.data());
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_NEAR(X.at(R, C), Orig.at(R, C) / V[static_cast<size_t>(R)],
                  kF32Tol);
}

TEST(TileOps, ReduceSumRows) {
  StridedTile X(11);
  std::vector<float> Out(Rows, 100.0f);
  activeTileOps().ReduceSumRows(X.tile(), Out.data(), /*Accumulate=*/false);
  for (int64_t R = 0; R < Rows; ++R) {
    float Expected = 0.0f;
    for (int64_t C = 0; C < Cols; ++C)
      Expected += X.at(R, C);
    ASSERT_NEAR(Out[static_cast<size_t>(R)], Expected, kF32Tol);
  }
  // Accumulating form adds on top.
  std::vector<float> Out2 = Out;
  activeTileOps().ReduceSumRows(X.tile(), Out2.data(), /*Accumulate=*/true);
  for (int64_t R = 0; R < Rows; ++R)
    ASSERT_NEAR(Out2[static_cast<size_t>(R)],
                2.0f * Out[static_cast<size_t>(R)], kF32Tol);
}

TEST(TileOps, ReduceMaxRows) {
  StridedTile X(12);
  std::vector<float> Out(Rows, 0.0f);
  activeTileOps().ReduceMaxRows(X.tile(), Out.data(), /*Accumulate=*/false);
  for (int64_t R = 0; R < Rows; ++R) {
    float Expected = X.at(R, 0);
    for (int64_t C = 1; C < Cols; ++C)
      Expected = std::max(Expected, X.at(R, C));
    ASSERT_EQ(Out[static_cast<size_t>(R)], Expected);
  }
}

TEST(TileOps, StridedCopy) {
  StridedTile Src(13);
  std::vector<float> Dst(static_cast<size_t>(Rows * Cols), 0.0f);
  copyTile(TileF32{Dst.data(), Rows, Cols, Cols},
           ConstTileF32{Src.Data.data(), Ld});
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_EQ(Dst[static_cast<size_t>(R * Cols + C)], Src.at(R, C));
}

//===----------------------------------------------------------------------===//
// Quantization bridges
//===----------------------------------------------------------------------===//

TEST(TileOps, QuantDequantU8RoundTrip) {
  StridedTile X(14);
  const float Scale = 0.02f;
  const int32_t Zp = 128;
  std::vector<uint8_t> Q(static_cast<size_t>(Rows * Cols));
  const TileOpsTable &K = activeTileOps();
  K.QuantizeU8(Q.data(), Cols, X.Data.data(), Ld, Rows, Cols, 1.0f / Scale, Zp);
  std::vector<float> Back(static_cast<size_t>(Rows * Cols));
  K.DequantU8(Back.data(), Cols, Q.data(), Cols, Rows, Cols, Scale, Zp);
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t C = 0; C < Cols; ++C)
      ASSERT_NEAR(Back[static_cast<size_t>(R * Cols + C)], X.at(R, C),
                  Scale * 0.51); // half-ulp of the quantization grid
}

TEST(TileOps, QuantU8Saturates) {
  std::vector<float> Big = {1e6f, -1e6f, 0.0f};
  std::vector<uint8_t> Q(3);
  activeTileOps().QuantizeU8(Q.data(), 3, Big.data(), 3, 1, 3, 1.0f, 10);
  EXPECT_EQ(Q[0], 255);
  EXPECT_EQ(Q[1], 0);
  EXPECT_EQ(Q[2], 10);
}

TEST(TileOps, QuantizeSaturatesPastInt32AtEveryTier) {
  // |x * InvScale| >= 2^31 must saturate, not wrap through int32. Repeated
  // across 37 columns so the SIMD tiers cover full vectors and a tail.
  const float Inf = std::numeric_limits<float>::infinity();
  const float Big[] = {3e9f, -3e9f, 5e9f, -5e9f, Inf, -Inf};
  const uint8_t WantU8[] = {255, 0, 255, 0, 255, 0};
  const int8_t WantS8[] = {127, -128, 127, -128, 127, -128};
  constexpr int64_t Cols = 37;
  std::vector<float> X(Cols);
  for (int64_t C = 0; C < Cols; ++C)
    X[static_cast<size_t>(C)] = Big[C % 6];
  for (KernelTier Tier :
       {KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512}) {
    const TileOpsTable *T = tileOpsTable(Tier);
    if (!T)
      continue;
    std::vector<uint8_t> U8(Cols);
    std::vector<int8_t> S8(Cols);
    T->QuantizeU8(U8.data(), Cols, X.data(), Cols, 1, Cols, 1.0f, 10);
    T->QuantizeS8(S8.data(), Cols, X.data(), Cols, 1, Cols, 1.0f);
    for (int64_t C = 0; C < Cols; ++C) {
      EXPECT_EQ(U8[static_cast<size_t>(C)], WantU8[C % 6])
          << kernelTierName(Tier) << " u8 of " << Big[C % 6];
      EXPECT_EQ(S8[static_cast<size_t>(C)], WantS8[C % 6])
          << kernelTierName(Tier) << " s8 of " << Big[C % 6];
    }
  }
}

TEST(TileOps, DequantAccMatchesFormula) {
  const int64_t R = 4, C = 6;
  std::vector<int32_t> Acc(static_cast<size_t>(R * C));
  for (size_t I = 0; I < Acc.size(); ++I)
    Acc[I] = static_cast<int32_t>(I * 37) - 50;
  std::vector<int32_t> Comp = {3, -1, 4, 1, -5, 9};
  auto ScaleVec = randomF32(C, 15);
  const int32_t AZp = 7;
  std::vector<float> Out(static_cast<size_t>(R * C));
  activeTileOps().DequantAcc(Out.data(), C, Acc.data(), C, R, C, Comp.data(),
                             AZp, ScaleVec.data());
  for (int64_t RI = 0; RI < R; ++RI)
    for (int64_t CI = 0; CI < C; ++CI) {
      const int32_t Adj = Acc[static_cast<size_t>(RI * C + CI)] -
                          AZp * Comp[static_cast<size_t>(CI)];
      ASSERT_NEAR(Out[static_cast<size_t>(RI * C + CI)],
                  static_cast<float>(Adj) * ScaleVec[static_cast<size_t>(CI)],
                  kF32Tol);
    }
}

//===----------------------------------------------------------------------===//
// Scalar-vs-SIMD differential sweep
//
// Every op of every available SIMD tier table against the scalar oracle
// table, over shapes that exercise full vector blocks, masked tails
// (Cols % width != 0) and strided rows (Ld > Cols). Exact ops (single
// IEEE operations in both paths) and the quantization bridges must match
// bitwise; fma-contracted and transcendental ops within the documented
// bounds.
//===----------------------------------------------------------------------===//

struct DiffShape {
  int64_t Rows, Cols, Ld;
};

class TileOpsDiffSweep : public ::testing::TestWithParam<DiffShape> {
protected:
  /// Runs Op against both tables on identical random data; checks results
  /// within Tol (0 = bitwise) and that the row padding is untouched.
  template <typename OpFn>
  void diffOne(const char *Name, uint64_t Seed, double Tol, OpFn Op) {
    const DiffShape S = GetParam();
    for (KernelTier Tier : {KernelTier::Avx2, KernelTier::Avx512}) {
      const TileOpsTable *Simd = tileOpsTable(Tier);
      if (!Simd)
        continue;
      const TileOpsTable *Scalar = tileOpsTable(KernelTier::Scalar);
      auto Ref = randomF32(S.Rows * S.Ld, Seed);
      auto Vec = Ref;
      const auto Orig = Ref;
      Op(*Scalar, TileF32{Ref.data(), S.Rows, S.Cols, S.Ld});
      Op(*Simd, TileF32{Vec.data(), S.Rows, S.Cols, S.Ld});
      for (int64_t R = 0; R < S.Rows; ++R) {
        for (int64_t C = 0; C < S.Cols; ++C) {
          const size_t I = static_cast<size_t>(R * S.Ld + C);
          if (Tol == 0.0)
            ASSERT_EQ(Ref[I], Vec[I])
                << Name << " tier=" << kernelTierName(Tier) << " r=" << R
                << " c=" << C;
          else
            ASSERT_NEAR(Ref[I], Vec[I], Tol)
                << Name << " tier=" << kernelTierName(Tier) << " r=" << R
                << " c=" << C;
        }
        for (int64_t C = S.Cols; C < S.Ld; ++C) {
          const size_t I = static_cast<size_t>(R * S.Ld + C);
          ASSERT_EQ(Vec[I], Orig[I])
              << Name << " wrote padding at r=" << R << " c=" << C;
        }
      }
    }
  }

  /// Runs a quantization bridge on the scalar oracle and on each SIMD tier
  /// with identical inputs. Op(Table, Dst, DstLd) writes a Rows x Cols
  /// tile of T into a Rows x Ld destination prefilled with \p Fill; the
  /// tile must match bit for bit and the bytes past Cols stay Fill.
  template <typename T, typename OpFn>
  void diffBridge(const char *Name, T Fill, OpFn Op) {
    const DiffShape S = GetParam();
    const TileOpsTable *Scalar = tileOpsTable(KernelTier::Scalar);
    for (KernelTier Tier : {KernelTier::Avx2, KernelTier::Avx512}) {
      const TileOpsTable *Simd = tileOpsTable(Tier);
      if (!Simd)
        continue;
      std::vector<T> Ref(static_cast<size_t>(S.Rows * S.Ld), Fill);
      std::vector<T> Vec = Ref;
      Op(*Scalar, Ref.data(), S.Ld);
      Op(*Simd, Vec.data(), S.Ld);
      for (int64_t R = 0; R < S.Rows; ++R)
        for (int64_t C = 0; C < S.Ld; ++C) {
          const size_t I = static_cast<size_t>(R * S.Ld + C);
          const T &Want = C < S.Cols ? Ref[I] : Fill;
          ASSERT_EQ(std::memcmp(&Vec[I], &Want, sizeof(T)), 0)
              << Name << " tier=" << kernelTierName(Tier) << " r=" << R
              << " c=" << C << (C < S.Cols ? "" : " (padding)") << ": "
              << +Vec[I] << " vs " << +Want;
        }
    }
  }
};

/// Quantizer inputs: scaled random values, exact half-steps k + 0.5 (ties
/// that must round to even) and values that saturate u8 and s8, including
/// magnitudes past 2^31 and infinities.
std::vector<float> quantInputs(int64_t N, uint64_t Seed) {
  static const float Specials[] = {
      3e9f,   -3e9f,  5e9f,   -5e9f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), 1e6f, -1e6f, 255.5f, 254.5f,
      127.5f, -128.5f, -127.5f, 0.5f, -0.5f, 1.5f, 2.5f, -0.0f};
  std::vector<float> X = randomF32(N, Seed);
  for (size_t I = 0; I < X.size(); ++I) {
    const float Half = std::floor(X[I] * 140.0f) + 0.5f;
    switch (I % 4) {
    case 0: X[I] *= 300.0f; break;
    case 1: X[I] = Half; break;
    case 2: X[I] = Specials[(I / 4) % (sizeof(Specials) / sizeof(float))]; break;
    default: X[I] = Half + 128.0f; break;
    }
  }
  return X;
}

TEST_P(TileOpsDiffSweep, ExactUnary) {
  diffOne("relu", 21, 0.0,
          [](const TileOpsTable &T, TileF32 X) { T.Relu(X); });
  diffOne("sqrt", 22, 0.0, [](const TileOpsTable &T, TileF32 X) {
    // abs first: sqrt of negatives is NaN and NaN != NaN under ASSERT_EQ.
    for (int64_t R = 0; R < X.Rows; ++R)
      for (int64_t C = 0; C < X.Cols; ++C)
        X.Data[R * X.Ld + C] = std::fabs(X.Data[R * X.Ld + C]);
    T.Sqrt(X);
  });
  diffOne("recip", 23, 0.0,
          [](const TileOpsTable &T, TileF32 X) { T.Recip(X); });
  diffOne("square", 24, 0.0,
          [](const TileOpsTable &T, TileF32 X) { T.Square(X); });
  diffOne("fill", 25, 0.0,
          [](const TileOpsTable &T, TileF32 X) { T.Fill(X, 0.375f); });
}

TEST_P(TileOpsDiffSweep, AffineWithinOneUlp) {
  // Scalar computes mul+add (two roundings at the baseline ISA), the SIMD
  // path one fma — at most 1 ulp apart on [-1, 1) data.
  diffOne("affine", 26, 2e-7,
          [](const TileOpsTable &T, TileF32 X) { T.Affine(X, 1.7f, -0.3f); });
}

TEST_P(TileOpsDiffSweep, ExactBinary) {
  const DiffShape S = GetParam();
  const auto Y = randomF32(S.Rows * S.Ld, 31);
  const ConstTileF32 YT{Y.data(), S.Ld};
  diffOne("add", 32, 0.0,
          [&](const TileOpsTable &T, TileF32 X) { T.Add(X, YT); });
  diffOne("sub", 33, 0.0,
          [&](const TileOpsTable &T, TileF32 X) { T.Sub(X, YT); });
  diffOne("mul", 34, 0.0,
          [&](const TileOpsTable &T, TileF32 X) { T.Mul(X, YT); });
  diffOne("div", 35, 0.0,
          [&](const TileOpsTable &T, TileF32 X) { T.Div(X, YT); });
  diffOne("max", 36, 0.0,
          [&](const TileOpsTable &T, TileF32 X) { T.Max(X, YT); });
  diffOne("min", 37, 0.0,
          [&](const TileOpsTable &T, TileF32 X) { T.Min(X, YT); });
}

TEST_P(TileOpsDiffSweep, ExactBroadcast) {
  const DiffShape S = GetParam();
  const auto RowV = randomF32(S.Cols, 41);
  auto ColV = randomF32(S.Rows, 42);
  for (float &F : ColV)
    F = std::abs(F) + 0.5f; // divisor safety
  diffOne("addRowVec", 43, 0.0, [&](const TileOpsTable &T, TileF32 X) {
    T.AddRowVec(X, RowV.data());
  });
  diffOne("subRowVec", 44, 0.0, [&](const TileOpsTable &T, TileF32 X) {
    T.SubRowVec(X, RowV.data());
  });
  diffOne("mulRowVec", 45, 0.0, [&](const TileOpsTable &T, TileF32 X) {
    T.MulRowVec(X, RowV.data());
  });
  diffOne("addColVec", 46, 0.0, [&](const TileOpsTable &T, TileF32 X) {
    T.AddColVec(X, ColV.data());
  });
  diffOne("subColVec", 47, 0.0, [&](const TileOpsTable &T, TileF32 X) {
    T.SubColVec(X, ColV.data());
  });
  diffOne("mulColVec", 48, 0.0, [&](const TileOpsTable &T, TileF32 X) {
    T.MulColVec(X, ColV.data());
  });
  diffOne("divColVec", 49, 0.0, [&](const TileOpsTable &T, TileF32 X) {
    T.DivColVec(X, ColV.data());
  });
}

TEST_P(TileOpsDiffSweep, TranscendentalsWithinBounds) {
  // Polynomial vs libm: inputs in [-1, 1) keep outputs O(1), so the
  // documented ULP bounds translate to ~1e-6 absolute.
  diffOne("exp", 51, 2e-6,
          [](const TileOpsTable &T, TileF32 X) { T.Exp(X); });
  diffOne("tanh", 52, 2e-6,
          [](const TileOpsTable &T, TileF32 X) { T.Tanh(X); });
  diffOne("sigmoid", 53, 2e-6,
          [](const TileOpsTable &T, TileF32 X) { T.Sigmoid(X); });
}

TEST_P(TileOpsDiffSweep, Reductions) {
  const DiffShape S = GetParam();
  for (KernelTier Tier : {KernelTier::Avx2, KernelTier::Avx512}) {
    const TileOpsTable *Simd = tileOpsTable(Tier);
    if (!Simd)
      continue;
    const TileOpsTable *Scalar = tileOpsTable(KernelTier::Scalar);
    auto X = randomF32(S.Rows * S.Ld, 61);
    const TileF32 XT{X.data(), S.Rows, S.Cols, S.Ld};
    for (bool Accumulate : {false, true}) {
      std::vector<float> OutRef(static_cast<size_t>(S.Rows), 0.25f);
      std::vector<float> OutVec = OutRef;
      Scalar->ReduceSumRows(XT, OutRef.data(), Accumulate);
      Simd->ReduceSumRows(XT, OutVec.data(), Accumulate);
      for (int64_t R = 0; R < S.Rows; ++R)
        ASSERT_NEAR(OutRef[static_cast<size_t>(R)],
                    OutVec[static_cast<size_t>(R)], kF32Tol)
            << "sum tier=" << kernelTierName(Tier) << " acc=" << Accumulate;
      // Max: different association order but identical values -> exact.
      // Fresh outputs: reusing the sum outputs would feed the two paths
      // different accumulation baselines.
      std::vector<float> MaxRef(static_cast<size_t>(S.Rows), 0.25f);
      std::vector<float> MaxVec = MaxRef;
      Scalar->ReduceMaxRows(XT, MaxRef.data(), Accumulate);
      Simd->ReduceMaxRows(XT, MaxVec.data(), Accumulate);
      for (int64_t R = 0; R < S.Rows; ++R)
        ASSERT_EQ(MaxRef[static_cast<size_t>(R)],
                  MaxVec[static_cast<size_t>(R)])
            << "max tier=" << kernelTierName(Tier) << " acc=" << Accumulate;
    }
  }
}

TEST_P(TileOpsDiffSweep, QuantBridgesBitExact) {
  const DiffShape S = GetParam();
  const int64_t N = S.Rows * S.Ld;
  const std::vector<float> X = quantInputs(N, 81);
  for (float InvScale : {1.0f, 0.37f}) {
    for (int32_t Zp : {0, 3, 128}) {
      diffBridge<uint8_t>("quantizeU8", 0xa5,
                          [&](const TileOpsTable &T, uint8_t *D, int64_t Ld) {
                            T.QuantizeU8(D, Ld, X.data(), S.Ld, S.Rows,
                                         S.Cols, InvScale, Zp);
                          });
    }
    diffBridge<int8_t>("quantizeS8", 0x5a,
                       [&](const TileOpsTable &T, int8_t *D, int64_t Ld) {
                         T.QuantizeS8(D, Ld, X.data(), S.Ld, S.Rows, S.Cols,
                                      InvScale);
                       });
  }

  const std::vector<uint8_t> U8 = randomU8(N, 82);
  const std::vector<int8_t> S8 = randomS8(N, 83);
  const std::vector<float> ScaleVec = randomF32(S.Cols, 84);
  // s32 accumulators up to +-2^30: past 2^24, so the int -> f32 convert
  // rounds, and the compensation product stays in range.
  std::vector<int32_t> S32(static_cast<size_t>(N));
  std::vector<int32_t> Comp(static_cast<size_t>(S.Cols));
  {
    const std::vector<float> R = randomF32(N + S.Cols, 85);
    for (int64_t I = 0; I < N; ++I)
      S32[static_cast<size_t>(I)] =
          static_cast<int32_t>(R[static_cast<size_t>(I)] * 1073741824.0f);
    for (int64_t C = 0; C < S.Cols; ++C)
      Comp[static_cast<size_t>(C)] =
          static_cast<int32_t>(R[static_cast<size_t>(N + C)] * 40000.0f);
  }
  const float FillF = -777.25f;
  for (int32_t AZp : {0, 7}) {
    diffBridge<float>("dequantAcc", FillF,
                      [&](const TileOpsTable &T, float *D, int64_t Ld) {
                        T.DequantAcc(D, Ld, S32.data(), S.Ld, S.Rows, S.Cols,
                                     Comp.data(), AZp, ScaleVec.data());
                      });
  }
  diffBridge<float>("dequantU8", FillF,
                    [&](const TileOpsTable &T, float *D, int64_t Ld) {
                      T.DequantU8(D, Ld, U8.data(), S.Ld, S.Rows, S.Cols,
                                  0.37f, 5);
                    });
  diffBridge<float>("dequantS8PerChannel", FillF,
                    [&](const TileOpsTable &T, float *D, int64_t Ld) {
                      T.DequantS8PerChannel(D, Ld, S8.data(), S.Ld, S.Rows,
                                            S.Cols, ScaleVec.data());
                    });
  diffBridge<float>("castS32F32", FillF,
                    [&](const TileOpsTable &T, float *D, int64_t Ld) {
                      T.CastS32F32(D, Ld, S32.data(), S.Ld, S.Rows, S.Cols,
                                   0.37f);
                    });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TileOpsDiffSweep,
    ::testing::Values(DiffShape{1, 1, 1}, DiffShape{1, 7, 7},
                      DiffShape{3, 8, 8}, DiffShape{7, 13, 16},
                      DiffShape{4, 16, 16}, DiffShape{5, 17, 24},
                      DiffShape{2, 31, 33}, DiffShape{6, 32, 32},
                      DiffShape{3, 33, 40}, DiffShape{8, 64, 64},
                      DiffShape{1, 100, 103}, DiffShape{9, 15, 15}));

TEST(TileOps, DequantS8PerChannel) {
  const int64_t R = 3, C = 5;
  auto Src = randomS8(R * C, 16);
  auto ScaleVec = randomF32(C, 17);
  std::vector<float> Out(static_cast<size_t>(R * C));
  activeTileOps().DequantS8PerChannel(Out.data(), C, Src.data(), C, R, C,
                                      ScaleVec.data());
  for (int64_t RI = 0; RI < R; ++RI)
    for (int64_t CI = 0; CI < C; ++CI)
      ASSERT_NEAR(Out[static_cast<size_t>(RI * C + CI)],
                  static_cast<float>(Src[static_cast<size_t>(RI * C + CI)]) *
                      ScaleVec[static_cast<size_t>(CI)],
                  kF32Tol);
}

} // namespace
