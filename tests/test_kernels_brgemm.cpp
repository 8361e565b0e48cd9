//===- test_kernels_brgemm.cpp - brgemm microkernel tests ---------------------===//
//
// Validates the batch-reduce GEMM microkernel (§III) against naive oracles:
// ISA path vs portable path, accumulate vs init, batch reduction, ragged
// M/N tails, and a parameterized sweep over tile shapes.
//
//===----------------------------------------------------------------------===//

#include "kernels/brgemm.h"
#include "kernels/packing.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace gc;
using namespace gc::kernels;
using namespace gc::test;

namespace {

/// Runs one f32 brgemm with contiguous tiles and checks against the oracle.
void checkBrgemmF32(int64_t M, int64_t N, int64_t K, int64_t Batch,
                    bool InitC) {
  const auto A = randomF32(Batch * M * K, 1);
  const auto B = randomF32(Batch * K * N, 2);
  std::vector<float> C(static_cast<size_t>(M * N), 0.5f);
  std::vector<float> Expected = C;

  BrgemmF32Args Args;
  Args.A = A.data();
  Args.AStrideBatch = M * K;
  Args.Lda = K;
  Args.B = B.data();
  Args.BStrideBatch = K * N;
  Args.Ldb = N;
  Args.C = C.data();
  Args.Ldc = N;
  Args.M = M;
  Args.N = N;
  Args.K = K;
  Args.Batch = Batch;
  Args.InitC = InitC;
  brgemmF32(Args);

  // Oracle.
  if (InitC)
    std::fill(Expected.begin(), Expected.end(), 0.0f);
  for (int64_t BI = 0; BI < Batch; ++BI) {
    const std::vector<float> ATile(A.begin() + BI * M * K,
                                   A.begin() + (BI + 1) * M * K);
    const std::vector<float> BTile(B.begin() + BI * K * N,
                                   B.begin() + (BI + 1) * K * N);
    const auto Partial = naiveGemmF32(ATile, BTile, M, N, K);
    for (size_t I = 0; I < Partial.size(); ++I)
      Expected[I] += Partial[I];
  }
  for (size_t I = 0; I < C.size(); ++I)
    ASSERT_NEAR(C[I], Expected[I], kF32Tol * static_cast<double>(K * Batch))
        << "at " << I << " for M=" << M << " N=" << N << " K=" << K;
}

TEST(BrgemmF32, SingleTileInit) { checkBrgemmF32(32, 32, 64, 1, true); }

TEST(BrgemmF32, SingleTileAccumulate) {
  checkBrgemmF32(16, 32, 32, 1, false);
}

TEST(BrgemmF32, BatchReduction) { checkBrgemmF32(32, 64, 32, 4, true); }

TEST(BrgemmF32, MTail) { checkBrgemmF32(13, 32, 32, 2, true); }

TEST(BrgemmF32, NTail) { checkBrgemmF32(32, 17, 32, 2, true); }

TEST(BrgemmF32, TinyGemmv) { checkBrgemmF32(5, 1, 64, 1, true); }

TEST(BrgemmF32, SingleRow) { checkBrgemmF32(1, 48, 32, 3, false); }

TEST(BrgemmF32, MatchesPortableReference) {
  const int64_t M = 23, N = 45, K = 32, Batch = 3;
  const auto A = randomF32(Batch * M * K, 7);
  const auto B = randomF32(Batch * K * N, 8);
  std::vector<float> C1(static_cast<size_t>(M * N), 0.0f);
  std::vector<float> C2 = C1;
  BrgemmF32Args Args;
  Args.A = A.data(); Args.AStrideBatch = M * K; Args.Lda = K;
  Args.B = B.data(); Args.BStrideBatch = K * N; Args.Ldb = N;
  Args.M = M; Args.N = N; Args.K = K; Args.Batch = Batch; Args.InitC = true;
  Args.C = C1.data(); Args.Ldc = N;
  brgemmF32(Args);
  Args.C = C2.data();
  brgemmF32Ref(Args);
  for (size_t I = 0; I < C1.size(); ++I)
    ASSERT_NEAR(C1[I], C2[I], kF32Tol * K);
}

/// u8s8 check through the VNNI-packed layout.
void checkBrgemmU8S8(int64_t M, int64_t N, int64_t K, int64_t Batch,
                     bool InitC) {
  const int64_t KPad = (K + 3) / 4 * 4;
  const auto A = randomU8(Batch * M * KPad, 3);
  // Build plain B, pack into VNNI layout per batch.
  std::vector<int8_t> BPlain = randomS8(Batch * K * N, 4);
  std::vector<int8_t> BPacked(static_cast<size_t>(Batch * KPad * N), 0);
  for (int64_t BI = 0; BI < Batch; ++BI) {
    PlainMatrix Src;
    Src.Data = BPlain.data() + BI * K * N;
    Src.Rows = K;
    Src.Cols = N;
    Src.Ld = N;
    packBS8Vnni(Src, BPacked.data() + BI * KPad * N, KPad, N);
  }
  std::vector<int32_t> C(static_cast<size_t>(M * N), 7);
  std::vector<int32_t> Expected = C;

  BrgemmU8S8Args Args;
  Args.A = A.data();
  Args.AStrideBatch = M * KPad;
  Args.Lda = KPad;
  Args.B = BPacked.data();
  Args.BStrideBatch = KPad * N;
  Args.NPadded = N;
  Args.C = C.data();
  Args.Ldc = N;
  Args.M = M;
  Args.N = N;
  Args.K = KPad;
  Args.Batch = Batch;
  Args.InitC = InitC;
  brgemmU8S8(Args);

  if (InitC)
    std::fill(Expected.begin(), Expected.end(), 0);
  for (int64_t BI = 0; BI < Batch; ++BI) {
    // Oracle on the plain layout; A rows beyond K are multiplied by the
    // zero padding in packed B, so restrict the oracle K to the real K.
    std::vector<uint8_t> ATile(static_cast<size_t>(M * K));
    for (int64_t MI = 0; MI < M; ++MI)
      for (int64_t KI = 0; KI < K; ++KI)
        ATile[static_cast<size_t>(MI * K + KI)] =
            A[static_cast<size_t>(BI * M * KPad + MI * KPad + KI)];
    const std::vector<int8_t> BTile(BPlain.begin() + BI * K * N,
                                    BPlain.begin() + (BI + 1) * K * N);
    const auto Partial = naiveGemmU8S8(ATile, BTile, M, N, K);
    for (size_t I = 0; I < Partial.size(); ++I)
      Expected[I] += Partial[I];
  }
  for (size_t I = 0; I < C.size(); ++I)
    ASSERT_EQ(C[I], Expected[I]) << "at " << I;
}

TEST(BrgemmU8S8, SingleTile) { checkBrgemmU8S8(32, 32, 64, 1, true); }

TEST(BrgemmU8S8, Accumulate) { checkBrgemmU8S8(16, 16, 32, 1, false); }

TEST(BrgemmU8S8, BatchReduction) { checkBrgemmU8S8(32, 48, 64, 4, true); }

TEST(BrgemmU8S8, KNotMultipleOf4ViaPadding) {
  checkBrgemmU8S8(16, 32, 13, 1, true);
}

TEST(BrgemmU8S8, MTail) { checkBrgemmU8S8(11, 32, 32, 2, true); }

TEST(BrgemmU8S8, NTail) { checkBrgemmU8S8(32, 19, 32, 2, true); }

TEST(BrgemmU8S8, GemmvN1) { checkBrgemmU8S8(8, 1, 64, 1, true); }

//===----------------------------------------------------------------------===//
// Parameterized sweep over tile shapes (property: ISA path == oracle).
//===----------------------------------------------------------------------===//

struct TileShape {
  int64_t M, N, K, Batch;
};

class BrgemmShapeSweep : public ::testing::TestWithParam<TileShape> {};

TEST_P(BrgemmShapeSweep, F32MatchesOracle) {
  const TileShape S = GetParam();
  checkBrgemmF32(S.M, S.N, S.K, S.Batch, true);
}

TEST_P(BrgemmShapeSweep, U8S8MatchesOracle) {
  const TileShape S = GetParam();
  checkBrgemmU8S8(S.M, S.N, S.K, S.Batch, true);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BrgemmShapeSweep,
    ::testing::Values(TileShape{1, 16, 16, 1}, TileShape{2, 16, 4, 2},
                      TileShape{4, 64, 64, 1}, TileShape{8, 16, 16, 8},
                      TileShape{9, 33, 31, 2}, TileShape{16, 16, 128, 2},
                      TileShape{31, 15, 17, 3}, TileShape{32, 64, 32, 4},
                      TileShape{33, 1, 8, 1}, TileShape{64, 64, 64, 2},
                      TileShape{7, 100, 12, 5}, TileShape{48, 48, 48, 1}));

//===----------------------------------------------------------------------===//
// Per-tier differential: every available ISA tier against a reference,
// independent of the GC_KERNELS dispatch (the AVX2 6x16 f32 panels + exact
// u8s8 emulation and the AVX-512/VNNI up-to-6x64 panels on machines that
// have them). Each shape runs with InitC both ways and with C (and packed
// B) both tight and padded: Ldc > N, NPadded > N. C's padding holds a
// sentinel that must survive; packed B's padding holds garbage that must
// not leak into C.
//===----------------------------------------------------------------------===//

constexpr float kCSentinel = -777.25f;
constexpr int32_t kCSentinelS32 = -7777777;

/// Bit pattern of a float: the tier sweep compares f32 bit for bit.
uint32_t bitsOf(float F) {
  uint32_t U = 0;
  std::memcpy(&U, &F, sizeof(U));
  return U;
}

/// The f32 contract of the SIMD tiers: each C element starts from C (or 0
/// under InitC) and accumulates its products in (batch, k) order, one
/// std::fmaf per product.
void brgemmF32Fmaf(const BrgemmF32Args &Args) {
  for (int64_t MI = 0; MI < Args.M; ++MI)
    for (int64_t NI = 0; NI < Args.N; ++NI) {
      float Acc = Args.InitC ? 0.0f : Args.C[MI * Args.Ldc + NI];
      for (int64_t BI = 0; BI < Args.Batch; ++BI)
        for (int64_t KI = 0; KI < Args.K; ++KI)
          Acc = std::fmaf(
              Args.A[BI * Args.AStrideBatch + MI * Args.Lda + KI],
              Args.B[BI * Args.BStrideBatch + KI * Args.Ldb + NI], Acc);
      Args.C[MI * Args.Ldc + NI] = Acc;
    }
}

void checkF32Tiers(int64_t M, int64_t N, int64_t K, int64_t Batch) {
  const auto A = randomF32(Batch * M * K, 71);
  const auto B = randomF32(Batch * K * N, 72);
  for (int64_t Pad : {0, 5})
    for (bool InitC : {true, false}) {
      const int64_t Ldc = N + Pad;
      std::vector<float> CInit = randomF32(M * Ldc, 75);
      for (int64_t MI = 0; MI < M; ++MI)
        for (int64_t NI = N; NI < Ldc; ++NI)
          CInit[static_cast<size_t>(MI * Ldc + NI)] = kCSentinel;
      BrgemmF32Args Args;
      Args.A = A.data(); Args.AStrideBatch = M * K; Args.Lda = K;
      Args.B = B.data(); Args.BStrideBatch = K * N; Args.Ldb = N;
      Args.Ldc = Ldc;
      Args.M = M; Args.N = N; Args.K = K; Args.Batch = Batch;
      Args.InitC = InitC;
      std::vector<float> CRef = CInit;
      Args.C = CRef.data();
      brgemmF32Fmaf(Args);
      for (KernelTier Tier : {KernelTier::Avx2, KernelTier::Avx512}) {
        BrgemmF32Fn Fn = brgemmF32ForTier(Tier);
        if (!Fn)
          continue;
        std::vector<float> C = CInit;
        Args.C = C.data();
        Fn(Args);
        for (size_t I = 0; I < C.size(); ++I)
          ASSERT_EQ(bitsOf(C[I]), bitsOf(CRef[I]))
              << "tier " << kernelTierName(Tier) << " M=" << M << " N=" << N
              << " Batch=" << Batch << " Ldc=" << Ldc << " init=" << InitC
              << " at row " << static_cast<int64_t>(I) / Ldc << " col "
              << static_cast<int64_t>(I) % Ldc << ": " << C[I] << " vs "
              << CRef[I];
      }
    }
}

void checkU8S8Tiers(int64_t M, int64_t N, int64_t K, int64_t Batch) {
  const int64_t KPad = (K + 3) / 4 * 4;
  const auto A = randomU8(Batch * M * KPad, 73);
  const std::vector<int8_t> BPlain = randomS8(Batch * K * N, 74);
  for (int64_t Pad : {0, 3})
    for (bool InitC : {true, false}) {
      const int64_t NPadded = N + Pad, Ldc = N + Pad;
      std::vector<int8_t> BPacked(static_cast<size_t>(Batch * KPad * NPadded));
      for (int64_t BI = 0; BI < Batch; ++BI) {
        PlainMatrix Src;
        Src.Data = BPlain.data() + BI * K * N;
        Src.Rows = K;
        Src.Cols = N;
        Src.Ld = N;
        int8_t *Dst = BPacked.data() + BI * KPad * NPadded;
        packBS8Vnni(Src, Dst, KPad, NPadded);
        for (int64_t KI = 0; KI < KPad; ++KI)
          for (int64_t NI = N; NI < NPadded; ++NI)
            Dst[(KI / 4) * NPadded * 4 + NI * 4 + KI % 4] = 0x5a;
      }
      std::vector<int32_t> CInit(static_cast<size_t>(M * Ldc), 7);
      for (int64_t MI = 0; MI < M; ++MI)
        for (int64_t NI = N; NI < Ldc; ++NI)
          CInit[static_cast<size_t>(MI * Ldc + NI)] = kCSentinelS32;
      BrgemmU8S8Args Args;
      Args.A = A.data(); Args.AStrideBatch = M * KPad; Args.Lda = KPad;
      Args.B = BPacked.data(); Args.BStrideBatch = KPad * NPadded;
      Args.NPadded = NPadded;
      Args.Ldc = Ldc;
      Args.M = M; Args.N = N; Args.K = KPad; Args.Batch = Batch;
      Args.InitC = InitC;
      std::vector<int32_t> CRef = CInit;
      Args.C = CRef.data();
      brgemmU8S8Ref(Args);
      for (KernelTier Tier : {KernelTier::Avx2, KernelTier::Avx512}) {
        BrgemmU8S8Fn Fn = brgemmU8S8ForTier(Tier);
        if (!Fn)
          continue;
        std::vector<int32_t> C = CInit;
        Args.C = C.data();
        Fn(Args);
        // Integer kernels are exact at every tier — full-range u8 x s8
        // included (the AVX2 path widens to s16 before pmaddwd instead of
        // using the saturating maddubs shortcut).
        for (size_t I = 0; I < C.size(); ++I)
          ASSERT_EQ(C[I], CRef[I])
              << "tier " << kernelTierName(Tier) << " M=" << M << " N=" << N
              << " Batch=" << Batch << " Ldc=" << Ldc << " init=" << InitC
              << " at row " << static_cast<int64_t>(I) / Ldc << " col "
              << static_cast<int64_t>(I) % Ldc;
      }
    }
}

class BrgemmTierSweep : public ::testing::TestWithParam<TileShape> {};

TEST_P(BrgemmTierSweep, F32TiersMatchReference) {
  const TileShape S = GetParam();
  checkF32Tiers(S.M, S.N, S.K, S.Batch);
}

TEST_P(BrgemmTierSweep, U8S8TiersMatchReference) {
  const TileShape S = GetParam();
  checkU8S8Tiers(S.M, S.N, S.K, S.Batch);
}

/// Every M remainder at this shape's N: 1-13 rows reach every panel height
/// and every split of a 7-11 row remainder into two panels; 17 and 32 add
/// full panels ahead of a split. Batch 1 and 3.
TEST_P(BrgemmTierSweep, EveryMRemainder) {
  const TileShape S = GetParam();
  for (int64_t M : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 17, 32})
    for (int64_t Batch : {1, 3}) {
      checkF32Tiers(M, S.N, S.K, Batch);
      checkU8S8Tiers(M, S.N, S.K, Batch);
      if (HasFatalFailure())
        return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BrgemmTierSweep,
    ::testing::Values(TileShape{1, 1, 4, 1}, TileShape{6, 16, 32, 1},
                      TileShape{13, 17, 32, 2}, TileShape{5, 8, 16, 3},
                      TileShape{12, 24, 20, 2}, TileShape{7, 7, 8, 1},
                      TileShape{32, 48, 64, 2}, TileShape{3, 9, 12, 4},
                      TileShape{11, 31, 28, 1}, TileShape{6, 100, 16, 2}));

// Panel-width edges: one, just under/at/over one vector, two vectors and
// the 64-column panel, plus ragged multi-panel widths.
INSTANTIATE_TEST_SUITE_P(
    PanelWidths, BrgemmTierSweep,
    ::testing::Values(TileShape{6, 1, 12, 1}, TileShape{6, 15, 12, 1},
                      TileShape{6, 16, 12, 1}, TileShape{6, 17, 12, 1},
                      TileShape{6, 31, 12, 1}, TileShape{6, 33, 12, 1},
                      TileShape{6, 48, 12, 1}, TileShape{6, 63, 12, 1},
                      TileShape{6, 64, 12, 1}, TileShape{6, 65, 12, 1},
                      TileShape{6, 100, 12, 1}, TileShape{6, 128, 12, 1}));

} // namespace
