//===- test_kernels_packing.cpp - blocked layout packing tests ----------------===//
//
// Round-trip and layout-contract tests for the pack/unpack kernels: tile
// contiguity, zero padding of ragged edges, transposed sources, the VNNI
// interleave, and the compensation column sums.
//
//===----------------------------------------------------------------------===//

#include "kernels/packing.h"
#include "test_utils.h"

#include <gtest/gtest.h>

using namespace gc;
using namespace gc::kernels;
using namespace gc::test;

namespace {

TEST(PackA, RoundTripExactBlocks) {
  const int64_t M = 64, K = 128, MB = 32, KB = 64;
  const auto Src = randomF32(M * K, 11);
  std::vector<float> Packed(static_cast<size_t>(packedASize(M, K, MB, KB)));
  PlainMatrix Mat{Src.data(), M, K, K, false};
  packAF32(Mat, Packed.data(), MB, KB);

  // Tile contiguity contract: element (m, k) lives at
  // tile(m/MB, k/KB) + (m%MB)*KB + k%KB.
  const int64_t KBlocks = (K + KB - 1) / KB;
  for (int64_t MI = 0; MI < M; ++MI)
    for (int64_t KI = 0; KI < K; ++KI) {
      const int64_t Tile = (MI / MB) * KBlocks + KI / KB;
      const float Got =
          Packed[static_cast<size_t>(Tile * MB * KB + (MI % MB) * KB +
                                     KI % KB)];
      ASSERT_EQ(Got, Src[static_cast<size_t>(MI * K + KI)]);
    }

  std::vector<float> Back(static_cast<size_t>(M * K), -1.0f);
  unpackAF32(Packed.data(), Back.data(), M, K, MB, KB, K);
  ASSERT_EQ(Back, Src);
}

TEST(PackA, RaggedEdgesZeroPadded) {
  const int64_t M = 13, K = 19, MB = 8, KB = 16;
  const auto Src = randomF32(M * K, 12);
  std::vector<float> Packed(static_cast<size_t>(packedASize(M, K, MB, KB)),
                            -7.0f);
  PlainMatrix Mat{Src.data(), M, K, K, false};
  packAF32(Mat, Packed.data(), MB, KB);

  const int64_t KBlocks = (K + KB - 1) / KB;
  const int64_t MBlocks = (M + MB - 1) / MB;
  for (int64_t MBlk = 0; MBlk < MBlocks; ++MBlk)
    for (int64_t KBlk = 0; KBlk < KBlocks; ++KBlk)
      for (int64_t MI = 0; MI < MB; ++MI)
        for (int64_t KI = 0; KI < KB; ++KI) {
          const float Got = Packed[static_cast<size_t>(
              (MBlk * KBlocks + KBlk) * MB * KB + MI * KB + KI)];
          const int64_t SrcM = MBlk * MB + MI;
          const int64_t SrcK = KBlk * KB + KI;
          if (SrcM < M && SrcK < K)
            ASSERT_EQ(Got, Src[static_cast<size_t>(SrcM * K + SrcK)]);
          else
            ASSERT_EQ(Got, 0.0f) << "padding not zeroed";
        }
}

TEST(PackA, TransposedSource) {
  // Pack A from a column-major view (i.e. the logical matrix is Src^T).
  const int64_t M = 24, K = 16, MB = 16, KB = 16;
  const auto Src = randomF32(K * M, 13); // stored K x M
  std::vector<float> Packed(static_cast<size_t>(packedASize(M, K, MB, KB)));
  PlainMatrix Mat{Src.data(), M, K, /*Ld=*/M, /*Transposed=*/true};
  packAF32(Mat, Packed.data(), MB, KB);
  std::vector<float> Back(static_cast<size_t>(M * K));
  unpackAF32(Packed.data(), Back.data(), M, K, MB, KB, K);
  for (int64_t MI = 0; MI < M; ++MI)
    for (int64_t KI = 0; KI < K; ++KI)
      ASSERT_EQ(Back[static_cast<size_t>(MI * K + KI)],
                Src[static_cast<size_t>(KI * M + MI)]);
}

TEST(PackB, LayoutContract) {
  const int64_t K = 40, N = 24, KB = 16, NB = 16;
  const auto Src = randomF32(K * N, 14);
  std::vector<float> Packed(static_cast<size_t>(packedBSize(K, N, KB, NB)),
                            -3.0f);
  PlainMatrix Mat{Src.data(), K, N, N, false};
  packBF32(Mat, Packed.data(), KB, NB);
  const int64_t NBlocks = (N + NB - 1) / NB;
  for (int64_t KI = 0; KI < K; ++KI)
    for (int64_t NI = 0; NI < N; ++NI) {
      const int64_t Tile = (KI / KB) * NBlocks + NI / NB;
      ASSERT_EQ(Packed[static_cast<size_t>(Tile * KB * NB + (KI % KB) * NB +
                                           NI % NB)],
                Src[static_cast<size_t>(KI * N + NI)]);
    }
}

TEST(PackBVnni, InterleaveContract) {
  const int64_t K = 16, N = 8, KB = 8, NB = 8;
  auto Src = randomS8(K * N, 15);
  std::vector<int8_t> Packed(static_cast<size_t>(packedBSize(K, N, KB, NB)));
  PlainMatrix Mat{Src.data(), K, N, N, false};
  packBS8Vnni(Mat, Packed.data(), KB, NB);
  // Element (k, n) lives at tile + (k/4)*NB*4 + n*4 + k%4.
  const int64_t NBlocks = (N + NB - 1) / NB;
  for (int64_t KI = 0; KI < K; ++KI)
    for (int64_t NI = 0; NI < N; ++NI) {
      const int64_t Tile = (KI / KB) * NBlocks + NI / NB;
      const int64_t InTileK = KI % KB;
      const int64_t InTileN = NI % NB;
      const int8_t Got = Packed[static_cast<size_t>(
          Tile * KB * NB + (InTileK / 4) * NB * 4 + InTileN * 4 +
          InTileK % 4)];
      ASSERT_EQ(Got, Src[static_cast<size_t>(KI * N + NI)]);
    }
}

TEST(PackBVnni, RaggedKZeroPadded) {
  const int64_t K = 6, N = 4, KB = 8, NB = 16;
  auto Src = randomS8(K * N, 16);
  std::vector<int8_t> Packed(static_cast<size_t>(packedBSize(K, N, KB, NB)),
                             99);
  PlainMatrix Mat{Src.data(), K, N, N, false};
  packBS8Vnni(Mat, Packed.data(), KB, NB);
  // Padding rows (k >= K) and columns (n >= N) must be zero.
  for (int64_t KI = K; KI < KB; ++KI)
    for (int64_t NI = 0; NI < NB; ++NI)
      ASSERT_EQ(Packed[static_cast<size_t>((KI / 4) * NB * 4 + NI * 4 +
                                           KI % 4)],
                0);
}

/// Sweeps a B packer against the per-element oracle over K/N tails,
/// leading dimensions wider than the matrix, and both source orientations.
template <typename T, typename PackFn, typename GenFn>
void sweepPackB(PackFn Pack, GenFn Random, bool Vnni,
                const std::vector<int64_t> &KBs,
                const std::vector<int64_t> &NBs) {
  for (int64_t K : {1, 3, 4, 7, 16, 33, 64, 70})
    for (int64_t N : {1, 5, 16, 17, 48, 50})
      for (int64_t KB : KBs)
        for (int64_t NB : NBs)
          for (bool Transposed : {false, true})
            for (int64_t Pad : {0, 3}) {
              const int64_t Ld = (Transposed ? K : N) + Pad;
              const std::vector<T> Src =
                  Random((Transposed ? N : K) * Ld, K * 131 + N);
              std::vector<T> Got(
                  static_cast<size_t>(packedBSize(K, N, KB, NB)), T(99));
              Pack(PlainMatrix{Src.data(), K, N, Ld, Transposed}, Got.data(),
                   KB, NB);
              ASSERT_EQ(Got, naivePackB(Src.data(), K, N, Ld, Transposed, KB,
                                        NB, Vnni))
                  << "K=" << K << " N=" << N << " KB=" << KB << " NB=" << NB
                  << " Ld=" << Ld << " transposed=" << Transposed;
            }
}

TEST(PackB, F32MatchesPerElementPacker) {
  sweepPackB<float>(packBF32, randomF32, /*Vnni=*/false, {1, 8, 32},
                    {16, 32});
}

TEST(PackBVnni, S8MatchesPerElementPacker) {
  sweepPackB<int8_t>(packBS8Vnni, randomS8, /*Vnni=*/true, {4, 8, 32},
                     {16, 32});
}

TEST(ColSum, MatchesNaive) {
  const int64_t K = 37, N = 21;
  auto Src = randomS8(K * N, 17);
  std::vector<int32_t> Comp(static_cast<size_t>(N));
  PlainMatrix Mat{Src.data(), K, N, N, false};
  colSumS8(Mat, Comp.data());
  for (int64_t NI = 0; NI < N; ++NI) {
    int32_t Expected = 0;
    for (int64_t KI = 0; KI < K; ++KI)
      Expected += Src[static_cast<size_t>(KI * N + NI)];
    ASSERT_EQ(Comp[static_cast<size_t>(NI)], Expected);
  }
}

TEST(ColSum, TransposedWeight) {
  const int64_t K = 12, N = 9;
  auto Src = randomS8(N * K, 18); // stored N x K, logical K x N
  std::vector<int32_t> Comp(static_cast<size_t>(N));
  PlainMatrix Mat{Src.data(), K, N, /*Ld=*/K, /*Transposed=*/true};
  colSumS8(Mat, Comp.data());
  for (int64_t NI = 0; NI < N; ++NI) {
    int32_t Expected = 0;
    for (int64_t KI = 0; KI < K; ++KI)
      Expected += Src[static_cast<size_t>(NI * K + KI)];
    ASSERT_EQ(Comp[static_cast<size_t>(NI)], Expected);
  }
}

} // namespace
