//===- test_lower.cpp - blocking heuristic --------------------------------===//
//
// Properties of the §III heuristic (L1-resident microkernel working sets,
// vector-width-aligned NB, int8 KB % 4, grid bounded by blocks and
// threads, determinism, layout-negotiation fixing).
//
//===----------------------------------------------------------------------===//

#include "lower/blocking.h"
#include "test_utils.h"

#include <gtest/gtest.h>

using namespace gc;
using namespace gc::lower;

namespace {

MatmulShape shape(int64_t M, int64_t N, int64_t K,
                  DataType Ty = DataType::F32, int64_t Batch = 1) {
  MatmulShape S;
  S.M = M;
  S.N = N;
  S.K = K;
  S.ADtype = Ty;
  S.Batch = Batch;
  return S;
}

//===----------------------------------------------------------------------===//
// Heuristic properties (parameterized sweep over Table 1 shapes)
//===----------------------------------------------------------------------===//

struct HeuristicCase {
  int64_t M, N, K;
  bool Int8;
  int Threads;
};

void PrintTo(const HeuristicCase &C, std::ostream *OS) {
  test::printZeroPadded(OS, C, C.M, C.N, C.K, C.Int8, C.Threads);
}

class HeuristicSweep : public ::testing::TestWithParam<HeuristicCase> {};

TEST_P(HeuristicSweep, InvariantsHold) {
  const HeuristicCase C = GetParam();
  const MatmulShape S =
      shape(C.M, C.N, C.K, C.Int8 ? DataType::U8 : DataType::F32);
  const BlockingParams P = chooseMatmulBlocking(S, C.Threads);

  // Microkernel working set fits the L1 budget.
  const CacheModel Cache;
  const int64_t EsA = C.Int8 ? 1 : 4;
  const int64_t WorkingSet =
      P.BS * P.KB * (P.MB * EsA + P.NB * (C.Int8 ? 1 : 4)) +
      P.MB * P.NB * 4;
  EXPECT_LE(WorkingSet,
            static_cast<int64_t>(Cache.L1Bytes * Cache.L1Budget) +
                P.MB * P.NB * 4)
      << P.toString();

  // Vector-width alignment and int8 VNNI constraint.
  EXPECT_EQ(P.NB % 16, 0) << P.toString();
  if (C.Int8) {
    EXPECT_EQ(P.KB % 4, 0) << P.toString();
  }

  // Grid bounded by block counts and never empty.
  EXPECT_GE(P.MPN, 1);
  EXPECT_GE(P.NPN, 1);
  EXPECT_LE(P.MPN, P.MBlocks);
  EXPECT_LE(P.NPN, P.NBlocks);
  EXPECT_GE(P.BS, 1);
  EXPECT_LE(P.BS, P.KBlocks);

  // Derived counts cover the problem.
  EXPECT_GE(P.MSN * P.MPN, P.MBlocks);
  EXPECT_GE(P.NSN * P.NPN, P.NBlocks);
  EXPECT_EQ(P.KSN, P.KBlocks);

  // Determinism.
  const BlockingParams P2 = chooseMatmulBlocking(S, C.Threads);
  EXPECT_EQ(P.toString(), P2.toString());
}

INSTANTIATE_TEST_SUITE_P(
    Table1Shapes, HeuristicSweep,
    ::testing::Values(
        HeuristicCase{32, 512, 13, false, 4},
        HeuristicCase{512, 512, 13, false, 32},
        HeuristicCase{32, 256, 512, false, 4},
        HeuristicCase{512, 1024, 479, false, 32},
        HeuristicCase{128, 1024, 1024, false, 8},
        HeuristicCase{512, 1, 256, false, 4},
        HeuristicCase{32, 512, 13, true, 4},
        HeuristicCase{128, 1024, 1024, true, 8},
        HeuristicCase{512, 256, 512, true, 32},
        HeuristicCase{32, 64, 128, true, 1},
        HeuristicCase{1, 768, 768, false, 4},
        HeuristicCase{13, 19, 37, false, 2}));

TEST(Heuristic, RequireFullRowsForcesNpn1) {
  // Wide N, tiny M, many threads: without the constraint NPN > 1 wins.
  const MatmulShape S = shape(32, 4096, 64);
  const BlockingParams Free = chooseMatmulBlocking(S, 16, false);
  const BlockingParams Rows = chooseMatmulBlocking(S, 16, true);
  EXPECT_GT(Free.NPN, 1) << "test premise: free choice splits N";
  EXPECT_EQ(Rows.NPN, 1);
}

TEST(Heuristic, FixedABHonored) {
  const MatmulShape S = shape(128, 256, 512, DataType::U8);
  const BlockingParams P = chooseMatmulBlockingFixedA(S, 8, 64, 32);
  EXPECT_EQ(P.MB, 64);
  EXPECT_EQ(P.KB, 32);
}

TEST(Heuristic, BatchOccupiesPoolBeforeSplitting) {
  // Batch 64 on 8 threads: no need to split M or N.
  const MatmulShape S = shape(128, 96, 64, DataType::F32, 64);
  const BlockingParams P = chooseMatmulBlocking(S, 8);
  EXPECT_EQ(P.NPN, 1);
}

TEST(Heuristic, EfficiencyPenalizesPaddingWaste) {
  // N = 1: a 16-wide NB wastes 15/16 lanes -> efficiency far below an
  // exact-fit shape.
  const double Narrow = microkernelEfficiency(shape(64, 1, 64), 32, 16, 64);
  const double Exact = microkernelEfficiency(shape(64, 64, 64), 32, 64, 64);
  EXPECT_LT(Narrow, 0.3 * Exact);
}

TEST(Heuristic, DeepReductionsGetDeepBrgemmChunks) {
  // Deep K problems must reduce a substantial K chunk per brgemm call
  // (KB * BS), either via large KB or via batching blocks.
  const MatmulShape S = shape(128, 128, 2048);
  const BlockingParams P = chooseMatmulBlocking(S, 1);
  EXPECT_GE(P.KB * P.BS, 64) << P.toString();
}

} // namespace
