//===- test_tirpass.cpp - Tensor IR pass tests ----------------------------------===//
//
// Unit tests of the §VI Tensor IR optimizations on hand-built IR:
// coarse-grain loop merging (mechanics + guards) and lifespan-based buffer
// reuse (packing, MRU preference, peak accounting, correctness under
// reuse).
//
//===----------------------------------------------------------------------===//

#include "tir/printer.h"
#include "tirpass/tirpass.h"
#include "support/str.h"
#include "test_utils.h"

#include <gtest/gtest.h>

using namespace gc;
using namespace gc::tir;
using namespace gc::tirpass;

namespace {

/// One region: parallel loop writing Out[i] = In[i] * Mul + Addend, one
/// 1 x 1 epilogue call per iteration.
Stmt makeAffineNest(int In, int Out, int64_t N, float Mul, float Addend,
                    bool Mergeable, const char *Tag) {
  Var I = makeVar(std::string(Tag) + "_i");
  Stmt Loop = makeFor(I, makeInt(0), makeInt(N), makeInt(1),
                      {test::affineElem(In, Expr(I), Out, Expr(I), Mul,
                                        Addend)},
                      /*Parallel=*/true, Tag);
  static_cast<ForNode &>(*Loop).Mergeable = Mergeable;
  return makeSeq({Loop}, Tag);
}

TEST(LoopMerge, MergesMarkedAdjacentNests) {
  Func F;
  F.Name = "merge";
  const int In = F.addBuffer("in", DataType::F32, {16}, BufferScope::Param);
  const int Mid = F.addBuffer("mid", DataType::F32, {16}, BufferScope::Temp);
  const int Out = F.addBuffer("out", DataType::F32, {16}, BufferScope::Param);
  F.Body.push_back(makeAffineNest(In, Mid, 16, 2.0, 0.0, false, "op1"));
  F.Body.push_back(makeAffineNest(Mid, Out, 16, 1.0, 1.0, true, "op2"));

  EXPECT_EQ(countParallelNests(F), 2);
  EXPECT_EQ(mergeParallelLoops(F), 1);
  EXPECT_EQ(countParallelNests(F), 1);

  // Merged program still computes out = in * 2 + 1.
  reuseBuffers(F);
  assignSlots(F);
  std::vector<float> InV(16), OutV(16, 0.0f);
  for (int I = 0; I < 16; ++I)
    InV[static_cast<size_t>(I)] = static_cast<float>(I);
  runtime::ThreadPool Pool(3);
  test::runTir(F, Pool, {{In, InV.data()}, {Out, OutV.data()}});
  for (int I = 0; I < 16; ++I)
    ASSERT_EQ(OutV[static_cast<size_t>(I)], 2.0f * I + 1.0f);
}

TEST(LoopMerge, RefusesUnmarkedOrMismatchedNests) {
  Func F;
  const int A = F.addBuffer("a", DataType::F32, {16}, BufferScope::Param);
  const int B = F.addBuffer("b", DataType::F32, {16}, BufferScope::Param);
  const int C = F.addBuffer("c", DataType::F32, {8}, BufferScope::Param);
  // Unmarked second nest.
  F.Body.push_back(makeAffineNest(A, B, 16, 1.0, 0.0, false, "n1"));
  F.Body.push_back(makeAffineNest(A, B, 16, 1.0, 0.0, false, "n2"));
  // Marked but different trip count.
  F.Body.push_back(makeAffineNest(A, C, 8, 1.0, 0.0, true, "n3"));
  EXPECT_EQ(mergeParallelLoops(F), 0);
  EXPECT_EQ(countParallelNests(F), 3);
}

TEST(LoopMerge, ChainsThreeNests) {
  Func F;
  const int In = F.addBuffer("in", DataType::F32, {8}, BufferScope::Param);
  const int T1 = F.addBuffer("t1", DataType::F32, {8}, BufferScope::Temp);
  const int T2 = F.addBuffer("t2", DataType::F32, {8}, BufferScope::Temp);
  const int Out = F.addBuffer("out", DataType::F32, {8}, BufferScope::Param);
  F.Body.push_back(makeAffineNest(In, T1, 8, 2.0, 0.0, false, "a"));
  F.Body.push_back(makeAffineNest(T1, T2, 8, 3.0, 0.0, true, "b"));
  F.Body.push_back(makeAffineNest(T2, Out, 8, 5.0, 0.0, true, "c"));
  EXPECT_EQ(mergeParallelLoops(F), 2);
  EXPECT_EQ(countParallelNests(F), 1);
}

//===----------------------------------------------------------------------===//
// Buffer reuse
//===----------------------------------------------------------------------===//

/// Builds a chain: in -> t0 -> t1 -> ... -> out, each step its own region.
struct ChainFixture {
  Func F;
  int In, Out;
  std::vector<int> Temps;

  explicit ChainFixture(int Steps, int64_t Elems = 256) {
    In = F.addBuffer("in", DataType::F32, {Elems}, BufferScope::Param);
    int Cur = In;
    for (int S = 0; S + 1 < Steps; ++S) {
      const int T = F.addBuffer(formatString("t%d", S), DataType::F32,
                                {Elems}, BufferScope::Temp);
      Temps.push_back(T);
      F.Body.push_back(makeAffineNest(Cur, T, Elems, 2.0, 0.0, false,
                                      formatString("s%d", S).c_str()));
      Cur = T;
    }
    Out = F.addBuffer("out", DataType::F32, {Elems}, BufferScope::Param);
    F.Body.push_back(
        makeAffineNest(Cur, Out, Elems, 2.0, 0.0, false, "last"));
  }
};

TEST(BufferReuse, ChainedTempsAlternateTwoSlots) {
  ChainFixture Fix(6); // 5 temps, lifespans overlap pairwise
  const BufferReuseStats Stats = reuseBuffers(Fix.F);
  // Chain lifetimes overlap only with neighbours: two slots suffice.
  EXPECT_EQ(Stats.PeakBytesWithReuse, 2 * 1024);
  EXPECT_EQ(Stats.PeakBytesWithoutReuse, 5 * 1024);
  EXPECT_GE(Stats.BuffersReused, 3);
  // Offsets must alternate (neighbours never share).
  for (size_t I = 0; I + 1 < Fix.Temps.size(); ++I)
    EXPECT_NE(Fix.F.buffer(Fix.Temps[I]).ArenaOffset,
              Fix.F.buffer(Fix.Temps[I + 1]).ArenaOffset);
}

TEST(BufferReuse, DisabledLaysOutDisjoint) {
  ChainFixture Fix(4);
  const BufferReuseStats Stats = reuseBuffers(Fix.F, /*Enable=*/false);
  EXPECT_EQ(Stats.BuffersReused, 0);
  EXPECT_EQ(Stats.PeakBytesWithReuse, Stats.PeakBytesWithoutReuse);
}

TEST(BufferReuse, ExecutionCorrectUnderReuse) {
  ChainFixture Fix(5, 64);
  reuseBuffers(Fix.F);
  assignSlots(Fix.F);
  std::vector<float> InV(64, 1.0f), OutV(64, 0.0f);
  runtime::ThreadPool Pool(2);
  test::runTir(Fix.F, Pool,
               {{Fix.In, InV.data()}, {Fix.Out, OutV.data()}});
  for (float V : OutV)
    ASSERT_EQ(V, 32.0f); // 2^5
}

TEST(BufferReuse, PrefersMostRecentlyFreedBlock) {
  // Two temps die at different times; the next buffer must take the block
  // freed most recently ("hot memory").
  Func F;
  const int In = F.addBuffer("in", DataType::F32, {64}, BufferScope::Param);
  const int TEarly =
      F.addBuffer("t_early", DataType::F32, {64}, BufferScope::Temp);
  const int TLate =
      F.addBuffer("t_late", DataType::F32, {64}, BufferScope::Temp);
  const int TNew =
      F.addBuffer("t_new", DataType::F32, {64}, BufferScope::Temp);
  const int Out = F.addBuffer("out", DataType::F32, {64}, BufferScope::Param);
  // Region 0: write both temps. Region 1: read t_early only (t_early dies
  // after 1... actually t_early dies first).
  F.Body.push_back(makeAffineNest(In, TEarly, 64, 1.0, 0.0, false, "r0"));
  F.Body.push_back(makeAffineNest(TEarly, TLate, 64, 1.0, 0.0, false, "r1"));
  F.Body.push_back(makeAffineNest(TLate, TNew, 64, 1.0, 0.0, false, "r2"));
  F.Body.push_back(makeAffineNest(TNew, Out, 64, 1.0, 0.0, false, "r3"));
  reuseBuffers(F);
  // t_new is born in r2 where t_early (freed at r2) is the most recently
  // freed block.
  EXPECT_EQ(F.buffer(TNew).ArenaOffset, F.buffer(TEarly).ArenaOffset);
}

} // namespace
