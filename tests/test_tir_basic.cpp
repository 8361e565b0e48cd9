//===- test_tir_basic.cpp - Tensor IR construction & evaluation ----------------===//
//
// Expression folding, printing, slot assignment, loops whose kernel calls
// carry index arithmetic in their buffer offsets, parallel loop execution
// through the thread pool, thread-local scratch isolation, and end-to-end
// brgemm/tile-kernel intrinsic calls from Tensor IR.
//
//===----------------------------------------------------------------------===//

#include "tir/printer.h"
#include "test_utils.h"

#include <gtest/gtest.h>

using namespace gc;
using namespace gc::tir;
using namespace gc::test;

namespace {

TEST(TirExpr, ConstantFolding) {
  int64_t V;
  EXPECT_TRUE(asConstInt(makeInt(3) + makeInt(4), V));
  EXPECT_EQ(V, 7);
  EXPECT_TRUE(asConstInt(makeInt(10) * makeInt(5), V));
  EXPECT_EQ(V, 50);
  EXPECT_TRUE(asConstInt(minExpr(makeInt(3), makeInt(9)), V));
  EXPECT_EQ(V, 3);
  // Identities collapse.
  Var X = makeVar("x");
  EXPECT_EQ((X + makeInt(0)).get(), static_cast<const ExprNode *>(X.get()));
  EXPECT_EQ((X * makeInt(1)).get(), static_cast<const ExprNode *>(X.get()));
  EXPECT_TRUE(asConstInt(X * makeInt(0), V));
  EXPECT_EQ(V, 0);
}

/// 0, 1, ..., N - 1: an s32 source whose element K holds K, so a copy
/// out of it reads back the offset the kernel call computed.
std::vector<int32_t> iota(int64_t N) {
  std::vector<int32_t> V(static_cast<size_t>(N));
  for (size_t K = 0; K < V.size(); ++K)
    V[K] = static_cast<int32_t>(K);
  return V;
}

TEST(TirPrinter, RendersLoopNest) {
  Var I = makeVar("i");
  Func F;
  F.Name = "demo";
  const int X = F.addBuffer("x", DataType::F32, {16}, BufferScope::Param);
  const int Y = F.addBuffer("y", DataType::F32, {48}, BufferScope::Param);
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(16), makeInt(1),
      {copyElem(X, Expr(I), Y, Expr(I) * makeInt(3)),
       affineElem(Y, Expr(I) * makeInt(3), X, Expr(I), 2.0f, 1.0f)},
      /*Parallel=*/true));
  const std::string Text = printFunc(F);
  EXPECT_NE(Text.find("parallel loop i = 0, 16, 1"), std::string::npos);
  EXPECT_NE(Text.find("copy_tile_raw(&b0[i], &b1[(i * 3)], 1, 1, 1, 1, 4)"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("epilogue_tile(&b1[(i * 3)], &b0[i], 1, 1, 0) { "
                      "r0 = load_f32(s0 ld 1); "
                      "r0 = affine(r0, 2f, 1f, zp 0); "
                      "store_f32(s1 ld 1, r0) }"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("buffer b0 param f32[16] x"), std::string::npos);
}

TEST(TirEval, ParallelLoopAcrossWorkers) {
  // out[i] = in[3 * i]: each of the 128 iterations copies from an offset
  // computed in its own worker's frame.
  Func F;
  const int In = F.addBuffer("in", DataType::S32, {384}, BufferScope::Param);
  const int Out =
      F.addBuffer("out", DataType::S32, {128}, BufferScope::Param);
  Var I = makeVar("i");
  F.Body.push_back(makeFor(I, makeInt(0), makeInt(128), makeInt(1),
                           {copyElem(Out, Expr(I), In, Expr(I) * makeInt(3))},
                           /*Parallel=*/true));
  assignSlots(F);
  std::vector<int32_t> InV = iota(384);
  std::vector<int32_t> OutV(128, -1);
  runtime::ThreadPool Pool(4);
  runTir(F, Pool, {{In, InV.data()}, {Out, OutV.data()}});
  for (int K = 0; K < 128; ++K)
    ASSERT_EQ(OutV[static_cast<size_t>(K)], 3 * K);
}

TEST(TirEval, ThreadLocalScratchIsolated) {
  // Each parallel iteration copies in[7 * i] into a thread-local scratch
  // cell and from there to out[i]; with a shared cell this races.
  Func F;
  const int In = F.addBuffer("in", DataType::S32, {448}, BufferScope::Param);
  const int Scratch =
      F.addBuffer("scratch", DataType::S32, {1}, BufferScope::ThreadLocal);
  const int Out = F.addBuffer("out", DataType::S32, {64}, BufferScope::Param);
  Var I = makeVar("i");
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(64), makeInt(1),
      {copyElem(Scratch, makeInt(0), In, Expr(I) * makeInt(7)),
       copyElem(Out, Expr(I), Scratch, makeInt(0))},
      /*Parallel=*/true));
  assignSlots(F);
  std::vector<int32_t> InV = iota(448);
  std::vector<int32_t> OutV(64, -1);
  runtime::ThreadPool Pool(4);
  runTir(F, Pool, {{In, InV.data()}, {Out, OutV.data()}});
  for (int K = 0; K < 64; ++K)
    ASSERT_EQ(OutV[static_cast<size_t>(K)], 7 * K);
}

TEST(TirEval, LetBindsScalars) {
  // out[i] = in[t + t] with t = 5 * i + 2 bound by a let.
  Func F;
  const int In = F.addBuffer("in", DataType::S32, {36}, BufferScope::Param);
  const int Out = F.addBuffer("out", DataType::S32, {4}, BufferScope::Param);
  Var I = makeVar("i");
  Var T = makeVar("t");
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(4), makeInt(1),
      {makeLet(T, Expr(I) * makeInt(5) + makeInt(2)),
       copyElem(Out, Expr(I), In, Expr(T) + Expr(T))}));
  assignSlots(F);
  ASSERT_EQ(F.NumSlots, 2);
  std::vector<int32_t> InV = iota(36);
  std::vector<int32_t> OutV(4, -1);
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{In, InV.data()}, {Out, OutV.data()}});
  for (int K = 0; K < 4; ++K)
    ASSERT_EQ(OutV[static_cast<size_t>(K)], 2 * (5 * K + 2));
}

TEST(TirEval, BrgemmIntrinsicFromTir) {
  // One brgemm call computing C[8x16] = A[8x32] * B[32x16].
  const int64_t M = 8, N = 16, K = 32;
  Func F;
  const int A = F.addBuffer("a", DataType::F32, {M, K}, BufferScope::Param);
  const int B = F.addBuffer("b", DataType::F32, {K, N}, BufferScope::Param);
  const int C = F.addBuffer("c", DataType::F32, {M, N}, BufferScope::Param);
  F.Body.push_back(makeCall(
      Intrinsic::BrgemmF32,
      {BufferRef(A, makeInt(0)), BufferRef(B, makeInt(0)),
       BufferRef(C, makeInt(0))},
      {makeInt(M), makeInt(N), makeInt(K), makeInt(K), makeInt(N),
       makeInt(N), makeInt(0), makeInt(0), makeInt(1), makeInt(1)}));
  assignSlots(F);

  auto AV = randomF32(M * K, 21);
  auto BV = randomF32(K * N, 22);
  std::vector<float> CV(static_cast<size_t>(M * N), 0.0f);
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{A, AV.data()}, {B, BV.data()}, {C, CV.data()}});
  const auto Expected = naiveGemmF32(AV, BV, M, N, K);
  for (size_t I = 0; I < CV.size(); ++I)
    ASSERT_NEAR(CV[I], Expected[I], kF32Tol * K);
}

TEST(TirEval, TileIntrinsicWithOffsetRef) {
  // Copy the second row onto the first only, via a buffer offset.
  Func F;
  const int X = F.addBuffer("x", DataType::F32, {2, 4}, BufferScope::Param);
  F.Body.push_back(makeCall(
      Intrinsic::CopyTileRaw,
      {BufferRef(X, makeInt(0)), BufferRef(X, makeInt(4))},
      {makeInt(1), makeInt(4), makeInt(4), makeInt(4), makeInt(4)}));
  assignSlots(F);
  std::vector<float> XV = {-1, -2, -3, -4, -5, 6, -7, 8};
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{X, XV.data()}});
  EXPECT_EQ(XV, (std::vector<float>{-5, 6, -7, 8, -5, 6, -7, 8}))
      << "row 0 takes row 1, row 1 untouched";
}

TEST(TirEval, TempBufferWithArenaOffset) {
  // temp <- in, out <- temp, with the temp placed in the shared arena.
  Func F;
  const int In = F.addBuffer("in", DataType::F32, {4}, BufferScope::Param);
  const int Tmp = F.addBuffer("tmp", DataType::F32, {4}, BufferScope::Temp);
  const int Out = F.addBuffer("out", DataType::F32, {4}, BufferScope::Param);
  F.buffer(Tmp).ArenaOffset = 64;
  F.ArenaBytes = 128;
  const std::vector<Expr> Row = {makeInt(1), makeInt(4), makeInt(4),
                                 makeInt(4), makeInt(4)};
  F.Body.push_back(makeCall(
      Intrinsic::CopyTileRaw,
      {BufferRef(Tmp, makeInt(0)), BufferRef(In, makeInt(0))}, Row));
  F.Body.push_back(makeCall(
      Intrinsic::CopyTileRaw,
      {BufferRef(Out, makeInt(0)), BufferRef(Tmp, makeInt(0))}, Row));
  assignSlots(F);
  std::vector<float> InV = {1, 2, 3, 4};
  std::vector<float> OutV(4, 0.0f);
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{In, InV.data()}, {Out, OutV.data()}});
  EXPECT_EQ(OutV, InV);
}

} // namespace
