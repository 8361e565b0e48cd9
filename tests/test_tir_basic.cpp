//===- test_tir_basic.cpp - Tensor IR construction & evaluation ----------------===//
//
// Expression folding, printing, slot assignment, scalar loops with
// load/store, parallel loop execution through the thread pool, thread-local
// scratch isolation, and end-to-end brgemm/tile-kernel intrinsic calls from
// Tensor IR.
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

TEST(TirPrinter, RendersLoopNest) {
  Var I = makeVar("i");
  Func F;
  F.Name = "demo";
  const int Buf = F.addBuffer("x", DataType::F32, {16}, BufferScope::Param);
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(16), makeInt(1),
      {makeStore(Buf, {Expr(I)}, makeFloat(1.0))}, /*Parallel=*/true));
  const std::string Text = printFunc(F);
  EXPECT_NE(Text.find("parallel loop i = 0, 16, 1"), std::string::npos);
  EXPECT_NE(Text.find("b0[i] = 1f"), std::string::npos);
  EXPECT_NE(Text.find("buffer b0 param f32[16] x"), std::string::npos);
}

TEST(TirEval, ScalarLoopStoreLoad) {
  // out[i] = in[i] * 2 + 1 over a serial loop.
  Func F;
  F.Name = "axpy";
  const int In = F.addBuffer("in", DataType::F32, {8}, BufferScope::Param);
  const int Out = F.addBuffer("out", DataType::F32, {8}, BufferScope::Param);
  Var I = makeVar("i");
  Expr LoadIn = std::make_shared<LoadNode>(In, std::vector<Expr>{Expr(I)},
                                           ScalarType::F64);
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(8), makeInt(1),
      {makeStore(Out, {Expr(I)}, LoadIn * makeFloat(2.0) + makeFloat(1.0))}));
  assignSlots(F);
  ASSERT_EQ(F.NumSlots, 1);

  std::vector<float> InV = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<float> OutV(8, -1.0f);
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{In, InV.data()}, {Out, OutV.data()}});
  for (int K = 0; K < 8; ++K)
    EXPECT_EQ(OutV[static_cast<size_t>(K)], 2.0f * K + 1.0f);
}

TEST(TirEval, MultiDimIndexingRowMajor) {
  Func F;
  const int Buf = F.addBuffer("m", DataType::S32, {3, 4}, BufferScope::Param);
  Var I = makeVar("i"), J = makeVar("j");
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(3), makeInt(1),
      {makeFor(J, makeInt(0), makeInt(4), makeInt(1),
               {makeStore(Buf, {Expr(I), Expr(J)},
                          Expr(I) * makeInt(10) + Expr(J))})}));
  assignSlots(F);
  std::vector<int32_t> M(12, -1);
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{Buf, M.data()}});
  EXPECT_EQ(M[0], 0);
  EXPECT_EQ(M[5], 11); // row 1 col 1
  EXPECT_EQ(M[11], 23);
}

TEST(TirEval, ParallelLoopAcrossWorkers) {
  Func F;
  const int Buf =
      F.addBuffer("out", DataType::S32, {128}, BufferScope::Param);
  Var I = makeVar("i");
  F.Body.push_back(makeFor(I, makeInt(0), makeInt(128), makeInt(1),
                           {makeStore(Buf, {Expr(I)}, Expr(I) * makeInt(3))},
                           /*Parallel=*/true));
  assignSlots(F);
  std::vector<int32_t> Out(128, 0);
  runtime::ThreadPool Pool(4);
  runTir(F, Pool, {{Buf, Out.data()}});
  for (int K = 0; K < 128; ++K)
    ASSERT_EQ(Out[static_cast<size_t>(K)], 3 * K);
}

TEST(TirEval, ThreadLocalScratchIsolated) {
  // Each parallel iteration writes its iteration id into a thread-local
  // scratch cell and copies it to the output; with a shared cell this races.
  Func F;
  const int Scratch =
      F.addBuffer("scratch", DataType::S32, {1}, BufferScope::ThreadLocal);
  const int Out = F.addBuffer("out", DataType::S32, {64}, BufferScope::Param);
  Var I = makeVar("i");
  Expr LoadScratch = std::make_shared<LoadNode>(
      Scratch, std::vector<Expr>{makeInt(0)}, ScalarType::I64);
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(64), makeInt(1),
      {makeStore(Scratch, {makeInt(0)}, Expr(I) * makeInt(7)),
       makeStore(Out, {Expr(I)}, LoadScratch)},
      /*Parallel=*/true));
  assignSlots(F);
  std::vector<int32_t> OutV(64, -1);
  runtime::ThreadPool Pool(4);
  runTir(F, Pool, {{Out, OutV.data()}});
  for (int K = 0; K < 64; ++K)
    ASSERT_EQ(OutV[static_cast<size_t>(K)], 7 * K);
}

TEST(TirEval, LetBindsScalars) {
  Func F;
  const int Out = F.addBuffer("out", DataType::S32, {4}, BufferScope::Param);
  Var I = makeVar("i");
  Var T = makeVar("t");
  F.Body.push_back(makeFor(
      I, makeInt(0), makeInt(4), makeInt(1),
      {makeLet(T, Expr(I) * makeInt(5) + makeInt(2)),
       makeStore(Out, {Expr(I)}, Expr(T) + Expr(T))}));
  assignSlots(F);
  std::vector<int32_t> OutV(4, 0);
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{Out, OutV.data()}});
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
  // Apply relu to the second row only, via a buffer offset.
  Func F;
  const int X = F.addBuffer("x", DataType::F32, {2, 4}, BufferScope::Param);
  F.Body.push_back(makeCall(Intrinsic::ReluTile, {BufferRef(X, makeInt(4))},
                            {makeInt(1), makeInt(4), makeInt(4)}));
  assignSlots(F);
  std::vector<float> XV = {-1, -2, -3, -4, -5, 6, -7, 8};
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{X, XV.data()}});
  EXPECT_EQ(XV[0], -1.0f) << "row 0 untouched";
  EXPECT_EQ(XV[4], 0.0f);
  EXPECT_EQ(XV[5], 6.0f);
  EXPECT_EQ(XV[6], 0.0f);
  EXPECT_EQ(XV[7], 8.0f);
}

TEST(TirEval, TempBufferWithArenaOffset) {
  // temp <- in, out <- temp, with the temp placed in the shared arena.
  Func F;
  const int In = F.addBuffer("in", DataType::F32, {4}, BufferScope::Param);
  const int Tmp = F.addBuffer("tmp", DataType::F32, {4}, BufferScope::Temp);
  const int Out = F.addBuffer("out", DataType::F32, {4}, BufferScope::Param);
  F.buffer(Tmp).ArenaOffset = 64;
  F.ArenaBytes = 128;
  F.Body.push_back(makeCall(
      Intrinsic::CopyTile, {BufferRef(Tmp, makeInt(0)), BufferRef(In, makeInt(0))},
      {makeInt(1), makeInt(4), makeInt(4), makeInt(4)}));
  F.Body.push_back(makeCall(
      Intrinsic::CopyTile, {BufferRef(Out, makeInt(0)), BufferRef(Tmp, makeInt(0))},
      {makeInt(1), makeInt(4), makeInt(4), makeInt(4)}));
  assignSlots(F);
  std::vector<float> InV = {1, 2, 3, 4};
  std::vector<float> OutV(4, 0.0f);
  runtime::ThreadPool Pool(1);
  runTir(F, Pool, {{In, InV.data()}, {Out, OutV.data()}});
  EXPECT_EQ(OutV, InV);
}

} // namespace
