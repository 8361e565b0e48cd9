//===- test_robustness.cpp - failure injection & edge cases ----------------------===//
//
// Negative-path coverage: invalid graphs must be rejected by verification
// or abort with a diagnostic (not corrupt memory), degenerate-but-legal
// shapes must compile and run, and the executor must reject unbound
// buffers. Fatal paths use gtest death assertions.
//
//===----------------------------------------------------------------------===//

#include "core/compiler.h"
#include "graph/reference.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

using namespace gc;
using namespace gc::graph;
using runtime::TensorData;

namespace {

TEST(Robustness, UnboundEvaluatorBufferAborts) {
  tir::Func F;
  const int In = F.addBuffer("in", DataType::F32, {4},
                             tir::BufferScope::Param);
  tir::Var I = tir::makeVar("i");
  F.Body.push_back(tir::makeFor(
      I, tir::makeInt(0), tir::makeInt(4), tir::makeInt(1),
      {test::copyElem(In, tir::Expr(I), In, tir::makeInt(0))}));
  tir::assignSlots(F);
  runtime::ThreadPool Pool(1);
  // Param never bound.
  EXPECT_DEATH(test::runTir(F, Pool, {}), "unbound tensor buffer");
}

TEST(Robustness, GraphCycleAborts) {
  Graph G;
  const int64_t A = G.addTensor(DataType::F32, {2}, "a");
  const int64_t B = G.addTensor(DataType::F32, {2}, "b");
  G.markInput(A);
  // op1 produces B from itself-through-op2's output; build the cycle via
  // explicit outputs.
  const int64_t C = G.addTensor(DataType::F32, {2}, "c");
  G.addOpExplicit(OpKind::ReLU, {B}, {C});
  G.addOpExplicit(OpKind::ReLU, {C}, {B});
  G.markOutput(B);
  EXPECT_DEATH((void)G.topologicalOrder(), "cycle");
}

TEST(Robustness, DegenerateOneByOneMatmul) {
  // M = N = K = 1: every loop in the template is a single iteration.
  const Graph G = workloads::buildSingleMatmul(1, 1, 1, false, 70);
  core::CompileOptions Opts;
  Opts.Threads = 1;
  auto Partition = test::compileOnePartition(G, Opts);
  TensorData In(DataType::F32, {1, 1});
  In.fillConstant(3.0);
  TensorData Out(DataType::F32, {1, 1});
  EXPECT_TRUE(Partition->execute({&In}, {&Out}).isOk());
  TensorMap Env;
  Env[G.inputs()[0]] = In.clone();
  const auto Want = runGraphReference(G, std::move(Env));
  EXPECT_NEAR(Out.dataAs<float>()[0], Want[0].dataAs<float>()[0], 1e-4);
}

TEST(Robustness, ManyMoreThreadsThanWork) {
  // 16 workers on an 8-row problem: grid clamping must not duplicate or
  // drop rows.
  workloads::MlpSpec Spec;
  Spec.Batch = 8;
  Spec.LayerDims = {16, 16};
  Spec.Seed = 71;
  const Graph G = workloads::buildMlp(Spec);
  core::CompileOptions Opts;
  Opts.Threads = 16;
  auto Partition = test::compileOnePartition(G, Opts);
  TensorData In(DataType::F32, {8, 16});
  Rng R(72);
  In.fillRandom(R);
  TensorData Out(DataType::F32, {8, 16});
  EXPECT_TRUE(Partition->execute({&In}, {&Out}).isOk());
  TensorMap Env;
  Env[G.inputs()[0]] = In.clone();
  const auto Want = runGraphReference(G, std::move(Env));
  EXPECT_LE(runtime::maxRelDiff(Out, Want[0], 1e-2), 1e-3);
}

TEST(Robustness, RepeatedExecutionIsIdempotent) {
  // 20 consecutive executions on the same partition must agree bitwise
  // (catches scratch-state leakage between runs).
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {24, 32, 16};
  Spec.Int8 = true;
  Spec.Seed = 73;
  const Graph G = workloads::buildMlp(Spec);
  core::CompileOptions Opts;
  Opts.Threads = 2;
  auto Partition = test::compileOnePartition(G, Opts);
  TensorData In(DataType::U8, {16, 24});
  Rng R(74);
  In.fillRandom(R);
  TensorData First(DataType::U8, {16, 16});
  EXPECT_TRUE(Partition->execute({&In}, {&First}).isOk());
  for (int Run = 0; Run < 20; ++Run) {
    TensorData Out(DataType::U8, {16, 16});
    EXPECT_TRUE(Partition->execute({&In}, {&Out}).isOk());
    ASSERT_EQ(runtime::maxAbsDiff(Out, First), 0.0) << "run " << Run;
  }
}

TEST(Robustness, PartitionsShareGlobalPoolSafely) {
  // Two partitions on the global pool, executed alternately.
  workloads::MlpSpec Spec1;
  Spec1.Batch = 8;
  Spec1.LayerDims = {16, 24};
  Spec1.Seed = 75;
  workloads::MlpSpec Spec2 = Spec1;
  Spec2.LayerDims = {16, 40};
  Spec2.Seed = 76;
  const Graph G1 = workloads::buildMlp(Spec1);
  const Graph G2 = workloads::buildMlp(Spec2);
  auto P1 = test::compileOnePartition(G1);
  auto P2 = test::compileOnePartition(G2);
  TensorData In(DataType::F32, {8, 16});
  Rng R(77);
  In.fillRandom(R);
  TensorData O1(DataType::F32, {8, 24}), O2(DataType::F32, {8, 40});
  for (int Run = 0; Run < 5; ++Run) {
    EXPECT_TRUE(P1->execute({&In}, {&O1}).isOk());
    EXPECT_TRUE(P2->execute({&In}, {&O2}).isOk());
  }
  TensorMap Env1, Env2;
  Env1[G1.inputs()[0]] = In.clone();
  Env2[G2.inputs()[0]] = In.clone();
  EXPECT_LE(runtime::maxRelDiff(O1, runGraphReference(G1, std::move(Env1))[0],
                                1e-2),
            1e-3);
  EXPECT_LE(runtime::maxRelDiff(O2, runGraphReference(G2, std::move(Env2))[0],
                                1e-2),
            1e-3);
}

} // namespace
