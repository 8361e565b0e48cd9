//===- test_baselines.cpp - baseline executor correctness -----------------------===//
//
// Both comparison baselines (the TVM-like loop-nest executor and the
// primitives-mode compilation) must agree with the reference interpreter
// on every workload used by the benches -- otherwise the Fig. 7/8/9
// comparisons would be meaningless.
//
//===----------------------------------------------------------------------===//

#include "baseline/loopnest.h"
#include "core/compiler.h"
#include "graph/reference.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

using namespace gc;
using namespace gc::graph;
using runtime::TensorData;

namespace {

std::vector<TensorData> makeInputs(const Graph &G, uint64_t Seed) {
  std::vector<TensorData> Inputs;
  Rng R(Seed);
  for (int64_t In : G.inputs()) {
    const LogicalTensor &T = G.tensor(In);
    TensorData Data(T.Ty, T.Shape);
    Data.fillRandom(R);
    if (T.Ty == DataType::F32) {
      float *P = Data.dataAs<float>();
      for (int64_t I = 0, E = Data.numElements(); I < E; ++I)
        P[I] *= 0.5f;
    }
    Inputs.push_back(std::move(Data));
  }
  return Inputs;
}

std::vector<TensorData> referenceOutputs(const Graph &G,
                                         const std::vector<TensorData> &Ins) {
  TensorMap Env;
  for (size_t I = 0; I < Ins.size(); ++I)
    Env[G.inputs()[I]] = Ins[I].clone();
  return runGraphReference(G, std::move(Env));
}

void checkAgainstReference(const std::vector<TensorData> &Got,
                           const std::vector<TensorData> &Want,
                           double RelTol, double QuantTol) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    if (isQuantizedType(Got[I].dtype()))
      EXPECT_LE(runtime::maxAbsDiff(Got[I], Want[I]), QuantTol);
    else
      EXPECT_LE(runtime::maxRelDiff(Got[I], Want[I], 1e-2), RelTol);
  }
}

void runLoopNest(const Graph &G, double RelTol = 2e-3,
                 double QuantTol = 1.0, uint64_t Seed = 31) {
  auto Ins = makeInputs(G, Seed);
  const auto Want = referenceOutputs(G, Ins);
  baseline::LoopNestExecutor Exec(G, 1);
  std::vector<TensorData *> InPtrs;
  for (auto &T : Ins)
    InPtrs.push_back(&T);
  std::vector<TensorData> Outs;
  for (const auto &W : Want)
    Outs.emplace_back(W.dtype(), W.shape());
  std::vector<TensorData *> OutPtrs;
  for (auto &T : Outs)
    OutPtrs.push_back(&T);
  Exec.execute(InPtrs, OutPtrs);
  checkAgainstReference(Outs, Want, RelTol, QuantTol);
}

void runPrimitives(const Graph &G, double RelTol = 2e-3,
                   double QuantTol = 1.0, uint64_t Seed = 32) {
  auto Ins = makeInputs(G, Seed);
  const auto Want = referenceOutputs(G, Ins);
  auto Partition =
      test::compileOnePartition(G, core::primitivesBaselineOptions(1));
  std::vector<TensorData *> InPtrs;
  for (auto &T : Ins)
    InPtrs.push_back(&T);
  std::vector<TensorData> Outs;
  for (const auto &W : Want)
    Outs.emplace_back(W.dtype(), W.shape());
  std::vector<TensorData *> OutPtrs;
  for (auto &T : Outs)
    OutPtrs.push_back(&T);
  EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
  checkAgainstReference(Outs, Want, RelTol, QuantTol);
}

//===----------------------------------------------------------------------===//
// Loop-nest (TVM-like) baseline
//===----------------------------------------------------------------------===//

TEST(LoopNestBaseline, MlpF32) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {24, 48, 16};
  Spec.Seed = 33;
  runLoopNest(workloads::buildMlp(Spec));
}

TEST(LoopNestBaseline, MlpInt8) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {32, 64, 32};
  Spec.Int8 = true;
  Spec.Seed = 34;
  runLoopNest(workloads::buildMlp(Spec));
}

TEST(LoopNestBaseline, Mlp1Int8FullShape) {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = workloads::mlp1Dims();
  Spec.Int8 = true;
  Spec.Seed = 35;
  runLoopNest(workloads::buildMlp(Spec));
}

TEST(LoopNestBaseline, MhaF32) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 32;
  Spec.HeadDim = 16;
  Spec.Seed = 36;
  runLoopNest(workloads::buildMha(Spec), 5e-3);
}

TEST(LoopNestBaseline, MhaInt8) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 32;
  Spec.HeadDim = 16;
  Spec.Int8 = true;
  Spec.Seed = 37;
  runLoopNest(workloads::buildMha(Spec), 8e-2);
}

TEST(LoopNestBaseline, FusesEpilogues) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {24, 48, 16};
  Spec.Seed = 38;
  baseline::LoopNestExecutor Exec(workloads::buildMlp(Spec), 1);
  // bias-add + relu of the first layer and bias-add of the second.
  EXPECT_GE(Exec.fusedEpilogueOps(), 3);
}

TEST(LoopNestBaseline, GemmvN1) {
  runLoopNest(workloads::buildSingleMatmul(32, 256, 1, false, 39));
}

//===----------------------------------------------------------------------===//
// Primitives-mode baseline
//===----------------------------------------------------------------------===//

TEST(PrimitivesBaseline, MlpF32) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {24, 48, 16};
  Spec.Seed = 40;
  runPrimitives(workloads::buildMlp(Spec));
}

TEST(PrimitivesBaseline, MlpInt8) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {32, 64, 32};
  Spec.Int8 = true;
  Spec.Seed = 41;
  runPrimitives(workloads::buildMlp(Spec));
}

TEST(PrimitivesBaseline, MhaF32) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 32;
  Spec.HeadDim = 16;
  Spec.Seed = 42;
  runPrimitives(workloads::buildMha(Spec), 5e-3);
}

TEST(PrimitivesBaseline, MhaInt8) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 32;
  Spec.HeadDim = 16;
  Spec.Int8 = true;
  Spec.Seed = 43;
  runPrimitives(workloads::buildMha(Spec), 8e-2);
}

TEST(PrimitivesBaseline, NoCoarseGrainMergesAndPlainActivations) {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = {64, 96, 64};
  Spec.Seed = 44;
  auto Partition = test::compileOnePartition(
      workloads::buildMlp(Spec), core::primitivesBaselineOptions(1));
  EXPECT_EQ(Partition->stats().CoarseGrainMerges, 0);
  // Every intermediate tensor stays plain.
  const Graph &G = Partition->optimizedGraph();
  for (int64_t TId : G.tensorIds()) {
    const LogicalTensor &T = G.tensor(TId);
    if (T.Ty == DataType::F32 && G.producerOf(TId) >= 0 &&
        !T.isConstant()) {
      EXPECT_FALSE(T.Lay.K == Layout::Kind::BlockedA)
          << "primitives mode must not block activations";
    }
  }
}

} // namespace
