//===- test_bert_layer.cpp - BERT encoder layer end-to-end ----------------------===//
//
// The Fig. 9 end-to-end graph: one full BERT encoder layer (projections,
// attention, layernorms, GELU FFN) compiled as a single partition and
// checked against the reference, in FP32 and Int8, compiler and baseline.
//
//===----------------------------------------------------------------------===//

#include "baseline/loopnest.h"
#include "core/compiler.h"
#include "exec/program.h"
#include "graph/reference.h"
#include "workloads/bert.h"
#include "workloads/mha.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace gc;
using namespace gc::graph;
using runtime::TensorData;

namespace {

workloads::BertLayerSpec tinySpec(bool Int8) {
  workloads::BertLayerSpec Spec;
  Spec.Batch = 2;
  Spec.SeqLen = 16;
  Spec.Hidden = 64;
  Spec.Heads = 4;
  Spec.FfnDim = 128;
  Spec.Int8 = Int8;
  Spec.Seed = 61;
  return Spec;
}

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
        P[I] *= T.Name == "mask" ? 0.0f : 0.3f; // zero mask keeps logits sane
    }
    Inputs.push_back(std::move(Data));
  }
  return Inputs;
}

void runAndCompare(const Graph &G, bool UseCompiler, double RelTol,
                   double QuantTol) {
  auto Ins = makeInputs(G, 62);
  TensorMap Env;
  for (size_t I = 0; I < Ins.size(); ++I)
    Env[G.inputs()[I]] = Ins[I].clone();
  const auto Want = runGraphReference(G, std::move(Env));

  std::vector<TensorData *> InPtrs;
  for (auto &T : Ins)
    InPtrs.push_back(&T);
  std::vector<TensorData> Outs;
  for (const auto &W : Want)
    Outs.emplace_back(W.dtype(), W.shape());
  std::vector<TensorData *> OutPtrs;
  for (auto &T : Outs)
    OutPtrs.push_back(&T);

  if (UseCompiler) {
    core::CompileOptions Opts;
    Opts.Threads = 1;
    Opts.FastSoftmax = false;
    auto Partition = test::compileOnePartition(G, Opts);
    EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
  } else {
    baseline::LoopNestExecutor Exec(G, 1);
    Exec.execute(InPtrs, OutPtrs);
  }
  for (size_t I = 0; I < Outs.size(); ++I) {
    if (isQuantizedType(Outs[I].dtype()))
      EXPECT_LE(runtime::maxAbsDiff(Outs[I], Want[I]), QuantTol);
    else
      EXPECT_LE(runtime::maxRelDiff(Outs[I], Want[I], 1e-2), RelTol);
  }
}

TEST(BertLayer, CompilerF32) {
  runAndCompare(workloads::buildBertLayer(tinySpec(false)), true, 2e-2,
                1.0);
}

TEST(BertLayer, BaselineF32) {
  runAndCompare(workloads::buildBertLayer(tinySpec(false)), false, 2e-2,
                1.0);
}

TEST(BertLayer, CompilerInt8) {
  // Quantization error dominates; the compiled u8 output must stay within
  // a few grid steps of the (double precision) reference.
  runAndCompare(workloads::buildBertLayer(tinySpec(true)), true, 0.0, 16.0);
}

TEST(BertLayer, BaselineInt8) {
  runAndCompare(workloads::buildBertLayer(tinySpec(true)), false, 0.0,
                16.0);
}

/// Names of the entry's Const buffers that no kernel call reads.
std::vector<std::string> unreadConstBuffers(const core::CompiledPartition &P) {
  std::unordered_set<int> Read;
  for (const exec::CallDesc &C : P.bytecode().Calls)
    for (int I = 0; I < C.NumBufs; ++I)
      Read.insert(C.Bufs[I].BufferId);
  std::vector<std::string> Unread;
  for (const tir::BufferDecl &B : P.entry().Buffers)
    if (B.Scope == tir::BufferScope::Const && !Read.count(B.Id))
      Unread.push_back(B.Name);
  return Unread;
}

TEST(BakedConstants, Int8EntriesBakeOnlyWhatACallReads) {
  // dequant_acc's single-element s32 compensation is read by no step
  // while its a_zp is 0, so it must not become a baked Const buffer.
  const Graph Graphs[] = {
      workloads::buildMha(workloads::mhaTableSpec(1, 1, /*Int8=*/true)),
      workloads::buildBertLayer(tinySpec(true))};
  for (const Graph &G : Graphs) {
    core::CompileOptions Opts;
    Opts.Threads = 1;
    // entry() and bytecode() of a freshly lowered partition.
    Opts.CacheMode = runtime::CacheMode::Off;
    auto Partition = test::compileOnePartition(G, Opts);
    EXPECT_EQ(unreadConstBuffers(*Partition), std::vector<std::string>{});
    runAndCompare(G, true, 8e-2, 16.0);
  }
}

TEST(BertLayer, CompilerStatsShowFusionAndFolding) {
  const Graph G = workloads::buildBertLayer(tinySpec(false));
  core::CompileOptions Opts;
  Opts.Threads = 1;
  auto Partition = test::compileOnePartition(G, Opts);
  // Prepacked projection weights (4 dense layers + 2 FFN weights).
  std::vector<TensorData> Ins = makeInputs(G, 63);
  std::vector<TensorData *> InPtrs;
  for (auto &T : Ins)
    InPtrs.push_back(&T);
  std::vector<TensorData> Outs;
  for (const auto &Shape : Partition->outputShapes())
    Outs.emplace_back(DataType::F32, Shape);
  std::vector<TensorData *> OutPtrs;
  for (auto &T : Outs)
    OutPtrs.push_back(&T);
  EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
  EXPECT_GE(Partition->stats().FoldedTensors, 6u);
}

} // namespace
