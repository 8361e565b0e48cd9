//===- test_compiler_e2e.cpp - whole-compiler correctness -----------------------===//
//
// Compiles graphs through the full pipeline (decompose -> cleanup ->
// low-precision -> fusion -> layout propagation -> template lowering ->
// Tensor IR passes -> evaluator) and compares against the reference
// interpreter. Covers FP32 and Int8 MLPs, MHA, multi-thread execution and
// every ablation switch.
//
//===----------------------------------------------------------------------===//

#include "core/compiler.h"
#include "graph/reference.h"
#include "lower/driver.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace gc;
using namespace gc::graph;
using namespace gc::core;
using runtime::TensorData;

namespace {

/// Runs the compiled partition and the reference on identical random
/// inputs; returns (compiled outputs, reference outputs).
struct RunResult {
  std::vector<TensorData> Compiled;
  std::vector<TensorData> Reference;
};

RunResult runBoth(const Graph &G, const CompileOptions &Opts,
                  uint64_t Seed = 99) {
  auto Partition = test::compileOnePartition(G, Opts);

  // Random inputs following graph declarations.
  std::vector<TensorData> Inputs;
  TensorMap RefEnv;
  Rng R(Seed);
  for (int64_t In : G.inputs()) {
    const LogicalTensor &T = G.tensor(In);
    TensorData Data(T.Ty, T.Shape);
    Data.fillRandom(R);
    if (T.Ty == DataType::F32) {
      // Keep magnitudes moderate for stable comparisons.
      float *P = Data.dataAs<float>();
      for (int64_t I = 0, E = Data.numElements(); I < E; ++I)
        P[I] *= 0.5f;
    }
    RefEnv[In] = Data.clone();
    Inputs.push_back(std::move(Data));
  }

  RunResult Result;
  Result.Reference = runGraphReference(G, std::move(RefEnv));

  std::vector<TensorData *> InPtrs;
  for (TensorData &T : Inputs)
    InPtrs.push_back(&T);
  const auto OutShapes = Partition->outputShapes();
  for (size_t I = 0; I < OutShapes.size(); ++I)
    Result.Compiled.emplace_back(Result.Reference[I].dtype(), OutShapes[I]);
  std::vector<TensorData *> OutPtrs;
  for (TensorData &T : Result.Compiled)
    OutPtrs.push_back(&T);
  EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
  // Execute twice: the second run must reuse the fold cache and produce
  // identical results (catches cache corruption / buffer aliasing bugs).
  EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
  return Result;
}

void expectClose(const RunResult &R, double RelTol = 2e-3,
                 double QuantTol = 1.0) {
  ASSERT_EQ(R.Compiled.size(), R.Reference.size());
  for (size_t I = 0; I < R.Compiled.size(); ++I) {
    if (isQuantizedType(R.Compiled[I].dtype())) {
      EXPECT_LE(runtime::maxAbsDiff(R.Compiled[I], R.Reference[I]), QuantTol)
          << "quantized output " << I;
    } else {
      EXPECT_LE(runtime::maxRelDiff(R.Compiled[I], R.Reference[I], 1e-2),
                RelTol)
          << "output " << I;
    }
  }
}

CompileOptions defaultOpts() {
  CompileOptions Opts;
  Opts.Threads = 1;
  return Opts;
}

//===----------------------------------------------------------------------===//
// FP32 paths
//===----------------------------------------------------------------------===//

TEST(CompilerE2E, SingleMatmulF32) {
  const Graph G = workloads::buildSingleMatmul(8, 16, 32, false, 3);
  expectClose(runBoth(G, defaultOpts()));
}

TEST(CompilerE2E, SingleMatmulF32RaggedShapes) {
  const Graph G = workloads::buildSingleMatmul(13, 19, 37, false, 4);
  expectClose(runBoth(G, defaultOpts()));
}

TEST(CompilerE2E, MatmulBiasReluF32) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {24, 48, 16};
  Spec.Seed = 5;
  expectClose(runBoth(workloads::buildMlp(Spec), defaultOpts()));
}

TEST(CompilerE2E, Mlp1F32) {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = workloads::mlp1Dims();
  Spec.Seed = 6;
  expectClose(runBoth(workloads::buildMlp(Spec), defaultOpts()));
}

TEST(CompilerE2E, GemmvNEquals1) {
  // The 256 -> 1 tail layer of MLP-2 (padded microkernel path).
  const Graph G = workloads::buildSingleMatmul(32, 256, 1, false, 7);
  expectClose(runBoth(G, defaultOpts()));
}

TEST(CompilerE2E, MultiThreadedMatchesSingleThreaded) {
  workloads::MlpSpec Spec;
  Spec.Batch = 64;
  Spec.LayerDims = {64, 96, 32};
  Spec.Seed = 8;
  const Graph G = workloads::buildMlp(Spec);
  CompileOptions Opts = defaultOpts();
  Opts.Threads = 4;
  expectClose(runBoth(G, Opts));
}

//===----------------------------------------------------------------------===//
// Int8 paths
//===----------------------------------------------------------------------===//

TEST(CompilerE2E, SingleMatmulInt8) {
  const Graph G = workloads::buildSingleMatmul(8, 32, 32, true, 9);
  expectClose(runBoth(G, defaultOpts()));
}

TEST(CompilerE2E, Int8MlpLayerWithReluAndRequant) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {32, 64, 32};
  Spec.Int8 = true;
  Spec.Seed = 10;
  expectClose(runBoth(workloads::buildMlp(Spec), defaultOpts()));
}

TEST(CompilerE2E, Mlp1Int8) {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = workloads::mlp1Dims();
  Spec.Int8 = true;
  Spec.Seed = 11;
  expectClose(runBoth(workloads::buildMlp(Spec), defaultOpts()));
}

//===----------------------------------------------------------------------===//
// MHA
//===----------------------------------------------------------------------===//

TEST(CompilerE2E, MhaF32Small) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 32;
  Spec.HeadDim = 16;
  Spec.Seed = 12;
  CompileOptions Opts = defaultOpts();
  Opts.FastSoftmax = false; // compare against the reference's stable form
  expectClose(runBoth(workloads::buildMha(Spec), Opts), 5e-3);
}

TEST(CompilerE2E, MhaF32FastSoftmax) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 32;
  Spec.HeadDim = 16;
  Spec.Seed = 13;
  // Fast softmax drops the max subtraction; with moderate logits the
  // results still match the stable reference closely.
  CompileOptions Opts = defaultOpts();
  Opts.FastSoftmax = true;
  expectClose(runBoth(workloads::buildMha(Spec), Opts), 5e-3);
}

TEST(CompilerE2E, MhaF32NoMask) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 48;
  Spec.HeadDim = 32;
  Spec.WithMask = false;
  Spec.Seed = 14;
  expectClose(runBoth(workloads::buildMha(Spec), defaultOpts()), 5e-3);
}

TEST(CompilerE2E, MhaInt8Small) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 32;
  Spec.HeadDim = 16;
  Spec.Int8 = true;
  Spec.Seed = 15;
  // Int8 attention: wider tolerance, the quantization grid dominates.
  expectClose(runBoth(workloads::buildMha(Spec), defaultOpts()), 8e-2);
}

//===----------------------------------------------------------------------===//
// Ablation switches stay correct
//===----------------------------------------------------------------------===//

struct AblationCase {
  const char *Name;
  bool FineGrain, CoarseGrain, Layout, Reuse;
};

// Without this gtest prints the raw bytes of the case, which hold the
// address of Name and uninitialized padding; the test names CTest derives
// from that listing would then change from one build to the next.
void PrintTo(const AblationCase &C, std::ostream *OS) {
  *OS << "fine=" << C.FineGrain << ",coarse=" << C.CoarseGrain
      << ",layout=" << C.Layout << ",reuse=" << C.Reuse;
}

class AblationCorrectness : public ::testing::TestWithParam<AblationCase> {};

TEST_P(AblationCorrectness, MlpF32) {
  const AblationCase C = GetParam();
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = {48, 64, 32, 16};
  Spec.Seed = 20;
  CompileOptions Opts = defaultOpts();
  Opts.EnableFineGrainFusion = C.FineGrain;
  Opts.EnableCoarseGrainFusion = C.CoarseGrain;
  Opts.EnableLayoutPropagation = C.Layout;
  Opts.EnableBufferReuse = C.Reuse;
  expectClose(runBoth(workloads::buildMlp(Spec), Opts));
}

TEST_P(AblationCorrectness, MlpInt8) {
  const AblationCase C = GetParam();
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {32, 48, 16};
  Spec.Int8 = true;
  Spec.Seed = 21;
  CompileOptions Opts = defaultOpts();
  Opts.EnableFineGrainFusion = C.FineGrain;
  Opts.EnableCoarseGrainFusion = C.CoarseGrain;
  Opts.EnableLayoutPropagation = C.Layout;
  Opts.EnableBufferReuse = C.Reuse;
  expectClose(runBoth(workloads::buildMlp(Spec), Opts));
}

INSTANTIATE_TEST_SUITE_P(
    Switches, AblationCorrectness,
    ::testing::Values(
        AblationCase{"all_on", true, true, true, true},
        AblationCase{"no_coarse", true, false, true, true},
        AblationCase{"no_layout", true, true, false, true},
        AblationCase{"no_fine", false, false, false, true},
        AblationCase{"no_reuse", true, true, true, false}),
    [](const ::testing::TestParamInfo<AblationCase> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Structural expectations
//===----------------------------------------------------------------------===//

TEST(CompilerE2E, CoarseGrainMergesMlpNests) {
  workloads::MlpSpec Spec;
  Spec.Batch = 64;
  Spec.LayerDims = {64, 96, 64, 32};
  Spec.Seed = 22;
  const Graph G = workloads::buildMlp(Spec);
  auto Partition = test::compileOnePartition(G, defaultOpts());
  const PartitionStats S = Partition->stats();
  EXPECT_GT(S.CoarseGrainMerges, 0)
      << "MLP chains must merge their parallel nests";
  CompileOptions NoCoarse = defaultOpts();
  NoCoarse.EnableCoarseGrainFusion = false;
  auto Partition2 = test::compileOnePartition(G, NoCoarse);
  EXPECT_GT(Partition2->stats().ParallelNests, S.ParallelNests);
}

TEST(CompilerE2E, FoldFunctionCachesPackedWeights) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {32, 64, 32};
  Spec.Seed = 23;
  const Graph G = workloads::buildMlp(Spec);
  // This test observes the fold running lazily on first execution; a
  // disk-cache hit would pre-fire it at load, so pin the cache off.
  CompileOptions Opts = defaultOpts();
  Opts.CacheMode = runtime::CacheMode::Off;
  auto Partition = test::compileOnePartition(G, Opts);
  // Stats before execution: fold not yet run.
  EXPECT_EQ(Partition->stats().FoldedTensors, 0u);
  std::vector<TensorData> Ins;
  Rng R(24);
  for (int64_t In : G.inputs()) {
    Ins.emplace_back(G.tensor(In).Ty, G.tensor(In).Shape);
    Ins.back().fillRandom(R);
  }
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
  // Two prepacked weights must now live in the cache.
  EXPECT_GE(Partition->stats().FoldedTensors, 2u);
  EXPECT_GT(Partition->stats().FoldedBytes, 0);
}

TEST(CompilerE2E, BufferReuseReducesArena) {
  workloads::MlpSpec Spec;
  Spec.Batch = 64;
  Spec.LayerDims = {128, 256, 256, 256, 64};
  Spec.Seed = 25;
  const Graph G = workloads::buildMlp(Spec);
  CompileOptions Opts = defaultOpts();
  Opts.EnableCoarseGrainFusion = false; // keep temps in separate regions
  auto Partition = test::compileOnePartition(G, Opts);
  const PartitionStats S = Partition->stats();
  EXPECT_LT(S.ScratchArenaBytes, S.ScratchArenaBytesNoReuse)
      << "chained temps must share arena space";
}

//===----------------------------------------------------------------------===//
// Fold function vs the reference interpreter
//===----------------------------------------------------------------------===//

/// An int8 MLP over constant s8 weights, stored [N, K] and read through
/// transpose_b when \p TransB. Activations are u8 with a nonzero zero
/// point, so every layer carries a compensation chain.
Graph buildInt8Mlp(int64_t M, const std::vector<int64_t> &Dims, bool TransB,
                   uint64_t Seed) {
  Graph G;
  int64_t Cur = G.addTensor(DataType::U8, {M, Dims[0]}, "x_q");
  G.markInput(Cur);
  for (size_t L = 0; L + 1 < Dims.size(); ++L) {
    const int64_t K = Dims[L], N = Dims[L + 1];
    const int64_t DqA =
        G.addOp(OpKind::Dequantize, {Cur}, DataType::F32, {M, K},
                {{"scale", 0.02}, {"zp", int64_t(118)}});
    const std::vector<int64_t> WShape =
        TransB ? std::vector<int64_t>{N, K} : std::vector<int64_t>{K, N};
    const int64_t W =
        G.addTensor(DataType::S8, WShape, "w", TensorProperty::Constant);
    G.setConstantData(W, test::randomTensor(DataType::S8, WShape, Seed + L));
    std::vector<double> Scales(static_cast<size_t>(N));
    for (size_t I = 0; I < Scales.size(); ++I)
      Scales[I] = 0.004 + 0.001 * static_cast<double>(I % 5);
    const int64_t DqW =
        G.addOp(OpKind::Dequantize, {W}, DataType::F32, WShape,
                {{"scales", Scales},
                 {"zp", int64_t(0)},
                 {"axis", int64_t(TransB ? 0 : 1)}});
    const int64_t Mm = G.addOp(OpKind::MatMul, {DqA, DqW}, DataType::F32,
                               {M, N}, {{"transpose_b", int64_t(TransB)}});
    Cur = G.addOp(OpKind::Quantize, {Mm}, DataType::U8, {M, N},
                  {{"scale", 0.02 * std::sqrt(static_cast<double>(K))},
                   {"zp", int64_t(128)}});
  }
  G.markOutput(Cur);
  return G;
}

TEST(FoldGraph, KernelFoldMatchesReferenceInt8) {
  // K and N are multiples of neither 4 nor any block size, so every
  // packed tile has a K or N tail. Each weight exceeds the constant-fold
  // pass's 4096-element cap (kFoldMaxElements), so its compensation chain
  // reaches the fold graph.
  for (bool TransB : {false, true}) {
    SCOPED_TRACE(TransB ? "transpose_b" : "plain weights");
    CompileOptions Opts = defaultOpts();
    Opts.CacheMode = runtime::CacheMode::Off;
    const auto Partition = test::compileOnePartition(
        buildInt8Mlp(5, {67, 101, 45}, TransB, 41), Opts);
    lower::DriverOptions DrvOpts;
    Expected<lower::LoweredProgram> Lowered =
        lower::lowerGraph(Partition->optimizedGraph(), DrvOpts);
    ASSERT_TRUE(Lowered.hasValue()) << Lowered.status().toString();
    const Graph &FG = Lowered->FoldGraph;

    runtime::ConstCache Folded;
    runFoldGraph(FG, Lowered->FoldOutputs, Folded);
    TensorMap Ref;
    evalGraphReference(FG, Ref);

    int Packed = 0, Compensations = 0;
    for (int64_t Id : Lowered->FoldOutputs) {
      const TensorData *Got = Folded.get(Id);
      ASSERT_NE(Got, nullptr);
      const LogicalTensor &T = FG.tensor(Id);
      if (!T.Lay.isBlocked()) {
        // The compensation column sums, exactly.
        const TensorData &Want = Ref.at(Id);
        ASSERT_EQ(T.Ty, DataType::S32);
        ASSERT_EQ(Got->numBytes(), Want.numBytes());
        EXPECT_EQ(0, std::memcmp(Got->data(), Want.data(),
                                 static_cast<size_t>(Want.numBytes())));
        ++Compensations;
        continue;
      }
      // A packed weight: the reference's plain value, packed per element.
      ASSERT_EQ(T.Lay.K, Layout::Kind::BlockedBVnni);
      const Op &Reorder = FG.op(FG.producerOf(Id));
      const bool Transposed = Reorder.getAttrInt("transpose_src", 0) != 0;
      EXPECT_EQ(Transposed, TransB);
      const int64_t K = T.Shape[0], N = T.Shape[1];
      const std::vector<int8_t> Want = test::naivePackB(
          Ref.at(Reorder.input(0)).dataAs<int8_t>(), K, N,
          Transposed ? K : N, Transposed, T.Lay.Block0, T.Lay.Block1,
          /*Vnni=*/true);
      ASSERT_EQ(Got->numBytes(), static_cast<int64_t>(Want.size()));
      EXPECT_EQ(0, std::memcmp(Got->data(), Want.data(), Want.size()));
      ++Packed;
    }
    EXPECT_EQ(Packed, 2);
    EXPECT_EQ(Compensations, 2);
  }
}

} // namespace
