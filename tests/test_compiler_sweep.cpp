//===- test_compiler_sweep.cpp - randomized shape property sweep -----------------===//
//
// Property-based coverage of the whole compiler: for a parameterized grid
// of (batch, K, N, dtype, threads) including ragged primes, tails smaller
// than every block size, GEMMV columns and batched attention shapes, the
// compiled partition must match the reference interpreter, and a second
// execution of the same partition must reproduce the first bit for bit.
// This is the sweep that catches blocking-edge bugs (padding rows/cols,
// partial k-batches, grid clamps) the targeted tests miss.
//
//===----------------------------------------------------------------------===//

#include "core/compiler.h"
#include "graph/reference.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace gc;
using namespace gc::graph;
using runtime::TensorData;

namespace {

void compareCompiledToReference(const Graph &G, int Threads,
                                double RelTol, double QuantTol,
                                uint64_t Seed) {
  core::CompileOptions Opts;
  Opts.Threads = Threads;
  auto Partition = test::compileOnePartition(G, Opts);

  std::vector<TensorData> Inputs;
  TensorMap Env;
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
    Env[In] = Data.clone();
    Inputs.push_back(std::move(Data));
  }
  const auto Want = runGraphReference(G, std::move(Env));

  std::vector<TensorData *> InPtrs;
  for (auto &T : Inputs)
    InPtrs.push_back(&T);
  const auto Execute = [&] {
    std::vector<TensorData> Outs;
    for (const auto &W : Want)
      Outs.emplace_back(W.dtype(), W.shape());
    std::vector<TensorData *> OutPtrs;
    for (auto &T : Outs)
      OutPtrs.push_back(&T);
    EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
    return Outs;
  };
  const std::vector<TensorData> Outs = Execute();

  for (size_t I = 0; I < Outs.size(); ++I) {
    if (isQuantizedType(Outs[I].dtype()))
      ASSERT_LE(runtime::maxAbsDiff(Outs[I], Want[I]), QuantTol)
          << "quantized output " << I;
    else
      ASSERT_LE(runtime::maxRelDiff(Outs[I], Want[I], 1e-2), RelTol)
          << "output " << I;
  }

  // The second run reuses the pooled execution state (register frames,
  // scratch arenas) and the folded constants of the first.
  const std::vector<TensorData> Again = Execute();
  for (size_t I = 0; I < Outs.size(); ++I)
    ASSERT_EQ(std::memcmp(Outs[I].data(), Again[I].data(),
                          static_cast<size_t>(Outs[I].numBytes())),
              0)
        << "output " << I << " differs between two executions";
}

//===----------------------------------------------------------------------===//
// Matmul shape sweep
//===----------------------------------------------------------------------===//

struct SweepCase {
  int64_t M, K, N;
  bool Int8;
  int Threads;
};

void PrintTo(const SweepCase &C, std::ostream *OS) {
  test::printZeroPadded(OS, C, C.M, C.K, C.N, C.Int8, C.Threads);
}

class MatmulSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MatmulSweep, CompiledMatchesReference) {
  const SweepCase C = GetParam();
  const Graph G = workloads::buildSingleMatmul(
      C.M, C.K, C.N, C.Int8, /*Seed=*/static_cast<uint64_t>(C.M * 31 + C.N));
  compareCompiledToReference(G, C.Threads, 2e-3, 1.0,
                             static_cast<uint64_t>(C.K + 1));
}

INSTANTIATE_TEST_SUITE_P(
    RaggedAndAligned, MatmulSweep,
    ::testing::Values(
        // Primes everywhere: every block has a tail.
        SweepCase{7, 11, 13, false, 1}, SweepCase{17, 23, 29, false, 2},
        SweepCase{31, 37, 41, true, 1}, SweepCase{53, 59, 61, false, 4},
        // Exactly one block in each dimension.
        SweepCase{16, 16, 16, false, 1}, SweepCase{32, 64, 16, true, 2},
        // Single row / single column (GEMMV both ways).
        SweepCase{1, 64, 64, false, 1}, SweepCase{64, 64, 1, false, 2},
        SweepCase{1, 128, 1, false, 1}, SweepCase{48, 256, 1, true, 1},
        // Table 1 layer slices.
        SweepCase{32, 13, 512, false, 1}, SweepCase{32, 13, 512, true, 1},
        SweepCase{64, 479, 64, true, 2}, SweepCase{128, 512, 256, true, 1},
        // K smaller than any KB candidate; K = 1.
        SweepCase{24, 3, 48, false, 1}, SweepCase{24, 1, 48, false, 1},
        SweepCase{16, 5, 32, true, 2},
        // More threads than blocks.
        SweepCase{8, 32, 16, false, 8}));

//===----------------------------------------------------------------------===//
// MLP depth sweep
//===----------------------------------------------------------------------===//

struct MlpCase {
  std::vector<int64_t> Dims;
  bool Int8;
};

// Without this gtest prints the raw bytes of the case, i.e. the heap
// pointers of Dims, and the test names CTest derives from that listing
// would change from one run to the next.
void PrintTo(const MlpCase &C, std::ostream *OS) {
  for (size_t I = 0; I < C.Dims.size(); ++I)
    *OS << (I ? "x" : "") << C.Dims[I];
  *OS << (C.Int8 ? "_int8" : "_f32");
}

class MlpSweep : public ::testing::TestWithParam<MlpCase> {};

TEST_P(MlpSweep, CompiledMatchesReference) {
  const MlpCase C = GetParam();
  workloads::MlpSpec Spec;
  Spec.Batch = 24;
  Spec.LayerDims = C.Dims;
  Spec.Int8 = C.Int8;
  Spec.Seed = C.Dims.front();
  compareCompiledToReference(workloads::buildMlp(Spec), 2, 3e-3, 1.0, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Depths, MlpSweep,
    ::testing::Values(MlpCase{{19, 33}, false},
                      MlpCase{{19, 33, 17}, false},
                      MlpCase{{19, 33, 17, 29}, false},
                      MlpCase{{48, 64, 48, 64, 48}, false},
                      MlpCase{{32, 48}, true},
                      MlpCase{{32, 48, 64}, true},
                      MlpCase{{64, 32, 96, 16}, true}));

//===----------------------------------------------------------------------===//
// MHA geometry sweep
//===----------------------------------------------------------------------===//

struct MhaCase {
  int64_t B, H, S, D;
  bool Int8;
};

void PrintTo(const MhaCase &C, std::ostream *OS) {
  test::printZeroPadded(OS, C, C.B, C.H, C.S, C.D, C.Int8);
}

class MhaSweep : public ::testing::TestWithParam<MhaCase> {};

TEST_P(MhaSweep, CompiledMatchesReference) {
  const MhaCase C = GetParam();
  workloads::MhaSpec Spec;
  Spec.Batch = C.B;
  Spec.Heads = C.H;
  Spec.SeqLen = C.S;
  Spec.HeadDim = C.D;
  Spec.Int8 = C.Int8;
  Spec.Seed = static_cast<uint64_t>(C.S * 7 + C.D);
  compareCompiledToReference(workloads::buildMha(Spec), 2, 8e-3,
                             /*QuantTol=*/2.0, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MhaSweep,
    ::testing::Values(MhaCase{1, 1, 16, 8, false},
                      MhaCase{2, 3, 24, 16, false},
                      MhaCase{3, 2, 40, 24, false}, // ragged seq vs blocks
                      MhaCase{2, 2, 33, 17, false}, // primes
                      MhaCase{1, 4, 64, 32, true},
                      MhaCase{2, 2, 48, 16, true}));

} // namespace
