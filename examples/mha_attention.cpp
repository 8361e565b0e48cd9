//===- mha_attention.cpp - fused scaled dot-product attention --------------------===//
//
// Domain example #2: the transformer attention core of §VII. Builds the
// MHA-1 graph (two batched matmuls with scale, mask and softmax between
// them), compiles it, and demonstrates the two fusion levels the paper
// evaluates:
//   * fine-grain fusion commits the decomposed softmax at the matmul
//     template's post-op anchors (the baseline cannot fuse it at all),
//   * coarse-grain fusion merges the two batch matmuls' parallel loops
//     over the batch*heads grid.
//
// Run: ./build/examples/mha_attention [batch]
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "support/rng.h"
#include "support/timer.h"
#include "workloads/mha.h"

#include <cstdio>
#include <cstdlib>

using namespace gc;

namespace {

/// Compiles \p G with \p Opts and returns its one compiled partition,
/// which this example inspects and times directly; exits on failure.
std::shared_ptr<core::CompiledPartition>
compileOnePartition(const graph::Graph &G, const core::CompileOptions &Opts) {
  api::Session Session(Opts);
  Expected<api::CompiledGraphPtr> CompiledOr = Session.compile(G);
  if (!CompiledOr) {
    std::fprintf(stderr, "compile failed: %s\n",
                 CompiledOr.status().toString().c_str());
    std::exit(1);
  }
  if (!(*CompiledOr)->compiledPartition(0)) {
    std::fprintf(stderr, "the graph fell back to the reference interpreter\n");
    std::exit(1);
  }
  return (*CompiledOr)->compiledPartition(0);
}

double timeIt(core::CompiledPartition &P,
              const std::vector<runtime::TensorData *> &In,
              const std::vector<runtime::TensorData *> &Out) {
  (void)P.execute(In, Out);
  Timer T;
  int Iters = 0;
  do {
    (void)P.execute(In, Out);
    ++Iters;
  } while (T.seconds() < 0.2);
  return T.seconds() / Iters;
}

} // namespace

int main(int argc, char **argv) {
  const int64_t Batch = argc > 1 ? std::atoll(argv[1]) : 16;
  workloads::MhaSpec Spec = workloads::mhaTableSpec(/*Row=*/1, Batch,
                                                    /*Int8=*/false);
  Spec.Seed = 11;
  const graph::Graph G = workloads::buildMha(Spec);
  std::printf("MHA-1: batch %lld, %lld heads, seq %lld, head dim %lld\n",
              (long long)Spec.Batch, (long long)Spec.Heads,
              (long long)Spec.SeqLen, (long long)Spec.HeadDim);

  // Three compilations: full, without coarse-grain, without fine-grain.
  auto Full = compileOnePartition(G, core::CompileOptions());
  core::CompileOptions NoCoarse;
  NoCoarse.EnableCoarseGrainFusion = false;
  auto NC = compileOnePartition(G, NoCoarse);
  core::CompileOptions NoFine;
  NoFine.EnableFineGrainFusion = false;
  NoFine.EnableCoarseGrainFusion = false;
  auto NF = compileOnePartition(G, NoFine);

  std::printf("parallel nests: full=%d, no-coarse=%d, no-fine=%d\n",
              Full->stats().ParallelNests, NC->stats().ParallelNests,
              NF->stats().ParallelNests);

  // Inputs.
  Rng R(3);
  std::vector<runtime::TensorData> Ins;
  for (int64_t In : G.inputs()) {
    Ins.emplace_back(G.tensor(In).Ty, G.tensor(In).Shape);
    Ins.back().fillRandom(R);
    if (G.tensor(In).Name == "mask")
      Ins.back().fillConstant(0.0);
  }
  std::vector<runtime::TensorData *> InPtrs;
  for (auto &T : Ins)
    InPtrs.push_back(&T);
  runtime::TensorData Out(DataType::F32, Full->outputShapes()[0]);
  runtime::TensorData Out2(DataType::F32, Full->outputShapes()[0]);
  runtime::TensorData Out3(DataType::F32, Full->outputShapes()[0]);

  const double FullSec = timeIt(*Full, InPtrs, {&Out});
  const double NcSec = timeIt(*NC, InPtrs, {&Out2});
  const double NfSec = timeIt(*NF, InPtrs, {&Out3});
  std::printf("no fine-grain fusion : %.3f ms\n", NfSec * 1e3);
  std::printf("fine-grain only      : %.3f ms (%.2fx)\n", NcSec * 1e3,
              NfSec / NcSec);
  std::printf("+ coarse-grain       : %.3f ms (%.2fx total)\n",
              FullSec * 1e3, NfSec / FullSec);
  std::printf("ablations agree: %s\n",
              runtime::maxRelDiff(Out2, Out, 1e-2) < 1e-3 &&
                      runtime::maxRelDiff(Out3, Out, 1e-2) < 1e-3
                  ? "yes"
                  : "NO");
  return 0;
}
