//===- mlp_int8_inference.cpp - quantized DLRM-style MLP inference ----------------===//
//
// Domain example #1: the paper's flagship int8 scenario. Builds the
// statically-quantized MLP-1 graph (Fig. 5 structure: dequantize ->
// matmul -> bias -> relu -> quantize per layer), compiles it, and shows
// what the low-precision pipeline produced:
//   * int8 matmuls with s32 accumulation and VNNI-packed weights,
//   * zero-point compensation folded into the first execution,
//   * blocked u8 activations flowing between the fused layers,
//   * coarse-grain fusion merging the layers' parallel loops.
// Then it measures the speedup over the primitives-style baseline.
//
// Run: ./build/examples/mlp_int8_inference [batch]
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "support/rng.h"
#include "support/timer.h"
#include "workloads/mlp.h"

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

} // namespace

int main(int argc, char **argv) {
  const int64_t Batch = argc > 1 ? std::atoll(argv[1]) : 128;

  workloads::MlpSpec Spec;
  Spec.Batch = Batch;
  Spec.LayerDims = workloads::mlp1Dims(); // 13-512-256-128 (DLRM bottom)
  Spec.Int8 = true;
  Spec.Seed = 42;
  const graph::Graph G = workloads::buildMlp(Spec);

  auto Gc = compileOnePartition(G, core::CompileOptions());
  auto Prim = compileOnePartition(G, core::primitivesBaselineOptions());

  // Show the structural effects of the pipeline.
  const core::PartitionStats S = Gc->stats();
  std::printf("MLP-1 int8, batch %lld\n", (long long)Batch);
  std::printf("  coarse-grain merges : %d\n", S.CoarseGrainMerges);
  std::printf("  parallel nests      : %d (primitives: %d)\n",
              S.ParallelNests, Prim->stats().ParallelNests);
  std::printf("  scratch arena       : %lld B (without reuse: %lld B)\n",
              (long long)S.ScratchArenaBytes,
              (long long)S.ScratchArenaBytesNoReuse);
  int VnniWeights = 0;
  for (int64_t Id : Gc->optimizedGraph().opIds()) {
    const graph::Op &O = Gc->optimizedGraph().op(Id);
    if (O.kind() == graph::OpKind::Reorder)
      ++VnniWeights;
  }
  std::printf("  prepacked weights   : %d reorders in the fold function\n",
              VnniWeights);

  // Execute both and compare throughput.
  runtime::TensorData In(DataType::U8, {Batch, Spec.LayerDims.front()});
  Rng R(7);
  In.fillRandom(R);
  runtime::TensorData OutGc(DataType::U8, {Batch, Spec.LayerDims.back()});
  runtime::TensorData OutPrim(DataType::U8, {Batch, Spec.LayerDims.back()});

  auto timeIt = [&](core::CompiledPartition &P,
                    runtime::TensorData &Out) {
    (void)P.execute({&In}, {&Out}); // warmup + fold
    Timer T;
    int Iters = 0;
    do {
      (void)P.execute({&In}, {&Out});
      ++Iters;
    } while (T.seconds() < 0.2);
    return T.seconds() / Iters;
  };
  const double GcSec = timeIt(*Gc, OutGc);
  const double PrimSec = timeIt(*Prim, OutPrim);
  std::printf("  primitives baseline : %.3f ms/inference\n", PrimSec * 1e3);
  std::printf("  graph compiler      : %.3f ms/inference (%.2fx)\n",
              GcSec * 1e3, PrimSec / GcSec);
  std::printf("  outputs agree within one quantization step: %s\n",
              runtime::maxAbsDiff(OutGc, OutPrim) <= 1.0 ? "yes" : "NO");
  return 0;
}
