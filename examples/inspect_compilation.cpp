//===- inspect_compilation.cpp - dump every compilation stage --------------------===//
//
// Domain example #3: compiler introspection. Compiles a small int8 MLP
// and prints what each stage produced -- the optimized Graph IR (fused
// regions, blocked layouts, prepack reorders, blk_* template parameters)
// and the lowered Tensor IR entry function (the Fig. 2 loop nest with the
// brgemm microkernel calls and the anchor-committed tile kernels).
//
// Run: ./build/examples/inspect_compilation
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "tir/printer.h"
#include "workloads/mlp.h"

#include <cstdio>

using namespace gc;

int main() {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = {32, 64, 32};
  Spec.Int8 = true;
  Spec.Seed = 5;
  const graph::Graph G = workloads::buildMlp(Spec);

  std::printf("===== source Graph IR =====\n%s\n", G.toString().c_str());

  api::Session Session;
  Expected<api::CompiledGraphPtr> CompiledOr = Session.compile(G);
  if (!CompiledOr) {
    std::fprintf(stderr, "compile failed: %s\n",
                 CompiledOr.status().toString().c_str());
    return 1;
  }
  // The MLP compiles to one partition; its CompiledPartition keeps what
  // each stage produced.
  const std::shared_ptr<core::CompiledPartition> Partition =
      (*CompiledOr)->compiledPartition(0);
  if (!Partition) {
    std::fprintf(stderr, "the MLP fell back to the reference interpreter\n");
    return 1;
  }

  std::printf("===== optimized Graph IR (after the §V pipeline) =====\n%s\n",
              Partition->optimizedGraph().toString().c_str());

  std::printf("===== Tensor IR entry function (§VI) =====\n%s\n",
              tir::printFunc(Partition->entry()).c_str());

  const core::PartitionStats S = Partition->stats();
  std::printf("===== statistics =====\n");
  std::printf("coarse-grain merges      : %d\n", S.CoarseGrainMerges);
  std::printf("parallel nests           : %d\n", S.ParallelNests);
  std::printf("scratch arena            : %lld B (no-reuse: %lld B)\n",
              (long long)S.ScratchArenaBytes,
              (long long)S.ScratchArenaBytesNoReuse);
  return 0;
}
