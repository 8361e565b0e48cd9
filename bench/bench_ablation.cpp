//===- bench_ablation.cpp - design-choice ablations (google-benchmark) -----------===//
//
// Ablation benches for the design choices DESIGN.md calls out, registered
// through google-benchmark:
//   * coarse-grain loop merging on/off (also reports barrier counts),
//   * blocked layout propagation on/off (plain activations + per-call
//     repacking vs negotiated blocked intermediates),
//   * fine-grain fusion on/off (fused anchors vs per-op loop nests),
//   * memory buffer reuse on/off (arena bytes reported as counters).
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"

#include <benchmark/benchmark.h>

using namespace gc;
using namespace gc::bench;

namespace {

/// Compiles the MLP-1 Int8 workload with the given switches and runs one
/// execution per benchmark iteration.
void runMlpConfig(benchmark::State &State, const core::CompileOptions &Opts,
                  bool Int8) {
  workloads::MlpSpec Spec;
  Spec.Batch = 128;
  Spec.LayerDims = workloads::mlp1Dims();
  Spec.Int8 = Int8;
  Spec.Seed = 7;
  Instance W(workloads::buildMlp(Spec));
  api::Session S(Opts);
  auto Partition = onlyPartition(S.compile(W.G));
  (void)Partition->execute(W.InPtrs, W.OutPtrs); // fold warmup
  const uint64_t BarriersBefore = Partition->threadPool().barrierCount();
  uint64_t Iters = 0;
  for (auto _ : State) {
    (void)Partition->execute(W.InPtrs, W.OutPtrs);
    ++Iters;
  }
  const core::PartitionStats Stats = Partition->stats();
  State.counters["parallel_nests"] =
      static_cast<double>(Stats.ParallelNests);
  State.counters["coarse_merges"] =
      static_cast<double>(Stats.CoarseGrainMerges);
  State.counters["arena_bytes"] =
      static_cast<double>(Stats.ScratchArenaBytes);
  State.counters["arena_bytes_noreuse"] =
      static_cast<double>(Stats.ScratchArenaBytesNoReuse);
  if (Iters > 0)
    State.counters["barriers_per_run"] = static_cast<double>(
        (Partition->threadPool().barrierCount() - BarriersBefore) / Iters);
}

void BM_Mlp1Int8_Full(benchmark::State &State) {
  runMlpConfig(State, gcOptions(), true);
}
void BM_Mlp1Int8_NoCoarseGrain(benchmark::State &State) {
  runMlpConfig(State, gcOptionsNoCoarse(), true);
}
void BM_Mlp1Int8_NoLayoutPropagation(benchmark::State &State) {
  core::CompileOptions Opts;
  Opts.EnableLayoutPropagation = false;
  runMlpConfig(State, Opts, true);
}
void BM_Mlp1Int8_NoFineGrainFusion(benchmark::State &State) {
  core::CompileOptions Opts;
  Opts.EnableFineGrainFusion = false;
  Opts.EnableCoarseGrainFusion = false;
  runMlpConfig(State, Opts, true);
}
void BM_Mlp1Int8_NoBufferReuse(benchmark::State &State) {
  core::CompileOptions Opts;
  Opts.EnableBufferReuse = false;
  runMlpConfig(State, Opts, true);
}
void BM_Mlp1F32_Full(benchmark::State &State) {
  runMlpConfig(State, gcOptions(), false);
}
void BM_Mlp1F32_NoCoarseGrain(benchmark::State &State) {
  runMlpConfig(State, gcOptionsNoCoarse(), false);
}

/// MHA fine-grain fusion ablation (softmax committed at anchors vs
/// standalone eltwise nests).
void runMhaConfig(benchmark::State &State,
                  const core::CompileOptions &Opts) {
  workloads::MhaSpec Spec = workloads::mhaTableSpec(1, 16, /*Int8=*/false);
  Spec.Seed = 8;
  Instance W(workloads::buildMha(Spec));
  api::Session S(Opts);
  auto Partition = onlyPartition(S.compile(W.G));
  (void)Partition->execute(W.InPtrs, W.OutPtrs);
  for (auto _ : State)
    (void)Partition->execute(W.InPtrs, W.OutPtrs);
  State.counters["parallel_nests"] =
      static_cast<double>(Partition->stats().ParallelNests);
}

void BM_Mha1F32_Full(benchmark::State &State) {
  runMhaConfig(State, gcOptions());
}
void BM_Mha1F32_NoFineGrainFusion(benchmark::State &State) {
  core::CompileOptions Opts;
  Opts.EnableFineGrainFusion = false;
  Opts.EnableCoarseGrainFusion = false;
  runMhaConfig(State, Opts);
}
void BM_Mha1F32_FastSoftmax(benchmark::State &State) {
  core::CompileOptions Opts;
  Opts.FastSoftmax = true;
  runMhaConfig(State, Opts);
}
void BM_Mha1F32_StableSoftmax(benchmark::State &State) {
  core::CompileOptions Opts;
  Opts.FastSoftmax = false;
  runMhaConfig(State, Opts);
}

} // namespace

BENCHMARK(BM_Mlp1Int8_Full);
BENCHMARK(BM_Mlp1Int8_NoCoarseGrain);
BENCHMARK(BM_Mlp1Int8_NoLayoutPropagation);
BENCHMARK(BM_Mlp1Int8_NoFineGrainFusion);
BENCHMARK(BM_Mlp1Int8_NoBufferReuse);
BENCHMARK(BM_Mlp1F32_Full);
BENCHMARK(BM_Mlp1F32_NoCoarseGrain);
BENCHMARK(BM_Mha1F32_Full);
BENCHMARK(BM_Mha1F32_NoFineGrainFusion);
BENCHMARK(BM_Mha1F32_FastSoftmax);
BENCHMARK(BM_Mha1F32_StableSoftmax);

BENCHMARK_MAIN();
