//===- bench_fig9_e2e.cpp - Fig. 9 reproduction ----------------------------------===//
//
// "End-to-end DNN models performance improvement" -- BERT-Large and DLRM
// inference throughput, oneDNN Graph Compiler vs the primitives+post-op
// baseline (the paper could not run TVM end-to-end either, due to
// auto-scheduler search time).
//
// Substitutions (DESIGN.md #5): the encoder stack executes one compiled
// BERT-Large layer graph L times (identical compute per layer; weights
// are synthetic); DLRM executes the bottom and top MLP partitions with
// the framework-side embedding/interaction glue excluded from both sides
// identically. Default layer count / batch sizes are scaled to a single
// core; GC_BENCH_FULL=1 uses the paper's 24 layers and batch sweep.
//
// Expected shape: modest end-to-end gains (~1.05-1.25x), larger on Int8,
// since the baseline already fuses post-ops and prepacks weights -- the
// compiler's extra win comes from blocked intermediates, softmax fusion
// and coarse-grain merging.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "workloads/bert.h"
#include "workloads/dlrm.h"

using namespace gc;
using namespace gc::bench;

namespace {

void runBert(int64_t Batch, bool Int8) {
  workloads::BertLayerSpec Spec;
  Spec.Batch = Batch;
  Spec.SeqLen = 128;
  Spec.Hidden = 1024; // BERT-Large
  Spec.Heads = 16;
  Spec.FfnDim = 4096;
  Spec.Int8 = Int8;
  Spec.Seed = static_cast<uint64_t>(Batch + (Int8 ? 1000 : 0));
  const int64_t Layers = fullSweep() ? 24 : 2;

  Instance W(workloads::buildBertLayer(Spec));
  api::Session GcS(gcOptions()), PrimS(core::primitivesBaselineOptions());
  auto Gc = onlyPartition(GcS.compile(W.G));
  auto Prim = onlyPartition(PrimS.compile(W.G));

  // One inference = Layers sequential executions of the layer partition
  // (output feeds the next layer's input slot).
  const auto RunStack = [&](core::CompiledPartition &P) {
    for (int64_t L = 0; L < Layers; ++L)
      (void)P.execute(W.InPtrs, W.OutPtrs);
  };
  const double PrimSec = measureSeconds([&] { RunStack(*Prim); });
  const double GcSec = measureSeconds([&] { RunStack(*Gc); });
  std::printf("BERT_Large(%s,BS=%lld,L=%lld) %14.1f %14.1f %10.2fx\n",
              Int8 ? "Int8" : "FP32", (long long)Batch, (long long)Layers,
              PrimSec * 1e3, GcSec * 1e3, PrimSec / GcSec);
}

void runDlrm(int64_t Batch, bool Int8) {
  Instance Bottom(
      workloads::buildMlp(workloads::dlrmBottomSpec(Batch, Int8)));
  Instance Top(workloads::buildMlp(workloads::dlrmTopSpec(Batch, Int8)));
  api::Session GcS(gcOptions()), PrimS(core::primitivesBaselineOptions());
  auto GcB = onlyPartition(GcS.compile(Bottom.G));
  auto GcT = onlyPartition(GcS.compile(Top.G));
  auto PrimB = onlyPartition(PrimS.compile(Bottom.G));
  auto PrimT = onlyPartition(PrimS.compile(Top.G));

  const double PrimSec = measureSeconds([&] {
    (void)PrimB->execute(Bottom.InPtrs, Bottom.OutPtrs);
    (void)PrimT->execute(Top.InPtrs, Top.OutPtrs);
  });
  const double GcSec = measureSeconds([&] {
    (void)GcB->execute(Bottom.InPtrs, Bottom.OutPtrs);
    (void)GcT->execute(Top.InPtrs, Top.OutPtrs);
  });
  std::printf("DLRM(%s,BS=%lld)          %14.3f %14.3f %10.2fx\n",
              Int8 ? "Int8" : "FP32", (long long)Batch, PrimSec * 1e3,
              GcSec * 1e3, PrimSec / GcSec);
}

} // namespace

int main() {
  printBanner("Fig. 9: end-to-end model speedup, graph compiler over "
              "primitives + post-ops");
  std::printf("%-28s %14s %14s %10s\n", "model", "primitives ms",
              "graph-comp ms", "speedup");
  const std::vector<int64_t> BertBatches =
      fullSweep() ? std::vector<int64_t>{32, 128}
                  : std::vector<int64_t>{8};
  for (int64_t B : BertBatches) {
    runBert(B, /*Int8=*/false);
    runBert(B, /*Int8=*/true);
  }
  const std::vector<int64_t> DlrmBatches =
      fullSweep() ? std::vector<int64_t>{32, 512}
                  : std::vector<int64_t>{32, 512};
  for (int64_t B : DlrmBatches) {
    runDlrm(B, /*Int8=*/false);
    runDlrm(B, /*Int8=*/true);
  }
  return 0;
}
