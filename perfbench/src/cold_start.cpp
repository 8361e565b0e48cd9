//===- cold_start.cpp - cold_start workload -------------------------------===//
//
// A seeded draw of distinct graphs from the workload builders, in f32 and
// int8: MLP-1, MLP-2, a deep-narrow MLP, the Table 1 MHA rows (f32) and
// the BERT-Base layer. Every kind is drawn every time; the seed fixes the
// weights, the inputs and the order, so the graphs are distinct (their
// fingerprints differ) while the per-graph cost mix stays the same.
//
// Write pass: each graph is brought from source to its first inference in
// a fresh Session whose artifact cache writes to an empty directory (one
// operation). Read pass: each graph again, in a fresh Session reading
// that directory; its output must equal the write pass's bit for bit.
// The passes repeat, each pair over a new empty directory.
//
// The int8 MHA rows are left out: at Table 1 sizes a single u8
// requantization tie in the softmax output can put one element outside
// the tolerance tests/test_compiler_e2e.cpp uses for int8 attention
// (relative 8e-2), depending on the seed (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "support/rng.h"
#include "workloads/bert.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace gc;

namespace perfbench {
namespace {

using Graphs = std::vector<std::unique_ptr<Instance>>;

/// Builds the draw for \p Seed.
Graphs drawGraphs(uint64_t Seed) {
  Graphs Out;
  uint64_t Next = Seed * 1000;
  const auto Add = [&](graph::Graph G, Family F, float Scale,
                       std::string Name) {
    Out.push_back(std::make_unique<Instance>(std::move(G), F, ++Next, Scale));
    Out.back()->Name = std::move(Name);
  };
  for (bool Int8 : {false, true}) {
    workloads::MlpSpec Mlp;
    Mlp.Int8 = Int8;
    const Family MlpFam = Int8 ? Family::MlpInt8 : Family::MlpF32;
    Mlp.Batch = 32;
    Mlp.LayerDims = workloads::mlp1Dims();
    Mlp.Seed = ++Next;
    const std::string Ty = Int8 ? "_int8" : "_f32";
    Add(workloads::buildMlp(Mlp), MlpFam, 0.5f, "mlp1" + Ty);
    Mlp.Batch = 1;
    Mlp.LayerDims = workloads::mlp2Dims();
    Mlp.Seed = ++Next;
    Add(workloads::buildMlp(Mlp), MlpFam, 0.5f, "mlp2" + Ty);
    Mlp.Batch = 8;
    Mlp.LayerDims.assign(25, 32);
    Mlp.Seed = ++Next;
    Add(workloads::buildMlp(Mlp), MlpFam, 0.5f, "deep_narrow" + Ty);
    workloads::BertLayerSpec Bert;
    Bert.Batch = 1;
    Bert.SeqLen = 128;
    Bert.Hidden = 768;
    Bert.Heads = 12;
    Bert.FfnDim = 3072;
    Bert.Int8 = Int8;
    Bert.Seed = ++Next;
    Add(workloads::buildBertLayer(Bert),
        Int8 ? Family::BertInt8 : Family::BertF32, 0.3f, "bert_base" + Ty);
  }
  for (int Row = 1; Row <= 4; ++Row) {
    workloads::MhaSpec Mha = workloads::mhaTableSpec(Row, 1, /*Int8=*/false);
    Mha.Seed = ++Next;
    Add(workloads::buildMha(Mha), Family::MhaF32, 0.5f,
        "mha" + std::to_string(Row) + "_f32");
  }
  Rng R(Seed);
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[static_cast<size_t>(R.uniformInt(
                              0, static_cast<int64_t>(I) - 1))]);
  return Out;
}

/// One pass over the draw: per-graph time from a fresh Session to the
/// first inference, with the cache in \p Mode over \p Dir.
struct Pass {
  std::vector<double> Ms;
  double DiskHits = 0, DiskMisses = 0;
};

/// Brings every graph to its first inference once. Write passes
/// (ReadWrite) check each output against the reference and keep it in
/// \p ColdOut; read passes check it equals ColdOut bit for bit and came
/// from the cache.
Pass runPass(const Config &Cfg, Graphs &Gs, const std::string &Dir,
             runtime::CacheMode Mode,
             std::vector<std::vector<runtime::TensorData>> &ColdOut,
             bool Traced, Result &R) {
  Pass P;
  for (size_t G = 0; G < Gs.size(); ++G) {
    Instance &I = *Gs[G];
    for (runtime::TensorData &T : I.Outputs)
      T.fillConstant(0);
    core::CompileOptions Opts = sessionOptions(Cfg.Threads, I.Fam);
    Opts.CacheMode = Mode;
    Opts.CacheDir = Dir;
    bool Ok = false;
    const Clock::time_point T0 = Clock::now();
    auto S = std::make_unique<api::Session>(Opts);
    {
      tracer::Span Op(Mode == runtime::CacheMode::Read ? "cold.read"
                                                       : "cold.write",
                      G + 1);
      Expected<api::CompiledGraphPtr> CG = Status::error(
          StatusCode::Internal, "not compiled");
      {
        tracer::Span Sp("api.compile");
        CG = S->compile(I.G);
      }
      if (CG) {
        tracer::Span Sp("api.execute");
        Ok = S->stream().execute(**CG, I.InPtrs, I.OutPtrs).isOk();
      }
    }
    P.Ms.push_back(msBetween(T0, Clock::now()));
    P.DiskHits += static_cast<double>(S->diskCacheHits());
    P.DiskMisses += static_cast<double>(S->diskCacheMisses());
    if (Mode == runtime::CacheMode::Read) {
      R.op(Ok && S->diskCacheHits() > 0 && bitIdentical(I.Outputs, ColdOut[G]),
           "warm output vs cold output, " + I.Name);
    } else {
      R.op(Ok && matchesReference(I.Outputs, I),
           "cold output vs reference, " + I.Name);
      if (!Traced)
        ColdOut[G] = cloneAll(I.Outputs);
    }
  }
  return P;
}

/// Write and read passes over fresh empty cache directories until
/// \p Seconds have passed (at least \p MinPairs pairs).
void runPasses(const Config &Cfg, Graphs &Gs, double Seconds, int MinPairs,
               bool Traced,
               std::vector<std::vector<runtime::TensorData>> &ColdOut,
               std::vector<Pass> &Writes, std::vector<Pass> &Reads,
               Result &R) {
  const Clock::time_point Start = Clock::now();
  while (static_cast<int>(Writes.size()) < MinPairs ||
         msBetween(Start, Clock::now()) < Seconds * 1e3) {
    const std::string Dir = makeScratchDir(Cfg, "cold");
    Writes.push_back(runPass(Cfg, Gs, Dir, runtime::CacheMode::ReadWrite,
                             ColdOut, Traced, R));
    Reads.push_back(
        runPass(Cfg, Gs, Dir, runtime::CacheMode::Read, ColdOut, Traced, R));
    removeScratchDir(Dir);
  }
}

/// The passes' per-graph samples in order, cut to a whole number of
/// passes per window so every window holds the same graph mix.
std::vector<double> aligned(const std::vector<Pass> &Ps, size_t Windows) {
  const size_t PerWindow = Ps.size() / Windows;
  std::vector<double> Out;
  for (size_t I = 0; I < PerWindow * Windows; ++I)
    Out.insert(Out.end(), Ps[I].Ms.begin(), Ps[I].Ms.end());
  return Out;
}

/// Graphs per second of pass time, median over the windows.
double passRate(const std::vector<Pass> &Ps, size_t Windows) {
  const size_t PerWindow = Ps.size() / Windows;
  std::vector<double> Rates;
  for (size_t W = 0; W < Windows && PerWindow; ++W) {
    double Ms = 0, N = 0;
    for (size_t I = W * PerWindow; I < (W + 1) * PerWindow; ++I)
      for (double X : Ps[I].Ms) {
        Ms += X;
        N += 1;
      }
    Rates.push_back(N / (Ms / 1e3));
  }
  return median(std::move(Rates)); // as windowedRate
}

} // namespace

void runColdStart(const Config &Cfg, Result &R) {
  EndToEnd E;
  Graphs Gs;
  // Set-up: the draw built from the workload builders.
  for (int Rep = 0; Rep < (Cfg.Trace ? 1 : 3); ++Rep) {
    Gs.clear();
    const Clock::time_point T0 = Clock::now();
    Gs = drawGraphs(Cfg.Seed);
    E.SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
  }
  std::vector<Instance *> Refs;
  for (auto &I : Gs)
    Refs.push_back(I.get());
  computeReferences(Refs, Cfg.Nproc);
  R.info("graphs", std::to_string(Gs.size()));

  std::vector<std::vector<runtime::TensorData>> ColdOut(Gs.size());
  std::vector<Pass> Writes, Reads;
  runPasses(Cfg, Gs, Cfg.Seconds * (Cfg.Trace ? 0.4 : 1.0), 5, false, ColdOut,
            Writes, Reads, R);
  // One window per pass pair: each holds every graph once.
  const size_t Windows = Writes.size();
  E.Windows = Windows;
  E.LatMs = aligned(Writes, Windows);
  E.WarmMs = aligned(Reads, Windows);
  E.WarmWindows = Windows;
  E.OpsCount = E.LatMs.size();
  E.OpsPerS = passRate(Writes, Windows);
  E.RateSamples = E.WarmMs.size();
  E.MaxRatePerS = passRate(Reads, Windows);
  R.info("passes", std::to_string(Writes.size()));
  std::fprintf(stderr, "%-16s %12s %12s\n", "graph", "write_p50_ms",
               "read_p50_ms");
  for (size_t G = 0; G < Gs.size(); ++G) {
    std::vector<double> W, Rd;
    for (size_t I = 0; I < Writes.size(); ++I) {
      W.push_back(Writes[I].Ms[G]);
      Rd.push_back(Reads[I].Ms[G]);
    }
    std::fprintf(stderr, "%-16s %12.3f %12.3f\n", Gs[G]->Name.c_str(),
                 median(W), median(Rd));
  }
  if (!Cfg.Trace) {
    reportEndToEnd(E, R);
    return;
  }

  // ---- Traced run ----
  LayerReport L;
  L.PoolThreads = Cfg.Threads;
  L.TailP99Ms = quantile(E.LatMs, 0.99);
  L.TailSamples = E.LatMs.size();
  for (const Pass &P : Reads) {
    L.CacheHits += P.DiskHits / static_cast<double>(Reads.size());
    L.CacheMisses += P.DiskMisses / static_cast<double>(Reads.size());
  }
  const double UntracedP50 = windowedQuantile(E.LatMs, Windows, 0.5);

  tracer::enable(true);
  std::vector<Pass> TWrites, TReads;
  runPasses(Cfg, Gs, Cfg.Seconds * 0.2, 5, true, ColdOut, TWrites, TReads, R);
  const size_t TWindows = TWrites.size();
  L.TraceOverhead =
      windowedQuantile(aligned(TWrites, TWindows), TWindows, 0.5) /
          UntracedP50 -
      1;

  // Every graph replayed stage by stage, then its first inference on the
  // instrumented executor, which must equal the session's output.
  const std::string CacheDir = makeScratchDir(Cfg, "replay");
  runtime::ThreadPool TracedPool(Cfg.Threads);
  resetKernelStats();
  recordBlockings(true);
  for (size_t G = 0; G < Gs.size(); ++G) {
    Replay Rp = replayGraph(Cfg, *Gs[G], ColdOut[G], CacheDir, L, R);
    std::vector<runtime::TensorData> Outs = Gs[G]->freshOutputs();
    std::unique_ptr<exec::Executor> Ex =
        bindReplay(Rp, *Gs[G], Outs, TracedPool);
    if (!Ex)
      fatal("the traced executor needs one compiled partition per graph");
    const Clock::time_point T0 = Clock::now();
    {
      tracer::Span S("exec.run", G + 1);
      Ex->run();
    }
    L.ExecRunMs.push_back(msBetween(T0, Clock::now()));
    R.op(bitIdentical(Outs, ColdOut[G]),
         "traced output vs session output, " + Gs[G]->Name);
  }
  recordBlockings(false);
  removeScratchDir(CacheDir);
  L.Kernels = kernelTotals();
  L.Ops = static_cast<double>(Gs.size());
  L.PeakGflops = brgemmAloneGflops(mostCalledBlocking(), 0.3);
  tracer::enable(false);
  reportLayers(L, R);
}

} // namespace perfbench
