//===- models.cpp - bert_int8 and dlrm_f32 workloads ----------------------===//
//
// Closed loop, one caller. One operation is one inference of the model:
//   bert_int8  one Fig. 9 BERT encoder layer at BERT-Base width (hidden
//              768, 12 heads, FFN 3072, seq 128, batch 1), int8;
//   dlrm_f32   the DLRM bottom MLP (13-512-256-128) then the top MLP
//              (479-1024-1024-512-256-1), f32, batch 128, with the
//              interaction glue excluded.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "baseline/loopnest.h"
#include "workloads/bert.h"
#include "workloads/dlrm.h"

#include <memory>

using namespace gc;

namespace perfbench {
namespace {

using Parts = std::vector<std::unique_ptr<Instance>>;

/// One set-up of the model: a Session with every graph compiled.
struct Prepared {
  std::unique_ptr<api::Session> S;
  std::vector<api::CompiledGraphPtr> CGs;
};

Status inferOnce(const api::Stream &Str, const Prepared &P, Parts &Ps) {
  for (size_t I = 0; I < Ps.size(); ++I)
    if (Status S = Str.execute(*P.CGs[I], Ps[I]->InPtrs, Ps[I]->OutPtrs);
        !S.isOk())
      return S;
  return Status::ok();
}

/// Builds a session from \p Opts and compiles every graph (the first
/// inference then folds the weights). Aborts the run on a compile error.
Prepared prepare(const core::CompileOptions &Opts, Parts &Ps) {
  Prepared P;
  P.S = std::make_unique<api::Session>(Opts);
  for (auto &I : Ps) {
    Expected<api::CompiledGraphPtr> CG = P.S->compile(I->G);
    if (!CG)
      fatal("compile failed: " + CG.status().toString());
    P.CGs.push_back(*CG);
  }
  return P;
}

bool matchesAll(const Parts &Ps) {
  for (const auto &I : Ps)
    if (!matchesReference(I->Outputs, *I))
      return false;
  return true;
}

bool sameAsFirst(const Parts &Ps,
                 const std::vector<std::vector<runtime::TensorData>> &First) {
  for (size_t I = 0; I < Ps.size(); ++I)
    if (!bitIdentical(Ps[I]->Outputs, First[I]))
      return false;
  return true;
}

/// Median closed-loop latency of a session built from \p Opts over
/// \p Seconds, its outputs checked against the reference (the nproc and
/// primitives sessions may round differently from the recorded one).
double timedMedian(const core::CompileOptions &Opts, Parts &Ps,
                   double Seconds, Result &R) {
  Prepared P = prepare(Opts, Ps);
  const api::Stream Str = P.S->stream();
  R.op(inferOnce(Str, P, Ps).isOk() && matchesAll(Ps),
       "probe set-up vs reference");
  bool Ok = true;
  const std::vector<double> Ms = timeLoop(Seconds, 5, [&] {
    Ok = inferOnce(Str, P, Ps).isOk() && Ok;
  });
  R.op(Ok && matchesAll(Ps), "probe inference vs reference");
  return median(Ms);
}

/// Writes this model to a private artifact-cache directory through a
/// read-write Session and returns the directory.
std::string writeWarmCache(const Config &Cfg, Parts &Ps,
                           const std::vector<std::vector<runtime::TensorData>>
                               &First,
                           Result &R) {
  const std::string Dir = makeScratchDir(Cfg, "warm");
  core::CompileOptions Opts = sessionOptions(Cfg.Threads, Ps[0]->Fam);
  Opts.CacheDir = Dir;
  Opts.CacheMode = runtime::CacheMode::ReadWrite;
  Prepared Writer = prepare(Opts, Ps);
  R.op(inferOnce(Writer.S->stream(), Writer, Ps).isOk() &&
           sameAsFirst(Ps, First),
       "cache-writing session output");
  return Dir;
}

/// Appends to \p Ms the time to first inference of \p Reps fresh
/// Sessions that read the warm cache in \p Dir. Each warm output must
/// equal \p First bit for bit.
void warmStarts(const Config &Cfg, Parts &Ps,
                const std::vector<std::vector<runtime::TensorData>> &First,
                const std::string &Dir, int Reps, std::vector<double> &Ms,
                Result &R, double &Hits, double &Misses) {
  core::CompileOptions Opts = sessionOptions(Cfg.Threads, Ps[0]->Fam);
  Opts.CacheDir = Dir;
  Opts.CacheMode = runtime::CacheMode::Read;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    for (auto &I : Ps)
      for (runtime::TensorData &T : I->Outputs)
        T.fillConstant(0);
    const Clock::time_point T0 = Clock::now();
    Prepared Warm = prepare(Opts, Ps);
    const bool Ok = inferOnce(Warm.S->stream(), Warm, Ps).isOk();
    Ms.push_back(msBetween(T0, Clock::now()));
    Hits += static_cast<double>(Warm.S->diskCacheHits());
    Misses += static_cast<double>(Warm.S->diskCacheMisses());
    R.op(Ok && Warm.S->diskCacheHits() > 0 && sameAsFirst(Ps, First),
         "warm start from the artifact cache");
  }
}

void runModel(const Config &Cfg, Result &R, Parts Ps) {
  std::vector<Instance *> Refs;
  for (auto &I : Ps)
    Refs.push_back(I.get());
  computeReferences(Refs, Cfg.Nproc);
  const Family Fam = Ps[0]->Fam;
  const core::CompileOptions Opts = sessionOptions(Cfg.Threads, Fam);
  EndToEnd E;
  // Set-up: session, compile, fold (first inference), first output
  // checked against the reference interpreter. Repeated; every set-up
  // serves an equal share of the timed loop, so one run samples several
  // placements of the packed weights in memory, whose cache behaviour
  // differs from process to process by up to 1.4x on a shared host.
  const int SetupReps = Cfg.Trace ? 1 : 5;
  E.Windows = 4 * SetupReps;
  std::vector<Prepared> Sessions;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    Sessions.push_back(prepare(Opts, Ps));
    const Prepared &S = Sessions.back();
    const bool Ok = inferOnce(S.S->stream(), S, Ps).isOk() && matchesAll(Ps);
    E.SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
    R.op(Ok, "set-up output vs reference");
  }
  std::vector<std::vector<runtime::TensorData>> First;
  for (auto &I : Ps)
    First.push_back(cloneAll(I->Outputs));

  // Timed closed loop; every output compared with the first, outside
  // the timed interval. Warm starts (a window of them after each
  // session's share) are spread over the run the same way.
  const std::string WarmDir = writeWarmCache(Cfg, Ps, First, R);
  double Hits = 0, Misses = 0;
  const double LoopSeconds = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  Clock::time_point LoopStart = Clock::now();
  Clock::time_point Now = LoopStart;
  std::vector<double> DoneMs;
  for (size_t SI = 0; SI < Sessions.size(); ++SI) {
    const Prepared &S = Sessions[SI];
    const api::Stream Str = S.S->stream();
    const Clock::time_point End =
        LoopStart + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            LoopSeconds * static_cast<double>(SI + 1) /
                            static_cast<double>(Sessions.size())));
    for (size_t N = 0; Now < End || N < 5; ++N) {
      const Clock::time_point T0 = Clock::now();
      const bool Ok = inferOnce(Str, S, Ps).isOk();
      Now = Clock::now();
      E.LatMs.push_back(msBetween(T0, Now));
      DoneMs.push_back(msBetween(LoopStart, Now));
      R.op(Ok && sameAsFirst(Ps, First), "timed inference vs first output");
    }
    const Clock::time_point WarmStart = Clock::now();
    warmStarts(Cfg, Ps, First, WarmDir, Cfg.Trace ? 1 : 5, E.WarmMs, R, Hits,
               Misses);
    // The loop's clock stops while the warm starts run.
    const Clock::duration Paused = Clock::now() - WarmStart;
    LoopStart += Paused;
    Now = Clock::now();
  }
  removeScratchDir(WarmDir);
  E.WarmWindows = Sessions.size();
  const Prepared &P = Sessions.back();
  const api::Stream Str = P.S->stream();
  E.OpsCount = E.LatMs.size();
  E.OpsPerS = windowedRate(DoneMs, E.Windows);
  // A single closed-loop caller offers exactly the rate it completes.
  E.MaxRatePerS = E.OpsPerS;
  E.RateSamples = E.OpsCount;

  if (!Cfg.Trace) {
    reportEndToEnd(E, R);
    return;
  }

  // ---- Traced run ----
  LayerReport L;
  L.PoolThreads = Cfg.Threads;
  L.CacheHits = Hits;
  L.CacheMisses = Misses;
  L.TailP99Ms = quantile(E.LatMs, 0.99);
  L.TailSamples = E.LatMs.size();
  const double UntracedP50 = windowedQuantile(E.LatMs, E.Windows, 0.5);

  tracer::enable(true);
  const std::string CacheDir = makeScratchDir(Cfg, "replay");
  std::vector<Replay> Replays;
  for (size_t I = 0; I < Ps.size(); ++I) {
    Replays.push_back(replayGraph(Cfg, *Ps[I], First[I], CacheDir, L, R));
    L.SpecMisses += static_cast<double>(P.CGs[I]->specializationMisses());
  }
  removeScratchDir(CacheDir);

  // Stream::execute minus CompiledPartition::execute of the same
  // (single) partition, alternating, on the recorded session.
  {
    std::vector<double> StreamUs, PartUs;
    const Clock::time_point Start = Clock::now();
    while (msBetween(Start, Clock::now()) < Cfg.Seconds * 1e3 / 10 ||
           StreamUs.size() < 5) {
      double SMs = 0, PMs = 0;
      bool Ok = true;
      for (size_t I = 0; I < Ps.size(); ++I) {
        const std::shared_ptr<core::CompiledPartition> CP =
            P.CGs[I]->compiledPartition(0);
        Clock::time_point T0 = Clock::now();
        {
          tracer::Span S("api.execute", I + 1);
          Ok = Str.execute(*P.CGs[I], Ps[I]->InPtrs, Ps[I]->OutPtrs).isOk() &&
               Ok;
        }
        SMs += msBetween(T0, Clock::now());
        if (P.CGs[I]->numPartitions() != 1 || !CP)
          continue;
        T0 = Clock::now();
        {
          tracer::Span S("core.execute", I + 1);
          Ok = CP->execute(Ps[I]->InPtrs, Ps[I]->OutPtrs).isOk() && Ok;
        }
        PMs += msBetween(T0, Clock::now());
      }
      StreamUs.push_back(SMs * 1e3);
      PartUs.push_back(PMs * 1e3);
      R.op(Ok && sameAsFirst(Ps, First), "execute-overhead probe output");
    }
    L.ExecuteOverheadUs = median(StreamUs) - median(PartUs);
  }

  // The instrumented copies on the benchmark's own executor: kernel
  // counters, exec.run spans and bit-identity with the session output.
  {
    runtime::ThreadPool TracedPool(Cfg.Threads);
    std::vector<std::vector<runtime::TensorData>> Outs;
    std::vector<std::unique_ptr<exec::Executor>> Execs;
    Outs.reserve(Ps.size());
    for (size_t I = 0; I < Ps.size(); ++I) {
      Outs.push_back(Ps[I]->freshOutputs());
      Execs.push_back(bindReplay(Replays[I], *Ps[I], Outs[I], TracedPool));
      if (!Execs.back())
        fatal("the traced executor needs one compiled partition per graph");
    }
    const auto TracedInference = [&](uint64_t Op) {
      for (size_t I = 0; I < Execs.size(); ++I) {
        tracer::Span S("exec.run", Op);
        Execs[I]->run();
      }
    };
    resetKernelStats();
    recordBlockings(true);
    TracedInference(1);
    recordBlockings(false);
    const Blocking Top = mostCalledBlocking();
    resetKernelStats();
    std::vector<double> TracedMs;
    const Clock::time_point Start = Clock::now();
    uint64_t Op = 2;
    while (msBetween(Start, Clock::now()) < Cfg.Seconds * 1e3 / 4 ||
           TracedMs.size() < 10) {
      const Clock::time_point T0 = Clock::now();
      TracedInference(Op++);
      TracedMs.push_back(msBetween(T0, Clock::now()));
      bool Same = true;
      for (size_t I = 0; I < Ps.size(); ++I)
        Same = Same && bitIdentical(Outs[I], First[I]);
      R.op(Same, "traced output vs untraced output");
    }
    L.Kernels = kernelTotals();
    L.Ops = static_cast<double>(TracedMs.size());
    L.ExecRunMs = TracedMs;
    L.TraceOverhead =
        windowedQuantile(TracedMs, E.Windows, 0.5) / UntracedP50 - 1;
    L.PeakGflops = brgemmAloneGflops(Top, 0.3);
  }
  tracer::enable(false);

  // Yardsticks and the thread-scaling probe, on the same inputs.
  const double Slice = Cfg.Seconds / 10;
  // The timed pool has one thread; the probe runs the same inputs on
  // nproc threads.
  L.Scaling = UntracedP50 / timedMedian(sessionOptions(Cfg.Nproc, Fam), Ps,
                                        Slice, R);
  {
    core::CompileOptions Prim = core::primitivesBaselineOptions(Cfg.Threads);
    const core::CompileOptions Base = Opts;
    Prim.Exec = Base.Exec;
    Prim.SplitIndependentPartitions = Base.SplitIndependentPartitions;
    Prim.AsyncExec = Base.AsyncExec;
    Prim.CacheMode = Base.CacheMode;
    L.PrimitivesP50Ms = timedMedian(Prim, Ps, Slice, R);
  }
  {
    std::vector<std::unique_ptr<baseline::LoopNestExecutor>> Loops;
    for (auto &I : Ps)
      Loops.push_back(
          std::make_unique<baseline::LoopNestExecutor>(I->G, Cfg.Threads));
    const std::vector<double> Ms = timeLoop(Slice, 3, [&] {
      for (size_t I = 0; I < Ps.size(); ++I)
        Loops[I]->execute(Ps[I]->InPtrs, Ps[I]->OutPtrs);
    });
    R.op(matchesAll(Ps), "loop-nest baseline vs reference");
    L.LoopNestP50Ms = median(Ms);
  }
  reportLayers(L, R);
}

} // namespace

void runBertInt8(const Config &Cfg, Result &R) {
  workloads::BertLayerSpec Spec;
  Spec.Batch = 1;
  Spec.SeqLen = 128;
  Spec.Hidden = 768;
  Spec.Heads = 12;
  Spec.FfnDim = 3072;
  Spec.Int8 = true;
  Spec.Seed = Cfg.Seed;
  Parts Ps;
  Ps.push_back(std::make_unique<Instance>(workloads::buildBertLayer(Spec),
                                          Family::BertInt8, Cfg.Seed + 1,
                                          0.3f));
  runModel(Cfg, R, std::move(Ps));
}

void runDlrmF32(const Config &Cfg, Result &R) {
  constexpr int64_t kBatch = 128;
  Parts Ps;
  Ps.push_back(std::make_unique<Instance>(
      workloads::buildMlp(
          workloads::dlrmBottomSpec(kBatch, /*Int8=*/false, Cfg.Seed)),
      Family::MlpF32, Cfg.Seed + 1, 0.5f));
  Ps.push_back(std::make_unique<Instance>(
      workloads::buildMlp(
          workloads::dlrmTopSpec(kBatch, /*Int8=*/false, Cfg.Seed + 2)),
      Family::MlpF32, Cfg.Seed + 3, 0.5f));
  runModel(Cfg, R, std::move(Ps));
}

} // namespace perfbench
