//===- bench_common.h - Shared benchmark harness ----------------*- C++ -*-===//
///
/// \file
/// Timing + reporting shared by the Fig. 7/8/9 benches. Each bench builds
/// the Table 1 workload graphs, prepares the three executors (TVM-like
/// loop-nest baseline, primitives+post-op baseline, oneDNN Graph Compiler
/// reproduction), measures steady-state time per inference (fold/packing
/// runs once in warmup, exactly as the deployed libraries amortize it) and
/// prints the paper-style speedup rows.
///
/// Environment knobs:
///   GC_BENCH_FULL=1       full Table 1 batch sweeps (default: reduced)
///   GC_BENCH_MIN_TIME=s   min seconds per measurement (default 0.08)
///   GC_THREADS=n          worker threads (default: hardware)
///
//===----------------------------------------------------------------------===//

#ifndef GC_BENCH_BENCH_COMMON_H
#define GC_BENCH_BENCH_COMMON_H

#include "baseline/loopnest.h"
#include "core/compiler.h"
#include "graph/graph.h"
#include "runtime/tensor_data.h"
#include "runtime/thread_pool.h"
#include "support/env.h"
#include "support/rng.h"
#include "support/timer.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gc {
namespace bench {

inline bool fullSweep() { return getEnvInt("GC_BENCH_FULL", 0) != 0; }

inline double minMeasureTime() {
  const std::string V = getEnvString("GC_BENCH_MIN_TIME", "0.08");
  return std::stod(V);
}

/// Measures steady-state seconds/iteration of \p Fn (after \p Warmup
/// calls), adapting the iteration count to the time budget —
/// GC_BENCH_MIN_TIME by default, or \p Budget seconds when >= 0 (cases
/// that take many measurements per run cap their own budget).
inline double measureSeconds(const std::function<void()> &Fn,
                             int Warmup = 1, double Budget = -1.0) {
  for (int I = 0; I < Warmup; ++I)
    Fn();
  if (Budget < 0)
    Budget = minMeasureTime();
  int Iters = 0;
  Timer T;
  do {
    Fn();
    ++Iters;
  } while (T.seconds() < Budget && Iters < 1000);
  return T.seconds() / Iters;
}

/// A workload instance: graph + bound random inputs + output storage.
struct Instance {
  graph::Graph G;
  std::vector<runtime::TensorData> Inputs;
  std::vector<runtime::TensorData> Outputs;
  std::vector<runtime::TensorData *> InPtrs, OutPtrs;

  explicit Instance(graph::Graph Graph, uint64_t Seed = 77)
      : G(std::move(Graph)) {
    Rng R(Seed);
    for (int64_t In : G.inputs()) {
      const graph::LogicalTensor &T = G.tensor(In);
      Inputs.emplace_back(T.Ty, T.Shape);
      Inputs.back().fillRandom(R);
      if (T.Ty == DataType::F32) {
        float *P = Inputs.back().dataAs<float>();
        for (int64_t I = 0, E = Inputs.back().numElements(); I < E; ++I)
          P[I] *= T.Name == "mask" ? 0.0f : 0.5f;
      }
    }
    for (int64_t Out : G.outputs()) {
      const graph::LogicalTensor &T = G.tensor(Out);
      Outputs.emplace_back(T.Ty, T.Shape);
    }
    for (auto &T : Inputs)
      InPtrs.push_back(&T);
    for (auto &T : Outputs)
      OutPtrs.push_back(&T);
  }
};

/// Seconds/iteration of the TVM-like loop-nest baseline.
inline double timeLoopNest(Instance &W) {
  baseline::LoopNestExecutor Exec(W.G, /*Threads=*/0);
  return measureSeconds([&] { Exec.execute(W.InPtrs, W.OutPtrs); });
}

/// Seconds/iteration of a compiled partition with \p Opts.
inline double timeCompiled(Instance &W, const core::CompileOptions &Opts) {
  auto Partition = core::compileGraph(W.G, Opts);
  return measureSeconds(
      [&] { (void)Partition->execute(W.InPtrs, W.OutPtrs); });
}

inline core::CompileOptions gcOptions() { return core::CompileOptions(); }

inline core::CompileOptions gcOptionsNoCoarse() {
  core::CompileOptions Opts;
  Opts.EnableCoarseGrainFusion = false;
  return Opts;
}

/// Prints the environment banner every bench starts with.
inline void printBanner(const char *Title) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s\n", Title);
  std::printf("threads=%d  full_sweep=%d  min_time=%.3fs\n",
              runtime::ThreadPool::global().numThreads(), fullSweep() ? 1 : 0,
              minMeasureTime());
  std::printf("==============================================================="
              "=========\n");
}

/// Geometric mean of a list of ratios.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

} // namespace bench
} // namespace gc

#endif // GC_BENCH_BENCH_COMMON_H
