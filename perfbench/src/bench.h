//===- bench.h - Shared pieces of the repository benchmark ------*- C++ -*-===//
///
/// \file
/// Configuration, result collection, statistics, output checking and the
/// workload-instance helper shared by the four workloads of the
/// repository benchmark (perfbench/README.md). Every workload drives the
/// library only through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "api/session.h"
#include "graph/graph.h"
#include "runtime/tensor_data.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Command-line configuration of one benchmark process.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory (inside the checkout) for artifact caches and traces.
  std::string OutDir;
  /// Pool threads of every timed session. One: on a host shared with
  /// other tenants, vCPU steal stalls every barrier of a multi-threaded
  /// loop, and the timed figures would measure the neighbours (README.md).
  int Threads = 1;
  /// The host's online processors: the thread-scaling probe's pool and
  /// the reference oracle's parallelism.
  int Nproc = 1;
};

/// One named metric with its unit and sample count.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  uint64_t Samples = 0;
};

/// Everything one workload run reports: operation counts, the metrics
/// and free-form provenance entries.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Info;

  /// Counts one operation; \p Ok false counts it as failed and names
  /// it on stderr (the first few times).
  void op(bool Ok, const std::string &What) { ops(1, Ok ? 0 : 1, What); }
  /// Counts \p N operations of which \p NFailed failed.
  void ops(uint64_t N, uint64_t NFailed, const std::string &What);
  void set(const std::string &Name, double Value, const char *Unit,
           uint64_t Samples = 1) {
    Metrics.push_back({Name, Unit, Value, Samples});
  }
  void info(const std::string &Key, const std::string &Value) {
    Info.emplace_back(Key, Value);
  }
};

/// Linear-interpolated quantile of \p V (0 <= Q <= 1); 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Splits \p V (samples in the order they were taken) into \p Windows
/// runs of equal length, takes each run's Q-quantile and returns the
/// median of those. Interference from other tenants of a shared host
/// slows the windows it overlaps (on the host this was written on, a
/// thread's speed flipped by 1.5x from one half second to the next), so
/// it moves the result only when it covers most of the windows. Over
/// seeds, the median of the windows spread less than their lower decile
/// (perfbench/README.md).
double windowedQuantile(const std::vector<double> &V, size_t Windows,
                        double Q);

/// Peak resident set size of this process, MiB.
double peakRssMb();

/// The graph families whose reference tolerance the repository's tests
/// fix (tests/test_compiler_e2e.cpp, tests/test_bert_layer.cpp).
enum class Family { MlpF32, MlpInt8, MhaF32, MhaInt8, BertF32, BertInt8 };

struct Instance;

/// True when every output in \p Got is within the family's test tolerance
/// of \p Want's reference outputs. Batch rows of an int8 MLP that pass
/// through a rounding tie (Instance::TiedRows) get the tolerance the
/// repository's tests give quantized layers in series instead.
bool matchesReference(const std::vector<gc::runtime::TensorData> &Got,
                      const Instance &Want);

/// True when both tensor lists hold the same bytes.
bool bitIdentical(const std::vector<gc::runtime::TensorData> &A,
                  const std::vector<gc::runtime::TensorData> &B);

/// Deep copies of \p Ts.
std::vector<gc::runtime::TensorData>
cloneAll(const std::vector<gc::runtime::TensorData> &Ts);

/// One graph with seeded inputs, caller-owned outputs and (on demand)
/// the reference interpreter's outputs.
struct Instance {
  std::string Name;
  gc::graph::Graph G;
  Family Fam = Family::MlpF32;
  std::vector<gc::runtime::TensorData> Inputs;
  std::vector<gc::runtime::TensorData> Outputs;
  std::vector<gc::runtime::TensorData *> InPtrs;
  std::vector<gc::runtime::TensorData *> OutPtrs;
  std::vector<gc::runtime::TensorData> Reference;
  /// Int8 MLPs: per batch row, whether some Quantize input of that row
  /// lies so close to a half step that an f32 implementation may round
  /// it either way (see computeReference). Empty for other families.
  std::vector<bool> TiedRows;

  /// Fills every input from \p Seed. f32 inputs are scaled by \p Scale
  /// and inputs named "mask" are zeroed, as the repository's tests do.
  Instance(gc::graph::Graph Graph, Family F, uint64_t Seed, float Scale);
  Instance(const Instance &) = delete;
  Instance &operator=(const Instance &) = delete;

  /// Runs the reference interpreter on the inputs into Reference. On an
  /// int8 MLP it also evaluates the graph with every f32 tensor widened
  /// to f64 and marks TiedRows: a row is tied when, at some Quantize, the
  /// f32 and f64 evaluations round differently or the f64 value lies
  /// within 8 f32 ulps of a half step.
  void computeReference();
  /// Fresh zeroed tensors shaped like Outputs.
  std::vector<gc::runtime::TensorData> freshOutputs() const;
};

/// Computes the reference outputs of every instance, up to \p Threads at
/// a time (the reference interpreter is single-threaded and slow).
void computeReferences(const std::vector<Instance *> &Is, int Threads);

/// Compile options of every Session the benchmark builds: the library
/// defaults, spelled out so no environment knob changes them, with the
/// artifact cache off. \p Fam selects the softmax the family's tests
/// verify: BERT layers compile without the fast softmax, as
/// tests/test_bert_layer.cpp does.
gc::core::CompileOptions sessionOptions(int Threads,
                                        Family Fam = Family::MlpF32);

/// Creates an empty directory under Cfg.OutDir named after \p Tag and
/// this process; returns its path.
std::string makeScratchDir(const Config &Cfg, const std::string &Tag);
/// Removes a directory made by makeScratchDir and the files in it.
void removeScratchDir(const std::string &Dir);

/// Runs \p Fn until \p Seconds have passed (at least \p MinIters times)
/// and returns one latency sample per call, in milliseconds.
template <typename FnT>
std::vector<double> timeLoop(double Seconds, int MinIters, FnT &&Fn) {
  std::vector<double> Ms;
  const Clock::time_point Start = Clock::now();
  const auto Budget = std::chrono::duration<double>(Seconds);
  while (static_cast<int>(Ms.size()) < MinIters ||
         Clock::now() - Start < Budget) {
    const Clock::time_point T0 = Clock::now();
    Fn();
    Ms.push_back(msBetween(T0, Clock::now()));
  }
  return Ms;
}

/// The end-to-end metrics as one workload measured them (see README.md
/// for what an operation is on each workload).
struct EndToEnd {
  std::vector<double> SetupS; ///< one per set-up repetition
  std::vector<double> LatMs;  ///< one per timed operation, in order
  /// Windows the latency percentiles are taken over (windowedQuantile).
  size_t Windows = 5;
  std::vector<double> WarmMs; ///< one per warm start, in order
  size_t WarmWindows = 4;
  double OpsPerS = 0;
  uint64_t OpsCount = 0;
  double MaxRatePerS = 0;
  uint64_t RateSamples = 0;
};

/// Operations per second of a closed loop whose I-th operation completed
/// \p DoneMs[I] ms after the loop began: the median over \p Windows
/// runs of equal length (see windowedQuantile).
double windowedRate(const std::vector<double> &DoneMs, size_t Windows);

/// Adds every end-to-end metric of BENCHMARK.json to \p R.
void reportEndToEnd(const EndToEnd &E, Result &R);

/// Prints \p Msg to stderr and exits with status 1 (no result line).
[[noreturn]] void fatal(const std::string &Msg);

/// Workload entry points (one per BENCHMARK.json workload).
void runBertInt8(const Config &Cfg, Result &R);
void runDlrmF32(const Config &Cfg, Result &R);
void runServeMlp1Int8(const Config &Cfg, Result &R);
void runColdStart(const Config &Cfg, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
