//===- trace.h - Spans, kernel counters and the staged pipeline -*- C++ -*-===//
///
/// \file
/// The traced run's instruments, all outside the library:
///
///  * Spans: the benchmark wraps each of its own calls into a layer's
///    public function in a Span (name, start, end, parent, operation id).
///    Spans stay in memory and are written out at exit as Chrome
///    trace-event JSON. Self time is a span minus its children.
///  * Counters: counts taken at the same call boundaries (ops after the
///    passes, bytecode size, arena bytes, ...).
///  * Kernel trampolines: an instrumented copy of a bytecode Program
///    whose every CallDesc::Fn points at a per-intrinsic trampoline that
///    counts the call, times it, computes its FLOPs and bytes from the
///    call arguments, then calls exec::kernelAdapter(In). Kernel calls
///    are aggregated per intrinsic and per thread, not recorded as spans.
///  * The staged pipeline: one partition compiled through the stage
///    functions themselves (passes, lower::lowerGraph, the verifiers,
///    core::runFoldGraph), so the benchmark holds the LoweredProgram and
///    can run the instrumented copy on its own exec::Executor.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "api/session.h"
#include "core/compiler.h"
#include "exec/executor.h"
#include "lower/driver.h"
#include "runtime/const_cache.h"
#include "tir/intrinsics.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Process-wide in-memory span and counter store. Disabled by default;
/// a disabled Span costs one relaxed load.
namespace tracer {

void enable(bool On);

/// RAII span around one call into a layer. \p Name must be a string
/// literal (stored by pointer).
class Span {
public:
  explicit Span(const char *Name, uint64_t Op = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Index = -1;
};

/// Per-name totals over every recorded span, or, with \p Within, over
/// the spans that have an ancestor named \p Within.
struct Totals {
  double Ms = 0;
  double SelfMs = 0;
  uint64_t Count = 0;
};
std::map<std::string, Totals> totals(const char *Within = nullptr);

/// Adds \p Value to counter \p Name.
void count(const std::string &Name, double Value);
double counter(const std::string &Name);

/// Drops every span and counter.
void clear();

/// Writes every span as Chrome trace-event JSON; false on I/O error.
bool writeChromeTrace(const std::string &Path);

} // namespace tracer

/// Kernel families of the per-layer metrics.
enum class KernelFamily { BrgemmF32, BrgemmU8S8, Eltwise, Reduce, Quant, Move };
constexpr int kNumFamilies = 6;
const char *familyName(KernelFamily F);

/// Sums of the trampolines' per-thread counters.
struct KernelTotals {
  uint64_t Calls[kNumFamilies] = {};
  double BusyMs[kNumFamilies] = {};
  double BrgemmFlops = 0;
  double BrgemmMs = 0;
  double Bytes = 0;
  double busyMs() const;
};

/// A copy of \p P with every kernel call routed through its trampoline.
std::shared_ptr<const gc::exec::Program>
instrumentProgram(const gc::exec::Program &P);

/// Zeroes every thread's kernel counters (no kernel may be running).
void resetKernelStats();
KernelTotals kernelTotals();

/// While on, brgemm trampolines also tally their blocking.
void recordBlockings(bool On);

/// The brgemm blocking the trampolines saw most often.
struct Blocking {
  gc::tir::Intrinsic In = gc::tir::Intrinsic::BrgemmF32;
  int64_t M = 0, N = 0, K = 0, Batch = 0, NPadded = 0;
  uint64_t Calls = 0;
};
Blocking mostCalledBlocking();

/// GFLOP/s of the active tier's brgemm*ForTier entry run alone on this
/// thread at blocking \p B for about \p Seconds; 0 when B is empty.
double brgemmAloneGflops(const Blocking &B, double Seconds);

/// One partition compiled stage by stage.
struct StagedPartition {
  gc::graph::Graph Optimized;
  gc::lower::LoweredProgram Lowered;
  gc::runtime::ConstCache Folded;
  std::shared_ptr<const gc::exec::Program> Instrumented;
  /// The subgraph's boundary ids, in the order the optimized graph keeps.
  std::vector<int64_t> SourceInputs;
  std::vector<int64_t> SourceOutputs;
};

/// Compiles partition subgraph \p Sub the way core::compilePartition
/// does, one span per stage, adding the stage counters to the tracer.
gc::Expected<std::unique_ptr<StagedPartition>>
stageCompile(const gc::graph::Graph &Sub, const gc::core::CompileOptions &Opts,
             int Threads);

/// An executor over \p P's instrumented program with every buffer bound:
/// inputs and outputs from \p Tensors (source-graph tensor id ->
/// storage), folded constants from P.Folded, raw constants from the
/// optimized graph. Null when a boundary tensor is missing.
using TensorBinding = std::unordered_map<int64_t, gc::runtime::TensorData *>;
std::unique_ptr<gc::exec::Executor> bindStaged(StagedPartition &P,
                                               const TensorBinding &Tensors,
                                               gc::runtime::ThreadPool &Pool);

struct Result;

/// What a traced run measured besides the spans and counters. Kernel and
/// exec figures are reported per operation (divided by Ops); compile,
/// cache and verification figures per graph (divided by Graphs). Fields
/// a workload does not exercise stay 0.
struct LayerReport {
  double Ops = 0;
  double Graphs = 0;
  KernelTotals Kernels;
  double PeakGflops = 0;
  int PoolThreads = 1;
  std::vector<double> ExecRunMs; ///< one per traced operation
  double Scaling = 0;
  double CacheHits = 0, CacheMisses = 0;
  double Partitions = 0, FallbackPartitions = 0;
  double ExecuteOverheadUs = 0, SpecMisses = 0;
  /// The serving figures below are reported only when set.
  bool Serving = false;
  double AvgFill = 0, LingerFlushShare = 0, BatchesPerS = 0;
  double QueueDepthMax = 0, ServerP50Ms = 0, ExecBatchMs = 0;
  double GenLateP99Ms = 0, Refused = 0;
  double PrimitivesP50Ms = 0, LoopNestP50Ms = 0;
  double TailP99Ms = 0;
  uint64_t TailSamples = 0;
  double TraceOverhead = 0;
};

/// Adds every per-layer metric of BENCHMARK.json to \p R, from \p L and
/// the tracer's spans and counters.
void reportLayers(const LayerReport &L, Result &R);

struct Instance;
struct Config;

/// The stage-by-stage replay of one graph (traced run): the benchmark's
/// own calls into graph, api, passes, lower, exec, verify, core and the
/// artifact cache, each under a span.
struct Replay {
  std::vector<std::unique_ptr<StagedPartition>> Staged;
  std::unique_ptr<gc::api::Session> S;
  gc::api::CompiledGraphPtr CG;
};

/// Replays graph \p I: Graph::finalize, Graph::fingerprint,
/// Partitioner::partition, Session::compile, the staged pipeline of every
/// compiled partition, then ArtifactCodec::serialize, ArtifactCache::store
/// and load (in \p CacheDir), ArtifactCodec::deserialize and the load
/// verifiers. A single-partition artifact is executed once and checked
/// against \p First bit for bit. Adds the graph and its partitions to
/// \p L; aborts the run when the graph does not compile.
Replay replayGraph(const Config &Cfg, const Instance &I,
                   const std::vector<gc::runtime::TensorData> &First,
                   const std::string &CacheDir, LayerReport &L, Result &R);

/// An executor running \p Rp's instrumented program on \p I's inputs into
/// \p Outputs; null unless the graph is one compiled partition.
std::unique_ptr<gc::exec::Executor>
bindReplay(Replay &Rp, const Instance &I,
           std::vector<gc::runtime::TensorData> &Outputs,
           gc::runtime::ThreadPool &Pool);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
