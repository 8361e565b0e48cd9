//===- compiler.h - Partition compile/execute engine -------------*- C++ -*-===//
///
/// \file
/// The compilation engine behind the public Session API (api/session.h),
/// mirroring the oneDNN Graph API flow (§VII): a Graph IR subgraph is
/// compiled into a CompiledPartition, then executed repeatedly with runtime
/// tensors. The fold function (constant weight preprocessing) runs once,
/// at the first execution or when a cache-writing compile serializes the
/// partition; its outputs are cached and reused.
///
/// The one entry point is api::Session (partitioning, fallback, compile
/// cache); a compiled graph exposes each partition's CompiledPartition
/// for introspection and direct execution:
/// \code
///   api::Session S;                        // owns options + thread pool
///   auto Compiled = S.compile(G);          // Expected<CompiledGraphPtr>
///   S.stream().execute(**Compiled, {&X}, {&Y});
///   auto P = (*Compiled)->compiledPartition(0); // stats(), execute()
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GC_CORE_COMPILER_H
#define GC_CORE_COMPILER_H

#include "exec/backend.h"
#include "exec/executor.h"
#include "graph/graph.h"
#include "lower/driver.h"
#include "runtime/artifact_cache.h"
#include "runtime/const_cache.h"
#include "runtime/thread_pool.h"
#include "support/status.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace gc {
namespace core {

/// Resolves GC_PARTITION ("merge" | "split", default "merge"): whether
/// the partitioner separates independent dataflow components into their
/// own partitions (the async scheduler's parallelism source).
bool defaultSplitPartitions();

/// How a batch-polymorphic CompiledGraph rounds a concrete batch to its
/// compilation bucket.
enum class BatchBucketing : uint8_t {
  Pow2,  ///< next power of two >= batch: few specializations, padded rows
  Exact, ///< one specialization per distinct batch: no padding, more
         ///< compiles
};

/// Resolves GC_BATCH_BUCKETS ("pow2" | "exact", default "pow2").
BatchBucketing defaultBatchBucketing();

/// Resolves GC_SPEC_CACHE: per-polymorphic-graph specialization cache
/// capacity (default 16, clamped to >= 1).
int defaultSpecCacheCap();

/// Rounds a concrete \p Batch (> 0) to its compilation bucket under
/// \p Policy; the bucket is always >= Batch.
int64_t batchBucket(int64_t Batch, BatchBucketing Policy);

/// Specialize-on-bind entry point: replaces every dynamic batch dimension
/// of \p G with \p Batch and validates the result, yielding the static
/// graph a polymorphic CompiledGraph compiles for one bucket.
Expected<graph::Graph> specializeForBatch(const graph::Graph &G,
                                          int64_t Batch);

/// Knobs of the whole compilation pipeline. The Enable* flags exist for
/// the paper's ablations; defaults reproduce the full compiler.
struct CompileOptions {
  /// Worker threads (0 = GC_THREADS or hardware concurrency).
  int Threads = 0;
  /// §V low-precision conversion (int8 rewrite of DQ->MatMul->Q chains).
  bool EnableLowPrecision = true;
  /// §V fine-grain fusion (anchor-committed fusible ops).
  bool EnableFineGrainFusion = true;
  /// §V coarse-grain fusion (parallel loop merging).
  bool EnableCoarseGrainFusion = true;
  /// §V layout propagation (blocked layouts + prepacked weights).
  bool EnableLayoutPropagation = true;
  /// §VI memory buffer reuse.
  bool EnableBufferReuse = true;
  /// §VII fast softmax (drop the max-subtraction). Off by default: the
  /// fast form divides 0/0 once a row's logits all lie below about -87
  /// (docs/TUNING.md).
  bool FastSoftmax = false;
  /// Emulate the "oneDNN primitives + post-op" baseline: per-primitive
  /// execution with prepacked weights, plain activations between
  /// primitives, post-op-API-shaped fusion only, no coarse-grain merging.
  bool PrimitivesMode = false;
  /// Read by nothing in src/; perfbench/src/{bench,models}.cpp still set it.
  exec::Backend Exec = exec::Backend::Bytecode;
  /// Partitioning policy: split independent dataflow components into
  /// separate partitions (enables branch-level overlap under the async
  /// scheduler) instead of merging them into maximal partitions.
  /// Defaults from GC_PARTITION ("merge" | "split").
  bool SplitIndependentPartitions = defaultSplitPartitions();
  /// Read by nothing in src/; perfbench/src/{bench,models}.cpp still set it.
  bool AsyncExec = false;
  /// Batch-bucket rounding policy for batch-polymorphic graphs. Defaults
  /// from GC_BATCH_BUCKETS ("pow2" | "exact").
  BatchBucketing Bucketing = defaultBatchBucketing();
  /// Specializations kept per polymorphic CompiledGraph (LRU beyond this).
  /// Defaults from GC_SPEC_CACHE (16, min 1).
  int SpecCacheCap = defaultSpecCacheCap();
  /// Persistent compiled-artifact cache: whether Session may load
  /// partition artifacts from disk and/or store fresh compiles. Defaults
  /// from GC_CACHE ("off" | "read" | "rw").
  runtime::CacheMode CacheMode = runtime::defaultCacheMode();
  /// Artifact cache directory. Defaults from GC_CACHE_DIR (see
  /// runtime/artifact_cache.h for the fallback chain).
  std::string CacheDir = runtime::defaultCacheDir();
  /// LRU byte cap of the artifact cache directory (<= 0 = unlimited).
  /// Defaults from GC_CACHE_MAX_BYTES (256 MiB).
  int64_t CacheMaxBytes = runtime::defaultCacheMaxBytes();
};

/// Compile options preset for the primitives-library baseline of §VII.
CompileOptions primitivesBaselineOptions(int Threads = 0);

/// Statistics describing one compiled partition; used by tests, the
/// ablation benches and EXPERIMENTS.md.
struct PartitionStats {
  int CoarseGrainMerges = 0;
  int ParallelNests = 0;
  int64_t ScratchArenaBytes = 0;
  int64_t ScratchArenaBytesNoReuse = 0;
  /// Fold-dependent: 0 until the fold function ran (first execute(), or
  /// a cache-writing compile that serialized the partition).
  size_t FoldedTensors = 0;
  /// Fold-dependent: 0 until the fold function ran (first execute(), or
  /// a cache-writing compile that serialized the partition).
  int64_t FoldedBytes = 0;
};

/// A compiled DNN computation (sub)graph ready for repeated execution.
///
/// Thread safety: execute() may be called concurrently from any number of
/// threads. The fold function runs exactly once (std::call_once); each
/// execution binds its buffers on a private bytecode executor drawn from a
/// small pool, whose register frames and scratch arenas belong to that
/// execution rather than to the partition — the bytecode program itself
/// is compiled once and shared. All inspection accessors are const and
/// safe to call at any time, including before the first execution.
class CompiledPartition {
public:
  /// Executes the partition. \p Inputs follow the source graph's input
  /// declaration order; \p Outputs its output order (caller-allocated,
  /// plain row-major, logical shapes). The first call runs the fold
  /// function and populates the constant cache. Returns InvalidArgument
  /// on arity mismatch or null tensors (internal binding invariants still
  /// abort loudly, so callers ignoring the Status cannot silently read an
  /// unwritten output).
  Status execute(const std::vector<runtime::TensorData *> &Inputs,
                 const std::vector<runtime::TensorData *> &Outputs);

  /// Runs the fold function (constant weight packing) now if it has not
  /// run yet; otherwise a no-op. execute() pays this lazily on its first
  /// call — services that want the first request served at full speed
  /// call this at load time instead. ArtifactCodec::encode calls it
  /// too, so a cache-writing compile leaves the partition folded.
  /// Partitions deserialized from the artifact cache arrive with the fold
  /// pre-fired from the payload's shipped outputs, so for them this never
  /// packs anything. Once folded, the partition holds only the constants
  /// execution reads (execConstants) and the folded outputs, as a loaded
  /// partition does.
  void ensureFolded();

  /// Post-optimization Graph IR (inspection / tests). Its constant
  /// payloads are shared with the compiled source graph; after the fold,
  /// only those of execConstants() remain.
  const graph::Graph &optimizedGraph() const { return OptimizedG; }
  /// Lowered entry function (inspection / tests). Empty for a partition
  /// loaded from the artifact cache: the payload stores the bytecode, not
  /// the Tensor IR it was compiled from.
  const tir::Func &entry() const { return Prog.Entry; }
  /// Compiled bytecode program (inspection / tests).
  const exec::Program &bytecode() const { return *Prog.Bytecode; }
  /// Compilation statistics. Safe before the first execution; the
  /// Folded* fields read as 0 until the fold function has run, which a
  /// cache-writing compile already did.
  PartitionStats stats() const;
  /// Execution states currently idle in the lease pool (diagnostics; the
  /// peak equals the peak number of overlapping executions, capped at 8).
  size_t idleExecStates() const;
  /// Pre-builds up to \p N idle execution states (bounded by the pool
  /// cap) so a burst of overlapping submissions skips the first-use
  /// construction cost inside the scheduled tasks.
  void prewarmExecStates(size_t N);
  /// Logical shapes of the graph outputs, in output order.
  std::vector<std::vector<int64_t>> outputShapes() const;
  /// Thread pool executing this partition.
  runtime::ThreadPool &threadPool() const { return *Pool; }

private:
  friend Expected<std::shared_ptr<CompiledPartition>>
  compilePartition(const graph::Graph &G, const CompileOptions &Opts,
                   std::shared_ptr<runtime::ThreadPool> Pool);
  /// The persistent-cache codec (core/artifact.cpp) serializes and
  /// rebuilds partitions field by field.
  friend struct ArtifactCodec;

  CompiledPartition() = default;

  void runFoldFunction();

  /// Ids of the constants whose raw bytes execution reads (ConstData
  /// bindings). Every other constant feeds the fold only; once folded it
  /// is served packed from the cache, and no artifact ships its bytes.
  std::unordered_set<int64_t> execConstants() const;

  /// One pooled execution state. Each execute() owns its executor for the
  /// duration of the call, making concurrent executions independent.
  using ExecState = std::unique_ptr<exec::Executor>;

  /// Takes an idle execution state from the pool, building one when the
  /// pool is empty. Construction allocates register frames and scratch
  /// arenas, so it is fallible (fault site "exec.state"); pool hits never
  /// fail.
  Expected<ExecState> acquireExecState();
  void releaseExecState(ExecState State);

  /// A lower::Binding with the execute-argument position resolved at
  /// compile time (Input/Output kinds), so binding buffers is index
  /// arithmetic instead of per-execution id searches.
  struct ResolvedBinding {
    int BufferId = -1;
    int64_t TensorId = -1;
    lower::BindingKind Kind = lower::BindingKind::Input;
    size_t Arg = 0; ///< index into execute()'s Inputs/Outputs
  };
  void resolveBindings();

  graph::Graph OptimizedG;
  lower::LoweredProgram Prog;
  runtime::ConstCache Cache;
  std::shared_ptr<runtime::ThreadPool> Pool;
  std::once_flag FoldOnce;
  std::atomic<bool> FoldDone{false};
  mutable std::mutex EvalMutex;
  std::vector<ExecState> IdleExecs;
  std::vector<int64_t> InputIds;  // optimized-graph ids in input order
  std::vector<int64_t> OutputIds; // optimized-graph ids in output order
  std::vector<ResolvedBinding> Bindings; // Prog.Bindings, positions resolved

  /// Pins the mmap'd cache entry backing zero-copy constant views
  /// (OptimizedG constants, the Program's baked buffers, the folded
  /// constants) for this partition's lifetime. Null for in-process
  /// compiles.
  std::shared_ptr<void> MappedPin;
};

/// Compiles \p G (cloned: its owned constant payloads are shared, its
/// views copied; the original is untouched) with \p Opts into one
/// partition, reporting failures as Status instead of aborting. \p Pool is
/// the execution thread pool to attach (shared across the partitions of a
/// Session); pass nullptr to derive one from Opts.Threads.
Expected<std::shared_ptr<CompiledPartition>>
compilePartition(const graph::Graph &G, const CompileOptions &Opts,
                 std::shared_ptr<runtime::ThreadPool> Pool = nullptr);

/// Returns the process-wide default thread pool as a non-owning handle,
/// sharable alongside session-owned pools.
std::shared_ptr<runtime::ThreadPool> globalThreadPool();

/// Executes the fold graph. Constants are read in place, as views of the
/// graph's storage. Blocked Reorders run the packing kernels, compensation
/// chains (ReduceSum over K of a Cast s8 -> s32) run kernels::colSumS8 on
/// the s8 weight, and only ops no kernel covers fall back to the reference
/// interpreter. Every cached output owns its storage. Exposed for tests of
/// constant weight preprocessing.
void runFoldGraph(const graph::Graph &FoldGraph,
                  const std::vector<int64_t> &FoldOutputs,
                  runtime::ConstCache &Cache);

} // namespace core
} // namespace gc

#endif // GC_CORE_COMPILER_H
