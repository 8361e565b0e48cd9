//===- session.h - Public Session / CompiledGraph / Stream API --*- C++ -*-===//
///
/// \file
/// The partition-based public API, mirroring the oneDNN Graph API flow of
/// §VII: finalize a graph, discover partitions, compile each partition,
/// execute on a stream — synchronously, or asynchronously along the
/// partition dependency DAG.
///
///   api::Session S;                          // options + shared thread pool
///   G.finalize();
///   auto Compiled = S.compile(G);            // Expected<CompiledGraphPtr>
///   if (!Compiled) ...;                      // Status error, no abort
///   api::Stream Str = S.stream();
///   Str.execute(**Compiled, {&X}, {&Y});     // synchronous, thread-safe
///
///   // Asynchronous: submit() returns immediately with an Event; ready
///   // partitions of the DAG run concurrently on the session pool.
///   api::Event E = Str.submit(*Compiled, {&X}, {&Y});
///   ... /* overlap other work */ ...
///   if (Status S2 = E.wait(); !S2.isOk()) ...;
///
/// A Session owns the CompileOptions, a thread pool shared by every
/// partition it compiles, and a compiled-partition cache keyed by the
/// canonical subgraph fingerprint: recompiling an identical subgraph
/// returns the cached CompiledPartition (pointer identity). Ops the
/// compiler cannot lower run in reference-interpreter fallback partitions,
/// so any valid graph executes end-to-end.
///
/// Compilation additionally produces an execution plan over the partition
/// list: the partition dependency DAG (producer/consumer edges over
/// boundary tensor ids) that drives the async scheduler, and a
/// lifetime-based memory plan that packs every cross-partition
/// intermediate into one reusable arena instead of allocating it per
/// execution.
///
//===----------------------------------------------------------------------===//

#ifndef GC_API_SESSION_H
#define GC_API_SESSION_H

#include "api/event.h"
#include "api/partitioner.h"
#include "core/compiler.h"
#include "graph/graph.h"
#include "runtime/tensor_data.h"
#include "runtime/thread_pool.h"
#include "support/status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gc {
namespace api {

class Session;
class Stream;

namespace detail {
struct Submission;
struct StreamState;
struct SessionState;

/// Cheap structural signature of a subgraph boundary: input/output arity
/// plus dtype and shape of every boundary tensor. Collision guard for the
/// fingerprint-keyed caches — two subgraphs whose 64-bit fingerprints
/// collide almost surely differ here, and comparing it costs nothing next
/// to a recompile.
std::vector<int64_t> boundarySignature(const graph::Graph &G);

/// Live fault-tolerance counters shared by a Session, its Streams and
/// their in-flight Submissions; snapshot through Session::healthStats().
/// The counters record what the graceful-degradation policy did, the
/// WarnedAxes bitmask limits the structured stderr warning to one line
/// per degradation axis per session.
struct HealthState {
  std::atomic<uint64_t> TransientFailures{0};
  std::atomic<uint64_t> DegradedToSerial{0};
  std::atomic<uint64_t> DegradedToReference{0};
  std::atomic<uint64_t> CacheFallbacks{0};
  std::atomic<uint64_t> CacheLockTimeouts{0};
  std::atomic<uint64_t> DeadlinesExceeded{0};
  std::atomic<uint64_t> Cancellations{0};
  std::atomic<uint64_t> MemLimitRejections{0};
  std::atomic<uint32_t> WarnedAxes{0};

  /// Emits "[gc] degraded axis=<Axis>: <Detail>" to stderr, once per
  /// \p Axis (a member of the fixed axis list in session.cpp) for this
  /// session's lifetime.
  void warnOnce(const char *Axis, const char *Detail);
};
} // namespace detail

/// Point-in-time snapshot of a session's fault-tolerance counters
/// (Session::healthStats()): how often transient failures were observed
/// and which degradation axes absorbed them. All counters are cumulative
/// since session construction.
struct HealthStats {
  /// Transient-classified failures observed anywhere in the stack
  /// (includes the ones a fallback then absorbed).
  uint64_t TransientFailures = 0;
  /// Executions that fell back from the async scheduler to the serial
  /// (or inline) schedule.
  uint64_t DegradedToSerial = 0;
  /// Work served by the reference interpreter instead of compiled code:
  /// partitions whose compile failed transiently, and polymorphic
  /// executions whose bucket specialization could not be produced.
  uint64_t DegradedToReference = 0;
  /// Compiles that proceeded in-process because the disk artifact cache
  /// could not serve (I/O failure or lock timeout).
  uint64_t CacheFallbacks = 0;
  /// Subset of CacheFallbacks caused by the bounded GC_CACHE_LOCK_MS
  /// wait expiring.
  uint64_t CacheLockTimeouts = 0;
  /// Submissions that terminated with DeadlineExceeded.
  uint64_t DeadlinesExceeded = 0;
  /// Submissions that terminated with Cancelled.
  uint64_t Cancellations = 0;
  /// Allocations refused because GC_MEM_LIMIT was reached.
  uint64_t MemLimitRejections = 0;
};

/// Per-submission options for Stream::submit().
struct SubmitOptions {
  /// Deadline for the whole submission, in milliseconds from submit()
  /// (0 = none). The deadline is checked at partition boundaries: when it
  /// passes, partitions not yet started are abandoned, in-flight ones
  /// drain, and the Event reports DeadlineExceeded. A single-partition
  /// (synchronous-shortcut) submission runs to completion and reports the
  /// deadline only if it was already missed at submit time.
  int64_t TimeoutMs = 0;
};

/// A fully prepared executable graph: the ordered partition list with one
/// CompiledPartition per compiled partition (fallback partitions carry
/// none and interpret their subgraph), plus the execution plan computed at
/// compile time — the partition dependency DAG and the packed
/// intermediate memory plan. Immutable after compilation and safe to
/// execute from many streams/threads concurrently; overlapping
/// submissions of the same CompiledGraph are safe (each execution leases
/// its own ExecState and arena).
///
/// Graphs whose tensors carry LogicalTensor::kDynamicDim compile into a
/// *batch-polymorphic* CompiledGraph instead: one compile() serves every
/// batch size. Execution reads the concrete batch from the bound input
/// buffers, rounds it to a bucket (CompileOptions::Bucketing /
/// GC_BATCH_BUCKETS) and lazily compiles one static specialization per
/// bucket into a thread-safe LRU cache (CompileOptions::SpecCacheCap /
/// GC_SPEC_CACHE). A batch below its bucket executes the padded
/// specialization on zero-padded inputs and clips the padded rows off the
/// outputs, which the dynamic-dim validation rules make bit-identical to
/// an exact-shape compile. Partition-level introspection
/// (numPartitions() etc.) describes the specializations, not the
/// polymorphic shell, which reports zero partitions until one exists.
class CompiledGraph {
public:
  /// Releases the MemBudget charges of any cached specializations.
  ~CompiledGraph();

  /// \brief Number of partitions, in topological (serial execution) order.
  size_t numPartitions() const { return Parts.size(); }
  /// \brief Execution kind of partition \p I (compiled vs. fallback).
  PartitionKind partitionKind(size_t I) const { return Parts[I].Spec.Kind; }
  /// \brief The compiled executable of partition \p I; nullptr for
  /// fallback partitions. Pointer identity with a previous compile() of an
  /// identical subgraph demonstrates a cache hit.
  std::shared_ptr<core::CompiledPartition> compiledPartition(size_t I) const {
    return Parts[I].Compiled;
  }
  /// \brief Number of partitions served by the reference interpreter.
  size_t numFallbackPartitions() const;

  /// \brief Graph input ids in source declaration order.
  const std::vector<int64_t> &inputIds() const { return InputIds; }
  /// \brief Graph output ids in source declaration order.
  const std::vector<int64_t> &outputIds() const { return OutputIds; }
  /// \brief Logical shapes of the graph outputs, in output order.
  std::vector<std::vector<int64_t>> outputShapes() const;

  /// \name Execution-plan introspection (dependency DAG + memory plan)
  /// @{

  /// \brief Number of partitions that must complete before partition \p I
  /// may start (distinct producers of its boundary inputs). Roots of the
  /// dependency DAG report 0.
  size_t partitionPredecessorCount(size_t I) const {
    return Plans[I].NumPreds;
  }
  /// \brief Partitions directly unblocked by partition \p I's completion.
  const std::vector<uint32_t> &partitionSuccessors(size_t I) const {
    return Plans[I].Succs;
  }
  /// \brief Cross-partition intermediates packed into the execution arena.
  size_t numIntermediateTensors() const { return ScratchSlots.size(); }
  /// \brief Bytes of the per-execution arena after lifetime packing (0
  /// when the graph has no cross-partition intermediates). Intermediates
  /// whose lifetimes cannot overlap under any DAG-consistent schedule
  /// share offsets.
  size_t scratchArenaBytes() const { return ArenaBytes; }
  /// \brief Arena bytes a naive plan (one slot per intermediate, no
  /// sharing) would need; the packing win is the ratio to
  /// scratchArenaBytes().
  size_t scratchArenaBytesNoReuse() const { return ArenaBytesNoReuse; }

  /// @}

  /// \name Batch-polymorphic introspection
  /// @{

  /// \brief True when this graph was compiled from a dynamic-batch source
  /// and specializes per concrete batch at execution time.
  bool isPolymorphic() const { return Polymorphic; }
  /// \brief Specializations currently cached.
  size_t numSpecializations() const;
  /// \brief Bucket sizes currently cached, unordered.
  std::vector<int64_t> specializationBuckets() const;
  /// \brief The cached specialization whose bucket serves \p Batch, or
  /// nullptr when none is cached yet (never compiles).
  std::shared_ptr<CompiledGraph> cachedSpecializationFor(int64_t Batch) const;
  /// \brief Executions served by an already-cached specialization.
  uint64_t specializationHits() const { return SpecHits.load(); }
  /// \brief Executions that had to compile a new specialization.
  uint64_t specializationMisses() const { return SpecMisses.load(); }

  /// @}

private:
  friend class Session;
  friend class Stream;
  friend struct detail::Submission;
  friend struct detail::SessionState;

  /// Returns (compiling and caching if needed) the specialization for
  /// \p Bucket. Thread-safe; a cold bucket is marked in flight and
  /// compiled OUTSIDE the cache lock, so warm hits on other buckets are
  /// never stalled while concurrent first executions of one bucket still
  /// compile it exactly once.
  Expected<std::shared_ptr<CompiledGraph>>
  specializationForBucket(int64_t Bucket) const;

  struct Part {
    PartitionSpec Spec;
    std::shared_ptr<core::CompiledPartition> Compiled; // null = fallback
  };

  /// Where one partition boundary tensor lives at execution time.
  struct BoundRef {
    enum class Loc : uint8_t {
      GraphInput,  ///< caller-provided Inputs[Index]
      GraphOutput, ///< caller-provided Outputs[Index] (first listing)
      Scratch,     ///< arena intermediate ScratchSlots[Index]
    };
    Loc Where = Loc::GraphInput;
    uint32_t Index = 0;
  };

  /// Per-partition execution plan: argument resolution (no per-execution
  /// id lookups) and dependency edges for the async scheduler.
  struct PartitionPlan {
    std::vector<BoundRef> Ins;   ///< one per subgraph input, in order
    std::vector<BoundRef> Outs;  ///< one per subgraph output, in order
    std::vector<uint32_t> Succs; ///< partitions unblocked by completion
    uint32_t NumPreds = 0;       ///< distinct producer partitions
  };

  /// One cross-partition intermediate with its packed arena placement.
  struct ScratchSlot {
    int64_t TensorId = -1;
    graph::LogicalTensor Meta;
    size_t Offset = 0; ///< byte offset into the execution arena
    size_t Bytes = 0;
  };

  /// Builds Plans/ScratchSlots/ArenaBytes from the finished partition
  /// list; called once at the end of Session::compile().
  Status buildExecutionPlan();

  std::vector<Part> Parts;
  std::vector<PartitionPlan> Plans;
  std::vector<ScratchSlot> ScratchSlots;
  size_t ArenaBytes = 0;
  size_t ArenaBytesNoReuse = 0;

  std::vector<int64_t> InputIds;
  std::vector<int64_t> OutputIds;
  /// Boundary metadata (dtype/shape) per graph input/output for argument
  /// validation and intermediate allocation.
  std::vector<graph::LogicalTensor> InputMeta;
  std::vector<graph::LogicalTensor> OutputMeta;
  /// Graph outputs that are plain copies of a graph input
  /// (output index -> input index); no partition produces them.
  std::vector<std::pair<size_t, size_t>> Passthrough;
  /// Outputs listing a tensor already listed earlier (duplicate index ->
  /// first index); partitions write the first, execute copies the rest.
  std::vector<std::pair<size_t, size_t>> DuplicateOutputs;
  /// Fast-path flag: exactly one compiled partition whose boundary equals
  /// the graph boundary (no intermediates, pass-throughs or duplicate
  /// outputs), so execute() forwards the caller tensors directly instead
  /// of building a per-execution tensor environment.
  bool Direct = false;
  /// True when a transient compile failure left a partition on the
  /// reference interpreter for this compile only. A degraded batch
  /// specialization is never cached (see specializationForBucket).
  bool Degraded = false;

  /// \name Batch-polymorphic state (set only when Polymorphic)
  /// @{

  bool Polymorphic = false;
  /// The dynamic-batch source graph; owns its constant payloads so
  /// specializations can compile after the caller's graph is gone.
  graph::Graph SourceG;
  /// Compile-side session state (options, pool, partition cache) pinned so
  /// specializations compile through the same cache — and keep working if
  /// the Session object itself has been destroyed.
  std::shared_ptr<detail::SessionState> Sess;
  core::BatchBucketing Bucketing = core::BatchBucketing::Pow2;
  size_t SpecCap = 16;
  /// Graph input / output positions carrying the dynamic batch dimension.
  std::vector<size_t> DynamicInputs;
  std::vector<size_t> DynamicOutputs;

  struct Specialization {
    int64_t Bucket = 0;
    std::shared_ptr<CompiledGraph> CG;
    uint64_t LastUse = 0; ///< LRU clock value of the latest lookup
    size_t Charged = 0;   ///< bytes charged against MemBudget (GC_MEM_LIMIT)
  };
  mutable std::mutex SpecMutex;
  /// Signals removal from InFlightBuckets: waiters re-check the cache.
  mutable std::condition_variable SpecCv;
  mutable std::vector<Specialization> Specs; ///< small; linear scan
  /// Buckets whose specialization is compiling right now, outside the
  /// lock — so a cold batch size never blocks warm hits on other
  /// buckets, while concurrent firsts of one bucket still compile once.
  mutable std::vector<int64_t> InFlightBuckets;
  mutable uint64_t SpecClock = 0;
  mutable std::atomic<uint64_t> SpecHits{0};
  mutable std::atomic<uint64_t> SpecMisses{0};

  /// @}
};

using CompiledGraphPtr = std::shared_ptr<CompiledGraph>;

/// Execution handle vended by a session. A Stream is a cheap value object
/// sharing a small state block (the arena free list) with its copies;
/// both execute() and submit() are thread-safe and any number of streams
/// may run the same CompiledGraph concurrently (per-execution ExecState
/// leasing and per-submission arenas — executions never share scratch).
///
/// Lifetime: a Stream must not outlive its Session's thread pool (keep
/// the Session alive while streams are in use). Asynchronous submissions
/// pin the CompiledGraph, the thread pool and the stream state until the
/// Event completes, so dropping those handles mid-flight is safe; the
/// caller-owned input/output tensors are the one thing the caller must
/// keep alive (and not mutate) until the Event reports completion.
class Stream {
public:
  /// \brief Executes \p CG synchronously. \p Inputs follow the source
  /// graph's input declaration order, \p Outputs its output order
  /// (caller-allocated, plain row-major). Compiled partitions run on the
  /// session's thread pool; fallback partitions interpret.
  /// Cross-partition intermediates live in a packed arena leased from the
  /// stream and recycled across executions. With CompileOptions::AsyncExec
  /// (GC_SCHED=async), multi-partition graphs route through the async
  /// scheduler and wait, so independent partitions overlap even here.
  Status execute(const CompiledGraph &CG,
                 const std::vector<runtime::TensorData *> &Inputs,
                 const std::vector<runtime::TensorData *> &Outputs) const;

  /// \brief Launches \p CG asynchronously and returns immediately with an
  /// Event. Partitions whose producers have completed are scheduled
  /// concurrently as tasks on the session's thread pool (fallback
  /// partitions included), following the dependency DAG; kernels inside a
  /// scheduled partition run serially on their worker, so submit() trades
  /// intra-partition (loop-level) parallelism for inter-partition
  /// overlap — the win on multi-branch graphs; see docs/TUNING.md.
  ///
  /// Single-partition graphs (nothing to overlap) execute synchronously
  /// on the caller with full loop-level parallelism; the returned Event
  /// is already complete. Argument errors are reported through the
  /// Event's Status, never thrown or aborted.
  ///
  /// The submission keeps \p CG, the pool and the stream state alive; the
  /// caller must keep \p Inputs / \p Outputs storage alive and unmodified
  /// until the Event completes. Overlapping submissions of the same
  /// CompiledGraph (same or different streams/threads) are safe.
  Event submit(const CompiledGraphPtr &CG,
               const std::vector<runtime::TensorData *> &Inputs,
               const std::vector<runtime::TensorData *> &Outputs) const;

  /// \brief submit() with per-submission options (deadline). See
  /// SubmitOptions; the parameterless overload forwards here with
  /// defaults.
  Event submit(const CompiledGraphPtr &CG,
               const std::vector<runtime::TensorData *> &Inputs,
               const std::vector<runtime::TensorData *> &Outputs,
               const SubmitOptions &Opts) const;

private:
  friend class Session;
  explicit Stream(std::shared_ptr<detail::StreamState> State)
      : State(std::move(State)) {}

  /// Polymorphic execute(): resolves the concrete batch from the bound
  /// inputs, fetches/compiles the bucket specialization and runs it via
  /// executeResolved().
  Status executePolymorphic(
      const CompiledGraph &CG,
      const std::vector<runtime::TensorData *> &Inputs,
      const std::vector<runtime::TensorData *> &Outputs) const;

  /// Runs an already-resolved polymorphic execution: directly for
  /// bucket-exact batches, otherwise on zero-padded inputs with
  /// row-clipped outputs. Shared by executePolymorphic() and the padded
  /// submit() path (which has already resolved batch and specialization).
  Status executeResolved(const CompiledGraph &CG, const CompiledGraph &Spec,
                         int64_t Batch, int64_t Bucket,
                         const std::vector<runtime::TensorData *> &Inputs,
                         const std::vector<runtime::TensorData *> &Outputs)
      const;

  std::shared_ptr<detail::StreamState> State;
};

/// Owns compilation options, the execution thread pool, and the
/// compiled-partition cache. Thread-safe: compile(), Stream::execute()
/// and Stream::submit() may all be called concurrently.
class Session {
public:
  /// \brief Creates a session. \p Opts selects the pass pipeline, the
  /// execution backend, the partitioning policy and the thread count
  /// (0 = GC_THREADS / hardware concurrency).
  explicit Session(core::CompileOptions Opts = {});

  // Internally one shared state block; copying would silently alias the
  // compile cache and statistics, and a moved-from session would hold a
  // null state block where every method would crash — keep sessions
  // single-identity and pinned, exactly as when they held the mutex and
  // cache directly.
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;
  Session(Session &&) = delete;
  Session &operator=(Session &&) = delete;

  /// \brief Compilation options this session applies to every compile().
  const core::CompileOptions &options() const;
  /// \brief The execution thread pool shared by this session's partitions.
  runtime::ThreadPool &threadPool() const;

  /// \brief Finalizes (verifies) \p G if needed, partitions it, compiles
  /// every compilable partition — identical subgraphs are served from the
  /// session cache — and computes the execution plan (dependency DAG +
  /// packed intermediate arena). Partitions the compiler rejects as
  /// unsupported are demoted to reference fallback instead of failing the
  /// compile.
  ///
  /// A graph carrying LogicalTensor::kDynamicDim returns a
  /// batch-polymorphic CompiledGraph whose specializations compile lazily
  /// at execution time, through this session's partition cache and
  /// statistics (the polymorphic graph pins the compile-side state, so it
  /// stays executable even if the Session is destroyed first).
  Expected<CompiledGraphPtr> compile(const graph::Graph &G);

  /// \brief Creates an execution stream (cheap; one arena free list per
  /// stream object and its copies).
  Stream stream();

  /// \brief Number of compiled partitions currently cached.
  size_t cacheSize() const;
  /// \brief Times compile() served a partition from the cache.
  uint64_t cacheHits() const;
  /// \brief Times compile() had to run the full pipeline.
  uint64_t cacheMisses() const;
  /// \brief Drops every cached partition and negative-cache entry.
  void clearCache();

  /// \brief Times an in-memory miss was served from the persistent
  /// artifact cache (GC_CACHE); 0 when the disk cache is disabled.
  uint64_t diskCacheHits() const;
  /// \brief Times the persistent artifact cache was consulted and could
  /// not serve (missing, corrupt, or rejected entry).
  uint64_t diskCacheMisses() const;
  /// \brief Artifacts this session stored to the persistent cache.
  uint64_t diskCacheStores() const;

  /// \brief Snapshot of the fault-tolerance counters: transient failures
  /// observed and degradations taken (see HealthStats). All zeros on a
  /// healthy session.
  HealthStats healthStats() const;

  /// \brief Test seam: seeds the negative (unsupported) cache with \p Key
  /// bound to \p Boundary's signature, simulating a fingerprint collision
  /// with a previously rejected subgraph. Production code never calls
  /// this.
  void injectUnsupportedKeyForTesting(uint64_t Key,
                                      const graph::Graph &Boundary);

private:
  friend class Stream;

  std::shared_ptr<detail::SessionState> State;
};

} // namespace api
} // namespace gc

#endif // GC_API_SESSION_H
