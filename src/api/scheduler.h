//===- scheduler.h - Async partition DAG scheduler (internal) ---*- C++ -*-===//
///
/// \file
/// Internals behind Stream::submit()/Event: one Submission per launched
/// execution, scheduled over the partition dependency DAG the compiler
/// stored on the CompiledGraph.
///
/// Execution model: every partition becomes a one-shot task on the
/// session's ThreadPool once its last producer completes (dependency
/// counts, continuation-passing — no task ever blocks). Inside a task,
/// parallel loop nests run inline serially (see
/// runtime::ThreadPool::onWorkerThread), so the scheduler trades
/// loop-level parallelism for partition-level overlap; waiting threads
/// help drain the task queue. Cross-partition intermediates resolve into
/// a per-submission PlanArena leased from the stream's free list and
/// returned at completion, and every partition execution leases its own
/// ExecState from the CompiledPartition pool, which is what makes
/// overlapping submissions of one CompiledGraph safe.
///
/// This header is internal: the public surface is api/session.h +
/// api/event.h. It is exposed (and lightly documented) for tests and for
/// the architecture walkthrough in docs/ARCHITECTURE.md.
///
//===----------------------------------------------------------------------===//

#ifndef GC_API_SCHEDULER_H
#define GC_API_SCHEDULER_H

#include "api/session.h"
#include "runtime/buffer.h"
#include "runtime/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace gc {
namespace api {
namespace detail {

/// Shared state behind a Stream and its copies: the session pool handle,
/// the session's health counters, and the free list of execution arenas
/// recycled across executions ("per-stream arena"). Concurrent executions
/// on one stream each lease their own arena; the list is bounded so a
/// burst does not pin arenas forever.
struct StreamState {
  std::shared_ptr<runtime::ThreadPool> Pool;
  /// The owning session's fault-tolerance counters (shared; never null
  /// for states minted by Session::stream()).
  std::shared_ptr<HealthState> Health;

  /// Leases an arena of at least \p Bytes (recycled when available).
  /// Fails with ResourceExhausted when the growth is refused
  /// (GC_MEM_LIMIT, allocation failure, or injection at "arena.grow");
  /// the failed arena is dropped, returning its budget charge.
  Expected<std::unique_ptr<runtime::PlanArena>> acquireArena(size_t Bytes);
  /// Returns a leased arena to the free list (dropped beyond the cap).
  void releaseArena(std::unique_ptr<runtime::PlanArena> Arena);

private:
  std::mutex Mutex;
  std::vector<std::unique_ptr<runtime::PlanArena>> FreeArenas;
};

/// One asynchronous execution of a CompiledGraph: the dependency
/// counters, the leased arena with the intermediate tensor views, and the
/// completion latch behind Event. Kept alive by the Event handle and by a
/// self-reference released when the last partition finishes, so dropping
/// the Event mid-flight is safe.
struct Submission {
  /// Task context: one per partition, stable address for the pool task.
  struct Node {
    Submission *Sub = nullptr;
    uint32_t Index = 0;
  };

  CompiledGraphPtr CG; ///< pinned until the submission retires
  std::shared_ptr<runtime::ThreadPool> Pool;
  std::shared_ptr<StreamState> SS;
  std::unique_ptr<runtime::PlanArena> Arena;
  std::vector<runtime::TensorData *> Inputs, Outputs;
  /// Views into Arena, one per CompiledGraph::ScratchSlots entry.
  std::vector<runtime::TensorData> ScratchViews;
  std::vector<Node> Nodes;
  std::unique_ptr<std::atomic<uint32_t>[]> DepsLeft;
  /// One claim flag per partition, taken exactly once: by taskEntry just
  /// before the partition would execute, or by requestCancel() to pin the
  /// partition as never-going-to-run. A claimed-by-cancel partition's task
  /// still fires for dependency/retirement accounting but skips the body.
  std::unique_ptr<std::atomic<bool>[]> Claimed;
  std::atomic<size_t> PartsLeft{0};
  std::atomic<bool> Failed{false};
  std::atomic<bool> DoneFlag{false};
  /// Deadline from SubmitOptions::TimeoutMs, checked at partition
  /// boundaries (a partition never aborts mid-kernel).
  std::chrono::steady_clock::time_point Deadline{};
  bool HasDeadline = false;
  /// Set by Event::cancel(); observed at partition boundaries.
  std::atomic<bool> CancelRequested{false};

  std::mutex Mutex;
  std::condition_variable Cv;
  Status Err;                       ///< first partition error (under Mutex)
  std::shared_ptr<Submission> Self; ///< released by the finishing task

  /// Validates boundary arity/dtype/shape against the plan metadata.
  static Status validateBoundary(
      const CompiledGraph &CG,
      const std::vector<runtime::TensorData *> &Inputs,
      const std::vector<runtime::TensorData *> &Outputs);

  /// Polymorphic-graph boundary validation: static dimensions must match
  /// the metadata exactly, dynamic (batch) dimensions must agree on one
  /// concrete extent across every bound input and output. Returns that
  /// extent — the batch the execution specializes for.
  static Expected<int64_t> resolveDynamicBatch(
      const CompiledGraph &CG,
      const std::vector<runtime::TensorData *> &Inputs,
      const std::vector<runtime::TensorData *> &Outputs);

  /// Runs partition \p I of \p CG on the calling thread with the given
  /// resolved arguments (compiled -> CompiledPartition::execute, fallback
  /// -> runReference). Shared by the serial path and the scheduler tasks.
  static Status runPartition(const CompiledGraph &CG, size_t I,
                             const std::vector<runtime::TensorData *> &Ins,
                             const std::vector<runtime::TensorData *> &Outs);

  /// Interprets \p G with the reference evaluator: \p Ins / \p Outs bind
  /// G's inputs / outputs in order. Runs fallback partitions, and the
  /// exact batch of a polymorphic execution whose bucket specialization
  /// could not be produced.
  static Status runReference(const graph::Graph &G,
                             const std::vector<runtime::TensorData *> &Ins,
                             const std::vector<runtime::TensorData *> &Outs);

  /// Builds the per-execution views over \p Arena for every scratch slot.
  static void
  buildScratchViews(const CompiledGraph &CG, runtime::PlanArena &Arena,
                    std::vector<runtime::TensorData> &Views);

  /// Resolves one plan reference against the execution's tensor sets.
  static runtime::TensorData *
  resolveRef(const CompiledGraph::BoundRef &Ref,
             const std::vector<runtime::TensorData *> &Inputs,
             const std::vector<runtime::TensorData *> &Outputs,
             std::vector<runtime::TensorData> &ScratchViews);

  /// Post-completion copies: pass-through outputs and duplicate listings.
  static void copyEpilogue(const CompiledGraph &CG,
                           const std::vector<runtime::TensorData *> &Inputs,
                           const std::vector<runtime::TensorData *> &Outputs);

  /// Launches the DAG of multi-partition \p Compiled: leases the arena,
  /// seeds the dependency counters and enqueues every root partition.
  /// The caller (Stream::submit) must have run validateBoundary()
  /// already. Returns the submission, possibly already complete:
  /// single-worker pools drain the whole DAG during the enqueues, and an
  /// arena-lease failure yields an already-failed submission.
  /// \p TimeoutMs > 0 arms the deadline (milliseconds from now).
  static std::shared_ptr<Submission>
  launch(CompiledGraphPtr Compiled, std::shared_ptr<StreamState> SS,
         const std::vector<runtime::TensorData *> &Inputs,
         const std::vector<runtime::TensorData *> &Outputs,
         int64_t TimeoutMs);

  /// An already-complete submission carrying \p S (for early failures and
  /// the synchronous single-partition shortcut).
  static std::shared_ptr<Submission> completed(Status S);

  /// Cancellation entry point behind Event::cancel(): sets
  /// CancelRequested, then tries to claim every partition. When it wins
  /// every claim — no partition has started (or ever will) — it publishes
  /// the Cancelled verdict immediately, so a fully-unstarted submission
  /// completes from the cancelling thread instead of waiting for its
  /// queued tasks to reach a worker. The queued tasks still fire later as
  /// cheap no-ops to drive dependency counts and the final retire().
  void requestCancel();

  /// Number of launched submissions whose retire() has not finished.
  /// The release-decrement at the end of retire() pairs with the
  /// acquire-load here, so an observer that reads 0 has a
  /// happens-before edge to every output write of every retired
  /// submission — the race-free completion probe for callers that
  /// dropped all handles (the mid-flight-drop tests poll it).
  static size_t inFlight();

  /// Pool-task trampoline: \p Ctx is a Node. Executes the partition (when
  /// the submission has not failed), then propagates completion.
  static void taskEntry(void *Ctx);

private:
  /// Cancellation/deadline gate run before a partition executes: returns
  /// Cancelled or DeadlineExceeded (bumping the session health counter
  /// exactly once per submission) when the submission should stop, ok
  /// otherwise.
  Status preRunCheck();
  /// Submits \p N ready tasks to the pool; when submission is refused
  /// (fault site "pool.submit"), degrades to running them inline on the
  /// calling thread — the async -> serial axis at task granularity.
  void enqueueOrRun(const std::pair<runtime::ThreadPool::TaskFn, void *>
                        *TasksIn,
                    size_t N);
  /// Decrements successors' dependency counts (enqueueing the ready
  /// ones), then retires the submission when this was the last partition.
  void finishPartition(uint32_t I);
  /// Epilogue copies, arena return, completion latch, self-release.
  void retire();
};

} // namespace detail
} // namespace api
} // namespace gc

#endif // GC_API_SCHEDULER_H
