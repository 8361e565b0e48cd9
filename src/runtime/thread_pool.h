//===- thread_pool.h - Persistent worker pool & parallel_for ----*- C++ -*-===//
///
/// \file
/// The multi-core substrate for the outermost parallel loops the templates
/// emit (§III "the outer parallel loops divide the kernel into multiple
/// subtasks for multi-cores"). A persistent pool avoids thread creation on
/// every kernel call; each parallelFor is one fork/join region, so merging
/// two loop nests (coarse-grain fusion) removes one synchronization barrier,
/// exactly the effect the paper measures.
///
/// Hot-path design: the job body is passed by reference through a plain
/// function pointer + context pointer (no std::function, no heap
/// allocation per nest), and both the workers and the submitting thread
/// spin for a bounded number of iterations before parking on a condition
/// variable, which cuts fork/join latency on the short parallel nests that
/// dominate small-shape inference.
///
/// On top of the fork/join layer sits a one-shot task queue
/// (submitTask()), the substrate of the async partition scheduler
/// (api/scheduler.h): idle workers drain queued tasks between fork/join
/// regions. A parallelFor issued from inside a task (or from any pool
/// worker) runs inline serially — nesting is deadlock-proof by
/// construction, and concurrent tasks each keep their ThreadId-0 scratch
/// because per-execution state is leased per task, never shared.
///
/// Environment knobs:
///   GC_THREADS      worker threads (default: hardware concurrency)
///   GC_SPIN_ITERS   bounded spin iterations before parking (default 4000;
///                   spinning auto-disables while the pools of this
///                   process together oversubscribe the machine — more
///                   spawned workers than cores)
///
//===----------------------------------------------------------------------===//

#ifndef GC_RUNTIME_THREAD_POOL_H
#define GC_RUNTIME_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gc {
namespace runtime {

/// Persistent fork/join thread pool with dynamically claimed chunks plus
/// a one-shot task queue for the async partition scheduler.
class ThreadPool {
public:
  /// Job callback: (context, iteration index, worker id).
  using JobFn = void (*)(void *Ctx, int64_t I, int ThreadId);

  /// Creates a pool with \p NumThreads workers (including the caller).
  /// NumThreads == 0 selects GC_THREADS or hardware concurrency.
  explicit ThreadPool(int NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of workers (>= 1), including the calling thread.
  int numThreads() const { return NumWorkers; }

  /// Runs Body(I) for I in [Begin, End) across the pool. Body must be safe
  /// to invoke concurrently for distinct I. Blocks until all iterations
  /// complete (one barrier per call). ThreadId passed to Body is the
  /// contiguous-chunk index in [0, numThreads()) — exclusive to one
  /// participant at a time, so it is a safe per-call scratch-slot key
  /// (it identifies the chunk, not the executing OS thread). Safe to
  /// call from multiple threads concurrently: fork/join regions from
  /// different submitters are serialized, so concurrent Stream
  /// executions interleave at nest granularity. Chunks are claimed
  /// dynamically, so a worker occupied by a long task (or absent for
  /// any reason) never delays region completion — the remaining
  /// participants absorb its share.
  ///
  /// The callable is captured by reference (it outlives the barrier
  /// because parallelFor blocks); no job-closure allocation happens here.
  template <typename Body>
  void parallelFor(int64_t Begin, int64_t End, Body &&B) {
    using BodyT = std::remove_reference_t<Body>;
    parallelForRaw(
        Begin, End,
        [](void *Ctx, int64_t I, int ThreadId) {
          (*static_cast<BodyT *>(const_cast<void *>(
              static_cast<const void *>(Ctx))))(I, ThreadId);
        },
        const_cast<void *>(static_cast<const void *>(std::addressof(B))));
  }

  /// Function-pointer form of parallelFor; \p Ctx is passed to every
  /// invocation of \p Fn. The templated overload forwards here.
  void parallelForRaw(int64_t Begin, int64_t End, JobFn Fn, void *Ctx);

  /// One-shot task callback for submitTask().
  using TaskFn = void (*)(void *Ctx);

  /// Enqueues a one-shot task executed by an idle worker thread (FIFO).
  /// Tasks must not block on the pool: a parallelFor issued from inside a
  /// task runs inline serially (see onWorkerThread()), so a task can never
  /// deadlock waiting for workers, and task-to-task dependencies must be
  /// expressed as continuation submits, not waits. On a single-worker
  /// pool the calling thread drains the queue before returning (unless
  /// already inside a task body, where the outermost drain loop picks
  /// the continuation up — iterative, not recursive).
  ///
  /// Fork/join regions take priority over queued tasks: a worker drains
  /// the current parallelFor range before popping the next task.
  void submitTask(TaskFn Fn, void *Ctx);

  /// Enqueues \p N tasks with one lock acquisition and a single worker
  /// wake — workers chain further wakes while the queue stays non-empty,
  /// so a DAG's root fan-out costs one futex instead of one per task.
  void submitTaskBatch(const std::pair<TaskFn, void *> *TasksIn, size_t N);

  /// Fallible form of submitTaskBatch(): returns false — enqueueing
  /// nothing — when submission is refused (today only under fault
  /// injection at site "pool.submit"; a real refusal would come from a
  /// future queue bound). The caller owns the fallback, typically running
  /// the tasks inline (async -> serial degradation).
  bool trySubmitTaskBatch(const std::pair<TaskFn, void *> *TasksIn, size_t N);

  /// Pops and runs one queued task on the calling thread, returning false
  /// when the queue is empty. Lets a thread blocked on an async result
  /// help drain the queue instead of parking (work-stealing wait).
  bool tryRunOneTask();

  /// Number of tasks currently queued (racy snapshot; tests/diagnostics).
  size_t pendingTasks() const {
    return TasksPending.load(std::memory_order_relaxed);
  }

  /// True on pool worker threads and inside task bodies (any pool). Used
  /// by parallelFor to run nested regions inline serially instead of
  /// re-entering the fork/join machinery.
  static bool onWorkerThread();

  /// Total number of fork/join barriers executed so far (used by tests and
  /// the coarse-grain fusion ablation to show barrier reduction).
  uint64_t barrierCount() const { return Barriers.load(); }

  /// Process-wide default pool (lazily constructed).
  static ThreadPool &global();

private:
  void workerLoop(int WorkerIndex);
  /// Claims and runs chunks of the current region until it is exhausted
  /// (dynamic claiming: identity-free, so participants may absorb an
  /// absent worker's share). The chunk index doubles as the body's
  /// ThreadId, reproducing the static iteration->slot mapping.
  void runRange();
  /// Runs \p Fn(\p Ctx) with the worker-thread flag set for the duration.
  static void runTaskBody(TaskFn Fn, void *Ctx);
  /// Pops and runs one task; with \p ChainWake, wakes another worker
  /// first when tasks remain (the wake-chain that keeps the herd off a
  /// batched submit).
  bool popAndRunTask(bool ChainWake);
  /// True while the process's pools together spawn more workers than
  /// the machine has cores (spin and wake fan-out are counterproductive
  /// then).
  static bool oversubscribed();
  /// Effective spin iterations for this wait: GC_SPIN_ITERS, or 0 while
  /// oversubscribed.
  int spinBudget() const;

  int NumWorkers = 1;
  /// Configured spin iterations before a worker/waiter parks.
  int SpinIters = 0;
  /// Spawned (non-caller) worker threads across all live pools.
  static std::atomic<int> SpawnedWorkers;
  std::vector<std::thread> Threads;

  /// Held for a whole fork/join region; gives concurrent submitters
  /// exclusive use of the job slot below.
  std::mutex SubmitMutex;
  std::mutex Mutex;
  std::condition_variable WakeCv;
  std::condition_variable DoneCv;
  /// Bumped (release) once the job slot is populated; workers spin on it
  /// before parking on WakeCv.
  std::atomic<uint64_t> Generation{0};
  std::atomic<bool> ShuttingDown{false};

  /// Region chunk claims: (generation << 32) | next-chunk-index. One
  /// atomic word so a claim always identifies which region it belongs
  /// to, and the acquire RMW synchronizes with the release store that
  /// published that region's fields. The submitter "closes" the word
  /// (chunk >= kClosedChunk) before rewriting the fields for the next
  /// region, so late claimants bail out without touching them.
  std::atomic<uint64_t> ClaimWord{0};
  /// Chunks fully executed in the current region; the submitter waits
  /// for it to reach NumChunks (whoever finishes the last chunk
  /// notifies DoneCv).
  std::atomic<int64_t> ChunksDone{0};
  /// Participants currently inside runRange; the next submitter waits
  /// for 0 after closing ClaimWord and before rewriting the job fields.
  std::atomic<int> ActiveClaimants{0};

  /// One-shot task queue (guarded by Mutex). TasksPending mirrors the
  /// queue size so spinning workers can poll it lock-free.
  std::deque<std::pair<TaskFn, void *>> Tasks;
  std::atomic<size_t> TasksPending{0};

  // Current region description (stable between ClaimWord publications).
  JobFn JobBody = nullptr;
  void *JobCtx = nullptr;
  int64_t JobBegin = 0;
  int64_t JobEnd = 0;
  int64_t ChunkSize = 0;
  int64_t NumChunks = 0;

  std::atomic<uint64_t> Barriers{0};
};

} // namespace runtime
} // namespace gc

#endif // GC_RUNTIME_THREAD_POOL_H
