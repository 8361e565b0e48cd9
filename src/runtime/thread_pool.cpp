//===- thread_pool.cpp - Persistent worker pool & parallel_for ----------------===//

#include "runtime/thread_pool.h"

#include "support/common.h"
#include "support/env.h"
#include "support/fault.h"

#include <algorithm>

namespace gc {
namespace runtime {

namespace {

/// One spin-wait iteration: a pause on x86 (frees the sibling hyperthread
/// and lowers power), a compiler barrier elsewhere.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Set on pool worker threads for their whole lifetime and around task
/// bodies run via tryRunOneTask/submitTask-inline on foreign threads.
/// parallelFor consults it to run nested regions inline serially.
thread_local bool TlOnWorkerThread = false;

} // namespace

ThreadPool::ThreadPool(int NumThreads) {
  if (NumThreads <= 0) {
    // Clamp GC_THREADS to [1, 1024]: a negative or absurd value (getEnvInt
    // rejects garbage but not sign) must degrade to a sane pool, not
    // underflow worker bookkeeping or spawn millions of threads.
    constexpr int64_t kMaxThreads = 1024;
    const int64_t FromEnv = getEnvInt("GC_THREADS", 0);
    if (FromEnv > 0)
      NumThreads = static_cast<int>(std::min(FromEnv, kMaxThreads));
    else
      NumThreads = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
  }
  NumWorkers = std::max(1, NumThreads);
  // Negative spin counts mean "no spin", and an enormous one is a typo,
  // not a request to burn a core for minutes before parking.
  SpinIters = static_cast<int>(std::min<int64_t>(
      std::max<int64_t>(0, getEnvInt("GC_SPIN_ITERS", 4000)), 1 << 26));
  SpawnedWorkers.fetch_add(NumWorkers - 1, std::memory_order_relaxed);
  // Worker 0 is the calling thread; spawn the rest.
  Threads.reserve(static_cast<size_t>(NumWorkers - 1));
  for (int W = 1; W < NumWorkers; ++W)
    Threads.emplace_back([this, W] { workerLoop(W); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown.store(true, std::memory_order_release);
  }
  WakeCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
  SpawnedWorkers.fetch_sub(NumWorkers - 1, std::memory_order_relaxed);
}

std::atomic<int> ThreadPool::SpawnedWorkers{0};

bool ThreadPool::oversubscribed() {
  // Process-wide: several pools can coexist (per-session pools plus the
  // global one); once their spawned workers outnumber the machine's
  // cores, extra running threads only steal cycles from each other.
  // Re-evaluated per call so pools created later are accounted for.
  static const int Hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  return SpawnedWorkers.load(std::memory_order_relaxed) + 1 > Hw;
}

int ThreadPool::spinBudget() const {
  // Spinning only helps when every worker owns a core; oversubscribed,
  // a spinning thread just steals cycles from the worker it is waiting
  // on — park immediately instead.
  return oversubscribed() ? 0 : SpinIters;
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool;
  return Pool;
}

namespace {

/// Chunk index marking a closed claim word: no region is accepting
/// claims (the submitter is about to rewrite the job fields). Ordinary
/// regions have NumChunks <= NumWorkers, far below this.
constexpr uint64_t kClosedChunk = uint64_t(1) << 31;
constexpr uint64_t kChunkMask = 0xffffffffu;

} // namespace

void ThreadPool::runRange() {
  // Dynamic chunk claiming: every participant (workers, the submitter,
  // stragglers from a previous region) takes the next unclaimed chunk,
  // so a worker occupied by a long task stalls nothing — the rest
  // absorb its share and the region completes without it. The claim
  // word's upper bits carry the generation: whichever region a claim
  // lands on, the acquire RMW synchronizes with the release store that
  // published that region's fields, so reading them is always safe once
  // the chunk index is in range.
  //
  // The body's ThreadId is the CHUNK index, not the worker identity:
  // chunk C covers exactly the range static partitioning used to give
  // worker C, so per-"thread" scratch stays exclusive (one claimant per
  // chunk) and the iteration->scratch-slot mapping is identical to the
  // static scheme regardless of which worker runs the chunk.
  ActiveClaimants.fetch_add(1, std::memory_order_acquire);
  for (;;) {
    const uint64_t Claim =
        ClaimWord.fetch_add(1, std::memory_order_acq_rel);
    const int64_t Chunk = static_cast<int64_t>(Claim & kChunkMask);
    if (Chunk >= static_cast<int64_t>(kClosedChunk))
      break; // closed: fields may be mid-rewrite, do not read them
    if (Chunk >= NumChunks)
      break; // region exhausted
    const int64_t Lo = JobBegin + Chunk * ChunkSize;
    const int64_t Hi = std::min(JobEnd, Lo + ChunkSize);
    for (int64_t I = Lo; I < Hi; ++I)
      JobBody(JobCtx, I, static_cast<int>(Chunk));
    if (ChunksDone.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        NumChunks) {
      // Last chunk out wakes the submitter. Taking the mutex around the
      // notify closes the window between the submitter's predicate
      // check and its wait.
      std::lock_guard<std::mutex> Lock(Mutex);
      DoneCv.notify_all();
      break;
    }
  }
  ActiveClaimants.fetch_sub(1, std::memory_order_release);
}

void ThreadPool::runTaskBody(TaskFn Fn, void *Ctx) {
  const bool Was = TlOnWorkerThread;
  TlOnWorkerThread = true;
  Fn(Ctx);
  TlOnWorkerThread = Was;
}

bool ThreadPool::onWorkerThread() { return TlOnWorkerThread; }

void ThreadPool::submitTask(TaskFn Fn, void *Ctx) {
  const std::pair<TaskFn, void *> One(Fn, Ctx);
  submitTaskBatch(&One, 1);
}

bool ThreadPool::trySubmitTaskBatch(const std::pair<TaskFn, void *> *TasksIn,
                                    size_t N) {
  // All-or-nothing: the seam is evaluated once per batch, so a refused
  // batch never leaves half a fan-out enqueued.
  if (fault::shouldFail(fault::kPoolSubmit))
    return false;
  submitTaskBatch(TasksIn, N);
  return true;
}

void ThreadPool::submitTaskBatch(const std::pair<TaskFn, void *> *TasksIn,
                                 size_t N) {
  if (N == 0)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (size_t I = 0; I < N; ++I)
      Tasks.push_back(TasksIn[I]);
    TasksPending.fetch_add(N, std::memory_order_release);
  }
  if (NumWorkers == 1) {
    // No spawned workers to hand the tasks to: drain on the caller. A
    // submit from inside a task body (a continuation) only enqueues —
    // the drain loop of the outermost caller picks it up, so a deep
    // partition chain runs iteratively, not one stack frame per task.
    if (!TlOnWorkerThread)
      while (tryRunOneTask()) {
      }
    return;
  }
  // One wake regardless of batch size: the woken worker chains another
  // wake while tasks remain (see popAndRunTask), so the herd grows on
  // demand instead of stampeding a mostly-drained queue.
  WakeCv.notify_one();
}

bool ThreadPool::popAndRunTask(bool ChainWake) {
  TaskFn Fn = nullptr;
  void *Ctx = nullptr;
  bool Remaining = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Tasks.empty())
      return false;
    Fn = Tasks.front().first;
    Ctx = Tasks.front().second;
    Tasks.pop_front();
    TasksPending.fetch_sub(1, std::memory_order_relaxed);
    Remaining = !Tasks.empty();
  }
  // Chain-waking only helps when a spare core can actually run the
  // woken peer; oversubscribed, an extra awake worker just preempts the
  // ones making progress (same policy as the spin auto-disable), and
  // the queue still drains through this worker and any helping waiter.
  if (ChainWake && Remaining && !oversubscribed())
    WakeCv.notify_one();
  runTaskBody(Fn, Ctx);
  return true;
}

bool ThreadPool::tryRunOneTask() { return popAndRunTask(false); }

void ThreadPool::workerLoop([[maybe_unused]] int WorkerIndex) {
  TlOnWorkerThread = true;
  uint64_t SeenGeneration = 0;
  for (;;) {
    // Bounded spin before parking: short nests are re-submitted within a
    // few microseconds, so burning a few thousand pause iterations beats a
    // futex round trip. The job fields are published before the release
    // store to Generation, so an acquire load here orders their reads.
    // Fork/join regions outrank queued tasks: the generation check comes
    // first in both the spin and the post-wake dispatch.
    uint64_t Gen = SeenGeneration;
    bool HaveJob = false;
    bool HaveTask = false;
    const int Budget = spinBudget();
    for (int Spin = 0; Spin < Budget; ++Spin) {
      if (ShuttingDown.load(std::memory_order_acquire))
        return;
      Gen = Generation.load(std::memory_order_acquire);
      if (Gen != SeenGeneration) {
        HaveJob = true;
        break;
      }
      if (TasksPending.load(std::memory_order_acquire) > 0) {
        HaveTask = true;
        break;
      }
      cpuRelax();
    }
    if (!HaveJob && !HaveTask) {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeCv.wait(Lock, [&] {
        return ShuttingDown.load(std::memory_order_relaxed) ||
               Generation.load(std::memory_order_relaxed) !=
                   SeenGeneration ||
               !Tasks.empty();
      });
      if (ShuttingDown.load(std::memory_order_relaxed))
        return;
      Gen = Generation.load(std::memory_order_relaxed);
    }
    if (Gen != SeenGeneration) {
      SeenGeneration = Gen;
      // Completion is tracked per chunk inside runRange; arriving late
      // (region already exhausted by the others) is a cheap no-op.
      runRange();
      continue;
    }
    // No fork/join region pending: drain one task and re-check. A task
    // may run long; a parallelFor submitted meanwhile proceeds without
    // this worker (dynamic chunk claiming). Chain-wake a peer while
    // tasks remain so a batched submit engages workers on demand.
    popAndRunTask(/*ChainWake=*/true);
  }
}

void ThreadPool::parallelForRaw(int64_t Begin, int64_t End, JobFn Fn,
                                void *Ctx) {
  if (Begin >= End)
    return;
  if (NumWorkers == 1 || End - Begin == 1 || TlOnWorkerThread) {
    // Serial fast path; still counts as one (degenerate) barrier so the
    // coarse-grain ablation can count loop regions uniformly. The
    // TlOnWorkerThread case is a nested region (a parallelFor from inside
    // a task or another region's body): running it inline serially as
    // ThreadId 0 keeps nesting deadlock-proof — a worker can never wait
    // on peers that may themselves be stuck waiting — and stays correct
    // because per-execution scratch is private to the leased ExecState,
    // not shared across concurrent tasks.
    Barriers.fetch_add(1, std::memory_order_relaxed);
    for (int64_t I = Begin; I < End; ++I)
      Fn(Ctx, I, 0);
    return;
  }
  std::lock_guard<std::mutex> Submit(SubmitMutex);
  // Close the claim word and wait for in-flight claimants to leave
  // runRange before touching the job fields: a straggler from the
  // previous region that already entered may still be reading them.
  // New arrivals see the closed chunk index and bail out immediately.
  {
    const uint64_t Closed =
        (ClaimWord.load(std::memory_order_relaxed) & ~kChunkMask) |
        kClosedChunk;
    ClaimWord.store(Closed, std::memory_order_release);
  }
  while (ActiveClaimants.load(std::memory_order_acquire) != 0)
    cpuRelax();
  const uint64_t Gen = Generation.load(std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    JobBody = Fn;
    JobCtx = Ctx;
    JobBegin = Begin;
    JobEnd = End;
    ChunkSize = ceilDiv(End - Begin, NumWorkers);
    NumChunks = ceilDiv(End - Begin, ChunkSize);
    ChunksDone.store(0, std::memory_order_relaxed);
    // Publishes the region: claims synchronize with the ClaimWord
    // store. Generation is released after it so a worker that observes
    // the new generation is guaranteed to see the open claim word (and
    // not bail on the stale closed one).
    ClaimWord.store(Gen << 32, std::memory_order_release);
    Generation.store(Gen, std::memory_order_release);
    Barriers.fetch_add(1, std::memory_order_relaxed);
  }
  WakeCv.notify_all();
  runRange();
  // Spin for straggling chunks before parking; the tail of a balanced
  // nest finishes within the spin budget.
  const int64_t Chunks = NumChunks;
  bool Done = false;
  const int Budget = spinBudget();
  for (int Spin = 0; Spin < Budget; ++Spin) {
    if (ChunksDone.load(std::memory_order_acquire) == Chunks) {
      Done = true;
      break;
    }
    cpuRelax();
  }
  if (!Done) {
    std::unique_lock<std::mutex> Lock(Mutex);
    DoneCv.wait(Lock, [&] {
      return ChunksDone.load(std::memory_order_relaxed) == Chunks;
    });
  }
}

} // namespace runtime
} // namespace gc
