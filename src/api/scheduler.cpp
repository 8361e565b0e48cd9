//===- scheduler.cpp - Async partition DAG scheduler (internal) ---------------===//

#include "api/scheduler.h"

#include "graph/reference.h"
#include "support/str.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>

namespace gc {
namespace api {
namespace detail {

using namespace graph;

//===----------------------------------------------------------------------===//
// StreamState: per-stream arena free list
//===----------------------------------------------------------------------===//

Expected<std::unique_ptr<runtime::PlanArena>>
StreamState::acquireArena(size_t Bytes) {
  std::unique_ptr<runtime::PlanArena> Arena;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!FreeArenas.empty()) {
      Arena = std::move(FreeArenas.back());
      FreeArenas.pop_back();
    }
  }
  if (!Arena)
    Arena = std::make_unique<runtime::PlanArena>();
  if (Status S = Arena->tryEnsure(Bytes); !S.isOk()) {
    // Drop (not recycle) the arena: under budget pressure its charge is
    // exactly what a concurrent execution may be waiting for.
    if (Health) {
      Health->TransientFailures.fetch_add(1, std::memory_order_relaxed);
      if (S.code() == StatusCode::ResourceExhausted)
        Health->MemLimitRejections.fetch_add(1, std::memory_order_relaxed);
    }
    return S;
  }
  return Arena;
}

void StreamState::releaseArena(std::unique_ptr<runtime::PlanArena> Arena) {
  // Bound the free list like the ExecState pool: a concurrency burst must
  // not pin one arena per peak-parallel execution for the stream's
  // lifetime.
  constexpr size_t kMaxFreeArenas = 8;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (FreeArenas.size() < kMaxFreeArenas)
    FreeArenas.push_back(std::move(Arena));
}

//===----------------------------------------------------------------------===//
// Shared execution helpers (serial path + scheduler tasks)
//===----------------------------------------------------------------------===//

namespace {

/// Checks one caller tensor against the graph-boundary metadata. With
/// \p Batch (polymorphic graphs), metadata dimensions equal to
/// LogicalTensor::kDynamicDim accept any positive extent but must agree
/// on one value across the whole execution, accumulated into *Batch
/// (pass -1 initially); without it, shapes must match exactly.
Status checkBoundaryTensor(const runtime::TensorData *T,
                           const LogicalTensor &Meta, const char *What,
                           size_t Index, int64_t *Batch = nullptr) {
  if (!T || !T->valid())
    return Status::error(StatusCode::InvalidArgument,
                         formatString("%s %zu is null", What, Index));
  if (T->dtype() != Meta.Ty)
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("%s %zu dtype mismatch: got %s, expected %s", What,
                     Index, dataTypeName(T->dtype()),
                     dataTypeName(Meta.Ty)));
  // Built only on the failing branches: this helper runs per boundary
  // tensor on every execution, and the formatting allocates.
  auto shapeErr = [&] {
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("%s %zu shape mismatch: got %s, expected %s", What,
                     Index, shapeToString(T->shape()).c_str(),
                     shapeToString(Meta.Shape).c_str()));
  };
  if (!Batch)
    return T->shape() == Meta.Shape ? Status::ok() : shapeErr();
  if (T->rank() != Meta.rank())
    return shapeErr();
  for (size_t D = 0; D < Meta.Shape.size(); ++D) {
    const int64_t Want = Meta.Shape[D];
    const int64_t Got = T->shape()[D];
    if (Want == LogicalTensor::kDynamicDim) {
      if (Got <= 0)
        return Status::error(
            StatusCode::InvalidArgument,
            formatString("%s %zu has non-positive batch %lld", What,
                         Index, (long long)Got));
      if (*Batch < 0)
        *Batch = Got;
      else if (Got != *Batch)
        return Status::error(
            StatusCode::InvalidArgument,
            formatString("%s %zu batch mismatch: got %lld, but another "
                         "dynamic tensor of this execution is batch %lld",
                         What, Index, (long long)Got, (long long)*Batch));
    } else if (Got != Want) {
      return shapeErr();
    }
  }
  return Status::ok();
}

} // namespace

Status Submission::validateBoundary(
    const CompiledGraph &CG,
    const std::vector<runtime::TensorData *> &Inputs,
    const std::vector<runtime::TensorData *> &Outputs) {
  if (Inputs.size() != CG.InputIds.size())
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("input arity mismatch: got %zu, expected %zu",
                     Inputs.size(), CG.InputIds.size()));
  if (Outputs.size() != CG.OutputIds.size())
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("output arity mismatch: got %zu, expected %zu",
                     Outputs.size(), CG.OutputIds.size()));
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (Status S = checkBoundaryTensor(Inputs[I], CG.InputMeta[I], "input", I);
        !S.isOk())
      return S;
  for (size_t I = 0; I < Outputs.size(); ++I)
    if (Status S =
            checkBoundaryTensor(Outputs[I], CG.OutputMeta[I], "output", I);
        !S.isOk())
      return S;
  return Status::ok();
}

Expected<int64_t> Submission::resolveDynamicBatch(
    const CompiledGraph &CG,
    const std::vector<runtime::TensorData *> &Inputs,
    const std::vector<runtime::TensorData *> &Outputs) {
  if (Inputs.size() != CG.InputIds.size())
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("input arity mismatch: got %zu, expected %zu",
                     Inputs.size(), CG.InputIds.size()));
  if (Outputs.size() != CG.OutputIds.size())
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("output arity mismatch: got %zu, expected %zu",
                     Outputs.size(), CG.OutputIds.size()));
  int64_t Batch = -1;
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (Status S =
            checkBoundaryTensor(Inputs[I], CG.InputMeta[I], "input", I,
                                &Batch);
        !S.isOk())
      return S;
  for (size_t I = 0; I < Outputs.size(); ++I)
    if (Status S = checkBoundaryTensor(Outputs[I], CG.OutputMeta[I],
                                       "output", I, &Batch);
        !S.isOk())
      return S;
  if (Batch < 0)
    return Status::error(
        StatusCode::Internal,
        "polymorphic graph bound no dynamic tensor to read the batch from");
  return Batch;
}

Status Submission::runPartition(
    const CompiledGraph &CG, size_t I,
    const std::vector<runtime::TensorData *> &Ins,
    const std::vector<runtime::TensorData *> &Outs) {
  const CompiledGraph::Part &Part = CG.Parts[I];
  if (Part.Compiled)
    return Part.Compiled->execute(Ins, Outs);
  return runReference(Part.Spec.Subgraph, Ins, Outs);
}

Status
Submission::runReference(const Graph &G,
                         const std::vector<runtime::TensorData *> &Ins,
                         const std::vector<runtime::TensorData *> &Outs) {
  // Inputs and constants are wrapped as views (no copy; constants are
  // read-only during evaluation); outputs are copied into their
  // destination buffers.
  TensorMap Env;
  for (int64_t TId : G.tensorIds())
    if (const runtime::TensorData *Data = G.constantData(TId))
      Env[TId] = runtime::TensorData::view(
          Data->dtype(), Data->shape(), const_cast<void *>(Data->data()));
  const std::vector<int64_t> &GIns = G.inputs();
  for (size_t J = 0; J < GIns.size(); ++J) {
    const LogicalTensor &Meta = G.tensor(GIns[J]);
    Env[GIns[J]] =
        runtime::TensorData::view(Meta.Ty, Meta.Shape, Ins[J]->data());
  }
  evalGraphReference(G, Env);
  const std::vector<int64_t> &GOuts = G.outputs();
  for (size_t J = 0; J < GOuts.size(); ++J) {
    const runtime::TensorData &Result = Env.at(GOuts[J]);
    if (Result.numBytes() != Outs[J]->numBytes())
      return Status::error(StatusCode::Internal,
                           "reference output size mismatch");
    std::memcpy(Outs[J]->data(), Result.data(),
                static_cast<size_t>(Result.numBytes()));
  }
  return Status::ok();
}

void Submission::buildScratchViews(const CompiledGraph &CG,
                                   runtime::PlanArena &Arena,
                                   std::vector<runtime::TensorData> &Views) {
  Views.clear();
  Views.reserve(CG.ScratchSlots.size());
  for (const CompiledGraph::ScratchSlot &Slot : CG.ScratchSlots)
    Views.push_back(runtime::TensorData::view(Slot.Meta.Ty, Slot.Meta.Shape,
                                              Arena.at(Slot.Offset)));
}

runtime::TensorData *
Submission::resolveRef(const CompiledGraph::BoundRef &Ref,
                       const std::vector<runtime::TensorData *> &Inputs,
                       const std::vector<runtime::TensorData *> &Outputs,
                       std::vector<runtime::TensorData> &ScratchViews) {
  switch (Ref.Where) {
  case CompiledGraph::BoundRef::Loc::GraphInput:
    return Inputs[Ref.Index];
  case CompiledGraph::BoundRef::Loc::GraphOutput:
    return Outputs[Ref.Index];
  case CompiledGraph::BoundRef::Loc::Scratch:
    return &ScratchViews[Ref.Index];
  }
  return nullptr;
}

void Submission::copyEpilogue(
    const CompiledGraph &CG,
    const std::vector<runtime::TensorData *> &Inputs,
    const std::vector<runtime::TensorData *> &Outputs) {
  for (const auto &[OutIdx, InIdx] : CG.Passthrough)
    if (Outputs[OutIdx]->data() != Inputs[InIdx]->data())
      std::memcpy(Outputs[OutIdx]->data(), Inputs[InIdx]->data(),
                  static_cast<size_t>(Inputs[InIdx]->numBytes()));
  for (const auto &[DupIdx, FirstIdx] : CG.DuplicateOutputs)
    if (Outputs[DupIdx]->data() != Outputs[FirstIdx]->data())
      std::memcpy(Outputs[DupIdx]->data(), Outputs[FirstIdx]->data(),
                  static_cast<size_t>(Outputs[FirstIdx]->numBytes()));
}

//===----------------------------------------------------------------------===//
// DAG scheduling
//===----------------------------------------------------------------------===//

namespace {

/// Disposes retired submissions on a dedicated (detached, lazily
/// created, intentionally leaked) thread. Needed because the last owner
/// of a session's resources can be the final partition task running on
/// the session's own pool: dropping the last shared_ptr<ThreadPool>
/// there would run ~ThreadPool on a pool worker, which would then join
/// the very thread it is executing on (std::terminate). Any non-worker
/// thread may release safely — the pool destructor's joins are the
/// synchronization — so the reaper only has to be "not a pool worker".
void reapOffWorker(std::shared_ptr<Submission> Last) {
  struct ReaperState {
    std::mutex M;
    std::condition_variable Cv;
    std::deque<std::shared_ptr<Submission>> Queue;
  };
  static ReaperState *State = [] {
    auto *S = new ReaperState; // leaked: outlives every session
    std::thread([S] {
      for (;;) {
        std::shared_ptr<Submission> Dead;
        {
          std::unique_lock<std::mutex> Lock(S->M);
          S->Cv.wait(Lock, [&] { return !S->Queue.empty(); });
          Dead = std::move(S->Queue.front());
          S->Queue.pop_front();
        }
        Dead.reset();
      }
    }).detach();
    return S;
  }();
  {
    std::lock_guard<std::mutex> Lock(State->M);
    State->Queue.push_back(std::move(Last));
  }
  State->Cv.notify_one();
}

} // namespace

namespace {
/// Launched-but-not-retired submissions; see Submission::inFlight().
std::atomic<size_t> InFlightCount{0};
} // namespace

size_t Submission::inFlight() {
  return InFlightCount.load(std::memory_order_acquire);
}

void Submission::retire() {
  if (!Failed.load(std::memory_order_acquire))
    copyEpilogue(*CG, Inputs, Outputs);
  // Views into the arena die before the arena goes back on the free list.
  ScratchViews.clear();
  if (SS && Arena)
    SS->releaseArena(std::move(Arena));
  std::shared_ptr<Submission> Keep;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Keep = std::move(Self);
    DoneFlag.store(true, std::memory_order_release);
    Cv.notify_all();
  }
  // If no Event handle is left, dropping Keep frees the submission — and
  // possibly the session pool with it. On a pool worker that release is
  // handed to the reaper; an Event still alive makes the hand-off a
  // cheap no-op (the reaper's drop is not the last).
  if (Keep && runtime::ThreadPool::onWorkerThread())
    reapOffWorker(std::move(Keep));
  // Last: the release pairs with inFlight()'s acquire, publishing every
  // write this submission made (output tensors included) to a poller
  // that observes the count drop.
  InFlightCount.fetch_sub(1, std::memory_order_release);
}

Status Submission::preRunCheck() {
  if (CancelRequested.load(std::memory_order_acquire))
    return Status::error(StatusCode::Cancelled,
                         "submission cancelled via Event::cancel()");
  if (HasDeadline && std::chrono::steady_clock::now() > Deadline)
    return Status::error(
        StatusCode::DeadlineExceeded,
        "submission deadline passed before this partition started");
  return Status::ok();
}

void Submission::enqueueOrRun(
    const std::pair<runtime::ThreadPool::TaskFn, void *> *TasksIn,
    size_t N) {
  if (N == 0)
    return;
  if (Pool->trySubmitTaskBatch(TasksIn, N))
    return;
  // Refused enqueue: degrade to running the ready tasks inline on this
  // thread. Correct because a task only becomes ready once its producers
  // completed; the loss is overlap, not results. Recursion via
  // finishPartition is bounded by the DAG depth.
  if (SS && SS->Health) {
    SS->Health->TransientFailures.fetch_add(1, std::memory_order_relaxed);
    SS->Health->DegradedToSerial.fetch_add(1, std::memory_order_relaxed);
    SS->Health->warnOnce(
        "async-serial", "task submission refused; running partitions inline");
  }
  for (size_t I = 0; I < N; ++I)
    TasksIn[I].first(TasksIn[I].second);
}

void Submission::finishPartition(uint32_t I) {
  const std::vector<uint32_t> &Succs = CG->Plans[I].Succs;
  // Batch the newly-ready successors into one enqueue (one lock, one
  // wake) instead of a futex per task.
  std::vector<std::pair<runtime::ThreadPool::TaskFn, void *>> Ready;
  Ready.reserve(Succs.size());
  for (uint32_t Succ : Succs)
    if (DepsLeft[Succ].fetch_sub(1, std::memory_order_acq_rel) == 1)
      Ready.emplace_back(&Submission::taskEntry, &Nodes[Succ]);
  enqueueOrRun(Ready.data(), Ready.size());
  if (PartsLeft.fetch_sub(1, std::memory_order_acq_rel) == 1)
    retire();
}

void Submission::taskEntry(void *Ctx) {
  auto *Node = static_cast<Submission::Node *>(Ctx);
  Submission &S = *Node->Sub;
  const uint32_t I = Node->Index;
  // Claim the partition. Losing the claim means requestCancel() pinned it
  // as never-going-to-run before this task reached a worker; treat that
  // exactly like a cancel verdict observed at the partition boundary.
  const bool PreCancelled =
      S.Claimed && S.Claimed[I].exchange(true, std::memory_order_acq_rel);
  // After a failure (or a cancel/deadline verdict) the rest of the DAG is
  // cancelled: completion still propagates (successor counts, submission
  // retirement) but no further partition executes.
  if (!S.Failed.load(std::memory_order_acquire)) {
    Status St = PreCancelled
                    ? Status::error(StatusCode::Cancelled,
                                    "submission cancelled via "
                                    "Event::cancel()")
                    : S.preRunCheck();
    if (St.isOk()) {
      const CompiledGraph::PartitionPlan &Plan = S.CG->Plans[I];
      std::vector<runtime::TensorData *> Ins, Outs;
      Ins.reserve(Plan.Ins.size());
      Outs.reserve(Plan.Outs.size());
      for (const CompiledGraph::BoundRef &Ref : Plan.Ins)
        Ins.push_back(resolveRef(Ref, S.Inputs, S.Outputs, S.ScratchViews));
      for (const CompiledGraph::BoundRef &Ref : Plan.Outs)
        Outs.push_back(resolveRef(Ref, S.Inputs, S.Outputs, S.ScratchViews));
      St = runPartition(*S.CG, I, Ins, Outs);
    }
    if (!St.isOk()) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      if (S.Err.isOk()) {
        S.Err = St;
        // First failure of the submission: classify into the session
        // health counters exactly once.
        if (S.SS && S.SS->Health) {
          HealthState &H = *S.SS->Health;
          if (St.code() == StatusCode::Cancelled)
            H.Cancellations.fetch_add(1, std::memory_order_relaxed);
          else if (St.code() == StatusCode::DeadlineExceeded)
            H.DeadlinesExceeded.fetch_add(1, std::memory_order_relaxed);
          else if (isTransient(St.code()))
            H.TransientFailures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      S.Failed.store(true, std::memory_order_release);
    }
  }
  S.finishPartition(I);
}

void Submission::requestCancel() {
  CancelRequested.store(true, std::memory_order_release);
  if (!Claimed || Nodes.empty())
    return;
  // Claim every partition we can: a won claim pins that partition as
  // never-going-to-run (its task will fire as an accounting no-op). When
  // EVERY claim is won, no partition has started or ever will, so the
  // Cancelled verdict can be published right here instead of waiting for
  // the queued tasks to reach a worker — the prompt-cancel path for a
  // fully-unstarted submission parked behind a busy pool. Claims past the
  // first loss still matter: they stop not-yet-started partitions even
  // when the fast path does not apply.
  bool AllUnstarted = true;
  for (size_t I = 0, N = Nodes.size(); I < N; ++I)
    if (Claimed[I].exchange(true, std::memory_order_acq_rel))
      AllUnstarted = false;
  if (!AllUnstarted)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (DoneFlag.load(std::memory_order_relaxed))
    return;
  if (Err.isOk()) {
    Err = Status::error(StatusCode::Cancelled,
                        "submission cancelled via Event::cancel() before "
                        "any partition started");
    if (SS && SS->Health)
      SS->Health->Cancellations.fetch_add(1, std::memory_order_relaxed);
  }
  Failed.store(true, std::memory_order_release);
  // Completion is visible now; the leased arena and the self-reference
  // are released by the normal retire() once the queued no-op tasks have
  // drained (they hold raw pointers into this submission).
  DoneFlag.store(true, std::memory_order_release);
  Cv.notify_all();
}

std::shared_ptr<Submission> Submission::completed(Status S) {
  auto Sub = std::make_shared<Submission>();
  if (!S.isOk()) {
    Sub->Err = std::move(S);
    Sub->Failed.store(true, std::memory_order_relaxed);
  }
  Sub->DoneFlag.store(true, std::memory_order_release);
  return Sub;
}

std::shared_ptr<Submission>
Submission::launch(CompiledGraphPtr Compiled, std::shared_ptr<StreamState> SS,
                   const std::vector<runtime::TensorData *> &Inputs,
                   const std::vector<runtime::TensorData *> &Outputs,
                   int64_t TimeoutMs) {
  auto Sub = std::make_shared<Submission>();
  Sub->CG = std::move(Compiled);
  const CompiledGraph &CG = *Sub->CG;
  Sub->Pool = SS->Pool;
  Sub->SS = std::move(SS);
  Sub->Inputs = Inputs;
  Sub->Outputs = Outputs;
  if (TimeoutMs > 0) {
    Sub->HasDeadline = true;
    Sub->Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
  }
  Expected<std::unique_ptr<runtime::PlanArena>> ArenaOr =
      Sub->SS->acquireArena(CG.ArenaBytes);
  if (!ArenaOr)
    return completed(ArenaOr.status());
  Sub->Arena = ArenaOr.takeValue();
  buildScratchViews(CG, *Sub->Arena, Sub->ScratchViews);

  // submit() runs graphs with <= 1 partition synchronously instead.
  const size_t N = CG.Parts.size();
  assert(N > 1 && "launch() requires a multi-partition graph");

  Sub->Nodes.resize(N);
  Sub->DepsLeft = std::make_unique<std::atomic<uint32_t>[]>(N);
  Sub->Claimed = std::make_unique<std::atomic<bool>[]>(N);
  for (size_t I = 0; I < N; ++I) {
    Sub->Nodes[I].Sub = Sub.get();
    Sub->Nodes[I].Index = static_cast<uint32_t>(I);
    Sub->DepsLeft[I].store(CG.Plans[I].NumPreds, std::memory_order_relaxed);
    Sub->Claimed[I].store(false, std::memory_order_relaxed);
  }
  Sub->PartsLeft.store(N, std::memory_order_relaxed);
  // The self-reference keeps the submission alive until the last task
  // retires it, even when the caller drops the Event immediately. Set
  // before the first enqueue: a single-worker pool runs tasks inline, so
  // the whole DAG may finish inside the submitTask calls below.
  Sub->Self = Sub;
  // Count before the first enqueue: a single-worker pool may retire the
  // whole submission inside submitTaskBatch.
  InFlightCount.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::pair<runtime::ThreadPool::TaskFn, void *>> Roots;
  Roots.reserve(N);
  for (size_t I = 0; I < N; ++I)
    if (CG.Plans[I].NumPreds == 0)
      Roots.emplace_back(&Submission::taskEntry, &Sub->Nodes[I]);
  Sub->enqueueOrRun(Roots.data(), Roots.size());
  return Sub;
}

//===----------------------------------------------------------------------===//
// Event
//===----------------------------------------------------------------------===//

} // namespace detail

bool Event::query() const {
  return !Sub || Sub->DoneFlag.load(std::memory_order_acquire);
}

Status Event::wait() const {
  if (!Sub)
    return Status::ok();
  detail::Submission &S = *Sub;
  // Help: drain queued partition tasks (this submission's or any other's)
  // instead of idling; park only once the queue is empty. Tasks in flight
  // on workers enqueue their successors, which the workers pick up.
  if (S.Pool)
    while (!S.DoneFlag.load(std::memory_order_acquire) &&
           S.Pool->tryRunOneTask()) {
    }
  std::unique_lock<std::mutex> Lock(S.Mutex);
  S.Cv.wait(Lock, [&] {
    return S.DoneFlag.load(std::memory_order_relaxed);
  });
  return S.Err;
}

Status Event::waitFor(int64_t TimeoutMs) const {
  if (!Sub)
    return Status::ok();
  detail::Submission &S = *Sub;
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max<int64_t>(0, TimeoutMs));
  // Help drain like wait(), but stop helping at the deadline: a queued
  // task could run long past it.
  if (S.Pool)
    while (!S.DoneFlag.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < Deadline &&
           S.Pool->tryRunOneTask()) {
    }
  std::unique_lock<std::mutex> Lock(S.Mutex);
  if (!S.Cv.wait_until(Lock, Deadline, [&] {
        return S.DoneFlag.load(std::memory_order_relaxed);
      }))
    return Status::error(
        StatusCode::DeadlineExceeded,
        formatString("submission still in flight after %lld ms",
                     (long long)TimeoutMs));
  return S.Err;
}

bool Event::cancel() const {
  if (!Sub || Sub->DoneFlag.load(std::memory_order_acquire))
    return false;
  Sub->requestCancel();
  return true;
}

} // namespace api
} // namespace gc
