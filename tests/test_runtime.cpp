//===- test_runtime.cpp - runtime substrate tests -------------------------------===//
//
// Thread pool semantics (coverage, barriers, concurrency), aligned buffers
// and arenas, runtime tensors, and the folded-constant cache.
//
//===----------------------------------------------------------------------===//

#include "runtime/buffer.h"
#include "runtime/const_cache.h"
#include "runtime/tensor_data.h"
#include "runtime/thread_pool.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

using namespace gc;
using namespace gc::runtime;

namespace {

TEST(ThreadPool, CoversEveryIterationExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(101);
  Pool.parallelFor(0, 101, [&](int64_t I, int) {
    Hits[static_cast<size_t>(I)].fetch_add(1);
  });
  for (const auto &H : Hits)
    ASSERT_EQ(H.load(), 1);
}

TEST(ThreadPool, ThreadIdsInRange) {
  ThreadPool Pool(3);
  std::atomic<bool> Ok{true};
  Pool.parallelFor(0, 64, [&](int64_t, int Tid) {
    if (Tid < 0 || Tid >= 3)
      Ok = false;
  });
  EXPECT_TRUE(Ok.load());
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool Pool(2);
  const uint64_t Before = Pool.barrierCount();
  Pool.parallelFor(5, 5, [&](int64_t, int) { FAIL(); });
  EXPECT_EQ(Pool.barrierCount(), Before);
}

TEST(ThreadPool, BarrierCountTracksRegions) {
  ThreadPool Pool(2);
  const uint64_t Before = Pool.barrierCount();
  for (int I = 0; I < 5; ++I)
    Pool.parallelFor(0, 10, [](int64_t, int) {});
  EXPECT_EQ(Pool.barrierCount(), Before + 5);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool Pool(4);
  std::vector<int64_t> PerThread(4, 0);
  Pool.parallelFor(1, 1001,
                   [&](int64_t I, int Tid) { PerThread[Tid] += I; });
  const int64_t Total =
      std::accumulate(PerThread.begin(), PerThread.end(), int64_t(0));
  EXPECT_EQ(Total, 1000 * 1001 / 2);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1);
  int Count = 0;
  Pool.parallelFor(0, 7, [&](int64_t, int Tid) {
    EXPECT_EQ(Tid, 0);
    ++Count;
  });
  EXPECT_EQ(Count, 7);
}

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer Buf(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Buf.data()) % 64, 0u);
  const char *P = static_cast<const char *>(Buf.data());
  for (size_t I = 0; I < Buf.size(); ++I)
    ASSERT_EQ(P[I], 0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer A(128);
  void *Ptr = A.data();
  AlignedBuffer B = std::move(A);
  EXPECT_EQ(B.data(), Ptr);
  EXPECT_EQ(A.data(), nullptr);
  EXPECT_TRUE(A.empty());
}

TEST(ThreadPool, SubmitTaskRunsEveryTaskOnce) {
  ThreadPool Pool(4);
  constexpr int N = 64;
  std::vector<std::atomic<int>> Hits(N);
  struct Ctx {
    std::atomic<int> *Slot;
  };
  std::vector<Ctx> Ctxs(N);
  for (int I = 0; I < N; ++I) {
    Ctxs[static_cast<size_t>(I)].Slot = &Hits[static_cast<size_t>(I)];
    Pool.submitTask(
        [](void *C) { static_cast<Ctx *>(C)->Slot->fetch_add(1); },
        &Ctxs[static_cast<size_t>(I)]);
  }
  // Drain: helping is allowed from any thread.
  while (Pool.tryRunOneTask()) {
  }
  for (int Spin = 0; Spin < 5000; ++Spin) {
    bool AllDone = true;
    for (const auto &H : Hits)
      if (H.load() == 0)
        AllDone = false;
    if (AllDone)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto &H : Hits)
    ASSERT_EQ(H.load(), 1);
  EXPECT_EQ(Pool.pendingTasks(), 0u);
}

TEST(ThreadPool, SingleWorkerPoolRunsTasksInline) {
  ThreadPool Pool(1);
  int Ran = 0;
  Pool.submitTask([](void *C) { ++*static_cast<int *>(C); }, &Ran);
  EXPECT_EQ(Ran, 1) << "no spawned workers: task must run inline";
  EXPECT_FALSE(Pool.tryRunOneTask());
}

TEST(ThreadPool, TaskBodiesRunAsWorkerContext) {
  // Inside a task, onWorkerThread() is set and a nested parallelFor runs
  // inline serially with ThreadId 0 — full coverage, no deadlock.
  ThreadPool Pool(2);
  struct Ctx {
    ThreadPool *Pool;
    std::atomic<int> Count{0};
    std::atomic<bool> OnWorker{false};
    std::atomic<bool> TidZeroOnly{true};
    std::atomic<bool> Done{false};
  } C;
  C.Pool = &Pool;
  EXPECT_FALSE(ThreadPool::onWorkerThread());
  Pool.submitTask(
      [](void *Raw) {
        auto *C = static_cast<Ctx *>(Raw);
        C->OnWorker = ThreadPool::onWorkerThread();
        C->Pool->parallelFor(0, 37, [&](int64_t, int Tid) {
          if (Tid != 0)
            C->TidZeroOnly = false;
          C->Count.fetch_add(1);
        });
        C->Done = true;
      },
      &C);
  while (Pool.tryRunOneTask()) {
  }
  for (int Spin = 0; Spin < 5000 && !C.Done.load(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(C.Done.load());
  EXPECT_TRUE(C.OnWorker.load());
  EXPECT_TRUE(C.TidZeroOnly.load());
  EXPECT_EQ(C.Count.load(), 37);
}

TEST(ThreadPool, ForkJoinStillCompletesWhileTasksAreQueued) {
  ThreadPool Pool(2);
  std::atomic<int> TaskRuns{0};
  for (int I = 0; I < 8; ++I)
    Pool.submitTask(
        [](void *C) { static_cast<std::atomic<int> *>(C)->fetch_add(1); },
        &TaskRuns);
  std::atomic<int> Iters{0};
  Pool.parallelFor(0, 100, [&](int64_t, int) { Iters.fetch_add(1); });
  EXPECT_EQ(Iters.load(), 100);
  for (int Spin = 0; Spin < 5000 && TaskRuns.load() < 8; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(TaskRuns.load(), 8);
}

TEST(PlanArena, ZeroSizePlanAllocatesNothing) {
  PlanArena Arena;
  EXPECT_EQ(Arena.capacity(), 0u);
  ASSERT_TRUE(Arena.tryEnsure(0).isOk());
  EXPECT_EQ(Arena.capacity(), 0u);
  EXPECT_EQ(Arena.at(0), nullptr); // zero-size intermediates: valid plan
}

TEST(PlanArena, OffsetsKeepAlignment) {
  PlanArena Arena;
  ASSERT_TRUE(Arena.tryEnsure(1000).isOk());
  ASSERT_GE(Arena.capacity(), 1000u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Arena.at(0)) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Arena.at(64)) % 64, 0u);
  EXPECT_EQ(static_cast<char *>(Arena.at(128)) -
                static_cast<char *>(Arena.at(0)),
            128);
}

TEST(PlanArena, GrowsAcrossExecutionsAndNeverShrinks) {
  PlanArena Arena;
  ASSERT_TRUE(Arena.tryEnsure(128).isOk());
  const size_t Small = Arena.capacity();
  ASSERT_GE(Small, 128u);
  // Second execution with a bigger plan: grow.
  ASSERT_TRUE(Arena.tryEnsure(4096).isOk());
  ASSERT_GE(Arena.capacity(), 4096u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Arena.at(0)) % 64, 0u);
  // Back to a small plan: capacity is retained (grow-only recycling).
  const size_t Big = Arena.capacity();
  ASSERT_TRUE(Arena.tryEnsure(64).isOk());
  EXPECT_EQ(Arena.capacity(), Big);
  // Grown region is writable end to end.
  std::memset(Arena.at(0), 0x5a, Big);
}

TEST(TensorData, ShapeAndBytes) {
  TensorData T(DataType::F32, {2, 3, 4});
  EXPECT_EQ(T.numElements(), 24);
  EXPECT_EQ(T.numBytes(), 96);
  TensorData T8(DataType::S8, {5, 5});
  EXPECT_EQ(T8.numBytes(), 25);
}

TEST(TensorData, ViewSharesStorage) {
  std::vector<float> Storage(12, 1.5f);
  TensorData V = TensorData::view(DataType::F32, {3, 4}, Storage.data());
  V.dataAs<float>()[5] = 9.0f;
  EXPECT_EQ(Storage[5], 9.0f);
}

TEST(TensorData, CloneIsDeep) {
  TensorData T(DataType::F32, {4});
  T.fillConstant(2.0);
  TensorData C = T.clone();
  C.dataAs<float>()[0] = -1.0f;
  EXPECT_EQ(T.dataAs<float>()[0], 2.0f);
}

TEST(TensorData, FillRandomDeterministic) {
  Rng R1(42), R2(42);
  TensorData A(DataType::F32, {100});
  TensorData B(DataType::F32, {100});
  A.fillRandom(R1);
  B.fillRandom(R2);
  EXPECT_EQ(maxAbsDiff(A, B), 0.0);
}

TEST(TensorData, DiffHelpers) {
  TensorData A(DataType::F32, {3});
  TensorData B(DataType::F32, {3});
  A.fillConstant(1.0);
  B.fillConstant(1.0);
  B.dataAs<float>()[2] = 1.5f;
  EXPECT_NEAR(maxAbsDiff(A, B), 0.5, 1e-9);
  EXPECT_GT(maxRelDiff(A, B), 0.3);
}

TEST(ConstCache, PutGetAndStats) {
  ConstCache Cache;
  EXPECT_EQ(Cache.get(7), nullptr);
  TensorData T(DataType::F32, {8});
  T.fillConstant(3.0);
  Cache.put(7, std::move(T));
  ASSERT_NE(Cache.get(7), nullptr);
  EXPECT_EQ(Cache.get(7)->dataAs<float>()[0], 3.0f);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.totalBytes(), 32);
  Cache.clear();
  EXPECT_EQ(Cache.get(7), nullptr);
}

} // namespace
