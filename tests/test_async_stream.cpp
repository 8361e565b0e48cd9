//===- test_async_stream.cpp - async scheduler / submit / Event tests -----------===//
//
// The dependency-DAG execution plan and the async submission path:
// split-independent partitioning, DAG edges and lifetime-packed arena
// introspection, Event semantics, bit-identical async-vs-serial outputs
// across a multi-partition shape sweep, error reporting through the
// Event, and an 8-thread overlapping-submission stress of one
// CompiledGraph.
//
//===----------------------------------------------------------------------===//

#include "api/scheduler.h"
#include "api/session.h"
#include "graph/reference.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

using namespace gc;
using namespace gc::graph;

namespace {

AttrMap referenceImpl() { return {{"impl", std::string("reference")}}; }

/// One MLP branch: out = relu(X * W + B), fresh input tensor per branch.
int64_t addMlpBranch(Graph &G, int64_t M, int64_t K, int64_t N,
                     uint64_t Seed, const char *Name) {
  const int64_t X =
      G.addTensor(DataType::F32, {M, K}, std::string(Name) + "_x");
  G.markInput(X);
  const int64_t W = G.addTensor(DataType::F32, {K, N},
                                std::string(Name) + "_w",
                                TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {K, N}, Seed));
  const int64_t B = G.addTensor(DataType::F32, {N},
                                std::string(Name) + "_b",
                                TensorProperty::Constant);
  G.setConstantData(B, test::randomTensor(DataType::F32, {N}, Seed + 1));
  const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {M, N});
  const int64_t Biased = G.addOp(OpKind::Add, {Mm, B}, DataType::F32, {M, N});
  return G.addOp(OpKind::ReLU, {Biased}, DataType::F32, {M, N});
}

/// Two independent MLP branches with separate inputs and outputs.
Graph buildTwoBranchGraph(int64_t M = 16, int64_t K = 24, int64_t N = 20) {
  Graph G;
  G.markOutput(addMlpBranch(G, M, K, N, 11, "a"));
  G.markOutput(addMlpBranch(G, N, M, K, 21, "b"));
  return G;
}

/// Diamond DAG: two compiled matmul branches over one input rejoin in a
/// reference-pinned Add, so the join becomes its own fallback partition
/// depending on both branches.
Graph buildDiamondGraph(int64_t M = 12, int64_t K = 16, int64_t N = 24) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W1 = G.addTensor(DataType::F32, {K, N}, "w1",
                                 TensorProperty::Constant);
  G.setConstantData(W1, test::randomTensor(DataType::F32, {K, N}, 31));
  const int64_t W2 = G.addTensor(DataType::F32, {K, N}, "w2",
                                 TensorProperty::Constant);
  G.setConstantData(W2, test::randomTensor(DataType::F32, {K, N}, 32));
  const int64_t B1 = G.addOp(OpKind::MatMul, {X, W1}, DataType::F32, {M, N});
  const int64_t B2 = G.addOp(OpKind::MatMul, {X, W2}, DataType::F32, {M, N});
  const int64_t R1 = G.addOp(OpKind::ReLU, {B1}, DataType::F32, {M, N});
  const int64_t Join = G.addOp(OpKind::Add, {R1, B2}, DataType::F32, {M, N},
                               referenceImpl());
  G.markOutput(Join);
  return G;
}

/// Chain of \p Layers matmul+relu layers where every relu is pinned to
/// the interpreter: partitions alternate compiled/fallback, giving a long
/// dependency chain with several cross-partition intermediates.
Graph buildPinnedChainGraph(int64_t M, int64_t K, int Layers,
                            uint64_t Seed = 41) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  int64_t Cur = X;
  for (int L = 0; L < Layers; ++L) {
    const int64_t W = G.addTensor(DataType::F32, {K, K},
                                  "w" + std::to_string(L),
                                  TensorProperty::Constant);
    G.setConstantData(
        W, test::randomTensor(DataType::F32, {K, K},
                              Seed + static_cast<uint64_t>(L)));
    const int64_t Mm =
        G.addOp(OpKind::MatMul, {Cur, W}, DataType::F32, {M, K});
    Cur = G.addOp(OpKind::ReLU, {Mm}, DataType::F32, {M, K},
                  referenceImpl());
  }
  G.markOutput(Cur);
  return G;
}

/// Runs \p G once through the serial path and once through submit()/wait,
/// asserting both succeed and produce bit-identical outputs.
void expectAsyncMatchesSerial(const Graph &G, int Threads,
                              bool SplitPartitions, uint64_t Seed,
                              size_t MinPartitions = 2) {
  core::CompileOptions Opts;
  Opts.Threads = Threads;
  Opts.SplitIndependentPartitions = SplitPartitions;
  api::Session S(Opts);
  auto CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  const api::CompiledGraphPtr CG = *CompiledOr;
  EXPECT_GE(CG->numPartitions(), MinPartitions);

  std::vector<runtime::TensorData> Ins;
  std::vector<runtime::TensorData *> InPtrs;
  Rng R(Seed);
  for (int64_t In : G.inputs()) {
    const LogicalTensor &T = G.tensor(In);
    Ins.emplace_back(T.Ty, T.Shape);
    Ins.back().fillRandom(R);
    if (T.Ty == DataType::F32) {
      float *P = Ins.back().dataAs<float>();
      for (int64_t I = 0, E = Ins.back().numElements(); I < E; ++I)
        P[I] *= 0.5f;
    }
  }
  for (auto &T : Ins)
    InPtrs.push_back(&T);

  std::vector<runtime::TensorData> SerialOuts, AsyncOuts;
  std::vector<runtime::TensorData *> SerialPtrs, AsyncPtrs;
  for (int64_t Out : G.outputs()) {
    const LogicalTensor &T = G.tensor(Out);
    SerialOuts.emplace_back(T.Ty, T.Shape);
    AsyncOuts.emplace_back(T.Ty, T.Shape);
  }
  for (auto &T : SerialOuts)
    SerialPtrs.push_back(&T);
  for (auto &T : AsyncOuts)
    AsyncPtrs.push_back(&T);

  api::Stream Str = S.stream();
  ASSERT_TRUE(Str.execute(*CG, InPtrs, SerialPtrs).isOk());
  api::Event E = Str.submit(CG, InPtrs, AsyncPtrs);
  ASSERT_TRUE(E.wait().isOk());
  EXPECT_TRUE(E.query());

  for (size_t I = 0; I < SerialOuts.size(); ++I)
    EXPECT_EQ(std::memcmp(SerialOuts[I].data(), AsyncOuts[I].data(),
                          static_cast<size_t>(SerialOuts[I].numBytes())),
              0)
        << "output " << I << " differs between serial and async";
}

//===----------------------------------------------------------------------===//
// Split-independent partitioning & the dependency DAG
//===----------------------------------------------------------------------===//

TEST(AsyncPartitioner, SplitSeparatesIndependentBranches) {
  Graph G = buildTwoBranchGraph();
  api::Partitioner P(G);

  auto Merged = P.partition(/*SplitIndependent=*/false);
  ASSERT_TRUE(Merged.hasValue()) << Merged.status().toString();
  EXPECT_EQ(Merged->size(), 1u);

  auto Split = P.partition(/*SplitIndependent=*/true);
  ASSERT_TRUE(Split.hasValue()) << Split.status().toString();
  ASSERT_EQ(Split->size(), 2u);
  EXPECT_EQ((*Split)[0].Kind, api::PartitionKind::Compiled);
  EXPECT_EQ((*Split)[1].Kind, api::PartitionKind::Compiled);
  EXPECT_EQ((*Split)[0].OpIds.size(), 3u);
  EXPECT_EQ((*Split)[1].OpIds.size(), 3u);
}

TEST(AsyncPartitioner, RejoiningBranchesStayOnePartition) {
  // Within one kind-group a rejoining diamond is connected through its
  // join op, so the split policy must keep it whole (the fusion scope).
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {8, 8}, "x");
  G.markInput(X);
  const int64_t A = G.addOp(OpKind::ReLU, {X}, DataType::F32, {8, 8});
  const int64_t B = G.addOp(OpKind::Abs, {X}, DataType::F32, {8, 8});
  G.markOutput(G.addOp(OpKind::Add, {A, B}, DataType::F32, {8, 8}));
  api::Partitioner P(G);
  auto Split = P.partition(/*SplitIndependent=*/true);
  ASSERT_TRUE(Split.hasValue()) << Split.status().toString();
  EXPECT_EQ(Split->size(), 1u);
}

TEST(AsyncPlan, TwoBranchDagHasTwoRoots) {
  core::CompileOptions Opts;
  Opts.SplitIndependentPartitions = true;
  api::Session S(Opts);
  auto CG = S.compile(buildTwoBranchGraph());
  ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  ASSERT_EQ((*CG)->numPartitions(), 2u);
  EXPECT_EQ((*CG)->partitionPredecessorCount(0), 0u);
  EXPECT_EQ((*CG)->partitionPredecessorCount(1), 0u);
  EXPECT_TRUE((*CG)->partitionSuccessors(0).empty());
  EXPECT_TRUE((*CG)->partitionSuccessors(1).empty());
  // Both branch results are graph outputs: no arena intermediates.
  EXPECT_EQ((*CG)->numIntermediateTensors(), 0u);
  EXPECT_EQ((*CG)->scratchArenaBytes(), 0u);
}

TEST(AsyncPlan, DiamondDagEdges) {
  core::CompileOptions Opts;
  Opts.SplitIndependentPartitions = true;
  api::Session S(Opts);
  auto CG = S.compile(buildDiamondGraph());
  ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  ASSERT_EQ((*CG)->numPartitions(), 3u);
  // Two compiled branch roots feeding the fallback join.
  size_t Roots = 0, Joins = 0;
  for (size_t I = 0; I < 3; ++I) {
    if ((*CG)->partitionPredecessorCount(I) == 0) {
      ++Roots;
      ASSERT_EQ((*CG)->partitionSuccessors(I).size(), 1u);
    } else {
      ++Joins;
      EXPECT_EQ((*CG)->partitionPredecessorCount(I), 2u);
      EXPECT_TRUE((*CG)->partitionSuccessors(I).empty());
    }
  }
  EXPECT_EQ(Roots, 2u);
  EXPECT_EQ(Joins, 1u);
  // The two branch results cross partitions: packed into the arena.
  EXPECT_EQ((*CG)->numIntermediateTensors(), 2u);
  EXPECT_GT((*CG)->scratchArenaBytes(), 0u);
}

TEST(AsyncPlan, ChainIntermediatesShareArenaSlots) {
  // In a long alternating chain, intermediate k is dead before
  // intermediate k+2's producer runs under every DAG-consistent
  // schedule, so lifetime packing must beat the no-reuse footprint.
  api::Session S;
  auto CG = S.compile(buildPinnedChainGraph(16, 32, /*Layers=*/4));
  ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  ASSERT_GE((*CG)->numPartitions(), 4u);
  EXPECT_GE((*CG)->numIntermediateTensors(), 4u);
  EXPECT_GT((*CG)->scratchArenaBytes(), 0u);
  EXPECT_LT((*CG)->scratchArenaBytes(), (*CG)->scratchArenaBytesNoReuse());
}

//===----------------------------------------------------------------------===//
// Event semantics
//===----------------------------------------------------------------------===//

TEST(AsyncEvent, DefaultConstructedIsCompleteAndOk) {
  api::Event E;
  EXPECT_FALSE(E.valid());
  EXPECT_TRUE(E.query());
  EXPECT_TRUE(E.wait().isOk());
}

TEST(AsyncEvent, SinglePartitionSubmitCompletesSynchronously) {
  api::Session S;
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 4}, "x");
  G.markInput(X);
  G.markOutput(G.addOp(OpKind::ReLU, {X}, DataType::F32, {4, 4}));
  auto CG = S.compile(G);
  ASSERT_TRUE(CG.hasValue());
  runtime::TensorData In = test::randomTensor(DataType::F32, {4, 4}, 5);
  runtime::TensorData Out(DataType::F32, {4, 4});
  api::Event E = S.stream().submit(*CG, {&In}, {&Out});
  EXPECT_TRUE(E.valid());
  EXPECT_TRUE(E.query()) << "single-partition submit must complete inline";
  EXPECT_TRUE(E.wait().isOk());
}

TEST(AsyncEvent, ArgumentErrorsSurfaceThroughTheEvent) {
  core::CompileOptions Opts;
  Opts.SplitIndependentPartitions = true;
  Opts.Threads = 2;
  api::Session S(Opts);
  auto CG = S.compile(buildTwoBranchGraph());
  ASSERT_TRUE(CG.hasValue());
  ASSERT_EQ((*CG)->numPartitions(), 2u);

  runtime::TensorData In1 = test::randomTensor(DataType::F32, {16, 24}, 7);
  runtime::TensorData WrongShape(DataType::F32, {3, 3});
  runtime::TensorData O1(DataType::F32, {16, 20}), O2(DataType::F32,
                                                      {20, 24});
  // Wrong arity.
  api::Event E1 = S.stream().submit(*CG, {&In1}, {&O1, &O2});
  EXPECT_TRUE(E1.query());
  EXPECT_EQ(E1.wait().code(), StatusCode::InvalidArgument);
  // Wrong input shape.
  api::Event E2 = S.stream().submit(*CG, {&In1, &WrongShape}, {&O1, &O2});
  EXPECT_EQ(E2.wait().code(), StatusCode::InvalidArgument);
  // Null graph.
  api::Event E3 = S.stream().submit(nullptr, {}, {});
  EXPECT_EQ(E3.wait().code(), StatusCode::InvalidArgument);
}

TEST(AsyncEvent, DroppingTheEventDoesNotLoseTheExecution) {
  // The submission self-reference must keep the run alive (and its
  // buffers valid) when the caller discards the Event immediately. The
  // dropped run's completion is observed by polling its output buffer;
  // a second, waited submission pins the expected values.
  core::CompileOptions Opts;
  Opts.SplitIndependentPartitions = true;
  Opts.Threads = 2;
  api::Session S(Opts);
  Graph G = buildTwoBranchGraph();
  auto CG = S.compile(G);
  ASSERT_TRUE(CG.hasValue());

  runtime::TensorData A1 = test::randomTensor(DataType::F32, {16, 24}, 61);
  runtime::TensorData A2 = test::randomTensor(DataType::F32, {20, 16}, 62);
  runtime::TensorData O1(DataType::F32, {16, 20}), O2(DataType::F32,
                                                      {20, 24});
  O1.fillConstant(-1.0); // branch output is relu'd: never negative
  O2.fillConstant(-1.0);
  api::Stream Str = S.stream();
  { api::Event Dropped = Str.submit(*CG, {&A1, &A2}, {&O1, &O2}); }
  runtime::TensorData P1(DataType::F32, {16, 20}), P2(DataType::F32,
                                                      {20, 24});
  api::Event E = Str.submit(*CG, {&A1, &A2}, {&P1, &P2});
  ASSERT_TRUE(E.wait().isOk());
  // Submission::inFlight() is the race-free completion probe for the
  // dropped run: its release-decrement publishes the output writes, so
  // once the count drains the buffers are safe to read (bounded at ~5s,
  // far beyond any plausible completion time).
  for (int Spin = 0; Spin < 5000 && api::detail::Submission::inFlight() > 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(api::detail::Submission::inFlight(), 0u);
  EXPECT_EQ(maxAbsDiff(O1, P1), 0.0);
  EXPECT_EQ(maxAbsDiff(O2, P2), 0.0);
}

TEST(AsyncEvent, DroppingEverySessionHandleMidFlightIsSafe) {
  // The submission is the last owner of the session's pool once Event,
  // Stream and Session are gone; its final release then happens on a
  // pool worker and must be handed off (reaper) instead of running
  // ~ThreadPool on the worker it would join. Survival of this test (no
  // std::terminate) plus the eventually-written outputs is the assert.
  runtime::TensorData A1 = test::randomTensor(DataType::F32, {16, 24}, 71);
  runtime::TensorData A2 = test::randomTensor(DataType::F32, {20, 16}, 72);
  runtime::TensorData O1(DataType::F32, {16, 20});
  runtime::TensorData O2(DataType::F32, {20, 24});
  O1.fillConstant(-1.0); // branch outputs are relu'd: never negative
  {
    core::CompileOptions Opts;
    Opts.SplitIndependentPartitions = true;
    Opts.Threads = 2;
    api::Session S(Opts);
    auto CG = S.compile(buildTwoBranchGraph());
    ASSERT_TRUE(CG.hasValue());
    api::Stream Str = S.stream();
    { api::Event Dropped = Str.submit(*CG, {&A1, &A2}, {&O1, &O2}); }
    // Session, Stream and CompiledGraph handles all die here while the
    // submission may still be in flight.
  }
  // No handle is left to wait on; Submission::inFlight() draining to 0
  // is the race-free signal that the orphaned run finished writing O1/O2
  // (and that destroying them below cannot race with it).
  for (int Spin = 0; Spin < 5000 && api::detail::Submission::inFlight() > 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(api::detail::Submission::inFlight(), 0u)
      << "submission never completed";
  EXPECT_GE(O1.dataAs<float>()[0], 0.0f) << "submission never completed";
}

//===----------------------------------------------------------------------===//
// Async vs serial differential sweep (bit-identical)
//===----------------------------------------------------------------------===//

TEST(AsyncDifferential, TwoBranchShapesMatchSerialBitwise) {
  // Ragged and aligned branch shapes, 1 and 4 threads.
  const int64_t Shapes[][3] = {
      {7, 11, 13}, {16, 16, 16}, {17, 23, 29}, {1, 64, 64}, {32, 13, 48},
  };
  for (const auto &Sh : Shapes)
    for (int Threads : {1, 4})
      expectAsyncMatchesSerial(buildTwoBranchGraph(Sh[0], Sh[1], Sh[2]),
                               Threads, /*SplitPartitions=*/true,
                               static_cast<uint64_t>(Sh[0] * 7 + Threads));
}

TEST(AsyncDifferential, DiamondAndChainMatchSerialBitwise) {
  for (int Threads : {1, 4}) {
    expectAsyncMatchesSerial(buildDiamondGraph(12, 16, 24), Threads,
                             /*SplitPartitions=*/true, 77, 3);
    expectAsyncMatchesSerial(buildDiamondGraph(5, 3, 61), Threads,
                             /*SplitPartitions=*/true, 78, 3);
    expectAsyncMatchesSerial(buildPinnedChainGraph(16, 32, 4), Threads,
                             /*SplitPartitions=*/false, 79, 5);
    expectAsyncMatchesSerial(buildPinnedChainGraph(7, 19, 3), Threads,
                             /*SplitPartitions=*/false, 80, 4);
  }
}

//===----------------------------------------------------------------------===//
// Overlapping-submission stress
//===----------------------------------------------------------------------===//

TEST(AsyncStress, EightThreadsSubmitTheSameCompiledGraph) {
  constexpr int NumThreads = 8;
  constexpr int PerThread = 4;
  core::CompileOptions Opts;
  Opts.Threads = 4;
  Opts.SplitIndependentPartitions = true;
  api::Session S(Opts);
  Graph G = buildDiamondGraph(16, 24, 32);
  auto CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  const api::CompiledGraphPtr CG = *CompiledOr;
  ASSERT_EQ(CG->numPartitions(), 3u);

  // Prewarm the ExecState lease pools: the burst below should mostly
  // recycle states instead of building one per in-flight submission.
  for (size_t I = 0; I < CG->numPartitions(); ++I)
    if (auto CP = CG->compiledPartition(I))
      CP->prewarmExecStates(4);

  // Per-(thread, iteration) inputs/outputs and reference results.
  std::vector<runtime::TensorData> Ins(NumThreads);
  std::vector<runtime::TensorData> Want(NumThreads);
  for (int T = 0; T < NumThreads; ++T) {
    Ins[T] = test::randomTensor(DataType::F32, {16, 24},
                                300 + static_cast<uint64_t>(T));
    TensorMap Env;
    Env[G.inputs()[0]] = Ins[T].clone();
    Want[T] = std::move(runGraphReference(G, std::move(Env))[0]);
  }

  std::vector<std::vector<runtime::TensorData>> Outs(NumThreads);
  std::vector<int> Failures(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Outs[T].reserve(PerThread);
    for (int I = 0; I < PerThread; ++I)
      Outs[T].emplace_back(DataType::F32, std::vector<int64_t>{16, 32});
  }
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      api::Stream Str = S.stream();
      std::vector<api::Event> Events;
      // All submissions in flight before the first wait: up to
      // NumThreads * PerThread concurrent executions of one graph.
      for (int I = 0; I < PerThread; ++I)
        Events.push_back(
            Str.submit(CG, {&Ins[T]}, {&Outs[T][static_cast<size_t>(I)]}));
      for (api::Event &E : Events)
        if (!E.wait().isOk())
          ++Failures[T];
      for (int I = 0; I < PerThread; ++I)
        if (runtime::maxAbsDiff(Outs[T][static_cast<size_t>(I)], Want[T]) >
            test::kF32LooseTol)
          ++Failures[T];
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;

  // The lease pools recycled states instead of growing unboundedly.
  for (size_t I = 0; I < CG->numPartitions(); ++I)
    if (auto CP = CG->compiledPartition(I)) {
      EXPECT_LE(CP->idleExecStates(), 8u) << "partition " << I;
    }
}

//===----------------------------------------------------------------------===//
// Cancellation of a fully-unstarted submission
//===----------------------------------------------------------------------===//

// A submission whose root tasks are parked in the queue behind busy
// workers must report Cancelled from cancel() itself, not only when a
// worker finally pops the tasks and observes the flag at a partition
// boundary.
TEST(CancelUnstarted, CompletesPromptlyWhileWorkersAreBusy) {
  core::CompileOptions Opts;
  Opts.Threads = 4;
  Opts.SplitIndependentPartitions = true;
  api::Session S(Opts);
  auto CompiledOr = S.compile(buildTwoBranchGraph());
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  const api::CompiledGraphPtr CG = *CompiledOr;
  ASSERT_GE(CG->numPartitions(), 2u);

  // Occupy every worker (and stuff the queue) with tasks that spin until
  // released, so the submission below cannot start a single partition.
  static std::atomic<bool> Release{false};
  static std::atomic<int> Blocked{0};
  Release.store(false);
  Blocked.store(0);
  const int NumBlockers = S.threadPool().numThreads() + 2;
  for (int I = 0; I < NumBlockers; ++I)
    S.threadPool().submitTask(
        [](void *) {
          Blocked.fetch_add(1);
          while (!Release.load(std::memory_order_acquire))
            std::this_thread::yield();
        },
        nullptr);
  // Wait until the spawned workers are actually inside blocker bodies
  // (the pool has numThreads()-1 spawned workers; the caller is the
  // Nth participant and is running this test).
  const int SpawnedWorkers = S.threadPool().numThreads() - 1;
  while (Blocked.load() < SpawnedWorkers)
    std::this_thread::yield();

  runtime::TensorData InA = test::randomTensor(DataType::F32, {16, 24}, 61);
  runtime::TensorData InB = test::randomTensor(DataType::F32, {20, 16}, 62);
  runtime::TensorData OutA(DataType::F32, {16, 20});
  runtime::TensorData OutB(DataType::F32, {20, 24});
  api::Stream Str = S.stream();
  api::Event E = Str.submit(CG, {&InA, &InB}, {&OutA, &OutB});
  ASSERT_FALSE(E.query()) << "submission ran despite a blocked pool";

  // cancel() on the fully-unstarted submission completes it immediately:
  // no polling loop, no releasing the workers first.
  EXPECT_TRUE(E.cancel());
  EXPECT_TRUE(E.query())
      << "unstarted submission not complete right after cancel()";
  Release.store(true, std::memory_order_release);
  const Status St = E.wait();
  EXPECT_EQ(St.code(), StatusCode::Cancelled) << St.toString();
  EXPECT_GE(S.healthStats().Cancellations, 1u);

  // The parked no-op tasks must still drain and retire the submission
  // (arena + self-reference released) — not just mark it done.
  for (int I = 0; I < 2000 && api::detail::Submission::inFlight() > 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(api::detail::Submission::inFlight(), 0u);
}

} // namespace
