//===- test_fault_injection.cpp - Runtime fault-tolerance chaos suite -----===//
//
// The fault-tolerance contract of the execution stack, exercised through
// deterministic fault injection (support/fault.h): for every registered
// fault site, a forced failure must surface as a located Status (or be
// absorbed by a graceful-degradation axis) — never a crash, hang or leak —
// and the very next execution on the same Session must succeed with
// correct outputs. On top of the per-site one-shot sweep: a seeded
// probabilistic soak, deadline/cancellation semantics of Stream::submit()
// and Event, GC_MEM_LIMIT resource governance at the PlanArena and
// specialization-cache grow points, the bounded artifact-cache lock wait,
// and a Session/Stream destruction-race stress with mid-flight drops.
//
//===----------------------------------------------------------------------===//

#include "api/scheduler.h"
#include "api/session.h"
#include "core/artifact.h"
#include "graph/reference.h"
#include "runtime/artifact_cache.h"
#include "runtime/buffer.h"
#include "runtime/mapped_file.h"
#include "support/fault.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gc;
using namespace gc::graph;

namespace {

//===----------------------------------------------------------------------===//
// Scoped helpers
//===----------------------------------------------------------------------===//

/// Arms a fault spec for the scope and guarantees disarm on exit, so a
/// failing assertion can never leak an armed spec into the next test.
struct FaultScope {
  explicit FaultScope(const std::string &Spec, uint64_t Seed = 0) {
    const Status S = fault::configure(Spec, Seed);
    EXPECT_TRUE(S.isOk()) << S.toString();
  }
  ~FaultScope() { fault::reset(); }
};

/// Overrides GC_MEM_LIMIT via the test seam for the scope.
struct BudgetScope {
  explicit BudgetScope(int64_t Bytes) {
    runtime::MemBudget::setLimitForTesting(Bytes);
  }
  ~BudgetScope() { runtime::MemBudget::setLimitForTesting(0); }
};

/// Sets an environment variable for the scope, restoring the old value.
struct EnvScope {
  std::string Name, Old;
  bool HadOld = false;
  EnvScope(const char *N, const char *Value) : Name(N) {
    if (const char *P = std::getenv(N)) {
      Old = P;
      HadOld = true;
    }
    ::setenv(N, Value, 1);
  }
  ~EnvScope() {
    if (HadOld)
      ::setenv(Name.c_str(), Old.c_str(), 1);
    else
      ::unsetenv(Name.c_str());
  }
};

/// A mkdtemp'd cache directory, emptied and removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Tmpl[] = "/tmp/gc_fault_test_XXXXXX";
    const char *P = mkdtemp(Tmpl);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    if (Path.empty())
      return;
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Path.c_str());
  }
};

//===----------------------------------------------------------------------===//
// Graph builders (idioms shared with the async scheduler tests)
//===----------------------------------------------------------------------===//

AttrMap referenceImpl() { return {{"impl", std::string("reference")}}; }

/// Diamond DAG: two compiled matmul branches over one input rejoin in a
/// reference-pinned Add — multiple partitions, cross-partition
/// intermediates, a fallback join.
Graph buildDiamondGraph(int64_t M = 12, int64_t K = 16, int64_t N = 24) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W1 =
      G.addTensor(DataType::F32, {K, N}, "w1", TensorProperty::Constant);
  G.setConstantData(W1, test::randomTensor(DataType::F32, {K, N}, 31));
  const int64_t W2 =
      G.addTensor(DataType::F32, {K, N}, "w2", TensorProperty::Constant);
  G.setConstantData(W2, test::randomTensor(DataType::F32, {K, N}, 32));
  const int64_t B1 = G.addOp(OpKind::MatMul, {X, W1}, DataType::F32, {M, N});
  const int64_t B2 = G.addOp(OpKind::MatMul, {X, W2}, DataType::F32, {M, N});
  const int64_t R1 = G.addOp(OpKind::ReLU, {B1}, DataType::F32, {M, N});
  G.markOutput(
      G.addOp(OpKind::Add, {R1, B2}, DataType::F32, {M, N}, referenceImpl()));
  return G;
}

/// Chain of matmul+relu layers with every relu pinned to the interpreter:
/// a long partition dependency chain (one matmul partition + one fallback
/// partition per layer). \p Batch may be LogicalTensor::kDynamicDim.
Graph buildPinnedChainGraph(int64_t Batch, int64_t K, int Layers,
                            uint64_t Seed = 41) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {Batch, K}, "x");
  G.markInput(X);
  int64_t Cur = X;
  for (int L = 0; L < Layers; ++L) {
    const int64_t W =
        G.addTensor(DataType::F32, {K, K}, "w" + std::to_string(L),
                    TensorProperty::Constant);
    runtime::TensorData WData = test::randomTensor(
        DataType::F32, {K, K}, Seed + static_cast<uint64_t>(L));
    // Normalize so deep chains keep O(1) magnitudes — otherwise float
    // rounding differences between execution orders swamp any tolerance.
    float *WPtr = WData.dataAs<float>();
    const float Scale = 1.0f / std::sqrt(static_cast<float>(K));
    for (int64_t I = 0, E = WData.numElements(); I < E; ++I)
      WPtr[I] *= Scale;
    G.setConstantData(W, std::move(WData));
    const int64_t Mm =
        G.addOp(OpKind::MatMul, {Cur, W}, DataType::F32, {Batch, K});
    Cur = G.addOp(OpKind::ReLU, {Mm}, DataType::F32, {Batch, K},
                  referenceImpl());
  }
  G.markOutput(Cur);
  return G;
}

/// Single-partition MLP: out = relu(X * W + B).
Graph buildMlpGraph(int64_t M = 16, int64_t K = 24, int64_t N = 20,
                    uint64_t Seed = 7) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W =
      G.addTensor(DataType::F32, {K, N}, "w", TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {K, N}, Seed));
  const int64_t B =
      G.addTensor(DataType::F32, {N}, "b", TensorProperty::Constant);
  G.setConstantData(B, test::randomTensor(DataType::F32, {N}, Seed + 1));
  const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {M, N});
  const int64_t Biased = G.addOp(OpKind::Add, {Mm, B}, DataType::F32, {M, N});
  G.markOutput(G.addOp(OpKind::ReLU, {Biased}, DataType::F32, {M, N}));
  return G;
}

/// Deterministic inputs for \p G (slightly damped so relu/softmax chains
/// stay well-conditioned).
std::vector<runtime::TensorData> makeInputs(const Graph &G, uint64_t Seed) {
  std::vector<runtime::TensorData> Ins;
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
  return Ins;
}

std::vector<runtime::TensorData *> ptrs(std::vector<runtime::TensorData> &V) {
  std::vector<runtime::TensorData *> P;
  for (auto &T : V)
    P.push_back(&T);
  return P;
}

/// Ground-truth outputs of \p G on \p Ins via the reference interpreter.
std::vector<runtime::TensorData>
referenceOutputs(const Graph &G, std::vector<runtime::TensorData> &Ins) {
  TensorMap Env;
  const std::vector<int64_t> &InIds = G.inputs();
  for (size_t I = 0; I < InIds.size(); ++I)
    Env[InIds[I]] = runtime::TensorData::view(
        Ins[I].dtype(), Ins[I].shape(), Ins[I].data());
  return runGraphReference(G, std::move(Env));
}

/// Fresh zero output buffers matching \p G's declared outputs.
std::vector<runtime::TensorData> makeOutputs(const Graph &G) {
  std::vector<runtime::TensorData> Outs;
  for (int64_t Out : G.outputs()) {
    const LogicalTensor &T = G.tensor(Out);
    Outs.emplace_back(T.Ty, T.Shape);
  }
  return Outs;
}

void expectClose(const std::vector<runtime::TensorData> &Got,
                 const std::vector<runtime::TensorData> &Want,
                 const char *What, double Tol = test::kF32Tol) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I < Got.size(); ++I) {
    ASSERT_EQ(Got[I].numElements(), Want[I].numElements()) << What;
    const float *A = Got[I].dataAs<float>();
    const float *B = Want[I].dataAs<float>();
    for (int64_t E = 0; E < Got[I].numElements(); ++E)
      ASSERT_NEAR(A[E], B[E], Tol * (1.0 + std::abs(double(B[E]))))
          << What << ": output " << I << " element " << E;
  }
}

bool isLocatedInjection(const Status &S) {
  return S.message().find("injected fault at ") != std::string::npos;
}

/// Waits until no submission from any earlier test is still retiring, so
/// process-global MemBudget accounting is quiescent before a budget test
/// takes a snapshot.
void drainInFlight() {
  for (int Spin = 0; Spin < 5000 && api::detail::Submission::inFlight() > 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(api::detail::Submission::inFlight(), 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
// The fault framework itself
//===----------------------------------------------------------------------===//

TEST(FaultFramework, GrammarAndArming) {
  // Under the CI chaos leg the whole process starts with GC_FAULT armed
  // from the environment, so only assert the disarmed baseline without it.
  const bool EnvArmed = std::getenv("GC_FAULT") != nullptr;
  if (!EnvArmed) {
    EXPECT_FALSE(fault::armed());
  }
  {
    FaultScope F("arena.grow:2,pool.submit:p0.5");
    EXPECT_TRUE(fault::armed());
  }
  EXPECT_FALSE(fault::armed());

  EXPECT_EQ(fault::configure("nonsense.site:1").code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(fault::configure("arena.grow:0").code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(fault::configure("arena.grow:p1.5").code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(fault::configure("arena.grow").code(),
            StatusCode::InvalidArgument);
  // A rejected spec never arms.
  EXPECT_FALSE(fault::armed());
  fault::reset();
}

TEST(FaultFramework, EveryNthCountsDeterministically) {
  FaultScope F("pool.submit:2");
  std::vector<bool> Got;
  for (int I = 0; I < 6; ++I)
    Got.push_back(fault::shouldFail(fault::kPoolSubmit));
  EXPECT_EQ(Got, (std::vector<bool>{false, true, false, true, false, true}));
  // Unrelated sites are untouched.
  EXPECT_FALSE(fault::shouldFail(fault::kArenaGrow));
  const fault::SiteStats S = fault::stats(fault::kPoolSubmit);
  EXPECT_EQ(S.Hits, 6u);
  EXPECT_EQ(S.Injected, 3u);
  EXPECT_EQ(fault::totalInjected(), 3u);
}

TEST(FaultFramework, ProbabilisticStreamsAreSeedDeterministic) {
  auto sample = [](uint64_t Seed) {
    std::vector<bool> V;
    EXPECT_TRUE(fault::configure("*:p0.5", Seed).isOk());
    for (int I = 0; I < 64; ++I)
      V.push_back(fault::shouldFail(fault::kExecState));
    fault::reset();
    return V;
  };
  const std::vector<bool> A = sample(42), B = sample(42), C = sample(43);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  const size_t Injected =
      static_cast<size_t>(std::count(A.begin(), A.end(), true));
  EXPECT_GT(Injected, 8u);
  EXPECT_LT(Injected, 56u);
}

TEST(FaultFramework, WildcardCoversEveryRegisteredSite) {
  FaultScope F("*:1");
  for (const char *Site : fault::allSites())
    EXPECT_TRUE(fault::shouldFail(Site)) << Site;
}

//===----------------------------------------------------------------------===//
// One-shot chaos sweep: every site, serial and async, with recovery
//===----------------------------------------------------------------------===//

namespace {

/// For every registered fault site: arm `<site>:1` (every evaluation
/// fails), run, and require either success (a degradation axis absorbed
/// it) or a located injected-fault Status. Then disarm and require the
/// SAME session to execute cleanly with reference-correct outputs.
void sweepAllSites(bool Async, int Threads) {
  const Graph G = buildDiamondGraph();
  std::vector<runtime::TensorData> Ins = makeInputs(G, 97);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);

  for (const char *Site : fault::allSites()) {
    SCOPED_TRACE(std::string(Async ? "async/" : "serial/") + Site +
                 "/threads=" + std::to_string(Threads));
    core::CompileOptions Opts;
    Opts.Threads = Threads;
    Opts.SplitIndependentPartitions = Async;
    api::Session S(Opts);
    api::Stream Str = S.stream();

    Status Got = Status::ok();
    {
      FaultScope F(std::string(Site) + ":1");
      auto CGOr = S.compile(G);
      if (!CGOr) {
        Got = CGOr.status();
      } else {
        std::vector<runtime::TensorData> Outs = makeOutputs(G);
        std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
        if (Async) {
          api::Event E = Str.submit(*CGOr, ptrs(Ins), OutPtrs);
          Got = E.wait();
          EXPECT_TRUE(E.query());
        } else {
          Got = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
        }
      }
      if (!Got.isOk()) {
        EXPECT_TRUE(isLocatedInjection(Got))
            << "unlocated failure: " << Got.toString();
      }
    }

    // Recovery: the same session must serve the next compile+execute.
    auto CGOr = S.compile(G);
    ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
    std::vector<runtime::TensorData> Outs = makeOutputs(G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    Status After;
    if (Async)
      After = Str.submit(*CGOr, ptrs(Ins), OutPtrs).wait();
    else
      After = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
    ASSERT_TRUE(After.isOk()) << After.toString();
    expectClose(Outs, Want, Site);
  }
}

} // namespace

TEST(ChaosSweep, SerialOneShotEverySite) { sweepAllSites(false, 1); }

TEST(ChaosSweep, AsyncOneShotEverySiteOneThread) { sweepAllSites(true, 1); }

TEST(ChaosSweep, AsyncOneShotEverySiteFourThreads) { sweepAllSites(true, 4); }

//===----------------------------------------------------------------------===//
// Probabilistic soak: seeded 30% failure across all sites
//===----------------------------------------------------------------------===//

namespace {

void probabilisticSoak(bool Async, int Threads, uint64_t Seed) {
  const Graph G = buildDiamondGraph();
  std::vector<runtime::TensorData> Ins = makeInputs(G, 131);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);

  core::CompileOptions Opts;
  Opts.Threads = Threads;
  Opts.SplitIndependentPartitions = Async;
  api::Session S(Opts);
  api::Stream Str = S.stream();

  size_t Successes = 0;
  {
    FaultScope F("*:p0.3", Seed);
    for (int Iter = 0; Iter < 30; ++Iter) {
      auto CGOr = S.compile(G);
      Status Got;
      if (!CGOr) {
        Got = CGOr.status();
      } else {
        std::vector<runtime::TensorData> Outs = makeOutputs(G);
        std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
        Got = Async ? Str.submit(*CGOr, ptrs(Ins), OutPtrs).wait()
                    : Str.execute(**CGOr, ptrs(Ins), OutPtrs);
        if (Got.isOk()) {
          ++Successes;
          expectClose(Outs, Want, "soak success iteration");
        }
      }
      if (!Got.isOk()) {
        ASSERT_TRUE(isLocatedInjection(Got))
            << "unlocated failure: " << Got.toString();
      }
    }
    EXPECT_GT(fault::totalInjected(), 0u);
  }

  // Disarmed, the session must be fully healthy again.
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  std::vector<runtime::TensorData> Outs = makeOutputs(G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  const Status After = Async
                           ? Str.submit(*CGOr, ptrs(Ins), OutPtrs).wait()
                           : Str.execute(**CGOr, ptrs(Ins), OutPtrs);
  ASSERT_TRUE(After.isOk()) << After.toString();
  expectClose(Outs, Want, "post-soak recovery");
}

} // namespace

TEST(ChaosSoak, SerialProbabilistic) { probabilisticSoak(false, 1, 7); }

TEST(ChaosSoak, AsyncProbabilisticOneThread) { probabilisticSoak(true, 1, 7); }

TEST(ChaosSoak, AsyncProbabilisticFourThreads) {
  probabilisticSoak(true, 4, 11);
}

//===----------------------------------------------------------------------===//
// Deadlines and cancellation
//===----------------------------------------------------------------------===//

namespace {

struct AsyncFixture {
  Graph G;
  core::CompileOptions Opts;
  std::unique_ptr<api::Session> S;
  api::CompiledGraphPtr CG;
  std::vector<runtime::TensorData> Ins;
  std::vector<runtime::TensorData> Want;

  explicit AsyncFixture(Graph Graph_, int Threads = 2)
      : G(std::move(Graph_)) {
    Opts.Threads = Threads;
    Opts.SplitIndependentPartitions = true;
    S = std::make_unique<api::Session>(Opts);
    auto CGOr = S->compile(G);
    EXPECT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
    if (CGOr)
      CG = *CGOr;
    Ins = makeInputs(G, 173);
    Want = referenceOutputs(G, Ins);
  }

  /// Clean run without options; asserts success + reference outputs.
  void expectCleanRun() {
    std::vector<runtime::TensorData> Outs = makeOutputs(G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    api::Stream Str = S->stream();
    const Status After = Str.submit(CG, ptrs(Ins), OutPtrs).wait();
    ASSERT_TRUE(After.isOk()) << After.toString();
    expectClose(Outs, Want, "clean run", test::kF32LooseTol);
  }
};

} // namespace

TEST(Deadline, NegativeTimeoutAlreadyExpiredAtSubmit) {
  AsyncFixture Fx(buildPinnedChainGraph(16, 16, 3));
  ASSERT_NE(Fx.CG, nullptr);
  std::vector<runtime::TensorData> Outs = makeOutputs(Fx.G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  api::Stream Str = Fx.S->stream();
  api::SubmitOptions SubOpts;
  SubOpts.TimeoutMs = -1;
  api::Event E = Str.submit(Fx.CG, ptrs(Fx.Ins), OutPtrs, SubOpts);
  EXPECT_TRUE(E.query());
  EXPECT_EQ(E.wait().code(), StatusCode::DeadlineExceeded);
  EXPECT_GE(Fx.S->healthStats().DeadlinesExceeded, 1u);
  Fx.expectCleanRun();
}

TEST(Deadline, ExpiresAtPartitionBoundaryMidFlight) {
  // Heavy enough that a 1 ms deadline expires while the 48-partition
  // chain is still draining; partitions not yet started are abandoned.
  AsyncFixture Fx(buildPinnedChainGraph(192, 192, 24));
  ASSERT_NE(Fx.CG, nullptr);
  ASSERT_GE(Fx.CG->numPartitions(), 2u);
  api::Stream Str = Fx.S->stream();

  bool SawDeadline = false;
  for (int Attempt = 0; Attempt < 5 && !SawDeadline; ++Attempt) {
    std::vector<runtime::TensorData> Outs = makeOutputs(Fx.G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    api::SubmitOptions SubOpts;
    SubOpts.TimeoutMs = 1;
    api::Event E = Str.submit(Fx.CG, ptrs(Fx.Ins), OutPtrs, SubOpts);
    const Status S = E.wait();
    ASSERT_TRUE(S.isOk() || S.code() == StatusCode::DeadlineExceeded)
        << S.toString();
    SawDeadline = S.code() == StatusCode::DeadlineExceeded;
  }
  EXPECT_TRUE(SawDeadline)
      << "a 1 ms deadline never expired across 5 heavy submissions";
  EXPECT_GE(Fx.S->healthStats().DeadlinesExceeded, 1u);
  // In-flight partitions drained cleanly; the session recovers.
  Fx.expectCleanRun();
}

TEST(Deadline, WaitForTimesOutWithoutCancelling) {
  AsyncFixture Fx(buildPinnedChainGraph(192, 192, 16));
  ASSERT_NE(Fx.CG, nullptr);
  std::vector<runtime::TensorData> Outs = makeOutputs(Fx.G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  api::Stream Str = Fx.S->stream();
  api::Event E = Str.submit(Fx.CG, ptrs(Fx.Ins), OutPtrs);
  const Status Quick = E.waitFor(0);
  ASSERT_TRUE(Quick.isOk() || Quick.code() == StatusCode::DeadlineExceeded)
      << Quick.toString();
  // Timing out did not cancel: the submission still completes normally
  // and a later wait collects its real (ok) Status.
  const Status Final = E.wait();
  ASSERT_TRUE(Final.isOk()) << Final.toString();
  EXPECT_TRUE(E.query());
  EXPECT_TRUE(E.waitFor(1000).isOk()); // complete events return instantly
  expectClose(Outs, Fx.Want, "waitFor then wait", test::kF32LooseTol);
}

TEST(Cancel, MidFlightCancellationDrainsCleanly) {
  AsyncFixture Fx(buildPinnedChainGraph(192, 192, 16));
  ASSERT_NE(Fx.CG, nullptr);
  api::Stream Str = Fx.S->stream();

  bool SawCancelled = false;
  for (int Attempt = 0; Attempt < 5 && !SawCancelled; ++Attempt) {
    std::vector<runtime::TensorData> Outs = makeOutputs(Fx.G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    api::Event E = Str.submit(Fx.CG, ptrs(Fx.Ins), OutPtrs);
    E.cancel();
    const Status S = E.wait();
    ASSERT_TRUE(S.isOk() || S.code() == StatusCode::Cancelled)
        << S.toString();
    SawCancelled = S.code() == StatusCode::Cancelled;
    // Cancelling a completed submission reports nothing-to-cancel.
    EXPECT_FALSE(E.cancel());
  }
  EXPECT_TRUE(SawCancelled)
      << "cancel() never won the race across 5 heavy submissions";
  EXPECT_GE(Fx.S->healthStats().Cancellations, 1u);
  Fx.expectCleanRun();
}

TEST(Event, DefaultConstructedIsCompleteAndOk) {
  api::Event E;
  EXPECT_FALSE(E.valid());
  EXPECT_TRUE(E.query());
  EXPECT_TRUE(E.wait().isOk());
  EXPECT_TRUE(E.waitFor(0).isOk());
  EXPECT_FALSE(E.cancel());
}

//===----------------------------------------------------------------------===//
// Resource governance: GC_MEM_LIMIT
//===----------------------------------------------------------------------===//

TEST(MemLimit, PlanArenaGrowthGoverned) {
  // Charges are process-global; give this arena 1 KiB of headroom above
  // whatever earlier tests still hold.
  drainInFlight();
  BudgetScope Budget(
      static_cast<int64_t>(runtime::MemBudget::chargedBytes()) + 1024);
  runtime::PlanArena A;
  const Status Big = A.tryEnsure(1 << 20);
  EXPECT_EQ(Big.code(), StatusCode::ResourceExhausted);
  EXPECT_TRUE(A.tryEnsure(256).isOk());
  // A rejected growth never corrupts the arena: it still serves its
  // previous capacity and can re-grow once the budget allows.
  EXPECT_EQ(A.tryEnsure(1 << 20).code(), StatusCode::ResourceExhausted);
  runtime::MemBudget::setLimitForTesting(0);
  EXPECT_TRUE(A.tryEnsure(1 << 20).isOk());
}

TEST(MemLimit, ExecutionFailsLocatedAndRecovers) {
  const Graph G = buildDiamondGraph();
  api::Session S;
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  ASSERT_GT((*CGOr)->scratchArenaBytes(), 0u);
  std::vector<runtime::TensorData> Ins = makeInputs(G, 51);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);
  api::Stream Str = S.stream();

  {
    BudgetScope Budget(1);
    std::vector<runtime::TensorData> Outs = makeOutputs(G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    const Status Got = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
    EXPECT_EQ(Got.code(), StatusCode::ResourceExhausted) << Got.toString();
  }
  EXPECT_GE(S.healthStats().MemLimitRejections, 1u);
  EXPECT_GE(S.healthStats().TransientFailures, 1u);

  std::vector<runtime::TensorData> Outs = makeOutputs(G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  const Status After = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
  ASSERT_TRUE(After.isOk()) << After.toString();
  expectClose(Outs, Want, "post-budget recovery");
}

TEST(MemLimit, SpecializationCacheDegradesToReference) {
  constexpr int64_t kDyn = LogicalTensor::kDynamicDim;
  const int64_t Batch = 8;
  const Graph DynG = buildPinnedChainGraph(kDyn, 16, 2);
  const Graph ExactG = buildPinnedChainGraph(Batch, 16, 2);

  api::Session S;
  auto CGOr = S.compile(DynG);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  ASSERT_TRUE((*CGOr)->isPolymorphic());
  std::vector<runtime::TensorData> Ins = makeInputs(ExactG, 201);
  const std::vector<runtime::TensorData> Want =
      referenceOutputs(ExactG, Ins);
  api::Stream Str = S.stream();

  {
    // Too small to cache a specialization: the execution must still
    // succeed via the reference interpreter, not fail, through execute()
    // and submit() alike.
    BudgetScope Budget(1);
    std::vector<runtime::TensorData> Outs = makeOutputs(ExactG);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    const Status Got = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
    ASSERT_TRUE(Got.isOk()) << Got.toString();
    expectClose(Outs, Want, "degraded reference execution");

    std::vector<runtime::TensorData> SubOuts = makeOutputs(ExactG);
    const Status Sub = Str.submit(*CGOr, ptrs(Ins), ptrs(SubOuts)).wait();
    ASSERT_TRUE(Sub.isOk()) << Sub.toString();
    expectClose(SubOuts, Want, "degraded reference submission");
  }
  EXPECT_EQ((*CGOr)->numSpecializations(), 0u);
  EXPECT_GE(S.healthStats().DegradedToReference, 2u);
  EXPECT_GE(S.healthStats().MemLimitRejections, 1u);

  // Budget restored: the compiled path takes over and agrees.
  std::vector<runtime::TensorData> Outs = makeOutputs(ExactG);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  const Status After = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
  ASSERT_TRUE(After.isOk()) << After.toString();
  EXPECT_EQ((*CGOr)->numSpecializations(), 1u);
  expectClose(Outs, Want, "compiled path after budget restore");
}

TEST(MemLimit, ChargesAreReleased) {
  drainInFlight();
  BudgetScope Budget(0); // unlimited, but accounted
  const size_t Before = runtime::MemBudget::chargedBytes();
  {
    runtime::PlanArena A;
    ASSERT_TRUE(A.tryEnsure(1 << 16).isOk());
    EXPECT_GE(runtime::MemBudget::chargedBytes(), Before + (1u << 16));
  }
  EXPECT_EQ(runtime::MemBudget::chargedBytes(), Before);
}

//===----------------------------------------------------------------------===//
// ExecState pool allocation failure
//===----------------------------------------------------------------------===//

TEST(ExecPool, AcquisitionFailureIsLocatedAndRecovers) {
  const Graph G = buildMlpGraph();
  api::Session S;
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  std::vector<runtime::TensorData> Ins = makeInputs(G, 61);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);
  api::Stream Str = S.stream();

  {
    FaultScope F(std::string(fault::kExecState) + ":1");
    std::vector<runtime::TensorData> Outs = makeOutputs(G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    const Status Got = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
    ASSERT_FALSE(Got.isOk());
    EXPECT_TRUE(isLocatedInjection(Got)) << Got.toString();
    EXPECT_NE(Got.message().find(fault::kExecState), std::string::npos)
        << Got.toString();
  }

  std::vector<runtime::TensorData> Outs = makeOutputs(G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  const Status After = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
  ASSERT_TRUE(After.isOk()) << After.toString();
  expectClose(Outs, Want, "exec-state recovery");
}

//===----------------------------------------------------------------------===//
// Graceful degradation: compile -> reference interpreter
//===----------------------------------------------------------------------===//

TEST(Degrade, BytecodeCompileFallsBackToReference) {
  const Graph G = buildMlpGraph();
  core::CompileOptions Opts;
  // A warm artifact cache would serve the bytecode without running the
  // faulted compile, so degradation would never trigger; keep the cache
  // out of this test regardless of GC_CACHE in the environment.
  Opts.CacheMode = runtime::CacheMode::Off;
  api::Session S(Opts);
  std::vector<runtime::TensorData> Ins = makeInputs(G, 71);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);

  api::CompiledGraphPtr CG;
  {
    FaultScope F(std::string(fault::kCompileBytecode) + ":1");
    auto CGOr = S.compile(G);
    ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
    CG = *CGOr;
  }
  EXPECT_GE(S.healthStats().DegradedToReference, 1u);
  EXPECT_GE(S.healthStats().TransientFailures, 1u);
  ASSERT_EQ(CG->numPartitions(), 1u);
  EXPECT_EQ(CG->partitionKind(0), api::PartitionKind::Fallback);
  EXPECT_EQ(CG->compiledPartition(0), nullptr);

  std::vector<runtime::TensorData> Outs = makeOutputs(G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  api::Stream Str = S.stream();
  const Status Got = Str.execute(*CG, ptrs(Ins), OutPtrs);
  ASSERT_TRUE(Got.isOk()) << Got.toString();
  expectClose(Outs, Want, "reference-degraded compile");

  // Nothing is latched: once the fault is gone, the same session compiles
  // the same subgraph for real.
  auto AgainOr = S.compile(G);
  ASSERT_TRUE(AgainOr.hasValue()) << AgainOr.status().toString();
  ASSERT_EQ((*AgainOr)->numPartitions(), 1u);
  EXPECT_EQ((*AgainOr)->partitionKind(0), api::PartitionKind::Compiled);
  EXPECT_NE((*AgainOr)->compiledPartition(0), nullptr);
}

TEST(Degrade, BucketSpecializationIsNotLatched) {
  constexpr int64_t kDyn = LogicalTensor::kDynamicDim;
  const int64_t Batch = 16; // a bucket size under every bucketing policy
  const Graph DynG = buildMlpGraph(kDyn);
  const Graph ExactG = buildMlpGraph(Batch);
  core::CompileOptions Opts;
  // As above: a warm artifact cache would serve the bytecode without
  // running the faulted compile.
  Opts.CacheMode = runtime::CacheMode::Off;
  api::Session S(Opts);
  auto CGOr = S.compile(DynG);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  ASSERT_TRUE((*CGOr)->isPolymorphic());
  std::vector<runtime::TensorData> Ins = makeInputs(ExactG, 73);
  const std::vector<runtime::TensorData> Want = referenceOutputs(ExactG, Ins);
  api::Stream Str = S.stream();

  {
    // The bucket's partition compile fails transiently: this execution
    // runs that partition on the reference interpreter...
    FaultScope F(std::string(fault::kCompileBytecode) + ":1");
    std::vector<runtime::TensorData> Outs = makeOutputs(ExactG);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    const Status Got = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
    ASSERT_TRUE(Got.isOk()) << Got.toString();
    expectClose(Outs, Want, "reference-degraded bucket");
  }
  EXPECT_GE(S.healthStats().DegradedToReference, 1u);
  // ...and the degraded specialization is not cached.
  EXPECT_EQ((*CGOr)->numSpecializations(), 0u);
  EXPECT_EQ((*CGOr)->cachedSpecializationFor(Batch), nullptr);

  // Fault gone: the same bucket compiles for real and stays cached.
  std::vector<runtime::TensorData> Outs = makeOutputs(ExactG);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  const Status After = Str.execute(**CGOr, ptrs(Ins), OutPtrs);
  ASSERT_TRUE(After.isOk()) << After.toString();
  expectClose(Outs, Want, "compiled bucket after the fault");
  const api::CompiledGraphPtr Spec = (*CGOr)->cachedSpecializationFor(Batch);
  ASSERT_NE(Spec, nullptr);
  ASSERT_EQ(Spec->numPartitions(), 1u);
  EXPECT_EQ(Spec->partitionKind(0), api::PartitionKind::Compiled);
  EXPECT_NE(Spec->compiledPartition(0), nullptr);
}

TEST(Degrade, PolymorphicSubmitFallsBackToReference) {
  // submit() resolves a polymorphic batch through the same path as
  // execute(): when the bucket specialization cannot be produced, the
  // exact batch runs on the reference interpreter instead of failing the
  // submission, and nothing is cached.
  constexpr int64_t kDyn = LogicalTensor::kDynamicDim;
  const int64_t Batch = 3;
  const Graph DynG = buildMlpGraph(kDyn);
  const Graph ExactG = buildMlpGraph(Batch);
  api::Session S;
  auto CGOr = S.compile(DynG);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  ASSERT_TRUE((*CGOr)->isPolymorphic());
  std::vector<runtime::TensorData> Ins = makeInputs(ExactG, 79);
  const std::vector<runtime::TensorData> Want = referenceOutputs(ExactG, Ins);
  api::Stream Str = S.stream();

  {
    FaultScope F(std::string(fault::kSpecCompile) + ":1");
    std::vector<runtime::TensorData> Outs = makeOutputs(ExactG);
    const Status Got = Str.submit(*CGOr, ptrs(Ins), ptrs(Outs)).wait();
    ASSERT_TRUE(Got.isOk()) << Got.toString();
    expectClose(Outs, Want, "reference-degraded submission");
  }
  EXPECT_GE(S.healthStats().DegradedToReference, 1u);
  EXPECT_EQ((*CGOr)->numSpecializations(), 0u);

  // Fault gone: the bucket compiles and serves the next submission.
  std::vector<runtime::TensorData> Outs = makeOutputs(ExactG);
  const Status After = Str.submit(*CGOr, ptrs(Ins), ptrs(Outs)).wait();
  ASSERT_TRUE(After.isOk()) << After.toString();
  expectClose(Outs, Want, "compiled bucket after the fault");
  EXPECT_EQ((*CGOr)->numSpecializations(), 1u);
  EXPECT_NE((*CGOr)->cachedSpecializationFor(Batch), nullptr);
}

//===----------------------------------------------------------------------===//
// Artifact cache: bounded lock wait and I/O chaos
//===----------------------------------------------------------------------===//

TEST(CacheLock, BoundedWaitFailsUnavailableWithinBudget) {
  TempDir Dir;
  runtime::ArtifactCache::Config Cfg;
  Cfg.Mode = runtime::CacheMode::ReadWrite;
  Cfg.Dir = Dir.Path;
  runtime::ArtifactCache Cache(Cfg);
  ASSERT_TRUE(Cache.writable());

  const uint64_t Key = 0xDEADBEEFull;
  // flock serializes between two descriptors even within one process, so
  // the held lock below genuinely blocks lockEntry's attempt.
  auto HeldOr = runtime::FileLock::acquire(Cache.lockPath(Key));
  ASSERT_TRUE(HeldOr.hasValue()) << HeldOr.status().toString();

  EnvScope Env("GC_CACHE_LOCK_MS", "80");
  const auto T0 = std::chrono::steady_clock::now();
  auto LockOr = Cache.lockEntry(Key);
  const auto ElapsedMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - T0)
          .count();
  ASSERT_FALSE(LockOr.hasValue());
  EXPECT_EQ(LockOr.status().code(), StatusCode::Unavailable)
      << LockOr.status().toString();
  EXPECT_NE(LockOr.status().message().find("still held"), std::string::npos)
      << LockOr.status().toString();
  EXPECT_GE(ElapsedMs, 60);  // it really waited the configured budget
  EXPECT_LE(ElapsedMs, 5000); // ... and gave up in bounded time

  // Once the holder releases, the same call succeeds immediately.
  HeldOr.value().reset();
  auto RetryOr = Cache.lockEntry(Key);
  EXPECT_TRUE(RetryOr.hasValue()) << RetryOr.status().toString();
}

TEST(CacheLock, SessionCompilesInProcessWhenLockHeld) {
  TempDir Dir;
  core::CompileOptions Opts;
  Opts.Threads = 1;
  Opts.CacheMode = runtime::CacheMode::ReadWrite;
  Opts.CacheDir = Dir.Path;
  const Graph G = buildMlpGraph();

  // Recompute the disk key the session will use (partition fingerprint +
  // options + thread count) so the test can hold exactly its lock.
  api::Partitioner P(G);
  auto SpecsOr = P.partition(Opts.SplitIndependentPartitions);
  ASSERT_TRUE(SpecsOr.hasValue()) << SpecsOr.status().toString();
  ASSERT_EQ(SpecsOr->size(), 1u);
  ASSERT_EQ((*SpecsOr)[0].Kind, api::PartitionKind::Compiled);
  const uint64_t DiskKey = core::artifactCacheKey(
      (*SpecsOr)[0].Subgraph.fingerprint(), Opts, /*Threads=*/1);

  runtime::ArtifactCache::Config Cfg;
  Cfg.Mode = runtime::CacheMode::ReadWrite;
  Cfg.Dir = Dir.Path;
  runtime::ArtifactCache Cache(Cfg);
  auto HeldOr = runtime::FileLock::acquire(Cache.lockPath(DiskKey));
  ASSERT_TRUE(HeldOr.hasValue()) << HeldOr.status().toString();

  EnvScope Env("GC_CACHE_LOCK_MS", "50");
  api::Session S(Opts);
  const auto T0 = std::chrono::steady_clock::now();
  auto CGOr = S.compile(G);
  const auto ElapsedMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - T0)
          .count();
  // The compile succeeded WITHOUT the cache, in bounded time.
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  EXPECT_LE(ElapsedMs, 10000);
  EXPECT_GE(S.healthStats().CacheFallbacks, 1u);
  EXPECT_GE(S.healthStats().CacheLockTimeouts, 1u);

  std::vector<runtime::TensorData> Ins = makeInputs(G, 83);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);
  std::vector<runtime::TensorData> Outs = makeOutputs(G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  api::Stream Str = S.stream();
  ASSERT_TRUE(Str.execute(**CGOr, ptrs(Ins), OutPtrs).isOk());
  expectClose(Outs, Want, "lock-held compile");
}

TEST(CacheChaos, LoadFailureFallsBackToInProcessCompile) {
  TempDir Dir;
  core::CompileOptions Opts;
  Opts.Threads = 1;
  Opts.CacheMode = runtime::CacheMode::ReadWrite;
  Opts.CacheDir = Dir.Path;
  const Graph G = buildMlpGraph();

  {
    FaultScope F(std::string(fault::kCacheOpen) + ":1");
    api::Session S(Opts);
    auto CGOr = S.compile(G);
    ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
    EXPECT_GE(S.healthStats().CacheFallbacks, 1u);
    EXPECT_GE(S.healthStats().TransientFailures, 1u);
  }

  // Disarmed: a fresh session on the same directory is served from disk
  // (the in-process compile above still stored its artifact).
  api::Session S2(Opts);
  auto CGOr = S2.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  EXPECT_EQ(S2.healthStats().CacheFallbacks, 0u);
  EXPECT_EQ(S2.diskCacheHits(), 1u);
}

TEST(CacheChaos, StoreFailureLeavesNoEntryAndCompileSucceeds) {
  TempDir Dir;
  core::CompileOptions Opts;
  Opts.Threads = 1;
  Opts.CacheMode = runtime::CacheMode::ReadWrite;
  Opts.CacheDir = Dir.Path;
  const Graph G = buildMlpGraph();

  FaultScope F(std::string(fault::kCacheWrite) + ":1");
  api::Session S(Opts);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  EXPECT_EQ(S.diskCacheStores(), 0u);

  std::vector<runtime::TensorData> Ins = makeInputs(G, 91);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);
  std::vector<runtime::TensorData> Outs = makeOutputs(G);
  std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
  api::Stream Str = S.stream();
  ASSERT_TRUE(Str.execute(**CGOr, ptrs(Ins), OutPtrs).isOk());
  expectClose(Outs, Want, "store-failure compile");
}

TEST(CacheChaos, MidStreamStoreFailureLeavesNoTempAndNoEntry) {
  // "cache.write" fires on the store's entry and before each sink write,
  // so "cache.write:N" fails the store's (N-1)th write into the temp file:
  // N = 2 before any payload byte is in it, N = 3 after the first chunk.
  // The 128 KiB weight streams as its own write after the staged fields.
  const Graph G = buildMlpGraph(16, 256, 128);
  std::vector<runtime::TensorData> Ins = makeInputs(G, 93);
  const std::vector<runtime::TensorData> Want = referenceOutputs(G, Ins);
  for (int N : {2, 3}) {
    SCOPED_TRACE("cache.write:" + std::to_string(N));
    TempDir Dir;
    core::CompileOptions Opts;
    Opts.Threads = 1;
    Opts.CacheMode = runtime::CacheMode::ReadWrite;
    Opts.CacheDir = Dir.Path;

    FaultScope F(std::string(fault::kCacheWrite) + ":" + std::to_string(N));
    api::Session S(Opts);
    auto CGOr = S.compile(G);
    ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
    EXPECT_EQ(fault::stats(fault::kCacheWrite).Injected, 1u);
    EXPECT_EQ(S.diskCacheStores(), 0u);
    std::vector<std::string> Left;
    if (DIR *D = opendir(Dir.Path.c_str())) {
      while (dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name.find(".gca") != std::string::npos)
          Left.push_back(Name);
      }
      closedir(D);
    }
    EXPECT_TRUE(Left.empty())
        << "left behind: " << ::testing::PrintToString(Left);

    std::vector<runtime::TensorData> Outs = makeOutputs(G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    api::Stream Str = S.stream();
    ASSERT_TRUE(Str.execute(**CGOr, ptrs(Ins), OutPtrs).isOk());
    expectClose(Outs, Want, "mid-stream store failure");
  }
}

//===----------------------------------------------------------------------===//
// Destruction races: drop every handle mid-flight, under injection
//===----------------------------------------------------------------------===//

TEST(DestructionRace, DropSessionStreamAndEventMidFlight) {
  const Graph G = buildPinnedChainGraph(48, 48, 4);
  std::vector<runtime::TensorData> Ins = makeInputs(G, 211);

  for (int Iter = 0; Iter < 40; ++Iter) {
    SCOPED_TRACE(Iter);
    std::vector<runtime::TensorData> Outs = makeOutputs(G);
    std::vector<runtime::TensorData *> OutPtrs = ptrs(Outs);
    // Every third iteration also injects scheduler-enqueue refusals so
    // the race covers the inline-degradation path.
    std::unique_ptr<FaultScope> F;
    if (Iter % 3 == 0)
      F = std::make_unique<FaultScope>("pool.submit:p0.5",
                                       static_cast<uint64_t>(Iter));
    {
      core::CompileOptions Opts;
      Opts.Threads = 4;
      Opts.SplitIndependentPartitions = true;
      api::Session S(Opts);
      auto CGOr = S.compile(G);
      ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
      api::Stream Str = S.stream();
      api::Event E = Str.submit(*CGOr, ptrs(Ins), OutPtrs);
      if (Iter % 2 == 1)
        E.cancel();
      // Drop the Event, the Stream, the CompiledGraph and the Session
      // while partitions may still be in flight.
    }
    F.reset();
    // Submission::inFlight() draining to 0 is the race-free probe that
    // every retire (and so every output write) happened-before here —
    // the output tensors on this stack frame must outlive that point.
    for (int Spin = 0;
         Spin < 5000 && api::detail::Submission::inFlight() > 0; ++Spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(api::detail::Submission::inFlight(), 0u);
  }
}
