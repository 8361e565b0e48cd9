//===- test_constant_ownership.cpp - Constant payload ownership tests -----===//
//
// Who owns a weight's bytes. A graph co-owns its constant payloads:
// clone() shares them, views of caller memory are copied, and writes
// through mutableConstantData copy on write. Compiling therefore copies
// no weight: the compiled partition shares the source graph's payloads
// until its fold has run, then keeps only what execution reads, as a
// partition loaded from the artifact cache does. These tests pin the
// sharing (pointer identity), the lifetimes (source graph or caller
// memory gone before execution), the isolation of compiled partitions
// from later writes, and concurrent compiles of one graph.
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "core/artifact.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>

using namespace gc;
using namespace gc::graph;
using runtime::TensorData;

namespace {

core::CompileOptions uncachedOptions() {
  core::CompileOptions Opts;
  Opts.CacheMode = runtime::CacheMode::Off;
  return Opts;
}

Graph int8Mlp(int64_t Batch = 8) {
  workloads::MlpSpec Spec;
  Spec.Batch = Batch;
  Spec.LayerDims = {32, 64, 48};
  Spec.Int8 = true;
  Spec.Seed = 5;
  return workloads::buildMlp(Spec);
}

/// out = relu(x * w + b). \p RefBias pins the bias add to the
/// interpreter, which makes it a fallback partition holding b. A
/// non-positive \p Batch makes the batch dynamic.
Graph f32Mlp(int64_t Batch, bool RefBias = false) {
  const int64_t M = Batch > 0 ? Batch : LogicalTensor::kDynamicDim;
  const int64_t K = 32, N = 24;
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W =
      G.addTensor(DataType::F32, {K, N}, "w", TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {K, N}, 3));
  const int64_t B =
      G.addTensor(DataType::F32, {N}, "b", TensorProperty::Constant);
  G.setConstantData(B, test::randomTensor(DataType::F32, {N}, 4));
  const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {M, N});
  AttrMap BiasAttrs;
  if (RefBias)
    BiasAttrs["impl"] = std::string("reference");
  const int64_t Biased =
      G.addOp(OpKind::Add, {Mm, B}, DataType::F32, {M, N}, BiasAttrs);
  G.markOutput(G.addOp(OpKind::ReLU, {Biased}, DataType::F32, {M, N}));
  return G;
}

/// Seeded inputs for \p G, dynamic leading dims bound to \p Batch.
std::vector<TensorData> inputsFor(const Graph &G, int64_t Batch = 0) {
  std::vector<TensorData> Ins;
  for (int64_t Id : G.inputs()) {
    std::vector<int64_t> Shape = G.tensor(Id).Shape;
    if (G.tensor(Id).hasDynamicBatch())
      Shape[0] = Batch;
    Ins.push_back(test::randomTensor(G.tensor(Id).Ty, Shape,
                                     100 + static_cast<uint64_t>(Id)));
  }
  return Ins;
}

/// Runs \p CG once on \p Ins; returns its outputs, dynamic leading dims
/// bound to \p Batch.
std::vector<TensorData> run(api::Session &S, const api::CompiledGraph &CG,
                            const Graph &Shape, std::vector<TensorData> &Ins,
                            int64_t Batch = 0) {
  std::vector<TensorData> Outs;
  for (int64_t Id : Shape.outputs()) {
    std::vector<int64_t> Dims = Shape.tensor(Id).Shape;
    if (Shape.tensor(Id).hasDynamicBatch())
      Dims[0] = Batch;
    Outs.emplace_back(Shape.tensor(Id).Ty, Dims);
  }
  std::vector<TensorData *> InPtrs, OutPtrs;
  for (TensorData &T : Ins)
    InPtrs.push_back(&T);
  for (TensorData &T : Outs)
    OutPtrs.push_back(&T);
  const Status St = S.stream().execute(CG, InPtrs, OutPtrs);
  EXPECT_TRUE(St.isOk()) << St.toString();
  return Outs;
}

void expectBitIdentical(const std::vector<TensorData> &A,
                        const std::vector<TensorData> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_EQ(A[I].numBytes(), B[I].numBytes());
    EXPECT_EQ(0, std::memcmp(A[I].data(), B[I].data(),
                             static_cast<size_t>(A[I].numBytes())))
        << "output " << I;
  }
}

/// Compiles \p G in a fresh uncached session and runs it once.
std::vector<TensorData> compileAndRun(const Graph &G, int64_t Batch = 0) {
  api::Session S(uncachedOptions());
  Expected<api::CompiledGraphPtr> CG = S.compile(G);
  EXPECT_TRUE(CG.hasValue()) << CG.status().toString();
  if (!CG)
    return {};
  std::vector<TensorData> Ins = inputsFor(G, Batch);
  return run(S, **CG, G, Ins, Batch);
}

/// Constant bytes \p G holds, FusedOp subgraphs included.
int64_t graphConstantBytes(const Graph &G) {
  int64_t Bytes = 0;
  for (int64_t Id : G.tensorIds())
    if (const TensorData *D = G.constantData(Id))
      Bytes += D->numBytes();
  for (int64_t Id : G.opIds())
    if (const Graph *Sub = G.op(Id).subgraph())
      Bytes += graphConstantBytes(*Sub);
  return Bytes;
}

/// Raw plus folded constant bytes a partition holds.
int64_t heldConstantBytes(const core::CompiledPartition &P) {
  return graphConstantBytes(P.optimizedGraph()) + P.stats().FoldedBytes;
}

TEST(ConstantOwnership, CompiledPartitionSharesSourcePayloads) {
  // Partitioning and compiling share the source graph's payloads: before
  // the fold runs, every raw constant of the optimized graph that the
  // source graph also holds sits at the source graph's address.
  const Graph G = int8Mlp();
  api::Session S(uncachedOptions());
  Expected<api::CompiledGraphPtr> CG = S.compile(G);
  ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  ASSERT_EQ((*CG)->numPartitions(), 1u);
  const Graph &Opt = (*CG)->compiledPartition(0)->optimizedGraph();
  int Shared = 0;
  for (int64_t Id : G.tensorIds()) {
    const TensorData *Src = G.constantData(Id);
    const TensorData *Held = Opt.constantData(Id);
    if (!Src || !Held)
      continue;
    EXPECT_EQ(Held->data(), Src->data()) << "tensor " << Id;
    ++Shared;
  }
  // Both weights, and the constants the quantization chain reads.
  EXPECT_GE(Shared, 2);
}

TEST(ConstantOwnership, FoldedPartitionHoldsWhatALoadedOneHolds) {
  // Once folded, a compiled partition keeps only the constants execution
  // reads, plus the packed fold outputs: what a partition deserialized
  // from the artifact cache holds. Its source graph may then go.
  auto G = std::make_unique<Graph>(int8Mlp());
  const int64_t SourceBytes = graphConstantBytes(*G);
  api::Session S(uncachedOptions());
  Expected<api::CompiledGraphPtr> CG = S.compile(*G);
  ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  std::vector<TensorData> Ins = inputsFor(*G);
  const std::vector<TensorData> First = run(S, **CG, *G, Ins);
  const Graph Shape = G->clone(/*WithConstData=*/false);
  G.reset();

  std::shared_ptr<core::CompiledPartition> P = (*CG)->compiledPartition(0);
  auto Payload = std::make_shared<std::vector<uint8_t>>(
      core::ArtifactCodec::serialize(*P));
  Expected<std::shared_ptr<core::CompiledPartition>> Loaded =
      core::ArtifactCodec::deserialize(Payload->data(), Payload->size(),
                                       Payload, core::globalThreadPool());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().toString();
  EXPECT_EQ(heldConstantBytes(*P), heldConstantBytes(**Loaded));
  // The raw weights are gone: only their packed form stays.
  EXPECT_LT(graphConstantBytes(P->optimizedGraph()), SourceBytes);

  expectBitIdentical(run(S, **CG, Shape, Ins), First);
}

TEST(ConstantOwnership, SourceGraphMayDieBeforeTheFirstExecution) {
  // The partition co-owns the payloads it shares, so the source graph can
  // be destroyed before the fold reads them (ASan sees a dangling share).
  const std::vector<TensorData> Want = compileAndRun(int8Mlp());
  auto G = std::make_unique<Graph>(int8Mlp());
  const Graph Shape = G->clone(/*WithConstData=*/false);
  std::vector<TensorData> Ins = inputsFor(*G);
  api::Session S(uncachedOptions());
  Expected<api::CompiledGraphPtr> CG = S.compile(*G);
  ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  G.reset();
  expectBitIdentical(run(S, **CG, Shape, Ins), Want);
}

/// \p G with every constant payload moved into caller memory, attached as
/// views; \p Storage owns that memory.
void attachAsViews(Graph &G, std::vector<std::unique_ptr<char[]>> &Storage) {
  for (int64_t Id : G.tensorIds()) {
    const TensorData *D = G.constantData(Id);
    if (!D)
      continue;
    Storage.emplace_back(new char[static_cast<size_t>(D->numBytes())]);
    std::memcpy(Storage.back().get(), D->data(),
                static_cast<size_t>(D->numBytes()));
    G.setConstantData(
        Id, TensorData::view(D->dtype(), D->shape(), Storage.back().get()));
  }
}

TEST(ConstantOwnership, ViewsOfCallerMemoryAreCopiedByCompile) {
  // Weights attached as views of caller memory: compiling copies them
  // (into the compiled partition, the fallback partition's subgraph, or
  // the polymorphic shell's source graph), so the caller may scribble
  // over and free that memory right after compile.
  struct Case {
    const char *Name;
    Graph G;
    int64_t Batch;
  };
  Case Cases[] = {{"compiled", int8Mlp(), 0},
                  {"fallback", f32Mlp(16, /*RefBias=*/true), 0},
                  {"polymorphic", f32Mlp(0), 5}};
  for (Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    const std::vector<TensorData> Want = compileAndRun(C.G, C.Batch);
    std::vector<std::unique_ptr<char[]>> Storage;
    attachAsViews(C.G, Storage);
    std::vector<TensorData> Ins = inputsFor(C.G, C.Batch);
    api::Session S(uncachedOptions());
    Expected<api::CompiledGraphPtr> CG = S.compile(C.G);
    ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
    for (int64_t Id : C.G.tensorIds())
      if (TensorData *D = C.G.mutableConstantData(Id))
        std::memset(D->data(), 0x5a, static_cast<size_t>(D->numBytes()));
    const Graph Shape = C.G.clone(/*WithConstData=*/false);
    Storage.clear();
    expectBitIdentical(run(S, **CG, Shape, Ins, C.Batch), Want);
  }
}

TEST(ConstantOwnership, WritesAfterCompileDoNotReachThePartition) {
  // A write through the source graph copies on write, and a payload the
  // caller kept a copy of was copied when attached: neither changes what
  // the compiled partition reads, nor which partition the session cache
  // serves for the original content.
  api::Session S(uncachedOptions());
  Graph G = f32Mlp(16);
  const int64_t W = G.op(G.opIds()[0]).input(1);
  TensorData Kept = test::randomTensor(DataType::F32, {32, 24}, 3);
  G.setConstantData(W, Kept);
  Expected<api::CompiledGraphPtr> CG = S.compile(G);
  ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  std::vector<TensorData> Ins = inputsFor(G);
  const std::vector<TensorData> Before = run(S, **CG, G, Ins);

  Kept.fillConstant(0.25);
  G.mutableConstantData(W)->fillConstant(0.5);
  expectBitIdentical(run(S, **CG, G, Ins), Before);

  const uint64_t Hits = S.cacheHits();
  Expected<api::CompiledGraphPtr> Original = S.compile(f32Mlp(16));
  ASSERT_TRUE(Original.hasValue()) << Original.status().toString();
  EXPECT_EQ(S.cacheHits(), Hits + 1);
  EXPECT_EQ((*Original)->compiledPartition(0).get(),
            (*CG)->compiledPartition(0).get());

  Expected<api::CompiledGraphPtr> Changed = S.compile(G);
  ASSERT_TRUE(Changed.hasValue()) << Changed.status().toString();
  EXPECT_NE((*Changed)->compiledPartition(0).get(),
            (*CG)->compiledPartition(0).get());
  EXPECT_EQ(G.constantData(W)->dataAs<float>()[0], 0.5f);
}

TEST(ConstantOwnership, SessionsCompileOneGraphConcurrently) {
  // Several sessions share one source graph's payloads at once; each
  // folds its own partition (TSan checks the shared reads and the
  // reference counting).
  const Graph G = int8Mlp();
  const std::vector<TensorData> Want = compileAndRun(G);
  constexpr int kThreads = 4;
  std::vector<std::vector<TensorData>> Got(kThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      api::Session S(uncachedOptions());
      Expected<api::CompiledGraphPtr> CG = S.compile(G);
      if (!CG)
        return;
      std::vector<TensorData> Ins = inputsFor(G);
      Got[static_cast<size_t>(T)] = run(S, **CG, G, Ins);
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < kThreads; ++T) {
    SCOPED_TRACE(T);
    expectBitIdentical(Got[static_cast<size_t>(T)], Want);
  }
}

} // namespace
