//===- test_dynamic_batch.cpp - Batch-polymorphic compilation tests ---------------===//
//
// The dynamic-batch surface: validation of the kDynamicDim sentinel and its
// dim-0 flow rules, polymorphic compilation, the per-bucket specialization
// cache (pow2/exact bucketing, LRU eviction, thread safety), and the
// differential guarantee — polymorphic execution is bit-identical to a
// freshly compiled exact-shape graph at every batch, padded buckets
// included, serial and async, 1 and 4 threads.
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

using namespace gc;
using namespace gc::graph;

namespace {

constexpr int64_t kDyn = LogicalTensor::kDynamicDim;

/// relu(X*W + B) -> softmax over the feature dim; \p Batch is either a
/// concrete leading dim or kDyn. Same seed => identical weights, so a
/// dynamic build and an exact-shape build describe the same function.
Graph buildMlpSoftmax(int64_t Batch, int64_t K = 32, int64_t N = 24,
                      uint64_t Seed = 7) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {Batch, K}, "x");
  G.markInput(X);
  const int64_t W = G.addTensor(DataType::F32, {K, N}, "w",
                                TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {K, N}, Seed));
  const int64_t B = G.addTensor(DataType::F32, {N}, "b",
                                TensorProperty::Constant);
  G.setConstantData(B, test::randomTensor(DataType::F32, {N}, Seed + 1));
  const int64_t Mm =
      G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {Batch, N});
  const int64_t Biased =
      G.addOp(OpKind::Add, {Mm, B}, DataType::F32, {Batch, N});
  const int64_t Act =
      G.addOp(OpKind::ReLU, {Biased}, DataType::F32, {Batch, N});
  const int64_t Out = G.addOp(OpKind::Softmax, {Act}, DataType::F32,
                              {Batch, N}, {{"axis", int64_t(-1)}});
  G.markOutput(Out);
  return G;
}

/// Two independent MLP branches (separately schedulable under the split
/// partition policy) with a shared dynamic batch; optionally pins the
/// second branch's ReLU to the reference interpreter so the polymorphic
/// path also covers fallback partitions.
Graph buildTwoBranch(int64_t Batch, bool PinFallback = false,
                     uint64_t Seed = 21) {
  Graph G;
  for (int Br = 0; Br < 2; ++Br) {
    const int64_t K = 16 + 8 * Br, N = 12 + 4 * Br;
    const int64_t X = G.addTensor(DataType::F32, {Batch, K},
                                  "x" + std::to_string(Br));
    G.markInput(X);
    const int64_t W =
        G.addTensor(DataType::F32, {K, N}, "w" + std::to_string(Br),
                    TensorProperty::Constant);
    G.setConstantData(
        W, test::randomTensor(DataType::F32, {K, N}, Seed + 2 * Br));
    const int64_t Mm =
        G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {Batch, N});
    AttrMap ReluAttrs;
    if (PinFallback && Br == 1)
      ReluAttrs["impl"] = std::string("reference");
    const int64_t Out = G.addOp(OpKind::ReLU, {Mm}, DataType::F32,
                                {Batch, N}, ReluAttrs);
    G.markOutput(Out);
  }
  return G;
}

/// Allocates input/output tensors for \p G at concrete \p Batch and fills
/// inputs deterministically.
struct BoundGraph {
  std::vector<runtime::TensorData> In, Out;
  std::vector<runtime::TensorData *> InPtrs, OutPtrs;

  BoundGraph(const Graph &G, int64_t Batch, uint64_t Seed = 99) {
    for (int64_t Id : G.inputs()) {
      std::vector<int64_t> Shape = G.tensor(Id).Shape;
      if (!Shape.empty() && Shape[0] == kDyn)
        Shape[0] = Batch;
      In.emplace_back(G.tensor(Id).Ty, Shape);
    }
    for (int64_t Id : G.outputs()) {
      std::vector<int64_t> Shape = G.tensor(Id).Shape;
      if (!Shape.empty() && Shape[0] == kDyn)
        Shape[0] = Batch;
      Out.emplace_back(G.tensor(Id).Ty, Shape);
    }
    // Pointers only after both vectors stop growing.
    Rng R(Seed);
    for (auto &T : In) {
      T.fillRandom(R);
      InPtrs.push_back(&T);
    }
    for (auto &T : Out)
      OutPtrs.push_back(&T);
  }
};

bool bitIdentical(const runtime::TensorData &A, const runtime::TensorData &B) {
  return A.numBytes() == B.numBytes() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.numBytes())) == 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Validation of the dynamic-dim sentinel
//===----------------------------------------------------------------------===//

TEST(DynamicBatchValidation, NonLeadingDynamicDimRejected) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, kDyn}, "x");
  G.markInput(X);
  const int64_t Out = G.addOp(OpKind::ReLU, {X}, DataType::F32, {4, kDyn});
  G.markOutput(Out);
  const Status S = G.validate();
  ASSERT_FALSE(S.isOk());
  EXPECT_NE(S.message().find("only the leading"), std::string::npos)
      << S.toString();
}

TEST(DynamicBatchValidation, DynamicConstantRejected) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {kDyn, 8}, "x");
  G.markInput(X);
  const int64_t C = G.addTensor(DataType::F32, {kDyn, 8}, "c",
                                TensorProperty::Constant);
  const int64_t Out =
      G.addOp(OpKind::Add, {X, C}, DataType::F32, {kDyn, 8});
  G.markOutput(Out);
  EXPECT_FALSE(G.validate().isOk());
}

TEST(DynamicBatchValidation, BatchCollapseRejected) {
  // Dynamic input, static output: the op would mix batch rows, which
  // breaks padded polymorphic execution.
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {kDyn, 8}, "x");
  G.markInput(X);
  const int64_t Out =
      G.addOp(OpKind::ReduceSum, {X}, DataType::F32, {8},
              {{"axes", std::vector<int64_t>{0}}});
  G.markOutput(Out);
  const Status S = G.validate();
  ASSERT_FALSE(S.isOk());
  EXPECT_NE(S.message().find("batch"), std::string::npos) << S.toString();
}

TEST(DynamicBatchValidation, DynamicFromStaticRejected) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 8}, "x");
  G.markInput(X);
  const int64_t Out =
      G.addOp(OpKind::ReLU, {X}, DataType::F32, {kDyn, 8});
  G.markOutput(Out);
  EXPECT_FALSE(G.validate().isOk());
}

TEST(DynamicBatchValidation, DynamicReshapeMustPreserveRowElements) {
  Graph Bad;
  {
    const int64_t X = Bad.addTensor(DataType::F32, {kDyn, 8}, "x");
    Bad.markInput(X);
    const int64_t Out =
        Bad.addOp(OpKind::Reshape, {X}, DataType::F32, {kDyn, 4});
    Bad.markOutput(Out);
  }
  EXPECT_FALSE(Bad.validate().isOk());

  Graph Good;
  {
    const int64_t X = Good.addTensor(DataType::F32, {kDyn, 2, 4}, "x");
    Good.markInput(X);
    const int64_t Out =
        Good.addOp(OpKind::Reshape, {X}, DataType::F32, {kDyn, 8});
    Good.markOutput(Out);
  }
  EXPECT_TRUE(Good.validate().isOk());
}

TEST(DynamicBatchValidation, BatchAxisMixingOpsRejected) {
  // Shape-preserving ops whose operating axis IS the batch axis pass the
  // dyn-in=>dyn-out rule but mix rows; each must be rejected explicitly.
  {
    // Rank-1 softmax normalizes across the batch itself (axis -1 == 0).
    Graph G;
    const int64_t X = G.addTensor(DataType::F32, {kDyn}, "x");
    G.markInput(X);
    const int64_t Out = G.addOp(OpKind::Softmax, {X}, DataType::F32,
                                {kDyn}, {{"axis", int64_t(-1)}});
    G.markOutput(Out);
    const Status S = G.validate();
    ASSERT_FALSE(S.isOk());
    EXPECT_NE(S.message().find("batch-row independence"),
              std::string::npos)
        << S.toString();
  }
  {
    // Rank-1 LayerNorm normalizes its (only) dim — the batch.
    Graph G;
    const int64_t X = G.addTensor(DataType::F32, {kDyn}, "x");
    G.markInput(X);
    const int64_t Gamma = G.addTensor(DataType::F32, {1}, "g",
                                      TensorProperty::Constant);
    const int64_t Beta = G.addTensor(DataType::F32, {1}, "b",
                                     TensorProperty::Constant);
    const int64_t Out = G.addOp(OpKind::LayerNorm, {X, Gamma, Beta},
                                DataType::F32, {kDyn});
    G.markOutput(Out);
    EXPECT_FALSE(G.validate().isOk());
  }
  {
    // MatMul contracting over a rank-1 dynamic LHS (batch == K).
    Graph G;
    const int64_t X = G.addTensor(DataType::F32, {kDyn}, "x");
    G.markInput(X);
    const int64_t W = G.addTensor(DataType::F32, {8, 4}, "w",
                                  TensorProperty::Constant);
    const int64_t Out =
        G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {kDyn, 4});
    G.markOutput(Out);
    EXPECT_FALSE(G.validate().isOk());
  }
  {
    // ReduceSum over axis 0 with a dishonestly shape-preserving output.
    Graph G;
    const int64_t X = G.addTensor(DataType::F32, {kDyn, 8}, "x");
    G.markInput(X);
    const int64_t Out =
        G.addOp(OpKind::ReduceSum, {X}, DataType::F32, {kDyn, 8},
                {{"axes", std::vector<int64_t>{0}}});
    G.markOutput(Out);
    EXPECT_FALSE(G.validate().isOk());
  }
  {
    // Rank-1 elementwise stays legal: no axis to mix along.
    Graph G;
    const int64_t X = G.addTensor(DataType::F32, {kDyn}, "x");
    G.markInput(X);
    const int64_t Out = G.addOp(OpKind::ReLU, {X}, DataType::F32, {kDyn});
    G.markOutput(Out);
    EXPECT_TRUE(G.validate().isOk());
  }
}

TEST(DynamicBatchValidation, StaticGraphStillValidates) {
  Graph G = buildMlpSoftmax(16);
  EXPECT_TRUE(G.validate().isOk());
  EXPECT_FALSE(G.hasDynamicDims());
  EXPECT_TRUE(buildMlpSoftmax(kDyn).hasDynamicDims());
}

//===----------------------------------------------------------------------===//
// Polymorphic compilation and the specialization cache
//===----------------------------------------------------------------------===//

TEST(DynamicBatch, CompileReturnsPolymorphicShell) {
  api::Session S;
  Graph G = buildMlpSoftmax(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  const api::CompiledGraph &CG = **CGOr;
  EXPECT_TRUE(CG.isPolymorphic());
  EXPECT_EQ(CG.numSpecializations(), 0u);
  EXPECT_EQ(CG.numPartitions(), 0u);
  // outputShapes reports the dynamic sentinel until a batch binds.
  ASSERT_EQ(CG.outputShapes().size(), 1u);
  EXPECT_EQ(CG.outputShapes()[0][0], kDyn);
  // No partition compiles happened yet: specialization is lazy.
  EXPECT_EQ(S.cacheMisses(), 0u);
}

TEST(DynamicBatch, Pow2BucketsShareOneSpecialization) {
  api::Session S;
  Graph G = buildMlpSoftmax(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  api::Stream Str = S.stream();

  for (int64_t Batch : {5, 6, 7, 8}) {
    BoundGraph Bound(G, Batch);
    ASSERT_TRUE(
        Str.execute(**CGOr, Bound.InPtrs, Bound.OutPtrs).isOk());
  }
  EXPECT_EQ((*CGOr)->numSpecializations(), 1u);
  EXPECT_EQ((*CGOr)->specializationBuckets(), std::vector<int64_t>{8});
  EXPECT_EQ((*CGOr)->specializationMisses(), 1u);
  EXPECT_EQ((*CGOr)->specializationHits(), 3u);
  ASSERT_NE((*CGOr)->cachedSpecializationFor(5), nullptr);
  EXPECT_FALSE((*CGOr)->cachedSpecializationFor(5)->isPolymorphic());
  EXPECT_EQ((*CGOr)->cachedSpecializationFor(16), nullptr);
}

TEST(DynamicBatch, SecondExecuteAtBucketedBatchCompilesNothing) {
  api::Session S;
  Graph G = buildMlpSoftmax(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  api::Stream Str = S.stream();

  BoundGraph First(G, 7);
  ASSERT_TRUE(Str.execute(**CGOr, First.InPtrs, First.OutPtrs).isOk());
  const uint64_t MissesAfterFirst = S.cacheMisses();
  EXPECT_GT(MissesAfterFirst, 0u);

  // Same batch again, and a different batch in the same bucket: zero new
  // partition compiles, served entirely from the specialization cache.
  BoundGraph Second(G, 7), Third(G, 5);
  ASSERT_TRUE(Str.execute(**CGOr, Second.InPtrs, Second.OutPtrs).isOk());
  ASSERT_TRUE(Str.execute(**CGOr, Third.InPtrs, Third.OutPtrs).isOk());
  EXPECT_EQ(S.cacheMisses(), MissesAfterFirst);
}

TEST(DynamicBatch, ExactBucketingCompilesPerBatch) {
  core::CompileOptions Opts;
  Opts.Bucketing = core::BatchBucketing::Exact;
  api::Session S(Opts);
  Graph G = buildMlpSoftmax(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  api::Stream Str = S.stream();

  for (int64_t Batch : {5, 6, 7}) {
    BoundGraph Bound(G, Batch);
    ASSERT_TRUE(
        Str.execute(**CGOr, Bound.InPtrs, Bound.OutPtrs).isOk());
  }
  EXPECT_EQ((*CGOr)->numSpecializations(), 3u);
  EXPECT_EQ((*CGOr)->specializationMisses(), 3u);
}

TEST(DynamicBatch, SpecializationCacheEvictsLru) {
  core::CompileOptions Opts;
  Opts.Bucketing = core::BatchBucketing::Exact;
  Opts.SpecCacheCap = 2;
  api::Session S(Opts);
  Graph G = buildMlpSoftmax(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  api::Stream Str = S.stream();

  auto runBatch = [&](int64_t Batch) {
    BoundGraph Bound(G, Batch);
    ASSERT_TRUE(
        Str.execute(**CGOr, Bound.InPtrs, Bound.OutPtrs).isOk());
  };
  runBatch(1); // specs: {1}
  runBatch(2); // specs: {1, 2}
  runBatch(1); // touch 1 so 2 is the LRU
  runBatch(3); // evicts 2 -> specs: {1, 3}
  EXPECT_EQ((*CGOr)->numSpecializations(), 2u);
  EXPECT_NE((*CGOr)->cachedSpecializationFor(1), nullptr);
  EXPECT_EQ((*CGOr)->cachedSpecializationFor(2), nullptr);
  EXPECT_NE((*CGOr)->cachedSpecializationFor(3), nullptr);
  // Re-running the evicted batch recompiles (a fourth miss).
  runBatch(2);
  EXPECT_EQ((*CGOr)->specializationMisses(), 4u);
}

TEST(DynamicBatch, ConcurrentFirstExecutionsCompileOneSpecialization) {
  api::Session S;
  Graph G = buildMlpSoftmax(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();

  constexpr int kThreads = 8;
  std::vector<std::thread> Threads;
  std::vector<Status> Results(kThreads, Status::ok());
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      api::Stream Str = S.stream();
      BoundGraph Bound(G, 6, /*Seed=*/100 + static_cast<uint64_t>(T));
      Results[static_cast<size_t>(T)] =
          Str.execute(**CGOr, Bound.InPtrs, Bound.OutPtrs);
    });
  for (auto &T : Threads)
    T.join();
  for (const Status &S2 : Results)
    EXPECT_TRUE(S2.isOk()) << S2.toString();
  EXPECT_EQ((*CGOr)->numSpecializations(), 1u);
  EXPECT_EQ((*CGOr)->specializationMisses(), 1u);
}

TEST(DynamicBatch, PolymorphicGraphOutlivesSession) {
  Graph G = buildMlpSoftmax(kDyn);
  api::CompiledGraphPtr CG;
  api::Stream Str = [&] {
    api::Session S;
    auto CGOr = S.compile(G);
    EXPECT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
    CG = *CGOr;
    return S.stream();
  }(); // Session destroyed here; the shell pins its compile state.
  BoundGraph Bound(G, 7);
  EXPECT_TRUE(Str.execute(*CG, Bound.InPtrs, Bound.OutPtrs).isOk());
  EXPECT_EQ(CG->numSpecializations(), 1u);
}

TEST(DynamicBatch, BoundaryErrorsAreStatuses) {
  api::Session S;
  Graph G = buildTwoBranch(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  api::Stream Str = S.stream();

  // Inconsistent batch across the two dynamic inputs.
  BoundGraph A(G, 4), B(G, 6);
  const Status Mixed = Str.execute(
      **CGOr, {A.InPtrs[0], B.InPtrs[1]}, A.OutPtrs);
  ASSERT_FALSE(Mixed.isOk());
  EXPECT_EQ(Mixed.code(), StatusCode::InvalidArgument);
  EXPECT_NE(Mixed.message().find("batch"), std::string::npos);

  // Output bound at the wrong batch.
  const Status BadOut = Str.execute(
      **CGOr, A.InPtrs, {A.OutPtrs[0], B.OutPtrs[1]});
  ASSERT_FALSE(BadOut.isOk());
  EXPECT_EQ(BadOut.code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Differential: polymorphic == freshly compiled exact shape, bitwise
//===----------------------------------------------------------------------===//

namespace {

/// Runs the polymorphic/exact differential sweep for one configuration.
/// \p Async runs the polymorphic graph through submit(...).wait(), which
/// schedules each bucket-exact specialization's partition DAG on the
/// pool; otherwise through execute().
void sweepBitIdentical(bool Async, int Threads, bool TwoBranch,
                       bool PinFallback = false) {
  core::CompileOptions Opts;
  Opts.SplitIndependentPartitions = TwoBranch; // branch-level overlap
  Opts.Threads = Threads;
  api::Session PolyS(Opts);
  Graph DynG = TwoBranch ? buildTwoBranch(kDyn, PinFallback)
                         : buildMlpSoftmax(kDyn);
  auto PolyOr = PolyS.compile(DynG);
  ASSERT_TRUE(PolyOr.hasValue()) << PolyOr.status().toString();
  api::Stream PolyStr = PolyS.stream();

  for (int64_t Batch : {int64_t(1), int64_t(4), int64_t(7), int64_t(32),
                        int64_t(113)}) {
    BoundGraph PolyBound(DynG, Batch, /*Seed=*/7000 + Batch);
    const Status PolyRun =
        Async ? PolyStr.submit(*PolyOr, PolyBound.InPtrs, PolyBound.OutPtrs)
                    .wait()
              : PolyStr.execute(**PolyOr, PolyBound.InPtrs,
                                PolyBound.OutPtrs);
    ASSERT_TRUE(PolyRun.isOk()) << "batch " << Batch << ": "
                                << PolyRun.toString();

    // Fresh session + exact-shape graph: an independent compile of the
    // same function at this batch.
    api::Session ExactS(Opts);
    Graph ExactG = TwoBranch ? buildTwoBranch(Batch, PinFallback)
                             : buildMlpSoftmax(Batch);
    auto ExactOr = ExactS.compile(ExactG);
    ASSERT_TRUE(ExactOr.hasValue()) << ExactOr.status().toString();
    BoundGraph ExactBound(ExactG, Batch, /*Seed=*/7000 + Batch);
    ASSERT_TRUE(ExactS.stream()
                    .execute(**ExactOr, ExactBound.InPtrs,
                             ExactBound.OutPtrs)
                    .isOk())
        << "batch " << Batch;

    for (size_t O = 0; O < PolyBound.Out.size(); ++O)
      EXPECT_TRUE(bitIdentical(PolyBound.Out[O], ExactBound.Out[O]))
          << "batch " << Batch << " output " << O
          << (Async ? " (async)" : " (serial)") << " threads=" << Threads;
  }
}

} // namespace

TEST(DynamicBatchDifferential, SerialOneThread) {
  sweepBitIdentical(/*Async=*/false, /*Threads=*/1, /*TwoBranch=*/false);
}

TEST(DynamicBatchDifferential, SerialFourThreads) {
  sweepBitIdentical(/*Async=*/false, /*Threads=*/4, /*TwoBranch=*/false);
}

TEST(DynamicBatchDifferential, AsyncOneThread) {
  sweepBitIdentical(/*Async=*/true, /*Threads=*/1, /*TwoBranch=*/true);
}

TEST(DynamicBatchDifferential, AsyncFourThreads) {
  sweepBitIdentical(/*Async=*/true, /*Threads=*/4, /*TwoBranch=*/true);
}

TEST(DynamicBatchDifferential, FallbackPartitionsStayBitIdentical) {
  sweepBitIdentical(/*Async=*/false, /*Threads=*/2, /*TwoBranch=*/true,
                    /*PinFallback=*/true);
}

//===----------------------------------------------------------------------===//
// submit(): async polymorphic executions
//===----------------------------------------------------------------------===//

TEST(DynamicBatch, SubmitResolvesSpecializationAndMatchesExecute) {
  core::CompileOptions Opts;
  Opts.SplitIndependentPartitions = true;
  Opts.Threads = 4;
  api::Session S(Opts);
  Graph G = buildTwoBranch(kDyn);
  auto CGOr = S.compile(G);
  ASSERT_TRUE(CGOr.hasValue()) << CGOr.status().toString();
  api::Stream Str = S.stream();

  // Bucket-exact batch: truly asynchronous submission of the
  // specialization. Padded batch: synchronous completion. Both must match
  // the synchronous polymorphic path bit-for-bit.
  for (int64_t Batch : {int64_t(4), int64_t(7)}) {
    BoundGraph ViaSubmit(G, Batch, /*Seed=*/31 + Batch);
    api::Event E = Str.submit(*CGOr, ViaSubmit.InPtrs, ViaSubmit.OutPtrs);
    const Status SubmitStatus = E.wait();
    ASSERT_TRUE(SubmitStatus.isOk()) << SubmitStatus.toString();

    BoundGraph ViaExecute(G, Batch, /*Seed=*/31 + Batch);
    ASSERT_TRUE(
        Str.execute(**CGOr, ViaExecute.InPtrs, ViaExecute.OutPtrs)
            .isOk());
    for (size_t O = 0; O < ViaSubmit.Out.size(); ++O)
      EXPECT_TRUE(bitIdentical(ViaSubmit.Out[O], ViaExecute.Out[O]))
          << "batch " << Batch << " output " << O;
  }
}
