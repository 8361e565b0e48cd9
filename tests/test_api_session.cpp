//===- test_api_session.cpp - Session / Partitioner / Stream API tests -----------===//
//
// The partition-based public API: partition discovery, fallback routing of
// unsupported ops, end-to-end correctness of mixed compiled/interpreted
// graphs vs the full reference, the compiled-partition cache, concurrent
// execution, and the Status error model.
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "graph/reference.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <thread>

using namespace gc;
using namespace gc::graph;

namespace {

/// out = relu(X * W + B) with deterministic constant weights.
Graph buildMlp(int64_t M = 16, int64_t K = 32, int64_t N = 24,
               uint64_t Seed = 7) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W = G.addTensor(DataType::F32, {K, N}, "w",
                                TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {K, N}, Seed));
  const int64_t B = G.addTensor(DataType::F32, {N}, "b",
                                TensorProperty::Constant);
  G.setConstantData(B, test::randomTensor(DataType::F32, {N}, Seed + 1));
  const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {M, N});
  const int64_t Biased = G.addOp(OpKind::Add, {Mm, B}, DataType::F32, {M, N});
  const int64_t Out =
      G.addOp(OpKind::ReLU, {Biased}, DataType::F32, {M, N});
  G.markOutput(Out);
  return G;
}

/// matmul -> transpose([1,0], which the compiler cannot lower) -> matmul
/// -> relu: the middle op must route to a fallback partition.
Graph buildMidTransposeGraph() {
  Graph G;
  const int64_t M = 8, K = 16, N = 32, N2 = 24;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W1 = G.addTensor(DataType::F32, {K, N}, "w1",
                                 TensorProperty::Constant);
  G.setConstantData(W1, test::randomTensor(DataType::F32, {K, N}, 11));
  const int64_t W2 = G.addTensor(DataType::F32, {M, N2}, "w2",
                                 TensorProperty::Constant);
  G.setConstantData(W2, test::randomTensor(DataType::F32, {M, N2}, 12));
  const int64_t Mm1 = G.addOp(OpKind::MatMul, {X, W1}, DataType::F32, {M, N});
  const int64_t Tr =
      G.addOp(OpKind::Transpose, {Mm1}, DataType::F32, {N, M},
              {{"perm", std::vector<int64_t>{1, 0}}});
  const int64_t Mm2 =
      G.addOp(OpKind::MatMul, {Tr, W2}, DataType::F32, {N, N2});
  const int64_t Out = G.addOp(OpKind::ReLU, {Mm2}, DataType::F32, {N, N2});
  G.markOutput(Out);
  return G;
}

/// Executes \p G through a Session stream and returns the single output.
[[maybe_unused]] runtime::TensorData
runThroughSession(api::Session &S, const Graph &G,
                                      runtime::TensorData &In) {
  Expected<api::CompiledGraphPtr> CompiledOr = S.compile(G);
  EXPECT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  runtime::TensorData Out(G.tensor(G.outputs()[0]).Ty,
                          G.tensor(G.outputs()[0]).Shape);
  const Status ExecStatus =
      S.stream().execute(**CompiledOr, {&In}, {&Out});
  EXPECT_TRUE(ExecStatus.isOk()) << ExecStatus.toString();
  return Out;
}

//===----------------------------------------------------------------------===//
// Partitioner
//===----------------------------------------------------------------------===//

TEST(ApiPartitioner, FullySupportedGraphIsOneCompiledPartition) {
  Graph G = buildMlp();
  ASSERT_TRUE(G.finalize().isOk());
  api::Partitioner P(G);
  auto SpecsOr = P.partition();
  ASSERT_TRUE(SpecsOr.hasValue()) << SpecsOr.status().toString();
  ASSERT_EQ(SpecsOr->size(), 1u);
  const api::PartitionSpec &Spec = (*SpecsOr)[0];
  EXPECT_EQ(Spec.Kind, api::PartitionKind::Compiled);
  EXPECT_EQ(Spec.OpIds.size(), 3u);
  // A whole-graph partition is bind-compatible with the source graph.
  EXPECT_EQ(Spec.Subgraph.inputs(), G.inputs());
  EXPECT_EQ(Spec.Subgraph.outputs(), G.outputs());
}

TEST(ApiPartitioner, UnsupportedOpSplitsIntoThreePartitions) {
  Graph G = buildMidTransposeGraph();
  api::Partitioner P(G);
  auto SpecsOr = P.partition();
  ASSERT_TRUE(SpecsOr.hasValue()) << SpecsOr.status().toString();
  ASSERT_EQ(SpecsOr->size(), 3u);
  EXPECT_EQ((*SpecsOr)[0].Kind, api::PartitionKind::Compiled);
  EXPECT_EQ((*SpecsOr)[1].Kind, api::PartitionKind::Fallback);
  EXPECT_EQ((*SpecsOr)[2].Kind, api::PartitionKind::Compiled);
  // The trailing compiled partition holds matmul + relu.
  EXPECT_EQ((*SpecsOr)[2].OpIds.size(), 2u);
}

TEST(ApiPartitioner, IndependentUnsupportedOpsShareOnePartition) {
  // Two independent branches each with a bad transpose: the two fallback
  // ops merge into one partition (maximality across independent ops).
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 6}, "x");
  G.markInput(X);
  AttrMap Perm{{"perm", std::vector<int64_t>{1, 0}}};
  const int64_t T1 =
      G.addOp(OpKind::Transpose, {X}, DataType::F32, {6, 4}, Perm);
  const int64_t T2 =
      G.addOp(OpKind::Transpose, {X}, DataType::F32, {6, 4}, Perm);
  const int64_t Out = G.addOp(OpKind::Add, {T1, T2}, DataType::F32, {6, 4});
  G.markOutput(Out);
  api::Partitioner P(G);
  auto SpecsOr = P.partition();
  ASSERT_TRUE(SpecsOr.hasValue()) << SpecsOr.status().toString();
  ASSERT_EQ(SpecsOr->size(), 2u);
  EXPECT_EQ((*SpecsOr)[0].Kind, api::PartitionKind::Fallback);
  EXPECT_EQ((*SpecsOr)[0].OpIds.size(), 2u);
  EXPECT_EQ((*SpecsOr)[1].Kind, api::PartitionKind::Compiled);
}

TEST(ApiPartitioner, ConstantSideTransposeStaysCompiled) {
  // A non-[0,2,1,3] transpose whose input is constant sits on the fold
  // side: the compiled pipeline preprocesses it at first execution, so the
  // graph must remain a single compiled partition that executes
  // correctly.
  Graph G;
  const int64_t M = 8, K = 16, N = 12;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t Wt = G.addTensor(DataType::F32, {N, K}, "wt",
                                 TensorProperty::Constant);
  G.setConstantData(Wt, test::randomTensor(DataType::F32, {N, K}, 21));
  const int64_t W =
      G.addOp(OpKind::Transpose, {Wt}, DataType::F32, {K, N},
              {{"perm", std::vector<int64_t>{1, 0}}});
  const int64_t Out = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {M, N});
  G.markOutput(Out);

  api::Partitioner P(G);
  auto SpecsOr = P.partition();
  ASSERT_TRUE(SpecsOr.hasValue()) << SpecsOr.status().toString();
  ASSERT_EQ(SpecsOr->size(), 1u);
  EXPECT_EQ((*SpecsOr)[0].Kind, api::PartitionKind::Compiled);

  auto Partition = test::compileOnePartition(G);
  runtime::TensorData In = test::randomTensor(DataType::F32, {M, K}, 22);
  runtime::TensorData Got(DataType::F32, {M, N});
  ASSERT_TRUE(Partition->execute({&In}, {&Got}).isOk());

  TensorMap Env;
  Env[X] = In.clone();
  const std::vector<runtime::TensorData> Expected =
      runGraphReference(G, std::move(Env));
  EXPECT_LT(maxAbsDiff(Got, Expected[0]), test::kF32LooseTol);
}

TEST(ApiSession, FoldOpCrossingPartitionBoundaryDoesNotDemoteItsGroup) {
  // A constant-side transpose whose consumer lands in a later partition
  // (because that consumer also depends on a fallback op) must not drag
  // a sibling matmul into the interpreter: the partitioner re-classifies
  // just the crossing fold op.
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {8, 16}, "x");
  G.markInput(X);
  const int64_t W1 = G.addTensor(DataType::F32, {16, 32}, "w1",
                                 TensorProperty::Constant);
  G.setConstantData(W1, test::randomTensor(DataType::F32, {16, 32}, 51));
  const int64_t M1 = G.addOp(OpKind::MatMul, {X, W1}, DataType::F32,
                             {8, 32});
  const int64_t Wt = G.addTensor(DataType::F32, {24, 32}, "wt",
                                 TensorProperty::Constant);
  G.setConstantData(Wt, test::randomTensor(DataType::F32, {24, 32}, 52));
  AttrMap Perm{{"perm", std::vector<int64_t>{1, 0}}};
  const int64_t T =
      G.addOp(OpKind::Transpose, {Wt}, DataType::F32, {32, 24}, Perm);
  const int64_t F =
      G.addOp(OpKind::Transpose, {M1}, DataType::F32, {32, 8}, Perm);
  const int64_t W2 = G.addTensor(DataType::F32, {8, 24}, "w2",
                                 TensorProperty::Constant);
  G.setConstantData(W2, test::randomTensor(DataType::F32, {8, 24}, 53));
  const int64_t C1 = G.addOp(OpKind::MatMul, {F, W2}, DataType::F32,
                             {32, 24});
  const int64_t Out = G.addOp(OpKind::Add, {C1, T}, DataType::F32,
                              {32, 24});
  G.markOutput(Out);

  api::Session S;
  auto CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  const api::CompiledGraph &CG = **CompiledOr;
  // Every Compiled-kind partition really compiled (no silent demotion).
  for (size_t I = 0; I < CG.numPartitions(); ++I)
    if (CG.partitionKind(I) == api::PartitionKind::Compiled) {
      EXPECT_NE(CG.compiledPartition(I), nullptr) << "partition " << I;
    }
  EXPECT_GE(CG.numPartitions() - CG.numFallbackPartitions(), 2u);

  runtime::TensorData In = test::randomTensor(DataType::F32, {8, 16}, 54);
  runtime::TensorData Got(DataType::F32, {32, 24});
  ASSERT_TRUE(S.stream().execute(CG, {&In}, {&Got}).isOk());
  TensorMap Env;
  Env[X] = In.clone();
  const std::vector<runtime::TensorData> Expected =
      runGraphReference(G, std::move(Env));
  EXPECT_LT(maxAbsDiff(Got, Expected[0]), test::kF32LooseTol);
}

TEST(GraphIr, MutationClearsFinalizedState) {
  Graph G = buildMlp();
  ASSERT_TRUE(G.finalize().isOk());
  EXPECT_TRUE(G.isFinalized());
  const int64_t Extra = G.addTensor(DataType::F32, {16, 24}, "extra");
  EXPECT_FALSE(G.isFinalized()); // mutation invalidates the frozen state
  G.markOutput(G.addOp(OpKind::Abs, {Extra}, DataType::F32, {16, 24}));
  // The dangling-producer error is caught again on re-finalize.
  EXPECT_EQ(G.finalize().code(), StatusCode::InvalidGraph);
}

//===----------------------------------------------------------------------===//
// Fallback correctness
//===----------------------------------------------------------------------===//

TEST(ApiSession, FallbackMiddlePartitionMatchesFullReference) {
  Graph G = buildMidTransposeGraph();
  runtime::TensorData In = test::randomTensor(DataType::F32, {8, 16}, 42);

  api::Session S;
  Expected<api::CompiledGraphPtr> CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  EXPECT_EQ((*CompiledOr)->numPartitions(), 3u);
  EXPECT_EQ((*CompiledOr)->numFallbackPartitions(), 1u);

  runtime::TensorData Out(DataType::F32, {32, 24});
  ASSERT_TRUE(S.stream().execute(**CompiledOr, {&In}, {&Out}).isOk());

  TensorMap Env;
  Env[G.inputs()[0]] = In.clone();
  const std::vector<runtime::TensorData> Expected =
      runGraphReference(G, std::move(Env));
  EXPECT_LT(maxAbsDiff(Out, Expected[0]), test::kF32LooseTol);
}

TEST(ApiSession, ImplReferenceAttrForcesFallback) {
  // Same MLP, but the bias add is pinned to the interpreter; the graph
  // still executes and matches the all-reference result.
  Graph G;
  const int64_t M = 16, K = 32, N = 24;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W = G.addTensor(DataType::F32, {K, N}, "w",
                                TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {K, N}, 3));
  const int64_t B = G.addTensor(DataType::F32, {N}, "b",
                                TensorProperty::Constant);
  G.setConstantData(B, test::randomTensor(DataType::F32, {N}, 4));
  const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {M, N});
  const int64_t Biased =
      G.addOp(OpKind::Add, {Mm, B}, DataType::F32, {M, N},
              {{"impl", std::string("reference")}});
  const int64_t Out = G.addOp(OpKind::ReLU, {Biased}, DataType::F32, {M, N});
  G.markOutput(Out);

  api::Session S;
  Expected<api::CompiledGraphPtr> CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  EXPECT_EQ((*CompiledOr)->numFallbackPartitions(), 1u);

  runtime::TensorData In = test::randomTensor(DataType::F32, {M, K}, 5);
  runtime::TensorData Got(DataType::F32, {M, N});
  ASSERT_TRUE(S.stream().execute(**CompiledOr, {&In}, {&Got}).isOk());

  TensorMap Env;
  Env[X] = In.clone();
  const std::vector<runtime::TensorData> Expected =
      runGraphReference(G, std::move(Env));
  EXPECT_LT(maxAbsDiff(Got, Expected[0]), test::kF32LooseTol);
}

//===----------------------------------------------------------------------===//
// Compiled-partition cache
//===----------------------------------------------------------------------===//

TEST(ApiSession, RecompilingIdenticalGraphHitsCache) {
  api::Session S;
  Graph G1 = buildMlp();
  Graph G2 = buildMlp(); // independently built, structurally identical

  auto C1 = S.compile(G1);
  ASSERT_TRUE(C1.hasValue()) << C1.status().toString();
  EXPECT_EQ(S.cacheMisses(), 1u);
  EXPECT_EQ(S.cacheHits(), 0u);

  auto C2 = S.compile(G2);
  ASSERT_TRUE(C2.hasValue()) << C2.status().toString();
  EXPECT_EQ(S.cacheMisses(), 1u);
  EXPECT_EQ(S.cacheHits(), 1u);
  EXPECT_EQ(S.cacheSize(), 1u);
  // Pointer identity: the same CompiledPartition serves both graphs.
  EXPECT_EQ((*C1)->compiledPartition(0).get(),
            (*C2)->compiledPartition(0).get());

  // Different weight data must compile separately (fold results differ).
  Graph G3 = buildMlp(16, 32, 24, /*Seed=*/99);
  auto C3 = S.compile(G3);
  ASSERT_TRUE(C3.hasValue()) << C3.status().toString();
  EXPECT_EQ(S.cacheMisses(), 2u);
  EXPECT_NE((*C1)->compiledPartition(0).get(),
            (*C3)->compiledPartition(0).get());
}

TEST(GraphIr, FingerprintIsCanonicalAndContentSensitive) {
  Graph G1 = buildMlp();
  Graph G2 = buildMlp();
  EXPECT_EQ(G1.fingerprint(), G2.fingerprint());
  EXPECT_EQ(G1.fingerprint(), G1.clone().fingerprint());
  // Attribute changes alter the hash.
  Graph G3 = buildMlp();
  G3.op(G3.opIds()[0]).setAttr("transpose_b", int64_t(1));
  EXPECT_NE(G1.fingerprint(), G3.fingerprint());
  // Weight value changes alter the hash.
  Graph G4 = buildMlp(16, 32, 24, /*Seed=*/99);
  EXPECT_NE(G1.fingerprint(), G4.fingerprint());
}

/// Transpose perm [1,0] is not lowerable, but impl="native" forces the
/// partitioner to hand it to the compiler anyway — the compile fails with
/// Unsupported, exercising the negative (unsupported) cache.
Graph buildNativePinnedBadTranspose() {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {8, 6}, "x");
  G.markInput(X);
  const int64_t Out =
      G.addOp(OpKind::Transpose, {X}, DataType::F32, {6, 8},
              {{"perm", std::vector<int64_t>{1, 0}},
               {"impl", std::string("native")}});
  G.markOutput(Out);
  return G;
}

TEST(ApiSessionCache, UnsupportedVerdictIsNegativeCached) {
  api::Session S;
  Graph G1 = buildNativePinnedBadTranspose();
  auto C1 = S.compile(G1);
  ASSERT_TRUE(C1.hasValue()) << C1.status().toString();
  EXPECT_EQ((*C1)->numFallbackPartitions(), 1u);
  EXPECT_EQ(S.cacheMisses(), 1u); // one failed pipeline attempt

  // Identical subgraph: demoted straight from the negative cache, no
  // second pipeline run (no new miss, and no bogus hit either).
  Graph G2 = buildNativePinnedBadTranspose();
  auto C2 = S.compile(G2);
  ASSERT_TRUE(C2.hasValue()) << C2.status().toString();
  EXPECT_EQ((*C2)->numFallbackPartitions(), 1u);
  EXPECT_EQ(S.cacheMisses(), 1u);
  EXPECT_EQ(S.cacheHits(), 0u);

  // The demoted graph still executes correctly via the interpreter.
  runtime::TensorData In = test::randomTensor(DataType::F32, {8, 6}, 17);
  runtime::TensorData Got(DataType::F32, {6, 8});
  ASSERT_TRUE(S.stream().execute(**C2, {&In}, {&Got}).isOk());
  for (int64_t R = 0; R < 6; ++R)
    for (int64_t C = 0; C < 8; ++C)
      EXPECT_EQ(Got.dataAs<float>()[R * 8 + C],
                In.dataAs<float>()[C * 6 + R]);
}

TEST(ApiSessionCache, CollidingUnsupportedKeyDoesNotDemoteDifferentBoundary) {
  // Regression for the negative-cache collision bug: a fingerprint that
  // collides with a previously-unsupported subgraph must not demote a
  // compilable partition whose boundary differs — the signature guard has
  // to catch it. Forge the collision through the test seam (64-bit
  // fingerprints cannot be forced to collide from the outside).
  Graph G = buildMlp();
  const uint64_t Key = G.fingerprint(); // == the sole partition's key

  api::Session S;
  S.injectUnsupportedKeyForTesting(Key, buildNativePinnedBadTranspose());
  auto C = S.compile(G);
  ASSERT_TRUE(C.hasValue()) << C.status().toString();
  // Signature mismatch -> the verdict is ignored and the partition
  // compiles normally.
  EXPECT_EQ((*C)->numFallbackPartitions(), 0u);
  EXPECT_NE((*C)->compiledPartition(0), nullptr);
  EXPECT_EQ(S.cacheMisses(), 1u);
}

TEST(ApiSessionCache, MatchingUnsupportedKeySignatureDemotes) {
  // Control for the collision guard: when the stored signature DOES match
  // (a genuine revisit of the same boundary), the negative cache must
  // still short-circuit the pipeline.
  Graph G = buildMlp();
  api::Session S;
  S.injectUnsupportedKeyForTesting(G.fingerprint(), G);
  auto C = S.compile(G);
  ASSERT_TRUE(C.hasValue()) << C.status().toString();
  EXPECT_EQ((*C)->numFallbackPartitions(), 1u);
  EXPECT_EQ(S.cacheMisses(), 0u); // pipeline never ran

  // clearCache drops the verdict; the graph compiles normally again.
  S.clearCache();
  auto C2 = S.compile(G);
  ASSERT_TRUE(C2.hasValue()) << C2.status().toString();
  EXPECT_EQ((*C2)->numFallbackPartitions(), 0u);
  EXPECT_EQ(S.cacheMisses(), 1u);
}

TEST(ApiSessionCache, ConcurrentCompilesRaceOnOneKey) {
  // The try_emplace race: many threads compile the same graph against an
  // empty cache. Exactly one entry may survive; every compile must count
  // as a hit or a miss, and every returned CompiledGraph must serve the
  // one canonical cached partition.
  api::Session S;
  constexpr int kThreads = 8;
  std::vector<std::thread> Threads;
  std::vector<api::CompiledGraphPtr> Results(kThreads);
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      Graph G = buildMlp();
      auto C = S.compile(G);
      ASSERT_TRUE(C.hasValue()) << C.status().toString();
      Results[static_cast<size_t>(T)] = *C;
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(S.cacheSize(), 1u);
  EXPECT_EQ(S.cacheHits() + S.cacheMisses(),
            static_cast<uint64_t>(kThreads));
  EXPECT_GE(S.cacheMisses(), 1u);
  for (int T = 0; T < kThreads; ++T) {
    ASSERT_NE(Results[static_cast<size_t>(T)], nullptr);
    EXPECT_EQ(Results[static_cast<size_t>(T)]->compiledPartition(0).get(),
              Results[0]->compiledPartition(0).get());
  }
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(ApiSession, ConcurrentExecuteFromFourThreads) {
  Graph G = buildMlp(32, 48, 40);
  api::Session S;
  auto CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  const api::CompiledGraph &CG = **CompiledOr;

  constexpr int NumThreads = 4;
  constexpr int Iters = 16;
  std::vector<runtime::TensorData> Ins, Expected;
  for (int T = 0; T < NumThreads; ++T) {
    Ins.push_back(test::randomTensor(DataType::F32, {32, 48},
                                     1000 + static_cast<uint64_t>(T)));
    TensorMap Env;
    Env[G.inputs()[0]] = Ins.back().clone();
    Expected.push_back(
        std::move(runGraphReference(G, std::move(Env))[0]));
  }

  std::vector<runtime::TensorData> Outs;
  for (int T = 0; T < NumThreads; ++T)
    Outs.emplace_back(DataType::F32, std::vector<int64_t>{32, 40});
  std::vector<int> Failures(static_cast<size_t>(NumThreads), 0);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      api::Stream Str = S.stream();
      for (int I = 0; I < Iters; ++I) {
        runtime::TensorData &Out = Outs[static_cast<size_t>(T)];
        if (!Str.execute(CG, {&Ins[static_cast<size_t>(T)]}, {&Out})
                 .isOk() ||
            maxAbsDiff(Out, Expected[static_cast<size_t>(T)]) >
                test::kF32LooseTol)
          ++Failures[static_cast<size_t>(T)];
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Failures[static_cast<size_t>(T)], 0) << "thread " << T;
}

//===----------------------------------------------------------------------===//
// Error model & inspection accessors
//===----------------------------------------------------------------------===//

TEST(ApiSession, ArityAndDtypeErrorsAreStatusesNotAborts) {
  Graph G = buildMlp();
  api::Session S;
  auto CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue());
  api::Stream Str = S.stream();

  runtime::TensorData In = test::randomTensor(DataType::F32, {16, 32}, 8);
  runtime::TensorData Out(DataType::F32, {16, 24});

  const Status NoInputs = Str.execute(**CompiledOr, {}, {&Out});
  EXPECT_EQ(NoInputs.code(), StatusCode::InvalidArgument);

  runtime::TensorData WrongTy(DataType::S32, {16, 32});
  const Status BadTy = Str.execute(**CompiledOr, {&WrongTy}, {&Out});
  EXPECT_EQ(BadTy.code(), StatusCode::InvalidArgument);

  runtime::TensorData WrongShape(DataType::F32, {4, 4});
  const Status BadShape =
      Str.execute(**CompiledOr, {&In}, {&WrongShape});
  EXPECT_EQ(BadShape.code(), StatusCode::InvalidArgument);

  // Same element count, wrong shape (transposed) is rejected too.
  runtime::TensorData TransposedIn(DataType::F32, {32, 16});
  const Status BadLayout =
      Str.execute(**CompiledOr, {&TransposedIn}, {&Out});
  EXPECT_EQ(BadLayout.code(), StatusCode::InvalidArgument);

  EXPECT_TRUE(Str.execute(**CompiledOr, {&In}, {&Out}).isOk());
}

TEST(ApiSession, DuplicateOutputListingsAllReceiveTheResult) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 4}, "x");
  G.markInput(X);
  const int64_t Out = G.addOp(OpKind::ReLU, {X}, DataType::F32, {4, 4});
  G.markOutput(Out);
  G.markOutput(Out); // same tensor listed twice

  api::Session S;
  auto CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();

  runtime::TensorData In = test::randomTensor(DataType::F32, {4, 4}, 31);
  runtime::TensorData O1(DataType::F32, {4, 4}), O2(DataType::F32, {4, 4});
  O1.fillConstant(-99.0);
  O2.fillConstant(-99.0);
  ASSERT_TRUE(S.stream().execute(**CompiledOr, {&In}, {&O1, &O2}).isOk());
  EXPECT_LT(maxAbsDiff(O1, O2), 1e-12); // both buffers written
  EXPECT_GE(O1.dataAs<float>()[0], 0.0f);
}

TEST(ApiSession, NonPositiveDimensionRejectedWithoutFinalize) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {2, -1}, "x");
  G.markInput(X);
  G.markOutput(G.addOp(OpKind::Abs, {X}, DataType::F32, {2, -1}));
  api::Session S;
  auto CompiledOr = S.compile(G); // no finalize() call
  ASSERT_FALSE(CompiledOr.hasValue());
  EXPECT_EQ(CompiledOr.status().code(), StatusCode::InvalidGraph);
}

TEST(ApiSession, InvalidGraphIsRejectedWithStatus) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 4}, "x");
  G.markInput(X);
  const int64_t Dangling = G.addTensor(DataType::F32, {4, 4}, "dangling");
  const int64_t Out = G.addOp(OpKind::Add, {X, Dangling}, DataType::F32,
                              {4, 4});
  G.markOutput(Out);
  EXPECT_EQ(G.finalize().code(), StatusCode::InvalidGraph);
  api::Session S;
  auto CompiledOr = S.compile(G);
  ASSERT_FALSE(CompiledOr.hasValue());
  EXPECT_EQ(CompiledOr.status().code(), StatusCode::InvalidGraph);
}

TEST(ApiSession, StatsAreSafeBeforeFirstExecution) {
  Graph G = buildMlp();
  api::Session S;
  auto CompiledOr = S.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue());
  std::shared_ptr<core::CompiledPartition> CP =
      (*CompiledOr)->compiledPartition(0);
  ASSERT_NE(CP, nullptr);

  // Pre-execution: structural stats live. The fold-dependent fields are
  // zero after a fresh compile; a disk-cache hit (GC_CACHE=read/rw with
  // a warm GC_CACHE_DIR) pre-fires the fold at load, and a disk-cache
  // store (GC_CACHE=rw) folds to ship the packed weights, so then its
  // products are legitimately visible before the first execution.
  const core::PartitionStats Before = CP->stats();
  EXPECT_GT(Before.ParallelNests, 0);
  if (S.diskCacheHits() == 0 && S.diskCacheStores() == 0) {
    EXPECT_EQ(Before.FoldedTensors, 0u);
    EXPECT_EQ(Before.FoldedBytes, 0);
  } else {
    EXPECT_GT(Before.FoldedTensors, 0u);
    EXPECT_GT(Before.FoldedBytes, 0);
  }
  EXPECT_GE(CP->threadPool().numThreads(), 1);

  runtime::TensorData In = test::randomTensor(DataType::F32, {16, 32}, 9);
  runtime::TensorData Out(DataType::F32, {16, 24});
  ASSERT_TRUE(S.stream().execute(**CompiledOr, {&In}, {&Out}).isOk());

  // Post-execution: the fold ran once and its products are visible.
  const core::PartitionStats After = CP->stats();
  EXPECT_GT(After.FoldedTensors, 0u);
  EXPECT_GT(After.FoldedBytes, 0);
}

} // namespace
