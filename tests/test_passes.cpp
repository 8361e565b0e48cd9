//===- test_passes.cpp - Graph IR optimization pass tests -----------------------===//
//
// Per-pass unit tests of the §V pipeline: decomposition of every complex
// op (semantics preserved vs the un-decomposed reference), CSE, DCE,
// constant folding with the fold-function size cap, the Fig. 5 int8
// rewrite, fine-grain fusion region structure, and layout propagation's
// blocked layouts / prepack reorders / grid alignment.
//
//===----------------------------------------------------------------------===//

#include "graph/reference.h"
#include "passes/pass.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace gc;
using namespace gc::graph;
using namespace gc::passes;
using namespace gc::test;
using runtime::TensorData;

namespace {

PassOptions defaultOpts() {
  PassOptions Opts;
  Opts.Threads = 4;
  return Opts;
}

/// Runs one pass on G.
bool runPass(std::unique_ptr<Pass> P, Graph &G,
             PassOptions Opts = defaultOpts()) {
  PassManager PM(Opts);
  PM.addPass(std::move(P));
  EXPECT_TRUE(PM.run(G).isOk());
  return !PM.changedPasses().empty();
}

/// Counts ops of a kind.
int countKind(const Graph &G, OpKind Kind) {
  int N = 0;
  for (int64_t Id : G.opIds())
    if (G.op(Id).kind() == Kind)
      ++N;
  return N;
}

/// Output of the graph on fixed random inputs via the reference.
std::vector<TensorData> evalOnRandom(const Graph &G, uint64_t Seed) {
  TensorMap Env;
  Rng R(Seed);
  for (int64_t In : G.inputs()) {
    TensorData T(G.tensor(In).Ty, G.tensor(In).Shape);
    T.fillRandom(R);
    Env[In] = std::move(T);
  }
  return runGraphReference(G, std::move(Env));
}

/// Asserts a pass preserves graph semantics on random data.
void expectSemanticsPreserved(const Graph &Before, const Graph &After,
                              double Tol = 1e-4) {
  const auto A = evalOnRandom(Before, 5);
  const auto B = evalOnRandom(After, 5);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_LE(runtime::maxRelDiff(B[I], A[I], 1e-3), Tol);
}

//===----------------------------------------------------------------------===//
// Decomposition
//===----------------------------------------------------------------------===//

TEST(DecomposePass, SoftmaxStableSemantics) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 32}, "x");
  G.markInput(X);
  G.markOutput(G.addOp(OpKind::Softmax, {X}, DataType::F32, {4, 32},
                       {{"axis", int64_t(-1)}}));
  Graph Before = G.clone();
  PassOptions Opts = defaultOpts();
  Opts.FastSoftmax = false;
  runPass(createDecomposePass(), G, Opts);
  EXPECT_EQ(countKind(G, OpKind::Softmax), 0);
  EXPECT_EQ(countKind(G, OpKind::ReduceMax), 1);
  EXPECT_EQ(countKind(G, OpKind::Exp), 1);
  EXPECT_EQ(countKind(G, OpKind::ReduceSum), 1);
  runPass(createDcePass(), G);
  expectSemanticsPreserved(Before, G);
}

TEST(DecomposePass, SoftmaxFastDropsMaxReduction) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 16}, "x");
  G.markInput(X);
  G.markOutput(G.addOp(OpKind::Softmax, {X}, DataType::F32, {4, 16}));
  Graph Before = G.clone();
  PassOptions Opts = defaultOpts();
  Opts.FastSoftmax = true;
  runPass(createDecomposePass(), G, Opts);
  EXPECT_EQ(countKind(G, OpKind::ReduceMax), 0)
      << "fast softmax removes the max reduction (§VII)";
  runPass(createDcePass(), G);
  // Values still match the stable reference with moderate inputs.
  expectSemanticsPreserved(Before, G, 1e-3);
}

TEST(DecomposePass, GeluMatchesReference) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {8, 8}, "x");
  G.markInput(X);
  G.markOutput(G.addOp(OpKind::GELU, {X}, DataType::F32, {8, 8}));
  Graph Before = G.clone();
  runPass(createDecomposePass(), G);
  EXPECT_EQ(countKind(G, OpKind::GELU), 0);
  EXPECT_GE(static_cast<int>(G.numOps()), 8)
      << "gelu expands into a basic-op chain";
  runPass(createDcePass(), G);
  expectSemanticsPreserved(Before, G);
}

TEST(DecomposePass, BatchNormFoldsToAffine) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 8}, "x");
  G.markInput(X);
  Rng R(1);
  auto makeStat = [&](const char *Name, bool Positive) {
    const int64_t Id =
        G.addTensor(DataType::F32, {8}, Name, TensorProperty::Constant);
    TensorData D(DataType::F32, {8});
    for (int I = 0; I < 8; ++I)
      D.dataAs<float>()[I] =
          Positive ? 0.5f + R.uniform(0.0f, 1.0f) : R.uniform(-1.0f, 1.0f);
    G.setConstantData(Id, std::move(D));
    return Id;
  };
  const int64_t Gamma = makeStat("gamma", false);
  const int64_t Beta = makeStat("beta", false);
  const int64_t Mean = makeStat("mean", false);
  const int64_t Var = makeStat("var", true);
  G.markOutput(G.addOp(OpKind::BatchNorm, {X, Gamma, Beta, Mean, Var},
                       DataType::F32, {4, 8}, {{"epsilon", 1e-5}}));
  Graph Before = G.clone();
  runPass(createDecomposePass(), G);
  runPass(createDcePass(), G);
  EXPECT_EQ(countKind(G, OpKind::BatchNorm), 0);
  EXPECT_EQ(countKind(G, OpKind::Mul), 1);
  EXPECT_EQ(countKind(G, OpKind::Add), 1);
  expectSemanticsPreserved(Before, G);
}

TEST(DecomposePass, LayerNormSemantics) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {6, 16}, "x");
  const int64_t Gamma = G.addTensor(DataType::F32, {16}, "g");
  const int64_t Beta = G.addTensor(DataType::F32, {16}, "b");
  G.markInput(X);
  G.markInput(Gamma);
  G.markInput(Beta);
  G.markOutput(G.addOp(OpKind::LayerNorm, {X, Gamma, Beta}, DataType::F32,
                       {6, 16}, {{"epsilon", 1e-5}}));
  Graph Before = G.clone();
  runPass(createDecomposePass(), G);
  runPass(createDcePass(), G);
  EXPECT_EQ(countKind(G, OpKind::LayerNorm), 0);
  EXPECT_EQ(countKind(G, OpKind::ReduceSum), 2) << "mean and variance";
  expectSemanticsPreserved(Before, G, 1e-3);
}

//===----------------------------------------------------------------------===//
// CSE / DCE / constant folding
//===----------------------------------------------------------------------===//

TEST(CsePass, MergesIdenticalOps) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4}, "x");
  G.markInput(X);
  const int64_t R1 = G.addOp(OpKind::ReLU, {X}, DataType::F32, {4});
  const int64_t R2 = G.addOp(OpKind::ReLU, {X}, DataType::F32, {4});
  const int64_t Sum = G.addOp(OpKind::Add, {R1, R2}, DataType::F32, {4});
  G.markOutput(Sum);
  EXPECT_TRUE(runPass(createCsePass(), G));
  runPass(createDcePass(), G);
  EXPECT_EQ(countKind(G, OpKind::ReLU), 1);
}

TEST(CsePass, AttrsDistinguishOps) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 4}, "x");
  G.markInput(X);
  const int64_t Q1 = G.addOp(OpKind::Quantize, {X}, DataType::U8, {4, 4},
                             {{"scale", 0.1}, {"zp", int64_t(0)}});
  const int64_t Q2 = G.addOp(OpKind::Quantize, {X}, DataType::U8, {4, 4},
                             {{"scale", 0.2}, {"zp", int64_t(0)}});
  const int64_t C1 = G.addOp(OpKind::Cast, {Q1}, DataType::S32, {4, 4});
  const int64_t C2 = G.addOp(OpKind::Cast, {Q2}, DataType::S32, {4, 4});
  const int64_t Sum = G.addOp(OpKind::Add, {C1, C2}, DataType::S32, {4, 4});
  G.markOutput(Sum);
  runPass(createCsePass(), G);
  EXPECT_EQ(countKind(G, OpKind::Quantize), 2)
      << "different scales must not merge";
}

namespace {

/// One ReLU of a shared input per entry of \p Attrs, all summed into the
/// graph output; returns how many ReLUs are left after CSE and DCE.
int relusLeftAfterCse(const std::vector<AttrMap> &Attrs) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 8}, "x");
  G.markInput(X);
  int64_t Sum = -1;
  for (const AttrMap &A : Attrs) {
    const int64_t R = G.addOp(OpKind::ReLU, {X}, DataType::F32, {4, 8}, A);
    Sum = Sum < 0 ? R
                  : G.addOp(OpKind::Add, {Sum, R}, DataType::F32, {4, 8});
  }
  G.markOutput(Sum);
  runPass(createCsePass(), G);
  runPass(createDcePass(), G);
  return countKind(G, OpKind::ReLU);
}

/// One per-channel quantize of a shared [4, 768] input per scale vector,
/// each cast and summed into the output; returns how many quantizes are
/// left after CSE and DCE.
int quantizesLeftAfterCse(const std::vector<std::vector<double>> &Scales) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 768}, "x");
  G.markInput(X);
  int64_t Sum = -1;
  for (const std::vector<double> &S : Scales) {
    const int64_t Q =
        G.addOp(OpKind::Quantize, {X}, DataType::U8, {4, 768},
                {{"scales", S}, {"zp", int64_t(0)}, {"axis", int64_t(1)}});
    const int64_t C = G.addOp(OpKind::Cast, {Q}, DataType::S32, {4, 768});
    Sum = Sum < 0 ? C
                  : G.addOp(OpKind::Add, {Sum, C}, DataType::S32, {4, 768});
  }
  G.markOutput(Sum);
  runPass(createCsePass(), G);
  runPass(createDcePass(), G);
  return countKind(G, OpKind::Quantize);
}

AttrMap tag(AttrValue V) { return {{"tag", std::move(V)}}; }

double nanWithPayload(uint64_t Payload) {
  const uint64_t Bits = 0x7ff8000000000000ull | Payload;
  double D;
  std::memcpy(&D, &Bits, sizeof D);
  return D;
}

} // namespace

// CSE keys ops on the exact bytes of their attributes: equal values of
// one type merge, and anything that differs in a bit or in type does not.
TEST(CsePass, KeyIsExactBytes) {
  std::vector<double> Scales(768);
  for (size_t I = 0; I < Scales.size(); ++I)
    Scales[I] = 0.002 + 1e-6 * static_cast<double>(I);
  std::vector<double> LastDiffers = Scales;
  LastDiffers.back() = std::nextafter(LastDiffers.back(), 1.0);
  EXPECT_EQ(quantizesLeftAfterCse({Scales, Scales}), 1);
  EXPECT_EQ(quantizesLeftAfterCse({Scales, LastDiffers}), 2)
      << "scales differing in their last element must not merge";

  EXPECT_EQ(relusLeftAfterCse({tag(std::vector<int64_t>{3, 1, 2}),
                               tag(std::vector<int64_t>{3, 1, 2})}),
            1);
  EXPECT_EQ(relusLeftAfterCse({tag(std::vector<double>{0.5, -1.25}),
                               tag(std::vector<double>{0.5, -1.25})}),
            1);
  EXPECT_EQ(relusLeftAfterCse({tag(0.0), tag(-0.0)}), 2)
      << "0.0 and -0.0 must not merge";
  EXPECT_EQ(relusLeftAfterCse(
                {tag(int64_t(1)), tag(1.0), tag(std::string("1"))}),
            3)
      << "int 1, double 1.0 and string \"1\" must not merge";
  EXPECT_EQ(relusLeftAfterCse({tag(std::vector<int64_t>{}),
                               tag(std::vector<double>{}),
                               tag(std::string())}),
            3)
      << "empty values of different types must not merge";
  EXPECT_EQ(relusLeftAfterCse({tag(nanWithPayload(1)), tag(nanWithPayload(2))}),
            2)
      << "NaNs with different payloads must not merge";
  EXPECT_EQ(relusLeftAfterCse({tag(nanWithPayload(1)), tag(nanWithPayload(1))}),
            1);
}

TEST(DcePass, RemovesUnreachableChains) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4}, "x");
  G.markInput(X);
  const int64_t Live = G.addOp(OpKind::ReLU, {X}, DataType::F32, {4});
  const int64_t Dead1 = G.addOp(OpKind::Exp, {X}, DataType::F32, {4});
  G.addOp(OpKind::Tanh, {Dead1}, DataType::F32, {4});
  G.markOutput(Live);
  EXPECT_TRUE(runPass(createDcePass(), G));
  EXPECT_EQ(G.numOps(), 1u);
}

TEST(ConstantFoldPass, FoldsSmallRespectsCap) {
  Graph G;
  // Small constant chain folds; a big one stays for the fold function.
  const int64_t SmallC =
      G.addTensor(DataType::F32, {8}, "small", TensorProperty::Constant);
  TensorData SD(DataType::F32, {8});
  SD.fillConstant(2.0);
  G.setConstantData(SmallC, std::move(SD));
  const int64_t BigC = G.addTensor(DataType::F32, {128, 128}, "big",
                                   TensorProperty::Constant);
  TensorData BD(DataType::F32, {128, 128});
  BD.fillConstant(1.0);
  G.setConstantData(BigC, std::move(BD));

  const int64_t SmallSq =
      G.addOp(OpKind::Square, {SmallC}, DataType::F32, {8});
  const int64_t BigSq =
      G.addOp(OpKind::Square, {BigC}, DataType::F32, {128, 128});
  const int64_t X = G.addTensor(DataType::F32, {8}, "x");
  G.markInput(X);
  const int64_t O1 = G.addOp(OpKind::Add, {X, SmallSq}, DataType::F32, {8});
  G.markOutput(O1);
  const int64_t Red = G.addOp(OpKind::ReduceSum, {BigSq}, DataType::F32,
                              {128, 1}, {{"axes", std::vector<int64_t>{-1}}});
  const int64_t O2 =
      G.addOp(OpKind::Add, {X, Red}, DataType::F32, {128, 8});
  G.markOutput(O2);

  runPass(createConstantFoldPass(), G);
  EXPECT_EQ(countKind(G, OpKind::Square), 1)
      << "only the big square (128x128 > cap) remains";
  ASSERT_NE(G.constantData(SmallSq), nullptr);
  EXPECT_EQ(G.constantData(SmallSq)->dataAs<float>()[0], 4.0f);
}

//===----------------------------------------------------------------------===//
// Low precision (Fig. 5)
//===----------------------------------------------------------------------===//

TEST(LowPrecisionPass, RewritesDqMatmulPattern) {
  workloads::MlpSpec Spec;
  Spec.Batch = 8;
  Spec.LayerDims = {16, 32};
  Spec.Int8 = true;
  Spec.Seed = 2;
  Graph G = workloads::buildMlp(Spec);
  Graph Before = G.clone();
  EXPECT_TRUE(runPass(createLowPrecisionPass(), G));
  runPass(createDcePass(), G);

  // The matmul is now quantized with s32 accumulation.
  bool FoundQuantized = false;
  for (int64_t Id : G.opIds()) {
    const Op &O = G.op(Id);
    if (O.kind() != OpKind::MatMul)
      continue;
    FoundQuantized = O.getAttrInt("quantized", 0) == 1;
    EXPECT_EQ(G.tensor(O.output(0)).Ty, DataType::S32);
    EXPECT_EQ(G.tensor(O.input(0)).Ty, DataType::U8);
    EXPECT_EQ(G.tensor(O.input(1)).Ty, DataType::S8);
  }
  EXPECT_TRUE(FoundQuantized);
  EXPECT_EQ(countKind(G, OpKind::DequantAcc), 1);
  // The compensation chain exists (asymmetric activations).
  EXPECT_EQ(countKind(G, OpKind::Cast), 1);
  EXPECT_EQ(countKind(G, OpKind::ReduceSum), 1);
  // Semantics match the f32 dequantized form.
  const auto A = evalOnRandom(Before, 6);
  const auto B = evalOnRandom(G, 6);
  EXPECT_LE(runtime::maxAbsDiff(B[0], A[0]), 1.0);
}

TEST(LowPrecisionPass, SkipsNonQuantPatterns) {
  workloads::MlpSpec Spec;
  Spec.Batch = 8;
  Spec.LayerDims = {16, 32};
  Spec.Seed = 3;
  Graph G = workloads::buildMlp(Spec); // f32 flavour
  EXPECT_FALSE(runPass(createLowPrecisionPass(), G));
}

//===----------------------------------------------------------------------===//
// Fusion
//===----------------------------------------------------------------------===//

TEST(FusionPass, MlpLayerFormsOneRegion) {
  workloads::MlpSpec Spec;
  Spec.Batch = 8;
  Spec.LayerDims = {16, 32};
  Spec.Seed = 4;
  Graph G = workloads::buildMlp(Spec);
  runPass(createFusionPass(), G);
  ASSERT_EQ(countKind(G, OpKind::FusedOp), 1);
  for (int64_t Id : G.opIds()) {
    const Op &O = G.op(Id);
    if (O.kind() != OpKind::FusedOp)
      continue;
    EXPECT_EQ(O.getAttrInt("tunable"), 1);
    ASSERT_NE(O.subgraph(), nullptr);
    EXPECT_EQ(O.subgraph()->numOps(), 2u) << "matmul + bias add";
  }
}

TEST(FusionPass, SoftmaxChainSetsNeedsFullRows) {
  Graph G;
  const int64_t A = G.addTensor(DataType::F32, {8, 16}, "a");
  const int64_t B = G.addTensor(DataType::F32, {16, 16}, "b");
  G.markInput(A);
  G.markInput(B);
  const int64_t Mm = G.addOp(OpKind::MatMul, {A, B}, DataType::F32, {8, 16});
  const int64_t Sm = G.addOp(OpKind::Softmax, {Mm}, DataType::F32, {8, 16});
  G.markOutput(Sm);
  runPass(createDecomposePass(), G);
  runPass(createFusionPass(), G);
  ASSERT_EQ(countKind(G, OpKind::FusedOp), 1);
  for (int64_t Id : G.opIds())
    if (G.op(Id).kind() == OpKind::FusedOp) {
      EXPECT_EQ(G.op(Id).getAttrInt("needs_full_rows"), 1);
    }
}

TEST(FusionPass, DisabledStillWrapsSingletons) {
  workloads::MlpSpec Spec;
  Spec.Batch = 8;
  Spec.LayerDims = {16, 32, 16};
  Spec.Seed = 5;
  Graph G = workloads::buildMlp(Spec);
  PassOptions Opts = defaultOpts();
  Opts.EnableFineGrainFusion = false;
  runPass(createFusionPass(), G, Opts);
  for (int64_t Id : G.opIds())
    EXPECT_EQ(G.op(Id).kind(), OpKind::FusedOp);
  EXPECT_GE(countKind(G, OpKind::FusedOp), 5)
      << "each op is its own region";
}

TEST(FusionPass, ConvexityBlocksCycles) {
  // y = matmul(x, w); z = exp(y) [outside?]; out = add(y, reduce(z)):
  // fusing add would put a consumer of the region's transitive output
  // inside the region.
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {8, 8}, "x");
  const int64_t W = G.addTensor(DataType::F32, {8, 8}, "w");
  G.markInput(X);
  G.markInput(W);
  const int64_t Y = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {8, 8});
  const int64_t Z = G.addOp(OpKind::Transpose, {Y}, DataType::F32, {8, 8});
  const int64_t Out = G.addOp(OpKind::Add, {Y, Z}, DataType::F32, {8, 8});
  G.markOutput(Out);
  runPass(createFusionPass(), G);
  EXPECT_EQ(G.verify(), "");
  // Transpose is not fusible; Add reads Z which descends from Y, so Add
  // must NOT be inside the matmul region.
  for (int64_t Id : G.opIds()) {
    const Op &O = G.op(Id);
    if (O.kind() == OpKind::FusedOp && O.getAttrInt("tunable")) {
      for (int64_t SubOp : O.subgraph()->opIds())
        EXPECT_NE(O.subgraph()->op(SubOp).kind(), OpKind::Add);
    }
  }
}

//===----------------------------------------------------------------------===//
// Layout propagation
//===----------------------------------------------------------------------===//

TEST(LayoutPropagation, InsertsVnniWeightReorder) {
  workloads::MlpSpec Spec;
  Spec.Batch = 16;
  Spec.LayerDims = {32, 64};
  Spec.Int8 = true;
  Spec.Seed = 6;
  Graph G = workloads::buildMlp(Spec);
  for (auto &P : buildStandardPipeline(defaultOpts())) {
    PassManager PM(defaultOpts());
    PM.addPass(std::move(P));
    EXPECT_TRUE(PM.run(G).isOk());
  }
  int VnniReorders = 0;
  for (int64_t Id : G.opIds()) {
    const Op &O = G.op(Id);
    if (O.kind() == OpKind::Reorder &&
        G.tensor(O.output(0)).Lay.K == Layout::Kind::BlockedBVnni)
      ++VnniReorders;
  }
  EXPECT_EQ(VnniReorders, 1);
}

TEST(LayoutPropagation, NegotiatesBlockedIntermediate) {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = {64, 96, 32};
  Spec.Seed = 7;
  Graph G = workloads::buildMlp(Spec);
  for (auto &P : buildStandardPipeline(defaultOpts())) {
    PassManager PM(defaultOpts());
    PM.addPass(std::move(P));
    EXPECT_TRUE(PM.run(G).isOk());
  }
  // The tensor between the two fused matmul regions is BlockedA with the
  // producer's (MB, NB) as (MB, KB), and the consumer is marked
  // merge-able with aligned grids.
  int BlockedIntermediates = 0;
  for (int64_t Id : G.opIds()) {
    const Op &O = G.op(Id);
    if (O.kind() != OpKind::FusedOp || !O.getAttrInt("tunable"))
      continue;
    for (int64_t In : O.inputs())
      if (G.tensor(In).Lay.K == Layout::Kind::BlockedA) {
        ++BlockedIntermediates;
        const int64_t Prod = G.producerOf(In);
        ASSERT_GE(Prod, 0);
        const Op &P = G.op(Prod);
        EXPECT_EQ(P.getAttrInt("blk_mb"), O.getAttrInt("blk_mb"));
        EXPECT_EQ(P.getAttrInt("blk_nb"), O.getAttrInt("blk_kb"));
        EXPECT_EQ(P.getAttrInt("blk_mpn"), O.getAttrInt("blk_mpn"));
        EXPECT_EQ(O.getAttrInt("merge_prev"), 1);
      }
  }
  EXPECT_EQ(BlockedIntermediates, 1);
}

TEST(LayoutPropagation, GraphBoundariesStayPlain) {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = {64, 96, 32};
  Spec.Seed = 8;
  Graph G = workloads::buildMlp(Spec);
  for (auto &P : buildStandardPipeline(defaultOpts())) {
    PassManager PM(defaultOpts());
    PM.addPass(std::move(P));
    EXPECT_TRUE(PM.run(G).isOk());
  }
  for (int64_t In : G.inputs())
    EXPECT_TRUE(G.tensor(In).Lay.isPlain());
  for (int64_t Out : G.outputs())
    EXPECT_TRUE(G.tensor(Out).Lay.isPlain());
}

} // namespace
