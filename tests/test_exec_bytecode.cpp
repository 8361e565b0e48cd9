//===- test_exec_bytecode.cpp - bytecode executor tests ----------------------------===//
//
// The bytecode executor (exec/) is the one engine compiled partitions run
// on; test_compiler_sweep checks its outputs against the reference
// interpreter over the full shape set. This suite pins what that check
// cannot see: 4-thread execution is deterministic across runs and equal
// to the single-thread result, the compiled program's structure and
// barrier count, and hand-built scalar Tensor IR against closed-form
// expected values.
//
//===----------------------------------------------------------------------===//

#include "core/compiler.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace gc;
using namespace gc::graph;
using runtime::TensorData;

namespace {

/// Compiles \p G on \p Threads workers and executes it on deterministic
/// inputs; returns the outputs.
std::vector<TensorData> compileAndRun(const Graph &G, int Threads,
                                      uint64_t Seed) {
  core::CompileOptions Opts;
  Opts.Threads = Threads;
  auto Partition = test::compileOnePartition(G, Opts);

  std::vector<TensorData> Inputs;
  Rng R(Seed);
  for (int64_t In : G.inputs()) {
    const LogicalTensor &T = G.tensor(In);
    TensorData Data(T.Ty, T.Shape);
    Data.fillRandom(R);
    Inputs.push_back(std::move(Data));
  }
  std::vector<TensorData *> InPtrs;
  for (auto &T : Inputs)
    InPtrs.push_back(&T);

  std::vector<TensorData> Outs;
  std::vector<TensorData *> OutPtrs;
  for (const auto &Shape : Partition->outputShapes())
    Outs.emplace_back(G.tensor(G.outputs()[Outs.size()]).Ty, Shape);
  for (auto &T : Outs)
    OutPtrs.push_back(&T);
  EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
  return Outs;
}

//===----------------------------------------------------------------------===//
// Multi-thread determinism of the bytecode executor
//===----------------------------------------------------------------------===//

TEST(BytecodeDeterminism, FourThreadRunsAreIdentical) {
  workloads::MlpSpec Spec;
  Spec.Batch = 48;
  Spec.LayerDims = {19, 64, 33, 17};
  Spec.Seed = 5;
  const Graph G = workloads::buildMlp(Spec);

  // Single-thread result is the anchor; every 4-thread run must match it
  // bitwise (static partitioning + per-worker scratch => no run-to-run
  // variation).
  const std::vector<TensorData> Anchor = compileAndRun(G, /*Threads=*/1, 9);
  for (int Run = 0; Run < 3; ++Run) {
    const std::vector<TensorData> Out = compileAndRun(G, /*Threads=*/4, 9);
    ASSERT_EQ(Anchor.size(), Out.size());
    for (size_t I = 0; I < Anchor.size(); ++I)
      EXPECT_EQ(std::memcmp(Anchor[I].data(), Out[I].data(),
                            static_cast<size_t>(Anchor[I].numBytes())),
                0)
          << "run " << Run << " output " << I;
  }
}

TEST(BytecodeDeterminism, RepeatedExecutesOnOnePartitionMatch) {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  Spec.Heads = 2;
  Spec.SeqLen = 24;
  Spec.HeadDim = 16;
  Spec.Seed = 7;
  const Graph G = workloads::buildMha(Spec);

  core::CompileOptions Opts;
  Opts.Threads = 4;
  auto Partition = test::compileOnePartition(G, Opts);

  std::vector<TensorData> Inputs;
  Rng R(11);
  for (int64_t In : G.inputs()) {
    const LogicalTensor &T = G.tensor(In);
    TensorData Data(T.Ty, T.Shape);
    Data.fillRandom(R);
    Inputs.push_back(std::move(Data));
  }
  std::vector<TensorData *> InPtrs;
  for (auto &T : Inputs)
    InPtrs.push_back(&T);

  std::vector<TensorData> First;
  for (int Run = 0; Run < 4; ++Run) {
    std::vector<TensorData> Outs;
    std::vector<TensorData *> OutPtrs;
    for (const auto &Shape : Partition->outputShapes())
      Outs.emplace_back(G.tensor(G.outputs()[Outs.size()]).Ty, Shape);
    for (auto &T : Outs)
      OutPtrs.push_back(&T);
    ASSERT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
    if (Run == 0) {
      First = std::move(Outs);
      continue;
    }
    for (size_t I = 0; I < First.size(); ++I)
      EXPECT_EQ(std::memcmp(First[I].data(), Outs[I].data(),
                            static_cast<size_t>(First[I].numBytes())),
                0)
          << "run " << Run << " output " << I;
  }
}

//===----------------------------------------------------------------------===//
// Program structure sanity
//===----------------------------------------------------------------------===//

TEST(BytecodeProgram, CompilesWithDirectKernelPointersAndParallelNests) {
  workloads::MlpSpec Spec;
  Spec.Batch = 32;
  Spec.LayerDims = {32, 64, 32};
  const Graph G = workloads::buildMlp(Spec);
  core::CompileOptions Opts;
  Opts.Threads = 2;
  auto Partition = test::compileOnePartition(G, Opts);
  const exec::Program &P = Partition->bytecode();
  EXPECT_FALSE(P.Code.empty());
  EXPECT_GT(P.NumRegs, 0u);
  EXPECT_FALSE(P.Calls.empty());
  EXPECT_FALSE(P.Pars.empty());
  for (const exec::CallDesc &C : P.Calls)
    EXPECT_NE(C.Fn, nullptr);
  // Every parallel nest body lies inside the code stream.
  size_t ParInstrs = 0;
  for (size_t I = 0; I < P.Code.size(); ++I)
    if (P.Code[I].Op == exec::Opcode::ParallelFor) {
      ++ParInstrs;
      const exec::ParDesc &D =
          P.Pars[static_cast<size_t>(P.Code[I].Target)];
      EXPECT_LE(I + 1 + D.BodyLen, P.Code.size());
    }
  EXPECT_EQ(ParInstrs, P.Pars.size());
}

TEST(BytecodeProgram, BarrierCountMatchesProgramParallelNests) {
  workloads::MlpSpec Spec;
  Spec.Batch = 24;
  Spec.LayerDims = {19, 33, 17};
  const Graph G = workloads::buildMlp(Spec);
  core::CompileOptions Opts;
  Opts.Threads = 2;
  auto Partition = test::compileOnePartition(G, Opts);

  // The outermost parallel nests of the program: ParallelFor instructions
  // outside every other nest's body. Each non-empty one costs exactly one
  // pool barrier per execution.
  const exec::Program &P = Partition->bytecode();
  uint64_t Nests = 0;
  size_t BodyEnd = 0;
  for (size_t I = 0; I < P.Code.size(); ++I) {
    const exec::Instr &In = P.Code[I];
    if (In.Op != exec::Opcode::ParallelFor || I < BodyEnd)
      continue;
    ++Nests;
    BodyEnd = I + 1 + P.Pars[static_cast<size_t>(In.Target)].BodyLen;
  }
  EXPECT_GT(Nests, 0u);
  EXPECT_EQ(Nests,
            static_cast<uint64_t>(Partition->stats().ParallelNests));

  std::vector<TensorData> Inputs;
  Rng R(3);
  for (int64_t In : G.inputs()) {
    const LogicalTensor &T = G.tensor(In);
    TensorData Data(T.Ty, T.Shape);
    Data.fillRandom(R);
    Inputs.push_back(std::move(Data));
  }
  std::vector<TensorData *> InPtrs;
  for (auto &T : Inputs)
    InPtrs.push_back(&T);
  std::vector<TensorData> Outs;
  std::vector<TensorData *> OutPtrs;
  for (const auto &Shape : Partition->outputShapes())
    Outs.emplace_back(G.tensor(G.outputs()[Outs.size()]).Ty, Shape);
  for (auto &T : Outs)
    OutPtrs.push_back(&T);
  const uint64_t Before = Partition->threadPool().barrierCount();
  EXPECT_TRUE(Partition->execute(InPtrs, OutPtrs).isOk());
  EXPECT_EQ(Partition->threadPool().barrierCount() - Before, Nests);
}

} // namespace

//===----------------------------------------------------------------------===//
// Scalar loops, lets, loads/stores against closed forms
//===----------------------------------------------------------------------===//
//
// The graph-level sweep exercises the intrinsic-call path; this block
// feeds hand-built Tensor IR with scalar element loads/stores and nested
// serial loops through the executor, covering the opcode surface the
// lowered templates rarely emit.

namespace {

using namespace gc::tir;

TEST(BytecodeScalarOps, StridedAffineStoreMatchesClosedForm) {
  // out[i*N + j] = in[i*N + j] * 2 + j  over a 2-D nest, with a let in
  // between — exercises induction strength reduction on both loop levels.
  const int64_t M = 9, N = 13;
  Func F;
  F.Name = "scalar_nest";
  const int In = F.addBuffer("in", DataType::F32, {M * N},
                             BufferScope::Param);
  const int Out = F.addBuffer("out", DataType::F32, {M * N},
                              BufferScope::Param);
  Var I = makeVar("i"), J = makeVar("j"), Base = makeVar("base");
  Expr Loaded = std::make_shared<LoadNode>(
      In, std::vector<Expr>{Expr(Base) + Expr(J)}, ScalarType::F64);
  Stmt Inner = makeFor(
      J, makeInt(0), makeInt(N), makeInt(1),
      {makeStore(Out, {Expr(Base) + Expr(J)},
                 Loaded * makeFloat(2.0) + Expr(J))});
  Stmt Outer = makeFor(I, makeInt(0), makeInt(M), makeInt(1),
                       {makeLet(Base, Expr(I) * makeInt(N)), Inner});
  F.Body = {Outer};
  assignSlots(F);

  std::vector<float> Input(static_cast<size_t>(M * N));
  for (size_t K = 0; K < Input.size(); ++K)
    Input[K] = 0.25f * static_cast<float>(K % 37) - 2.0f;
  std::vector<float> Output(Input.size(), -1.0f);

  runtime::ThreadPool Pool(1);
  test::runTir(F, Pool, {{In, Input.data()}, {Out, Output.data()}});
  for (size_t K = 0; K < Output.size(); ++K)
    ASSERT_EQ(Output[K], Input[K] * 2.0f + static_cast<float>(K % N))
        << "element " << K;
}

TEST(BytecodeScalarOps, ZeroTripLoopNeverEvaluatesTrappingOffset) {
  // A zero-trip inner loop whose offset divides by a runtime zero: a
  // zero-trip loop's body is never evaluated, so the bytecode compiler
  // must not hoist its offset to the (executing) outer loop's entry.
  const int64_t N = 8;
  Func F;
  F.Name = "zero_trip_trap";
  const int Out = F.addBuffer("out", DataType::F32, {N}, BufferScope::Param);
  Var I = makeVar("i"), J = makeVar("j"), D = makeVar("d");
  Expr TrapOffset = makeInt(5) % Expr(D) + Expr(J);
  Stmt Inner = makeFor(J, makeInt(0), makeInt(0), makeInt(1),
                       {makeStore(Out, {TrapOffset}, makeFloat(1.0))});
  Stmt Outer = makeFor(I, makeInt(0), makeInt(4), makeInt(1),
                       {makeStore(Out, {Expr(I)}, makeFloat(2.0)), Inner});
  F.Body = {makeLet(D, makeInt(0)), Outer};
  assignSlots(F);

  std::vector<float> Output(static_cast<size_t>(N), 0.0f);
  runtime::ThreadPool Pool(1);
  test::runTir(F, Pool, {{Out, Output.data()}}); // must not SIGFPE
  EXPECT_EQ(Output, (std::vector<float>{2, 2, 2, 2, 0, 0, 0, 0}));
}

TEST(BytecodeScalarOps, IntQuantClampAndMixedTypesMatchClosedForm) {
  // s8 store with clamping plus integer min/max/div/mod arithmetic.
  const int64_t N = 64;
  Func F;
  F.Name = "clamp_mix";
  const int In = F.addBuffer("in", DataType::S32, {N}, BufferScope::Param);
  const int Out = F.addBuffer("out", DataType::S8, {N}, BufferScope::Param);
  Var I = makeVar("i");
  Expr Loaded = std::make_shared<LoadNode>(In, std::vector<Expr>{Expr(I)},
                                           ScalarType::I64);
  // value = min(max((x*3) / 2 % 300, -200), 250) - stresses clamp on store.
  Expr V = minExpr(maxExpr(Loaded * makeInt(3) / makeInt(2) % makeInt(300),
                           makeInt(-200)),
                   makeInt(250));
  F.Body = {makeFor(I, makeInt(0), makeInt(N), makeInt(1),
                    {makeStore(Out, {Expr(I)}, V)})};
  assignSlots(F);

  std::vector<int32_t> Input(static_cast<size_t>(N));
  for (size_t K = 0; K < Input.size(); ++K)
    Input[K] = static_cast<int32_t>(K * 17) - 300;
  std::vector<int8_t> Output(Input.size(), 1);

  runtime::ThreadPool Pool(1);
  test::runTir(F, Pool, {{In, Input.data()}, {Out, Output.data()}});
  for (size_t K = 0; K < Output.size(); ++K) {
    // Truncating division and remainder, then the s8 store saturates.
    const int64_t X = Input[K];
    const int64_t Value = std::min<int64_t>(
        std::max<int64_t>(X * 3 / 2 % 300, -200), 250);
    ASSERT_EQ(Output[K], static_cast<int8_t>(std::clamp<int64_t>(
                             Value, -128, 127)))
        << "element " << K;
  }
}

} // namespace
