//===- test_verify.cpp - Static verification layer tests ------------------===//
//
// Negative-path suite for src/verify/: every corruption class the
// verifiers exist to catch must be rejected with the right status code
// and a message that pinpoints the culprit (op id, statement path,
// instruction index, slot pair). Positive paths run the verifiers over
// real compiled workloads to pin down "no false positives" as a tested
// property, not just an observed one.
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "exec/program.h"
#include "graph/graph.h"
#include "support/str.h"
#include "tir/function.h"
#include "tir/stmt.h"
#include "verify/relational.h"
#include "verify/verify.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"

#include "test_utils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>

using namespace gc;
using namespace gc::graph;
using namespace gc::verify;

namespace {

/// Expects \p S to be an error of \p Code whose message mentions every
/// string in \p Mentions (the "pinpointed" part of the contract).
void expectRejected(const Status &S, StatusCode Code,
                    std::initializer_list<const char *> Mentions) {
  ASSERT_FALSE(S.isOk()) << "corruption was accepted";
  EXPECT_EQ(S.code(), Code) << S.toString();
  for (const char *M : Mentions)
    EXPECT_NE(S.message().find(M), std::string::npos)
        << "message lacks '" << M << "': " << S.toString();
}

//===----------------------------------------------------------------------===//
// Graph verifier
//===----------------------------------------------------------------------===//

Graph smallMatMul() {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 8}, "x");
  const int64_t W = G.addTensor(DataType::F32, {8, 16}, "w");
  G.markInput(X);
  G.markInput(W);
  const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {4, 16});
  const int64_t Out = G.addOp(OpKind::ReLU, {Mm}, DataType::F32, {4, 16});
  G.markOutput(Out);
  return G;
}

TEST(VerifyGraph, ValidGraphPasses) {
  Graph G = smallMatMul();
  EXPECT_TRUE(verifyGraph(G).isOk());
}

TEST(VerifyGraph, DanglingInputRejected) {
  Graph G = smallMatMul();
  // A tensor nobody produces and nobody marked as input.
  const int64_t Dangling = G.addTensor(DataType::F32, {8, 16}, "dangling");
  const int64_t MmOp = G.producerOf(G.op(G.producerOf(G.outputs()[0]))
                                        .input(0));
  G.setOpInputs(MmOp, {G.inputs()[0], Dangling});
  expectRejected(verifyGraph(G), StatusCode::InvalidGraph, {"no producer"});
}

TEST(VerifyGraph, DtypeMismatchRejected) {
  Graph G = smallMatMul();
  // ReLU must preserve dtype; flip its output tensor's type in place.
  G.tensor(G.outputs()[0]).Ty = DataType::S32;
  expectRejected(verifyGraph(G), StatusCode::InvalidGraph, {"relu"});
}

TEST(VerifyGraph, ShapeMismatchRejected) {
  Graph G = smallMatMul();
  G.tensor(G.outputs()[0]).Shape = {4, 17};
  expectRejected(verifyGraph(G), StatusCode::InvalidGraph, {"relu"});
}

TEST(VerifyGraph, DefBeforeUseCycleRejected) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 4}, "x");
  G.markInput(X);
  const int64_t A = G.addOp(OpKind::ReLU, {X}, DataType::F32, {4, 4});
  const int64_t B = G.addOp(OpKind::Exp, {A}, DataType::F32, {4, 4});
  G.markOutput(B);
  // Re-point the ReLU at the Exp's output: A -> B -> A.
  G.setOpInputs(G.producerOf(A), {B});
  expectRejected(verifyGraph(G), StatusCode::InvalidGraph, {"cycle"});
}

TEST(VerifyGraph, BadTransposePermRejected) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 8}, "x");
  G.markInput(X);
  const int64_t T =
      G.addOp(OpKind::Transpose, {X}, DataType::F32, {8, 4},
              {{"perm", std::vector<int64_t>{0, 0}}});
  G.markOutput(T);
  expectRejected(verifyGraph(G), StatusCode::InvalidGraph, {"perm"});
}

TEST(VerifyGraph, BadReduceAxisRejected) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {4, 8}, "x");
  G.markInput(X);
  const int64_t R =
      G.addOp(OpKind::ReduceSum, {X}, DataType::F32, {4},
              {{"axes", std::vector<int64_t>{5}}, {"keep_dims", int64_t(0)}});
  G.markOutput(R);
  expectRejected(verifyGraph(G), StatusCode::InvalidGraph, {"axis"});
}

TEST(VerifyGraph, ErrorNamesTheOp) {
  Graph G = smallMatMul();
  const int64_t MmOut = G.op(G.producerOf(G.outputs()[0])).input(0);
  const int64_t MmOp = G.producerOf(MmOut);
  G.tensor(MmOut).Shape = {5, 16}; // MatMul [4,8]x[8,16] must give [4,16]
  expectRejected(verifyGraph(G), StatusCode::InvalidGraph,
                 {formatString("op%lld", (long long)MmOp).c_str(),
                  "matmul"});
}

//===----------------------------------------------------------------------===//
// Tensor IR verifier
//===----------------------------------------------------------------------===//

/// for i in [0, 8): buf[i] = src[0] — a minimal well-formed function,
/// one 1 x 1 copy per iteration.
tir::Func smallFunc(int64_t Elems = 8, int64_t Trip = 8) {
  tir::Func F;
  F.Name = "tf";
  const int B = F.addBuffer("buf", DataType::F32, {Elems},
                            tir::BufferScope::Param, 0);
  const int Src = F.addBuffer("src", DataType::F32, {1},
                              tir::BufferScope::Param, 1);
  tir::Var I = tir::makeVar("i");
  F.Body.push_back(tir::makeFor(
      I, tir::makeInt(0), tir::makeInt(Trip), tir::makeInt(1),
      {test::copyElem(B, tir::Expr(I), Src, tir::makeInt(0))}));
  return F;
}

/// The buffer-argument offset of the copy into buf in smallFunc.
tir::Expr &storeOffset(tir::Func &F) {
  auto &For = static_cast<tir::ForNode &>(*F.Body[0]);
  return static_cast<tir::CallNode &>(*For.Body[0]).Buffers[0].Offset;
}

TEST(VerifyFunc, ValidFuncPasses) {
  EXPECT_TRUE(verifyFunc(smallFunc()).isOk());
}

TEST(VerifyFunc, UseBeforeDefRejected) {
  tir::Func F = smallFunc();
  storeOffset(F) = tir::Expr(tir::makeVar("ghost"));
  expectRejected(verifyFunc(F), StatusCode::Internal, {"ghost"});
}

TEST(VerifyFunc, NonPositiveStepRejected) {
  tir::Func F = smallFunc();
  static_cast<tir::ForNode &>(*F.Body[0]).Step = tir::makeInt(0);
  expectRejected(verifyFunc(F), StatusCode::Internal, {"step"});
}

TEST(VerifyFunc, ConstOobStoreRejected) {
  tir::Func F = smallFunc();
  storeOffset(F) = tir::makeInt(8);
  expectRejected(verifyFunc(F), StatusCode::Internal, {"buf", "8 elements"});
}

TEST(VerifyFunc, LoopDrivenOobStoreRejected) {
  // Loop runs to 12 over an 8-element buffer: the affine range analysis
  // must catch the escape even though no single index is constant.
  tir::Func F = smallFunc(/*Elems=*/8, /*Trip=*/12);
  expectRejected(verifyFunc(F), StatusCode::Internal, {"buf"});
}

TEST(VerifyFunc, CallArityRejected) {
  tir::Func F;
  const int B = F.addBuffer("b", DataType::F32, {64},
                            tir::BufferScope::Param, 0);
  F.Body.push_back(tir::makeCall(tir::Intrinsic::CopyTileRaw,
                                 {tir::BufferRef(B, tir::makeInt(0)),
                                  tir::BufferRef(B, tir::makeInt(32))},
                                 {tir::makeInt(4), tir::makeInt(4)}));
  expectRejected(verifyFunc(F), StatusCode::Internal, {"scalar args"});
}

TEST(VerifyFunc, CallDtypeRejected) {
  tir::Func F;
  const int C = F.addBuffer("c", DataType::S32, {64},
                            tir::BufferScope::Param, 0);
  const int A = F.addBuffer("a", DataType::F32, {64},
                            tir::BufferScope::Param, 1);
  const int B = F.addBuffer("bw", DataType::F32, {64},
                            tir::BufferScope::Param, 2);
  std::vector<tir::Expr> Sc;
  for (int I = 0; I < 10; ++I)
    Sc.push_back(tir::makeInt(I < 6 ? 4 : 1));
  F.Body.push_back(tir::makeCall(tir::Intrinsic::BrgemmF32,
                                 {tir::BufferRef(C, tir::makeInt(0)),
                                  tir::BufferRef(A, tir::makeInt(0)),
                                  tir::BufferRef(B, tir::makeInt(0))},
                                 Sc));
  expectRejected(verifyFunc(F), StatusCode::Internal,
                 {"element type", "s32"});
}

TEST(VerifyFunc, UnknownIntrinsicRejected) {
  // Ids without a row: one far past the table, and the first retired id
  // (kNumIntrinsics itself). Neither may reach a kernel adapter.
  for (const unsigned Id : {200u, unsigned{tir::kNumIntrinsics}}) {
    const auto In = static_cast<tir::Intrinsic>(Id);
    tir::Func F;
    const int A = F.addBuffer("a", DataType::F32, {64},
                              tir::BufferScope::Param, 0);
    const int B = F.addBuffer("b", DataType::F32, {64},
                              tir::BufferScope::Param, 1);
    F.Body.push_back(tir::makeCall(In,
                                   {tir::BufferRef(A, tir::makeInt(0)),
                                    tir::BufferRef(B, tir::makeInt(0))},
                                   {}));
    expectRejected(verifyFunc(F), StatusCode::Internal,
                   {"body[0]", "unknown intrinsic"});
    EXPECT_EQ(exec::kernelAdapter(In), nullptr) << "id " << Id;
  }
}

TEST(VerifyFunc, ArenaOverflowRejected) {
  tir::Func F = smallFunc();
  F.Buffers[0].Scope = tir::BufferScope::Temp;
  F.Buffers[0].ArenaOffset = 0;
  F.ArenaBytes = 16; // 8 f32 elements need 32
  expectRejected(verifyFunc(F), StatusCode::Internal, {"arena"});
}

//===----------------------------------------------------------------------===//
// Bytecode program verifier
//===----------------------------------------------------------------------===//

/// Appends a 1 x 1 copy_tile_raw call buf[r<OffsetReg>] = src[0] to \p P
/// (buffer 0 is buf, buffer 1 src) and returns its descriptor index.
int32_t addCopyCall(exec::Program &P, uint16_t OffsetReg) {
  exec::CallDesc C;
  C.In = tir::Intrinsic::CopyTileRaw;
  C.Fn = exec::kernelAdapter(C.In);
  C.NumBufs = 2;
  C.Bufs[0] = {0, OffsetReg, true};
  C.Bufs[1] = {1, 0, false};
  const int64_t Scalars[] = {1, 1, 1, 1, 4}; // Rows Cols LdD LdS ElemSize
  std::copy(std::begin(Scalars), std::end(Scalars), C.SI);
  P.Calls.push_back(C);
  return static_cast<int32_t>(P.Calls.size() - 1);
}

/// buf (8 f32 elements) and src (1) of the hand-built programs.
void addBuffers(exec::Program &P, int64_t BufElems) {
  exec::BufferInfo B;
  B.Bytes = 4 * BufElems;
  B.ElemSize = 4;
  B.Scope = tir::BufferScope::Param;
  P.Buffers.push_back(B);
  B.Bytes = 4;
  P.Buffers.push_back(B);
}

/// Minimal canonical serial loop: for (r0 = r1; r0 < r2; r0 += r3)
/// buf[r0] = src[0] — exactly the shape the program builder emits.
exec::Program smallProgram() {
  using exec::Instr;
  using exec::Opcode;
  exec::Program P;
  P.Name = "tp";
  P.NumRegs = 4;
  P.InitRegs = {0, 0, 8, 1}; // r1 begin, r2 end, r3 step
  addBuffers(P, 8);
  const int32_t Call = addCopyCall(P, /*OffsetReg=*/0);
  P.Code.push_back(Instr{Opcode::Mov, 0, 1, 0, 0, 0});
  P.Code.push_back(Instr{Opcode::JumpIfGeI, 0, 2, 0, 3, 0});
  P.Code.push_back(Instr{Opcode::CallKernel, 0, 0, 0, Call, 0});
  P.Code.push_back(Instr{Opcode::LoopNext, 0, 3, 2, -1, 0});
  return P;
}

TEST(VerifyProgram, ValidProgramPasses) {
  const Status S = verifyProgram(smallProgram());
  EXPECT_TRUE(S.isOk()) << S.toString();
}

TEST(VerifyProgram, BadRegisterIndexRejected) {
  exec::Program P = smallProgram();
  P.Calls[0].Bufs[0].OffsetReg = 9; // outside the 4-register image
  expectRejected(verifyProgram(P), StatusCode::Internal,
                 {"register image", "instr 2"});
}

TEST(VerifyProgram, UnknownOpcodeRejected) {
  exec::Program P = smallProgram();
  P.Code[0].Op = static_cast<exec::Opcode>(exec::kNumOpcodes);
  expectRejected(verifyProgram(P), StatusCode::Internal,
                 {"invalid opcode", "instr 0"});
}

TEST(VerifyProgram, InitImageSizeMismatchRejected) {
  exec::Program P = smallProgram();
  P.InitRegs.resize(3);
  expectRejected(verifyProgram(P), StatusCode::Internal, {"init image"});
}

TEST(VerifyProgram, JumpOutsideCodeRejected) {
  exec::Program P = smallProgram();
  P.Code[1].Target = 40;
  expectRejected(verifyProgram(P), StatusCode::Internal,
                 {"jump target", "instr 1"});
}

TEST(VerifyProgram, BadCallDescriptorIndexRejected) {
  exec::Program P = smallProgram();
  P.Code[2] = exec::Instr{exec::Opcode::CallKernel, 0, 0, 0, 5, 0};
  expectRejected(verifyProgram(P), StatusCode::Internal,
                 {"call descriptor", "instr 2"});
}

TEST(VerifyProgram, NullKernelPointerRejected) {
  exec::Program P = smallProgram();
  P.Calls[0].Fn = nullptr;
  expectRejected(verifyProgram(P), StatusCode::Internal, {"null function"});
}

TEST(VerifyProgram, ConstOobStoreRejected) {
  exec::Program P = smallProgram();
  P.InitRegs[2] = 12; // loop now runs r0 over [0, 12) against 8 elements
  expectRejected(verifyProgram(P), StatusCode::Internal,
                 {"kernel-call buffer offset", "8 elements"});
}

TEST(VerifyProgram, StrayBackEdgeRejected) {
  exec::Program P = smallProgram();
  P.Code.erase(P.Code.begin() + 1); // drop the guard; LoopNext is orphaned
  expectRejected(verifyProgram(P), StatusCode::Internal, {"back edge"});
}

TEST(VerifyProgram, RealCompiledProgramsPass) {
  // Every Program the compiler produces for a real workload must verify:
  // run an MLP and an int8 MLP through Session with the verify level
  // forced to All (which routes every compile through all verifiers).
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::All);
  for (const bool Int8 : {false, true}) {
    workloads::MlpSpec Spec;
    Spec.Batch = 8;
    Spec.LayerDims = {16, 32, 24};
    Spec.Int8 = Int8;
    Graph G = workloads::buildMlp(Spec);
    api::Session S;
    auto CG = S.compile(G);
    ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  }
  setVerifyLevel(Prev);
}

//===----------------------------------------------------------------------===//
// Memory-plan alias checker
//===----------------------------------------------------------------------===//

/// Chain t1 = P0(t0), t2 = P1(t1), out t3 = P2(t2): two intermediates
/// whose lifetimes are disjoint (t1 dies when P1 runs... but t1 is read
/// BY P1 while it writes t2, so t1/t2 may NOT alias; t1 and any slot
/// produced after P1's consumers may).
MemoryPlanView chainPlan() {
  MemoryPlanView V;
  V.GraphInputs = {0};
  V.GraphOutputs = {3};
  V.Partitions.push_back({{0}, {1}});
  V.Partitions.push_back({{1}, {2}});
  V.Partitions.push_back({{2}, {3}});
  V.Slots.push_back({1, 0, 64});
  V.Slots.push_back({2, 64, 64});
  V.ArenaBytes = 128;
  return V;
}

TEST(VerifyMemPlan, ValidPlanPasses) {
  const Status S = verifyMemoryPlan(chainPlan());
  EXPECT_TRUE(S.isOk()) << S.toString();
}

TEST(VerifyMemPlan, LiveOverlapRejected) {
  MemoryPlanView V = chainPlan();
  // t1 is read by P1 while P1 writes t2: same bytes = corruption.
  V.Slots[1].Offset = 32;
  expectRejected(verifyMemoryPlan(V), StatusCode::Internal,
                 {"overlap", "t1", "t2"});
}

TEST(VerifyMemPlan, SafeReuseAccepted) {
  // t1's last reader is P1; a slot produced by P2 (after every use of
  // t1) may legally reuse t1's bytes.
  MemoryPlanView V;
  V.GraphInputs = {0};
  V.GraphOutputs = {4};
  V.Partitions.push_back({{0}, {1}});
  V.Partitions.push_back({{1}, {2}});
  V.Partitions.push_back({{2}, {3}});
  V.Partitions.push_back({{3}, {4}});
  V.Slots.push_back({1, 0, 64});
  V.Slots.push_back({2, 64, 64});
  V.Slots.push_back({3, 0, 64}); // reuses t1's bytes — legal
  V.ArenaBytes = 128;
  const Status S = verifyMemoryPlan(V);
  EXPECT_TRUE(S.isOk()) << S.toString();
}

TEST(VerifyMemPlan, UnsafeReuseAcrossBranchRejected) {
  // Diamond: P0 -> {P1, P2} -> P3. t1 (made by P1) and t2 (made by P2)
  // have no ordering between them; sharing bytes is illegal even though
  // the serial list order would happen to work.
  MemoryPlanView V;
  V.GraphInputs = {0};
  V.GraphOutputs = {5};
  V.Partitions.push_back({{0}, {1}});      // P0: t1
  V.Partitions.push_back({{1}, {2}});      // P1: t2
  V.Partitions.push_back({{1}, {3}});      // P2: t3 (parallel with P1)
  V.Partitions.push_back({{2, 3}, {5}});   // P3: out
  V.Slots.push_back({1, 0, 64});
  V.Slots.push_back({2, 64, 64});
  V.Slots.push_back({3, 64, 64}); // same bytes as t2, but P1 !< P2
  V.ArenaBytes = 128;
  expectRejected(verifyMemoryPlan(V), StatusCode::Internal,
                 {"t2", "t3", "overlap"});
}

TEST(VerifyMemPlan, UnproducedInputRejected) {
  MemoryPlanView V = chainPlan();
  V.Partitions[1].Inputs = {7};
  expectRejected(verifyMemoryPlan(V), StatusCode::Internal,
                 {"t7", "neither", "partition 1"});
}

TEST(VerifyMemPlan, NonTopologicalOrderRejected) {
  MemoryPlanView V = chainPlan();
  std::swap(V.Partitions[1], V.Partitions[2]);
  expectRejected(verifyMemoryPlan(V), StatusCode::Internal,
                 {"topologically"});
}

TEST(VerifyMemPlan, SlotBeyondArenaRejected) {
  MemoryPlanView V = chainPlan();
  V.ArenaBytes = 96; // second slot spans [64, 128)
  expectRejected(verifyMemoryPlan(V), StatusCode::Internal,
                 {"t2", "arena"});
}

TEST(VerifyMemPlan, MissingSlotRejected) {
  MemoryPlanView V = chainPlan();
  V.Slots.pop_back();
  expectRejected(verifyMemoryPlan(V), StatusCode::Internal,
                 {"t2", "no arena slot"});
}

TEST(VerifyMemPlan, DuplicateProducerRejected) {
  MemoryPlanView V = chainPlan();
  // Partition 2 also claims t2, which partition 1 already produces: a
  // write-write conflict under the async scheduler.
  V.Partitions[2].Outputs = {2, 3};
  expectRejected(verifyMemoryPlan(V), StatusCode::Internal,
                 {"t2", "written by both"});
}

//===----------------------------------------------------------------------===//
// Symbolic bounds: Tensor IR edge tiles
//===----------------------------------------------------------------------===//

/// for i in [0,3): for j in [0, min(4, N - 4*i)): buf[4*i + j] = src[0]
/// — a correlated edge-tile pattern plain intervals cannot decide (the
/// inner extent's interval is [*, 4], so 4*i + j would reach 11).
tir::Func edgeTileFunc(int64_t Elems, int64_t N) {
  tir::Func F;
  F.Name = "edge";
  const int B = F.addBuffer("buf", DataType::F32, {Elems},
                            tir::BufferScope::Param, 0);
  const int Src = F.addBuffer("src", DataType::F32, {1},
                              tir::BufferScope::Param, 1);
  tir::Var I = tir::makeVar("i");
  tir::Var J = tir::makeVar("j");
  tir::Expr Extent = tir::minExpr(
      tir::makeInt(4), tir::makeInt(N) - tir::makeInt(4) * tir::Expr(I));
  tir::Expr Idx = tir::makeInt(4) * tir::Expr(I) + tir::Expr(J);
  F.Body.push_back(tir::makeFor(
      I, tir::makeInt(0), tir::makeInt(3), tir::makeInt(1),
      {tir::makeFor(J, tir::makeInt(0), std::move(Extent), tir::makeInt(1),
                    {test::copyElem(B, std::move(Idx), Src,
                                    tir::makeInt(0))})}));
  return F;
}

TEST(VerifyFuncRelational, EdgeTileExactExtentProved) {
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::All);
  resetVerifyStats();
  const Status S = verifyFunc(edgeTileFunc(/*Elems=*/9, /*N=*/9));
  EXPECT_TRUE(S.isOk()) << S.toString();
  const VerifyStats St = verifyStats();
  EXPECT_GT(St.BoundsProved, 0u);
  EXPECT_EQ(St.BoundsUndecided, 0u)
      << "edge-tile access fell back to the undecided skip";
  setVerifyLevel(Prev);
}

TEST(VerifyFuncRelational, EdgeTileOffByOneRejected) {
  // Same loop with the source extent off by one (N = 10 over 9
  // elements): i = 2 reaches buf[9].
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::All);
  expectRejected(verifyFunc(edgeTileFunc(/*Elems=*/9, /*N=*/10)),
                 StatusCode::Internal, {"buf", "9 elements"});
  setVerifyLevel(Prev);
}

//===----------------------------------------------------------------------===//
// Static race analysis over bytecode
//===----------------------------------------------------------------------===//

/// Parallel loop over r0 in [0,4) whose body copies into buf[r0] and,
/// when \p Racy, also into buf[r0 + 1] — iterations i and i+1 then
/// collide on element i+1.
exec::Program parallelStoreProgram(bool Racy) {
  using exec::Instr;
  using exec::Opcode;
  exec::Program P;
  P.Name = "pp";
  P.NumRegs = 5;
  P.InitRegs = {0, 0, 4, 1, 0}; // r1 begin, r2 end, r3 step
  addBuffers(P, 5);
  exec::ParDesc D;
  D.VarReg = 0;
  D.BeginReg = 1;
  D.EndReg = 2;
  D.StepReg = 3;
  D.BodyLen = Racy ? 4 : 1;
  P.Pars.push_back(D);
  P.Code.push_back(Instr{Opcode::ParallelFor, 0, 0, 0, 0, 0});
  P.Code.push_back(
      Instr{Opcode::CallKernel, 0, 0, 0, addCopyCall(P, 0), 0}); // buf[r0]
  if (Racy) {
    P.Code.push_back(Instr{Opcode::Mov, 4, 0, 0, 0, 0});
    P.Code.push_back(Instr{Opcode::AddImmI, 4, 0, 0, 0, 1}); // r4 = r0+1
    P.Code.push_back(
        Instr{Opcode::CallKernel, 0, 0, 0, addCopyCall(P, 4), 0}); // buf[r4]
  }
  return P;
}

TEST(VerifyProgramRelational, DisjointParallelStoresProved) {
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::All);
  resetVerifyStats();
  const Status S = verifyProgram(parallelStoreProgram(/*Racy=*/false));
  EXPECT_TRUE(S.isOk()) << S.toString();
  EXPECT_GT(verifyStats().RacePairsProved, 0u);
  setVerifyLevel(Prev);
}

TEST(VerifyProgramRelational, OverlappingParallelStoresRejected) {
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::All);
  expectRejected(verifyProgram(parallelStoreProgram(/*Racy=*/true)),
                 StatusCode::Internal,
                 {"static race", "instr 1 (copy_tile_raw arg D)",
                  "instr 4 (copy_tile_raw arg D)"});
  setVerifyLevel(Prev);
}

TEST(VerifyLoadedProgram, RacingArtifactRejectedEvenAtOff) {
  // verifyLoadedProgram is the gate ArtifactCodec::deserialize runs on
  // every cache load; a crafted artifact with a racing parallel loop
  // must be rejected even when the session runs at GC_VERIFY=off.
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::Off);
  expectRejected(verifyLoadedProgram(parallelStoreProgram(/*Racy=*/true),
                                     "cache load"),
                 StatusCode::Internal,
                 {"static race", "instr 1 (copy_tile_raw arg D)",
                  "instr 4 (copy_tile_raw arg D)"});
  setVerifyLevel(Prev);
}

//===----------------------------------------------------------------------===//
// Zero conservative skips on standard workloads
//===----------------------------------------------------------------------===//

Graph softmaxGraph(int64_t Rows, int64_t Cols) {
  Graph G;
  const std::vector<int64_t> Shape = {Rows, Cols};
  const int64_t In = G.addTensor(DataType::F32, Shape, "x");
  G.markInput(In);
  const int64_t Out = G.addOp(OpKind::Softmax, {In}, DataType::F32, Shape,
                              {{"axis", int64_t(-1)}});
  G.markOutput(Out);
  return G;
}

Graph mhaGraph() {
  workloads::MhaSpec Spec;
  Spec.Batch = 2; // multi-head grid => div/mod-decomposed parallel index
  return workloads::buildMha(Spec);
}

TEST(VerifyRelationalStats, StandardWorkloadsHaveZeroSkips) {
  // The acceptance bar for the symbolic engine: every footprint in the
  // standard workload set is decided (proved in-bounds), none fall into
  // the "deliberately out of scope" undecided class, and the parallel
  // loops get real race proofs.
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::All);
  resetVerifyStats();
  for (const bool Int8 : {false, true}) {
    workloads::MlpSpec Spec;
    Spec.Batch = 8;
    Spec.LayerDims = {16, 32, 24};
    Spec.Int8 = Int8;
    api::Session S;
    auto CG = S.compile(workloads::buildMlp(Spec));
    ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  }
  {
    api::Session S;
    auto CG = S.compile(mhaGraph());
    ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  }
  {
    api::Session S;
    auto CG = S.compile(softmaxGraph(64, 64));
    ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
  }
  const VerifyStats St = verifyStats();
  EXPECT_GT(St.BoundsProved, 0u);
  EXPECT_EQ(St.BoundsUndecided, 0u)
      << "a standard-workload footprint fell back to the undecided skip";
  EXPECT_GT(St.RacePairsProved, 0u);
  setVerifyLevel(Prev);
}

//===----------------------------------------------------------------------===//
// Differential execution vs GC_VERIFY=off
//===----------------------------------------------------------------------===//

/// Compiles and runs \p G with deterministic inputs; dynamic leading
/// dims are bound to \p DynBatch. Asserts compile + execute succeed.
runtime::TensorData runGraph(const Graph &G, int64_t DynBatch = 8) {
  api::Session S;
  auto CG = S.compile(G);
  EXPECT_TRUE(CG.hasValue()) << CG.status().toString();
  if (!CG.hasValue())
    return runtime::TensorData(DataType::F32, {1});
  const auto Bind = [&](std::vector<int64_t> Shape) {
    for (int64_t &D : Shape)
      if (D == LogicalTensor::kDynamicDim)
        D = DynBatch;
    return Shape;
  };
  std::vector<runtime::TensorData> Ins;
  Ins.reserve(G.inputs().size());
  for (const int64_t Id : G.inputs()) {
    const LogicalTensor &T = G.tensor(Id);
    Ins.push_back(test::randomTensor(T.Ty, Bind(T.Shape),
                                     1234 + static_cast<uint64_t>(Id)));
  }
  std::vector<runtime::TensorData *> InPtrs;
  for (runtime::TensorData &T : Ins)
    InPtrs.push_back(&T);
  const LogicalTensor &OutT = G.tensor(G.outputs()[0]);
  runtime::TensorData Out(OutT.Ty, Bind(OutT.Shape));
  const Status St = S.stream().execute(**CG, InPtrs, {&Out});
  EXPECT_TRUE(St.isOk()) << St.toString();
  return Out;
}

TEST(VerifyRelationalDifferential, BitIdenticalExecutionAcrossTiers) {
  // Full workload sweep: full verification must neither reject a
  // standard workload (zero conservative rejections) nor perturb its
  // execution — outputs are compared bit-for-bit against GC_VERIFY=off.
  std::vector<Graph> Graphs;
  for (const bool Int8 : {false, true}) {
    workloads::MlpSpec Spec;
    Spec.Batch = 8;
    Spec.LayerDims = {16, 32, 24};
    Spec.Int8 = Int8;
    Graphs.push_back(workloads::buildMlp(Spec));
  }
  Graphs.push_back(mhaGraph());
  Graphs.push_back(softmaxGraph(64, 64));
  {
    // Dynamic-batch MLP: leading dim compiled polymorphically.
    Graph G;
    const int64_t W = 32;
    const int64_t X = G.addTensor(
        DataType::F32, {LogicalTensor::kDynamicDim, W}, "x");
    G.markInput(X);
    const int64_t Wt =
        G.addTensor(DataType::F32, {W, W}, "w", TensorProperty::Constant);
    G.setConstantData(Wt, test::randomTensor(DataType::F32, {W, W}, 5));
    const int64_t Mm = G.addOp(OpKind::MatMul, {X, Wt}, DataType::F32,
                               {LogicalTensor::kDynamicDim, W});
    const int64_t Out = G.addOp(OpKind::ReLU, {Mm}, DataType::F32,
                                {LogicalTensor::kDynamicDim, W});
    G.markOutput(Out);
    Graphs.push_back(std::move(G));
  }

  for (const Graph &G : Graphs) {
    const VerifyLevel Prev = setVerifyLevel(VerifyLevel::Off);
    const runtime::TensorData Base = runGraph(G);
    setVerifyLevel(VerifyLevel::All);
    const runtime::TensorData Checked = runGraph(G);
    setVerifyLevel(Prev);
    ASSERT_EQ(Base.numBytes(), Checked.numBytes());
    EXPECT_EQ(0, std::memcmp(Base.data(), Checked.data(),
                             static_cast<size_t>(Base.numBytes())))
        << "verification tier changed execution results";
  }
}

//===----------------------------------------------------------------------===//
// Level plumbing
//===----------------------------------------------------------------------===//

TEST(VerifyLevelApi, SetReturnsPrevious) {
  const VerifyLevel Orig = setVerifyLevel(VerifyLevel::Off);
  EXPECT_EQ(setVerifyLevel(VerifyLevel::All), VerifyLevel::Off);
  setVerifyLevel(Orig);
}

TEST(VerifyLevelApi, ClearCacheRereadsEnvironment) {
  // Regression: the env-level cache used to survive setVerifyLevel-free
  // test orderings, so a GC_VERIFY change between tests was invisible.
  // clearVerifyLevelCache must force re-resolution from the environment.
  const char *Orig = std::getenv("GC_VERIFY");
  const std::string Saved = Orig ? Orig : "";
  const VerifyLevel Prev = setVerifyLevel(VerifyLevel::All);

  ::setenv("GC_VERIFY", "off", 1);
  EXPECT_EQ(verifyLevel(), VerifyLevel::All); // programmatic value cached
  clearVerifyLevelCache();
  EXPECT_EQ(verifyLevel(), VerifyLevel::Off); // re-resolved from env

  ::setenv("GC_VERIFY", "passes", 1);
  EXPECT_EQ(verifyLevel(), VerifyLevel::Off); // still cached
  clearVerifyLevelCache();
  EXPECT_EQ(verifyLevel(), VerifyLevel::Passes);

  if (Orig)
    ::setenv("GC_VERIFY", Saved.c_str(), 1);
  else
    ::unsetenv("GC_VERIFY");
  clearVerifyLevelCache();
  setVerifyLevel(Prev);
}

TEST(VerifyLevelApi, UnknownValueAbortsListingTheLevels) {
  // "relational" is not a level (symbolic bounds and the race proof run
  // at "all"); like any unknown value it must fail loudly, not fall back
  // to a default.
  EXPECT_DEATH(
      {
        ::setenv("GC_VERIFY", "relational", 1);
        clearVerifyLevelCache();
        (void)verifyLevel();
      },
      "GC_VERIFY must be one of off.graph.passes.all, got "
      "\"relational\"");
}

} // namespace
