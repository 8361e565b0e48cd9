//===- artifact.cpp - Compiled-partition (de)serialization ----------------===//
///
/// \file
/// Payload codec of the persistent compiled-artifact cache (core/artifact.h).
/// The write side walks public structures; the read side trusts nothing:
/// bounds-checked primitives, range-validated enums, cross-reference and
/// byte-extent checks, then the static verifiers. See the header for the
/// contract.
///
//===----------------------------------------------------------------------===//

#include "core/artifact.h"

#include "exec/program.h"
#include "support/serial.h"
#include "support/str.h"
#include "tir/intrinsics.h"
#include "tirpass/tirpass.h"
#include "verify/verify.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <unordered_set>
#include <utility>

namespace gc {
namespace core {

namespace {

using graph::AttrMap;
using graph::AttrValue;
using graph::Graph;
using graph::Layout;
using graph::LogicalTensor;
using graph::OpKind;
using graph::TensorProperty;
using runtime::TensorData;

/// Caps on untrusted counts. Far above anything the compiler emits, low
/// enough that a corrupt count fails fast instead of driving a huge
/// allocation.
constexpr uint64_t kMaxCount = 1ull << 20;
constexpr uint64_t kMaxCode = 1ull << 24;
constexpr uint64_t kMaxRank = 64;
constexpr uint64_t kMaxElems = 1ull << 40;
constexpr int64_t kMaxBlock = 1ll << 20;
constexpr int kMaxSubgraphDepth = 8;

/// Validates an untrusted shape/dims vector: bounded rank, non-negative
/// dims, overflow-safe element product <= kMaxElems. Writes the product.
bool validShape(const std::vector<int64_t> &Dims, uint64_t &Elems) {
  if (Dims.size() > kMaxRank)
    return false;
  uint64_t N = 1;
  for (int64_t D : Dims) {
    if (D < 0)
      return false;
    if (D > 0 && N > kMaxElems / static_cast<uint64_t>(D))
      return false;
    N *= static_cast<uint64_t>(D);
  }
  Elems = N;
  return true;
}

//===----------------------------------------------------------------------===//
// Graph payload
//===----------------------------------------------------------------------===//

void writeAttr(ByteWriter &W, const AttrValue &V) {
  W.u8(static_cast<uint8_t>(V.index()));
  switch (V.index()) {
  case 0:
    W.i64(std::get<int64_t>(V));
    break;
  case 1:
    W.f64(std::get<double>(V));
    break;
  case 2:
    W.str(std::get<std::string>(V));
    break;
  case 3:
    W.i64vec(std::get<std::vector<int64_t>>(V));
    break;
  case 4:
    W.f64vec(std::get<std::vector<double>>(V));
    break;
  }
}

bool readAttr(ByteReader &R, AttrValue &V) {
  switch (R.u8()) {
  case 0:
    V = R.i64();
    return true;
  case 1:
    V = R.f64();
    return true;
  case 2:
    V = R.str();
    return true;
  case 3:
    V = R.i64vec();
    return true;
  case 4:
    V = R.f64vec();
    return true;
  default:
    R.fail("attribute value tag");
    return false;
  }
}

/// Serializes \p G. Constant *data* ships only for ids in \p ShipConsts
/// (nullptr ships nothing): the payload carries each weight's bytes
/// exactly once. Execution reads packed weights from the folded-constants
/// section and raw bytes only through ConstData bindings, so fold-input
/// weights — which a loaded partition never folds again — would otherwise
/// ride along purely as checksum and page-in ballast on every warm start.
void writeGraph(ByteWriter &W, const Graph &G,
                const std::unordered_set<int64_t> *ShipConsts) {
  const std::vector<int64_t> TIds = G.tensorIds();
  W.u64(TIds.size());
  for (int64_t Id : TIds) {
    const LogicalTensor &T = G.tensor(Id);
    W.i64(T.Id);
    W.str(T.Name);
    W.u8(static_cast<uint8_t>(T.Ty));
    W.i64vec(T.Shape);
    W.u8(static_cast<uint8_t>(T.Lay.K));
    W.i64(T.Lay.Block0);
    W.i64(T.Lay.Block1);
    W.u8(static_cast<uint8_t>(T.Property));
  }
  const std::vector<int64_t> OIds = G.opIds();
  W.u64(OIds.size());
  for (int64_t Id : OIds) {
    const graph::Op &O = G.op(Id);
    W.i64(Id);
    W.u8(static_cast<uint8_t>(O.kind()));
    W.i64vec(O.inputs());
    W.i64vec(O.outputs());
    W.u64(O.attrs().size());
    for (const auto &KV : O.attrs()) {
      W.str(KV.first);
      writeAttr(W, KV.second);
    }
    const Graph *Sub = O.subgraph();
    W.u8(Sub ? 1 : 0);
    if (Sub)
      writeGraph(W, *Sub, nullptr);
  }
  W.i64vec(G.inputs());
  W.i64vec(G.outputs());
  std::vector<int64_t> ConstIds;
  for (int64_t Id : TIds)
    if (G.constantData(Id) && ShipConsts && ShipConsts->count(Id))
      ConstIds.push_back(Id);
  W.u64(ConstIds.size());
  for (int64_t Id : ConstIds) {
    const TensorData *D = G.constantData(Id);
    W.i64(Id);
    W.u8(static_cast<uint8_t>(D->dtype()));
    W.i64vec(D->shape());
    W.blob(D->data(), static_cast<size_t>(D->numBytes()));
  }
}

/// Reads a dtype + shape + blob triple (graph constant data or a baked
/// function constant) and vends a zero-copy view into the payload span.
/// Fails unless the blob length equals exactly shape x element size.
bool readTensorBlob(ByteReader &R, const char *What, TensorData &Out) {
  const uint8_t Ty = R.u8();
  std::vector<int64_t> Shape = R.i64vec();
  size_t Bytes = 0;
  const void *Data = R.blob(Bytes);
  if (!R.ok())
    return false;
  if (Ty > static_cast<uint8_t>(DataType::U8)) {
    R.fail(formatString("%s data type", What));
    return false;
  }
  uint64_t Elems = 0;
  if (!validShape(Shape, Elems)) {
    R.fail(formatString("%s shape", What));
    return false;
  }
  const uint64_t Expect =
      Elems * static_cast<uint64_t>(dataTypeSize(static_cast<DataType>(Ty)));
  if (Expect != Bytes) {
    R.fail(formatString("%s byte length %zu does not match shape (%llu)",
                        What, Bytes, (unsigned long long)Expect));
    return false;
  }
  Out = TensorData::view(static_cast<DataType>(Ty), std::move(Shape),
                         const_cast<void *>(Data));
  return true;
}

Status readGraph(ByteReader &R, Graph &G, int Depth) {
  if (Depth > kMaxSubgraphDepth) {
    R.fail("subgraph nesting too deep");
    return R.err();
  }
  const uint64_t NumTensors = R.u64();
  if (!R.ok() || NumTensors > kMaxCount) {
    R.fail("tensor count");
    return R.err();
  }
  std::unordered_set<int64_t> Seen;
  int64_t MaxTensorId = -1, MaxOpId = -1;
  for (uint64_t I = 0; I < NumTensors; ++I) {
    LogicalTensor T;
    T.Id = R.i64();
    T.Name = R.str();
    const uint8_t Ty = R.u8();
    T.Shape = R.i64vec();
    const uint8_t LayK = R.u8();
    T.Lay.Block0 = R.i64();
    T.Lay.Block1 = R.i64();
    const uint8_t Prop = R.u8();
    if (!R.ok())
      return R.err();
    if (Ty > static_cast<uint8_t>(DataType::U8)) {
      R.fail("tensor data type");
      return R.err();
    }
    if (LayK > static_cast<uint8_t>(Layout::Kind::BlockedBVnni)) {
      R.fail("tensor layout kind");
      return R.err();
    }
    if (Prop > static_cast<uint8_t>(TensorProperty::Constant)) {
      R.fail("tensor property");
      return R.err();
    }
    uint64_t Elems = 0;
    if (!validShape(T.Shape, Elems)) {
      R.fail("tensor shape");
      return R.err();
    }
    T.Ty = static_cast<DataType>(Ty);
    T.Lay.K = static_cast<Layout::Kind>(LayK);
    T.Property = static_cast<TensorProperty>(Prop);
    if (T.Lay.isBlocked() &&
        (T.Lay.Block0 < 1 || T.Lay.Block0 > kMaxBlock || T.Lay.Block1 < 1 ||
         T.Lay.Block1 > kMaxBlock)) {
      R.fail("tensor block sizes");
      return R.err();
    }
    if (!T.Lay.isBlocked() && (T.Lay.Block0 != 0 || T.Lay.Block1 != 0)) {
      R.fail("non-blocked tensor with block sizes");
      return R.err();
    }
    const int64_t Id = T.Id;
    if (Status S = G.restoreTensor(std::move(T)); !S.isOk()) {
      R.fail(S.message());
      return R.err();
    }
    Seen.insert(Id);
    MaxTensorId = std::max(MaxTensorId, Id);
  }
  const uint64_t NumOps = R.u64();
  if (!R.ok() || NumOps > kMaxCount) {
    R.fail("op count");
    return R.err();
  }
  for (uint64_t I = 0; I < NumOps; ++I) {
    const int64_t Id = R.i64();
    const uint8_t Kind = R.u8();
    std::vector<int64_t> Inputs = R.i64vec();
    std::vector<int64_t> Outputs = R.i64vec();
    const uint64_t NumAttrs = R.u64();
    if (!R.ok() || NumAttrs > kMaxCount) {
      R.fail("op attribute count");
      return R.err();
    }
    AttrMap Attrs;
    for (uint64_t A = 0; A < NumAttrs; ++A) {
      std::string Name = R.str();
      AttrValue V;
      if (!readAttr(R, V))
        return R.err();
      Attrs.emplace(std::move(Name), std::move(V));
    }
    const uint8_t HasSub = R.u8();
    if (!R.ok())
      return R.err();
    if (Kind > static_cast<uint8_t>(OpKind::FusedOp)) {
      R.fail("op kind");
      return R.err();
    }
    if (HasSub > 1 ||
        (HasSub == 1) != (Kind == static_cast<uint8_t>(OpKind::FusedOp))) {
      R.fail("op/subgraph mismatch");
      return R.err();
    }
    std::unique_ptr<Graph> Sub;
    if (HasSub) {
      Sub = std::make_unique<Graph>();
      if (Status S = readGraph(R, *Sub, Depth + 1); !S.isOk())
        return S;
    }
    if (Status S =
            G.restoreOp(Id, static_cast<OpKind>(Kind), std::move(Inputs),
                        std::move(Outputs), std::move(Attrs), std::move(Sub));
        !S.isOk()) {
      R.fail(S.message());
      return R.err();
    }
    MaxOpId = std::max(MaxOpId, Id);
  }
  const std::vector<int64_t> InIds = R.i64vec();
  const std::vector<int64_t> OutIds = R.i64vec();
  if (!R.ok())
    return R.err();
  for (int64_t Id : InIds) {
    if (!Seen.count(Id)) {
      R.fail("graph input names an unknown tensor");
      return R.err();
    }
    G.markInput(Id);
  }
  for (int64_t Id : OutIds) {
    if (!Seen.count(Id)) {
      R.fail("graph output names an unknown tensor");
      return R.err();
    }
    G.markOutput(Id);
  }
  const uint64_t NumConst = R.u64();
  if (!R.ok() || NumConst > kMaxCount) {
    R.fail("constant count");
    return R.err();
  }
  for (uint64_t I = 0; I < NumConst; ++I) {
    const int64_t Id = R.i64();
    TensorData View;
    if (!readTensorBlob(R, "constant", View))
      return R.err();
    if (!Seen.count(Id)) {
      R.fail("constant data names an unknown tensor");
      return R.err();
    }
    G.setConstantData(Id, std::move(View));
  }
  G.restoreIdCounters(MaxTensorId + 1, MaxOpId + 1);
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Entry function payload (buffer table + baked constants; no body)
//===----------------------------------------------------------------------===//

void writeFunc(ByteWriter &W, const tir::Func &F) {
  W.str(F.Name);
  W.i64(F.NumSlots);
  W.i64(F.ArenaBytes);
  W.i64(F.ArenaBytesNoReuse);
  W.u64(F.Baked.size());
  for (const TensorData &T : F.Baked) {
    W.u8(static_cast<uint8_t>(T.dtype()));
    W.i64vec(T.shape());
    W.blob(T.data(), static_cast<size_t>(T.numBytes()));
  }
  W.u64(F.Buffers.size());
  for (const tir::BufferDecl &B : F.Buffers) {
    W.str(B.Name);
    W.u8(static_cast<uint8_t>(B.ElemTy));
    W.i64vec(B.Dims);
    W.u8(static_cast<uint8_t>(B.Scope));
    W.i64(B.GraphTensorId);
    W.i64(B.ArenaOffset);
    W.i32(B.BakedIndex);
  }
}

Status readFunc(ByteReader &R, tir::Func &F) {
  F.Name = R.str();
  const int64_t NumSlots = R.i64();
  F.ArenaBytes = R.i64();
  F.ArenaBytesNoReuse = R.i64();
  if (!R.ok())
    return R.err();
  if (NumSlots < -1 || NumSlots > static_cast<int64_t>(kMaxCount)) {
    R.fail("slot count");
    return R.err();
  }
  F.NumSlots = static_cast<int>(NumSlots);
  if (F.ArenaBytes < 0 || F.ArenaBytes > static_cast<int64_t>(kMaxElems) ||
      F.ArenaBytesNoReuse < 0) {
    R.fail("arena bytes");
    return R.err();
  }
  const uint64_t NumBaked = R.u64();
  if (!R.ok() || NumBaked > kMaxCount) {
    R.fail("baked constant count");
    return R.err();
  }
  F.Baked.reserve(NumBaked);
  for (uint64_t I = 0; I < NumBaked; ++I) {
    TensorData View;
    if (!readTensorBlob(R, "baked constant", View))
      return R.err();
    F.Baked.push_back(std::move(View));
  }
  const uint64_t NumBufs = R.u64();
  if (!R.ok() || NumBufs > kMaxCount) {
    R.fail("buffer count");
    return R.err();
  }
  F.Buffers.reserve(NumBufs);
  for (uint64_t I = 0; I < NumBufs; ++I) {
    tir::BufferDecl B;
    B.Id = static_cast<int>(I);
    B.Name = R.str();
    const uint8_t ElemTy = R.u8();
    B.Dims = R.i64vec();
    const uint8_t Scope = R.u8();
    B.GraphTensorId = R.i64();
    B.ArenaOffset = R.i64();
    B.BakedIndex = R.i32();
    if (!R.ok())
      return R.err();
    if (ElemTy > static_cast<uint8_t>(DataType::U8)) {
      R.fail("buffer element type");
      return R.err();
    }
    if (Scope > static_cast<uint8_t>(tir::BufferScope::ThreadLocal)) {
      R.fail("buffer scope");
      return R.err();
    }
    uint64_t Elems = 0;
    if (!validShape(B.Dims, Elems)) {
      R.fail("buffer dims");
      return R.err();
    }
    if (B.ArenaOffset < -1) {
      R.fail("buffer arena offset");
      return R.err();
    }
    if (B.BakedIndex < -1 ||
        B.BakedIndex >= static_cast<int>(F.Baked.size())) {
      R.fail("baked constant index");
      return R.err();
    }
    B.ElemTy = static_cast<DataType>(ElemTy);
    B.Scope = static_cast<tir::BufferScope>(Scope);
    F.Buffers.push_back(std::move(B));
  }
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Bytecode program payload
//===----------------------------------------------------------------------===//

uint32_t floatBits(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof B);
  return B;
}

float bitsFloat(uint32_t B) {
  float F;
  std::memcpy(&F, &B, sizeof F);
  return F;
}

/// A call's epilogue step list: a step count (0 for every other
/// intrinsic) and the steps.
void writeSteps(ByteWriter &W, const exec::CallDesc &C) {
  if (!C.Epilogue) {
    W.u8(0);
    return;
  }
  W.u8(static_cast<uint8_t>(C.Epilogue->Steps.size()));
  for (const kernels::EpStep &S : C.Epilogue->Steps) {
    W.u8(static_cast<uint8_t>(S.Op));
    W.u8(static_cast<uint8_t>(S.BKind));
    W.u8(S.Dst);
    W.u8(S.A);
    W.u8(S.B);
    W.u8(S.Arg);
    W.u8(S.Arg2);
    W.u8(S.Arg3);
    W.u8(S.Signed ? 1 : 0);
    W.i32(S.Zp);
    W.i64(S.Ld);
    W.i64(S.PadRows);
    W.i64(S.PadCols);
    W.u32(floatBits(S.F0));
    W.u32(floatBits(S.F1));
  }
}

/// Reads the step list writeSteps wrote; the caller validates it.
bool readSteps(ByteReader &R, uint8_t NumBufs,
               std::shared_ptr<const kernels::EpilogueDesc> &Out) {
  const uint8_t NumSteps = R.u8();
  if (!R.ok() || NumSteps == 0)
    return R.ok();
  if (NumSteps > kernels::kEpilogueMaxSteps) {
    R.fail("epilogue step count");
    return false;
  }
  auto D = std::make_shared<kernels::EpilogueDesc>();
  D->NumBufs = NumBufs;
  D->Steps.resize(NumSteps);
  for (kernels::EpStep &S : D->Steps) {
    S.Op = static_cast<kernels::EpOp>(R.u8());
    S.BKind = static_cast<kernels::EpOperand>(R.u8());
    S.Dst = R.u8();
    S.A = R.u8();
    S.B = R.u8();
    S.Arg = R.u8();
    S.Arg2 = R.u8();
    S.Arg3 = R.u8();
    S.Signed = R.u8() != 0;
    S.Zp = R.i32();
    S.Ld = R.i64();
    S.PadRows = R.i64();
    S.PadCols = R.i64();
    S.F0 = bitsFloat(R.u32());
    S.F1 = bitsFloat(R.u32());
  }
  Out = std::move(D);
  return R.ok();
}

void writeProgram(ByteWriter &W, const exec::Program &P) {
  W.str(P.Name);
  W.u32(P.NumRegs);
  W.i64(P.ArenaBytes);
  W.u64(P.InitRegs.size());
  for (int64_t V : P.InitRegs)
    W.i64(V);
  W.u64(P.Buffers.size());
  for (const exec::BufferInfo &B : P.Buffers) {
    W.i64(B.Bytes);
    W.i64(B.ElemSize);
    W.u8(static_cast<uint8_t>(B.Scope));
    W.i64(B.ArenaOffset);
  }
  W.u64(P.Code.size());
  for (const exec::Instr &I : P.Code) {
    W.u8(static_cast<uint8_t>(I.Op));
    W.u16(I.A);
    W.u16(I.B);
    W.u16(I.C);
    W.i32(I.Target);
    W.i64(I.Imm);
  }
  W.u64(P.Pars.size());
  for (const exec::ParDesc &D : P.Pars) {
    W.u16(D.VarReg);
    W.u16(D.BeginReg);
    W.u16(D.EndReg);
    W.u16(D.StepReg);
    W.u32(D.BodyLen);
  }
  W.u64(P.Calls.size());
  for (const exec::CallDesc &C : P.Calls) {
    W.u8(static_cast<uint8_t>(C.In));
    W.u8(C.NumBufs);
    W.u8(C.NumDyn);
    for (uint8_t I = 0; I < C.NumBufs; ++I) {
      const exec::CallDesc::Buf &B = C.Bufs[I];
      W.i32(B.BufferId);
      W.u16(B.OffsetReg);
      W.u8(B.HasOffset ? 1 : 0);
    }
    for (int64_t S : C.SI)
      W.i64(S);
    for (const exec::CallDesc::Dyn &D : C.Dyns) {
      W.u8(D.Idx);
      W.u16(D.Reg);
    }
    writeSteps(W, C);
  }
}

/// Reads the Program, relinking each call's kernel pointer from its
/// serialized intrinsic and each Const buffer's baked pointer through
/// \p F's buffer table.
Status readProgram(ByteReader &R, exec::Program &P, const tir::Func &F) {
  P.Name = R.str();
  P.NumRegs = R.u32();
  P.ArenaBytes = R.i64();
  if (!R.ok())
    return R.err();
  if (P.NumRegs > kMaxCount) {
    R.fail("register count");
    return R.err();
  }
  if (P.ArenaBytes < 0 || P.ArenaBytes > static_cast<int64_t>(kMaxElems)) {
    R.fail("program arena bytes");
    return R.err();
  }
  const uint64_t NumInit = R.u64();
  if (!R.ok() || NumInit != P.NumRegs) {
    R.fail("initial register image size");
    return R.err();
  }
  P.InitRegs.resize(NumInit);
  for (int64_t &V : P.InitRegs)
    V = R.i64();
  const uint64_t NumBufs = R.u64();
  if (!R.ok() || NumBufs > kMaxCount) {
    R.fail("program buffer count");
    return R.err();
  }
  if (NumBufs != F.Buffers.size()) {
    R.fail("program/function buffer table mismatch");
    return R.err();
  }
  P.Buffers.resize(NumBufs);
  for (uint64_t I = 0; I < NumBufs; ++I) {
    exec::BufferInfo &B = P.Buffers[I];
    B.Bytes = R.i64();
    B.ElemSize = R.i64();
    const uint8_t Scope = R.u8();
    B.ArenaOffset = R.i64();
    if (!R.ok())
      return R.err();
    if (Scope > static_cast<uint8_t>(tir::BufferScope::ThreadLocal)) {
      R.fail("program buffer scope");
      return R.err();
    }
    B.Scope = static_cast<tir::BufferScope>(Scope);
    if (B.Bytes < 0 || B.Bytes > static_cast<int64_t>(kMaxElems) ||
        B.ElemSize < 1 || B.ElemSize > 8 || B.ArenaOffset < -1) {
      R.fail("program buffer geometry");
      return R.err();
    }
    const tir::BufferDecl &D = F.Buffers[I];
    if (D.BakedIndex >= 0) {
      const TensorData &Baked = F.Baked[static_cast<size_t>(D.BakedIndex)];
      if (B.Bytes > Baked.numBytes()) {
        R.fail("buffer extent exceeds its baked constant");
        return R.err();
      }
      B.BakedData = Baked.data();
    }
  }
  const uint64_t NumCode = R.u64();
  if (!R.ok() || NumCode > kMaxCode) {
    R.fail("instruction count");
    return R.err();
  }
  P.Code.resize(NumCode);
  for (exec::Instr &I : P.Code) {
    const uint8_t Op = R.u8();
    I.A = R.u16();
    I.B = R.u16();
    I.C = R.u16();
    I.Target = R.i32();
    I.Imm = R.i64();
    if (!R.ok())
      return R.err();
    if (Op >= exec::kNumOpcodes) {
      R.fail("opcode");
      return R.err();
    }
    I.Op = static_cast<exec::Opcode>(Op);
  }
  const uint64_t NumPars = R.u64();
  if (!R.ok() || NumPars > kMaxCount) {
    R.fail("parallel descriptor count");
    return R.err();
  }
  P.Pars.resize(NumPars);
  for (exec::ParDesc &D : P.Pars) {
    D.VarReg = R.u16();
    D.BeginReg = R.u16();
    D.EndReg = R.u16();
    D.StepReg = R.u16();
    D.BodyLen = R.u32();
    if (!R.ok())
      return R.err();
    if (D.VarReg >= P.NumRegs || D.BeginReg >= P.NumRegs ||
        D.EndReg >= P.NumRegs || D.StepReg >= P.NumRegs) {
      R.fail("parallel descriptor register");
      return R.err();
    }
  }
  const uint64_t NumCalls = R.u64();
  if (!R.ok() || NumCalls > kMaxCount) {
    R.fail("call descriptor count");
    return R.err();
  }
  P.Calls.resize(NumCalls);
  for (exec::CallDesc &C : P.Calls) {
    const uint8_t In = R.u8();
    C.NumBufs = R.u8();
    C.NumDyn = R.u8();
    if (!R.ok())
      return R.err();
    if (C.NumBufs > exec::kMaxCallBufs || C.NumDyn > 12) {
      R.fail("call operand counts");
      return R.err();
    }
    for (uint8_t I = 0; I < C.NumBufs; ++I) {
      exec::CallDesc::Buf &B = C.Bufs[I];
      B.BufferId = R.i32();
      B.OffsetReg = R.u16();
      B.HasOffset = R.u8() != 0;
    }
    for (int64_t &S : C.SI)
      S = R.i64();
    for (exec::CallDesc::Dyn &D : C.Dyns) {
      D.Idx = R.u8();
      D.Reg = R.u16();
    }
    if (!readSteps(R, C.NumBufs, C.Epilogue))
      return R.err();
    if (In >= tir::kNumIntrinsics) {
      R.fail("call intrinsic");
      return R.err();
    }
    // Footprints and kernel adapters index Bufs by the intrinsic's layout,
    // or by the step list's slots for an epilogue call.
    C.In = static_cast<tir::Intrinsic>(In);
    const bool IsEpilogue = C.In == tir::Intrinsic::EpilogueTile;
    if (!IsEpilogue && C.NumBufs != tir::intrinsicInfo(C.In).NumBufs) {
      R.fail("call buffer count does not match its intrinsic");
      return R.err();
    }
    if (IsEpilogue != (C.Epilogue != nullptr)) {
      R.fail("call step list does not match its intrinsic");
      return R.err();
    }
    if (C.Epilogue) {
      std::vector<kernels::EpArgUse> Uses;
      std::string Why;
      if (!kernels::describeEpilogue(*C.Epilogue, Uses, Why)) {
        R.fail("epilogue step list: " + Why);
        return R.err();
      }
    }
    for (uint8_t I = 0; I < C.NumBufs; ++I)
      if (C.Bufs[I].BufferId < 0 ||
          C.Bufs[I].BufferId >= static_cast<int32_t>(NumBufs)) {
        R.fail("call buffer id");
        return R.err();
      }
    for (uint8_t I = 0; I < C.NumDyn; ++I)
      if (C.Dyns[I].Idx >= 12) {
        R.fail("call dynamic scalar index");
        return R.err();
      }
    C.Fn = exec::kernelAdapter(C.In);
  }
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Semantic cross-checks over the restored pieces
//===----------------------------------------------------------------------===//

/// Bytes a binding target can legally provide: the padded logical extent
/// of the graph tensor (callers bind plain logical tensors; fold outputs
/// may be block-padded).
int64_t tensorBytes(const Graph &G, int64_t Id) {
  const LogicalTensor &T = G.tensor(Id);
  return T.paddedNumElements() * dataTypeSize(T.Ty);
}

bool contains(const std::vector<int64_t> &V, int64_t Id) {
  return std::find(V.begin(), V.end(), Id) != V.end();
}

/// Validates the binding list against everything it references, and that
/// every buffer whose scope requires an execution-time pointer gets one —
/// an unbound Param buffer would hand the executor a null base.
Status checkBindings(const std::vector<lower::Binding> &Bindings,
                     const exec::Program &P, const Graph &G,
                     const std::vector<int64_t> &FoldOutputs) {
  std::vector<bool> Bound(P.Buffers.size(), false);
  for (const lower::Binding &B : Bindings) {
    if (B.BufferId < 0 ||
        B.BufferId >= static_cast<int>(P.Buffers.size()))
      return Status::error(StatusCode::InvalidArgument,
                           "artifact binding buffer id out of range");
    if (static_cast<uint8_t>(B.Kind) >
        static_cast<uint8_t>(lower::BindingKind::ConstData))
      return Status::error(StatusCode::InvalidArgument,
                           "artifact binding kind out of range");
    if (Bound[static_cast<size_t>(B.BufferId)])
      return Status::error(StatusCode::InvalidArgument,
                           "artifact binds a buffer twice");
    Bound[static_cast<size_t>(B.BufferId)] = true;
    const exec::BufferInfo &Buf = P.Buffers[static_cast<size_t>(B.BufferId)];
    int64_t Avail = 0;
    switch (B.Kind) {
    case lower::BindingKind::Input:
      if (!contains(G.inputs(), B.TensorId))
        return Status::error(StatusCode::InvalidArgument,
                             "artifact input binding names a non-input");
      if (Buf.Scope != tir::BufferScope::Param)
        return Status::error(StatusCode::InvalidArgument,
                             "artifact input binding on a non-Param buffer");
      Avail = tensorBytes(G, B.TensorId);
      break;
    case lower::BindingKind::Output:
      if (!contains(G.outputs(), B.TensorId))
        return Status::error(StatusCode::InvalidArgument,
                             "artifact output binding names a non-output");
      if (Buf.Scope != tir::BufferScope::Param)
        return Status::error(StatusCode::InvalidArgument,
                             "artifact output binding on a non-Param buffer");
      Avail = tensorBytes(G, B.TensorId);
      break;
    case lower::BindingKind::Folded:
      if (!contains(FoldOutputs, B.TensorId))
        return Status::error(StatusCode::InvalidArgument,
                             "artifact folded binding names a non-fold-output");
      if (Buf.Scope != tir::BufferScope::FoldedConst)
        return Status::error(
            StatusCode::InvalidArgument,
            "artifact folded binding on a non-FoldedConst buffer");
      Avail = tensorBytes(G, B.TensorId);
      break;
    case lower::BindingKind::ConstData: {
      const TensorData *CD = G.constantData(B.TensorId);
      if (!CD)
        return Status::error(
            StatusCode::InvalidArgument,
            "artifact const binding names a tensor without data");
      if (Buf.Scope != tir::BufferScope::Const)
        return Status::error(StatusCode::InvalidArgument,
                             "artifact const binding on a non-Const buffer");
      Avail = CD->numBytes();
      break;
    }
    }
    if (Buf.Bytes > Avail)
      return Status::error(
          StatusCode::InvalidArgument,
          formatString("artifact buffer %d extent %lld exceeds its binding "
                       "target (%lld bytes)",
                       B.BufferId, (long long)Buf.Bytes, (long long)Avail));
  }
  for (size_t I = 0; I < P.Buffers.size(); ++I) {
    const exec::BufferInfo &Buf = P.Buffers[I];
    const bool NeedsBinding =
        Buf.Scope == tir::BufferScope::Param ||
        Buf.Scope == tir::BufferScope::FoldedConst ||
        (Buf.Scope == tir::BufferScope::Const && !Buf.BakedData);
    if (NeedsBinding && !Bound[I])
      return Status::error(
          StatusCode::InvalidArgument,
          formatString("artifact leaves buffer %zu (%s) unbound", I,
                       Buf.Scope == tir::BufferScope::Param ? "param"
                       : Buf.Scope == tir::BufferScope::FoldedConst
                           ? "folded"
                           : "const"));
  }
  return Status::ok();
}

} // namespace

//===----------------------------------------------------------------------===//
// Cache key
//===----------------------------------------------------------------------===//

uint64_t buildHash() {
  static const uint64_t H = [] {
    uint64_t V = fnv1aBytes(&kArtifactPayloadVersion,
                            sizeof kArtifactPayloadVersion);
    const auto Mix = [&V](const char *S) {
      V = fnv1aBytes(S, std::strlen(S), V);
    };
#ifdef __VERSION__
    Mix(__VERSION__);
#endif
    Mix(__DATE__);
    Mix(__TIME__);
    return V;
  }();
  return H;
}

uint64_t artifactCacheKey(uint64_t GraphFingerprint,
                          const CompileOptions &Opts, int Threads,
                          kernels::KernelTier Tier) {
  ByteWriter W;
  W.u64(GraphFingerprint);
  W.u64(buildHash());
  W.i64(Threads);
  W.u8(Opts.EnableLowPrecision);
  W.u8(Opts.EnableFineGrainFusion);
  W.u8(Opts.EnableCoarseGrainFusion);
  W.u8(Opts.EnableLayoutPropagation);
  W.u8(Opts.EnableBufferReuse);
  W.u8(Opts.FastSoftmax);
  W.u8(Opts.PrimitivesMode);
  W.u8(static_cast<uint8_t>(Tier));
  return fnv1aBytes(W.bytes().data(), W.size());
}

uint64_t artifactCacheKey(uint64_t GraphFingerprint,
                          const CompileOptions &Opts, int Threads) {
  return artifactCacheKey(GraphFingerprint, Opts, Threads,
                          kernels::activeKernelTier());
}

//===----------------------------------------------------------------------===//
// Codec
//===----------------------------------------------------------------------===//

void ArtifactCodec::encode(CompiledPartition &P, ByteWriter &W) {
  assert(P.Prog.Bytecode && "partition without a bytecode program");
  // Folded-constants section (payload v2). The fold is deterministic, so
  // running it at store time and shipping its outputs lets every warm
  // process skip constant packing — for weight-heavy graphs that pass,
  // not pipeline reconstruction, dominates the cold start. The partition
  // keeps what it folds here, so its first execution does not fold again.
  P.ensureFolded();
  // Raw constant bytes ship only where execution dereferences them:
  // ConstData bindings read from the optimized graph; everything else
  // (fold-input weights) is served packed from the folded section below.
  std::unordered_set<int64_t> ExecConsts;
  for (const lower::Binding &B : P.Prog.Bindings)
    if (B.Kind == lower::BindingKind::ConstData)
      ExecConsts.insert(B.TensorId);
  const int32_t ParallelNests = P.LoadedParallelNests >= 0
                                    ? P.LoadedParallelNests
                                    : tirpass::countParallelNests(P.Prog.Entry);
  W.u32(kArtifactPayloadVersion);
  writeGraph(W, P.OptimizedG, &ExecConsts);
  W.i64vec(P.Prog.FoldOutputs);
  writeFunc(W, P.Prog.Entry);
  writeProgram(W, *P.Prog.Bytecode);
  W.u64(P.Prog.Bindings.size());
  for (const lower::Binding &B : P.Prog.Bindings) {
    W.i32(B.BufferId);
    W.i64(B.TensorId);
    W.u8(static_cast<uint8_t>(B.Kind));
  }
  W.i32(P.Prog.CoarseGrainMerges);
  W.i64(P.Prog.ReuseStats.PeakBytesWithReuse);
  W.i64(P.Prog.ReuseStats.PeakBytesWithoutReuse);
  W.i32(P.Prog.ReuseStats.BuffersPlaced);
  W.i32(P.Prog.ReuseStats.BuffersReused);
  W.i32(ParallelNests);
  W.u64(P.Prog.FoldOutputs.size());
  for (int64_t Id : P.Prog.FoldOutputs) {
    const TensorData *D = P.Cache.get(Id);
    assert(D && "fold output missing after running the fold graph");
    W.i64(Id);
    W.u8(static_cast<uint8_t>(D->dtype()));
    W.i64vec(D->shape());
    W.blob(D->data(), static_cast<size_t>(D->numBytes()));
  }
}

std::vector<uint8_t> ArtifactCodec::serialize(CompiledPartition &P) {
  // A counting pass first (a writer whose sink drops the bytes), so the
  // payload is allocated once at its final size instead of regrown (and
  // copied) as the weights stream in.
  ByteWriter Counter([](const void *, size_t) { return true; });
  encode(P, Counter);
  ByteWriter W;
  W.reserve(Counter.size());
  encode(P, W);
  return W.take();
}

Expected<std::shared_ptr<CompiledPartition>>
ArtifactCodec::deserialize(const void *Payload, size_t Bytes,
                           std::shared_ptr<void> Pin,
                           std::shared_ptr<runtime::ThreadPool> Pool) {
  assert(Pool && "deserialized partitions need an execution pool");
  ByteReader R(Payload, Bytes);
  const uint32_t Version = R.u32();
  if (R.ok() && Version != kArtifactPayloadVersion)
    R.fail(formatString("payload version %u, this build reads %u", Version,
                        kArtifactPayloadVersion));
  if (!R.ok())
    return R.err();

  std::shared_ptr<CompiledPartition> P(new CompiledPartition());
  if (Status S = readGraph(R, P->OptimizedG, 0); !S.isOk())
    return S;
  P->Prog.FoldOutputs = R.i64vec();
  if (!R.ok())
    return R.err();
  if (Status S = readFunc(R, P->Prog.Entry); !S.isOk())
    return S;
  auto Prog = std::make_shared<exec::Program>();
  if (Status S = readProgram(R, *Prog, P->Prog.Entry); !S.isOk())
    return S;
  P->Prog.Bytecode = Prog;

  const uint64_t NumBindings = R.u64();
  if (!R.ok() || NumBindings > kMaxCount) {
    R.fail("binding count");
    return R.err();
  }
  P->Prog.Bindings.resize(NumBindings);
  for (lower::Binding &B : P->Prog.Bindings) {
    B.BufferId = R.i32();
    B.TensorId = R.i64();
    B.Kind = static_cast<lower::BindingKind>(R.u8());
  }
  P->Prog.CoarseGrainMerges = R.i32();
  P->Prog.ReuseStats.PeakBytesWithReuse = R.i64();
  P->Prog.ReuseStats.PeakBytesWithoutReuse = R.i64();
  P->Prog.ReuseStats.BuffersPlaced = R.i32();
  P->Prog.ReuseStats.BuffersReused = R.i32();
  const int32_t ParallelNests = R.i32();
  if (!R.ok())
    return R.err();
  if (ParallelNests < 0) {
    R.fail("parallel nest count");
    return R.err();
  }

  // Folded-constants section: one pre-computed tensor per fold output,
  // served as zero-copy views into the payload. Each id must name a
  // tensor of the optimized graph and a fold output exactly once, carry
  // that tensor's data type, and span its padded extent — the byte budget
  // checkBindings later grants FoldedConst buffers. With the count equal
  // to the fold outputs', every fold output is checked here.
  const uint64_t NumFolded = R.u64();
  if (!R.ok() || NumFolded != P->Prog.FoldOutputs.size()) {
    R.fail("folded constant count");
    return R.err();
  }
  std::vector<std::pair<int64_t, TensorData>> Folded;
  Folded.reserve(NumFolded);
  std::unordered_set<int64_t> SeenFold;
  for (uint64_t I = 0; I < NumFolded; ++I) {
    const int64_t Id = R.i64();
    TensorData View;
    if (!readTensorBlob(R, "folded constant", View))
      return R.err();
    if (!P->OptimizedG.hasTensor(Id) || !contains(P->Prog.FoldOutputs, Id) ||
        !SeenFold.insert(Id).second) {
      R.fail("folded constant id");
      return R.err();
    }
    if (View.dtype() != P->OptimizedG.tensor(Id).Ty) {
      R.fail("folded constant data type");
      return R.err();
    }
    if (View.numBytes() != tensorBytes(P->OptimizedG, Id)) {
      R.fail("folded constant byte extent");
      return R.err();
    }
    Folded.emplace_back(Id, std::move(View));
  }

  if (!R.atEnd()) {
    R.fail("trailing bytes after payload");
    return R.err();
  }

  if (Status S = checkBindings(P->Prog.Bindings, *Prog, P->OptimizedG,
                               P->Prog.FoldOutputs);
      !S.isOk())
    return S;

  // The restored graph and program earn the full static proofs before the
  // partition can reach the executor's unchecked dispatch loop — always,
  // independent of GC_VERIFY (this is untrusted disk input, not our own
  // pipeline's output).
  if (Status S = verify::verifyGraph(P->OptimizedG, "artifact load");
      !S.isOk())
    return S;
  if (Status S = verify::verifyLoadedProgram(*Prog, "artifact load");
      !S.isOk())
    return S;

  P->Pool = std::move(Pool);
  P->InputIds = P->OptimizedG.inputs();
  P->OutputIds = P->OptimizedG.outputs();
  P->LoadedParallelNests = ParallelNests;
  P->MappedPin = std::move(Pin);
  P->resolveBindings();

  // Pre-fire the fold with the shipped outputs: zero-copy views into the
  // payload (pinned by MappedPin for the partition's lifetime) land in the
  // ConstCache, so the first execution's call_once finds the fold already
  // done and skips constant packing entirely.
  std::call_once(P->FoldOnce, [&] {
    for (auto &KV : Folded)
      P->Cache.put(KV.first, std::move(KV.second));
    P->Cache.markPopulated();
    P->FoldDone.store(true, std::memory_order_release);
  });
  return P;
}

} // namespace core
} // namespace gc
