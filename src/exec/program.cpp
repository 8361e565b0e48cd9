//===- program.cpp - Tensor IR -> bytecode compiler ---------------------------===//
//
// Single-pass compiler from a slot-assigned tir::Func to the flat bytecode
// of program.h. Variables keep their frame slots as register numbers;
// temporaries come from a small free list (expression trees release their
// operand registers as they are consumed), and constants / induction
// variables get permanent registers that are never recycled.
//
// Loop compilation shape (relative jump offsets):
//
//     <preheader: begin/end/step into registers>
//     Mov       var, begin
//     JumpIfGeI var, end  -> EXIT          ; zero-trip guard
//     <entry: induction bases / hoisted invariants, once per loop entry>
//   TOP:
//     <body>
//     AddImmI   ind, coeff*step ...        ; induction advances
//     LoopNext  var, step, end -> TOP
//   EXIT:
//
// Affine strength reduction: element-offset expressions are decomposed as
// rest + coeff * loopvar (inlining let definitions bound inside the loop);
// when coeff is a compile-time constant and rest only references values
// bound outside the loop, the offset becomes an induction register that is
// initialized in the entry block and advanced on the back edge. Offsets
// invariant in a loop (coeff 0) hoist to the entry block of the outermost
// loop they are invariant in. Parallel loops accept hoists (evaluated in
// the submitting frame, copied to the workers with the rest of the frame)
// but no inductions, since their iterations execute out of order.
//
//===----------------------------------------------------------------------===//

#include "exec/program.h"

#include "support/common.h"
#include "support/str.h"
#include "tir/intrinsics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace exec {

using namespace tir;

namespace {

//===----------------------------------------------------------------------===//
// Constant folding helpers
//===----------------------------------------------------------------------===//

/// Evaluates \p E when it is a compile-time constant, with exactly the
/// dispatch loop's arithmetic (so folded results match runtime results
/// bit for bit). Returns false for anything touching a variable or memory.
bool evalConst(const ExprNode *E, Value &Out) {
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    Out = Value();
    Out.I = static_cast<const IntImmNode *>(E)->Value;
    return true;
  case ExprNode::Kind::FloatImm:
    Out = Value();
    Out.F = static_cast<const FloatImmNode *>(E)->Value;
    return true;
  case ExprNode::Kind::Binary: {
    const auto *B = static_cast<const BinaryNode *>(E);
    Value A, C;
    if (!evalConst(B->A.get(), A) || !evalConst(B->B.get(), C))
      return false;
    Value R;
    if (B->type() == ScalarType::F64) {
      const double X =
          B->A->type() == ScalarType::F64 ? A.F : static_cast<double>(A.I);
      const double Y =
          B->B->type() == ScalarType::F64 ? C.F : static_cast<double>(C.I);
      switch (B->Op) {
      case BinOp::Add: R.F = X + Y; break;
      case BinOp::Sub: R.F = X - Y; break;
      case BinOp::Mul: R.F = X * Y; break;
      case BinOp::Div: R.F = X / Y; break;
      case BinOp::Mod: R.F = std::fmod(X, Y); break;
      case BinOp::Min: R.F = std::min(X, Y); break;
      case BinOp::Max: R.F = std::max(X, Y); break;
      }
      Out = R;
      return true;
    }
    switch (B->Op) {
    case BinOp::Add: R.I = A.I + C.I; break;
    case BinOp::Sub: R.I = A.I - C.I; break;
    case BinOp::Mul: R.I = A.I * C.I; break;
    case BinOp::Div:
      if (C.I == 0)
        return false; // leave the runtime behavior to the interpreter
      R.I = A.I / C.I;
      break;
    case BinOp::Mod:
      if (C.I == 0)
        return false;
      R.I = A.I % C.I;
      break;
    case BinOp::Min: R.I = std::min(A.I, C.I); break;
    case BinOp::Max: R.I = std::max(A.I, C.I); break;
    }
    Out = R;
    return true;
  }
  case ExprNode::Kind::Var:
  case ExprNode::Kind::Load:
    return false;
  }
  return false;
}

/// Integer-expression builder with local folding; used by the affine
/// decomposition so "rest" expressions stay small and constant tails
/// collapse to literals.
Expr mkBin(BinOp Op, Expr A, Expr B) {
  int64_t CA, CB;
  const bool KA = asConstInt(A, CA);
  const bool KB = asConstInt(B, CB);
  if (KA && KB) {
    switch (Op) {
    case BinOp::Add: return makeInt(CA + CB);
    case BinOp::Sub: return makeInt(CA - CB);
    case BinOp::Mul: return makeInt(CA * CB);
    case BinOp::Div:
      if (CB != 0)
        return makeInt(CA / CB);
      break;
    case BinOp::Mod:
      if (CB != 0)
        return makeInt(CA % CB);
      break;
    case BinOp::Min: return makeInt(std::min(CA, CB));
    case BinOp::Max: return makeInt(std::max(CA, CB));
    }
  }
  if (Op == BinOp::Add) {
    if (KA && CA == 0)
      return B;
    if (KB && CB == 0)
      return A;
  }
  if (Op == BinOp::Sub && KB && CB == 0)
    return A;
  if (Op == BinOp::Mul) {
    if ((KA && CA == 0) || (KB && CB == 0))
      return makeInt(0);
    if (KA && CA == 1)
      return B;
    if (KB && CB == 1)
      return A;
  }
  return makeBinary(Op, std::move(A), std::move(B));
}

//===----------------------------------------------------------------------===//
// ProgramBuilder
//===----------------------------------------------------------------------===//

class ProgramBuilder {
public:
  explicit ProgramBuilder(const Func &F) : F(F) {}

  std::shared_ptr<const Program> build();

private:
  struct Operand {
    uint16_t Reg = 0;
    bool Temp = false;
  };

  /// Compilation context of one active (enclosing) loop.
  struct LoopCtx {
    const VarNode *LoopVar = nullptr;
    Var VarHandle;
    bool Parallel = false;
    bool StepIsConst = false;
    int64_t StepConst = 0;
    /// Once-per-entry code: induction bases and hoisted invariants.
    std::vector<Instr> Entry;
    /// Back-edge advances (AddImmI per induction).
    std::vector<Instr> Incr;
    /// Variables bound inside this loop's body so far (lets and nested
    /// loop variables) — anything here is NOT loop-invariant.
    std::unordered_set<const VarNode *> InnerDefs;
    /// Offset expression node -> installed induction/hoist register.
    std::unordered_map<const ExprNode *, uint16_t> Memo;
  };

  // --- register management ---
  uint16_t allocPermanent() {
    if (NextReg > 0xFFFF)
      fatalError("bytecode program exceeds 65536 registers");
    return static_cast<uint16_t>(NextReg++);
  }
  Operand allocTemp() {
    if (!FreeTemps.empty()) {
      const uint16_t R = FreeTemps.back();
      FreeTemps.pop_back();
      return {R, true};
    }
    return {allocPermanent(), true};
  }
  void release(const Operand &O) {
    if (O.Temp)
      FreeTemps.push_back(O.Reg);
  }

  uint16_t slotReg(const VarNode *V) const {
    assert(V->Slot >= 0 && "slot not assigned");
    return static_cast<uint16_t>(V->Slot);
  }

  uint16_t constReg(const Value &V) {
    // Key the float half by bit pattern: value-keying would merge -0.0
    // with +0.0 and make NaN compare equivalent to everything.
    uint64_t FBits;
    std::memcpy(&FBits, &V.F, sizeof(FBits));
    const auto Key = std::make_pair(V.I, FBits);
    auto It = ConstRegs.find(Key);
    if (It != ConstRegs.end())
      return It->second;
    const uint16_t R = allocPermanent();
    ConstRegs.emplace(Key, R);
    ConstPool.emplace_back(R, V);
    return R;
  }
  uint16_t intConstReg(int64_t I) {
    Value V;
    V.I = I;
    return constReg(V);
  }

  // --- emission ---
  void emit(Opcode Op, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
            int32_t Target = 0, int64_t Imm = 0) {
    Instr I;
    I.Op = Op;
    I.A = A;
    I.B = B;
    I.C = C;
    I.Target = Target;
    I.Imm = Imm;
    Out->push_back(I);
  }

  /// RAII redirection of the emission buffer (loop bodies, entry blocks).
  struct EmitTo {
    ProgramBuilder &PB;
    std::vector<Instr> *Saved;
    EmitTo(ProgramBuilder &PB, std::vector<Instr> *Buf)
        : PB(PB), Saved(PB.Out) {
      PB.Out = Buf;
    }
    ~EmitTo() { PB.Out = Saved; }
  };

  // --- expressions ---
  Operand compileExpr(const ExprNode *E);
  Operand compileExprAsInt(const Expr &E);
  Operand compileExprAsFloat(const Expr &E);
  Operand compileOffset(const Expr &E);
  Operand compileLoadStoreOffset(int BufferId, const std::vector<Expr> &Idx);

  // --- affine analysis ---
  bool splitAffine(const Expr &E, const LoopCtx &Ctx, int64_t &Coeff,
                   Expr &Rest, int Depth);
  bool tryStrengthReduce(const Expr &E, Operand &OutOp);

  // --- statements ---
  void compileStmtList(const StmtList &L, bool InParallel);
  void compileStmt(const StmtNode *S, bool InParallel);
  void compileFor(const ForNode *For, bool InParallel);
  void compileParallelFor(const ForNode *For);
  void compileStore(const StoreNode *St);
  void compileCall(const CallNode *C);

  /// Records that \p V became bound inside every currently active loop.
  void markBound(const VarNode *V) {
    for (LoopCtx &Ctx : Loops)
      Ctx.InnerDefs.insert(V);
  }

  const Func &F;
  Program P;
  std::vector<Instr> *Out = nullptr;
  uint32_t NextReg = 0;
  std::vector<uint16_t> FreeTemps;
  std::map<std::pair<int64_t, uint64_t>, uint16_t> ConstRegs;
  std::vector<std::pair<uint16_t, Value>> ConstPool;
  std::vector<LoopCtx> Loops;
  /// Let-bound variable -> defining expression (for affine inlining).
  std::unordered_map<const VarNode *, Expr> LetDefs;
  /// Vars currently being inlined (self/cyclic definition guard).
  std::unordered_set<const VarNode *> Inlining;
};

//===----------------------------------------------------------------------===//
// Expression compilation
//===----------------------------------------------------------------------===//

ProgramBuilder::Operand ProgramBuilder::compileExpr(const ExprNode *E) {
  Value CV;
  if (evalConst(E, CV))
    return {constReg(CV), false};
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
  case ExprNode::Kind::FloatImm:
    GC_UNREACHABLE("constants handled by evalConst");
  case ExprNode::Kind::Var:
    return {slotReg(static_cast<const VarNode *>(E)), false};
  case ExprNode::Kind::Binary: {
    const auto *B = static_cast<const BinaryNode *>(E);
    Operand A = compileExpr(B->A.get());
    Operand C = compileExpr(B->B.get());
    if (B->type() == ScalarType::F64) {
      // Convert each integer operand by its own static type: a float
      // binary op never sees an integer register.
      if (B->A->type() != ScalarType::F64) {
        Operand Conv = allocTemp();
        emit(Opcode::I2F, Conv.Reg, A.Reg);
        release(A);
        A = Conv;
      }
      if (B->B->type() != ScalarType::F64) {
        Operand Conv = allocTemp();
        emit(Opcode::I2F, Conv.Reg, C.Reg);
        release(C);
        C = Conv;
      }
      release(A);
      release(C);
      Operand R = allocTemp();
      Opcode Op;
      switch (B->Op) {
      case BinOp::Add: Op = Opcode::AddF; break;
      case BinOp::Sub: Op = Opcode::SubF; break;
      case BinOp::Mul: Op = Opcode::MulF; break;
      case BinOp::Div: Op = Opcode::DivF; break;
      case BinOp::Mod: Op = Opcode::ModF; break;
      case BinOp::Min: Op = Opcode::MinF; break;
      case BinOp::Max: Op = Opcode::MaxF; break;
      default: GC_UNREACHABLE("binop");
      }
      emit(Op, R.Reg, A.Reg, C.Reg);
      return R;
    }
    release(A);
    release(C);
    Operand R = allocTemp();
    Opcode Op;
    switch (B->Op) {
    case BinOp::Add: Op = Opcode::AddI; break;
    case BinOp::Sub: Op = Opcode::SubI; break;
    case BinOp::Mul: Op = Opcode::MulI; break;
    case BinOp::Div: Op = Opcode::DivI; break;
    case BinOp::Mod: Op = Opcode::ModI; break;
    case BinOp::Min: Op = Opcode::MinI; break;
    case BinOp::Max: Op = Opcode::MaxI; break;
    default: GC_UNREACHABLE("binop");
    }
    emit(Op, R.Reg, A.Reg, C.Reg);
    return R;
  }
  case ExprNode::Kind::Load: {
    const auto *L = static_cast<const LoadNode *>(E);
    Operand Off = compileLoadStoreOffset(L->BufferId, L->Indices);
    release(Off);
    Operand R = allocTemp();
    Opcode Op;
    switch (F.buffer(L->BufferId).ElemTy) {
    case DataType::F32: Op = Opcode::LoadF32; break;
    case DataType::F64: Op = Opcode::LoadF64; break;
    case DataType::S32: Op = Opcode::LoadS32; break;
    case DataType::S8: Op = Opcode::LoadS8; break;
    case DataType::U8: Op = Opcode::LoadU8; break;
    default: GC_UNREACHABLE("load dtype");
    }
    emit(Op, R.Reg, static_cast<uint16_t>(L->BufferId), Off.Reg);
    return R;
  }
  }
  GC_UNREACHABLE("unhandled expr kind");
}

ProgramBuilder::Operand ProgramBuilder::compileExprAsInt(const Expr &E) {
  Operand O = compileExpr(E.get());
  if (E->type() != ScalarType::F64)
    return O;
  release(O);
  Operand R = allocTemp();
  emit(Opcode::F2I, R.Reg, O.Reg);
  return R;
}

ProgramBuilder::Operand ProgramBuilder::compileExprAsFloat(const Expr &E) {
  Operand O = compileExpr(E.get());
  if (E->type() == ScalarType::F64)
    return O;
  release(O);
  Operand R = allocTemp();
  emit(Opcode::I2F, R.Reg, O.Reg);
  return R;
}

//===----------------------------------------------------------------------===//
// Affine decomposition & strength reduction
//===----------------------------------------------------------------------===//

bool ProgramBuilder::splitAffine(const Expr &E, const LoopCtx &Ctx,
                                 int64_t &Coeff, Expr &Rest, int Depth) {
  if (!E || Depth > 64 || E->type() == ScalarType::F64)
    return false;
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    Coeff = 0;
    Rest = E;
    return true;
  case ExprNode::Kind::FloatImm:
    return false;
  case ExprNode::Kind::Var: {
    const auto *V = static_cast<const VarNode *>(E.get());
    if (V == Ctx.LoopVar) {
      Coeff = 1;
      Rest = makeInt(0);
      return true;
    }
    if (Ctx.InnerDefs.count(V)) {
      // Bound inside the loop: inline a let definition (recomputed from
      // outer-scope values) or give up on nested loop variables.
      const auto It = LetDefs.find(V);
      if (It == LetDefs.end() || Inlining.count(V))
        return false;
      Inlining.insert(V);
      const bool Ok = splitAffine(It->second, Ctx, Coeff, Rest, Depth + 1);
      Inlining.erase(V);
      return Ok;
    }
    Coeff = 0;
    Rest = E;
    return true;
  }
  case ExprNode::Kind::Binary: {
    const auto *B = static_cast<const BinaryNode *>(E.get());
    int64_t CA, CB;
    Expr RA, RB;
    if (!splitAffine(B->A, Ctx, CA, RA, Depth + 1) ||
        !splitAffine(B->B, Ctx, CB, RB, Depth + 1))
      return false;
    switch (B->Op) {
    case BinOp::Add:
      Coeff = CA + CB;
      Rest = mkBin(BinOp::Add, RA, RB);
      return true;
    case BinOp::Sub:
      Coeff = CA - CB;
      Rest = mkBin(BinOp::Sub, RA, RB);
      return true;
    case BinOp::Mul: {
      if (CA == 0 && CB == 0) {
        Coeff = 0;
        Rest = mkBin(BinOp::Mul, RA, RB);
        return true;
      }
      int64_t K;
      if (CA != 0 && CB == 0 && asConstInt(RB, K)) {
        Coeff = CA * K;
        Rest = mkBin(BinOp::Mul, RA, RB);
        return true;
      }
      if (CB != 0 && CA == 0 && asConstInt(RA, K)) {
        Coeff = K * CB;
        Rest = mkBin(BinOp::Mul, RA, RB);
        return true;
      }
      return false;
    }
    case BinOp::Div:
    case BinOp::Mod:
    case BinOp::Min:
    case BinOp::Max:
      if (CA == 0 && CB == 0) {
        Coeff = 0;
        Rest = mkBin(B->Op, RA, RB);
        return true;
      }
      return false;
    }
    return false;
  }
  case ExprNode::Kind::Load:
    // Memory may be written inside the loop; never treat as invariant.
    return false;
  }
  return false;
}

/// True when evaluating \p E could trap: an integer Div/Mod whose divisor
/// is not a nonzero constant. Hoisted entry code runs at loop entry even
/// when the use site sits inside a deeper zero-trip loop, and a zero-trip
/// loop's body is never evaluated, so trapping expressions must not be
/// hoisted.
bool mayTrap(const Expr &E) {
  if (!E || E->kind() != ExprNode::Kind::Binary)
    return false;
  const auto &B = static_cast<const BinaryNode &>(*E);
  if ((B.Op == BinOp::Div || B.Op == BinOp::Mod) &&
      B.type() != ScalarType::F64) {
    int64_t D;
    if (!asConstInt(B.B, D) || D == 0)
      return true;
  }
  return mayTrap(B.A) || mayTrap(B.B);
}

bool ProgramBuilder::tryStrengthReduce(const Expr &E, Operand &OutOp) {
  if (Loops.empty())
    return false;
  // Trivial expressions gain nothing.
  if (E->kind() == ExprNode::Kind::IntImm ||
      E->kind() == ExprNode::Kind::FloatImm ||
      E->kind() == ExprNode::Kind::Var)
    return false;
  int Install = -1;
  int64_t InstallCoeff = 0;
  Expr InstallRest;
  for (int I = static_cast<int>(Loops.size()) - 1; I >= 0; --I) {
    LoopCtx &Ctx = Loops[static_cast<size_t>(I)];
    const auto MIt = Ctx.Memo.find(E.get());
    if (MIt != Ctx.Memo.end()) {
      OutOp = {MIt->second, false};
      return true;
    }
    int64_t Coeff;
    Expr Rest;
    if (!splitAffine(E, Ctx, Coeff, Rest, 0))
      break;
    if (Coeff != 0) {
      // Induction: needs ordered iterations and a constant step.
      if (Ctx.Parallel || !Ctx.StepIsConst)
        break;
      Install = I;
      InstallCoeff = Coeff;
      InstallRest = Rest;
      break;
    }
    // Invariant at this level; keep walking outward for the widest hoist.
    Install = I;
    InstallCoeff = 0;
    InstallRest = Rest;
  }
  if (Install < 0)
    return false;
  // A hoist of a constant or bare variable is not worth a register.
  if (InstallCoeff == 0 &&
      (InstallRest->kind() == ExprNode::Kind::IntImm ||
       InstallRest->kind() == ExprNode::Kind::Var))
    return false;
  // Entry code must be safe to run when the use site never executes
  // (zero-trip loop between the install loop and the use).
  if (mayTrap(InstallRest))
    return false;
  LoopCtx &Ctx = Loops[static_cast<size_t>(Install)];
  const uint16_t R = allocPermanent();
  // Entry value: rest + coeff*var with var at its begin value.
  Expr EntryE = InstallRest;
  if (InstallCoeff != 0)
    EntryE = mkBin(BinOp::Add, EntryE,
                   mkBin(BinOp::Mul, makeInt(InstallCoeff),
                         std::static_pointer_cast<const ExprNode>(
                             Ctx.VarHandle)));
  {
    EmitTo Guard(*this, &Ctx.Entry);
    Operand V = compileExprAsInt(EntryE);
    emit(Opcode::Mov, R, V.Reg);
    release(V);
  }
  if (InstallCoeff != 0)
    Ctx.Incr.push_back(
        [&] {
          Instr I;
          I.Op = Opcode::AddImmI;
          I.A = R;
          I.Imm = InstallCoeff * Ctx.StepConst;
          return I;
        }());
  Ctx.Memo.emplace(E.get(), R);
  OutOp = {R, false};
  return true;
}

ProgramBuilder::Operand ProgramBuilder::compileOffset(const Expr &E) {
  if (!E)
    return {intConstReg(0), false};
  Operand O;
  if (tryStrengthReduce(E, O))
    return O;
  return compileExprAsInt(E);
}

ProgramBuilder::Operand
ProgramBuilder::compileLoadStoreOffset(int BufferId,
                                       const std::vector<Expr> &Idx) {
  const BufferDecl &B = F.buffer(BufferId);
  if (Idx.size() == 1)
    return compileOffset(Idx[0]);
  // Row-major flatten, symbolically, so the combined offset expression is
  // eligible for folding and strength reduction as a whole.
  bool AllInt = true;
  for (const Expr &I : Idx)
    AllInt = AllInt && I->type() != ScalarType::F64;
  if (AllInt) {
    Expr Flat;
    int64_t Stride = 1;
    for (int64_t D = static_cast<int64_t>(Idx.size()) - 1; D >= 0; --D) {
      Expr Term = mkBin(BinOp::Mul, Idx[static_cast<size_t>(D)],
                        makeInt(Stride));
      Flat = Flat ? mkBin(BinOp::Add, Flat, Term) : Term;
      Stride *= B.Dims[static_cast<size_t>(D)];
    }
    return compileOffset(Flat);
  }
  // Rare mixed-type indices: each index truncates to an integer on its
  // own before the per-dimension accumulation.
  Operand Acc = {intConstReg(0), false};
  int64_t Stride = 1;
  for (int64_t D = static_cast<int64_t>(Idx.size()) - 1; D >= 0; --D) {
    Operand IO = compileExprAsInt(Idx[static_cast<size_t>(D)]);
    Operand Scaled = allocTemp();
    emit(Opcode::MulI, Scaled.Reg, IO.Reg, intConstReg(Stride));
    release(IO);
    Operand Sum = allocTemp();
    emit(Opcode::AddI, Sum.Reg, Acc.Reg, Scaled.Reg);
    release(Scaled);
    release(Acc);
    Acc = Sum;
    Stride *= B.Dims[static_cast<size_t>(D)];
  }
  return Acc;
}

//===----------------------------------------------------------------------===//
// Statement compilation
//===----------------------------------------------------------------------===//

void ProgramBuilder::compileStmtList(const StmtList &L, bool InParallel) {
  for (const Stmt &S : L)
    compileStmt(S.get(), InParallel);
}

void ProgramBuilder::compileStmt(const StmtNode *S, bool InParallel) {
  switch (S->kind()) {
  case StmtNode::Kind::For:
    compileFor(static_cast<const ForNode *>(S), InParallel);
    return;
  case StmtNode::Kind::Let: {
    const auto *L = static_cast<const LetNode *>(S);
    Operand V = compileExpr(L->Value.get());
    emit(Opcode::Mov, slotReg(L->BoundVar.get()), V.Reg);
    release(V);
    LetDefs[L->BoundVar.get()] = L->Value;
    markBound(L->BoundVar.get());
    return;
  }
  case StmtNode::Kind::Store:
    compileStore(static_cast<const StoreNode *>(S));
    return;
  case StmtNode::Kind::Call:
    compileCall(static_cast<const CallNode *>(S));
    return;
  case StmtNode::Kind::Seq:
    compileStmtList(static_cast<const SeqNode *>(S)->Body, InParallel);
    return;
  }
  GC_UNREACHABLE("unhandled stmt kind");
}

void ProgramBuilder::compileFor(const ForNode *For, bool InParallel) {
  if (For->Parallel && !InParallel) {
    compileParallelFor(For);
    return;
  }
  Operand B = compileExprAsInt(For->Begin);
  Operand E = compileExprAsInt(For->End);
  Operand S = compileExprAsInt(For->Step);
  const uint16_t VarReg = slotReg(For->LoopVar.get());
  emit(Opcode::Mov, VarReg, B.Reg);
  const size_t GuardPos = Out->size();
  emit(Opcode::JumpIfGeI, VarReg, E.Reg); // target patched below

  markBound(For->LoopVar.get());
  LoopCtx Ctx;
  Ctx.LoopVar = For->LoopVar.get();
  Ctx.VarHandle = For->LoopVar;
  Ctx.Parallel = false;
  Value StepV;
  Ctx.StepIsConst = evalConst(For->Step.get(), StepV) &&
                    For->Step->type() != ScalarType::F64;
  Ctx.StepConst = StepV.I;
  Loops.push_back(std::move(Ctx));

  std::vector<Instr> BodyBuf;
  {
    EmitTo Guard(*this, &BodyBuf);
    compileStmtList(For->Body, InParallel);
  }
  LoopCtx Done = std::move(Loops.back());
  Loops.pop_back();

  for (const Instr &I : Done.Entry)
    Out->push_back(I);
  const size_t Top = Out->size();
  for (const Instr &I : BodyBuf)
    Out->push_back(I);
  for (const Instr &I : Done.Incr)
    Out->push_back(I);
  Instr LN;
  LN.Op = Opcode::LoopNext;
  LN.A = VarReg;
  LN.B = S.Reg;
  LN.C = E.Reg;
  LN.Target = static_cast<int32_t>(static_cast<int64_t>(Top) -
                                   static_cast<int64_t>(Out->size()));
  Out->push_back(LN);
  (*Out)[GuardPos].Target =
      static_cast<int32_t>(Out->size() - GuardPos);
  release(B);
  release(E);
  release(S);
}

void ProgramBuilder::compileParallelFor(const ForNode *For) {
  Operand B = compileExprAsInt(For->Begin);
  Operand E = compileExprAsInt(For->End);
  Operand S = compileExprAsInt(For->Step);
  const uint16_t VarReg = slotReg(For->LoopVar.get());

  markBound(For->LoopVar.get());
  LoopCtx Ctx;
  Ctx.LoopVar = For->LoopVar.get();
  Ctx.VarHandle = For->LoopVar;
  Ctx.Parallel = true;
  Ctx.StepIsConst = false; // no inductions on unordered iterations
  Loops.push_back(std::move(Ctx));

  std::vector<Instr> BodyBuf;
  {
    EmitTo Guard(*this, &BodyBuf);
    compileStmtList(For->Body, /*InParallel=*/true);
  }
  LoopCtx Done = std::move(Loops.back());
  Loops.pop_back();
  assert(Done.Incr.empty() && "no inductions against a parallel loop");

  // Zero-trip guard over the whole region: an empty loop never evaluates
  // a hoisted invariant (or dispatches the nest), and an entry expression
  // may trap (Div/Mod) on the degenerate bounds. Skipping the nest
  // entirely also skips its barrier: only nests that run cost one.
  const size_t GuardPos = Out->size();
  emit(Opcode::JumpIfGeI, B.Reg, E.Reg); // target patched below

  // Hoisted invariants evaluate once in the submitting frame; the worker
  // frame copy carries them into the nest.
  for (const Instr &I : Done.Entry)
    Out->push_back(I);

  ParDesc D;
  D.VarReg = VarReg;
  D.BeginReg = B.Reg;
  D.EndReg = E.Reg;
  D.StepReg = S.Reg;
  D.BodyLen = static_cast<uint32_t>(BodyBuf.size());
  const int32_t DescIdx = static_cast<int32_t>(P.Pars.size());
  P.Pars.push_back(D);
  emit(Opcode::ParallelFor, 0, 0, 0, DescIdx);
  for (const Instr &I : BodyBuf)
    Out->push_back(I);
  (*Out)[GuardPos].Target = static_cast<int32_t>(Out->size() - GuardPos);
  release(B);
  release(E);
  release(S);
}

void ProgramBuilder::compileStore(const StoreNode *St) {
  Operand Off = compileLoadStoreOffset(St->BufferId, St->Indices);
  const DataType Ty = F.buffer(St->BufferId).ElemTy;
  Opcode Op;
  Operand V;
  switch (Ty) {
  case DataType::F32:
    Op = Opcode::StoreF32;
    V = compileExprAsFloat(St->Value);
    break;
  case DataType::F64:
    Op = Opcode::StoreF64;
    V = compileExprAsFloat(St->Value);
    break;
  case DataType::S32:
    Op = Opcode::StoreS32;
    V = compileExprAsInt(St->Value);
    break;
  case DataType::S8:
    Op = Opcode::StoreS8;
    V = compileExprAsInt(St->Value);
    break;
  case DataType::U8:
    Op = Opcode::StoreU8;
    V = compileExprAsInt(St->Value);
    break;
  default:
    GC_UNREACHABLE("store dtype");
  }
  emit(Op, V.Reg, static_cast<uint16_t>(St->BufferId), Off.Reg);
  release(V);
  release(Off);
}

void ProgramBuilder::compileCall(const CallNode *C) {
  CallDesc D;
  D.Fn = kernelAdapter(C->In);
  D.In = C->In;
  D.Epilogue = C->Epilogue;
  assert(C->Buffers.size() <= static_cast<size_t>(kMaxCallBufs) &&
         "too many buffer arguments");
  assert(C->Scalars.size() <= 12 && "intrinsics take at most 12 scalars");
  std::vector<Operand> Held;
  D.NumBufs = static_cast<uint8_t>(C->Buffers.size());
  for (size_t I = 0; I < C->Buffers.size(); ++I) {
    const BufferRef &Ref = C->Buffers[I];
    D.Bufs[I].BufferId = Ref.BufferId;
    if (Ref.Offset) {
      Operand Off = compileOffset(Ref.Offset);
      D.Bufs[I].OffsetReg = Off.Reg;
      D.Bufs[I].HasOffset = true;
      Held.push_back(Off);
    }
  }
  for (size_t I = 0; I < C->Scalars.size(); ++I) {
    const Expr &E = C->Scalars[I];
    Value CV;
    if (evalConst(E.get(), CV)) {
      // Pre-marshal both views exactly as a register operand would be.
      if (E->type() == ScalarType::F64) {
        D.SF[I] = CV.F;
        D.SI[I] = static_cast<int64_t>(CV.F);
      } else {
        D.SI[I] = CV.I;
        D.SF[I] = static_cast<double>(CV.I);
      }
      continue;
    }
    Operand O = compileExpr(E.get());
    CallDesc::Dyn &Dy = D.Dyns[D.NumDyn++];
    Dy.Idx = static_cast<uint8_t>(I);
    Dy.IsF64 = E->type() == ScalarType::F64;
    Dy.Reg = O.Reg;
    Held.push_back(O);
  }
  const int32_t DescIdx = static_cast<int32_t>(P.Calls.size());
  P.Calls.push_back(D);
  emit(Opcode::CallKernel, 0, 0, 0, DescIdx);
  for (const Operand &O : Held)
    release(O);
}

//===----------------------------------------------------------------------===//
// build()
//===----------------------------------------------------------------------===//

std::shared_ptr<const Program> ProgramBuilder::build() {
  assert(F.NumSlots >= 0 && "run assignSlots before program compilation");
  P.Name = F.Name;
  NextReg = static_cast<uint32_t>(F.NumSlots);

  P.Buffers.reserve(F.Buffers.size());
  for (const BufferDecl &B : F.Buffers) {
    BufferInfo Info;
    Info.Bytes = B.numBytes();
    Info.ElemSize = dataTypeSize(B.ElemTy);
    Info.Scope = B.Scope;
    Info.ArenaOffset = B.ArenaOffset;
    if (B.Scope == BufferScope::Const && B.BakedIndex >= 0)
      Info.BakedData = F.Baked[static_cast<size_t>(B.BakedIndex)].data();
    P.Buffers.push_back(Info);
  }
  P.ArenaBytes = F.ArenaBytes;

  Out = &P.Code;
  compileStmtList(F.Body, /*InParallel=*/false);

  P.NumRegs = NextReg;
  P.InitRegs.assign(P.NumRegs, Value());
  for (const auto &KV : ConstPool)
    P.InitRegs[KV.first] = KV.second;
  return std::make_shared<const Program>(std::move(P));
}

} // namespace

std::shared_ptr<const Program> compileProgram(const Func &F) {
  return ProgramBuilder(F).build();
}

//===----------------------------------------------------------------------===//
// Disassembler
//===----------------------------------------------------------------------===//

std::string printProgram(const Program &P) {
  static const char *Names[] = {
      "mov",    "i2f",    "f2i",    "add.i",  "sub.i",  "mul.i",  "div.i",
      "mod.i",  "min.i",  "max.i",  "add.f",  "sub.f",  "mul.f",  "div.f",
      "mod.f",  "min.f",  "max.f",  "addimm", "ld.f32", "ld.f64", "ld.s32",
      "ld.s8",  "ld.u8",  "st.f32", "st.f64", "st.s32", "st.s8",  "st.u8",
      "jge",    "next",   "call",   "parfor"};
  std::string S = formatString("program %s: %zu instrs, %u regs, %zu calls, "
                               "%zu parallel nests\n",
                               P.Name.c_str(), P.Code.size(), P.NumRegs,
                               P.Calls.size(), P.Pars.size());
  for (size_t I = 0; I < P.Code.size(); ++I) {
    const Instr &In = P.Code[I];
    S += formatString("%4zu: %-7s A=%u B=%u C=%u T=%d Imm=%lld\n", I,
                      Names[static_cast<size_t>(In.Op)], In.A, In.B, In.C,
                      In.Target, static_cast<long long>(In.Imm));
  }
  return S;
}

} // namespace exec
} // namespace gc
