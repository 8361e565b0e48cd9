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
/// bit for bit). Returns false for anything touching a variable.
bool evalConst(const ExprNode *E, int64_t &Out) {
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    Out = static_cast<const IntImmNode *>(E)->Value;
    return true;
  case ExprNode::Kind::Binary: {
    const auto *B = static_cast<const BinaryNode *>(E);
    int64_t A, C;
    if (!evalConst(B->A.get(), A) || !evalConst(B->B.get(), C))
      return false;
    switch (B->Op) {
    case BinOp::Add: Out = A + C; return true;
    case BinOp::Sub: Out = A - C; return true;
    case BinOp::Mul: Out = A * C; return true;
    case BinOp::Div:
      if (C == 0)
        return false; // leave the runtime behavior to the interpreter
      Out = A / C;
      return true;
    case BinOp::Mod:
      if (C == 0)
        return false;
      Out = A % C;
      return true;
    case BinOp::Min: Out = std::min(A, C); return true;
    case BinOp::Max: Out = std::max(A, C); return true;
    }
    return false;
  }
  case ExprNode::Kind::Var:
    return false;
  }
  return false;
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

  uint16_t constReg(int64_t V) {
    auto It = ConstRegs.find(V);
    if (It != ConstRegs.end())
      return It->second;
    const uint16_t R = allocPermanent();
    ConstRegs.emplace(V, R);
    ConstPool.emplace_back(R, V);
    return R;
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
  Operand compileExpr(const Expr &E);
  Operand compileOffset(const Expr &E);

  // --- affine analysis ---
  bool splitAffine(const Expr &E, const LoopCtx &Ctx, int64_t &Coeff,
                   Expr &Rest, int Depth);
  bool tryStrengthReduce(const Expr &E, Operand &OutOp);

  // --- statements ---
  void compileStmtList(const StmtList &L, bool InParallel);
  void compileStmt(const StmtNode *S, bool InParallel);
  void compileFor(const ForNode *For, bool InParallel);
  void compileParallelFor(const ForNode *For);
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
  std::unordered_map<int64_t, uint16_t> ConstRegs;
  std::vector<std::pair<uint16_t, int64_t>> ConstPool;
  std::vector<LoopCtx> Loops;
  /// Let-bound variable -> defining expression (for affine inlining).
  std::unordered_map<const VarNode *, Expr> LetDefs;
  /// Vars currently being inlined (self/cyclic definition guard).
  std::unordered_set<const VarNode *> Inlining;
};

//===----------------------------------------------------------------------===//
// Expression compilation
//===----------------------------------------------------------------------===//

ProgramBuilder::Operand ProgramBuilder::compileExpr(const Expr &E) {
  int64_t CV;
  if (evalConst(E.get(), CV))
    return {constReg(CV), false};
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    GC_UNREACHABLE("constants handled by evalConst");
  case ExprNode::Kind::Var:
    return {slotReg(static_cast<const VarNode *>(E.get())), false};
  case ExprNode::Kind::Binary: {
    const auto *B = static_cast<const BinaryNode *>(E.get());
    Operand A = compileExpr(B->A);
    Operand C = compileExpr(B->B);
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
  }
  GC_UNREACHABLE("unhandled expr kind");
}

//===----------------------------------------------------------------------===//
// Affine decomposition & strength reduction
//===----------------------------------------------------------------------===//

bool ProgramBuilder::splitAffine(const Expr &E, const LoopCtx &Ctx,
                                 int64_t &Coeff, Expr &Rest, int Depth) {
  if (!E || Depth > 64)
    return false;
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    Coeff = 0;
    Rest = E;
    return true;
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
      Rest = RA + RB;
      return true;
    case BinOp::Sub:
      Coeff = CA - CB;
      Rest = RA - RB;
      return true;
    case BinOp::Mul: {
      if (CA == 0 && CB == 0) {
        Coeff = 0;
        Rest = RA * RB;
        return true;
      }
      int64_t K;
      if (CA != 0 && CB == 0 && asConstInt(RB, K)) {
        Coeff = CA * K;
        Rest = RA * RB;
        return true;
      }
      if (CB != 0 && CA == 0 && asConstInt(RA, K)) {
        Coeff = K * CB;
        Rest = RA * RB;
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
        Rest = makeBinary(B->Op, RA, RB);
        return true;
      }
      return false;
    }
    return false;
  }
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
  if (B.Op == BinOp::Div || B.Op == BinOp::Mod) {
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
    EntryE = EntryE + makeInt(InstallCoeff) * Expr(Ctx.VarHandle);
  {
    EmitTo Guard(*this, &Ctx.Entry);
    Operand V = compileExpr(EntryE);
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
  Operand O;
  if (tryStrengthReduce(E, O))
    return O;
  return compileExpr(E);
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
    Operand V = compileExpr(L->Value);
    emit(Opcode::Mov, slotReg(L->BoundVar.get()), V.Reg);
    release(V);
    LetDefs[L->BoundVar.get()] = L->Value;
    markBound(L->BoundVar.get());
    return;
  }
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
  Operand B = compileExpr(For->Begin);
  Operand E = compileExpr(For->End);
  Operand S = compileExpr(For->Step);
  const uint16_t VarReg = slotReg(For->LoopVar.get());
  emit(Opcode::Mov, VarReg, B.Reg);
  const size_t GuardPos = Out->size();
  emit(Opcode::JumpIfGeI, VarReg, E.Reg); // target patched below

  markBound(For->LoopVar.get());
  LoopCtx Ctx;
  Ctx.LoopVar = For->LoopVar.get();
  Ctx.VarHandle = For->LoopVar;
  Ctx.Parallel = false;
  Ctx.StepIsConst = evalConst(For->Step.get(), Ctx.StepConst);
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
  Operand B = compileExpr(For->Begin);
  Operand E = compileExpr(For->End);
  Operand S = compileExpr(For->Step);
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
    if (evalConst(E.get(), D.SI[I]))
      continue;
    Operand O = compileExpr(E);
    CallDesc::Dyn &Dy = D.Dyns[D.NumDyn++];
    Dy.Idx = static_cast<uint8_t>(I);
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
  P.InitRegs.assign(P.NumRegs, 0);
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
  static const char *const Names[] = {
      "mov",    "add.i", "sub.i", "mul.i", "div.i", "mod.i", "min.i",
      "max.i",  "addimm", "jge",  "next",  "call",  "parfor"};
  static_assert(sizeof(Names) / sizeof(Names[0]) == kNumOpcodes,
                "one name per opcode");
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
