//===- tir_verifier.cpp - Tensor IR static verification -------------------===//
///
/// \file
/// The Tensor IR verifier: buffer-table consistency, variable
/// def-before-use in execution order, loop-bound sanity, intrinsic-call
/// arity and element types against the intrinsic table (tir/intrinsics.h),
/// and a bounds analysis proving every kernel call's buffer offsets and
/// footprints (verify/relational.h) stay inside their buffers' extents
/// for all loop iterations.
///
/// The analysis runs over the symbolic domain of verify/symbolic.h:
/// loop variables become symbols carrying their bounds as symbolic
/// values — min-shaped upper bounds included — so correlated edge-tile
/// footprints like Off = i*TILE, Rows = min(TILE, N - i*TILE) are proven
/// exactly and a genuinely escaping access is rejected with a located
/// Status.
///
/// The analysis is deliberately one-pass (no fixpoint): a loop body is
/// interpreted once with the loop variable widened to [lo(Begin),
/// hi(End)-1], which is sound because TIR expressions are pure and
/// loop-carried scalar state does not exist in the lowered form (every
/// Let re-binds from loop variables downward).
///
//===----------------------------------------------------------------------===//

#include "verify/verify.h"

#include "support/str.h"
#include "verify/relational.h"
#include "verify/symbolic.h"

#include <unordered_map>

namespace gc {
namespace verify {

namespace {

using namespace tir;

/// Per-function verification state.
class FuncVerifier {
public:
  FuncVerifier(const Func &F, const char *Context)
      : F(F), Context(Context) {}

  Status run() {
    if (Status S = checkBuffers(); !S.isOk())
      return S;
    return walkStmts(F.Body, "body");
  }

private:
  const Func &F;
  const char *Context;
  SymCtx Ctx;
  /// Defined variables with their symbolic value (top when unknown).
  /// Execution-order accumulation matches the executor's frame-slot
  /// semantics: a binding stays readable after its scope exits.
  std::unordered_map<const VarNode *, SymVal> Env;

  Status err(const std::string &Where, const std::string &What) const {
    return Status::error(
        StatusCode::Internal,
        formatString("tir verifier%s%s: func %s: %s: %s",
                     *Context ? " after " : "", Context, F.Name.c_str(),
                     Where.c_str(), What.c_str()));
  }

  Status checkBuffers() const {
    for (size_t I = 0; I < F.Buffers.size(); ++I) {
      const BufferDecl &B = F.Buffers[I];
      const std::string Where = formatString("buffer %zu (%s)", I,
                                             B.Name.c_str());
      if (B.Id != static_cast<int>(I))
        return err(Where, formatString("id %d does not match table index",
                                       B.Id));
      if (dataTypeSize(B.ElemTy) <= 0)
        return err(Where, "invalid element type");
      for (int64_t D : B.Dims)
        if (D <= 0)
          return err(Where, formatString("non-positive dimension %lld",
                                         (long long)D));
      if (B.Scope == BufferScope::Temp && B.ArenaOffset >= 0 &&
          B.ArenaOffset + B.numBytes() > F.ArenaBytes)
        return err(Where,
                   formatString("arena slot [%lld, %lld) exceeds the %lld "
                                "byte arena",
                                (long long)B.ArenaOffset,
                                (long long)(B.ArenaOffset + B.numBytes()),
                                (long long)F.ArenaBytes));
      if ((B.Scope == BufferScope::Param ||
           B.Scope == BufferScope::FoldedConst) &&
          B.GraphTensorId < 0)
        return err(Where, "parameter buffer has no graph tensor binding");
      if (B.Scope == BufferScope::Const && B.GraphTensorId < 0 &&
          (B.BakedIndex < 0 ||
           B.BakedIndex >= static_cast<int>(F.Baked.size())))
        return err(Where, "const buffer has neither a graph tensor "
                          "binding nor valid baked data");
    }
    return Status::ok();
  }

  Status checkVar(const Var &V, const std::string &Where) const {
    if (F.NumSlots >= 0 && (V->Slot < 0 || V->Slot >= F.NumSlots))
      return err(Where, formatString("variable %s has slot %d outside the "
                                     "%d-slot frame",
                                     V->Name.c_str(), V->Slot, F.NumSlots));
    return Status::ok();
  }

  /// Evaluates the symbolic value of an expression, checking
  /// def-before-use along the way.
  Status evalExpr(const Expr &E, const std::string &Where, SymVal &Out) {
    switch (E->kind()) {
    case ExprNode::Kind::IntImm:
      Out = SymVal::constant(static_cast<const IntImmNode &>(*E).Value);
      return Status::ok();
    case ExprNode::Kind::Var: {
      const auto *V = static_cast<const VarNode *>(E.get());
      auto It = Env.find(V);
      if (It == Env.end())
        return err(Where, formatString("variable %s is used before any "
                                       "definition",
                                       V->Name.c_str()));
      if (F.NumSlots >= 0 && (V->Slot < 0 || V->Slot >= F.NumSlots))
        return err(Where,
                   formatString("variable %s has slot %d outside the "
                                "%d-slot frame",
                                V->Name.c_str(), V->Slot, F.NumSlots));
      Out = It->second;
      return Status::ok();
    }
    case ExprNode::Kind::Binary: {
      const auto &B = static_cast<const BinaryNode &>(*E);
      SymVal A, C;
      if (Status S = evalExpr(B.A, Where, A); !S.isOk())
        return S;
      if (Status S = evalExpr(B.B, Where, C); !S.isOk())
        return S;
      switch (B.Op) {
      case BinOp::Add: Out = Ctx.add(A, C); break;
      case BinOp::Sub: Out = Ctx.sub(A, C); break;
      case BinOp::Mul: Out = Ctx.mul(A, C); break;
      case BinOp::Div: Out = Ctx.div(A, C); break;
      case BinOp::Mod: Out = Ctx.mod(A, C); break;
      case BinOp::Min: Out = Ctx.min(A, C); break;
      case BinOp::Max: Out = Ctx.max(A, C); break;
      }
      return Status::ok();
    }
    }
    Out = SymVal::top();
    return Status::ok();
  }

  /// Rejects an access of \p What into \p B that reaches \p Reach.
  Status escapes(const BufferDecl &B, const Interval &Reach,
                 const std::string &Where, const std::string &What) const {
    return err(Where,
               formatString("%s footprint of %s reaches elements "
                            "[%lld, %lld], outside the buffer's %lld "
                            "elements",
                            What.c_str(), B.Name.c_str(), (long long)Reach.Lo,
                            (long long)Reach.Hi,
                            (long long)B.numElements()));
  }

  /// A kernel call: arity and element types against its intrinsic's row
  /// (tir/intrinsics.h) or, for EpilogueTile, its step list; base offsets;
  /// then every footprint (verify/relational.h) in bounds.
  Status checkCall(const CallNode &C, const std::string &Where) {
    if (static_cast<uint8_t>(C.In) >= kNumIntrinsics)
      return err(Where, formatString("unknown intrinsic id %u",
                                     static_cast<unsigned>(C.In)));
    const IntrinsicInfo &Row = intrinsicInfo(C.In);
    if ((C.In == Intrinsic::EpilogueTile) != (C.Epilogue != nullptr))
      return err(Where, formatString("%s %s a step list", Row.Name,
                                     C.Epilogue ? "carries" : "lacks"));
    std::vector<kernels::EpArgUse> Slots;
    std::string Why;
    if (C.Epilogue && !kernels::describeEpilogue(*C.Epilogue, Slots, Why))
      return err(Where, std::string(Row.Name) + " step list: " + Why);
    const size_t NumBufs = C.Epilogue ? Slots.size() : Row.NumBufs;
    if (C.Buffers.size() != NumBufs || C.Scalars.size() != Row.NumScalars)
      return err(Where, formatString("%s expects %zu buffer and %u scalar "
                                     "args, has %zu and %zu",
                                     Row.Name, NumBufs, Row.NumScalars,
                                     C.Buffers.size(), C.Scalars.size()));

    KernelCall K;
    K.In = C.In;
    K.Epilogue = C.Epilogue.get();
    for (size_t I = 0; I < C.Buffers.size(); ++I) {
      const BufferRef &R = C.Buffers[I];
      if (R.BufferId < 0 || R.BufferId >= static_cast<int>(F.Buffers.size()))
        return err(Where,
                   formatString("%s buffer arg %zu references unknown "
                                "buffer %d",
                                Row.Name, I, R.BufferId));
      const BufferDecl &B = F.buffer(R.BufferId);
      const DataType Want = C.Epilogue ? Slots[I].Ty : Row.Bufs[I].Ty;
      if (Want != kAnyType && B.ElemTy != Want)
        return err(Where,
                   formatString("%s buffer arg %zu (%s) has element type "
                                "%s, kernel expects %s",
                                Row.Name, I, B.Name.c_str(),
                                dataTypeName(B.ElemTy), dataTypeName(Want)));
      SymVal Off = SymVal::constant(0);
      if (R.Offset)
        if (Status S = evalExpr(R.Offset, Where, Off); !S.isOk())
          return S;
      // Base offset must itself be inside the buffer whenever provable.
      const Interval OffR = Ctx.range(Off);
      if (OffR.bounded() && (OffR.Lo < 0 || OffR.Hi >= B.numElements()))
        return err(Where,
                   formatString("%s buffer arg %zu offset range "
                                "[%lld, %lld] is outside %s's %lld "
                                "elements",
                                Row.Name, I, (long long)OffR.Lo,
                                (long long)OffR.Hi, B.Name.c_str(),
                                (long long)B.numElements()));
      K.Bufs.push_back(R.BufferId);
      K.Offs.push_back(std::move(Off));
    }
    K.Scalars.resize(C.Scalars.size());
    for (size_t I = 0; I < C.Scalars.size(); ++I)
      if (Status S = evalExpr(C.Scalars[I], Where, K.Scalars[I]); !S.isOk())
        return S;

    for (const Footprint &FP : callFootprints(Ctx, K)) {
      const BufferDecl &B = F.buffer(FP.Buffer);
      Interval Reach;
      if (footprintBounds(Ctx, FP, B.numElements(), Reach) == Bounds::Out)
        return escapes(B, Reach, Where, FP.Site);
    }
    return Status::ok();
  }

  Status walkStmts(const StmtList &L, const std::string &Path) {
    for (size_t I = 0; I < L.size(); ++I)
      if (Status S = walkStmt(L[I], formatString("%s[%zu]", Path.c_str(), I));
          !S.isOk())
        return S;
    return Status::ok();
  }

  Status walkStmt(const Stmt &St, const std::string &Path) {
    switch (St->kind()) {
    case StmtNode::Kind::Seq: {
      const auto &S = static_cast<const SeqNode &>(*St);
      const std::string P =
          S.Tag.empty() ? Path + ".seq" : Path + ".seq(" + S.Tag + ")";
      return walkStmts(S.Body, P);
    }
    case StmtNode::Kind::Let: {
      const auto &Let = static_cast<const LetNode &>(*St);
      if (!Let.BoundVar)
        return err(Path, "let binds no variable");
      SymVal V = SymVal::top();
      if (Status S = evalExpr(Let.Value, Path + ".let", V); !S.isOk())
        return S;
      if (Status S = checkVar(Let.BoundVar, Path + ".let"); !S.isOk())
        return S;
      Env[Let.BoundVar.get()] = V;
      return Status::ok();
    }
    case StmtNode::Kind::Call: {
      const auto &C = static_cast<const CallNode &>(*St);
      return checkCall(C, Path + ".call(" +
                              std::string(intrinsicName(C.In)) + ")");
    }
    case StmtNode::Kind::For: {
      const auto &For = static_cast<const ForNode &>(*St);
      const std::string P =
          Path + (For.Parallel ? ".pfor(" : ".for(") +
          (For.LoopVar ? For.LoopVar->Name : std::string("?")) + ")";
      if (!For.LoopVar)
        return err(P, "loop has no induction variable");
      SymVal Begin, End, Step;
      if (Status S = evalExpr(For.Begin, P, Begin); !S.isOk())
        return S;
      if (Status S = evalExpr(For.End, P, End); !S.isOk())
        return S;
      if (Status S = evalExpr(For.Step, P, Step); !S.isOk())
        return S;
      const Interval StepR = Ctx.range(Step);
      if (StepR.boundedAbove() && StepR.Hi <= 0)
        return err(P, formatString("non-positive loop step %lld",
                                   (long long)StepR.Hi));
      if (Status S = checkVar(For.LoopVar, P); !S.isOk())
        return S;
      // Definitely-zero-trip loop: the body can never execute, so there
      // is nothing to prove inside it (and proving against the empty
      // iteration space would reject vacuously-safe bodies).
      const Interval BeginR = Ctx.range(Begin);
      const Interval EndR = Ctx.range(End);
      const Interval VarRange{BeginR.Lo, satAdd(EndR.Hi, -1)};
      if (!(VarRange.empty() && BeginR.isConst() && EndR.boundedAbove())) {
        // The loop symbol carries its symbolic bounds (v >= Begin,
        // v <= End - 1) — this is where min-shaped clamped loop ends
        // like nsi < min(NSN, NBlocks - npi*NSN) enter the relational
        // domain.
        const SymVal UpperB = Ctx.add(End, SymVal::constant(-1));
        Env[For.LoopVar.get()] =
            Ctx.makeLoopSym(For.LoopVar->Name, VarRange, &Begin, &UpperB);
        if (Status S = walkStmts(For.Body, P); !S.isOk())
          return S;
      }
      // After the loop the variable holds begin + k*step for some k the
      // analysis does not track exactly.
      Env[For.LoopVar.get()] = SymVal::top();
      return Status::ok();
    }
    }
    return Status::ok();
  }
};

} // namespace

Status verifyFunc(const Func &F, const char *Context) {
  return FuncVerifier(F, Context).run();
}

} // namespace verify
} // namespace gc
