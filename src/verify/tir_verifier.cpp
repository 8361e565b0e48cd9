//===- tir_verifier.cpp - Tensor IR static verification -------------------===//
///
/// \file
/// The Tensor IR verifier: buffer-table consistency, variable
/// def-before-use in execution order, loop-bound sanity, intrinsic-call
/// arity against the documented conventions (tir/intrinsics.h), and a
/// bounds analysis proving every Load/Store/BufferRef element offset —
/// and the tile/flat footprints of intrinsic calls — stays inside its
/// buffer's extent for all loop iterations.
///
/// The analysis runs over the symbolic domain of verify/symbolic.h. At
/// GC_VERIFY levels below `relational` the SymCtx creates no symbols and
/// every value is an interval box, reproducing the PR-6 interval
/// analysis bit for bit (including its deliberate skip of non-constant
/// tile extents, which a non-relational domain cannot decide without
/// false positives). At `relational`, loop variables become symbols
/// carrying their bounds as symbolic values — min-shaped upper bounds
/// included — so correlated edge-tile footprints like
/// Off = i*TILE, Rows = min(TILE, N - i*TILE) are proven exactly and a
/// genuinely escaping access is rejected with a located Status.
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

/// Buffer/scalar arity of each intrinsic, from the conventions table in
/// tir/intrinsics.h (the same contract the kernel adapters marshal by).
struct IntrinsicSig {
  uint8_t NumBufs = 0;
  uint8_t NumScalars = 0;
};

IntrinsicSig sigOf(Intrinsic In) {
  switch (In) {
  case Intrinsic::BrgemmF32:
  case Intrinsic::BrgemmU8S8:
    return {3, 10};
  case Intrinsic::ReluTile:
  case Intrinsic::ExpTile:
  case Intrinsic::TanhTile:
  case Intrinsic::SqrtTile:
  case Intrinsic::RecipTile:
  case Intrinsic::SquareTile:
  case Intrinsic::SigmoidTile:
  case Intrinsic::GeluTile:
    return {1, 3};
  case Intrinsic::AffineTile:
    return {1, 5};
  case Intrinsic::AddTile:
  case Intrinsic::SubTile:
  case Intrinsic::MulTile:
  case Intrinsic::DivTile:
  case Intrinsic::MaxTile:
  case Intrinsic::MinTile:
    return {2, 4};
  case Intrinsic::AddRowVecTile:
  case Intrinsic::SubRowVecTile:
  case Intrinsic::MulRowVecTile:
  case Intrinsic::AddColVecTile:
  case Intrinsic::SubColVecTile:
  case Intrinsic::MulColVecTile:
  case Intrinsic::DivColVecTile:
    return {2, 3};
  case Intrinsic::ReduceSumRowsTile:
  case Intrinsic::ReduceMaxRowsTile:
    return {2, 4};
  case Intrinsic::CopyTile:
  case Intrinsic::TransposeTile:
    return {2, 4};
  case Intrinsic::CopyTileRaw:
  case Intrinsic::Permute0213:
    return {2, 5};
  case Intrinsic::FillTile:
    return {1, 4};
  case Intrinsic::DequantAccTile:
    return {4, 5};
  case Intrinsic::QuantU8Tile:
  case Intrinsic::DequantU8Tile:
    return {2, 6};
  case Intrinsic::QuantS8Tile:
    return {2, 5};
  case Intrinsic::DequantS8PerChannelTile:
    return {3, 4};
  case Intrinsic::CastS32F32Tile:
    return {2, 5};
  case Intrinsic::PackAF32:
  case Intrinsic::PackAU8:
  case Intrinsic::PackBF32:
  case Intrinsic::PackBS8Vnni:
    return {2, 6};
  case Intrinsic::UnpackAF32:
  case Intrinsic::UnpackAU8:
    return {2, 5};
  }
  return {0, 0};
}

/// Expected element type per buffer argument; DataType-count means
/// "unconstrained" (type-agnostic kernels like copyTileRaw).
constexpr DataType kAnyTy = static_cast<DataType>(255);

void bufferTypesOf(Intrinsic In, DataType (&Ty)[4]) {
  Ty[0] = Ty[1] = Ty[2] = Ty[3] = kAnyTy;
  switch (In) {
  case Intrinsic::BrgemmF32:
    Ty[0] = Ty[1] = Ty[2] = DataType::F32;
    break;
  case Intrinsic::BrgemmU8S8:
    Ty[0] = DataType::U8;
    Ty[1] = DataType::S8;
    Ty[2] = DataType::S32;
    break;
  case Intrinsic::QuantU8Tile:
    Ty[0] = DataType::U8;
    Ty[1] = DataType::F32;
    break;
  case Intrinsic::QuantS8Tile:
    Ty[0] = DataType::S8;
    Ty[1] = DataType::F32;
    break;
  case Intrinsic::DequantU8Tile:
    Ty[0] = DataType::F32;
    Ty[1] = DataType::U8;
    break;
  case Intrinsic::DequantS8PerChannelTile:
    Ty[0] = DataType::F32;
    Ty[1] = DataType::S8;
    Ty[2] = DataType::F32;
    break;
  case Intrinsic::DequantAccTile:
    Ty[0] = DataType::F32;
    Ty[1] = DataType::S32;
    Ty[2] = DataType::S32;
    Ty[3] = DataType::F32;
    break;
  case Intrinsic::CastS32F32Tile:
    Ty[0] = DataType::F32;
    Ty[1] = DataType::S32;
    break;
  case Intrinsic::PackAF32:
  case Intrinsic::PackBF32:
  case Intrinsic::UnpackAF32:
    Ty[0] = Ty[1] = DataType::F32;
    break;
  case Intrinsic::PackAU8:
  case Intrinsic::UnpackAU8:
    Ty[0] = Ty[1] = DataType::U8;
    break;
  case Intrinsic::PackBS8Vnni:
    Ty[0] = Ty[1] = DataType::S8;
    break;
  default:
    // Elementwise / reduction / movement tile families operate on f32
    // (the type-agnostic ones were cleared to kAnyTy above).
    if (In != Intrinsic::CopyTileRaw && In != Intrinsic::Permute0213)
      Ty[0] = Ty[1] = Ty[2] = Ty[3] = DataType::F32;
    break;
  }
}

/// Per-function verification state.
class FuncVerifier {
public:
  FuncVerifier(const Func &F, const char *Context)
      : F(F), Context(Context),
        Ctx(verifyLevel() >= VerifyLevel::Relational) {}

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

  /// Evaluates the symbolic value of an integer expression, checking
  /// def-before-use and any embedded Load bounds along the way.
  Status evalExpr(const Expr &E, const std::string &Where, SymVal &Out) {
    switch (E->kind()) {
    case ExprNode::Kind::IntImm:
      Out = SymVal::constant(static_cast<const IntImmNode &>(*E).Value);
      return Status::ok();
    case ExprNode::Kind::FloatImm:
      Out = SymVal::top(); // float values are not tracked
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
      Out = E->type() == ScalarType::I64 ? It->second : SymVal::top();
      return Status::ok();
    }
    case ExprNode::Kind::Binary: {
      const auto &B = static_cast<const BinaryNode &>(*E);
      SymVal A, C;
      if (Status S = evalExpr(B.A, Where, A); !S.isOk())
        return S;
      if (Status S = evalExpr(B.B, Where, C); !S.isOk())
        return S;
      if (E->type() == ScalarType::F64) {
        Out = SymVal::top();
        return Status::ok();
      }
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
    case ExprNode::Kind::Load: {
      const auto &L = static_cast<const LoadNode &>(*E);
      if (Status S = checkAccess(L.BufferId, L.Indices, Where, "load");
          !S.isOk())
        return S;
      Out = SymVal::top();
      return Status::ok();
    }
    }
    Out = SymVal::top();
    return Status::ok();
  }

  /// Shared verdict for a fully-constructed [MinIdx, MaxIdx] touched
  /// range: proved / undecided (counted) / rejected. \p Precise gates
  /// rejection: the caller sets it when the bounds are exact enough that
  /// an escaping over-approximation means a real escape (always true for
  /// the relational domain on the forms the lowering emits; for the box
  /// domain only when the old constant-extent preconditions held).
  Status judge(const BufferDecl &B, int64_t MinIdx, int64_t MaxIdx,
               bool Precise, const std::string &Where, const char *ArgName) {
    const int64_t Elems = B.numElements();
    const bool Bounded =
        MinIdx != Interval::kMin && MaxIdx != Interval::kMax;
    if (Bounded && MinIdx >= 0 && MaxIdx < Elems) {
      noteBoundsProved();
      return Status::ok();
    }
    if (!Bounded || !Precise) {
      noteBoundsUndecided();
      return Status::ok(); // cannot decide — never a false positive
    }
    return err(Where,
               formatString("%s footprint of %s reaches elements "
                            "[%lld, %lld], outside the buffer's %lld "
                            "elements",
                            ArgName, B.Name.c_str(), (long long)MinIdx,
                            (long long)MaxIdx, (long long)Elems));
  }

  /// Bounds-checks a (possibly multi-dimensional) element access against
  /// the buffer extents via the row-major flattened offset, which is what
  /// the executor actually computes.
  Status checkAccess(int BufferId, const std::vector<Expr> &Indices,
                     const std::string &Where, const char *What) {
    if (BufferId < 0 || BufferId >= static_cast<int>(F.Buffers.size()))
      return err(Where, formatString("%s references unknown buffer %d",
                                     What, BufferId));
    const BufferDecl &B = F.buffer(BufferId);
    if (Indices.size() != B.Dims.size() && Indices.size() != 1)
      return err(Where,
                 formatString("%s of %s uses %zu indices for a rank-%zu "
                              "buffer",
                              What, B.Name.c_str(), Indices.size(),
                              B.Dims.size()));
    SymVal Flat = SymVal::constant(0);
    if (Indices.size() == B.Dims.size()) {
      int64_t Stride = 1;
      std::vector<int64_t> Strides(B.Dims.size());
      for (size_t D = B.Dims.size(); D-- > 0;) {
        Strides[D] = Stride;
        Stride = satMul(Stride, B.Dims[D]);
      }
      for (size_t D = 0; D < Indices.size(); ++D) {
        SymVal Idx;
        if (Status S = evalExpr(Indices[D], Where, Idx); !S.isOk())
          return S;
        Flat = Ctx.add(Flat, Ctx.scale(Idx, Strides[D]));
      }
    } else {
      if (Status S = evalExpr(Indices[0], Where, Flat); !S.isOk())
        return S;
    }
    return judge(B, Ctx.lb(Flat), Ctx.ub(Flat), /*Precise=*/true, Where,
                 What);
  }

  /// Proves a strided 2-D tile access Base[Off + r*Ld + c] (r < Rows,
  /// c < Cols) in bounds. The maximum touched element for a non-empty
  /// tile is Off + (Rows-1)*Ld + (Cols-1); evaluating it as one symbolic
  /// expression is what keeps correlated min-extents exact at the
  /// relational level. The box domain keeps the PR-6 preconditions
  /// (constant extents) before an escape may reject.
  Status checkTileFootprint(const BufferDecl &B, const SymVal &Off,
                            const SymVal &Rows, const SymVal &Cols,
                            const SymVal &Ld, const std::string &Where,
                            const char *ArgName) {
    int64_t LdC;
    if (!Ld.isConstant(LdC)) {
      noteBoundsUndecided();
      return Status::ok(); // non-constant stride: outside every tier
    }
    if (Ctx.ub(Rows) <= 0 || Ctx.ub(Cols) <= 0) {
      noteBoundsProved();
      return Status::ok(); // no elements touched
    }
    int64_t RC, CC;
    const bool Precise =
        Ctx.relational() ||
        (Rows.isConstant(RC) && Cols.isConstant(CC) &&
         Ctx.range(Off).bounded());
    const SymVal RowsM1 = Ctx.add(Rows, SymVal::constant(-1));
    const SymVal MaxV = Ctx.add(
        Off, Ctx.add(Ctx.scale(RowsM1, std::max<int64_t>(LdC, 0)),
                     Ctx.add(Cols, SymVal::constant(-1))));
    const SymVal MinV =
        Ctx.add(Off, Ctx.scale(RowsM1, std::min<int64_t>(LdC, 0)));
    return judge(B, Ctx.lb(MinV), Ctx.ub(MaxV), Precise, Where, ArgName);
  }

  /// Flat footprint: Base[Off .. Off + Len) must be inside the buffer.
  Status checkFlatFootprint(const BufferDecl &B, const SymVal &Off,
                            const SymVal &Len, const std::string &Where,
                            const char *ArgName) {
    if (Ctx.ub(Len) <= 0) {
      noteBoundsProved();
      return Status::ok();
    }
    int64_t LC;
    const bool Precise =
        Ctx.relational() || (Len.isConstant(LC) && Ctx.range(Off).bounded());
    const SymVal MaxV = Ctx.add(Off, Ctx.add(Len, SymVal::constant(-1)));
    return judge(B, Ctx.lb(Off), Ctx.ub(MaxV), Precise, Where, ArgName);
  }

  Status checkCall(const CallNode &C, const std::string &Where) {
    const IntrinsicSig Sig = sigOf(C.In);
    if (C.Buffers.size() != Sig.NumBufs)
      return err(Where, formatString("%s expects %u buffer args, has %zu",
                                     intrinsicName(C.In), Sig.NumBufs,
                                     C.Buffers.size()));
    if (C.Scalars.size() != Sig.NumScalars)
      return err(Where, formatString("%s expects %u scalar args, has %zu",
                                     intrinsicName(C.In), Sig.NumScalars,
                                     C.Scalars.size()));

    DataType ExpectTy[4];
    bufferTypesOf(C.In, ExpectTy);
    // DequantAccTile with a constant-zero activation zero point never
    // reads the compensation arg; the lowering aliases it to the f32
    // scale buffer, so its element type is unconstrained.
    if (C.In == Intrinsic::DequantAccTile && C.Scalars.size() >= 5) {
      int64_t AZp = 0;
      if (tir::asConstInt(C.Scalars[4], AZp) && AZp == 0)
        ExpectTy[2] = kAnyTy;
    }
    std::vector<SymVal> Offs(C.Buffers.size());
    for (size_t I = 0; I < C.Buffers.size(); ++I) {
      const BufferRef &R = C.Buffers[I];
      if (R.BufferId < 0 || R.BufferId >= static_cast<int>(F.Buffers.size()))
        return err(Where,
                   formatString("%s buffer arg %zu references unknown "
                                "buffer %d",
                                intrinsicName(C.In), I, R.BufferId));
      const BufferDecl &B = F.buffer(R.BufferId);
      if (ExpectTy[I] != kAnyTy && B.ElemTy != ExpectTy[I])
        return err(Where,
                   formatString("%s buffer arg %zu (%s) has element type "
                                "%s, kernel expects %s",
                                intrinsicName(C.In), I, B.Name.c_str(),
                                dataTypeName(B.ElemTy),
                                dataTypeName(ExpectTy[I])));
      Offs[I] = SymVal::constant(0);
      if (R.Offset)
        if (Status S = evalExpr(R.Offset, Where, Offs[I]); !S.isOk())
          return S;
      // Base offset must itself be inside the buffer whenever provable.
      const Interval OffR = Ctx.range(Offs[I]);
      if (OffR.bounded() && (OffR.Lo < 0 || OffR.Hi >= B.numElements()))
        return err(Where,
                   formatString("%s buffer arg %zu offset range "
                                "[%lld, %lld] is outside %s's %lld "
                                "elements",
                                intrinsicName(C.In), I, (long long)OffR.Lo,
                                (long long)OffR.Hi, B.Name.c_str(),
                                (long long)B.numElements()));
    }

    std::vector<SymVal> Sc(C.Scalars.size());
    for (size_t I = 0; I < C.Scalars.size(); ++I)
      if (Status S = evalExpr(C.Scalars[I], Where, Sc[I]); !S.isOk())
        return S;

    // Footprint proofs per family (scalar layout per tir/intrinsics.h).
    const auto Buf = [&](size_t I) -> const BufferDecl & {
      return F.buffer(C.Buffers[I].BufferId);
    };
    const SymVal One = SymVal::constant(1);
    switch (C.In) {
    case Intrinsic::ReluTile:
    case Intrinsic::ExpTile:
    case Intrinsic::TanhTile:
    case Intrinsic::SqrtTile:
    case Intrinsic::RecipTile:
    case Intrinsic::SquareTile:
    case Intrinsic::SigmoidTile:
    case Intrinsic::GeluTile:
    case Intrinsic::AffineTile:
    case Intrinsic::FillTile:
      return checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1], Sc[2], Where,
                                "X");
    case Intrinsic::AddTile:
    case Intrinsic::SubTile:
    case Intrinsic::MulTile:
    case Intrinsic::DivTile:
    case Intrinsic::MaxTile:
    case Intrinsic::MinTile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "X");
          !S.isOk())
        return S;
      return checkTileFootprint(Buf(1), Offs[1], Sc[0], Sc[1], Sc[3], Where,
                                "Y");
    case Intrinsic::AddRowVecTile:
    case Intrinsic::SubRowVecTile:
    case Intrinsic::MulRowVecTile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "X");
          !S.isOk())
        return S;
      return checkFlatFootprint(Buf(1), Offs[1], Sc[1], Where, "V");
    case Intrinsic::AddColVecTile:
    case Intrinsic::SubColVecTile:
    case Intrinsic::MulColVecTile:
    case Intrinsic::DivColVecTile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "X");
          !S.isOk())
        return S;
      return checkFlatFootprint(Buf(1), Offs[1], Sc[0], Where, "V");
    case Intrinsic::ReduceSumRowsTile:
    case Intrinsic::ReduceMaxRowsTile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "X");
          !S.isOk())
        return S;
      return checkFlatFootprint(Buf(1), Offs[1], Sc[0], Where, "Out");
    case Intrinsic::CopyTile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "D");
          !S.isOk())
        return S;
      return checkTileFootprint(Buf(1), Offs[1], Sc[0], Sc[1], Sc[3], Where,
                                "S");
    case Intrinsic::CopyTileRaw:
      // B[D,S] S[Rows,Cols,LdD,LdS,ElemSize]: same tile shape both sides.
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "D");
          !S.isOk())
        return S;
      return checkTileFootprint(Buf(1), Offs[1], Sc[0], Sc[1], Sc[3], Where,
                                "S");
    case Intrinsic::TransposeTile:
      // Dst is Rows x Cols; Src is read as Src[c*LdS + r].
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "D");
          !S.isOk())
        return S;
      return checkTileFootprint(Buf(1), Offs[1], Sc[1], Sc[0], Sc[3], Where,
                                "S");
    case Intrinsic::Permute0213: {
      // 4-D [A,B,C,D] -> [A,C,B,D]: both sides touch exactly the flat
      // product of the four extents.
      const SymVal Prod =
          Ctx.mul(Ctx.mul(Sc[0], Sc[1]), Ctx.mul(Sc[2], Sc[3]));
      if (Status S = checkFlatFootprint(Buf(0), Offs[0], Prod, Where, "D");
          !S.isOk())
        return S;
      return checkFlatFootprint(Buf(1), Offs[1], Prod, Where, "S");
    }
    case Intrinsic::QuantU8Tile:
    case Intrinsic::QuantS8Tile:
    case Intrinsic::DequantU8Tile:
    case Intrinsic::CastS32F32Tile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "D");
          !S.isOk())
        return S;
      return checkTileFootprint(Buf(1), Offs[1], Sc[0], Sc[1], Sc[3], Where,
                                "S");
    case Intrinsic::DequantS8PerChannelTile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "D");
          !S.isOk())
        return S;
      if (Status S = checkTileFootprint(Buf(1), Offs[1], Sc[0], Sc[1],
                                        Sc[3], Where, "S");
          !S.isOk())
        return S;
      return checkFlatFootprint(Buf(2), Offs[2], Sc[1], Where, "Scale");
    case Intrinsic::DequantAccTile:
      if (Status S = checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1],
                                        Sc[2], Where, "D");
          !S.isOk())
        return S;
      if (Status S = checkTileFootprint(Buf(1), Offs[1], Sc[0], Sc[1],
                                        Sc[3], Where, "S");
          !S.isOk())
        return S;
      if (Status S = checkFlatFootprint(Buf(2), Offs[2], Sc[1], Where,
                                        "Comp");
          !S.isOk())
        return S;
      return checkFlatFootprint(Buf(3), Offs[3], Sc[1], Where, "Scale");
    case Intrinsic::BrgemmF32:
    case Intrinsic::BrgemmU8S8: {
      // C tile: M x N on stride Ldc (both layouts keep Ldc at S[5]).
      if (Status S = checkTileFootprint(Buf(2), Offs[2], Sc[0], Sc[1],
                                        Sc[5], Where, "C");
          !S.isOk())
        return S;
      // A flat span: (Batch-1)*AStrideB + (M-1)*Lda + K.
      const SymVal BatchM1 = Ctx.add(Sc[8], SymVal::constant(-1));
      const SymVal ALen = Ctx.add(
          Ctx.mul(BatchM1, Sc[6]),
          Ctx.add(Ctx.mul(Ctx.sub(Sc[0], One), Sc[3]), Sc[2]));
      if (Status S = checkFlatFootprint(Buf(0), Offs[0], ALen, Where, "A");
          !S.isOk())
        return S;
      // B flat span: f32 reads (K-1)*Ldb + N per batch; the VNNI layout
      // reads ceil(K/4) row groups of 4*NPadded.
      SymVal BLen;
      if (C.In == Intrinsic::BrgemmF32) {
        BLen = Ctx.add(Ctx.mul(BatchM1, Sc[7]),
                       Ctx.add(Ctx.mul(Ctx.sub(Sc[2], One), Sc[4]), Sc[1]));
      } else {
        int64_t KC;
        // ceil(K/4)*4 <= K+3 bounds the non-constant case soundly.
        const int64_t KGroups4 =
            Sc[2].isConstant(KC) ? ((KC + 3) / 4) * 4 : -1;
        const SymVal KPad = KGroups4 >= 0
                                ? SymVal::constant(KGroups4)
                                : Ctx.add(Sc[2], SymVal::constant(3));
        BLen = Ctx.add(Ctx.mul(BatchM1, Sc[7]), Ctx.mul(KPad, Sc[4]));
      }
      return checkFlatFootprint(Buf(1), Offs[1], BLen, Where, "B");
    }
    case Intrinsic::PackAF32:
    case Intrinsic::PackAU8: {
      // S[M,K,SrcLd,MB,KB,Transposed]: src tile is M x K (or K x M when
      // transposed) on SrcLd. The packed dest covers its whole buffer by
      // construction; its base-offset check above is the documented
      // precision limit.
      int64_t Tr;
      if (!Sc[5].isConstant(Tr)) {
        noteBoundsUndecided();
        return Status::ok();
      }
      return checkTileFootprint(Buf(1), Offs[1], Tr ? Sc[1] : Sc[0],
                                Tr ? Sc[0] : Sc[1], Sc[2], Where, "S");
    }
    case Intrinsic::PackBF32:
    case Intrinsic::PackBS8Vnni: {
      // S[K,N,SrcLd,KB,NB,Transposed]: src tile is K x N (or N x K).
      int64_t Tr;
      if (!Sc[5].isConstant(Tr)) {
        noteBoundsUndecided();
        return Status::ok();
      }
      return checkTileFootprint(Buf(1), Offs[1], Tr ? Sc[1] : Sc[0],
                                Tr ? Sc[0] : Sc[1], Sc[2], Where, "S");
    }
    case Intrinsic::UnpackAF32:
    case Intrinsic::UnpackAU8:
      // S[M,K,MB,KB,DstLd]: dest tile is M x K on DstLd; the packed src
      // is read whole (base-offset check only, same limit as pack dest).
      return checkTileFootprint(Buf(0), Offs[0], Sc[0], Sc[1], Sc[4], Where,
                                "D");
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
      Env[Let.BoundVar.get()] =
          Let.BoundVar->type() == ScalarType::I64 ? V : SymVal::top();
      return Status::ok();
    }
    case StmtNode::Kind::Store: {
      const auto &S = static_cast<const StoreNode &>(*St);
      SymVal V;
      if (Status E = evalExpr(S.Value, Path + ".store", V); !E.isOk())
        return E;
      return checkAccess(S.BufferId, S.Indices, Path + ".store", "store");
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
      if (For.LoopVar->type() != ScalarType::I64)
        return err(P, "loop variable must be an integer");
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
