//===- printer.cpp - Tensor IR text rendering -----------------------------------===//

#include "tir/printer.h"

#include "support/common.h"
#include "support/str.h"

namespace gc {
namespace tir {

const char *intrinsicName(Intrinsic In) {
  switch (In) {
  case Intrinsic::BrgemmF32: return "brgemm_f32";
  case Intrinsic::BrgemmU8S8: return "brgemm_u8s8";
  case Intrinsic::ReluTile: return "relu_tile";
  case Intrinsic::ExpTile: return "exp_tile";
  case Intrinsic::TanhTile: return "tanh_tile";
  case Intrinsic::SqrtTile: return "sqrt_tile";
  case Intrinsic::RecipTile: return "recip_tile";
  case Intrinsic::SquareTile: return "square_tile";
  case Intrinsic::SigmoidTile: return "sigmoid_tile";
  case Intrinsic::AffineTile: return "affine_tile";
  case Intrinsic::AddTile: return "add_tile";
  case Intrinsic::SubTile: return "sub_tile";
  case Intrinsic::MulTile: return "mul_tile";
  case Intrinsic::DivTile: return "div_tile";
  case Intrinsic::MaxTile: return "max_tile";
  case Intrinsic::MinTile: return "min_tile";
  case Intrinsic::AddRowVecTile: return "add_rowvec_tile";
  case Intrinsic::SubRowVecTile: return "sub_rowvec_tile";
  case Intrinsic::MulRowVecTile: return "mul_rowvec_tile";
  case Intrinsic::AddColVecTile: return "add_colvec_tile";
  case Intrinsic::SubColVecTile: return "sub_colvec_tile";
  case Intrinsic::MulColVecTile: return "mul_colvec_tile";
  case Intrinsic::DivColVecTile: return "div_colvec_tile";
  case Intrinsic::ReduceSumRowsTile: return "reduce_sum_rows_tile";
  case Intrinsic::ReduceMaxRowsTile: return "reduce_max_rows_tile";
  case Intrinsic::CopyTile: return "copy_tile";
  case Intrinsic::CopyTileRaw: return "copy_tile_raw";
  case Intrinsic::TransposeTile: return "transpose_tile";
  case Intrinsic::Permute0213: return "permute_0213";
  case Intrinsic::FillTile: return "fill_tile";
  case Intrinsic::EpilogueTile: return "epilogue_tile";
  case Intrinsic::DequantAccTile: return "dequant_acc_tile";
  case Intrinsic::QuantU8Tile: return "quant_u8_tile";
  case Intrinsic::QuantS8Tile: return "quant_s8_tile";
  case Intrinsic::DequantU8Tile: return "dequant_u8_tile";
  case Intrinsic::DequantS8PerChannelTile: return "dequant_s8_pc_tile";
  case Intrinsic::CastS32F32Tile: return "cast_s32_f32_tile";
  case Intrinsic::PackAF32: return "pack_a_f32";
  case Intrinsic::PackAU8: return "pack_a_u8";
  case Intrinsic::PackBF32: return "pack_b_f32";
  case Intrinsic::PackBS8Vnni: return "pack_b_s8_vnni";
  case Intrinsic::UnpackAF32: return "unpack_a_f32";
  case Intrinsic::UnpackAU8: return "unpack_a_u8";
  }
  return "?";
}

namespace {

const char *binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add: return "+";
  case BinOp::Sub: return "-";
  case BinOp::Mul: return "*";
  case BinOp::Div: return "/";
  case BinOp::Mod: return "%";
  case BinOp::Min: return "min";
  case BinOp::Max: return "max";
  }
  return "?";
}

/// "r0 = add(r1, rowvec s3); store_u8(s4, r0) ..." for an epilogue call.
std::string printSteps(const kernels::EpilogueDesc &D) {
  using kernels::EpOp;
  using kernels::EpOperand;
  static const char *const Names[] = {
      "load_f32", "load_acc", "load_u8", "load_s32", "relu",   "exp",
      "tanh",     "sqrt",     "recip",   "square",   "sigmoid", "affine",
      "quant",    "dequant",  "add",     "sub",      "mul",    "div",
      "max",      "min",      "reduce_sum", "reduce_max", "store_f32",
      "store_u8", "store_s8"};
  static_assert(sizeof(Names) / sizeof(Names[0]) == kernels::kNumEpOps,
                "one name per step opcode");
  std::vector<std::string> Out;
  for (const kernels::EpStep &S : D.Steps) {
    const char *N = static_cast<uint8_t>(S.Op) < kernels::kNumEpOps
                        ? Names[static_cast<size_t>(S.Op)]
                        : "?";
    std::string Args;
    switch (S.Op) {
    case EpOp::LoadF32:
    case EpOp::LoadU8:
    case EpOp::LoadS32:
      Args = formatString("s%u ld %lld", S.Arg, (long long)S.Ld);
      break;
    case EpOp::LoadAcc:
      Args = formatString("s%u ld %lld, zp %d, scale s%u", S.Arg,
                          (long long)S.Ld, S.Zp, S.Arg3);
      break;
    case EpOp::ReduceSum:
    case EpOp::ReduceMax:
      Args = formatString("s%u, r%u", S.Arg, S.A);
      break;
    case EpOp::StoreF32:
    case EpOp::StoreU8:
    case EpOp::StoreS8:
      Args = formatString("s%u ld %lld, r%u", S.Arg, (long long)S.Ld, S.A);
      if (S.PadRows > 0)
        Args += formatString(", block %lldx%lld", (long long)S.PadRows,
                             (long long)S.PadCols);
      break;
    default:
      Args = formatString("r%u", S.A);
      if (S.Op >= EpOp::Add && S.Op <= EpOp::Min)
        Args += S.BKind == EpOperand::Reg
                    ? formatString(", r%u", S.B)
                    : formatString(", %s s%u",
                                   S.BKind == EpOperand::RowVec   ? "rowvec"
                                   : S.BKind == EpOperand::ColVec ? "colvec"
                                                                  : "1/colvec",
                                   S.Arg);
      break;
    }
    if (S.Op == EpOp::Affine || S.Op == EpOp::Quant || S.Op == EpOp::Dequant ||
        S.Op == EpOp::LoadU8 || S.Op == EpOp::LoadS32 ||
        S.Op == EpOp::StoreU8 || S.Op == EpOp::StoreS8)
      Args += formatString(", %gf, %gf, zp %d", S.F0, S.F1, S.Zp);
    const bool Writes = S.Op < EpOp::ReduceSum;
    Out.push_back(Writes ? formatString("r%u = %s(%s)", S.Dst, N, Args.c_str())
                         : formatString("%s(%s)", N, Args.c_str()));
  }
  return joinStrings(Out, "; ");
}

std::string indentStr(int Indent) {
  return std::string(static_cast<size_t>(Indent), ' ');
}

} // namespace

std::string printExpr(const Expr &E) {
  if (!E)
    return "<null>";
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    return formatString(
        "%lld", (long long)static_cast<const IntImmNode &>(*E).Value);
  case ExprNode::Kind::FloatImm:
    return formatString("%gf", static_cast<const FloatImmNode &>(*E).Value);
  case ExprNode::Kind::Var: {
    const auto &V = static_cast<const VarNode &>(*E);
    return V.Name;
  }
  case ExprNode::Kind::Binary: {
    const auto &B = static_cast<const BinaryNode &>(*E);
    if (B.Op == BinOp::Min || B.Op == BinOp::Max)
      return formatString("%s(%s, %s)", binOpName(B.Op),
                          printExpr(B.A).c_str(), printExpr(B.B).c_str());
    return formatString("(%s %s %s)", printExpr(B.A).c_str(),
                        binOpName(B.Op), printExpr(B.B).c_str());
  }
  case ExprNode::Kind::Load: {
    const auto &L = static_cast<const LoadNode &>(*E);
    std::vector<std::string> Idx;
    for (const Expr &I : L.Indices)
      Idx.push_back(printExpr(I));
    return formatString("b%d[%s]", L.BufferId,
                        joinStrings(Idx, ", ").c_str());
  }
  }
  return "?";
}

std::string printStmt(const Stmt &S, int Indent) {
  const std::string Pad = indentStr(Indent);
  switch (S->kind()) {
  case StmtNode::Kind::For: {
    const auto &F = static_cast<const ForNode &>(*S);
    std::string Head = formatString(
        "%s%sloop %s = %s, %s, %s%s%s {\n", Pad.c_str(),
        F.Parallel ? "parallel " : "", F.LoopVar->Name.c_str(),
        printExpr(F.Begin).c_str(), printExpr(F.End).c_str(),
        printExpr(F.Step).c_str(), F.Mergeable ? " [mergeable]" : "",
        F.Tag.empty() ? "" : (" // " + F.Tag).c_str());
    for (const Stmt &Child : F.Body)
      Head += printStmt(Child, Indent + 2);
    Head += Pad + "}\n";
    return Head;
  }
  case StmtNode::Kind::Let: {
    const auto &L = static_cast<const LetNode &>(*S);
    return formatString("%slet %s = %s\n", Pad.c_str(),
                        L.BoundVar->Name.c_str(),
                        printExpr(L.Value).c_str());
  }
  case StmtNode::Kind::Store: {
    const auto &St = static_cast<const StoreNode &>(*S);
    std::vector<std::string> Idx;
    for (const Expr &I : St.Indices)
      Idx.push_back(printExpr(I));
    return formatString("%sb%d[%s] = %s\n", Pad.c_str(), St.BufferId,
                        joinStrings(Idx, ", ").c_str(),
                        printExpr(St.Value).c_str());
  }
  case StmtNode::Kind::Call: {
    const auto &C = static_cast<const CallNode &>(*S);
    std::vector<std::string> Args;
    for (const BufferRef &B : C.Buffers)
      Args.push_back(formatString(
          "&b%d[%s]", B.BufferId,
          B.Offset ? printExpr(B.Offset).c_str() : "0"));
    for (const Expr &E : C.Scalars)
      Args.push_back(printExpr(E));
    if (C.Epilogue)
      return formatString("%s%s(%s) { %s }\n", Pad.c_str(),
                          intrinsicName(C.In), joinStrings(Args, ", ").c_str(),
                          printSteps(*C.Epilogue).c_str());
    return formatString("%s%s(%s)\n", Pad.c_str(), intrinsicName(C.In),
                        joinStrings(Args, ", ").c_str());
  }
  case StmtNode::Kind::Seq: {
    const auto &Q = static_cast<const SeqNode &>(*S);
    std::string Out = formatString("%s// region: %s\n", Pad.c_str(),
                                   Q.Tag.c_str());
    for (const Stmt &Child : Q.Body)
      Out += printStmt(Child, Indent);
    return Out;
  }
  }
  return Pad + "?\n";
}

namespace {

const char *scopeName(BufferScope Scope) {
  switch (Scope) {
  case BufferScope::Param: return "param";
  case BufferScope::FoldedConst: return "folded_const";
  case BufferScope::Const: return "const";
  case BufferScope::Temp: return "temp";
  case BufferScope::ThreadLocal: return "thread_local";
  }
  return "?";
}

} // namespace

std::string printFunc(const Func &F) {
  std::string Out = formatString("func %s {\n", F.Name.c_str());
  for (const BufferDecl &B : F.Buffers) {
    Out += formatString("  buffer b%d %s %s%s %s", B.Id,
                        scopeName(B.Scope), dataTypeName(B.ElemTy),
                        shapeToString(B.Dims).c_str(), B.Name.c_str());
    if (B.GraphTensorId >= 0)
      Out += formatString(" <- t%lld", (long long)B.GraphTensorId);
    if (B.ArenaOffset >= 0)
      Out += formatString(" @arena+%lld", (long long)B.ArenaOffset);
    Out += "\n";
  }
  for (const Stmt &S : F.Body)
    Out += printStmt(S, 2);
  Out += "}\n";
  return Out;
}

std::string printModule(const Module &M) {
  std::string Out = printFunc(M.Entry);
  if (M.Fold)
    Out += "\n" + printFunc(*M.Fold);
  return Out;
}

} // namespace tir
} // namespace gc
