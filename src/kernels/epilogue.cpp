//===- epilogue.cpp - Fused epilogue step-list validation and dispatch ----===//

#include "kernels/epilogue.h"

#include "kernels/tile_ops.h"
#include "support/str.h"

namespace gc {
namespace kernels {

namespace {

bool isUnary(EpOp Op) {
  switch (Op) {
  case EpOp::Relu:
  case EpOp::Exp:
  case EpOp::Tanh:
  case EpOp::Sqrt:
  case EpOp::Recip:
  case EpOp::Square:
  case EpOp::Sigmoid:
  case EpOp::Affine:
  case EpOp::Quant:
  case EpOp::Dequant:
    return true;
  default:
    return false;
  }
}

bool isBinary(EpOp Op) {
  return Op >= EpOp::Add && Op <= EpOp::Min;
}

} // namespace

bool describeEpilogue(const EpilogueDesc &D, std::vector<EpArgUse> &Uses,
                      std::string &Why) {
  Uses.assign(D.NumBufs, EpArgUse());
  if (D.NumBufs > kEpilogueMaxBufs || D.Steps.empty() ||
      D.Steps.size() > static_cast<size_t>(kEpilogueMaxSteps)) {
    Why = formatString("%zu steps over %u buffers exceed the step-list "
                       "limits",
                       D.Steps.size(), D.NumBufs);
    return false;
  }
  std::vector<bool> Claimed(D.NumBufs, false);
  uint32_t Defined = 0;
  int Reductions = 0;
  for (size_t I = 0; I < D.Steps.size(); ++I) {
    const EpStep &S = D.Steps[I];
    const auto fail = [&](const char *What) {
      Why = formatString("step %zu: %s", I, What);
      return false;
    };
    if (static_cast<uint8_t>(S.Op) >= kNumEpOps)
      return fail("invalid opcode");
    if (static_cast<uint8_t>(S.BKind) >= kNumEpOperands)
      return fail("invalid operand kind");
    if (S.BKind != EpOperand::Reg &&
        (!isBinary(S.Op) ||
         (S.BKind == EpOperand::ColVecRecip && S.Op != EpOp::Mul)))
      return fail("vector operand on a step that takes none");
    if (S.Dst >= kEpilogueMaxRegs || S.A >= kEpilogueMaxRegs ||
        S.B >= kEpilogueMaxRegs)
      return fail("register index out of range");
    const auto reads = [&](uint8_t R) { return (Defined >> R) & 1u; };
    const auto claim = [&](uint8_t Slot, EpArgUse U) {
      if (Slot >= D.NumBufs || Claimed[Slot])
        return false;
      Claimed[Slot] = true;
      Uses[Slot] = U;
      return true;
    };
    const auto tile = [](DataType Ty, bool Write, int64_t Ld) {
      EpArgUse U;
      U.Ty = Ty;
      U.Write = Write;
      U.Ld = Ld;
      return U;
    };
    const auto vec = [](EpArgUse::Kind K, DataType Ty, bool Write) {
      EpArgUse U;
      U.K = K;
      U.Ty = Ty;
      U.Write = Write;
      return U;
    };
    const bool IsLoad = S.Op <= EpOp::LoadS32;
    const bool IsStore = S.Op >= EpOp::StoreF32;
    if ((IsLoad || IsStore) && S.Ld < 1)
      return fail("non-positive leading dimension");
    if (S.PadRows < 0 || S.PadCols < 0 || (S.PadRows > 0) != (S.PadCols > 0) ||
        (S.PadRows > 0 && !IsStore))
      return fail("malformed padded block");
    bool SlotsOk = true;
    switch (S.Op) {
    case EpOp::LoadF32:
      SlotsOk = claim(S.Arg, tile(DataType::F32, false, S.Ld));
      break;
    case EpOp::LoadAcc:
      SlotsOk = claim(S.Arg, tile(DataType::S32, false, S.Ld)) &&
                (S.Zp == 0 || claim(S.Arg2, vec(EpArgUse::Kind::RowVec,
                                                DataType::S32, false))) &&
                claim(S.Arg3, vec(EpArgUse::Kind::RowVec, DataType::F32,
                                  false));
      break;
    case EpOp::LoadU8:
      SlotsOk = claim(S.Arg, tile(DataType::U8, false, S.Ld));
      break;
    case EpOp::LoadS32:
      SlotsOk = claim(S.Arg, tile(DataType::S32, false, S.Ld));
      break;
    case EpOp::ReduceSum:
    case EpOp::ReduceMax:
      if (++Reductions > kEpilogueMaxReductions)
        return fail("too many row reductions");
      if (!reads(S.A))
        return fail("reads an unwritten register");
      SlotsOk = claim(S.Arg,
                      vec(EpArgUse::Kind::ColVec, DataType::F32, true));
      break;
    case EpOp::StoreF32:
    case EpOp::StoreU8:
    case EpOp::StoreS8: {
      if (!reads(S.A))
        return fail("reads an unwritten register");
      EpArgUse U = tile(S.Op == EpOp::StoreF32  ? DataType::F32
                        : S.Op == EpOp::StoreU8 ? DataType::U8
                                                : DataType::S8,
                        true, S.Ld);
      U.PadRows = S.PadRows;
      U.PadCols = S.PadCols;
      SlotsOk = claim(S.Arg, U);
      break;
    }
    default:
      if (!reads(S.A))
        return fail("reads an unwritten register");
      if (isBinary(S.Op)) {
        if (S.BKind == EpOperand::Reg) {
          if (!reads(S.B))
            return fail("reads an unwritten register");
        } else {
          SlotsOk = claim(S.Arg, vec(S.BKind == EpOperand::RowVec
                                         ? EpArgUse::Kind::RowVec
                                         : EpArgUse::Kind::ColVec,
                                     DataType::F32, false));
        }
      } else if (!isUnary(S.Op)) {
        return fail("invalid opcode");
      }
      break;
    }
    if (!SlotsOk)
      return fail("buffer slot out of range or named twice");
    if (!IsStore && S.Op != EpOp::ReduceSum && S.Op != EpOp::ReduceMax)
      Defined |= 1u << S.Dst;
  }
  for (uint8_t Slot = 0; Slot < D.NumBufs; ++Slot)
    if (!Claimed[Slot]) {
      Why = formatString("buffer slot %u is named by no step", Slot);
      return false;
    }
  return true;
}

void epilogueTile(const EpilogueDesc &D, void *const *Ptrs, int64_t Rows,
                  int64_t Cols, bool Accumulate) {
  activeTileOps().Epilogue(D, Ptrs, Rows, Cols, Accumulate);
}

} // namespace kernels
} // namespace gc
