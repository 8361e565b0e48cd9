//===- epilogue.h - Fused post-op epilogue over one C tile ------*- C++ -*-===//
///
/// \file
/// One call per anchor segment (§IV, Figs. 3, 4 and 6): the fusible ops a
/// template commits at a post-op anchor, between two row reductions, run
/// as a single kernel call that walks the tile once. The call carries its
/// ops as a short step list over a small file of vector registers:
///
///   sources     an s32 accumulator dequantized with per-column scales and
///               compensation, an f32 tile, a u8 tile, an s32 tile;
///   ops         unary, affine (scalar mul/add), register-register binary,
///               row-vector and column-vector broadcast binary, quantize
///               and dequantize of a register;
///   reductions  row sum / row max into a per-row vector;
///   stores      f32, u8 and s8, plain or into a zero-padded block.
///
/// Every step applies the same vector operations, in the same order per
/// element, as the per-op tile kernel it replaces (tile_ops.h), so a fused
/// call is bit-identical to the per-op sequence at every tier; the
/// EpilogueDiff tests hold each tier to that. Row reductions accumulate
/// each row's column blocks in column order and mask the tail block
/// exactly as the ReduceSumRows / ReduceMaxRows tile ops do.
///
/// Buffer arguments are numbered slots; each slot is named by exactly one
/// step field, so a slot has one role, one element type and one footprint
/// (describeEpilogue), which the verifiers and the artifact codec check.
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_EPILOGUE_H
#define GC_KERNELS_EPILOGUE_H

#include "support/dtype.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gc {
namespace kernels {

/// Limits of one step list (the lowering closes a segment early rather
/// than exceed them).
constexpr int kEpilogueMaxRegs = 8;
constexpr int kEpilogueMaxBufs = 12;
constexpr int kEpilogueMaxSteps = 48;
constexpr int kEpilogueMaxReductions = 4;

/// Step opcodes. R[x] is vector register x, evaluated at every valid
/// element (r, c) of the Rows x Cols tile.
enum class EpOp : uint8_t {
  // ---- sources: R[Dst] = ... from slot Arg (tile with leading dim Ld)
  /// f32 tile.
  LoadF32,
  /// (s32 - Zp * Comp[c]) * Scale[c]: Arg the accumulator, Arg2 the s32
  /// compensation row vector (read only when Zp != 0), Arg3 the scales.
  LoadAcc,
  /// (u8 - Zp) * F0.
  LoadU8,
  /// s32 * F0.
  LoadS32,
  // ---- unary: R[Dst] = f(R[A])
  Relu,
  Exp,
  Tanh,
  Sqrt,
  Recip,
  Square,
  Sigmoid,
  /// R[A] * F0 + F1 (one fma on the SIMD tiers, as the Affine tile op).
  Affine,
  /// Quantizes to the integer grid, kept as an integer-valued float:
  /// clamp(round(R[A] * F0), Lo - Zp, Hi - Zp) + Zp with [Lo, Hi] the u8
  /// range, or s8 when Signed.
  Quant,
  /// (R[A] - Zp) * F0 of an integer-valued register.
  Dequant,
  // ---- binary: R[Dst] = R[A] op operand B (see EpOperand)
  Add,
  Sub,
  Mul,
  Div,
  Max,
  Min,
  // ---- row reductions of R[A] into the f32 vector at slot Arg, one
  // element per row; with the call's Accumulate flag the row's value
  // combines with the vector's current one.
  ReduceSum,
  ReduceMax,
  // ---- stores of R[A] into slot Arg (leading dim Ld). A blocked store
  // (PadRows > 0) also zero-fills its PadRows x PadCols block outside the
  // Rows x Cols tile.
  StoreF32,
  /// sat_u8(round(R[A] * F0) + Zp).
  StoreU8,
  /// sat_s8(round(R[A] * F0)).
  StoreS8,
};
constexpr uint8_t kNumEpOps = static_cast<uint8_t>(EpOp::StoreS8) + 1;

/// Second operand of a binary step.
enum class EpOperand : uint8_t {
  Reg,         ///< R[B]
  RowVec,      ///< f32 vector at slot Arg, indexed by column
  ColVec,      ///< f32 vector at slot Arg, indexed by row (broadcast)
  ColVecRecip, ///< 1 / ColVec, with Mul only (the DivColVec tile op's form)
};
constexpr uint8_t kNumEpOperands =
    static_cast<uint8_t>(EpOperand::ColVecRecip) + 1;

/// One step. Unused fields stay zero.
struct EpStep {
  EpOp Op = EpOp::LoadF32;
  EpOperand BKind = EpOperand::Reg;
  uint8_t Dst = 0;
  uint8_t A = 0;
  uint8_t B = 0;
  uint8_t Arg = 0;
  uint8_t Arg2 = 0;
  uint8_t Arg3 = 0;
  bool Signed = false;
  int32_t Zp = 0;
  int64_t Ld = 0;
  int64_t PadRows = 0;
  int64_t PadCols = 0;
  float F0 = 0.0f;
  float F1 = 0.0f;
};

/// A fused epilogue: its steps and the number of buffer slots they name.
struct EpilogueDesc {
  std::vector<EpStep> Steps;
  uint8_t NumBufs = 0;
};

/// How one buffer slot is accessed. Tile slots cover Rows x Cols with
/// leading dimension Ld, or the constant PadRows x PadCols block when
/// PadRows > 0; vector slots cover Cols (row vector) or Rows (column
/// vector) contiguous elements.
struct EpArgUse {
  enum class Kind : uint8_t { Tile, RowVec, ColVec } K = Kind::Tile;
  DataType Ty = DataType::F32;
  bool Write = false;
  int64_t Ld = 0;
  int64_t PadRows = 0;
  int64_t PadCols = 0;
};

/// Validates \p D (opcodes, operand kinds, register and slot indices,
/// every register read after a write, one role per slot, every slot
/// used, the limits above, positive leading dimensions) and describes
/// each slot's access in \p Uses. Returns false with a reason in \p Why.
bool describeEpilogue(const EpilogueDesc &D, std::vector<EpArgUse> &Uses,
                      std::string &Why);

/// Runs \p D over the Rows x Cols tile on the active tier. \p Ptrs holds
/// one pointer per slot, already offset to the tile's first element.
void epilogueTile(const EpilogueDesc &D, void *const *Ptrs, int64_t Rows,
                  int64_t Cols, bool Accumulate);

} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_EPILOGUE_H
