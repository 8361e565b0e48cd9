//===- tile_ops.h - Tile-granularity fusible-op kernels ---------*- C++ -*-===//
///
/// \file
/// Per-op kernels over one tensor slice ("tile") described by a base
/// pointer, a row/column extent and a leading dimension. The vocabulary is
/// TileOpsTable: one table per kernel dispatch tier, and callers call its
/// members (`const TileOpsTable &K = activeTileOps(); K.Exp(T);`).
/// Compiled partitions run every Fusible OP as a step of the fused
/// epilogue (epilogue.h); these kernels are its test oracle, one op at a
/// time, and the kernels of the loop-nest baseline (baseline/loopnest.h).
///
/// Naming: suffix RowVec means a length-Cols vector broadcast across rows
/// (bias/scale per output channel); suffix ColVec means a length-Rows vector
/// broadcast across columns (softmax denominators).
///
/// NaN contract: for the max/min-based entries (Max, Min, ReduceMaxRows,
/// Relu) the result on NaN *inputs* is tier-dependent — the scalar oracle
/// keeps the first operand where hardware min/max instructions keep the
/// second — so NaN tiles are out of the scalar-vs-simd parity contract.
/// All other entries propagate NaN identically at every tier, except
/// QuantizeU8 and QuantizeS8: an integer has no NaN, and which byte a NaN
/// input yields is outside the contract.
///
/// Quantization bridges (the DequantAcc, Quantize{U8,S8}, DequantU8,
/// DequantS8PerChannel and CastS32F32 table entries) dispatch through the
/// tier tables like the f32 ops. Every tier matches the scalar
/// oracle bit for bit: int -> f32 converts and f32 -> int rounding both
/// follow the default MXCSR mode (to nearest, ties to even, as lrintf).
/// Quantization saturates: the scaled value is clamped to the target range
/// before it is rounded, so any magnitude, +-inf included, lands on the
/// nearest end of the range.
///
/// The fused epilogue runs these kernels' vector operations, in the same
/// order per element, in one pass: it matches the per-op sequence bit for
/// bit at every tier. The kernels themselves keep gradual denormals (vexp
/// included); compiled partitions run the epilogue with FTZ/DAZ set in
/// MXCSR, where a denormal result reads back as zero. The library builds with
/// -ffp-contract=off, so no tier fuses a multiply and an add the source
/// does not spell as one fma.
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_TILE_OPS_H
#define GC_KERNELS_TILE_OPS_H

#include "kernels/cpu_features.h"
#include "kernels/epilogue.h"

#include <cstdint>

namespace gc {
namespace kernels {

/// View of a mutable f32 tile.
struct TileF32 {
  float *Data = nullptr;
  int64_t Rows = 0;
  int64_t Cols = 0;
  int64_t Ld = 0;
};

/// View of a const f32 tile.
struct ConstTileF32 {
  const float *Data = nullptr;
  int64_t Ld = 0;
};

//===----------------------------------------------------------------------===//
// Data movement (shared across tiers)
//===----------------------------------------------------------------------===//

/// Dst tile = Src tile (strided 2-D copy).
void copyTile(const TileF32 &Dst, const ConstTileF32 &Src);
/// Type-agnostic strided 2-D copy (leading dimensions in elements of
/// \p ElemSize bytes); used when moving s32/u8 tiles.
void copyTileRaw(void *Dst, int64_t DstLd, const void *Src, int64_t SrcLd,
                 int64_t Rows, int64_t Cols, int64_t ElemSize);
/// 4-D permutation [A,B,C,D] -> [A,C,B,D] (the BSHD <-> BHSD layout move
/// of transformer graphs), type-agnostic.
void permute0213(void *Dst, const void *Src, int64_t A, int64_t B, int64_t C,
                 int64_t D, int64_t ElemSize);

//===----------------------------------------------------------------------===//
// Dispatch tiers
//===----------------------------------------------------------------------===//

/// The tile-op vocabulary of one kernel dispatch tier: the f32 ops and the
/// quantization bridges (§V low-precision conversion). Callers run the
/// active tier's table (activeTileOps(), selected once per process from
/// CPUID + GC_KERNELS); tests reach specific tiers directly through
/// tileOpsTable() for scalar-vs-simd differential checks.
///
/// The quantization bridges take (Dst, DstLd, Src, SrcLd, Rows, Cols, ...)
/// with leading dimensions in elements.
struct TileOpsTable {
  // ---- unary, in place ----
  /// x = max(x, 0)
  void (*Relu)(const TileF32 &) = nullptr;
  /// x = exp(x)
  void (*Exp)(const TileF32 &) = nullptr;
  /// x = tanh(x)
  void (*Tanh)(const TileF32 &) = nullptr;
  /// x = sqrt(x)
  void (*Sqrt)(const TileF32 &) = nullptr;
  /// x = 1 / x
  void (*Recip)(const TileF32 &) = nullptr;
  /// x = x * A + B (affine; covers scalar mul and add)
  void (*Affine)(const TileF32 &, float A, float B) = nullptr;
  /// x = sigmoid(x)
  void (*Sigmoid)(const TileF32 &) = nullptr;
  /// x = x^2
  void (*Square)(const TileF32 &) = nullptr;

  // ---- binary, second operand a tile: x[r][c] op= y[r][c] ----
  void (*Add)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Sub)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Mul)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Div)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Max)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Min)(const TileF32 &, const ConstTileF32 &) = nullptr;

  // ---- broadcast binary ----
  /// x[r][c] op= v[c]
  void (*AddRowVec)(const TileF32 &, const float *) = nullptr;
  void (*SubRowVec)(const TileF32 &, const float *) = nullptr;
  void (*MulRowVec)(const TileF32 &, const float *) = nullptr;
  /// x[r][c] op= v[r]; DivColVec multiplies by 1 / v[r].
  void (*AddColVec)(const TileF32 &, const float *) = nullptr;
  void (*SubColVec)(const TileF32 &, const float *) = nullptr;
  void (*MulColVec)(const TileF32 &, const float *) = nullptr;
  void (*DivColVec)(const TileF32 &, const float *) = nullptr;

  // ---- reductions over the column axis ----
  /// Out[r] (+)= sum_c x[r][c]; when !Accumulate Out is overwritten.
  void (*ReduceSumRows)(const TileF32 &, float *Out, bool Accumulate) =
      nullptr;
  /// Out[r] = max(Out[r], max_c x[r][c]); when !Accumulate Out is
  /// overwritten.
  void (*ReduceMaxRows)(const TileF32 &, float *Out, bool Accumulate) =
      nullptr;
  /// x = Value.
  void (*Fill)(const TileF32 &, float Value) = nullptr;

  // ---- quantization bridges ----
  /// Dequantizes an s32 accumulator tile into f32 with per-output-channel
  /// scales and asymmetric-activation compensation:
  ///   Dst[r][c] = (Src[r][c] - AZp * Comp[c]) * ScaleVec[c]
  /// Comp[c] is the column sum of the s8 weight (a folded constant), and
  /// ScaleVec[c] = a_scale * b_scale[c]. Comp may be null, and is unread
  /// when AZp == 0.
  void (*DequantAcc)(float *, int64_t, const int32_t *, int64_t, int64_t,
                     int64_t, const int32_t *Comp, int32_t AZp,
                     const float *ScaleVec) = nullptr;
  /// Dst = sat_u8(round(Src * InvScale) + Zp), rounding half to even; the
  /// scaled value is clamped to [-Zp, 255 - Zp] before it is rounded.
  void (*QuantizeU8)(uint8_t *, int64_t, const float *, int64_t, int64_t,
                     int64_t, float InvScale, int32_t Zp) = nullptr;
  /// Dst = sat_s8(round(Src * InvScale)), symmetric per tensor, rounding
  /// and clamping as QuantizeU8 does.
  void (*QuantizeS8)(int8_t *, int64_t, const float *, int64_t, int64_t,
                     int64_t, float InvScale) = nullptr;
  /// Dst = (Src - Zp) * Scale.
  void (*DequantU8)(float *, int64_t, const uint8_t *, int64_t, int64_t,
                    int64_t, float Scale, int32_t Zp) = nullptr;
  /// Dst[r][c] = Src[r][c] * ScaleVec[c] (per-channel s8 weights).
  void (*DequantS8PerChannel)(float *, int64_t, const int8_t *, int64_t,
                              int64_t, int64_t,
                              const float *ScaleVec) = nullptr;
  /// Dst = Src * Scale.
  void (*CastS32F32)(float *, int64_t, const int32_t *, int64_t, int64_t,
                     int64_t, float Scale) = nullptr;

  /// The fused epilogue (epilogue.h), this tier's ops in one pass.
  void (*Epilogue)(const EpilogueDesc &, void *const *, int64_t, int64_t,
                   bool) = nullptr;
  const char *Name = "";
  KernelTier Tier = KernelTier::Scalar;
};

/// Table for \p Tier, or nullptr when the tier is not available in this
/// build / on this CPU. KernelTier::Scalar (the libm reference oracle) is
/// always available.
const TileOpsTable *tileOpsTable(KernelTier Tier);

/// The active tier's table (never null).
const TileOpsTable &activeTileOps();

} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_TILE_OPS_H
