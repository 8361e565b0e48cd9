//===- tile_ops.h - Tile-granularity fusible-op kernels ---------*- C++ -*-===//
///
/// \file
/// Per-op kernels over one tensor slice ("tile") described by a base
/// pointer, a row/column extent and a leading dimension. Compiled
/// partitions run every Fusible OP as a step of the fused epilogue
/// (epilogue.h); these kernels are its test oracle, one op at a time, and
/// the kernels of the loop-nest baseline (baseline/loopnest.h).
///
/// Naming: suffix RowVec means a length-Cols vector broadcast across rows
/// (bias/scale per output channel); suffix ColVec means a length-Rows vector
/// broadcast across columns (softmax denominators).
///
/// NaN contract: for max/min-based kernels (maxTile, minTile,
/// reduceMaxRowsTile, reluTile) the result on NaN *inputs* is
/// tier-dependent — the scalar oracle keeps the first operand where
/// hardware min/max instructions keep the second — so NaN tiles are out of
/// the scalar-vs-simd parity contract. All other kernels propagate NaN
/// identically at every tier, except quantizeU8Tile and quantizeS8Tile:
/// an integer has no NaN, and which byte a NaN input yields is outside the
/// contract.
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
// Elementwise (unary)
//===----------------------------------------------------------------------===//

/// x = max(x, 0)
void reluTile(const TileF32 &X);
/// x = exp(x)
void expTile(const TileF32 &X);
/// x = tanh(x)
void tanhTile(const TileF32 &X);
/// x = sqrt(x)
void sqrtTile(const TileF32 &X);
/// x = 1 / x
void recipTile(const TileF32 &X);
/// x = x * A + B (affine; covers scalar mul and add)
void affineTile(const TileF32 &X, float A, float B);
/// x = sigmoid(x)
void sigmoidTile(const TileF32 &X);
/// x = x^2
void squareTile(const TileF32 &X);

//===----------------------------------------------------------------------===//
// Elementwise (binary, second operand tile)
//===----------------------------------------------------------------------===//

void addTile(const TileF32 &X, const ConstTileF32 &Y);
void subTile(const TileF32 &X, const ConstTileF32 &Y);
void mulTile(const TileF32 &X, const ConstTileF32 &Y);
void divTile(const TileF32 &X, const ConstTileF32 &Y);
void maxTile(const TileF32 &X, const ConstTileF32 &Y);
void minTile(const TileF32 &X, const ConstTileF32 &Y);

//===----------------------------------------------------------------------===//
// Broadcast binary
//===----------------------------------------------------------------------===//

/// x[r][c] op= v[c]
void addRowVecTile(const TileF32 &X, const float *V);
void subRowVecTile(const TileF32 &X, const float *V);
void mulRowVecTile(const TileF32 &X, const float *V);
/// x[r][c] op= v[r]
void addColVecTile(const TileF32 &X, const float *V);
void subColVecTile(const TileF32 &X, const float *V);
void mulColVecTile(const TileF32 &X, const float *V);
void divColVecTile(const TileF32 &X, const float *V);

//===----------------------------------------------------------------------===//
// Reductions (over the column axis of the tile)
//===----------------------------------------------------------------------===//

/// Out[r] (+)= sum_c x[r][c]; when !Accumulate Out is overwritten.
void reduceSumRowsTile(const TileF32 &X, float *Out, bool Accumulate);
/// Out[r] = max(Out[r], max_c x[r][c]); when !Accumulate Out is overwritten.
void reduceMaxRowsTile(const TileF32 &X, float *Out, bool Accumulate);

//===----------------------------------------------------------------------===//
// Data movement
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
// Quantization bridges (int8 pipeline, §V low-precision conversion)
//===----------------------------------------------------------------------===//

/// Dequantizes an s32 accumulator tile into f32 with per-output-channel
/// scales and asymmetric-activation compensation:
///   Dst[r][c] = (Src[r][c] - AZp * Comp[c]) * ScaleVec[c]
/// Comp[c] is the column sum of the s8 weight (precomputed constant);
/// ScaleVec[c] = a_scale * b_scale[c] folded at compile time.
void dequantAccTile(float *Dst, int64_t DstLd, const int32_t *Src,
                    int64_t SrcLd, int64_t Rows, int64_t Cols,
                    const int32_t *Comp, int32_t AZp, const float *ScaleVec);

/// Quantizes f32 to u8: Dst = sat_u8(round(Src * InvScale) + Zp), rounding
/// half to even.
void quantizeU8Tile(uint8_t *Dst, int64_t DstLd, const float *Src,
                    int64_t SrcLd, int64_t Rows, int64_t Cols, float InvScale,
                    int32_t Zp);

/// Dequantizes u8 to f32: Dst = (Src - Zp) * Scale.
void dequantU8Tile(float *Dst, int64_t DstLd, const uint8_t *Src,
                   int64_t SrcLd, int64_t Rows, int64_t Cols, float Scale,
                   int32_t Zp);

/// Dequantizes s8 to f32 with per-column scales (per-channel weights):
/// Dst[r][c] = Src[r][c] * ScaleVec[c].
void dequantS8PerChannelTile(float *Dst, int64_t DstLd, const int8_t *Src,
                             int64_t SrcLd, int64_t Rows, int64_t Cols,
                             const float *ScaleVec);

//===----------------------------------------------------------------------===//
// Dispatch tiers
//===----------------------------------------------------------------------===//

/// The tile-op vocabulary of one kernel dispatch tier: the f32 ops and the
/// quantization bridges. The free functions above forward to the active
/// tier's table (selected once per process from CPUID + GC_KERNELS); Fill,
/// QuantizeS8 and CastS32F32 have no free function and serve only as the
/// fused epilogue's oracle. Tests reach specific tiers directly through
/// tileOpsTable() for scalar-vs-simd differential checks.
struct TileOpsTable {
  void (*Relu)(const TileF32 &) = nullptr;
  void (*Exp)(const TileF32 &) = nullptr;
  void (*Tanh)(const TileF32 &) = nullptr;
  void (*Sqrt)(const TileF32 &) = nullptr;
  void (*Recip)(const TileF32 &) = nullptr;
  void (*Affine)(const TileF32 &, float, float) = nullptr;
  void (*Sigmoid)(const TileF32 &) = nullptr;
  void (*Square)(const TileF32 &) = nullptr;
  void (*Add)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Sub)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Mul)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Div)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Max)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*Min)(const TileF32 &, const ConstTileF32 &) = nullptr;
  void (*AddRowVec)(const TileF32 &, const float *) = nullptr;
  void (*SubRowVec)(const TileF32 &, const float *) = nullptr;
  void (*MulRowVec)(const TileF32 &, const float *) = nullptr;
  void (*AddColVec)(const TileF32 &, const float *) = nullptr;
  void (*SubColVec)(const TileF32 &, const float *) = nullptr;
  void (*MulColVec)(const TileF32 &, const float *) = nullptr;
  void (*DivColVec)(const TileF32 &, const float *) = nullptr;
  void (*ReduceSumRows)(const TileF32 &, float *, bool) = nullptr;
  void (*ReduceMaxRows)(const TileF32 &, float *, bool) = nullptr;
  /// x = Value.
  void (*Fill)(const TileF32 &, float) = nullptr;
  void (*DequantAcc)(float *, int64_t, const int32_t *, int64_t, int64_t,
                     int64_t, const int32_t *, int32_t,
                     const float *) = nullptr;
  void (*QuantizeU8)(uint8_t *, int64_t, const float *, int64_t, int64_t,
                     int64_t, float, int32_t) = nullptr;
  /// Dst = sat_s8(round(Src * InvScale)), symmetric per tensor.
  void (*QuantizeS8)(int8_t *, int64_t, const float *, int64_t, int64_t,
                     int64_t, float) = nullptr;
  void (*DequantU8)(float *, int64_t, const uint8_t *, int64_t, int64_t,
                    int64_t, float, int32_t) = nullptr;
  void (*DequantS8PerChannel)(float *, int64_t, const int8_t *, int64_t,
                              int64_t, int64_t, const float *) = nullptr;
  /// Dst = Src * Scale.
  void (*CastS32F32)(float *, int64_t, const int32_t *, int64_t, int64_t,
                     int64_t, float) = nullptr;
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

/// The table the free functions dispatch to (never null).
const TileOpsTable &activeTileOps();

} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_TILE_OPS_H
