//===- intrinsics.h - Tensor IR intrinsic functions -------------*- C++ -*-===//
///
/// \file
/// The intrinsic vocabulary of Tensor IR. "The intrinsic function is used to
/// represent a microkernel, which is carefully hand-tuned and fulfills a
/// subtask of a DNN OP with data in the fastest cache on a single CPU core"
/// (§II). Beyond the brgemm microkernel, the fused-op template commits the
/// Fusible OPs at its post-op anchors as one EpilogueTile call per anchor
/// segment (kernels/epilogue.h); the per-op tile intrinsics map 1:1 onto
/// the kernels in src/kernels/tile_ops.h and serve the per-row vector ops
/// between segments, the layout moves and the packs.
///
/// Calling convention: a CallStmt carries an ordered buffer-reference list
/// and an ordered scalar list; the per-intrinsic layout is documented here,
/// checked by the Tensor IR verifier and followed by the kernel adapters
/// (exec/executor.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GC_TIR_INTRINSICS_H
#define GC_TIR_INTRINSICS_H

#include <cstdint>

namespace gc {
namespace tir {

/// Intrinsic identifiers.
///
/// Buffer / scalar conventions (B = buffers in order, S = scalars in order):
///  BrgemmF32     B[A,B,C] S[M,N,K,Lda,Ldb,Ldc,AStrideB,BStrideB,Batch,InitC]
///  BrgemmU8S8    B[A,B,C] S[M,N,K,Lda,NPadded,Ldc,AStrideB,BStrideB,Batch,InitC]
///  Unary tiles   B[X]     S[Rows,Cols,Ld]
///  AffineTile    B[X]     S[Rows,Cols,Ld,A(f),B(f)]
///  Binary tiles  B[X,Y]   S[Rows,Cols,LdX,LdY]
///  RowVec tiles  B[X,V]   S[Rows,Cols,LdX]
///  ColVec tiles  B[X,V]   S[Rows,Cols,LdX]
///  ReduceRows    B[X,Out] S[Rows,Cols,Ld,Accumulate]
///  CopyTile      B[D,S]   S[Rows,Cols,LdD,LdS]
///  TransposeTile B[D,S]   S[Rows,Cols,LdD,LdS]
///  FillTile      B[X]     S[Rows,Cols,Ld,Value(f)]
///  EpilogueTile  B[slots of the call's step list] S[Rows,Cols,Accumulate]
///                (leading dims, scales, zero points and immediates live
///                in the step list; Accumulate = combine row reductions
///                with the output vectors' current values)
///  DequantAcc    B[D,S,Comp,Scale] S[Rows,Cols,LdD,LdS,AZp]
///  QuantU8Tile   B[D,S]   S[Rows,Cols,LdD,LdS,InvScale(f),Zp]
///  QuantS8Tile   B[D,S]   S[Rows,Cols,LdD,LdS,InvScale(f)]
///  DequantU8Tile B[D,S]   S[Rows,Cols,LdD,LdS,Scale(f),Zp]
///  DequantS8PC   B[D,S,Scale] S[Rows,Cols,LdD,LdS]
///  CastS32F32    B[D,S]   S[Rows,Cols,LdD,LdS,Scale(f)]
///  PackAF32/U8   B[D,S]   S[M,K,SrcLd,MB,KB,Transposed]
///  PackBF32      B[D,S]   S[K,N,SrcLd,KB,NB,Transposed]
///  PackBS8Vnni   B[D,S]   S[K,N,SrcLd,KB,NB,Transposed]
///  UnpackAF32    B[D,S]   S[M,K,MB,KB,DstLd]
///  UnpackAU8     B[D,S]   S[M,K,MB,KB,DstLd]
enum class Intrinsic : uint8_t {
  BrgemmF32,
  BrgemmU8S8,
  // Unary tiles.
  ReluTile,
  ExpTile,
  TanhTile,
  SqrtTile,
  RecipTile,
  SquareTile,
  SigmoidTile,
  AffineTile,
  // Binary tiles.
  AddTile,
  SubTile,
  MulTile,
  DivTile,
  MaxTile,
  MinTile,
  // Broadcast tiles.
  AddRowVecTile,
  SubRowVecTile,
  MulRowVecTile,
  AddColVecTile,
  SubColVecTile,
  MulColVecTile,
  DivColVecTile,
  // Reductions.
  ReduceSumRowsTile,
  ReduceMaxRowsTile,
  // Data movement.
  CopyTile,
  /// B[D,S] S[Rows,Cols,LdD,LdS,ElemSize] - type-agnostic strided copy.
  CopyTileRaw,
  TransposeTile,
  /// B[D,S] S[A,B,C,D,ElemSize] - 4-D [A,B,C,D] -> [A,C,B,D] permute.
  Permute0213,
  FillTile,
  // Fused post-op epilogue (one call per anchor segment).
  EpilogueTile,
  // Quantization bridges.
  DequantAccTile,
  QuantU8Tile,
  QuantS8Tile,
  DequantU8Tile,
  DequantS8PerChannelTile,
  CastS32F32Tile,
  // Layout packing.
  PackAF32,
  PackAU8,
  PackBF32,
  PackBS8Vnni,
  UnpackAF32,
  UnpackAU8,
};

/// Number of intrinsics; range guard for deserialized kernel ids (the
/// persistent artifact cache stores calls symbolically and relinks).
constexpr uint8_t kNumIntrinsics = static_cast<uint8_t>(Intrinsic::UnpackAU8) + 1;

/// Bit I set = buffer argument I is written by the kernel (written args
/// are also treated as read: brgemm accumulates into C, ReduceRows can
/// accumulate into Out). Every other buffer argument is read-only. The
/// static race analysis classifies footprints with this mask; it must
/// match the kernel implementations in src/kernels/. EpilogueTile's write
/// set comes from its step list (kernels::describeEpilogue) instead.
constexpr uint8_t intrinsicWriteMask(Intrinsic In) {
  switch (In) {
  case Intrinsic::BrgemmF32:
  case Intrinsic::BrgemmU8S8:
    return 0b100; // C = arg 2
  case Intrinsic::ReduceSumRowsTile:
  case Intrinsic::ReduceMaxRowsTile:
    return 0b010; // Out = arg 1
  case Intrinsic::EpilogueTile:
    return 0; // per step list
  default:
    return 0b001; // D / X = arg 0
  }
}

/// Number of buffer arguments \p In takes: the B[...] column of the table
/// above. Executor adapters and the verifiers' footprints index a call's
/// buffers by this layout, so a call must carry exactly this many.
/// EpilogueTile's count is its step list's NumBufs (0 here).
constexpr uint8_t intrinsicNumBufs(Intrinsic In) {
  switch (In) {
  case Intrinsic::BrgemmF32:
  case Intrinsic::BrgemmU8S8:
  case Intrinsic::DequantS8PerChannelTile:
    return 3;
  case Intrinsic::ReluTile:
  case Intrinsic::ExpTile:
  case Intrinsic::TanhTile:
  case Intrinsic::SqrtTile:
  case Intrinsic::RecipTile:
  case Intrinsic::SquareTile:
  case Intrinsic::SigmoidTile:
  case Intrinsic::AffineTile:
  case Intrinsic::FillTile:
    return 1;
  case Intrinsic::DequantAccTile:
    return 4;
  case Intrinsic::EpilogueTile:
    return 0;
  default:
    return 2;
  }
}

/// Printable intrinsic name.
const char *intrinsicName(Intrinsic In);

} // namespace tir
} // namespace gc

#endif // GC_TIR_INTRINSICS_H
