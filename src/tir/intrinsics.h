//===- intrinsics.h - Tensor IR intrinsic functions -------------*- C++ -*-===//
///
/// \file
/// The intrinsic vocabulary of Tensor IR. "The intrinsic function is used to
/// represent a microkernel, which is carefully hand-tuned and fulfills a
/// subtask of a DNN OP with data in the fastest cache on a single CPU core"
/// (§II). Beyond the brgemm microkernel, the fused-op template commits the
/// Fusible OPs at its post-op anchors as one EpilogueTile call per anchor
/// segment (kernels/epilogue.h); the per-op tile intrinsics serve the per-row
/// vector ops between segments, the layout moves and the packs.
///
/// A CallStmt carries an ordered buffer-reference list and an ordered scalar
/// list. GC_INTRINSIC_TABLE states each intrinsic's contract once, as one
/// row: its printable name, its scalars in order, and per buffer argument
/// the element type, whether the kernel writes it, and which of its
/// elements the kernel may touch. The kernel adapters (exec/executor.cpp),
/// the printer, the artifact codec and both verifiers read the row.
/// EpilogueTile's buffers are the slots of its step list, which
/// kernels::describeEpilogue describes instead.
///
//===----------------------------------------------------------------------===//

#ifndef GC_TIR_INTRINSICS_H
#define GC_TIR_INTRINSICS_H

#include "support/dtype.h"

#include <cstdint>
#include <initializer_list>

namespace gc {
namespace tir {

/// Which elements of a buffer argument a call may touch, counted from the
/// argument's element offset, as a recipe over the call's scalars S[...].
enum class Extent : uint8_t {
  /// S[Rows] x S[Cols] elements on stride S[Ld]; Rows and Cols swap when
  /// the Transposed scalar S[Tr] is nonzero.
  Tile,
  /// S[First] * ... * S[First + Count - 1] contiguous elements.
  Flat,
  /// The whole buffer (a pack destination is sized by construction).
  Whole,
  /// Brgemm A panels: (Batch - 1) * AStrideB + (M - 1) * Lda + K.
  BrgemmA,
  /// Brgemm B panels: (Batch - 1) * BStrideB + (K - 1) * Ldb + N for an
  /// f32 B; an s8 B is VNNI-packed and spans (Batch - 1) * BStrideB +
  /// roundUp(K, 4) * NPadded.
  BrgemmB,
};

/// Element type of a type-agnostic buffer argument.
constexpr DataType kAnyType = static_cast<DataType>(0xFF);
/// "No such scalar" (a tile without a Transposed flag).
constexpr uint8_t kNoScalar = 0xFF;
/// Most buffer arguments a table row declares.
constexpr int kMaxIntrinsicBufs = 3;

/// The contract of one buffer argument.
struct BufSpec {
  const char *Name = "";
  DataType Ty = kAnyType;
  bool Write = false; ///< written (and possibly read) by the kernel
  Extent Ext = Extent::Whole;
  uint8_t Rows = 0, Cols = 0, Ld = 0, Tr = kNoScalar; ///< Tile
  uint8_t First = 0, Count = 0;                       ///< Flat
};

/// One intrinsic's calling contract.
struct IntrinsicInfo {
  const char *Name = "";
  /// The scalar arguments, space-separated, in order; S[I] is word I.
  const char *Scalars = "";
  uint8_t NumScalars = 0;
  uint8_t NumBufs = 0; ///< 0 for EpilogueTile: its step list has the slots
  BufSpec Bufs[kMaxIntrinsicBufs];
};

/// Row-building vocabulary of GC_INTRINSIC_TABLE.
namespace row {
constexpr DataType F32 = DataType::F32, S32 = DataType::S32,
                   S8 = DataType::S8, U8 = DataType::U8, Any = kAnyType;

constexpr BufSpec tile(uint8_t Rows, uint8_t Cols, uint8_t Ld,
                       uint8_t Tr = kNoScalar) {
  BufSpec B;
  B.Ext = Extent::Tile;
  B.Rows = Rows;
  B.Cols = Cols;
  B.Ld = Ld;
  B.Tr = Tr;
  return B;
}
constexpr BufSpec flat(uint8_t First, uint8_t Count) {
  BufSpec B;
  B.Ext = Extent::Flat;
  B.First = First;
  B.Count = Count;
  return B;
}
constexpr BufSpec extent(Extent E) {
  BufSpec B;
  B.Ext = E;
  return B;
}
constexpr BufSpec whole() { return extent(Extent::Whole); }
constexpr BufSpec brgemmA() { return extent(Extent::BrgemmA); }
constexpr BufSpec brgemmB() { return extent(Extent::BrgemmB); }

constexpr BufSpec in(const char *Name, DataType Ty, BufSpec B) {
  B.Name = Name;
  B.Ty = Ty;
  return B;
}
constexpr BufSpec out(const char *Name, DataType Ty, BufSpec B) {
  B = in(Name, Ty, B);
  B.Write = true;
  return B;
}

constexpr IntrinsicInfo make(const char *Name, const char *Scalars,
                             std::initializer_list<BufSpec> Bufs) {
  IntrinsicInfo R;
  R.Name = Name;
  R.Scalars = Scalars;
  for (const char *P = Scalars; *P; ++P)
    R.NumScalars += *P != ' ' && (P == Scalars || P[-1] == ' ');
  for (const BufSpec &B : Bufs)
    R.Bufs[R.NumBufs++] = B;
  return R;
}
} // namespace row

/// The intrinsics, one row each: X(Id, name, scalars, (buffers...)). A
/// buffer is in(name, type, recipe) when the kernel only reads it and
/// out(...) when it writes it; tile() and flat() take scalar positions,
/// where S[I] is word I of the row's scalars.
#define GC_INTRINSIC_TABLE(X)                                                 \
  X(BrgemmF32, "brgemm_f32",                                                  \
    "M N K Lda Ldb Ldc AStrideB BStrideB Batch InitC",                        \
    (in("A", F32, brgemmA()), in("B", F32, brgemmB()),                        \
     out("C", F32, tile(0, 1, 5))))                                           \
  X(BrgemmU8S8, "brgemm_u8s8",                                                \
    "M N K Lda NPadded Ldc AStrideB BStrideB Batch InitC",                    \
    (in("A", U8, brgemmA()), in("B", S8, brgemmB()),                          \
     out("C", S32, tile(0, 1, 5))))                                           \
  X(ReluTile, "relu_tile", "Rows Cols Ld", (out("X", F32, tile(0, 1, 2))))    \
  X(ExpTile, "exp_tile", "Rows Cols Ld", (out("X", F32, tile(0, 1, 2))))      \
  X(TanhTile, "tanh_tile", "Rows Cols Ld", (out("X", F32, tile(0, 1, 2))))    \
  X(SqrtTile, "sqrt_tile", "Rows Cols Ld", (out("X", F32, tile(0, 1, 2))))    \
  X(RecipTile, "recip_tile", "Rows Cols Ld", (out("X", F32, tile(0, 1, 2))))  \
  X(SquareTile, "square_tile", "Rows Cols Ld",                                \
    (out("X", F32, tile(0, 1, 2))))                                           \
  X(SigmoidTile, "sigmoid_tile", "Rows Cols Ld",                              \
    (out("X", F32, tile(0, 1, 2))))                                           \
  /* x = x * A + B; A and B are f64 scalars. */                               \
  X(AffineTile, "affine_tile", "Rows Cols Ld A B",                            \
    (out("X", F32, tile(0, 1, 2))))                                           \
  X(AddTile, "add_tile", "Rows Cols LdX LdY",                                 \
    (out("X", F32, tile(0, 1, 2)), in("Y", F32, tile(0, 1, 3))))              \
  X(SubTile, "sub_tile", "Rows Cols LdX LdY",                                 \
    (out("X", F32, tile(0, 1, 2)), in("Y", F32, tile(0, 1, 3))))              \
  X(MulTile, "mul_tile", "Rows Cols LdX LdY",                                 \
    (out("X", F32, tile(0, 1, 2)), in("Y", F32, tile(0, 1, 3))))              \
  X(DivTile, "div_tile", "Rows Cols LdX LdY",                                 \
    (out("X", F32, tile(0, 1, 2)), in("Y", F32, tile(0, 1, 3))))              \
  X(MaxTile, "max_tile", "Rows Cols LdX LdY",                                 \
    (out("X", F32, tile(0, 1, 2)), in("Y", F32, tile(0, 1, 3))))              \
  X(MinTile, "min_tile", "Rows Cols LdX LdY",                                 \
    (out("X", F32, tile(0, 1, 2)), in("Y", F32, tile(0, 1, 3))))              \
  X(CopyTile, "copy_tile", "Rows Cols LdD LdS",                               \
    (out("D", F32, tile(0, 1, 2)), in("S", F32, tile(0, 1, 3))))              \
  /* Type-agnostic strided copy of ElemSize-byte elements. */                 \
  X(CopyTileRaw, "copy_tile_raw", "Rows Cols LdD LdS ElemSize",               \
    (out("D", Any, tile(0, 1, 2)), in("S", Any, tile(0, 1, 3))))              \
  /* Type-agnostic 4-D [A,B,C,D] -> [A,C,B,D] permute. */                     \
  X(Permute0213, "permute_0213", "A B C D ElemSize",                          \
    (out("D", Any, flat(0, 4)), in("S", Any, flat(0, 4))))                    \
  /* Accumulate: combine row reductions with the output vectors' values. */   \
  X(EpilogueTile, "epilogue_tile", "Rows Cols Accumulate", ())                \
  X(PackAF32, "pack_a_f32", "M K SrcLd MB KB Transposed",                     \
    (out("D", F32, whole()), in("S", F32, tile(0, 1, 2, 5))))                 \
  X(PackAU8, "pack_a_u8", "M K SrcLd MB KB Transposed",                       \
    (out("D", U8, whole()), in("S", U8, tile(0, 1, 2, 5))))                   \
  X(PackBF32, "pack_b_f32", "K N SrcLd KB NB Transposed",                     \
    (out("D", F32, whole()), in("S", F32, tile(0, 1, 2, 5))))                 \
  X(PackBS8Vnni, "pack_b_s8_vnni", "K N SrcLd KB NB Transposed",              \
    (out("D", S8, whole()), in("S", S8, tile(0, 1, 2, 5))))

/// Intrinsic identifiers: the table's rows in order.
enum class Intrinsic : uint8_t {
#define GC_INTRINSIC_ID(Id, ...) Id,
  GC_INTRINSIC_TABLE(GC_INTRINSIC_ID)
#undef GC_INTRINSIC_ID
  // Retired ids past kNumIntrinsics. No lowering emits them and they have
  // no row, adapter or name, so every range check rejects them; the
  // enumerators stay only because perfbench/src/trace.cpp still names
  // them in its per-intrinsic switches.
  AddRowVecTile,
  SubRowVecTile,
  MulRowVecTile,
  AddColVecTile,
  SubColVecTile,
  MulColVecTile,
  DivColVecTile,
  ReduceSumRowsTile,
  ReduceMaxRowsTile,
  TransposeTile,
  FillTile,
  DequantAccTile,
  QuantU8Tile,
  QuantS8Tile,
  DequantU8Tile,
  DequantS8PerChannelTile,
  CastS32F32Tile,
  UnpackAF32,
  UnpackAU8,
};

#define GC_INTRINSIC_UNPAREN(...) __VA_ARGS__
#define GC_INTRINSIC_ROW(Id, Name, Scalars, Bufs)                             \
  make(Name, Scalars, {GC_INTRINSIC_UNPAREN Bufs}),
namespace row {
inline constexpr IntrinsicInfo kTable[] = {
    GC_INTRINSIC_TABLE(GC_INTRINSIC_ROW)};
} // namespace row
#undef GC_INTRINSIC_ROW
#undef GC_INTRINSIC_UNPAREN

/// Number of intrinsics with a row; every id at or past it is invalid
/// (deserialized kernel ids are range-checked against it).
constexpr uint8_t kNumIntrinsics =
    sizeof(row::kTable) / sizeof(row::kTable[0]);

/// True when every recipe of every row reads only scalars its row declares
/// (the verifiers index a call's scalars by the recipes).
constexpr bool recipesReadDeclaredScalars() {
  for (const IntrinsicInfo &R : row::kTable)
    for (uint8_t I = 0; I < R.NumBufs; ++I) {
      const BufSpec &B = R.Bufs[I];
      const uint8_t N = R.NumScalars;
      switch (B.Ext) {
      case Extent::Tile:
        if (B.Rows >= N || B.Cols >= N || B.Ld >= N ||
            (B.Tr != kNoScalar && B.Tr >= N))
          return false;
        break;
      case Extent::Flat:
        if (B.Count == 0 || B.First + B.Count > N)
          return false;
        break;
      case Extent::BrgemmA:
      case Extent::BrgemmB:
        if (N != 10)
          return false;
        break;
      case Extent::Whole:
        break;
      }
    }
  return true;
}
static_assert(recipesReadDeclaredScalars(),
              "a recipe reads a scalar its row does not declare");

/// The row of \p In, which must be below kNumIntrinsics.
constexpr const IntrinsicInfo &intrinsicInfo(Intrinsic In) {
  return row::kTable[static_cast<uint8_t>(In)];
}

/// Printable intrinsic name; "?" for an id without a row.
constexpr const char *intrinsicName(Intrinsic In) {
  return static_cast<uint8_t>(In) < kNumIntrinsics ? intrinsicInfo(In).Name
                                                   : "?";
}

} // namespace tir
} // namespace gc

#endif // GC_TIR_INTRINSICS_H
