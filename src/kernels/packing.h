//===- packing.h - Blocked/VNNI layout packing ------------------*- C++ -*-===//
///
/// \file
/// Layout conversion kernels between plain row-major tensors and the blocked
/// layouts the matmul template consumes (§III: "the input and output tensors
/// are blocked using the submatrix sizes [MB, NB, KB] so each microkernel
/// accesses a contiguous memory buffer").
///
/// Layouts:
///  * A-format (LHS):  [ceil(M/MB)][ceil(K/KB)][MB][KB]
///  * B-format f32:    [ceil(K/KB)][ceil(N/NB)][KB][NB]
///  * B-format s8:     [ceil(K/KB)][ceil(N/NB)][KB/4][NB][4]  (VNNI)
///
/// Ragged edges are zero-padded so the microkernel never needs K/N tail
/// logic inside the reduction; M tails are instead carried as explicit tile
/// row counts because padding M would write outside the C tensor. Zero
/// padding K is exact for both f32 and the u8s8 dot product.
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_PACKING_H
#define GC_KERNELS_PACKING_H

#include <cstdint>

namespace gc {
namespace kernels {

/// Describes a plain row-major source matrix, optionally transposed.
/// When \c Transposed, logical element (r, c) is read from Src[c*Ld + r].
struct PlainMatrix {
  const void *Data = nullptr;
  int64_t Rows = 0;
  int64_t Cols = 0;
  int64_t Ld = 0;
  bool Transposed = false;
};

/// Packs a plain f32 matrix into A-format with blocks MB x KB.
/// \p Dst must hold ceil(M/MB)*ceil(K/KB)*MB*KB floats.
void packAF32(const PlainMatrix &Src, float *Dst, int64_t MB, int64_t KB);

/// Packs a plain u8 matrix into A-format with blocks MB x KB.
void packAU8(const PlainMatrix &Src, uint8_t *Dst, int64_t MB, int64_t KB);

/// Packs a plain f32 matrix into B-format with blocks KB x NB.
/// \p Dst must hold ceil(K/KB)*ceil(N/NB)*KB*NB floats.
void packBF32(const PlainMatrix &Src, float *Dst, int64_t KB, int64_t NB);

/// Packs a plain s8 matrix into VNNI B-format with blocks KB x NB.
/// KB must be a multiple of 4. \p Dst must hold
/// ceil(K/KB)*ceil(N/NB)*KB*NB bytes.
void packBS8Vnni(const PlainMatrix &Src, int8_t *Dst, int64_t KB, int64_t NB);

/// Unpacks an A-format f32 tensor back to plain row-major (the packing
/// tests' round trip).
void unpackAF32(const float *Src, float *Dst, int64_t M, int64_t K,
                int64_t MB, int64_t KB, int64_t DstLd);

/// Computes per-column sums of a plain s8 weight matrix:
/// Comp[n] = sum_k B[k][n]. Used for asymmetric-activation zero-point
/// compensation during constant weight preprocessing (§V).
void colSumS8(const PlainMatrix &Src, int32_t *Comp);

/// Number of elements of an A-format buffer.
inline int64_t packedASize(int64_t M, int64_t K, int64_t MB, int64_t KB) {
  return ((M + MB - 1) / MB) * ((K + KB - 1) / KB) * MB * KB;
}

/// Number of elements of a B-format buffer.
inline int64_t packedBSize(int64_t K, int64_t N, int64_t KB, int64_t NB) {
  return ((K + KB - 1) / KB) * ((N + NB - 1) / NB) * KB * NB;
}

} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_PACKING_H
