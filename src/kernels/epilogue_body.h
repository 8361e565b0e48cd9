//===- epilogue_body.h - Width-generic fused epilogue body ------*- C++ -*-===//
///
/// \file
/// The one body of the fused epilogue (epilogue.h), written against an
/// element policy P: the SIMD tiers instantiate it with SimdEpPolicy over
/// their simd.h backend (tile_ops_simd.h), the scalar tier with the scalar
/// oracle's element functions (tile_ops.cpp).
///
/// The tile is walked in chunks of whole vectors: a chunk is up to
/// ChunkVecs vectors (2 KiB of f32 per register at every width) covering
/// several full rows of a narrow tile, or one column block of a wide row.
/// Each step runs over the whole chunk before the next, so a step costs
/// one dispatch per chunk, and every live value stays in the chunk's
/// register file (in L1) instead of a strip buffer. A tail vector (the
/// last of a row when Cols is not a multiple of the width) is loaded and
/// stored masked; its inactive lanes are masked out of reductions as the
/// per-op reductions' masked loads do.
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_EPILOGUE_BODY_H
#define GC_KERNELS_EPILOGUE_BODY_H

#include "kernels/epilogue.h"

#include <algorithm>
#include <cstring>

namespace gc {
namespace kernels {

template <typename P> struct EpilogueBody {
  using Vec = typename P::Vec;
  static constexpr int64_t W = P::Width;
  static constexpr int64_t ChunkVecs = 512 / W;

  /// The part of the tile one pass of the step list covers: NR rows from
  /// R0, columns [C0, C0 + NC) as NV vectors; register vector I * NV + J
  /// holds row R0 + I, columns C0 + J * W onwards.
  struct Chunk {
    int64_t R0, NR, C0, NV, Tail;
    bool First, Last; // the row's first / last column chunk
    int64_t lanes(int64_t J) const { return J + 1 == NV ? Tail : W; }
  };

  static void run(const EpilogueDesc &D, void *const *Ptrs, int64_t Rows,
                  int64_t Cols, bool Accumulate) {
    if (Rows > 0 && Cols > 0)
      walk(D, Ptrs, Rows, Cols, Accumulate);
    for (const EpStep &S : D.Steps)
      if (S.PadRows > 0 && (S.Op == EpOp::StoreF32 || S.Op == EpOp::StoreU8 ||
                            S.Op == EpOp::StoreS8))
        zeroPadding(S, Ptrs[S.Arg], std::max<int64_t>(Rows, 0),
                    std::max<int64_t>(Cols, 0));
  }

private:
  static void walk(const EpilogueDesc &D, void *const *Ptrs, int64_t Rows,
                   int64_t Cols, bool Accumulate) {
    const int64_t RowVecs = (Cols + W - 1) / W;
    const int64_t Vpr = std::min(RowVecs, ChunkVecs);
    const int64_t ChunkRows = std::max<int64_t>(1, ChunkVecs / Vpr);
    Vec Regs[kEpilogueMaxRegs][ChunkVecs];
    // Running row accumulators of each reduction step across the column
    // chunks of a wide row.
    Vec Red[kEpilogueMaxReductions][ChunkVecs];
    for (int64_t R0 = 0; R0 < Rows; R0 += ChunkRows) {
      for (int64_t C0 = 0; C0 < Cols; C0 += Vpr * W) {
        Chunk K;
        K.R0 = R0;
        K.NR = std::min(ChunkRows, Rows - R0);
        K.C0 = C0;
        const int64_t NC = std::min(Vpr * W, Cols - C0);
        K.NV = (NC + W - 1) / W;
        K.Tail = NC - (K.NV - 1) * W;
        K.First = C0 == 0;
        K.Last = C0 + NC == Cols;
        int RedIdx = 0;
        for (const EpStep &S : D.Steps)
          step(S, K, Ptrs, Regs, Red, RedIdx, Accumulate);
      }
    }
  }

  /// Calls F(X, Off, N) for every vector of the chunk: X its register
  /// index, Off its element offset in a tile with leading dimension Ld, N
  /// its lanes (Width but for a row's tail). The chunk geometry is copied
  /// into locals so stores through the (may-alias) vector type do not
  /// force reloads of it.
  template <typename Fn>
  static inline void forTile(const Chunk &K, int64_t Ld, Fn F) {
    const int64_t NR = K.NR, NV = K.NV, Tail = K.Tail;
    const int64_t NFull = Tail == W ? NV : NV - 1;
    int64_t RowOff = K.R0 * Ld + K.C0;
    for (int64_t I = 0, X = 0; I < NR; ++I, RowOff += Ld) {
      for (int64_t J = 0; J < NFull; ++J, ++X)
        F(X, RowOff + J * W, W);
      if (NFull < NV)
        F(X++, RowOff + NFull * W, Tail);
    }
  }

  template <typename Fn>
  static inline void mapUnary(const EpStep &S, const Chunk &K,
                              Vec (&Regs)[kEpilogueMaxRegs][ChunkVecs], Fn F) {
    const int64_t N = K.NR * K.NV;
    Vec *Dst = Regs[S.Dst];
    const Vec *A = Regs[S.A];
    for (int64_t I = 0; I < N; ++I)
      Dst[I] = F(A[I]);
  }

  template <typename Fn>
  static inline void mapBinary(const EpStep &S, const Chunk &K,
                               void *const *Ptrs,
                               Vec (&Regs)[kEpilogueMaxRegs][ChunkVecs],
                               Fn F) {
    Vec *Dst = Regs[S.Dst];
    const Vec *A = Regs[S.A];
    switch (S.BKind) {
    case EpOperand::Reg: {
      const Vec *B = Regs[S.B];
      const int64_t N = K.NR * K.NV;
      for (int64_t I = 0; I < N; ++I)
        Dst[I] = F(A[I], B[I]);
      return;
    }
    case EpOperand::RowVec: {
      // A row vector reads as a tile with leading dimension 0.
      const float *V = static_cast<const float *>(Ptrs[S.Arg]);
      forTile(K, 0, [Dst, A, V, F](int64_t X, int64_t Off, int64_t N) {
        Dst[X] = F(A[X], P::loadN(V + Off, N));
      });
      return;
    }
    case EpOperand::ColVec:
    case EpOperand::ColVecRecip: {
      const float *V = static_cast<const float *>(Ptrs[S.Arg]) + K.R0;
      const bool Recip = S.BKind == EpOperand::ColVecRecip;
      const int64_t NR = K.NR, NV = K.NV;
      for (int64_t I = 0; I < NR; ++I) {
        const Vec Bv = P::set1(Recip ? 1.0f / V[I] : V[I]);
        for (int64_t J = I * NV, E = J + NV; J < E; ++J)
          Dst[J] = F(A[J], Bv);
      }
      return;
    }
    }
  }

  static void step(const EpStep &S, const Chunk &K, void *const *Ptrs,
                   Vec (&Regs)[kEpilogueMaxRegs][ChunkVecs],
                   Vec (&Red)[kEpilogueMaxReductions][ChunkVecs],
                   int &RedIdx, bool Accumulate) {
    Vec *Dst = Regs[S.Dst];
    switch (S.Op) {
    case EpOp::LoadF32: {
      const float *Src = static_cast<const float *>(Ptrs[S.Arg]);
      forTile(K, S.Ld, [Dst, Src](int64_t X, int64_t Off, int64_t N) {
        Dst[X] = P::loadN(Src + Off, N);
      });
      return;
    }
    case EpOp::LoadAcc: {
      const int32_t *Src = static_cast<const int32_t *>(Ptrs[S.Arg]);
      // The compensation and scale vectors are indexed by column.
      const int64_t Ld = S.Ld, C0 = K.C0, R0 = K.R0;
      const int32_t Zp = S.Zp;
      const int32_t *Comp =
          Zp != 0 ? static_cast<const int32_t *>(Ptrs[S.Arg2]) : nullptr;
      const float *Scale = static_cast<const float *>(Ptrs[S.Arg3]);
      for (int64_t I = 0; I < K.NR; ++I) {
        const int32_t *Row = Src + (R0 + I) * Ld + C0;
        Vec *D = Dst + I * K.NV;
        for (int64_t J = 0, NV = K.NV; J < NV; ++J) {
          const int64_t C = C0 + J * W;
          D[J] = P::loadAcc(Row + J * W, Comp ? Comp + C : nullptr, Zp,
                            Scale + C, K.lanes(J));
        }
      }
      return;
    }
    case EpOp::LoadU8: {
      const uint8_t *Src = static_cast<const uint8_t *>(Ptrs[S.Arg]);
      const int32_t Zp = S.Zp;
      const float Scale = S.F0;
      forTile(K, S.Ld, [Dst, Src, Zp, Scale](int64_t X, int64_t Off,
                                            int64_t N) {
        Dst[X] = P::loadU8(Src + Off, Zp, Scale, N);
      });
      return;
    }
    case EpOp::LoadS32: {
      const int32_t *Src = static_cast<const int32_t *>(Ptrs[S.Arg]);
      const float Scale = S.F0;
      forTile(K, S.Ld, [Dst, Src, Scale](int64_t X, int64_t Off, int64_t N) {
        Dst[X] = P::loadS32(Src + Off, Scale, N);
      });
      return;
    }
    case EpOp::Relu:
      return mapUnary(S, K, Regs, [](Vec A) { return P::relu(A); });
    case EpOp::Exp:
      return mapUnary(S, K, Regs, [](Vec A) { return P::exp(A); });
    case EpOp::Tanh:
      return mapUnary(S, K, Regs, [](Vec A) { return P::tanh(A); });
    case EpOp::Sqrt:
      return mapUnary(S, K, Regs, [](Vec A) { return P::sqrt(A); });
    case EpOp::Recip:
      return mapUnary(S, K, Regs, [](Vec A) { return P::recip(A); });
    case EpOp::Square:
      return mapUnary(S, K, Regs, [](Vec A) { return P::square(A); });
    case EpOp::Sigmoid:
      return mapUnary(S, K, Regs, [](Vec A) { return P::sigmoid(A); });
    case EpOp::Affine: {
      const Vec Av = P::set1(S.F0), Bv = P::set1(S.F1);
      return mapUnary(S, K, Regs,
                      [Av, Bv](Vec A) { return P::affine(A, Av, Bv); });
    }
    case EpOp::Quant: {
      const float InvScale = S.F0;
      const int32_t Zp = S.Zp;
      const bool Signed = S.Signed;
      return mapUnary(S, K, Regs, [InvScale, Zp, Signed](Vec A) {
        return P::quant(A, InvScale, Zp, Signed);
      });
    }
    case EpOp::Dequant: {
      const float Scale = S.F0;
      const int32_t Zp = S.Zp;
      return mapUnary(S, K, Regs,
                      [Scale, Zp](Vec A) { return P::dequant(A, Zp, Scale); });
    }
    case EpOp::Add:
      return mapBinary(S, K, Ptrs, Regs,
                       [](Vec A, Vec B) { return P::add(A, B); });
    case EpOp::Sub:
      return mapBinary(S, K, Ptrs, Regs,
                       [](Vec A, Vec B) { return P::sub(A, B); });
    case EpOp::Mul:
      return mapBinary(S, K, Ptrs, Regs,
                       [](Vec A, Vec B) { return P::mul(A, B); });
    case EpOp::Div:
      return mapBinary(S, K, Ptrs, Regs,
                       [](Vec A, Vec B) { return P::div(A, B); });
    case EpOp::Max:
      return mapBinary(S, K, Ptrs, Regs,
                       [](Vec A, Vec B) { return P::max(A, B); });
    case EpOp::Min:
      return mapBinary(S, K, Ptrs, Regs,
                       [](Vec A, Vec B) { return P::min(A, B); });
    case EpOp::ReduceSum:
    case EpOp::ReduceMax: {
      const bool Sum = S.Op == EpOp::ReduceSum;
      float *Out = static_cast<float *>(Ptrs[S.Arg]);
      Vec *Acc = Red[RedIdx++];
      const Vec *A = Regs[S.A];
      for (int64_t I = 0; I < K.NR; ++I) {
        Vec V = K.First ? (Sum ? P::sumInit() : P::maxInit()) : Acc[I];
        for (int64_t J = 0; J < K.NV; ++J) {
          const bool First = K.First && J == 0;
          V = Sum ? P::sumStep(V, A[I * K.NV + J], K.lanes(J), First)
                  : P::maxStep(V, A[I * K.NV + J], K.lanes(J), First);
        }
        if (!K.Last) {
          Acc[I] = V;
          continue;
        }
        float &O = Out[K.R0 + I];
        const float R = Sum ? P::sumFinal(V) : P::maxFinal(V);
        O = !Accumulate ? R : Sum ? O + R : P::maxCombine(O, R);
      }
      return;
    }
    case EpOp::StoreF32: {
      float *Out = static_cast<float *>(Ptrs[S.Arg]);
      const Vec *A = Regs[S.A];
      forTile(K, S.Ld, [A, Out](int64_t X, int64_t Off, int64_t N) {
        P::storeN(A[X], Out + Off, N);
      });
      return;
    }
    case EpOp::StoreU8:
    case EpOp::StoreS8: {
      uint8_t *Out = static_cast<uint8_t *>(Ptrs[S.Arg]);
      const Vec *A = Regs[S.A];
      const bool Signed = S.Op == EpOp::StoreS8;
      const float InvScale = S.F0;
      const int32_t Zp = Signed ? 0 : S.Zp;
      forTile(K, S.Ld, [A, Out, InvScale, Zp, Signed](int64_t X, int64_t Off,
                                                      int64_t N) {
        P::storeQuant(A[X], Out + Off, InvScale, Zp, Signed, N);
      });
      return;
    }
    }
  }

  /// Zeroes the part of a blocked store's PadRows x PadCols block outside
  /// the Rows x Cols tile.
  static void zeroPadding(const EpStep &S, void *Base, int64_t Rows,
                          int64_t Cols) {
    const int64_t Elem = S.Op == EpOp::StoreF32 ? 4 : 1;
    char *B = static_cast<char *>(Base);
    for (int64_t R = 0; R < S.PadRows; ++R) {
      const int64_t From = R < Rows ? std::min(Cols, S.PadCols) : 0;
      if (From < S.PadCols)
        std::memset(B + (R * S.Ld + From) * Elem, 0,
                    static_cast<size_t>((S.PadCols - From) * Elem));
    }
  }
};

} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_EPILOGUE_BODY_H
