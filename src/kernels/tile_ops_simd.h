//===- tile_ops_simd.h - Width-generic tile-op kernel bodies ----*- C++ -*-===//
///
/// \file
/// The vectorized bodies of the tile-op vocabulary (the f32 ops and the
/// quantization bridges), written once as templates over a simd.h backend.
/// Each ISA translation unit (tile_ops_avx2.cpp, tile_ops_avx512.cpp)
/// instantiates SimdTileOps with its backend and exports the resulting
/// TileOpsTable; tile_ops.cpp keeps the original scalar loops as the
/// GC_KERNELS=scalar reference oracle.
///
/// Every kernel walks full vector blocks and finishes the row with one
/// masked-tail block, so non-multiple-of-width column counts never touch
/// memory outside the tile (the tests assert the padding stays intact).
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_TILE_OPS_SIMD_H
#define GC_KERNELS_TILE_OPS_SIMD_H

#include "kernels/simd_math.h"
#include "kernels/tile_ops.h"

#include <cmath>
#include <limits>

namespace gc {
namespace kernels {

template <typename V> struct SimdTileOps {
  /// Applies \p F (V -> V) to every element of the tile in place.
  template <typename Fn> static inline void mapRows(const TileF32 &X, Fn F) {
    const int64_t W = V::Width;
    for (int64_t R = 0; R < X.Rows; ++R) {
      float *Row = X.Data + R * X.Ld;
      int64_t C = 0;
      for (; C + W <= X.Cols; C += W)
        F(V::load(Row + C)).store(Row + C);
      if (C < X.Cols)
        F(V::loadPartial(Row + C, X.Cols - C))
            .storePartial(Row + C, X.Cols - C);
    }
  }

  /// x[r][c] = F(x[r][c], y[r][c]).
  template <typename Fn>
  static inline void mapRowPairs(const TileF32 &X, const ConstTileF32 &Y,
                                 Fn F) {
    const int64_t W = V::Width;
    for (int64_t R = 0; R < X.Rows; ++R) {
      float *XR = X.Data + R * X.Ld;
      const float *YR = Y.Data + R * Y.Ld;
      int64_t C = 0;
      for (; C + W <= X.Cols; C += W)
        F(V::load(XR + C), V::load(YR + C)).store(XR + C);
      if (C < X.Cols)
        F(V::loadPartial(XR + C, X.Cols - C),
          V::loadPartial(YR + C, X.Cols - C))
            .storePartial(XR + C, X.Cols - C);
    }
  }

  /// x[r][c] = F(x[r][c], v[c]) — length-Cols vector broadcast over rows.
  template <typename Fn>
  static inline void mapRowVec(const TileF32 &X, const float *Vv, Fn F) {
    const int64_t W = V::Width;
    for (int64_t R = 0; R < X.Rows; ++R) {
      float *Row = X.Data + R * X.Ld;
      int64_t C = 0;
      for (; C + W <= X.Cols; C += W)
        F(V::load(Row + C), V::load(Vv + C)).store(Row + C);
      if (C < X.Cols)
        F(V::loadPartial(Row + C, X.Cols - C),
          V::loadPartial(Vv + C, X.Cols - C))
            .storePartial(Row + C, X.Cols - C);
    }
  }

  /// x[r][c] = F(x[r][c], s[r]) — per-row scalar broadcast over columns.
  template <typename Fn>
  static inline void mapColVec(const TileF32 &X, const float *Vv, Fn F) {
    const int64_t W = V::Width;
    for (int64_t R = 0; R < X.Rows; ++R) {
      float *Row = X.Data + R * X.Ld;
      const V S = V::set1(Vv[R]);
      int64_t C = 0;
      for (; C + W <= X.Cols; C += W)
        F(V::load(Row + C), S).store(Row + C);
      if (C < X.Cols)
        F(V::loadPartial(Row + C, X.Cols - C), S)
            .storePartial(Row + C, X.Cols - C);
    }
  }

  // ---- unary -----------------------------------------------------------

  static void relu(const TileF32 &X) {
    mapRows(X, [](V A) { return V::max_(A, V::zero()); });
  }
  static void exp(const TileF32 &X) {
    mapRows(X, [](V A) { return simd::vexp(A); });
  }
  static void tanh(const TileF32 &X) {
    mapRows(X, [](V A) { return simd::vtanh(A); });
  }
  static void sqrt(const TileF32 &X) {
    mapRows(X, [](V A) { return V::sqrt_(A); });
  }
  static void recip(const TileF32 &X) {
    mapRows(X, [](V A) { return V::div(V::set1(1.0f), A); });
  }
  static void affine(const TileF32 &X, float A, float B) {
    const V Av = V::set1(A), Bv = V::set1(B);
    mapRows(X, [Av, Bv](V Xv) { return V::fma(Xv, Av, Bv); });
  }
  static void geluTanh(const TileF32 &X) {
    mapRows(X, [](V A) { return simd::vgeluTanh(A); });
  }
  static void sigmoid(const TileF32 &X) {
    mapRows(X, [](V A) { return simd::vsigmoid(A); });
  }
  static void square(const TileF32 &X) {
    mapRows(X, [](V A) { return V::mul(A, A); });
  }

  // ---- binary ----------------------------------------------------------

  static void add(const TileF32 &X, const ConstTileF32 &Y) {
    mapRowPairs(X, Y, [](V A, V B) { return V::add(A, B); });
  }
  static void sub(const TileF32 &X, const ConstTileF32 &Y) {
    mapRowPairs(X, Y, [](V A, V B) { return V::sub(A, B); });
  }
  static void mul(const TileF32 &X, const ConstTileF32 &Y) {
    mapRowPairs(X, Y, [](V A, V B) { return V::mul(A, B); });
  }
  static void div(const TileF32 &X, const ConstTileF32 &Y) {
    mapRowPairs(X, Y, [](V A, V B) { return V::div(A, B); });
  }
  static void max(const TileF32 &X, const ConstTileF32 &Y) {
    mapRowPairs(X, Y, [](V A, V B) { return V::max_(A, B); });
  }
  static void min(const TileF32 &X, const ConstTileF32 &Y) {
    mapRowPairs(X, Y, [](V A, V B) { return V::min_(A, B); });
  }

  // ---- broadcast binary ------------------------------------------------

  static void addRowVec(const TileF32 &X, const float *Vv) {
    mapRowVec(X, Vv, [](V A, V B) { return V::add(A, B); });
  }
  static void subRowVec(const TileF32 &X, const float *Vv) {
    mapRowVec(X, Vv, [](V A, V B) { return V::sub(A, B); });
  }
  static void mulRowVec(const TileF32 &X, const float *Vv) {
    mapRowVec(X, Vv, [](V A, V B) { return V::mul(A, B); });
  }
  static void addColVec(const TileF32 &X, const float *Vv) {
    mapColVec(X, Vv, [](V A, V S) { return V::add(A, S); });
  }
  static void subColVec(const TileF32 &X, const float *Vv) {
    mapColVec(X, Vv, [](V A, V S) { return V::sub(A, S); });
  }
  static void mulColVec(const TileF32 &X, const float *Vv) {
    mapColVec(X, Vv, [](V A, V S) { return V::mul(A, S); });
  }
  static void divColVec(const TileF32 &X, const float *Vv) {
    // Same reciprocal-then-multiply semantics as the scalar oracle.
    const int64_t W = V::Width;
    for (int64_t R = 0; R < X.Rows; ++R) {
      float *Row = X.Data + R * X.Ld;
      const V S = V::set1(1.0f / Vv[R]);
      int64_t C = 0;
      for (; C + W <= X.Cols; C += W)
        V::mul(V::load(Row + C), S).store(Row + C);
      if (C < X.Cols)
        V::mul(V::loadPartial(Row + C, X.Cols - C), S)
            .storePartial(Row + C, X.Cols - C);
    }
  }

  // ---- reductions ------------------------------------------------------

  static void reduceSumRows(const TileF32 &X, float *Out, bool Accumulate) {
    const int64_t W = V::Width;
    for (int64_t R = 0; R < X.Rows; ++R) {
      const float *Row = X.Data + R * X.Ld;
      V Acc = V::zero();
      int64_t C = 0;
      for (; C + W <= X.Cols; C += W)
        Acc = V::add(Acc, V::load(Row + C));
      if (C < X.Cols)
        Acc = V::add(Acc, V::loadPartial(Row + C, X.Cols - C));
      const float Sum = Acc.hsum();
      Out[R] = Accumulate ? Out[R] + Sum : Sum;
    }
  }

  static void reduceMaxRows(const TileF32 &X, float *Out, bool Accumulate) {
    const int64_t W = V::Width;
    const float NegInf = -std::numeric_limits<float>::infinity();
    for (int64_t R = 0; R < X.Rows; ++R) {
      const float *Row = X.Data + R * X.Ld;
      V Acc = V::set1(NegInf);
      int64_t C = 0;
      for (; C + W <= X.Cols; C += W)
        Acc = V::max_(Acc, V::load(Row + C));
      if (C < X.Cols)
        Acc = V::max_(Acc, V::loadPartialFill(Row + C, X.Cols - C, NegInf));
      const float Max = Acc.hmax();
      Out[R] = Accumulate ? (Out[R] > Max ? Out[R] : Max) : Max;
    }
  }

  // ---- fill ------------------------------------------------------------

  static void fill(const TileF32 &X, float Value) {
    const V Vv = V::set1(Value);
    mapRows(X, [Vv](V) { return Vv; });
  }

  // ---- quantization bridges --------------------------------------------

  /// Calls F(R, C, N) for every row R < Rows and column block [C, C + N):
  /// full vectors (N == Width), then one masked tail.
  template <typename Fn>
  static inline void forEachBlock(int64_t Rows, int64_t Cols, Fn F) {
    const int64_t W = V::Width;
    for (int64_t R = 0; R < Rows; ++R) {
      int64_t C = 0;
      for (; C + W <= Cols; C += W)
        F(R, C, W);
      if (C < Cols)
        F(R, C, Cols - C);
    }
  }

  // f32 accessors in the form of the Int ones: N == Width takes the
  // full-vector form (constant folded in forEachBlock's full-block call),
  // anything less the masked one.
  static inline V loadN(const float *P, int64_t N) {
    return N == V::Width ? V::load(P) : V::loadPartial(P, N);
  }
  static inline void storeN(V X, float *P, int64_t N) {
    if (N == V::Width)
      X.store(P);
    else
      X.storePartial(P, N);
  }

  static void dequantAcc(float *Dst, int64_t DstLd, const int32_t *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         const int32_t *Comp, int32_t AZp,
                         const float *ScaleVec) {
    if (AZp == 0 || !Comp) {
      forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
        const V Acc = V::fromInt(V::loadS32(Src + R * SrcLd + C, N));
        storeN(V::mul(Acc, loadN(ScaleVec + C, N)), Dst + R * DstLd + C, N);
      });
      return;
    }
    const typename V::Int Zp = V::setInt(AZp);
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      const typename V::Int Adjusted =
          V::subInt(V::loadS32(Src + R * SrcLd + C, N),
                    V::mulInt(Zp, V::loadS32(Comp + C, N)));
      storeN(V::mul(V::fromInt(Adjusted), loadN(ScaleVec + C, N)),
             Dst + R * DstLd + C, N);
    });
  }

  /// Dst = round(clamp(Src * InvScale, Lo - Zp, Hi - Zp)) + Zp, one byte
  /// per element. Clamping before the convert keeps it in int32 range.
  static inline void quantizeBytes(uint8_t *Dst, int64_t DstLd,
                                   const float *Src, int64_t SrcLd,
                                   int64_t Rows, int64_t Cols, float InvScale,
                                   int32_t Zp, int32_t Lo, int32_t Hi) {
    const V Scale = V::set1(InvScale);
    const V LoV = V::set1(static_cast<float>(int64_t{Lo} - Zp));
    const V HiV = V::set1(static_cast<float>(int64_t{Hi} - Zp));
    const typename V::Int ZpV = V::setInt(Zp);
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      const V X = V::mul(loadN(Src + R * SrcLd + C, N), Scale);
      const V Clamped = V::min_(V::max_(X, LoV), HiV);
      V::storeBytes(Dst + R * DstLd + C,
                    V::addInt(V::roundToInt(Clamped), ZpV), N);
    });
  }

  static void quantizeU8(uint8_t *Dst, int64_t DstLd, const float *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         float InvScale, int32_t Zp) {
    quantizeBytes(Dst, DstLd, Src, SrcLd, Rows, Cols, InvScale, Zp, 0, 255);
  }

  static void quantizeS8(int8_t *Dst, int64_t DstLd, const float *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         float InvScale) {
    quantizeBytes(reinterpret_cast<uint8_t *>(Dst), DstLd, Src, SrcLd, Rows,
                  Cols, InvScale, 0, -128, 127);
  }

  static void dequantU8(float *Dst, int64_t DstLd, const uint8_t *Src,
                        int64_t SrcLd, int64_t Rows, int64_t Cols, float Scale,
                        int32_t Zp) {
    const V S = V::set1(Scale);
    const typename V::Int ZpV = V::setInt(Zp);
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      const typename V::Int Q =
          V::subInt(V::loadU8(Src + R * SrcLd + C, N), ZpV);
      storeN(V::mul(V::fromInt(Q), S), Dst + R * DstLd + C, N);
    });
  }

  static void dequantS8PerChannel(float *Dst, int64_t DstLd,
                                  const int8_t *Src, int64_t SrcLd,
                                  int64_t Rows, int64_t Cols,
                                  const float *ScaleVec) {
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      const V Q = V::fromInt(V::loadS8(Src + R * SrcLd + C, N));
      storeN(V::mul(Q, loadN(ScaleVec + C, N)), Dst + R * DstLd + C, N);
    });
  }

  static void castS32F32(float *Dst, int64_t DstLd, const int32_t *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         float Scale) {
    const V S = V::set1(Scale);
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      const V X = V::fromInt(V::loadS32(Src + R * SrcLd + C, N));
      storeN(V::mul(X, S), Dst + R * DstLd + C, N);
    });
  }

  // ---- table -----------------------------------------------------------

  static TileOpsTable table(const char *Name, KernelTier Tier) {
    TileOpsTable T;
    T.Relu = relu;
    T.Exp = exp;
    T.Tanh = tanh;
    T.Sqrt = sqrt;
    T.Recip = recip;
    T.Affine = affine;
    T.GeluTanh = geluTanh;
    T.Sigmoid = sigmoid;
    T.Square = square;
    T.Add = add;
    T.Sub = sub;
    T.Mul = mul;
    T.Div = div;
    T.Max = max;
    T.Min = min;
    T.AddRowVec = addRowVec;
    T.SubRowVec = subRowVec;
    T.MulRowVec = mulRowVec;
    T.AddColVec = addColVec;
    T.SubColVec = subColVec;
    T.MulColVec = mulColVec;
    T.DivColVec = divColVec;
    T.ReduceSumRows = reduceSumRows;
    T.ReduceMaxRows = reduceMaxRows;
    T.Fill = fill;
    T.DequantAcc = dequantAcc;
    T.QuantizeU8 = quantizeU8;
    T.QuantizeS8 = quantizeS8;
    T.DequantU8 = dequantU8;
    T.DequantS8PerChannel = dequantS8PerChannel;
    T.CastS32F32 = castS32F32;
    T.Name = Name;
    T.Tier = Tier;
    return T;
  }

  // ---- array math (SimdMathTable entries) ------------------------------

  template <typename Fn> static inline void mapArray(float *X, int64_t N, Fn F) {
    const int64_t W = V::Width;
    int64_t I = 0;
    for (; I + W <= N; I += W)
      F(V::load(X + I)).store(X + I);
    if (I < N)
      F(V::loadPartial(X + I, N - I)).storePartial(X + I, N - I);
  }

  static void expArray(float *X, int64_t N) {
    mapArray(X, N, [](V A) { return simd::vexp(A); });
  }
  static void tanhArray(float *X, int64_t N) {
    mapArray(X, N, [](V A) { return simd::vtanh(A); });
  }
  static void sigmoidArray(float *X, int64_t N) {
    mapArray(X, N, [](V A) { return simd::vsigmoid(A); });
  }
  static void geluTanhArray(float *X, int64_t N) {
    mapArray(X, N, [](V A) { return simd::vgeluTanh(A); });
  }
  static void erfArray(float *X, int64_t N) {
    mapArray(X, N, [](V A) { return simd::verf(A); });
  }

  static SimdMathTable mathTable(const char *Name) {
    SimdMathTable T;
    T.Exp = expArray;
    T.Tanh = tanhArray;
    T.Sigmoid = sigmoidArray;
    T.GeluTanh = geluTanhArray;
    T.Erf = erfArray;
    T.Name = Name;
    return T;
  }
};

} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_TILE_OPS_SIMD_H
