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

#include "kernels/epilogue_body.h"
#include "kernels/simd_math.h"
#include "kernels/tile_ops.h"

#include <cmath>
#include <limits>

namespace gc {
namespace kernels {

/// Element functions on a simd.h backend, shared by the per-op kernels
/// below and the fused epilogue (the element policy of epilogue_body.h),
/// so a fused step computes the per-op kernel's bytes.
template <typename V> struct SimdEpPolicy {
  using Vec = V;
  using Int = typename V::Int;
  static constexpr int64_t Width = V::Width;

  static V set1(float X) { return V::set1(X); }
  // f32 accessors in the form of the Int ones: N == Width takes the
  // full-vector form, anything less the masked one.
  static V loadN(const float *P, int64_t N) {
    return N == Width ? V::load(P) : V::loadPartial(P, N);
  }
  static void storeN(V X, float *P, int64_t N) {
    if (N == Width)
      X.store(P);
    else
      X.storePartial(P, N);
  }
  static V loadAcc(const int32_t *Src, const int32_t *Comp, int32_t Zp,
                   const float *Scale, int64_t N) {
    Int Acc = V::loadS32(Src, N);
    if (Comp)
      Acc = V::subInt(Acc, V::mulInt(V::setInt(Zp), V::loadS32(Comp, N)));
    return V::mul(V::fromInt(Acc), loadN(Scale, N));
  }
  static V loadU8(const uint8_t *Src, int32_t Zp, float Scale, int64_t N) {
    return V::mul(V::fromInt(V::subInt(V::loadU8(Src, N), V::setInt(Zp))),
                  V::set1(Scale));
  }
  static V loadS32(const int32_t *Src, float Scale, int64_t N) {
    return V::mul(V::fromInt(V::loadS32(Src, N)), V::set1(Scale));
  }

  static V relu(V A) { return V::max_(A, V::zero()); }
  static V exp(V A) { return simd::vexp(A); }
  static V tanh(V A) { return simd::vtanh(A); }
  static V sqrt(V A) { return V::sqrt_(A); }
  static V recip(V A) { return V::div(V::set1(1.0f), A); }
  static V square(V A) { return V::mul(A, A); }
  static V sigmoid(V A) { return simd::vsigmoid(A); }
  static V affine(V X, V A, V B) { return V::fma(X, A, B); }
  static V add(V A, V B) { return V::add(A, B); }
  static V sub(V A, V B) { return V::sub(A, B); }
  static V mul(V A, V B) { return V::mul(A, B); }
  static V div(V A, V B) { return V::div(A, B); }
  static V max(V A, V B) { return V::max_(A, B); }
  static V min(V A, V B) { return V::min_(A, B); }

  /// round(clamp(X * InvScale, Lo - Zp, Hi - Zp)) + Zp (quantizeBytes).
  static Int quantInt(V X, float InvScale, int32_t Zp, bool Signed) {
    const int32_t Lo = Signed ? -128 : 0, Hi = Signed ? 127 : 255;
    const V Scaled = V::mul(X, V::set1(InvScale));
    const V Clamped =
        V::min_(V::max_(Scaled, V::set1(static_cast<float>(int64_t{Lo} - Zp))),
                V::set1(static_cast<float>(int64_t{Hi} - Zp)));
    return V::addInt(V::roundToInt(Clamped), V::setInt(Zp));
  }
  static V quant(V X, float InvScale, int32_t Zp, bool Signed) {
    return V::fromInt(quantInt(X, InvScale, Zp, Signed));
  }
  static V dequant(V X, int32_t Zp, float Scale) {
    return V::mul(V::fromInt(V::subInt(V::roundToInt(X), V::setInt(Zp))),
                  V::set1(Scale));
  }
  static void storeQuant(V X, uint8_t *Dst, float InvScale, int32_t Zp,
                         bool Signed, int64_t N) {
    V::storeBytes(Dst, quantInt(X, InvScale, Zp, Signed), N);
  }

  static V sumInit() { return V::zero(); }
  static V sumStep(V Acc, V X, int64_t N, bool) {
    return V::add(Acc, N == Width ? X : V::keepFirst(X, N, 0.0f));
  }
  static float sumFinal(V Acc) { return Acc.hsum(); }
  static constexpr float NegInf = -std::numeric_limits<float>::infinity();
  static V maxInit() { return V::set1(NegInf); }
  static V maxStep(V Acc, V X, int64_t N, bool) {
    return V::max_(Acc, N == Width ? X : V::keepFirst(X, N, NegInf));
  }
  static float maxFinal(V Acc) { return Acc.hmax(); }
  static float maxCombine(float Out, float Max) {
    return Out > Max ? Out : Max;
  }
};

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

  using E = SimdEpPolicy<V>;

  static void dequantAcc(float *Dst, int64_t DstLd, const int32_t *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         const int32_t *Comp, int32_t AZp,
                         const float *ScaleVec) {
    // Symmetric activations (AZp == 0) take no compensation term.
    if (AZp == 0)
      Comp = nullptr;
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      E::storeN(E::loadAcc(Src + R * SrcLd + C, Comp ? Comp + C : nullptr,
                           AZp, ScaleVec + C, N),
                Dst + R * DstLd + C, N);
    });
  }

  /// Dst = round(clamp(Src * InvScale, Lo - Zp, Hi - Zp)) + Zp, one byte
  /// per element, [Lo, Hi] the u8 or (Signed) s8 range. Clamping before
  /// the convert keeps it in int32 range.
  static inline void quantizeBytes(uint8_t *Dst, int64_t DstLd,
                                   const float *Src, int64_t SrcLd,
                                   int64_t Rows, int64_t Cols, float InvScale,
                                   int32_t Zp, bool Signed) {
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      E::storeQuant(E::loadN(Src + R * SrcLd + C, N), Dst + R * DstLd + C,
                    InvScale, Zp, Signed, N);
    });
  }

  static void quantizeU8(uint8_t *Dst, int64_t DstLd, const float *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         float InvScale, int32_t Zp) {
    quantizeBytes(Dst, DstLd, Src, SrcLd, Rows, Cols, InvScale, Zp, false);
  }

  static void quantizeS8(int8_t *Dst, int64_t DstLd, const float *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         float InvScale) {
    quantizeBytes(reinterpret_cast<uint8_t *>(Dst), DstLd, Src, SrcLd, Rows,
                  Cols, InvScale, 0, true);
  }

  static void dequantU8(float *Dst, int64_t DstLd, const uint8_t *Src,
                        int64_t SrcLd, int64_t Rows, int64_t Cols, float Scale,
                        int32_t Zp) {
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      E::storeN(E::loadU8(Src + R * SrcLd + C, Zp, Scale, N),
                Dst + R * DstLd + C, N);
    });
  }

  static void dequantS8PerChannel(float *Dst, int64_t DstLd,
                                  const int8_t *Src, int64_t SrcLd,
                                  int64_t Rows, int64_t Cols,
                                  const float *ScaleVec) {
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      const V Q = V::fromInt(V::loadS8(Src + R * SrcLd + C, N));
      E::storeN(V::mul(Q, E::loadN(ScaleVec + C, N)), Dst + R * DstLd + C,
                N);
    });
  }

  static void castS32F32(float *Dst, int64_t DstLd, const int32_t *Src,
                         int64_t SrcLd, int64_t Rows, int64_t Cols,
                         float Scale) {
    forEachBlock(Rows, Cols, [&](int64_t R, int64_t C, int64_t N) {
      E::storeN(E::loadS32(Src + R * SrcLd + C, Scale, N),
                Dst + R * DstLd + C, N);
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
    T.Epilogue = EpilogueBody<SimdEpPolicy<V>>::run;
    T.Name = Name;
    T.Tier = Tier;
    return T;
  }
};

} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_TILE_OPS_SIMD_H
