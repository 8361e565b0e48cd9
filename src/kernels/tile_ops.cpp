//===- tile_ops.cpp - Tile-granularity fusible-op kernels ---------------------===//
//
// The f32 tile ops and the quantization bridges dispatch through a per-tier
// function table: the scalar bodies below (libm per element,
// GCC-autovectorized loops) are the GC_KERNELS=scalar reference oracle, and
// the AVX2 / AVX-512 tables in tile_ops_avx2.cpp / tile_ops_avx512.cpp
// carry the simd.h-based rewrites with polynomial transcendentals and
// vector converts. The active table is chosen once per process from
// runtime CPUID capped by GC_KERNELS.
//
// The bridges are per tier because conversion-bound loops do not saturate
// at the baseline ISA: the scalar quantize calls libm lrintf once per
// element, and on an AVX-512 VNNI Xeon the AVX-512 body quantizes a
// 32 x 64 tile ~30x faster (0.083 vs 2.45 ns per element). Data movement
// stays shared across tiers (it is memcpy-bound).
//
//===----------------------------------------------------------------------===//

#include "kernels/tile_ops.h"

#include "kernels/epilogue_body.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gc {
namespace kernels {

namespace {

//===----------------------------------------------------------------------===//
// Scalar oracle element functions, shared by the per-op loops below and
// the scalar instance of the fused epilogue
//===----------------------------------------------------------------------===//

namespace elem {
inline float relu(float X) { return X > 0.0f ? X : 0.0f; }
inline float exp(float X) { return std::exp(X); }
inline float tanh(float X) { return std::tanh(X); }
inline float sqrt(float X) { return std::sqrt(X); }
inline float recip(float X) { return 1.0f / X; }
inline float affine(float X, float A, float B) { return X * A + B; }
inline float sigmoid(float X) { return 1.0f / (1.0f + std::exp(-X)); }
inline float square(float X) { return X * X; }
inline float max(float X, float Y) { return std::max(X, Y); }
inline float min(float X, float Y) { return std::min(X, Y); }
inline float dequantAcc(int32_t Acc, const int32_t *Comp, int32_t AZp,
                        float Scale) {
  return Comp && AZp != 0 ? static_cast<float>(Acc - AZp * *Comp) * Scale
                          : static_cast<float>(Acc) * Scale;
}
inline float dequant(int32_t Q, int32_t Zp, float Scale) {
  return static_cast<float>(Q - Zp) * Scale;
}
/// round(clamp(X * InvScale, Lo - Zp, Hi - Zp)) + Zp, rounding half to
/// even. Clamping in float before rounding saturates every magnitude (a
/// round-then-clamp would overflow int32 past 2^31 and wrap); for in-range
/// values the two orders agree because Lo - Zp and Hi - Zp are integers.
template <typename T>
inline T quantize(float X, float InvScale, int32_t Zp, int32_t Lo,
                  int32_t Hi) {
  const float LoF = static_cast<float>(int64_t{Lo} - Zp);
  const float HiF = static_cast<float>(int64_t{Hi} - Zp);
  const float C = std::min(std::max(X * InvScale, LoF), HiF);
  return static_cast<T>(static_cast<int32_t>(std::lrintf(C)) + Zp);
}
} // namespace elem

/// The fused epilogue's scalar element policy: width 1, the oracle's
/// element functions, and the oracle reductions' order (the row max
/// starts from the first element, the sum from +0).
struct ScalarEpPolicy {
  using Vec = float;
  static constexpr int64_t Width = 1;

  static float set1(float X) { return X; }
  static float loadN(const float *P, int64_t) { return *P; }
  static void storeN(float X, float *P, int64_t) { *P = X; }
  static float loadAcc(const int32_t *Src, const int32_t *Comp, int32_t Zp,
                       const float *Scale, int64_t) {
    return elem::dequantAcc(*Src, Comp, Zp, *Scale);
  }
  static float loadU8(const uint8_t *Src, int32_t Zp, float Scale, int64_t) {
    return elem::dequant(static_cast<int32_t>(*Src), Zp, Scale);
  }
  static float loadS32(const int32_t *Src, float Scale, int64_t) {
    return static_cast<float>(*Src) * Scale;
  }
  static float relu(float X) { return elem::relu(X); }
  static float exp(float X) { return elem::exp(X); }
  static float tanh(float X) { return elem::tanh(X); }
  static float sqrt(float X) { return elem::sqrt(X); }
  static float recip(float X) { return elem::recip(X); }
  static float square(float X) { return elem::square(X); }
  static float sigmoid(float X) { return elem::sigmoid(X); }
  static float affine(float X, float A, float B) {
    return elem::affine(X, A, B);
  }
  static float add(float A, float B) { return A + B; }
  static float sub(float A, float B) { return A - B; }
  static float mul(float A, float B) { return A * B; }
  static float div(float A, float B) { return A / B; }
  static float max(float A, float B) { return elem::max(A, B); }
  static float min(float A, float B) { return elem::min(A, B); }
  static float quant(float X, float InvScale, int32_t Zp, bool Signed) {
    return Signed ? static_cast<float>(
                        elem::quantize<int8_t>(X, InvScale, 0, -128, 127))
                  : static_cast<float>(
                        elem::quantize<uint8_t>(X, InvScale, Zp, 0, 255));
  }
  static float dequant(float X, int32_t Zp, float Scale) {
    return elem::dequant(static_cast<int32_t>(X), Zp, Scale);
  }
  static void storeQuant(float X, uint8_t *Dst, float InvScale, int32_t Zp,
                         bool Signed, int64_t) {
    if (Signed)
      *reinterpret_cast<int8_t *>(Dst) =
          elem::quantize<int8_t>(X, InvScale, 0, -128, 127);
    else
      *Dst = elem::quantize<uint8_t>(X, InvScale, Zp, 0, 255);
  }
  static float sumInit() { return 0.0f; }
  static float sumStep(float Acc, float X, int64_t, bool) { return Acc + X; }
  static float sumFinal(float Acc) { return Acc; }
  static float maxInit() { return 0.0f; }
  static float maxStep(float Acc, float X, int64_t, bool First) {
    return First ? X : elem::max(Acc, X);
  }
  static float maxFinal(float Acc) { return Acc; }
  static float maxCombine(float Out, float Max) { return elem::max(Out, Max); }
};

template <typename Fn> void forEachRow(const TileF32 &X, Fn &&Body) {
  for (int64_t R = 0; R < X.Rows; ++R)
    Body(X.Data + R * X.Ld);
}

template <typename Fn>
void forEachRowPair(const TileF32 &X, const ConstTileF32 &Y, Fn &&Body) {
  for (int64_t R = 0; R < X.Rows; ++R)
    Body(X.Data + R * X.Ld, Y.Data + R * Y.Ld);
}

//===----------------------------------------------------------------------===//
// Scalar reference bodies (the GC_KERNELS=scalar oracle)
//===----------------------------------------------------------------------===//

void reluScalar(const TileF32 &X) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::relu(Row[C]);
  });
}

void expScalar(const TileF32 &X) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::exp(Row[C]);
  });
}

void tanhScalar(const TileF32 &X) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::tanh(Row[C]);
  });
}

void sqrtScalar(const TileF32 &X) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::sqrt(Row[C]);
  });
}

void recipScalar(const TileF32 &X) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::recip(Row[C]);
  });
}

void affineScalar(const TileF32 &X, float A, float B) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::affine(Row[C], A, B);
  });
}

void sigmoidScalar(const TileF32 &X) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::sigmoid(Row[C]);
  });
}

void squareScalar(const TileF32 &X) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = elem::square(Row[C]);
  });
}

void addScalar(const TileF32 &X, const ConstTileF32 &Y) {
  forEachRowPair(X, Y, [&](float *XR, const float *YR) {
    for (int64_t C = 0; C < X.Cols; ++C)
      XR[C] += YR[C];
  });
}

void subScalar(const TileF32 &X, const ConstTileF32 &Y) {
  forEachRowPair(X, Y, [&](float *XR, const float *YR) {
    for (int64_t C = 0; C < X.Cols; ++C)
      XR[C] -= YR[C];
  });
}

void mulScalar(const TileF32 &X, const ConstTileF32 &Y) {
  forEachRowPair(X, Y, [&](float *XR, const float *YR) {
    for (int64_t C = 0; C < X.Cols; ++C)
      XR[C] *= YR[C];
  });
}

void divScalar(const TileF32 &X, const ConstTileF32 &Y) {
  forEachRowPair(X, Y, [&](float *XR, const float *YR) {
    for (int64_t C = 0; C < X.Cols; ++C)
      XR[C] /= YR[C];
  });
}

void maxScalar(const TileF32 &X, const ConstTileF32 &Y) {
  forEachRowPair(X, Y, [&](float *XR, const float *YR) {
    for (int64_t C = 0; C < X.Cols; ++C)
      XR[C] = elem::max(XR[C], YR[C]);
  });
}

void minScalar(const TileF32 &X, const ConstTileF32 &Y) {
  forEachRowPair(X, Y, [&](float *XR, const float *YR) {
    for (int64_t C = 0; C < X.Cols; ++C)
      XR[C] = elem::min(XR[C], YR[C]);
  });
}

void addRowVecScalar(const TileF32 &X, const float *V) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] += V[C];
  });
}

void subRowVecScalar(const TileF32 &X, const float *V) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] -= V[C];
  });
}

void mulRowVecScalar(const TileF32 &X, const float *V) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] *= V[C];
  });
}

void addColVecScalar(const TileF32 &X, const float *V) {
  for (int64_t R = 0; R < X.Rows; ++R) {
    float *Row = X.Data + R * X.Ld;
    const float S = V[R];
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] += S;
  }
}

void subColVecScalar(const TileF32 &X, const float *V) {
  for (int64_t R = 0; R < X.Rows; ++R) {
    float *Row = X.Data + R * X.Ld;
    const float S = V[R];
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] -= S;
  }
}

void mulColVecScalar(const TileF32 &X, const float *V) {
  for (int64_t R = 0; R < X.Rows; ++R) {
    float *Row = X.Data + R * X.Ld;
    const float S = V[R];
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] *= S;
  }
}

void divColVecScalar(const TileF32 &X, const float *V) {
  for (int64_t R = 0; R < X.Rows; ++R) {
    float *Row = X.Data + R * X.Ld;
    const float S = 1.0f / V[R];
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] *= S;
  }
}

void reduceSumRowsScalar(const TileF32 &X, float *Out, bool Accumulate) {
  for (int64_t R = 0; R < X.Rows; ++R) {
    const float *Row = X.Data + R * X.Ld;
    float Sum = 0.0f;
    for (int64_t C = 0; C < X.Cols; ++C)
      Sum += Row[C];
    Out[R] = Accumulate ? Out[R] + Sum : Sum;
  }
}

void reduceMaxRowsScalar(const TileF32 &X, float *Out, bool Accumulate) {
  for (int64_t R = 0; R < X.Rows; ++R) {
    const float *Row = X.Data + R * X.Ld;
    float Max = Row[0];
    for (int64_t C = 1; C < X.Cols; ++C)
      Max = elem::max(Max, Row[C]);
    Out[R] = Accumulate ? elem::max(Out[R], Max) : Max;
  }
}

void fillScalar(const TileF32 &X, float Value) {
  forEachRow(X, [&](float *Row) {
    for (int64_t C = 0; C < X.Cols; ++C)
      Row[C] = Value;
  });
}

//===----------------------------------------------------------------------===//
// Quantization bridges (scalar oracle)
//===----------------------------------------------------------------------===//

void dequantAccScalar(float *Dst, int64_t DstLd, const int32_t *Src,
                      int64_t SrcLd, int64_t Rows, int64_t Cols,
                      const int32_t *Comp, int32_t AZp,
                      const float *ScaleVec) {
  // Symmetric activations (AZp == 0) take no zero-point compensation term.
  for (int64_t R = 0; R < Rows; ++R) {
    float *DRow = Dst + R * DstLd;
    const int32_t *SRow = Src + R * SrcLd;
    for (int64_t C = 0; C < Cols; ++C)
      DRow[C] = elem::dequantAcc(SRow[C], Comp ? Comp + C : nullptr, AZp,
                                 ScaleVec[C]);
  }
}

template <typename T>
void quantizeScalar(T *Dst, int64_t DstLd, const float *Src, int64_t SrcLd,
                    int64_t Rows, int64_t Cols, float InvScale, int32_t Zp,
                    int32_t Lo, int32_t Hi) {
  for (int64_t R = 0; R < Rows; ++R) {
    T *DRow = Dst + R * DstLd;
    const float *SRow = Src + R * SrcLd;
    for (int64_t C = 0; C < Cols; ++C)
      DRow[C] = elem::quantize<T>(SRow[C], InvScale, Zp, Lo, Hi);
  }
}

void quantizeU8Scalar(uint8_t *Dst, int64_t DstLd, const float *Src,
                      int64_t SrcLd, int64_t Rows, int64_t Cols,
                      float InvScale, int32_t Zp) {
  quantizeScalar(Dst, DstLd, Src, SrcLd, Rows, Cols, InvScale, Zp, 0, 255);
}

void quantizeS8Scalar(int8_t *Dst, int64_t DstLd, const float *Src,
                      int64_t SrcLd, int64_t Rows, int64_t Cols,
                      float InvScale) {
  quantizeScalar(Dst, DstLd, Src, SrcLd, Rows, Cols, InvScale, 0, -128, 127);
}

void dequantU8Scalar(float *Dst, int64_t DstLd, const uint8_t *Src,
                     int64_t SrcLd, int64_t Rows, int64_t Cols, float Scale,
                     int32_t Zp) {
  for (int64_t R = 0; R < Rows; ++R) {
    float *DRow = Dst + R * DstLd;
    const uint8_t *SRow = Src + R * SrcLd;
    for (int64_t C = 0; C < Cols; ++C)
      DRow[C] = elem::dequant(static_cast<int32_t>(SRow[C]), Zp, Scale);
  }
}

void dequantS8PerChannelScalar(float *Dst, int64_t DstLd, const int8_t *Src,
                               int64_t SrcLd, int64_t Rows, int64_t Cols,
                               const float *ScaleVec) {
  for (int64_t R = 0; R < Rows; ++R) {
    float *DRow = Dst + R * DstLd;
    const int8_t *SRow = Src + R * SrcLd;
    for (int64_t C = 0; C < Cols; ++C)
      DRow[C] = static_cast<float>(SRow[C]) * ScaleVec[C];
  }
}

void castS32F32Scalar(float *Dst, int64_t DstLd, const int32_t *Src,
                      int64_t SrcLd, int64_t Rows, int64_t Cols, float Scale) {
  for (int64_t R = 0; R < Rows; ++R) {
    float *DRow = Dst + R * DstLd;
    const int32_t *SRow = Src + R * SrcLd;
    for (int64_t C = 0; C < Cols; ++C)
      DRow[C] = static_cast<float>(SRow[C]) * Scale;
  }
}

const TileOpsTable ScalarTable = [] {
  TileOpsTable T;
  T.Relu = reluScalar;
  T.Exp = expScalar;
  T.Tanh = tanhScalar;
  T.Sqrt = sqrtScalar;
  T.Recip = recipScalar;
  T.Affine = affineScalar;
  T.Sigmoid = sigmoidScalar;
  T.Square = squareScalar;
  T.Add = addScalar;
  T.Sub = subScalar;
  T.Mul = mulScalar;
  T.Div = divScalar;
  T.Max = maxScalar;
  T.Min = minScalar;
  T.AddRowVec = addRowVecScalar;
  T.SubRowVec = subRowVecScalar;
  T.MulRowVec = mulRowVecScalar;
  T.AddColVec = addColVecScalar;
  T.SubColVec = subColVecScalar;
  T.MulColVec = mulColVecScalar;
  T.DivColVec = divColVecScalar;
  T.ReduceSumRows = reduceSumRowsScalar;
  T.ReduceMaxRows = reduceMaxRowsScalar;
  T.Fill = fillScalar;
  T.DequantAcc = dequantAccScalar;
  T.QuantizeU8 = quantizeU8Scalar;
  T.QuantizeS8 = quantizeS8Scalar;
  T.DequantU8 = dequantU8Scalar;
  T.DequantS8PerChannel = dequantS8PerChannelScalar;
  T.CastS32F32 = castS32F32Scalar;
  T.Epilogue = EpilogueBody<ScalarEpPolicy>::run;
  T.Name = "scalar";
  T.Tier = KernelTier::Scalar;
  return T;
}();

} // namespace

//===----------------------------------------------------------------------===//
// Tier dispatch
//===----------------------------------------------------------------------===//

// Providers from the ISA translation units; they return nullptr when the
// build lacks the target flags or the CPU lacks the instructions.
const TileOpsTable *tileOpsTableAvx2();
const TileOpsTable *tileOpsTableAvx512();

const TileOpsTable *tileOpsTable(KernelTier Tier) {
  switch (Tier) {
  case KernelTier::Scalar: return &ScalarTable;
  case KernelTier::Avx2: return tileOpsTableAvx2();
  case KernelTier::Avx512: return tileOpsTableAvx512();
  }
  return nullptr;
}

const TileOpsTable &activeTileOps() {
  static const TileOpsTable *Active = selectActiveKernel(tileOpsTable);
  return *Active;
}

//===----------------------------------------------------------------------===//
// Data movement (shared across tiers)
//===----------------------------------------------------------------------===//

void copyTile(const TileF32 &Dst, const ConstTileF32 &Src) {
  for (int64_t R = 0; R < Dst.Rows; ++R) {
    float *DRow = Dst.Data + R * Dst.Ld;
    const float *SRow = Src.Data + R * Src.Ld;
    for (int64_t C = 0; C < Dst.Cols; ++C)
      DRow[C] = SRow[C];
  }
}

void copyTileRaw(void *Dst, int64_t DstLd, const void *Src, int64_t SrcLd,
                 int64_t Rows, int64_t Cols, int64_t ElemSize) {
  for (int64_t R = 0; R < Rows; ++R)
    std::memcpy(static_cast<char *>(Dst) + R * DstLd * ElemSize,
                static_cast<const char *>(Src) + R * SrcLd * ElemSize,
                static_cast<size_t>(Cols * ElemSize));
}

void permute0213(void *Dst, const void *Src, int64_t A, int64_t B, int64_t C,
                 int64_t D, int64_t ElemSize) {
  const int64_t RowBytes = D * ElemSize;
  for (int64_t AI = 0; AI < A; ++AI)
    for (int64_t BI = 0; BI < B; ++BI)
      for (int64_t CI = 0; CI < C; ++CI)
        std::memcpy(static_cast<char *>(Dst) +
                        ((AI * C + CI) * B + BI) * RowBytes,
                    static_cast<const char *>(Src) +
                        ((AI * B + BI) * C + CI) * RowBytes,
                    static_cast<size_t>(RowBytes));
}

} // namespace kernels
} // namespace gc
