//===- brgemm_avx512.cpp - AVX-512 FP32 batch-reduce GEMM tier ----------------===//
//
// The register-blocked FP32 kernel, compiled with -mavx512f (per-file flags
// in CMakeLists.txt). Each panel is up to 6 rows x 64 columns: 24 zmm
// accumulators, four B vectors per k step and one A broadcast per row, so
// every broadcast feeds four FMAs. brgemm_panel.h tiles C with these
// panels (masked N tail, smaller-row panels for the M tail). Every C
// element is accumulated in (batch, k) order with one fma per step, so the
// result is bit-identical to std::fmaf applied in that order.
//
// The u8s8s32 kernel of this tier lives in brgemm_avx512vnni.cpp: it needs
// dpbusd, and keeping it in a separate translation unit stops the compiler
// from pattern-matching VNNI instructions into code that runs on non-VNNI
// AVX-512 hosts.
//
//===----------------------------------------------------------------------===//

#include "kernels/brgemm.h"
#include "kernels/brgemm_panel.h"

#if defined(__AVX512F__)
#include <immintrin.h>

namespace gc {
namespace kernels {

namespace {

struct F32Panels {
  using ArgsT = BrgemmF32Args;

  /// Computes the MR x (NV * 16) C panel at (MBase, NBase).
  template <int MR, int NV>
  static void panel(const ArgsT &Args, int64_t MBase, int64_t NBase,
                    __mmask16 LastMask) {
    __m512 Acc[MR][NV];
    unroll<MR>([&](auto R) GC_PANEL_INLINE {
      float *CRow = Args.C + (MBase + R) * Args.Ldc + NBase;
      unroll<NV>([&](auto V) GC_PANEL_INLINE {
        Acc[R][V] = Args.InitC ? _mm512_setzero_ps()
                               : _mm512_maskz_loadu_ps(
                                     vecMask(V, NV, LastMask), CRow + V * 16);
      });
    });
    for (int64_t BI = 0; BI < Args.Batch; ++BI) {
      const float *ATile = Args.A + BI * Args.AStrideBatch + MBase * Args.Lda;
      const float *BTile = Args.B + BI * Args.BStrideBatch + NBase;
      for (int64_t KI = 0; KI < Args.K; ++KI) {
        const float *BRow = BTile + KI * Args.Ldb;
        __m512 BVec[NV];
        unroll<NV>([&](auto V) GC_PANEL_INLINE {
          BVec[V] =
              _mm512_maskz_loadu_ps(vecMask(V, NV, LastMask), BRow + V * 16);
        });
        unroll<MR>([&](auto R) GC_PANEL_INLINE {
          const __m512 AVec = _mm512_set1_ps(ATile[R * Args.Lda + KI]);
          unroll<NV>([&](auto V) GC_PANEL_INLINE {
            Acc[R][V] = _mm512_fmadd_ps(AVec, BVec[V], Acc[R][V]);
          });
        });
      }
    }
    unroll<MR>([&](auto R) GC_PANEL_INLINE {
      float *CRow = Args.C + (MBase + R) * Args.Ldc + NBase;
      unroll<NV>([&](auto V) GC_PANEL_INLINE {
        _mm512_mask_storeu_ps(CRow + V * 16, vecMask(V, NV, LastMask),
                              Acc[R][V]);
      });
    });
  }
};

void brgemmF32Avx512(const BrgemmF32Args &Args) {
  brgemmPanels<F32Panels>(Args);
}

} // namespace

BrgemmF32Fn brgemmF32Avx512Fn() {
  const CpuFeatures &F = cpuFeatures();
  return (F.HasAvx512f && F.HasAvx512bw && F.HasAvx512vl)
             ? brgemmF32Avx512
             : nullptr;
}

} // namespace kernels
} // namespace gc

#else // !__AVX512F__

namespace gc {
namespace kernels {
BrgemmF32Fn brgemmF32Avx512Fn() { return nullptr; }
} // namespace kernels
} // namespace gc

#endif
