//===- brgemm_avx512vnni.cpp - AVX-512 VNNI u8s8s32 brgemm tier ---------------===//
//
// The dpbusd-based u8s8s32 kernel, compiled with -mavx512vnni on top of the
// AVX-512 flags. Each panel is up to 6 rows x 64 columns over the
// VNNI-packed [K/4][N][4] B layout: 24 zmm accumulators, four B vectors
// per 4-deep k-group and one 4-byte A broadcast per row, so every
// broadcast feeds four dpbusd. brgemm_panel.h tiles C with these panels
// (masked N tail, smaller-row panels for the M tail). Integer
// accumulation is exact, so the result equals the portable loop's.
//
// Hosts with AVX-512 but no VNNI use the exact AVX2 emulation instead: the
// classic 512-bit maddubs emulation saturates at s16 for full-range u8
// activations, so it is deliberately not provided.
//
//===----------------------------------------------------------------------===//

#include "kernels/brgemm.h"
#include "kernels/brgemm_panel.h"

#if defined(__AVX512F__) && defined(__AVX512VNNI__)
#include <immintrin.h>

#include <cstring>

namespace gc {
namespace kernels {

namespace {

/// Acc += per-lane dot product of four u8 (A) by four s8 (B) values: one
/// vpdpbusd. Written as inline asm rather than _mm512_dpbusd_epi32 because
/// GCC 12 allocates that intrinsic's operands in zmm0-15 only: a
/// 24-accumulator panel then copies and spills accumulators on every
/// k-group. The "v" constraint admits all 32 zmm registers.
GC_PANEL_INLINE inline void dpbusd(__m512i &Acc, __m512i A, __m512i B) {
  __asm__("vpdpbusd %2, %1, %0" : "+v"(Acc) : "v"(A), "v"(B));
}

struct U8S8Panels {
  using ArgsT = BrgemmU8S8Args;

  /// Computes the MR x (NV * 16) s32 C panel at (MBase, NBase).
  template <int MR, int NV>
  static void panel(const ArgsT &Args, int64_t MBase, int64_t NBase,
                    __mmask16 LastMask) {
    __m512i Acc[MR][NV];
    unroll<MR>([&](auto R) GC_PANEL_INLINE {
      int32_t *CRow = Args.C + (MBase + R) * Args.Ldc + NBase;
      unroll<NV>([&](auto V) GC_PANEL_INLINE {
        Acc[R][V] = Args.InitC ? _mm512_setzero_si512()
                               : _mm512_maskz_loadu_epi32(
                                     vecMask(V, NV, LastMask), CRow + V * 16);
      });
    });
    const int64_t KGroups = Args.K / 4;
    // A k-group holds 4 interleaved k values per column, so 16 columns
    // are one 64-byte vector and the group strides NPadded * 4 bytes.
    const int64_t GroupBytes = Args.NPadded * 4;
    for (int64_t BI = 0; BI < Args.Batch; ++BI) {
      const uint8_t *ATile =
          Args.A + BI * Args.AStrideBatch + MBase * Args.Lda;
      const int8_t *BTile = Args.B + BI * Args.BStrideBatch + NBase * 4;
      for (int64_t KG = 0; KG < KGroups; ++KG) {
        const int8_t *BGroup = BTile + KG * GroupBytes;
        __m512i BVec[NV];
        unroll<NV>([&](auto V) GC_PANEL_INLINE {
          BVec[V] = _mm512_maskz_loadu_epi32(vecMask(V, NV, LastMask),
                                             BGroup + V * 64);
        });
        unroll<MR>([&](auto R) GC_PANEL_INLINE {
          int32_t APack = 0;
          std::memcpy(&APack, ATile + R * Args.Lda + KG * 4, sizeof(APack));
          const __m512i AVec = _mm512_set1_epi32(APack);
          unroll<NV>([&](auto V) GC_PANEL_INLINE {
            dpbusd(Acc[R][V], AVec, BVec[V]);
          });
        });
      }
    }
    unroll<MR>([&](auto R) GC_PANEL_INLINE {
      int32_t *CRow = Args.C + (MBase + R) * Args.Ldc + NBase;
      unroll<NV>([&](auto V) GC_PANEL_INLINE {
        _mm512_mask_storeu_epi32(CRow + V * 16, vecMask(V, NV, LastMask),
                                 Acc[R][V]);
      });
    });
  }
};

void brgemmU8S8Vnni(const BrgemmU8S8Args &Args) {
  brgemmPanels<U8S8Panels>(Args);
}

} // namespace

BrgemmU8S8Fn brgemmU8S8Avx512VnniFn() {
  const CpuFeatures &F = cpuFeatures();
  return (F.HasAvx512f && F.HasAvx512bw && F.HasAvx512vl &&
          F.HasAvx512Vnni)
             ? brgemmU8S8Vnni
             : nullptr;
}

} // namespace kernels
} // namespace gc

#else // !(__AVX512F__ && __AVX512VNNI__)

namespace gc {
namespace kernels {
BrgemmU8S8Fn brgemmU8S8Avx512VnniFn() { return nullptr; }
} // namespace kernels
} // namespace gc

#endif
