//===- simd.h - Width-generic f32 vector abstraction ------------*- C++ -*-===//
///
/// \file
/// A small width-generic vector layer the SIMD kernels are written against:
/// aligned-free loads/stores with masked tails, arithmetic + fma, min/max,
/// compares/blends, the bit tricks the polynomial transcendentals need
/// (abs/copysign, integral-power-of-two scaling) and horizontal reductions.
///
/// Two backends implement the same static interface:
///   VecF32Avx2     8 lanes, compiled only in TUs built with -mavx2 -mfma
///   VecF32Avx512  16 lanes, compiled only in TUs built with -mavx512f ...
///
/// Kernel bodies are templates over the backend (see tile_ops_simd.h,
/// simd_math.h); each ISA translation unit instantiates them with its
/// backend, so one source describes every SIMD width — the reproduction's
/// analogue of the paper's per-ISA Xbyak templates. The scalar tier needs
/// no backend: its kernels are plain loops over libm (tile_ops.cpp).
///
/// Masks: `Mask` is backend-specific (__m256 / __mmask16). Kernels
/// treat it as opaque and only pass it to blend().
///
/// The AVX2 and AVX-512 backends also carry the integer side of the
/// quantization bridges: an `Int` vector of s32 lanes (one per f32 lane),
/// widening u8/s8/s32 loads, s32 add/sub/mul, the two converts and a
/// truncating narrow to bytes. The converts round under the default MXCSR
/// mode (to nearest, ties to even), as static_cast<float>(int32_t) and
/// lrintf do, so the bridges match the scalar oracle bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_SIMD_H
#define GC_KERNELS_SIMD_H

#include <cstdint>
#include <cstring>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace gc {
namespace kernels {
namespace simd {

//===----------------------------------------------------------------------===//
// AVX2 backend (width 8) — only in TUs compiled with -mavx2 -mfma.
//===----------------------------------------------------------------------===//

#if defined(__AVX2__) && defined(__FMA__)

struct VecF32Avx2 {
  __m256 V;
  static constexpr int64_t Width = 8;
  using Mask = __m256; ///< cmp result; all-ones lanes select A in blend().

  /// Per-lane i32 mask with lanes [0, N) active (maskload/maskstore form).
  static __m256i tailMask(int64_t N) {
    const __m256i Idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(N)), Idx);
  }

  static VecF32Avx2 set1(float X) { return {_mm256_set1_ps(X)}; }
  static VecF32Avx2 zero() { return {_mm256_setzero_ps()}; }
  static VecF32Avx2 load(const float *P) { return {_mm256_loadu_ps(P)}; }
  static VecF32Avx2 loadPartial(const float *P, int64_t N) {
    return {_mm256_maskload_ps(P, tailMask(N))};
  }
  static VecF32Avx2 loadPartialFill(const float *P, int64_t N, float Fill) {
    const __m256i M = tailMask(N);
    const __m256 L = _mm256_maskload_ps(P, M);
    return {_mm256_blendv_ps(_mm256_set1_ps(Fill), L, _mm256_castsi256_ps(M))};
  }
  void store(float *P) const { _mm256_storeu_ps(P, V); }
  void storePartial(float *P, int64_t N) const {
    _mm256_maskstore_ps(P, tailMask(N), V);
  }

  static VecF32Avx2 add(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_add_ps(A.V, B.V)};
  }
  static VecF32Avx2 sub(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_sub_ps(A.V, B.V)};
  }
  static VecF32Avx2 mul(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_mul_ps(A.V, B.V)};
  }
  static VecF32Avx2 div(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_div_ps(A.V, B.V)};
  }
  static VecF32Avx2 min_(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_min_ps(A.V, B.V)};
  }
  static VecF32Avx2 max_(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_max_ps(A.V, B.V)};
  }
  static VecF32Avx2 fma(VecF32Avx2 A, VecF32Avx2 B, VecF32Avx2 C) {
    return {_mm256_fmadd_ps(A.V, B.V, C.V)};
  }
  static VecF32Avx2 sqrt_(VecF32Avx2 A) { return {_mm256_sqrt_ps(A.V)}; }
  static VecF32Avx2 round(VecF32Avx2 A) {
    return {_mm256_round_ps(A.V, _MM_FROUND_TO_NEAREST_INT |
                                     _MM_FROUND_NO_EXC)};
  }
  static VecF32Avx2 abs(VecF32Avx2 A) {
    return andBits(A, bitsConst(0x7fffffffu));
  }
  static VecF32Avx2 neg(VecF32Avx2 A) {
    return {_mm256_xor_ps(A.V, bitsConst(0x80000000u).V)};
  }

  static VecF32Avx2 andBits(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_and_ps(A.V, B.V)};
  }
  static VecF32Avx2 orBits(VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_or_ps(A.V, B.V)};
  }
  static VecF32Avx2 bitsConst(uint32_t Bits) {
    return {_mm256_castsi256_ps(
        _mm256_set1_epi32(static_cast<int>(Bits)))};
  }

  static VecF32Avx2 keepFirst(VecF32Avx2 A, int64_t N, float Fill) {
    return {_mm256_blendv_ps(_mm256_set1_ps(Fill), A.V,
                             _mm256_castsi256_ps(tailMask(N)))};
  }

  static Mask ltMask(VecF32Avx2 A, VecF32Avx2 B) {
    return _mm256_cmp_ps(A.V, B.V, _CMP_LT_OQ);
  }
  static Mask isNanMask(VecF32Avx2 A) {
    return _mm256_cmp_ps(A.V, A.V, _CMP_UNORD_Q);
  }
  static VecF32Avx2 blend(Mask M, VecF32Avx2 A, VecF32Avx2 B) {
    return {_mm256_blendv_ps(B.V, A.V, M)};
  }

  static VecF32Avx2 ldexpFast(VecF32Avx2 R, VecF32Avx2 NF) {
    // Split n into two halves so 2^half stays a normal float even for
    // n in [-151, 130]; multiplying twice denormalizes gradually.
    const __m256i N = _mm256_cvtps_epi32(NF.V);
    const __m256i N1 = _mm256_srai_epi32(N, 1);
    const __m256i N2 = _mm256_sub_epi32(N, N1);
    const __m256i Bias = _mm256_set1_epi32(127);
    const __m256 S1 = _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(N1, Bias), 23));
    const __m256 S2 = _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(N2, Bias), 23));
    return {_mm256_mul_ps(_mm256_mul_ps(R.V, S1), S2)};
  }

  // ---- s32 lanes (quantization bridges) -------------------------------
  // Loads and stores take a lane count N: N >= Width moves a full vector,
  // a smaller N only the first N lanes (the other loaded lanes are zero).

  using Int = __m256i;

  static Int setInt(int32_t X) { return _mm256_set1_epi32(X); }
  static Int loadS32(const int32_t *P, int64_t N) {
    return N >= Width
               ? _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P))
               : _mm256_maskload_epi32(P, tailMask(N));
  }
  static Int loadU8(const uint8_t *P, int64_t N) {
    return _mm256_cvtepu8_epi32(loadBytes(P, N));
  }
  static Int loadS8(const int8_t *P, int64_t N) {
    return _mm256_cvtepi8_epi32(loadBytes(P, N));
  }
  static Int addInt(Int A, Int B) { return _mm256_add_epi32(A, B); }
  static Int subInt(Int A, Int B) { return _mm256_sub_epi32(A, B); }
  static Int mulInt(Int A, Int B) { return _mm256_mullo_epi32(A, B); }
  static VecF32Avx2 fromInt(Int A) { return {_mm256_cvtepi32_ps(A)}; }
  /// Nearest integer, ties to even; lanes must lie within int32 range.
  static Int roundToInt(VecF32Avx2 A) { return _mm256_cvtps_epi32(A.V); }
  /// Stores the low byte of each lane (truncating narrow).
  static void storeBytes(uint8_t *P, Int A, int64_t N) {
    // Byte 0 of each lane, gathered into the low 8 bytes.
    const __m256i Pick = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i Picked = _mm256_shuffle_epi8(A, Pick);
    const __m128i Bytes = _mm_unpacklo_epi32(
        _mm256_castsi256_si128(Picked), _mm256_extracti128_si256(Picked, 1));
    if (N >= Width) {
      _mm_storel_epi64(reinterpret_cast<__m128i *>(P), Bytes);
    } else {
      const int64_t Low = _mm_cvtsi128_si64(Bytes);
      std::memcpy(P, &Low, static_cast<size_t>(N));
    }
  }

  float hsum() const {
    const __m128 Lo = _mm256_castps256_ps128(V);
    const __m128 Hi = _mm256_extractf128_ps(V, 1);
    __m128 S = _mm_add_ps(Lo, Hi);
    S = _mm_add_ps(S, _mm_movehl_ps(S, S));
    S = _mm_add_ss(S, _mm_movehdup_ps(S));
    return _mm_cvtss_f32(S);
  }
  float hmax() const {
    const __m128 Lo = _mm256_castps256_ps128(V);
    const __m128 Hi = _mm256_extractf128_ps(V, 1);
    __m128 M = _mm_max_ps(Lo, Hi);
    M = _mm_max_ps(M, _mm_movehl_ps(M, M));
    M = _mm_max_ss(M, _mm_movehdup_ps(M));
    return _mm_cvtss_f32(M);
  }

private:
  /// The first min(N, 8) bytes at P in the low bytes of an xmm.
  static __m128i loadBytes(const void *P, int64_t N) {
    if (N >= Width)
      return _mm_loadl_epi64(static_cast<const __m128i *>(P));
    int64_t Bytes = 0;
    std::memcpy(&Bytes, P, static_cast<size_t>(N));
    return _mm_cvtsi64_si128(Bytes);
  }
};

#endif // __AVX2__ && __FMA__

//===----------------------------------------------------------------------===//
// AVX-512 backend (width 16) — only in TUs compiled with -mavx512f.
//===----------------------------------------------------------------------===//

#if defined(__AVX512F__)

struct VecF32Avx512 {
  __m512 V;
  static constexpr int64_t Width = 16;
  using Mask = __mmask16;

  static __mmask16 tailMask(int64_t N) {
    return N >= 16 ? static_cast<__mmask16>(0xffff)
                   : static_cast<__mmask16>((1u << N) - 1u);
  }

  static VecF32Avx512 set1(float X) { return {_mm512_set1_ps(X)}; }
  static VecF32Avx512 zero() { return {_mm512_setzero_ps()}; }
  static VecF32Avx512 load(const float *P) { return {_mm512_loadu_ps(P)}; }
  static VecF32Avx512 loadPartial(const float *P, int64_t N) {
    return {_mm512_maskz_loadu_ps(tailMask(N), P)};
  }
  static VecF32Avx512 loadPartialFill(const float *P, int64_t N, float Fill) {
    return {_mm512_mask_loadu_ps(_mm512_set1_ps(Fill), tailMask(N), P)};
  }
  void store(float *P) const { _mm512_storeu_ps(P, V); }
  void storePartial(float *P, int64_t N) const {
    _mm512_mask_storeu_ps(P, tailMask(N), V);
  }

  static VecF32Avx512 add(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_add_ps(A.V, B.V)};
  }
  static VecF32Avx512 sub(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_sub_ps(A.V, B.V)};
  }
  static VecF32Avx512 mul(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_mul_ps(A.V, B.V)};
  }
  static VecF32Avx512 div(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_div_ps(A.V, B.V)};
  }
  static VecF32Avx512 min_(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_min_ps(A.V, B.V)};
  }
  static VecF32Avx512 max_(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_max_ps(A.V, B.V)};
  }
  static VecF32Avx512 fma(VecF32Avx512 A, VecF32Avx512 B, VecF32Avx512 C) {
    return {_mm512_fmadd_ps(A.V, B.V, C.V)};
  }
  static VecF32Avx512 sqrt_(VecF32Avx512 A) { return {_mm512_sqrt_ps(A.V)}; }
  static VecF32Avx512 round(VecF32Avx512 A) {
    return {_mm512_roundscale_ps(A.V, _MM_FROUND_TO_NEAREST_INT |
                                          _MM_FROUND_NO_EXC)};
  }
  static VecF32Avx512 abs(VecF32Avx512 A) {
    return andBits(A, bitsConst(0x7fffffffu));
  }
  static VecF32Avx512 neg(VecF32Avx512 A) {
    return {_mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(A.V), _mm512_set1_epi32(INT32_MIN)))};
  }

  static VecF32Avx512 andBits(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_castsi512_ps(_mm512_and_si512(
        _mm512_castps_si512(A.V), _mm512_castps_si512(B.V)))};
  }
  static VecF32Avx512 orBits(VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_castsi512_ps(_mm512_or_si512(
        _mm512_castps_si512(A.V), _mm512_castps_si512(B.V)))};
  }
  static VecF32Avx512 bitsConst(uint32_t Bits) {
    return {_mm512_castsi512_ps(
        _mm512_set1_epi32(static_cast<int>(Bits)))};
  }

  static VecF32Avx512 keepFirst(VecF32Avx512 A, int64_t N, float Fill) {
    return {_mm512_mask_blend_ps(tailMask(N), _mm512_set1_ps(Fill), A.V)};
  }

  static Mask ltMask(VecF32Avx512 A, VecF32Avx512 B) {
    return _mm512_cmp_ps_mask(A.V, B.V, _CMP_LT_OQ);
  }
  static Mask isNanMask(VecF32Avx512 A) {
    return _mm512_cmp_ps_mask(A.V, A.V, _CMP_UNORD_Q);
  }
  static VecF32Avx512 blend(Mask M, VecF32Avx512 A, VecF32Avx512 B) {
    return {_mm512_mask_blend_ps(M, B.V, A.V)};
  }

  static VecF32Avx512 ldexpFast(VecF32Avx512 R, VecF32Avx512 NF) {
    const __m512i N = _mm512_cvtps_epi32(NF.V);
    const __m512i N1 = _mm512_srai_epi32(N, 1);
    const __m512i N2 = _mm512_sub_epi32(N, N1);
    const __m512i Bias = _mm512_set1_epi32(127);
    const __m512 S1 = _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_add_epi32(N1, Bias), 23));
    const __m512 S2 = _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_add_epi32(N2, Bias), 23));
    return {_mm512_mul_ps(_mm512_mul_ps(R.V, S1), S2)};
  }

  // ---- s32 lanes (quantization bridges) -------------------------------
  // Loads and stores take a lane count N: N >= Width moves a full vector,
  // a smaller N only the first N lanes (the other loaded lanes are zero).

  using Int = __m512i;

  static Int setInt(int32_t X) { return _mm512_set1_epi32(X); }
  static Int loadS32(const int32_t *P, int64_t N) {
    return _mm512_maskz_loadu_epi32(tailMask(N), P);
  }
  static Int loadU8(const uint8_t *P, int64_t N) {
    return _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(tailMask(N), P));
  }
  static Int loadS8(const int8_t *P, int64_t N) {
    return _mm512_cvtepi8_epi32(_mm_maskz_loadu_epi8(tailMask(N), P));
  }
  static Int addInt(Int A, Int B) { return _mm512_add_epi32(A, B); }
  static Int subInt(Int A, Int B) { return _mm512_sub_epi32(A, B); }
  static Int mulInt(Int A, Int B) { return _mm512_mullo_epi32(A, B); }
  static VecF32Avx512 fromInt(Int A) { return {_mm512_cvtepi32_ps(A)}; }
  /// Nearest integer, ties to even; lanes must lie within int32 range.
  static Int roundToInt(VecF32Avx512 A) { return _mm512_cvtps_epi32(A.V); }
  /// Stores the low byte of each lane (truncating narrow, vpmovdb).
  static void storeBytes(uint8_t *P, Int A, int64_t N) {
    _mm512_mask_cvtepi32_storeu_epi8(P, tailMask(N), A);
  }

  float hsum() const { return _mm512_reduce_add_ps(V); }
  float hmax() const { return _mm512_reduce_max_ps(V); }
};

#endif // __AVX512F__

} // namespace simd
} // namespace kernels
} // namespace gc

#endif // GC_KERNELS_SIMD_H
