//===- brgemm_panel.h - Register-blocked AVX-512 brgemm panels --*- C++ -*-===//
///
/// \file
/// The C-tile walk shared by the AVX-512 brgemm kernels (f32 in
/// brgemm_avx512.cpp, u8s8s32 in brgemm_avx512vnni.cpp). Each kernel
/// supplies one panel body, `Kernel::panel<MR, NV>`, that computes an
/// MR x (NV * 16) C panel with MR * NV zmm accumulators held across the
/// whole batch x K reduction; this header tiles C with those panels.
///
///  * N is covered by panels kPanelVecs vectors (64 columns) wide; the last
///    panel narrows to the vectors it needs, and its last vector is masked.
///  * M is covered by kPanelRows-row panels. A remainder between one and
///    two panels is split into two near-equal panels (M = 32 -> 6, 6, 6,
///    6, 4, 4), so no panel is left with one or two rows at full width.
///
/// The panel bodies are fully unrolled through their template parameters
/// (unroll<N> below): indexed by compile-time constants, the accumulator
/// array is scalarized into registers. Left to a runtime loop, GCC keeps
/// it on the stack and the panel is slower than a 16-column one. The
/// unrolled lambdas are marked GC_PANEL_INLINE: inlined late, they leave
/// GCC 12 spilling accumulators of the 24-register panels on every k step.
///
/// Included only by translation units compiled with the AVX-512 flags;
/// everything here has internal linkage, so each TU gets its own copy
/// compiled for its own ISA.
///
//===----------------------------------------------------------------------===//

#ifndef GC_KERNELS_BRGEMM_PANEL_H
#define GC_KERNELS_BRGEMM_PANEL_H

#if defined(__AVX512F__)
#include <immintrin.h>

#include <array>
#include <cstdint>
#include <utility>

/// Forces inlining of the panel helpers and unrolled lambda bodies.
#define GC_PANEL_INLINE __attribute__((always_inline))

namespace gc {
namespace kernels {
namespace {

/// Rows of a full panel (MR).
constexpr int kPanelRows = 6;
/// 16-lane vectors across a full panel (NV): 64 columns.
constexpr int kPanelVecs = 4;

template <typename Fn, int... I>
GC_PANEL_INLINE inline void
unrollImpl(Fn &F, std::integer_sequence<int, I...>) {
  (F(std::integral_constant<int, I>{}), ...);
}

/// Calls F(integral_constant<int, 0>) ... F(integral_constant<int, N-1>).
template <int N, typename Fn>
GC_PANEL_INLINE inline void unroll(Fn &&F) {
  unrollImpl(F, std::make_integer_sequence<int, N>{});
}

/// Lane mask of vector \p V of an \p NV-vector panel: the last vector
/// takes the N-tail mask, the others are full.
GC_PANEL_INLINE inline __mmask16 vecMask(int V, int NV, __mmask16 LastMask) {
  return V == NV - 1 ? LastMask : static_cast<__mmask16>(0xffff);
}

/// Rows of the next panel when \p Rem rows of C are left.
inline int64_t panelRows(int64_t Rem) {
  if (Rem <= kPanelRows)
    return Rem;
  if (Rem < 2 * kPanelRows)
    return (Rem + 1) / 2;
  return kPanelRows;
}

template <typename Kernel>
using PanelFn = void (*)(const typename Kernel::ArgsT &, int64_t MBase,
                         int64_t NBase, __mmask16 LastMask);

template <typename Kernel, int MR, int... V>
constexpr std::array<PanelFn<Kernel>, kPanelVecs>
panelRow(std::integer_sequence<int, V...>) {
  return {{&Kernel::template panel<MR, V + 1>...}};
}

template <typename Kernel, int... R>
constexpr std::array<std::array<PanelFn<Kernel>, kPanelVecs>, kPanelRows>
panelTable(std::integer_sequence<int, R...>) {
  return {{panelRow<Kernel, R + 1>(
      std::make_integer_sequence<int, kPanelVecs>{})...}};
}

/// Computes the whole C tile of \p Args with Kernel's panels.
template <typename Kernel>
void brgemmPanels(const typename Kernel::ArgsT &Args) {
  // Table[MR - 1][NV - 1] is the MR x (NV * 16) panel.
  static constexpr auto Table =
      panelTable<Kernel>(std::make_integer_sequence<int, kPanelRows>{});
  constexpr int64_t PanelCols = 16 * kPanelVecs;
  for (int64_t NBase = 0; NBase < Args.N; NBase += PanelCols) {
    const int64_t Cols =
        Args.N - NBase < PanelCols ? Args.N - NBase : PanelCols;
    const int64_t NV = (Cols + 15) / 16;
    const int64_t LastCols = Cols - (NV - 1) * 16;
    const __mmask16 LastMask = static_cast<__mmask16>(
        LastCols == 16 ? 0xffffu : (1u << LastCols) - 1u);
    for (int64_t MBase = 0; MBase < Args.M;) {
      const int64_t MR = panelRows(Args.M - MBase);
      Table[MR - 1][NV - 1](Args, MBase, NBase, LastMask);
      MBase += MR;
    }
  }
}

} // namespace
} // namespace kernels
} // namespace gc

#endif // __AVX512F__

#endif // GC_KERNELS_BRGEMM_PANEL_H
