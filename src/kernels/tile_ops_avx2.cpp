//===- tile_ops_avx2.cpp - AVX2 tile-op table -----------------------------===//
//
// Instantiates the width-generic kernel bodies with the 8-lane AVX2 backend.
// Compiled with -mavx2 -mfma (per-file flags in CMakeLists.txt); when the
// toolchain cannot target AVX2 the provider returns nullptr and dispatch
// degrades to the scalar tier.
//
//===----------------------------------------------------------------------===//

#include "kernels/tile_ops_simd.h"

namespace gc {
namespace kernels {

#if defined(__AVX2__) && defined(__FMA__)

const TileOpsTable *tileOpsTableAvx2() {
  const CpuFeatures &F = cpuFeatures();
  if (!F.HasAvx2 || !F.HasFma)
    return nullptr;
  static const TileOpsTable Table =
      SimdTileOps<simd::VecF32Avx2>::table("avx2", KernelTier::Avx2);
  return &Table;
}

#else // !(__AVX2__ && __FMA__)

const TileOpsTable *tileOpsTableAvx2() { return nullptr; }

#endif

} // namespace kernels
} // namespace gc
