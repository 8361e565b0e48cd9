//===- tile_ops_avx512.cpp - AVX-512 tile-op table ------------------------===//
//
// Instantiates the width-generic kernel bodies with the 16-lane AVX-512
// backend. Compiled with -mavx512f -mavx512bw -mavx512vl (per-file flags in
// CMakeLists.txt); when the toolchain cannot target AVX-512 the provider
// returns nullptr and dispatch degrades to the AVX2 or scalar tier.
//
//===----------------------------------------------------------------------===//

#include "kernels/tile_ops_simd.h"

namespace gc {
namespace kernels {

#if defined(__AVX512F__)

const TileOpsTable *tileOpsTableAvx512() {
  const CpuFeatures &F = cpuFeatures();
  if (!F.HasAvx512f || !F.HasAvx512bw || !F.HasAvx512vl)
    return nullptr;
  static const TileOpsTable Table =
      SimdTileOps<simd::VecF32Avx512>::table("avx512", KernelTier::Avx512);
  return &Table;
}

#else // !__AVX512F__

const TileOpsTable *tileOpsTableAvx512() { return nullptr; }

#endif

} // namespace kernels
} // namespace gc
