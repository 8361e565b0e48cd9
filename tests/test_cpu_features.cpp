//===- test_cpu_features.cpp - runtime dispatch tier tests --------------------===//
//
// Asserts the reported kernel dispatch tier matches what CPUID says the
// machine supports (and what the build contains), that GC_KERNELS caps are
// honored, and that every tier the dispatcher claims is available actually
// vends kernel tables / brgemm entry points.
//
//===----------------------------------------------------------------------===//

#include "kernels/brgemm.h"
#include "kernels/cpu_features.h"
#include "kernels/tile_ops.h"
#include "support/env.h"

#include <gtest/gtest.h>

#include <string>

using namespace gc;
using namespace gc::kernels;

namespace {

TEST(CpuFeatures, MatchesCpuid) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  const CpuFeatures &F = cpuFeatures();
  EXPECT_EQ(F.HasAvx2, bool(__builtin_cpu_supports("avx2")));
  EXPECT_EQ(F.HasFma, bool(__builtin_cpu_supports("fma")));
  EXPECT_EQ(F.HasAvx512f, bool(__builtin_cpu_supports("avx512f")));
  EXPECT_EQ(F.HasAvx512bw, bool(__builtin_cpu_supports("avx512bw")));
  EXPECT_EQ(F.HasAvx512vl, bool(__builtin_cpu_supports("avx512vl")));
  EXPECT_EQ(F.HasAvx512Vnni, bool(__builtin_cpu_supports("avx512vnni")));
#else
  GTEST_SKIP() << "CPUID oracle only available on GCC/Clang x86";
#endif
}

TEST(CpuFeatures, MaxTierImpliesCpuAndBuildSupport) {
  const CpuFeatures &Cpu = cpuFeatures();
  const CpuFeatures &Built = compiledFeatures();
  switch (maxKernelTier()) {
  case KernelTier::Avx512:
    EXPECT_TRUE(Cpu.HasAvx512f && Cpu.HasAvx512bw && Cpu.HasAvx512vl);
    EXPECT_TRUE(Built.HasAvx512f);
    break;
  case KernelTier::Avx2:
    EXPECT_TRUE(Cpu.HasAvx2 && Cpu.HasFma);
    EXPECT_TRUE(Built.HasAvx2);
    // Only reachable when the 512-bit tier is genuinely unavailable.
    EXPECT_FALSE(Cpu.HasAvx512f && Cpu.HasAvx512bw && Cpu.HasAvx512vl &&
                 Built.HasAvx512f);
    break;
  case KernelTier::Scalar:
    EXPECT_FALSE(Cpu.HasAvx2 && Cpu.HasFma && Built.HasAvx2);
    break;
  }
}

TEST(CpuFeatures, ActiveTierHonorsGcKernels) {
  const std::string Mode = getEnvString("GC_KERNELS", "simd");
  const KernelTier Active = activeKernelTier();
  EXPECT_LE(static_cast<int>(Active), static_cast<int>(maxKernelTier()));
  if (Mode == "scalar") {
    EXPECT_EQ(Active, KernelTier::Scalar);
    EXPECT_FALSE(simdKernelsEnabled());
  } else if (Mode == "avx2") {
    EXPECT_LE(static_cast<int>(Active), static_cast<int>(KernelTier::Avx2));
  } else {
    EXPECT_EQ(Active, maxKernelTier());
  }
  EXPECT_EQ(simdKernelsEnabled(), Active != KernelTier::Scalar);
}

TEST(CpuFeatures, AvailableTiersVendTables) {
  // The scalar tier always exists.
  ASSERT_NE(tileOpsTable(KernelTier::Scalar), nullptr);
  ASSERT_NE(brgemmF32ForTier(KernelTier::Scalar), nullptr);
  ASSERT_NE(brgemmU8S8ForTier(KernelTier::Scalar), nullptr);

  const KernelTier Max = maxKernelTier();
  if (static_cast<int>(Max) >= static_cast<int>(KernelTier::Avx2)) {
    ASSERT_NE(tileOpsTable(KernelTier::Avx2), nullptr);
    ASSERT_NE(brgemmF32ForTier(KernelTier::Avx2), nullptr);
    ASSERT_NE(brgemmU8S8ForTier(KernelTier::Avx2), nullptr);
    EXPECT_EQ(tileOpsTable(KernelTier::Avx2)->Tier, KernelTier::Avx2);
  }
  if (Max == KernelTier::Avx512) {
    ASSERT_NE(tileOpsTable(KernelTier::Avx512), nullptr);
    ASSERT_NE(brgemmF32ForTier(KernelTier::Avx512), nullptr);
    // The 512-bit int8 kernel additionally needs VNNI (no exact non-VNNI
    // emulation exists at 512 bits; see brgemm.h).
    EXPECT_EQ(brgemmU8S8ForTier(KernelTier::Avx512) != nullptr,
              cpuFeatures().HasAvx512Vnni &&
                  compiledFeatures().HasAvx512Vnni);
  }

  // The active tile-op table's tier never exceeds the active dispatch tier.
  EXPECT_LE(static_cast<int>(activeTileOps().Tier),
            static_cast<int>(activeKernelTier()));
}

TEST(CpuFeatures, IsaNameConsistent) {
  const CpuFeatures &F = cpuFeatures();
  const std::string Name = isaName();
  if (F.HasAvx512f && F.HasAvx512Vnni)
    EXPECT_EQ(Name, "avx512f+vnni");
  else if (F.HasAvx512f)
    EXPECT_EQ(Name, "avx512f");
  else if (F.HasAvx2)
    EXPECT_EQ(Name, "avx2");
  else
    EXPECT_EQ(Name, "generic");
}

TEST(CpuFeatures, TierNames) {
  EXPECT_STREQ(kernelTierName(KernelTier::Scalar), "scalar");
  EXPECT_STREQ(kernelTierName(KernelTier::Avx2), "avx2");
  EXPECT_STREQ(kernelTierName(KernelTier::Avx512), "avx512");
}

} // namespace
