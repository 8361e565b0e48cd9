//===- verify.cpp - Verification level resolution -------------------------===//
///
/// \file
/// GC_VERIFY resolution and the shared level cache. The individual
/// verifiers live in graph_verifier.cpp / tir_verifier.cpp /
/// program_verifier.cpp / memplan_verifier.cpp.
///
//===----------------------------------------------------------------------===//

#include "verify/verify.h"

#include "support/common.h"
#include "support/env.h"

#include <atomic>

namespace gc {
namespace verify {

namespace {

VerifyLevel resolveFromEnv() {
#ifdef NDEBUG
  const char *Default = "graph";
#else
  const char *Default = "all";
#endif
  const std::string V = getEnvString("GC_VERIFY", Default);
  if (V == "off" || V == "0" || V == "none")
    return VerifyLevel::Off;
  if (V == "graph")
    return VerifyLevel::Graph;
  if (V == "passes")
    return VerifyLevel::Passes;
  if (V == "all")
    return VerifyLevel::All;
  const std::string Msg =
      "GC_VERIFY must be one of off|graph|passes|all, got \"" + V + "\"";
  fatalError(Msg.c_str());
}

/// Cached level + a "resolved" flag so the first call pays the env read
/// and every pass hook afterwards is one relaxed atomic load.
std::atomic<int> CachedLevel{-1};

} // namespace

VerifyLevel verifyLevel() {
  int L = CachedLevel.load(std::memory_order_relaxed);
  if (L < 0) {
    L = static_cast<int>(resolveFromEnv());
    CachedLevel.store(L, std::memory_order_relaxed);
  }
  return static_cast<VerifyLevel>(L);
}

VerifyLevel setVerifyLevel(VerifyLevel Level) {
  const VerifyLevel Prev = verifyLevel();
  CachedLevel.store(static_cast<int>(Level), std::memory_order_relaxed);
  return Prev;
}

void clearVerifyLevelCache() {
  CachedLevel.store(-1, std::memory_order_relaxed);
}

} // namespace verify
} // namespace gc
