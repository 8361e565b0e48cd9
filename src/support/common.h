//===- common.h - Small shared utilities ----------------------*- C++ -*-===//
//
// Part of the oneDNN Graph Compiler reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Freestanding helpers shared by every library layer: integer arithmetic on
/// tile/block sizes, unreachable markers, and lightweight fatal diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef GC_SUPPORT_COMMON_H
#define GC_SUPPORT_COMMON_H

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace gc {

/// Integer ceiling division; used pervasively when counting tensor blocks.
inline constexpr int64_t ceilDiv(int64_t A, int64_t B) {
  assert(B > 0 && "ceilDiv requires a positive divisor");
  return (A + B - 1) / B;
}

/// Rounds \p A up to the next multiple of \p B.
inline constexpr int64_t roundUp(int64_t A, int64_t B) {
  return ceilDiv(A, B) * B;
}

/// Prints a formatted message to stderr and aborts. Library code uses this
/// for invariant violations that must survive NDEBUG builds.
[[noreturn]] inline void fatalError(const char *Msg) {
  std::fprintf(stderr, "gc fatal error: %s\n", Msg);
  std::abort();
}

/// Marks a point in control flow that the surrounding invariants make
/// impossible to reach.
[[noreturn]] inline void unreachableImpl(const char *Msg, const char *File,
                                         int Line) {
  std::fprintf(stderr, "gc unreachable: %s at %s:%d\n", Msg, File, Line);
  std::abort();
}

} // namespace gc

#define GC_UNREACHABLE(MSG) ::gc::unreachableImpl(MSG, __FILE__, __LINE__)

#endif // GC_SUPPORT_COMMON_H
