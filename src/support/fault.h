//===- fault.h - Deterministic fault-injection framework --------*- C++ -*-===//
///
/// \file
/// Test-time fault injection for the runtime's fallible operations. Every
/// operation that can genuinely fail in production (allocation, pool
/// exhaustion, task submission, disk-cache I/O, kernel dispatch,
/// specialization compile) carries one named *site*; the chaos suite and
/// GC_FAULT can then force any of those failures on demand and assert the
/// stack survives: a located Status, no crash, no leak, and a clean next
/// execution.
///
/// Configuration — `GC_FAULT=<site>:<rule>[,<site>:<rule>...]`:
///   <site>   a registered site name from allSites(), or `*` for all
///   <rule>   `N`   (integer >= 1): fail every Nth evaluation of the site
///            `pX`  (X in [0,1]):   fail each evaluation with probability
///                                  X, drawn from a deterministic RNG
///                                  seeded by GC_FAULT_SEED (default 0)
///
///   GC_FAULT="arena.grow:1"            every arena growth fails
///   GC_FAULT="*:p0.3" GC_FAULT_SEED=7  30% of every fallible op fails,
///                                      reproducibly
///   GC_FAULT="cache.open:2,pool.submit:p0.5"
///
/// Cost discipline: when no fault spec is active, shouldFail() is one
/// relaxed atomic load (the bench-parity gate
/// scripts/compare_fault_bench.py holds this to noise). The slow path —
/// counters, RNG, the site table — only runs while a spec is armed, which
/// is a test-only situation.
///
/// Tests configure programmatically via configure()/reset() instead of
/// the environment so one process can sweep many specs; GC_FAULT is read
/// once at process start and never re-read.
///
//===----------------------------------------------------------------------===//

#ifndef GC_SUPPORT_FAULT_H
#define GC_SUPPORT_FAULT_H

#include "support/status.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace gc {
namespace fault {

/// \name Registered fault sites
/// One constant per fallible runtime operation. The chaos suite iterates
/// allSites(), so adding a seam means adding its name here.
/// @{

/// PlanArena growth (execution-arena lease / GC_MEM_LIMIT check).
inline constexpr const char *kArenaGrow = "arena.grow";
/// ExecState construction when the idle pool is empty.
inline constexpr const char *kExecState = "exec.state";
/// ThreadPool::trySubmitTaskBatch (async scheduler enqueue).
inline constexpr const char *kPoolSubmit = "pool.submit";
/// Artifact-cache entry open (before the mmap).
inline constexpr const char *kCacheOpen = "cache.open";
/// Artifact-cache mmap/envelope validation (after a successful open).
inline constexpr const char *kCacheMmap = "cache.mmap";
/// Artifact-cache store (temp write + rename).
inline constexpr const char *kCacheWrite = "cache.write";
/// Artifact-cache per-key flock acquisition.
inline constexpr const char *kCacheLock = "cache.flock";
/// Kernel dispatch: CompiledPartition::execute, just before the engine
/// runs.
inline constexpr const char *kKernelDispatch = "exec.dispatch";
/// Batch-specialization compile of a polymorphic CompiledGraph.
inline constexpr const char *kSpecCompile = "spec.compile";
/// compilePartition's pipeline; Session::compile serves the failed
/// partition on the reference interpreter for that compile.
inline constexpr const char *kCompileBytecode = "compile.bytecode";

/// @}

/// Every registered site name, in a stable order (the chaos sweep).
const std::vector<const char *> &allSites();

namespace detail {
extern std::atomic<bool> Armed;
bool shouldFailSlow(const char *Site);
} // namespace detail

/// True when a fault spec (env or configure()) is active. One relaxed
/// atomic load; the hot-path guard of every seam.
inline bool armed() { return detail::Armed.load(std::memory_order_relaxed); }

/// Evaluates site \p Site against the active spec: bumps its hit counter
/// and returns true when the configured rule says this evaluation fails.
/// Always false (and counts nothing) when no spec is armed.
inline bool shouldFail(const char *Site) {
  return armed() && detail::shouldFailSlow(Site);
}

/// A located Status for an injected failure at \p Site: code \p Code,
/// message naming the site and \p What so every surfaced failure points
/// back to its seam.
Status failStatus(const char *Site, StatusCode Code, const char *What);

/// Parses and arms \p Spec (same grammar as GC_FAULT; empty disarms).
/// Resets every per-site counter and reseeds the RNG streams with
/// \p Seed. Returns InvalidArgument (leaving the previous spec armed) on
/// grammar errors or unknown site names.
Status configure(const std::string &Spec, uint64_t Seed = 0);

/// Disarms injection and clears every rule and counter. The environment
/// spec is NOT re-read afterwards; tests own the config once they touch
/// it.
void reset();

/// Per-site observation counters (zeroed by configure()/reset()).
struct SiteStats {
  uint64_t Hits = 0;     ///< times the seam was evaluated
  uint64_t Injected = 0; ///< times it was told to fail
};
SiteStats stats(const char *Site);

/// Total injected failures across every site since the last configure().
uint64_t totalInjected();

} // namespace fault
} // namespace gc

#endif // GC_SUPPORT_FAULT_H
