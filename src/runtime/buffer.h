//===- buffer.h - Aligned memory buffers and arenas -------------*- C++ -*-===//
///
/// \file
/// Cache-line/vector aligned allocation for tensor data, plus an
/// offset-addressed plan arena backing the cross-partition intermediate
/// memory plan (api/session.h) that streams recycle across executions.
///
//===----------------------------------------------------------------------===//

#ifndef GC_RUNTIME_BUFFER_H
#define GC_RUNTIME_BUFFER_H

#include "support/status.h"

#include <cstddef>
#include <cstdint>
#include <memory>

namespace gc {
namespace runtime {

/// Default alignment: one AVX-512 register / typical cache line.
inline constexpr size_t kDefaultAlignment = 64;

/// Owning, aligned, zero-initialized byte buffer.
class AlignedBuffer {
public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t Bytes, size_t Alignment = kDefaultAlignment);
  ~AlignedBuffer();

  AlignedBuffer(AlignedBuffer &&Other) noexcept;
  AlignedBuffer &operator=(AlignedBuffer &&Other) noexcept;
  AlignedBuffer(const AlignedBuffer &) = delete;
  AlignedBuffer &operator=(const AlignedBuffer &) = delete;

  void *data() { return Data; }
  const void *data() const { return Data; }
  size_t size() const { return Bytes; }
  bool empty() const { return Bytes == 0; }

  /// Releases the allocation and resets to empty.
  void reset();
  /// Reallocates to \p NewBytes (contents are not preserved, zero filled).
  void resize(size_t NewBytes, size_t Alignment = kDefaultAlignment);
  /// Like resize(), but reports allocation failure by returning false
  /// (the buffer is reset to empty) instead of aborting. The
  /// Status-returning execution paths (PlanArena growth) use this so an
  /// out-of-memory execution surfaces as ResourceExhausted.
  bool tryResize(size_t NewBytes, size_t Alignment = kDefaultAlignment);

private:
  void *Data = nullptr;
  size_t Bytes = 0;
};

/// Process-wide budget for governed runtime allocations (GC_MEM_LIMIT, in
/// bytes; unset or <= 0 means unlimited). Enforced at the grow points that
/// scale with load — the per-execution PlanArena and the per-bucket
/// specialization cache — so a traffic spike surfaces as a
/// ResourceExhausted Status on the offending execution instead of an
/// OOM abort of the whole process. Small fixed-size allocations stay
/// ungoverned; the budget is a load-shedding valve, not an allocator.
class MemBudget {
public:
  /// The configured limit in bytes (0 = unlimited). Read once from
  /// GC_MEM_LIMIT unless overridden by setLimitForTesting().
  static int64_t limit();
  /// Test seam: overrides the limit (0 = unlimited) without touching the
  /// environment. Does not release existing charges.
  static void setLimitForTesting(int64_t Bytes);
  /// Reserves \p Bytes against the budget; false when the reservation
  /// would exceed the limit (nothing is charged then).
  static bool tryCharge(size_t Bytes);
  /// Returns \p Bytes previously charged with tryCharge().
  static void release(size_t Bytes);
  /// Bytes currently charged (diagnostics/tests).
  static size_t chargedBytes();
};

/// Offset-addressed execution arena for the partition memory plan
/// (api::CompiledGraph): compile time assigns every cross-partition
/// intermediate a byte offset via lifetime packing; execution leases one
/// PlanArena and resolves intermediates as base + offset, so repeated
/// executions reuse one allocation instead of heap-allocating each
/// intermediate.
///
/// tryEnsure() is grow-only: an arena recycled across executions of
/// graphs with different plans converges to the largest plan's footprint
/// and never reallocates on the smaller ones. Growth does not preserve
/// contents (a plan never reads across executions). Zero-byte plans are
/// valid and allocate nothing.
class PlanArena {
public:
  PlanArena() = default;
  ~PlanArena();
  // Growth is accounted against the process MemBudget; moves would have
  // to transfer that charge for no caller (arenas live behind unique_ptr
  // on the stream free list).
  PlanArena(const PlanArena &) = delete;
  PlanArena &operator=(const PlanArena &) = delete;

  /// Grows the region to at least \p Bytes (rounded up to \p Alignment).
  /// No-op when the arena is already large enough; tryEnsure(0) on a
  /// fresh arena allocates nothing. Growth is a governed, fallible
  /// operation: it fails with ResourceExhausted when GC_MEM_LIMIT is
  /// exceeded or the allocation itself fails (and under injection at
  /// fault site "arena.grow"). A failed growth never corrupts the arena:
  /// a budget rejection keeps the previous capacity, an allocation
  /// failure resets to empty, and the next tryEnsure() simply re-grows.
  Status tryEnsure(size_t Bytes, size_t Alignment = kDefaultAlignment);

  /// Address of byte \p Offset. \p Offset must lie within the ensured
  /// capacity; offsets that are multiples of the ensure() alignment keep
  /// that alignment. at(0) on an empty arena returns nullptr (zero-size
  /// plan).
  void *at(size_t Offset);

  size_t capacity() const { return Storage.size(); }

private:
  AlignedBuffer Storage;
  /// Bytes this arena holds against the process MemBudget.
  size_t Charged = 0;
};

} // namespace runtime
} // namespace gc

#endif // GC_RUNTIME_BUFFER_H
