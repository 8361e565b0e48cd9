//===- buffer.cpp - Aligned memory buffers and arenas -------------------------===//

#include "runtime/buffer.h"

#include "support/common.h"
#include "support/env.h"
#include "support/fault.h"
#include "support/str.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace gc {
namespace runtime {

namespace {

/// MemBudget ledger: the charged-byte counter and the (test-overridable)
/// limit. CAS loop on charge so concurrent executions cannot jointly
/// overshoot the limit.
std::atomic<size_t> BudgetCharged{0};
std::atomic<int64_t> BudgetLimit{-1}; ///< -1 = not resolved from env yet

} // namespace

int64_t MemBudget::limit() {
  int64_t L = BudgetLimit.load(std::memory_order_relaxed);
  if (L < 0) {
    L = std::max<int64_t>(0, getEnvInt("GC_MEM_LIMIT", 0));
    BudgetLimit.store(L, std::memory_order_relaxed);
  }
  return L;
}

void MemBudget::setLimitForTesting(int64_t Bytes) {
  BudgetLimit.store(std::max<int64_t>(0, Bytes), std::memory_order_relaxed);
}

bool MemBudget::tryCharge(size_t Bytes) {
  const int64_t Limit = limit();
  if (Limit <= 0) {
    BudgetCharged.fetch_add(Bytes, std::memory_order_relaxed);
    return true;
  }
  size_t Cur = BudgetCharged.load(std::memory_order_relaxed);
  for (;;) {
    if (Cur + Bytes > static_cast<size_t>(Limit))
      return false;
    if (BudgetCharged.compare_exchange_weak(Cur, Cur + Bytes,
                                            std::memory_order_relaxed))
      return true;
  }
}

void MemBudget::release(size_t Bytes) {
  BudgetCharged.fetch_sub(Bytes, std::memory_order_relaxed);
}

size_t MemBudget::chargedBytes() {
  return BudgetCharged.load(std::memory_order_relaxed);
}

AlignedBuffer::AlignedBuffer(size_t Bytes, size_t Alignment) {
  resize(Bytes, Alignment);
}

AlignedBuffer::~AlignedBuffer() { reset(); }

AlignedBuffer::AlignedBuffer(AlignedBuffer &&Other) noexcept
    : Data(Other.Data), Bytes(Other.Bytes) {
  Other.Data = nullptr;
  Other.Bytes = 0;
}

AlignedBuffer &AlignedBuffer::operator=(AlignedBuffer &&Other) noexcept {
  if (this == &Other)
    return *this;
  reset();
  Data = Other.Data;
  Bytes = Other.Bytes;
  Other.Data = nullptr;
  Other.Bytes = 0;
  return *this;
}

void AlignedBuffer::reset() {
  std::free(Data);
  Data = nullptr;
  Bytes = 0;
}

void AlignedBuffer::resize(size_t NewBytes, size_t Alignment) {
  if (!tryResize(NewBytes, Alignment))
    fatalError("aligned allocation failed");
}

bool AlignedBuffer::tryResize(size_t NewBytes, size_t Alignment) {
  reset();
  if (NewBytes == 0)
    return true;
  const size_t Rounded =
      (NewBytes + Alignment - 1) / Alignment * Alignment;
  Data = std::aligned_alloc(Alignment, Rounded);
  if (!Data)
    return false;
  std::memset(Data, 0, Rounded);
  Bytes = NewBytes;
  return true;
}

PlanArena::~PlanArena() {
  if (Charged > 0)
    MemBudget::release(Charged);
}

Status PlanArena::tryEnsure(size_t Bytes, size_t Alignment) {
  if (Bytes <= Storage.size())
    return Status::ok();
  if (fault::shouldFail(fault::kArenaGrow))
    return fault::failStatus(fault::kArenaGrow, StatusCode::ResourceExhausted,
                             "execution-arena growth");
  // Charge the delta against the process budget before allocating. A
  // budget rejection leaves the arena at its previous capacity; an
  // allocation failure leaves it empty (tryResize frees the old region
  // first — contents never survive growth anyway) with the accounting
  // zeroed to match.
  const size_t NewCharge =
      (Bytes + Alignment - 1) / Alignment * Alignment;
  const size_t Delta = NewCharge - Charged;
  if (!MemBudget::tryCharge(Delta))
    return Status::error(
        StatusCode::ResourceExhausted,
        formatString("execution arena of %zu bytes would exceed "
                     "GC_MEM_LIMIT=%lld (%zu bytes already charged)",
                     Bytes, (long long)MemBudget::limit(),
                     MemBudget::chargedBytes()));
  // Contents need not survive growth: tryResize() reallocates
  // zero-filled.
  if (!Storage.tryResize(Bytes, Alignment)) {
    MemBudget::release(Delta + Charged);
    Charged = 0;
    return Status::error(
        StatusCode::ResourceExhausted,
        formatString("execution arena allocation of %zu bytes failed",
                     Bytes));
  }
  Charged = NewCharge;
  return Status::ok();
}

void *PlanArena::at(size_t Offset) {
  if (Offset == 0 && Storage.empty())
    return nullptr; // zero-size plan: nothing was ever ensured
  if (Offset >= Storage.size())
    fatalError("plan arena offset out of range (plan/arena mismatch)");
  return static_cast<char *>(Storage.data()) + Offset;
}

} // namespace runtime
} // namespace gc
