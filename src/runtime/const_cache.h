//===- const_cache.h - Folded-constant cache --------------------*- C++ -*-===//
///
/// \file
/// Runtime storage for preprocessed constant weights (§V "constant weight
/// preprocessing"): the compiled code carries a fold function that packs /
/// compensates constant tensors the first time they arrive; its outputs are
/// cached here and reused by every subsequent execution.
///
//===----------------------------------------------------------------------===//

#ifndef GC_RUNTIME_CONST_CACHE_H
#define GC_RUNTIME_CONST_CACHE_H

#include "runtime/tensor_data.h"

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace gc {
namespace runtime {

/// Cache of fold-function outputs keyed by the compiler-assigned constant
/// tensor id. One instance lives in each compiled partition.
class ConstCache {
public:
  /// Inserts (or replaces) the folded tensor for \p TensorId.
  void put(int64_t TensorId, TensorData Data);

  /// Returns the folded tensor or nullptr when absent.
  const TensorData *get(int64_t TensorId) const;

  /// Number of cached tensors.
  size_t size() const { return Cache.size(); }

  /// Total bytes held by the cache (reported in EXPERIMENTS.md).
  int64_t totalBytes() const;

  /// Drops all entries (forces re-folding; used in tests).
  void clear();

private:
  std::unordered_map<int64_t, TensorData> Cache;
};

} // namespace runtime
} // namespace gc

#endif // GC_RUNTIME_CONST_CACHE_H
