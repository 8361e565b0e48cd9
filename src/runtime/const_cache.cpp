//===- const_cache.cpp - Folded-constant cache ---------------------------------===//

#include "runtime/const_cache.h"

namespace gc {
namespace runtime {

void ConstCache::put(int64_t TensorId, TensorData Data) {
  Cache[TensorId] = std::move(Data);
}

const TensorData *ConstCache::get(int64_t TensorId) const {
  auto It = Cache.find(TensorId);
  if (It == Cache.end())
    return nullptr;
  return &It->second;
}

int64_t ConstCache::totalBytes() const {
  int64_t Bytes = 0;
  for (const auto &[Id, Data] : Cache)
    Bytes += Data.numBytes();
  return Bytes;
}

void ConstCache::clear() {
  Cache.clear();
}

} // namespace runtime
} // namespace gc
