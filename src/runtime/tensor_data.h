//===- tensor_data.h - Runtime dense tensors --------------------*- C++ -*-===//
///
/// \file
/// The runtime tensor: dtype + shape + contiguous row-major data (owning or
/// view). This is the execution-time counterpart of a Graph IR logical
/// tensor; blocked layouts are represented as explicitly-shaped tensors by
/// the compiler, so TensorData itself is always plain row-major.
///
//===----------------------------------------------------------------------===//

#ifndef GC_RUNTIME_TENSOR_DATA_H
#define GC_RUNTIME_TENSOR_DATA_H

#include "runtime/buffer.h"
#include "support/dtype.h"
#include "support/rng.h"

#include <cassert>
#include <memory>
#include <vector>

namespace gc {
namespace runtime {

/// Dense row-major tensor with optional ownership of its storage.
class TensorData {
public:
  TensorData() = default;

  /// Allocates an owning, zero-initialized tensor.
  TensorData(DataType Ty, std::vector<int64_t> Shape);

  /// Wraps external storage as a non-owning view.
  static TensorData view(DataType Ty, std::vector<int64_t> Shape, void *Data);

  DataType dtype() const { return Ty; }
  const std::vector<int64_t> &shape() const { return Shape; }
  int64_t rank() const { return static_cast<int64_t>(Shape.size()); }
  int64_t dim(int64_t I) const { return Shape[static_cast<size_t>(I)]; }

  /// Total number of elements.
  int64_t numElements() const;
  /// Total number of bytes.
  int64_t numBytes() const { return numElements() * dataTypeSize(Ty); }

  void *data() { return Ptr; }
  const void *data() const { return Ptr; }

  template <typename T> T *dataAs() { return static_cast<T *>(Ptr); }
  template <typename T> const T *dataAs() const {
    return static_cast<const T *>(Ptr);
  }

  bool valid() const { return Ptr != nullptr; }

  /// True for a view(): the storage belongs to someone else.
  bool isView() const { return Ptr && !Owned; }
  /// True when another TensorData shares this one's owned storage (a copy
  /// of a TensorData shares its buffer; clone() does not).
  bool isShared() const { return Owned && Owned.use_count() > 1; }

  /// Fills with deterministic uniform noise appropriate for the dtype
  /// (f32 in [-1,1), u8 in [0,255], s8 in [-128,127], s32 in [-4,4]).
  void fillRandom(Rng &Generator);

  /// Fills every element with \p Value (converted to the dtype).
  void fillConstant(double Value);

  /// Deep copy (always owning).
  TensorData clone() const;

private:
  DataType Ty = DataType::F32;
  std::vector<int64_t> Shape;
  std::shared_ptr<AlignedBuffer> Owned;
  void *Ptr = nullptr;
};

/// Maximum absolute difference between two same-shaped f32 tensors,
/// normalized options left to the caller. Used by correctness tests.
double maxAbsDiff(const TensorData &A, const TensorData &B);

/// Maximum relative difference max(|a-b| / (|b| + Eps)).
double maxRelDiff(const TensorData &A, const TensorData &B,
                  double Eps = 1e-5);

} // namespace runtime
} // namespace gc

#endif // GC_RUNTIME_TENSOR_DATA_H
