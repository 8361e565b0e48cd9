//===- logical_tensor.h - Tensor metadata ------------------------*- C++ -*-===//
///
/// \file
/// A logical tensor carries a value's metadata: element type, static shape,
/// memory layout and constness (§II "a logical tensor represents the
/// tensor's metadata, like the element's data type, shape, and memory
/// layout"). Layouts distinguish the plain row-major format used at graph
/// boundaries from the blocked formats the matmul template wants; layout
/// propagation (§V) rewrites these fields and inserts reorders.
///
//===----------------------------------------------------------------------===//

#ifndef GC_GRAPH_LOGICAL_TENSOR_H
#define GC_GRAPH_LOGICAL_TENSOR_H

#include "support/dtype.h"
#include "support/str.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gc {
namespace graph {

/// Memory layout of the trailing two (matrix) dimensions; any leading batch
/// dimensions remain outer row-major dimensions in every layout.
struct Layout {
  enum class Kind : uint8_t {
    Plain,        ///< row-major
    BlockedA,     ///< [ceil(R/B0)][ceil(C/B1)][B0][B1] - LHS/activation format
    BlockedB,     ///< [ceil(R/B0)][ceil(C/B1)][B0][B1] - RHS/weight format
    BlockedBVnni, ///< BlockedB with 4-deep k interleaving (int8 weights)
  };

  Kind K = Kind::Plain;
  /// Block sizes of the trailing two dims (rows, cols). 0 when plain.
  int64_t Block0 = 0;
  int64_t Block1 = 0;

  bool isPlain() const { return K == Kind::Plain; }
  bool isBlocked() const {
    return K == Kind::BlockedA || K == Kind::BlockedB ||
           K == Kind::BlockedBVnni;
  }

  static Layout plain() { return Layout{Kind::Plain, 0, 0}; }
  static Layout blockedA(int64_t B0, int64_t B1) {
    return Layout{Kind::BlockedA, B0, B1};
  }
  static Layout blockedB(int64_t B0, int64_t B1) {
    return Layout{Kind::BlockedB, B0, B1};
  }
  static Layout blockedBVnni(int64_t B0, int64_t B1) {
    return Layout{Kind::BlockedBVnni, B0, B1};
  }

  bool operator==(const Layout &O) const {
    return K == O.K && Block0 == O.Block0 && Block1 == O.Block1;
  }
  bool operator!=(const Layout &O) const { return !(*this == O); }

  std::string toString() const {
    switch (K) {
    case Kind::Plain: return "plain";
    case Kind::BlockedA:
      return formatString("blockedA<%lldx%lld>", (long long)Block0,
                          (long long)Block1);
    case Kind::BlockedB:
      return formatString("blockedB<%lldx%lld>", (long long)Block0,
                          (long long)Block1);
    case Kind::BlockedBVnni:
      return formatString("blockedBvnni<%lldx%lld>", (long long)Block0,
                          (long long)Block1);
    }
    return "?";
  }
};

/// Whether a tensor's contents are fixed at compile time (weights, scales)
/// or arrive per execution (activations).
enum class TensorProperty : uint8_t {
  Variable,
  Constant,
};

/// Metadata describing one value in the graph.
struct LogicalTensor {
  /// Late-bound dimension sentinel. Only the leading (batch) dimension may
  /// be dynamic; Session::compile turns such graphs into batch-polymorphic
  /// CompiledGraphs that specialize per concrete batch at execution time.
  static constexpr int64_t kDynamicDim = -1;

  int64_t Id = -1;
  std::string Name;
  DataType Ty = DataType::F32;
  std::vector<int64_t> Shape;
  Layout Lay = Layout::plain();
  TensorProperty Property = TensorProperty::Variable;

  int64_t rank() const { return static_cast<int64_t>(Shape.size()); }

  /// True when the leading dimension is the late-bound batch sentinel.
  bool hasDynamicBatch() const {
    return !Shape.empty() && Shape[0] == kDynamicDim;
  }

  int64_t numElements() const {
    int64_t N = 1;
    for (int64_t D : Shape)
      N *= D;
    return N;
  }

  bool isConstant() const { return Property == TensorProperty::Constant; }

  /// Physical element count including block padding (>= numElements()).
  int64_t paddedNumElements() const;

  std::string toString() const {
    return formatString("t%lld:%s%s:%s%s", (long long)Id, dataTypeName(Ty),
                        shapeToString(Shape).c_str(), Lay.toString().c_str(),
                        isConstant() ? ":const" : "");
  }
};

} // namespace graph
} // namespace gc

#endif // GC_GRAPH_LOGICAL_TENSOR_H
