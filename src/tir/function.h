//===- function.h - Tensor IR functions -------------------------*- C++ -*-===//
///
/// \file
/// A Tensor IR function owns a buffer table and a statement body. The
/// lowering driver builds one per compiled partition: the entry function,
/// the sequence of loop nests lowered from the graph of Fused OPs. The
/// compile-time constant preprocessing of §V stays a graph (the driver's
/// fold graph), not a Tensor IR function.
///
//===----------------------------------------------------------------------===//

#ifndef GC_TIR_FUNCTION_H
#define GC_TIR_FUNCTION_H

#include "runtime/tensor_data.h"
#include "support/dtype.h"
#include "tir/stmt.h"

#include <string>
#include <vector>

namespace gc {
namespace tir {

/// Storage class of a Tensor IR buffer.
enum class BufferScope : uint8_t {
  /// Bound at execution time to a caller tensor (graph input/output).
  Param,
  /// Bound to a fold-function output from the constant cache.
  FoldedConst,
  /// Bound to raw constant data baked in at compile time.
  Const,
  /// Entry-scope temporary between fused ops; packed into the shared
  /// scratch arena by the buffer-reuse pass.
  Temp,
  /// Per-thread scratch inside parallel loops (C' accumulators, packed
  /// pre-op tiles); allocated once per worker.
  ThreadLocal,
};

/// One buffer (multi-dimensional array) of a function.
struct BufferDecl {
  int Id = -1;
  std::string Name;
  DataType ElemTy = DataType::F32;
  /// Static dimensions; intrinsic calls address the buffer by a flat
  /// element offset, so only their product matters to execution.
  std::vector<int64_t> Dims;
  BufferScope Scope = BufferScope::Temp;

  /// For Param/FoldedConst/Const: the graph logical tensor id this buffer
  /// binds to (-1 otherwise).
  int64_t GraphTensorId = -1;

  /// For Temp after buffer reuse: byte offset into the shared arena.
  int64_t ArenaOffset = -1;

  /// For Const buffers whose data is baked into the function at lowering
  /// time (folded attribute vectors like per-channel scales): index into
  /// Func::Baked. -1 otherwise.
  int BakedIndex = -1;

  int64_t numElements() const {
    int64_t N = 1;
    for (int64_t D : Dims)
      N *= D;
    return N;
  }
  int64_t numBytes() const { return numElements() * dataTypeSize(ElemTy); }
};

/// A Tensor IR function.
struct Func {
  std::string Name;
  std::vector<BufferDecl> Buffers;
  StmtList Body;
  /// Number of scalar slots after slot assignment (-1 before).
  int NumSlots = -1;
  /// Bytes of shared scratch arena after buffer reuse (0 before).
  int64_t ArenaBytes = 0;
  /// Peak temp bytes without reuse (recorded for the ablation report).
  int64_t ArenaBytesNoReuse = 0;
  /// Constant data owned by the function (scale vectors and similar
  /// attribute-derived constants baked in at lowering time).
  std::vector<runtime::TensorData> Baked;

  /// Adds a buffer and returns its id.
  int addBuffer(const std::string &Name, DataType ElemTy,
                std::vector<int64_t> Dims, BufferScope Scope,
                int64_t GraphTensorId = -1) {
    BufferDecl B;
    B.Id = static_cast<int>(Buffers.size());
    B.Name = Name;
    B.ElemTy = ElemTy;
    B.Dims = std::move(Dims);
    B.Scope = Scope;
    B.GraphTensorId = GraphTensorId;
    Buffers.push_back(std::move(B));
    return Buffers.back().Id;
  }

  BufferDecl &buffer(int Id) { return Buffers[static_cast<size_t>(Id)]; }
  const BufferDecl &buffer(int Id) const {
    return Buffers[static_cast<size_t>(Id)];
  }
};

/// Assigns frame slots to every distinct variable of \p F and records the
/// frame size in F.NumSlots. Must run before bytecode compilation (the
/// lowering driver runs it as the final Tensor IR pass).
void assignSlots(Func &F);

} // namespace tir
} // namespace gc

#endif // GC_TIR_FUNCTION_H
