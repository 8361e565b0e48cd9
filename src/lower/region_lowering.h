//===- region_lowering.h - FusedOp -> Tensor IR templates -------*- C++ -*-===//
///
/// \file
/// Lowers one FusedOp region to a Tensor IR loop nest:
///  * tunable regions instantiate the microkernel-based matmul template of
///    Fig. 2 (collapsed outer parallel grid, single-core msi/ksi/nsi loops,
///    brgemm in the innermost body) and commit the region's Fusible OPs at
///    fixed Fig. 3 anchors: A packs at pre#4, B packs on the parallel
///    grid, post-ops run at post#1,
///  * elementwise regions lower to a parallel row-block loop applying the
///    same tile-kernel chain to full-width strips.
///
/// The returned statement is a Seq wrapping the nest; its contained
/// parallel For carries the Mergeable flag when the Graph IR coarse-grain
/// decision allows merging with the preceding nest. A region whose extra
/// operand broadcasts in a way no epilogue operand form expresses is
/// Unsupported, so the caller can run it on the reference interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef GC_LOWER_REGION_LOWERING_H
#define GC_LOWER_REGION_LOWERING_H

#include "graph/graph.h"
#include "support/status.h"
#include "tir/function.h"

#include <functional>

namespace gc {
namespace lower {

/// Shared state across the regions of one compilation.
struct LoweringContext {
  const graph::Graph *G = nullptr;
  tir::Func *Entry = nullptr;
  int Threads = 1;
  /// Resolves an outer-graph tensor id to an entry buffer id (the driver
  /// creates Param/Temp/FoldedConst buffers lazily).
  std::function<int(int64_t)> BufferFor;
  /// Monotonic counter for unique thread-local buffer names.
  int ScratchCounter = 0;
};

/// Lowers the FusedOp \p FusedOpId of Ctx.G. Returns the region statement,
/// or an Unsupported status.
Expected<tir::Stmt> lowerRegion(LoweringContext &Ctx, int64_t FusedOpId);

} // namespace lower
} // namespace gc

#endif // GC_LOWER_REGION_LOWERING_H
