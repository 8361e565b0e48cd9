//===- tirpass.h - Tensor IR passes ------------------------------*- C++ -*-===//
///
/// \file
/// The Tensor IR optimizations of §VI:
///  * loop merging - executes the Graph IR coarse-grain fusion decision by
///    mechanically combining adjacent top-level parallel loop nests marked
///    mergeable ("Tensor IR merges two nested loops mechanically as guided
///    by the Graph IR optimizations"),
///  * memory buffer reuse - lifespan analysis over entry-scope temporaries
///    with most-recently-freed ("hot") reuse, packing them into one
///    scratch arena and minimizing peak bytes.
///
/// The third, tensor-size shrinking (the A'/C'' examples of §VI), needs no
/// pass here: the fused-op template allocates its per-strip temporaries
/// strip-sized and thread-local to begin with (lower/region_lowering.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GC_TIRPASS_TIRPASS_H
#define GC_TIRPASS_TIRPASS_H

#include "tir/function.h"

namespace gc {
namespace tirpass {

/// Merges adjacent top-level parallel loop nests whose leading For is
/// marked Mergeable and matches the previous nest's trip count. Returns
/// the number of merges performed.
int mergeParallelLoops(tir::Func &F);

/// Counts top-level parallel loop nests (before/after merging; used by the
/// coarse-grain ablation to report barrier reduction).
int countParallelNests(const tir::Func &F);

/// Statistics reported by the buffer-reuse pass.
struct BufferReuseStats {
  int64_t PeakBytesWithReuse = 0;
  int64_t PeakBytesWithoutReuse = 0;
  int BuffersPlaced = 0;
  int BuffersReused = 0;
};

/// Assigns arena offsets to Temp buffers via first/last-use lifespan
/// analysis over the entry body's region sequence, reusing freed space
/// most-recently-freed first. Sets F.ArenaBytes. When \p Enable is false,
/// buffers are laid out disjointly (the no-reuse ablation baseline) but
/// stats still report both numbers.
BufferReuseStats reuseBuffers(tir::Func &F, bool Enable = true);

} // namespace tirpass
} // namespace gc

#endif // GC_TIRPASS_TIRPASS_H
