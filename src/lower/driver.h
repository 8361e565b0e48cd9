//===- driver.h - Graph -> Tensor IR lowering driver ------------*- C++ -*-===//
///
/// \file
/// Drives the final lowering stage: splits the optimized graph into a fold
/// side (constant weight preprocessing, executed once at first run) and a
/// main side (the fused-op regions lowered to Tensor IR loop nests), then
/// runs the Tensor IR passes (coarse-grain loop merging, buffer reuse,
/// slot assignment) over the entry function.
///
//===----------------------------------------------------------------------===//

#ifndef GC_LOWER_DRIVER_H
#define GC_LOWER_DRIVER_H

#include "graph/graph.h"
#include "support/status.h"
#include "tir/function.h"
#include "tirpass/tirpass.h"

#include <memory>
#include <vector>

namespace gc {
namespace exec {
struct Program;
} // namespace exec
} // namespace gc

namespace gc {
namespace lower {

/// Options of the lowering stage.
struct DriverOptions {
  int Threads = 1;
  /// Merge aligned parallel nests (§V coarse-grain fusion).
  bool EnableCoarseGrainFusion = true;
  /// Pack entry temporaries into a reused arena (§VI buffer reuse).
  bool EnableBufferReuse = true;
};

/// How an entry buffer is bound at execution time.
enum class BindingKind : uint8_t {
  Input,     ///< caller-provided graph input
  Output,    ///< caller-provided graph output
  Folded,    ///< fold-function output served from the constant cache
  ConstData, ///< raw constant data attached to the graph
};

/// One execution-time buffer binding.
struct Binding {
  int BufferId = -1;
  int64_t TensorId = -1;
  BindingKind Kind = BindingKind::Input;
};

/// Result of lowering one optimized graph.
struct LoweredProgram {
  tir::Func Entry;
  /// Entry compiled to flat bytecode (exec/program.h) as the final
  /// lowering step; shared by every execution of the partition. Its baked
  /// buffers point into Entry.Baked, so it lives alongside Entry.
  std::shared_ptr<const exec::Program> Bytecode;
  /// Fold side: the constant-reachable subgraph ("initial function" of
  /// §V); executed once by the runtime, outputs cached. Its constants
  /// share storage with the lowered graph's.
  graph::Graph FoldGraph;
  /// Tensor ids (outer numbering) the main side consumes from the fold.
  std::vector<int64_t> FoldOutputs;
  std::vector<Binding> Bindings;
  /// Pass statistics for reporting / tests.
  int CoarseGrainMerges = 0;
  tirpass::BufferReuseStats ReuseStats;
};

/// Lowers the optimized (fused + layout-propagated) graph \p G. Returns an
/// Unsupported error when a main-side op has no lowering rule (unfused op,
/// non-[0,2,1,3] standalone transpose) instead of aborting; the caller
/// (api::Session) routes such graphs to the reference fallback. The fold
/// graph shares \p G's constant storage: owning constants stay alive with
/// it, and constants that are views must outlive the returned program.
Expected<LoweredProgram> lowerGraph(const graph::Graph &G,
                                    const DriverOptions &Opts);

} // namespace lower
} // namespace gc

#endif // GC_LOWER_DRIVER_H
