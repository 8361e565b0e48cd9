//===- loopnest.h - Generic loop-nest compiler baseline ----------*- C++ -*-===//
///
/// \file
/// The "TVM" comparator of §VII, rebuilt as what a generic auto-scheduled
/// tensor compiler reaches without domain templates (DESIGN.md
/// substitution #4):
///  * plain row-major layouts everywhere (no blocked relayout, no weight
///    prepacking, no VNNI interleave),
///  * matmuls as tiled loop nests parallelized over row blocks with the
///    innermost loop auto-vectorized by the host compiler,
///  * elementwise epilogues fused into the matmul's row-block loop (TVM
///    "is able to fuse memory-intensive operations to the matmul"),
///  * softmax/reduction ops executed as separate full-tensor passes (TVM
///    "doesn't fuse the softmax op with the preceding batch matmul"),
///  * int8 matmuls computed with widening scalar/auto-vec loops -- the
///    missing VNNI-friendly relayout is exactly why the paper's TVM int8
///    results barely beat FP32.
///
//===----------------------------------------------------------------------===//

#ifndef GC_BASELINE_LOOPNEST_H
#define GC_BASELINE_LOOPNEST_H

#include "graph/graph.h"
#include "runtime/tensor_data.h"
#include "runtime/thread_pool.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gc {
namespace baseline {

/// Executes a DNN graph with generic loop nests over plain layouts.
class LoopNestExecutor {
public:
  /// Prepares the executor: runs the layout-agnostic graph passes
  /// (decompose, CSE, low-precision structure, constant folding, DCE) and
  /// plans epilogue fusion. \p Threads == 0 selects the global pool.
  explicit LoopNestExecutor(const graph::Graph &Source, int Threads = 0);

  /// Runs the graph. Inputs/outputs follow the source graph's declaration
  /// order (plain row-major).
  void execute(const std::vector<runtime::TensorData *> &Inputs,
               const std::vector<runtime::TensorData *> &Outputs);

  /// Number of ops fused into matmul epilogues (test/report hook).
  int fusedEpilogueOps() const { return FusedOps; }

private:
  void executeMatmul(int64_t OpId);
  void executeStandalone(int64_t OpId);
  runtime::TensorData &valueOf(int64_t TensorId);

  graph::Graph G;
  runtime::ThreadPool *Pool = nullptr;
  std::unique_ptr<runtime::ThreadPool> OwnedPool;

  std::vector<int64_t> InputIds, OutputIds;
  /// Execution order with epilogue-fused ops removed.
  std::vector<int64_t> Schedule;
  /// Matmul op id -> chain of epilogue op ids fused into its loop.
  std::unordered_map<int64_t, std::vector<int64_t>> Epilogues;
  std::unordered_set<int64_t> FusedIntoProducer;
  int FusedOps = 0;

  /// Tensor storage (op outputs + bound boundary tensors).
  std::unordered_map<int64_t, runtime::TensorData> Values;
};

} // namespace baseline
} // namespace gc

#endif // GC_BASELINE_LOOPNEST_H
