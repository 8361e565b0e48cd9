//===- pass.h - Graph IR pass infrastructure ---------------------*- C++ -*-===//
///
/// \file
/// Pass interface and pipeline for the Graph IR optimization module (§V).
/// Passes transform the graph in place; the manager verifies the graph
/// between passes and dumps IR when GC_VERBOSE >= 2.
///
//===----------------------------------------------------------------------===//

#ifndef GC_PASSES_PASS_H
#define GC_PASSES_PASS_H

#include "graph/graph.h"
#include "support/status.h"

#include <memory>
#include <string>
#include <vector>

namespace gc {
namespace passes {

/// Compile-wide options threaded through every pass (a subset of the public
/// CompileOptions relevant to graph rewriting).
struct PassOptions {
  /// Worker count the heuristic plans for.
  int Threads = 1;
  /// Use the paper's fast softmax (skip the max-subtraction pass; §VII:
  /// "a fast implementation of softmax, removing a max reduction"). Off by
  /// default, as in CompileOptions.
  bool FastSoftmax = false;
  /// Enable the low-precision (int8) conversion rewrite.
  bool EnableLowPrecision = true;
  /// Enable fine-grain fusion region formation.
  bool EnableFineGrainFusion = true;
  /// Enable blocked-layout propagation.
  bool EnableLayoutPropagation = true;
  /// Primitives-library emulation (the paper's "oneDNN primitives +
  /// post-op" baseline): fusion admits only the linear post-op chain a
  /// primitive's post-op API accepts (elementwise / broadcast binaries /
  /// quantize, no reductions, max 5), and layout propagation prepacks
  /// weights but keeps every activation plain (each primitive repacks its
  /// own A panel).
  bool PrimitivesMode = false;
  /// Constant-folding size cap: tensors larger than this stay in the fold
  /// function (executed at first run) instead of being folded at compile
  /// time, mirroring the paper's "weight data buffer might not be
  /// available during the compilation".
  int64_t FoldMaxElements = 4096;
  /// Fusion growth limits (§V: "the region stops growing when a limit is
  /// reached").
  int MaxPostOps = 24;
  int MaxPostOpReorders = 1;
  int MaxPostOpReductions = 2;
  int64_t MaxExtraInputBytes = 1 << 22;
};

/// A Graph IR transformation.
class Pass {
public:
  virtual ~Pass() = default;
  /// Pass name for logs and tests.
  virtual const char *name() const = 0;
  /// Runs on \p G; returns true when the graph changed.
  virtual bool run(graph::Graph &G, const PassOptions &Opts) = 0;
};

/// Runs a pipeline of passes with verification in between.
class PassManager {
public:
  explicit PassManager(PassOptions Opts) : Opts(std::move(Opts)) {}

  void addPass(std::unique_ptr<Pass> P) { Pipeline.push_back(std::move(P)); }

  /// Runs every pass once, in order, verifying the graph in between.
  /// Returns an Internal error (with the offending pass named) when a pass
  /// produces an invalid graph; the graph is left in its failed state for
  /// inspection.
  Status run(graph::Graph &G);

  /// Names of passes that reported changes in the last run (test hook).
  const std::vector<std::string> &changedPasses() const { return Changed; }

private:
  PassOptions Opts;
  std::vector<std::unique_ptr<Pass>> Pipeline;
  std::vector<std::string> Changed;
};

//===----------------------------------------------------------------------===//
// Pass factories
//===----------------------------------------------------------------------===//

/// Expands Complex OPs (softmax, gelu, batchnorm, layernorm, bias_add) into
/// basic DNN ops. Quantize/Dequantize are kept intact for the low-precision
/// pass, which consumes them structurally.
std::unique_ptr<Pass> createDecomposePass();

/// Common subexpression elimination over (kind, attrs, inputs).
std::unique_ptr<Pass> createCsePass();

/// Removes ops whose results cannot reach a graph output.
std::unique_ptr<Pass> createDcePass();

/// Evaluates ops whose inputs are all compile-time constants, subject to
/// the FoldMaxElements cap.
std::unique_ptr<Pass> createConstantFoldPass();

/// Rewrites Dequantize -> MatMul -> ... -> Quantize chains into int8
/// matmuls with s32 accumulation, folded output scales and zero-point
/// compensation (Fig. 5 low-precision conversion).
std::unique_ptr<Pass> createLowPrecisionPass();

/// Clusters Tunable OPs with neighbouring Fusible OPs into FusedOp regions
/// (fine-grain fusion, §V).
std::unique_ptr<Pass> createFusionPass();

/// Chooses blocked layouts for Tunable OPs, propagates them across fused
/// regions, and inserts Reorder ops at boundaries (§V).
std::unique_ptr<Pass> createLayoutPropagationPass();

/// Builds the standard §V pipeline in paper order.
std::vector<std::unique_ptr<Pass>> buildStandardPipeline(const PassOptions &Opts);

} // namespace passes
} // namespace gc

#endif // GC_PASSES_PASS_H
