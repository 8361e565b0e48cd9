//===- verify.h - Static verification layer ---------------------*- C++ -*-===//
///
/// \file
/// Static verifiers for every artifact the lowering pipeline produces:
/// Graph IR, Tensor IR functions, compiled bytecode Programs, and the
/// cross-partition memory plan. Each verifier independently re-derives the
/// invariants the producing stage is supposed to establish and returns a
/// pinpointed Status (op id / statement path / instruction index) through
/// the existing error model — no verifier trusts bookkeeping computed by
/// the stage it checks.
///
/// What each verifier proves:
///  * verifyGraph — structural def-before-use over tensor ids (acyclic
///    producer relation, no dangling inputs/outputs, producer/consumer map
///    consistency), per-op-kind dtype/shape consistency against the
///    reference semantics (broadcast rules, matmul contraction dims,
///    reduce/transpose/reshape shape algebra, normalization parameter
///    shapes, fused-op boundary agreement, recursively into subgraphs),
///    and dynamic-dim flow legality.
///  * verifyFunc — variable def-before-use in execution order, loop-bound
///    sanity (positive constant steps), buffer-table consistency (ids,
///    extents, arena placement), intrinsic call arity/shape-scalar
///    conventions, and a symbolic affine analysis (verify/symbolic.h)
///    proving every kernel call's buffer offsets and footprints stay
///    inside their buffers' extents for all loop iterations, correlated
///    min(TILE, N - i) edge tiles included.
///  * verifyProgram — every register index within the register image,
///    jump targets within the code block, call/par descriptor indices
///    valid, a structured abstract interpretation of the canonical loop
///    shapes the program builder emits that bounds induction registers
///    and proves strength-reduced kernel-call footprints stay inside
///    their buffers, and a static race proof for every parallel loop
///    (verify/relational.h). A Program that passes is safe to hand to the
///    executor's unchecked dispatch loop (the precondition for
///    mmap-loading Programs from the persistent cache).
///  * verifyMemoryPlan — partition-boundary closure (every partition input
///    is a graph input, an earlier partition's output, or a graph output
///    produced earlier), topological partition order, and an independent
///    recomputation of cross-partition lifetimes proving that any two
///    arena slots whose lifetimes can coexist under ANY schedule
///    consistent with the partition DAG occupy disjoint byte ranges,
///    re-proven symbolically over an unknown arena base.
///
/// Verification level is resolved once from GC_VERIFY
/// (off | graph | passes | all); Debug builds default to "all", Release
/// builds to "graph". Verifiers run at compile time only — nothing here
/// is on the execute hot path.
///
//===----------------------------------------------------------------------===//

#ifndef GC_VERIFY_VERIFY_H
#define GC_VERIFY_VERIFY_H

#include "graph/graph.h"
#include "support/status.h"
#include "tir/function.h"

#include <cstdint>
#include <vector>

namespace gc {
namespace exec {
struct Program;
} // namespace exec

namespace verify {

/// How much of the pipeline re-checks its own output.
enum class VerifyLevel : uint8_t {
  Off = 0,    ///< no verification
  Graph = 1,  ///< graph verified once per Session::compile entry
  Passes = 2, ///< + after every graph pass and Tensor IR pass
  All = 3,    ///< + final TIR, bytecode Program and memory plan
};

/// Resolved verification level: GC_VERIFY=off|graph|passes|all,
/// defaulting to All in Debug builds and Graph in Release builds. Cached
/// after the first call (reading it on every pass hook must be free).
VerifyLevel verifyLevel();

/// Test seam: overrides the cached level and returns the previous one —
/// tests set an explicit level and restore the previous value.
VerifyLevel setVerifyLevel(VerifyLevel Level);

/// Test seam: invalidates the cached level so the next verifyLevel()
/// call re-resolves from GC_VERIFY. Without this, a test that changes
/// the environment variable after any earlier test (or fixture setup)
/// already touched verifyLevel() silently keeps the stale cached level.
void clearVerifyLevelCache();

/// Full Graph IR verification (structure, per-op shape/dtype rules,
/// dynamic-dim flow). \p Context prefixes the error message, e.g. the
/// name of the pass that just ran.
Status verifyGraph(const graph::Graph &G, const char *Context = "");

/// Tensor IR function verification. Runs on both pre-slot and
/// slot-assigned functions (slot/arena invariants are only enforced once
/// the corresponding pass has run, i.e. F.NumSlots >= 0 / ArenaOffset set).
Status verifyFunc(const tir::Func &F, const char *Context = "");

/// Compiled bytecode Program verification.
Status verifyProgram(const exec::Program &P, const char *Context = "");

/// Load-time validation entry point for the persistent artifact cache:
/// full bytecode Program verification plus a relinked-kernel-pointer
/// check, run UNCONDITIONALLY (GC_VERIFY is a trust dial for this
/// process's own pipeline; a Program deserialized from disk is untrusted
/// input and always earns the proof before reaching the unchecked
/// dispatch loop).
Status verifyLoadedProgram(const exec::Program &P, const char *Context = "");

/// The memory-plan facts the alias checker consumes, decoupled from
/// api::CompiledGraph's internals so Session can bridge into it and tests
/// can corrupt it freely.
struct MemoryPlanView {
  /// One arena slot backing a cross-partition intermediate.
  struct Slot {
    int64_t TensorId = -1;
    uint64_t Offset = 0; ///< byte offset into the shared arena
    uint64_t Bytes = 0;
  };
  /// Per-partition boundary tensor ids, in partition list order (the
  /// order the serial scheduler executes).
  struct Partition {
    std::vector<int64_t> Inputs;
    std::vector<int64_t> Outputs;
  };
  std::vector<Partition> Partitions;
  std::vector<int64_t> GraphInputs;
  std::vector<int64_t> GraphOutputs;
  std::vector<Slot> Slots;
  uint64_t ArenaBytes = 0;
};

/// Memory-plan alias checking: boundary closure, topological order, and
/// non-overlap of simultaneously-live arena slots under every
/// DAG-consistent schedule (lifetimes recomputed from scratch).
Status verifyMemoryPlan(const MemoryPlanView &Plan, const char *Context = "");

} // namespace verify
} // namespace gc

#endif // GC_VERIFY_VERIFY_H
