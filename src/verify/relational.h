//===- relational.h - Footprint disjointness + race engine ------*- C++ -*-===//
///
/// \file
/// The shared engine behind the bytecode and memory-plan verifiers:
/// buffer footprints described over the symbolic domain (symbolic.h), a
/// 2-D-aware disjointness test between footprints, and the static race
/// checker for parallel loops — given every kernel-call footprint of one
/// abstract iteration, it proves that any two DISTINCT iterations'
/// footprints with at least one write on the same shared buffer are
/// disjoint, by instantiating two ordered copies of the iteration symbol
/// (or, for grid loops decomposed with div/mod, case-splitting on the
/// first differing digit) and running the affine difference test with
/// min/max splitting on each case. Anything the engine cannot decide is
/// a conservative rejection with a Status naming both footprints — the
/// executor dispatch loop runs unchecked, so "cannot prove" must not
/// become "assume safe".
///
/// Also exported: the footprints of one kernel call, built from its
/// intrinsic's row in tir/intrinsics.h (or its epilogue step list), the
/// bounds verdict both the Tensor IR and the bytecode verifier apply to
/// them, and the verification statistics counters used by the "zero
/// out-of-scope skips" acceptance test and by that bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef GC_VERIFY_RELATIONAL_H
#define GC_VERIFY_RELATIONAL_H

#include "support/status.h"
#include "tir/intrinsics.h"
#include "verify/symbolic.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gc {
namespace kernels {
struct EpilogueDesc;
} // namespace kernels

namespace verify {

/// One buffer access of one abstract loop iteration.
struct Footprint {
  enum class Shape : uint8_t {
    Flat,  ///< elements [Off, Off + Len)
    Tile,  ///< elements Off + r*Ld + c, r in [0,Rows), c in [0,Cols)
    Whole, ///< the entire buffer
  };
  int Buffer = -1;
  bool Write = false;
  Shape Sh = Shape::Whole;
  SymVal Off, Len;        ///< Flat
  SymVal Rows, Cols;      ///< Tile (with Off); Ld is a compile-time const
  int64_t Ld = 0;
  /// Whole only because a tile's Ld or Transposed flag is not a
  /// compile-time constant: the bounds check counts it undecided.
  bool Undecided = false;
  std::string Site; ///< "instr 12 (brgemm_f32 arg C)" etc.
};

/// One kernel call as a verifier sees it.
struct KernelCall {
  tir::Intrinsic In = tir::Intrinsic::BrgemmF32;
  /// EpilogueTile only: its step list, which describeEpilogue accepts.
  const kernels::EpilogueDesc *Epilogue = nullptr;
  std::vector<SymVal> Scalars; ///< S[...], at least the row's NumScalars
  std::vector<int> Bufs;       ///< buffer id per buffer argument
  std::vector<SymVal> Offs;    ///< element offset per buffer argument
};

/// The footprints of \p C, whose intrinsic has a row and whose buffer
/// count matches its layout: one per buffer argument from the row's
/// recipes (tir/intrinsics.h), or one per step-list slot for EpilogueTile
/// (kernels::describeEpilogue), where a blocked store's padded block adds
/// a second tile. A tile whose Ld or Transposed flag is not a compile-time
/// constant becomes an Undecided Whole. Site names the argument
/// ("brgemm_f32 arg C", "epilogue_tile slot 2").
std::vector<Footprint> callFootprints(SymCtx &Ctx, const KernelCall &C);

/// A bounds verdict. Undecided means the engine could not bound the
/// reach: this process's own pipeline accepts it (counted), a loaded
/// program is rejected for it.
enum class Bounds { In, Out, Undecided };

/// Bounds verdict for an access reaching elements [Reach.Lo, Reach.Hi] of
/// a buffer of \p Elems elements, counted in verifyStats(): Out only
/// when it provably reaches outside; an unbounded side is Undecided.
Bounds reachBounds(const Interval &Reach, int64_t Elems);

/// reachBounds for one kernel-call footprint; \p Reach receives the
/// range it reaches. A Whole footprint is In by construction, unless its
/// tile could not be described (Footprint::Undecided).
Bounds footprintBounds(SymCtx &Ctx, const Footprint &F, int64_t Elems,
                       Interval &Reach);

/// Counters behind the zero-conservative-skip acceptance test. Proved =
/// footprints decided in-bounds; Undecided = footprints the bounds
/// engine skipped because it could not decide (must be zero at
/// GC_VERIFY=all on the standard workloads); RacePairsProved = parallel
/// footprint pairs proven disjoint.
struct VerifyStats {
  uint64_t BoundsProved = 0;
  uint64_t BoundsUndecided = 0;
  uint64_t RacePairsProved = 0;
};

/// Snapshot of the process-wide counters (atomic, relaxed).
VerifyStats verifyStats();
/// Zeroes the counters (test seam).
void resetVerifyStats();
/// Incremented by the bounds engines in tir_verifier / program_verifier.
void noteBoundsProved();
void noteBoundsUndecided();
void noteRacePairProved();

/// Everything the race checker needs to know about one parallel loop.
struct ParallelRaceQuery {
  /// The loop's iteration symbol (a root symbol in Ctx); the loop body
  /// was walked once with this symbol bound to the induction variable.
  int32_t Var = -1;
  /// Symbols with id >= Watermark are per-iteration (created while
  /// walking the body: digits of Var, inner serial-loop vars); symbols
  /// below are loop-invariant and shared between iterations.
  int32_t Watermark = 0;
  /// Step lower bound (>= 1): distinct iterations differ by >= Step.
  int64_t Step = 1;
  /// The iteration's footprints on shared buffers; a thread-local
  /// buffer's are left out, since each worker owns a private copy.
  std::vector<Footprint> FPs;
  /// Element count per buffer id (for Whole footprints) — kMax-sized
  /// spans are never provable, so tests can pass exact extents.
  std::function<int64_t(int)> BufferElems;
  /// Printable buffer name for the rejection message.
  std::function<std::string(int)> BufferName;
  /// Location prefix for error messages ("instr 7" / "body.pfor(g)").
  std::string LoopDesc;
};

/// Proves every cross-iteration pair of footprints with >= 1 write on the
/// same buffer disjoint, or returns a located error Status naming the two
/// conflicting footprints. \p Ctx must be the context the footprints were
/// collected in; the checker appends case-instantiation symbols to it.
/// Footprints are bucketed by buffer once; each buffer group's feasible
/// cases clone only the per-iteration symbols its footprints reach (their
/// leaves, closed over Lower/Upper bound trees and digit parents), with
/// side maps over that set, so a query costs O(footprints + what the
/// groups reach), not O(groups x per-iteration symbols).
Status checkParallelRaces(SymCtx &Ctx, const ParallelRaceQuery &Q);

/// Disjointness of two footprints over the SAME buffer in \p Ctx:
/// true only when the engine can PROVE no element is shared. Used by
/// the race checker per case split.
bool footprintsDisjoint(SymCtx &Ctx, const Footprint &A, const Footprint &B,
                        int64_t BufferElems);

} // namespace verify
} // namespace gc

#endif // GC_VERIFY_RELATIONAL_H
