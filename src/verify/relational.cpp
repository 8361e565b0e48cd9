//===- relational.cpp - Footprint disjointness + race engine --------------===//
///
/// \file
/// Implementation of the footprint disjointness test and the parallel
/// race checker declared in relational.h, plus the kernel-call footprint
/// builder, the bounds verdict and the process-wide verification
/// statistics counters.
///
/// The race proof obligation: for a parallel loop over v with body
/// footprints F(v), show that for all a != b in the iteration space,
/// every pair (f in F(a), g in F(b)) with a write on a shared buffer is
/// disjoint. Two instantiation strategies produce the ordered pair
/// (a, b), a < b, as fresh symbols:
///
///  * RAW — the body indexes with v directly: one case, it2 carries the
///    relational lower bound it1 + step.
///  * DIGITS — the body decomposed v into radix digits (bt = v/GridMN,
///    mpi = (v/NPN)%MPN, npi = v%NPN). After validating that the digits
///    tile the iteration space bijectively, a != b iff some digit
///    differs; case-split on the FIRST (most significant) differing
///    digit: higher digits shared, the differing digit ordered
///    (d2 >= d1 + 1), lower digits independent per side.
///
/// Per-iteration helper symbols (inner serial loop variables) are cloned
/// per side with their relational bounds remapped through the side's
/// symbol map, so correlated facts like nsi < NBlocks - npi*NSN survive
/// into the instantiated proof. Each buffer group clones only the
/// symbols its footprints reach (their leaves, closed over bound trees
/// and digit parents), once per feasible case, so a race query costs
/// O(footprints + the groups' reach) rather than O(groups x symbols).
/// Everything undecidable is a rejection.
///
//===----------------------------------------------------------------------===//

#include "verify/relational.h"

#include "kernels/epilogue.h"
#include "support/str.h"

#include <atomic>

namespace gc {
namespace verify {

namespace {

std::atomic<uint64_t> StatBoundsProved{0};
std::atomic<uint64_t> StatBoundsUndecided{0};
std::atomic<uint64_t> StatRacePairsProved{0};

} // namespace

VerifyStats verifyStats() {
  VerifyStats S;
  S.BoundsProved = StatBoundsProved.load(std::memory_order_relaxed);
  S.BoundsUndecided = StatBoundsUndecided.load(std::memory_order_relaxed);
  S.RacePairsProved = StatRacePairsProved.load(std::memory_order_relaxed);
  return S;
}

void resetVerifyStats() {
  StatBoundsProved.store(0, std::memory_order_relaxed);
  StatBoundsUndecided.store(0, std::memory_order_relaxed);
  StatRacePairsProved.store(0, std::memory_order_relaxed);
}

void noteBoundsProved() {
  StatBoundsProved.fetch_add(1, std::memory_order_relaxed);
}
void noteBoundsUndecided() {
  StatBoundsUndecided.fetch_add(1, std::memory_order_relaxed);
}
void noteRacePairProved() {
  StatRacePairsProved.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Kernel-call footprints and their bounds verdict
//===----------------------------------------------------------------------===//

std::vector<Footprint> callFootprints(SymCtx &Ctx, const KernelCall &C) {
  std::vector<Footprint> Out;
  const std::vector<SymVal> &S = C.Scalars;
  const auto Add = [&](size_t Arg, bool Write, std::string Site) {
    Footprint F;
    F.Buffer = C.Bufs[Arg];
    F.Write = Write;
    F.Off = C.Offs[Arg];
    F.Site = std::move(Site);
    Out.push_back(std::move(F));
    return &Out.back();
  };
  const auto Tile = [](Footprint *F, const SymVal &Rows, const SymVal &Cols,
                       const SymVal &Ld) {
    if (!Ld.isConstant(F->Ld)) {
      F->Undecided = true; // stays Whole
      return;
    }
    F->Sh = Footprint::Shape::Tile;
    F->Rows = Rows;
    F->Cols = Cols;
  };
  const auto Flat = [](Footprint *F, SymVal Len) {
    F->Sh = Footprint::Shape::Flat;
    F->Len = std::move(Len);
  };
  const char *Name = tir::intrinsicName(C.In);

  if (C.Epilogue) {
    std::vector<kernels::EpArgUse> Uses;
    std::string Why;
    kernels::describeEpilogue(*C.Epilogue, Uses, Why);
    for (size_t Arg = 0; Arg < Uses.size() && Arg < C.Bufs.size(); ++Arg) {
      const kernels::EpArgUse &U = Uses[Arg];
      const std::string Site = formatString("%s slot %zu", Name, Arg);
      switch (U.K) {
      case kernels::EpArgUse::Kind::Tile:
        Tile(Add(Arg, U.Write, Site), S[0], S[1], SymVal::constant(U.Ld));
        if (U.PadRows > 0)
          Tile(Add(Arg, U.Write, Site), SymVal::constant(U.PadRows),
               SymVal::constant(U.PadCols), SymVal::constant(U.Ld));
        break;
      case kernels::EpArgUse::Kind::RowVec:
        Flat(Add(Arg, U.Write, Site), S[1]);
        break;
      case kernels::EpArgUse::Kind::ColVec:
        Flat(Add(Arg, U.Write, Site), S[0]);
        break;
      }
    }
    return Out;
  }

  const tir::IntrinsicInfo &Row = tir::intrinsicInfo(C.In);
  const SymVal One = SymVal::constant(1);
  for (size_t Arg = 0; Arg < Row.NumBufs; ++Arg) {
    const tir::BufSpec &B = Row.Bufs[Arg];
    Footprint *F = Add(Arg, B.Write, formatString("%s arg %s", Name, B.Name));
    switch (B.Ext) {
    case tir::Extent::Tile: {
      int64_t Tr = 0;
      if (B.Tr != tir::kNoScalar && !S[B.Tr].isConstant(Tr)) {
        F->Undecided = true;
        break;
      }
      Tile(F, S[Tr ? B.Cols : B.Rows], S[Tr ? B.Rows : B.Cols], S[B.Ld]);
      break;
    }
    case tir::Extent::Flat: {
      SymVal Len = S[B.First];
      for (uint8_t I = 1; I < B.Count; ++I)
        Len = Ctx.mul(Len, S[B.First + I]);
      Flat(F, std::move(Len));
      break;
    }
    case tir::Extent::Whole:
      break;
    // Brgemm scalars: M N K Lda Ldb|NPadded Ldc AStrideB BStrideB Batch.
    case tir::Extent::BrgemmA:
      Flat(F, Ctx.add(Ctx.mul(Ctx.sub(S[8], One), S[6]),
                      Ctx.add(Ctx.mul(Ctx.sub(S[0], One), S[3]), S[2])));
      break;
    case tir::Extent::BrgemmB: {
      const SymVal Batches = Ctx.mul(Ctx.sub(S[8], One), S[7]);
      if (B.Ty != DataType::S8) {
        Flat(F, Ctx.add(Batches, Ctx.add(Ctx.mul(Ctx.sub(S[2], One), S[4]),
                                         S[1])));
        break;
      }
      // ceil(K/4)*4 <= K+3 bounds the non-constant case soundly.
      int64_t K = 0;
      const SymVal KPad = S[2].isConstant(K)
                              ? SymVal::constant((K + 3) / 4 * 4)
                              : Ctx.add(S[2], SymVal::constant(3));
      Flat(F, Ctx.add(Batches, Ctx.mul(KPad, S[4])));
      break;
    }
    }
  }
  return Out;
}

Bounds reachBounds(const Interval &Reach, int64_t Elems) {
  if (!Reach.bounded()) {
    noteBoundsUndecided(); // cannot decide: never a false positive
    return Bounds::Undecided;
  }
  if (Reach.Lo < 0 || Reach.Hi >= Elems)
    return Bounds::Out;
  noteBoundsProved();
  return Bounds::In;
}

Bounds footprintBounds(SymCtx &Ctx, const Footprint &F, int64_t Elems,
                       Interval &Reach) {
  const SymVal MinusOne = SymVal::constant(-1);
  switch (F.Sh) {
  case Footprint::Shape::Whole:
    if (!F.Undecided)
      return Bounds::In;
    noteBoundsUndecided();
    return Bounds::Undecided;
  case Footprint::Shape::Flat:
    if (Ctx.ub(F.Len) <= 0)
      break;
    Reach = {Ctx.lb(F.Off), Ctx.ub(Ctx.add(F.Off, Ctx.add(F.Len, MinusOne)))};
    return reachBounds(Reach, Elems);
  case Footprint::Shape::Tile: {
    if (Ctx.ub(F.Rows) <= 0 || Ctx.ub(F.Cols) <= 0)
      break;
    // Rows-1 strides of Ld from the offset, then Cols-1 elements; a
    // negative Ld reaches below the offset instead.
    const SymVal RowsM1 = Ctx.add(F.Rows, MinusOne);
    Reach = {Ctx.lb(Ctx.add(F.Off,
                            Ctx.scale(RowsM1, std::min<int64_t>(F.Ld, 0)))),
             Ctx.ub(Ctx.add(
                 F.Off, Ctx.add(Ctx.scale(RowsM1, std::max<int64_t>(F.Ld, 0)),
                                Ctx.add(F.Cols, MinusOne))))};
    return reachBounds(Reach, Elems);
  }
  }
  noteBoundsProved(); // touches no element
  return Bounds::In;
}

namespace {

/// True when the footprint provably touches no element.
bool definitelyEmpty(SymCtx &Ctx, const Footprint &F) {
  switch (F.Sh) {
  case Footprint::Shape::Flat:
    return Ctx.ub(F.Len) <= 0;
  case Footprint::Shape::Tile:
    return Ctx.ub(F.Rows) <= 0 || Ctx.ub(F.Cols) <= 0;
  case Footprint::Shape::Whole:
    return false;
  }
  return false;
}

/// Flat span of a footprint: [Start, End) over-approximating every
/// element it can touch whenever it is non-empty (see the soundness
/// note in footprintsDisjoint).
void flatSpan(SymCtx &Ctx, const Footprint &F, int64_t Elems, SymVal &Start,
              SymVal &End) {
  switch (F.Sh) {
  case Footprint::Shape::Flat:
    Start = F.Off;
    End = Ctx.add(F.Off, F.Len);
    return;
  case Footprint::Shape::Tile: {
    Start = F.Off;
    // End = Off + (Rows-1)*Ld + Cols: exact one-past-the-last element
    // for Rows >= 1, Cols >= 1; smaller otherwise (footprint empty).
    const SymVal RowsM1 = Ctx.add(F.Rows, SymVal::constant(-1));
    End = Ctx.add(F.Off, Ctx.add(Ctx.scale(RowsM1, F.Ld), F.Cols));
    return;
  }
  case Footprint::Shape::Whole:
    Start = SymVal::constant(0);
    End = Elems >= 0 ? SymVal::constant(Elems) : SymVal::top();
    return;
  }
}

/// Splits a tile offset into row/column affine parts against stride Ld:
/// Off = R*Ld + C with every Ld-divisible term (and the row part of the
/// constant) in R. Only affine leaves decompose; min/max offsets fall
/// back to the flat-span test. Returns false when not decomposable.
bool splitRowCol(SymCtx &Ctx, const SymVal &Off, int64_t Ld, SymVal &R,
                 SymVal &C) {
  if (Ld <= 0 || Off.K != SymVal::Kind::Leaf)
    return false;
  Affine RA, CA;
  // Floor-divide the constant so the column remainder is in [0, Ld).
  const int64_t K = Off.A.K;
  RA.K = K >= 0 ? K / Ld : -((-K + Ld - 1) / Ld);
  CA.K = K - RA.K * Ld;
  for (const AffTerm &T : Off.A.Terms) {
    if (T.Coeff % Ld == 0)
      RA.Terms.push_back({T.Sym, T.Coeff / Ld});
    else
      CA.Terms.push_back({T.Sym, T.Coeff});
  }
  SymVal RV, CV;
  RV.K = SymVal::Kind::Leaf;
  RV.A = std::move(RA);
  CV.K = SymVal::Kind::Leaf;
  CV.A = std::move(CA);
  R = RV;
  C = CV;
  (void)Ctx;
  return true;
}

/// lb(B - A) >= 0, i.e. A <= B for every assignment.
bool provedLe(SymCtx &Ctx, const SymVal &A, const SymVal &B) {
  return Ctx.lb(Ctx.sub(B, A)) >= 0;
}

} // namespace

bool footprintsDisjoint(SymCtx &Ctx, const Footprint &A, const Footprint &B,
                        int64_t BufferElems) {
  if (definitelyEmpty(Ctx, A) || definitelyEmpty(Ctx, B))
    return true;

  // 2-D test: when both are tiles on the same constant stride and both
  // column parts provably stay inside one row (0 <= C, C + Cols <= Ld),
  // the tiles are disjoint if their row ranges or their column ranges
  // are — this is what separates column-partitioned tiles whose flat
  // spans interleave.
  if (A.Sh == Footprint::Shape::Tile && B.Sh == Footprint::Shape::Tile &&
      A.Ld == B.Ld && A.Ld > 0) {
    SymVal RA, CA, RB, CB;
    if (splitRowCol(Ctx, A.Off, A.Ld, RA, CA) &&
        splitRowCol(Ctx, B.Off, B.Ld, RB, CB)) {
      const SymVal LdV = SymVal::constant(A.Ld);
      const bool ColsOk =
          Ctx.lb(CA) >= 0 && provedLe(Ctx, Ctx.add(CA, A.Cols), LdV) &&
          Ctx.lb(CB) >= 0 && provedLe(Ctx, Ctx.add(CB, B.Cols), LdV);
      if (ColsOk) {
        const bool RowsApart =
            provedLe(Ctx, Ctx.add(RA, A.Rows), RB) ||
            provedLe(Ctx, Ctx.add(RB, B.Rows), RA);
        const bool ColsApart =
            provedLe(Ctx, Ctx.add(CA, A.Cols), CB) ||
            provedLe(Ctx, Ctx.add(CB, B.Cols), CA);
        if (RowsApart || ColsApart)
          return true;
      }
    }
  }

  // Flat-span fallback. Soundness: per assignment, either a footprint is
  // empty (disjoint regardless) or its span covers exactly the touched
  // elements, so span separation implies element disjointness.
  SymVal SA, EA, SB, EB;
  flatSpan(Ctx, A, BufferElems, SA, EA);
  flatSpan(Ctx, B, BufferElems, SB, EB);
  return provedLe(Ctx, EA, SB) || provedLe(Ctx, EB, SA);
}

namespace {

/// The per-iteration symbols one buffer group's proof consults. Members
/// are the leaves of the group's footprints, closed over each member's
/// Lower/Upper bound trees and digit Parent: everything a remapped
/// footprint, a clone's remapped bounds, or an lb/ub over them can
/// reach. Slot spans the query's per-iteration symbols and numbers the
/// members; one GroupSyms serves every group of a query and clears only
/// its members, so a group costs O(its members), not O(every symbol of
/// the body).
struct GroupSyms {
  int32_t Watermark = 0;
  std::vector<int32_t> Slot;    ///< id - Watermark -> member slot or -1
  std::vector<int32_t> Members; ///< by slot
  std::vector<int32_t> Digits;  ///< digits of Var the footprints use, by id
  std::vector<int32_t> Serials; ///< the other members except Var, by id

  /// \p Id's member slot, or -1.
  int32_t slot(int32_t Id) const {
    const size_t K = static_cast<size_t>(Id - Watermark);
    return Id >= Watermark && K < Slot.size() ? Slot[K] : -1;
  }
  /// Makes per-iteration symbol \p Id a member (a no-op for any other).
  void add(int32_t Id) {
    const size_t K = static_cast<size_t>(Id - Watermark);
    if (Id < Watermark || K >= Slot.size() || Slot[K] >= 0)
      return;
    Slot[K] = static_cast<int32_t>(Members.size());
    Members.push_back(Id);
  }
  /// Forgets the previous group's members.
  void clear() {
    for (int32_t Id : Members)
      Slot[static_cast<size_t>(Id - Watermark)] = -1;
    Members.clear();
    Digits.clear();
    Serials.clear();
  }
};

/// One side's renaming in one case: symbols below the watermark are
/// loop-invariant and shared verbatim, a member maps to its
/// instantiation To[slot], and any other symbol maps to -1.
struct SideMap {
  const GroupSyms &GS;
  const std::vector<int32_t> &To;

  int32_t operator()(int32_t Id) const {
    if (Id < GS.Watermark)
      return Id;
    const int32_t K = GS.slot(Id);
    return K < 0 ? -1 : To[static_cast<size_t>(K)];
  }
};

/// One case instantiation: side maps over the group's member slots.
struct CaseMaps {
  std::string Desc;
  std::vector<int32_t> Map1, Map2;
  /// Case-DEFINING symbols: the ordered iteration pair (it1/it2 or the
  /// differing digit pair) and the shared/independent digit
  /// instantiations. A case whose defining symbols have contradictory
  /// bounds (relational lower bound above the range's upper end)
  /// describes an impossible iteration pair — it2 >= it1 + 1 in a
  /// single-iteration grid, or a differing-digit case on a digit whose
  /// radix is 1 — and is vacuously race-free. Serial-loop clones are
  /// deliberately excluded (their emptiness vacuates only the footprints
  /// collected inside them, not the case).
  std::vector<int32_t> News;
};

/// Leaf symbols >= Watermark used by a footprint.
bool usesPerIterSyms(SymCtx &Ctx, const Footprint &F, int32_t Watermark,
                     bool &UsesVarDirectly, int32_t Var) {
  std::vector<int32_t> Used;
  Ctx.collectSyms(F.Off, Used);
  Ctx.collectSyms(F.Len, Used);
  Ctx.collectSyms(F.Rows, Used);
  Ctx.collectSyms(F.Cols, Used);
  bool Any = false;
  for (int32_t S : Used) {
    if (S == Var)
      UsesVarDirectly = true;
    if (S >= Watermark)
      Any = true;
  }
  return Any;
}

/// Fills \p GS's members and their classes from \p Used, the sorted leaf
/// symbols of the group's footprints. Only digits of the parallel index
/// that appear in the group's footprints select the digit strategy — a
/// div/mod digit computed for some other buffer (e.g. a read-only mask
/// offset) must not force the digit split onto a group that indexes
/// with the variable directly. Other digits are per-side clones (their
/// value is f(Var), so an uncorrelated fresh symbol over the same range
/// over-approximates it soundly).
void closeGroup(const SymCtx &Ctx, const ParallelRaceQuery &Q,
                const std::vector<int32_t> &Used, GroupSyms &GS) {
  GS.add(Q.Var);
  for (int32_t Id : Used)
    GS.add(Id);
  std::vector<int32_t> Refs;
  for (size_t K = 0; K < GS.Members.size(); ++K) {
    const SymCtx::Sym &S = Ctx.symbols()[GS.Members[K]];
    Refs.clear();
    if (S.Lower)
      Ctx.collectSyms(*S.Lower, Refs);
    if (S.Upper)
      Ctx.collectSyms(*S.Upper, Refs);
    if (S.Parent >= 0)
      Refs.push_back(S.Parent);
    for (int32_t R : Refs)
      GS.add(R);
  }
  std::vector<int32_t> ById = GS.Members;
  std::sort(ById.begin(), ById.end());
  for (int32_t Id : ById) {
    if (Id == Q.Var)
      continue;
    if (Ctx.symbols()[Id].Parent == Q.Var &&
        std::binary_search(Used.begin(), Used.end(), Id))
      GS.Digits.push_back(Id);
    else
      GS.Serials.push_back(Id);
  }
}

/// Validates that the digit symbols tile the iteration space: sorted by
/// descending Div they must form a radix chain d_i = d_{i+1} * m_{i+1}
/// with the finest digit at Div 1 and the top digit covering the full
/// range — then v != v' iff some digit differs, which is what the
/// first-differing-digit case split relies on.
bool validDigitChain(const SymCtx &Ctx, const std::vector<int32_t> &Digits,
                     int64_t VarHi) {
  const auto &Syms = Ctx.symbols();
  for (size_t I = 0; I < Digits.size(); ++I) {
    const auto &D = Syms[Digits[I]];
    if (I + 1 < Digits.size()) {
      const auto &Next = Syms[Digits[I + 1]];
      if (Next.Mod == 0 || D.Div != Next.Div * Next.Mod)
        return false;
    } else if (D.Div != 1) {
      return false;
    }
  }
  const auto &Top = Syms[Digits.front()];
  if (Top.Mod != 0) {
    int64_t Cover;
    if (!mulOv(Top.Div, Top.Mod, Cover) || Cover <= VarHi)
      return false;
  }
  return true;
}

/// Clones the group's serial symbols into both side maps, in id order
/// so each clone's relational bounds can be remapped through the
/// already-populated portion of its side's map.
void cloneSerials(SymCtx &Ctx, const GroupSyms &GS, CaseMaps &CM) {
  for (int32_t Id : GS.Serials) {
    const SymCtx::Sym S = Ctx.symbols()[Id]; // copy: addSym reallocates
    for (int Side = 0; Side < 2; ++Side) {
      std::vector<int32_t> &Map = Side == 0 ? CM.Map1 : CM.Map2;
      const SideMap M{GS, Map};
      std::shared_ptr<const SymVal> Lo, Up;
      if (S.Lower)
        Lo = std::make_shared<SymVal>(Ctx.remap(*S.Lower, M));
      if (S.Upper)
        Up = std::make_shared<SymVal>(Ctx.remap(*S.Upper, M));
      Map[static_cast<size_t>(GS.slot(Id))] =
          Ctx.addSym(S.Name + (Side == 0 ? "@1" : "@2"), S.Range,
                     std::move(Lo), std::move(Up));
      // NOT added to CM.News: a contradictory serial clone only means
      // that inner loop has zero trips in this case, which vacuates the
      // footprints collected inside it but not the case itself.
    }
  }
}

/// Builds the feasible ordered-pair case instantiations for one group:
/// an infeasible case (see CaseMaps) is dropped before its serial
/// symbols are cloned. Returns false when the loop structure is outside
/// the engine (caller rejects).
bool buildCases(SymCtx &Ctx, const ParallelRaceQuery &Q, const GroupSyms &GS,
                bool AnyUsesVarDirectly, std::vector<CaseMaps> &Out,
                std::string &WhyNot) {
  const Interval VarRange = Ctx.symbols()[Q.Var].Range;
  const auto FreshMaps = [&]() {
    CaseMaps CM;
    CM.Map1.assign(GS.Members.size(), -1);
    CM.Map2.assign(GS.Members.size(), -1);
    return CM;
  };
  const auto Finish = [&](CaseMaps &CM) {
    for (int32_t Id : CM.News)
      if (Ctx.lb(Ctx.leaf(Id)) > Ctx.ub(Ctx.leaf(Id)))
        return;
    cloneSerials(Ctx, GS, CM);
    Out.push_back(std::move(CM));
  };

  if (GS.Digits.empty()) {
    // RAW: it1 < it2 over the full range, separated by >= step.
    CaseMaps CM = FreshMaps();
    CM.Desc = "it1 < it2";
    const int32_t S1 = Ctx.addSym("it1", VarRange, nullptr, nullptr);
    const SymVal LoB =
        Ctx.add(Ctx.leaf(S1), SymVal::constant(std::max<int64_t>(1, Q.Step)));
    const int32_t S2 = Ctx.addSym("it2", VarRange,
                                  std::make_shared<SymVal>(LoB), nullptr);
    const size_t V = static_cast<size_t>(GS.slot(Q.Var));
    CM.Map1[V] = S1;
    CM.Map2[V] = S2;
    CM.News.push_back(S1);
    CM.News.push_back(S2);
    Finish(CM);
    return true;
  }

  if (AnyUsesVarDirectly) {
    WhyNot = "mixes direct and div/mod-decomposed uses of the parallel "
             "index";
    return false;
  }
  // Sort digits most-significant first and validate the radix chain.
  std::vector<int32_t> Digits = GS.Digits;
  std::sort(Digits.begin(), Digits.end(), [&](int32_t A, int32_t B) {
    return Ctx.symbols()[A].Div > Ctx.symbols()[B].Div;
  });
  for (size_t I = 0; I + 1 < Digits.size(); ++I)
    if (Ctx.symbols()[Digits[I]].Div == Ctx.symbols()[Digits[I + 1]].Div) {
      WhyNot = "parallel index digits with duplicate strides";
      return false;
    }
  if (!VarRange.boundedAbove() || VarRange.Lo < 0 ||
      !validDigitChain(Ctx, Digits, VarRange.Hi)) {
    WhyNot = "parallel index div/mod decomposition is not a complete "
             "radix chain";
    return false;
  }

  // One case per first-differing digit position; the raw var stays
  // unmapped (unused by contract).
  for (size_t J = 0; J < Digits.size(); ++J) {
    CaseMaps CM = FreshMaps();
    for (size_t I = 0; I < Digits.size(); ++I) {
      const SymCtx::Sym D = Ctx.symbols()[Digits[I]]; // copy
      const size_t K = static_cast<size_t>(GS.slot(Digits[I]));
      if (I < J) {
        const int32_t Shared = Ctx.addSym(D.Name + "@eq", D.Range, nullptr,
                                          nullptr);
        CM.Map1[K] = CM.Map2[K] = Shared;
        CM.News.push_back(Shared);
      } else if (I == J) {
        CM.Desc = formatString("first differing digit %s", D.Name.c_str());
        const int32_t D1 = Ctx.addSym(D.Name + "@1", D.Range, nullptr,
                                      nullptr);
        const SymVal LoB = Ctx.add(Ctx.leaf(D1), SymVal::constant(1));
        const int32_t D2 = Ctx.addSym(D.Name + "@2", D.Range,
                                      std::make_shared<SymVal>(LoB), nullptr);
        CM.Map1[K] = D1;
        CM.Map2[K] = D2;
        CM.News.push_back(D1);
        CM.News.push_back(D2);
      } else {
        CM.Map1[K] = Ctx.addSym(D.Name + "@1", D.Range, nullptr, nullptr);
        CM.Map2[K] = Ctx.addSym(D.Name + "@2", D.Range, nullptr, nullptr);
        CM.News.push_back(CM.Map1[K]);
        CM.News.push_back(CM.Map2[K]);
      }
    }
    Finish(CM);
  }
  return true;
}

Footprint remapFootprint(SymCtx &Ctx, const Footprint &F, const SideMap &Map) {
  Footprint R = F;
  R.Off = Ctx.remap(F.Off, Map);
  R.Len = Ctx.remap(F.Len, Map);
  R.Rows = Ctx.remap(F.Rows, Map);
  R.Cols = Ctx.remap(F.Cols, Map);
  return R;
}

} // namespace

Status checkParallelRaces(SymCtx &Ctx, const ParallelRaceQuery &Q) {
  // Group footprints by buffer, keeping only buffers some footprint
  // writes (read-read never races).
  std::vector<int> Buffers;
  for (const Footprint &F : Q.FPs)
    if (F.Write)
      Buffers.push_back(F.Buffer);
  std::sort(Buffers.begin(), Buffers.end());
  Buffers.erase(std::unique(Buffers.begin(), Buffers.end()), Buffers.end());
  if (Buffers.empty())
    return Status::ok();
  std::vector<std::vector<size_t>> Groups(Buffers.size());
  for (size_t I = 0; I < Q.FPs.size(); ++I) {
    const auto It =
        std::lower_bound(Buffers.begin(), Buffers.end(), Q.FPs[I].Buffer);
    if (It != Buffers.end() && *It == Q.FPs[I].Buffer)
      Groups[static_cast<size_t>(It - Buffers.begin())].push_back(I);
  }

  // Footprint iteration-dependence and per-footprint direct-var use.
  std::vector<bool> PerIter(Q.FPs.size(), false);
  std::vector<bool> VarDirect(Q.FPs.size(), false);
  for (size_t I = 0; I < Q.FPs.size(); ++I) {
    bool Direct = false;
    PerIter[I] = usesPerIterSyms(Ctx, Q.FPs[I], Q.Watermark, Direct, Q.Var);
    VarDirect[I] = Direct;
  }

  const auto Reject = [&](const Footprint &W, const Footprint &O,
                          const std::string &Why) {
    return Status::error(
        StatusCode::Internal,
        formatString("static race: %s: iterations of the parallel loop may "
                     "conflict on buffer %s: %s [%s] vs %s [%s]: %s",
                     Q.LoopDesc.c_str(), Q.BufferName(W.Buffer).c_str(),
                     W.Site.c_str(), W.Write ? "write" : "read",
                     O.Site.c_str(), O.Write ? "write" : "read",
                     Why.c_str()));
  };

  // The body's footprints reference only symbols below the current
  // count; the clones a group appends past it never join a later group.
  GroupSyms GS;
  GS.Watermark = Q.Watermark;
  GS.Slot.assign(static_cast<size_t>(Ctx.numSyms() - Q.Watermark), -1);

  for (size_t G = 0; G < Buffers.size(); ++G) {
    const std::vector<size_t> &Idx = Groups[G];
    GS.clear();

    std::vector<int32_t> Used;
    bool AnyUsesVar = false;
    for (size_t I : Idx) {
      const Footprint &F = Q.FPs[I];
      Ctx.collectSyms(F.Off, Used);
      Ctx.collectSyms(F.Len, Used);
      Ctx.collectSyms(F.Rows, Used);
      Ctx.collectSyms(F.Cols, Used);
      AnyUsesVar = AnyUsesVar || VarDirect[I];
    }
    std::sort(Used.begin(), Used.end());
    Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
    closeGroup(Ctx, Q, Used, GS);

    // Build the feasible ordered-pair instantiations for this group.
    std::vector<CaseMaps> Cases;
    std::string WhyNot;
    if (!buildCases(Ctx, Q, GS, AnyUsesVar, Cases, WhyNot)) {
      // Structure outside the engine: reject this group's first write.
      for (size_t I : Idx)
        if (Q.FPs[I].Write)
          return Reject(Q.FPs[I], Q.FPs[I], WhyNot);
      continue;
    }
    if (Cases.empty()) {
      // Every ordered pair of distinct iterations is infeasible — the
      // loop runs at most one iteration, so nothing can race (this also
      // covers the iteration-invariant footprints below).
      continue;
    }
    const int64_t Elems = Q.BufferElems(Buffers[G]);
    for (size_t A = 0; A < Idx.size(); ++A) {
      for (size_t C = A; C < Idx.size(); ++C) {
        const Footprint &FA = Q.FPs[Idx[A]];
        const Footprint &FC = Q.FPs[Idx[C]];
        if (!FA.Write && !FC.Write)
          continue;
        if (!PerIter[Idx[A]] && !PerIter[Idx[C]]) {
          // Iteration-invariant on both sides: every iteration touches
          // the same elements, so a write conflicts unless the regions
          // are statically disjoint (identical write sites never are).
          if (!footprintsDisjoint(Ctx, FA, FC, Elems))
            return Reject(FA.Write ? FA : FC, FA.Write ? FC : FA,
                          "footprint does not depend on the iteration "
                          "index, so distinct iterations touch the same "
                          "elements");
          noteRacePairProved();
          continue;
        }
        // Both orientations for distinct sites (f@it1 vs g@it2 and
        // g@it1 vs f@it2); one suffices for a site against itself.
        const int NumOrient = A == C ? 1 : 2;
        for (int O = 0; O < NumOrient; ++O) {
          const Footprint &F1 = O == 0 ? FA : FC;
          const Footprint &F2 = O == 0 ? FC : FA;
          for (const CaseMaps &CM : Cases) {
            const Footprint R1 = remapFootprint(Ctx, F1, {GS, CM.Map1});
            const Footprint R2 = remapFootprint(Ctx, F2, {GS, CM.Map2});
            if (!footprintsDisjoint(Ctx, R1, R2, Elems))
              return Reject(F1.Write ? F1 : F2, F1.Write ? F2 : F1,
                            formatString("cannot prove disjoint when %s",
                                         CM.Desc.c_str()));
          }
        }
        noteRacePairProved();
      }
    }
  }
  return Status::ok();
}

} // namespace verify
} // namespace gc
