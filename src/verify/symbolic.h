//===- symbolic.h - Relational symbolic affine domain -----------*- C++ -*-===//
///
/// \file
/// The relational layer over interval.h in which every Tensor IR,
/// bytecode and memory-plan bounds proof runs: a symbolic value domain
/// whose elements are min/max trees over affine forms
/// (K + sum Coeff_i * Sym_i) of analysis symbols, each element also
/// carrying a sound interval box. Symbols stand for loop induction
/// variables and for div/mod-derived "digits" of a parallel grid index;
/// each may carry relational upper/lower bounds that are themselves
/// symbolic values referencing strictly earlier symbols, which is what
/// lets ub()/lb() prove correlated facts like
///
///   (npi*NSN + nsi)*NB + min(NB, N - (npi*NSN + nsi)*NB) <= N
///
/// exactly: substituting nsi's upper bound min(NSN, NBlocks - npi*NSN)-1
/// cancels the correlated terms instead of maximizing them independently
/// the way a plain interval product would.
///
/// Soundness contract: every SymVal's box is a correct over-approximation
/// of its concrete values, and ub()/lb() return bounds at least as tight
/// as the box. Any construction the domain cannot represent exactly
/// (non-affine products, overflowing coefficients, trees past the leaf
/// cap) collapses to a box — "cannot decide", never a wrong bound.
///
//===----------------------------------------------------------------------===//

#ifndef GC_VERIFY_SYMBOLIC_H
#define GC_VERIFY_SYMBOLIC_H

#include "verify/interval.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace gc {
namespace verify {

/// One term of an affine form: Coeff * Sym.
struct AffTerm {
  int32_t Sym = -1;
  int64_t Coeff = 0;
};

/// Affine form K + sum of terms, terms sorted by symbol id, no zero
/// coefficients. All arithmetic is overflow-checked; operations that
/// would overflow report failure and the caller degrades to a box.
struct Affine {
  int64_t K = 0;
  std::vector<AffTerm> Terms;

  bool isConst() const { return Terms.empty(); }
  /// True when this is exactly one symbol with coefficient 1 and no
  /// constant — the only shape div/mod digit derivation accepts.
  bool isPureSym() const {
    return K == 0 && Terms.size() == 1 && Terms[0].Coeff == 1;
  }
};

/// Checked scalar helpers: false on int64 overflow.
inline bool addOv(int64_t A, int64_t B, int64_t &Out) {
  const __int128 R = static_cast<__int128>(A) + B;
  if (R < INT64_MIN || R > INT64_MAX)
    return false;
  Out = static_cast<int64_t>(R);
  return true;
}
inline bool mulOv(int64_t A, int64_t B, int64_t &Out) {
  const __int128 R = static_cast<__int128>(A) * B;
  if (R < INT64_MIN || R > INT64_MAX)
    return false;
  Out = static_cast<int64_t>(R);
  return true;
}

/// A + B; false on overflow.
inline bool affAdd(const Affine &A, const Affine &B, Affine &Out) {
  Out.Terms.clear();
  if (!addOv(A.K, B.K, Out.K))
    return false;
  size_t I = 0, J = 0;
  while (I < A.Terms.size() || J < B.Terms.size()) {
    if (J == B.Terms.size() ||
        (I < A.Terms.size() && A.Terms[I].Sym < B.Terms[J].Sym)) {
      Out.Terms.push_back(A.Terms[I++]);
    } else if (I == A.Terms.size() || B.Terms[J].Sym < A.Terms[I].Sym) {
      Out.Terms.push_back(B.Terms[J++]);
    } else {
      int64_t C;
      if (!addOv(A.Terms[I].Coeff, B.Terms[J].Coeff, C))
        return false;
      if (C != 0)
        Out.Terms.push_back({A.Terms[I].Sym, C});
      ++I;
      ++J;
    }
  }
  return true;
}

/// A * C; false on overflow.
inline bool affScale(const Affine &A, int64_t C, Affine &Out) {
  Out.Terms.clear();
  if (C == 0) {
    Out.K = 0;
    return true;
  }
  if (!mulOv(A.K, C, Out.K))
    return false;
  for (const AffTerm &T : A.Terms) {
    int64_t NC;
    if (!mulOv(T.Coeff, C, NC))
      return false;
    Out.Terms.push_back({T.Sym, NC});
  }
  return true;
}

/// A symbolic value: a tree whose internal nodes are Min/Max and whose
/// leaves are affine forms, plus an interval box that is ALWAYS a sound
/// over-approximation on its own (Kind::Box values carry only the box).
/// Trees are immutable after construction and shared by shared_ptr.
class SymVal {
public:
  enum class Kind : uint8_t { Box, Leaf, Min, Max };

  Kind K = Kind::Box;
  Interval B = Interval::top();
  Affine A;                           ///< Leaf payload
  std::shared_ptr<const SymVal> L, R; ///< Min/Max children

  static SymVal box(Interval I) {
    if (I.isConst())
      return constant(I.Lo); // a point box IS a constant — keeping it
                             // Box-kind would poison affine arithmetic
    SymVal V;
    V.K = Kind::Box;
    V.B = I;
    return V;
  }
  static SymVal top() { return box(Interval::top()); }
  static SymVal constant(int64_t C) {
    SymVal V;
    V.K = Kind::Leaf;
    V.A.K = C;
    V.B = Interval::constant(C);
    return V;
  }

  bool isConstant(int64_t &Out) const {
    if (K == Kind::Leaf && A.isConst()) {
      Out = A.K;
      return true;
    }
    if (B.isConst()) {
      Out = B.Lo;
      return true;
    }
    return false;
  }

  int leafCount() const {
    switch (K) {
    case Kind::Box:
    case Kind::Leaf:
      return 1;
    case Kind::Min:
    case Kind::Max:
      return L->leafCount() + R->leafCount();
    }
    return 1;
  }

  /// Same value, tighter (met) box. Sound: meet of two sound boxes.
  SymVal withBox(Interval I) const & {
    SymVal V = *this;
    V.B = V.B.meet(I);
    return V;
  }
  /// As above for a temporary, which gives up its tree instead of
  /// copying it.
  SymVal withBox(Interval I) && {
    B = B.meet(I);
    return std::move(*this);
  }
};

/// The symbol table and the arithmetic over SymVals. Non-copyable;
/// one per verifier run.
class SymCtx {
public:
  /// Trees whose distributed form would exceed this many leaves collapse
  /// to their box instead (cost guard; precision loss only).
  static constexpr int kMaxLeaves = 64;
  /// Bound-substitution recursion guard (termination is guaranteed by
  /// strictly-decreasing symbol ids; the cap bounds pathological cost).
  static constexpr int kMaxSubstDepth = 48;

  struct Sym {
    std::string Name;
    Interval Range = Interval::top();
    /// Optional relational bounds: value <= Upper, value >= Lower. Both
    /// trees may only reference symbols with strictly smaller ids.
    std::shared_ptr<const SymVal> Upper, Lower;
    /// Digit definition: this symbol equals (Parent / Div) % Mod
    /// (Mod == 0 means plain Parent / Div), with Parent >= 0 known.
    int32_t Parent = -1;
    int64_t Div = 1;
    int64_t Mod = 0;
  };

  SymCtx() = default;
  SymCtx(const SymCtx &) = delete;
  SymCtx &operator=(const SymCtx &) = delete;

  const std::vector<Sym> &symbols() const { return Syms; }
  int32_t numSyms() const { return static_cast<int32_t>(Syms.size()); }

  /// Creates a fresh root symbol (loop induction variable). \p Lower /
  /// \p Upper are optional relational bounds (may be null).
  SymVal makeLoopSym(const std::string &Name, Interval Range,
                     const SymVal *Lower, const SymVal *Upper) {
    const int32_t Id = numSyms();
    Sym S;
    S.Name = Name;
    S.Range = Range;
    if (Lower && Lower->K != SymVal::Kind::Box)
      S.Lower = std::make_shared<SymVal>(*Lower);
    if (Upper && Upper->K != SymVal::Kind::Box)
      S.Upper = std::make_shared<SymVal>(*Upper);
    Syms.push_back(std::move(S));
    return leafOf(Id, Range);
  }

  /// Raw symbol creation for the race engine (case instantiation) and
  /// the memory-plan arena base; returns the id instead of a leaf and
  /// may record a digit definition.
  int32_t addSym(const std::string &Name, Interval Range,
                 std::shared_ptr<const SymVal> Lower,
                 std::shared_ptr<const SymVal> Upper, int32_t Parent = -1,
                 int64_t Div = 1, int64_t Mod = 0) {
    Sym S;
    S.Name = Name;
    S.Range = Range;
    S.Lower = std::move(Lower);
    S.Upper = std::move(Upper);
    S.Parent = Parent;
    S.Div = Div;
    S.Mod = Mod;
    Syms.push_back(std::move(S));
    return numSyms() - 1;
  }

  /// A leaf referencing an existing symbol.
  SymVal leaf(int32_t Id) const { return leafOf(Id, Syms[Id].Range); }

  // --- Arithmetic (all results are sound over-approximations) ---

  SymVal add(const SymVal &X, const SymVal &Y) const {
    const Interval BoxR = intervalAdd(X.B, Y.B);
    if (X.K == SymVal::Kind::Box || Y.K == SymVal::Kind::Box)
      return SymVal::box(BoxR);
    if (X.leafCount() * Y.leafCount() > kMaxLeaves)
      return SymVal::box(BoxR);
    return addDist(X, Y).withBox(BoxR);
  }

  SymVal neg(const SymVal &X) const {
    const Interval BoxR = intervalSub(Interval::constant(0), X.B);
    switch (X.K) {
    case SymVal::Kind::Box:
      return SymVal::box(BoxR);
    case SymVal::Kind::Leaf: {
      Affine NA;
      if (!affScale(X.A, -1, NA))
        return SymVal::box(BoxR);
      return leafVal(std::move(NA)).withBox(BoxR);
    }
    case SymVal::Kind::Min:
    case SymVal::Kind::Max: {
      // -min(a,b) = max(-a,-b) and dually.
      SymVal V;
      V.K = X.K == SymVal::Kind::Min ? SymVal::Kind::Max : SymVal::Kind::Min;
      V.L = std::make_shared<SymVal>(neg(*X.L));
      V.R = std::make_shared<SymVal>(neg(*X.R));
      V.B = BoxR;
      return V;
    }
    }
    return SymVal::box(BoxR);
  }

  SymVal sub(const SymVal &X, const SymVal &Y) const { return add(X, neg(Y)); }

  /// X * C for a compile-time constant C.
  SymVal scale(const SymVal &X, int64_t C) const {
    if (C == 0)
      return SymVal::constant(0);
    const Interval BoxR = intervalMul(X.B, Interval::constant(C));
    if (C < 0) {
      if (C == INT64_MIN)
        return SymVal::box(BoxR);
      return neg(scale(X, -C)).withBox(BoxR);
    }
    switch (X.K) {
    case SymVal::Kind::Box:
      return SymVal::box(BoxR);
    case SymVal::Kind::Leaf: {
      Affine SA;
      if (!affScale(X.A, C, SA))
        return SymVal::box(BoxR);
      return leafVal(std::move(SA)).withBox(BoxR);
    }
    case SymVal::Kind::Min:
    case SymVal::Kind::Max: {
      SymVal V;
      V.K = X.K;
      V.L = std::make_shared<SymVal>(scale(*X.L, C));
      V.R = std::make_shared<SymVal>(scale(*X.R, C));
      V.B = BoxR;
      return V;
    }
    }
    return SymVal::box(BoxR);
  }

  SymVal mul(const SymVal &X, const SymVal &Y) const {
    int64_t C;
    if (Y.isConstant(C))
      return scale(X, C);
    if (X.isConstant(C))
      return scale(Y, C);
    return SymVal::box(intervalMul(X.B, Y.B));
  }

  SymVal min(const SymVal &X, const SymVal &Y) const {
    return mkMinMax(SymVal::Kind::Min, X, Y, intervalMin(X.B, Y.B));
  }
  SymVal max(const SymVal &X, const SymVal &Y) const {
    return mkMinMax(SymVal::Kind::Max, X, Y, intervalMax(X.B, Y.B));
  }

  /// Integer division, modeled exactly only for digit-shaped operands
  /// (pure symbol / positive constant with a non-negative parent); all
  /// other shapes keep the interval result.
  SymVal div(const SymVal &X, const SymVal &Y) {
    const Interval BoxR = intervalDiv(X.B, Y.B);
    int64_t C;
    if (!Y.isConstant(C) || C <= 0)
      return SymVal::box(BoxR);
    if (C == 1)
      return X.withBox(BoxR);
    int64_t XC;
    if (X.isConstant(XC) && XC >= 0)
      return SymVal::constant(XC / C);
    if (X.K == SymVal::Kind::Leaf) {
      // Exact fold: when X = C * Y term-for-term, X / C = Y in truncating
      // division regardless of sign (e.g. (v*32)/32 from strength-reduced
      // row indices stays symbolic instead of collapsing to the box).
      bool Exact = X.A.K % C == 0;
      for (const AffTerm &T : X.A.Terms)
        Exact = Exact && T.Coeff % C == 0;
      if (Exact) {
        SymVal R = X;
        R.A.K /= C;
        for (AffTerm &T : R.A.Terms)
          T.Coeff /= C;
        R.B = BoxR;
        return R;
      }
    }
    const int32_t D = digitOf(X, C, /*IsMod=*/false);
    if (D < 0)
      return SymVal::box(BoxR);
    return leaf(D).withBox(BoxR);
  }

  SymVal mod(const SymVal &X, const SymVal &Y) {
    const Interval BoxR = intervalMod(X.B, Y.B);
    int64_t C;
    if (!Y.isConstant(C) || C <= 0)
      return SymVal::box(BoxR);
    if (C == 1)
      return SymVal::constant(0); // x % 1 == 0; avoids a degenerate digit
    int64_t XC;
    if (X.isConstant(XC) && XC >= 0)
      return SymVal::constant(XC % C);
    const int32_t D = digitOf(X, C, /*IsMod=*/true);
    if (D < 0)
      return SymVal::box(BoxR);
    return leaf(D).withBox(BoxR);
  }

  // --- Bound queries ---

  /// Greatest possible value (kMax = unbounded). Uses relational bound
  /// substitution on affine leaves, never looser than the box.
  int64_t ub(const SymVal &V) { return ubRec(V, 0); }
  /// Least possible value (kMin = unbounded).
  int64_t lb(const SymVal &V) { return lbRec(V, 0); }
  Interval range(const SymVal &V) { return {lb(V), ub(V)}; }

  /// Collects the symbol ids a value's tree references (leaves only; the
  /// race engine closes over bound trees itself).
  void collectSyms(const SymVal &V, std::vector<int32_t> &Out) const {
    switch (V.K) {
    case SymVal::Kind::Box:
      return;
    case SymVal::Kind::Leaf:
      for (const AffTerm &T : V.A.Terms)
        Out.push_back(T.Sym);
      return;
    case SymVal::Kind::Min:
    case SymVal::Kind::Max:
      collectSyms(*V.L, Out);
      collectSyms(*V.R, Out);
      return;
    }
  }

  /// Rewrites every symbol reference through \p Map, a callable from an
  /// old id to the new one; an id it maps to -1 makes the result a box
  /// (the race engine maps every symbol its proof consults).
  template <typename MapFn>
  SymVal remap(const SymVal &V, const MapFn &Map) const {
    switch (V.K) {
    case SymVal::Kind::Box:
      return V;
    case SymVal::Kind::Leaf: {
      Affine NA;
      NA.K = V.A.K;
      for (const AffTerm &T : V.A.Terms) {
        const int32_t To = T.Sym < 0 ? -1 : Map(T.Sym);
        if (To < 0)
          return SymVal::box(V.B);
        NA.Terms.push_back({To, T.Coeff});
      }
      std::sort(NA.Terms.begin(), NA.Terms.end(),
                [](const AffTerm &A, const AffTerm &B) {
                  return A.Sym < B.Sym;
                });
      // A non-injective map can fuse terms; merge duplicates.
      std::vector<AffTerm> Merged;
      for (const AffTerm &T : NA.Terms) {
        if (!Merged.empty() && Merged.back().Sym == T.Sym) {
          if (!addOv(Merged.back().Coeff, T.Coeff, Merged.back().Coeff))
            return SymVal::box(V.B);
        } else {
          Merged.push_back(T);
        }
      }
      Merged.erase(std::remove_if(Merged.begin(), Merged.end(),
                                  [](const AffTerm &T) {
                                    return T.Coeff == 0;
                                  }),
                   Merged.end());
      NA.Terms = std::move(Merged);
      return leafVal(std::move(NA)).withBox(V.B);
    }
    case SymVal::Kind::Min:
    case SymVal::Kind::Max: {
      SymVal W;
      W.K = V.K;
      W.L = std::make_shared<SymVal>(remap(*V.L, Map));
      W.R = std::make_shared<SymVal>(remap(*V.R, Map));
      W.B = V.B;
      return W;
    }
    }
    return V;
  }

private:
  std::vector<Sym> Syms;
  /// (parent, div, mod) -> existing digit symbol, so the same textual
  /// div/mod re-derivation yields the same symbol (Lets recompute them).
  std::map<std::tuple<int32_t, int64_t, int64_t>, int32_t> DigitMemo;

  static SymVal leafVal(Affine A) {
    SymVal V;
    V.K = SymVal::Kind::Leaf;
    V.A = std::move(A);
    return V; // box set by caller via withBox / leafBox
  }

  SymVal leafOf(int32_t Id, Interval Range) const {
    SymVal V;
    V.K = SymVal::Kind::Leaf;
    V.A.Terms.push_back({Id, 1});
    V.B = Range;
    return V;
  }

  /// Plain range-based bounds of an affine form (no substitution).
  int64_t rangeUB(const Affine &A) const {
    int64_t Acc = A.K;
    for (const AffTerm &T : A.Terms) {
      const Interval &R = Syms[T.Sym].Range;
      Acc = satAdd(Acc, satMul(T.Coeff, T.Coeff > 0 ? R.Hi : R.Lo));
    }
    return Acc;
  }
  int64_t rangeLB(const Affine &A) const {
    int64_t Acc = A.K;
    for (const AffTerm &T : A.Terms) {
      const Interval &R = Syms[T.Sym].Range;
      Acc = satAdd(Acc, satMul(T.Coeff, T.Coeff > 0 ? R.Lo : R.Hi));
    }
    return Acc;
  }

  int64_t ubRec(const SymVal &V, int Depth) {
    switch (V.K) {
    case SymVal::Kind::Box:
      return V.B.Hi;
    case SymVal::Kind::Min:
      return std::min(ubRec(*V.L, Depth), ubRec(*V.R, Depth));
    case SymVal::Kind::Max:
      return std::max(ubRec(*V.L, Depth), ubRec(*V.R, Depth));
    case SymVal::Kind::Leaf:
      return std::min(affUB(V.A, Depth), V.B.Hi);
    }
    return V.B.Hi;
  }
  int64_t lbRec(const SymVal &V, int Depth) {
    switch (V.K) {
    case SymVal::Kind::Box:
      return V.B.Lo;
    case SymVal::Kind::Min:
      return std::min(lbRec(*V.L, Depth), lbRec(*V.R, Depth));
    case SymVal::Kind::Max:
      return std::max(lbRec(*V.L, Depth), lbRec(*V.R, Depth));
    case SymVal::Kind::Leaf:
      return std::max(affLB(V.A, Depth), V.B.Lo);
    }
    return V.B.Lo;
  }

  /// Upper bound of an affine form with relational substitution: find
  /// the highest-id term whose direction-relevant bound exists, replace
  /// c*s by c*bound(s) (sound since the bound tree only references
  /// smaller ids — the multiset of ids strictly decreases, so this
  /// terminates), and keep the tighter of the substituted and plain
  /// range-based results.
  int64_t affUB(const Affine &A, int Depth) {
    const int64_t Plain = rangeUB(A);
    if (Depth >= kMaxSubstDepth)
      return Plain;
    for (size_t I = A.Terms.size(); I-- > 0;) {
      const AffTerm &T = A.Terms[I];
      const Sym &S = Syms[T.Sym];
      const std::shared_ptr<const SymVal> &Bnd =
          T.Coeff > 0 ? S.Upper : S.Lower;
      if (!Bnd)
        continue;
      Affine Rest = A;
      Rest.Terms.erase(Rest.Terms.begin() + static_cast<long>(I));
      SymVal RestV = leafVal(std::move(Rest));
      RestV.B = Interval{rangeLB(RestV.A), rangeUB(RestV.A)};
      const SymVal Sub = add(RestV, scale(*Bnd, T.Coeff));
      return std::min(ubRec(Sub, Depth + 1), Plain);
    }
    return Plain;
  }
  int64_t affLB(const Affine &A, int Depth) {
    const int64_t Plain = rangeLB(A);
    if (Depth >= kMaxSubstDepth)
      return Plain;
    for (size_t I = A.Terms.size(); I-- > 0;) {
      const AffTerm &T = A.Terms[I];
      const Sym &S = Syms[T.Sym];
      const std::shared_ptr<const SymVal> &Bnd =
          T.Coeff > 0 ? S.Lower : S.Upper;
      if (!Bnd)
        continue;
      Affine Rest = A;
      Rest.Terms.erase(Rest.Terms.begin() + static_cast<long>(I));
      SymVal RestV = leafVal(std::move(Rest));
      RestV.B = Interval{rangeLB(RestV.A), rangeUB(RestV.A)};
      const SymVal Sub = add(RestV, scale(*Bnd, T.Coeff));
      return std::max(lbRec(Sub, Depth + 1), Plain);
    }
    return Plain;
  }

  /// Distributing addition: min(a,b) + t = min(a+t, b+t) (exact — both
  /// distributions hold with equality for min and max), leaves add as
  /// affine forms. Caller has already bounded the leaf product.
  SymVal addDist(const SymVal &X, const SymVal &Y) const {
    if (X.K == SymVal::Kind::Min || X.K == SymVal::Kind::Max) {
      SymVal V;
      V.K = X.K;
      V.L = std::make_shared<SymVal>(addDist(*X.L, Y));
      V.R = std::make_shared<SymVal>(addDist(*X.R, Y));
      V.B = intervalAdd(X.B, Y.B);
      return V;
    }
    if (Y.K == SymVal::Kind::Min || Y.K == SymVal::Kind::Max) {
      SymVal V;
      V.K = Y.K;
      V.L = std::make_shared<SymVal>(addDist(X, *Y.L));
      V.R = std::make_shared<SymVal>(addDist(X, *Y.R));
      V.B = intervalAdd(X.B, Y.B);
      return V;
    }
    // Leaf + Leaf.
    Affine Sum;
    if (!affAdd(X.A, Y.A, Sum))
      return SymVal::box(intervalAdd(X.B, Y.B));
    return leafVal(std::move(Sum)).withBox(intervalAdd(X.B, Y.B));
  }

  SymVal mkMinMax(SymVal::Kind K, const SymVal &X, const SymVal &Y,
                  Interval BoxR) const {
    int64_t XC, YC;
    if (X.isConstant(XC) && Y.isConstant(YC))
      return SymVal::constant(K == SymVal::Kind::Min ? std::min(XC, YC)
                                                     : std::max(XC, YC));
    if (X.K == SymVal::Kind::Box && Y.K == SymVal::Kind::Box)
      return SymVal::box(BoxR);
    if (X.leafCount() + Y.leafCount() > kMaxLeaves)
      return SymVal::box(BoxR);
    SymVal V;
    V.K = K;
    V.L = std::make_shared<SymVal>(X);
    V.R = std::make_shared<SymVal>(Y);
    V.B = BoxR;
    return V;
  }

  /// Digit symbol for X / C or X % C when X is a pure symbol whose value
  /// is known non-negative. Composition folds chained derivations:
  ///   ((p/d)%m)/c -> (p/(d*c)) % (m/c)   when c | m (or m == 0)
  ///   ((p/d)%m)%c -> (p/d) % c           when c | m (or m == 0)
  /// Returns -1 when the shape does not fit (caller boxes).
  int32_t digitOf(const SymVal &X, int64_t C, bool IsMod) {
    if (X.K != SymVal::Kind::Leaf || !X.A.isPureSym())
      return -1;
    const int32_t Id = X.A.Terms[0].Sym;
    const Sym &S = Syms[Id];
    int32_t Parent;
    int64_t Div, Mod;
    if (S.Parent < 0) {
      // Root symbol: only usable when its own range is non-negative.
      if (!S.Range.boundedBelow() || S.Range.Lo < 0)
        return -1;
      Parent = Id;
      Div = IsMod ? 1 : C;
      Mod = IsMod ? C : 0;
    } else {
      Parent = S.Parent;
      if (IsMod) {
        if (S.Mod != 0 && S.Mod % C != 0)
          return -1;
        Div = S.Div;
        Mod = C;
      } else {
        if (S.Mod != 0 && S.Mod % C != 0)
          return -1;
        int64_t ND;
        if (!mulOv(S.Div, C, ND))
          return -1;
        Div = ND;
        Mod = S.Mod == 0 ? 0 : S.Mod / C;
        if (Mod == 1)
          return -1; // degenerate digit (always 0); keep the box instead
      }
    }
    const auto Key = std::make_tuple(Parent, Div, Mod);
    auto It = DigitMemo.find(Key);
    if (It != DigitMemo.end())
      return It->second;
    // Range of (Parent / Div) % Mod from the parent's range.
    const Interval PR = Syms[Parent].Range;
    Interval DR = intervalDiv(PR, Interval::constant(Div));
    if (Mod != 0)
      DR = DR.meet(Interval{0, Mod - 1});
    if (DR.Lo < 0)
      DR.Lo = 0;
    const int32_t NewId =
        addSym(Syms[Parent].Name + (IsMod ? "%" : "/") + std::to_string(C),
               DR, nullptr, nullptr, Parent, Div, Mod);
    DigitMemo.emplace(Key, NewId);
    return NewId;
  }
};

} // namespace verify
} // namespace gc

#endif // GC_VERIFY_SYMBOLIC_H
