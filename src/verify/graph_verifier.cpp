//===- graph_verifier.cpp - Graph IR static verification ------------------===//
///
/// \file
/// The Graph IR verifier: re-derives the producer relation from the op
/// list (no trust in the graph's cached maps — those are separately
/// cross-checked by Graph::verify), proves the graph acyclic, checks the
/// input/output boundary for dangling ids, and replays the reference
/// evaluator's shape/dtype algebra (graph/reference.cpp) over every op so
/// a pass that miscomputes a shape, drops a contraction-dim agreement or
/// rewires a fused-op boundary is caught at the op that broke, not as
/// wrong numbers downstream.
///
/// Dynamic leading dims (LogicalTensor::kDynamicDim) are tracked
/// symbolically: a dynamic dim matches anything derived from a dynamic
/// dim, and any shape position whose expected value depends on one is
/// skipped rather than guessed (the flow-legality rules themselves live
/// in Graph::validate, which Session::compile always runs).
///
//===----------------------------------------------------------------------===//

#include "verify/verify.h"

#include "support/str.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace verify {

namespace {

using graph::Graph;
using graph::LogicalTensor;
using graph::Op;
using graph::OpKind;

/// Shape-position wildcard: "derived from a dynamic dim, matches any
/// declared value". Distinct from kDynamicDim, which must match exactly.
constexpr int64_t kWild = INT64_MIN;

bool isDyn(int64_t D) { return D == LogicalTensor::kDynamicDim; }

/// Error factory carrying the op-id pinpoint.
class OpError {
public:
  OpError(const char *Context, const Op &O) : Context(Context), O(O) {}

  Status operator()(const std::string &What) const {
    return Status::error(
        StatusCode::InvalidGraph,
        formatString("graph verifier%s%s: op%lld(%s): %s",
                     *Context ? " after " : "", Context, (long long)O.id(),
                     opKindName(O.kind()), What.c_str()));
  }

private:
  const char *Context;
  const Op &O;
};

/// Numpy-style right-aligned broadcast of two shapes, dynamic-aware.
/// Returns false when definitely incompatible.
bool broadcastDims(const std::vector<int64_t> &A,
                   const std::vector<int64_t> &B,
                   std::vector<int64_t> &Out) {
  const size_t Rank = std::max(A.size(), B.size());
  Out.assign(Rank, 1);
  for (size_t D = 0; D < Rank; ++D) {
    const int64_t AD = D < Rank - A.size() ? 1 : A[D - (Rank - A.size())];
    const int64_t BD = D < Rank - B.size() ? 1 : B[D - (Rank - B.size())];
    if (isDyn(AD) || isDyn(BD)) {
      // dyn x dyn stays dyn; dyn x 1 stays dyn; dyn x static-N is a flow
      // question Graph::validate owns — treat as wildcard here.
      Out[D] = (AD == BD || AD == 1 || BD == 1)
                   ? LogicalTensor::kDynamicDim
                   : kWild;
      continue;
    }
    if (AD != BD && AD != 1 && BD != 1)
      return false;
    Out[D] = std::max(AD, BD);
  }
  return true;
}

/// Compares an expected shape (possibly containing kWild positions)
/// against the declared one.
bool shapeMatches(const std::vector<int64_t> &Expected,
                  const std::vector<int64_t> &Declared) {
  if (Expected.size() != Declared.size())
    return false;
  for (size_t D = 0; D < Expected.size(); ++D)
    if (Expected[D] != kWild && Expected[D] != Declared[D])
      return false;
  return true;
}

std::string shapeStr(const std::vector<int64_t> &S) {
  std::string R = "[";
  for (size_t I = 0; I < S.size(); ++I) {
    if (I)
      R += "x";
    R += S[I] == kWild ? "*" : std::to_string((long long)S[I]);
  }
  return R + "]";
}

/// Checks the declared output shape/dtype of \p O against what the
/// reference semantics derive from the inputs.
Status checkOpShapes(const Graph &G, const Op &O, const OpError &Err) {
  const auto ShapeOf = [&](size_t I) -> const std::vector<int64_t> & {
    return G.tensor(O.input(I)).Shape;
  };
  const auto TyOf = [&](size_t I) { return G.tensor(O.input(I)).Ty; };

  // Arity table: -1 = variable.
  int ExpectIns = -1;
  switch (O.kind()) {
  case OpKind::MatMul:
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Max:
  case OpKind::Min:
  case OpKind::BiasAdd:
  case OpKind::DequantAcc:
    ExpectIns = 2;
    break;
  case OpKind::BatchNorm:
    ExpectIns = 5;
    break;
  case OpKind::LayerNorm:
    ExpectIns = 3;
    break;
  case OpKind::FusedOp:
    break;
  default:
    ExpectIns = 1;
    break;
  }
  if (ExpectIns >= 0 && O.numInputs() != static_cast<size_t>(ExpectIns))
    return Err(formatString("expects %d inputs, has %zu", ExpectIns,
                            O.numInputs()));
  if (O.numOutputs() == 0)
    return Err("has no outputs");
  if (O.kind() != OpKind::FusedOp && O.numOutputs() != 1)
    return Err(formatString("expects 1 output, has %zu", O.numOutputs()));

  const LogicalTensor &OutT = G.tensor(O.output(0));
  const auto CheckOut = [&](const std::vector<int64_t> &Expected) -> Status {
    if (!shapeMatches(Expected, OutT.Shape))
      return Err(formatString("output shape %s does not match expected %s",
                              shapeStr(OutT.Shape).c_str(),
                              shapeStr(Expected).c_str()));
    return Status::ok();
  };

  switch (O.kind()) {
  case OpKind::MatMul: {
    const auto &AS = ShapeOf(0);
    const auto &BS = ShapeOf(1);
    if (AS.size() < 2 || BS.size() < 2)
      return Err("matmul inputs must have rank >= 2");
    const bool TA = O.getAttrInt("transpose_a", 0) != 0;
    const bool TB = O.getAttrInt("transpose_b", 0) != 0;
    const int64_t M = TA ? AS[AS.size() - 1] : AS[AS.size() - 2];
    const int64_t K = TA ? AS[AS.size() - 2] : AS[AS.size() - 1];
    const int64_t KB = TB ? BS[BS.size() - 1] : BS[BS.size() - 2];
    const int64_t N = TB ? BS[BS.size() - 2] : BS[BS.size() - 1];
    if (!isDyn(K) && !isDyn(KB) && K != KB)
      return Err(formatString("matmul contraction dims disagree "
                              "(K=%lld vs %lld)",
                              (long long)K, (long long)KB));
    std::vector<int64_t> Batch;
    if (!broadcastDims({AS.begin(), AS.end() - 2},
                       {BS.begin(), BS.end() - 2}, Batch))
      return Err("matmul batch dims are not broadcast-compatible");
    Batch.push_back(isDyn(M) ? LogicalTensor::kDynamicDim : M);
    Batch.push_back(isDyn(N) ? LogicalTensor::kDynamicDim : N);
    return CheckOut(Batch);
  }

  case OpKind::ReLU:
  case OpKind::Exp:
  case OpKind::Tanh:
  case OpKind::Sqrt:
  case OpKind::Reciprocal:
  case OpKind::Square:
  case OpKind::Sigmoid:
  case OpKind::Round:
  case OpKind::Abs:
    if (OutT.Ty != TyOf(0))
      return Err(formatString("elementwise output dtype %s differs from "
                              "input dtype %s",
                              dataTypeName(OutT.Ty),
                              dataTypeName(TyOf(0))));
    return CheckOut(ShapeOf(0));

  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Max:
  case OpKind::Min:
  case OpKind::BiasAdd: {
    std::vector<int64_t> Out;
    if (!broadcastDims(ShapeOf(0), ShapeOf(1), Out))
      return Err(formatString("input shapes %s and %s are not "
                              "broadcast-compatible",
                              shapeStr(ShapeOf(0)).c_str(),
                              shapeStr(ShapeOf(1)).c_str()));
    return CheckOut(Out);
  }

  case OpKind::ReduceSum:
  case OpKind::ReduceMax: {
    const auto &XS = ShapeOf(0);
    const int64_t Rank = static_cast<int64_t>(XS.size());
    std::vector<int64_t> Axes = O.getAttrIntVec("axes");
    if (Axes.empty())
      Axes.push_back(Rank - 1);
    std::vector<bool> Reduced(XS.size(), false);
    for (int64_t A : Axes) {
      if (A < 0)
        A += Rank;
      if (A < 0 || A >= Rank)
        return Err(formatString("reduce axis %lld out of range for rank "
                                "%lld input",
                                (long long)A, (long long)Rank));
      Reduced[static_cast<size_t>(A)] = true;
    }
    const bool KeepDims = O.getAttrInt("keep_dims", 1) != 0;
    std::vector<int64_t> Out;
    for (size_t D = 0; D < XS.size(); ++D) {
      if (!Reduced[D])
        Out.push_back(XS[D]);
      else if (KeepDims)
        Out.push_back(1);
    }
    if (Out.empty())
      Out.push_back(1);
    return CheckOut(Out);
  }

  case OpKind::Reorder:
    if (OutT.Ty != TyOf(0))
      return Err("reorder must preserve dtype");
    return CheckOut(ShapeOf(0));

  case OpKind::Transpose: {
    const auto &XS = ShapeOf(0);
    std::vector<int64_t> Perm = O.getAttrIntVec("perm");
    if (Perm.empty()) {
      for (size_t D = 0; D < XS.size(); ++D)
        Perm.push_back(static_cast<int64_t>(D));
      if (Perm.size() >= 2)
        std::swap(Perm[Perm.size() - 1], Perm[Perm.size() - 2]);
    }
    if (Perm.size() != XS.size())
      return Err("transpose perm length does not match input rank");
    std::vector<bool> Seen(XS.size(), false);
    for (int64_t P : Perm) {
      if (P < 0 || P >= static_cast<int64_t>(XS.size()) ||
          Seen[static_cast<size_t>(P)])
        return Err("transpose perm is not a permutation of the input rank");
      Seen[static_cast<size_t>(P)] = true;
    }
    std::vector<int64_t> Out(Perm.size());
    for (size_t D = 0; D < Perm.size(); ++D)
      Out[D] = XS[static_cast<size_t>(Perm[D])];
    if (OutT.Ty != TyOf(0))
      return Err("transpose must preserve dtype");
    return CheckOut(Out);
  }

  case OpKind::Reshape: {
    if (OutT.Ty != TyOf(0))
      return Err("reshape must preserve dtype");
    const auto &XS = ShapeOf(0);
    const auto &OS = OutT.Shape;
    const bool InDyn = !XS.empty() && isDyn(XS[0]);
    const bool OutDyn = !OS.empty() && isDyn(OS[0]);
    if (InDyn != OutDyn)
      return Err("reshape must keep the dynamic batch dim on both sides");
    int64_t InN = 1, OutN = 1;
    for (size_t D = InDyn ? 1 : 0; D < XS.size(); ++D)
      InN *= XS[D];
    for (size_t D = OutDyn ? 1 : 0; D < OS.size(); ++D)
      OutN *= OS[D];
    if (InN != OutN)
      return Err(formatString("reshape changes element count "
                              "(%lld -> %lld)",
                              (long long)InN, (long long)OutN));
    return Status::ok();
  }

  case OpKind::Cast:
    return CheckOut(ShapeOf(0));

  case OpKind::Softmax: {
    const auto &XS = ShapeOf(0);
    int64_t Axis = O.getAttrInt("axis", -1);
    if (Axis < 0)
      Axis += static_cast<int64_t>(XS.size());
    if (Axis != static_cast<int64_t>(XS.size()) - 1)
      return Err("softmax supports only the last axis");
    return CheckOut(XS);
  }

  case OpKind::GELU:
    return CheckOut(ShapeOf(0));

  case OpKind::BatchNorm:
  case OpKind::LayerNorm: {
    const auto &XS = ShapeOf(0);
    if (XS.empty())
      return Err("normalization input must have rank >= 1");
    const int64_t C = XS.back();
    for (size_t I = 1; I < O.numInputs(); ++I) {
      const LogicalTensor &P = G.tensor(O.input(I));
      if (!isDyn(C) && P.numElements() != C)
        return Err(formatString("normalization parameter %zu has %lld "
                                "elements, expected %lld channels",
                                I, (long long)P.numElements(),
                                (long long)C));
    }
    return CheckOut(XS);
  }

  case OpKind::Quantize:
  case OpKind::Dequantize: {
    const auto &XS = ShapeOf(0);
    const std::vector<double> Scales = O.getAttrFloatVec("scales");
    const std::vector<int64_t> Zps = O.getAttrIntVec("zps");
    const size_t PerChannel = std::max(Scales.size(), Zps.size());
    if (PerChannel > 1) {
      int64_t Axis = O.getAttrInt("axis", -1);
      if (Axis < 0 || Axis >= static_cast<int64_t>(XS.size()))
        return Err("per-channel quantization axis out of range");
      const int64_t Dim = XS[static_cast<size_t>(Axis)];
      if (Scales.size() > 1 && !isDyn(Dim) &&
          static_cast<int64_t>(Scales.size()) != Dim)
        return Err(formatString("per-channel scales length %zu does not "
                                "match axis dim %lld",
                                Scales.size(), (long long)Dim));
      if (Zps.size() > 1 && !isDyn(Dim) &&
          static_cast<int64_t>(Zps.size()) != Dim)
        return Err(formatString("per-channel zps length %zu does not "
                                "match axis dim %lld",
                                Zps.size(), (long long)Dim));
    }
    return CheckOut(XS);
  }

  case OpKind::DequantAcc: {
    const auto &AccS = ShapeOf(0);
    if (AccS.empty())
      return Err("dequant_acc accumulator must have rank >= 1");
    const int64_t Cols = AccS.back();
    const LogicalTensor &Comp = G.tensor(O.input(1));
    // A 1-element compensation is the a_zp == 0 sentinel the low-precision
    // pass emits (the kernel multiplies it by the zero point).
    if (!isDyn(Cols) && Comp.numElements() != Cols &&
        Comp.numElements() != 1)
      return Err(formatString("compensation has %lld elements, expected "
                              "%lld columns (or 1)",
                              (long long)Comp.numElements(),
                              (long long)Cols));
    const std::vector<double> Scales = O.getAttrFloatVec("scales");
    if (Scales.size() > 1 && !isDyn(Cols) &&
        static_cast<int64_t>(Scales.size()) != Cols)
      return Err(formatString("scales length %zu does not match %lld "
                              "columns",
                              Scales.size(), (long long)Cols));
    return CheckOut(AccS);
  }

  case OpKind::FusedOp: {
    const Graph *Sub = O.subgraph();
    if (!Sub)
      return Err("fused op has no subgraph");
    if (Sub->inputs().size() != O.numInputs() ||
        Sub->outputs().size() != O.numOutputs())
      return Err(formatString(
          "subgraph boundary arity (%zu in / %zu out) does not match the "
          "op boundary (%zu in / %zu out)",
          Sub->inputs().size(), Sub->outputs().size(), O.numInputs(),
          O.numOutputs()));
    for (size_t I = 0; I < O.numInputs(); ++I) {
      const LogicalTensor &Outer = G.tensor(O.input(I));
      const LogicalTensor &Inner = Sub->tensor(Sub->inputs()[I]);
      if (Outer.Ty != Inner.Ty || Outer.Shape != Inner.Shape)
        return Err(formatString("input %zu (%s) does not match subgraph "
                                "boundary tensor %s",
                                I, Outer.toString().c_str(),
                                Inner.toString().c_str()));
    }
    for (size_t I = 0; I < O.numOutputs(); ++I) {
      const LogicalTensor &Outer = G.tensor(O.output(I));
      const LogicalTensor &Inner = Sub->tensor(Sub->outputs()[I]);
      if (Outer.Ty != Inner.Ty || Outer.Shape != Inner.Shape)
        return Err(formatString("output %zu (%s) does not match subgraph "
                                "boundary tensor %s",
                                I, Outer.toString().c_str(),
                                Inner.toString().c_str()));
    }
    return Status::ok();
  }
  }
  return Status::ok();
}

} // namespace

Status verifyGraph(const Graph &G, const char *Context) {
  // Structural invariants first: Graph::verify cross-checks the cached
  // producer/consumer maps against the op lists and catches references to
  // erased tensors; anything it reports is already a precise diagnosis.
  if (std::string E = G.verify(); !E.empty())
    return Status::error(StatusCode::InvalidGraph,
                         formatString("graph verifier%s%s: %s",
                                      *Context ? " after " : "", Context,
                                      E.c_str()));

  // Re-derive the producer relation from the ops themselves: exactly one
  // producer per tensor, and the use->def relation must be acyclic
  // (def-before-use over tensor ids). Done with Kahn's algorithm so a
  // cycle comes back as a located Status instead of the fatalError inside
  // Graph::topologicalOrder.
  const std::vector<int64_t> OpIds = G.opIds();
  std::unordered_map<int64_t, int64_t> ProducerOp;
  for (int64_t OpId : OpIds) {
    const Op &O = G.op(OpId);
    for (int64_t Out : O.outputs()) {
      auto [It, Inserted] = ProducerOp.try_emplace(Out, OpId);
      if (!Inserted)
        return OpError(Context, O)(formatString(
            "tensor t%lld already has producer op%lld", (long long)Out,
            (long long)It->second));
      if (G.isInput(Out))
        return OpError(Context, O)(formatString(
            "produces t%lld, which is listed as a graph input",
            (long long)Out));
    }
  }
  std::unordered_map<int64_t, int> Pending; // op -> unproduced inputs
  std::unordered_map<int64_t, std::vector<int64_t>> WaitingOn;
  std::vector<int64_t> Ready;
  for (int64_t OpId : OpIds) {
    const Op &O = G.op(OpId);
    int N = 0;
    for (int64_t In : O.inputs())
      if (auto It = ProducerOp.find(In); It != ProducerOp.end()) {
        ++N;
        WaitingOn[It->second].push_back(OpId);
      }
    Pending[OpId] = N;
    if (N == 0)
      Ready.push_back(OpId);
  }
  size_t Done = 0;
  while (!Ready.empty()) {
    const int64_t OpId = Ready.back();
    Ready.pop_back();
    ++Done;
    if (auto It = WaitingOn.find(OpId); It != WaitingOn.end())
      for (int64_t W : It->second)
        if (--Pending[W] == 0)
          Ready.push_back(W);
  }
  if (Done != OpIds.size())
    for (int64_t OpId : OpIds)
      if (Pending[OpId] > 0)
        return OpError(Context, G.op(OpId))(
            "is part of a def-before-use cycle");

  // Boundary closure: every graph output must have a definition (a
  // producing op, a graph input, or constant data); a dangling output
  // would read unwritten memory at execution time.
  for (int64_t Out : G.outputs())
    if (!ProducerOp.count(Out) && !G.isInput(Out) &&
        !G.tensor(Out).isConstant())
      return Status::error(
          StatusCode::InvalidGraph,
          formatString("graph verifier%s%s: graph output t%lld is dangling "
                       "(no producer, not an input, not constant)",
                       *Context ? " after " : "", Context, (long long)Out));

  // A consumed non-constant tensor with no producer must be a graph
  // input, otherwise it is a dangling read. (Graph::verify already
  // enforces this; re-checked here so the verifier stands alone.)
  for (int64_t OpId : OpIds) {
    const Op &O = G.op(OpId);
    for (int64_t In : O.inputs()) {
      const LogicalTensor &T = G.tensor(In);
      if (!ProducerOp.count(In) && !G.isInput(In) && !T.isConstant())
        return OpError(Context, O)(formatString(
            "reads dangling tensor t%lld (no producer, not an input, "
            "not constant)",
            (long long)In));
    }
  }

  // Dynamic-dim placement: the sentinel is only legal in the leading
  // position (flow legality along consuming ops is Graph::validate's
  // job and needs the full op-kind rules it implements).
  for (int64_t TId : G.tensorIds()) {
    const LogicalTensor &T = G.tensor(TId);
    for (size_t D = 1; D < T.Shape.size(); ++D)
      if (isDyn(T.Shape[D]))
        return Status::error(
            StatusCode::InvalidGraph,
            formatString("graph verifier%s%s: tensor t%lld has a dynamic "
                         "dim in non-leading position %zu",
                         *Context ? " after " : "", Context, (long long)TId,
                         D));
  }

  // Per-op shape/dtype consistency, recursing into fused subgraphs.
  for (int64_t OpId : OpIds) {
    const Op &O = G.op(OpId);
    if (Status S = checkOpShapes(G, O, OpError(Context, O)); !S.isOk())
      return S;
    if (O.kind() == OpKind::FusedOp && O.subgraph())
      if (Status S = verifyGraph(*O.subgraph(), Context); !S.isOk())
        return S;
  }
  return Status::ok();
}

} // namespace verify
} // namespace gc
