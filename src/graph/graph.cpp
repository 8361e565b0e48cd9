//===- graph.cpp - Graph IR ------------------------------------------------===//

#include "graph/graph.h"

#include "support/common.h"
#include "support/serial.h"
#include "support/str.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <functional>
#include <iterator>
#include <queue>

namespace gc {
namespace graph {

//===----------------------------------------------------------------------===//
// LogicalTensor
//===----------------------------------------------------------------------===//

int64_t LogicalTensor::paddedNumElements() const {
  if (!Lay.isBlocked() || rank() < 2)
    return numElements();
  int64_t Lead = 1;
  for (int64_t I = 0; I + 2 < rank(); ++I)
    Lead *= Shape[static_cast<size_t>(I)];
  const int64_t R = Shape[static_cast<size_t>(rank() - 2)];
  const int64_t C = Shape[static_cast<size_t>(rank() - 1)];
  return Lead * ceilDiv(R, Lay.Block0) * ceilDiv(C, Lay.Block1) * Lay.Block0 *
         Lay.Block1;
}

//===----------------------------------------------------------------------===//
// Op
//===----------------------------------------------------------------------===//

int64_t Op::getAttrInt(const std::string &Name, int64_t Default) const {
  auto It = Attrs.find(Name);
  if (It == Attrs.end())
    return Default;
  if (const int64_t *V = std::get_if<int64_t>(&It->second))
    return *V;
  if (const double *V = std::get_if<double>(&It->second))
    return static_cast<int64_t>(*V);
  return Default;
}

double Op::getAttrFloat(const std::string &Name, double Default) const {
  auto It = Attrs.find(Name);
  if (It == Attrs.end())
    return Default;
  if (const double *V = std::get_if<double>(&It->second))
    return *V;
  if (const int64_t *V = std::get_if<int64_t>(&It->second))
    return static_cast<double>(*V);
  return Default;
}

std::string Op::getAttrString(const std::string &Name,
                              const std::string &Default) const {
  auto It = Attrs.find(Name);
  if (It == Attrs.end())
    return Default;
  if (const std::string *V = std::get_if<std::string>(&It->second))
    return *V;
  return Default;
}

std::vector<int64_t> Op::getAttrIntVec(const std::string &Name) const {
  auto It = Attrs.find(Name);
  if (It == Attrs.end())
    return {};
  if (const auto *V = std::get_if<std::vector<int64_t>>(&It->second))
    return *V;
  return {};
}

std::vector<double> Op::getAttrFloatVec(const std::string &Name) const {
  auto It = Attrs.find(Name);
  if (It == Attrs.end())
    return {};
  if (const auto *V = std::get_if<std::vector<double>>(&It->second))
    return *V;
  return {};
}

void Op::setSubgraph(std::unique_ptr<Graph> G) { Sub = std::move(G); }

std::string Op::toString(const Graph &Parent) const {
  std::vector<std::string> Ins, Outs;
  for (int64_t T : Inputs)
    Ins.push_back(Parent.tensor(T).toString());
  for (int64_t T : Outputs)
    Outs.push_back(Parent.tensor(T).toString());
  std::string AttrStr;
  for (const auto &[Name, Value] : Attrs) {
    if (!AttrStr.empty())
      AttrStr += ", ";
    AttrStr += Name + "=";
    if (const int64_t *V = std::get_if<int64_t>(&Value))
      AttrStr += formatString("%lld", (long long)*V);
    else if (const double *V = std::get_if<double>(&Value))
      AttrStr += formatString("%g", *V);
    else if (const std::string *V = std::get_if<std::string>(&Value))
      AttrStr += *V;
    else if (const auto *V = std::get_if<std::vector<int64_t>>(&Value))
      AttrStr += shapeToString(*V);
    else if (const auto *V = std::get_if<std::vector<double>>(&Value))
      AttrStr += formatString("<%zu doubles>", V->size());
  }
  return formatString("op%lld %s(%s) -> (%s)%s%s", (long long)Id,
                      opKindName(Kind), joinStrings(Ins, ", ").c_str(),
                      joinStrings(Outs, ", ").c_str(),
                      AttrStr.empty() ? "" : (" {" + AttrStr + "}").c_str(),
                      Sub ? " [has subgraph]" : "");
}

//===----------------------------------------------------------------------===//
// Graph: construction
//===----------------------------------------------------------------------===//

int64_t Graph::addTensor(DataType Ty, std::vector<int64_t> Shape,
                         const std::string &Name, TensorProperty Property) {
  Finalized = false;
  LogicalTensor T;
  T.Id = NextTensorId++;
  T.Name = Name;
  T.Ty = Ty;
  T.Shape = std::move(Shape);
  T.Property = Property;
  const int64_t Id = T.Id;
  Tensors.emplace(Id, std::move(T));
  return Id;
}

int64_t Graph::addOp(OpKind Kind, const std::vector<int64_t> &Inputs,
                     DataType OutTy, std::vector<int64_t> OutShape,
                     AttrMap Attrs, const std::string &Name) {
  const int64_t OutId = addTensor(OutTy, std::move(OutShape), Name);
  addOpExplicit(Kind, Inputs, {OutId}, std::move(Attrs));
  return OutId;
}

int64_t Graph::addOpExplicit(OpKind Kind, const std::vector<int64_t> &Inputs,
                             const std::vector<int64_t> &Outputs,
                             AttrMap Attrs) {
  Finalized = false;
  Op NewOp(NextOpId++, Kind);
  NewOp.Inputs = Inputs;
  NewOp.Outputs = Outputs;
  NewOp.Attrs = std::move(Attrs);
  const int64_t Id = NewOp.Id;
  Ops.emplace(Id, std::move(NewOp));
  recordOpLinks(Id);
  return Id;
}

Status Graph::restoreTensor(LogicalTensor T) {
  if (T.Id < 0)
    return Status::error(StatusCode::InvalidArgument,
                         "restoreTensor: negative tensor id");
  if (Tensors.count(T.Id))
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("restoreTensor: duplicate tensor id t%lld",
                     (long long)T.Id));
  Finalized = false;
  const int64_t Id = T.Id;
  Tensors.emplace(Id, std::move(T));
  return Status::ok();
}

Status Graph::restoreOp(int64_t OpId, OpKind Kind,
                        std::vector<int64_t> Inputs,
                        std::vector<int64_t> Outputs, AttrMap Attrs,
                        std::unique_ptr<Graph> Sub) {
  if (OpId < 0)
    return Status::error(StatusCode::InvalidArgument,
                         "restoreOp: negative op id");
  if (Ops.count(OpId))
    return Status::error(StatusCode::InvalidArgument,
                         formatString("restoreOp: duplicate op id op%lld",
                                      (long long)OpId));
  for (int64_t T : Inputs)
    if (!Tensors.count(T))
      return Status::error(
          StatusCode::InvalidArgument,
          formatString("restoreOp: op%lld input t%lld does not exist",
                       (long long)OpId, (long long)T));
  for (int64_t T : Outputs)
    if (!Tensors.count(T))
      return Status::error(
          StatusCode::InvalidArgument,
          formatString("restoreOp: op%lld output t%lld does not exist",
                       (long long)OpId, (long long)T));
  Finalized = false;
  Op NewOp(OpId, Kind);
  NewOp.Inputs = std::move(Inputs);
  NewOp.Outputs = std::move(Outputs);
  NewOp.Attrs = std::move(Attrs);
  if (Sub)
    NewOp.setSubgraph(std::move(Sub));
  Ops.emplace(OpId, std::move(NewOp));
  recordOpLinks(OpId);
  return Status::ok();
}

void Graph::restoreIdCounters(int64_t NextTensor, int64_t NextOp) {
  NextTensorId = std::max(NextTensorId, NextTensor);
  NextOpId = std::max(NextOpId, NextOp);
}

void Graph::setConstantData(int64_t TensorId, runtime::TensorData Data) {
  Finalized = false;
  assert(Tensors.count(TensorId) && "unknown tensor");
  Tensors.at(TensorId).Property = TensorProperty::Constant;
  if (Data.isShared())
    Data = Data.clone(); // the caller kept a copy it could write through
  ConstData[TensorId] = std::move(Data);
}

bool Graph::shareConstantData(int64_t TensorId, const Graph &From,
                              int64_t FromId) {
  const runtime::TensorData *Data = From.constantData(FromId);
  if (!Data)
    return false;
  Finalized = false;
  assert(Tensors.count(TensorId) && "unknown tensor");
  Tensors.at(TensorId).Property = TensorProperty::Constant;
  ConstData[TensorId] = *Data;
  return true;
}

//===----------------------------------------------------------------------===//
// Graph: access
//===----------------------------------------------------------------------===//

LogicalTensor &Graph::tensor(int64_t Id) {
  auto It = Tensors.find(Id);
  assert(It != Tensors.end() && "unknown tensor id");
  return It->second;
}

const LogicalTensor &Graph::tensor(int64_t Id) const {
  auto It = Tensors.find(Id);
  assert(It != Tensors.end() && "unknown tensor id");
  return It->second;
}

Op &Graph::op(int64_t Id) {
  auto It = Ops.find(Id);
  assert(It != Ops.end() && "unknown op id");
  return It->second;
}

const Op &Graph::op(int64_t Id) const {
  auto It = Ops.find(Id);
  assert(It != Ops.end() && "unknown op id");
  return It->second;
}

std::vector<int64_t> Graph::opIds() const {
  std::vector<int64_t> Ids;
  Ids.reserve(Ops.size());
  for (const auto &[Id, O] : Ops)
    Ids.push_back(Id);
  return Ids;
}

std::vector<int64_t> Graph::tensorIds() const {
  std::vector<int64_t> Ids;
  Ids.reserve(Tensors.size());
  for (const auto &[Id, T] : Tensors)
    Ids.push_back(Id);
  return Ids;
}

size_t Graph::numOps() const { return Ops.size(); }

int64_t Graph::producerOf(int64_t TensorId) const {
  auto It = Producer.find(TensorId);
  if (It == Producer.end())
    return -1;
  return It->second;
}

std::vector<int64_t> Graph::consumersOf(int64_t TensorId) const {
  auto It = Consumers.find(TensorId);
  if (It == Consumers.end())
    return {};
  return It->second;
}

bool Graph::isOutput(int64_t TensorId) const {
  return std::find(OutputIds.begin(), OutputIds.end(), TensorId) !=
         OutputIds.end();
}

bool Graph::isInput(int64_t TensorId) const {
  return std::find(InputIds.begin(), InputIds.end(), TensorId) !=
         InputIds.end();
}

const runtime::TensorData *Graph::constantData(int64_t TensorId) const {
  auto It = ConstData.find(TensorId);
  if (It == ConstData.end())
    return nullptr;
  return &It->second;
}

runtime::TensorData *Graph::mutableConstantData(int64_t TensorId) {
  auto It = ConstData.find(TensorId);
  if (It == ConstData.end())
    return nullptr;
  if (It->second.isShared()) {
    It->second = It->second.clone();
  } else {
    // The last other sharer may just have released the payload on another
    // thread: its reads must happen before the caller's writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return &It->second;
}

void Graph::dropConstantData(const std::unordered_set<int64_t> &Keep) {
  for (auto It = ConstData.begin(); It != ConstData.end();)
    It = Keep.count(It->first) ? std::next(It) : ConstData.erase(It);
  for (auto &[Id, O] : Ops)
    if (O.Sub)
      O.Sub->dropConstantData();
}

void Graph::materializeConstantData() {
  for (auto &[Id, Data] : ConstData)
    if (Data.isView())
      Data = Data.clone();
}

//===----------------------------------------------------------------------===//
// Graph: mutation
//===----------------------------------------------------------------------===//

void Graph::recordOpLinks(int64_t OpId) {
  const Op &O = Ops.at(OpId);
  for (int64_t In : O.Inputs)
    Consumers[In].push_back(OpId);
  for (int64_t Out : O.Outputs) {
    assert(!Producer.count(Out) && "tensor already has a producer");
    Producer[Out] = OpId;
  }
}

void Graph::forgetOpLinks(int64_t OpId) {
  const Op &O = Ops.at(OpId);
  for (int64_t In : O.Inputs) {
    auto It = Consumers.find(In);
    if (It == Consumers.end())
      continue;
    auto &Vec = It->second;
    Vec.erase(std::remove(Vec.begin(), Vec.end(), OpId), Vec.end());
  }
  for (int64_t Out : O.Outputs)
    Producer.erase(Out);
}

void Graph::replaceAllUses(int64_t OldTensor, int64_t NewTensor) {
  Finalized = false;
  if (OldTensor == NewTensor)
    return;
  auto It = Consumers.find(OldTensor);
  if (It != Consumers.end()) {
    const std::vector<int64_t> Users = It->second;
    for (int64_t User : Users) {
      Op &O = Ops.at(User);
      for (int64_t &In : O.Inputs) {
        if (In != OldTensor)
          continue;
        In = NewTensor;
        Consumers[NewTensor].push_back(User);
      }
    }
    Consumers.erase(OldTensor);
  }
  for (int64_t &Out : OutputIds)
    if (Out == OldTensor)
      Out = NewTensor;
}

void Graph::eraseOp(int64_t OpId) {
  Finalized = false;
  assert(Ops.count(OpId) && "unknown op");
  forgetOpLinks(OpId);
  Ops.erase(OpId);
}

void Graph::eraseTensor(int64_t TensorId) {
  Finalized = false;
  assert(producerOf(TensorId) < 0 && consumersOf(TensorId).empty() &&
         "erasing a tensor still in use");
  Tensors.erase(TensorId);
  ConstData.erase(TensorId);
  InputIds.erase(std::remove(InputIds.begin(), InputIds.end(), TensorId),
                 InputIds.end());
}

void Graph::replaceOutput(int64_t OldTensor, int64_t NewTensor) {
  Finalized = false;
  assert(Tensors.count(NewTensor) && "unknown replacement tensor");
  for (int64_t &Out : OutputIds)
    if (Out == OldTensor)
      Out = NewTensor;
}

void Graph::setOutputs(std::vector<int64_t> NewOutputs) {
  Finalized = false;
  for (int64_t Out : NewOutputs) {
    (void)Out;
    assert(Tensors.count(Out) && "graph output must name a tensor");
  }
  OutputIds = std::move(NewOutputs);
}

void Graph::setInputs(std::vector<int64_t> NewInputs) {
  Finalized = false;
  for (int64_t In : NewInputs) {
    (void)In;
    assert(Tensors.count(In) && "graph input must name a tensor");
  }
  InputIds = std::move(NewInputs);
}

void Graph::setOpInputs(int64_t OpId, std::vector<int64_t> NewInputs) {
  Finalized = false;
  Op &O = Ops.at(OpId);
  for (int64_t In : O.Inputs) {
    auto It = Consumers.find(In);
    if (It == Consumers.end())
      continue;
    auto &Vec = It->second;
    Vec.erase(std::remove(Vec.begin(), Vec.end(), OpId), Vec.end());
  }
  O.Inputs = std::move(NewInputs);
  for (int64_t In : O.Inputs)
    Consumers[In].push_back(OpId);
}

//===----------------------------------------------------------------------===//
// Graph: analysis
//===----------------------------------------------------------------------===//

std::vector<int64_t> Graph::topologicalOrder() const {
  std::unordered_map<int64_t, int> PendingInputs;
  // A min-heap: the smallest ready id comes next, for determinism.
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<int64_t>>
      Ready;
  for (const auto &[Id, O] : Ops) {
    int Count = 0;
    for (int64_t In : O.Inputs)
      if (producerOf(In) >= 0)
        ++Count;
    PendingInputs[Id] = Count;
    if (Count == 0)
      Ready.push(Id);
  }
  std::vector<int64_t> Order;
  Order.reserve(Ops.size());
  while (!Ready.empty()) {
    const int64_t Id = Ready.top();
    Ready.pop();
    Order.push_back(Id);
    for (int64_t Out : Ops.at(Id).Outputs)
      for (int64_t User : consumersOf(Out))
        if (--PendingInputs[User] == 0)
          Ready.push(User);
  }
  if (Order.size() != Ops.size())
    fatalError("cycle detected in graph");
  return Order;
}

std::string Graph::verify() const {
  for (const auto &[Id, O] : Ops) {
    for (int64_t In : O.Inputs)
      if (!Tensors.count(In))
        return formatString("op%lld reads unknown tensor %lld", (long long)Id,
                            (long long)In);
    for (int64_t Out : O.Outputs) {
      if (!Tensors.count(Out))
        return formatString("op%lld writes unknown tensor %lld",
                            (long long)Id, (long long)Out);
      auto It = Producer.find(Out);
      if (It == Producer.end() || It->second != Id)
        return formatString("producer map inconsistent for tensor %lld",
                            (long long)Out);
    }
  }
  for (int64_t Out : OutputIds)
    if (!Tensors.count(Out))
      return formatString("graph output %lld is not a tensor",
                          (long long)Out);
  for (int64_t In : InputIds)
    if (!Tensors.count(In))
      return formatString("graph input %lld is not a tensor", (long long)In);
  // Every non-input, non-constant tensor consumed by an op needs a producer.
  for (const auto &[Id, O] : Ops)
    for (int64_t In : O.Inputs) {
      const LogicalTensor &T = Tensors.at(In);
      if (T.isConstant() || isInput(In))
        continue;
      if (producerOf(In) < 0)
        return formatString("tensor %lld consumed by op%lld has no producer",
                            (long long)In, (long long)Id);
    }
  return std::string();
}

Status Graph::validate() const {
  const std::string Err = verify();
  if (!Err.empty())
    return Status::error(StatusCode::InvalidGraph, Err);
  for (const auto &[Id, T] : Tensors)
    for (size_t D = 0; D < T.Shape.size(); ++D) {
      if (T.Shape[D] == LogicalTensor::kDynamicDim) {
        // The late-bound batch sentinel is legal only as the leading
        // dimension of a variable tensor; constants have fixed contents
        // and therefore fixed shapes.
        if (D != 0)
          return Status::error(
              StatusCode::InvalidGraph,
              formatString("tensor %lld has a dynamic dimension at "
                           "position %zu; only the leading (batch) "
                           "dimension may be dynamic",
                           (long long)Id, D));
        if (T.isConstant())
          return Status::error(
              StatusCode::InvalidGraph,
              formatString("constant tensor %lld cannot have a dynamic "
                           "batch dimension",
                           (long long)Id));
        continue;
      }
      if (T.Shape[D] <= 0)
        return Status::error(
            StatusCode::InvalidGraph,
            formatString("tensor %lld has non-positive dimension %lld",
                         (long long)Id, (long long)T.Shape[D]));
    }
  // Dynamic-batch flow: the sentinel names one shared batch symbol, so an
  // op either maps batch rows to batch rows (every output dynamic when any
  // input is) or is fully static. This is what makes padded polymorphic
  // execution row-exact: rows beyond the real batch never feed rows inside
  // it.
  for (const auto &[Id, O] : Ops) {
    bool DynIn = false;
    for (int64_t In : O.inputs())
      if (Tensors.at(In).hasDynamicBatch())
        DynIn = true;
    for (int64_t Out : O.outputs()) {
      const bool DynOut = Tensors.at(Out).hasDynamicBatch();
      if (DynIn && !DynOut)
        return Status::error(
            StatusCode::InvalidGraph,
            formatString("op%lld consumes a dynamic-batch tensor but "
                         "produces static tensor %lld: ops must carry the "
                         "batch dimension through (reductions over the "
                         "dynamic batch are unsupported)",
                         (long long)Id, (long long)Out));
      if (!DynIn && DynOut)
        return Status::error(
            StatusCode::InvalidGraph,
            formatString("op%lld produces dynamic-batch tensor %lld from "
                         "fully static inputs",
                         (long long)Id, (long long)Out));
    }
    if (!DynIn)
      continue;
    // Dyn-in => dyn-out alone does not rule out shape-preserving ops
    // whose *operating axis* is the batch axis itself (e.g. softmax over
    // a rank-1 dynamic tensor normalizes across the batch): check the
    // axis each op kind mixes elements along.
    auto rejectBatchMix = [OpId = Id](const char *Why) {
      return Status::error(
          StatusCode::InvalidGraph,
          formatString("op%lld %s the dynamic batch dimension, which "
                       "breaks batch-row independence",
                       (long long)OpId, Why));
    };
    auto resolvedAxis = [](int64_t Axis, int64_t Rank) {
      return Axis < 0 ? Rank + Axis : Axis;
    };
    const int64_t InRank =
        O.inputs().empty() ? 0 : Tensors.at(O.input(0)).rank();
    switch (O.kind()) {
    case OpKind::Softmax:
      if (resolvedAxis(O.getAttrInt("axis", -1), InRank) == 0)
        return rejectBatchMix("normalizes along");
      break;
    case OpKind::BatchNorm:
    case OpKind::LayerNorm:
      // Both normalize the last (channel) dimension.
      if (InRank == 1)
        return rejectBatchMix("normalizes along");
      break;
    case OpKind::ReduceSum:
    case OpKind::ReduceMax:
      for (int64_t Axis : O.getAttrIntVec("axes"))
        if (resolvedAxis(Axis, InRank) == 0)
          return rejectBatchMix("reduces over");
      break;
    case OpKind::MatMul:
      // The dynamic dim must be an M/leading-batch dim, never the
      // contraction dim: A needs rank >= 2, B needs a leading batch dim.
      if (Tensors.at(O.input(0)).hasDynamicBatch() && InRank < 2)
        return rejectBatchMix("contracts over");
      if (O.numInputs() > 1 && Tensors.at(O.input(1)).hasDynamicBatch() &&
          Tensors.at(O.input(1)).rank() < 3)
        return rejectBatchMix("contracts over");
      break;
    case OpKind::Quantize:
    case OpKind::Dequantize:
      // Per-channel parameters along the batch axis would need one scale
      // per (late-bound) row.
      if (O.getAttrFloatVec("scales").size() > 1 &&
          resolvedAxis(O.getAttrInt("axis", -1), InRank) == 0)
        return rejectBatchMix("applies per-channel parameters along");
      break;
    case OpKind::Reshape: {
      // A dynamic reshape must keep the per-batch-row element count so
      // the shared batch symbol stays linear ([B,x,y] -> [B,x*y] is
      // fine, [B,2k] -> [2B,k] is not representable).
      auto RowElems = [this](int64_t TId) {
        const LogicalTensor &T = Tensors.at(TId);
        int64_t N = 1;
        for (size_t D = 1; D < T.Shape.size(); ++D)
          N *= T.Shape[D];
        return N;
      };
      if (RowElems(O.input(0)) != RowElems(O.output(0)))
        return Status::error(
            StatusCode::InvalidGraph,
            formatString("op%lld: dynamic reshape must preserve the "
                         "per-batch-row element count",
                         (long long)Id));
      break;
    }
    default:
      break;
    }
  }
  return Status::ok();
}

bool Graph::hasDynamicDims() const {
  for (const auto &[Id, T] : Tensors)
    if (T.hasDynamicBatch())
      return true;
  return false;
}

Graph Graph::specializeBatch(int64_t Batch) const {
  assert(Batch > 0 && "specialization batch must be positive");
  // Constants are shared, views included: a bucket's compile shares them
  // in turn, and copies only views (which Session's source graph never
  // holds), so no bucket copies a weight.
  Graph Copy = clone(/*WithConstData=*/false);
  Copy.ConstData = ConstData;
  for (auto &[Id, T] : Copy.Tensors)
    if (T.hasDynamicBatch())
      T.Shape[0] = Batch;
  // The copy is a different graph shape-wise; make finalize/compile
  // re-validate it from scratch.
  Copy.Finalized = false;
  return Copy;
}

Status Graph::finalize() {
  if (const Status S = validate(); !S.isOk())
    return S;
  Finalized = true;
  return Status::ok();
}

namespace {

/// FNV-1a accumulation over raw bytes; the basis of Graph::fingerprint().
struct Fnv1a {
  uint64_t H = 1469598103934665603ull;

  void bytes(const void *Data, size_t Len) {
    // Constant payloads dominate the fingerprint of weight-carrying
    // graphs, and fingerprinting runs on every compile whether or not
    // the artifact cache hits — large spans fold through the 4-lane
    // bulk digest (support/serial.h) at memory speed, small fields
    // through a word-wise FNV-1a chain (8 bytes per multiply).
    if (Len >= 1024) {
      u64(fnv1aBytesBulk(Data, Len));
      return;
    }
    const auto *P = static_cast<const unsigned char *>(Data);
    size_t I = 0;
    for (; I + 8 <= Len; I += 8) {
      uint64_t W;
      std::memcpy(&W, P + I, 8);
      H ^= W;
      H *= 1099511628211ull;
    }
    for (; I < Len; ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
  }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) { bytes(&V, sizeof(V)); }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void i64vec(const std::vector<int64_t> &V) {
    u64(V.size());
    for (int64_t X : V)
      i64(X);
  }
};

} // namespace

uint64_t Graph::fingerprint() const {
  Fnv1a H;
  // Canonical dense renumbering of tensor ids by first appearance, so the
  // hash is independent of construction-order id gaps.
  std::unordered_map<int64_t, uint64_t> Canon;
  auto canonId = [&](int64_t Id) -> uint64_t {
    auto It = Canon.find(Id);
    if (It != Canon.end())
      return It->second;
    const uint64_t C = Canon.size();
    Canon.emplace(Id, C);
    return C;
  };
  // Per-tensor digests are memoized: a tensor referenced by several ops
  // (notably large constants, whose byte payload dominates) is hashed
  // exactly once per fingerprint() call.
  std::unordered_map<int64_t, uint64_t> DigestMemo;
  auto hashTensor = [&](int64_t Id) {
    H.u64(canonId(Id));
    auto MemoIt = DigestMemo.find(Id);
    if (MemoIt != DigestMemo.end()) {
      H.u64(MemoIt->second);
      return;
    }
    const LogicalTensor &T = Tensors.at(Id);
    Fnv1a TH;
    TH.u64(static_cast<uint64_t>(T.Ty));
    TH.i64vec(T.Shape);
    TH.u64(static_cast<uint64_t>(T.Lay.K));
    TH.i64(T.Lay.Block0);
    TH.i64(T.Lay.Block1);
    TH.u64(static_cast<uint64_t>(T.Property));
    // Constant values are part of identity: two graphs differing only in
    // weight data must compile (and fold) separately.
    auto DataIt = ConstData.find(Id);
    if (DataIt != ConstData.end() && DataIt->second.valid()) {
      TH.i64(DataIt->second.numBytes());
      TH.bytes(DataIt->second.data(),
               static_cast<size_t>(DataIt->second.numBytes()));
    } else {
      TH.i64(-1);
    }
    DigestMemo.emplace(Id, TH.H);
    H.u64(TH.H);
  };
  H.u64(InputIds.size());
  for (int64_t In : InputIds)
    hashTensor(In);
  const std::vector<int64_t> Order = topologicalOrder();
  H.u64(Order.size());
  for (int64_t OpId : Order) {
    const Op &O = Ops.at(OpId);
    H.u64(static_cast<uint64_t>(O.kind()));
    H.u64(O.attrs().size());
    for (const auto &[Name, Value] : O.attrs()) {
      H.str(Name);
      H.u64(Value.index());
      if (const int64_t *V = std::get_if<int64_t>(&Value))
        H.i64(*V);
      else if (const double *V = std::get_if<double>(&Value))
        H.f64(*V);
      else if (const std::string *V = std::get_if<std::string>(&Value))
        H.str(*V);
      else if (const auto *V = std::get_if<std::vector<int64_t>>(&Value))
        H.i64vec(*V);
      else if (const auto *V = std::get_if<std::vector<double>>(&Value)) {
        H.u64(V->size());
        for (double D : *V)
          H.f64(D);
      }
    }
    H.u64(O.numInputs());
    for (int64_t In : O.inputs())
      hashTensor(In);
    H.u64(O.numOutputs());
    for (int64_t Out : O.outputs())
      hashTensor(Out);
    if (const Graph *Sub = O.subgraph())
      H.u64(Sub->fingerprint());
  }
  H.u64(OutputIds.size());
  for (int64_t Out : OutputIds)
    H.u64(canonId(Out));
  return H.H;
}

Graph Graph::clone(bool WithConstData) const {
  Graph Copy;
  Copy.Tensors = Tensors;
  Copy.InputIds = InputIds;
  Copy.OutputIds = OutputIds;
  Copy.NextTensorId = NextTensorId;
  Copy.NextOpId = NextOpId;
  Copy.Finalized = Finalized;
  for (const auto &[Id, O] : Ops) {
    Op NewOp(O.Id, O.Kind);
    NewOp.Inputs = O.Inputs;
    NewOp.Outputs = O.Outputs;
    NewOp.Attrs = O.Attrs;
    if (O.Sub) {
      auto SubCopy = std::make_unique<Graph>(O.Sub->clone());
      NewOp.Sub = std::move(SubCopy);
    }
    Copy.Ops.emplace(Id, std::move(NewOp));
    Copy.recordOpLinks(Id);
  }
  if (WithConstData)
    for (const auto &[Id, Data] : ConstData)
      Copy.ConstData[Id] = Data.isView() ? Data.clone() : Data;
  return Copy;
}

std::string Graph::toString() const {
  std::string Out = "graph {\n";
  Out += "  inputs: ";
  std::vector<std::string> Parts;
  for (int64_t In : InputIds)
    Parts.push_back(tensor(In).toString());
  Out += joinStrings(Parts, ", ") + "\n";
  for (int64_t Id : topologicalOrder()) {
    Out += "  " + op(Id).toString(*this) + "\n";
    if (const Graph *Sub = op(Id).subgraph()) {
      std::string SubStr = Sub->toString();
      // Indent nested dump.
      std::string Indented;
      size_t Pos = 0;
      while (Pos < SubStr.size()) {
        size_t Eol = SubStr.find('\n', Pos);
        if (Eol == std::string::npos)
          Eol = SubStr.size();
        Indented += "    " + SubStr.substr(Pos, Eol - Pos) + "\n";
        Pos = Eol + 1;
      }
      Out += Indented;
    }
  }
  Parts.clear();
  for (int64_t OutId : OutputIds)
    Parts.push_back(tensor(OutId).toString());
  Out += "  outputs: " + joinStrings(Parts, ", ") + "\n}\n";
  return Out;
}

std::unordered_set<int64_t> foldSideOps(const Graph &G,
                                        const std::vector<int64_t> &Topo) {
  std::unordered_set<int64_t> FoldOps;
  std::unordered_set<int64_t> FoldTensors;
  for (int64_t OpId : Topo) {
    const Op &O = G.op(OpId);
    bool AllConst = !O.inputs().empty();
    for (int64_t In : O.inputs())
      if (!G.tensor(In).isConstant() && !FoldTensors.count(In)) {
        AllConst = false;
        break;
      }
    // Subgraph-bearing ops (a wrapped compensation chain) qualify too:
    // their cloned constants make them self-contained.
    if (!AllConst || O.getAttrString("impl") == "reference")
      continue;
    bool ProducesOutput = false;
    for (int64_t Out : O.outputs())
      if (G.isOutput(Out))
        ProducesOutput = true;
    if (ProducesOutput)
      continue;
    FoldOps.insert(OpId);
    for (int64_t Out : O.outputs())
      FoldTensors.insert(Out);
  }
  return FoldOps;
}

} // namespace graph
} // namespace gc
