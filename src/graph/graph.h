//===- graph.h - Graph IR ----------------------------------------*- C++ -*-===//
///
/// \file
/// The Graph IR of §II: a graph owns a set of OPs and logical tensors. Each
/// OP has a kind, category, attributes, and input/output logical tensors.
/// The graph tracks producer/consumer maps, supports use replacement and
/// removal (for the rewriting passes of §V), topological ordering, cloning,
/// verification and printing. Constant tensors may carry compile-time data
/// used by constant folding and constant weight preprocessing.
///
//===----------------------------------------------------------------------===//

#ifndef GC_GRAPH_GRAPH_H
#define GC_GRAPH_GRAPH_H

#include "graph/logical_tensor.h"
#include "graph/op_kind.h"
#include "runtime/tensor_data.h"
#include "support/status.h"

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

namespace gc {
namespace graph {

class Graph;

/// Attribute value of an op (scale factors, axes, transpose flags, ...).
using AttrValue =
    std::variant<int64_t, double, std::string, std::vector<int64_t>,
                 std::vector<double>>;

/// Ordered attribute map (ordered so printing and CSE hashing are
/// deterministic).
using AttrMap = std::map<std::string, AttrValue>;

/// One operation in a computation graph.
class Op {
public:
  Op(int64_t Id, OpKind Kind) : Id(Id), Kind(Kind) {}

  int64_t id() const { return Id; }
  OpKind kind() const { return Kind; }
  OpCategory category() const { return opCategory(Kind); }

  const std::vector<int64_t> &inputs() const { return Inputs; }
  const std::vector<int64_t> &outputs() const { return Outputs; }
  int64_t input(size_t I) const { return Inputs[I]; }
  int64_t output(size_t I) const { return Outputs[I]; }
  size_t numInputs() const { return Inputs.size(); }
  size_t numOutputs() const { return Outputs.size(); }

  const AttrMap &attrs() const { return Attrs; }

  bool hasAttr(const std::string &Name) const { return Attrs.count(Name); }

  void setAttr(const std::string &Name, AttrValue Value) {
    Attrs[Name] = std::move(Value);
  }

  int64_t getAttrInt(const std::string &Name, int64_t Default = 0) const;
  double getAttrFloat(const std::string &Name, double Default = 0.0) const;
  std::string getAttrString(const std::string &Name,
                            const std::string &Default = "") const;
  std::vector<int64_t> getAttrIntVec(const std::string &Name) const;
  std::vector<double> getAttrFloatVec(const std::string &Name) const;

  /// FusedOp only: the encapsulated subgraph (fine-grain fusion region).
  /// The subgraph's inputs/outputs line up index-wise with this op's
  /// inputs/outputs.
  Graph *subgraph() const { return Sub.get(); }
  void setSubgraph(std::unique_ptr<Graph> G);

  std::string toString(const Graph &Parent) const;

private:
  friend class Graph;

  int64_t Id;
  OpKind Kind;
  std::vector<int64_t> Inputs;
  std::vector<int64_t> Outputs;
  AttrMap Attrs;
  std::shared_ptr<Graph> Sub; // shared so Op stays copyable for clone()
};

/// A DNN computation graph: ops + logical tensors + boundary lists.
class Graph {
public:
  Graph() = default;
  Graph(const Graph &) = delete;
  Graph &operator=(const Graph &) = delete;
  Graph(Graph &&) = default;
  Graph &operator=(Graph &&) = default;

  //===--------------------------------------------------------------------===//
  // Construction
  //===--------------------------------------------------------------------===//

  /// Creates a logical tensor and returns its id.
  int64_t addTensor(DataType Ty, std::vector<int64_t> Shape,
                    const std::string &Name = "",
                    TensorProperty Property = TensorProperty::Variable);

  /// Creates an op with given inputs producing one fresh output tensor of
  /// (\p OutTy, \p OutShape); returns the new output tensor id.
  int64_t addOp(OpKind Kind, const std::vector<int64_t> &Inputs,
                DataType OutTy, std::vector<int64_t> OutShape,
                AttrMap Attrs = {}, const std::string &Name = "");

  /// Creates an op writing into existing output tensors. Returns op id.
  int64_t addOpExplicit(OpKind Kind, const std::vector<int64_t> &Inputs,
                        const std::vector<int64_t> &Outputs,
                        AttrMap Attrs = {});

  /// Declares \p TensorId as a graph input / output.
  void markInput(int64_t TensorId) {
    InputIds.push_back(TensorId);
    Finalized = false;
  }
  void markOutput(int64_t TensorId) {
    OutputIds.push_back(TensorId);
    Finalized = false;
  }

  /// Attaches compile-time data to a constant tensor. An owned payload
  /// that another TensorData still shares is copied first, so nothing the
  /// caller kept can write into what the graph (and every partition
  /// compiled from it) reads. A view is attached as is: the caller keeps
  /// its memory alive and unchanged until the graph is compiled, which
  /// copies views.
  void setConstantData(int64_t TensorId, runtime::TensorData Data);

  /// Attaches \p From's payload of \p FromId to \p TensorId, sharing its
  /// storage (a view stays a view of the same memory). The compiler's
  /// graph-to-graph path: unlike setConstantData it never copies. Returns
  /// false, attaching nothing, when \p From holds no payload for \p FromId.
  bool shareConstantData(int64_t TensorId, const Graph &From,
                         int64_t FromId);

  //===--------------------------------------------------------------------===//
  // Deserialization (persistent artifact cache)
  //===--------------------------------------------------------------------===//

  /// Re-creates a tensor under its original id (bindings, fold outputs and
  /// constant caches all key by source ids, so deserialization must
  /// preserve them exactly). Unlike addTensor this validates instead of
  /// asserting — the input is an untrusted cache entry. Fails on a
  /// duplicate or negative id.
  Status restoreTensor(LogicalTensor T);

  /// Re-creates an op under its original id; every input/output id must
  /// name a previously restored tensor. \p Sub restores a FusedOp
  /// subgraph (null otherwise).
  Status restoreOp(int64_t OpId, OpKind Kind, std::vector<int64_t> Inputs,
                   std::vector<int64_t> Outputs, AttrMap Attrs,
                   std::unique_ptr<Graph> Sub = nullptr);

  /// Restores the id allocation counters so later mutation of a
  /// deserialized graph cannot collide with restored ids.
  void restoreIdCounters(int64_t NextTensor, int64_t NextOp);

  //===--------------------------------------------------------------------===//
  // Access
  //===--------------------------------------------------------------------===//

  LogicalTensor &tensor(int64_t Id);
  const LogicalTensor &tensor(int64_t Id) const;
  /// True when \p Id names a tensor of this graph — tensor() asserts on
  /// unknown ids, so untrusted ids must be probed with this first.
  bool hasTensor(int64_t Id) const { return Tensors.count(Id) != 0; }
  Op &op(int64_t Id);
  const Op &op(int64_t Id) const;

  /// Iterates live ops in id order (erased ops are skipped).
  std::vector<int64_t> opIds() const;
  /// Live tensor ids in id order.
  std::vector<int64_t> tensorIds() const;
  size_t numOps() const;

  const std::vector<int64_t> &inputs() const { return InputIds; }
  const std::vector<int64_t> &outputs() const { return OutputIds; }

  /// Id of the op producing \p TensorId, or -1 for graph inputs/constants.
  int64_t producerOf(int64_t TensorId) const;
  /// Ids of ops reading \p TensorId.
  std::vector<int64_t> consumersOf(int64_t TensorId) const;
  /// True when \p TensorId is listed as a graph output.
  bool isOutput(int64_t TensorId) const;
  /// True when \p TensorId is listed as a graph input.
  bool isInput(int64_t TensorId) const;

  /// Constant data of \p TensorId, or nullptr. The payload may be shared
  /// with clones and compiled partitions: write only through
  /// mutableConstantData.
  const runtime::TensorData *constantData(int64_t TensorId) const;
  /// Writable constant data of \p TensorId, or nullptr. Copies on write: a
  /// payload shared with another graph is first replaced by a private
  /// copy, so the write changes this graph only. Take a fresh pointer
  /// after each clone() or compile; an older one still points into the
  /// storage the copy shares.
  runtime::TensorData *mutableConstantData(int64_t TensorId);

  /// Discards the constant byte payloads of every tensor not in \p Keep,
  /// and all of those of FusedOp subgraphs (tensors stay marked
  /// Constant). Session drops a compiled partition subgraph's payloads,
  /// and a folded partition those no execution reads.
  void dropConstantData(const std::unordered_set<int64_t> &Keep = {});

  /// Deep-copies every view payload into owned storage; shared owned
  /// payloads stay shared. Used on fallback partition subgraphs, whose
  /// views of the caller's memory may not outlive them.
  void materializeConstantData();

  //===--------------------------------------------------------------------===//
  // Mutation
  //===--------------------------------------------------------------------===//

  /// Rewrites every use of \p OldTensor (op inputs and graph outputs) to
  /// \p NewTensor.
  void replaceAllUses(int64_t OldTensor, int64_t NewTensor);

  /// Removes an op. Its output tensors stay in the graph (callers remove
  /// or rewire them as needed).
  void eraseOp(int64_t OpId);

  /// Removes a tensor that no op consumes or produces.
  void eraseTensor(int64_t TensorId);

  /// Replaces the input list of an op (updates consumer maps).
  void setOpInputs(int64_t OpId, std::vector<int64_t> NewInputs);

  /// Rewrites every occurrence of \p OldTensor in the graph output list to
  /// \p NewTensor (op inputs are untouched; see replaceAllUses for both).
  void replaceOutput(int64_t OldTensor, int64_t NewTensor);

  /// Replaces the whole graph output list. Every id must name a tensor.
  void setOutputs(std::vector<int64_t> NewOutputs);

  /// Replaces the whole graph input list. Every id must name a tensor.
  void setInputs(std::vector<int64_t> NewInputs);

  //===--------------------------------------------------------------------===//
  // Analysis
  //===--------------------------------------------------------------------===//

  /// Ops in topological order (producers before consumers). Aborts on
  /// cycles (the IR is a DAG by construction).
  std::vector<int64_t> topologicalOrder() const;

  /// Checks structural invariants; returns an error description or empty.
  std::string verify() const;

  /// Full compile-readiness validation: structural verify() plus shape
  /// sanity (positive dimensions, or LogicalTensor::kDynamicDim in the
  /// leading position of variable tensors) and dynamic-batch flow rules
  /// (the sentinel must propagate along dim 0 through every consuming op,
  /// which is what makes padded polymorphic execution row-exact). Used by
  /// finalize() and by api::Session::compile for graphs that skipped
  /// finalize().
  Status validate() const;

  /// True when any tensor carries the dynamic-batch sentinel; such graphs
  /// compile into batch-polymorphic CompiledGraphs.
  bool hasDynamicDims() const;

  /// Deep copy with every LogicalTensor::kDynamicDim leading dimension
  /// replaced by \p Batch (> 0). Every constant payload, views included,
  /// is shared with this graph. The returned graph is fully static and
  /// compiles through the normal pipeline; Session uses it to build
  /// per-bucket specializations of a polymorphic graph.
  Graph specializeBatch(int64_t Batch) const;

  /// Marks graph construction complete: runs validate() and freezes the
  /// graph for partitioning / compilation (mirroring the oneDNN Graph
  /// API's graph.finalize()). Idempotent; any subsequent mutation through
  /// the graph's mutator methods clears the finalized state (direct edits
  /// via the mutable op()/tensor() accessors do not — Session::compile
  /// re-validates regardless).
  Status finalize();

  /// True while finalize() has succeeded and no mutator ran since.
  bool isFinalized() const { return Finalized; }

  /// Canonical 64-bit content hash over ops (kind + attrs, topological
  /// order), tensors (dtype, shape, layout, constness, constant bytes) and
  /// the input/output boundary. Tensor/op ids are renumbered canonically,
  /// so two graphs built in different id orders but describing the same
  /// computation collide. Used as the compiled-partition cache key.
  uint64_t fingerprint() const;

  /// Deep copy of the structure, preserving ids. Owned constant payloads
  /// are shared, not copied (the graph co-owns them; a write through
  /// either graph's mutableConstantData copies first). Views are copied,
  /// because the graph does not own their memory. Pass false to attach no
  /// payload at all (the Partitioner shares only those of the tensors
  /// that survive subgraph extraction).
  Graph clone(bool WithConstData = true) const;

  /// Multi-line textual dump.
  std::string toString() const;

private:
  void recordOpLinks(int64_t OpId);
  void forgetOpLinks(int64_t OpId);

  std::map<int64_t, LogicalTensor> Tensors;
  std::map<int64_t, Op> Ops;
  std::vector<int64_t> InputIds;
  std::vector<int64_t> OutputIds;
  std::unordered_map<int64_t, int64_t> Producer;          // tensor -> op
  std::unordered_map<int64_t, std::vector<int64_t>> Consumers; // tensor -> ops
  std::unordered_map<int64_t, runtime::TensorData> ConstData;
  int64_t NextTensorId = 0;
  int64_t NextOpId = 0;
  bool Finalized = false;
};

/// The fold side of \p G (§V constant weight preprocessing): ops whose
/// transitive inputs are all compile-time constants, except ops that
/// produce a graph output (their results must be written at execution)
/// and ops pinned to the interpreter with impl="reference". The
/// partitioner admits these ops into compiled partitions whatever their
/// kind; the lowering driver moves them into the fold graph. \p Topo is
/// a topological order of G's ops.
std::unordered_set<int64_t> foldSideOps(const Graph &G,
                                        const std::vector<int64_t> &Topo);

} // namespace graph
} // namespace gc

#endif // GC_GRAPH_GRAPH_H
