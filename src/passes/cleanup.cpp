//===- cleanup.cpp - CSE, DCE, constant folding ----------------------------------===//
//
// The general compiler optimizations the Graph IR module applies alongside
// the domain-specific passes (§V: "the general compiler optimizations like
// common subexpression elimination (CSE), dead code elimination, and
// constant folding").
//
//===----------------------------------------------------------------------===//

#include "graph/graph.h"
#include "graph/reference.h"
#include "passes/pass.h"

#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace passes {

using namespace graph;

namespace {

//===----------------------------------------------------------------------===//
// CSE
//===----------------------------------------------------------------------===//

/// Appends the object representation of \p V to \p Key.
template <typename T> void appendRaw(std::string &Key, const T &V) {
  Key.append(reinterpret_cast<const char *>(&V), sizeof V);
}

/// Appends \p N followed by the object representation of \p N elements.
template <typename T>
void appendCounted(std::string &Key, const T *Data, size_t N) {
  appendRaw(Key, static_cast<uint64_t>(N));
  Key.append(reinterpret_cast<const char *>(Data), N * sizeof(T));
}

/// Structural key of an op: the exact byte image of its kind, input ids
/// and attributes (name, variant index, value), every string and vector
/// length-prefixed. The encoding is injective, so equal keys mean equal
/// ops; comparing bytes keeps -0.0 apart from 0.0, merges NaNs only when
/// their bits match, and keeps same-valued attributes of different types
/// (int 1, double 1.0, string "1") apart. Deterministic because AttrMap
/// is ordered.
std::string opKey(const Op &O) {
  std::string Key;
  appendRaw(Key, O.kind());
  appendCounted(Key, O.inputs().data(), O.inputs().size());
  for (const auto &[Name, Value] : O.attrs()) {
    appendCounted(Key, Name.data(), Name.size());
    Key.push_back(static_cast<char>(Value.index()));
    if (const int64_t *V = std::get_if<int64_t>(&Value))
      appendRaw(Key, *V);
    else if (const double *V = std::get_if<double>(&Value))
      appendRaw(Key, *V);
    else if (const std::string *V = std::get_if<std::string>(&Value))
      appendCounted(Key, V->data(), V->size());
    else if (const auto *V = std::get_if<std::vector<int64_t>>(&Value))
      appendCounted(Key, V->data(), V->size());
    else if (const auto *V = std::get_if<std::vector<double>>(&Value))
      appendCounted(Key, V->data(), V->size());
  }
  return Key;
}

class CsePass : public Pass {
public:
  const char *name() const override { return "cse"; }

  bool run(Graph &G, const PassOptions &) override {
    bool Changed = false;
    std::unordered_map<std::string, int64_t> Seen; // key -> op id
    for (int64_t OpId : G.topologicalOrder()) {
      const Op &O = G.op(OpId);
      // Never CSE structural ops or multi-output ops.
      if (O.kind() == OpKind::FusedOp || O.numOutputs() != 1)
        continue;
      const std::string Key = opKey(O);
      auto [It, Inserted] = Seen.emplace(Key, OpId);
      if (Inserted)
        continue;
      // Duplicate: reuse the earlier op's output.
      G.replaceAllUses(O.output(0), G.op(It->second).output(0));
      G.eraseOp(OpId);
      Changed = true;
    }
    return Changed;
  }
};

//===----------------------------------------------------------------------===//
// DCE
//===----------------------------------------------------------------------===//

class DcePass : public Pass {
public:
  const char *name() const override { return "dce"; }

  bool run(Graph &G, const PassOptions &) override {
    bool Changed = false;
    // Mark ops reaching outputs.
    std::unordered_set<int64_t> LiveOps;
    std::vector<int64_t> Worklist;
    for (int64_t Out : G.outputs()) {
      const int64_t P = G.producerOf(Out);
      if (P >= 0 && LiveOps.insert(P).second)
        Worklist.push_back(P);
    }
    while (!Worklist.empty()) {
      const int64_t OpId = Worklist.back();
      Worklist.pop_back();
      for (int64_t In : G.op(OpId).inputs()) {
        const int64_t P = G.producerOf(In);
        if (P >= 0 && LiveOps.insert(P).second)
          Worklist.push_back(P);
      }
    }
    for (int64_t OpId : G.opIds()) {
      if (LiveOps.count(OpId))
        continue;
      G.eraseOp(OpId);
      Changed = true;
    }
    // Drop orphan tensors (no producer, no consumers, not graph boundary).
    for (int64_t TId : G.tensorIds()) {
      if (G.producerOf(TId) >= 0 || !G.consumersOf(TId).empty() ||
          G.isInput(TId) || G.isOutput(TId))
        continue;
      G.eraseTensor(TId);
      Changed = true;
    }
    return Changed;
  }
};

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

/// Results larger than this stay in the fold function (executed at first
/// run) instead of being folded at compile time, mirroring the paper's
/// "weight data buffer might not be available during the compilation".
constexpr int64_t kFoldMaxElements = 4096;

class ConstantFoldPass : public Pass {
public:
  const char *name() const override { return "constant-fold"; }

  bool run(Graph &G, const PassOptions &) override {
    bool Changed = false;
    for (int64_t OpId : G.topologicalOrder()) {
      const Op &O = G.op(OpId);
      if (O.kind() == OpKind::FusedOp || O.numOutputs() != 1)
        continue;
      // Quantization ops carry structure consumed by the low-precision
      // rewrite and the template lowering; folding them away would turn
      // int8 matmuls back into f32.
      if (O.kind() == OpKind::Quantize || O.kind() == OpKind::Dequantize)
        continue;
      if (G.isOutput(O.output(0)))
        continue; // keep producing ops for graph outputs
      // All inputs constant with data available?
      bool AllConst = !O.inputs().empty();
      std::vector<const runtime::TensorData *> Inputs;
      for (int64_t In : O.inputs()) {
        const runtime::TensorData *Data = G.constantData(In);
        if (!Data) {
          AllConst = false;
          break;
        }
        Inputs.push_back(Data);
      }
      if (!AllConst)
        continue;
      // Leave big results to the fold function (constant weight
      // preprocessing executes them at first run).
      const LogicalTensor &OutT = G.tensor(O.output(0));
      if (OutT.numElements() > kFoldMaxElements)
        continue;
      std::vector<runtime::TensorData> Outs = evalOpReference(G, O, Inputs);
      const int64_t OutId = O.output(0);
      G.eraseOp(OpId);
      G.setConstantData(OutId, std::move(Outs[0]));
      Changed = true;
    }
    return Changed;
  }
};

} // namespace

std::unique_ptr<Pass> createCsePass() { return std::make_unique<CsePass>(); }

std::unique_ptr<Pass> createDcePass() { return std::make_unique<DcePass>(); }

std::unique_ptr<Pass> createConstantFoldPass() {
  return std::make_unique<ConstantFoldPass>();
}

} // namespace passes
} // namespace gc
