//===- fusion.cpp - Fine-grain fusion region formation (§V) ---------------------===//
//
// Clusters the graph into Fused OP regions: each Tunable OP greedily
// absorbs succeeding Fusible OPs (elementwise, broadcast, reduction,
// quantize bridges) and then preceding reorder/transpose ops, subject to
// the paper's growth limits. Remaining fusible ops are grouped into
// elementwise-only regions. After this pass every compute op in the outer
// graph is a FusedOp whose subgraph holds the region body; lowering
// instantiates one template per region.
//
// When fine-grain fusion is disabled (ablation), regions are singletons --
// the structural wrapping still happens so the lowering driver sees a
// uniform graph of regions.
//
//===----------------------------------------------------------------------===//

#include "graph/graph.h"
#include "passes/pass.h"
#include "support/common.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace passes {

using namespace graph;

namespace {

/// Region growth limits (§V: "the region stops growing when a limit is
/// reached"): ops per region, fused last-axis reductions, and bytes of
/// non-constant inputs from outside the region.
constexpr int kMaxPostOps = 24;
constexpr int kMaxPostOpReductions = 2;
constexpr int64_t kMaxExtraInputBytes = int64_t{1} << 22;

/// True for op kinds that may join a region as post-ops.
bool isPostOpFusible(OpKind Kind) {
  if (isUnaryElementwise(Kind) || isBinaryElementwise(Kind))
    return true;
  switch (Kind) {
  case OpKind::ReduceSum:
  case OpKind::ReduceMax:
  case OpKind::DequantAcc:
  case OpKind::Quantize:
  case OpKind::Dequantize:
    return true;
  default:
    return false;
  }
}

class FusionPass : public Pass {
public:
  const char *name() const override { return "fine-grain-fusion"; }

  bool run(Graph &G, const PassOptions &Opts) override {
    // Snapshot: ops already wrapped are skipped (pass is idempotent).
    bool Changed = false;
    std::unordered_set<int64_t> Consumed; // ops already claimed by a region

    // Pass 1: regions seeded by Tunable ops, in topological order.
    for (int64_t OpId : G.topologicalOrder()) {
      if (Consumed.count(OpId))
        continue;
      const Op &O = G.op(OpId);
      if (O.kind() != OpKind::MatMul)
        continue;
      std::vector<int64_t> Region = growRegion(G, OpId, Opts, Consumed);
      outlineRegion(G, Region, /*Tunable=*/true);
      for (int64_t Id : Region)
        Consumed.insert(Id);
      Changed = true;
    }

    // Pass 2: remaining fusible ops form elementwise-only regions (chains
    // grown with the same joinability rule, no tunable seed).
    for (int64_t OpId : G.topologicalOrder()) {
      if (Consumed.count(OpId))
        continue;
      const Op &O = G.op(OpId);
      if (O.kind() == OpKind::FusedOp || O.kind() == OpKind::Reorder ||
          O.kind() == OpKind::Transpose || O.kind() == OpKind::Reshape)
        continue;
      std::vector<int64_t> Region = growRegion(G, OpId, Opts, Consumed);
      outlineRegion(G, Region, /*Tunable=*/false);
      for (int64_t Id : Region)
        Consumed.insert(Id);
      Changed = true;
    }
    return Changed;
  }

private:
  /// True when tensor \p TensorId transitively depends on any tensor in
  /// \p RegionTensors. Used to keep regions convex: an extra input that
  /// itself descends from a region output would create a cycle.
  bool dependsOnRegion(const Graph &G, int64_t TensorId,
                       const std::unordered_set<int64_t> &RegionTensors,
                       std::unordered_map<int64_t, bool> &Memo) {
    if (RegionTensors.count(TensorId))
      return true;
    auto It = Memo.find(TensorId);
    if (It != Memo.end())
      return It->second;
    Memo[TensorId] = false; // break cycles defensively
    const int64_t Prod = G.producerOf(TensorId);
    bool Result = false;
    if (Prod >= 0)
      for (int64_t In : G.op(Prod).inputs())
        if (dependsOnRegion(G, In, RegionTensors, Memo)) {
          Result = true;
          break;
        }
    Memo[TensorId] = Result;
    return Result;
  }

  /// Grows a region from \p SeedId: BFS over consumers, joining an op when
  /// all of its inputs are region tensors, constants, or acceptable extra
  /// inputs, until a growth limit trips.
  std::vector<int64_t> growRegion(Graph &G, int64_t SeedId,
                                  const PassOptions &Opts,
                                  const std::unordered_set<int64_t> &Consumed) {
    std::vector<int64_t> Region = {SeedId};
    if (!Opts.EnableFineGrainFusion)
      return Region;

    std::unordered_set<int64_t> InRegion = {SeedId};
    std::unordered_set<int64_t> RegionTensors;
    for (int64_t Out : G.op(SeedId).outputs())
      RegionTensors.insert(Out);

    int Reductions = 0;
    int64_t ExtraBytes = 0;
    bool Grew = true;
    while (Grew && static_cast<int>(Region.size()) < kMaxPostOps) {
      Grew = false;
      // Deterministic candidate scan: consumers of region tensors in
      // ascending op id.
      std::vector<int64_t> Candidates;
      for (int64_t T : RegionTensors)
        for (int64_t User : G.consumersOf(T))
          if (!InRegion.count(User) && !Consumed.count(User))
            Candidates.push_back(User);
      std::sort(Candidates.begin(), Candidates.end());
      Candidates.erase(std::unique(Candidates.begin(), Candidates.end()),
                       Candidates.end());
      for (int64_t Cand : Candidates) {
        const Op &C = G.op(Cand);
        if (!isPostOpFusible(C.kind()))
          continue;
        if (Opts.PrimitivesMode) {
          // Post-op API emulation: linear chains only, no reductions,
          // at most 5 post-ops per primitive.
          if (isReduction(C.kind()) ||
              static_cast<int>(Region.size()) > 5)
            continue;
        }
        if (isReduction(C.kind())) {
          // Only last-axis reductions fuse (they commit at the full-row
          // anchor); respect the reduction count limit.
          std::vector<int64_t> Axes = C.getAttrIntVec("axes");
          const int64_t Rank = G.tensor(C.input(0)).rank();
          const bool LastAxis =
              Axes.size() == 1 && (Axes[0] == -1 || Axes[0] == Rank - 1);
          if (!LastAxis || Reductions >= kMaxPostOpReductions)
            continue;
        }
        // All inputs must be region tensors, constants, or affordable
        // extra inputs that do not themselves descend from the region
        // (convexity).
        bool Ok = true;
        int64_t CandExtraBytes = 0;
        std::unordered_map<int64_t, bool> Memo;
        for (int64_t In : C.inputs()) {
          if (RegionTensors.count(In))
            continue;
          const LogicalTensor &T = G.tensor(In);
          if (T.isConstant())
            continue;
          if (dependsOnRegion(G, In, RegionTensors, Memo)) {
            Ok = false;
            break;
          }
          CandExtraBytes += T.numElements() * dataTypeSize(T.Ty);
        }
        if (!Ok || ExtraBytes + CandExtraBytes > kMaxExtraInputBytes)
          continue;
        // Join.
        Region.push_back(Cand);
        InRegion.insert(Cand);
        for (int64_t Out : C.outputs())
          RegionTensors.insert(Out);
        if (isReduction(C.kind()))
          ++Reductions;
        ExtraBytes += CandExtraBytes;
        Grew = true;
        if (static_cast<int>(Region.size()) >= kMaxPostOps)
          break;
      }
    }
    return Region;
  }

  /// Moves \p Region ops into a fresh subgraph and replaces them with one
  /// FusedOp in \p G. Output tensor ids are preserved so downstream links
  /// stay intact.
  void outlineRegion(Graph &G, const std::vector<int64_t> &Region,
                     bool Tunable) {
    std::unordered_set<int64_t> InRegion(Region.begin(), Region.end());

    // Classify tensors.
    std::unordered_set<int64_t> ProducedInside;
    for (int64_t OpId : Region)
      for (int64_t Out : G.op(OpId).outputs())
        ProducedInside.insert(Out);

    std::vector<int64_t> ExternalInputs; // variable tensors from outside
    std::vector<int64_t> ConstInputs;    // constants shared into subgraph
    std::vector<int64_t> RegionOutputs;  // consumed outside or graph outputs
    // Matmul operands always stay external: layout propagation rewires
    // the weight side to a prepack reorder in the outer graph, and the
    // template addresses both operands through outer buffers.
    std::unordered_set<int64_t> ForceExternal;
    for (int64_t OpId : Region)
      if (G.op(OpId).kind() == OpKind::MatMul)
        for (int64_t In : G.op(OpId).inputs())
          ForceExternal.insert(In);
    for (int64_t OpId : Region) {
      for (int64_t In : G.op(OpId).inputs()) {
        if (ProducedInside.count(In))
          continue;
        // Small non-operand constants (scalars, bias/scale vectors) move
        // into the region; everything else stays an external input.
        const LogicalTensor &T = G.tensor(In);
        const bool ConstInside = T.isConstant() &&
                                 T.numElements() <= 4096 &&
                                 !ForceExternal.count(In);
        auto &List = ConstInside ? ConstInputs : ExternalInputs;
        if (std::find(List.begin(), List.end(), In) == List.end())
          List.push_back(In);
      }
    }
    for (int64_t OpId : Region)
      for (int64_t Out : G.op(OpId).outputs()) {
        bool UsedOutside = G.isOutput(Out);
        for (int64_t User : G.consumersOf(Out))
          if (!InRegion.count(User))
            UsedOutside = true;
        if (UsedOutside)
          RegionOutputs.push_back(Out);
      }
    assert(!RegionOutputs.empty() && "region with no live outputs");

    // Build the subgraph. Tensor ids are fresh; OldToNew maps outer ids.
    auto Sub = std::make_unique<Graph>();
    std::unordered_map<int64_t, int64_t> OldToNew;
    auto importTensor = [&](int64_t OuterId) -> int64_t {
      auto It = OldToNew.find(OuterId);
      if (It != OldToNew.end())
        return It->second;
      const LogicalTensor &T = G.tensor(OuterId);
      const int64_t NewId = Sub->addTensor(T.Ty, T.Shape, T.Name, T.Property);
      Sub->tensor(NewId).Lay = T.Lay;
      OldToNew[OuterId] = NewId;
      return NewId;
    };
    for (int64_t In : ExternalInputs)
      Sub->markInput(importTensor(In));
    for (int64_t CIn : ConstInputs) {
      const int64_t NewId = importTensor(CIn);
      if (!Sub->shareConstantData(NewId, G, CIn))
        Sub->tensor(NewId).Property = TensorProperty::Constant;
    }
    // Ops in topological order within the region.
    std::vector<int64_t> Ordered;
    for (int64_t OpId : G.topologicalOrder())
      if (InRegion.count(OpId))
        Ordered.push_back(OpId);
    for (int64_t OpId : Ordered) {
      const Op &O = G.op(OpId);
      std::vector<int64_t> NewIns, NewOuts;
      for (int64_t In : O.inputs())
        NewIns.push_back(importTensor(In));
      for (int64_t Out : O.outputs())
        NewOuts.push_back(importTensor(Out));
      Sub->addOpExplicit(O.kind(), NewIns, NewOuts, O.attrs());
    }
    for (int64_t Out : RegionOutputs)
      Sub->markOutput(OldToNew.at(Out));

    // Constants referenced only inside move entirely; variable externals
    // become fused-op inputs. Remove the originals and splice the FusedOp.
    for (int64_t OpId : Region)
      G.eraseOp(OpId);
    AttrMap Attrs;
    Attrs["tunable"] = int64_t(Tunable ? 1 : 0);
    // Record whether a row reduction fused (forces NPN == 1 downstream).
    bool HasReduction = false;
    for (int64_t OpId : Sub->opIds())
      if (isReduction(Sub->op(OpId).kind()))
        HasReduction = true;
    Attrs["needs_full_rows"] = int64_t(HasReduction ? 1 : 0);

    const int64_t FusedId =
        G.addOpExplicit(OpKind::FusedOp, ExternalInputs, RegionOutputs,
                        std::move(Attrs));
    G.op(FusedId).setSubgraph(std::move(Sub));
  }
};

} // namespace

std::unique_ptr<Pass> createFusionPass() {
  return std::make_unique<FusionPass>();
}

} // namespace passes
} // namespace gc
