//===- partitioner.cpp - Graph -> partition discovery -----------------------------===//

#include "api/partitioner.h"

#include "support/common.h"
#include "support/str.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace api {

using namespace graph;

bool Partitioner::isCompilable(const Graph &G, const Op &O) {
  // Explicit user pin: attr impl="reference" forces the fallback path.
  // This is the escape hatch for custom/unknown ops and for debugging a
  // suspect compiled kernel against the interpreter.
  if (O.getAttrString("impl") == "native")
    return true;
  if (O.getAttrString("impl") == "reference")
    return false;
  // The lowering driver only implements the transformer BSHD<->BHSD
  // permute; every other permutation interprets.
  if (O.kind() == OpKind::Transpose)
    return O.getAttrIntVec("perm") == std::vector<int64_t>{0, 2, 1, 3} &&
           G.tensor(O.input(0)).rank() == 4;
  return true;
}

namespace {

/// Splits one op group into weakly-connected components over
/// producer-consumer edges restricted to the group (ops that merely share
/// an input are *not* connected). Components are emitted in order of
/// their first member, so the op order inside each component — and the
/// overall topological order of the refined group list — is preserved.
std::vector<std::vector<int64_t>>
splitConnectedComponents(const Graph &G, const std::vector<int64_t> &Ops) {
  std::unordered_map<int64_t, size_t> Pos;
  for (size_t I = 0; I < Ops.size(); ++I)
    Pos.emplace(Ops[I], I);
  // Union-find over group positions.
  std::vector<size_t> Parent(Ops.size());
  for (size_t I = 0; I < Ops.size(); ++I)
    Parent[I] = I;
  std::function<size_t(size_t)> Find = [&](size_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  for (size_t I = 0; I < Ops.size(); ++I)
    for (int64_t In : G.op(Ops[I]).inputs()) {
      const int64_t Prod = G.producerOf(In);
      if (Prod < 0)
        continue;
      const auto It = Pos.find(Prod);
      if (It == Pos.end())
        continue; // producer lives in another group
      const size_t A = Find(It->second), B = Find(I);
      if (A != B)
        Parent[B] = A;
    }
  std::unordered_map<size_t, size_t> RootToComp;
  std::vector<std::vector<int64_t>> Components;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const size_t Root = Find(I);
    const auto [It, Inserted] =
        RootToComp.try_emplace(Root, Components.size());
    if (Inserted)
      Components.emplace_back();
    Components[It->second].push_back(Ops[I]);
  }
  return Components;
}

} // namespace

Expected<std::vector<PartitionSpec>>
Partitioner::partition(bool SplitIndependent) const {
  const std::vector<int64_t> Topo = G.topologicalOrder();

  // Dynamic-batch graphs partition like static ones: every grouping
  // decision here is shape-independent (op kinds, permutations, ranks,
  // constness), so a polymorphic graph and each of its batch
  // specializations produce identical partition structures — which is
  // what lets Session screen a dynamic graph once and reuse the verdict
  // for every bucket. The one shape-sensitive invariant — the fold
  // (constant) side never touches a dynamic tensor, since its values are
  // computed once for all batches — holds because Graph::validate()
  // rejects dynamic constants and fold-side admission below requires
  // all-constant inputs.

  // Fold-side ops are compilable regardless of kind: the lowering driver
  // routes them to the fold graph, where the reference executor handles
  // any op. Without this, a constant-side transpose would needlessly
  // re-interpret every execution.
  std::unordered_set<int64_t> FoldOps = foldSideOps(G, Topo);

  // Group assignment: an op joins the latest same-kind group whose index
  // is >= the max group of its producers; edges then always point from a
  // lower group index to a higher one, so list order is execution order.
  //
  // Run to fixpoint: a fold-admitted op of non-compilable kind whose
  // output crosses its group boundary would become a subgraph output,
  // which foldSideOps() keeps off the fold side when the driver lowers
  // the subgraph — that would demote the whole compiled group. Strip
  // such ops from FoldOps and regroup; each iteration removes at least
  // one op, so this terminates in <= |FoldOps| rounds.
  std::vector<std::vector<int64_t>> Groups;
  std::vector<bool> GroupCompilable;
  std::unordered_map<int64_t, int> GroupOf; // op id -> group index
  for (;;) {
    Groups.clear();
    GroupCompilable.clear();
    GroupOf.clear();
    for (int64_t OpId : Topo) {
      const Op &O = G.op(OpId);
      const bool Compilable = FoldOps.count(OpId) || isCompilable(G, O);
      int MaxDep = -1;
      for (int64_t In : O.inputs()) {
        const int64_t Prod = G.producerOf(In);
        if (Prod >= 0)
          MaxDep = std::max(MaxDep, GroupOf.at(Prod));
      }
      int Target = -1;
      for (int I = static_cast<int>(Groups.size()) - 1;
           I >= std::max(MaxDep, 0); --I)
        if (GroupCompilable[static_cast<size_t>(I)] == Compilable) {
          Target = I;
          break;
        }
      if (Target < 0) {
        Target = static_cast<int>(Groups.size());
        Groups.emplace_back();
        GroupCompilable.push_back(Compilable);
      }
      Groups[static_cast<size_t>(Target)].push_back(OpId);
      GroupOf[OpId] = Target;
    }
    bool Stripped = false;
    for (auto It = FoldOps.begin(); It != FoldOps.end();) {
      const Op &O = G.op(*It);
      bool Crosses = false;
      if (!isCompilable(G, O))
        for (int64_t Out : O.outputs())
          for (int64_t User : G.consumersOf(Out))
            if (GroupOf.at(User) != GroupOf.at(*It))
              Crosses = true;
      if (Crosses) {
        It = FoldOps.erase(It);
        Stripped = true;
      } else {
        ++It;
      }
    }
    if (!Stripped)
      break;
  }

  // Split policy: refine each maximal group into its dataflow components
  // so independent branches become separately schedulable partitions.
  // Fold-side ops always share a component with their in-group consumers
  // (they are connected by the producer edge), so the fixpoint's
  // no-crossing guarantee survives the refinement.
  if (SplitIndependent) {
    std::vector<std::vector<int64_t>> RefinedGroups;
    std::vector<bool> RefinedCompilable;
    for (size_t GI = 0; GI < Groups.size(); ++GI)
      for (std::vector<int64_t> &Component :
           splitConnectedComponents(G, Groups[GI])) {
        RefinedGroups.push_back(std::move(Component));
        RefinedCompilable.push_back(GroupCompilable[GI]);
      }
    Groups = std::move(RefinedGroups);
    GroupCompilable = std::move(RefinedCompilable);
  }

  // Extract one self-contained subgraph per group. Cloning preserves ids,
  // so a boundary tensor has the same id in producer and consumer specs.
  std::vector<PartitionSpec> Specs;
  Specs.reserve(Groups.size());
  for (size_t GI = 0; GI < Groups.size(); ++GI) {
    PartitionSpec Spec;
    Spec.Kind = GroupCompilable[GI] ? PartitionKind::Compiled
                                    : PartitionKind::Fallback;
    Spec.OpIds = Groups[GI];
    const std::unordered_set<int64_t> InGroup(Spec.OpIds.begin(),
                                              Spec.OpIds.end());

    // Clone without constant payloads; data is re-attached below for the
    // tensors that survive extraction (avoids copying every weight once
    // per partition).
    Graph Sub = G.clone(/*WithConstData=*/false);
    for (int64_t OpId : Sub.opIds())
      if (!InGroup.count(OpId))
        Sub.eraseOp(OpId);

    std::unordered_set<int64_t> ProducedInside;
    for (int64_t OpId : Spec.OpIds)
      for (int64_t Out : G.op(OpId).outputs())
        ProducedInside.insert(Out);

    // Inputs: source graph inputs used here keep their declaration order
    // (a whole-graph partition is bind-compatible with the source graph),
    // then cross-partition tensors in first-use order.
    std::vector<int64_t> NewInputs;
    std::unordered_set<int64_t> Seen;
    auto addInput = [&](int64_t Id) {
      if (Seen.insert(Id).second)
        NewInputs.push_back(Id);
    };
    std::unordered_set<int64_t> UsedHere;
    for (int64_t OpId : Spec.OpIds)
      for (int64_t In : G.op(OpId).inputs())
        UsedHere.insert(In);
    // A single whole-graph partition keeps every declared input (even
    // unused ones) so it stays bind-compatible with the source graph;
    // multi-partition subgraphs take only the inputs they consume.
    for (int64_t In : G.inputs())
      if (Groups.size() == 1 || UsedHere.count(In))
        addInput(In);
    for (int64_t OpId : Spec.OpIds)
      for (int64_t In : G.op(OpId).inputs()) {
        if (ProducedInside.count(In) || Seen.count(In))
          continue;
        if (G.tensor(In).isConstant())
          continue; // travels with the subgraph as constant data
        addInput(In);
      }

    // Outputs: source graph outputs produced here keep their declaration
    // order, then tensors other partitions consume, in production order.
    std::vector<int64_t> NewOutputs;
    std::unordered_set<int64_t> SeenOut;
    auto addOutput = [&](int64_t Id) {
      if (SeenOut.insert(Id).second)
        NewOutputs.push_back(Id);
    };
    for (int64_t Out : G.outputs())
      if (ProducedInside.count(Out))
        addOutput(Out);
    for (int64_t OpId : Spec.OpIds)
      for (int64_t Out : G.op(OpId).outputs())
        for (int64_t User : G.consumersOf(Out))
          if (!InGroup.count(User))
            addOutput(Out);

    if (NewOutputs.empty())
      return Status::error(
          StatusCode::InvalidGraph,
          formatString("partition %zu has no live outputs (dead ops?)",
                       GI));

    Sub.setInputs(NewInputs);
    Sub.setOutputs(NewOutputs);

    // Drop tensors that belong to other partitions: anything unused by the
    // remaining ops and not on the boundary.
    for (int64_t TId : Sub.tensorIds()) {
      if (Sub.producerOf(TId) >= 0 || !Sub.consumersOf(TId).empty())
        continue;
      if (Sub.isInput(TId) || Sub.isOutput(TId))
        continue;
      Sub.eraseTensor(TId);
    }

    // Attach constant data for the surviving tensors as non-owning views
    // of the source graph (zero-copy). The Session later drops these for
    // compiled partitions (which own their copy) and materializes them
    // for fallback partitions (which may outlive the source graph).
    for (int64_t TId : Sub.tensorIds())
      if (const runtime::TensorData *Data = G.constantData(TId))
        Sub.setConstantData(
            TId, runtime::TensorData::view(Data->dtype(), Data->shape(),
                                           const_cast<void *>(Data->data())));

    const std::string Err = Sub.verify();
    if (!Err.empty())
      return Status::error(StatusCode::Internal,
                           "partition subgraph verification failed: " + Err);
    Spec.Subgraph = std::move(Sub);
    Specs.push_back(std::move(Spec));
  }
  return Specs;
}

} // namespace api
} // namespace gc
