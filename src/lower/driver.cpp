//===- driver.cpp - Graph -> Tensor IR lowering driver ----------------------------===//

#include "lower/driver.h"

#include "exec/program.h"
#include "lower/region_lowering.h"
#include "support/common.h"
#include "support/env.h"
#include "support/str.h"
#include "tir/printer.h"
#include "tirpass/tirpass.h"
#include "verify/verify.h"

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace lower {

using namespace graph;

Expected<LoweredProgram> lowerGraph(const Graph &G,
                                    const DriverOptions &Opts) {
  LoweredProgram Prog;
  Prog.Entry.Name = "entry";

  // ---- fold/main split ----
  const std::unordered_set<int64_t> FoldOps =
      foldSideOps(G, G.topologicalOrder());
  std::unordered_set<int64_t> FoldTensors;
  for (int64_t OpId : FoldOps)
    for (int64_t Out : G.op(OpId).outputs())
      FoldTensors.insert(Out);
  // Fold outputs: fold tensors read by main-side ops.
  std::unordered_set<int64_t> FoldOutSet;
  for (int64_t OpId : G.opIds()) {
    if (FoldOps.count(OpId))
      continue;
    for (int64_t In : G.op(OpId).inputs())
      if (FoldTensors.count(In))
        FoldOutSet.insert(In);
  }
  Prog.FoldOutputs.assign(FoldOutSet.begin(), FoldOutSet.end());
  std::sort(Prog.FoldOutputs.begin(), Prog.FoldOutputs.end());

  // Fold graph: clone, strip main-side ops, re-point outputs. The clone
  // shares G's constant payloads, so no weight is copied here.
  Prog.FoldGraph = G.clone();
  for (int64_t OpId : Prog.FoldGraph.opIds())
    if (!FoldOps.count(OpId))
      Prog.FoldGraph.eraseOp(OpId);
  Prog.FoldGraph.setOutputs(Prog.FoldOutputs);

  // ---- entry buffers ----
  LoweringContext Ctx;
  Ctx.G = &G;
  Ctx.Entry = &Prog.Entry;
  Ctx.Threads = Opts.Threads;
  std::unordered_map<int64_t, int> BufferMemo;
  Ctx.BufferFor = [&](int64_t TensorId) -> int {
    auto It = BufferMemo.find(TensorId);
    if (It != BufferMemo.end())
      return It->second;
    const LogicalTensor &T = G.tensor(TensorId);
    tir::BufferScope Scope;
    BindingKind Kind = BindingKind::Input;
    bool Bind = true;
    if (G.isInput(TensorId)) {
      Scope = tir::BufferScope::Param;
      Kind = BindingKind::Input;
    } else if (G.isOutput(TensorId)) {
      Scope = tir::BufferScope::Param;
      Kind = BindingKind::Output;
    } else if (FoldOutSet.count(TensorId)) {
      Scope = tir::BufferScope::FoldedConst;
      Kind = BindingKind::Folded;
    } else if (T.isConstant()) {
      Scope = tir::BufferScope::Const;
      Kind = BindingKind::ConstData;
    } else {
      Scope = tir::BufferScope::Temp;
      Bind = false;
    }
    const int Id = Prog.Entry.addBuffer(
        T.Name.empty() ? formatString("t%lld", (long long)TensorId) : T.Name,
        T.Ty, {T.paddedNumElements()}, Scope, TensorId);
    if (Bind)
      Prog.Bindings.push_back({Id, TensorId, Kind});
    BufferMemo[TensorId] = Id;
    return Id;
  };

  // ---- lower main-side regions in topological order ----
  for (int64_t OpId : G.topologicalOrder()) {
    if (FoldOps.count(OpId))
      continue;
    const Op &O = G.op(OpId);
    switch (O.kind()) {
    case OpKind::FusedOp: {
      if (verboseAtLeast(2))
        std::fprintf(stderr, "lowering region op%lld\n%s",
                     (long long)OpId,
                     O.subgraph() ? O.subgraph()->toString().c_str() : "");
      Expected<tir::Stmt> Region = lowerRegion(Ctx, OpId);
      if (!Region)
        return Region.status();
      Prog.Entry.Body.push_back(Region.takeValue());
      continue;
    }
    case OpKind::Reshape: {
      // Plain row-major data is shape-agnostic: one flat copy.
      const LogicalTensor &In = G.tensor(O.input(0));
      const int Src = Ctx.BufferFor(O.input(0));
      const int Dst = Ctx.BufferFor(O.output(0));
      Prog.Entry.Body.push_back(tir::makeSeq(
          {tir::makeCall(
              tir::Intrinsic::CopyTileRaw,
              {tir::BufferRef(Dst, tir::makeInt(0)),
               tir::BufferRef(Src, tir::makeInt(0))},
              {tir::makeInt(1), tir::makeInt(In.numElements()),
               tir::makeInt(In.numElements()),
               tir::makeInt(In.numElements()),
               tir::makeInt(dataTypeSize(In.Ty))})},
          formatString("reshape_op%lld", (long long)OpId)));
      continue;
    }
    case OpKind::Transpose: {
      // Supported pattern: the BSHD <-> BHSD permute of transformer
      // graphs, perm == [0, 2, 1, 3].
      const std::vector<int64_t> Perm = O.getAttrIntVec("perm");
      const LogicalTensor &In = G.tensor(O.input(0));
      if (!(Perm == std::vector<int64_t>{0, 2, 1, 3} && In.rank() == 4))
        return Status::error(
            StatusCode::Unsupported,
            formatString("standalone transpose op%lld supports perm "
                         "[0,2,1,3] on rank-4 tensors only",
                         (long long)OpId));
      const int Src = Ctx.BufferFor(O.input(0));
      const int Dst = Ctx.BufferFor(O.output(0));
      Prog.Entry.Body.push_back(tir::makeSeq(
          {tir::makeCall(
              tir::Intrinsic::Permute0213,
              {tir::BufferRef(Dst, tir::makeInt(0)),
               tir::BufferRef(Src, tir::makeInt(0))},
              {tir::makeInt(In.Shape[0]), tir::makeInt(In.Shape[1]),
               tir::makeInt(In.Shape[2]), tir::makeInt(In.Shape[3]),
               tir::makeInt(dataTypeSize(In.Ty))})},
          formatString("transpose_op%lld", (long long)OpId)));
      continue;
    }
    default:
      return Status::error(
          StatusCode::Unsupported,
          formatString("main-side op '%s' is not a fused region; run the "
                       "fusion pass before lowering",
                       opKindName(O.kind())));
    }
  }

  // ---- Tensor IR passes ----
  const bool VerifyStages =
      verify::verifyLevel() >= verify::VerifyLevel::Passes;
  if (VerifyStages)
    if (Status S = verify::verifyFunc(Prog.Entry, "region lowering");
        !S.isOk())
      return S;
  if (Opts.EnableCoarseGrainFusion) {
    Prog.CoarseGrainMerges = tirpass::mergeParallelLoops(Prog.Entry);
    if (VerifyStages)
      if (Status S = verify::verifyFunc(Prog.Entry, "loop merge"); !S.isOk())
        return S;
  }
  // Tensor-size optimization needs no pass: the template lowering already
  // emits strip-sized thread-local temporaries (RegionLowerer::scratch).
  Prog.ReuseStats = tirpass::reuseBuffers(Prog.Entry, Opts.EnableBufferReuse);
  tir::assignSlots(Prog.Entry);
  if (verify::verifyLevel() >= verify::VerifyLevel::All)
    if (Status S = verify::verifyFunc(Prog.Entry, "slot assignment");
        !S.isOk())
      return S;
  // Final lowering step: compile the entry function to flat bytecode.
  Prog.Bytecode = exec::compileProgram(Prog.Entry);
  if (verify::verifyLevel() >= verify::VerifyLevel::All)
    if (Status S = verify::verifyProgram(*Prog.Bytecode, "bytecode compile");
        !S.isOk())
      return S;

  if (verboseAtLeast(1))
    std::fprintf(stderr, "=== lowered entry ===\n%s\n",
                 tir::printFunc(Prog.Entry).c_str());
  if (verboseAtLeast(2))
    std::fprintf(stderr, "=== bytecode ===\n%s\n",
                 exec::printProgram(*Prog.Bytecode).c_str());
  return Prog;
}

} // namespace lower
} // namespace gc
