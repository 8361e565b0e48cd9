//===- loopnest.cpp - Generic loop-nest compiler baseline -------------------------===//

#include "baseline/loopnest.h"

#include "graph/reference.h"
#include "kernels/tile_ops.h"
#include "passes/pass.h"
#include "support/common.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gc {
namespace baseline {

using namespace graph;
using kernels::ConstTileF32;
using kernels::TileF32;
using runtime::TensorData;

namespace {

constexpr int64_t kRowBlock = 32;

/// True when an op can run inside a matmul's row-block epilogue: its
/// result has the matmul output's shape and it reads only the chain value
/// plus broadcast-compatible extras.
bool isEpilogueCandidate(const Graph &G, const Op &O,
                         const std::vector<int64_t> &OutShape) {
  switch (O.kind()) {
  case OpKind::ReLU:
  case OpKind::Exp:
  case OpKind::Tanh:
  case OpKind::Sqrt:
  case OpKind::Reciprocal:
  case OpKind::Square:
  case OpKind::Sigmoid:
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Max:
  case OpKind::Min:
  case OpKind::DequantAcc:
  case OpKind::Quantize:
    break;
  default:
    return false;
  }
  return G.tensor(O.output(0)).Shape == OutShape;
}

/// The tile-op table entries an elementwise op runs as, one per form of
/// its operands; null where the op has no kernel of that form.
struct EltwiseKernels {
  /// The op on its only operand.
  void (*Unary)(const TileF32 &) = nullptr;
  /// Second operand of the tile's shape.
  void (*Full)(const TileF32 &, const ConstTileF32 &) = nullptr;
  /// Second operand y[c], broadcast across rows.
  void (*RowVec)(const TileF32 &, const float *) = nullptr;
  /// Second operand y[r], broadcast across columns.
  void (*ColVec)(const TileF32 &, const float *) = nullptr;
};

EltwiseKernels eltwiseKernels(const kernels::TileOpsTable &Ops, OpKind Kind) {
  switch (Kind) {
  case OpKind::ReLU: return {Ops.Relu};
  case OpKind::Exp: return {Ops.Exp};
  case OpKind::Tanh: return {Ops.Tanh};
  case OpKind::Sqrt: return {Ops.Sqrt};
  case OpKind::Reciprocal: return {Ops.Recip};
  case OpKind::Square: return {Ops.Square};
  case OpKind::Sigmoid: return {Ops.Sigmoid};
  case OpKind::Add: return {nullptr, Ops.Add, Ops.AddRowVec, Ops.AddColVec};
  case OpKind::Sub: return {nullptr, Ops.Sub, Ops.SubRowVec, Ops.SubColVec};
  case OpKind::Mul: return {nullptr, Ops.Mul, Ops.MulRowVec, Ops.MulColVec};
  case OpKind::Div: return {nullptr, Ops.Div, nullptr, Ops.DivColVec};
  case OpKind::Max: return {nullptr, Ops.Max};
  case OpKind::Min: return {nullptr, Ops.Min};
  default: return {};
  }
}

/// x = x op S as one Affine call; false for an op without that form.
bool applyScalar(const kernels::TileOpsTable &Ops, OpKind Kind,
                 const TileF32 &X, float S) {
  switch (Kind) {
  case OpKind::Add: Ops.Affine(X, 1.0f, S); return true;
  case OpKind::Sub: Ops.Affine(X, 1.0f, -S); return true;
  case OpKind::Mul: Ops.Affine(X, S, 0.0f); return true;
  case OpKind::Div: Ops.Affine(X, 1.0f / S, 0.0f); return true;
  default: return false;
  }
}

/// DequantAcc's per-output-channel scales, widened to \p N entries.
std::vector<float> channelScales(const Op &O, int64_t N) {
  const std::vector<double> Scales = O.getAttrFloatVec("scales");
  std::vector<float> Out(static_cast<size_t>(N));
  for (int64_t J = 0; J < N; ++J)
    Out[static_cast<size_t>(J)] = static_cast<float>(
        Scales.size() == 1 ? Scales[0] : Scales[static_cast<size_t>(J)]);
  return Out;
}

/// Naive tiled f32 matmul for one row block: C[R0..R1) = A x B.
void gemmBlockF32(const float *A, const float *B, float *C, int64_t R0,
                  int64_t R1, int64_t N, int64_t K, bool TransB) {
  for (int64_t I = R0; I < R1; ++I) {
    float *CRow = C + (I - R0) * N;
    for (int64_t J = 0; J < N; ++J)
      CRow[J] = 0.0f;
    if (!TransB) {
      const float *ARow = A + I * K;
      for (int64_t KI = 0; KI < K; ++KI) {
        const float AV = ARow[KI];
        const float *BRow = B + KI * N;
        for (int64_t J = 0; J < N; ++J)
          CRow[J] += AV * BRow[J];
      }
    } else {
      const float *ARow = A + I * K;
      for (int64_t J = 0; J < N; ++J) {
        const float *BRow = B + J * K;
        float Acc = 0.0f;
        for (int64_t KI = 0; KI < K; ++KI)
          Acc += ARow[KI] * BRow[KI];
        CRow[J] = Acc;
      }
    }
  }
}

/// Naive u8 x s8 -> s32 matmul for one row block (plain layout, no VNNI
/// interleave -- the widening loads cost is the point of the baseline).
void gemmBlockU8S8(const uint8_t *A, const int8_t *B, int32_t *C, int64_t R0,
                   int64_t R1, int64_t N, int64_t K, bool TransB) {
  for (int64_t I = R0; I < R1; ++I) {
    int32_t *CRow = C + (I - R0) * N;
    for (int64_t J = 0; J < N; ++J)
      CRow[J] = 0;
    if (!TransB) {
      const uint8_t *ARow = A + I * K;
      for (int64_t KI = 0; KI < K; ++KI) {
        const int32_t AV = ARow[KI];
        const int8_t *BRow = B + KI * N;
        for (int64_t J = 0; J < N; ++J)
          CRow[J] += AV * static_cast<int32_t>(BRow[J]);
      }
    } else {
      const uint8_t *ARow = A + I * K;
      for (int64_t J = 0; J < N; ++J) {
        const int8_t *BRow = B + J * K;
        int32_t Acc = 0;
        for (int64_t KI = 0; KI < K; ++KI)
          Acc += static_cast<int32_t>(ARow[KI]) *
                 static_cast<int32_t>(BRow[KI]);
        CRow[J] = Acc;
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Planning
//===----------------------------------------------------------------------===//

LoopNestExecutor::LoopNestExecutor(const Graph &Source, int Threads) {
  G = Source.clone();
  if (Threads > 0) {
    OwnedPool = std::make_unique<runtime::ThreadPool>(Threads);
    Pool = OwnedPool.get();
  } else {
    Pool = &runtime::ThreadPool::global();
  }

  // Layout-agnostic planning passes (what any tensor compiler does before
  // scheduling): complex-op decomposition, CSE, the int8 structural
  // rewrite, constant folding, DCE. No fusion regions, no layouts.
  passes::PassOptions PassOpts;
  PassOpts.Threads = Pool->numThreads();
  PassOpts.FastSoftmax = false;
  passes::PassManager PM(PassOpts);
  PM.addPass(passes::createDecomposePass());
  PM.addPass(passes::createCsePass());
  PM.addPass(passes::createLowPrecisionPass());
  PM.addPass(passes::createConstantFoldPass());
  PM.addPass(passes::createDcePass());
  if (const Status S = PM.run(G); !S.isOk())
    fatalError(S.toString().c_str());

  InputIds = G.inputs();
  OutputIds = G.outputs();

  // Plan epilogue fusion: linear single-consumer chains behind matmuls.
  for (int64_t OpId : G.topologicalOrder()) {
    const Op &O = G.op(OpId);
    if (O.kind() != OpKind::MatMul)
      continue;
    const std::vector<int64_t> OutShape = G.tensor(O.output(0)).Shape;
    int64_t CurTensor = O.output(0);
    std::vector<int64_t> Chain;
    while (true) {
      if (G.isOutput(CurTensor))
        break;
      const auto Users = G.consumersOf(CurTensor);
      if (Users.size() != 1)
        break;
      const Op &Next = G.op(Users[0]);
      if (!isEpilogueCandidate(G, Next, OutShape))
        break;
      if (Next.input(0) != CurTensor &&
          !(isBinaryElementwise(Next.kind()) && Next.input(1) == CurTensor))
        break;
      Chain.push_back(Users[0]);
      CurTensor = Next.output(0);
    }
    if (!Chain.empty()) {
      Epilogues[OpId] = Chain;
      for (int64_t C : Chain)
        FusedIntoProducer.insert(C);
      FusedOps += static_cast<int>(Chain.size());
    }
  }
  for (int64_t OpId : G.topologicalOrder())
    if (!FusedIntoProducer.count(OpId))
      Schedule.push_back(OpId);

  // Preallocate op-output storage (graph outputs bind externally).
  for (int64_t OpId : G.opIds())
    for (int64_t Out : G.op(OpId).outputs()) {
      if (G.isOutput(Out))
        continue;
      const LogicalTensor &T = G.tensor(Out);
      Values.emplace(Out, TensorData(T.Ty, T.Shape));
    }
  // Constants.
  for (int64_t TId : G.tensorIds())
    if (const TensorData *Data = G.constantData(TId))
      Values.emplace(TId, Data->clone());
}

TensorData &LoopNestExecutor::valueOf(int64_t TensorId) {
  auto It = Values.find(TensorId);
  if (It == Values.end())
    fatalError("loopnest baseline: unbound tensor");
  return It->second;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void LoopNestExecutor::execute(
    const std::vector<TensorData *> &Inputs,
    const std::vector<TensorData *> &Outputs) {
  assert(Inputs.size() == InputIds.size() && "input arity mismatch");
  assert(Outputs.size() == OutputIds.size() && "output arity mismatch");
  for (size_t I = 0; I < Inputs.size(); ++I)
    Values[InputIds[I]] =
        TensorData::view(Inputs[I]->dtype(), Inputs[I]->shape(),
                         Inputs[I]->data());
  for (size_t I = 0; I < Outputs.size(); ++I)
    Values[OutputIds[I]] =
        TensorData::view(Outputs[I]->dtype(), Outputs[I]->shape(),
                         Outputs[I]->data());

  for (int64_t OpId : Schedule) {
    const Op &O = G.op(OpId);
    if (O.kind() == OpKind::MatMul)
      executeMatmul(OpId);
    else
      executeStandalone(OpId);
  }
}

void LoopNestExecutor::executeMatmul(int64_t OpId) {
  const Op &O = G.op(OpId);
  const bool TransB = O.getAttrInt("transpose_b", 0) != 0;
  const bool Quantized = O.getAttrInt("quantized", 0) != 0;
  const TensorData &A = valueOf(O.input(0));
  const TensorData &B = valueOf(O.input(1));
  const std::vector<int64_t> Chain =
      Epilogues.count(OpId) ? Epilogues.at(OpId) : std::vector<int64_t>{};
  const int64_t FinalTensor =
      Chain.empty() ? O.output(0) : G.op(Chain.back()).output(0);
  TensorData &Out = valueOf(FinalTensor);

  const auto &OutShape = G.tensor(O.output(0)).Shape;
  const int64_t N = OutShape.back();
  const int64_t M = OutShape[OutShape.size() - 2];
  const int64_t K = A.shape().back();
  int64_t Batch = 1;
  for (size_t D = 0; D + 2 < OutShape.size(); ++D)
    Batch *= OutShape[D];
  const bool ABatched = A.rank() > 2;
  const bool BBatched = B.rank() > 2;

  const int64_t RowBlocks = ceilDiv(M, kRowBlock);
  const int64_t Grid = Batch * RowBlocks;
  const int NumWorkers = Pool->numThreads();

  // Per-worker scratch: one row block (f32 + s32 views).
  std::vector<std::vector<float>> ScratchF(
      static_cast<size_t>(NumWorkers),
      std::vector<float>(static_cast<size_t>(kRowBlock * N)));
  std::vector<std::vector<int32_t>> ScratchI(
      static_cast<size_t>(NumWorkers),
      Quantized ? std::vector<int32_t>(static_cast<size_t>(kRowBlock * N))
                : std::vector<int32_t>());

  const kernels::TileOpsTable &Ops = kernels::activeTileOps();
  Pool->parallelFor(0, Grid, [&](int64_t GI, int Tid) {
    const int64_t Bt = GI / RowBlocks;
    const int64_t Rb = GI % RowBlocks;
    const int64_t R0 = Rb * kRowBlock;
    const int64_t R1 = std::min<int64_t>(M, R0 + kRowBlock);
    const int64_t Rows = R1 - R0;
    float *BlockF = ScratchF[static_cast<size_t>(Tid)].data();

    if (!Quantized) {
      const float *AP = A.dataAs<float>() + (ABatched ? Bt * M * K : 0);
      const float *BP =
          B.dataAs<float>() + (BBatched ? Bt * K * N : 0);
      gemmBlockF32(AP, BP, BlockF, R0, R1, N, K, TransB);
    } else {
      int32_t *BlockI = ScratchI[static_cast<size_t>(Tid)].data();
      const uint8_t *AP = A.dataAs<uint8_t>() + (ABatched ? Bt * M * K : 0);
      const int8_t *BP = B.dataAs<int8_t>() + (BBatched ? Bt * K * N : 0);
      gemmBlockU8S8(AP, BP, BlockI, R0, R1, N, K, TransB);
      // The chain must start with dequant_acc; if it does not (unfused
      // graph), convert with unit scale so downstream ops see f32.
      if (Chain.empty() || G.op(Chain[0]).kind() != OpKind::DequantAcc) {
        int32_t *BI = BlockI;
        TensorData &Acc = valueOf(O.output(0));
        int32_t *Dst = Acc.dataAs<int32_t>() + (Bt * M + R0) * N;
        std::copy(BI, BI + Rows * N, Dst);
        return;
      }
    }

    // Apply the epilogue chain on the row block.
    TileF32 Block{BlockF, Rows, N, N};
    for (size_t CI = 0; CI < Chain.size(); ++CI) {
      const Op &E = G.op(Chain[CI]);
      const EltwiseKernels EK = eltwiseKernels(Ops, E.kind());
      if (EK.Unary) {
        EK.Unary(Block);
        continue;
      }
      switch (E.kind()) {
      case OpKind::DequantAcc: {
        const int32_t *BlockI = ScratchI[static_cast<size_t>(Tid)].data();
        const TensorData &Comp = valueOf(E.input(1));
        const std::vector<float> ScaleVec = channelScales(E, N);
        Ops.DequantAcc(BlockF, N, BlockI, N, Rows, N,
                       Comp.numElements() > 1 ? Comp.dataAs<int32_t>()
                                              : nullptr,
                       static_cast<int32_t>(E.getAttrInt("a_zp", 0)),
                       ScaleVec.data());
        break;
      }
      case OpKind::Quantize: {
        // Must be last in the chain (writes the final u8 tensor).
        const float InvScale =
            1.0f / static_cast<float>(E.getAttrFloat("scale", 1.0));
        const int32_t Zp = static_cast<int32_t>(E.getAttrInt("zp", 0));
        uint8_t *Dst = Out.dataAs<uint8_t>() + (Bt * M + R0) * N;
        Ops.QuantizeU8(Dst, N, BlockF, N, Rows, N, InvScale, Zp);
        return; // block complete
      }
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
      case OpKind::Max:
      case OpKind::Min: {
        // Second operand: scalar const / rowvec / colvec / full.
        const int64_t Other =
            E.input(0) == (CI == 0 ? O.output(0)
                                   : G.op(Chain[CI - 1]).output(0))
                ? E.input(1)
                : E.input(0);
        const TensorData &Ext = valueOf(Other);
        const LogicalTensor &ExtT = G.tensor(Other);
        const int64_t ExtElems = ExtT.numElements();
        if (ExtElems == 1) {
          if (!applyScalar(Ops, E.kind(), Block, Ext.dataAs<float>()[0]))
            fatalError("baseline: scalar max/min epilogue");
        } else if (ExtT.Shape.back() == N && ExtElems == N) {
          if (!EK.RowVec)
            fatalError("baseline: rowvec epilogue op");
          EK.RowVec(Block, Ext.dataAs<float>());
        } else if (ExtT.Shape.back() == N &&
                   ExtElems == ExtT.Shape.back() *
                                   (ExtT.rank() >= 2
                                        ? ExtT.Shape[ExtT.rank() - 2]
                                        : 1) &&
                   ExtT.rank() >= 2 && ExtT.Shape[ExtT.rank() - 2] == M) {
          // Full tensor (possibly broadcast over batch).
          int64_t ExtLead = 1;
          for (int64_t D = 0; D + 2 < ExtT.rank(); ++D)
            ExtLead *= ExtT.Shape[static_cast<size_t>(D)];
          const int64_t BtOff = ExtLead > 1 ? Bt * M * N : 0;
          EK.Full(Block, ConstTileF32{Ext.dataAs<float>() + BtOff + R0 * N, N});
        } else {
          // Generic broadcast (e.g. [B,1,1,S] masks): per-row vector.
          assert(ExtT.Shape.back() == N && "epilogue operand width");
          if (!EK.RowVec)
            fatalError("baseline: broadcast epilogue op");
          int64_t ExtLead = 1;
          for (int64_t D = 0; D + 1 < ExtT.rank(); ++D)
            ExtLead *= ExtT.Shape[static_cast<size_t>(D)];
          int64_t BatchDiv = ExtLead > 1 ? Batch / ExtLead : 1;
          EK.RowVec(Block, Ext.dataAs<float>() +
                               (ExtLead > 1 ? (Bt / BatchDiv) * N : 0));
        }
        break;
      }
      default:
        fatalError("baseline: unexpected epilogue op");
      }
    }
    // Store the finished block (f32 path).
    float *Dst = Out.dataAs<float>() + (Bt * M + R0) * N;
    kernels::copyTile(TileF32{Dst, Rows, N, N},
                      ConstTileF32{BlockF, N});
  });
}

void LoopNestExecutor::executeStandalone(int64_t OpId) {
  const Op &O = G.op(OpId);
  const LogicalTensor &OutT = G.tensor(O.output(0));
  TensorData &Out = valueOf(O.output(0));
  const int64_t Cols = OutT.Shape.empty() ? 1 : OutT.Shape.back();
  const int64_t Rows = OutT.numElements() / std::max<int64_t>(1, Cols);
  const TileF32 OutTile{Out.dataAs<float>(), Rows, Cols, Cols};

  // Fast full-tensor paths over the vectorized tile kernels; anything
  // unusual falls back to the reference interpreter at the end.
  const kernels::TileOpsTable &Ops = kernels::activeTileOps();
  const EltwiseKernels EK = eltwiseKernels(Ops, O.kind());
  if (EK.Unary && OutT.Ty == DataType::F32) {
    const TensorData &X = valueOf(O.input(0));
    std::memcpy(Out.data(), X.data(), static_cast<size_t>(X.numBytes()));
    EK.Unary(OutTile);
    return;
  }

  if (isBinaryElementwise(O.kind()) && OutT.Ty == DataType::F32) {
    const TensorData &A = valueOf(O.input(0));
    const float *BV = valueOf(O.input(1)).dataAs<float>();
    const LogicalTensor &AT = G.tensor(O.input(0));
    const LogicalTensor &BT = G.tensor(O.input(1));
    if (AT.Shape == OutT.Shape) {
      std::memcpy(Out.data(), A.data(), static_cast<size_t>(A.numBytes()));
      const int64_t BElems = BT.numElements();
      bool Done = true;
      if (BT.Shape == OutT.Shape)
        EK.Full(OutTile, ConstTileF32{BV, Cols});
      else if (BElems == 1)
        Done = applyScalar(Ops, O.kind(), OutTile, BV[0]);
      else if (BElems == Cols && BT.Shape.back() == Cols && EK.RowVec)
        EK.RowVec(OutTile, BV);
      else if (BElems == Rows && BT.Shape.back() == 1 && EK.ColVec)
        EK.ColVec(OutTile, BV);
      else
        Done = false;
      if (Done)
        return;
    }
  }

  if (isReduction(O.kind())) {
    const std::vector<int64_t> Axes = O.getAttrIntVec("axes");
    const LogicalTensor &InT = G.tensor(O.input(0));
    const bool LastAxis =
        Axes.size() == 1 && (Axes[0] == -1 || Axes[0] == InT.rank() - 1);
    if (LastAxis && InT.Ty == DataType::F32) {
      const TensorData &X = valueOf(O.input(0));
      const int64_t C = InT.Shape.back();
      const int64_t R = InT.numElements() / C;
      const TileF32 In{const_cast<float *>(X.dataAs<float>()), R, C, C};
      if (O.kind() == OpKind::ReduceSum)
        Ops.ReduceSumRows(In, Out.dataAs<float>(), false);
      else
        Ops.ReduceMaxRows(In, Out.dataAs<float>(), false);
      return;
    }
  }

  if (O.kind() == OpKind::Quantize && OutT.Ty == DataType::U8 &&
      !O.hasAttr("scales")) {
    const TensorData &X = valueOf(O.input(0));
    Ops.QuantizeU8(Out.dataAs<uint8_t>(), Cols, X.dataAs<float>(), Cols,
                   Rows, Cols,
                   1.0f / static_cast<float>(O.getAttrFloat("scale", 1.0)),
                   static_cast<int32_t>(O.getAttrInt("zp", 0)));
    return;
  }
  if (O.kind() == OpKind::Dequantize &&
      G.tensor(O.input(0)).Ty == DataType::U8 && !O.hasAttr("scales")) {
    const TensorData &X = valueOf(O.input(0));
    Ops.DequantU8(Out.dataAs<float>(), Cols, X.dataAs<uint8_t>(), Cols,
                  Rows, Cols, static_cast<float>(O.getAttrFloat("scale", 1.0)),
                  static_cast<int32_t>(O.getAttrInt("zp", 0)));
    return;
  }
  if (O.kind() == OpKind::Reshape) {
    const TensorData &X = valueOf(O.input(0));
    std::memcpy(Out.data(), X.data(), static_cast<size_t>(X.numBytes()));
    return;
  }
  if (O.kind() == OpKind::Transpose &&
      O.getAttrIntVec("perm") == std::vector<int64_t>{0, 2, 1, 3}) {
    const TensorData &X = valueOf(O.input(0));
    const auto &S = X.shape();
    kernels::permute0213(Out.data(), X.data(), S[0], S[1], S[2], S[3],
                         dataTypeSize(X.dtype()));
    return;
  }
  if (O.kind() == OpKind::DequantAcc) {
    const TensorData &Acc = valueOf(O.input(0));
    const TensorData &Comp = valueOf(O.input(1));
    const std::vector<float> ScaleVec = channelScales(O, Cols);
    Ops.DequantAcc(Out.dataAs<float>(), Cols, Acc.dataAs<int32_t>(), Cols,
                   Rows, Cols,
                   Comp.numElements() > 1 ? Comp.dataAs<int32_t>() : nullptr,
                   static_cast<int32_t>(O.getAttrInt("a_zp", 0)),
                   ScaleVec.data());
    return;
  }

  // Slow path: reference semantics (uncommon ops only).
  std::vector<const TensorData *> Inputs;
  for (int64_t In : O.inputs())
    Inputs.push_back(&valueOf(In));
  std::vector<TensorData> Outs = evalOpReference(G, O, Inputs);
  for (size_t I = 0; I < Outs.size(); ++I) {
    TensorData &Slot = valueOf(O.output(I));
    std::memcpy(Slot.data(), Outs[I].data(),
                static_cast<size_t>(Outs[I].numBytes()));
  }
}

} // namespace baseline
} // namespace gc
