//===- reference.cpp - Reference evaluator for Graph IR -----------------------===//

#include "graph/reference.h"

#include "support/common.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gc {
namespace graph {

using runtime::TensorData;

namespace {

//===----------------------------------------------------------------------===//
// Generic element access as double
//===----------------------------------------------------------------------===//

double loadElem(const TensorData &T, int64_t I) {
  switch (T.dtype()) {
  case DataType::F32: return T.dataAs<float>()[I];
  case DataType::F64: return T.dataAs<double>()[I];
  case DataType::S32: return T.dataAs<int32_t>()[I];
  case DataType::S8: return T.dataAs<int8_t>()[I];
  case DataType::U8: return T.dataAs<uint8_t>()[I];
  }
  GC_UNREACHABLE("unhandled dtype");
}

void storeElem(TensorData &T, int64_t I, double V) {
  switch (T.dtype()) {
  case DataType::F32:
    T.dataAs<float>()[I] = static_cast<float>(V);
    return;
  case DataType::F64:
    T.dataAs<double>()[I] = V;
    return;
  case DataType::S32:
    T.dataAs<int32_t>()[I] = static_cast<int32_t>(V);
    return;
  case DataType::S8:
    T.dataAs<int8_t>()[I] = static_cast<int8_t>(
        std::clamp<int64_t>(static_cast<int64_t>(V), -128, 127));
    return;
  case DataType::U8:
    T.dataAs<uint8_t>()[I] = static_cast<uint8_t>(
        std::clamp<int64_t>(static_cast<int64_t>(V), 0, 255));
    return;
  }
  GC_UNREACHABLE("unhandled dtype");
}

/// Row-major strides of a shape.
std::vector<int64_t> rowMajorStrides(const std::vector<int64_t> &Shape) {
  std::vector<int64_t> Strides(Shape.size(), 1);
  for (int64_t I = static_cast<int64_t>(Shape.size()) - 2; I >= 0; --I)
    Strides[I] = Strides[I + 1] * Shape[I + 1];
  return Strides;
}

/// Maps a linear index in \p OutShape to a linear index in a broadcast
/// input with shape \p InShape (right-aligned broadcasting).
int64_t broadcastIndex(int64_t Linear, const std::vector<int64_t> &OutShape,
                       const std::vector<int64_t> &OutStrides,
                       const std::vector<int64_t> &InShape,
                       const std::vector<int64_t> &InStrides) {
  const int64_t OutRank = static_cast<int64_t>(OutShape.size());
  const int64_t InRank = static_cast<int64_t>(InShape.size());
  int64_t InIndex = 0;
  for (int64_t D = 0; D < OutRank; ++D) {
    const int64_t Coord = (Linear / OutStrides[D]) % OutShape[D];
    const int64_t InD = D - (OutRank - InRank);
    if (InD < 0)
      continue;
    const int64_t InCoord = InShape[InD] == 1 ? 0 : Coord;
    InIndex += InCoord * InStrides[InD];
  }
  return InIndex;
}

//===----------------------------------------------------------------------===//
// Op implementations
//===----------------------------------------------------------------------===//

TensorData evalMatMul(const Op &O, const TensorData &A, const TensorData &B,
                      DataType OutTy) {
  const bool TransA = O.getAttrInt("transpose_a", 0) != 0;
  const bool TransB = O.getAttrInt("transpose_b", 0) != 0;
  const auto &AS = A.shape();
  const auto &BS = B.shape();
  assert(AS.size() >= 2 && BS.size() >= 2 && "matmul needs rank >= 2");
  const int64_t M = TransA ? AS[AS.size() - 1] : AS[AS.size() - 2];
  const int64_t K = TransA ? AS[AS.size() - 2] : AS[AS.size() - 1];
  const int64_t KB = TransB ? BS[BS.size() - 1] : BS[BS.size() - 2];
  const int64_t N = TransB ? BS[BS.size() - 2] : BS[BS.size() - 1];
  assert(K == KB && "matmul reduction dims disagree");
  (void)KB;

  // Broadcast batch dims.
  std::vector<int64_t> ABatch(AS.begin(), AS.end() - 2);
  std::vector<int64_t> BBatch(BS.begin(), BS.end() - 2);
  std::vector<int64_t> Batch = broadcastShapes(ABatch, BBatch);
  std::vector<int64_t> OutShape = Batch;
  OutShape.push_back(M);
  OutShape.push_back(N);
  TensorData Out(OutTy, OutShape);

  int64_t BatchCount = 1;
  for (int64_t D : Batch)
    BatchCount *= D;
  const int64_t AMat = M * K;
  const int64_t BMat = K * N;
  const auto BatchStrides = rowMajorStrides(Batch);
  const auto ABatchStrides = rowMajorStrides(ABatch);
  const auto BBatchStrides = rowMajorStrides(BBatch);

  for (int64_t BI = 0; BI < BatchCount; ++BI) {
    const int64_t AOff =
        broadcastIndex(BI, Batch, BatchStrides, ABatch, ABatchStrides) * AMat;
    const int64_t BOff =
        broadcastIndex(BI, Batch, BatchStrides, BBatch, BBatchStrides) * BMat;
    const int64_t COff = BI * M * N;
    for (int64_t MI = 0; MI < M; ++MI) {
      for (int64_t NI = 0; NI < N; ++NI) {
        double Acc = 0.0;
        for (int64_t KI = 0; KI < K; ++KI) {
          const int64_t AIdx =
              AOff + (TransA ? KI * M + MI : MI * K + KI);
          const int64_t BIdx =
              BOff + (TransB ? NI * K + KI : KI * N + NI);
          Acc += loadElem(A, AIdx) * loadElem(B, BIdx);
        }
        storeElem(Out, COff + MI * N + NI, Acc);
      }
    }
  }
  return Out;
}

TensorData evalUnary(OpKind Kind, const TensorData &X, DataType OutTy) {
  TensorData Out(OutTy, X.shape());
  const int64_t N = X.numElements();
  for (int64_t I = 0; I < N; ++I) {
    const double V = loadElem(X, I);
    double R = 0.0;
    switch (Kind) {
    case OpKind::ReLU: R = V > 0 ? V : 0; break;
    case OpKind::Exp: R = std::exp(V); break;
    case OpKind::Tanh: R = std::tanh(V); break;
    case OpKind::Sqrt: R = std::sqrt(V); break;
    case OpKind::Reciprocal: R = 1.0 / V; break;
    case OpKind::Square: R = V * V; break;
    case OpKind::Sigmoid: R = 1.0 / (1.0 + std::exp(-V)); break;
    case OpKind::Round: R = std::nearbyint(V); break;
    case OpKind::Abs: R = std::abs(V); break;
    default: GC_UNREACHABLE("not a unary op");
    }
    storeElem(Out, I, R);
  }
  return Out;
}

TensorData evalBinary(OpKind Kind, const TensorData &A, const TensorData &B,
                      DataType OutTy) {
  const std::vector<int64_t> OutShape = broadcastShapes(A.shape(), B.shape());
  TensorData Out(OutTy, OutShape);
  const auto OutStrides = rowMajorStrides(OutShape);
  const auto AStrides = rowMajorStrides(A.shape());
  const auto BStrides = rowMajorStrides(B.shape());
  const int64_t N = Out.numElements();
  for (int64_t I = 0; I < N; ++I) {
    const double X = loadElem(
        A, broadcastIndex(I, OutShape, OutStrides, A.shape(), AStrides));
    const double Y = loadElem(
        B, broadcastIndex(I, OutShape, OutStrides, B.shape(), BStrides));
    double R = 0.0;
    switch (Kind) {
    case OpKind::Add: R = X + Y; break;
    case OpKind::Sub: R = X - Y; break;
    case OpKind::Mul: R = X * Y; break;
    case OpKind::Div: R = X / Y; break;
    case OpKind::Max: R = std::max(X, Y); break;
    case OpKind::Min: R = std::min(X, Y); break;
    default: GC_UNREACHABLE("not a binary op");
    }
    storeElem(Out, I, R);
  }
  return Out;
}

TensorData evalReduce(const Op &O, const TensorData &X, DataType OutTy) {
  std::vector<int64_t> Axes = O.getAttrIntVec("axes");
  if (Axes.empty())
    Axes.push_back(X.rank() - 1);
  for (int64_t &A : Axes)
    if (A < 0)
      A += X.rank();
  const bool KeepDims = O.getAttrInt("keep_dims", 1) != 0;
  std::vector<bool> Reduced(static_cast<size_t>(X.rank()), false);
  for (int64_t A : Axes)
    Reduced[static_cast<size_t>(A)] = true;

  std::vector<int64_t> OutShape;
  for (int64_t D = 0; D < X.rank(); ++D) {
    if (!Reduced[static_cast<size_t>(D)])
      OutShape.push_back(X.dim(D));
    else if (KeepDims)
      OutShape.push_back(1);
  }
  if (OutShape.empty())
    OutShape.push_back(1);
  TensorData Out(OutTy, OutShape);

  const bool IsMax = O.kind() == OpKind::ReduceMax;
  Out.fillConstant(IsMax ? -1e30 : 0.0);

  const auto InStrides = rowMajorStrides(X.shape());
  const auto OutStrides = rowMajorStrides(Out.shape());
  const int64_t N = X.numElements();
  for (int64_t I = 0; I < N; ++I) {
    // Map input coordinate to output coordinate (drop/one reduced dims).
    int64_t OutIdx = 0;
    int64_t OutD = 0;
    for (int64_t D = 0; D < X.rank(); ++D) {
      const int64_t Coord = (I / InStrides[D]) % X.dim(D);
      if (Reduced[static_cast<size_t>(D)]) {
        if (KeepDims)
          ++OutD;
        continue;
      }
      OutIdx += Coord * OutStrides[static_cast<size_t>(OutD)];
      ++OutD;
    }
    const double V = loadElem(X, I);
    const double Cur = loadElem(Out, OutIdx);
    storeElem(Out, OutIdx, IsMax ? std::max(Cur, V) : Cur + V);
  }
  return Out;
}

TensorData evalTranspose(const Op &O, const TensorData &X, DataType OutTy) {
  std::vector<int64_t> Perm = O.getAttrIntVec("perm");
  if (Perm.empty()) {
    // Default: swap last two dims.
    for (int64_t D = 0; D < X.rank(); ++D)
      Perm.push_back(D);
    if (Perm.size() >= 2)
      std::swap(Perm[Perm.size() - 1], Perm[Perm.size() - 2]);
  }
  std::vector<int64_t> OutShape(Perm.size());
  for (size_t D = 0; D < Perm.size(); ++D)
    OutShape[D] = X.dim(Perm[D]);
  TensorData Out(OutTy, OutShape);
  const auto InStrides = rowMajorStrides(X.shape());
  const auto OutStrides = rowMajorStrides(OutShape);
  const int64_t N = X.numElements();
  for (int64_t I = 0; I < N; ++I) {
    int64_t InIdx = 0;
    for (size_t D = 0; D < Perm.size(); ++D) {
      const int64_t Coord = (I / OutStrides[D]) % OutShape[D];
      InIdx += Coord * InStrides[static_cast<size_t>(Perm[D])];
    }
    storeElem(Out, I, loadElem(X, InIdx));
  }
  return Out;
}

TensorData evalCast(const Op &O, const TensorData &X, DataType OutTy) {
  TensorData Out(OutTy, X.shape());
  const bool DoRound = O.getAttrInt("round", 0) != 0;
  const int64_t N = X.numElements();
  for (int64_t I = 0; I < N; ++I) {
    double V = loadElem(X, I);
    if (DoRound && !isFloatType(OutTy))
      V = std::nearbyint(V);
    storeElem(Out, I, V);
  }
  return Out;
}

/// Per-channel aware scale/zp lookup for quantize/dequantize.
struct QuantParams {
  std::vector<double> Scales;
  std::vector<int64_t> Zps;
  int64_t Axis = -1;

  static QuantParams fromOp(const Op &O) {
    QuantParams P;
    P.Scales = O.getAttrFloatVec("scales");
    if (P.Scales.empty())
      P.Scales.push_back(O.getAttrFloat("scale", 1.0));
    P.Zps = O.getAttrIntVec("zps");
    if (P.Zps.empty())
      P.Zps.push_back(O.getAttrInt("zp", 0));
    P.Axis = O.getAttrInt("axis", -1);
    return P;
  }

  double scaleFor(int64_t Channel) const {
    return Scales.size() == 1 ? Scales[0]
                              : Scales[static_cast<size_t>(Channel)];
  }
  int64_t zpFor(int64_t Channel) const {
    return Zps.size() == 1 ? Zps[0] : Zps[static_cast<size_t>(Channel)];
  }
};

/// Channel coordinate of linear index \p I along \p Axis of \p Shape.
int64_t channelOf(int64_t I, const std::vector<int64_t> &Shape,
                  const std::vector<int64_t> &Strides, int64_t Axis) {
  if (Axis < 0)
    return 0;
  return (I / Strides[static_cast<size_t>(Axis)]) %
         Shape[static_cast<size_t>(Axis)];
}

TensorData evalQuantize(const Op &O, const TensorData &X, DataType OutTy) {
  const QuantParams P = QuantParams::fromOp(O);
  TensorData Out(OutTy, X.shape());
  const auto Strides = rowMajorStrides(X.shape());
  const int64_t N = X.numElements();
  for (int64_t I = 0; I < N; ++I) {
    const int64_t Ch = channelOf(I, X.shape(), Strides, P.Axis);
    const double Q =
        std::nearbyint(loadElem(X, I) / P.scaleFor(Ch)) + P.zpFor(Ch);
    storeElem(Out, I, Q); // storeElem saturates to the target dtype
  }
  return Out;
}

TensorData evalDequantize(const Op &O, const TensorData &X, DataType OutTy) {
  const QuantParams P = QuantParams::fromOp(O);
  TensorData Out(OutTy, X.shape());
  const auto Strides = rowMajorStrides(X.shape());
  const int64_t N = X.numElements();
  for (int64_t I = 0; I < N; ++I) {
    const int64_t Ch = channelOf(I, X.shape(), Strides, P.Axis);
    storeElem(Out, I,
              (loadElem(X, I) - static_cast<double>(P.zpFor(Ch))) *
                  P.scaleFor(Ch));
  }
  return Out;
}

TensorData evalSoftmax(const Op &O, const TensorData &X, DataType OutTy) {
  int64_t Axis = O.getAttrInt("axis", -1);
  if (Axis < 0)
    Axis += X.rank();
  assert(Axis == X.rank() - 1 && "reference softmax supports last axis");
  (void)Axis;
  const int64_t Cols = X.dim(X.rank() - 1);
  const int64_t Rows = X.numElements() / Cols;
  TensorData Out(OutTy, X.shape());
  for (int64_t R = 0; R < Rows; ++R) {
    double MaxV = -1e300;
    for (int64_t C = 0; C < Cols; ++C)
      MaxV = std::max(MaxV, loadElem(X, R * Cols + C));
    double Sum = 0.0;
    for (int64_t C = 0; C < Cols; ++C)
      Sum += std::exp(loadElem(X, R * Cols + C) - MaxV);
    for (int64_t C = 0; C < Cols; ++C)
      storeElem(Out, R * Cols + C,
                std::exp(loadElem(X, R * Cols + C) - MaxV) / Sum);
  }
  return Out;
}

TensorData evalGelu(const TensorData &X, DataType OutTy) {
  TensorData Out(OutTy, X.shape());
  constexpr double Sqrt2OverPi = 0.7978845608028654;
  constexpr double Coeff = 0.044715;
  const int64_t N = X.numElements();
  for (int64_t I = 0; I < N; ++I) {
    const double V = loadElem(X, I);
    const double Inner = Sqrt2OverPi * (V + Coeff * V * V * V);
    storeElem(Out, I, 0.5 * V * (1.0 + std::tanh(Inner)));
  }
  return Out;
}

TensorData evalBatchNorm(const Op &O,
                         const std::vector<const TensorData *> &In,
                         DataType OutTy) {
  // Inputs: x, gamma, beta, mean, var; normalizes the last dim (channels).
  const TensorData &X = *In[0];
  const double Eps = O.getAttrFloat("epsilon", 1e-5);
  const int64_t C = X.dim(X.rank() - 1);
  const int64_t Rows = X.numElements() / C;
  TensorData Out(OutTy, X.shape());
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t CI = 0; CI < C; ++CI) {
      const double V = loadElem(X, R * C + CI);
      const double G = loadElem(*In[1], CI);
      const double Bt = loadElem(*In[2], CI);
      const double Mean = loadElem(*In[3], CI);
      const double Var = loadElem(*In[4], CI);
      storeElem(Out, R * C + CI,
                G * (V - Mean) / std::sqrt(Var + Eps) + Bt);
    }
  return Out;
}

TensorData evalLayerNorm(const Op &O,
                         const std::vector<const TensorData *> &In,
                         DataType OutTy) {
  // Inputs: x, gamma, beta; normalizes the last dim.
  const TensorData &X = *In[0];
  const double Eps = O.getAttrFloat("epsilon", 1e-5);
  const int64_t C = X.dim(X.rank() - 1);
  const int64_t Rows = X.numElements() / C;
  TensorData Out(OutTy, X.shape());
  for (int64_t R = 0; R < Rows; ++R) {
    double Mean = 0.0;
    for (int64_t CI = 0; CI < C; ++CI)
      Mean += loadElem(X, R * C + CI);
    Mean /= static_cast<double>(C);
    double Var = 0.0;
    for (int64_t CI = 0; CI < C; ++CI) {
      const double D = loadElem(X, R * C + CI) - Mean;
      Var += D * D;
    }
    Var /= static_cast<double>(C);
    const double Inv = 1.0 / std::sqrt(Var + Eps);
    for (int64_t CI = 0; CI < C; ++CI)
      storeElem(Out, R * C + CI,
                loadElem(*In[1], CI) * (loadElem(X, R * C + CI) - Mean) *
                        Inv +
                    loadElem(*In[2], CI));
  }
  return Out;
}

} // namespace

std::vector<int64_t> broadcastShapes(const std::vector<int64_t> &A,
                                     const std::vector<int64_t> &B) {
  const size_t Rank = std::max(A.size(), B.size());
  std::vector<int64_t> Out(Rank, 1);
  for (size_t D = 0; D < Rank; ++D) {
    const int64_t AD = D < Rank - A.size() ? 1 : A[D - (Rank - A.size())];
    const int64_t BD = D < Rank - B.size() ? 1 : B[D - (Rank - B.size())];
    if (AD != BD && AD != 1 && BD != 1)
      fatalError("incompatible broadcast shapes");
    Out[D] = std::max(AD, BD);
  }
  return Out;
}

std::vector<TensorData>
evalOpReference(const Graph &G, const Op &O,
                const std::vector<const TensorData *> &Inputs) {
  const DataType OutTy = G.tensor(O.output(0)).Ty;
  switch (O.kind()) {
  case OpKind::MatMul:
    return {evalMatMul(O, *Inputs[0], *Inputs[1], OutTy)};
  case OpKind::ReLU:
  case OpKind::Exp:
  case OpKind::Tanh:
  case OpKind::Sqrt:
  case OpKind::Reciprocal:
  case OpKind::Square:
  case OpKind::Sigmoid:
  case OpKind::Round:
  case OpKind::Abs:
    return {evalUnary(O.kind(), *Inputs[0], OutTy)};
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Max:
  case OpKind::Min:
    return {evalBinary(O.kind(), *Inputs[0], *Inputs[1], OutTy)};
  case OpKind::ReduceSum:
  case OpKind::ReduceMax:
    return {evalReduce(O, *Inputs[0], OutTy)};
  case OpKind::Reorder: {
    // Value-level identity (layout is metadata to the reference).
    TensorData Out(OutTy, Inputs[0]->shape());
    const int64_t N = Inputs[0]->numElements();
    for (int64_t I = 0; I < N; ++I)
      storeElem(Out, I, loadElem(*Inputs[0], I));
    return {std::move(Out)};
  }
  case OpKind::Transpose:
    return {evalTranspose(O, *Inputs[0], OutTy)};
  case OpKind::Reshape: {
    // Same row-major data, new shape.
    TensorData Out(OutTy, G.tensor(O.output(0)).Shape);
    assert(Out.numElements() == Inputs[0]->numElements() &&
           "reshape must preserve element count");
    const int64_t N = Out.numElements();
    for (int64_t I = 0; I < N; ++I)
      storeElem(Out, I, loadElem(*Inputs[0], I));
    return {std::move(Out)};
  }
  case OpKind::Cast:
    return {evalCast(O, *Inputs[0], OutTy)};
  case OpKind::Softmax:
    return {evalSoftmax(O, *Inputs[0], OutTy)};
  case OpKind::GELU:
    return {evalGelu(*Inputs[0], OutTy)};
  case OpKind::BatchNorm:
    return {evalBatchNorm(O, Inputs, OutTy)};
  case OpKind::LayerNorm:
    return {evalLayerNorm(O, Inputs, OutTy)};
  case OpKind::Quantize:
    return {evalQuantize(O, *Inputs[0], OutTy)};
  case OpKind::Dequantize:
    return {evalDequantize(O, *Inputs[0], OutTy)};
  case OpKind::BiasAdd:
    return {evalBinary(OpKind::Add, *Inputs[0], *Inputs[1], OutTy)};
  case OpKind::DequantAcc: {
    // out[r][c] = (acc[r][c] - a_zp * comp[c]) * scales[c]
    const TensorData &Acc = *Inputs[0];
    const TensorData &Comp = *Inputs[1];
    const int64_t AZp = O.getAttrInt("a_zp", 0);
    const std::vector<double> Scales = O.getAttrFloatVec("scales");
    const int64_t Cols = Acc.dim(Acc.rank() - 1);
    const int64_t Rows = Acc.numElements() / Cols;
    TensorData Out(OutTy, Acc.shape());
    for (int64_t R = 0; R < Rows; ++R)
      for (int64_t CI = 0; CI < Cols; ++CI) {
        const double Adj =
            loadElem(Acc, R * Cols + CI) -
            static_cast<double>(AZp) * loadElem(Comp, CI);
        const double Scale =
            Scales.size() == 1 ? Scales[0] : Scales[static_cast<size_t>(CI)];
        storeElem(Out, R * Cols + CI, Adj * Scale);
      }
    return {std::move(Out)};
  }
  case OpKind::FusedOp: {
    const Graph *Sub = O.subgraph();
    assert(Sub && "fused op without subgraph");
    TensorMap SubEnv;
    for (size_t I = 0; I < O.numInputs(); ++I)
      SubEnv[Sub->inputs()[I]] = Inputs[I]->clone();
    evalGraphReference(*Sub, SubEnv);
    std::vector<TensorData> Outs;
    for (int64_t OutId : Sub->outputs())
      Outs.push_back(SubEnv.at(OutId).clone());
    return Outs;
  }
  }
  GC_UNREACHABLE("unhandled op kind in reference evaluator");
}

void evalGraphReference(const Graph &G, TensorMap &Env) {
  // Bind constants not already provided.
  for (int64_t TId : G.tensorIds()) {
    if (Env.count(TId))
      continue;
    if (const TensorData *Data = G.constantData(TId))
      Env[TId] = Data->clone();
  }
  for (int64_t OpId : G.topologicalOrder()) {
    const Op &O = G.op(OpId);
    std::vector<const TensorData *> Inputs;
    Inputs.reserve(O.numInputs());
    for (int64_t In : O.inputs()) {
      auto It = Env.find(In);
      if (It == Env.end())
        fatalError("reference evaluation: unbound tensor input");
      Inputs.push_back(&It->second);
    }
    std::vector<TensorData> Outs = evalOpReference(G, O, Inputs);
    assert(Outs.size() == O.numOutputs() && "output arity mismatch");
    for (size_t I = 0; I < Outs.size(); ++I)
      Env[O.output(I)] = std::move(Outs[I]);
  }
}

std::vector<TensorData> runGraphReference(const Graph &G, TensorMap Env) {
  evalGraphReference(G, Env);
  std::vector<TensorData> Outs;
  Outs.reserve(G.outputs().size());
  for (int64_t OutId : G.outputs())
    Outs.push_back(Env.at(OutId).clone());
  return Outs;
}

} // namespace graph
} // namespace gc
