//===- op_kind.h - DNN operation kinds & categories -------------*- C++ -*-===//
///
/// \file
/// Operation vocabulary of the Graph IR (§II). Ops fall into the paper's
/// three classes:
///  * Tunable OPs  - lowered through parameterized templates (matmul).
///  * Fusible OPs  - elementwise / broadcast / reduction / data movement
///                   ops that fuse into a Tunable OP's template anchors.
///  * Complex OPs  - framework-level ops (softmax, gelu, quantize, ...)
///                   that the decomposition pass expands into basic ops.
/// FusedOp is the structural container the fine-grain fusion pass builds.
///
//===----------------------------------------------------------------------===//

#ifndef GC_GRAPH_OP_KIND_H
#define GC_GRAPH_OP_KIND_H

#include <cstdint>

namespace gc {
namespace graph {

/// Kind of a Graph IR operation.
enum class OpKind : uint8_t {
  // Tunable (compute-intensive, template-lowered).
  MatMul,

  // Fusible: elementwise unary.
  ReLU,
  Exp,
  Tanh,
  Sqrt,
  Reciprocal,
  Square,
  Sigmoid,
  Round,
  Abs,

  // Fusible: elementwise binary (numpy-style broadcast).
  Add,
  Sub,
  Mul,
  Div,
  Max,
  Min,

  // Fusible: reduction / data movement / type conversion.
  ReduceSum,
  ReduceMax,
  Reorder,
  Transpose,
  /// Rank/shape change over the same row-major data (free at runtime).
  Reshape,
  Cast,
  /// Int8 accumulator dequantization produced by the low-precision pass:
  /// out[r][c] = (acc[r][c] - a_zp * comp[c]) * scales[c]. Inputs: s32
  /// accumulator, s32 per-channel weight column sums (compensation);
  /// attrs: "a_zp" (int), "scales" (double vector, a_scale * b_scale[c]).
  DequantAcc,

  // Complex (decomposed before optimization).
  Softmax,
  GELU,
  BatchNorm,
  LayerNorm,
  Quantize,
  Dequantize,
  BiasAdd,

  // Structural.
  FusedOp,
};

/// Optimization category of an op kind (Table-less §II classification).
enum class OpCategory : uint8_t {
  Tunable,
  Fusible,
  Complex,
  Structural,
};

/// Returns the category of \p Kind.
constexpr OpCategory opCategory(OpKind Kind) {
  switch (Kind) {
  case OpKind::MatMul:
    return OpCategory::Tunable;
  case OpKind::ReLU:
  case OpKind::Exp:
  case OpKind::Tanh:
  case OpKind::Sqrt:
  case OpKind::Reciprocal:
  case OpKind::Square:
  case OpKind::Sigmoid:
  case OpKind::Round:
  case OpKind::Abs:
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Max:
  case OpKind::Min:
  case OpKind::ReduceSum:
  case OpKind::ReduceMax:
  case OpKind::Reorder:
  case OpKind::Transpose:
  case OpKind::Reshape:
  case OpKind::Cast:
  case OpKind::DequantAcc:
    return OpCategory::Fusible;
  case OpKind::Softmax:
  case OpKind::GELU:
  case OpKind::BatchNorm:
  case OpKind::LayerNorm:
  case OpKind::Quantize:
  case OpKind::Dequantize:
  case OpKind::BiasAdd:
    return OpCategory::Complex;
  case OpKind::FusedOp:
    return OpCategory::Structural;
  }
  return OpCategory::Fusible;
}

/// Printable op-kind name.
constexpr const char *opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::MatMul: return "matmul";
  case OpKind::ReLU: return "relu";
  case OpKind::Exp: return "exp";
  case OpKind::Tanh: return "tanh";
  case OpKind::Sqrt: return "sqrt";
  case OpKind::Reciprocal: return "reciprocal";
  case OpKind::Square: return "square";
  case OpKind::Sigmoid: return "sigmoid";
  case OpKind::Round: return "round";
  case OpKind::Abs: return "abs";
  case OpKind::Add: return "add";
  case OpKind::Sub: return "sub";
  case OpKind::Mul: return "mul";
  case OpKind::Div: return "div";
  case OpKind::Max: return "max";
  case OpKind::Min: return "min";
  case OpKind::ReduceSum: return "reduce_sum";
  case OpKind::ReduceMax: return "reduce_max";
  case OpKind::Reorder: return "reorder";
  case OpKind::Transpose: return "transpose";
  case OpKind::Reshape: return "reshape";
  case OpKind::Cast: return "cast";
  case OpKind::DequantAcc: return "dequant_acc";
  case OpKind::Softmax: return "softmax";
  case OpKind::GELU: return "gelu";
  case OpKind::BatchNorm: return "batchnorm";
  case OpKind::LayerNorm: return "layernorm";
  case OpKind::Quantize: return "quantize";
  case OpKind::Dequantize: return "dequantize";
  case OpKind::BiasAdd: return "bias_add";
  case OpKind::FusedOp: return "fused_op";
  }
  return "?";
}

/// True for elementwise unary fusible kinds.
constexpr bool isUnaryElementwise(OpKind Kind) {
  switch (Kind) {
  case OpKind::ReLU:
  case OpKind::Exp:
  case OpKind::Tanh:
  case OpKind::Sqrt:
  case OpKind::Reciprocal:
  case OpKind::Square:
  case OpKind::Sigmoid:
  case OpKind::Round:
  case OpKind::Abs:
    return true;
  default:
    return false;
  }
}

/// True for elementwise binary fusible kinds.
constexpr bool isBinaryElementwise(OpKind Kind) {
  switch (Kind) {
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Max:
  case OpKind::Min:
    return true;
  default:
    return false;
  }
}

/// True for reduction fusible kinds.
constexpr bool isReduction(OpKind Kind) {
  return Kind == OpKind::ReduceSum || Kind == OpKind::ReduceMax;
}

} // namespace graph
} // namespace gc

#endif // GC_GRAPH_OP_KIND_H
