//===- expr.h - Tensor IR expressions ---------------------------*- C++ -*-===//
///
/// \file
/// Scalar expressions of the Tensor IR (§VI): integer constants, variables
/// and arithmetic used for loop indices, tensor offsets and kernel
/// parameters. Tensor IR is "close to C program semantics"; all tensor
/// compute happens inside the microkernels it calls, so every expression
/// is an i64 that computes an address, an extent or a kernel scalar.
///
/// Expression nodes are immutable after construction; passes rewrite by
/// replacing whole Expr pointers (never by mutating node internals), so
/// sharing sub-expressions is safe.
///
//===----------------------------------------------------------------------===//

#ifndef GC_TIR_EXPR_H
#define GC_TIR_EXPR_H

#include <cstdint>
#include <memory>
#include <string>

namespace gc {
namespace tir {

class ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

/// Binary operators available on TIR scalars.
enum class BinOp : uint8_t { Add, Sub, Mul, Div, Mod, Min, Max };

/// Base of all expression nodes.
class ExprNode {
public:
  enum class Kind : uint8_t { IntImm, Var, Binary };

  Kind kind() const { return K; }

  virtual ~ExprNode() = default;

protected:
  explicit ExprNode(Kind K) : K(K) {}

private:
  Kind K;
};

/// Integer literal.
class IntImmNode : public ExprNode {
public:
  explicit IntImmNode(int64_t Value) : ExprNode(Kind::IntImm), Value(Value) {}
  int64_t Value;
};

/// Scalar variable (loop index or let-bound value). Slot indices are
/// assigned by the slot-assignment pass; slot I becomes bytecode register
/// I, so execution reads frames by array index instead of name lookup.
class VarNode : public ExprNode {
public:
  explicit VarNode(std::string Name)
      : ExprNode(Kind::Var), Name(std::move(Name)) {}
  std::string Name;
  /// Frame slot; -1 until slot assignment runs.
  mutable int Slot = -1;
};

/// Shared-ownership handle to a variable (Let and For bind through it).
using Var = std::shared_ptr<const VarNode>;

/// Binary arithmetic.
class BinaryNode : public ExprNode {
public:
  BinaryNode(BinOp Op, Expr A, Expr B)
      : ExprNode(Kind::Binary), Op(Op), A(std::move(A)), B(std::move(B)) {}
  BinOp Op;
  Expr A;
  Expr B;
};

//===----------------------------------------------------------------------===//
// Construction helpers
//===----------------------------------------------------------------------===//

inline Expr makeInt(int64_t V) { return std::make_shared<IntImmNode>(V); }
inline Var makeVar(std::string Name) {
  return std::make_shared<VarNode>(std::move(Name));
}

Expr makeBinary(BinOp Op, Expr A, Expr B);

inline Expr operator+(Expr A, Expr B) {
  return makeBinary(BinOp::Add, std::move(A), std::move(B));
}
inline Expr operator-(Expr A, Expr B) {
  return makeBinary(BinOp::Sub, std::move(A), std::move(B));
}
inline Expr operator*(Expr A, Expr B) {
  return makeBinary(BinOp::Mul, std::move(A), std::move(B));
}
inline Expr operator/(Expr A, Expr B) {
  return makeBinary(BinOp::Div, std::move(A), std::move(B));
}
inline Expr operator%(Expr A, Expr B) {
  return makeBinary(BinOp::Mod, std::move(A), std::move(B));
}
inline Expr minExpr(Expr A, Expr B) {
  return makeBinary(BinOp::Min, std::move(A), std::move(B));
}
inline Expr maxExpr(Expr A, Expr B) {
  return makeBinary(BinOp::Max, std::move(A), std::move(B));
}

/// Returns the constant value when \p E is an integer literal.
inline bool asConstInt(const Expr &E, int64_t &Out) {
  if (E->kind() != ExprNode::Kind::IntImm)
    return false;
  Out = static_cast<const IntImmNode &>(*E).Value;
  return true;
}

} // namespace tir
} // namespace gc

#endif // GC_TIR_EXPR_H
