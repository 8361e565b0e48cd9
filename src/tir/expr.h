//===- expr.h - Tensor IR expressions ---------------------------*- C++ -*-===//
///
/// \file
/// Scalar expressions of the Tensor IR (§VI): constants, variables and
/// arithmetic used for loop indices, tensor offsets and kernel parameters.
/// Tensor IR is "close to C program semantics"; expressions are untyped
/// beyond an int/float split because they only ever compute addresses,
/// extents and immediate kernel scalars.
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
#include <vector>

namespace gc {
namespace tir {

class ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

/// Scalar type of a Tensor IR expression.
enum class ScalarType : uint8_t { I64, F64 };

/// Binary operators available on TIR scalars.
enum class BinOp : uint8_t { Add, Sub, Mul, Div, Mod, Min, Max };

/// Base of all expression nodes.
class ExprNode {
public:
  enum class Kind : uint8_t { IntImm, FloatImm, Var, Binary, Load };

  Kind kind() const { return K; }
  ScalarType type() const { return Ty; }

  virtual ~ExprNode() = default;

protected:
  ExprNode(Kind K, ScalarType Ty) : K(K), Ty(Ty) {}

private:
  Kind K;
  ScalarType Ty;
};

/// Integer literal.
class IntImmNode : public ExprNode {
public:
  explicit IntImmNode(int64_t Value)
      : ExprNode(Kind::IntImm, ScalarType::I64), Value(Value) {}
  int64_t Value;
};

/// Floating literal (carried as double; narrowed at kernel boundaries).
class FloatImmNode : public ExprNode {
public:
  explicit FloatImmNode(double Value)
      : ExprNode(Kind::FloatImm, ScalarType::F64), Value(Value) {}
  double Value;
};

/// Scalar variable (loop index or let-bound value). Slot indices are
/// assigned by the slot-assignment pass; slot I becomes bytecode register
/// I, so execution reads frames by array index instead of name lookup.
class VarNode : public ExprNode {
public:
  VarNode(std::string Name, ScalarType Ty)
      : ExprNode(Kind::Var, Ty), Name(std::move(Name)) {}
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
      : ExprNode(Kind::Binary,
                 (A->type() == ScalarType::F64 || B->type() == ScalarType::F64)
                     ? ScalarType::F64
                     : ScalarType::I64),
        Op(Op), A(std::move(A)), B(std::move(B)) {}
  BinOp Op;
  Expr A;
  Expr B;
};

/// Scalar element load from a buffer: Buffer[Indices...]. The scalar type
/// is the int/float split of the buffer element type. Multi-dimensional
/// until the flatten pass rewrites indices to a single offset.
class LoadNode : public ExprNode {
public:
  LoadNode(int BufferId, std::vector<Expr> Indices, ScalarType Ty)
      : ExprNode(Kind::Load, Ty), BufferId(BufferId),
        Indices(std::move(Indices)) {}
  int BufferId;
  /// Mutable so the flatten pass can rewrite accesses in place (load nodes
  /// are never shared across distinct accesses by construction).
  mutable std::vector<Expr> Indices;
};

//===----------------------------------------------------------------------===//
// Construction helpers
//===----------------------------------------------------------------------===//

inline Expr makeInt(int64_t V) { return std::make_shared<IntImmNode>(V); }
inline Expr makeFloat(double V) { return std::make_shared<FloatImmNode>(V); }
inline Var makeVar(std::string Name,
                   ScalarType Ty = ScalarType::I64) {
  return std::make_shared<VarNode>(std::move(Name), Ty);
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
