//===- function.cpp - Tensor IR function utilities ----------------------------===//

#include "tir/function.h"

#include <unordered_set>

namespace gc {
namespace tir {

//===----------------------------------------------------------------------===//
// Slot assignment
//===----------------------------------------------------------------------===//

namespace {

/// Shared traversal state. Visited memoizes expression nodes already
/// walked: passes share subexpressions freely (expression nodes are
/// immutable), so without it slot assignment re-walks every shared subtree
/// once per use and goes super-linear on large fused regions.
struct CollectState {
  std::vector<const VarNode *> Order;
  std::unordered_set<const VarNode *> Seen;
  std::unordered_set<const ExprNode *> Visited;
};

void collectVarsExpr(const Expr &E, CollectState &St) {
  if (!E)
    return;
  if (!St.Visited.insert(E.get()).second)
    return;
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    return;
  case ExprNode::Kind::Var: {
    const auto *V = static_cast<const VarNode *>(E.get());
    if (St.Seen.insert(V).second)
      St.Order.push_back(V);
    return;
  }
  case ExprNode::Kind::Binary: {
    const auto &B = static_cast<const BinaryNode &>(*E);
    collectVarsExpr(B.A, St);
    collectVarsExpr(B.B, St);
    return;
  }
  }
}

void collectVarsStmt(const Stmt &S, CollectState &St) {
  switch (S->kind()) {
  case StmtNode::Kind::For: {
    const auto &F = static_cast<const ForNode &>(*S);
    if (St.Seen.insert(F.LoopVar.get()).second)
      St.Order.push_back(F.LoopVar.get());
    collectVarsExpr(F.Begin, St);
    collectVarsExpr(F.End, St);
    collectVarsExpr(F.Step, St);
    for (const Stmt &C : F.Body)
      collectVarsStmt(C, St);
    return;
  }
  case StmtNode::Kind::Let: {
    const auto &L = static_cast<const LetNode &>(*S);
    if (St.Seen.insert(L.BoundVar.get()).second)
      St.Order.push_back(L.BoundVar.get());
    collectVarsExpr(L.Value, St);
    return;
  }
  case StmtNode::Kind::Call: {
    const auto &C = static_cast<const CallNode &>(*S);
    for (const BufferRef &B : C.Buffers)
      collectVarsExpr(B.Offset, St);
    for (const Expr &E : C.Scalars)
      collectVarsExpr(E, St);
    return;
  }
  case StmtNode::Kind::Seq: {
    const auto &Q = static_cast<const SeqNode &>(*S);
    for (const Stmt &C : Q.Body)
      collectVarsStmt(C, St);
    return;
  }
  }
}

} // namespace

void assignSlots(Func &F) {
  CollectState St;
  for (const Stmt &S : F.Body)
    collectVarsStmt(S, St);
  int Slot = 0;
  for (const VarNode *V : St.Order)
    V->Slot = Slot++;
  F.NumSlots = Slot;
}

} // namespace tir
} // namespace gc
