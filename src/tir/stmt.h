//===- stmt.h - Tensor IR statements ----------------------------*- C++ -*-===//
///
/// \file
/// Statements of the Tensor IR (§VI): loops (serial/parallel), scalar lets,
/// and intrinsic calls; every tensor element is read and written inside
/// the microkernel an intrinsic call names. Statement nodes are mutable so
/// the Tensor IR passes (loop merging, buffer reuse) can rewrite in place.
///
//===----------------------------------------------------------------------===//

#ifndef GC_TIR_STMT_H
#define GC_TIR_STMT_H

#include "kernels/epilogue.h"
#include "tir/expr.h"
#include "tir/intrinsics.h"

#include <memory>
#include <string>
#include <vector>

namespace gc {
namespace tir {

class StmtNode;
using Stmt = std::shared_ptr<StmtNode>;
using StmtList = std::vector<Stmt>;

/// Reference to a position inside a buffer: buffer id plus an element
/// offset expression (intrinsics address tiles through these).
struct BufferRef {
  int BufferId = -1;
  Expr Offset; ///< in elements; null means offset 0

  BufferRef() = default;
  BufferRef(int BufferId, Expr Offset)
      : BufferId(BufferId), Offset(std::move(Offset)) {}
};

/// Base of all statement nodes.
class StmtNode {
public:
  enum class Kind : uint8_t { For, Let, Call, Seq };

  Kind kind() const { return K; }
  virtual ~StmtNode() = default;

protected:
  explicit StmtNode(Kind K) : K(K) {}

private:
  Kind K;
};

/// Counted loop: for (V = Begin; V < End; V += Step). Parallel loops map to
/// the thread pool; \c Mergeable marks nests the Graph IR coarse-grain
/// decision allows the loop-merge pass to combine with the next nest
/// (§V: "it marks the two nested loops in Tensor IR as mergeable").
class ForNode : public StmtNode {
public:
  ForNode() : StmtNode(Kind::For) {}

  Var LoopVar;
  Expr Begin;
  Expr End;
  Expr Step;
  bool Parallel = false;
  bool Mergeable = false;
  /// Debug tag: which fused op / template level produced this loop.
  std::string Tag;
  StmtList Body;
};

/// Binds a scalar variable to an expression value for subsequent statements
/// in the same scope.
class LetNode : public StmtNode {
public:
  LetNode() : StmtNode(Kind::Let) {}

  Var BoundVar;
  Expr Value;
};

/// Intrinsic (microkernel / tile kernel) invocation.
class CallNode : public StmtNode {
public:
  CallNode() : StmtNode(Kind::Call) {}

  Intrinsic In = Intrinsic::CopyTileRaw;
  std::vector<BufferRef> Buffers;
  std::vector<Expr> Scalars;
  /// EpilogueTile only: the step list; Buffers are its slots in order.
  std::shared_ptr<const kernels::EpilogueDesc> Epilogue;
};

/// Statement sequence with an optional tag; top-level nests lowered from
/// one Fused OP are wrapped in a Seq so passes can treat them as units.
class SeqNode : public StmtNode {
public:
  SeqNode() : StmtNode(Kind::Seq) {}

  std::string Tag;
  StmtList Body;
};

//===----------------------------------------------------------------------===//
// Construction helpers
//===----------------------------------------------------------------------===//

inline Stmt makeFor(Var LoopVar, Expr Begin, Expr End, Expr Step,
                    StmtList Body, bool Parallel = false,
                    std::string Tag = "") {
  auto S = std::make_shared<ForNode>();
  S->LoopVar = std::move(LoopVar);
  S->Begin = std::move(Begin);
  S->End = std::move(End);
  S->Step = std::move(Step);
  S->Body = std::move(Body);
  S->Parallel = Parallel;
  S->Tag = std::move(Tag);
  return S;
}

inline Stmt makeLet(Var BoundVar, Expr Value) {
  auto S = std::make_shared<LetNode>();
  S->BoundVar = std::move(BoundVar);
  S->Value = std::move(Value);
  return S;
}

inline Stmt makeCall(Intrinsic In, std::vector<BufferRef> Buffers,
                     std::vector<Expr> Scalars) {
  auto S = std::make_shared<CallNode>();
  S->In = In;
  S->Buffers = std::move(Buffers);
  S->Scalars = std::move(Scalars);
  return S;
}

inline Stmt makeSeq(StmtList Body, std::string Tag = "") {
  auto S = std::make_shared<SeqNode>();
  S->Body = std::move(Body);
  S->Tag = std::move(Tag);
  return S;
}

} // namespace tir
} // namespace gc

#endif // GC_TIR_STMT_H
