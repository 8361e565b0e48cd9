//===- printer.h - Tensor IR text rendering ---------------------*- C++ -*-===//
///
/// \file
/// Renders Tensor IR as C-like text (the style of Fig. 6) for debugging and
/// for the structural assertions in the pass tests.
///
//===----------------------------------------------------------------------===//

#ifndef GC_TIR_PRINTER_H
#define GC_TIR_PRINTER_H

#include "tir/function.h"

#include <string>

namespace gc {
namespace tir {

/// Renders one expression.
std::string printExpr(const Expr &E);

/// Renders one statement tree with \p Indent leading spaces.
std::string printStmt(const Stmt &S, int Indent = 0);

/// Renders a whole function (buffer table + body).
std::string printFunc(const Func &F);

} // namespace tir
} // namespace gc

#endif // GC_TIR_PRINTER_H
