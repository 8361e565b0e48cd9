//===- backend.h - Executor backend tag -------------------------*- C++ -*-===//
///
/// \file
/// Compiled partitions run on one engine: the flat bytecode program
/// (exec/program.h) and its dispatch loop (exec/executor.h).
///
//===----------------------------------------------------------------------===//

#ifndef GC_EXEC_BACKEND_H
#define GC_EXEC_BACKEND_H

namespace gc {
namespace exec {

/// Execution engine for compiled partitions; Bytecode is the only one.
enum class Backend { Bytecode };

} // namespace exec
} // namespace gc

#endif // GC_EXEC_BACKEND_H
