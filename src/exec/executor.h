//===- executor.h - Bytecode dispatch loop ----------------------*- C++ -*-===//
///
/// \file
/// Per-execution state and dispatch loop for exec::Program. The Program is
/// compiled once per partition (second stage of the lower -> bytecode ->
/// dispatch pipeline, see exec/program.h); each execution draws an
/// Executor whose register frame, temp arena and per-worker scratch belong
/// to that execution, so concurrent executes of one partition never share
/// mutable state.
///
/// Parallel For nests run through runtime::ThreadPool::parallelFor with a
/// register-frame copy per worker: one fork/join barrier per parallel nest
/// entered, and static chunking, so a partition's outputs are bit-identical
/// across runs and thread counts.
///
//===----------------------------------------------------------------------===//

#ifndef GC_EXEC_EXECUTOR_H
#define GC_EXEC_EXECUTOR_H

#include "exec/program.h"
#include "runtime/buffer.h"
#include "runtime/thread_pool.h"

#include <memory>
#include <vector>

namespace gc {
namespace exec {

/// Executes a bytecode program against caller-provided buffer bindings.
class Executor {
public:
  /// Prepares execution state (temp arena, per-worker scratch, register
  /// frames). \p P must outlive the executor.
  Executor(std::shared_ptr<const Program> P, runtime::ThreadPool &Pool);

  /// Binds a Param/FoldedConst/Const buffer to caller storage.
  void bindBuffer(int BufferId, void *Ptr);

  /// Runs the program. All param buffers must be bound.
  void run();

private:
  struct Frame {
    int64_t *Regs = nullptr;
    /// Buffer id -> base pointer (thread-specific for ThreadLocal).
    void *const *Buffers = nullptr;
  };

  void runRange(uint32_t PC, uint32_t End, Frame &Fr);
  void runParallel(const Instr &I, Frame &Fr, uint32_t BodyBegin);

  std::shared_ptr<const Program> P;
  runtime::ThreadPool &Pool;

  /// Base pointers indexed by buffer id; worker 0 view.
  std::vector<void *> BasePtrs;
  /// Per-worker pointer tables (ThreadLocal buffers diverge).
  std::vector<std::vector<void *>> WorkerPtrs;

  runtime::AlignedBuffer Arena;               // shared temp arena
  std::vector<runtime::AlignedBuffer> Locals; // temps without arena offset
  std::vector<runtime::AlignedBuffer> ThreadScratch; // per worker blocks

  /// Main register frame plus one persistent frame per worker (copied
  /// from the submitting frame at each parallel nest entry).
  std::vector<int64_t> MainRegs;
  std::vector<std::vector<int64_t>> WorkerRegs;
};

} // namespace exec
} // namespace gc

#endif // GC_EXEC_EXECUTOR_H
