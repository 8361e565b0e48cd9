//===- program.h - Flat bytecode program for Tensor IR ----------*- C++ -*-===//
///
/// \file
/// The compiled form of a slot-assigned tir::Func: a contiguous,
/// register-based instruction array executed by a tight dispatch loop
/// (exec/executor.h). The paper JIT-compiles Tensor IR to LLVM IR so all
/// loop/index arithmetic around the microkernel calls costs essentially
/// nothing; the bytecode program is the offline reproduction of that
/// property (stage 1: lower -> Tensor IR; stage 2: compile -> bytecode;
/// stage 3: dispatch loop + microkernels).
///
/// What compilation buys over walking the IR tree:
///  * one flat instruction stream — no shared_ptr node chasing, no
///    recursive expression evaluation, no per-statement kind switches;
///  * constant-folded scalar arithmetic, with all literals preloaded into
///    a constant register image copied once per frame;
///  * Lets become plain register moves (slots are registers 0..NumSlots);
///  * affine Load/Store/BufferRef element offsets are strength-reduced
///    into induction registers: initialized once per loop entry, advanced
///    by a constant increment on the back edge, instead of re-evaluating
///    the index expression every iteration (loop-invariant offsets hoist
///    to the loop entry with increment 0);
///  * kernel Calls bind to direct function pointers into kernels/ at
///    compile time — executing a call is argument marshalling from
///    registers plus one indirect call, with no intrinsic switch.
///
/// Each parallel For nest is one ThreadPool::parallelFor over its trip
/// count, so one execution costs exactly one pool barrier per parallel
/// nest it enters, and the static chunking keeps results identical across
/// runs and thread counts.
///
/// Control flow uses relative jump offsets, which keeps compiled blocks
/// position-independent and lets the builder splice loop-entry code
/// without patch passes.
///
//===----------------------------------------------------------------------===//

#ifndef GC_EXEC_PROGRAM_H
#define GC_EXEC_PROGRAM_H

#include "kernels/epilogue.h"
#include "tir/function.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gc {
namespace exec {

/// Register value: an integer and a float view. Int<->float conversions
/// are explicit I2F/F2I instructions, never implicit.
struct Value {
  int64_t I = 0;
  double F = 0.0;
};

/// Bytecode operations. Register operands are indices into the frame's
/// register array; A is the destination unless noted.
enum class Opcode : uint8_t {
  // Moves / conversions.
  Mov,  ///< R[A] = R[B] (both fields)
  I2F,  ///< R[A].F = double(R[B].I)
  F2I,  ///< R[A].I = int64(R[B].F)
  // Integer arithmetic: R[A].I = R[B].I op R[C].I.
  AddI, SubI, MulI, DivI, ModI, MinI, MaxI,
  // Float arithmetic: R[A].F = R[B].F op R[C].F (Mod = fmod).
  AddF, SubF, MulF, DivF, ModF, MinF, MaxF,
  AddImmI, ///< R[A].I += Imm (induction advance on loop back edges)
  // Scalar element loads: R[A] = Buffers[B][R[C].I] (typed).
  LoadF32, LoadF64, LoadS32, LoadS8, LoadU8,
  // Scalar element stores: Buffers[B][R[C].I] = R[A] (typed; S8/U8
  // saturate the integer view to the type's range).
  StoreF32, StoreF64, StoreS32, StoreS8, StoreU8,
  // Control flow (Target is a signed offset relative to this instruction).
  JumpIfGeI, ///< if R[A].I >= R[B].I: PC += Target, else fall through
  LoopNext,  ///< R[A].I += R[B].I; if R[A].I < R[C].I: PC += Target
  CallKernel,  ///< invoke Calls[Target]
  ParallelFor, ///< run Pars[Target]; body is the next BodyLen instructions
};

/// One instruction. 24 bytes, laid out for the dispatch loop.
struct Instr {
  Opcode Op = Opcode::Mov;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int32_t Target = 0; ///< relative jump offset, or Calls/Pars index
  int64_t Imm = 0;    ///< immediate operand (AddImmI)
};

/// Most buffer arguments one kernel call carries (an epilogue call's step
/// list names up to this many slots).
constexpr int kMaxCallBufs = kernels::kEpilogueMaxBufs;

/// Kernel entry: pre-resolved buffer pointers (base + element offset
/// already applied) plus the int/float views of the scalar arguments, in
/// the intrinsic's documented order (tir/intrinsics.h). Ptrs has
/// kMaxCallBufs + 1 entries: Ptrs[kMaxCallBufs] is the call's epilogue
/// step list (null for every other intrinsic).
using KernelFn = void (*)(void *const *Ptrs, const int64_t *SI,
                          const double *SF);

/// Compiled kernel call: direct function pointer + argument recipe.
/// Compile-time-constant scalars are pre-marshalled into SI/SF; only the
/// (typically few) dynamic scalars are patched in from registers at
/// dispatch, and a call with none uses the arrays in place.
struct CallDesc {
  KernelFn Fn = nullptr;
  /// Symbolic identity of Fn. Function pointers do not survive process
  /// boundaries, so the persistent artifact cache serializes this and
  /// relinks Fn via kernelAdapter() at load time.
  tir::Intrinsic In = tir::Intrinsic::BrgemmF32;
  uint8_t NumBufs = 0;
  uint8_t NumDyn = 0; ///< dynamic scalar count (Dyn entries)
  struct Buf {
    int32_t BufferId = -1;
    uint16_t OffsetReg = 0; ///< element offset register
    bool HasOffset = false; ///< false = offset 0 (no register read)
  } Bufs[kMaxCallBufs];
  /// Pre-marshalled scalar views (constants filled at compile time).
  int64_t SI[12] = {0};
  double SF[12] = {0};
  struct Dyn {
    uint8_t Idx = 0;    ///< scalar position to patch
    bool IsF64 = false; ///< marshal from the F view (else the I view)
    uint16_t Reg = 0;
  } Dyns[12];
  /// EpilogueTile only: the step list, shared by every copy of the
  /// program; NumBufs equals its slot count.
  std::shared_ptr<const kernels::EpilogueDesc> Epilogue;
};

/// Compiled parallel loop. The body is the BodyLen instructions following
/// the ParallelFor instruction; each worker runs it over a copy of the
/// submitting frame with its own thread-local buffer table.
struct ParDesc {
  uint16_t VarReg = 0;
  uint16_t BeginReg = 0;
  uint16_t EndReg = 0;
  uint16_t StepReg = 0;
  uint32_t BodyLen = 0;
};

/// Per-buffer execution metadata, copied out of the tir::Func so the
/// executor never touches the IR.
struct BufferInfo {
  int64_t Bytes = 0;
  int64_t ElemSize = 1;
  tir::BufferScope Scope = tir::BufferScope::Temp;
  int64_t ArenaOffset = -1;          ///< Temp: offset into the shared arena
  const void *BakedData = nullptr;   ///< Const with baked data, else null
};

/// An executable bytecode program. Immutable after build; shared by every
/// execution of the owning partition (per-execution state lives in
/// exec::Executor).
struct Program {
  std::string Name;
  std::vector<Instr> Code;
  std::vector<CallDesc> Calls;
  std::vector<ParDesc> Pars;
  /// Initial register image (constants preloaded); frame setup is one copy.
  std::vector<Value> InitRegs;
  uint32_t NumRegs = 0;
  std::vector<BufferInfo> Buffers;
  int64_t ArenaBytes = 0;
};

/// Returns the marshalling adapter (defined with the executor) that calls
/// the kernels/ implementation of \p In through the CallDesc convention.
KernelFn kernelAdapter(tir::Intrinsic In);

/// Compiles a slot-assigned function into a bytecode program. \p F must
/// have slots assigned (the lowering driver compiles the program as its
/// final step). The returned program holds pointers into F.Baked, so F
/// must outlive it.
std::shared_ptr<const Program> compileProgram(const tir::Func &F);

/// Disassembles \p P for debugging / tests.
std::string printProgram(const Program &P);

} // namespace exec
} // namespace gc

#endif // GC_EXEC_PROGRAM_H
