//===- executor.cpp - Bytecode dispatch loop ----------------------------------===//

#include "exec/executor.h"

#include "kernels/brgemm.h"
#include "kernels/epilogue.h"
#include "kernels/packing.h"
#include "kernels/tile_ops.h"
#include "support/common.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

namespace gc {
namespace exec {

namespace {

/// Sets FTZ and DAZ in MXCSR for its lifetime and restores the caller's
/// value on exit; a no-op off x86. Compiled code then never takes the
/// microcode assist a denormal operand or result costs (a softmax's
/// exp(x - rowmax) underflows for every logit 87 below the row max): a
/// denormal result is written as zero and a denormal input read as zero.
/// Executions that run on the submitting thread and every parallel chunk
/// on a pool worker each hold one, so no thread's mode leaks.
class FlushDenormalsScope {
public:
#if defined(__x86_64__) || defined(__i386__)
  FlushDenormalsScope() : Saved(_mm_getcsr()) {
    _mm_setcsr(Saved | 0x8040); // FTZ (bit 15) | DAZ (bit 6)
  }
  ~FlushDenormalsScope() { _mm_setcsr(Saved); }

private:
  unsigned Saved;
#endif
};

} // namespace

//===----------------------------------------------------------------------===//
// Kernel adapters
//===----------------------------------------------------------------------===//
//
// One flat function per row of tir/intrinsics.h's table, selected once at
// program compile time; executing a Call is register marshalling plus one
// indirect call. Each adapter unpacks its row's buffers and scalars.

namespace {

using namespace kernels;

void adBrgemmF32(void *const *Ptrs, const int64_t *SI, const double *) {
  BrgemmF32Args A;
  A.A = static_cast<const float *>(Ptrs[0]);
  A.B = static_cast<const float *>(Ptrs[1]);
  A.C = static_cast<float *>(Ptrs[2]);
  A.M = SI[0]; A.N = SI[1]; A.K = SI[2];
  A.Lda = SI[3]; A.Ldb = SI[4]; A.Ldc = SI[5];
  A.AStrideBatch = SI[6]; A.BStrideBatch = SI[7];
  A.Batch = SI[8]; A.InitC = SI[9] != 0;
  brgemmF32(A);
}

void adBrgemmU8S8(void *const *Ptrs, const int64_t *SI, const double *) {
  BrgemmU8S8Args A;
  A.A = static_cast<const uint8_t *>(Ptrs[0]);
  A.B = static_cast<const int8_t *>(Ptrs[1]);
  A.C = static_cast<int32_t *>(Ptrs[2]);
  A.M = SI[0]; A.N = SI[1]; A.K = SI[2];
  A.Lda = SI[3]; A.NPadded = SI[4]; A.Ldc = SI[5];
  A.AStrideBatch = SI[6]; A.BStrideBatch = SI[7];
  A.Batch = SI[8]; A.InitC = SI[9] != 0;
  brgemmU8S8(A);
}

void adCopyTileRaw(void *const *P, const int64_t *SI, const double *) {
  copyTileRaw(P[0], SI[2], P[1], SI[3], SI[0], SI[1], SI[4]);
}
void adPermute0213(void *const *P, const int64_t *SI, const double *) {
  permute0213(P[0], P[1], SI[0], SI[1], SI[2], SI[3], SI[4]);
}
void adEpilogueTile(void *const *P, const int64_t *SI, const double *) {
  epilogueTile(*static_cast<const EpilogueDesc *>(P[kMaxCallBufs]), P,
               SI[0], SI[1], SI[2] != 0);
}

inline PlainMatrix plainArg(void *const *P, const int64_t *SI) {
  PlainMatrix Src;
  Src.Data = P[1];
  Src.Rows = SI[0];
  Src.Cols = SI[1];
  Src.Ld = SI[2];
  Src.Transposed = SI[5] != 0;
  return Src;
}

void adPackAF32(void *const *P, const int64_t *SI, const double *) {
  packAF32(plainArg(P, SI), static_cast<float *>(P[0]), SI[3], SI[4]);
}
void adPackAU8(void *const *P, const int64_t *SI, const double *) {
  packAU8(plainArg(P, SI), static_cast<uint8_t *>(P[0]), SI[3], SI[4]);
}
void adPackBF32(void *const *P, const int64_t *SI, const double *) {
  packBF32(plainArg(P, SI), static_cast<float *>(P[0]), SI[3], SI[4]);
}
void adPackBS8Vnni(void *const *P, const int64_t *SI, const double *) {
  packBS8Vnni(plainArg(P, SI), static_cast<int8_t *>(P[0]), SI[3], SI[4]);
}

constexpr KernelFn kAdapters[] = {
#define GC_INTRINSIC_ADAPTER(Id, ...) ad##Id,
    GC_INTRINSIC_TABLE(GC_INTRINSIC_ADAPTER)
#undef GC_INTRINSIC_ADAPTER
};

} // namespace

KernelFn kernelAdapter(tir::Intrinsic In) {
  const uint8_t I = static_cast<uint8_t>(In);
  return I < tir::kNumIntrinsics ? kAdapters[I] : nullptr;
}

//===----------------------------------------------------------------------===//
// Executor setup: buffer placement
//===----------------------------------------------------------------------===//

Executor::Executor(std::shared_ptr<const Program> Prog,
                   runtime::ThreadPool &Pool)
    : P(std::move(Prog)), Pool(Pool) {
  const size_t NumBuffers = P->Buffers.size();
  BasePtrs.assign(NumBuffers, nullptr);

  if (P->ArenaBytes > 0)
    Arena.resize(static_cast<size_t>(P->ArenaBytes));

  const int NumWorkers = Pool.numThreads();
  ThreadScratch.resize(static_cast<size_t>(NumWorkers));
  int64_t ScratchBytes = 0;
  for (const BufferInfo &B : P->Buffers)
    if (B.Scope == tir::BufferScope::ThreadLocal)
      ScratchBytes += roundUp(B.Bytes, runtime::kDefaultAlignment);
  for (auto &Block : ThreadScratch)
    if (ScratchBytes > 0)
      Block.resize(static_cast<size_t>(ScratchBytes));

  WorkerPtrs.assign(static_cast<size_t>(NumWorkers),
                    std::vector<void *>(NumBuffers, nullptr));
  std::vector<int64_t> ScratchOffset(static_cast<size_t>(NumWorkers), 0);

  for (size_t Id = 0; Id < NumBuffers; ++Id) {
    const BufferInfo &B = P->Buffers[Id];
    switch (B.Scope) {
    case tir::BufferScope::Param:
    case tir::BufferScope::FoldedConst:
      break; // bound by caller
    case tir::BufferScope::Const:
      if (B.BakedData)
        BasePtrs[Id] = const_cast<void *>(B.BakedData);
      break; // otherwise bound by caller
    case tir::BufferScope::Temp: {
      void *Ptr = nullptr;
      if (B.ArenaOffset >= 0) {
        assert(B.ArenaOffset + B.Bytes <= static_cast<int64_t>(Arena.size()) &&
               "arena overflow");
        Ptr = static_cast<char *>(Arena.data()) + B.ArenaOffset;
      } else {
        Locals.emplace_back(static_cast<size_t>(B.Bytes));
        Ptr = Locals.back().data();
      }
      BasePtrs[Id] = Ptr;
      break;
    }
    case tir::BufferScope::ThreadLocal: {
      for (int W = 0; W < NumWorkers; ++W) {
        void *Ptr =
            static_cast<char *>(ThreadScratch[W].data()) + ScratchOffset[W];
        ScratchOffset[W] += roundUp(B.Bytes, runtime::kDefaultAlignment);
        WorkerPtrs[W][Id] = Ptr;
      }
      break;
    }
    }
  }

  // The constant image loads once: every non-constant register (loop
  // vars, lets, temps, inductions) is written before it is read, so runs
  // never need a fresh frame.
  MainRegs = P->InitRegs;
  WorkerRegs.assign(static_cast<size_t>(NumWorkers),
                    std::vector<int64_t>(P->NumRegs));
}

void Executor::bindBuffer(int BufferId, void *Ptr) {
  assert(BufferId >= 0 &&
         static_cast<size_t>(BufferId) < BasePtrs.size() && "bad buffer id");
  BasePtrs[static_cast<size_t>(BufferId)] = Ptr;
}

void Executor::run() {
  FlushDenormalsScope Flush;
  // Finalize worker tables: every non-ThreadLocal buffer points at the
  // shared base.
  for (size_t BId = 0; BId < BasePtrs.size(); ++BId) {
    if (P->Buffers[BId].Scope == tir::BufferScope::ThreadLocal)
      continue;
    if (!BasePtrs[BId])
      fatalError("unbound tensor buffer at execution");
    for (auto &Table : WorkerPtrs)
      Table[BId] = BasePtrs[BId];
  }
  Frame Fr;
  Fr.Regs = MainRegs.data();
  Fr.Buffers = WorkerPtrs[0].data();
  runRange(0, static_cast<uint32_t>(P->Code.size()), Fr);
}

//===----------------------------------------------------------------------===//
// Dispatch loop
//===----------------------------------------------------------------------===//

void Executor::runParallel(const Instr &In, Frame &Fr, uint32_t BodyBegin) {
  const ParDesc &D = P->Pars[static_cast<size_t>(In.Target)];
  const int64_t *R = Fr.Regs;
  const int64_t Begin = R[D.BeginReg];
  const int64_t End = R[D.EndReg];
  const int64_t Step = R[D.StepReg];
  assert(Step > 0 && "parallel loop requires positive step");
  const int64_t Trips = Begin < End ? ceilDiv(End - Begin, Step) : 0;
  if (Trips <= 0)
    return;
  const uint32_t BodyEnd = BodyBegin + D.BodyLen;
  const int NumWorkers = Pool.numThreads();
  if (NumWorkers == 1) {
    // Single worker: the body only writes registers that are dead outside
    // the nest (its loop variable, body lets, body temporaries), so it can
    // run on the submitting frame directly; the pool call is kept for the
    // one-barrier-per-nest accounting.
    Pool.parallelFor(0, Trips, [&](int64_t I, int) {
      FlushDenormalsScope Flush;
      Fr.Regs[D.VarReg] = Begin + I * Step;
      runRange(BodyBegin, BodyEnd, Fr);
    });
    return;
  }
  // Copy the submitting frame per worker so outer values (lets, hoisted
  // invariants, inductions) stay visible; each worker uses its own
  // thread-local buffer table. The pool partitions statically over worker
  // ids 0..Trips-1 at most, so short nests only need that many frames.
  const int ActiveWorkers =
      static_cast<int>(std::min<int64_t>(NumWorkers, Trips));
  for (int W = 0; W < ActiveWorkers; ++W)
    std::copy(Fr.Regs, Fr.Regs + P->NumRegs, WorkerRegs[W].data());
  Pool.parallelFor(0, Trips, [&](int64_t I, int ThreadId) {
    FlushDenormalsScope Flush;
    Frame WFr;
    WFr.Regs = WorkerRegs[static_cast<size_t>(ThreadId)].data();
    WFr.Buffers = WorkerPtrs[static_cast<size_t>(ThreadId)].data();
    WFr.Regs[D.VarReg] = Begin + I * Step;
    runRange(BodyBegin, BodyEnd, WFr);
  });
}

void Executor::runRange(uint32_t PC, uint32_t End, Frame &Fr) {
  const Instr *Code = P->Code.data();
  int64_t *R = Fr.Regs;
  void *const *Bufs = Fr.Buffers;
  const BufferInfo *BI = P->Buffers.data();
  while (PC < End) {
    const Instr &I = Code[PC];
    switch (I.Op) {
    case Opcode::Mov: R[I.A] = R[I.B]; break;
    case Opcode::AddI: R[I.A] = R[I.B] + R[I.C]; break;
    case Opcode::SubI: R[I.A] = R[I.B] - R[I.C]; break;
    case Opcode::MulI: R[I.A] = R[I.B] * R[I.C]; break;
    case Opcode::DivI: R[I.A] = R[I.B] / R[I.C]; break;
    case Opcode::ModI: R[I.A] = R[I.B] % R[I.C]; break;
    case Opcode::MinI: R[I.A] = std::min(R[I.B], R[I.C]); break;
    case Opcode::MaxI: R[I.A] = std::max(R[I.B], R[I.C]); break;
    case Opcode::AddImmI: R[I.A] += I.Imm; break;
    case Opcode::JumpIfGeI:
      if (R[I.A] >= R[I.B]) {
        PC = static_cast<uint32_t>(static_cast<int64_t>(PC) + I.Target);
        continue;
      }
      break;
    case Opcode::LoopNext:
      R[I.A] += R[I.B];
      if (R[I.A] < R[I.C]) {
        PC = static_cast<uint32_t>(static_cast<int64_t>(PC) + I.Target);
        continue;
      }
      break;
    case Opcode::CallKernel: {
      const CallDesc &D = P->Calls[static_cast<size_t>(I.Target)];
      void *Ptrs[kMaxCallBufs + 1];
      Ptrs[kMaxCallBufs] =
          const_cast<kernels::EpilogueDesc *>(D.Epilogue.get());
      for (uint8_t K = 0; K < D.NumBufs; ++K) {
        const CallDesc::Buf &BRef = D.Bufs[K];
        const int64_t Off = BRef.HasOffset ? R[BRef.OffsetReg] : 0;
        Ptrs[K] =
            static_cast<char *>(Bufs[BRef.BufferId]) +
            Off * BI[BRef.BufferId].ElemSize;
      }
      if (D.NumDyn == 0) {
        // Fully constant scalars: use the pre-marshalled array in place.
        D.Fn(Ptrs, D.SI, nullptr);
        break;
      }
      int64_t SI[12];
      std::memcpy(SI, D.SI, sizeof(SI));
      for (uint8_t K = 0; K < D.NumDyn; ++K)
        SI[D.Dyns[K].Idx] = R[D.Dyns[K].Reg];
      D.Fn(Ptrs, SI, nullptr);
      break;
    }
    case Opcode::ParallelFor:
      runParallel(I, Fr, PC + 1);
      PC += 1 + P->Pars[static_cast<size_t>(I.Target)].BodyLen;
      continue;
    }
    ++PC;
  }
}

} // namespace exec
} // namespace gc
