//===- program_verifier.cpp - Bytecode program verification ---------------===//
///
/// \file
/// The compiled-Program verifier. Three layers:
///
///  1. A structural pass over every instruction and descriptor: opcode
///     validity, every register operand inside the register image, jump
///     targets inside the code block, Call/Par descriptor indices valid,
///     kernel pointers non-null, CallDesc buffer ids inside the buffer
///     table and buffer/dynamic-scalar counts within the marshalling
///     limits, and buffer metadata consistent (element size, arena
///     placement).
///
///  2. A structured abstract interpretation over the canonical control
///     flow the program builder emits (documented at the top of
///     exec/program.cpp): serial loops are recognized from their
///     JumpIfGeI guard + LoopNext back edge, parallel nests from their
///     guard + ParallelFor descriptor. Register values live in the
///     symbolic domain of verify/symbolic.h: loop variables become
///     bound-carrying symbols and strength-reduced induction registers
///     are reconstructed as entry + (Imm/Step)·(var − begin), so
///     correlated edge-tile offsets are proven exactly. Within that
///     state, every kernel-call buffer offset and every kernel-call
///     footprint is proven inside its buffer's element extent. Control
///     flow that does not
///     fit the canonical shapes is rejected as unstructured — the
///     executor's dispatch loop has no checks, so only programs the
///     verifier can understand are accepted.
///
///  3. A static race proof per parallel loop: the body walk collects the
///     kernel-call footprints of one abstract iteration, and
///     verify/relational.h proves every cross-iteration pair with a
///     write on a shared (non-thread-local) buffer disjoint, or rejects
///     with a Status naming the two conflicting footprints. Layers 2+3
///     are the precondition for executing mmap-loaded Programs from the
///     persistent cache, which is why verifyLoadedProgram runs them
///     regardless of GC_VERIFY.
///
/// The walk keeps one abstract frame. A serial loop, a guarded region or
/// a parallel body is walked in the caller's frame: only the registers
/// the region writes are saved first, then widened, and box-joined with
/// the saved values afterwards wherever the executor may skip the region
/// or run it on a frame copy. A region therefore costs its
/// instruction count plus its written registers, never the whole frame,
/// and a program verifies in time linear in its size times its loop
/// nesting depth. A deep MLP's merged parallel nest holds hundreds of
/// regions over thousands of registers, so a per-region frame copy would
/// grow with the square of its depth.
///
//===----------------------------------------------------------------------===//

#include "verify/verify.h"

#include "exec/program.h"
#include "support/str.h"
#include "verify/relational.h"
#include "verify/symbolic.h"

#include <vector>

namespace gc {
namespace verify {

namespace {

using exec::CallDesc;
using exec::Instr;
using exec::Opcode;
using exec::ParDesc;
using exec::Program;

/// Abstract frame: one symbolic value per register.
using RegState = std::vector<SymVal>;

class ProgramVerifier {
public:
  /// \p Loaded: the program comes from outside this process, so an access
  /// the engine cannot bound is rejected instead of counted and accepted.
  ProgramVerifier(const Program &P, const char *Context, bool Loaded)
      : P(P), Context(Context), Loaded(Loaded) {}

  Status run() {
    if (Status S = checkStructure(); !S.isOk())
      return S;
    Seen.assign(P.NumRegs, false);
    RegState R(P.NumRegs, SymVal::top());
    for (size_t I = 0; I < P.InitRegs.size(); ++I)
      R[I] = SymVal::constant(P.InitRegs[I]);
    return walkRegion(0, P.Code.size(), R);
  }

private:
  const Program &P;
  const char *Context;
  const bool Loaded;
  SymCtx Ctx;
  /// Non-null while walking a parallel body: every footprint the body
  /// touches is appended for the race proof.
  std::vector<Footprint> *Collect = nullptr;
  bool InParallel = false;
  /// writtenRegs' one-bit-per-register scratch; all clear between calls.
  std::vector<bool> Seen;

  Status err(size_t Pc, const std::string &What) const {
    return Status::error(
        StatusCode::Internal,
        formatString("program verifier%s%s: %s: instr %zu: %s",
                     *Context ? " after " : "", Context, P.Name.c_str(), Pc,
                     What.c_str()));
  }

  /// Destination register of \p I, or -1 when the opcode writes none.
  static int destReg(const Instr &I) {
    switch (I.Op) {
    case Opcode::Mov:
    case Opcode::AddI:
    case Opcode::SubI:
    case Opcode::MulI:
    case Opcode::DivI:
    case Opcode::ModI:
    case Opcode::MinI:
    case Opcode::MaxI:
    case Opcode::AddImmI:
    case Opcode::LoopNext:
      return I.A;
    default:
      return -1;
    }
  }

  int64_t bufferElems(int BufferId) const {
    const exec::BufferInfo &B = P.Buffers[static_cast<size_t>(BufferId)];
    return B.ElemSize > 0 ? B.Bytes / B.ElemSize : 0;
  }

  Status checkStructure() const {
    if (P.InitRegs.size() != P.NumRegs)
      return Status::error(
          StatusCode::Internal,
          formatString("program verifier%s%s: %s: init image has %zu "
                       "registers, program declares %u",
                       *Context ? " after " : "", Context, P.Name.c_str(),
                       P.InitRegs.size(), P.NumRegs));
    for (size_t I = 0; I < P.Buffers.size(); ++I) {
      const exec::BufferInfo &B = P.Buffers[I];
      if (B.Bytes < 0 || B.ElemSize <= 0 || B.Bytes % B.ElemSize != 0)
        return err(0, formatString("buffer %zu has inconsistent size "
                                   "metadata (%lld bytes, elem size %lld)",
                                   I, (long long)B.Bytes,
                                   (long long)B.ElemSize));
      // The executor places Temp buffers only in the arena.
      if (B.Scope == tir::BufferScope::Temp &&
          (B.ArenaOffset < 0 || B.ArenaOffset > P.ArenaBytes - B.Bytes))
        return err(0, formatString("temp buffer %zu arena slot [%lld, %lld) "
                                   "lies outside the %lld byte arena",
                                   I, (long long)B.ArenaOffset,
                                   (long long)(B.ArenaOffset + B.Bytes),
                                   (long long)P.ArenaBytes));
    }
    const auto RegOk = [&](uint16_t R) { return R < P.NumRegs; };
    for (size_t Pc = 0; Pc < P.Code.size(); ++Pc) {
      const Instr &I = P.Code[Pc];
      if (static_cast<uint8_t>(I.Op) >= exec::kNumOpcodes)
        return err(Pc, formatString("invalid opcode %u",
                                    static_cast<unsigned>(I.Op)));
      switch (I.Op) {
      case Opcode::AddI:
      case Opcode::SubI:
      case Opcode::MulI:
      case Opcode::DivI:
      case Opcode::ModI:
      case Opcode::MinI:
      case Opcode::MaxI:
      case Opcode::LoopNext:
        if (!RegOk(I.A) || !RegOk(I.B) || !RegOk(I.C))
          return err(Pc, "register operand outside the register image");
        break;
      case Opcode::AddImmI:
        if (!RegOk(I.A))
          return err(Pc, "register operand outside the register image");
        break;
      case Opcode::Mov:
      case Opcode::JumpIfGeI:
        if (!RegOk(I.A) || !RegOk(I.B))
          return err(Pc, "register operand outside the register image");
        break;
      case Opcode::CallKernel: {
        if (I.Target < 0 ||
            static_cast<size_t>(I.Target) >= P.Calls.size())
          return err(Pc, formatString("call descriptor %d out of range",
                                      I.Target));
        const CallDesc &C = P.Calls[static_cast<size_t>(I.Target)];
        if (!C.Fn)
          return err(Pc, "kernel call has a null function pointer");
        if (C.NumBufs > exec::kMaxCallBufs || C.NumDyn > 12)
          return err(Pc,
                     formatString("kernel call exceeds marshalling limits "
                                  "(%u buffers, %u dynamic scalars)",
                                  C.NumBufs, C.NumDyn));
        if (static_cast<uint8_t>(C.In) >= tir::kNumIntrinsics)
          return err(Pc, formatString("invalid intrinsic %u",
                                      static_cast<unsigned>(C.In)));
        // Footprints index Bufs by the intrinsic's argument layout, or by
        // the step list's slots for an epilogue call.
        if ((C.In == tir::Intrinsic::EpilogueTile) != (C.Epilogue != nullptr))
          return err(Pc, formatString("%s call %s a step list",
                                      tir::intrinsicName(C.In),
                                      C.Epilogue ? "carries" : "lacks"));
        const uint8_t Layout = C.Epilogue ? C.Epilogue->NumBufs
                                          : tir::intrinsicInfo(C.In).NumBufs;
        if (C.NumBufs != Layout)
          return err(Pc, formatString("%s call carries %u buffers, its "
                                      "layout takes %u",
                                      tir::intrinsicName(C.In), C.NumBufs,
                                      Layout));
        if (C.Epilogue) {
          std::vector<kernels::EpArgUse> Uses;
          std::string Why;
          if (!kernels::describeEpilogue(*C.Epilogue, Uses, Why))
            return err(Pc, "malformed epilogue step list: " + Why);
        }
        for (uint8_t BI = 0; BI < C.NumBufs; ++BI) {
          if (C.Bufs[BI].BufferId < 0 ||
              static_cast<size_t>(C.Bufs[BI].BufferId) >= P.Buffers.size())
            return err(Pc, formatString("kernel call buffer arg %u "
                                        "references unknown buffer %d",
                                        BI, C.Bufs[BI].BufferId));
          if (C.Bufs[BI].HasOffset && !RegOk(C.Bufs[BI].OffsetReg))
            return err(Pc, "kernel call offset register outside the "
                           "register image");
        }
        for (uint8_t DI = 0; DI < C.NumDyn; ++DI) {
          if (C.Dyns[DI].Idx >= 12)
            return err(Pc, "kernel call dynamic scalar index out of range");
          if (!RegOk(C.Dyns[DI].Reg))
            return err(Pc, "kernel call dynamic scalar register outside "
                           "the register image");
        }
        break;
      }
      case Opcode::ParallelFor: {
        if (I.Target < 0 || static_cast<size_t>(I.Target) >= P.Pars.size())
          return err(Pc, formatString("parallel descriptor %d out of range",
                                      I.Target));
        const ParDesc &D = P.Pars[static_cast<size_t>(I.Target)];
        if (!RegOk(D.VarReg) || !RegOk(D.BeginReg) || !RegOk(D.EndReg) ||
            !RegOk(D.StepReg))
          return err(Pc, "parallel descriptor register outside the "
                         "register image");
        if (Pc + 1 + D.BodyLen > P.Code.size())
          return err(Pc, formatString("parallel body of %u instructions "
                                      "runs past the end of the program",
                                      D.BodyLen));
        break;
      }
      }
      if (I.Op == Opcode::JumpIfGeI || I.Op == Opcode::LoopNext) {
        const int64_t T = static_cast<int64_t>(Pc) + I.Target;
        if (T < 0 || T > static_cast<int64_t>(P.Code.size()))
          return err(Pc, formatString("jump target %lld outside the code "
                                      "block",
                                      (long long)T));
      }
    }
    return Status::ok();
  }

  /// Registers written by instructions in [Begin, End), each once, in
  /// first-write order. Walking a region changes no other register.
  std::vector<uint16_t> writtenRegs(size_t Begin, size_t End) {
    std::vector<uint16_t> Out;
    for (size_t Pc = Begin; Pc < End; ++Pc)
      if (int D = destReg(P.Code[Pc]); D >= 0 && !Seen[static_cast<size_t>(D)]) {
        Seen[static_cast<size_t>(D)] = true;
        Out.push_back(static_cast<uint16_t>(D));
      }
    for (uint16_t W : Out)
      Seen[W] = false;
    return Out;
  }

  /// The values \p R holds in \p Regs.
  static RegState save(const std::vector<uint16_t> &Regs, const RegState &R) {
    RegState Out;
    Out.reserve(Regs.size());
    for (uint16_t W : Regs)
      Out.push_back(R[W]);
    return Out;
  }

  /// Loop steps must be proven >= 1: the executor divides a parallel
  /// loop's span by its step, and a serial loop's LoopNext adds it.
  Status checkStep(size_t Pc, const Interval &Step) const {
    if (Step.Lo >= 1)
      return Status::ok();
    if (Step.boundedAbove() && Step.Hi <= 0)
      return err(Pc, formatString("non-positive loop step %lld",
                                  (long long)Step.Hi));
    return err(Pc, formatString("loop step range [%lld, %lld] is not "
                                "proven positive",
                                (long long)Step.Lo, (long long)Step.Hi));
  }

  /// True when verdict \p V admits the access.
  bool admits(Bounds V) const {
    return V == Bounds::In || (V == Bounds::Undecided && !Loaded);
  }

  /// How a rejected access relates to its buffer, for the error message.
  static const char *rejection(Bounds V) {
    return V == Bounds::Out ? "is outside" : "cannot be bounded within";
  }

  Status checkOffset(size_t Pc, uint16_t BufferId, const SymVal &Off,
                     const char *What) {
    const int64_t Elems = bufferElems(BufferId);
    const Interval R = Ctx.range(Off);
    const Bounds V = reachBounds(R, Elems);
    if (admits(V))
      return Status::ok();
    return err(Pc, formatString("%s offset range [%lld, %lld] %s buffer %u's "
                                "%lld elements",
                                What, (long long)R.Lo, (long long)R.Hi,
                                rejection(V), BufferId, (long long)Elems));
  }

  /// Keeps \p F for the race proof while a parallel body is walked. A
  /// thread-local buffer is private to each worker (per-worker frame copy
  /// or scratch slab), so its footprints never pair across iterations.
  void record(Footprint F) {
    if (Collect && P.Buffers[static_cast<size_t>(F.Buffer)].Scope !=
                       tir::BufferScope::ThreadLocal)
      Collect->push_back(std::move(F));
  }

  /// Straight-line transfer of one non-control-flow instruction.
  Status step(size_t Pc, RegState &R) {
    const Instr &I = P.Code[Pc];
    switch (I.Op) {
    case Opcode::Mov:
      R[I.A] = R[I.B];
      return Status::ok();
    case Opcode::AddI:
      R[I.A] = Ctx.add(R[I.B], R[I.C]);
      return Status::ok();
    case Opcode::SubI:
      R[I.A] = Ctx.sub(R[I.B], R[I.C]);
      return Status::ok();
    case Opcode::MulI:
      R[I.A] = Ctx.mul(R[I.B], R[I.C]);
      return Status::ok();
    case Opcode::DivI:
      R[I.A] = Ctx.div(R[I.B], R[I.C]);
      return Status::ok();
    case Opcode::ModI:
      R[I.A] = Ctx.mod(R[I.B], R[I.C]);
      return Status::ok();
    case Opcode::MinI:
      R[I.A] = Ctx.min(R[I.B], R[I.C]);
      return Status::ok();
    case Opcode::MaxI:
      R[I.A] = Ctx.max(R[I.B], R[I.C]);
      return Status::ok();
    case Opcode::AddImmI:
      R[I.A] = Ctx.add(R[I.A], SymVal::constant(I.Imm));
      return Status::ok();
    case Opcode::CallKernel: {
      const CallDesc &C = P.Calls[static_cast<size_t>(I.Target)];
      for (uint8_t BI = 0; BI < C.NumBufs; ++BI)
        if (C.Bufs[BI].HasOffset)
          if (Status S = checkOffset(
                  Pc, static_cast<uint16_t>(C.Bufs[BI].BufferId),
                  R[C.Bufs[BI].OffsetReg], "kernel-call buffer");
              !S.isOk())
            return S;
      KernelCall K;
      K.In = C.In;
      K.Epilogue = C.Epilogue.get();
      for (int I = 0; I < 12; ++I)
        K.Scalars.push_back(SymVal::constant(C.SI[I]));
      for (uint8_t DI = 0; DI < C.NumDyn; ++DI)
        K.Scalars[C.Dyns[DI].Idx] = R[C.Dyns[DI].Reg];
      for (uint8_t BI = 0; BI < C.NumBufs; ++BI) {
        K.Bufs.push_back(C.Bufs[BI].BufferId);
        K.Offs.push_back(C.Bufs[BI].HasOffset ? R[C.Bufs[BI].OffsetReg]
                                              : SymVal::constant(0));
      }
      for (Footprint &F : callFootprints(Ctx, K)) {
        F.Site = formatString("instr %zu (%s)", Pc, F.Site.c_str());
        Interval Reach;
        const Bounds V = footprintBounds(Ctx, F, bufferElems(F.Buffer), Reach);
        if (!admits(V))
          return err(Pc, formatString("%s: footprint [%lld, %lld] %s buffer "
                                      "%d's %lld elements",
                                      F.Site.c_str(), (long long)Reach.Lo,
                                      (long long)Reach.Hi, rejection(V),
                                      F.Buffer,
                                      (long long)bufferElems(F.Buffer)));
        record(std::move(F));
      }
      return Status::ok();
    }
    default:
      return err(Pc, "internal: control-flow opcode reached straight-line "
                     "transfer");
    }
  }

  /// Box-join of registers \p Regs with their values \p Saved from
  /// before a region that writes exactly them (every other register holds
  /// the same value on both paths, so its symbolic value survives).
  void joinSaved(const std::vector<uint16_t> &Regs, const RegState &Saved,
                 RegState &R) {
    for (size_t I = 0; I < Regs.size(); ++I)
      R[Regs[I]] =
          SymVal::box(Ctx.range(R[Regs[I]]).join(Ctx.range(Saved[I])));
  }

  /// Walks [Begin, End) updating \p R. Control flow must fit the
  /// canonical shapes (see file comment).
  Status walkRegion(size_t Begin, size_t End, RegState &R) {
    size_t Pc = Begin;
    while (Pc < End) {
      const Instr &I = P.Code[Pc];
      switch (I.Op) {
      case Opcode::LoopNext:
        // Every LoopNext must be consumed as the tail of a guarded
        // serial-loop region; meeting one head-on is a stray back edge.
        return err(Pc, "unstructured back edge (LoopNext without a "
                       "matching loop guard)");
      case Opcode::JumpIfGeI: {
        if (I.Target <= 0)
          return err(Pc, "backward or self jump guard is not canonical");
        const size_t T = Pc + static_cast<size_t>(I.Target);
        if (T > End)
          return err(Pc, "jump escapes the enclosing loop region");
        if (Status S = walkGuardedRegion(Pc, T, R); !S.isOk())
          return S;
        Pc = T;
        continue;
      }
      case Opcode::ParallelFor: {
        if (Status S = walkParallel(Pc, End, R); !S.isOk())
          return S;
        Pc += 1 + P.Pars[static_cast<size_t>(I.Target)].BodyLen;
        continue;
      }
      default:
        if (Status S = step(Pc, R); !S.isOk())
          return S;
        ++Pc;
        continue;
      }
    }
    return Status::ok();
  }

  /// Handles the region [Guard+1, T) jumped over by the JumpIfGeI at
  /// \p Guard: a serial loop (ends in LoopNext), a guarded parallel nest
  /// (contains ParallelFor), or a plain forward branch.
  Status walkGuardedRegion(size_t Guard, size_t T, RegState &R) {
    const Instr &G = P.Code[Guard];

    // Serial loop: region tail is the LoopNext advancing the guard's var.
    if (T - 1 > Guard && P.Code[T - 1].Op == Opcode::LoopNext &&
        P.Code[T - 1].A == G.A)
      return walkSerialLoop(Guard, T, R);

    // Guarded parallel nest: entry hoists then ParallelFor whose body
    // extends exactly to the guard target.
    for (size_t Q = Guard + 1; Q < T; ++Q) {
      if (P.Code[Q].Op != Opcode::ParallelFor)
        continue;
      const ParDesc &D = P.Pars[static_cast<size_t>(P.Code[Q].Target)];
      if (Q + 1 + D.BodyLen == T) {
        // Entry hoists run in the submitting frame (guard taken = skip).
        const std::vector<uint16_t> Written = writtenRegs(Guard + 1, T);
        const RegState Taken = save(Written, R);
        if (Status S = walkRegion(Guard + 1, Q, R); !S.isOk())
          return S;
        if (Status S = walkParallel(Q, T, R); !S.isOk())
          return S;
        joinSaved(Written, Taken, R);
        return Status::ok();
      }
      break;
    }

    // Plain forward branch: analyze the region, then join with the
    // branch-taken state at the target.
    const std::vector<uint16_t> Written = writtenRegs(Guard + 1, T);
    const RegState Taken = save(Written, R);
    if (Status S = walkRegion(Guard + 1, T, R); !S.isOk())
      return S;
    joinSaved(Written, Taken, R);
    return Status::ok();
  }

  /// Serial loop [Guard .. T): Guard = JumpIfGeI var,end; entry block;
  /// TOP: body; induction AddImmI...; LoopNext var,step,end -> TOP.
  Status walkSerialLoop(size_t Guard, size_t T, RegState &R) {
    const Instr &G = P.Code[Guard];
    const Instr &LN = P.Code[T - 1];
    if (LN.Target >= 0)
      return err(T - 1, "loop back edge must jump backward");
    const int64_t TopSigned = static_cast<int64_t>(T - 1) + LN.Target;
    if (TopSigned <= static_cast<int64_t>(Guard) ||
        TopSigned >= static_cast<int64_t>(T - 1))
      return err(T - 1, "loop back edge target outside the loop region");
    const size_t Top = static_cast<size_t>(TopSigned);
    if (G.B != LN.C) {
      // Guard end register and back-edge end register must agree — the
      // executor would otherwise run the two exits against different
      // bounds. (Step register has no guard-side counterpart.)
      return err(T - 1, "loop guard and back edge disagree on the end "
                        "register");
    }

    // The loop bound registers must be loop-invariant for the analysis
    // (the builder holds them in registers no body instruction writes).
    const std::vector<uint16_t> BodyWrites = writtenRegs(Top, T - 1);
    const auto WritesReg = [&](uint16_t Reg) {
      for (uint16_t W : BodyWrites)
        if (W == Reg && Reg != G.A)
          return true;
      return false;
    };
    if (WritesReg(G.B) || WritesReg(LN.B))
      return err(Guard, "loop bound register is mutated inside the body");

    const SymVal BeginV = R[G.A]; // var was Mov'd from begin just before
    const SymVal EndV = R[G.B];
    const SymVal StepV = R[LN.B];
    const Interval BeginI = Ctx.range(BeginV);
    const Interval EndI = Ctx.range(EndV);
    const Interval StepI = Ctx.range(StepV);
    if (Status S = checkStep(T - 1, StepI); !S.isOk())
      return S;
    const Interval VarRange{BeginI.Lo, satAdd(EndI.Hi, -1)};

    // Definitely-zero-trip: the guard always jumps; nothing inside can
    // execute and the exit state is the entry state.
    if (BeginI.boundedBelow() && EndI.boundedAbove() && VarRange.empty())
      return Status::ok();

    // A loop that may run no trip skips its entry block too, so after the
    // loop the entry block's writes may still hold their pre-guard values.
    const bool MayRunNoTrip = Ctx.ub(Ctx.sub(BeginV, EndV)) >= 0;
    const std::vector<uint16_t> EntryWrites = writtenRegs(Guard + 1, Top);
    const RegState PreGuard = save(EntryWrites, R);

    // Entry block: runs with var == begin (and var < end, or it would
    // have been skipped).
    R[G.A] = BeginV.withBox(BeginI.meet(Interval{Interval::kMin, VarRange.Hi}));
    if (Status S = walkRegion(Guard + 1, Top, R); !S.isOk())
      return S;

    // Identify this loop's induction advances: the AddImmI run directly
    // before the LoopNext (AddImmI is only ever emitted there; inner
    // loops' advances sit before their own LoopNext).
    size_t IncrBegin = T - 1;
    while (IncrBegin > Top && P.Code[IncrBegin - 1].Op == Opcode::AddImmI)
      --IncrBegin;

    // Max increments any induction register sees before its last body
    // read: trips - 1.
    int64_t MaxIncr = Interval::kMax;
    if (StepI.isConst() && BeginI.boundedBelow() && EndI.boundedAbove()) {
      const int64_t Span = satAdd(EndI.Hi, -BeginI.Lo);
      MaxIncr = Span <= 0 ? 0 : (Span - 1) / StepI.Lo;
    }

    // The loop symbol carries its symbolic bounds v >= begin and
    // v <= end - 1 — min-shaped clamped ends enter the relational
    // domain here.
    const SymVal UpperV = Ctx.add(EndV, SymVal::constant(-1));
    const SymVal LoopV = Ctx.makeLoopSym(
        formatString("v%u", static_cast<unsigned>(G.A)), VarRange, &BeginV,
        &UpperV);

    // Widen the body-entry state: everything the body writes becomes
    // unknown, except the loop var (its symbol) and the induction
    // registers. A strength-reduced induction register advancing by Imm
    // per iteration is reconstructed exactly as
    //   entry + (Imm/step) * (var - begin)
    // when step is a constant dividing Imm (the builder emits
    // Imm = coeff*step); the interval widening entry + [0, MaxIncr]*Imm
    // is kept as the box either way. Every induction reads its entry
    // value before the widening overwrites any register.
    std::vector<std::pair<uint16_t, SymVal>> Inductions;
    for (size_t Pc = IncrBegin; Pc < T - 1; ++Pc) {
      const Instr &Adv = P.Code[Pc];
      const SymVal &Entry = R[Adv.A];
      const Interval WidenBox = intervalAdd(
          Ctx.range(Entry),
          intervalMul(Interval::constant(Adv.Imm), Interval{0, MaxIncr}));
      if (StepI.isConst() && Adv.Imm % StepI.Lo == 0) {
        const SymVal Sym = Ctx.add(
            Entry,
            Ctx.scale(Ctx.sub(LoopV, BeginV), Adv.Imm / StepI.Lo));
        Inductions.emplace_back(Adv.A, Sym.withBox(WidenBox));
      } else {
        Inductions.emplace_back(Adv.A, SymVal::box(WidenBox));
      }
    }
    for (uint16_t W : BodyWrites)
      R[W] = SymVal::top();
    R[G.A] = LoopV;
    for (auto &[Reg, V] : Inductions)
      R[Reg] = std::move(V);
    if (Status S = walkRegion(Top, IncrBegin, R); !S.isOk())
      return S;

    // Post-loop state: body-written registers (and the loop var) hold
    // iteration-dependent values.
    for (uint16_t W : BodyWrites)
      R[W] = SymVal::top();
    R[G.A] = SymVal::top();
    if (MayRunNoTrip)
      joinSaved(EntryWrites, PreGuard, R);
    return Status::ok();
  }

  /// ParallelFor at \p Pc: a multi-worker pool runs the body over frame
  /// copies, leaving the submitting frame unchanged, but a one-worker pool
  /// runs it on the submitting frame, which keeps the last iteration's
  /// writes. The body is walked in \p R with the registers it writes
  /// widened, and those are box-joined with their pre-nest values
  /// afterwards, covering both. The body walk also collects one abstract
  /// iteration's footprints and hands them to the static race checker.
  Status walkParallel(size_t Pc, size_t End, RegState &R) {
    const ParDesc &D = P.Pars[static_cast<size_t>(P.Code[Pc].Target)];
    const size_t BodyBegin = Pc + 1;
    const size_t BodyEnd = BodyBegin + D.BodyLen;
    if (BodyEnd > End)
      return err(Pc, "parallel body extends past the enclosing region");

    const Interval StepI = Ctx.range(R[D.StepReg]);
    if (Status S = checkStep(Pc, StepI); !S.isOk())
      return S;
    const Interval BeginI = Ctx.range(R[D.BeginReg]);
    const Interval EndI = Ctx.range(R[D.EndReg]);
    const Interval VarRange{BeginI.Lo, satAdd(EndI.Hi, -1)};
    if (BeginI.boundedBelow() && EndI.boundedAbove() && VarRange.empty())
      return Status::ok(); // definitely zero-trip (and guarded anyway)

    // The race analysis models exactly one level of parallelism (the
    // builder hoists guards and never nests ParallelFor); a nested
    // parallel loop would need a product iteration space.
    if (InParallel)
      return err(Pc, "nested parallel loop is outside the static race "
                     "analysis");

    const SymVal BeginV = R[D.BeginReg];
    const SymVal UpperV = Ctx.add(R[D.EndReg], SymVal::constant(-1));
    const int32_t Watermark = Ctx.numSyms();
    const SymVal LoopV = Ctx.makeLoopSym(
        formatString("p%u", static_cast<unsigned>(D.VarReg)), VarRange,
        &BeginV, &UpperV);

    std::vector<uint16_t> Written = writtenRegs(BodyBegin, BodyEnd);
    Written.push_back(D.VarReg);
    const RegState Submitting = save(Written, R);
    for (uint16_t W : Written)
      R[W] = SymVal::top();
    R[D.VarReg] = LoopV;

    std::vector<Footprint> FPs;
    std::vector<Footprint> *SavedCollect = Collect;
    Collect = &FPs;
    InParallel = true;
    Status WalkS = walkRegion(BodyBegin, BodyEnd, R);
    InParallel = false;
    Collect = SavedCollect;
    if (!WalkS.isOk())
      return WalkS;
    joinSaved(Written, Submitting, R);

    ParallelRaceQuery Q;
    Q.Var = Watermark; // the loop symbol is the first past the watermark
    Q.Watermark = Watermark;
    Q.Step = StepI.Lo;
    Q.FPs = std::move(FPs);
    Q.BufferElems = [this](int B) { return bufferElems(B); };
    Q.BufferName = [](int B) { return formatString("buffer %d", B); };
    Q.LoopDesc = formatString("%s: instr %zu", P.Name.c_str(), Pc);
    return checkParallelRaces(Ctx, Q);
  }
};

} // namespace

Status verifyProgram(const Program &P, const char *Context) {
  return ProgramVerifier(P, Context, /*Loaded=*/false).run();
}

Status verifyLoadedProgram(const Program &P, const char *Context) {
  // Deliberately ignores verifyLevel(): a Program deserialized from the
  // persistent artifact cache is untrusted input headed for the unchecked
  // dispatch loop, so the full verification — symbolic bounds and the
  // static race proof — runs even when GC_VERIFY=off, and an access it
  // cannot bound is rejected. Kernel calls must additionally have been
  // relinked.
  for (size_t I = 0; I < P.Calls.size(); ++I)
    if (!P.Calls[I].Fn)
      return Status::error(
          StatusCode::InvalidArgument,
          formatString("%s: call %zu has no relinked kernel pointer",
                       Context, I));
  return ProgramVerifier(P, Context, /*Loaded=*/true).run();
}

} // namespace verify
} // namespace gc
