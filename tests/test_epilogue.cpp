//===- test_epilogue.cpp - Fused epilogue tests --------------------------------===//
//
// The fused epilogue (kernels/epilogue.h) against its oracle, the per-op
// tile kernels of the same tier: random step lists over every step kind
// run once fused and once as the per-op TileOpsTable sequence the lowering
// used to emit, and every output byte (tails, reductions, zero-padded
// blocks, and the sentinel padding both must leave alone) has to match.
// Then the lowering (one call per anchor segment, and one per per-row
// vector op), the load-time rejection of malformed step lists, and the
// denormal flushing compiled partitions run under.
//
//===----------------------------------------------------------------------===//

#include "core/artifact.h"
#include "exec/program.h"
#include "graph/reference.h"
#include "kernels/epilogue.h"
#include "kernels/tile_ops.h"
#include "support/rng.h"
#include "support/serial.h"
#include "support/str.h"
#include "tir/stmt.h"
#include "workloads/bert.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <functional>

#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

using namespace gc;
using namespace gc::kernels;

namespace {

constexpr float kSentinel = -12345.5f;
constexpr uint8_t kByteSentinel = 0xA5;
constexpr int64_t kPad = 3; // Ld = Cols + kPad

/// The buffers one random step list reads and writes, laid out with
/// sentinel padding past every row and tile.
struct Buffers {
  int64_t Rows, Cols, Ld;
  std::vector<float> F32In, RowVec, ColVec, Scale;
  std::vector<int32_t> Acc, S32In, Comp;
  std::vector<uint8_t> U8In;
  // Outputs (compared between the two runs).
  std::vector<float> F32Out, BlockOut, RedSum, RedMax;
  std::vector<uint8_t> U8Out, S8Out;

  Buffers(int64_t Rows, int64_t Cols, uint64_t Seed)
      : Rows(Rows), Cols(Cols), Ld(Cols + kPad) {
    Rng R(Seed);
    const size_t Tile = static_cast<size_t>(Rows * Ld);
    F32In.resize(Tile);
    for (float &X : F32In)
      X = R.uniform(-2.0f, 2.0f);
    Acc.resize(Tile);
    for (int32_t &X : Acc)
      X = static_cast<int32_t>(R.uniformInt(-1000, 1000));
    S32In.resize(Tile);
    for (int32_t &X : S32In)
      X = static_cast<int32_t>(R.uniformInt(-500, 500));
    U8In.resize(Tile);
    for (uint8_t &X : U8In)
      X = static_cast<uint8_t>(R.uniformInt(0, 255));
    RowVec.resize(static_cast<size_t>(Cols));
    Scale.resize(static_cast<size_t>(Cols));
    Comp.resize(static_cast<size_t>(Cols));
    for (int64_t C = 0; C < Cols; ++C) {
      RowVec[static_cast<size_t>(C)] = R.uniform(-1.5f, 1.5f);
      Scale[static_cast<size_t>(C)] = R.uniform(0.0005f, 0.004f);
      Comp[static_cast<size_t>(C)] =
          static_cast<int32_t>(R.uniformInt(-50, 50));
    }
    ColVec.resize(static_cast<size_t>(Rows));
    for (float &X : ColVec)
      X = R.uniform(0.25f, 2.0f);
    F32Out.assign(Tile, kSentinel);
    BlockOut.assign(static_cast<size_t>((Rows + 2) * Ld), kSentinel);
    RedSum.resize(static_cast<size_t>(Rows));
    RedMax.resize(static_cast<size_t>(Rows));
    for (int64_t I = 0; I < Rows; ++I) {
      RedSum[static_cast<size_t>(I)] = R.uniform(-1.0f, 1.0f);
      RedMax[static_cast<size_t>(I)] = R.uniform(-1.0f, 1.0f);
    }
    U8Out.assign(Tile, kByteSentinel);
    S8Out.assign(Tile, kByteSentinel);
  }
};

/// Slot numbers of a generated step list.
enum Slot : uint8_t {
  SF32In, SAcc, SComp, SScale, SU8In, SS32In, SRowVec, SColVec, SRedSum,
  SRedMax, SF32Out, SBlockOut, SU8Out, SS8Out, NumSlotKinds
};

/// A random step list plus the slot each of its buffer arguments maps to.
struct Program {
  EpilogueDesc D;
  std::vector<Slot> SlotOf; // step-list slot -> buffer
};

/// Generates a random step list over every step kind: one or two sources,
/// a run of ops over live registers, optional reductions, then stores.
Program randomProgram(Rng &R, const Buffers &B) {
  Program P;
  const auto slot = [&](Slot S) {
    P.SlotOf.push_back(S);
    return static_cast<uint8_t>(P.SlotOf.size() - 1);
  };
  const auto add = [&](EpOp Op) -> EpStep & {
    P.D.Steps.emplace_back();
    P.D.Steps.back().Op = Op;
    return P.D.Steps.back();
  };
  std::vector<uint8_t> Live;
  const auto pick = [&] {
    return Live[static_cast<size_t>(
        R.uniformInt(0, static_cast<int64_t>(Live.size()) - 1))];
  };
  const auto dst = [&]() -> uint8_t {
    // Reuse a live register or take a fresh one.
    if (Live.size() < 4 && R.uniformInt(0, 2) == 0) {
      const uint8_t Fresh = static_cast<uint8_t>(Live.size());
      Live.push_back(Fresh);
      return Fresh;
    }
    return pick();
  };
  std::vector<EpOp> Sources = {EpOp::LoadF32, EpOp::LoadAcc, EpOp::LoadU8,
                               EpOp::LoadS32};
  const int NumSources = static_cast<int>(R.uniformInt(1, 2));
  for (int I = 0; I < NumSources; ++I) {
    const size_t Pick = static_cast<size_t>(
        R.uniformInt(0, static_cast<int64_t>(Sources.size()) - 1));
    const EpOp Op = Sources[Pick];
    Sources.erase(Sources.begin() + static_cast<std::ptrdiff_t>(Pick));
    const uint8_t D = static_cast<uint8_t>(Live.size());
    Live.push_back(D);
    EpStep &S = add(Op);
    S.Dst = D;
    S.Ld = B.Ld;
    switch (Op) {
    case EpOp::LoadF32: S.Arg = slot(SF32In); break;
    case EpOp::LoadAcc:
      S.Arg = slot(SAcc);
      S.Zp = R.uniformInt(0, 1) ? 3 : 0;
      if (S.Zp)
        S.Arg2 = slot(SComp);
      S.Arg3 = slot(SScale);
      break;
    case EpOp::LoadU8:
      S.Arg = slot(SU8In);
      S.Zp = static_cast<int32_t>(R.uniformInt(0, 200));
      S.F0 = 0.0125f;
      break;
    default:
      S.Arg = slot(SS32In);
      S.F0 = 0.004f;
      break;
    }
  }
  bool UsedRowVec = false, UsedColVec = false;
  const int NumOps = static_cast<int>(R.uniformInt(4, 12));
  for (int I = 0; I < NumOps; ++I) {
    const int64_t Kind = R.uniformInt(0, 9);
    if (Kind <= 2) {
      static const EpOp Unary[] = {EpOp::Relu, EpOp::Exp,    EpOp::Tanh,
                                   EpOp::Sqrt, EpOp::Recip,  EpOp::Square,
                                   EpOp::Sigmoid};
      const uint8_t A = pick();
      EpStep &S = add(Unary[R.uniformInt(0, 6)]);
      S.A = A;
      S.Dst = dst();
    } else if (Kind == 3) {
      const uint8_t A = pick();
      EpStep &S = add(EpOp::Affine);
      S.A = A;
      S.Dst = dst();
      S.F0 = R.uniform(-1.5f, 1.5f);
      S.F1 = R.uniform(-1.0f, 1.0f);
    } else if (Kind == 4) {
      // A requantization pair: the integer grid, then back to f32.
      const uint8_t A = pick();
      const bool Signed = R.uniformInt(0, 1) != 0;
      EpStep &Q = add(EpOp::Quant);
      Q.A = A;
      Q.Dst = dst();
      Q.Signed = Signed;
      Q.F0 = R.uniform(20.0f, 90.0f);
      Q.Zp = Signed ? 0 : static_cast<int32_t>(R.uniformInt(0, 255));
      const uint8_t QD = Q.Dst;
      const int32_t Zp = Q.Zp;
      EpStep &Dq = add(EpOp::Dequant);
      Dq.A = Dq.Dst = QD;
      Dq.Zp = Zp;
      Dq.F0 = R.uniform(0.01f, 0.05f);
    } else if (Kind <= 6) {
      const uint8_t A = pick(), Bv = pick();
      EpStep &S = add(static_cast<EpOp>(
          static_cast<uint8_t>(EpOp::Add) + R.uniformInt(0, 5)));
      S.A = A;
      S.B = Bv;
      S.Dst = dst();
    } else if (Kind == 7 && !UsedRowVec) {
      UsedRowVec = true;
      const uint8_t A = pick();
      static const EpOp Ops[] = {EpOp::Add, EpOp::Sub, EpOp::Mul};
      EpStep &S = add(Ops[R.uniformInt(0, 2)]);
      S.A = A;
      S.BKind = EpOperand::RowVec;
      S.Arg = slot(SRowVec);
      S.Dst = dst();
    } else if (Kind == 8 && !UsedColVec) {
      UsedColVec = true;
      const uint8_t A = pick();
      static const EpOp Ops[] = {EpOp::Add, EpOp::Sub, EpOp::Mul, EpOp::Mul};
      const int64_t Which = R.uniformInt(0, 3);
      EpStep &S = add(Ops[Which]);
      S.A = A;
      S.BKind = Which == 3 ? EpOperand::ColVecRecip : EpOperand::ColVec;
      S.Arg = slot(SColVec);
      S.Dst = dst();
    } else {
      // Unary fallback keeps the op count up.
      const uint8_t A = pick();
      EpStep &S = add(EpOp::Affine);
      S.A = A;
      S.Dst = A;
      S.F0 = 0.75f;
      S.F1 = 0.125f;
    }
  }
  if (R.uniformInt(0, 1)) {
    EpStep &S = add(EpOp::ReduceSum);
    S.A = pick();
    S.Arg = slot(SRedSum);
  }
  if (R.uniformInt(0, 1)) {
    EpStep &S = add(EpOp::ReduceMax);
    S.A = pick();
    S.Arg = slot(SRedMax);
  }
  {
    EpStep &S = add(EpOp::StoreF32);
    S.A = pick();
    S.Arg = slot(SF32Out);
    S.Ld = B.Ld;
  }
  {
    // A blocked store: the (Rows + 1) x (Cols + 2) block is zero-padded.
    EpStep &S = add(EpOp::StoreF32);
    S.A = pick();
    S.Arg = slot(SBlockOut);
    S.Ld = B.Ld;
    S.PadRows = B.Rows + 1;
    S.PadCols = B.Cols + 2;
  }
  {
    EpStep &S = add(EpOp::StoreU8);
    S.A = pick();
    S.Arg = slot(SU8Out);
    S.Ld = B.Ld;
    S.F0 = R.uniform(10.0f, 60.0f);
    S.Zp = static_cast<int32_t>(R.uniformInt(0, 255));
  }
  {
    EpStep &S = add(EpOp::StoreS8);
    S.A = pick();
    S.Arg = slot(SS8Out);
    S.Ld = B.Ld;
    S.F0 = R.uniform(10.0f, 60.0f);
  }
  P.D.NumBufs = static_cast<uint8_t>(P.SlotOf.size());
  return P;
}

void *bufferOf(Buffers &B, Slot S) {
  switch (S) {
  case SF32In: return B.F32In.data();
  case SAcc: return B.Acc.data();
  case SComp: return B.Comp.data();
  case SScale: return B.Scale.data();
  case SU8In: return B.U8In.data();
  case SS32In: return B.S32In.data();
  case SRowVec: return B.RowVec.data();
  case SColVec: return B.ColVec.data();
  case SRedSum: return B.RedSum.data();
  case SRedMax: return B.RedMax.data();
  case SF32Out: return B.F32Out.data();
  case SBlockOut: return B.BlockOut.data();
  case SU8Out: return B.U8Out.data();
  case SS8Out: return B.S8Out.data();
  case NumSlotKinds: break;
  }
  return nullptr;
}

/// The oracle: each step as the per-op TileOpsTable call(s) it replaces,
/// with every register a Rows x Cols f32 tile in memory.
void runPerOp(const TileOpsTable &T, const Program &P, Buffers &B,
              bool Accumulate) {
  const int64_t R = B.Rows, C = B.Cols, Ld = B.Ld;
  std::vector<std::vector<float>> Regs(
      kEpilogueMaxRegs, std::vector<float>(static_cast<size_t>(R * C)));
  std::vector<float> Tmp(static_cast<size_t>(R * C));
  std::vector<uint8_t> Bytes(static_cast<size_t>(R * C));
  const auto tile = [&](std::vector<float> &V) {
    return TileF32{V.data(), R, C, C};
  };
  const auto ptr = [&](uint8_t SlotIdx) {
    return bufferOf(B, P.SlotOf[SlotIdx]);
  };
  for (size_t I = 0; I < P.D.Steps.size(); ++I) {
    const EpStep &S = P.D.Steps[I];
    std::vector<float> &D = Regs[S.Dst];
    const auto fromA = [&] {
      copyTile(tile(Tmp), ConstTileF32{Regs[S.A].data(), C});
    };
    const auto toDst = [&] { copyTile(tile(D), ConstTileF32{Tmp.data(), C}); };
    switch (S.Op) {
    case EpOp::LoadF32:
      copyTile(tile(D), ConstTileF32{static_cast<float *>(ptr(S.Arg)), Ld});
      break;
    case EpOp::LoadAcc:
      T.DequantAcc(D.data(), C, static_cast<int32_t *>(ptr(S.Arg)), Ld, R, C,
                   S.Zp ? static_cast<int32_t *>(ptr(S.Arg2)) : nullptr,
                   S.Zp, static_cast<float *>(ptr(S.Arg3)));
      break;
    case EpOp::LoadU8:
      T.DequantU8(D.data(), C, static_cast<uint8_t *>(ptr(S.Arg)), Ld, R, C,
                  S.F0, S.Zp);
      break;
    case EpOp::LoadS32:
      T.CastS32F32(D.data(), C, static_cast<int32_t *>(ptr(S.Arg)), Ld, R, C,
                   S.F0);
      break;
    case EpOp::Relu: fromA(); T.Relu(tile(Tmp)); toDst(); break;
    case EpOp::Exp: fromA(); T.Exp(tile(Tmp)); toDst(); break;
    case EpOp::Tanh: fromA(); T.Tanh(tile(Tmp)); toDst(); break;
    case EpOp::Sqrt: fromA(); T.Sqrt(tile(Tmp)); toDst(); break;
    case EpOp::Recip: fromA(); T.Recip(tile(Tmp)); toDst(); break;
    case EpOp::Square: fromA(); T.Square(tile(Tmp)); toDst(); break;
    case EpOp::Sigmoid: fromA(); T.Sigmoid(tile(Tmp)); toDst(); break;
    case EpOp::Affine: fromA(); T.Affine(tile(Tmp), S.F0, S.F1); toDst(); break;
    case EpOp::Quant: {
      // The pair's bytes, as a mid-chain quantize stored them; the
      // following Dequant step reads them back.
      if (S.Signed)
        T.QuantizeS8(reinterpret_cast<int8_t *>(Bytes.data()), C,
                     Regs[S.A].data(), C, R, C, S.F0);
      else
        T.QuantizeU8(Bytes.data(), C, Regs[S.A].data(), C, R, C, S.F0, S.Zp);
      break;
    }
    case EpOp::Dequant: {
      const EpStep &Q = P.D.Steps[I - 1];
      if (Q.Signed) {
        const std::vector<float> Sc(static_cast<size_t>(C), S.F0);
        T.DequantS8PerChannel(D.data(), C,
                              reinterpret_cast<int8_t *>(Bytes.data()), C, R,
                              C, Sc.data());
      } else {
        T.DequantU8(D.data(), C, Bytes.data(), C, R, C, S.F0, S.Zp);
      }
      break;
    }
    case EpOp::Add:
    case EpOp::Sub:
    case EpOp::Mul:
    case EpOp::Div:
    case EpOp::Max:
    case EpOp::Min: {
      fromA();
      const float *V = S.BKind == EpOperand::Reg
                           ? nullptr
                           : static_cast<float *>(ptr(S.Arg));
      const ConstTileF32 Y{Regs[S.B].data(), C};
      switch (S.BKind) {
      case EpOperand::Reg: {
        using BinFn = void (*)(const TileF32 &, const ConstTileF32 &);
        const BinFn Fns[] = {T.Add, T.Sub, T.Mul, T.Div, T.Max, T.Min};
        Fns[static_cast<uint8_t>(S.Op) - static_cast<uint8_t>(EpOp::Add)](
            tile(Tmp), Y);
        break;
      }
      case EpOperand::RowVec:
        (S.Op == EpOp::Add   ? T.AddRowVec
         : S.Op == EpOp::Sub ? T.SubRowVec
                             : T.MulRowVec)(tile(Tmp), V);
        break;
      case EpOperand::ColVec:
        (S.Op == EpOp::Add   ? T.AddColVec
         : S.Op == EpOp::Sub ? T.SubColVec
                             : T.MulColVec)(tile(Tmp), V);
        break;
      case EpOperand::ColVecRecip:
        T.DivColVec(tile(Tmp), V);
        break;
      }
      toDst();
      break;
    }
    case EpOp::ReduceSum:
      T.ReduceSumRows(tile(Regs[S.A]), static_cast<float *>(ptr(S.Arg)),
                      Accumulate);
      break;
    case EpOp::ReduceMax:
      T.ReduceMaxRows(tile(Regs[S.A]), static_cast<float *>(ptr(S.Arg)),
                      Accumulate);
      break;
    case EpOp::StoreF32: {
      float *Out = static_cast<float *>(ptr(S.Arg));
      copyTile(TileF32{Out, R, C, S.Ld}, ConstTileF32{Regs[S.A].data(), C});
      for (int64_t Row = 0; Row < S.PadRows; ++Row)
        for (int64_t Col = Row < R ? C : 0; Col < S.PadCols; ++Col)
          Out[Row * S.Ld + Col] = 0.0f;
      break;
    }
    case EpOp::StoreU8:
      T.QuantizeU8(static_cast<uint8_t *>(ptr(S.Arg)), S.Ld,
                   Regs[S.A].data(), C, R, C, S.F0, S.Zp);
      break;
    case EpOp::StoreS8:
      T.QuantizeS8(static_cast<int8_t *>(ptr(S.Arg)), S.Ld, Regs[S.A].data(),
                   C, R, C, S.F0);
      break;
    }
  }
}

void runFused(const TileOpsTable &T, const Program &P, Buffers &B,
              bool Accumulate) {
  void *Ptrs[kEpilogueMaxBufs + 1] = {};
  for (size_t I = 0; I < P.SlotOf.size(); ++I)
    Ptrs[I] = bufferOf(B, P.SlotOf[I]);
  T.Epilogue(P.D, Ptrs, B.Rows, B.Cols, Accumulate);
}

template <typename E>
::testing::AssertionResult sameBytes(const std::vector<E> &A,
                                     const std::vector<E> &B,
                                     const char *What) {
  if (std::memcmp(A.data(), B.data(), A.size() * sizeof(E)) == 0)
    return ::testing::AssertionSuccess();
  for (size_t I = 0; I < A.size(); ++I)
    if (std::memcmp(&A[I], &B[I], sizeof(E)) != 0)
      return ::testing::AssertionFailure()
             << What << " differs first at element " << I << ": fused "
             << +A[I] << " vs per-op " << +B[I];
  return ::testing::AssertionFailure();
}

/// Runs \p Seeds random programs per (tier, Cols) fused and per-op and
/// compares every output byte.
void diffSweep(const std::vector<int64_t> &ColsList, int64_t Rows,
               int Seeds) {
  const KernelTier Tiers[] = {KernelTier::Scalar, KernelTier::Avx2,
                              KernelTier::Avx512};
  for (KernelTier Tier : Tiers) {
    const TileOpsTable *T = tileOpsTable(Tier);
    if (!T)
      continue;
    for (int64_t Cols : ColsList)
      for (int Seed = 0; Seed < Seeds; ++Seed) {
        Rng R(static_cast<uint64_t>(Seed * 131 + Cols));
        const Buffers Init(Rows, Cols, static_cast<uint64_t>(Seed + 7));
        const Program P = randomProgram(R, Init);
        std::vector<EpArgUse> Uses;
        std::string Why;
        ASSERT_TRUE(describeEpilogue(P.D, Uses, Why)) << Why;
        const bool Accumulate = Seed % 2 == 1;
        Buffers Fused = Init, PerOp = Init;
        runFused(*T, P, Fused, Accumulate);
        runPerOp(*T, P, PerOp, Accumulate);
        SCOPED_TRACE(::testing::Message()
                     << T->Name << " cols " << Cols << " seed " << Seed);
        EXPECT_TRUE(sameBytes(Fused.F32Out, PerOp.F32Out, "f32 store"));
        EXPECT_TRUE(sameBytes(Fused.BlockOut, PerOp.BlockOut, "blocked store"));
        EXPECT_TRUE(sameBytes(Fused.U8Out, PerOp.U8Out, "u8 store"));
        EXPECT_TRUE(sameBytes(Fused.S8Out, PerOp.S8Out, "s8 store"));
        EXPECT_TRUE(sameBytes(Fused.RedSum, PerOp.RedSum, "row sum"));
        EXPECT_TRUE(sameBytes(Fused.RedMax, PerOp.RedMax, "row max"));
        // The padding both must leave alone.
        for (int64_t Row = 0; Row < Rows; ++Row)
          for (int64_t C = Cols; C < Init.Ld; ++C) {
            const size_t At = static_cast<size_t>(Row * Init.Ld + C);
            ASSERT_EQ(Fused.F32Out[At], kSentinel);
            ASSERT_EQ(Fused.U8Out[At], kByteSentinel);
            ASSERT_EQ(Fused.S8Out[At], kByteSentinel);
          }
        for (size_t At = 0; At < Fused.BlockOut.size(); ++At) {
          const int64_t Row = static_cast<int64_t>(At) / Init.Ld;
          const int64_t Col = static_cast<int64_t>(At) % Init.Ld;
          if (Row >= Rows + 1 || Col >= Cols + 2) {
            ASSERT_EQ(Fused.BlockOut[At], kSentinel) << "outside the block";
          }
        }
      }
  }
}

TEST(EpilogueDiff, RandomStepListsMatchPerOpKernels) {
  diffSweep({1, 15, 17, 63, 65}, 7, 24);
  // One row: the shape of the per-row vector calls.
  diffSweep({1, 15, 17, 32, 33, 63, 65}, 1, 24);
}

TEST(EpilogueDiff, WideRowsSpanSeveralChunks) {
  // Rows wider than one register chunk carry their reductions across
  // column chunks.
  diffSweep({300, 1031}, 3, 6);
}

TEST(EpilogueDiff, RowReductionsOfNegativeRows) {
  // The scalar row max starts from the row's first element, the SIMD one
  // from -inf: all-negative rows (and a tail) tell a zero start apart.
  for (KernelTier Tier :
       {KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512}) {
    const TileOpsTable *T = tileOpsTable(Tier);
    if (!T)
      continue;
    for (int64_t Cols : {1, 17, 65})
      for (bool Accumulate : {false, true}) {
        Buffers Init(5, Cols, 3);
        for (float &X : Init.F32In)
          X = -1.0f - std::fabs(X);
        for (float &X : Init.RedMax)
          X = -5.0f;
        Program P;
        P.SlotOf = {SF32In, SRedMax, SRedSum};
        P.D.NumBufs = 3;
        P.D.Steps.resize(3);
        P.D.Steps[0].Op = EpOp::LoadF32;
        P.D.Steps[0].Ld = Init.Ld;
        P.D.Steps[1].Op = EpOp::ReduceMax;
        P.D.Steps[1].Arg = 1;
        P.D.Steps[2].Op = EpOp::ReduceSum;
        P.D.Steps[2].Arg = 2;
        Buffers Fused = Init, PerOp = Init;
        runFused(*T, P, Fused, Accumulate);
        runPerOp(*T, P, PerOp, Accumulate);
        SCOPED_TRACE(::testing::Message() << T->Name << " cols " << Cols);
        EXPECT_TRUE(sameBytes(Fused.RedMax, PerOp.RedMax, "row max"));
        EXPECT_TRUE(sameBytes(Fused.RedSum, PerOp.RedSum, "row sum"));
        for (float M : Fused.RedMax)
          EXPECT_LT(M, 0.0f);
      }
  }
}

TEST(EpilogueDiff, MalformedStepListsAreRejected) {
  EpilogueDesc Good;
  Good.NumBufs = 2;
  Good.Steps.resize(2);
  Good.Steps[0].Op = EpOp::LoadF32;
  Good.Steps[0].Arg = 0;
  Good.Steps[0].Ld = 8;
  Good.Steps[1].Op = EpOp::StoreF32;
  Good.Steps[1].Arg = 1;
  Good.Steps[1].Ld = 8;
  std::vector<EpArgUse> Uses;
  std::string Why;
  ASSERT_TRUE(describeEpilogue(Good, Uses, Why)) << Why;
  ASSERT_EQ(Uses.size(), 2u);
  EXPECT_FALSE(Uses[0].Write);
  EXPECT_TRUE(Uses[1].Write);

  const auto rejects = [&](const std::function<void(EpilogueDesc &)> &Break,
                           const char *Expect) {
    EpilogueDesc D = Good;
    Break(D);
    std::string Msg;
    EXPECT_FALSE(describeEpilogue(D, Uses, Msg)) << Expect;
    EXPECT_NE(Msg.find(Expect), std::string::npos) << Msg;
  };
  rejects([](EpilogueDesc &D) { D.Steps[0].Op = static_cast<EpOp>(200); },
          "invalid opcode");
  rejects([](EpilogueDesc &D) { D.Steps[1].Arg = 2; }, "slot");
  rejects([](EpilogueDesc &D) { D.Steps[1].Arg = 0; }, "slot");
  rejects([](EpilogueDesc &D) { D.Steps[0].Dst = kEpilogueMaxRegs; },
          "register index");
  rejects([](EpilogueDesc &D) { D.Steps[1].A = 1; }, "unwritten register");
  rejects([](EpilogueDesc &D) { D.NumBufs = 3; }, "named by no step");
  rejects([](EpilogueDesc &D) { D.Steps[0].Ld = 0; }, "leading dimension");
  rejects(
      [](EpilogueDesc &D) {
        D.Steps[1].Op = EpOp::Add;
        D.Steps[1].BKind = EpOperand::ColVecRecip;
      },
      "vector operand");
}

//===----------------------------------------------------------------------===//
// Lowering: one call per anchor segment
//===----------------------------------------------------------------------===//

/// Counts the calls of each post_anchor_seg loop in \p L, and the
/// EpilogueTile calls outside them: the per-row vector calls, each over a
/// 1 x ValidRows tile.
void collectSegments(const tir::StmtList &L, std::vector<int> &CallsPerSeg,
                     int &VecCalls) {
  for (const tir::Stmt &S : L) {
    switch (S->kind()) {
    case tir::StmtNode::Kind::For: {
      const auto &F = static_cast<const tir::ForNode &>(*S);
      if (F.Tag.rfind("post_anchor_seg", 0) == 0) {
        int Calls = 0;
        for (const tir::Stmt &B : F.Body)
          Calls += B->kind() == tir::StmtNode::Kind::Call;
        CallsPerSeg.push_back(Calls);
      } else {
        collectSegments(F.Body, CallsPerSeg, VecCalls);
      }
      break;
    }
    case tir::StmtNode::Kind::Seq:
      collectSegments(static_cast<const tir::SeqNode &>(*S).Body,
                      CallsPerSeg, VecCalls);
      break;
    case tir::StmtNode::Kind::Call: {
      const auto &C = static_cast<const tir::CallNode &>(*S);
      int64_t Rows = 0;
      if (C.In == tir::Intrinsic::EpilogueTile) {
        ++VecCalls;
        EXPECT_TRUE(tir::asConstInt(C.Scalars[0], Rows) && Rows == 1);
      }
      break;
    }
    default:
      break;
    }
  }
}

TEST(EpilogueLowering, BertInt8LayerHasOneCallPerSegment) {
  workloads::BertLayerSpec Spec;
  Spec.Batch = 2;
  Spec.SeqLen = 16;
  Spec.Hidden = 64;
  Spec.Heads = 4;
  Spec.FfnDim = 128;
  Spec.Int8 = true;
  core::CompileOptions Opts;
  Opts.FastSoftmax = false;
  // The test reads the Tensor IR body, which the artifact codec does not
  // store: a partition served from a warm disk cache has none.
  Opts.CacheMode = runtime::CacheMode::Off;
  auto P = test::compileOnePartition(workloads::buildBertLayer(Spec), Opts);
  std::vector<int> CallsPerSeg;
  int VecCalls = 0;
  collectSegments(P->entry().Body, CallsPerSeg, VecCalls);
  // QKV, scores + softmax (3 segments), context, output projection +
  // residual + layernorm (3), FFN1, FFN2 + layernorm (3), plus the
  // eltwise-only regions.
  ASSERT_GE(CallsPerSeg.size(), 12u);
  for (int Calls : CallsPerSeg)
    EXPECT_EQ(Calls, 1);
  // Each layernorm's row statistics between its segments: the mean and
  // variance scalings, + epsilon, sqrt and 1 / x, one call each.
  EXPECT_EQ(VecCalls, 2 * 5);
  // Every one of them is the fused epilogue.
  int Epilogues = 0;
  for (const exec::CallDesc &C : P->bytecode().Calls)
    Epilogues += C.In == tir::Intrinsic::EpilogueTile;
  EXPECT_EQ(Epilogues, static_cast<int>(CallsPerSeg.size()) + VecCalls);
}

TEST(EpilogueLowering, WideRegionsSplitIntoCallsThatFit) {
  // Fourteen external tiles and ten products live at once overflow one
  // call's slots and registers: the region splits into several segments,
  // spilling live values to strips, and still matches the reference.
  const int64_t M = 19, N = 33;
  graph::Graph G;
  std::vector<int64_t> Ins;
  for (int I = 0; I < 14; ++I) {
    Ins.push_back(G.addTensor(DataType::F32, {M, N}, "in"));
    G.markInput(Ins.back());
  }
  std::vector<int64_t> Products;
  for (int I = 1; I <= 10; ++I)
    Products.push_back(G.addOp(graph::OpKind::Mul, {Ins[0], Ins[I]},
                               DataType::F32, {M, N}));
  int64_t Acc = G.addOp(graph::OpKind::Add, {Ins[11], Ins[12]}, DataType::F32,
                        {M, N});
  for (int64_t P : Products)
    Acc = G.addOp(graph::OpKind::Add, {Acc, P}, DataType::F32, {M, N});
  Acc = G.addOp(graph::OpKind::Sub, {Ins[13], Acc}, DataType::F32, {M, N});
  G.markOutput(Acc);

  std::vector<runtime::TensorData> Data;
  graph::TensorMap Env;
  for (size_t I = 0; I < Ins.size(); ++I) {
    Data.push_back(test::randomTensor(DataType::F32, {M, N}, 40 + I));
    Env[Ins[I]] = Data.back().clone();
  }
  const auto Want = graph::runGraphReference(G, std::move(Env));
  auto P = test::compileOnePartition(G);
  int Epilogues = 0;
  for (const exec::CallDesc &C : P->bytecode().Calls)
    Epilogues += C.In == tir::Intrinsic::EpilogueTile;
  EXPECT_GT(Epilogues, 1);
  std::vector<runtime::TensorData *> InPtrs;
  for (auto &D : Data)
    InPtrs.push_back(&D);
  runtime::TensorData Out(DataType::F32, {M, N});
  ASSERT_TRUE(P->execute(InPtrs, {&Out}).isOk());
  const float *Got = Out.dataAs<float>();
  const float *Ref = Want[0].dataAs<float>();
  for (int64_t I = 0; I < M * N; ++I)
    ASSERT_NEAR(Got[I], Ref[I], 1e-4) << "element " << I;
}

/// The per-row vector op graphs: x [70, 33] is two row strips, the
/// second ragged, and each graph builds one vector op from x's row sums.
constexpr int64_t kVecRows = 70, kVecCols = 33;

int64_t vecOp(graph::Graph &G, graph::OpKind K, std::vector<int64_t> Ins,
              graph::AttrMap Attrs = {}) {
  return G.addOp(K, std::move(Ins), DataType::F32, {kVecRows, 1},
                 std::move(Attrs));
}

/// rowsum(x), signed.
int64_t signedSum(graph::Graph &G, int64_t X) {
  return vecOp(G, graph::OpKind::ReduceSum, {X},
               {{"axes", std::vector<int64_t>{-1}},
                {"keep_dims", int64_t(1)}});
}

/// rowsum(x * x), positive.
int64_t positiveSum(graph::Graph &G, int64_t X) {
  const int64_t Sq = G.addOp(graph::OpKind::Square, {X}, DataType::F32,
                             {kVecRows, kVecCols});
  return signedSum(G, Sq);
}

struct VecCase {
  std::string Name;
  graph::Graph G;
};

/// One graph per kind of per-row vector op: the vector op \p Build
/// makes from x, carried back into a strip as x * v or, with \p VecOnly,
/// stored as the graph's only output. Then a layernorm, and row norms of
/// a batched matmul.
std::vector<VecCase> rowVectorGraphs() {
  using graph::OpKind;
  std::vector<VecCase> Cases;
  const auto add = [&](std::string Name,
                       const std::function<int64_t(graph::Graph &, int64_t)>
                           &Build,
                       bool VecOnly = false) {
    graph::Graph G;
    const int64_t X = G.addTensor(DataType::F32, {kVecRows, kVecCols}, "x");
    G.markInput(X);
    const int64_t V = Build(G, X);
    G.markOutput(VecOnly ? V
                         : G.addOp(OpKind::Mul, {X, V}, DataType::F32,
                                   {kVecRows, kVecCols}));
    Cases.push_back({std::move(Name), std::move(G)});
  };
  for (OpKind K : {OpKind::ReLU, OpKind::Exp, OpKind::Tanh, OpKind::Sqrt,
                   OpKind::Reciprocal, OpKind::Square, OpKind::Sigmoid})
    add(graph::opKindName(K), [K](graph::Graph &G, int64_t X) {
      const bool Positive = K == OpKind::Sqrt || K == OpKind::Reciprocal;
      return vecOp(G, K, {Positive ? positiveSum(G, X) : signedSum(G, X)});
    });
  for (OpKind K : {OpKind::Add, OpKind::Mul, OpKind::Sub, OpKind::Div})
    for (bool VecFirst : {true, false})
      add(std::string("scalar ") + graph::opKindName(K) +
              (VecFirst ? ", vector first" : ", scalar first"),
          [K, VecFirst](graph::Graph &G, int64_t X) {
            const int64_t C = G.addTensor(DataType::F32, {1}, "c",
                                          graph::TensorProperty::Constant);
            runtime::TensorData Data(DataType::F32, {1});
            Data.dataAs<float>()[0] = 1.5f;
            G.setConstantData(C, std::move(Data));
            const int64_t Q = positiveSum(G, X);
            return vecOp(G, K, VecFirst ? std::vector<int64_t>{Q, C}
                                        : std::vector<int64_t>{C, Q});
          });
  for (OpKind K : {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div,
                   OpKind::Max, OpKind::Min})
    add(std::string("vector ") + graph::opKindName(K),
        [K](graph::Graph &G, int64_t X) {
          return vecOp(G, K, {signedSum(G, X), positiveSum(G, X)});
        });
  add("vector read twice", [](graph::Graph &G, int64_t X) {
    const int64_t S = signedSum(G, X);
    return vecOp(G, OpKind::Mul, {S, vecOp(G, OpKind::Exp, {S})});
  });
  add("external [M, 1] operand", [](graph::Graph &G, int64_t X) {
    const int64_t E = G.addTensor(DataType::F32, {kVecRows, 1}, "e");
    G.markInput(E);
    const int64_t D = vecOp(G, OpKind::Sub, {E, signedSum(G, X)});
    return vecOp(G, OpKind::Mul, {D, E});
  });
  add("reduction vector output", signedSum, /*VecOnly=*/true);
  add("vector op output",
      [](graph::Graph &G, int64_t X) {
        return vecOp(G, OpKind::Sqrt, {positiveSum(G, X)});
      },
      /*VecOnly=*/true);
  {
    graph::Graph G;
    const int64_t X = G.addTensor(DataType::F32, {kVecRows, kVecCols}, "x");
    const int64_t Gamma = G.addTensor(DataType::F32, {kVecCols}, "g");
    const int64_t Beta = G.addTensor(DataType::F32, {kVecCols}, "b");
    G.markInput(X);
    G.markInput(Gamma);
    G.markInput(Beta);
    G.markOutput(G.addOp(graph::OpKind::LayerNorm, {X, Gamma, Beta},
                         DataType::F32, {kVecRows, kVecCols},
                         {{"epsilon", 1e-5}}));
    Cases.push_back({"layernorm", std::move(G)});
  }
  {
    // The matmul template with a batch dim: the vector output of each
    // strip lands at its batch item's rows.
    graph::Graph G;
    const int64_t X = G.addTensor(DataType::F32, {2, 35, 24}, "x");
    const int64_t W = G.addTensor(DataType::F32, {24, kVecCols}, "w",
                                  graph::TensorProperty::Constant);
    G.setConstantData(W, test::randomTensor(DataType::F32, {24, kVecCols}, 9));
    G.markInput(X);
    const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32,
                               {2, 35, kVecCols});
    const int64_t Sq =
        G.addOp(OpKind::Square, {Mm}, DataType::F32, {2, 35, kVecCols});
    const int64_t Q = G.addOp(OpKind::ReduceSum, {Sq}, DataType::F32,
                              {2, 35, 1},
                              {{"axes", std::vector<int64_t>{-1}},
                               {"keep_dims", int64_t(1)}});
    G.markOutput(G.addOp(OpKind::Sqrt, {Q}, DataType::F32, {2, 35, 1}));
    Cases.push_back({"batched matmul row norms", std::move(G)});
  }
  return Cases;
}

TEST(EpilogueLowering, RowVectorOpsAreEpilogueCalls) {
  for (const VecCase &C : rowVectorGraphs()) {
    SCOPED_TRACE(C.Name);
    std::vector<runtime::TensorData> Inputs;
    std::vector<runtime::TensorData *> InPtrs;
    graph::TensorMap Env;
    for (int64_t In : C.G.inputs()) {
      Inputs.push_back(test::randomTensor(DataType::F32, C.G.tensor(In).Shape,
                                          60 + Inputs.size()));
      Env[In] = Inputs.back().clone();
    }
    for (runtime::TensorData &T : Inputs)
      InPtrs.push_back(&T);
    const auto Want = graph::runGraphReference(C.G, std::move(Env));
    for (int Threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << Threads << " threads");
      core::CompileOptions Opts;
      Opts.Threads = Threads;
      auto P = test::compileOnePartition(C.G, Opts);
      // Every post-op is an epilogue step; the rest is the matmul
      // template's brgemm and packs.
      for (const exec::CallDesc &Call : P->bytecode().Calls)
        EXPECT_TRUE(Call.In == tir::Intrinsic::EpilogueTile ||
                    Call.In == tir::Intrinsic::BrgemmF32 ||
                    Call.In == tir::Intrinsic::PackAF32 ||
                    Call.In == tir::Intrinsic::PackBF32)
            << tir::intrinsicName(Call.In);
      runtime::TensorData Out(DataType::F32, Want[0].shape());
      ASSERT_TRUE(P->execute(InPtrs, {&Out}).isOk());
      const float *Got = Out.dataAs<float>();
      const float *Ref = Want[0].dataAs<float>();
      for (int64_t I = 0; I < Out.numElements(); ++I)
        ASSERT_NEAR(Got[I], Ref[I], 1e-4 * std::max(1.0f, std::fabs(Ref[I])))
            << "element " << I;
    }
  }
}

TEST(EpilogueLowering, RuntimeScalarOperandFallsBackToReference) {
  // x[8,16] * s[1] with s a runtime input, in either operand order: a
  // single element that is neither a row nor a column vector of the
  // output has no epilogue operand form, so the region is Unsupported and
  // the session runs it on the reference interpreter instead of
  // computing with a zero. A per-batch scalar [2,1,1] against x[2,8,16]
  // takes the same exit, which used to abort the process.
  struct Case {
    std::vector<int64_t> XShape, SShape;
    bool ScalarFirst;
  };
  for (const Case &C : {Case{{8, 16}, {1}, false}, Case{{8, 16}, {1}, true},
                        Case{{2, 8, 16}, {2, 1, 1}, false}}) {
    SCOPED_TRACE(::testing::Message()
                 << shapeToString(C.XShape) << " x " << shapeToString(C.SShape)
                 << (C.ScalarFirst ? ", scalar first" : ""));
    graph::Graph G;
    const int64_t X = G.addTensor(DataType::F32, C.XShape, "x");
    const int64_t S = G.addTensor(DataType::F32, C.SShape, "s");
    G.markInput(X);
    G.markInput(S);
    const std::vector<int64_t> Ins =
        C.ScalarFirst ? std::vector<int64_t>{S, X} : std::vector<int64_t>{X, S};
    G.markOutput(G.addOp(graph::OpKind::Mul, Ins, DataType::F32, C.XShape));

    runtime::TensorData XV = test::randomTensor(DataType::F32, C.XShape, 7);
    runtime::TensorData SV = test::randomTensor(DataType::F32, C.SShape, 8);
    graph::TensorMap Env;
    Env[X] = XV.clone();
    Env[S] = SV.clone();
    const auto Want = graph::runGraphReference(G, std::move(Env));

    api::Session Sess;
    Expected<api::CompiledGraphPtr> CG = Sess.compile(G);
    ASSERT_TRUE(CG.hasValue()) << CG.status().toString();
    EXPECT_EQ((*CG)->numPartitions(), 1u);
    EXPECT_EQ((*CG)->numFallbackPartitions(), 1u);
    runtime::TensorData Out(DataType::F32, C.XShape);
    ASSERT_TRUE(Sess.stream().execute(**CG, {&XV, &SV}, {&Out}).isOk());
    const float *Got = Out.dataAs<float>();
    const float *Ref = Want[0].dataAs<float>();
    for (int64_t I = 0; I < Out.numElements(); ++I)
      ASSERT_EQ(Got[I], Ref[I]) << "element " << I;
  }
}

//===----------------------------------------------------------------------===//
// Artifact load: malformed step lists are rejected
//===----------------------------------------------------------------------===//

TEST(EpilogueCodec, MalformedStepListRejectedAtLoad) {
  graph::Graph G;
  const int64_t X = G.addTensor(DataType::F32, {8, 16}, "x");
  G.markInput(X);
  const int64_t W = G.addTensor(DataType::F32, {16, 8}, "w",
                                graph::TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {16, 8}, 3));
  const int64_t Mm =
      G.addOp(graph::OpKind::MatMul, {X, W}, DataType::F32, {8, 8});
  const int64_t Out =
      G.addOp(graph::OpKind::ReLU, {Mm}, DataType::F32, {8, 8});
  G.markOutput(Out);
  core::CompileOptions Opts;
  Opts.CacheMode = runtime::CacheMode::Off;
  auto P = test::compileOnePartition(G, Opts);
  const std::vector<uint8_t> Payload = core::ArtifactCodec::serialize(*P);
  const exec::CallDesc *Epi = nullptr;
  for (const exec::CallDesc &C : P->bytecode().Calls)
    if (C.In == tir::Intrinsic::EpilogueTile)
      Epi = &C;
  ASSERT_NE(Epi, nullptr);
  // The step count and the first step's bytes, as writeSteps lays them
  // out: op, operand kind, dst, a, b, arg, ...
  const EpStep &S0 = Epi->Epilogue->Steps[0];
  ASSERT_EQ(S0.Op, EpOp::LoadF32);
  ByteWriter W8;
  W8.u8(static_cast<uint8_t>(Epi->Epilogue->Steps.size()));
  W8.u8(static_cast<uint8_t>(S0.Op));
  W8.u8(static_cast<uint8_t>(S0.BKind));
  W8.u8(S0.Dst);
  W8.u8(S0.A);
  W8.u8(S0.B);
  W8.u8(S0.Arg);
  W8.u8(S0.Arg2);
  W8.u8(S0.Arg3);
  W8.u8(S0.Signed ? 1 : 0);
  W8.i32(S0.Zp);
  W8.i64(S0.Ld);
  W8.i64(S0.PadRows);
  W8.i64(S0.PadCols);
  const auto At = std::search(Payload.begin(), Payload.end(),
                              W8.bytes().begin(), W8.bytes().end());
  ASSERT_NE(At, Payload.end());
  const size_t Base = static_cast<size_t>(At - Payload.begin());
  const auto rejected = [&](size_t Offset, uint8_t Value, const char *Why) {
    auto T = std::make_shared<std::vector<uint8_t>>(Payload);
    (*T)[Base + Offset] = Value;
    auto R = core::ArtifactCodec::deserialize(T->data(), T->size(), T,
                                              core::globalThreadPool());
    ASSERT_FALSE(R.hasValue()) << Why;
    EXPECT_NE(R.status().message().find("epilogue step list"),
              std::string::npos)
        << Why << ": " << R.status().toString();
  };
  rejected(1, 250, "bad opcode");
  rejected(3, kEpilogueMaxRegs, "bad register index");
  rejected(6, kEpilogueMaxBufs, "bad slot");
  // The untouched payload still loads.
  auto T = std::make_shared<std::vector<uint8_t>>(Payload);
  EXPECT_TRUE(core::ArtifactCodec::deserialize(T->data(), T->size(), T,
                                               core::globalThreadPool())
                  .hasValue());
}

//===----------------------------------------------------------------------===//
// Denormal flushing: compiled partitions run with FTZ/DAZ, callers keep
// their own mode
//===----------------------------------------------------------------------===//

/// A stable softmax over rows whose logits span 95: exp(x - rowmax)
/// underflows below -87.3.
graph::Graph softmaxGraph(int64_t Rows, int64_t Cols) {
  graph::Graph G;
  const int64_t X = G.addTensor(DataType::F32, {Rows, Cols}, "logits");
  G.markInput(X);
  const int64_t Y = G.addOp(graph::OpKind::Softmax, {X}, DataType::F32,
                            {Rows, Cols}, {{"axis", int64_t{-1}}});
  G.markOutput(Y);
  return G;
}

runtime::TensorData wideLogits(int64_t Rows, int64_t Cols) {
  runtime::TensorData X(DataType::F32, {Rows, Cols});
  Rng R(5);
  float *P = X.dataAs<float>();
  for (int64_t Row = 0; Row < Rows; ++Row)
    for (int64_t C = 0; C < Cols; ++C)
      P[Row * Cols + C] = -95.0f * static_cast<float>(C) /
                              static_cast<float>(Cols - 1) +
                          R.uniform(-0.5f, 0.5f);
  return X;
}

TEST(DenormalFlush, SoftmaxUnderflowIsExactZeroAtAnyThreadCount) {
  const int64_t Rows = 37, Cols = 96;
  const graph::Graph G = softmaxGraph(Rows, Cols);
  runtime::TensorData In = wideLogits(Rows, Cols);
  graph::TensorMap Env;
  Env[G.inputs()[0]] = In.clone();
  const auto Want = graph::runGraphReference(G, std::move(Env));
  std::vector<runtime::TensorData> Outs;
  for (int Threads : {1, 4}) {
    core::CompileOptions Opts;
    Opts.Threads = Threads;
    Opts.FastSoftmax = false;
    auto P = test::compileOnePartition(G, Opts);
    Outs.emplace_back(DataType::F32, std::vector<int64_t>{Rows, Cols});
    ASSERT_TRUE(P->execute({&In}, {&Outs.back()}).isOk());
  }
  const float *Ref = Want[0].dataAs<float>();
  const float *Got = Outs[0].dataAs<float>();
  int Flushed = 0;
  for (int64_t I = 0; I < Rows * Cols; ++I) {
    if (Ref[I] < FLT_MIN) {
      ASSERT_EQ(Got[I], 0.0f) << "element " << I << " reference " << Ref[I];
      ++Flushed;
    } else {
      ASSERT_NEAR(Got[I], Ref[I], 1e-6 + 1e-5 * Ref[I]) << "element " << I;
    }
  }
  EXPECT_GT(Flushed, 0) << "the logits must underflow somewhere";
  EXPECT_EQ(std::memcmp(Outs[0].data(), Outs[1].data(),
                        static_cast<size_t>(Outs[0].numBytes())),
            0)
      << "1- and 4-thread outputs differ";
}

TEST(DenormalFlush, DefaultSoftmaxMatchesReferenceBelowExpUnderflow) {
  // Every logit lies in [-100, -95], below exp's underflow at about -87:
  // the fast form's exp(x) flushes to 0 and divides 0/0, so default
  // options must compile the stable form.
  const int64_t Rows = 16, Cols = 32;
  const graph::Graph G = softmaxGraph(Rows, Cols);
  runtime::TensorData In(DataType::F32, {Rows, Cols});
  Rng R(9);
  float *P = In.dataAs<float>();
  for (int64_t I = 0; I < Rows * Cols; ++I)
    P[I] = R.uniform(-100.0f, -95.0f);
  graph::TensorMap Env;
  Env[G.inputs()[0]] = In.clone();
  const auto Want = graph::runGraphReference(G, std::move(Env));
  const float *Ref = Want[0].dataAs<float>();
  for (int Threads : {1, 4}) {
    core::CompileOptions Opts;
    Opts.Threads = Threads;
    auto Part = test::compileOnePartition(G, Opts);
    runtime::TensorData Out(DataType::F32, {Rows, Cols});
    ASSERT_TRUE(Part->execute({&In}, {&Out}).isOk());
    const float *Got = Out.dataAs<float>();
    for (int64_t I = 0; I < Rows * Cols; ++I)
      ASSERT_NEAR(Got[I], Ref[I], 1e-6 + 1e-5 * Ref[I])
          << "threads " << Threads << " element " << I;
  }
}

TEST(DenormalFlush, DefaultSoftmaxMatchesReferenceAboveExpClamp) {
  // Every logit lies in [89, 200], above vexp's clamp at 89, where exp(x)
  // is +inf: the fast form divides inf by inf, so default options must
  // compile the stable form, whose exp(x - max) stays within [0, 1].
  const int64_t Rows = 16, Cols = 33;
  const graph::Graph G = softmaxGraph(Rows, Cols);
  runtime::TensorData In(DataType::F32, {Rows, Cols});
  Rng R(11);
  float *P = In.dataAs<float>();
  for (int64_t I = 0; I < Rows * Cols; ++I)
    P[I] = R.uniform(89.0f, 200.0f);
  graph::TensorMap Env;
  Env[G.inputs()[0]] = In.clone();
  const auto Want = graph::runGraphReference(G, std::move(Env));
  const float *Ref = Want[0].dataAs<float>();
  for (int Threads : {1, 4}) {
    core::CompileOptions Opts;
    Opts.Threads = Threads;
    auto Part = test::compileOnePartition(G, Opts);
    runtime::TensorData Out(DataType::F32, {Rows, Cols});
    ASSERT_TRUE(Part->execute({&In}, {&Out}).isOk());
    const float *Got = Out.dataAs<float>();
    for (int64_t I = 0; I < Rows * Cols; ++I)
      ASSERT_NEAR(Got[I], Ref[I], 1e-6 + 1e-5 * Ref[I])
          << "threads " << Threads << " element " << I;
  }
}

#if defined(__x86_64__) || defined(__i386__)
TEST(DenormalFlush, CallerMxcsrIsUnchangedByExecute) {
  // The mode bits (flush, rounding, exception masks) are the caller's
  // again after execute; the six sticky exception flags (bits 0-5) are
  // left out because host-side float work may raise them.
  constexpr unsigned kModeBits = ~0x3Fu;
  const graph::Graph G = softmaxGraph(8, 40);
  runtime::TensorData In = wideLogits(8, 40);
  runtime::TensorData Out(DataType::F32, {8, 40});
  for (int Threads : {1, 4}) {
    core::CompileOptions Opts;
    Opts.Threads = Threads;
    auto P = test::compileOnePartition(G, Opts);
    const unsigned Saved = _mm_getcsr();
    for (unsigned Mode : {Saved & ~0x8040u, Saved | 0x8040u}) {
      _mm_setcsr(Mode);
      ASSERT_TRUE(P->execute({&In}, {&Out}).isOk());
      const unsigned After = _mm_getcsr();
      _mm_setcsr(Saved);
      EXPECT_EQ(After & kModeBits, Mode & kModeBits)
          << "threads " << Threads;
    }
  }
}
#endif

} // namespace
