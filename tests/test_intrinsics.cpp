//===- test_intrinsics.cpp - Intrinsic table contract tests ---------------===//
//
// The verifiers prove a kernel call safe from the footprint recipes in
// tir/intrinsics.h's table, so their soundness rests on each recipe
// covering every element its kernel touches. These tests give every
// buffer argument exactly the extent the verifiers derive from the recipe
// (verify::callFootprints), follow it with a sentinel, run the row's
// kernel adapter and check the sentinels survive. Under ASan the
// sentinels are also poisoned, so a read past a recipe fails too, as far
// as ASan sees the read: it does not instrument masked vector loads, the
// only way the AVX-512 brgemm panels read B, while the scalar tier
// (GC_KERNELS=scalar) reads everything with plain loads. EpilogueTile's
// footprints come from its step list; EpilogueDiff covers them.
//
//===----------------------------------------------------------------------===//

#include "exec/program.h"
#include "kernels/packing.h"
#include "support/rng.h"
#include "verify/relational.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define GC_POISON(P, N) ASAN_POISON_MEMORY_REGION(P, N)
#define GC_UNPOISON(P, N) ASAN_UNPOISON_MEMORY_REGION(P, N)
#else
#define GC_POISON(P, N) ((void)(P), (void)(N))
#define GC_UNPOISON(P, N) ((void)(P), (void)(N))
#endif

using namespace gc;
using tir::Intrinsic;

namespace {

constexpr size_t kSentinelBytes = 64;
constexpr uint8_t kSentinel = 0xA5;

/// One call of one row: its integer scalars S[...], the element size of
/// type-agnostic buffers and the size of a Whole-recipe buffer (a pack
/// destination).
struct Case {
  Intrinsic In = Intrinsic::BrgemmF32;
  std::vector<int64_t> S;
  int64_t ElemSize = 4;
  int64_t WholeElems = 0;
};

/// Calls with SIMD tails (Cols 1, 15, 17, 63, 65), leading dimensions
/// past Cols, brgemm batches with a K tail and ragged packs, per the
/// scalar layout the row declares. Brgemm also gets N = 64, a whole
/// number of vectors at every tier.
std::vector<Case> casesFor(Intrinsic In) {
  const std::string L = tir::intrinsicInfo(In).Scalars;
  std::vector<Case> Out;
  const auto Add = [&](std::vector<int64_t> S) -> Case & {
    Case C;
    C.In = In;
    C.S = std::move(S);
    Out.push_back(C);
    return Out.back();
  };
  if (L == "Rows Cols LdD LdS ElemSize") {
    for (int64_t Cols : {1, 15, 17, 63, 65})
      for (int64_t Pad : {0, 3})
        for (int64_t Rows : {1, 3})
          for (int64_t Elem : {1, 4})
            Add({Rows, Cols, Cols + Pad, Cols + 2 * Pad, Elem}).ElemSize = Elem;
  } else if (L == "A B C D ElemSize") {
    for (int64_t Elem : {1, 4}) {
      Add({2, 3, 5, 7, Elem}).ElemSize = Elem;
      Add({1, 2, 17, 3, Elem}).ElemSize = Elem;
    }
  } else if (L == "M N K Lda Ldb Ldc AStrideB BStrideB Batch InitC") {
    for (int64_t N : {15, 17, 64, 65})
      for (int64_t M : {1, 5})
        for (int64_t InitC : {0, 1}) {
          const int64_t K = 13, Lda = K + 2, Ldb = N + 1, Ldc = N + 3;
          Add({M, N, K, Lda, Ldb, Ldc, M * Lda + 1, K * Ldb + 2, 3, InitC});
        }
  } else if (L == "M N K Lda NPadded Ldc AStrideB BStrideB Batch InitC") {
    // The u8s8 kernels take K in multiples of 4: K = 36 leaves a tail
    // past every unrolled K step. With NPadded == N the B span is tight.
    for (int64_t N : {15, 17, 64, 65})
      for (int64_t M : {1, 5})
        for (int64_t InitC : {0, 1})
          for (int64_t NPad : {0, 1}) {
            const int64_t K = 36, Lda = K + 4, NPadded = N + NPad,
                          Ldc = N + 3;
            Add({M, N, K, Lda, NPadded, Ldc, M * Lda + 4, K * NPadded + 4, 2,
                 InitC});
          }
  } else if (L == "M K SrcLd MB KB Transposed") {
    for (int64_t Tr : {0, 1}) {
      const int64_t M = 5, K = 13, MB = 4, KB = 8;
      Add({M, K, (Tr ? M : K) + 3, MB, KB, Tr}).WholeElems =
          kernels::packedASize(M, K, MB, KB);
    }
  } else if (L == "K N SrcLd KB NB Transposed") {
    for (int64_t Tr : {0, 1}) {
      const int64_t K = 13, N = 17, KB = 8, NB = 16;
      Add({K, N, (Tr ? K : N) + 3, KB, NB, Tr}).WholeElems =
          kernels::packedBSize(K, N, KB, NB);
    }
  }
  return Out;
}

/// A buffer whose last data byte is followed by a poisoned sentinel.
struct Guarded {
  std::unique_ptr<uint8_t, decltype(&std::free)> Mem{nullptr, &std::free};
  size_t Bytes = 0;

  Guarded(size_t Bytes, Rng &R, tir::BufSpec Spec) : Bytes(Bytes) {
    const size_t Alloc = (Bytes + kSentinelBytes + 63) / 64 * 64;
    Mem.reset(static_cast<uint8_t *>(std::aligned_alloc(64, Alloc)));
    uint8_t *P = Mem.get();
    if (Spec.Ty == DataType::F32)
      for (size_t I = 0; I < Bytes / 4; ++I) {
        const float V = R.uniform(0.5f, 2.0f);
        std::memcpy(P + 4 * I, &V, 4);
      }
    else
      for (size_t I = 0; I < Bytes; ++I)
        P[I] = static_cast<uint8_t>(R.uniformInt(0, 255));
    std::memset(P + Bytes, kSentinel, kSentinelBytes);
    GC_POISON(P + Bytes, kSentinelBytes);
  }
  Guarded(Guarded &&) = default;
  ~Guarded() {
    if (Mem)
      GC_UNPOISON(Mem.get() + Bytes, kSentinelBytes);
  }

  bool sentinelIntact() {
    GC_UNPOISON(Mem.get() + Bytes, kSentinelBytes);
    const uint8_t *P = Mem.get() + Bytes;
    return std::all_of(P, P + kSentinelBytes,
                       [](uint8_t B) { return B == kSentinel; });
  }
};

/// Elements of each buffer argument the verifiers let \p C touch.
std::vector<int64_t> recipeExtents(const Case &C) {
  const tir::IntrinsicInfo &Row = tir::intrinsicInfo(C.In);
  verify::SymCtx Ctx;
  verify::KernelCall K;
  K.In = C.In;
  for (int64_t V : C.S)
    K.Scalars.push_back(verify::SymVal::constant(V));
  for (int I = 0; I < Row.NumBufs; ++I) {
    K.Bufs.push_back(I);
    K.Offs.push_back(verify::SymVal::constant(0));
  }
  std::vector<int64_t> Elems(Row.NumBufs, 0);
  for (const verify::Footprint &F : verify::callFootprints(Ctx, K)) {
    int64_t N = 0;
    switch (F.Sh) {
    case verify::Footprint::Shape::Whole:
      EXPECT_FALSE(F.Undecided) << F.Site;
      N = C.WholeElems;
      break;
    case verify::Footprint::Shape::Flat:
      N = Ctx.ub(F.Len);
      break;
    case verify::Footprint::Shape::Tile: {
      const int64_t Rows = Ctx.ub(F.Rows), Cols = Ctx.ub(F.Cols);
      N = Rows > 0 && Cols > 0 ? (Rows - 1) * F.Ld + Cols : 0;
      break;
    }
    }
    Elems[static_cast<size_t>(F.Buffer)] =
        std::max(Elems[static_cast<size_t>(F.Buffer)], N);
  }
  return Elems;
}

std::string describe(const Case &C) {
  std::string D = tir::intrinsicName(C.In);
  const char *Sep = " S=[";
  for (int64_t V : C.S) {
    D += Sep + std::to_string(V);
    Sep = ", ";
  }
  return D + "]";
}

TEST(IntrinsicTable, FootprintsCoverKernelAccesses) {
  Rng R(21);
  for (uint8_t Id = 0; Id < tir::kNumIntrinsics; ++Id) {
    const auto In = static_cast<Intrinsic>(Id);
    if (In == Intrinsic::EpilogueTile)
      continue;
    const tir::IntrinsicInfo &Row = tir::intrinsicInfo(In);
    const std::vector<Case> Cases = casesFor(In);
    ASSERT_FALSE(Cases.empty())
        << Row.Name << ": no cases for scalar layout \"" << Row.Scalars
        << "\"";
    for (const Case &C : Cases) {
      const std::vector<int64_t> Elems = recipeExtents(C);
      std::vector<Guarded> Bufs;
      Bufs.reserve(Row.NumBufs);
      void *Ptrs[exec::kMaxCallBufs + 1] = {};
      for (int I = 0; I < Row.NumBufs; ++I) {
        const tir::BufSpec &B = Row.Bufs[I];
        const int64_t Size =
            B.Ty == tir::kAnyType ? C.ElemSize : dataTypeSize(B.Ty);
        Bufs.emplace_back(static_cast<size_t>(Elems[I] * Size), R, B);
        Ptrs[I] = Bufs.back().Mem.get();
      }
      int64_t SI[12] = {};
      std::copy(C.S.begin(), C.S.end(), SI);
      // The executor passes no float scalars; no adapter may read them.
      exec::kernelAdapter(In)(Ptrs, SI, nullptr);
      for (int I = 0; I < Row.NumBufs; ++I)
        EXPECT_TRUE(Bufs[I].sentinelIntact())
            << describe(C) << ": wrote past the recipe of arg "
            << Row.Bufs[I].Name;
    }
  }
}

} // namespace
