//===- test_utils.h - Shared test helpers -----------------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the test suite: deterministic tensor filling, naive
/// matrix products used as local oracles, tolerance constants, a
/// one-call runner for hand-built Tensor IR, and the one-partition
/// compile that tests inspecting a CompiledPartition go through.
///
//===----------------------------------------------------------------------===//

#ifndef GC_TESTS_TEST_UTILS_H
#define GC_TESTS_TEST_UTILS_H

#include "api/session.h"
#include "exec/executor.h"
#include "runtime/tensor_data.h"
#include "runtime/thread_pool.h"
#include "support/common.h"
#include "support/rng.h"
#include "tir/function.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

namespace gc {
namespace test {

/// Tolerance for f32 kernel-vs-reference comparisons.
inline constexpr double kF32Tol = 1e-4;
/// Looser tolerance for long accumulation chains / transcendental chains.
inline constexpr double kF32LooseTol = 5e-3;

/// Deterministic f32 vector in [-1, 1).
inline std::vector<float> randomF32(int64_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> V(static_cast<size_t>(N));
  for (float &X : V)
    X = R.uniform(-1.0f, 1.0f);
  return V;
}

/// Deterministic u8 vector.
inline std::vector<uint8_t> randomU8(int64_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<uint8_t> V(static_cast<size_t>(N));
  for (uint8_t &X : V)
    X = static_cast<uint8_t>(R.uniformInt(0, 255));
  return V;
}

/// Deterministic s8 vector.
inline std::vector<int8_t> randomS8(int64_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<int8_t> V(static_cast<size_t>(N));
  for (int8_t &X : V)
    X = static_cast<int8_t>(R.uniformInt(-128, 127));
  return V;
}

/// Plain row-major f32 GEMM oracle: C = A[MxK] * B[KxN].
inline std::vector<float> naiveGemmF32(const std::vector<float> &A,
                                       const std::vector<float> &B,
                                       int64_t M, int64_t N, int64_t K) {
  std::vector<float> C(static_cast<size_t>(M * N), 0.0f);
  for (int64_t MI = 0; MI < M; ++MI)
    for (int64_t KI = 0; KI < K; ++KI) {
      const float AV = A[static_cast<size_t>(MI * K + KI)];
      for (int64_t NI = 0; NI < N; ++NI)
        C[static_cast<size_t>(MI * N + NI)] +=
            AV * B[static_cast<size_t>(KI * N + NI)];
    }
  return C;
}

/// Plain row-major u8*s8 GEMM oracle: C_s32 = A[MxK] * B[KxN].
inline std::vector<int32_t> naiveGemmU8S8(const std::vector<uint8_t> &A,
                                          const std::vector<int8_t> &B,
                                          int64_t M, int64_t N, int64_t K) {
  std::vector<int32_t> C(static_cast<size_t>(M * N), 0);
  for (int64_t MI = 0; MI < M; ++MI)
    for (int64_t KI = 0; KI < K; ++KI) {
      const int32_t AV = A[static_cast<size_t>(MI * K + KI)];
      for (int64_t NI = 0; NI < N; ++NI)
        C[static_cast<size_t>(MI * N + NI)] +=
            AV * static_cast<int32_t>(B[static_cast<size_t>(KI * N + NI)]);
    }
  return C;
}

/// Per-element B-format packer: the layout contract of kernels/packing.h
/// spelled out one element at a time, as an oracle for the row-wise
/// packers. Element (k, n) of the K x N logical matrix is read from
/// Src[k * Ld + n], or Src[n * Ld + k] when \p Transposed, and lands in
/// tile (k / KB, n / NB) at [k % KB][n % NB], or at [k % KB / 4][n % NB]
/// [k % 4] in the VNNI layout. Padding stays zero.
template <typename T>
std::vector<T> naivePackB(const T *Src, int64_t K, int64_t N, int64_t Ld,
                          bool Transposed, int64_t KB, int64_t NB,
                          bool Vnni) {
  const int64_t KBlocks = (K + KB - 1) / KB;
  const int64_t NBlocks = (N + NB - 1) / NB;
  std::vector<T> Out(static_cast<size_t>(KBlocks * NBlocks * KB * NB), T(0));
  for (int64_t KI = 0; KI < K; ++KI)
    for (int64_t NI = 0; NI < N; ++NI) {
      const int64_t Tile = (KI / KB) * NBlocks + NI / NB;
      const int64_t Kk = KI % KB, Nn = NI % NB;
      const int64_t At =
          Tile * KB * NB + (Vnni ? (Kk / 4) * NB * 4 + Nn * 4 + Kk % 4
                                 : Kk * NB + Nn);
      Out[static_cast<size_t>(At)] =
          Src[Transposed ? NI * Ld + KI : KI * Ld + NI];
    }
  return Out;
}

/// Prints \p Obj the way gtest's fallback printer names a parameter
/// struct ("32-byte object <0D-00 00-00 ...>"), with every byte outside
/// \p Fields zeroed. The fallback printer dumps padding too, whose bytes
/// differ from run to run; this keeps the names stable and leaves every
/// other byte of them as before.
template <typename T, typename... Fs>
void printZeroPadded(std::ostream *OS, const T &Obj, const Fs &...Fields) {
  unsigned char Image[sizeof(T)] = {};
  const auto *Base = reinterpret_cast<const unsigned char *>(&Obj);
  (std::memcpy(Image + (reinterpret_cast<const unsigned char *>(&Fields) -
                        Base),
               &Fields, sizeof(Fields)),
   ...);
  static const char Hex[] = "0123456789ABCDEF";
  *OS << sizeof(T) << "-byte object <";
  for (size_t I = 0; I < sizeof(T); ++I) {
    if (I)
      *OS << (I % 2 ? '-' : ' ');
    *OS << Hex[Image[I] >> 4] << Hex[Image[I] & 15];
  }
  *OS << '>';
}

/// Fills a runtime tensor with seeded noise.
inline runtime::TensorData randomTensor(DataType Ty,
                                        std::vector<int64_t> Shape,
                                        uint64_t Seed) {
  runtime::TensorData T(Ty, std::move(Shape));
  Rng R(Seed);
  T.fillRandom(R);
  return T;
}

/// Compiles slot-assigned \p F to bytecode and runs it once on \p Pool
/// with the given (buffer id, storage) bindings.
inline void runTir(const tir::Func &F, runtime::ThreadPool &Pool,
                   const std::vector<std::pair<int, void *>> &Bindings) {
  exec::Executor X(exec::compileProgram(F), Pool);
  for (const auto &[BufferId, Ptr] : Bindings)
    X.bindBuffer(BufferId, Ptr);
  X.run();
}

/// Compiles \p G with \p Opts through a one-off api::Session and returns
/// its sole compiled partition, for tests that read stats(), bytecode()
/// or entry() or call CompiledPartition::execute directly. Aborts when
/// the graph does not compile to exactly one compiled partition.
inline std::shared_ptr<core::CompiledPartition>
compileOnePartition(const graph::Graph &G,
                    const core::CompileOptions &Opts = {}) {
  api::Session S(Opts);
  Expected<api::CompiledGraphPtr> CG = S.compile(G);
  if (!CG)
    fatalError(("compile failed: " + CG.status().toString()).c_str());
  if ((*CG)->numPartitions() != 1 || !(*CG)->compiledPartition(0))
    fatalError("graph did not compile to one compiled partition");
  return (*CG)->compiledPartition(0);
}

} // namespace test
} // namespace gc

#endif // GC_TESTS_TEST_UTILS_H
