//===- test_utils.h - Shared test helpers -----------------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the test suite: deterministic tensor filling, naive
/// matrix products used as local oracles, tolerance constants, and a
/// one-call runner for hand-built Tensor IR.
///
//===----------------------------------------------------------------------===//

#ifndef GC_TESTS_TEST_UTILS_H
#define GC_TESTS_TEST_UTILS_H

#include "exec/executor.h"
#include "runtime/tensor_data.h"
#include "runtime/thread_pool.h"
#include "support/rng.h"
#include "tir/function.h"

#include <cstdint>
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

} // namespace test
} // namespace gc

#endif // GC_TESTS_TEST_UTILS_H
