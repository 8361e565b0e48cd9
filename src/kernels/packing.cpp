//===- packing.cpp - Blocked/VNNI layout packing ------------------------------===//

#include "kernels/packing.h"

#include "support/common.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gc {
namespace kernels {

namespace {

/// Reads logical element (R, C) of a plain matrix honoring transposition.
template <typename T>
inline T readPlain(const PlainMatrix &Src, int64_t R, int64_t C) {
  const T *Data = static_cast<const T *>(Src.Data);
  if (Src.Transposed)
    return Data[C * Src.Ld + R];
  return Data[R * Src.Ld + C];
}

/// Generic A-format packing: tiles of MB x KB, zero padded.
template <typename T>
void packAImpl(const PlainMatrix &Src, T *Dst, int64_t MB, int64_t KB) {
  const int64_t M = Src.Rows;
  const int64_t K = Src.Cols;
  const int64_t MBlocks = ceilDiv(M, MB);
  const int64_t KBlocks = ceilDiv(K, KB);
  for (int64_t MBlk = 0; MBlk < MBlocks; ++MBlk) {
    for (int64_t KBlk = 0; KBlk < KBlocks; ++KBlk) {
      T *Tile = Dst + (MBlk * KBlocks + KBlk) * MB * KB;
      const int64_t MValid = std::min(MB, M - MBlk * MB);
      const int64_t KValid = std::min(KB, K - KBlk * KB);
      for (int64_t MI = 0; MI < MB; ++MI) {
        T *Row = Tile + MI * KB;
        if (MI >= MValid) {
          std::memset(Row, 0, sizeof(T) * static_cast<size_t>(KB));
          continue;
        }
        const int64_t SrcR = MBlk * MB + MI;
        if (!Src.Transposed) {
          const T *SrcRow =
              static_cast<const T *>(Src.Data) + SrcR * Src.Ld + KBlk * KB;
          std::memcpy(Row, SrcRow, sizeof(T) * static_cast<size_t>(KValid));
        } else {
          for (int64_t KI = 0; KI < KValid; ++KI)
            Row[KI] = readPlain<T>(Src, SrcR, KBlk * KB + KI);
        }
        if (KValid < KB)
          std::memset(Row + KValid, 0,
                      sizeof(T) * static_cast<size_t>(KB - KValid));
      }
    }
  }
}

} // namespace

void packAF32(const PlainMatrix &Src, float *Dst, int64_t MB, int64_t KB) {
  packAImpl<float>(Src, Dst, MB, KB);
}

void packAU8(const PlainMatrix &Src, uint8_t *Dst, int64_t MB, int64_t KB) {
  packAImpl<uint8_t>(Src, Dst, MB, KB);
}

void packBF32(const PlainMatrix &Src, float *Dst, int64_t KB, int64_t NB) {
  const int64_t K = Src.Rows;
  const int64_t N = Src.Cols;
  const int64_t KBlocks = ceilDiv(K, KB);
  const int64_t NBlocks = ceilDiv(N, NB);
  const auto *Data = static_cast<const float *>(Src.Data);
  for (int64_t KBlk = 0; KBlk < KBlocks; ++KBlk) {
    for (int64_t NBlk = 0; NBlk < NBlocks; ++NBlk) {
      float *Tile = Dst + (KBlk * NBlocks + NBlk) * KB * NB;
      const int64_t KValid = std::min(KB, K - KBlk * KB);
      const int64_t NValid = std::min(NB, N - NBlk * NB);
      if (KValid < KB || NValid < NB)
        std::memset(Tile, 0, sizeof(float) * static_cast<size_t>(KB * NB));
      if (!Src.Transposed) {
        // Each tile row is a contiguous run of one source row, copied by
        // an inline loop rather than a memcpy call per (short) row.
        const float *SrcRow = Data + KBlk * KB * Src.Ld + NBlk * NB;
        for (int64_t KI = 0; KI < KValid; ++KI, SrcRow += Src.Ld) {
          float *Row = Tile + KI * NB;
          for (int64_t NI = 0; NI < NValid; ++NI)
            Row[NI] = SrcRow[NI];
        }
        continue;
      }
      // Transposed: source row n holds tile column n. Interleaving four
      // source rows writes four adjacent floats of each tile row.
      const float *SrcRow = Data + NBlk * NB * Src.Ld + KBlk * KB;
      int64_t NI = 0;
      for (; NI + 4 <= NValid; NI += 4, SrcRow += 4 * Src.Ld) {
        const float *R1 = SrcRow + Src.Ld, *R2 = R1 + Src.Ld,
                    *R3 = R2 + Src.Ld;
        for (int64_t KI = 0; KI < KValid; ++KI) {
          float *Out = Tile + KI * NB + NI;
          Out[0] = SrcRow[KI];
          Out[1] = R1[KI];
          Out[2] = R2[KI];
          Out[3] = R3[KI];
        }
      }
      for (; NI < NValid; ++NI, SrcRow += Src.Ld)
        for (int64_t KI = 0; KI < KValid; ++KI)
          Tile[KI * NB + NI] = SrcRow[KI];
    }
  }
}

void packBS8Vnni(const PlainMatrix &Src, int8_t *Dst, int64_t KB, int64_t NB) {
  assert(KB % 4 == 0 && "VNNI packing requires KB % 4 == 0");
  const int64_t K = Src.Rows;
  const int64_t N = Src.Cols;
  const int64_t KBlocks = ceilDiv(K, KB);
  const int64_t NBlocks = ceilDiv(N, NB);
  const auto *Data = static_cast<const int8_t *>(Src.Data);
  for (int64_t KBlk = 0; KBlk < KBlocks; ++KBlk) {
    for (int64_t NBlk = 0; NBlk < NBlocks; ++NBlk) {
      int8_t *Tile = Dst + (KBlk * NBlocks + NBlk) * KB * NB;
      const int64_t KValid = std::min(KB, K - KBlk * KB);
      const int64_t NValid = std::min(NB, N - NBlk * NB);
      if (KValid < KB || NValid < NB)
        std::memset(Tile, 0, static_cast<size_t>(KB * NB));
      if (!Src.Transposed) {
        // Interleave four source rows into one [NB][4] group.
        const int8_t *Rows = Data + KBlk * KB * Src.Ld + NBlk * NB;
        for (int64_t K0 = 0; K0 < KValid; K0 += 4) {
          int8_t *Group = Tile + K0 * NB;
          const int8_t *R0 = Rows + K0 * Src.Ld;
          if (K0 + 4 <= KValid) {
            const int8_t *R1 = R0 + Src.Ld, *R2 = R1 + Src.Ld,
                         *R3 = R2 + Src.Ld;
            for (int64_t NI = 0; NI < NValid; ++NI) {
              Group[NI * 4 + 0] = R0[NI];
              Group[NI * 4 + 1] = R1[NI];
              Group[NI * 4 + 2] = R2[NI];
              Group[NI * 4 + 3] = R3[NI];
            }
            continue;
          }
          // K tail: the missing lanes keep the tile's zero fill.
          for (int64_t Lane = 0; K0 + Lane < KValid; ++Lane, R0 += Src.Ld)
            for (int64_t NI = 0; NI < NValid; ++NI)
              Group[NI * 4 + Lane] = R0[NI];
        }
        continue;
      }
      // Transposed: the four k lanes of column n are contiguous in source
      // row n, so each group entry is one 4-byte copy.
      const int64_t KFull = KValid / 4 * 4;
      const int8_t *SrcRow = Data + NBlk * NB * Src.Ld + KBlk * KB;
      for (int64_t NI = 0; NI < NValid; ++NI, SrcRow += Src.Ld) {
        for (int64_t K0 = 0; K0 < KFull; K0 += 4)
          std::memcpy(Tile + K0 * NB + NI * 4, SrcRow + K0, 4);
        for (int64_t KI = KFull; KI < KValid; ++KI)
          Tile[KFull * NB + NI * 4 + (KI - KFull)] = SrcRow[KI];
      }
    }
  }
}

void unpackAF32(const float *Src, float *Dst, int64_t M, int64_t K,
                int64_t MB, int64_t KB, int64_t DstLd) {
  const int64_t KBlocks = ceilDiv(K, KB);
  for (int64_t MI = 0; MI < M; ++MI) {
    const int64_t MBlk = MI / MB;
    const int64_t MOff = MI % MB;
    for (int64_t KBlk = 0; KBlk < KBlocks; ++KBlk) {
      const float *TileRow =
          Src + (MBlk * KBlocks + KBlk) * MB * KB + MOff * KB;
      const int64_t KValid = std::min(KB, K - KBlk * KB);
      std::memcpy(Dst + MI * DstLd + KBlk * KB, TileRow,
                  sizeof(float) * static_cast<size_t>(KValid));
    }
  }
}

void colSumS8(const PlainMatrix &Src, int32_t *Comp) {
  const int64_t K = Src.Rows;
  const int64_t N = Src.Cols;
  const auto *Data = static_cast<const int8_t *>(Src.Data);
  if (Src.Transposed) {
    // Column n is source row n: one contiguous sum per output.
    for (int64_t NI = 0; NI < N; ++NI, Data += Src.Ld) {
      int32_t Sum = 0;
      for (int64_t KI = 0; KI < K; ++KI)
        Sum += Data[KI];
      Comp[NI] = Sum;
    }
    return;
  }
  std::fill(Comp, Comp + N, 0);
  for (int64_t KI = 0; KI < K; ++KI, Data += Src.Ld)
    for (int64_t NI = 0; NI < N; ++NI)
      Comp[NI] += Data[NI];
}

} // namespace kernels
} // namespace gc
