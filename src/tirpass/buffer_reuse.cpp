//===- buffer_reuse.cpp - Memory buffer reuse via lifespan analysis (§VI) --------===//
//
// "Memory buffer optimization uses life span analysis like traditional
// compiler analysis for register allocation based on the def-use chain.
// The algorithm considers both reusing the hot memory and reducing the
// overall peak memory. ... Among multiple choices of reusable memory
// buffers, it chooses the one that was used most recently, so likely the
// data is still in the cache system."
//
// Temp buffers live between the top-level region nests of the entry body;
// a buffer's lifespan is [first region index referencing it, last index].
// A linear scan over regions frees buffers whose lifespan ended and places
// new ones preferring the most recently freed block that fits; blocks can
// also be split or the arena grown.
//
//===----------------------------------------------------------------------===//

#include "tirpass/tirpass.h"

#include "runtime/buffer.h"
#include "support/common.h"

#include <algorithm>
#include <map>
#include <vector>

namespace gc {
namespace tirpass {

using namespace tir;

namespace {

/// Collects the buffer ids referenced inside a statement tree: only
/// intrinsic calls name buffers.
void collectBufferUses(const Stmt &S, std::vector<bool> &Used) {
  switch (S->kind()) {
  case StmtNode::Kind::For:
    for (const Stmt &C : static_cast<const ForNode &>(*S).Body)
      collectBufferUses(C, Used);
    return;
  case StmtNode::Kind::Seq:
    for (const Stmt &C : static_cast<const SeqNode &>(*S).Body)
      collectBufferUses(C, Used);
    return;
  case StmtNode::Kind::Call:
    for (const BufferRef &B : static_cast<const CallNode &>(*S).Buffers)
      Used[static_cast<size_t>(B.BufferId)] = true;
    return;
  case StmtNode::Kind::Let:
    return;
  }
}

/// A free block inside the arena.
struct FreeBlock {
  int64_t Offset;
  int64_t Bytes;
  int FreedAt; // region index when freed (recency)
};

} // namespace

BufferReuseStats reuseBuffers(Func &F, bool Enable) {
  BufferReuseStats Stats;
  const int NumRegions = static_cast<int>(F.Body.size());
  const size_t NumBuffers = F.Buffers.size();

  // Lifespans over region indices.
  std::vector<int> First(NumBuffers, -1), Last(NumBuffers, -1);
  for (int R = 0; R < NumRegions; ++R) {
    std::vector<bool> Used(NumBuffers, false);
    collectBufferUses(F.Body[static_cast<size_t>(R)], Used);
    for (size_t B = 0; B < NumBuffers; ++B) {
      if (!Used[B])
        continue;
      if (First[B] < 0)
        First[B] = R;
      Last[B] = R;
    }
  }

  constexpr int64_t Align = runtime::kDefaultAlignment;
  int64_t ArenaSize = 0;
  int64_t NoReuseSize = 0;
  std::vector<FreeBlock> FreeList;
  // Buffers currently placed, keyed by id -> (offset, bytes, last).
  struct Placed {
    int Buffer;
    int64_t Offset;
    int64_t Bytes;
  };
  std::vector<Placed> Live;
  int64_t CurrentLive = 0;
  int64_t PeakLive = 0;

  for (int R = 0; R < NumRegions; ++R) {
    // Free buffers whose lifespan ended before this region.
    for (auto It = Live.begin(); It != Live.end();) {
      if (Last[static_cast<size_t>(It->Buffer)] < R) {
        FreeList.push_back({It->Offset, It->Bytes, R});
        CurrentLive -= It->Bytes;
        It = Live.erase(It);
      } else {
        ++It;
      }
    }
    // Place buffers born at this region.
    for (size_t B = 0; B < NumBuffers; ++B) {
      if (First[B] != R)
        continue;
      BufferDecl &Decl = F.Buffers[B];
      if (Decl.Scope != BufferScope::Temp)
        continue;
      const int64_t Bytes = roundUp(Decl.numBytes(), Align);
      NoReuseSize += Bytes;
      ++Stats.BuffersPlaced;
      int64_t Offset = -1;
      if (Enable) {
        // Most-recently-freed block that fits ("hot memory").
        int BestIdx = -1;
        for (int I = 0, E = static_cast<int>(FreeList.size()); I < E; ++I) {
          if (FreeList[static_cast<size_t>(I)].Bytes < Bytes)
            continue;
          if (BestIdx < 0 ||
              FreeList[static_cast<size_t>(I)].FreedAt >
                  FreeList[static_cast<size_t>(BestIdx)].FreedAt)
            BestIdx = I;
        }
        if (BestIdx >= 0) {
          FreeBlock &Blk = FreeList[static_cast<size_t>(BestIdx)];
          Offset = Blk.Offset;
          if (Blk.Bytes > Bytes) {
            Blk.Offset += Bytes;
            Blk.Bytes -= Bytes;
          } else {
            FreeList.erase(FreeList.begin() + BestIdx);
          }
          ++Stats.BuffersReused;
        }
      }
      if (Offset < 0) {
        Offset = ArenaSize;
        ArenaSize += Bytes;
      }
      Decl.ArenaOffset = Offset;
      Live.push_back({static_cast<int>(B), Offset, Bytes});
      CurrentLive += Bytes;
      PeakLive = std::max(PeakLive, CurrentLive);
    }
  }

  F.ArenaBytes = ArenaSize;
  F.ArenaBytesNoReuse = NoReuseSize;
  Stats.PeakBytesWithReuse = ArenaSize;
  Stats.PeakBytesWithoutReuse = NoReuseSize;
  return Stats;
}

} // namespace tirpass
} // namespace gc
