//===- memplan_verifier.cpp - Memory plan alias checking ------------------===//
///
/// \file
/// Independent checker for the cross-partition execution plan: boundary
/// closure (every partition input is a graph input or an earlier
/// partition's output), topological list order, slot-table coverage of
/// every intermediate, and — the load-bearing part — an alias proof for
/// the packed arena. The checker recomputes partition reachability and
/// intermediate lifetimes from nothing but the boundary id lists, then
/// demands that any two slots whose lifetimes can coexist under SOME
/// DAG-consistent schedule occupy disjoint byte ranges. This is the same
/// may-coexist criterion the packer in api/session.cpp uses, but derived
/// separately from the plan's inputs rather than trusted from its output,
/// so a packer regression (or a hand-edited plan) fails here instead of
/// as silent cross-partition data corruption under the async scheduler.
///
//===----------------------------------------------------------------------===//

#include "verify/verify.h"

#include "support/str.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gc {
namespace verify {

namespace {

Status planErr(const char *Context, const std::string &What) {
  return Status::error(StatusCode::Internal,
                       formatString("memory plan verifier%s%s: %s",
                                    *Context ? " after " : "", Context,
                                    What.c_str()));
}

} // namespace

Status verifyMemoryPlan(const MemoryPlanView &Plan, const char *Context) {
  const size_t N = Plan.Partitions.size();
  std::unordered_set<int64_t> GraphIns(Plan.GraphInputs.begin(),
                                       Plan.GraphInputs.end());
  std::unordered_set<int64_t> GraphOuts(Plan.GraphOutputs.begin(),
                                        Plan.GraphOutputs.end());

  // Producers: first partition listing the id as an output (duplicate
  // graph-output listings alias the first writer by design). Two DISTINCT
  // partitions claiming the same intermediate is a write-write conflict:
  // under the async scheduler both may run concurrently and the arena
  // slot has a single byte range, so the plan is rejected rather than
  // silently keeping the first writer.
  std::unordered_map<int64_t, uint32_t> ProducerOf;
  for (size_t I = 0; I < N; ++I)
    for (int64_t Out : Plan.Partitions[I].Outputs) {
      if (GraphIns.count(Out))
        return planErr(Context,
                       formatString("partition %zu writes graph input "
                                    "t%lld",
                                    I, (long long)Out));
      const auto Ins = ProducerOf.try_emplace(Out, static_cast<uint32_t>(I));
      if (!Ins.second && Ins.first->second != static_cast<uint32_t>(I) &&
          !GraphOuts.count(Out))
        return planErr(Context,
                       formatString("intermediate t%lld is written by both "
                                    "partition %u and partition %zu",
                                    (long long)Out, Ins.first->second, I));
    }

  // Closure + dependency edges. The slot consumers are collected here so
  // lifetimes below come from the boundary lists, not the packer.
  std::unordered_map<int64_t, size_t> SlotOf;
  for (size_t S = 0; S < Plan.Slots.size(); ++S) {
    if (!SlotOf.try_emplace(Plan.Slots[S].TensorId, S).second)
      return planErr(Context,
                     formatString("two arena slots are keyed by t%lld",
                                  (long long)Plan.Slots[S].TensorId));
  }
  std::vector<std::vector<uint32_t>> Succs(N);
  std::vector<std::vector<uint32_t>> SlotConsumers(Plan.Slots.size());
  for (size_t I = 0; I < N; ++I) {
    std::unordered_set<uint32_t> Preds;
    for (int64_t In : Plan.Partitions[I].Inputs) {
      if (GraphIns.count(In))
        continue;
      auto ProdIt = ProducerOf.find(In);
      if (ProdIt == ProducerOf.end())
        return planErr(Context,
                       formatString("partition %zu reads t%lld, which is "
                                    "neither a graph input nor any "
                                    "partition's output",
                                    I, (long long)In));
      if (ProdIt->second >= static_cast<uint32_t>(I))
        return planErr(Context,
                       formatString("partition list is not topologically "
                                    "ordered: t%lld is produced by "
                                    "partition %u but consumed by "
                                    "partition %zu",
                                    (long long)In, ProdIt->second, I));
      Preds.insert(ProdIt->second);
      if (GraphOuts.count(In))
        continue; // lives in the caller's output buffer, not the arena
      auto SlotIt = SlotOf.find(In);
      if (SlotIt == SlotOf.end())
        return planErr(Context,
                       formatString("intermediate t%lld read by partition "
                                    "%zu has no arena slot",
                                    (long long)In, I));
      SlotConsumers[SlotIt->second].push_back(static_cast<uint32_t>(I));
    }
    for (uint32_t P : Preds)
      Succs[P].push_back(static_cast<uint32_t>(I));
  }

  // Every slot must belong to a produced intermediate, and every
  // non-boundary partition output must have a slot (or nothing could ever
  // read or write it safely).
  for (const MemoryPlanView::Slot &S : Plan.Slots) {
    if (!ProducerOf.count(S.TensorId))
      return planErr(Context, formatString("arena slot for t%lld has no "
                                           "producing partition",
                                           (long long)S.TensorId));
    if (GraphOuts.count(S.TensorId) || GraphIns.count(S.TensorId))
      return planErr(Context,
                     formatString("boundary tensor t%lld must not be "
                                  "arena-allocated",
                                  (long long)S.TensorId));
    if (S.Offset + S.Bytes > Plan.ArenaBytes)
      return planErr(Context,
                     formatString("slot for t%lld spans [%llu, %llu), "
                                  "beyond the %llu byte arena",
                                  (long long)S.TensorId,
                                  (unsigned long long)S.Offset,
                                  (unsigned long long)(S.Offset + S.Bytes),
                                  (unsigned long long)Plan.ArenaBytes));
  }
  for (size_t I = 0; I < N; ++I)
    for (int64_t Out : Plan.Partitions[I].Outputs)
      if (!GraphOuts.count(Out) && !SlotOf.count(Out))
        return planErr(Context,
                       formatString("intermediate t%lld produced by "
                                    "partition %zu has no arena slot",
                                    (long long)Out, I));

  // Happens-before closure. The list order is topological (verified
  // above: edges point forward), so one reverse sweep closes it.
  std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
  for (size_t I = N; I-- > 0;)
    for (uint32_t S : Succs[I]) {
      Reach[I][S] = true;
      for (size_t J = 0; J < N; ++J)
        if (Reach[S][J])
          Reach[I][J] = true;
    }

  // diesBefore(A, B): every use of slot A (producer + all consumers) is a
  // strict DAG predecessor of slot B's producer — A's bytes are dead
  // before B's first write under EVERY schedule the dependency edges
  // admit, not just the serial list order.
  const auto SlotProd = [&](size_t S) {
    return ProducerOf.at(Plan.Slots[S].TensorId);
  };
  const auto DiesBefore = [&](size_t A, size_t B) {
    const uint32_t ProdA = SlotProd(A), ProdB = SlotProd(B);
    if (ProdA == ProdB || !Reach[ProdA][ProdB])
      return false;
    for (uint32_t C : SlotConsumers[A])
      if (C == ProdB || !Reach[C][ProdB])
        return false;
    return true;
  };

  for (size_t A = 0; A < Plan.Slots.size(); ++A) {
    for (size_t B = A + 1; B < Plan.Slots.size(); ++B) {
      const MemoryPlanView::Slot &SA = Plan.Slots[A];
      const MemoryPlanView::Slot &SB = Plan.Slots[B];
      if (SA.Bytes == 0 || SB.Bytes == 0 || DiesBefore(A, B) ||
          DiesBefore(B, A))
        continue;
      if (SA.Offset < SB.Offset + SB.Bytes && SB.Offset < SA.Offset + SA.Bytes)
        return planErr(
            Context,
            formatString("slots for t%lld [%llu, %llu) and t%lld "
                         "[%llu, %llu) overlap but their lifetimes can "
                         "coexist under a DAG-consistent schedule",
                         (long long)SA.TensorId, (unsigned long long)SA.Offset,
                         (unsigned long long)(SA.Offset + SA.Bytes),
                         (long long)SB.TensorId, (unsigned long long)SB.Offset,
                         (unsigned long long)(SB.Offset + SB.Bytes)));
    }
  }
  return Status::ok();
}

} // namespace verify
} // namespace gc
