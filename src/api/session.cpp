//===- session.cpp - Public Session / CompiledGraph / Stream API -------------------===//

#include "api/session.h"

#include "api/scheduler.h"
#include "core/artifact.h"
#include "runtime/buffer.h"
#include "support/common.h"
#include "support/env.h"
#include "support/fault.h"
#include "support/serial.h"
#include "support/str.h"
#include "verify/verify.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace gc {
namespace api {

using namespace graph;

namespace detail {

/// Shared compile-side state behind a Session: options, the execution
/// thread pool, and the compiled-partition cache.
/// Held by shared_ptr so batch-polymorphic CompiledGraphs can keep
/// compiling specializations — through the same cache and statistics —
/// after the Session object itself is gone.
struct SessionState {
  core::CompileOptions Opts;
  std::shared_ptr<runtime::ThreadPool> Pool;

  /// Fault-tolerance counters, shared with every Stream (and through
  /// StreamState with every Submission) this session mints.
  std::shared_ptr<HealthState> Health = std::make_shared<HealthState>();

  mutable std::mutex CacheMutex;
  std::unordered_map<uint64_t, std::shared_ptr<core::CompiledPartition>>
      Cache;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};

  /// Persistent on-disk artifact cache (disabled unless the options ask
  /// for it); consulted on in-memory misses of bytecode-backend compiles.
  std::unique_ptr<runtime::ArtifactCache> Disk;
  std::atomic<uint64_t> DiskHits{0};
  std::atomic<uint64_t> DiskMisses{0};
  std::atomic<uint64_t> DiskStores{0};

  /// The compile pipeline behind Session::compile(); static over a
  /// shared_ptr because polymorphic CompiledGraphs re-enter it for their
  /// specializations.
  static Expected<CompiledGraphPtr>
  compile(const std::shared_ptr<SessionState> &State, const Graph &G);
};

void HealthState::warnOnce(const char *Axis, const char *Detail) {
  // The fixed degradation-axis list; one WarnedAxes bit each. Warning
  // spew scales with the number of axes, never with the failure rate.
  static const char *const Axes[] = {"async-serial", "disk-cache",
                                     "reference"};
  uint32_t Bit = 0;
  for (size_t I = 0; I < sizeof(Axes) / sizeof(Axes[0]); ++I)
    if (std::strcmp(Axis, Axes[I]) == 0) {
      Bit = 1u << I;
      break;
    }
  if (Bit == 0 || (WarnedAxes.fetch_or(Bit) & Bit))
    return;
  std::fprintf(stderr, "[gc] degraded axis=%s: %s\n", Axis, Detail);
}

} // namespace detail

namespace {

/// Sanity screen for compiled-partition cache hits: the 64-bit fingerprint
/// is not collision-proof, so a hit must at least agree with the spec on
/// its boundary signature before being reused. A gross collision then
/// degrades to a recompile instead of silently executing the wrong code.
bool boundaryMatches(const Graph &Sub, const core::CompiledPartition &CP) {
  const Graph &Opt = CP.optimizedGraph();
  if (Sub.inputs().size() != Opt.inputs().size() ||
      Sub.outputs().size() != Opt.outputs().size())
    return false;
  for (size_t I = 0; I < Sub.inputs().size(); ++I) {
    const LogicalTensor &A = Sub.tensor(Sub.inputs()[I]);
    const LogicalTensor &B = Opt.tensor(Opt.inputs()[I]);
    if (A.Ty != B.Ty || A.Shape != B.Shape)
      return false;
  }
  for (size_t I = 0; I < Sub.outputs().size(); ++I) {
    const LogicalTensor &A = Sub.tensor(Sub.outputs()[I]);
    const LogicalTensor &B = Opt.tensor(Opt.outputs()[I]);
    if (A.Ty != B.Ty || A.Shape != B.Shape)
      return false;
  }
  return true;
}

/// One attempt to serve a partition from the persistent artifact cache:
/// envelope-validated mmap load, full codec deserialization (bounds checks
/// + unconditional static verification), then the same boundary screen the
/// in-memory cache applies against fingerprint collisions. Any failure —
/// missing entry, corruption, version skew, verifier rejection, boundary
/// mismatch — returns null and the caller compiles fresh; a corrupt disk
/// can cost time, never correctness.
std::shared_ptr<core::CompiledPartition>
tryDiskLoad(detail::SessionState &State, uint64_t DiskKey, const Graph &Sub) {
  Expected<runtime::LoadedArtifact> ArtOr = State.Disk->load(DiskKey);
  if (!ArtOr) {
    // A routine miss (NotFound) is the cache working as designed; any
    // other failure (I/O, injection at "cache.open"/"cache.mmap") means
    // the cache could not serve and the compile degrades to in-process.
    if (ArtOr.status().code() != StatusCode::NotFound) {
      if (isTransient(ArtOr.status().code()))
        State.Health->TransientFailures.fetch_add(1);
      State.Health->CacheFallbacks.fetch_add(1);
      State.Health->warnOnce("disk-cache",
                             ArtOr.status().toString().c_str());
    }
    return nullptr;
  }
  const runtime::LoadedArtifact &Art = ArtOr.value();
  Expected<std::shared_ptr<core::CompiledPartition>> PartOr =
      core::ArtifactCodec::deserialize(Art.Payload, Art.PayloadBytes, Art.Map,
                                       State.Pool);
  if (!PartOr) {
    if (verboseAtLeast(1))
      std::fprintf(stderr, "[gc] artifact cache: rejecting entry %016llx: %s\n",
                   (unsigned long long)DiskKey,
                   PartOr.status().toString().c_str());
    return nullptr;
  }
  if (!boundaryMatches(Sub, *PartOr.value()))
    return nullptr;
  return PartOr.value();
}

/// size_t face of gc::roundUp for arena byte offsets (tensor byte sizes
/// are well within int64_t).
inline size_t alignUp(size_t X, size_t A) {
  return static_cast<size_t>(
      roundUp(static_cast<int64_t>(X), static_cast<int64_t>(A)));
}

/// Deterministic footprint estimate for one cached batch specialization:
/// the packed intermediate arena plus every compiled partition's scratch
/// arena — the compile-time-known bytes an execution of it pins. Charged
/// against MemBudget (GC_MEM_LIMIT) while the specialization is cached.
size_t specializationMemEstimate(const CompiledGraph &Spec) {
  size_t Est = Spec.scratchArenaBytes();
  for (size_t I = 0; I < Spec.numPartitions(); ++I)
    if (const auto CP = Spec.compiledPartition(I))
      Est += static_cast<size_t>(
          std::max<int64_t>(0, CP->stats().ScratchArenaBytes));
  return Est;
}

} // namespace

//===----------------------------------------------------------------------===//
// CompiledGraph
//===----------------------------------------------------------------------===//

CompiledGraph::~CompiledGraph() {
  for (const Specialization &S : Specs)
    runtime::MemBudget::release(S.Charged);
}

size_t CompiledGraph::numFallbackPartitions() const {
  size_t N = 0;
  for (const Part &P : Parts)
    if (P.Spec.Kind == PartitionKind::Fallback)
      ++N;
  return N;
}

std::vector<std::vector<int64_t>> CompiledGraph::outputShapes() const {
  std::vector<std::vector<int64_t>> Shapes;
  Shapes.reserve(OutputMeta.size());
  for (const LogicalTensor &T : OutputMeta)
    Shapes.push_back(T.Shape);
  return Shapes;
}

size_t CompiledGraph::numSpecializations() const {
  std::lock_guard<std::mutex> Lock(SpecMutex);
  return Specs.size();
}

std::vector<int64_t> CompiledGraph::specializationBuckets() const {
  std::lock_guard<std::mutex> Lock(SpecMutex);
  std::vector<int64_t> Buckets;
  Buckets.reserve(Specs.size());
  for (const Specialization &S : Specs)
    Buckets.push_back(S.Bucket);
  return Buckets;
}

std::shared_ptr<CompiledGraph>
CompiledGraph::cachedSpecializationFor(int64_t Batch) const {
  if (!Polymorphic || Batch <= 0)
    return nullptr;
  const int64_t Bucket = core::batchBucket(Batch, Bucketing);
  std::lock_guard<std::mutex> Lock(SpecMutex);
  for (const Specialization &S : Specs)
    if (S.Bucket == Bucket)
      return S.CG;
  return nullptr;
}

Expected<std::shared_ptr<CompiledGraph>>
CompiledGraph::specializationForBucket(int64_t Bucket) const {
  std::unique_lock<std::mutex> Lock(SpecMutex);
  for (;;) {
    ++SpecClock;
    for (Specialization &S : Specs)
      if (S.Bucket == Bucket) {
        S.LastUse = SpecClock;
        SpecHits.fetch_add(1);
        return S.CG;
      }
    // Another thread is compiling this bucket: wait for it and re-check
    // (on its failure we retry the compile ourselves).
    const bool InFlight =
        std::find(InFlightBuckets.begin(), InFlightBuckets.end(),
                  Bucket) != InFlightBuckets.end();
    if (!InFlight)
      break;
    SpecCv.wait(Lock);
  }
  // Fault seam: a refused specialization compile reports before the
  // bucket is marked in flight, so concurrent waiters retry (or degrade)
  // instead of waiting on a compile that never starts.
  if (fault::shouldFail(fault::kSpecCompile))
    return fault::failStatus(fault::kSpecCompile,
                             StatusCode::ResourceExhausted,
                             "batch-specialization compile");
  // Compile OUTSIDE the lock — a cold batch size must not stall warm
  // hits on other buckets — with the bucket marked in flight so
  // concurrent first executions of it still compile exactly once.
  InFlightBuckets.push_back(Bucket);
  SpecMisses.fetch_add(1);
  Lock.unlock();

  Expected<Graph> SpecGraphOr = core::specializeForBatch(SourceG, Bucket);
  Expected<CompiledGraphPtr> CompiledOr =
      SpecGraphOr ? detail::SessionState::compile(Sess, *SpecGraphOr)
                  : Expected<CompiledGraphPtr>(SpecGraphOr.status());

  Lock.lock();
  InFlightBuckets.erase(std::find(InFlightBuckets.begin(),
                                  InFlightBuckets.end(), Bucket));
  SpecCv.notify_all();
  if (!CompiledOr)
    return CompiledOr.status();
  // A specialization with a partition degraded to the reference
  // interpreter by a transient compile failure serves this execution
  // only: caching it would keep the bucket degraded until LRU eviction.
  // The next execution of the bucket compiles it again.
  if ((*CompiledOr)->Degraded)
    return *CompiledOr;
  // Resource governance: a cached specialization pins compiled code and
  // its scratch arenas; charge the estimate against GC_MEM_LIMIT so
  // unbounded bucket churn degrades (the caller falls back to the
  // reference interpreter) instead of exhausting the host.
  const size_t Charge = specializationMemEstimate(**CompiledOr);
  if (!runtime::MemBudget::tryCharge(Charge)) {
    if (Sess && Sess->Health)
      Sess->Health->MemLimitRejections.fetch_add(1);
    return Status::error(
        StatusCode::ResourceExhausted,
        formatString("specialization cache: GC_MEM_LIMIT reached while "
                     "caching bucket %lld (%zu bytes estimated)",
                     (long long)Bucket, Charge));
  }
  // LRU eviction under the cap: drop the stalest bucket. The evicted
  // specialization stays alive for any execution currently holding its
  // shared_ptr; its budget charge is returned now (the estimate covers
  // the cache's steady-state footprint, not transient overlap).
  if (Specs.size() >= SpecCap) {
    size_t Oldest = 0;
    for (size_t I = 1; I < Specs.size(); ++I)
      if (Specs[I].LastUse < Specs[Oldest].LastUse)
        Oldest = I;
    runtime::MemBudget::release(Specs[Oldest].Charged);
    Specs.erase(Specs.begin() + static_cast<ptrdiff_t>(Oldest));
  }
  Specs.push_back({Bucket, *CompiledOr, SpecClock, Charge});
  return *CompiledOr;
}

Status CompiledGraph::buildExecutionPlan() {
  const size_t N = Parts.size();
  Plans.assign(N, PartitionPlan{});
  ScratchSlots.clear();
  ArenaBytes = ArenaBytesNoReuse = 0;

  // Boundary tensor id -> location maps. A tensor that is both a graph
  // input and a graph output classifies as input (consumers read the
  // caller's input buffer; the epilogue pass-through copy fills the
  // output buffer), matching the serial environment's insertion order.
  std::unordered_map<int64_t, uint32_t> ProducerOf; // id -> partition
  for (size_t I = 0; I < N; ++I)
    for (int64_t Out : Parts[I].Spec.Subgraph.outputs())
      ProducerOf.try_emplace(Out, static_cast<uint32_t>(I));
  std::unordered_map<int64_t, uint32_t> InputIdx, OutputIdx;
  for (size_t I = 0; I < InputIds.size(); ++I)
    InputIdx.try_emplace(InputIds[I], static_cast<uint32_t>(I));
  for (size_t I = 0; I < OutputIds.size(); ++I)
    OutputIdx.try_emplace(OutputIds[I], static_cast<uint32_t>(I));

  // Pass 1 — partition outputs, creating one scratch slot per
  // cross-partition intermediate in production (topological) order.
  std::unordered_map<int64_t, uint32_t> ScratchIdx;
  for (size_t I = 0; I < N; ++I) {
    const Graph &Sub = Parts[I].Spec.Subgraph;
    for (int64_t Out : Sub.outputs()) {
      if (auto It = InputIdx.find(Out); It != InputIdx.end())
        return Status::error(
            StatusCode::Internal,
            formatString("partition output t%lld is a graph input",
                         (long long)Out));
      if (auto It = OutputIdx.find(Out); It != OutputIdx.end()) {
        Plans[I].Outs.push_back({BoundRef::Loc::GraphOutput, It->second});
        continue;
      }
      ScratchSlot Slot;
      Slot.TensorId = Out;
      Slot.Meta = Sub.tensor(Out);
      Slot.Bytes = static_cast<size_t>(Slot.Meta.numElements()) *
                   dataTypeSize(Slot.Meta.Ty);
      const uint32_t Idx = static_cast<uint32_t>(ScratchSlots.size());
      ScratchIdx.try_emplace(Out, Idx);
      ScratchSlots.push_back(std::move(Slot));
      Plans[I].Outs.push_back({BoundRef::Loc::Scratch, Idx});
    }
  }

  // Pass 2 — partition inputs: argument resolution plus the dependency
  // edges (producer partition -> consumer partition) over boundary ids.
  std::vector<std::vector<uint32_t>> SlotConsumers(ScratchSlots.size());
  for (size_t I = 0; I < N; ++I) {
    const Graph &Sub = Parts[I].Spec.Subgraph;
    std::unordered_set<uint32_t> Preds;
    for (int64_t In : Sub.inputs()) {
      if (auto It = InputIdx.find(In); It != InputIdx.end()) {
        Plans[I].Ins.push_back({BoundRef::Loc::GraphInput, It->second});
        continue;
      }
      auto ProdIt = ProducerOf.find(In);
      if (ProdIt == ProducerOf.end())
        return Status::error(
            StatusCode::Internal,
            formatString("partition input t%lld was never produced",
                         (long long)In));
      const uint32_t Prod = ProdIt->second;
      // The serial walk, the reverse reachability sweep and the offset
      // packing below all rely on the partitioner's topological list
      // order (every edge points forward); verify it instead of
      // assuming, so a partitioner regression fails loudly here rather
      // than silently reading unwritten arena bytes.
      if (Prod > static_cast<uint32_t>(I))
        return Status::error(
            StatusCode::Internal,
            formatString("partition list is not topologically ordered: "
                         "t%lld is produced by partition %u but consumed "
                         "by partition %zu",
                         (long long)In, Prod, I));
      if (Prod != static_cast<uint32_t>(I))
        Preds.insert(Prod);
      if (auto It = OutputIdx.find(In); It != OutputIdx.end()) {
        Plans[I].Ins.push_back({BoundRef::Loc::GraphOutput, It->second});
        continue;
      }
      const uint32_t Slot = ScratchIdx.at(In);
      SlotConsumers[Slot].push_back(static_cast<uint32_t>(I));
      Plans[I].Ins.push_back({BoundRef::Loc::Scratch, Slot});
    }
    Plans[I].NumPreds = static_cast<uint32_t>(Preds.size());
    for (uint32_t P : Preds)
      Plans[P].Succs.push_back(static_cast<uint32_t>(I));
  }
  for (size_t I = 0; I < N; ++I)
    std::sort(Plans[I].Succs.begin(), Plans[I].Succs.end());

  // Lifetime-packed arena offsets. Reuse must be safe under *every*
  // DAG-consistent schedule, not just the serial list order: slot A's
  // storage may back slot B only when all of A's readers (and its
  // producer) are strict predecessors of B's producer in the partition
  // DAG. Reachability over so few partitions is cheap to materialize.
  const size_t NumSlots = ScratchSlots.size();
  if (NumSlots > 0) {
    std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
    // Partition list order is topological (edges point forward), so one
    // reverse sweep closes the relation.
    for (size_t I = N; I-- > 0;)
      for (uint32_t S : Plans[I].Succs) {
        Reach[I][S] = true;
        for (size_t J = 0; J < N; ++J)
          if (Reach[S][J])
            Reach[I][J] = true;
      }
    auto slotProducer = [&](size_t SlotI) {
      return ProducerOf.at(ScratchSlots[SlotI].TensorId);
    };
    // True when every use of slot A happens-before slot B's producer.
    auto diesBefore = [&](size_t A, size_t B) {
      const uint32_t ProdB = slotProducer(B);
      const uint32_t ProdA = slotProducer(A);
      if (ProdA == ProdB || !Reach[ProdA][ProdB])
        return false;
      for (uint32_t C : SlotConsumers[A])
        if (C == ProdB || !Reach[C][ProdB])
          return false;
      return true;
    };
    std::vector<size_t> Placed; // slot indices with assigned offsets
    for (size_t S = 0; S < NumSlots; ++S) {
      const size_t Bytes = ScratchSlots[S].Bytes;
      ArenaBytesNoReuse += alignUp(Bytes, runtime::kDefaultAlignment);
      // Collect the intervals this slot may not overlap: every placed
      // slot whose lifetime can coexist with ours under some schedule.
      std::vector<std::pair<size_t, size_t>> Busy;
      for (size_t P : Placed)
        if (!diesBefore(P, S) && !diesBefore(S, P))
          Busy.emplace_back(ScratchSlots[P].Offset,
                            ScratchSlots[P].Offset + ScratchSlots[P].Bytes);
      std::sort(Busy.begin(), Busy.end());
      size_t Offset = 0;
      for (const auto &[Lo, Hi] : Busy) {
        if (Bytes > 0 && Offset + Bytes <= Lo)
          break;
        Offset = std::max(Offset, alignUp(Hi, runtime::kDefaultAlignment));
      }
      ScratchSlots[S].Offset = Offset;
      Placed.push_back(S);
      ArenaBytes = std::max(ArenaBytes, Offset + Bytes);
    }
  }
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(core::CompileOptions Opts)
    : State(std::make_shared<detail::SessionState>()) {
  State->Opts = std::move(Opts);
  if (State->Opts.Threads > 0)
    State->Pool =
        std::make_shared<runtime::ThreadPool>(State->Opts.Threads);
  else
    State->Pool = core::globalThreadPool();
  runtime::ArtifactCache::Config DiskCfg;
  DiskCfg.Mode = State->Opts.CacheMode;
  DiskCfg.Dir = State->Opts.CacheDir;
  DiskCfg.MaxBytes = State->Opts.CacheMaxBytes;
  State->Disk = std::make_unique<runtime::ArtifactCache>(std::move(DiskCfg));
}

const core::CompileOptions &Session::options() const { return State->Opts; }

runtime::ThreadPool &Session::threadPool() const { return *State->Pool; }

size_t Session::cacheSize() const {
  std::lock_guard<std::mutex> Lock(State->CacheMutex);
  return State->Cache.size();
}

uint64_t Session::cacheHits() const { return State->Hits.load(); }

uint64_t Session::cacheMisses() const { return State->Misses.load(); }

uint64_t Session::diskCacheHits() const { return State->DiskHits.load(); }

uint64_t Session::diskCacheMisses() const {
  return State->DiskMisses.load();
}

uint64_t Session::diskCacheStores() const {
  return State->DiskStores.load();
}

void Session::clearCache() {
  std::lock_guard<std::mutex> Lock(State->CacheMutex);
  State->Cache.clear();
}

Stream Session::stream() {
  auto StreamSt = std::make_shared<detail::StreamState>();
  StreamSt->Pool = State->Pool;
  StreamSt->Health = State->Health;
  return Stream(std::move(StreamSt));
}

HealthStats Session::healthStats() const {
  const detail::HealthState &H = *State->Health;
  HealthStats S;
  S.TransientFailures = H.TransientFailures.load(std::memory_order_relaxed);
  S.DegradedToSerial = H.DegradedToSerial.load(std::memory_order_relaxed);
  S.DegradedToReference =
      H.DegradedToReference.load(std::memory_order_relaxed);
  S.CacheFallbacks = H.CacheFallbacks.load(std::memory_order_relaxed);
  S.CacheLockTimeouts = H.CacheLockTimeouts.load(std::memory_order_relaxed);
  S.DeadlinesExceeded = H.DeadlinesExceeded.load(std::memory_order_relaxed);
  S.Cancellations = H.Cancellations.load(std::memory_order_relaxed);
  S.MemLimitRejections =
      H.MemLimitRejections.load(std::memory_order_relaxed);
  return S;
}

Expected<CompiledGraphPtr> Session::compile(const Graph &G) {
  return detail::SessionState::compile(State, G);
}

Expected<CompiledGraphPtr>
detail::SessionState::compile(const std::shared_ptr<SessionState> &State,
                              const Graph &G) {
  // Always re-validate, finalized or not: the mutable op()/tensor()
  // accessors can invalidate a graph without clearing the finalized flag,
  // and validation is trivially cheap next to fingerprinting/compiling.
  if (const Status S = G.validate(); !S.isOk())
    return S;
  if (verify::verifyLevel() >= verify::VerifyLevel::Graph)
    if (Status S = verify::verifyGraph(G, "finalize"); !S.isOk())
      return S;

  // Dynamic-batch graphs become polymorphic shells: partition now (so
  // structural problems surface at compile() time, not first execution),
  // specialize and compile lazily per batch bucket at execution time.
  if (G.hasDynamicDims()) {
    Partitioner ScreenP(G);
    Expected<std::vector<PartitionSpec>> ScreenOr =
        ScreenP.partition(State->Opts.SplitIndependentPartitions);
    if (!ScreenOr)
      return ScreenOr.status();

    auto CG = std::make_shared<CompiledGraph>();
    CG->Polymorphic = true;
    // clone(WithConstData) deep-copies every constant payload into owned
    // storage (even payloads the caller attached as views), so the shell
    // can outlive the caller's graph.
    CG->SourceG = G.clone(/*WithConstData=*/true);
    CG->Sess = State;
    CG->Bucketing = State->Opts.Bucketing;
    CG->SpecCap =
        static_cast<size_t>(std::max(1, State->Opts.SpecCacheCap));
    CG->InputIds = G.inputs();
    CG->OutputIds = G.outputs();
    for (size_t I = 0; I < CG->InputIds.size(); ++I) {
      CG->InputMeta.push_back(G.tensor(CG->InputIds[I]));
      if (CG->InputMeta.back().hasDynamicBatch())
        CG->DynamicInputs.push_back(I);
    }
    for (size_t I = 0; I < CG->OutputIds.size(); ++I) {
      CG->OutputMeta.push_back(G.tensor(CG->OutputIds[I]));
      if (CG->OutputMeta.back().hasDynamicBatch())
        CG->DynamicOutputs.push_back(I);
    }
    if (CG->DynamicInputs.empty())
      return Status::error(
          StatusCode::InvalidGraph,
          "dynamic-batch graph has no dynamic graph input to read the "
          "concrete batch from");
    return CG;
  }

  Partitioner P(G);
  Expected<std::vector<PartitionSpec>> SpecsOr =
      P.partition(State->Opts.SplitIndependentPartitions);
  if (!SpecsOr)
    return SpecsOr.status();
  if (verify::verifyLevel() >= verify::VerifyLevel::Passes)
    for (size_t PI = 0; PI < SpecsOr.value().size(); ++PI)
      if (Status S = verify::verifyGraph(
              SpecsOr.value()[PI].Subgraph,
              formatString("partitioning (partition %zu)", PI).c_str());
          !S.isOk())
        return S;

  auto CG = std::make_shared<CompiledGraph>();
  CG->InputIds = G.inputs();
  CG->OutputIds = G.outputs();
  for (int64_t In : CG->InputIds)
    CG->InputMeta.push_back(G.tensor(In));
  for (int64_t Out : CG->OutputIds)
    CG->OutputMeta.push_back(G.tensor(Out));
  {
    // A tensor listed as output more than once is produced once and
    // copied into the remaining caller buffers after execution.
    std::unordered_map<int64_t, size_t> FirstOut;
    for (size_t OI = 0; OI < CG->OutputIds.size(); ++OI) {
      const auto [It, Inserted] =
          FirstOut.try_emplace(CG->OutputIds[OI], OI);
      if (!Inserted)
        CG->DuplicateOutputs.emplace_back(OI, It->second);
    }
  }

  for (PartitionSpec &Spec : SpecsOr.value()) {
    CompiledGraph::Part Part;
    if (Spec.Kind == PartitionKind::Compiled) {
      const uint64_t Key = Spec.Subgraph.fingerprint();
      {
        std::lock_guard<std::mutex> Lock(State->CacheMutex);
        auto It = State->Cache.find(Key);
        if (It != State->Cache.end() &&
            boundaryMatches(Spec.Subgraph, *It->second)) {
          State->Hits.fetch_add(1);
          Part.Compiled = It->second;
        }
      }
      if (!Part.Compiled) {
        State->Misses.fetch_add(1);
        // Persistent artifact cache: on an in-memory miss, try the disk
        // before paying a compile.
        std::shared_ptr<core::CompiledPartition> Compiled;
        std::shared_ptr<runtime::FileLock> StoreLock;
        uint64_t DiskKey = 0;
        if (State->Disk->enabled()) {
          DiskKey = core::artifactCacheKey(Key, State->Opts,
                                           State->Pool->numThreads());
          Compiled = tryDiskLoad(*State, DiskKey, Spec.Subgraph);
          if (!Compiled && State->Disk->writable()) {
            // Cold entry: take the cross-process per-key lock for the
            // compile-and-store. Re-check under the lock first — a peer
            // process may have published while we waited, making this an
            // exactly-once compile per key across the fleet. If locking
            // itself fails (the bounded GC_CACHE_LOCK_MS wait expired, or
            // injection at "cache.flock"), compile without it — worst
            // case duplicate work, last atomic rename wins.
            Expected<std::shared_ptr<runtime::FileLock>> LockOr =
                State->Disk->lockEntry(DiskKey);
            if (LockOr) {
              StoreLock = std::move(LockOr.value());
              Compiled = tryDiskLoad(*State, DiskKey, Spec.Subgraph);
            } else {
              if (isTransient(LockOr.status().code()))
                State->Health->TransientFailures.fetch_add(1);
              State->Health->CacheFallbacks.fetch_add(1);
              if (LockOr.status().code() == StatusCode::Unavailable)
                State->Health->CacheLockTimeouts.fetch_add(1);
              State->Health->warnOnce("disk-cache",
                                      LockOr.status().toString().c_str());
            }
          }
          if (Compiled) {
            State->DiskHits.fetch_add(1);
            StoreLock.reset();
          } else {
            State->DiskMisses.fetch_add(1);
          }
        }
        if (!Compiled) {
          Expected<std::shared_ptr<core::CompiledPartition>> CompiledOr =
              core::compilePartition(Spec.Subgraph, State->Opts, State->Pool);
          if (CompiledOr) {
            Compiled = CompiledOr.value();
            if (StoreLock) {
              // The payload streams into the entry's temp file as the
              // codec writes it, under the per-key lock taken above.
              const auto Encode = [&](ByteWriter &W) {
                core::ArtifactCodec::encode(*Compiled, W);
              };
              if (State->Disk->store(DiskKey, Encode).isOk())
                State->DiskStores.fetch_add(1);
            }
          } else if (CompiledOr.status().code() == StatusCode::Unsupported) {
            // The partitioner's static screen was too optimistic; run this
            // partition on the interpreter instead of failing the graph.
            // The verdict is not cached: a later compile of the same
            // subgraph tries the pipeline again.
            Spec.Kind = PartitionKind::Fallback;
          } else if (isTransient(CompiledOr.status().code())) {
            // Graceful degradation: a transient compile failure (injection
            // at "compile.bytecode", resource pressure) serves this
            // partition on the interpreter for this compile only. Nothing
            // is cached, so the next compile of the subgraph retries.
            State->Health->TransientFailures.fetch_add(1);
            State->Health->DegradedToReference.fetch_add(1);
            State->Health->warnOnce("reference",
                                    CompiledOr.status().toString().c_str());
            Spec.Kind = PartitionKind::Fallback;
            CG->Degraded = true;
          } else {
            return CompiledOr.status();
          }
          StoreLock.reset();
        }
        if (Compiled) {
          std::lock_guard<std::mutex> Lock(State->CacheMutex);
          // Keep the first entry when two threads raced on the same key so
          // later compiles observe one canonical partition — but only when
          // that entry really is the same subgraph. On a fingerprint
          // collision the cached partition belongs to a different graph;
          // serve the freshly compiled one uncached instead of executing
          // the colliding entry's code.
          const auto [It, Inserted] = State->Cache.try_emplace(Key, Compiled);
          Part.Compiled = Inserted ||
                                  boundaryMatches(Spec.Subgraph, *It->second)
                              ? It->second
                              : Compiled;
        }
      }
    }
    // Settle constant ownership: compiled partitions own their copy (in
    // CompiledPartition::OptimizedG + fold cache), so the spec's views are
    // dropped; fallback subgraphs deep-copy theirs since the CompiledGraph
    // may outlive the source graph.
    if (Part.Compiled)
      Spec.Subgraph.dropConstantData();
    else
      Spec.Subgraph.materializeConstantData();
    Part.Spec = std::move(Spec);
    CG->Parts.push_back(std::move(Part));
  }

  // Every graph output must be produced by a partition or be a verbatim
  // copy of a graph input (pass-through edge).
  std::unordered_set<int64_t> Produced;
  for (const CompiledGraph::Part &Part : CG->Parts)
    for (int64_t Out : Part.Spec.Subgraph.outputs())
      Produced.insert(Out);
  for (size_t OI = 0; OI < CG->OutputIds.size(); ++OI) {
    const int64_t Out = CG->OutputIds[OI];
    if (Produced.count(Out))
      continue;
    bool Found = false;
    for (size_t II = 0; II < CG->InputIds.size(); ++II)
      if (CG->InputIds[II] == Out) {
        CG->Passthrough.emplace_back(OI, II);
        Found = true;
        break;
      }
    if (!Found)
      return Status::error(
          StatusCode::Unsupported,
          formatString("graph output t%lld is produced by no op and is not "
                       "a graph input",
                       (long long)Out));
  }
  CG->Direct = CG->Parts.size() == 1 && CG->Parts[0].Compiled &&
               CG->Passthrough.empty() && CG->DuplicateOutputs.empty() &&
               CG->Parts[0].Spec.Subgraph.inputs() == CG->InputIds &&
               CG->Parts[0].Spec.Subgraph.outputs() == CG->OutputIds;
  if (Status S = CG->buildExecutionPlan(); !S.isOk())
    return S;
  if (verify::verifyLevel() >= verify::VerifyLevel::All) {
    // Re-express the finished plan in boundary-id terms and hand it to
    // the independent alias checker (verify/memplan_verifier.cpp), which
    // recomputes reachability and lifetimes from scratch.
    verify::MemoryPlanView View;
    for (const CompiledGraph::Part &Part : CG->Parts) {
      verify::MemoryPlanView::Partition VP;
      VP.Inputs = Part.Spec.Subgraph.inputs();
      VP.Outputs = Part.Spec.Subgraph.outputs();
      View.Partitions.push_back(std::move(VP));
    }
    View.GraphInputs = CG->InputIds;
    View.GraphOutputs = CG->OutputIds;
    for (const CompiledGraph::ScratchSlot &Slot : CG->ScratchSlots)
      View.Slots.push_back({Slot.TensorId, Slot.Offset, Slot.Bytes});
    View.ArenaBytes = CG->ArenaBytes;
    if (Status S = verify::verifyMemoryPlan(View, "execution planning");
        !S.isOk())
      return S;
  }
  return CG;
}

//===----------------------------------------------------------------------===//
// Stream
//===----------------------------------------------------------------------===//

Status Stream::execute(const CompiledGraph &CG,
                       const std::vector<runtime::TensorData *> &Inputs,
                       const std::vector<runtime::TensorData *> &Outputs)
    const {
  // Batch-polymorphic shells resolve to a static specialization first
  // (with their own dynamic-aware boundary validation); only a
  // bucket-exact batch comes back to run here.
  if (CG.Polymorphic) {
    Expected<CompiledGraphPtr> ExactOr =
        resolvePolymorphic(CG, Inputs, Outputs);
    if (!ExactOr)
      return ExactOr.status();
    return *ExactOr ? execute(**ExactOr, Inputs, Outputs) : Status::ok();
  }

  if (Status S = detail::Submission::validateBoundary(CG, Inputs, Outputs);
      !S.isOk())
    return S;

  // Whole-graph single compiled partition: hand the caller tensors over
  // without touching the plan machinery.
  if (CG.Direct)
    return CG.Parts[0].Compiled->execute(Inputs, Outputs);

  // Serial in-order walk over the execution plan: partition arguments
  // resolve by precomputed index, cross-partition intermediates live in
  // an arena leased from the stream and recycled across executions.
  Expected<std::unique_ptr<runtime::PlanArena>> ArenaOr =
      State->acquireArena(CG.ArenaBytes);
  if (!ArenaOr) {
    if (State->Health) {
      State->Health->TransientFailures.fetch_add(1);
      if (ArenaOr.status().code() == StatusCode::ResourceExhausted)
        State->Health->MemLimitRejections.fetch_add(1);
    }
    return ArenaOr.status();
  }
  std::unique_ptr<runtime::PlanArena> Arena = ArenaOr.takeValue();
  std::vector<runtime::TensorData> Views;
  detail::Submission::buildScratchViews(CG, *Arena, Views);

  Status Result = Status::ok();
  std::vector<runtime::TensorData *> Ins, Outs;
  for (size_t I = 0; I < CG.Parts.size(); ++I) {
    const CompiledGraph::PartitionPlan &Plan = CG.Plans[I];
    Ins.clear();
    Outs.clear();
    Ins.reserve(Plan.Ins.size());
    Outs.reserve(Plan.Outs.size());
    for (const CompiledGraph::BoundRef &Ref : Plan.Ins)
      Ins.push_back(
          detail::Submission::resolveRef(Ref, Inputs, Outputs, Views));
    for (const CompiledGraph::BoundRef &Ref : Plan.Outs)
      Outs.push_back(
          detail::Submission::resolveRef(Ref, Inputs, Outputs, Views));
    Result = detail::Submission::runPartition(CG, I, Ins, Outs);
    if (!Result.isOk())
      break;
  }
  if (Result.isOk())
    detail::Submission::copyEpilogue(CG, Inputs, Outputs);

  Views.clear(); // views into the arena die before it is recycled
  State->releaseArena(std::move(Arena));
  return Result;
}

Expected<CompiledGraphPtr> Stream::resolvePolymorphic(
    const CompiledGraph &CG,
    const std::vector<runtime::TensorData *> &Inputs,
    const std::vector<runtime::TensorData *> &Outputs) const {
  Expected<int64_t> BatchOr =
      detail::Submission::resolveDynamicBatch(CG, Inputs, Outputs);
  if (!BatchOr)
    return BatchOr.status();
  const int64_t Batch = *BatchOr;
  const int64_t Bucket = core::batchBucket(Batch, CG.Bucketing);
  Expected<CompiledGraphPtr> SpecOr = CG.specializationForBucket(Bucket);
  if (!SpecOr) {
    if (!isTransient(SpecOr.status().code()))
      return SpecOr.status();
    // Graceful degradation, bucketed specialization -> reference: when
    // the bucket specialization cannot be produced (injection at
    // "spec.compile", GC_MEM_LIMIT pressure), interpret an exact-batch
    // specialization of the source graph. Slow, but bit-identical — the
    // reference evaluator is the ground truth the compiled paths are
    // tested against — and the session stays available.
    if (CG.Sess && CG.Sess->Health) {
      CG.Sess->Health->TransientFailures.fetch_add(1);
      CG.Sess->Health->DegradedToReference.fetch_add(1);
      CG.Sess->Health->warnOnce("reference",
                                SpecOr.status().toString().c_str());
    }
    Expected<Graph> ExactOr = core::specializeForBatch(CG.SourceG, Batch);
    if (!ExactOr)
      return SpecOr.status();
    if (Status S = detail::Submission::runReference(*ExactOr, Inputs,
                                                    Outputs);
        !S.isOk())
      return S;
    return CompiledGraphPtr();
  }
  // Bucket-exact batches bind the caller tensors directly; the caller
  // runs the specialization its own way.
  if (Bucket == Batch)
    return SpecOr;

  // Padded execution: dynamic inputs are copied into zero-padded
  // bucket-sized buffers, dynamic outputs computed into bucket-sized
  // buffers and row-clipped back. The dim-0 flow rules enforced at
  // validation make every output row a function of the matching input
  // rows only, so the clipped rows are bit-identical to an exact-shape
  // compile; the zero rows beyond the batch never feed them.
  std::vector<runtime::TensorData> PaddedIn, PaddedOut;
  PaddedIn.reserve(CG.DynamicInputs.size());
  PaddedOut.reserve(CG.DynamicOutputs.size());
  std::vector<runtime::TensorData *> Ins = Inputs, Outs = Outputs;
  for (size_t Idx : CG.DynamicInputs) {
    const runtime::TensorData *Src = Inputs[Idx];
    std::vector<int64_t> Shape = Src->shape();
    Shape[0] = Bucket;
    PaddedIn.emplace_back(Src->dtype(), std::move(Shape)); // zero-filled
    std::memcpy(PaddedIn.back().data(), Src->data(),
                static_cast<size_t>(Src->numBytes()));
    Ins[Idx] = &PaddedIn.back();
  }
  for (size_t Idx : CG.DynamicOutputs) {
    std::vector<int64_t> Shape = Outputs[Idx]->shape();
    Shape[0] = Bucket;
    PaddedOut.emplace_back(Outputs[Idx]->dtype(), std::move(Shape));
    Outs[Idx] = &PaddedOut.back();
  }
  if (Status S = execute(**SpecOr, Ins, Outs); !S.isOk())
    return S;
  for (size_t I = 0; I < CG.DynamicOutputs.size(); ++I) {
    runtime::TensorData *Dst = Outputs[CG.DynamicOutputs[I]];
    std::memcpy(Dst->data(), PaddedOut[I].data(),
                static_cast<size_t>(Dst->numBytes()));
  }
  return CompiledGraphPtr();
}

Event Stream::submit(const CompiledGraphPtr &CG,
                     const std::vector<runtime::TensorData *> &Inputs,
                     const std::vector<runtime::TensorData *> &Outputs)
    const {
  return submit(CG, Inputs, Outputs, SubmitOptions{});
}

Event Stream::submit(const CompiledGraphPtr &CG,
                     const std::vector<runtime::TensorData *> &Inputs,
                     const std::vector<runtime::TensorData *> &Outputs,
                     const SubmitOptions &Opts) const {
  if (!CG)
    return Event(detail::Submission::completed(Status::error(
        StatusCode::InvalidArgument, "submit: null compiled graph")));
  // A non-positive deadline is already missed at submit time: nothing
  // runs, including the synchronous shortcut paths below.
  if (Opts.TimeoutMs < 0) {
    if (State->Health)
      State->Health->DeadlinesExceeded.fetch_add(1);
    return Event(detail::Submission::completed(Status::error(
        StatusCode::DeadlineExceeded,
        "submit: deadline already expired at submission")));
  }
  // Polymorphic shells: a bucket-exact batch submits its specialization
  // (fully asynchronous, deadline armed). A padded or reference-degraded
  // batch has already run synchronously inside resolvePolymorphic() —
  // the padded buffers live on its stack frame — and returns a
  // completed event.
  if (CG->Polymorphic) {
    Expected<CompiledGraphPtr> ExactOr =
        resolvePolymorphic(*CG, Inputs, Outputs);
    if (ExactOr && *ExactOr)
      return submit(*ExactOr, Inputs, Outputs, Opts);
    return Event(detail::Submission::completed(ExactOr.status()));
  }
  // Single-partition graphs have nothing to overlap: run synchronously on
  // the caller, keeping full loop-level parallelism, and return a
  // completed event (execute validates). The deadline is not observed
  // mid-run — see SubmitOptions::TimeoutMs.
  if (CG->Parts.size() <= 1)
    return Event(detail::Submission::completed(
        execute(*CG, Inputs, Outputs)));
  if (Status S = detail::Submission::validateBoundary(*CG, Inputs, Outputs);
      !S.isOk())
    return Event(detail::Submission::completed(std::move(S)));
  return Event(detail::Submission::launch(CG, State, Inputs, Outputs,
                                          Opts.TimeoutMs));
}

} // namespace api
} // namespace gc
