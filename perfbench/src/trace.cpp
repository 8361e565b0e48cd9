//===- trace.cpp - Spans, kernel counters and the staged pipeline ---------===//

#include "trace.h"

#include "bench.h"
#include "exec/program.h"
#include "kernels/brgemm.h"
#include "passes/pass.h"
#include "tirpass/tirpass.h"
#include "verify/verify.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

using namespace gc;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Spans and counters
//===----------------------------------------------------------------------===//

namespace tracer {
namespace {

struct Rec {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int64_t Parent;
  uint64_t Op;
  uint32_t Tid;
};

std::atomic<bool> Enabled{false};
std::mutex Mu; // guards Recs and Counters
std::vector<Rec> Recs;
std::map<std::string, double> Counters;
std::atomic<uint32_t> NextTid{0};
thread_local int64_t CurParent = -1;
thread_local uint32_t ThisTid = NextTid.fetch_add(1);
const Clock::time_point Epoch = Clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

} // namespace

void enable(bool On) { Enabled.store(On); }

Span::Span(const char *Name, uint64_t Op) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  const int64_t T = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  if (Op == 0 && CurParent >= 0)
    Op = Recs[static_cast<size_t>(CurParent)].Op;
  Index = static_cast<int64_t>(Recs.size());
  Recs.push_back({Name, T, T, CurParent, Op, ThisTid});
  CurParent = Index;
}

Span::~Span() {
  if (Index < 0)
    return;
  const int64_t T = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Recs[static_cast<size_t>(Index)].EndNs = T;
  CurParent = Recs[static_cast<size_t>(Index)].Parent;
}

std::map<std::string, Totals> totals(const char *Within) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<int64_t> ChildNs(Recs.size(), 0);
  for (const Rec &R : Recs)
    if (R.Parent >= 0)
      ChildNs[static_cast<size_t>(R.Parent)] += R.EndNs - R.StartNs;
  const auto Inside = [&](const Rec &R) {
    for (int64_t P = R.Parent; P >= 0; P = Recs[static_cast<size_t>(P)].Parent)
      if (std::string(Recs[static_cast<size_t>(P)].Name) == Within)
        return true;
    return false;
  };
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I < Recs.size(); ++I) {
    if (Within && !Inside(Recs[I]))
      continue;
    const double Ms =
        static_cast<double>(Recs[I].EndNs - Recs[I].StartNs) / 1e6;
    Totals &T = Out[Recs[I].Name];
    T.Ms += Ms;
    T.SelfMs += Ms - static_cast<double>(ChildNs[I]) / 1e6;
    ++T.Count;
  }
  return Out;
}

void count(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Value;
}

double counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  const auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second;
}

void clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Recs.clear();
  Counters.clear();
}

bool writeChromeTrace(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Recs.size(); ++I) {
    const Rec &R = Recs[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}\n",
                 I ? "," : "", R.Name, R.Tid,
                 static_cast<double>(R.StartNs) / 1e3,
                 static_cast<double>(R.EndNs - R.StartNs) / 1e3, I,
                 static_cast<long long>(R.Parent),
                 static_cast<unsigned long long>(R.Op));
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace tracer

//===----------------------------------------------------------------------===//
// Kernel trampolines
//===----------------------------------------------------------------------===//

namespace {

using tir::Intrinsic;
constexpr size_t kNumIn = tir::kNumIntrinsics;

KernelFamily familyOf(Intrinsic In) {
  switch (In) {
  case Intrinsic::BrgemmF32:
    return KernelFamily::BrgemmF32;
  case Intrinsic::BrgemmU8S8:
    return KernelFamily::BrgemmU8S8;
  case Intrinsic::ReduceSumRowsTile:
  case Intrinsic::ReduceMaxRowsTile:
    return KernelFamily::Reduce;
  case Intrinsic::DequantAccTile:
  case Intrinsic::QuantU8Tile:
  case Intrinsic::QuantS8Tile:
  case Intrinsic::DequantU8Tile:
  case Intrinsic::DequantS8PerChannelTile:
  case Intrinsic::CastS32F32Tile:
    return KernelFamily::Quant;
  case Intrinsic::CopyTile:
  case Intrinsic::CopyTileRaw:
  case Intrinsic::TransposeTile:
  case Intrinsic::Permute0213:
  case Intrinsic::FillTile:
  case Intrinsic::PackAF32:
  case Intrinsic::PackAU8:
  case Intrinsic::PackBF32:
  case Intrinsic::PackBS8Vnni:
  case Intrinsic::UnpackAF32:
  case Intrinsic::UnpackAU8:
    return KernelFamily::Move;
  default:
    return KernelFamily::Eltwise;
  }
}

/// Bytes a call reads plus bytes it writes, from its scalar arguments
/// (tir/intrinsics.h conventions); computed, not measured.
double callBytes(Intrinsic In, const int64_t *SI) {
  const double R = static_cast<double>(SI[0]), C = static_cast<double>(SI[1]);
  switch (In) {
  case Intrinsic::BrgemmF32:
  case Intrinsic::BrgemmU8S8: {
    const double K = static_cast<double>(SI[2]), B = static_cast<double>(SI[8]);
    const double Elem = In == Intrinsic::BrgemmF32 ? 4.0 : 1.0;
    return Elem * B * (R * K + K * C) + 4.0 * R * C * (SI[9] ? 1.0 : 2.0);
  }
  case Intrinsic::AddTile:
  case Intrinsic::SubTile:
  case Intrinsic::MulTile:
  case Intrinsic::DivTile:
  case Intrinsic::MaxTile:
  case Intrinsic::MinTile:
    return 12.0 * R * C;
  case Intrinsic::AddRowVecTile:
  case Intrinsic::SubRowVecTile:
  case Intrinsic::MulRowVecTile:
    return 8.0 * R * C + 4.0 * C;
  case Intrinsic::AddColVecTile:
  case Intrinsic::SubColVecTile:
  case Intrinsic::MulColVecTile:
  case Intrinsic::DivColVecTile:
  case Intrinsic::ReduceSumRowsTile:
  case Intrinsic::ReduceMaxRowsTile:
    return 8.0 * R * C + 4.0 * R;
  case Intrinsic::FillTile:
    return 4.0 * R * C;
  case Intrinsic::CopyTileRaw:
    return 2.0 * R * C * static_cast<double>(SI[4]);
  case Intrinsic::Permute0213:
    return 2.0 * R * C * static_cast<double>(SI[2]) *
           static_cast<double>(SI[3]) * static_cast<double>(SI[4]);
  case Intrinsic::QuantU8Tile:
  case Intrinsic::QuantS8Tile:
  case Intrinsic::DequantU8Tile:
  case Intrinsic::DequantS8PerChannelTile:
    return 5.0 * R * C;
  case Intrinsic::PackAU8:
  case Intrinsic::PackBS8Vnni:
  case Intrinsic::UnpackAU8:
    return 2.0 * R * C;
  default: // f32 unary tiles, copies, transposes, dequant/cast, f32 packs
    return 8.0 * R * C;
  }
}

struct ThreadSlot {
  uint64_t Calls[kNumIn] = {};
  uint64_t Ns[kNumIn] = {};
  double Flops[kNumIn] = {};
  double Bytes[kNumIn] = {};
};

std::mutex SlotMu; // guards Slots
std::vector<std::unique_ptr<ThreadSlot>> Slots;
thread_local ThreadSlot *Tls = nullptr;

ThreadSlot &slot() {
  if (!Tls) {
    std::lock_guard<std::mutex> Lock(SlotMu);
    Slots.push_back(std::make_unique<ThreadSlot>());
    Tls = Slots.back().get();
  }
  return *Tls;
}

exec::KernelFn Adapters[kNumIn] = {};
std::atomic<bool> Blockings{false};
std::mutex BlockMu; // guards BlockCounts
std::map<std::array<int64_t, 6>, uint64_t> BlockCounts;

void noteBlocking(Intrinsic In, const int64_t *SI) {
  const std::array<int64_t, 6> Key = {static_cast<int64_t>(In), SI[0], SI[1],
                                      SI[2], SI[8], SI[4]};
  std::lock_guard<std::mutex> Lock(BlockMu);
  ++BlockCounts[Key];
}

template <size_t I>
void trampoline(void *const *P, const int64_t *SI, const double *SF) {
  constexpr Intrinsic In = static_cast<Intrinsic>(I);
  ThreadSlot &S = slot();
  const Clock::time_point T0 = Clock::now();
  Adapters[I](P, SI, SF);
  const Clock::time_point T1 = Clock::now();
  ++S.Calls[I];
  S.Ns[I] += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  S.Bytes[I] += callBytes(In, SI);
  if constexpr (In == Intrinsic::BrgemmF32 || In == Intrinsic::BrgemmU8S8) {
    S.Flops[I] += 2.0 * static_cast<double>(SI[0]) *
                  static_cast<double>(SI[1]) * static_cast<double>(SI[2]) *
                  static_cast<double>(SI[8]);
    if (Blockings.load(std::memory_order_relaxed))
      noteBlocking(In, SI);
  }
}

template <size_t... Is>
constexpr std::array<exec::KernelFn, kNumIn>
makeTrampolines(std::index_sequence<Is...>) {
  return {&trampoline<Is>...};
}

constexpr std::array<exec::KernelFn, kNumIn> Trampolines =
    makeTrampolines(std::make_index_sequence<kNumIn>{});

} // namespace

const char *familyName(KernelFamily F) {
  static const char *const Names[kNumFamilies] = {
      "brgemm_f32", "brgemm_u8s8", "eltwise", "reduce", "quant", "move"};
  return Names[static_cast<int>(F)];
}

double KernelTotals::busyMs() const {
  double Sum = 0;
  for (double Ms : BusyMs)
    Sum += Ms;
  return Sum;
}

std::shared_ptr<const exec::Program>
instrumentProgram(const exec::Program &P) {
  static std::once_flag Once;
  std::call_once(Once, [] {
    for (size_t I = 0; I < kNumIn; ++I)
      Adapters[I] = exec::kernelAdapter(static_cast<Intrinsic>(I));
  });
  auto Copy = std::make_shared<exec::Program>(P);
  for (exec::CallDesc &C : Copy->Calls)
    C.Fn = Trampolines[static_cast<size_t>(C.In)];
  return Copy;
}

void resetKernelStats() {
  std::lock_guard<std::mutex> Lock(SlotMu);
  for (auto &S : Slots)
    *S = ThreadSlot();
  std::lock_guard<std::mutex> BLock(BlockMu);
  BlockCounts.clear();
}

KernelTotals kernelTotals() {
  KernelTotals T;
  std::lock_guard<std::mutex> Lock(SlotMu);
  for (const auto &S : Slots)
    for (size_t I = 0; I < kNumIn; ++I) {
      const Intrinsic In = static_cast<Intrinsic>(I);
      const int F = static_cast<int>(familyOf(In));
      const double Ms = static_cast<double>(S->Ns[I]) / 1e6;
      T.Calls[F] += S->Calls[I];
      T.BusyMs[F] += Ms;
      T.Bytes += S->Bytes[I];
      if (In == Intrinsic::BrgemmF32 || In == Intrinsic::BrgemmU8S8) {
        T.BrgemmFlops += S->Flops[I];
        T.BrgemmMs += Ms;
      }
    }
  return T;
}

void recordBlockings(bool On) { Blockings.store(On); }

Blocking mostCalledBlocking() {
  std::lock_guard<std::mutex> Lock(BlockMu);
  Blocking B;
  for (const auto &[Key, Calls] : BlockCounts)
    if (Calls > B.Calls) {
      B.In = static_cast<Intrinsic>(Key[0]);
      B.M = Key[1];
      B.N = Key[2];
      B.K = Key[3];
      B.Batch = Key[4];
      B.NPadded = Key[5];
      B.Calls = Calls;
    }
  return B;
}

double brgemmAloneGflops(const Blocking &B, double Seconds) {
  if (B.Calls == 0)
    return 0;
  const double Flops = 2.0 * static_cast<double>(B.M) *
                       static_cast<double>(B.N) * static_cast<double>(B.K) *
                       static_cast<double>(B.Batch);
  std::function<void()> Call;
  std::vector<float> Af, Bf, Cf;
  std::vector<uint8_t> Au;
  std::vector<int8_t> Bs;
  std::vector<int32_t> Cs;
  if (B.In == Intrinsic::BrgemmF32) {
    Af.assign(static_cast<size_t>(B.Batch * B.M * B.K), 0.25f);
    Bf.assign(static_cast<size_t>(B.Batch * B.K * B.N), 0.5f);
    Cf.assign(static_cast<size_t>(B.M * B.N), 0.0f);
    kernels::BrgemmF32Args A;
    A.A = Af.data();
    A.AStrideBatch = B.M * B.K;
    A.Lda = B.K;
    A.B = Bf.data();
    A.BStrideBatch = B.K * B.N;
    A.Ldb = B.N;
    A.C = Cf.data();
    A.Ldc = B.N;
    A.M = B.M;
    A.N = B.N;
    A.K = B.K;
    A.Batch = B.Batch;
    const kernels::BrgemmF32Fn Fn =
        kernels::selectActiveKernel(kernels::brgemmF32ForTier);
    Call = [Fn, A] { Fn(A); };
  } else {
    const int64_t K4 = (B.K + 3) / 4 * 4;
    const int64_t NP = std::max(B.NPadded, B.N);
    Au.assign(static_cast<size_t>(B.Batch * B.M * K4), 3);
    Bs.assign(static_cast<size_t>(B.Batch * K4 * NP), 2);
    Cs.assign(static_cast<size_t>(B.M * B.N), 0);
    kernels::BrgemmU8S8Args A;
    A.A = Au.data();
    A.AStrideBatch = B.M * K4;
    A.Lda = K4;
    A.B = Bs.data();
    A.BStrideBatch = K4 * NP;
    A.NPadded = NP;
    A.C = Cs.data();
    A.Ldc = B.N;
    A.M = B.M;
    A.N = B.N;
    A.K = B.K;
    A.Batch = B.Batch;
    const kernels::BrgemmU8S8Fn Fn =
        kernels::selectActiveKernel(kernels::brgemmU8S8ForTier);
    Call = [Fn, A] { Fn(A); };
  }
  for (int I = 0; I < 16; ++I) // warm caches
    Call();
  uint64_t Calls = 0;
  const Clock::time_point Start = Clock::now();
  double Elapsed = 0;
  do {
    for (int I = 0; I < 64; ++I)
      Call();
    Calls += 64;
    Elapsed = msBetween(Start, Clock::now()) / 1e3;
  } while (Elapsed < Seconds);
  return Flops * static_cast<double>(Calls) / Elapsed / 1e9;
}

//===----------------------------------------------------------------------===//
// Staged pipeline
//===----------------------------------------------------------------------===//

Expected<std::unique_ptr<StagedPartition>>
stageCompile(const graph::Graph &Sub, const core::CompileOptions &Opts,
             int Threads) {
  auto P = std::make_unique<StagedPartition>();
  P->Optimized = Sub.clone();

  passes::PassOptions PassOpts;
  PassOpts.Threads = Threads;
  PassOpts.FastSoftmax = Opts.FastSoftmax;
  PassOpts.EnableLowPrecision = Opts.EnableLowPrecision;
  PassOpts.EnableFineGrainFusion = Opts.EnableFineGrainFusion;
  PassOpts.EnableLayoutPropagation = Opts.EnableLayoutPropagation;
  PassOpts.PrimitivesMode = Opts.PrimitivesMode;
  {
    tracer::Span S("passes.run");
    passes::PassManager PM(PassOpts);
    for (auto &Pass : passes::buildStandardPipeline(PassOpts))
      PM.addPass(std::move(Pass));
    if (const Status St = PM.run(P->Optimized); !St.isOk())
      return St;
  }
  int Fused = 0;
  for (int64_t Id : P->Optimized.opIds())
    if (P->Optimized.op(Id).kind() == graph::OpKind::FusedOp)
      ++Fused;
  tracer::count("passes.ops_out", static_cast<double>(P->Optimized.numOps()));
  tracer::count("passes.fused_regions", Fused);

  lower::DriverOptions DrvOpts;
  DrvOpts.Threads = Threads;
  DrvOpts.EnableCoarseGrainFusion = Opts.EnableCoarseGrainFusion;
  DrvOpts.EnableBufferReuse = Opts.EnableBufferReuse;
  {
    tracer::Span S("lower.lowerGraph");
    Expected<lower::LoweredProgram> LP =
        lower::lowerGraph(P->Optimized, DrvOpts);
    if (!LP)
      return LP.status();
    P->Lowered = LP.takeValue();
  }
  // lowerGraph already compiled the bytecode; compiling the same entry
  // again times that stage alone (lower.ms is lowerGraph minus this).
  std::shared_ptr<const exec::Program> Recompiled;
  {
    tracer::Span S("exec.compileProgram");
    Recompiled = exec::compileProgram(P->Lowered.Entry);
  }
  tracer::count("exec.instrs", static_cast<double>(Recompiled->Code.size()));
  tracer::count("exec.call_sites",
                static_cast<double>(Recompiled->Calls.size()));
  {
    tracer::Span S("verify.compile");
    Status St = Status::ok();
    {
      tracer::Span V("verify.verifyGraph");
      St = verify::verifyGraph(P->Optimized, "perfbench");
    }
    if (St.isOk()) {
      tracer::Span V("verify.verifyFunc");
      St = verify::verifyFunc(P->Lowered.Entry, "perfbench");
    }
    if (St.isOk()) {
      tracer::Span V("verify.verifyProgram");
      St = verify::verifyProgram(*P->Lowered.Bytecode, "perfbench");
    }
    if (!St.isOk())
      return St;
  }
  const tir::Func &Entry = P->Lowered.Entry;
  tracer::count("tirpass.parallel_nests", tirpass::countParallelNests(Entry));
  tracer::count("tirpass.coarse_merges", P->Lowered.CoarseGrainMerges);
  tracer::count("tirpass.arena_kb",
                static_cast<double>(Entry.ArenaBytes) / 1024);
  tracer::count("tirpass.arena_noreuse_kb",
                static_cast<double>(Entry.ArenaBytesNoReuse) / 1024);
  {
    tracer::Span S("core.runFoldGraph");
    core::runFoldGraph(P->Lowered.FoldGraph, P->Lowered.FoldOutputs,
                       P->Folded);
  }
  tracer::count("core.folded_mb",
                static_cast<double>(P->Folded.totalBytes()) / (1 << 20));
  P->Instrumented = instrumentProgram(*P->Lowered.Bytecode);
  P->SourceInputs = Sub.inputs();
  P->SourceOutputs = Sub.outputs();
  return P;
}

std::unique_ptr<exec::Executor> bindStaged(StagedPartition &P,
                                           const TensorBinding &Tensors,
                                           runtime::ThreadPool &Pool) {
  // Boundary tensors bind by position: the optimized graph keeps the
  // subgraph's input and output order.
  const auto Boundary = [&](const std::vector<int64_t> &Opt,
                            const std::vector<int64_t> &Src,
                            int64_t Id) -> void * {
    for (size_t I = 0; I < Opt.size() && I < Src.size(); ++I)
      if (Opt[I] == Id) {
        const auto It = Tensors.find(Src[I]);
        return It == Tensors.end() ? nullptr : It->second->data();
      }
    return nullptr;
  };
  auto E = std::make_unique<exec::Executor>(P.Instrumented, Pool);
  for (const lower::Binding &B : P.Lowered.Bindings) {
    void *Ptr = nullptr;
    switch (B.Kind) {
    case lower::BindingKind::Input:
      Ptr = Boundary(P.Optimized.inputs(), P.SourceInputs, B.TensorId);
      break;
    case lower::BindingKind::Output:
      Ptr = Boundary(P.Optimized.outputs(), P.SourceOutputs, B.TensorId);
      break;
    case lower::BindingKind::Folded:
      if (const runtime::TensorData *T = P.Folded.get(B.TensorId))
        Ptr = const_cast<void *>(T->data());
      break;
    case lower::BindingKind::ConstData:
      if (const runtime::TensorData *T = P.Optimized.constantData(B.TensorId))
        Ptr = const_cast<void *>(T->data());
      break;
    }
    if (!Ptr)
      return nullptr;
    E->bindBuffer(B.BufferId, Ptr);
  }
  return E;
}

//===----------------------------------------------------------------------===//
// Per-layer report
//===----------------------------------------------------------------------===//

void reportLayers(const LayerReport &L, Result &R) {
  // Per-graph figures come from the replays only (replayGraph).
  const std::map<std::string, tracer::Totals> T = tracer::totals("replay");
  const auto SpanMs = [&](const char *Name) {
    const auto It = T.find(Name);
    return It == T.end() ? 0.0 : It->second.Ms;
  };
  const double Ops = std::max(L.Ops, 1.0);
  const double Graphs = std::max(L.Graphs, 1.0);
  const uint64_t NOps = static_cast<uint64_t>(L.Ops);
  const uint64_t NGraphs = static_cast<uint64_t>(L.Graphs);
  const auto PerGraph = [&](const char *Metric, double Total,
                            const char *Unit) {
    R.set(Metric, Total / Graphs, Unit, NGraphs);
  };

  const KernelTotals &K = L.Kernels;
  for (int F = 0; F < kNumFamilies; ++F) {
    const std::string Fam = familyName(static_cast<KernelFamily>(F));
    R.set("kernels.calls." + Fam, static_cast<double>(K.Calls[F]) / Ops,
          "count", NOps);
    R.set("kernels.busy_ms." + Fam, K.BusyMs[F] / Ops, "ms", NOps);
  }
  R.set("kernels.brgemm_gflops",
        K.BrgemmMs > 0 ? K.BrgemmFlops / K.BrgemmMs / 1e6 : 0.0, "GFLOP/s",
        NOps);
  R.set("kernels.brgemm_peak_gflops", L.PeakGflops, "GFLOP/s", 1);
  R.set("kernels.moved_mb", K.Bytes / Ops / (1 << 20), "MiB", NOps);
  double RunMs = 0;
  for (double Ms : L.ExecRunMs)
    RunMs += Ms;
  R.set("kernels.util",
        RunMs > 0 ? K.busyMs() / (L.PoolThreads * RunMs) : 0.0, "ratio",
        L.ExecRunMs.size());

  R.set("runtime.scaling", L.Scaling, "ratio", 1);
  PerGraph("runtime.cache.store_ms", SpanMs("runtime.cache.store"), "ms");
  PerGraph("runtime.cache.load_ms", SpanMs("runtime.cache.load"), "ms");
  PerGraph("runtime.cache.entry_kb", tracer::counter("runtime.cache.entry_kb"),
           "KiB");
  R.set("runtime.cache.hits", L.CacheHits, "count", 1);
  R.set("runtime.cache.misses", L.CacheMisses, "count", 1);

  R.set("exec.run_ms", median(L.ExecRunMs), "ms", L.ExecRunMs.size());
  PerGraph("exec.instrs", tracer::counter("exec.instrs"), "count");
  PerGraph("exec.call_sites", tracer::counter("exec.call_sites"), "count");
  PerGraph("exec.compile_ms", SpanMs("exec.compileProgram"), "ms");

  PerGraph("graph.finalize_ms", SpanMs("graph.finalize"), "ms");
  PerGraph("graph.fingerprint_ms", SpanMs("graph.fingerprint"), "ms");
  PerGraph("api.partition_ms", SpanMs("api.partition"), "ms");
  PerGraph("api.compile_ms", SpanMs("api.compile"), "ms");
  PerGraph("api.partitions", L.Partitions, "count");
  PerGraph("api.fallback_partitions", L.FallbackPartitions, "count");
  R.set("api.execute_overhead_us", L.ExecuteOverheadUs, "us", NOps);
  R.set("api.spec_misses", L.SpecMisses, "count", 1);

  PerGraph("passes.ms", SpanMs("passes.run"), "ms");
  PerGraph("passes.ops_out", tracer::counter("passes.ops_out"), "count");
  PerGraph("passes.fused_regions", tracer::counter("passes.fused_regions"),
           "count");

  PerGraph("lower.ms",
           SpanMs("lower.lowerGraph") - SpanMs("exec.compileProgram"), "ms");
  PerGraph("tirpass.parallel_nests", tracer::counter("tirpass.parallel_nests"),
           "count");
  PerGraph("tirpass.coarse_merges", tracer::counter("tirpass.coarse_merges"),
           "count");
  PerGraph("tirpass.arena_kb", tracer::counter("tirpass.arena_kb"), "KiB");
  PerGraph("tirpass.arena_noreuse_kb",
           tracer::counter("tirpass.arena_noreuse_kb"), "KiB");

  PerGraph("core.fold_ms", SpanMs("core.runFoldGraph"), "ms");
  PerGraph("core.folded_mb", tracer::counter("core.folded_mb"), "MiB");
  PerGraph("core.serialize_ms", SpanMs("core.serialize"), "ms");
  // ArtifactCodec::deserialize runs the load verification itself; the
  // benchmark times that verification on its own as verify.load.
  PerGraph("core.deserialize_ms",
           SpanMs("core.deserialize") - SpanMs("verify.load"), "ms");

  PerGraph("verify.compile_ms", SpanMs("verify.compile"), "ms");
  PerGraph("verify.load_ms", SpanMs("verify.load"), "ms");

  if (L.Serving) {
    R.set("serve.avg_fill", L.AvgFill, "rows", 1);
    R.set("serve.linger_flush_share", L.LingerFlushShare, "ratio", 1);
    R.set("serve.batches_per_s", L.BatchesPerS, "1/s", 1);
    R.set("serve.queue_depth_max", L.QueueDepthMax, "count", 1);
    R.set("serve.server_p50_ms", L.ServerP50Ms, "ms", 1);
    R.set("serve.exec_batch_ms", L.ExecBatchMs, "ms", 1);
    R.set("serve.gen_late_p99_ms", L.GenLateP99Ms, "ms", 1);
    R.set("serve.refused", L.Refused, "count", 1);
  }

  R.set("baseline.primitives_p50_ms", L.PrimitivesP50Ms, "ms", 1);
  R.set("baseline.loopnest_p50_ms", L.LoopNestP50Ms, "ms", 1);

  R.set("tail.p99_ms", L.TailP99Ms, "ms", L.TailSamples);
  R.set("tail.samples", static_cast<double>(L.TailSamples), "count", 1);
  R.set("trace.overhead", L.TraceOverhead, "ratio", NOps);
}

} // namespace perfbench
