//===- serving.cpp - serve_mlp1_int8 workload -----------------------------===//
//
// Open loop. One generator thread sends 1-row MLP-1 int8 requests to
// serve::Server on a seeded exponential schedule at a fixed 20,000 req/s
// (about a quarter of the open-loop capacity on a 4-core AVX-512 host),
// then steps up a rate ladder to find the highest rate whose request p99
// stays at or below 2 ms with no refused admission and no growing queue.
// A reaper thread waits the tickets in admission order. One operation is
// one request, timed from its scheduled send to its observed completion.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "serve/server.h"
#include "support/rng.h"
#include "workloads/mlp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

using namespace gc;

namespace perfbench {
namespace {

constexpr int64_t kMaxBatch = 32;
constexpr int64_t kLingerUs = 200;
constexpr int64_t kQueueCap = 1024;
constexpr int kServerWorkers = 2;
constexpr double kFixedRate = 20000;
constexpr double kLimitMs = 2.0;
/// A refused admission never completes; it enters the latency samples
/// with this value, so it misses every limit.
constexpr double kRefusedMs = 1e6;
constexpr size_t kSlots = 1024;
/// A ladder step stops sending (and fails) once this many requests are
/// outstanding, before the admission queue (kQueueCap, plus the batches in
/// flight) could refuse one.
constexpr uint64_t kAbortBacklog = 900;
/// Requests per window of the rate-step latency criterion.
constexpr size_t kWindow = 500;
/// The rate ladder's first step, and its climbing factor.
constexpr double kLadderStart = 2500;
constexpr double kLadderStep = 1.5;
constexpr double kLadderFloor = 250;
constexpr int kLadderTries = 3;

graph::Graph buildMlp1(int64_t Batch, uint64_t Seed) {
  workloads::MlpSpec Spec;
  Spec.Batch = Batch;
  Spec.LayerDims = workloads::mlp1Dims();
  Spec.Int8 = true;
  Spec.Seed = Seed;
  return workloads::buildMlp(Spec);
}

/// One request slot: its input row, the server's output row and the
/// serial single-request output it must equal.
struct Slot {
  runtime::TensorData In, Out, Want;
  std::atomic<bool> Busy{false};
};

struct Slots {
  std::vector<std::unique_ptr<Slot>> S;
  int64_t InCols = 0, OutCols = 0;
};

/// Rows [First, First + Rows) of the slot inputs as one tensor.
runtime::TensorData gatherRows(const Slots &Ss, size_t First, int64_t Rows) {
  runtime::TensorData T(DataType::U8, {Rows, Ss.InCols});
  for (int64_t R = 0; R < Rows; ++R)
    std::memcpy(T.dataAs<uint8_t>() + R * Ss.InCols,
                Ss.S[(First + static_cast<size_t>(R)) % kSlots]->In.data(),
                static_cast<size_t>(Ss.InCols));
  return T;
}

/// True when row R of \p Out equals the serial output of slot First + R.
bool rowsMatch(const Slots &Ss, size_t First, const runtime::TensorData &Out) {
  for (int64_t R = 0; R < Out.dim(0); ++R)
    if (std::memcmp(
            Out.dataAs<uint8_t>() + R * Ss.OutCols,
            Ss.S[(First + static_cast<size_t>(R)) % kSlots]->Want.data(),
            static_cast<size_t>(Ss.OutCols)) != 0)
      return false;
  return true;
}

/// What one open-loop step measured.
struct Step {
  double Rate = 0;
  std::vector<double> LatMs;  ///< per request, scheduled send -> completion
  std::vector<double> LateMs; ///< per request, how late the send was
  uint64_t Sent = 0, Refused = 0, Failed = 0, Mismatched = 0;
  uint64_t QueueDepthMax = 0;
  bool Aborted = false, Growing = false;
  double SendSeconds = 0;
  serve::ServerStats Before, After;
  /// The p99 of consecutive windows of kWindow requests in send order,
  /// aggregated as windowedQuantile does (median over windows). A
  /// host stall spoils the windows it overlaps; a saturated server raises
  /// all of them.
  double windowedP99() const {
    return windowedQuantile(LatMs, std::max<size_t>(1, LatMs.size() / kWindow),
                            0.99);
  }
  bool passes() const {
    return !Aborted && !Growing && Refused == 0 && Failed == 0 &&
           Mismatched == 0 && windowedP99() <= kLimitMs;
  }
};

/// Sends requests at \p Rate for \p Seconds on a schedule drawn from
/// \p Seed, then waits for every answer. With \p Abortable the step
/// stops early once the backlog passes kAbortBacklog.
Step runStep(serve::Server &Srv, serve::ModelId M, Slots &Ss, double Rate,
             double Seconds, uint64_t Seed, bool Abortable, Result &R,
             uint64_t &NextOp) {
  Step St;
  St.Rate = Rate;
  struct Pending {
    serve::Ticket T;
    size_t Slot;
    Clock::time_point Due;
    uint64_t Op;
  };
  std::mutex Mu; // guards Queue and GenDone
  std::condition_variable Cv;
  std::deque<Pending> Queue;
  bool GenDone = false;
  std::atomic<uint64_t> Reaped{0};
  std::vector<double> Lat;
  uint64_t Failed = 0, Mismatched = 0;

  std::thread Reaper([&] {
    for (;;) {
      Pending P;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return !Queue.empty() || GenDone; });
        if (Queue.empty())
          return;
        P = std::move(Queue.front());
        Queue.pop_front();
      }
      Status S = Status::ok();
      {
        tracer::Span Sp("serve.wait", P.Op);
        S = P.T.wait();
      }
      Lat.push_back(msBetween(P.Due, Clock::now()));
      Slot &Sl = *Ss.S[P.Slot];
      const bool Same = std::memcmp(Sl.Out.data(), Sl.Want.data(),
                                    static_cast<size_t>(Ss.OutCols)) == 0;
      Failed += S.isOk() ? 0 : 1;
      Mismatched += S.isOk() && !Same ? 1 : 0;
      Sl.Busy.store(false, std::memory_order_release);
      Reaped.fetch_add(1, std::memory_order_release);
    }
  });

  St.Before = Srv.stats();
  Rng Gen(Seed);
  const Clock::time_point Start = Clock::now();
  const auto Horizon = std::chrono::duration<double>(Seconds);
  double DueS = 0;
  Clock::time_point NextStats = Start;
  // Backlog (sent, not yet answered) at each quarter of the step.
  std::vector<uint64_t> Checkpoints;
  for (;;) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    DueS += -std::log(1.0 - Gen.uniform(0.0f, 0.999999f)) / Rate;
    if (DueS >= Horizon.count())
      break;
    const Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(DueS));
    for (Clock::time_point Now = Clock::now(); Now < Due; Now = Clock::now())
      if (Due - Now > std::chrono::microseconds(200))
        std::this_thread::sleep_for(Due - Now - std::chrono::microseconds(100));
    const size_t SlotIdx = St.Sent % kSlots;
    Slot &Sl = *Ss.S[SlotIdx];
    while (Sl.Busy.load(std::memory_order_acquire))
      std::this_thread::yield();
    const Clock::time_point SendAt = Clock::now();
    St.LateMs.push_back(msBetween(Due, SendAt));
    if (SendAt >= NextStats) {
      const uint64_t Depth = Srv.stats().QueueDepth;
      St.QueueDepthMax = std::max(St.QueueDepthMax, Depth);
      NextStats = SendAt + std::chrono::milliseconds(2);
    }
    std::memset(Sl.Out.data(), 0xA5, static_cast<size_t>(Ss.OutCols));
    Sl.Busy.store(true, std::memory_order_relaxed);
    const uint64_t Op = NextOp++;
    Expected<serve::Ticket> T = Status::error(StatusCode::Internal, "unsent");
    {
      tracer::Span Sp("serve.submit", Op);
      T = Srv.submit(M, {&Sl.In}, {&Sl.Out});
    }
    ++St.Sent;
    if (!T) {
      ++St.Refused;
      Sl.Busy.store(false, std::memory_order_release);
      Reaped.fetch_add(1, std::memory_order_release);
    } else {
      bool WasEmpty = false;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        WasEmpty = Queue.empty();
        Queue.push_back({T.takeValue(), SlotIdx, Due, Op});
      }
      // The reaper only sleeps on an empty queue.
      if (WasEmpty)
        Cv.notify_one();
    }
    const uint64_t Backlog = St.Sent - Reaped.load(std::memory_order_acquire);
    const double Quarter = static_cast<double>(Checkpoints.size() + 1) / 4;
    if (DueS >= Horizon.count() * Quarter)
      Checkpoints.push_back(Backlog);
    if (Abortable && Backlog > kAbortBacklog) {
      St.Aborted = true;
      break;
    }
  }
  St.SendSeconds = msBetween(Start, Clock::now()) / 1e3;
  // A growing queue: the backlog rose at every quarter of the step and
  // ended above what the server holds in flight. A transient stall raises
  // one checkpoint, not all of them.
  Checkpoints.push_back(St.Sent - Reaped.load(std::memory_order_acquire));
  const auto InFlight = static_cast<uint64_t>(2 * kMaxBatch * kServerWorkers);
  St.Growing = Checkpoints.back() > InFlight;
  for (size_t I = 1; I < Checkpoints.size(); ++I)
    St.Growing = St.Growing && Checkpoints[I] > Checkpoints[I - 1];
  {
    std::lock_guard<std::mutex> Lock(Mu);
    GenDone = true;
  }
  Cv.notify_all();
  Reaper.join();
  St.After = Srv.stats();
  St.LatMs = std::move(Lat);
  St.LatMs.insert(St.LatMs.end(), St.Refused, kRefusedMs);
  St.Failed = Failed;
  St.Mismatched = Mismatched;
  R.ops(St.Sent, St.Refused + St.Failed + St.Mismatched,
        "request refused, failed or not equal to its serial output");
  return St;
}

/// The highest ladder rate whose step passes. Climbs from kLadderStart by
/// kLadderStep until a rate fails, then bisects (log scale) between the
/// last pass and that rate four times; when kLadderStart itself fails, it
/// steps down instead, to kLadderFloor. A rate passes when one of
/// kLadderTries steps at it passes, so a host hiccup does not end the
/// search. Returns 0 when no rate down to the floor passes.
double ladder(serve::Server &Srv, serve::ModelId M, Slots &Ss,
              double StepSeconds, uint64_t Seed, Result &R, uint64_t &NextOp,
              uint64_t &Steps) {
  const auto Passes = [&](double Rate) {
    for (int Try = 0; Try < kLadderTries; ++Try) {
      ++Steps;
      const Step St =
          runStep(Srv, M, Ss, Rate, StepSeconds, Seed + Steps, true, R, NextOp);
      std::fprintf(stderr,
                   "ladder %.0f req/s: sent %llu, p50 %.3f ms, windowed p99 "
                   "%.3f ms, generator late p99 %.3f ms%s%s%s\n",
                   Rate, static_cast<unsigned long long>(St.Sent),
                   quantile(St.LatMs, 0.5), St.windowedP99(),
                   quantile(St.LateMs, 0.99), St.Aborted ? ", aborted" : "",
                   St.Growing ? ", growing" : "",
                   St.Refused ? ", refused" : "");
      if (St.passes())
        return true;
    }
    return false;
  };
  double Pass = 0, Fail = 0;
  if (Passes(kLadderStart)) {
    Pass = kLadderStart;
    for (double Rate = Pass * kLadderStep; !Fail; Rate *= kLadderStep)
      (Passes(Rate) ? Pass : Fail) = Rate;
  } else {
    Fail = kLadderStart;
    for (double Rate = Fail / kLadderStep; !Pass && Rate >= kLadderFloor;
         Rate /= kLadderStep)
      (Passes(Rate) ? Pass : Fail) = Rate;
    if (!Pass)
      return 0;
  }
  for (int I = 0; I < 4; ++I) {
    const double Mid = std::sqrt(Pass * Fail);
    (Passes(Mid) ? Pass : Fail) = Mid;
  }
  return Pass;
}

} // namespace

void runServeMlp1Int8(const Config &Cfg, Result &R) {
  const core::CompileOptions Opts = sessionOptions(Cfg.Threads);
  const graph::Graph Dynamic =
      buildMlp1(graph::LogicalTensor::kDynamicDim, Cfg.Seed);

  // Oracle: the serial single-request output of every slot's input, the
  // first rows of which are checked against the reference interpreter.
  Slots Ss;
  Ss.InCols = workloads::mlp1Dims().front();
  Ss.OutCols = workloads::mlp1Dims().back();
  {
    Rng Gen(Cfg.Seed + 1);
    api::Session Serial(Opts);
    Expected<api::CompiledGraphPtr> CG = Serial.compile(Dynamic);
    if (!CG)
      fatal("compile failed: " + CG.status().toString());
    const api::Stream Str = Serial.stream();
    for (size_t I = 0; I < kSlots; ++I) {
      auto Sl = std::make_unique<Slot>();
      Sl->In = runtime::TensorData(DataType::U8, {1, Ss.InCols});
      Sl->In.fillRandom(Gen);
      Sl->Out = runtime::TensorData(DataType::U8, {1, Ss.OutCols});
      Sl->Want = runtime::TensorData(DataType::U8, {1, Ss.OutCols});
      R.op(Str.execute(**CG, {&Sl->In}, {&Sl->Want}).isOk(),
           "serial single-request execute");
      Ss.S.push_back(std::move(Sl));
    }
    constexpr int64_t kChecked = 64;
    Instance Ref(buildMlp1(kChecked, Cfg.Seed), Family::MlpInt8, 0, 1.0f);
    Ref.Inputs[0] = gatherRows(Ss, 0, kChecked);
    Ref.computeReference();
    runtime::TensorData Got(DataType::U8, {kChecked, Ss.OutCols});
    for (int64_t Row = 0; Row < kChecked; ++Row)
      std::memcpy(Got.dataAs<uint8_t>() + Row * Ss.OutCols,
                  Ss.S[static_cast<size_t>(Row)]->Want.data(),
                  static_cast<size_t>(Ss.OutCols));
    std::vector<runtime::TensorData> GotV;
    GotV.push_back(std::move(Got));
    R.op(matchesReference(GotV, Ref),
         "serial output vs reference");
  }

  serve::ServerOptions SO;
  SO.MaxBatch = kMaxBatch;
  SO.LingerUs = kLingerUs;
  SO.QueueCap = kQueueCap;
  SO.Workers = kServerWorkers;
  R.info("server_workers", std::to_string(kServerWorkers));
  R.info("generator_threads", "2");
  R.info("max_batch", std::to_string(kMaxBatch));
  R.info("linger_us", std::to_string(kLingerUs));

  // Set-up: server built, model loaded, every batch bucket warmed by a
  // request of that many rows, each row checked against the oracle.
  EndToEnd E;
  std::unique_ptr<serve::Server> Srv;
  serve::ModelId M = 0;
  for (int Rep = 0; Rep < (Cfg.Trace ? 1 : 5); ++Rep) {
    Srv.reset();
    const Clock::time_point T0 = Clock::now();
    Srv = std::make_unique<serve::Server>(SO, Opts);
    Expected<serve::ModelId> Loaded = Srv->load(Dynamic);
    if (!Loaded)
      fatal("load failed: " + Loaded.status().toString());
    M = *Loaded;
    bool Ok = true;
    for (int64_t Rows = 1; Rows <= kMaxBatch; Rows *= 2) {
      runtime::TensorData In = gatherRows(Ss, 0, Rows);
      runtime::TensorData Out(DataType::U8, {Rows, Ss.OutCols});
      Expected<serve::Ticket> T = Srv->submit(M, {&In}, {&Out});
      Ok = Ok && T && T->wait().isOk() && rowsMatch(Ss, 0, Out);
    }
    E.SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
    R.op(Ok, "bucket warm-up responses vs serial outputs");
  }

  uint64_t NextOp = 1;
  const double FixedSeconds = Cfg.Seconds * (Cfg.Trace ? 0.35 : 0.4);
  const Step Fixed =
      runStep(*Srv, M, Ss, kFixedRate, FixedSeconds, Cfg.Seed * 7919, false,
              R, NextOp);
  E.LatMs = Fixed.LatMs;
  E.Windows = 8;
  E.OpsCount = Fixed.Sent - Fixed.Refused - Fixed.Failed;
  E.OpsPerS = static_cast<double>(E.OpsCount) / Fixed.SendSeconds;

  if (!Cfg.Trace) {
    uint64_t Steps = 0;
    E.MaxRatePerS = ladder(*Srv, M, Ss, Cfg.Seconds / 50, Cfg.Seed * 104729,
                           R, NextOp, Steps);
    E.RateSamples = Steps;
    Srv.reset();
    // Restart to first response from a warm artifact cache.
    const std::string Dir = makeScratchDir(Cfg, "warm");
    core::CompileOptions Warm = Opts;
    Warm.CacheDir = Dir;
    const auto FirstResponse = [&](runtime::CacheMode Mode) {
      Warm.CacheMode = Mode;
      Slot &Sl = *Ss.S[0];
      std::memset(Sl.Out.data(), 0xA5, static_cast<size_t>(Ss.OutCols));
      const Clock::time_point T0 = Clock::now();
      serve::Server W(SO, Warm);
      Expected<serve::ModelId> WM = W.load(Dynamic);
      bool Ok = static_cast<bool>(WM);
      if (Ok) {
        Expected<serve::Ticket> T = W.submit(*WM, {&Sl.In}, {&Sl.Out});
        Ok = T && T->wait().isOk() && rowsMatch(Ss, 0, Sl.Out);
      }
      const double Ms = msBetween(T0, Clock::now());
      Ok = Ok && (Mode != runtime::CacheMode::Read ||
                  W.session().diskCacheHits() > 0);
      R.op(Ok, "first response of a restarted server");
      return Ms;
    };
    FirstResponse(runtime::CacheMode::ReadWrite);
    for (int Rep = 0; Rep < 12; ++Rep)
      E.WarmMs.push_back(FirstResponse(runtime::CacheMode::Read));
    removeScratchDir(Dir);
    reportEndToEnd(E, R);
    return;
  }

  // ---- Traced run ----
  LayerReport L;
  L.Serving = true;
  L.PoolThreads = Cfg.Threads;
  L.TailP99Ms = quantile(Fixed.LatMs, 0.99);
  L.TailSamples = Fixed.LatMs.size();
  L.GenLateP99Ms = quantile(Fixed.LateMs, 0.99);
  L.Refused = static_cast<double>(Fixed.Refused);
  L.QueueDepthMax = static_cast<double>(Fixed.QueueDepthMax);
  const uint64_t Batches = Fixed.After.Batches - Fixed.Before.Batches;
  const uint64_t Rows = Fixed.After.BatchedRows - Fixed.Before.BatchedRows;
  L.AvgFill = Batches ? static_cast<double>(Rows) / Batches : 0.0;
  L.LingerFlushShare =
      Batches ? static_cast<double>(Fixed.After.LingerFlushes -
                                    Fixed.Before.LingerFlushes) /
                    Batches
              : 0.0;
  L.BatchesPerS = static_cast<double>(Batches) / Fixed.SendSeconds;
  L.ServerP50Ms = Fixed.After.P50Us / 1e3;
  std::vector<uint64_t> Fill = Fixed.After.BatchFill;
  for (size_t I = 0; I < Fill.size() && I < Fixed.Before.BatchFill.size(); ++I)
    Fill[I] -= Fixed.Before.BatchFill[I];

  tracer::enable(true);
  const Step Traced = runStep(*Srv, M, Ss, kFixedRate, FixedSeconds,
                              Cfg.Seed * 7919, false, R, NextOp);
  L.TraceOverhead = windowedQuantile(Traced.LatMs, E.Windows, 0.5) /
                        windowedQuantile(Fixed.LatMs, E.Windows, 0.5) -
                    1;
  Srv.reset();

  // The bucket the observed fill lands in, compiled stage by stage and
  // run on the instrumented executor; its rows must equal the oracle.
  const int64_t FillRows = std::max<int64_t>(1, std::llround(L.AvgFill));
  const int64_t Bucket = core::batchBucket(FillRows, Opts.Bucketing);
  Instance BucketI(buildMlp1(Bucket, Cfg.Seed), Family::MlpInt8, 0, 1.0f);
  BucketI.Inputs[0] = gatherRows(Ss, 0, Bucket);
  BucketI.InPtrs = {&BucketI.Inputs[0]};
  const std::string CacheDir = makeScratchDir(Cfg, "replay");
  {
    // The replay's artifact check compares against the oracle rows.
    std::vector<runtime::TensorData> Want;
    Want.emplace_back(DataType::U8, std::vector<int64_t>{Bucket, Ss.OutCols});
    for (int64_t Row = 0; Row < Bucket; ++Row)
      std::memcpy(Want[0].dataAs<uint8_t>() + Row * Ss.OutCols,
                  Ss.S[static_cast<size_t>(Row)]->Want.data(),
                  static_cast<size_t>(Ss.OutCols));
    Replay Rp = replayGraph(Cfg, BucketI, Want, CacheDir, L, R);
    removeScratchDir(CacheDir);
    runtime::ThreadPool TracedPool(Cfg.Threads);
    std::vector<runtime::TensorData> Outs = BucketI.freshOutputs();
    std::unique_ptr<exec::Executor> Ex =
        bindReplay(Rp, BucketI, Outs, TracedPool);
    if (!Ex)
      fatal("the traced executor needs one compiled partition");
    resetKernelStats();
    recordBlockings(true);
    Ex->run();
    recordBlockings(false);
    const Blocking Top = mostCalledBlocking();
    resetKernelStats();
    uint64_t Op = NextOp;
    L.ExecRunMs = timeLoop(Cfg.Seconds / 10, 10, [&] {
      tracer::Span S("exec.run", Op++);
      Ex->run();
    });
    R.op(rowsMatch(Ss, 0, Outs[0]), "traced bucket output vs serial outputs");
    L.Kernels = kernelTotals();
    L.Ops = static_cast<double>(L.ExecRunMs.size());
    L.PeakGflops = brgemmAloneGflops(Top, 0.3);

    // Stream::execute of the polymorphic graph at the observed fill
    // against CompiledPartition::execute of the bucket's partition, then
    // the observed fill mix replayed for specialization misses.
    api::Session S(Opts);
    Expected<api::CompiledGraphPtr> Poly = S.compile(Dynamic);
    if (!Poly)
      fatal("compile failed: " + Poly.status().toString());
    const api::Stream Str = S.stream();
    std::vector<runtime::TensorData> FillIn, FillOut;
    for (int64_t Rw = 1; Rw <= kMaxBatch; ++Rw) {
      FillIn.push_back(gatherRows(Ss, 0, Rw));
      FillOut.emplace_back(DataType::U8, std::vector<int64_t>{Rw, Ss.OutCols});
    }
    for (int64_t Rw = 1; Rw <= kMaxBatch; Rw *= 2)
      R.op(Str.execute(**Poly, {&FillIn[Rw - 1]}, {&FillOut[Rw - 1]}).isOk(),
           "bucket warm-up execute");
    const std::shared_ptr<api::CompiledGraph> Spec =
        (*Poly)->cachedSpecializationFor(FillRows);
    const std::shared_ptr<core::CompiledPartition> CP =
        Spec && Spec->numPartitions() == 1 ? Spec->compiledPartition(0)
                                           : nullptr;
    if (!CP)
      fatal("no single-partition specialization for the observed fill");
    std::vector<double> StreamUs, PartUs;
    bool Ok = true;
    const Clock::time_point Start = Clock::now();
    while (msBetween(Start, Clock::now()) < Cfg.Seconds * 1e3 / 20 ||
           StreamUs.size() < 10) {
      Clock::time_point T0 = Clock::now();
      {
        tracer::Span Sp("api.execute");
        Ok = Str.execute(**Poly, {&FillIn[FillRows - 1]},
                         {&FillOut[FillRows - 1]})
                 .isOk() &&
             Ok;
      }
      StreamUs.push_back(msBetween(T0, Clock::now()) * 1e3);
      T0 = Clock::now();
      {
        tracer::Span Sp("core.execute");
        Ok = CP->execute(BucketI.InPtrs, {&Outs[0]}).isOk() && Ok;
      }
      PartUs.push_back(msBetween(T0, Clock::now()) * 1e3);
    }
    R.op(Ok && rowsMatch(Ss, 0, FillOut[FillRows - 1]) &&
             rowsMatch(Ss, 0, Outs[0]),
         "execute-overhead probe outputs");
    L.ExecBatchMs = median(StreamUs) / 1e3;
    L.ExecuteOverheadUs = median(StreamUs) - median(PartUs);

    const uint64_t MissesBefore = (*Poly)->specializationMisses();
    bool MixOk = true;
    for (size_t I = 0; I < Fill.size(); ++I)
      for (uint64_t N = 0; N < std::min<uint64_t>(Fill[I], 64); ++N) {
        const size_t Rw = std::min<size_t>(I + 1, kMaxBatch);
        MixOk = Str.execute(**Poly, {&FillIn[Rw - 1]}, {&FillOut[Rw - 1]})
                    .isOk() &&
                MixOk;
      }
    R.op(MixOk, "fill-mix replay execute");
    L.SpecMisses =
        static_cast<double>((*Poly)->specializationMisses() - MissesBefore);
  }
  tracer::enable(false);
  reportLayers(L, R);
}

} // namespace perfbench
