//===- bench_serve.cpp - Serving throughput: coalesced vs sequential ------===//
//
// Serving benchmark on the Table 1 MLP-1 workload, int8 (the Fig. 5
// deployment flavour, gated in CI) and f32 (informational). Three modes
// per case:
//
//   "seq"     the sequential one-request-at-a-time baseline: each client
//             thread executes its request alone through the serial
//             Stream::execute() path — serving without coalescing.
//   "batch"   the same closed-loop clients drive serve::Server, each
//             keeping GC_SERVE_BENCH_WINDOW requests outstanding (the
//             standard closed-loop concurrency knob); the server
//             coalesces whatever is concurrently in flight.
//   "poisson" open-loop: arrivals drawn from a Poisson process at
//             GC_SERVE_BENCH_RATE requests/s, latency measured under
//             that offered load (informational — open-loop latency is
//             the serving story, closed-loop throughput is the gate).
//
// Emits one JSON object per line for `scripts/bench_gate.py serve`:
//
//   {"bench":"serve_mlp1_int8","mode":"batch","clients":4,"qps":...,
//    "p50_us":...,"p95_us":...,"p99_us":...,"batches":...,
//    "avg_fill":...,"exact":1}
//
// "exact" is 1 when a server response is bit-identical to the serial
// single-request execution of the same input — the differential
// guarantee the gate insists on alongside the throughput ratio. All
// modes of a case run in one invocation so a repeat always scores every
// side under the same host conditions.
//
// Knobs: GC_SERVE_BENCH_CLIENTS (default 4), GC_SERVE_BENCH_WINDOW
// (default 16), GC_SERVE_BENCH_RATE (default 20000), GC_BENCH_MIN_TIME
// (seconds measured per mode, default 0.08), and the GC_SERVE_* server
// knobs.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "serve/server.h"
#include "support/quantile.h"
#include "workloads/mlp.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

using namespace gc;
using namespace gc::bench;

namespace {

constexpr int64_t kRowsPerRequest = 1;

struct Case {
  const char *Name;
  bool Int8;
};

graph::Graph buildDynamicMlp1(bool Int8) {
  workloads::MlpSpec Spec;
  Spec.Batch = graph::LogicalTensor::kDynamicDim;
  Spec.LayerDims = workloads::mlp1Dims();
  Spec.Int8 = Int8;
  Spec.Seed = 5;
  return workloads::buildMlp(Spec);
}

struct ClientIo {
  runtime::TensorData In, Out;
  ClientIo(bool Int8, uint64_t Seed)
      : In(Int8 ? DataType::U8 : DataType::F32,
           {kRowsPerRequest, workloads::mlp1Dims().front()}),
        Out(Int8 ? DataType::U8 : DataType::F32,
            {kRowsPerRequest, workloads::mlp1Dims().back()}) {
    Rng R(Seed);
    In.fillRandom(R);
  }
};

struct ModeResult {
  double Qps = 0, P50 = 0, P95 = 0, P99 = 0;
  uint64_t Batches = 0;
  double AvgFill = 0;
};

/// Sequential baseline: each client thread runs its request alone through
/// Stream::execute() — one execution per request, no coalescing.
ModeResult runSeq(const Case &C, int Clients, double Seconds) {
  api::Session S;
  auto CG = S.compile(buildDynamicMlp1(C.Int8));
  if (!CG) {
    std::fprintf(stderr, "compile failed: %s\n",
                 CG.status().toString().c_str());
    std::exit(1);
  }
  api::Stream Str = S.stream();

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Done{0};
  std::mutex SketchMutex;
  QuantileSketch Lat(0.01);

  std::vector<std::thread> Threads;
  for (int CI = 0; CI < Clients; ++CI) {
    Threads.emplace_back([&, CI] {
      ClientIo Io(C.Int8, uint64_t(100 + CI));
      // Warm the specialization cache before timing starts.
      (void)Str.execute(**CG, {&Io.In}, {&Io.Out});
      Timer T;
      while (!Stop.load(std::memory_order_relaxed)) {
        const double T0 = T.seconds();
        (void)Str.execute(**CG, {&Io.In}, {&Io.Out});
        const double Us = (T.seconds() - T0) * 1e6;
        Done.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> Lock(SketchMutex);
        Lat.record(Us);
      }
    });
  }
  Timer Wall;
  while (Wall.seconds() < Seconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double Elapsed = Wall.seconds();
  Stop.store(true);
  for (auto &T : Threads)
    T.join();

  ModeResult R;
  R.Qps = double(Done.load()) / Elapsed;
  R.P50 = Lat.quantile(0.50);
  R.P95 = Lat.quantile(0.95);
  R.P99 = Lat.quantile(0.99);
  return R;
}

/// Coalesced serving: closed-loop clients submit through the Server,
/// each keeping \p Window requests outstanding — submit until the window
/// is full, then retire the oldest before issuing the next.
ModeResult runBatch(const Case &C, int Clients, int Window, double Seconds) {
  serve::ServerOptions SO;
  // Saturated closed-loop serving wants a short linger: while one batch
  // executes, every client requeues, so the execution time itself is the
  // batching window and a long linger only adds idle latency (see
  // docs/TUNING.md). Env still overrides.
  SO.LingerUs = getEnvInt("GC_SERVE_LINGER_US", 10);
  serve::Server Srv(SO);
  auto MId = Srv.load(buildDynamicMlp1(C.Int8));
  if (!MId) {
    std::fprintf(stderr, "load failed: %s\n", MId.status().toString().c_str());
    std::exit(1);
  }

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Done{0};
  const serve::ServerStats Before = Srv.stats();

  std::vector<std::thread> Threads;
  for (int CI = 0; CI < Clients; ++CI) {
    Threads.emplace_back([&, CI] {
      // One Io slot per in-flight request: the caller contract keeps the
      // tensors alive and unmodified until the ticket completes.
      std::vector<std::unique_ptr<ClientIo>> Slots;
      std::vector<serve::Ticket> Tickets;
      Tickets.resize(size_t(Window));
      for (int W = 0; W < Window; ++W)
        Slots.push_back(std::make_unique<ClientIo>(
            C.Int8, uint64_t(100 + CI * 64 + W)));
      size_t Head = 0, Inflight = 0;
      auto RetireOldest = [&] {
        const size_t Tail =
            (Head + size_t(Window) - Inflight) % size_t(Window);
        if (Status S = Tickets[Tail].wait(); !S.isOk()) {
          std::fprintf(stderr, "request failed: %s\n", S.toString().c_str());
          std::exit(1);
        }
        --Inflight;
        Done.fetch_add(1, std::memory_order_relaxed);
      };
      while (!Stop.load(std::memory_order_relaxed)) {
        if (Inflight == size_t(Window))
          RetireOldest();
        auto T = Srv.submit(*MId, {&Slots[Head]->In}, {&Slots[Head]->Out});
        if (!T) {
          std::fprintf(stderr, "submit failed: %s\n",
                       T.status().toString().c_str());
          std::exit(1);
        }
        Tickets[Head] = T.takeValue();
        Head = (Head + 1) % size_t(Window);
        ++Inflight;
      }
      while (Inflight > 0)
        RetireOldest();
    });
  }
  // Let the spec cache warm before the measured window.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t Warm = Done.load();
  Timer Wall;
  while (Wall.seconds() < Seconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double Elapsed = Wall.seconds();
  const uint64_t Measured = Done.load() - Warm;
  Stop.store(true);
  for (auto &T : Threads)
    T.join();

  const serve::ServerStats After = Srv.stats();
  ModeResult R;
  R.Qps = double(Measured) / Elapsed;
  R.P50 = After.P50Us;
  R.P95 = After.P95Us;
  R.P99 = After.P99Us;
  R.Batches = After.Batches - Before.Batches;
  if (R.Batches > 0)
    R.AvgFill = double(After.BatchedRows - Before.BatchedRows) /
                double(R.Batches);
  return R;
}

/// Open-loop Poisson arrivals at \p Rate requests/s: one generator thread
/// draws exponential inter-arrival gaps and submits without waiting; a
/// reaper drains tickets in admission order. Latency here includes queue
/// wait under the offered load — the number a capacity planner reads.
ModeResult runPoisson(const Case &C, double Rate, double Seconds) {
  serve::ServerOptions SO;
  serve::Server Srv(SO); // default linger: the latency-oriented config
  auto MId = Srv.load(buildDynamicMlp1(C.Int8));
  if (!MId) {
    std::fprintf(stderr, "load failed: %s\n", MId.status().toString().c_str());
    std::exit(1);
  }

  // Pre-built request slots, recycled round-robin; sized generously so a
  // slot's previous ticket has always retired before reuse (the reaper
  // enforces it by waiting in order).
  const int NumSlots = 256;
  std::vector<std::unique_ptr<ClientIo>> Slots;
  for (int I = 0; I < NumSlots; ++I)
    Slots.push_back(std::make_unique<ClientIo>(C.Int8, uint64_t(900 + I)));

  std::mutex TMutex;
  std::condition_variable TCv;
  std::deque<serve::Ticket> InFlight;
  bool GenDone = false;
  std::atomic<uint64_t> Completed{0}, Dropped{0};

  std::thread Reaper([&] {
    for (;;) {
      serve::Ticket T;
      {
        std::unique_lock<std::mutex> Lock(TMutex);
        TCv.wait(Lock, [&] { return !InFlight.empty() || GenDone; });
        if (InFlight.empty())
          return;
        T = InFlight.front();
        InFlight.pop_front();
      }
      if (T.wait().isOk())
        Completed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::mt19937_64 Gen(12345);
  std::exponential_distribution<double> Gap(Rate);
  Timer Wall;
  double NextAt = 0;
  int Slot = 0;
  uint64_t Submitted = 0;
  while (Wall.seconds() < Seconds) {
    const double Now = Wall.seconds();
    if (Now < NextAt) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(NextAt - Now));
      continue;
    }
    NextAt += Gap(Gen);
    ClientIo &Io = *Slots[size_t(Slot)];
    Slot = (Slot + 1) % NumSlots;
    auto T = Srv.submit(*MId, {&Io.In}, {&Io.Out});
    if (!T) {
      Dropped.fetch_add(1, std::memory_order_relaxed); // queue full
      continue;
    }
    ++Submitted;
    {
      std::lock_guard<std::mutex> Lock(TMutex);
      InFlight.push_back(T.takeValue());
    }
    TCv.notify_one();
  }
  const double Elapsed = Wall.seconds();
  {
    std::lock_guard<std::mutex> Lock(TMutex);
    GenDone = true;
  }
  TCv.notify_all();
  Reaper.join();

  const serve::ServerStats St = Srv.stats();
  ModeResult R;
  R.Qps = double(Completed.load()) / Elapsed;
  R.P50 = St.P50Us;
  R.P95 = St.P95Us;
  R.P99 = St.P99Us;
  R.Batches = St.Batches;
  if (St.Batches > 0)
    R.AvgFill = double(St.BatchedRows) / double(St.Batches);
  return R;
}

/// One request through the server vs the same input through the serial
/// path: the responses must be bit-identical.
int checkExact(const Case &C) {
  api::Session S;
  auto CG = S.compile(buildDynamicMlp1(C.Int8));
  if (!CG)
    return 0;
  api::Stream Str = S.stream();
  ClientIo Direct(C.Int8, 12345), Served(C.Int8, 12345);

  serve::Server Srv;
  auto MId = Srv.load(buildDynamicMlp1(C.Int8));
  if (!MId)
    return 0;
  auto T = Srv.submit(*MId, {&Served.In}, {&Served.Out});
  if (!T || !T->wait().isOk())
    return 0;
  if (!Str.execute(**CG, {&Direct.In}, {&Direct.Out}).isOk())
    return 0;
  return std::memcmp(Direct.Out.data(), Served.Out.data(),
                     size_t(Direct.Out.numBytes())) == 0
             ? 1
             : 0;
}

void emit(const Case &C, const char *Mode, int Clients, const ModeResult &R,
          int Exact) {
  std::printf("{\"bench\":\"%s\",\"mode\":\"%s\",\"clients\":%d,"
              "\"qps\":%.1f,\"p50_us\":%.1f,\"p95_us\":%.1f,"
              "\"p99_us\":%.1f,\"batches\":%llu,\"avg_fill\":%.2f,"
              "\"exact\":%d}\n",
              C.Name, Mode, Clients, R.Qps, R.P50, R.P95, R.P99,
              (unsigned long long)R.Batches, R.AvgFill, Exact);
  std::fflush(stdout);
}

} // namespace

int main() {
  const int Clients = int(getEnvInt("GC_SERVE_BENCH_CLIENTS", 4));
  const int Window = int(getEnvInt("GC_SERVE_BENCH_WINDOW", 16));
  const double Rate = double(getEnvInt("GC_SERVE_BENCH_RATE", 20000));
  const double Seconds = minMeasureTime();

  const Case Cases[] = {{"serve_mlp1_int8", true}, {"serve_mlp1_f32", false}};
  for (const Case &C : Cases) {
    const int Exact = checkExact(C);
    ModeResult Seq = runSeq(C, Clients, Seconds);
    ModeResult Batch = runBatch(C, Clients, Window, Seconds);
    emit(C, "seq", Clients, Seq, Exact);
    emit(C, "batch", Clients, Batch, Exact);
    if (C.Int8) {
      ModeResult Poi = runPoisson(C, Rate, Seconds);
      emit(C, "poisson", 1, Poi, Exact);
    }
  }
  return 0;
}
