//===- bench_smoke.cpp - machine-readable perf smoke --------------------------------===//
//
// Small fixed-shape benchmark set for the CI perf trajectory: compiles the
// Table 1 workloads through the Session API and emits one JSON object per
// line on stdout, e.g.
//
//   {"bench":"mlp1_f32","sched":"serial","isa":"avx512f+vnni",
//    "kernels":"avx512","threads":4,"partitions":1,
//    "us_per_iter":123.4,"cache_hit":0}
//
// "isa" is the host CPU capability (CPUID); "kernels" the dispatch tier
// actually used (GC_KERNELS-capped).
//
// Shapes are reduced versus the paper sweeps so the whole run stays under a
// few seconds; the numbers track relative movement between commits, not
// absolute paper figures. GC_BENCH_MIN_TIME shrinks/extends measurement.
//
// The *_small cases are deliberately tiny (batch-1, narrow layers): their
// kernel work is a few microseconds, so they measure the interpretation /
// dispatch overhead around the microkernels.
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "bench_common.h"
#include "core/artifact.h"
#include "kernels/cpu_features.h"
#include "runtime/artifact_cache.h"
#include "workloads/mha.h"
#include "workloads/mlp.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <unistd.h>
#include <vector>

using namespace gc;
using namespace gc::bench;

namespace {

/// This binary's scheduling mode, from GC_SCHED ("serial" | "async",
/// default "serial"): under "async" every static multi-partition graph
/// is timed through submit(...).wait(), which overlaps independent
/// partitions on the pool; every other graph, and every graph under
/// "serial", through execute(), which walks the partitions in order.
/// scripts/bench_gate.py sched compares the two modes.
const bool AsyncMode = getEnvString("GC_SCHED", "serial") == "async";

/// Measures one graph through a Session stream; prints the JSON line.
/// "sched" reports AsyncMode.
void runCase(api::Session &S, const char *Name, graph::Graph G) {
  Instance W(std::move(G));
  const uint64_t HitsBefore = S.cacheHits();
  Timer CompileTimer;
  Expected<api::CompiledGraphPtr> CompiledOr = S.compile(W.G);
  const double CompileUs = CompileTimer.seconds() * 1e6;
  if (!CompiledOr) {
    std::printf("{\"bench\":\"%s\",\"error\":\"%s\"}\n", Name,
                CompiledOr.status().toString().c_str());
    return;
  }
  const api::CompiledGraphPtr &CGPtr = *CompiledOr;
  const api::CompiledGraph &CG = *CGPtr;
  api::Stream Str = S.stream();
  const bool Submit =
      AsyncMode && !CG.isPolymorphic() && CG.numPartitions() > 1;
  const double Secs = measureSeconds([&] {
    if (Submit)
      (void)Str.submit(CGPtr, W.InPtrs, W.OutPtrs).wait();
    else
      (void)Str.execute(CG, W.InPtrs, W.OutPtrs);
  });
  std::printf("{\"bench\":\"%s\",\"sched\":\"%s\","
              "\"isa\":\"%s\","
              "\"kernels\":\"%s\",\"threads\":%d,"
              "\"partitions\":%zu,\"fallback_partitions\":%zu,"
              "\"compile_us\":%.2f,"
              "\"us_per_iter\":%.2f,\"cache_hit\":%d}\n",
              Name, AsyncMode ? "async" : "serial",
              kernels::isaName().c_str(),
              kernels::kernelTierName(kernels::activeKernelTier()),
              S.threadPool().numThreads(), CG.numPartitions(),
              CG.numFallbackPartitions(), CompileUs, Secs * 1e6,
              S.cacheHits() > HitsBefore ? 1 : 0);
  std::fflush(stdout);
}

/// Standalone softmax over [Rows, Cols]: almost all time is expTile +
/// row reductions, so this case tracks the vectorized-transcendental win
/// in isolation from the matmul kernels.
graph::Graph buildSoftmax(int64_t Rows, int64_t Cols) {
  graph::Graph G;
  const std::vector<int64_t> Shape = {Rows, Cols};
  const int64_t In = G.addTensor(DataType::F32, Shape, "x");
  G.markInput(In);
  const int64_t Out = G.addOp(graph::OpKind::Softmax, {In}, DataType::F32,
                              Shape, {{"axis", int64_t(-1)}});
  G.markOutput(Out);
  return G;
}

/// Adds one small MLP branch (Layers x [matmul + bias + relu], K -> K)
/// with its own input; returns the branch output tensor id.
int64_t addMlpBranch(graph::Graph &G, int64_t M, int64_t K, int Layers,
                     uint64_t Seed, const std::string &Name) {
  Rng R(Seed);
  const int64_t X = G.addTensor(DataType::F32, {M, K}, Name + "_x");
  G.markInput(X);
  int64_t Cur = X;
  for (int L = 0; L < Layers; ++L) {
    const std::string Tag = Name + "_l" + std::to_string(L);
    const int64_t W = G.addTensor(DataType::F32, {K, K}, Tag + "_w",
                                  graph::TensorProperty::Constant);
    runtime::TensorData WData(DataType::F32, {K, K});
    WData.fillRandom(R);
    G.setConstantData(W, std::move(WData));
    const int64_t B = G.addTensor(DataType::F32, {K}, Tag + "_b",
                                  graph::TensorProperty::Constant);
    runtime::TensorData BData(DataType::F32, {K});
    BData.fillRandom(R);
    G.setConstantData(B, std::move(BData));
    const int64_t Mm =
        G.addOp(graph::OpKind::MatMul, {Cur, W}, DataType::F32, {M, K});
    const int64_t Biased =
        G.addOp(graph::OpKind::Add, {Mm, B}, DataType::F32, {M, K});
    Cur = G.addOp(graph::OpKind::ReLU, {Biased}, DataType::F32, {M, K});
  }
  return Cur;
}

/// Adds one small single-head attention branch (Q*K^T -> scale ->
/// softmax -> *V) with its own Q/K/V inputs; returns the output id.
int64_t addMhaBranch(graph::Graph &G, int64_t S, int64_t D,
                     const std::string &Name) {
  const std::vector<int64_t> Bhsd = {1, 1, S, D};
  const std::vector<int64_t> Scores = {1, 1, S, S};
  const int64_t Q = G.addTensor(DataType::F32, Bhsd, Name + "_q");
  const int64_t K = G.addTensor(DataType::F32, Bhsd, Name + "_k");
  const int64_t V = G.addTensor(DataType::F32, Bhsd, Name + "_v");
  G.markInput(Q);
  G.markInput(K);
  G.markInput(V);
  const int64_t ScaleC = G.addTensor(DataType::F32, {1}, Name + "_scale",
                                     graph::TensorProperty::Constant);
  runtime::TensorData SD(DataType::F32, {1});
  SD.dataAs<float>()[0] = 1.0f / std::sqrt(static_cast<float>(D));
  G.setConstantData(ScaleC, std::move(SD));
  const int64_t ScoresT =
      G.addOp(graph::OpKind::MatMul, {Q, K}, DataType::F32, Scores,
              {{"transpose_b", int64_t(1)}});
  const int64_t Scaled =
      G.addOp(graph::OpKind::Mul, {ScoresT, ScaleC}, DataType::F32, Scores);
  const int64_t P = G.addOp(graph::OpKind::Softmax, {Scaled}, DataType::F32,
                            Scores, {{"axis", int64_t(-1)}});
  return G.addOp(graph::OpKind::MatMul, {P, V}, DataType::F32, Bhsd);
}

/// The dependency-DAG scheduler probes (BENCH_4): independent MLP and
/// MHA branches compiled as separate partitions
/// (SplitIndependentPartitions). Under GC_SCHED=serial, execute() runs
/// each branch in order with parallel nests (paying one fork/join
/// barrier per nest); under GC_SCHED=async, submit().wait() overlaps the
/// branches on the pool as single tasks with serial nests — the win the
/// async scheduler is built for. The nest-rich MHA branches (softmax,
/// binary ops) are where the serial barrier cost bites most.
graph::Graph buildMlpMhaPipe(int BranchesEach, int64_t MlpM, int64_t MlpK,
                             int MlpLayers, int64_t MhaS, int64_t MhaD) {
  graph::Graph G;
  for (int B = 0; B < BranchesEach; ++B)
    G.markOutput(addMlpBranch(G, MlpM, MlpK, MlpLayers,
                              55 + static_cast<uint64_t>(B),
                              "mlp" + std::to_string(B)));
  for (int B = 0; B < BranchesEach; ++B)
    G.markOutput(addMhaBranch(G, MhaS, MhaD, "mha" + std::to_string(B)));
  return G;
}

/// relu(X*W+B) x Layers with a dynamic (late-bound) batch dimension when
/// \p Batch is LogicalTensor::kDynamicDim, or the exact-shape twin of the
/// same function otherwise (same seed => same weights).
graph::Graph buildDynMlp(int64_t Batch, int64_t Width = 96,
                         int Layers = 3, uint64_t Seed = 77) {
  graph::Graph G;
  Rng R(Seed);
  const int64_t X = G.addTensor(DataType::F32, {Batch, Width}, "x");
  G.markInput(X);
  int64_t Cur = X;
  for (int L = 0; L < Layers; ++L) {
    const std::string Tag = "l" + std::to_string(L);
    const int64_t W = G.addTensor(DataType::F32, {Width, Width},
                                  Tag + "_w",
                                  graph::TensorProperty::Constant);
    runtime::TensorData WData(DataType::F32, {Width, Width});
    WData.fillRandom(R);
    G.setConstantData(W, std::move(WData));
    const int64_t B = G.addTensor(DataType::F32, {Width}, Tag + "_b",
                                  graph::TensorProperty::Constant);
    runtime::TensorData BData(DataType::F32, {Width});
    BData.fillRandom(R);
    G.setConstantData(B, std::move(BData));
    const int64_t Mm = G.addOp(graph::OpKind::MatMul, {Cur, W},
                               DataType::F32, {Batch, Width});
    const int64_t Biased = G.addOp(graph::OpKind::Add, {Mm, B},
                                   DataType::F32, {Batch, Width});
    Cur = G.addOp(graph::OpKind::ReLU, {Biased}, DataType::F32,
                  {Batch, Width});
  }
  G.markOutput(Cur);
  return G;
}

/// Sweeps batch sizes through ONE batch-polymorphic compiled graph
/// (the dynbatch gate of scripts/bench_gate.py). Per
/// batch, three timings: "cold_us" — first execution at that batch's
/// bucket, paying the lazy specialization compile; "us_per_iter" — the
/// steady state, served from the specialization cache; "exact_us" — an
/// exact-shape compile of the same function in a fresh session, the
/// bound on what the bucketed execution may cost.
void runDynBatchCase(const char *Name) {
  // The dynbatch sweep takes 4 steady-state measurements per batch; cap
  // its per-measurement budget so the other bench gates (which re-run
  // this whole binary many times at their own GC_BENCH_MIN_TIME) do not
  // pay 20x that budget for cases they ignore. The dedicated
  // GC_BENCH_DYNBATCH_MIN_TIME override wins over the cap — it is what
  // the dynbatch gate sets, so raising that knob really does stabilize
  // this gate on a noisy host.
  const std::string DynBudget = getEnvString("GC_BENCH_DYNBATCH_MIN_TIME", "");
  double Budget = std::min(minMeasureTime(), 0.05);
  if (!DynBudget.empty()) {
    // Parse defensively (unlike the legacy GC_BENCH_MIN_TIME stod): a
    // typo degrades to the capped default instead of terminating the
    // whole bench binary.
    char *End = nullptr;
    const double Parsed = std::strtod(DynBudget.c_str(), &End);
    if (End != DynBudget.c_str() && Parsed >= 0)
      Budget = Parsed;
  }
  auto measureUs = [Budget](const std::function<void()> &Fn) {
    return measureSeconds(Fn, /*Warmup=*/1, Budget) * 1e6;
  };

  api::Session PolyS;
  graph::Graph DynG = buildDynMlp(graph::LogicalTensor::kDynamicDim);
  Expected<api::CompiledGraphPtr> PolyOr = PolyS.compile(DynG);
  if (!PolyOr) {
    std::printf("{\"bench\":\"%s\",\"error\":\"%s\"}\n", Name,
                PolyOr.status().toString().c_str());
    return;
  }
  api::Stream PolyStr = PolyS.stream();

  for (int64_t Batch : {1, 4, 7, 32, 113}) {
    runtime::TensorData In(DataType::F32, {Batch, 96});
    Rng R(99);
    In.fillRandom(R);
    runtime::TensorData Out(DataType::F32, {Batch, 96});

    // Cold: one execution, including the lazy bucket compile (a fresh
    // bucket per swept batch, so every iteration of this loop pays it).
    Timer ColdT;
    const Status ColdStatus = PolyStr.execute(**PolyOr, {&In}, {&Out});
    const double ColdUs = ColdT.seconds() * 1e6;
    if (!ColdStatus.isOk()) {
      std::printf("{\"bench\":\"%s_b%lld\",\"error\":\"%s\"}\n", Name,
                  (long long)Batch, ColdStatus.toString().c_str());
      continue;
    }
    // Exact-shape oracle in a fresh session (no shared partition cache).
    // Warm (bucket-cache hit) and exact are measured twice each,
    // interleaved, keeping the minimum: the gate scores their ratio, so
    // host drift between back-to-back measurements must not land
    // entirely on one side.
    api::Session ExactS;
    Instance ExactW(buildDynMlp(Batch));
    Expected<api::CompiledGraphPtr> ExactOr = ExactS.compile(ExactW.G);
    double WarmUs = -1.0, ExactUs = -1.0;
    api::Stream ExactStr = ExactS.stream();
    for (int Round = 0; Round < 2; ++Round) {
      const double W =
          measureUs([&] { (void)PolyStr.execute(**PolyOr, {&In}, {&Out}); });
      WarmUs = WarmUs < 0 ? W : std::min(WarmUs, W);
      if (ExactOr) {
        const double E = measureUs([&] {
          (void)ExactStr.execute(**ExactOr, ExactW.InPtrs, ExactW.OutPtrs);
        });
        ExactUs = ExactUs < 0 ? E : std::min(ExactUs, E);
      }
    }

    std::printf(
        "{\"bench\":\"%s_b%lld\",\"sched\":\"%s\","
        "\"isa\":\"%s\",\"kernels\":\"%s\",\"threads\":%d,"
        "\"partitions\":%zu,\"fallback_partitions\":0,"
        "\"batch\":%lld,\"bucket\":%lld,\"specializations\":%zu,"
        "\"cold_us\":%.2f,\"exact_us\":%.2f,\"us_per_iter\":%.2f,"
        "\"cache_hit\":%d}\n",
        Name, (long long)Batch, AsyncMode ? "async" : "serial",
        kernels::isaName().c_str(),
        kernels::kernelTierName(kernels::activeKernelTier()),
        PolyS.threadPool().numThreads(),
        (*PolyOr)->cachedSpecializationFor(Batch)->numPartitions(),
        (long long)Batch,
        (long long)core::batchBucket(Batch, PolyS.options().Bucketing),
        (*PolyOr)->numSpecializations(), ColdUs, ExactUs, WarmUs,
        (*PolyOr)->specializationHits() > 0 ? 1 : 0);
    std::fflush(stdout);
  }
}

/// Cold-start probes (scripts/bench_gate.py cache, BENCH_7): the time
/// a fresh process needs to reach its first inference result, without and
/// with a populated persistent artifact cache. "cold_start_us" is a fresh
/// session compiling from source (disk cache off) plus the first execute
/// — which runs the constant-fold / weight-packing pass; "warm_start_us"
/// is a fresh session (empty in-memory cache — exactly what a new process
/// looks like to the compiler) deserializing the artifact in read mode
/// plus the first execute, which finds the fold pre-fired from the
/// payload's shipped fold outputs. Both are medians over several fresh
/// sessions inside this run; the gate script additionally re-runs the
/// whole binary and takes medians across runs. "bit_identical" reports
/// whether the disk-loaded partition reproduces the cold compile's output
/// bytes exactly — the cache must never change numerics.
void runColdStartCase(const char *Name, graph::Graph (*Build)()) {
  char Tmpl[] = "/tmp/gc_bench_artifact_XXXXXX";
  const char *Dir = mkdtemp(Tmpl);
  if (!Dir) {
    std::printf("{\"bench\":\"%s\",\"error\":\"mkdtemp failed\"}\n", Name);
    return;
  }
  const auto CacheOpts = [&](runtime::CacheMode Mode) {
    core::CompileOptions O;
    O.CacheMode = Mode;
    O.CacheDir = Dir;
    O.CacheMaxBytes = 0;
    return O;
  };
  const auto Median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };

  // Populate the cache directory and capture the reference output.
  Instance W(Build());
  size_t Partitions = 0;
  int Threads = 0;
  std::vector<runtime::TensorData> RefOut;
  {
    api::Session Seed(CacheOpts(runtime::CacheMode::ReadWrite));
    Expected<api::CompiledGraphPtr> C = Seed.compile(W.G);
    if (!C || !Seed.stream().execute(**C, W.InPtrs, W.OutPtrs).isOk()) {
      std::printf("{\"bench\":\"%s\",\"error\":\"seed compile failed\"}\n",
                  Name);
      return;
    }
    Partitions = (*C)->numPartitions();
    Threads = Seed.threadPool().numThreads();
    // Deep copies: TensorData copies share storage, and the warm sessions
    // below execute into the same W.Outputs buffers.
    for (const runtime::TensorData &T : W.Outputs)
      RefOut.push_back(T.clone());
  }

  constexpr int kRepeats = 5;
  std::vector<double> ColdUs, WarmUs;
  bool BitIdentical = true;
  for (int I = 0; I < kRepeats; ++I) {
    {
      api::Session Cold(CacheOpts(runtime::CacheMode::Off));
      Timer T;
      Expected<api::CompiledGraphPtr> C = Cold.compile(W.G);
      const bool Ok =
          C && Cold.stream().execute(**C, W.InPtrs, W.OutPtrs).isOk();
      ColdUs.push_back(T.seconds() * 1e6);
      if (!Ok)
        BitIdentical = false;
    }
    {
      api::Session Warm(CacheOpts(runtime::CacheMode::Read));
      Timer T;
      Expected<api::CompiledGraphPtr> C = Warm.compile(W.G);
      const bool Ok =
          C && Warm.stream().execute(**C, W.InPtrs, W.OutPtrs).isOk();
      WarmUs.push_back(T.seconds() * 1e6);
      if (!Ok || Warm.diskCacheHits() == 0) {
        BitIdentical = false;
        continue;
      }
      for (size_t O = 0; O < RefOut.size(); ++O)
        if (std::memcmp(RefOut[O].data(), W.Outputs[O].data(),
                        static_cast<size_t>(RefOut[O].numBytes())) != 0)
          BitIdentical = false;
    }
  }

  // Substitution-level probe: exactly the stages a disk hit trades —
  // "ready to serve at full speed". The cold side runs the partition
  // compile pipeline (passes + lowering + bytecode emission) plus the
  // constant fold (weight packing, normally paid by the first execute);
  // the warm side runs envelope load + codec deserialize +
  // re-validation, after which the fold is already pre-fired from the
  // payload's shipped outputs. The inference itself is identical on both
  // sides and excluded. The session-level numbers above additionally
  // carry work both paths share (graph validation, partitioning,
  // fingerprinting) plus one inference, which bounds their ratio; this
  // ratio is the cache's own win and is what the CI gate scores.
  double PipelineUs = 0, LoadUs = 0;
  {
    api::Partitioner Part(W.G);
    Expected<std::vector<api::PartitionSpec>> SpecsOr = Part.partition();
    core::CompileOptions Opts = CacheOpts(runtime::CacheMode::ReadWrite);
    auto Pool = core::globalThreadPool();
    if (SpecsOr && !SpecsOr->empty()) {
      const graph::Graph &Sub = SpecsOr.value()[0].Subgraph;
      runtime::ArtifactCache::Config Cfg;
      Cfg.Mode = runtime::CacheMode::ReadWrite;
      Cfg.Dir = Dir;
      Cfg.MaxBytes = 0;
      runtime::ArtifactCache Cache(std::move(Cfg));
      const uint64_t Key = core::artifactCacheKey(
          Sub.fingerprint(), Opts, Pool->numThreads());
      std::vector<double> PipeUs, LdUs;
      for (int I = 0; I < kRepeats; ++I) {
        Timer TP;
        Expected<std::shared_ptr<core::CompiledPartition>> P =
            core::compilePartition(Sub, Opts, Pool);
        if (P)
          P.value()->ensureFolded();
        PipeUs.push_back(TP.seconds() * 1e6);
        if (!P)
          continue;
        if (I == 0) {
          const std::vector<uint8_t> Payload =
              core::ArtifactCodec::serialize(*P.value());
          (void)Cache.store(Key, Payload.data(), Payload.size());
        }
        Timer TL;
        Expected<runtime::LoadedArtifact> Art = Cache.load(Key);
        if (Art) {
          Expected<std::shared_ptr<core::CompiledPartition>> L =
              core::ArtifactCodec::deserialize(Art->Payload,
                                               Art->PayloadBytes, Art->Map,
                                               Pool);
          if (L) {
            L.value()->ensureFolded();
            LdUs.push_back(TL.seconds() * 1e6);
          }
        }
      }
      if (!PipeUs.empty() && !LdUs.empty()) {
        PipelineUs = Median(PipeUs);
        LoadUs = Median(LdUs);
      }
    }
  }

  const double Cold = Median(ColdUs), Warm = Median(WarmUs);
  std::printf("{\"bench\":\"%s\",\"isa\":\"%s\","
              "\"kernels\":\"%s\",\"threads\":%d,\"partitions\":%zu,"
              "\"cold_start_us\":%.2f,\"warm_start_us\":%.2f,"
              "\"session_speedup\":%.2f,\"pipeline_us\":%.2f,"
              "\"load_us\":%.2f,\"speedup\":%.2f,\"bit_identical\":%d}\n",
              Name, kernels::isaName().c_str(),
              kernels::kernelTierName(kernels::activeKernelTier()),
              Threads, Partitions, Cold, Warm,
              Warm > 0 ? Cold / Warm : 0.0, PipelineUs, LoadUs,
              LoadUs > 0 ? PipelineUs / LoadUs : 0.0,
              BitIdentical ? 1 : 0);
  std::fflush(stdout);

  // Remove the throwaway cache directory.
  if (DIR *D = opendir(Dir)) {
    while (dirent *E = readdir(D)) {
      const std::string N = E->d_name;
      if (N != "." && N != "..")
        ::unlink((std::string(Dir) + "/" + N).c_str());
    }
    closedir(D);
  }
  ::rmdir(Dir);
}

graph::Graph buildColdStartMlp() {
  workloads::MlpSpec Spec;
  Spec.Batch = 64;
  Spec.LayerDims = workloads::mlp1Dims();
  return workloads::buildMlp(Spec);
}

graph::Graph buildColdStartMha() {
  workloads::MhaSpec Spec;
  Spec.Batch = 2;
  return workloads::buildMha(Spec);
}

/// Compile-bound cold start: many narrow layers, so the pass pipeline /
/// lowering / bytecode generation dominate and the weight payload stays
/// small. This is the regime the artifact cache is built for — the
/// mlp1/mha cases above are weight-heavy and bound by work both paths
/// share (fingerprinting, partition subgraph construction), so their
/// speedup ceiling is low regardless of how fast deserialization is.
graph::Graph buildColdStartMlpDeep() {
  workloads::MlpSpec Spec;
  Spec.Batch = 8;
  Spec.LayerDims.assign(25, 32);
  return workloads::buildMlp(Spec);
}

/// Fold-bound cold start: MLP-2's wide layers carry ~9 MB of weights, so
/// the constant fold (blocked packing of every weight matrix) dominates
/// the time-to-ready. A disk-warm process skips the fold entirely — the
/// packed weights ride in the artifact as zero-copy mmap views — which
/// is where the cache's speedup is largest.
graph::Graph buildColdStartMlpWide() {
  workloads::MlpSpec Spec;
  Spec.Batch = 1;
  Spec.LayerDims = workloads::mlp2Dims();
  return workloads::buildMlp(Spec);
}

/// Same shape in the quantized flavour: the fold additionally computes
/// the s8 compensation terms, while the payload shrinks to the packed
/// s8 weights — the widest cold/warm gap of the set.
graph::Graph buildColdStartMlpWideInt8() {
  workloads::MlpSpec Spec;
  Spec.Batch = 1;
  Spec.LayerDims = workloads::mlp2Dims();
  Spec.Int8 = true;
  return workloads::buildMlp(Spec);
}

} // namespace

int main() {
  api::Session S;

  // Smallest shapes first: interpretation-overhead probes (see header).
  runCase(S, "matmul_small_f32",
          workloads::buildSingleMatmul(/*Batch=*/8, /*K=*/32, /*N=*/32,
                                       /*Int8=*/false, /*Seed=*/11));

  workloads::MlpSpec MlpTiny;
  MlpTiny.Batch = 1;
  MlpTiny.LayerDims = {13, 64, 32, 16};
  runCase(S, "mlp_small_f32", workloads::buildMlp(MlpTiny));

  workloads::MlpSpec MlpDeep;
  MlpDeep.Batch = 1;
  MlpDeep.LayerDims = {16, 16, 16, 16, 16, 16, 16, 16};
  runCase(S, "mlp_deep_small_f32", workloads::buildMlp(MlpDeep));

  workloads::MhaSpec MhaTiny;
  MhaTiny.Batch = 1;
  MhaTiny.Heads = 1;
  MhaTiny.SeqLen = 16;
  MhaTiny.HeadDim = 16;
  runCase(S, "mha_small_f32", workloads::buildMha(MhaTiny));

  // Table 1 style medium shapes.
  workloads::MlpSpec Mlp1;
  Mlp1.Batch = 64;
  Mlp1.LayerDims = workloads::mlp1Dims();
  runCase(S, "mlp1_f32", workloads::buildMlp(Mlp1));

  workloads::MlpSpec Mlp1Int8 = Mlp1;
  Mlp1Int8.Int8 = true;
  runCase(S, "mlp1_int8", workloads::buildMlp(Mlp1Int8));

  workloads::MhaSpec Mha;
  Mha.Batch = 2;
  runCase(S, "mha_f32", workloads::buildMha(Mha));

  // Exp-heavy case: tracks the vectorized softmax/transcendental win.
  runCase(S, "softmax_f32", buildSoftmax(/*Rows=*/256, /*Cols=*/512));

  // Recompile an identical graph: measures the compiled-partition cache
  // (cache_hit should report 1 and compile cost should vanish).
  runCase(S, "mlp1_f32_recompile", workloads::buildMlp(Mlp1));

  // Multi-partition branch cases for the scheduler comparison
  // (scripts/bench_gate.py sched, BENCH_4.json): a dedicated session
  // splits independent branches into their own partitions; GC_SCHED
  // selects execute() or submit().wait() for the same compiled graph.
  core::CompileOptions BranchOpts;
  BranchOpts.SplitIndependentPartitions = true;
  api::Session SBranch(BranchOpts);
  runCase(SBranch, "async_mlp_mha_f32",
          buildMlpMhaPipe(/*BranchesEach=*/2, /*MlpM=*/32, /*MlpK=*/32,
                          /*MlpLayers=*/1, /*MhaS=*/48, /*MhaD=*/32));
  runCase(SBranch, "async_mlp_mha_x8_f32",
          buildMlpMhaPipe(/*BranchesEach=*/4, /*MlpM=*/32, /*MlpK=*/32,
                          /*MlpLayers=*/1, /*MhaS=*/48, /*MhaD=*/32));

  // Batch-polymorphic sweep: one compile served at five batch sizes
  // (scripts/bench_gate.py dynbatch gates warm-vs-cold and
  // warm-vs-exact).
  runDynBatchCase("dynbatch_mlp_f32");

  // Persistent artifact-cache cold-start probes: compile-from-source vs
  // mmap-deserialize-from-disk in a fresh session
  // (scripts/bench_gate.py cache gates the speedup and bit-identical
  // numerics; BENCH_7.json).
  runColdStartCase("coldstart_mlp1_f32", buildColdStartMlp);
  runColdStartCase("coldstart_mha_f32", buildColdStartMha);
  runColdStartCase("coldstart_mlp_deep_f32", buildColdStartMlpDeep);
  runColdStartCase("coldstart_mlp_wide_f32", buildColdStartMlpWide);
  runColdStartCase("coldstart_mlp_wide_int8", buildColdStartMlpWideInt8);
  return 0;
}
