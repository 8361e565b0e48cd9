//===- bench.cpp - Shared pieces of the repository benchmark --------------===//

#include "bench.h"

#include "graph/reference.h"
#include "support/dtype.h"
#include "support/rng.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gc;

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double windowedQuantile(const std::vector<double> &V, size_t Windows,
                        double Q) {
  const size_t Len = V.size() / std::max<size_t>(Windows, 1);
  if (Len == 0)
    return quantile(V, Q);
  std::vector<double> PerWindow;
  for (size_t W = 0; W < Windows; ++W)
    PerWindow.push_back(quantile(
        std::vector<double>(V.begin() + W * Len, V.begin() + (W + 1) * Len),
        Q));
  return median(std::move(PerWindow));
}

double windowedRate(const std::vector<double> &DoneMs, size_t Windows) {
  const size_t Len = DoneMs.size() / std::max<size_t>(Windows, 1);
  if (Len == 0)
    return 0;
  std::vector<double> Rates;
  for (size_t W = 0; W < Windows; ++W) {
    const double Begin = W == 0 ? 0.0 : DoneMs[W * Len - 1];
    const double End = DoneMs[(W + 1) * Len - 1];
    Rates.push_back(static_cast<double>(Len) / ((End - Begin) / 1e3));
  }
  return median(std::move(Rates));
}

void Result::ops(uint64_t N, uint64_t NFailed, const std::string &What) {
  static int Logged = 0;
  if (NFailed && Logged++ < 10)
    std::fprintf(stderr, "perfbench: %llu failed: %s\n",
                 static_cast<unsigned long long>(NFailed), What.c_str());
  Attempted += N;
  Failed += NFailed;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace {

struct Tolerance {
  double Rel;   ///< f32 outputs: maxRelDiff(.., eps 1e-2) bound
  double Quant; ///< quantized outputs: maxAbsDiff bound, in grid steps
};

Tolerance toleranceOf(Family F) {
  switch (F) {
  case Family::MlpF32:
  case Family::MlpInt8:
    return {2e-3, 1.0};
  case Family::MhaF32:
    return {5e-3, 1.0};
  case Family::MhaInt8:
    return {8e-2, 1.0};
  case Family::BertF32:
    return {2e-2, 1.0};
  case Family::BertInt8:
    return {0.0, 16.0};
  }
  return {0.0, 0.0};
}

bool allFinite(const runtime::TensorData &T) {
  if (T.dtype() != DataType::F32)
    return true;
  const float *P = T.dataAs<float>();
  for (int64_t I = 0, E = T.numElements(); I < E; ++I)
    if (!std::isfinite(P[I]))
      return false;
  return true;
}

/// Element \p I of \p T as a double.
double elementOf(const runtime::TensorData &T, int64_t I) {
  switch (T.dtype()) {
  case DataType::U8:
    return T.dataAs<uint8_t>()[I];
  case DataType::S8:
    return T.dataAs<int8_t>()[I];
  case DataType::S32:
    return T.dataAs<int32_t>()[I];
  case DataType::F64:
    return T.dataAs<double>()[I];
  default:
    return T.dataAs<float>()[I];
  }
}

/// Quantized outputs of rows that pass through a rounding tie: the grid
/// steps tests/test_bert_layer.cpp allows int8 layers in series, where
/// one step flipped early grows as later layers carry it on.
constexpr double kTiedRowSteps = 16.0;

/// True when every element of \p Got is within \p Steps of \p Ref, or
/// within kTiedRowSteps on a row that \p TiedRows marks. The rows split
/// the tensor evenly; with \p TiedRows empty, no row is tied.
bool withinSteps(const runtime::TensorData &Got, const runtime::TensorData &Ref,
                 const std::vector<bool> &TiedRows, double Steps) {
  const int64_t N = Got.numElements();
  const int64_t PerRow =
      TiedRows.empty() ? N : N / static_cast<int64_t>(TiedRows.size());
  for (int64_t I = 0; I < N; ++I) {
    const bool Tied =
        !TiedRows.empty() && TiedRows[static_cast<size_t>(I / PerRow)];
    if (std::fabs(elementOf(Got, I) - elementOf(Ref, I)) >
        (Tied ? kTiedRowSteps : Steps))
      return false;
  }
  return true;
}

/// \p G with every f32 tensor, constants included, widened to f64, so
/// the reference interpreter evaluates it in double precision.
graph::Graph widenedToF64(const graph::Graph &G) {
  graph::Graph W = G.clone();
  for (int64_t Id : W.tensorIds()) {
    graph::LogicalTensor &T = W.tensor(Id);
    if (T.Ty != DataType::F32)
      continue;
    T.Ty = DataType::F64;
    if (runtime::TensorData *C = W.mutableConstantData(Id)) {
      runtime::TensorData D(DataType::F64, C->shape());
      for (int64_t I = 0, E = C->numElements(); I < E; ++I)
        D.dataAs<double>()[I] = C->dataAs<float>()[I];
      *C = std::move(D);
    }
  }
  return W;
}

/// The tied batch rows of an int8 MLP (see Instance::TiedRows), given
/// its f32 reference evaluation \p Env32. The batch rows of an MLP never
/// mix, so a tie changes only its own row. An f32 implementation rounds
/// differently from exact arithmetic only near a half step. For the
/// compiled code, whose int8 accumulation is exact, "near" is a few f32
/// ulps of the value in steps, plus 4 steps for a bias added after the
/// scaling. For the reference it is the reference's own rounding error,
/// which the f64 evaluation shows directly. Over 1000 seeds of MLP-1,
/// every compiled row more than one step off the reference was tied at
/// 2 ulps; 8 leaves a margin.
std::vector<bool> tiedRows(const graph::Graph &G,
                           const graph::TensorMap &Env32,
                           const std::vector<runtime::TensorData> &Inputs) {
  const graph::Graph Wide = widenedToF64(G);
  graph::TensorMap Env64;
  for (size_t I = 0; I < Inputs.size(); ++I)
    Env64[G.inputs()[I]] = Inputs[I].clone();
  graph::evalGraphReference(Wide, Env64);
  const int64_t Rows = G.tensor(G.inputs()[0]).Shape[0];
  std::vector<bool> Tied(static_cast<size_t>(Rows), false);
  for (int64_t OpId : G.topologicalOrder()) {
    const graph::Op &O = G.op(OpId);
    if (O.kind() != graph::OpKind::Quantize)
      continue;
    const double Scale = O.getAttrFloat("scale", 1.0);
    const runtime::TensorData &X = Env64.at(O.input(0));
    const runtime::TensorData &Q32 = Env32.at(O.output(0));
    const runtime::TensorData &Q64 = Env64.at(O.output(0));
    const int64_t PerRow = X.numElements() / Rows;
    for (int64_t I = 0, E = X.numElements(); I < E; ++I) {
      const double Q = X.dataAs<double>()[I] / Scale;
      const double FromHalf = std::fabs(Q - std::floor(Q) - 0.5);
      if (elementOf(Q32, I) != elementOf(Q64, I) ||
          FromHalf <= std::ldexp(8.0, -24) * (std::fabs(Q) + 4.0))
        Tied[static_cast<size_t>(I / PerRow)] = true;
    }
  }
  return Tied;
}

} // namespace

bool matchesReference(const std::vector<runtime::TensorData> &Got,
                      const Instance &Want) {
  const std::vector<runtime::TensorData> &Ref = Want.Reference;
  if (Got.size() != Ref.size())
    return false;
  const Tolerance Tol = toleranceOf(Want.Fam);
  for (size_t I = 0; I < Got.size(); ++I) {
    if (Got[I].numElements() != Ref[I].numElements() || !allFinite(Got[I]))
      return false;
    if (isQuantizedType(Got[I].dtype())) {
      if (!withinSteps(Got[I], Ref[I], Want.TiedRows, Tol.Quant))
        return false;
    } else if (runtime::maxRelDiff(Got[I], Ref[I], 1e-2) > Tol.Rel) {
      return false;
    }
  }
  return true;
}

bool bitIdentical(const std::vector<runtime::TensorData> &A,
                  const std::vector<runtime::TensorData> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].numBytes() != B[I].numBytes() ||
        std::memcmp(A[I].data(), B[I].data(),
                    static_cast<size_t>(A[I].numBytes())) != 0)
      return false;
  return true;
}

std::vector<runtime::TensorData>
cloneAll(const std::vector<runtime::TensorData> &Ts) {
  std::vector<runtime::TensorData> Out;
  Out.reserve(Ts.size());
  for (const runtime::TensorData &T : Ts)
    Out.push_back(T.clone());
  return Out;
}

Instance::Instance(graph::Graph Graph, Family F, uint64_t Seed, float Scale)
    : G(std::move(Graph)), Fam(F) {
  Rng R(Seed);
  for (int64_t In : G.inputs()) {
    const graph::LogicalTensor &T = G.tensor(In);
    Inputs.emplace_back(T.Ty, T.Shape);
    Inputs.back().fillRandom(R);
    if (T.Ty == DataType::F32) {
      float *P = Inputs.back().dataAs<float>();
      const float Mul = T.Name == "mask" ? 0.0f : Scale;
      for (int64_t I = 0, E = Inputs.back().numElements(); I < E; ++I)
        P[I] *= Mul;
    }
  }
  Outputs = freshOutputs();
  for (runtime::TensorData &T : Inputs)
    InPtrs.push_back(&T);
  for (runtime::TensorData &T : Outputs)
    OutPtrs.push_back(&T);
}

void Instance::computeReference() {
  graph::TensorMap Env;
  for (size_t I = 0; I < Inputs.size(); ++I)
    Env[G.inputs()[I]] = Inputs[I].clone();
  graph::evalGraphReference(G, Env);
  Reference.clear();
  for (int64_t Id : G.outputs())
    Reference.push_back(Env.at(Id).clone());
  if (Fam == Family::MlpInt8)
    TiedRows = tiedRows(G, Env, Inputs);
}

std::vector<runtime::TensorData> Instance::freshOutputs() const {
  std::vector<runtime::TensorData> Out;
  for (int64_t Id : G.outputs()) {
    const graph::LogicalTensor &T = G.tensor(Id);
    Out.emplace_back(T.Ty, T.Shape);
  }
  return Out;
}

void computeReferences(const std::vector<Instance *> &Is, int Threads) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < std::max(1, Threads); ++T)
    Workers.emplace_back([&] {
      for (size_t I = Next++; I < Is.size(); I = Next++)
        Is[I]->computeReference();
    });
  for (std::thread &W : Workers)
    W.join();
}

core::CompileOptions sessionOptions(int Threads, Family Fam) {
  core::CompileOptions O;
  O.Threads = Threads;
  O.FastSoftmax = Fam != Family::BertF32 && Fam != Family::BertInt8;
  O.Exec = exec::Backend::Bytecode;
  O.SplitIndependentPartitions = false;
  O.AsyncExec = false;
  O.Bucketing = core::BatchBucketing::Pow2;
  O.SpecCacheCap = 16;
  O.CacheMode = runtime::CacheMode::Off;
  O.CacheDir.clear();
  O.CacheMaxBytes = 0;
  return O;
}

std::string makeScratchDir(const Config &Cfg, const std::string &Tag) {
  ::mkdir(Cfg.OutDir.c_str(), 0755);
  static int Counter = 0;
  const std::string Dir = Cfg.OutDir + "/" + Tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(Counter++);
  removeScratchDir(Dir);
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

void removeScratchDir(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      const std::string N = E->d_name;
      if (N != "." && N != "..")
        ::unlink((Dir + "/" + N).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

void reportEndToEnd(const EndToEnd &E, Result &R) {
  const size_t Len = E.LatMs.size() / std::max<size_t>(E.Windows, 1);
  std::fprintf(stderr, "window p50 ms:");
  for (size_t W = 0; Len && W < E.Windows; ++W)
    std::fprintf(stderr, " %.4g",
                 quantile(std::vector<double>(E.LatMs.begin() + W * Len,
                                              E.LatMs.begin() + (W + 1) * Len),
                          0.5));
  std::fprintf(stderr, "\n");
  R.set("setup_s", median(E.SetupS), "s", E.SetupS.size());
  R.set("lat_p50_ms", windowedQuantile(E.LatMs, E.Windows, 0.5), "ms",
        E.LatMs.size());
  R.set("lat_p90_ms", windowedQuantile(E.LatMs, E.Windows, 0.9), "ms",
        E.LatMs.size());
  R.set("ops_per_s", E.OpsPerS, "1/s", E.OpsCount);
  R.set("max_rate_per_s", E.MaxRatePerS, "1/s", E.RateSamples);
  R.set("warm_p50_ms", windowedQuantile(E.WarmMs, E.WarmWindows, 0.5), "ms",
        E.WarmMs.size());
  R.set("peak_rss_mb", peakRssMb(), "MiB", 1);
}

void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(1);
}

} // namespace perfbench
