//===- main.cpp - Repository benchmark driver -----------------------------===//
//
// gc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>] [--commit <id>] [--source <hash>]
//
// Runs one workload in this process and prints, on stdout, a provenance
// line and then, as the last line, the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A table of the same metrics goes to stderr.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "trace.h"

#include "kernels/cpu_features.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unistd.h>

using namespace gc;
using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    fatal("non-finite metric value");
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void usage() {
  fatal("usage: gc_perfbench --workload "
        "bert_int8|dlrm_f32|serve_mlp1_int8|cold_start --seed N "
        "--seconds S --trace 0|1 [--out-dir D] [--commit C] [--source H]");
}

} // namespace

int main(int Argc, char **Argv) {
  Config Cfg;
  std::string Commit = "unknown", Source = "unknown";
  Cfg.OutDir = ".bench_build/perfbench-out";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Cfg.Workload = Val;
    else if (Key == "--seed")
      Cfg.Seed = std::stoull(Val), HaveSeed = true;
    else if (Key == "--seconds")
      Cfg.Seconds = std::stod(Val), HaveSeconds = true;
    else if (Key == "--trace")
      Cfg.Trace = Val == "1", HaveTrace = true;
    else if (Key == "--out-dir")
      Cfg.OutDir = Val;
    else if (Key == "--commit")
      Commit = Val;
    else if (Key == "--source")
      Source = Val;
    else
      usage();
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || Cfg.Seconds <= 0)
    usage();
  Cfg.Nproc = static_cast<int>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));

  const std::map<std::string, void (*)(const Config &, Result &)> Workloads = {
      {"bert_int8", runBertInt8},
      {"dlrm_f32", runDlrmF32},
      {"serve_mlp1_int8", runServeMlp1Int8},
      {"cold_start", runColdStart}};
  const auto It = Workloads.find(Cfg.Workload);
  if (It == Workloads.end())
    usage();

  Result R;
  It->second(Cfg, R);

  std::string TracePath;
  if (Cfg.Trace) {
    TracePath = Cfg.OutDir + "/trace-" + Cfg.Workload + "-seed" +
                std::to_string(Cfg.Seed) + ".json";
    if (!tracer::writeChromeTrace(TracePath))
      fatal("cannot write " + TracePath);
    std::fprintf(stderr, "%-28s %10s %10s %8s\n", "span", "total_ms",
                 "self_ms", "count");
    for (const auto &[Name, T] : tracer::totals())
      std::fprintf(stderr, "%-28s %10.3f %10.3f %8llu\n", Name.c_str(), T.Ms,
                   T.SelfMs, static_cast<unsigned long long>(T.Count));
  }

  const double FailFrac =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0.0;
  std::fprintf(stderr, "%-32s %20s %-8s %10s\n", "metric", "value", "unit",
               "samples");
  for (const Metric &M : R.Metrics)
    std::fprintf(stderr, "%-32s %20.6f %-8s %10llu\n", M.Name.c_str(),
                 M.Value, M.Unit.c_str(),
                 static_cast<unsigned long long>(M.Samples));
  std::fprintf(stderr, "%-32s %20.6f %-8s %10llu\n", "fail_frac", FailFrac,
               "ratio", static_cast<unsigned long long>(R.Attempted));

  // Provenance: results from different hosts or kernel tiers are never
  // compared.
  std::string Prov = "{\"provenance\":{";
  Prov += "\"workload\":" + jsonString(Cfg.Workload);
  Prov += ",\"seed\":" + std::to_string(Cfg.Seed);
  Prov += ",\"seconds\":" + number(Cfg.Seconds);
  Prov += ",\"trace\":" + std::string(Cfg.Trace ? "1" : "0");
  Prov += ",\"commit\":" + jsonString(Commit);
  Prov += ",\"source\":" + jsonString(Source);
  Prov += ",\"isa\":" + jsonString(kernels::isaName());
  Prov += ",\"kernel_tier\":" +
          jsonString(kernels::kernelTierName(kernels::activeKernelTier()));
  Prov += ",\"nproc\":" + std::to_string(Cfg.Nproc);
  Prov += ",\"pool_threads\":" + std::to_string(Cfg.Threads);
  for (const auto &[Key, Value] : R.Info)
    Prov += "," + jsonString(Key) + ":" + Value;
  if (!TracePath.empty())
    Prov += ",\"trace_file\":" + jsonString(TracePath);
  Prov += ",\"fail_frac\":" + number(FailFrac);
  Prov += ",\"samples\":{";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    Prov += (I ? "," : "") + jsonString(R.Metrics[I].Name) + ":" +
            std::to_string(R.Metrics[I].Samples);
  Prov += "}}}";
  std::printf("%s\n", Prov.c_str());

  std::string Out = "{\"correct\":";
  Out += R.Failed == 0 ? "true" : "false";
  Out += ",\"attempted\":" + std::to_string(R.Attempted);
  Out += ",\"failed\":" + std::to_string(R.Failed);
  Out += ",\"metrics\":{";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    Out += (I ? "," : "") + jsonString(R.Metrics[I].Name) +
           ":{\"value\":" + number(R.Metrics[I].Value) +
           ",\"unit\":" + jsonString(R.Metrics[I].Unit) + "}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
