//===- replay.cpp - Stage-by-stage replay of one graph --------------------===//

#include "bench.h"
#include "trace.h"

#include "api/partitioner.h"
#include "core/artifact.h"
#include "runtime/artifact_cache.h"
#include "verify/verify.h"

using namespace gc;

namespace perfbench {

Replay replayGraph(const Config &Cfg, const Instance &I,
                   const std::vector<runtime::TensorData> &First,
                   const std::string &CacheDir, LayerReport &L, Result &R) {
  const core::CompileOptions Opts = sessionOptions(Cfg.Threads, I.Fam);
  Replay Out;
  L.Graphs += 1;
  tracer::Span Root("replay", static_cast<uint64_t>(L.Graphs));
  graph::Graph G = I.G.clone();
  {
    tracer::Span S("graph.finalize");
    if (const Status St = G.finalize(); !St.isOk())
      fatal("finalize failed: " + St.toString());
  }
  {
    tracer::Span S("graph.fingerprint");
    (void)G.fingerprint();
  }
  Expected<std::vector<api::PartitionSpec>> Specs =
      Status::error(StatusCode::Internal, "not partitioned");
  {
    tracer::Span S("api.partition");
    Specs = api::Partitioner(G).partition(Opts.SplitIndependentPartitions);
  }
  if (!Specs)
    fatal("partition failed: " + Specs.status().toString());
  Out.S = std::make_unique<api::Session>(Opts);
  {
    tracer::Span S("api.compile");
    Expected<api::CompiledGraphPtr> CG = Out.S->compile(G);
    if (!CG)
      fatal("compile failed: " + CG.status().toString());
    Out.CG = *CG;
  }
  for (const api::PartitionSpec &Spec : *Specs) {
    L.Partitions += 1;
    if (Spec.Kind != api::PartitionKind::Compiled) {
      L.FallbackPartitions += 1;
      continue;
    }
    Expected<std::unique_ptr<StagedPartition>> P =
        stageCompile(Spec.Subgraph, Opts, Cfg.Threads);
    if (!P)
      fatal("staged compile failed: " + P.status().toString());
    Out.Staged.push_back(P.takeValue());
  }

  // Artifact round trip of every compiled partition.
  runtime::ArtifactCache::Config CacheCfg;
  CacheCfg.Mode = runtime::CacheMode::ReadWrite;
  CacheCfg.Dir = CacheDir;
  CacheCfg.MaxBytes = 0;
  const runtime::ArtifactCache Cache(CacheCfg);
  const auto LoadPool = std::make_shared<runtime::ThreadPool>(Cfg.Threads);
  const api::CompiledGraph &CG = *Out.CG;
  for (size_t PI = 0, Sub = 0; PI < CG.numPartitions(); ++PI) {
    const std::shared_ptr<core::CompiledPartition> CP =
        CG.compiledPartition(PI);
    if (!CP)
      continue;
    while ((*Specs)[Sub].Kind != api::PartitionKind::Compiled)
      ++Sub;
    const uint64_t Key = core::artifactCacheKey(
        (*Specs)[Sub++].Subgraph.fingerprint(), Opts, Cfg.Threads);
    std::vector<uint8_t> Payload;
    {
      tracer::Span S("core.serialize");
      Payload = core::ArtifactCodec::serialize(*CP);
    }
    tracer::count("runtime.cache.entry_kb",
                  static_cast<double>(Payload.size()) / 1024);
    Status Stored = Status::ok();
    {
      tracer::Span S("runtime.cache.store");
      Stored = Cache.store(Key, Payload.data(), Payload.size());
    }
    Expected<runtime::LoadedArtifact> Art =
        Status::error(StatusCode::Internal, "not loaded");
    {
      tracer::Span S("runtime.cache.load");
      Art = Cache.load(Key);
    }
    if (!Stored.isOk() || !Art) {
      R.op(false, "artifact store and load");
      continue;
    }
    Expected<std::shared_ptr<core::CompiledPartition>> Loaded =
        Status::error(StatusCode::Internal, "not deserialized");
    {
      tracer::Span S("core.deserialize");
      Loaded = core::ArtifactCodec::deserialize(Art->Payload, Art->PayloadBytes,
                                                Art->Map, LoadPool);
    }
    if (!Loaded) {
      R.op(false, "artifact deserialize");
      continue;
    }
    {
      tracer::Span S("verify.load");
      {
        tracer::Span V("verify.verifyGraph");
        R.op(verify::verifyGraph((*Loaded)->optimizedGraph(), "perfbench")
                 .isOk(),
             "loaded graph verification");
      }
      {
        tracer::Span V("verify.verifyLoadedProgram");
        R.op(verify::verifyLoadedProgram((*Loaded)->bytecode(), "perfbench")
                 .isOk(),
             "loaded program verification");
      }
    }
    if (CG.numPartitions() == 1) {
      std::vector<runtime::TensorData> Outs = I.freshOutputs();
      std::vector<runtime::TensorData *> OutPtrs;
      for (runtime::TensorData &T : Outs)
        OutPtrs.push_back(&T);
      R.op((*Loaded)->execute(I.InPtrs, OutPtrs).isOk() &&
               bitIdentical(Outs, First),
           "loaded artifact output vs session output");
    }
  }
  return Out;
}

std::unique_ptr<exec::Executor>
bindReplay(Replay &Rp, const Instance &I,
           std::vector<runtime::TensorData> &Outputs,
           runtime::ThreadPool &Pool) {
  if (Rp.Staged.size() != 1 || Rp.CG->numFallbackPartitions() != 0)
    return nullptr;
  TensorBinding Tensors;
  for (size_t In = 0; In < I.Inputs.size(); ++In)
    Tensors[I.G.inputs()[In]] =
        const_cast<runtime::TensorData *>(&I.Inputs[In]);
  for (size_t O = 0; O < Outputs.size(); ++O)
    Tensors[I.G.outputs()[O]] = &Outputs[O];
  return bindStaged(*Rp.Staged[0], Tensors, Pool);
}

} // namespace perfbench
