//===- compiler.cpp - Partition compile/execute engine -----------------------------===//

#include "core/compiler.h"

#include "graph/reference.h"
#include "kernels/packing.h"
#include "passes/pass.h"
#include "support/common.h"
#include "support/env.h"
#include "support/fault.h"
#include "support/str.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace core {

using namespace graph;

bool defaultSplitPartitions() {
  return getEnvString("GC_PARTITION", "merge") == "split";
}

BatchBucketing defaultBatchBucketing() {
  return getEnvString("GC_BATCH_BUCKETS", "pow2") == "exact"
             ? BatchBucketing::Exact
             : BatchBucketing::Pow2;
}

int defaultSpecCacheCap() {
  // Clamped at the use site per the env-knob policy: a nonsensical value
  // must not disable the cache (cap 0 would recompile every execution)
  // nor pin unbounded numbers of specializations.
  return static_cast<int>(std::min<int64_t>(
      std::max<int64_t>(1, getEnvInt("GC_SPEC_CACHE", 16)), 4096));
}

int64_t batchBucket(int64_t Batch, BatchBucketing Policy) {
  assert(Batch > 0 && "bucket of a non-positive batch");
  if (Policy == BatchBucketing::Exact)
    return Batch;
  int64_t B = 1;
  while (B < Batch)
    B <<= 1;
  return B;
}

Expected<graph::Graph> specializeForBatch(const graph::Graph &G,
                                          int64_t Batch) {
  if (Batch <= 0)
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("cannot specialize for non-positive batch %lld",
                     (long long)Batch));
  graph::Graph Spec = G.specializeBatch(Batch);
  if (Status S = Spec.finalize(); !S.isOk())
    return S;
  return Expected<graph::Graph>(std::move(Spec));
}

//===----------------------------------------------------------------------===//
// Fold function execution (constant weight preprocessing, §V)
//===----------------------------------------------------------------------===//

namespace {

/// Packs one constant tensor according to its blocked target layout.
runtime::TensorData packConstant(const LogicalTensor &DstT,
                                 const runtime::TensorData &Src,
                                 bool TransposeSrc) {
  const int64_t Rank = DstT.rank();
  assert(Rank >= 2 && "blocked reorder needs a matrix");
  const int64_t Rows = DstT.Shape[static_cast<size_t>(Rank - 2)];
  const int64_t Cols = DstT.Shape[static_cast<size_t>(Rank - 1)];
  int64_t Lead = 1;
  for (int64_t D = 0; D + 2 < Rank; ++D)
    Lead *= DstT.Shape[static_cast<size_t>(D)];
  runtime::TensorData Out(DstT.Ty, {DstT.paddedNumElements()});
  const int64_t PerBatchSrc = Rows * Cols;
  const int64_t PerBatchDst = DstT.paddedNumElements() / Lead;
  for (int64_t B = 0; B < Lead; ++B) {
    kernels::PlainMatrix Mat;
    Mat.Rows = Rows;
    Mat.Cols = Cols;
    Mat.Ld = TransposeSrc ? Rows : Cols;
    Mat.Transposed = TransposeSrc;
    Mat.Data = static_cast<const char *>(Src.data()) +
               B * PerBatchSrc * dataTypeSize(DstT.Ty);
    char *Dst = static_cast<char *>(Out.data()) +
                B * PerBatchDst * dataTypeSize(DstT.Ty);
    switch (DstT.Lay.K) {
    case Layout::Kind::BlockedA:
      if (DstT.Ty == DataType::U8)
        kernels::packAU8(Mat, reinterpret_cast<uint8_t *>(Dst),
                         DstT.Lay.Block0, DstT.Lay.Block1);
      else
        kernels::packAF32(Mat, reinterpret_cast<float *>(Dst),
                          DstT.Lay.Block0, DstT.Lay.Block1);
      break;
    case Layout::Kind::BlockedB:
      kernels::packBF32(Mat, reinterpret_cast<float *>(Dst),
                        DstT.Lay.Block0, DstT.Lay.Block1);
      break;
    case Layout::Kind::BlockedBVnni:
      kernels::packBS8Vnni(Mat, reinterpret_cast<int8_t *>(Dst),
                           DstT.Lay.Block0, DstT.Lay.Block1);
      break;
    case Layout::Kind::Plain:
      GC_UNREACHABLE("packConstant called for a plain layout");
    }
  }
  return Out;
}

/// The op a fold-graph node computes: the sole op of a one-op FusedOp
/// region, or the node itself.
const Op &soleOp(const Op &O) {
  const Graph *Sub = O.subgraph();
  if (O.kind() != OpKind::FusedOp || !Sub || Sub->numOps() != 1)
    return O;
  const Op &Inner = Sub->op(Sub->opIds().front());
  return Inner.inputs() == Sub->inputs() && Inner.outputs() == Sub->outputs()
             ? Inner
             : O;
}

/// The low-precision pass's compensation chain: a ReduceSum over one axis
/// of a Cast s8 -> s32 of a rank-2 weight.
struct CompChain {
  int64_t CastOp = -1;
  int64_t Weight = -1;
  /// Sums along rows (one total per weight row) instead of down columns.
  bool ReduceCols = false;
};

/// Matches a compensation chain ending at \p Reduce whose s32 cast
/// nothing else reads.
std::optional<CompChain> matchCompChain(const Graph &FG, const Op &Reduce,
                                        const std::vector<int64_t> &FoldOutputs) {
  const Op &R = soleOp(Reduce);
  if (R.kind() != OpKind::ReduceSum || Reduce.numInputs() != 1)
    return std::nullopt;
  const int64_t Casted = Reduce.input(0);
  const int64_t CastOp = FG.producerOf(Casted);
  if (CastOp < 0 || FG.consumersOf(Casted).size() != 1 ||
      std::count(FoldOutputs.begin(), FoldOutputs.end(), Casted))
    return std::nullopt;
  const Op &Cast = FG.op(CastOp);
  if (soleOp(Cast).kind() != OpKind::Cast || Cast.numInputs() != 1)
    return std::nullopt;
  const LogicalTensor &W = FG.tensor(Cast.input(0));
  const LogicalTensor &Sum = FG.tensor(Reduce.output(0));
  if (W.Ty != DataType::S8 || W.rank() != 2 ||
      FG.tensor(Casted).Ty != DataType::S32 || Sum.Ty != DataType::S32)
    return std::nullopt;
  std::vector<int64_t> Axes = R.getAttrIntVec("axes");
  if (Axes.empty())
    Axes.push_back(1);
  if (Axes.size() != 1 || Axes[0] < -2 || Axes[0] > 1)
    return std::nullopt;
  CompChain C{CastOp, Cast.input(0), Axes[0] == 1 || Axes[0] == -1};
  if (Sum.numElements() != W.Shape[C.ReduceCols ? 0 : 1])
    return std::nullopt;
  return C;
}

} // namespace

void runFoldGraph(const Graph &FoldGraph,
                  const std::vector<int64_t> &FoldOutputs,
                  runtime::ConstCache &Cache) {
  TensorMap Env;
  // Constants are read in place. Every fold op writes a fresh owning
  // tensor, so no view reaches the cache.
  for (int64_t TId : FoldGraph.tensorIds())
    if (const runtime::TensorData *Data = FoldGraph.constantData(TId))
      Env[TId] = runtime::TensorData::view(Data->dtype(), Data->shape(),
                                           const_cast<void *>(Data->data()));
  const auto Bound = [&](int64_t Id) -> const runtime::TensorData & {
    const auto It = Env.find(Id);
    if (It == Env.end())
      fatalError("fold graph input unavailable");
    return It->second;
  };
  // Compensation chains run as one column-sum kernel over the s8 weight;
  // their s32 cast is never materialized.
  std::unordered_map<int64_t, CompChain> Comps; // keyed by the ReduceSum
  std::unordered_set<int64_t> CompCasts;
  for (int64_t OpId : FoldGraph.opIds())
    if (std::optional<CompChain> C =
            matchCompChain(FoldGraph, FoldGraph.op(OpId), FoldOutputs)) {
      CompCasts.insert(C->CastOp);
      Comps.emplace(OpId, *C);
    }
  for (int64_t OpId : FoldGraph.topologicalOrder()) {
    const Op &O = FoldGraph.op(OpId);
    if (CompCasts.count(OpId))
      continue;
    if (const auto It = Comps.find(OpId); It != Comps.end()) {
      const runtime::TensorData &W = Bound(It->second.Weight);
      const bool ReduceCols = It->second.ReduceCols;
      // A row sum is the column sum of the transposed weight.
      kernels::PlainMatrix Mat;
      Mat.Data = W.data();
      Mat.Rows = W.dim(ReduceCols ? 1 : 0);
      Mat.Cols = W.dim(ReduceCols ? 0 : 1);
      Mat.Ld = W.dim(1);
      Mat.Transposed = ReduceCols;
      runtime::TensorData Sum(DataType::S32,
                              FoldGraph.tensor(O.output(0)).Shape);
      kernels::colSumS8(Mat, Sum.dataAs<int32_t>());
      Env[O.output(0)] = std::move(Sum);
      continue;
    }
    if (O.kind() == OpKind::Reorder) {
      // Layout-aware packing (the reference treats Reorder as identity).
      const LogicalTensor &DstT = FoldGraph.tensor(O.output(0));
      const runtime::TensorData &Src = Bound(O.input(0));
      Env[O.output(0)] =
          DstT.Lay.isBlocked()
              ? packConstant(DstT, Src, O.getAttrInt("transpose_src", 0) != 0)
              : Src.clone();
      continue;
    }
    // No kernel covers this op: the reference evaluates it.
    std::vector<const runtime::TensorData *> Inputs;
    for (int64_t In : O.inputs())
      Inputs.push_back(&Bound(In));
    std::vector<runtime::TensorData> Outs =
        evalOpReference(FoldGraph, O, Inputs);
    for (size_t I = 0; I < Outs.size(); ++I)
      Env[O.output(I)] = std::move(Outs[I]);
  }
  for (int64_t OutId : FoldOutputs) {
    auto It = Env.find(OutId);
    if (It == Env.end())
      fatalError("fold output was not computed");
    Cache.put(OutId, std::move(It->second));
  }
}

//===----------------------------------------------------------------------===//
// CompiledPartition
//===----------------------------------------------------------------------===//

void CompiledPartition::runFoldFunction() {
  runFoldGraph(Prog.FoldGraph, Prog.FoldOutputs, Cache);
}

void CompiledPartition::ensureFolded() {
  std::call_once(FoldOnce, [this] {
    runFoldFunction();
    // The cache now serves every fold output, so execution reads raw
    // constants only through ConstData bindings, as a loaded partition
    // does: release the fold inputs (and the small constants lowering
    // baked), shared with the source graph until now.
    Prog.FoldGraph.dropConstantData();
    OptimizedG.dropConstantData(execConstants());
    FoldDone.store(true, std::memory_order_release);
  });
}

std::unordered_set<int64_t> CompiledPartition::execConstants() const {
  std::unordered_set<int64_t> Ids;
  for (const lower::Binding &B : Prog.Bindings)
    if (B.Kind == lower::BindingKind::ConstData)
      Ids.insert(B.TensorId);
  return Ids;
}

void CompiledPartition::resolveBindings() {
  Bindings.clear();
  Bindings.reserve(Prog.Bindings.size());
  for (const lower::Binding &B : Prog.Bindings) {
    ResolvedBinding R;
    R.BufferId = B.BufferId;
    R.TensorId = B.TensorId;
    R.Kind = B.Kind;
    switch (B.Kind) {
    case lower::BindingKind::Input: {
      const auto It = std::find(InputIds.begin(), InputIds.end(), B.TensorId);
      assert(It != InputIds.end() && "binding refers to unknown input");
      R.Arg = static_cast<size_t>(It - InputIds.begin());
      break;
    }
    case lower::BindingKind::Output: {
      const auto It =
          std::find(OutputIds.begin(), OutputIds.end(), B.TensorId);
      assert(It != OutputIds.end() && "binding refers to unknown output");
      R.Arg = static_cast<size_t>(It - OutputIds.begin());
      break;
    }
    case lower::BindingKind::Folded:
    case lower::BindingKind::ConstData:
      break; // addressed by TensorId
    }
    Bindings.push_back(R);
  }
}

Expected<CompiledPartition::ExecState> CompiledPartition::acquireExecState() {
  {
    std::lock_guard<std::mutex> Lock(EvalMutex);
    if (!IdleExecs.empty()) {
      ExecState State = std::move(IdleExecs.back());
      IdleExecs.pop_back();
      return State;
    }
  }
  if (fault::shouldFail(fault::kExecState))
    return fault::failStatus(fault::kExecState, StatusCode::ResourceExhausted,
                             "execution-state construction");
  return std::make_unique<exec::Executor>(Prog.Bytecode, *Pool);
}

namespace {

/// Idle ExecState pool cap. The pool only grows to the peak number of
/// overlapping executions of one partition; each idle state pins its
/// register frames and scratch arenas.
constexpr size_t kExecStatePoolCap = 8;

} // namespace

void CompiledPartition::releaseExecState(ExecState State) {
  // Bound the idle pool so a one-off concurrency burst does not pin one
  // scratch arena per peak-concurrent execute for the partition's
  // lifetime; execution states beyond the cap are simply dropped.
  std::lock_guard<std::mutex> Lock(EvalMutex);
  if (IdleExecs.size() < kExecStatePoolCap)
    IdleExecs.push_back(std::move(State));
}

size_t CompiledPartition::idleExecStates() const {
  std::lock_guard<std::mutex> Lock(EvalMutex);
  return IdleExecs.size();
}

void CompiledPartition::prewarmExecStates(size_t N) {
  N = std::min(N, kExecStatePoolCap);
  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(EvalMutex);
      if (IdleExecs.size() >= N)
        return;
    }
    // Built outside the lock: state construction allocates frames.
    ExecState State = std::make_unique<exec::Executor>(Prog.Bytecode, *Pool);
    std::lock_guard<std::mutex> Lock(EvalMutex);
    // Re-checked under the lock: concurrent prewarms/releases may have
    // filled the pool meanwhile, and pushing blindly would overshoot
    // the cap for the partition's lifetime (the state just built is
    // simply dropped then).
    if (IdleExecs.size() >= N)
      return;
    IdleExecs.push_back(std::move(State));
  }
}

Status CompiledPartition::execute(
    const std::vector<runtime::TensorData *> &Inputs,
    const std::vector<runtime::TensorData *> &Outputs) {
  if (Inputs.size() != InputIds.size())
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("input arity mismatch: got %zu, expected %zu",
                     Inputs.size(), InputIds.size()));
  if (Outputs.size() != OutputIds.size())
    return Status::error(
        StatusCode::InvalidArgument,
        formatString("output arity mismatch: got %zu, expected %zu",
                     Outputs.size(), OutputIds.size()));
  ensureFolded();

  Expected<ExecState> EvalOr = acquireExecState();
  if (!EvalOr)
    return EvalOr.status();
  ExecState Eval = EvalOr.takeValue();
  Status Result = Status::ok();
  for (const ResolvedBinding &B : Bindings) {
    switch (B.Kind) {
    case lower::BindingKind::Input: {
      runtime::TensorData *T = Inputs[B.Arg];
      if (!T || !T->valid()) {
        Result = Status::error(StatusCode::InvalidArgument,
                               "null input tensor passed to execute");
        break;
      }
      Eval->bindBuffer(B.BufferId, T->data());
      break;
    }
    case lower::BindingKind::Output: {
      runtime::TensorData *T = Outputs[B.Arg];
      if (!T || !T->valid()) {
        Result = Status::error(StatusCode::InvalidArgument,
                               "null output tensor passed to execute");
        break;
      }
      Eval->bindBuffer(B.BufferId, T->data());
      break;
    }
    case lower::BindingKind::Folded: {
      const runtime::TensorData *T = Cache.get(B.TensorId);
      // Internal invariant (the fold function populates every binding):
      // stays a loud abort so legacy callers ignoring the Status cannot
      // silently read an unwritten output.
      if (!T)
        fatalError("folded constant missing from the cache");
      Eval->bindBuffer(B.BufferId, const_cast<void *>(T->data()));
      break;
    }
    case lower::BindingKind::ConstData: {
      const runtime::TensorData *T = OptimizedG.constantData(B.TensorId);
      if (!T)
        fatalError("constant binding without data");
      Eval->bindBuffer(B.BufferId, const_cast<void *>(T->data()));
      break;
    }
    }
    if (!Result.isOk())
      break;
  }
  if (Result.isOk()) {
    if (fault::shouldFail(fault::kKernelDispatch))
      Result = fault::failStatus(fault::kKernelDispatch,
                                 StatusCode::Unavailable, "kernel dispatch");
    else
      Eval->run();
  }
  releaseExecState(std::move(Eval));
  return Result;
}

PartitionStats CompiledPartition::stats() const {
  // Read from the Program and the pass statistics, which compiled and
  // loaded partitions both carry. A nest is a ParallelFor outside every
  // other nest's body: each non-empty one costs one pool barrier.
  PartitionStats S;
  S.CoarseGrainMerges = Prog.CoarseGrainMerges;
  const exec::Program &P = *Prog.Bytecode;
  for (size_t I = 0, BodyEnd = 0; I < P.Code.size(); ++I) {
    const exec::Instr &In = P.Code[I];
    if (In.Op != exec::Opcode::ParallelFor || I < BodyEnd)
      continue;
    ++S.ParallelNests;
    BodyEnd = I + 1 + P.Pars[static_cast<size_t>(In.Target)].BodyLen;
  }
  S.ScratchArenaBytes = Prog.ReuseStats.PeakBytesWithReuse;
  S.ScratchArenaBytesNoReuse = Prog.ReuseStats.PeakBytesWithoutReuse;
  // The fold-dependent fields read 0 until the fold function has run, at
  // the first execution or at serialization (FoldDone orders the cache
  // contents for this reader).
  if (FoldDone.load(std::memory_order_acquire)) {
    S.FoldedTensors = Cache.size();
    S.FoldedBytes = Cache.totalBytes();
  }
  return S;
}

std::vector<std::vector<int64_t>> CompiledPartition::outputShapes() const {
  std::vector<std::vector<int64_t>> Shapes;
  for (int64_t Out : OutputIds)
    Shapes.push_back(OptimizedG.tensor(Out).Shape);
  return Shapes;
}

CompileOptions primitivesBaselineOptions(int Threads) {
  CompileOptions Opts;
  Opts.Threads = Threads;
  Opts.PrimitivesMode = true;
  Opts.EnableCoarseGrainFusion = false;
  // Primitives compute the reference (stable) softmax.
  Opts.FastSoftmax = false;
  return Opts;
}

std::shared_ptr<runtime::ThreadPool> globalThreadPool() {
  // Non-owning handle: the global pool outlives every session/partition.
  return std::shared_ptr<runtime::ThreadPool>(&runtime::ThreadPool::global(),
                                              [](runtime::ThreadPool *) {});
}

Expected<std::shared_ptr<CompiledPartition>>
compilePartition(const Graph &G, const CompileOptions &Opts,
                 std::shared_ptr<runtime::ThreadPool> Pool) {
  // A transient failure here makes Session::compile serve the partition
  // on the reference interpreter for this one compile.
  if (fault::shouldFail(fault::kCompileBytecode))
    return fault::failStatus(fault::kCompileBytecode, StatusCode::Unavailable,
                             "bytecode compile pipeline");
  auto Partition = std::shared_ptr<CompiledPartition>(new CompiledPartition);
  // Shares G's owned constant payloads (copying only views), so compiling
  // copies no weight; the fold's packed outputs are the only new weight
  // memory.
  Partition->OptimizedG = G.clone();

  // Thread pool: session-shared when provided, else derived from options.
  if (Pool)
    Partition->Pool = std::move(Pool);
  else if (Opts.Threads > 0)
    Partition->Pool = std::make_shared<runtime::ThreadPool>(Opts.Threads);
  else
    Partition->Pool = globalThreadPool();
  const int Threads = Partition->Pool->numThreads();

  // §V Graph IR pipeline.
  passes::PassOptions PassOpts;
  PassOpts.Threads = Threads;
  PassOpts.FastSoftmax = Opts.FastSoftmax;
  PassOpts.EnableLowPrecision = Opts.EnableLowPrecision;
  PassOpts.EnableFineGrainFusion = Opts.EnableFineGrainFusion;
  PassOpts.EnableLayoutPropagation = Opts.EnableLayoutPropagation;
  PassOpts.PrimitivesMode = Opts.PrimitivesMode;
  passes::PassManager PM(PassOpts);
  for (auto &P : passes::buildStandardPipeline(PassOpts))
    PM.addPass(std::move(P));
  if (const Status S = PM.run(Partition->OptimizedG); !S.isOk())
    return S;

  // Stable boundary ids (inputs never rewritten; outputs keep order).
  Partition->InputIds = Partition->OptimizedG.inputs();
  Partition->OutputIds = Partition->OptimizedG.outputs();

  // Lowering + Tensor IR passes.
  lower::DriverOptions DrvOpts;
  DrvOpts.Threads = Threads;
  DrvOpts.EnableCoarseGrainFusion = Opts.EnableCoarseGrainFusion;
  DrvOpts.EnableBufferReuse = Opts.EnableBufferReuse;
  Expected<lower::LoweredProgram> ProgOr =
      lower::lowerGraph(Partition->OptimizedG, DrvOpts);
  if (!ProgOr)
    return ProgOr.status();
  Partition->Prog = ProgOr.takeValue();
  Partition->resolveBindings();

  return Partition;
}

} // namespace core
} // namespace gc
