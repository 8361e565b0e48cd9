//===- region_lowering.cpp - FusedOp -> Tensor IR templates ----------------------===//
//
// Template instantiation (Fig. 2) plus anchor-based fusion (Fig. 3/4).
// The post-op chain is committed at post-op anchor #1: after the ksi
// reduction loop of each msi iteration the whole C' strip [NSN, MB, NB] is
// live in cache, and every fused Fusible OP is applied tile-by-tile in one
// or more nsi loops, each around one EpilogueTile call whose step list
// holds that segment's ops (kernels/epilogue.h). Reductions split the
// chain into segments: ops that consume a row-reduction result run in a
// later nsi loop, after the reduction has seen the full row (exactly the
// Fig. 6 structure, where the two post-ops share one merged loop nest).
// Within a segment values live in the call's registers; only values a
// later segment reads go to strip buffers.
//
//===----------------------------------------------------------------------===//

#include "lower/region_lowering.h"

#include "lower/anchors.h"
#include "lower/blocking.h"
#include "support/common.h"
#include "support/str.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace gc {
namespace lower {

using namespace graph;
using namespace tir;

namespace {

//===----------------------------------------------------------------------===//
// Value descriptors
//===----------------------------------------------------------------------===//

/// How an external (non-interior) tensor broadcasts against the region
/// output at the anchor.
enum class ExtKind : uint8_t { Scalar, RowVec, ColVec, Full };

/// An external operand of the post-op chain.
struct ExtRef {
  ExtKind K = ExtKind::Full;
  int BufferId = -1;
  double ScalarValue = 0.0;
  DataType Ty = DataType::F32;
  std::vector<int64_t> Shape; // logical shape in the subgraph
  /// Eltwise path only: a row vector that varies per batch group (e.g. a
  /// [B, 1, 1, S] mask against flattened [B*H*S] rows). Every GroupRows
  /// consecutive rows share one vector; 0 = uniform vector.
  int64_t RowVecGroupRows = 0;
};

/// Where an interior tensor's value lives at the anchor.
struct StripVal {
  /// Reg: a value defined in the open anchor segment, held in register
  /// Reg of its epilogue call until the segment closes.
  enum class Kind : uint8_t { None, Acc, Strip, Reg, RedVec, PendingQuant };
  Kind K = Kind::None;
  int BufferId = -1; // strip / vec buffer (Acc: the C' accumulator)
  int Reg = -1;
  /// Element type; a u8/s8 Reg holds integer-grid values as floats.
  DataType Ty = DataType::F32;
  // PendingQuant (quantize folded into the store of SrcTensor's value):
  int64_t SrcTensor = -1;
  double InvScale = 1.0;
  int64_t Zp = 0;
  bool Signed = false;
};

/// The epilogue step of a unary elementwise op.
kernels::EpOp unaryStep(OpKind Kind) {
  using kernels::EpOp;
  switch (Kind) {
  case OpKind::ReLU: return EpOp::Relu;
  case OpKind::Exp: return EpOp::Exp;
  case OpKind::Tanh: return EpOp::Tanh;
  case OpKind::Sqrt: return EpOp::Sqrt;
  case OpKind::Reciprocal: return EpOp::Recip;
  case OpKind::Square: return EpOp::Square;
  case OpKind::Sigmoid: return EpOp::Sigmoid;
  default: fatalError("unsupported unary op in fused region");
  }
}

/// The epilogue step of a binary elementwise op.
kernels::EpOp binaryStep(OpKind Kind) {
  using kernels::EpOp;
  switch (Kind) {
  case OpKind::Add: return EpOp::Add;
  case OpKind::Sub: return EpOp::Sub;
  case OpKind::Mul: return EpOp::Mul;
  case OpKind::Div: return EpOp::Div;
  case OpKind::Max: return EpOp::Max;
  case OpKind::Min: return EpOp::Min;
  default: fatalError("not a binary op");
  }
}

/// Appends R[Dst] = R[Src] op Sc (Sc op R[Src] when \p Swapped) as affine
/// steps; Sc / x takes 1 / x first.
void appendScalarSteps(std::vector<kernels::EpStep> &Steps, OpKind Kind,
                       bool Swapped, double Sc, int Src, int Dst) {
  using kernels::EpOp;
  const auto step = [&](EpOp Op, int From, double Mul, double Add) {
    kernels::EpStep S;
    S.Op = Op;
    S.Dst = static_cast<uint8_t>(Dst);
    S.A = static_cast<uint8_t>(From);
    S.F0 = static_cast<float>(Mul);
    S.F1 = static_cast<float>(Add);
    Steps.push_back(S);
  };
  switch (Kind) {
  case OpKind::Add:
    step(EpOp::Affine, Src, 1.0, Sc);
    break;
  case OpKind::Mul:
    step(EpOp::Affine, Src, Sc, 0.0);
    break;
  case OpKind::Sub:
    step(EpOp::Affine, Src, Swapped ? -1.0 : 1.0, Swapped ? Sc : -Sc);
    break;
  case OpKind::Div:
    if (!Swapped) {
      step(EpOp::Affine, Src, 1.0 / Sc, 0.0);
    } else {
      step(EpOp::Recip, Src, 0.0, 0.0);
      step(EpOp::Affine, Dst, Sc, 0.0);
    }
    break;
  default:
    fatalError("unsupported scalar binary");
  }
}

/// An EpilogueTile call running \p D over \p Slots.
Stmt epilogueCall(kernels::EpilogueDesc D, std::vector<BufferRef> Slots,
                  Expr Rows, Expr Cols, Expr Accumulate) {
  D.NumBufs = static_cast<uint8_t>(Slots.size());
  auto Call = std::static_pointer_cast<CallNode>(
      makeCall(Intrinsic::EpilogueTile, std::move(Slots),
               {std::move(Rows), std::move(Cols), std::move(Accumulate)}));
  Call->Epilogue = std::make_shared<const kernels::EpilogueDesc>(std::move(D));
  return Call;
}

//===----------------------------------------------------------------------===//
// RegionLowerer
//===----------------------------------------------------------------------===//

class RegionLowerer {
public:
  RegionLowerer(LoweringContext &Ctx, int64_t FusedOpId)
      : Ctx(Ctx), G(*Ctx.G), FO(G.op(FusedOpId)), Sub(*FO.subgraph()) {}

  Expected<Stmt> lower() {
    const int64_t MmId = findMatMul();
    if (MmId >= 0)
      return lowerTunable(MmId);
    return lowerEltwise();
  }

private:
  LoweringContext &Ctx;
  const Graph &G;
  const Op &FO;
  const Graph &Sub;

  // Template state (tunable path).
  BlockingParams P;
  MatmulShape Shape;
  bool Quantized = false;
  bool TransB = false;

  // Anchor geometry shared by both paths.
  int64_t TileRows = 0;  // MB (tunable) / RB (eltwise)
  int64_t TileCols = 0;  // NB / C
  int64_t FullN = 0;     // N / C
  int64_t MDim = 0;      // rows per batch item
  std::vector<int64_t> OutLeadDims; // leading batch dims of the output
  Expr BtE;              // batch coordinate (null in eltwise path)
  Expr RowBaseE;         // first global row (within batch) of the strip
  Expr ValidRowsE;       // valid rows of the strip
  std::function<Expr(const Expr &)> NpsiOf;      // nsi -> global n-block
  std::function<Expr(const Expr &)> ValidColsOf; // nsi -> valid cols

  std::unordered_map<int64_t, ExtRef> Ext;    // sub tensor -> external ref
  std::unordered_map<int64_t, StripVal> Env;  // sub tensor -> value
  std::unordered_map<int64_t, int> UseCount;  // remaining uses

  //===--------------------------------------------------------------------===//
  // Small helpers
  //===--------------------------------------------------------------------===//

  int64_t findMatMul() const {
    for (int64_t OpId : Sub.topologicalOrder())
      if (Sub.op(OpId).kind() == OpKind::MatMul)
        return OpId;
    return -1;
  }

  /// Index of a sub tensor in the subgraph input list (-1 if interior).
  int64_t subInputIndex(int64_t SubTensor) const {
    const auto &Ins = Sub.inputs();
    auto It = std::find(Ins.begin(), Ins.end(), SubTensor);
    return It == Ins.end() ? -1 : static_cast<int64_t>(It - Ins.begin());
  }

  /// Entry buffer for the outer tensor behind subgraph input \p SubTensor.
  int outerBufferFor(int64_t SubTensor) const {
    const int64_t Idx = subInputIndex(SubTensor);
    assert(Idx >= 0 && "not a subgraph input");
    return Ctx.BufferFor(FO.input(static_cast<size_t>(Idx)));
  }

  /// Outer logical tensor behind subgraph input \p SubTensor.
  const LogicalTensor &outerTensorFor(int64_t SubTensor) const {
    const int64_t Idx = subInputIndex(SubTensor);
    assert(Idx >= 0 && "not a subgraph input");
    return G.tensor(FO.input(static_cast<size_t>(Idx)));
  }

  /// Allocates a thread-local scratch buffer.
  int scratch(const std::string &Hint, DataType Ty,
              std::vector<int64_t> Dims) {
    return Ctx.Entry->addBuffer(
        formatString("%s_%d", Hint.c_str(), Ctx.ScratchCounter++), Ty,
        std::move(Dims), BufferScope::ThreadLocal);
  }

  /// Bakes constant data into the entry function and returns a buffer.
  int bakeConst(const std::string &Hint, runtime::TensorData Data) {
    tir::Func &F = *Ctx.Entry;
    const int Id = F.addBuffer(
        formatString("%s_%d", Hint.c_str(), Ctx.ScratchCounter++),
        Data.dtype(), Data.shape(), BufferScope::Const);
    F.buffer(Id).BakedIndex = static_cast<int>(F.Baked.size());
    F.Baked.push_back(std::move(Data));
    return Id;
  }

  /// Builds the linear offset contribution of the external tensor's
  /// leading (batch) dims given the batch coordinate BtE.
  Expr extBatchOffset(const ExtRef &E, int64_t TrailElems) const {
    if (!BtE || OutLeadDims.empty())
      return makeInt(0);
    const int64_t OutLead = static_cast<int64_t>(OutLeadDims.size());
    const int64_t ExtLead = std::max<int64_t>(
        0, static_cast<int64_t>(E.Shape.size()) - 2);
    // Ext strides over its leading dims (elements).
    std::vector<int64_t> ExtStride(static_cast<size_t>(ExtLead), TrailElems);
    for (int64_t D = ExtLead - 2; D >= 0; --D)
      ExtStride[static_cast<size_t>(D)] =
          ExtStride[static_cast<size_t>(D + 1)] *
          E.Shape[static_cast<size_t>(D + 1)];
    Expr Off = makeInt(0);
    int64_t Suffix = 1; // product of out lead dims after d
    for (int64_t D = OutLead - 1; D >= 0; --D) {
      const int64_t ExtD = D - (OutLead - ExtLead);
      if (ExtD >= 0 && E.Shape[static_cast<size_t>(ExtD)] > 1) {
        Expr Coord = (BtE / makeInt(Suffix)) %
                     makeInt(OutLeadDims[static_cast<size_t>(D)]);
        Off = Off + Coord * makeInt(ExtStride[static_cast<size_t>(ExtD)]);
      }
      Suffix *= OutLeadDims[static_cast<size_t>(D)];
    }
    return Off;
  }

  /// Classifies a subgraph tensor that is external to the interior chain.
  /// An operand that broadcasts as none of the epilogue's operand forms
  /// (immediate, row vector, column vector, full tile) is Unsupported, and
  /// the session runs the partition on the reference interpreter.
  Expected<ExtRef> classifyExternal(int64_t SubTensor) {
    const LogicalTensor &T = Sub.tensor(SubTensor);
    ExtRef E;
    E.Ty = T.Ty;
    E.Shape = T.Shape;
    // Scalar constant with data -> immediate.
    const runtime::TensorData *Data = Sub.constantData(SubTensor);
    if (Data && T.numElements() == 1 && T.Ty == DataType::F32) {
      E.K = ExtKind::Scalar;
      E.ScalarValue = Data->dataAs<float>()[0];
      return E;
    }
    // Broadcast classification against the output [lead..., M, N]. In the
    // eltwise path MDim is the flattened row count, so a [lead..., M, 1]
    // operand matches via the product of its leading dims.
    const int64_t Rank = T.rank();
    const int64_t Last = Rank >= 1 ? T.Shape[static_cast<size_t>(Rank - 1)] : 1;
    const int64_t Second =
        Rank >= 2 ? T.Shape[static_cast<size_t>(Rank - 2)] : 1;
    int64_t RowsProd = 1;
    for (int64_t D = 0; D + 1 < Rank; ++D)
      RowsProd *= T.Shape[static_cast<size_t>(D)];
    if (Last == FullN && (Rank < 2 || Second == 1)) {
      E.K = ExtKind::RowVec;
      // Eltwise path: detect batch-grouped vectors ([G, 1, ..., 1, C]).
      if (OutLeadDims.empty() && RowsProd > 1) {
        assert(RowsProd == T.Shape[0] &&
               "grouped rowvec must vary only in its outermost dim");
        assert(MDim % RowsProd == 0 && "group size must divide the rows");
        E.RowVecGroupRows = MDim / RowsProd;
      }
    }
    else if (Last == 1 && (Second == MDim || RowsProd == MDim))
      E.K = ExtKind::ColVec;
    else if (Last == FullN && (Second == MDim || RowsProd == MDim))
      E.K = ExtKind::Full;
    else if (Data && T.numElements() == 1)
      // A non-f32 single-element constant: dequant_acc's compensation,
      // which no step reads while its a_zp is 0.
      E.K = ExtKind::Scalar;
    else
      return Status::error(
          StatusCode::Unsupported,
          formatString("fused op%lld: operand %s broadcasts as neither a "
                       "row vector, a column vector nor a full tile of the "
                       "%lld x %lld output",
                       (long long)FO.id(), shapeToString(T.Shape).c_str(),
                       (long long)MDim, (long long)FullN));
    // Resolve storage: cloned subgraph constants are baked; external
    // inputs use the outer buffer.
    E.BufferId = Data ? bakeConst("cst", Data->clone())
                      : outerBufferFor(SubTensor);
    return E;
  }

  //===--------------------------------------------------------------------===//
  // Tile references at the anchor
  //===--------------------------------------------------------------------===//

  /// Offset of tile \p Nsi inside a strip buffer [NTiles, TileRows, TileCols].
  Expr stripTileOffset(const Expr &Nsi) const {
    return Nsi * makeInt(TileRows * TileCols);
  }

  /// Buffer+offset+ld for reading external tensors at tile (Nsi).
  struct TileAddr {
    int BufferId;
    Expr Offset;
    int64_t Ld;
  };

  TileAddr extFullAddr(const ExtRef &E, const Expr &Nsi) const {
    Expr Off = extBatchOffset(E, MDim * FullN) + RowBaseE * makeInt(FullN) +
               NpsiOf(Nsi) * makeInt(TileCols);
    return {E.BufferId, Off, FullN};
  }

  Expr extRowVecOffset(const ExtRef &E, const Expr &Nsi) const {
    if (E.RowVecGroupRows > 0) {
      // Grouped vector over flattened rows: strips never straddle groups
      // (the eltwise row block divides the group size).
      return (RowBaseE / makeInt(E.RowVecGroupRows)) * makeInt(FullN) +
             NpsiOf(Nsi) * makeInt(TileCols);
    }
    return extBatchOffset(E, FullN) + NpsiOf(Nsi) * makeInt(TileCols);
  }

  Expr extColVecOffset(const ExtRef &E) const {
    return extBatchOffset(E, MDim) + RowBaseE;
  }

  //===--------------------------------------------------------------------===//
  // Post-op chain lowering at the anchor
  //===--------------------------------------------------------------------===//

  /// Interior ops in topological order, excluding the matmul.
  std::vector<int64_t> interiorOps(int64_t MmId) const {
    std::vector<int64_t> Out;
    for (int64_t OpId : Sub.topologicalOrder())
      if (OpId != MmId)
        Out.push_back(OpId);
    return Out;
  }

  /// True when the op produces a per-row vector ([..., M, 1]) rather than
  /// a full strip; such ops run once per strip, outside the nsi loops.
  /// For genuinely N == 1 problems (GEMMV) the strip machinery already is
  /// one column wide, so everything stays a strip.
  bool producesVec(const Op &O) const {
    if (FullN == 1)
      return false;
    const LogicalTensor &T = Sub.tensor(O.output(0));
    return !T.Shape.empty() && T.Shape.back() == 1;
  }

  /// Emits the whole fused chain plus the store of the region output as a
  /// sequence of anchor segments, each one nsi loop around one
  /// EpilogueTile call: strip ops and reductions share a segment (the
  /// merged loop nest of Fig. 6); a consumer of a reduction produced in
  /// the open segment -- and every vector-valued op -- closes it, because
  /// row values complete only after the loop over all n tiles.
  StmtList emitChainAndStore(const std::vector<int64_t> &OpsInOrder,
                             const std::vector<int64_t> &OutSubTensors,
                             const std::vector<int64_t> &OuterOuts) {
    Anchor.clear();
    SegmentBody.clear();
    OpenVecs.clear();
    Nsi = makeVar(formatString("nsi_s%d", SegmentCounter));

    for (int64_t OpId : OpsInOrder) {
      const Op &O = Sub.op(OpId);
      const bool ReadsOpenVec = [&] {
        for (int64_t In : O.inputs())
          if (OpenVecs.count(In))
            return true;
        return false;
      }();
      if (producesVec(O) && !isReduction(O.kind())) {
        // Pure vector arithmetic (layernorm mean/var chains): runs once
        // per strip. Close the segment if it feeds on an open vec.
        if (ReadsOpenVec)
          closeSegment();
        emitVecOp(O);
        continue;
      }
      if (ReadsOpenVec || segmentFull(isReduction(O.kind())))
        closeSegment();
      emitOp(O);
      if (isReduction(O.kind()))
        OpenVecs.insert(O.output(0));
    }

    // Stores: vec outputs store standalone, strips store inside a loop.
    // A strip store never reads open vecs, so strip stores share the open
    // (or a fresh) segment; vec stores run after it closes.
    for (size_t I = 0; I < OutSubTensors.size(); ++I) {
      const StripVal &OutV = Env.at(OutSubTensors[I]);
      if (OutV.K == StripVal::Kind::RedVec)
        continue;
      if (segmentFull(false))
        closeSegment();
      emitStore(OutSubTensors[I], OuterOuts[I]);
    }
    closeSegment();
    for (size_t I = 0; I < OutSubTensors.size(); ++I) {
      const StripVal &OutV = Env.at(OutSubTensors[I]);
      if (OutV.K != StripVal::Kind::RedVec)
        continue;
      const LogicalTensor &OutT = G.tensor(OuterOuts[I]);
      assert(!OutT.Lay.isBlocked() && "reduction output must stay plain");
      (void)OutT;
      // Region output is a row-reduction vector ([..., M, 1] plain).
      Expr VecOff = (BtE ? BtE * makeInt(MDim) : makeInt(0)) + RowBaseE;
      emitVecCall(BufferRef(OutV.BufferId, makeInt(0)), {},
                  BufferRef(Ctx.BufferFor(OuterOuts[I]), VecOff));
    }
    return std::move(Anchor);
  }

  //===--------------------------------------------------------------------===//
  // The open anchor segment
  //===--------------------------------------------------------------------===//

  StmtList Anchor;      // statements at the anchor, in order
  StmtList SegmentBody; // body of the open segment's nsi loop
  std::unordered_set<int64_t> OpenVecs; // vecs produced in open segment
  Var Nsi;              // the open segment's tile index
  int SegmentCounter = 0;

  /// The open segment's EpilogueTile call under construction: its step
  /// list, its buffer slots, which registers hold live values, and the
  /// buffer-backed values it has loaded (tensor -> register).
  kernels::EpilogueDesc Steps;
  std::vector<BufferRef> Slots;
  uint32_t BusyRegs = 0;
  int NumReductions = 0;
  std::unordered_map<int64_t, int> Loaded;

  /// True when the open segment may not have room for one more op: up to
  /// three registers, three slots and four steps, and then, on closing,
  /// one spill (a slot and a step) per live register. The caller closes
  /// the segment first, which is always valid: values a later segment
  /// reads go to strips.
  bool segmentFull(bool Reduction) const {
    const size_t Busy = static_cast<size_t>(__builtin_popcount(BusyRegs));
    return Busy + 3 > static_cast<size_t>(kernels::kEpilogueMaxRegs) ||
           Slots.size() + Busy + 4 >
               static_cast<size_t>(kernels::kEpilogueMaxBufs) ||
           Steps.Steps.size() + Busy + 5 >
               static_cast<size_t>(kernels::kEpilogueMaxSteps) ||
           (Reduction && NumReductions == kernels::kEpilogueMaxReductions);
  }

  int addSlot(int BufferId, Expr Offset) {
    Slots.emplace_back(BufferId, std::move(Offset));
    return static_cast<int>(Slots.size()) - 1;
  }

  int allocReg() {
    for (int R = 0; R < kernels::kEpilogueMaxRegs; ++R)
      if (!((BusyRegs >> R) & 1u)) {
        BusyRegs |= 1u << R;
        return R;
      }
    fatalError("epilogue register file exhausted");
  }

  void freeReg(int R) { BusyRegs &= ~(1u << R); }

  kernels::EpStep &addStep(kernels::EpOp Op) {
    Steps.Steps.emplace_back();
    Steps.Steps.back().Op = Op;
    return Steps.Steps.back();
  }

  /// Closes the open segment: spills every register value a later segment
  /// (or store) still reads into a strip, emits the segment's one
  /// EpilogueTile call and wraps the segment body in its nsi loop.
  void closeSegment() {
    std::vector<int64_t> Live;
    for (const auto &[T, V] : Env)
      if (V.K == StripVal::Kind::Reg)
        Live.push_back(T);
    std::sort(Live.begin(), Live.end());
    for (int64_t T : Live) {
      StripVal &V = Env.at(T);
      if (UseCount[T] <= 0) {
        V.K = StripVal::Kind::None;
        continue;
      }
      const int Strip = newStripBuffer(V.Ty);
      using kernels::EpOp;
      kernels::EpStep &S = addStep(V.Ty == DataType::F32  ? EpOp::StoreF32
                                   : V.Ty == DataType::S8 ? EpOp::StoreS8
                                                          : EpOp::StoreU8);
      S.A = static_cast<uint8_t>(V.Reg);
      S.Arg =
          static_cast<uint8_t>(addSlot(Strip, stripTileOffset(Expr(Nsi))));
      S.Ld = TileCols;
      S.F0 = 1.0f; // integer-valued registers store their bytes exactly
      V.K = StripVal::Kind::Strip;
      V.BufferId = Strip;
    }
    if (!Steps.Steps.empty())
      SegmentBody.push_back(epilogueCall(std::move(Steps), std::move(Slots),
                                         ValidRowsE, ValidColsOf(Expr(Nsi)),
                                         minExpr(Expr(Nsi), makeInt(1))));
    Steps = kernels::EpilogueDesc();
    Slots.clear();
    BusyRegs = 0;
    NumReductions = 0;
    Loaded.clear();
    OpenVecs.clear();
    if (SegmentBody.empty())
      return;
    Anchor.push_back(makeFor(
        Nsi, makeInt(0), nsiEnd(), makeInt(1), std::move(SegmentBody),
        /*Parallel=*/false,
        formatString("post_anchor_seg%d", SegmentCounter)));
    SegmentBody = StmtList();
    Nsi = makeVar(formatString("nsi_s%d", ++SegmentCounter));
  }

  /// A per-row vector operand at the strip's first row: an interior
  /// reduction vector or an external column vector.
  BufferRef vecRef(int64_t SubTensor) const {
    auto EnvIt = Env.find(SubTensor);
    if (EnvIt != Env.end()) {
      assert(EnvIt->second.K == StripVal::Kind::RedVec &&
             "vec op operand must be a row vector");
      return BufferRef(EnvIt->second.BufferId, makeInt(0));
    }
    const ExtRef &E = Ext.at(SubTensor);
    assert(E.K == ExtKind::ColVec && "vec operand must be a colvec");
    return BufferRef(E.BufferId, extColVecOffset(E));
  }

  /// Emits one EpilogueTile call over per-row vectors, once per strip:
  /// the strip's ValidRows values of a vector lie in one 1 x ValidRows
  /// row. The call loads \p Src into register 0 (slot 0), runs \p Ops on
  /// it and stores it into \p Dst (slot 1); \p Operand, when given, is
  /// slot 2, which a binary step reads as its row vector.
  void emitVecCall(BufferRef Src, std::vector<kernels::EpStep> Ops,
                   BufferRef Dst, std::optional<BufferRef> Operand = {}) {
    using kernels::EpOp;
    kernels::EpilogueDesc D;
    D.Steps.resize(1);
    D.Steps[0].Op = EpOp::LoadF32;
    D.Steps[0].Ld = TileRows;
    D.Steps.insert(D.Steps.end(), Ops.begin(), Ops.end());
    kernels::EpStep &Store = D.Steps.emplace_back();
    Store.Op = EpOp::StoreF32;
    Store.Arg = 1;
    Store.Ld = TileRows;
    std::vector<BufferRef> Slots = {std::move(Src), std::move(Dst)};
    if (Operand)
      Slots.push_back(std::move(*Operand));
    Anchor.push_back(epilogueCall(std::move(D), std::move(Slots), makeInt(1),
                                  ValidRowsE, makeInt(0)));
  }

  /// Emits a vector-valued op (operands are per-row vectors, scalars, or
  /// external colvecs) as one vector call into a fresh vector.
  void emitVecOp(const Op &O) {
    std::vector<kernels::EpStep> Ops;
    std::optional<BufferRef> Operand;
    int64_t Lhs = O.input(0);
    if (isUnaryElementwise(O.kind())) {
      Ops.emplace_back().Op = unaryStep(O.kind());
    } else if (isBinaryElementwise(O.kind())) {
      // Normalize: vec side first.
      const auto isVecOperand = [&](int64_t T) {
        auto It = Env.find(T);
        if (It != Env.end())
          return It->second.K == StripVal::Kind::RedVec;
        auto E = Ext.find(T);
        return E != Ext.end() && E->second.K == ExtKind::ColVec;
      };
      int64_t Rhs = O.input(1);
      const bool Swapped = !isVecOperand(Lhs);
      if (Swapped)
        std::swap(Lhs, Rhs);
      // RHS: scalar const or another vec.
      const auto ExtIt = Ext.find(Rhs);
      if (ExtIt != Ext.end() && ExtIt->second.K == ExtKind::Scalar) {
        appendScalarSteps(Ops, O.kind(), Swapped, ExtIt->second.ScalarValue,
                          0, 0);
      } else {
        kernels::EpStep &S = Ops.emplace_back();
        S.Op = binaryStep(O.kind());
        S.BKind = kernels::EpOperand::RowVec;
        S.Arg = 2;
        Operand = vecRef(Rhs);
      }
      consume(Rhs);
    } else {
      fatalError("unsupported vector-valued op in fused region");
    }
    const BufferRef Src = vecRef(Lhs);
    consume(Lhs);
    StripVal V;
    V.K = StripVal::Kind::RedVec;
    V.BufferId = scratch("vec", DataType::F32, {TileRows});
    emitVecCall(Src, std::move(Ops), BufferRef(V.BufferId, makeInt(0)),
                std::move(Operand));
    Env[O.output(0)] = V;
  }

  /// Trip count of an anchor nsi loop (clamped NSN for tunable, 1 for
  /// eltwise).
  Expr nsiEnd() const { return NsiEndE; }
  Expr NsiEndE;

  int newStripBuffer(DataType Ty = DataType::F32) {
    return scratch("strip", Ty, {StripTiles, TileRows, TileCols});
  }
  int64_t StripTiles = 1; // NSN for tunable, 1 for eltwise

  /// Tile address of a buffer-backed operand at the open segment's tile:
  /// an interior strip / accumulator or a Full external tensor.
  TileAddr tileOf(int64_t SubTensor) const {
    auto EnvIt = Env.find(SubTensor);
    if (EnvIt != Env.end()) {
      const StripVal &V = EnvIt->second;
      assert((V.K == StripVal::Kind::Strip || V.K == StripVal::Kind::Acc) &&
             "operand is not tile-addressable");
      return {V.BufferId, stripTileOffset(Expr(Nsi)), TileCols};
    }
    const ExtRef &E = Ext.at(SubTensor);
    assert(E.K == ExtKind::Full && "operand is not a full tensor");
    return extFullAddr(E, Expr(Nsi));
  }

  /// True when the tensor is an interior tile value (a register of the
  /// open segment, a strip or the accumulator).
  bool isStrip(int64_t SubTensor) const {
    auto It = Env.find(SubTensor);
    return It != Env.end() && (It->second.K == StripVal::Kind::Strip ||
                               It->second.K == StripVal::Kind::Acc ||
                               It->second.K == StripVal::Kind::Reg);
  }

  /// A register holding the f32 value of \p SubTensor at the open tile.
  /// Buffer-backed values are loaded once per segment; a Full external
  /// is loaded into a temporary the caller frees (\p Temp set).
  int valueReg(int64_t SubTensor, bool &Temp) {
    Temp = false;
    auto EnvIt = Env.find(SubTensor);
    if (EnvIt != Env.end() && EnvIt->second.K == StripVal::Kind::Reg)
      return EnvIt->second.Reg;
    if (auto L = Loaded.find(SubTensor); L != Loaded.end())
      return L->second;
    const TileAddr X = tileOf(SubTensor);
    assert((EnvIt != Env.end() ? EnvIt->second.Ty
                               : Ext.at(SubTensor).Ty) == DataType::F32 &&
           "only f32 tiles load as values");
    const int R = allocReg();
    kernels::EpStep &S = addStep(kernels::EpOp::LoadF32);
    S.Dst = static_cast<uint8_t>(R);
    S.Arg = static_cast<uint8_t>(addSlot(X.BufferId, X.Offset));
    S.Ld = X.Ld;
    if (EnvIt != Env.end())
      Loaded[SubTensor] = R;
    else
      Temp = true;
    return R;
  }

  /// Defines \p SubTensor as the value in register \p R.
  void defineReg(int64_t SubTensor, int R, DataType Ty = DataType::F32) {
    StripVal V;
    V.K = StripVal::Kind::Reg;
    V.Reg = R;
    V.Ty = Ty;
    Env[SubTensor] = V;
  }

  /// One unary step R[Dst] = Op(R[A]) defining \p Out from \p In.
  kernels::EpStep &emitUnary(kernels::EpOp Op, int64_t In, int64_t Out,
                             DataType OutTy = DataType::F32) {
    bool Temp;
    const int A = valueReg(In, Temp);
    consume(In);
    if (Temp)
      freeReg(A);
    const int D = allocReg();
    kernels::EpStep &S = addStep(Op);
    S.Dst = static_cast<uint8_t>(D);
    S.A = static_cast<uint8_t>(A);
    defineReg(Out, D, OutTy);
    return S;
  }

  /// Emits one interior op into the open segment's step list.
  void emitOp(const Op &O) {
    using kernels::EpOp;
    const OpKind Kind = O.kind();
    const int64_t OutT = O.output(0);

    // Reductions: tile -> per-row vector.
    if (isReduction(Kind)) {
      bool Temp;
      const int A = valueReg(O.input(0), Temp);
      consume(O.input(0));
      if (Temp)
        freeReg(A);
      int Vec;
      auto It = Env.find(OutT);
      if (It != Env.end() && It->second.BufferId >= 0) {
        Vec = It->second.BufferId;
      } else {
        Vec = scratch("redvec", DataType::F32, {TileRows});
      }
      kernels::EpStep &S = addStep(Kind == OpKind::ReduceSum ? EpOp::ReduceSum
                                                             : EpOp::ReduceMax);
      S.A = static_cast<uint8_t>(A);
      S.Arg = static_cast<uint8_t>(addSlot(Vec, makeInt(0)));
      ++NumReductions;
      StripVal V;
      V.K = StripVal::Kind::RedVec;
      V.BufferId = Vec;
      Env[OutT] = V;
      return;
    }

    // DequantAcc: s32 accumulator -> f32 with scales/compensation.
    if (Kind == OpKind::DequantAcc) {
      const TileAddr Acc = tileOf(O.input(0));
      consume(O.input(0));
      const int64_t AZp = O.getAttrInt("a_zp", 0);
      // Scale vector baked from the attr, broadcast to N.
      std::vector<double> Scales = O.getAttrFloatVec("scales");
      runtime::TensorData ScaleData(DataType::F32, {FullN});
      for (int64_t I = 0; I < FullN; ++I)
        ScaleData.dataAs<float>()[I] = static_cast<float>(
            Scales.size() == 1 ? Scales[0]
                               : Scales[static_cast<size_t>(I)]);
      const int ScaleBuf = bakeConst("oscale", std::move(ScaleData));
      const int D = allocReg();
      kernels::EpStep S;
      S.Op = EpOp::LoadAcc;
      S.Dst = static_cast<uint8_t>(D);
      S.Arg = static_cast<uint8_t>(addSlot(Acc.BufferId, Acc.Offset));
      S.Ld = Acc.Ld;
      S.Zp = static_cast<int32_t>(AZp);
      if (AZp != 0) {
        // Compensation vector (FoldedConst outer input).
        const ExtRef &Comp = Ext.at(O.input(1));
        S.Arg2 = static_cast<uint8_t>(
            addSlot(Comp.BufferId, extRowVecOffset(Comp, Expr(Nsi))));
      }
      S.Arg3 = static_cast<uint8_t>(
          addSlot(ScaleBuf, NpsiOf(Expr(Nsi)) * makeInt(TileCols)));
      Steps.Steps.push_back(S);
      defineReg(OutT, D);
      return;
    }

    // Dequantize (u8 -> f32, per-tensor): of a quantized register, or
    // loaded from a u8 strip / external tensor.
    if (Kind == OpKind::Dequantize) {
      const double Scale = O.getAttrFloat("scale", 1.0);
      const int64_t Zp = O.getAttrInt("zp", 0);
      auto EnvIt = Env.find(O.input(0));
      if (EnvIt != Env.end() && EnvIt->second.K == StripVal::Kind::Reg) {
        kernels::EpStep &S = emitUnary(EpOp::Dequant, O.input(0), OutT);
        S.F0 = static_cast<float>(Scale);
        S.Zp = static_cast<int32_t>(Zp);
        return;
      }
      const TileAddr X = tileOf(O.input(0));
      consume(O.input(0));
      const int D = allocReg();
      kernels::EpStep &S = addStep(EpOp::LoadU8);
      S.Dst = static_cast<uint8_t>(D);
      S.Arg = static_cast<uint8_t>(addSlot(X.BufferId, X.Offset));
      S.Ld = X.Ld;
      S.F0 = static_cast<float>(Scale);
      S.Zp = static_cast<int32_t>(Zp);
      defineReg(OutT, D);
      return;
    }

    // Quantize: folded into the store when it produces the region output
    // (the source stays live until then); a mid-chain quantize
    // (requantization pair) keeps the integer grid in a register.
    if (Kind == OpKind::Quantize) {
      const double InvScale = 1.0 / O.getAttrFloat("scale", 1.0);
      const int64_t Zp = O.getAttrInt("zp", 0);
      const bool Signed = Sub.tensor(OutT).Ty == DataType::S8;
      if (Sub.isOutput(OutT)) {
        StripVal V;
        V.K = StripVal::Kind::PendingQuant;
        V.SrcTensor = O.input(0);
        V.InvScale = InvScale;
        V.Zp = Zp;
        V.Signed = Signed;
        Env[OutT] = V;
        return;
      }
      kernels::EpStep &S =
          emitUnary(EpOp::Quant, O.input(0), OutT,
                    Signed ? DataType::S8 : DataType::U8);
      S.F0 = static_cast<float>(InvScale);
      S.Zp = Signed ? 0 : static_cast<int32_t>(Zp);
      S.Signed = Signed;
      return;
    }

    // Cast s32 -> f32 (comp chains when unfused).
    if (Kind == OpKind::Cast) {
      const TileAddr X = tileOf(O.input(0));
      consume(O.input(0));
      const int D = allocReg();
      kernels::EpStep &S = addStep(EpOp::LoadS32);
      S.Dst = static_cast<uint8_t>(D);
      S.Arg = static_cast<uint8_t>(addSlot(X.BufferId, X.Offset));
      S.Ld = X.Ld;
      S.F0 = 1.0f;
      defineReg(OutT, D);
      return;
    }

    // Unary elementwise.
    if (isUnaryElementwise(Kind)) {
      emitUnary(unaryStep(Kind), O.input(0), OutT);
      return;
    }

    // Binary elementwise.
    if (isBinaryElementwise(Kind)) {
      emitBinary(O);
      return;
    }

    fatalError(formatString("unsupported op '%s' in fused region lowering",
                            opKindName(Kind))
                   .c_str());
  }

  void consume(int64_t SubTensor) {
    auto It = UseCount.find(SubTensor);
    if (It == UseCount.end() || It->second <= 0)
      return;
    if (--It->second > 0)
      return;
    // Last use: its register (if any) is free for the next definition.
    if (auto EnvIt = Env.find(SubTensor);
        EnvIt != Env.end() && EnvIt->second.K == StripVal::Kind::Reg)
      freeReg(EnvIt->second.Reg);
    if (auto L = Loaded.find(SubTensor); L != Loaded.end()) {
      freeReg(L->second);
      Loaded.erase(L);
    }
  }

  /// Emits a binary elementwise op. Normalizes so the tile operand comes
  /// first (the operand the per-op kernels mutated in place); the other
  /// operand is read as scalar / rowvec / colvec / tile.
  void emitBinary(const Op &O) {
    using kernels::EpOp;
    const OpKind Kind = O.kind();
    int64_t Lhs = O.input(0);
    int64_t Rhs = O.input(1);
    // Prefer an interior value; fall back to a Full external.
    auto isStripable = [&](int64_t T) {
      if (isStrip(T))
        return true;
      auto It = Ext.find(T);
      return It != Ext.end() && It->second.K == ExtKind::Full &&
             It->second.Ty == DataType::F32;
    };
    bool Swapped = false;
    if (!isStripable(Lhs)) {
      std::swap(Lhs, Rhs);
      Swapped = true;
    }
    assert(isStripable(Lhs) && "binary op without a tile-shaped operand");
    [[maybe_unused]] const bool Commutative =
        Kind == OpKind::Add || Kind == OpKind::Mul || Kind == OpKind::Max ||
        Kind == OpKind::Min;

    bool TempA;
    const int A = valueReg(Lhs, TempA);
    // Second operand: a register (interior value or loaded Full tile),
    // or a vector slot.
    kernels::EpStep S;
    S.Op = binaryStep(Kind);
    S.A = static_cast<uint8_t>(A);
    int TempB = -1;
    auto EnvIt = Env.find(Rhs);
    const auto ExtIt = Ext.find(Rhs);
    if (EnvIt != Env.end() && EnvIt->second.K == StripVal::Kind::RedVec) {
      // Row-reduction vector: colvec broadcast (div as 1/v times x).
      assert(!Swapped && "reduction result must be the second operand");
      if (Kind != OpKind::Add && Kind != OpKind::Sub &&
          Kind != OpKind::Mul && Kind != OpKind::Div)
        fatalError("unsupported colvec binary");
      S.BKind = Kind == OpKind::Div ? kernels::EpOperand::ColVecRecip
                                    : kernels::EpOperand::ColVec;
      if (Kind == OpKind::Div)
        S.Op = EpOp::Mul;
      S.Arg = static_cast<uint8_t>(
          addSlot(EnvIt->second.BufferId, makeInt(0)));
    } else if (EnvIt != Env.end() ||
               (ExtIt != Ext.end() && ExtIt->second.K == ExtKind::Full)) {
      bool Temp;
      const int B = valueReg(Rhs, Temp);
      S.B = static_cast<uint8_t>(B);
      if (Temp)
        TempB = B;
      if (Swapped && Kind == OpKind::Div)
        fatalError("swapped division between tiles is not supported");
    } else {
      const ExtRef &E = ExtIt->second;
      switch (E.K) {
      case ExtKind::Scalar:
        emitScalarBinary(Kind, Swapped, E.ScalarValue, Lhs, Rhs, A, TempA,
                         O.output(0));
        return;
      case ExtKind::RowVec:
        assert(!Swapped || Commutative);
        if (Kind != OpKind::Add && Kind != OpKind::Sub && Kind != OpKind::Mul)
          fatalError("unsupported rowvec binary");
        S.BKind = kernels::EpOperand::RowVec;
        S.Arg = static_cast<uint8_t>(
            addSlot(E.BufferId, extRowVecOffset(E, Expr(Nsi))));
        break;
      case ExtKind::ColVec:
        assert(!Swapped && "colvec must be the second operand");
        if (Kind != OpKind::Add && Kind != OpKind::Sub &&
            Kind != OpKind::Mul && Kind != OpKind::Div)
          fatalError("unsupported colvec binary");
        S.BKind = Kind == OpKind::Div ? kernels::EpOperand::ColVecRecip
                                      : kernels::EpOperand::ColVec;
        if (Kind == OpKind::Div)
          S.Op = EpOp::Mul;
        S.Arg = static_cast<uint8_t>(addSlot(E.BufferId, extColVecOffset(E)));
        break;
      case ExtKind::Full:
        GC_UNREACHABLE("handled above");
      }
    }
    consume(Lhs);
    consume(Rhs);
    if (TempA)
      freeReg(A);
    if (TempB >= 0)
      freeReg(TempB);
    const int D = allocReg();
    S.Dst = static_cast<uint8_t>(D);
    Steps.Steps.push_back(S);
    if (Swapped && Kind == OpKind::Sub) {
      // Computed x - y, need y - x: negate, as the per-op path did.
      kernels::EpStep &Neg = addStep(EpOp::Affine);
      Neg.Dst = Neg.A = static_cast<uint8_t>(D);
      Neg.F0 = -1.0f;
    }
    defineReg(O.output(0), D);
  }

  /// strip OP scalar (or scalar OP strip when swapped) as affine steps.
  void emitScalarBinary(OpKind Kind, bool Swapped, double Sc, int64_t Lhs,
                        int64_t Rhs, int A, bool TempA, int64_t Out) {
    consume(Lhs);
    consume(Rhs);
    if (TempA)
      freeReg(A);
    const int D = allocReg();
    appendScalarSteps(Steps.Steps, Kind, Swapped, Sc, A, D);
    defineReg(Out, D);
  }

  //===--------------------------------------------------------------------===//
  // Store
  //===--------------------------------------------------------------------===//

  /// Adds the store of region output \p OutSubTensor into the open
  /// segment: plain into the output's rows, or blocked into its consumer's
  /// A-format tile (the padding rows/cols of which the call zero-fills,
  /// feeding zero weight rows downstream).
  void emitStore(int64_t OutSubTensor, int64_t OuterOut) {
    using kernels::EpOp;
    const LogicalTensor &OutT = G.tensor(OuterOut);
    const int OutBuf = Ctx.BufferFor(OuterOut);
    const StripVal V = Env.at(OutSubTensor);
    const bool Blocked = OutT.Lay.isBlocked();

    Expr DstOff;
    int64_t DstLd;
    if (Blocked) {
      // Consumer A-format tile: ((bt*MBlocks + mpsi)*KBc + npsi)*MB*NB.
      const int64_t KBc = ceilDiv(FullN, TileCols);
      Expr BlockIdx =
          ((BtE ? BtE * makeInt(ceilDiv(MDim, TileRows)) : makeInt(0)) +
           RowBaseE / makeInt(TileRows)) *
              makeInt(KBc) +
          NpsiOf(Expr(Nsi));
      DstOff = BlockIdx * makeInt(TileRows * TileCols);
      DstLd = TileCols;
    } else {
      Expr BatchOff = BtE ? BtE * makeInt(MDim * FullN) : makeInt(0);
      DstOff = BatchOff + RowBaseE * makeInt(FullN) +
               NpsiOf(Expr(Nsi)) * makeInt(TileCols);
      DstLd = FullN;
    }

    if ((V.K == StripVal::Kind::Acc || V.K == StripVal::Kind::Strip) &&
        V.Ty != DataType::F32) {
      // s32 accumulator stored raw (unfused quantized matmul).
      assert(!Blocked && "raw accumulator stores stay plain");
      SegmentBody.push_back(makeCall(
          Intrinsic::CopyTileRaw,
          {BufferRef(OutBuf, DstOff),
           BufferRef(V.BufferId, stripTileOffset(Expr(Nsi)))},
          {ValidRowsE, ValidColsOf(Expr(Nsi)), makeInt(DstLd),
           makeInt(TileCols), makeInt(dataTypeSize(V.Ty))}));
      consume(OutSubTensor);
      return;
    }

    kernels::EpOp Op = EpOp::StoreF32;
    int64_t Src = OutSubTensor;
    float InvScale = 1.0f;
    int32_t Zp = 0;
    switch (V.K) {
    case StripVal::Kind::PendingQuant:
      assert(isQuantizedType(OutT.Ty) && "pending quant into non-int8 out");
      Op = V.Signed ? EpOp::StoreS8 : EpOp::StoreU8;
      Src = V.SrcTensor;
      InvScale = static_cast<float>(V.InvScale);
      Zp = V.Signed ? 0 : static_cast<int32_t>(V.Zp);
      break;
    case StripVal::Kind::Strip:
    case StripVal::Kind::Acc:
    case StripVal::Kind::Reg:
      break;
    case StripVal::Kind::RedVec:
    case StripVal::Kind::None:
      fatalError("region output value has no storable form");
    }
    bool Temp;
    const int A = valueReg(Src, Temp);
    kernels::EpStep &S = addStep(Op);
    S.A = static_cast<uint8_t>(A);
    S.Arg = static_cast<uint8_t>(addSlot(OutBuf, DstOff));
    S.Ld = DstLd;
    S.F0 = InvScale;
    S.Zp = Zp;
    if (Blocked) {
      S.PadRows = TileRows;
      S.PadCols = TileCols;
    }
    if (Temp)
      freeReg(A);
    consume(Src);
    if (Src != OutSubTensor)
      consume(OutSubTensor);
  }

  //===--------------------------------------------------------------------===//
  // Tunable template (Fig. 2)
  //===--------------------------------------------------------------------===//

  Expected<Stmt> lowerTunable(int64_t MmId);
  Expected<Stmt> lowerEltwise();

  Status setupExternals(int64_t MmId) {
    std::unordered_set<int64_t> Skip;
    if (MmId >= 0) {
      Skip.insert(Sub.op(MmId).input(0));
      Skip.insert(Sub.op(MmId).input(1));
    }
    // Count uses and classify externals lazily (only tensors actually read
    // by interior ops).
    for (int64_t OpId : Sub.topologicalOrder()) {
      if (OpId == MmId)
        continue;
      for (int64_t In : Sub.op(OpId).inputs()) {
        ++UseCount[In];
        if (Skip.count(In) || Sub.producerOf(In) >= 0 ||
            (MmId >= 0 && In == Sub.op(MmId).output(0)))
          continue;
        if (Ext.count(In))
          continue;
        Expected<ExtRef> E = classifyExternal(In);
        if (!E)
          return E.status();
        Ext.emplace(In, E.takeValue());
      }
    }
    for (int64_t Out : Sub.outputs())
      ++UseCount[Out];
    return Status::ok();
  }
};

//===----------------------------------------------------------------------===//
// Tunable path
//===----------------------------------------------------------------------===//

Expected<Stmt> RegionLowerer::lowerTunable(int64_t MmId) {
  const Op &Mm = Sub.op(MmId);
  assert(Mm.getAttrInt("transpose_a", 0) == 0 && "transpose_a unsupported");
  TransB = Mm.getAttrInt("transpose_b", 0) != 0;
  Quantized = Mm.getAttrInt("quantized", 0) != 0;

  const LogicalTensor &ASub = Sub.tensor(Mm.input(0));
  const LogicalTensor &MmOutT = Sub.tensor(Mm.output(0));
  Shape.M = MmOutT.Shape[MmOutT.rank() - 2];
  Shape.N = MmOutT.Shape[MmOutT.rank() - 1];
  Shape.K = ASub.Shape[ASub.rank() - 1];
  Shape.Batch = 1;
  OutLeadDims.assign(MmOutT.Shape.begin(), MmOutT.Shape.end() - 2);
  for (int64_t D : OutLeadDims)
    Shape.Batch *= D;
  Shape.ADtype = ASub.Ty == DataType::U8 ? DataType::U8 : DataType::F32;

  // Template parameters: from layout-propagation attrs, else on the fly.
  if (FO.hasAttr("blk_mb")) {
    P.MB = FO.getAttrInt("blk_mb");
    P.NB = FO.getAttrInt("blk_nb");
    P.KB = FO.getAttrInt("blk_kb");
    P.BS = FO.getAttrInt("blk_bs");
    P.MPN = FO.getAttrInt("blk_mpn");
    P.NPN = FO.getAttrInt("blk_npn");
    P.derive(Shape);
  } else {
    P = chooseMatmulBlocking(Shape, Ctx.Threads,
                             FO.getAttrInt("needs_full_rows", 0) != 0);
  }
  const bool NeedsFullRows = FO.getAttrInt("needs_full_rows", 0) != 0;
  if (NeedsFullRows)
    assert(P.NPN == 1 && "row reductions require NPN == 1");

  // Operand placement.
  const int64_t ASubT = Mm.input(0);
  const int64_t BSubT = Mm.input(1);
  const LogicalTensor &AOuter = outerTensorFor(ASubT);
  const LogicalTensor &BOuter = outerTensorFor(BSubT);
  const bool ABlocked = AOuter.Lay.isBlocked();
  const bool BBlocked = BOuter.Lay.isBlocked();
  const bool ABatched = AOuter.rank() > 2;
  const bool BBatched = BOuter.rank() > 2;
  if (!BBlocked)
    assert(P.NPN == 1 && "runtime B packing requires NPN == 1");
  const int ABuf = outerBufferFor(ASubT);
  const int BBuf = outerBufferFor(BSubT);

  // Anchor geometry for the post-op machinery.
  TileRows = P.MB;
  TileCols = P.NB;
  FullN = Shape.N;
  MDim = Shape.M;
  StripTiles = P.NSN;

  // Loop variables.
  Var GV = makeVar("g");
  Var BtV = makeVar("bt");
  Var MpiV = makeVar("mpi");
  Var NpiV = makeVar("npi");
  Var MsiV = makeVar("msi");
  Var KsiV = makeVar("ksi");
  Var NsiV = makeVar("nsi");
  Var MpsiV = makeVar("mpsi");
  Var NpsiV = makeVar("npsi");
  Var MValidV = makeVar("m_valid");
  Var BsV = makeVar("bs");

  const int64_t GridMN = P.MPN * P.NPN;
  const int64_t Grid = Shape.Batch * GridMN;

  // Accumulator C' [NSN, MB, NB].
  const int CAcc = scratch("c_acc", Quantized ? DataType::S32 : DataType::F32,
                           {P.NSN, P.MB, P.NB});

  // Pre-op packed operands.
  int APack = -1, BPack = -1;
  if (!ABlocked) {
    // A pack committed at pre-op anchor #4, the Fig. 3 minimal-buffer
    // choice (#5 only ties when NSN == 1, where the two are identical).
    [[maybe_unused]] const PreAnchor AAnchor = choosePreAnchorA(P);
    assert((AAnchor == PreAnchor::Pre4 || AAnchor == PreAnchor::Pre5) &&
           "unexpected A pre-op anchor");
    APack = scratch("a_pack", Shape.ADtype, {P.BS, P.MB, P.KB});
  }
  if (!BBlocked) {
    BPack = scratch("b_pack",
                    Quantized ? DataType::S8 : DataType::F32,
                    {P.KBlocks, P.NBlocks, P.KB, P.NB});
  }

  // ---- innermost brgemm ----
  StmtList NsiBody;
  NsiBody.push_back(makeLet(NpsiV, Expr(NpiV) * makeInt(P.NSN) + Expr(NsiV)));
  {
    // A tile base + batch stride.
    Expr AOff;
    int ABufUsed;
    int64_t AStride = P.MB * P.KB;
    if (ABlocked) {
      Expr ABt = ABatched ? Expr(BtV) : makeInt(0);
      AOff = ((ABt * makeInt(P.MBlocks) + Expr(MpsiV)) * makeInt(P.KBlocks) +
              Expr(KsiV)) *
             makeInt(P.MB * P.KB);
      ABufUsed = ABuf;
    } else {
      AOff = makeInt(0); // packed fresh at this (msi, ksi)
      ABufUsed = APack;
    }
    // B tile base + batch stride.
    Expr BOff;
    int BBufUsed;
    const int64_t BStride = P.NBlocks * P.KB * P.NB;
    if (BBlocked) {
      Expr BBt = BBatched ? Expr(BtV) : makeInt(0);
      BOff = ((BBt * makeInt(P.KBlocks) + Expr(KsiV)) * makeInt(P.NBlocks) +
              Expr(NpsiV)) *
             makeInt(P.KB * P.NB);
      BBufUsed = BBuf;
    } else {
      BOff = (Expr(KsiV) * makeInt(P.NBlocks) + Expr(NpsiV)) *
             makeInt(P.KB * P.NB);
      BBufUsed = BPack;
    }
    const Expr InitC = makeInt(1) - minExpr(Expr(KsiV), makeInt(1));
    NsiBody.push_back(makeCall(
        Quantized ? Intrinsic::BrgemmU8S8 : Intrinsic::BrgemmF32,
        {BufferRef(ABufUsed, AOff), BufferRef(BBufUsed, BOff),
         BufferRef(CAcc, Expr(NsiV) * makeInt(P.MB * P.NB))},
        {Expr(MValidV), makeInt(P.NB), makeInt(P.KB), makeInt(P.KB),
         makeInt(P.NB), makeInt(P.NB), makeInt(AStride), makeInt(BStride),
         Expr(BsV), InitC}));
  }

  // ---- ksi loop ----
  StmtList KsiBody;
  KsiBody.push_back(makeLet(BsV, minExpr(makeInt(P.BS),
                                         makeInt(P.KSN) - Expr(KsiV))));
  if (APack >= 0) {
    // pre_op_anchor#4: pack BS A blocks of row-block mpsi.
    Expr ABt = ABatched ? Expr(BtV) : makeInt(0);
    Expr SrcOff = (ABt * makeInt(Shape.M) + Expr(MpsiV) * makeInt(P.MB)) *
                      makeInt(Shape.K) +
                  Expr(KsiV) * makeInt(P.KB);
    KsiBody.push_back(makeCall(
        Shape.ADtype == DataType::U8 ? Intrinsic::PackAU8
                                     : Intrinsic::PackAF32,
        {BufferRef(APack, makeInt(0)), BufferRef(ABuf, SrcOff)},
        {Expr(MValidV),
         minExpr(Expr(BsV) * makeInt(P.KB),
                 makeInt(Shape.K) - Expr(KsiV) * makeInt(P.KB)),
         makeInt(Shape.K), makeInt(P.MB), makeInt(P.KB), makeInt(0)}));
  }
  // NSN clamp for this npi cell.
  const Expr NsiEndExpr =
      minExpr(makeInt(P.NSN),
              makeInt(P.NBlocks) - Expr(NpiV) * makeInt(P.NSN));
  KsiBody.push_back(makeFor(NsiV, makeInt(0), NsiEndExpr, makeInt(1),
                            std::move(NsiBody), false, "microkernel"));

  // ---- msi loop ----
  StmtList MsiBody;
  MsiBody.push_back(makeLet(MpsiV, Expr(MpiV) * makeInt(P.MSN) + Expr(MsiV)));
  MsiBody.push_back(
      makeLet(MValidV, minExpr(makeInt(P.MB),
                               makeInt(Shape.M) - Expr(MpsiV) * makeInt(P.MB))));
  MsiBody.push_back(makeFor(KsiV, makeInt(0), makeInt(P.KSN),
                            makeInt(P.BS), std::move(KsiBody), false,
                            "k_reduction"));

  // ---- post-op anchor #1 ----
  BtE = Shape.Batch > 1 ? Expr(BtV) : Expr();
  RowBaseE = Expr(MpsiV) * makeInt(P.MB);
  ValidRowsE = Expr(MValidV);
  NpsiOf = [NpiV, this](const Expr &Nsi) {
    return Expr(NpiV) * makeInt(P.NSN) + Nsi;
  };
  ValidColsOf = [this](const Expr &Nsi) {
    return minExpr(makeInt(TileCols),
                   makeInt(FullN) - NpsiOf(Nsi) * makeInt(TileCols));
  };
  NsiEndE = NsiEndExpr;

  if (Status S = setupExternals(MmId); !S.isOk())
    return S;
  // Seed the accumulator value.
  StripVal AccV;
  AccV.K = StripVal::Kind::Acc;
  AccV.BufferId = CAcc;
  AccV.Ty = Quantized ? DataType::S32 : DataType::F32;
  Env[Mm.output(0)] = AccV;

  std::vector<int64_t> OuterOuts(FO.outputs().begin(), FO.outputs().end());
  StmtList AnchorStmts =
      emitChainAndStore(interiorOps(MmId), Sub.outputs(), OuterOuts);
  for (Stmt &S : AnchorStmts)
    MsiBody.push_back(std::move(S));

  // ---- grid body ----
  StmtList GridBody;
  GridBody.push_back(makeLet(BtV, Expr(GV) / makeInt(GridMN)));
  GridBody.push_back(
      makeLet(MpiV, (Expr(GV) % makeInt(GridMN)) / makeInt(P.NPN)));
  GridBody.push_back(makeLet(NpiV, Expr(GV) % makeInt(P.NPN)));
  if (BPack >= 0) {
    // Grid-level B pack (pre-op anchor #2 semantics; NPN == 1).
    Expr BBt = BBatched ? Expr(BtV) : makeInt(0);
    Expr SrcOff = BBt * makeInt(Shape.K * Shape.N);
    GridBody.push_back(makeCall(
        Quantized ? Intrinsic::PackBS8Vnni : Intrinsic::PackBF32,
        {BufferRef(BPack, makeInt(0)), BufferRef(BBuf, SrcOff)},
        {makeInt(Shape.K), makeInt(Shape.N),
         makeInt(TransB ? Shape.K : Shape.N), makeInt(P.KB), makeInt(P.NB),
         makeInt(TransB ? 1 : 0)}));
  }
  const Expr MsiEnd = minExpr(
      makeInt(P.MSN), makeInt(P.MBlocks) - Expr(MpiV) * makeInt(P.MSN));
  GridBody.push_back(makeFor(MsiV, makeInt(0), MsiEnd, makeInt(1),
                             std::move(MsiBody), false, "single_core"));

  Stmt GridLoop = makeFor(GV, makeInt(0), makeInt(Grid), makeInt(1),
                          std::move(GridBody), /*Parallel=*/true,
                          formatString("fused_op_%lld", (long long)FO.id()));
  static_cast<ForNode &>(*GridLoop).Mergeable =
      FO.getAttrInt("merge_prev", 0) != 0;
  return makeSeq({GridLoop},
                 formatString("region_op%lld", (long long)FO.id()));
}

//===----------------------------------------------------------------------===//
// Elementwise-only path
//===----------------------------------------------------------------------===//

Expected<Stmt> RegionLowerer::lowerEltwise() {
  assert(Sub.outputs().size() >= 1 && "region without outputs");
  const int64_t OutSub = Sub.outputs()[0];
  const LogicalTensor &OutT = Sub.tensor(OutSub);
  assert(!G.tensor(FO.output(0)).Lay.isBlocked() &&
         "eltwise regions produce plain tensors");

  // Strip width: the widest tensor flowing through the region (a region
  // whose output is a row reduction still processes full-width strips).
  const int64_t RowsTotal =
      OutT.numElements() / std::max<int64_t>(1, OutT.Shape.back());
  int64_t C = OutT.Shape.back();
  for (int64_t OpId : Sub.topologicalOrder())
    for (int64_t TId : Sub.op(OpId).inputs()) {
      const LogicalTensor &T = Sub.tensor(TId);
      if (T.rank() >= 1 &&
          T.numElements() == RowsTotal * T.Shape.back())
        C = std::max(C, T.Shape.back());
    }
  // Geometry: one full-width tile per strip. The output's leading dims are
  // folded into the flattened row index, so external ColVec/Full offsets
  // follow the same flattened rows (right-aligned broadcast with leading
  // dims either equal or absent).
  TileCols = C;
  FullN = C;
  MDim = RowsTotal;
  StripTiles = 1;
  OutLeadDims.clear();

  if (Status S = setupExternals(/*MmId=*/-1); !S.isOk())
    return S;
  // Externals must broadcast over the flattened rows; batch-grouped row
  // vectors additionally constrain the row block so one strip never
  // straddles two groups.
  int64_t RB = std::min<int64_t>(64, RowsTotal);
  for (auto &[T, E] : Ext) {
    int64_t ExtRows = 1;
    for (size_t D = 0; D + 1 < E.Shape.size(); ++D)
      ExtRows *= E.Shape[D];
    if (E.K == ExtKind::Full || E.K == ExtKind::ColVec)
      assert((ExtRows == RowsTotal || ExtRows == 1) &&
             "eltwise external must broadcast over flattened rows");
    if (E.K == ExtKind::RowVec && E.RowVecGroupRows > 0)
      RB = std::gcd(RB, E.RowVecGroupRows);
    (void)ExtRows;
    (void)T;
  }
  TileRows = RB;
  const int64_t Grid = ceilDiv(RowsTotal, RB);

  Var RbV = makeVar("rb");
  Var ValidV = makeVar("rows_valid");
  BtE = Expr();
  RowBaseE = Expr(RbV) * makeInt(RB);
  ValidRowsE = Expr(ValidV);
  NpsiOf = [](const Expr &) { return makeInt(0); };
  ValidColsOf = [C](const Expr &) { return makeInt(C); };
  NsiEndE = makeInt(1);

  StmtList Body;
  Body.push_back(makeLet(
      ValidV, minExpr(makeInt(RB), makeInt(RowsTotal) - RowBaseE)));
  std::vector<int64_t> OuterOuts(FO.outputs().begin(), FO.outputs().end());
  StmtList AnchorStmts =
      emitChainAndStore(interiorOps(/*MmId=*/-1), Sub.outputs(), OuterOuts);
  for (Stmt &S : AnchorStmts)
    Body.push_back(std::move(S));

  Stmt Loop = makeFor(RbV, makeInt(0), makeInt(Grid), makeInt(1),
                      std::move(Body), /*Parallel=*/true,
                      formatString("eltwise_op_%lld", (long long)FO.id()));
  return makeSeq({Loop},
                 formatString("region_op%lld", (long long)FO.id()));
}

} // namespace

Expected<Stmt> lowerRegion(LoweringContext &Ctx, int64_t FusedOpId) {
  RegionLowerer Lowerer(Ctx, FusedOpId);
  return Lowerer.lower();
}

} // namespace lower
} // namespace gc
