//===- test_artifact_cache.cpp - Persistent artifact cache tests ----------===//
//
// The persistent compiled-artifact cache, bottom to top: the on-disk
// envelope (store/load roundtrip, LRU byte cap, and a corruption fuzz
// suite — truncations, bit flips in every header field and the payload,
// version skew, zero-length files — each of which must come back as a
// located Status, never a crash), the payload codec (serialize ->
// deserialize -> bit-identical execution, truncation/flip sweeps), the
// cache key (kernel tier, thread count and option separation), Session
// integration (second session disk-warm, corrupt entry self-heal, off/read
// modes), and cross-process behavior (a GC_KERNELS=scalar process is never
// served an avx artifact; N racing processes compile exactly once and
// agree bit-identically). The subprocess tests re-exec this binary's
// hidden worker test via /proc/self/exe.
//
//===----------------------------------------------------------------------===//

#include "api/session.h"
#include "core/artifact.h"
#include "exec/program.h"
#include "kernels/cpu_features.h"
#include "runtime/artifact_cache.h"
#include "support/serial.h"
#include "workloads/bert.h"
#include "workloads/mlp.h"
#include "test_utils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>
#include <vector>

using namespace gc;
using namespace gc::graph;
using runtime::ArtifactCache;
using runtime::CacheMode;
using runtime::TensorData;

namespace {

/// A mkdtemp'd cache directory, emptied and removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Tmpl[] = "/tmp/gc_artifact_test_XXXXXX";
    const char *P = mkdtemp(Tmpl);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    if (Path.empty())
      return;
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Path.c_str());
  }
  size_t numEntries(const char *Suffix = ".gca") const {
    size_t N = 0;
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name.size() > std::strlen(Suffix) &&
            Name.compare(Name.size() - std::strlen(Suffix),
                         std::strlen(Suffix), Suffix) == 0)
          ++N;
      }
      closedir(D);
    }
    return N;
  }
};

ArtifactCache makeCache(const TempDir &Dir,
                        CacheMode Mode = CacheMode::ReadWrite,
                        int64_t MaxBytes = 0) {
  ArtifactCache::Config Cfg;
  Cfg.Mode = Mode;
  Cfg.Dir = Dir.Path;
  Cfg.MaxBytes = MaxBytes;
  return ArtifactCache(std::move(Cfg));
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// out = relu(X * W + B) with deterministic constant weights (same shape
/// family the session tests use; compiles to one partition with a fold).
Graph buildMlp(int64_t M = 16, int64_t K = 32, int64_t N = 24,
               uint64_t Seed = 7) {
  Graph G;
  const int64_t X = G.addTensor(DataType::F32, {M, K}, "x");
  G.markInput(X);
  const int64_t W =
      G.addTensor(DataType::F32, {K, N}, "w", TensorProperty::Constant);
  G.setConstantData(W, test::randomTensor(DataType::F32, {K, N}, Seed));
  const int64_t B =
      G.addTensor(DataType::F32, {N}, "b", TensorProperty::Constant);
  G.setConstantData(B, test::randomTensor(DataType::F32, {N}, Seed + 1));
  const int64_t Mm = G.addOp(OpKind::MatMul, {X, W}, DataType::F32, {M, N});
  const int64_t Biased = G.addOp(OpKind::Add, {Mm, B}, DataType::F32, {M, N});
  const int64_t Out = G.addOp(OpKind::ReLU, {Biased}, DataType::F32, {M, N});
  G.markOutput(Out);
  return G;
}

core::CompileOptions cacheOpts(const TempDir &Dir,
                               CacheMode Mode = CacheMode::ReadWrite) {
  core::CompileOptions Opts;
  Opts.CacheMode = Mode;
  Opts.CacheDir = Dir.Path;
  Opts.CacheMaxBytes = 0; // unlimited; LRU behavior is tested separately
  return Opts;
}

/// Compiles and executes \p G through a fresh Session over \p Opts with a
/// deterministic input; returns the output tensor.
TensorData runOnce(api::Session &S, const Graph &G) {
  Expected<api::CompiledGraphPtr> CompiledOr = S.compile(G);
  EXPECT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  const LogicalTensor &InT = G.tensor(G.inputs()[0]);
  const LogicalTensor &OutT = G.tensor(G.outputs()[0]);
  TensorData In = test::randomTensor(InT.Ty, InT.Shape, 1234);
  TensorData Out(OutT.Ty, OutT.Shape);
  const Status S2 = S.stream().execute(**CompiledOr, {&In}, {&Out});
  EXPECT_TRUE(S2.isOk()) << S2.toString();
  return Out;
}

uint64_t checksum(const TensorData &T) {
  return fnv1aBytes(T.data(), static_cast<size_t>(T.numBytes()));
}

} // namespace

//===----------------------------------------------------------------------===//
// Envelope: store/load roundtrip, LRU, corruption fuzz
//===----------------------------------------------------------------------===//

TEST(ArtifactCacheEnvelope, StoreLoadRoundtrip) {
  TempDir Dir;
  ArtifactCache Cache = makeCache(Dir);
  ASSERT_TRUE(Cache.enabled());
  ASSERT_TRUE(Cache.writable());

  std::vector<uint8_t> Payload(333);
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 7 + 3);
  const uint64_t Key = 0xabcdef0123456789ull;
  ASSERT_TRUE(Cache.store(Key, Payload.data(), Payload.size()).isOk());
  EXPECT_TRUE(Cache.contains(Key));
  EXPECT_GE(Cache.totalBytes(), static_cast<int64_t>(Payload.size()));

  Expected<runtime::LoadedArtifact> Art = Cache.load(Key);
  ASSERT_TRUE(Art.hasValue()) << Art.status().toString();
  ASSERT_EQ(Art.value().PayloadBytes, Payload.size());
  EXPECT_EQ(0,
            std::memcmp(Art.value().Payload, Payload.data(), Payload.size()));
  // The payload span must be 8-aligned for zero-copy scalar views.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Art.value().Payload) % 8, 0u);

  // mmap survives eviction: the loaded view stays valid after unlink.
  Cache.evict(Key);
  EXPECT_FALSE(Cache.contains(Key));
  EXPECT_EQ(0,
            std::memcmp(Art.value().Payload, Payload.data(), Payload.size()));
  EXPECT_FALSE(Cache.load(Key).hasValue());
}

TEST(ArtifactCacheEnvelope, ReadModeNeverWrites) {
  TempDir Dir;
  ArtifactCache Cache = makeCache(Dir, CacheMode::Read);
  ASSERT_TRUE(Cache.enabled());
  EXPECT_FALSE(Cache.writable());
  std::vector<uint8_t> Payload(16, 0x5a);
  EXPECT_FALSE(Cache.store(1, Payload.data(), Payload.size()).isOk());
  EXPECT_EQ(Dir.numEntries(), 0u);
}

TEST(ArtifactCacheEnvelope, LruEvictsOldestWhenOverCap) {
  TempDir Dir;
  // Each entry: 40-byte header + 1000-byte payload. Cap fits two.
  ArtifactCache Cache = makeCache(Dir, CacheMode::ReadWrite, 2200);
  std::vector<uint8_t> Payload(1000, 0x11);
  ASSERT_TRUE(Cache.store(1, Payload.data(), Payload.size()).isOk());
  ASSERT_TRUE(Cache.store(2, Payload.data(), Payload.size()).isOk());
  // Age entry 1 so the next store's GC pass sees it as the LRU victim.
  struct utimbuf Old;
  Old.actime = Old.modtime = time(nullptr) - 1000;
  ASSERT_EQ(::utime(Cache.entryPath(1).c_str(), &Old), 0);
  ASSERT_TRUE(Cache.store(3, Payload.data(), Payload.size()).isOk());
  EXPECT_FALSE(Cache.contains(1));
  EXPECT_TRUE(Cache.contains(2));
  EXPECT_TRUE(Cache.contains(3));
  EXPECT_LE(Cache.totalBytes(), 2200);
}

TEST(ArtifactCacheEnvelope, CorruptionFuzzEveryMutationRejected) {
  TempDir Dir;
  ArtifactCache Cache = makeCache(Dir);
  std::vector<uint8_t> Payload(512);
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I ^ 0x3c);
  const uint64_t Key = 0x1122334455667788ull;
  const std::string Path = Cache.entryPath(Key);
  ASSERT_TRUE(Cache.store(Key, Payload.data(), Payload.size()).isOk());
  const std::vector<uint8_t> Good = readFile(Path);
  ASSERT_EQ(Good.size(), 40 + Payload.size());

  const auto ExpectRejected = [&](const char *What) {
    Expected<runtime::LoadedArtifact> Art = Cache.load(Key);
    EXPECT_FALSE(Art.hasValue()) << What << ": corrupt entry was served";
    if (!Art.hasValue()) {
      EXPECT_FALSE(Art.status().message().empty()) << What;
    }
  };

  // Zero-length file.
  writeFile(Path, {});
  ExpectRejected("zero-length");
  // Truncations: inside the header, exactly the header, inside the body.
  for (size_t Keep : {size_t(1), size_t(17), size_t(39), size_t(40),
                      size_t(40 + Payload.size() / 2),
                      Good.size() - 1}) {
    std::vector<uint8_t> T(Good.begin(), Good.begin() + Keep);
    writeFile(Path, T);
    ExpectRejected("truncation");
  }
  // Bit flips in every header field: magic, version, key, payload-bytes,
  // checksum, reserved.
  for (size_t Off : {size_t(0), size_t(5), size_t(8), size_t(17),
                     size_t(27), size_t(35)}) {
    std::vector<uint8_t> T = Good;
    T[Off] ^= 0x40;
    writeFile(Path, T);
    ExpectRejected("header bit flip");
  }
  // Bit flips across the payload body (checksum must catch every one).
  for (size_t Off = 40; Off < Good.size(); Off += 41) {
    std::vector<uint8_t> T = Good;
    T[Off] ^= 0x01;
    writeFile(Path, T);
    ExpectRejected("payload bit flip");
  }
  // Version skew: a well-formed entry from a future format.
  {
    std::vector<uint8_t> T = Good;
    T[4] += 1;
    writeFile(Path, T);
    ExpectRejected("version skew");
  }
  // Restore the pristine bytes: must load again.
  writeFile(Path, Good);
  EXPECT_TRUE(Cache.load(Key).hasValue());
}

//===----------------------------------------------------------------------===//
// Codec: roundtrip and payload fuzz
//===----------------------------------------------------------------------===//

TEST(ArtifactCodec, RoundtripExecutesBitIdentically) {
  const Graph G = buildMlp();
  core::CompileOptions Opts;
  Opts.CacheMode = CacheMode::Off;
  std::shared_ptr<core::CompiledPartition> P =
      test::compileOnePartition(G, Opts);
  ASSERT_NE(P, nullptr);

  auto Payload = std::make_shared<std::vector<uint8_t>>(
      core::ArtifactCodec::serialize(*P));
  ASSERT_FALSE(Payload->empty());
  Expected<std::shared_ptr<core::CompiledPartition>> LoadedOr =
      core::ArtifactCodec::deserialize(Payload->data(), Payload->size(),
                                       Payload, core::globalThreadPool());
  ASSERT_TRUE(LoadedOr.hasValue()) << LoadedOr.status().toString();
  core::CompiledPartition &L = *LoadedOr.value();

  // Body-derived statistics survive without the body.
  EXPECT_EQ(L.stats().ParallelNests, P->stats().ParallelNests);
  EXPECT_EQ(L.stats().CoarseGrainMerges, P->stats().CoarseGrainMerges);
  EXPECT_EQ(L.stats().ScratchArenaBytes, P->stats().ScratchArenaBytes);
  EXPECT_EQ(L.outputShapes(), P->outputShapes());

  // Identical inputs through both partitions: bit-identical outputs.
  TensorData In = test::randomTensor(DataType::F32, {16, 32}, 77);
  TensorData OutA(DataType::F32, {16, 24});
  TensorData OutB(DataType::F32, {16, 24});
  ASSERT_TRUE(P->execute({&In}, {&OutA}).isOk());
  ASSERT_TRUE(L.execute({&In}, {&OutB}).isOk());
  EXPECT_EQ(0, std::memcmp(OutA.data(), OutB.data(),
                           static_cast<size_t>(OutA.numBytes())));
}

TEST(ArtifactCodec, TruncatedPayloadAlwaysRejected) {
  const Graph G = buildMlp();
  core::CompileOptions Opts;
  Opts.CacheMode = CacheMode::Off;
  std::shared_ptr<core::CompiledPartition> P =
      test::compileOnePartition(G, Opts);
  auto Payload = std::make_shared<std::vector<uint8_t>>(
      core::ArtifactCodec::serialize(*P));
  for (size_t Keep : {size_t(0), size_t(3), size_t(4), Payload->size() / 4,
                      Payload->size() / 2, Payload->size() - 1}) {
    auto T = std::make_shared<std::vector<uint8_t>>(
        Payload->begin(), Payload->begin() + Keep);
    Expected<std::shared_ptr<core::CompiledPartition>> R =
        core::ArtifactCodec::deserialize(T->data(), T->size(), T,
                                         core::globalThreadPool());
    EXPECT_FALSE(R.hasValue()) << "payload truncated to " << Keep;
  }
  // Trailing garbage after a complete payload is also malformed.
  auto Extended = std::make_shared<std::vector<uint8_t>>(*Payload);
  Extended->push_back(0);
  Expected<std::shared_ptr<core::CompiledPartition>> R =
      core::ArtifactCodec::deserialize(Extended->data(), Extended->size(),
                                       Extended, core::globalThreadPool());
  EXPECT_FALSE(R.hasValue());
}

TEST(ArtifactCodec, ByteFlipSweepParsesSafely) {
  // Drives flipped payloads straight into the codec, bypassing the
  // envelope checksum, to prove the parser + validators keep
  // deserialization itself memory-safe and defined on arbitrary bytes: a
  // located error, or a structurally valid partition. The sanitizer CI
  // jobs run this same sweep under ASan/UBSan and TSan. Flips the codec
  // cannot semantically detect (e.g. a kernel-call dimension immediate)
  // may deserialize; *executing* such a program is out of contract — in
  // the full stack the envelope FNV checksum rejects every payload flip
  // before the codec runs (CorruptionFuzzEveryMutationRejected above),
  // so the codec never sees checksum-invalid bytes in production.
  const Graph G = buildMlp(8, 16, 8);
  core::CompileOptions Opts;
  Opts.CacheMode = CacheMode::Off;
  std::shared_ptr<core::CompiledPartition> P =
      test::compileOnePartition(G, Opts);
  const std::vector<uint8_t> Payload = core::ArtifactCodec::serialize(*P);
  size_t Rejected = 0, Accepted = 0;
  for (size_t Off = 0; Off < Payload.size(); ++Off) {
    auto T = std::make_shared<std::vector<uint8_t>>(Payload);
    (*T)[Off] ^= 0x10;
    Expected<std::shared_ptr<core::CompiledPartition>> R =
        core::ArtifactCodec::deserialize(T->data(), T->size(), T,
                                         core::globalThreadPool());
    R.hasValue() ? ++Accepted : ++Rejected;
  }
  // The sweep must exercise both regimes to mean anything: structural
  // bytes that reject, and plain data bytes (weights) that parse fine.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Accepted, 0u);
}

/// Deserializes \p Payload with the intrinsic byte of \p Call XORed by
/// \p Mask. The call is found by its encoding up to its scalars, as
/// writeProgram lays it out.
Expected<std::shared_ptr<core::CompiledPartition>>
flipIntrinsic(const std::vector<uint8_t> &Payload, const exec::CallDesc &Call,
              uint8_t Mask) {
  ByteWriter W;
  W.u8(static_cast<uint8_t>(Call.In));
  W.u8(Call.NumBufs);
  W.u8(Call.NumDyn);
  for (uint8_t I = 0; I < Call.NumBufs; ++I) {
    W.i32(Call.Bufs[I].BufferId);
    W.u16(Call.Bufs[I].OffsetReg);
    W.u8(Call.Bufs[I].HasOffset ? 1 : 0);
  }
  for (int64_t S : Call.SI)
    W.i64(S);
  const auto At = std::search(Payload.begin(), Payload.end(),
                              W.bytes().begin(), W.bytes().end());
  if (At == Payload.end())
    return Status::error(StatusCode::Internal, "call not found in payload");
  auto T = std::make_shared<std::vector<uint8_t>>(Payload);
  (*T)[static_cast<size_t>(At - Payload.begin())] ^= Mask;
  return core::ArtifactCodec::deserialize(T->data(), T->size(), T,
                                          core::globalThreadPool());
}

TEST(ArtifactCodec, IntrinsicFlipThatWidensACallIsRejected) {
  // Pins the flip class that once made the sweep above read out of bounds
  // under ASan: an intrinsic byte flipped into one whose layout takes more
  // buffers than the call carries, so footprints indexed by that layout
  // read an unused slot. Here an MLP's two-buffer pack_a_f32 call flips
  // into the three-buffer brgemm_f32 (PackAF32 ^ 0x05).
  workloads::MlpSpec Spec;
  Spec.LayerDims = workloads::mlp1Dims();
  core::CompileOptions Opts;
  Opts.CacheMode = CacheMode::Off;
  std::shared_ptr<core::CompiledPartition> P =
      test::compileOnePartition(workloads::buildMlp(Spec), Opts);
  const std::vector<uint8_t> Payload = core::ArtifactCodec::serialize(*P);
  const std::vector<exec::CallDesc> &Calls = P->bytecode().Calls;
  const auto Pack =
      std::find_if(Calls.begin(), Calls.end(), [](const exec::CallDesc &C) {
        return C.In == tir::Intrinsic::PackAF32;
      });
  ASSERT_NE(Pack, Calls.end());
  ASSERT_EQ(static_cast<uint8_t>(Pack->In) ^ 0x05,
            static_cast<uint8_t>(tir::Intrinsic::BrgemmF32));
  ASSERT_LT(Pack->NumBufs,
            tir::intrinsicInfo(tir::Intrinsic::BrgemmF32).NumBufs);
  Expected<std::shared_ptr<core::CompiledPartition>> R =
      flipIntrinsic(Payload, *Pack, 0x05);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.status().message().find("call buffer count"), std::string::npos)
      << R.status().toString();

  // PackAF32 ^ 0x20 lands on a retired id: past the table, so the codec
  // rejects the id itself.
  ASSERT_GE(static_cast<uint8_t>(Pack->In) ^ 0x20, tir::kNumIntrinsics);
  R = flipIntrinsic(Payload, *Pack, 0x20);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.status().message().find("call intrinsic"), std::string::npos)
      << R.status().toString();
}

TEST(ArtifactCodec, RetiredOpcodeRejectedAtLoad) {
  // Opcode 18 was LoadF32 until the bytecode became integer-only (payload
  // v6). A stored instruction carrying it, or the first id past the
  // table, must be rejected by the codec before the verifier or the
  // dispatch loop sees it.
  const Graph G = buildMlp();
  core::CompileOptions Opts;
  Opts.CacheMode = CacheMode::Off;
  std::shared_ptr<core::CompiledPartition> P =
      test::compileOnePartition(G, Opts);
  const std::vector<uint8_t> Payload = core::ArtifactCodec::serialize(*P);
  // The instruction stream as writeProgram lays it out: the count, then
  // op, A, B, C, target and immediate of each instruction.
  const std::vector<exec::Instr> &Code = P->bytecode().Code;
  ByteWriter W;
  W.u64(Code.size());
  for (const exec::Instr &I : Code) {
    W.u8(static_cast<uint8_t>(I.Op));
    W.u16(I.A);
    W.u16(I.B);
    W.u16(I.C);
    W.i32(I.Target);
    W.i64(I.Imm);
  }
  const auto At = std::search(Payload.begin(), Payload.end(),
                              W.bytes().begin(), W.bytes().end());
  ASSERT_NE(At, Payload.end());
  const size_t FirstOp = static_cast<size_t>(At - Payload.begin()) + 8;
  for (const uint8_t Op : {uint8_t{18}, exec::kNumOpcodes}) {
    auto T = std::make_shared<std::vector<uint8_t>>(Payload);
    (*T)[FirstOp] = Op;
    Expected<std::shared_ptr<core::CompiledPartition>> R =
        core::ArtifactCodec::deserialize(T->data(), T->size(), T,
                                         core::globalThreadPool());
    ASSERT_FALSE(R.hasValue()) << "opcode " << unsigned{Op};
    EXPECT_NE(R.status().message().find("opcode"), std::string::npos)
        << R.status().toString();
  }
}

//===----------------------------------------------------------------------===//
// Streamed store: the digest, the sink writer, and the entry it writes
//===----------------------------------------------------------------------===//

TEST(ArtifactStream, IncrementalDigestMatchesBulkInAnySplit) {
  Rng R(5);
  const auto Random = [&](size_t Bytes) {
    std::vector<uint8_t> V(Bytes);
    for (uint8_t &B : V)
      B = static_cast<uint8_t>(R.uniformInt(0, 255));
    return V;
  };
  // Feeds \p Data in random pieces of at most \p MaxPiece bytes (empty
  // pieces included) and returns the incremental digest.
  const auto Split = [&](const std::vector<uint8_t> &Data, int64_t MaxPiece) {
    Fnv1aBulk H;
    size_t Off = 0;
    while (Off < Data.size()) {
      const size_t Piece = std::min(
          Data.size() - Off, static_cast<size_t>(R.uniformInt(0, MaxPiece)));
      H.update(Data.data() + Off, Piece);
      Off += Piece;
    }
    H.update(Data.data(), 0);
    return H.digest();
  };
  for (size_t Len = 0; Len <= 100; ++Len) {
    const std::vector<uint8_t> Data = Random(Len);
    const uint64_t Want = fnv1aBytesBulk(Data.data(), Data.size());
    for (int64_t MaxPiece : {1, 7, 31, 33, 100})
      EXPECT_EQ(Split(Data, MaxPiece), Want) << "length " << Len;
  }
  const std::vector<uint8_t> Big = Random(7u << 20);
  const uint64_t Want = fnv1aBytesBulk(Big.data(), Big.size());
  for (int64_t MaxPiece : {63, 4099, 1 << 20})
    EXPECT_EQ(Split(Big, MaxPiece), Want) << "7 MiB, pieces <= " << MaxPiece;
}

TEST(ArtifactStream, SinkWriterEmitsTheInMemoryBytes) {
  // Small fields fill the staging buffer several times over; blobs below
  // and at the direct-write threshold, and a 1 MiB one, interleave.
  std::vector<uint8_t> Blob(1u << 20);
  for (size_t I = 0; I < Blob.size(); ++I)
    Blob[I] = static_cast<uint8_t>(I * 13 + 1);
  std::vector<uint8_t> Sunk;
  size_t LargestStaged = 0, DirectWrites = 0;
  ByteWriter Streamed([&](const void *Data, size_t Bytes) {
    const auto *P = static_cast<const uint8_t *>(Data);
    Sunk.insert(Sunk.end(), P, P + Bytes);
    // A direct write hands over the caller's memory, not a staged copy.
    if (P >= Blob.data() && P < Blob.data() + Blob.size())
      ++DirectWrites;
    else
      LargestStaged = std::max(LargestStaged, Bytes);
    return true;
  });
  ByteWriter InMemory;
  for (ByteWriter *W : {&Streamed, &InMemory}) {
    for (int I = 0; I < 40000; ++I) {
      W->u8(static_cast<uint8_t>(I));
      W->i64(I);
      if (I % 5000 == 0)
        W->str("field " + std::to_string(I));
      if (I % 9000 == 0)
        W->blob(Blob.data(), ByteWriter::kDirectBytes - 1);
      if (I % 11000 == 0)
        W->blob(Blob.data(), ByteWriter::kDirectBytes);
    }
    W->blob(Blob.data(), Blob.size());
    W->u32(0xfeedu);
    EXPECT_TRUE(W->flush());
  }
  EXPECT_EQ(Streamed.size(), InMemory.size());
  EXPECT_EQ(Sunk, InMemory.bytes());
  EXPECT_EQ(DirectWrites, 5u);
  EXPECT_LE(LargestStaged, ByteWriter::kStageBytes);
}

namespace {

/// Streams \p P's payload into \p Cache under \p Key and checks the entry
/// file byte for byte: the 40-byte header (magic "GCAC", format version
/// 2, the key, the payload length, the bulk checksum of the payload, a
/// zero reserved word) followed by exactly serialize()'s bytes.
void expectStreamedEntryIsHeaderAndPayload(core::CompiledPartition &P,
                                           const ArtifactCache &Cache,
                                           uint64_t Key) {
  const std::vector<uint8_t> Payload = core::ArtifactCodec::serialize(P);
  const Status Stored = Cache.store(
      Key, [&](ByteWriter &W) { core::ArtifactCodec::encode(P, W); });
  ASSERT_TRUE(Stored.isOk()) << Stored.toString();
  const std::vector<uint8_t> File = readFile(Cache.entryPath(Key));
  ASSERT_EQ(File.size(), 40 + Payload.size());
  uint32_t Magic = 0, Version = 0;
  uint64_t HeaderKey = 0, Bytes = 0, Sum = 0, Reserved = 1;
  std::memcpy(&Magic, File.data(), 4);
  std::memcpy(&Version, File.data() + 4, 4);
  std::memcpy(&HeaderKey, File.data() + 8, 8);
  std::memcpy(&Bytes, File.data() + 16, 8);
  std::memcpy(&Sum, File.data() + 24, 8);
  std::memcpy(&Reserved, File.data() + 32, 8);
  EXPECT_EQ(Magic, 0x43414347u);
  EXPECT_EQ(Version, 2u);
  EXPECT_EQ(HeaderKey, Key);
  EXPECT_EQ(Bytes, Payload.size());
  EXPECT_EQ(Sum, fnv1aBytesBulk(Payload.data(), Payload.size()));
  EXPECT_EQ(Reserved, 0u);
  EXPECT_TRUE(std::equal(Payload.begin(), Payload.end(), File.begin() + 40))
      << "the streamed payload differs from serialize()'s bytes";
  EXPECT_TRUE(Cache.load(Key).hasValue());
}

} // namespace

TEST(ArtifactStream, StoredFileIsHeaderThenSerializedBytes) {
  TempDir Dir;
  ArtifactCache Cache = makeCache(Dir);
  core::CompileOptions Opts;
  Opts.CacheMode = CacheMode::Off;

  // A BERT int8 layer: weight blobs from 16 to 64 KiB, past the
  // direct-write threshold, between runs of small fields.
  workloads::BertLayerSpec Bert;
  Bert.Batch = 1;
  Bert.SeqLen = 32;
  Bert.Hidden = 128;
  Bert.Heads = 2;
  Bert.FfnDim = 512;
  Bert.Int8 = true;
  std::shared_ptr<core::CompiledPartition> BertP =
      test::compileOnePartition(workloads::buildBertLayer(Bert), Opts);
  expectStreamedEntryIsHeaderAndPayload(*BertP, Cache, 0xb0);

  std::shared_ptr<core::CompiledPartition> MlpP =
      test::compileOnePartition(buildMlp(32, 128, 96), Opts);
  expectStreamedEntryIsHeaderAndPayload(*MlpP, Cache, 0xa1);
  EXPECT_EQ(Dir.numEntries(), 2u);
}

//===----------------------------------------------------------------------===//
// Cache key: tier / thread / option separation
//===----------------------------------------------------------------------===//

TEST(ArtifactKey, KernelTierThreadsAndOptionsSeparateKeys) {
  core::CompileOptions Opts;
  const uint64_t Fp = 0x1234;
  using kernels::KernelTier;
  const uint64_t Scalar =
      core::artifactCacheKey(Fp, Opts, 4, KernelTier::Scalar);
  const uint64_t Avx2 = core::artifactCacheKey(Fp, Opts, 4, KernelTier::Avx2);
  const uint64_t Avx512 =
      core::artifactCacheKey(Fp, Opts, 4, KernelTier::Avx512);
  EXPECT_NE(Scalar, Avx2);
  EXPECT_NE(Scalar, Avx512);
  EXPECT_NE(Avx2, Avx512);
  // Deterministic for equal inputs.
  EXPECT_EQ(Scalar, core::artifactCacheKey(Fp, Opts, 4, KernelTier::Scalar));
  // Thread count reaches lowering; it must reach the key.
  EXPECT_NE(Scalar, core::artifactCacheKey(Fp, Opts, 8, KernelTier::Scalar));
  // Graph fingerprint.
  EXPECT_NE(Scalar,
            core::artifactCacheKey(Fp + 1, Opts, 4, KernelTier::Scalar));
  // Every pipeline-shaping option flag.
  const auto Flip = [&](auto Mutate) {
    core::CompileOptions O = Opts;
    Mutate(O);
    return core::artifactCacheKey(Fp, O, 4, KernelTier::Scalar);
  };
  EXPECT_NE(Scalar,
            Flip([](core::CompileOptions &O) { O.EnableLowPrecision ^= 1; }));
  EXPECT_NE(Scalar, Flip([](core::CompileOptions &O) {
              O.EnableFineGrainFusion ^= 1;
            }));
  EXPECT_NE(Scalar, Flip([](core::CompileOptions &O) {
              O.EnableCoarseGrainFusion ^= 1;
            }));
  EXPECT_NE(Scalar, Flip([](core::CompileOptions &O) {
              O.EnableLayoutPropagation ^= 1;
            }));
  EXPECT_NE(Scalar,
            Flip([](core::CompileOptions &O) { O.EnableBufferReuse ^= 1; }));
  EXPECT_NE(Scalar, Flip([](core::CompileOptions &O) { O.FastSoftmax ^= 1; }));
  EXPECT_NE(Scalar,
            Flip([](core::CompileOptions &O) { O.PrimitivesMode ^= 1; }));
  // Cache plumbing knobs do NOT shape the artifact; same key.
  EXPECT_EQ(Scalar, Flip([](core::CompileOptions &O) {
              O.CacheMode = CacheMode::ReadWrite;
              O.CacheDir = "/elsewhere";
              O.CacheMaxBytes = 1;
            }));
}

//===----------------------------------------------------------------------===//
// Session integration
//===----------------------------------------------------------------------===//

TEST(ArtifactSession, SecondSessionIsDiskWarmAndBitIdentical) {
  TempDir Dir;
  const Graph G1 = buildMlp();
  api::Session Cold(cacheOpts(Dir));
  const TensorData Out1 = runOnce(Cold, G1);
  EXPECT_EQ(Cold.diskCacheHits(), 0u);
  EXPECT_EQ(Cold.diskCacheMisses(), 1u);
  EXPECT_EQ(Cold.diskCacheStores(), 1u);
  EXPECT_EQ(Dir.numEntries(), 1u);

  // A fresh session (fresh in-memory cache, same process) must be served
  // from disk and agree bit for bit.
  const Graph G2 = buildMlp();
  api::Session Warm(cacheOpts(Dir));
  const TensorData Out2 = runOnce(Warm, G2);
  EXPECT_EQ(Warm.diskCacheHits(), 1u);
  EXPECT_EQ(Warm.diskCacheMisses(), 0u);
  EXPECT_EQ(Warm.diskCacheStores(), 0u);
  ASSERT_EQ(Out1.numBytes(), Out2.numBytes());
  EXPECT_EQ(0, std::memcmp(Out1.data(), Out2.data(),
                           static_cast<size_t>(Out1.numBytes())));

  // Read-only mode also hits, and an off-mode session ignores the disk.
  api::Session ReadOnly(cacheOpts(Dir, CacheMode::Read));
  (void)runOnce(ReadOnly, buildMlp());
  EXPECT_EQ(ReadOnly.diskCacheHits(), 1u);
  api::Session Off(cacheOpts(Dir, CacheMode::Off));
  (void)runOnce(Off, buildMlp());
  EXPECT_EQ(Off.diskCacheHits(), 0u);
  EXPECT_EQ(Off.diskCacheMisses(), 0u);
}

TEST(ArtifactSession, CorruptEntrySelfHealsWithFreshCompile) {
  TempDir Dir;
  api::Session Seed(cacheOpts(Dir));
  const TensorData Out1 = runOnce(Seed, buildMlp());
  ASSERT_EQ(Seed.diskCacheStores(), 1u);

  // Flip one payload byte of the only entry.
  std::string Entry;
  if (DIR *D = opendir(Dir.Path.c_str())) {
    while (dirent *E = readdir(D)) {
      const std::string Name = E->d_name;
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".gca")
        Entry = Dir.Path + "/" + Name;
    }
    closedir(D);
  }
  ASSERT_FALSE(Entry.empty());
  std::vector<uint8_t> Bytes = readFile(Entry);
  ASSERT_GT(Bytes.size(), 100u);
  Bytes[80] ^= 0xff;
  writeFile(Entry, Bytes);

  // The corrupt entry is rejected, the partition recompiles, the store
  // overwrites the bad bytes, and execution is unaffected.
  api::Session Heal(cacheOpts(Dir));
  const TensorData Out2 = runOnce(Heal, buildMlp());
  EXPECT_EQ(Heal.diskCacheHits(), 0u);
  EXPECT_EQ(Heal.diskCacheMisses(), 1u);
  EXPECT_EQ(Heal.diskCacheStores(), 1u);
  EXPECT_EQ(0, std::memcmp(Out1.data(), Out2.data(),
                           static_cast<size_t>(Out1.numBytes())));

  // And the healed entry serves the next session.
  api::Session After(cacheOpts(Dir));
  (void)runOnce(After, buildMlp());
  EXPECT_EQ(After.diskCacheHits(), 1u);
}

TEST(ArtifactSession, CacheWritingCompileFoldsOnce) {
  // The store folds through the partition's own ensureFolded(): the fold
  // products are live right after compile, and the first execution
  // serves them instead of folding again.
  TempDir Dir;
  workloads::MlpSpec Spec;
  Spec.Int8 = true;
  Spec.Batch = 3;
  Spec.LayerDims = {67, 101, 45};
  Spec.Seed = 5;
  const Graph G = workloads::buildMlp(Spec);
  api::Session Writer(cacheOpts(Dir));
  Expected<api::CompiledGraphPtr> CompiledOr = Writer.compile(G);
  ASSERT_TRUE(CompiledOr.hasValue()) << CompiledOr.status().toString();
  ASSERT_EQ(Writer.diskCacheStores(), 1u);
  const std::shared_ptr<core::CompiledPartition> CP =
      (*CompiledOr)->compiledPartition(0);
  ASSERT_NE(CP, nullptr);
  EXPECT_GT(CP->stats().FoldedTensors, 0u);
  EXPECT_GT(CP->stats().FoldedBytes, 0);

  const TensorData Written = runOnce(Writer, G);
  api::Session Off(cacheOpts(Dir, CacheMode::Off));
  const TensorData Fresh = runOnce(Off, G);
  ASSERT_EQ(Written.numBytes(), Fresh.numBytes());
  EXPECT_EQ(0, std::memcmp(Written.data(), Fresh.data(),
                           static_cast<size_t>(Fresh.numBytes())));
}

//===----------------------------------------------------------------------===//
// Cross-process: tier isolation and the multi-process stress test
//===----------------------------------------------------------------------===//

namespace {

/// One worker invocation: re-exec this test binary's hidden worker test
/// with the given environment prefix, collect its GC_WORKER report line.
struct WorkerReport {
  bool Ok = false;
  uint64_t DiskHits = 0, DiskStores = 0, Checksum = 0;
};

/// This test binary's own path; /proc/self/exe cannot appear in the popen
/// command line because the shell, not this process, would resolve it.
std::string selfExePath() {
  char Buf[4096];
  const ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof Buf - 1);
  EXPECT_GT(N, 0);
  return std::string(Buf, N > 0 ? static_cast<size_t>(N) : 0);
}

FILE *spawnWorker(const std::string &Dir, const std::string &Kernels) {
  std::string Cmd =
      "GC_CACHE=rw GC_CACHE_DIR='" + Dir + "' GC_SPAWNED_WORKER=1";
  if (!Kernels.empty())
    Cmd += " GC_KERNELS=" + Kernels;
  Cmd += " '" + selfExePath() + "'" +
         " --gtest_filter=ArtifactWorker.DISABLED_CompileReportExit"
         " --gtest_also_run_disabled_tests 2>/dev/null";
  return popen(Cmd.c_str(), "r");
}

WorkerReport collectWorker(FILE *Pipe) {
  WorkerReport Rep;
  if (!Pipe)
    return Rep;
  char Line[512];
  while (std::fgets(Line, sizeof Line, Pipe)) {
    unsigned long long H, St, Ck;
    if (std::sscanf(Line, "GC_WORKER hits=%llu stores=%llu checksum=%llx",
                    &H, &St, &Ck) == 3) {
      Rep.DiskHits = H;
      Rep.DiskStores = St;
      Rep.Checksum = Ck;
      Rep.Ok = true;
    }
  }
  if (pclose(Pipe) != 0)
    Rep.Ok = false;
  return Rep;
}

WorkerReport runWorker(const std::string &Dir, const std::string &Kernels) {
  return collectWorker(spawnWorker(Dir, Kernels));
}

} // namespace

/// Hidden worker (only meaningful when re-exec'd with GC_SPAWNED_WORKER=1
/// and GC_CACHE* set): compiles the MLP through a Session configured from
/// the environment and reports disk statistics + an output checksum.
TEST(ArtifactWorker, DISABLED_CompileReportExit) {
  if (!std::getenv("GC_SPAWNED_WORKER"))
    GTEST_SKIP() << "worker test only runs when re-exec'd by a parent test";
  core::CompileOptions Opts; // GC_CACHE / GC_CACHE_DIR / GC_KERNELS applied
  api::Session S(Opts);
  const TensorData Out = runOnce(S, buildMlp());
  std::printf("GC_WORKER hits=%llu stores=%llu checksum=%llx\n",
              (unsigned long long)S.diskCacheHits(),
              (unsigned long long)S.diskCacheStores(),
              (unsigned long long)checksum(Out));
  std::fflush(stdout);
}

TEST(ArtifactCrossProcess, ScalarProcessNeverServedSimdArtifact) {
  if (kernels::maxKernelTier() == kernels::KernelTier::Scalar)
    GTEST_SKIP() << "host has no SIMD tier to separate from scalar";
  TempDir Dir;
  // A scalar-pinned process compiles and stores its own artifact.
  WorkerReport Scalar1 = runWorker(Dir.Path, "scalar");
  ASSERT_TRUE(Scalar1.Ok);
  EXPECT_EQ(Scalar1.DiskHits, 0u);
  EXPECT_EQ(Scalar1.DiskStores, 1u);
  // A SIMD process must not consume the scalar entry: its key differs, so
  // it compiles and stores a second artifact.
  WorkerReport Simd = runWorker(Dir.Path, "");
  ASSERT_TRUE(Simd.Ok);
  EXPECT_EQ(Simd.DiskHits, 0u);
  EXPECT_EQ(Simd.DiskStores, 1u);
  EXPECT_EQ(Dir.numEntries(), 2u);
  // A second scalar process is served its own tier's artifact and agrees
  // with the first scalar run bit for bit.
  WorkerReport Scalar2 = runWorker(Dir.Path, "scalar");
  ASSERT_TRUE(Scalar2.Ok);
  EXPECT_EQ(Scalar2.DiskHits, 1u);
  EXPECT_EQ(Scalar2.DiskStores, 0u);
  EXPECT_EQ(Scalar2.Checksum, Scalar1.Checksum);
  EXPECT_EQ(Dir.numEntries(), 2u);
}

TEST(ArtifactCrossProcess, RacingProcessesCompileOnceAndAgree) {
  TempDir Dir;
  // N processes race on one cold cache directory. The per-key flock makes
  // the compile-and-store exactly-once: every other process either waits
  // and loads, or loads the published entry directly.
  constexpr int N = 4;
  FILE *Pipes[N];
  for (FILE *&P : Pipes)
    P = spawnWorker(Dir.Path, "scalar");
  WorkerReport Reports[N];
  for (int I = 0; I < N; ++I)
    Reports[I] = collectWorker(Pipes[I]);
  uint64_t Stores = 0;
  for (const WorkerReport &R : Reports) {
    ASSERT_TRUE(R.Ok);
    Stores += R.DiskStores;
    EXPECT_EQ(R.Checksum, Reports[0].Checksum);
  }
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(Dir.numEntries(), 1u);
}
