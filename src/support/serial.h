//===- serial.h - Bounds-checked byte-stream (de)serialization --*- C++ -*-===//
///
/// \file
/// Little building blocks for the persistent artifact cache: an appending
/// byte writer (in memory, or streaming into a sink), the payload
/// checksum, and a bounds-checked reader over an untrusted byte span.
/// The reader never aborts on malformed input — every primitive read
/// checks the remaining length, and the first failure latches a located
/// Status that all subsequent reads observe, so deserializers can perform
/// a run of reads and test ok() at natural checkpoints instead of
/// threading a Status through every field.
///
/// Encoding is the host's native little-endian representation (the cache
/// is per-machine; the build hash in the cache key already fences off
/// foreign producers). Multi-byte scalars are memcpy'd, so the reader is
/// alignment-safe over any payload offset; raw byte blobs that will be
/// *viewed* in place (mmap zero-copy constants) are 8-aligned via
/// alignTo() on both sides.
///
//===----------------------------------------------------------------------===//

#ifndef GC_SUPPORT_SERIAL_H
#define GC_SUPPORT_SERIAL_H

#include "support/status.h"
#include "support/str.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace gc {

/// FNV-1a over a byte span, folding 8 bytes per multiply; the artifact
/// cache's header checksum (same construction the Graph fingerprint
/// uses). The word-wise step keeps the property that matters for
/// corruption detection — (H ^ W) * prime is injective in W, so two
/// spans differing in exactly one word never collide — while hashing
/// multi-megabyte weight payloads at memory speed instead of one multiply
/// per byte. Not the canonical byte-at-a-time FNV-1a digest; every
/// producer and consumer of these hashes lives in this codebase.
inline uint64_t fnv1aBytes(const void *Data, size_t Bytes,
                           uint64_t H = 1469598103934665603ull) {
  const auto *P = static_cast<const uint8_t *>(Data);
  size_t I = 0;
  for (; I + 8 <= Bytes; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    H ^= W;
    H *= 1099511628211ull;
  }
  for (; I < Bytes; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// Bulk checksum for multi-megabyte payloads: four independent word-wise
/// FNV-1a lanes over interleaved 8-byte words, folded into one digest
/// with the scalar routine (which also absorbs the sub-32-byte tail).
/// fnv1aBytes is a serial xor-multiply dependency chain — one multiply
/// latency per 8 bytes — which caps it well below memory bandwidth; four
/// lanes hide that latency while keeping the property corruption
/// detection needs (a corrupted word changes its lane's digest, which
/// changes the fold). Digests are NOT interchangeable with fnv1aBytes;
/// producers and consumers of a field must agree on the variant.
///
/// This is the incremental form: feeding a span through update() in any
/// split and then calling digest() gives fnv1aBytesBulk() of the whole
/// span, so a streamed store checksums its payload as it writes it.
class Fnv1aBulk {
public:
  void update(const void *Data, size_t Bytes) {
    if (Bytes == 0)
      return; // Data may be null
    const auto *P = static_cast<const uint8_t *>(Data);
    if (Pending > 0) {
      const size_t Take = std::min(Bytes, sizeof Tail - Pending);
      std::memcpy(Tail + Pending, P, Take);
      Pending += Take;
      P += Take;
      Bytes -= Take;
      if (Pending < sizeof Tail)
        return;
      step(Lanes, Tail);
    }
    // Lanes in a local array the compiler keeps in registers: stores
    // through this could alias P's bytes and would pin them to memory.
    uint64_t L[4] = {Lanes[0], Lanes[1], Lanes[2], Lanes[3]};
    for (; Bytes >= sizeof Tail; P += sizeof Tail, Bytes -= sizeof Tail)
      step(L, P);
    std::memcpy(Lanes, L, sizeof L);
    std::memcpy(Tail, P, Bytes);
    Pending = Bytes;
  }

  uint64_t digest() const {
    return fnv1aBytes(Tail, Pending, fnv1aBytes(Lanes, sizeof Lanes));
  }

private:
  /// Folds one 32-byte group, one 8-byte word per lane.
  static void step(uint64_t (&L)[4], const uint8_t *P) {
    for (int I = 0; I < 4; ++I) {
      uint64_t W;
      std::memcpy(&W, P + 8 * I, 8);
      L[I] = (L[I] ^ W) * 1099511628211ull;
    }
  }

  static constexpr uint64_t kBasis = 1469598103934665603ull;
  uint64_t Lanes[4] = {kBasis, kBasis ^ 0x9e3779b97f4a7c15ull,
                       kBasis ^ 0xc2b2ae3d27d4eb4full,
                       kBasis ^ 0x165667b19e3779f9ull};
  uint8_t Tail[32] = {};
  size_t Pending = 0;
};

inline uint64_t fnv1aBytesBulk(const void *Data, size_t Bytes) {
  Fnv1aBulk H;
  H.update(Data, Bytes);
  return H.digest();
}

/// Appending byte-stream writer. By default it collects the stream in
/// memory (bytes(), take()). A streaming writer instead hands the stream
/// to its Sink in order: small fields collect in a fixed staging buffer
/// that goes to the sink whenever it fills, and spans of kDirectBytes or
/// more go to the sink straight from the caller's memory, so a weight
/// blob is never copied. The first failed sink call latches: later
/// writes only count, and flush() reports the failure.
class ByteWriter {
public:
  /// Receives a streaming writer's bytes; returns false when the write
  /// failed.
  using Sink = std::function<bool(const void *Data, size_t Bytes)>;
  static constexpr size_t kStageBytes = 64 << 10;
  static constexpr size_t kDirectBytes = 4 << 10;

  ByteWriter() = default;
  explicit ByteWriter(Sink Out) : Out(std::move(Out)) {
    Buf.reserve(kStageBytes);
  }

  void reserve(size_t Bytes) { Buf.reserve(Bytes); }

  void u8(uint8_t V) { raw(&V, 1); }
  void u16(uint16_t V) { raw(&V, sizeof V); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void i32(int32_t V) { raw(&V, sizeof V); }
  void i64(int64_t V) { raw(&V, sizeof V); }
  void f64(double V) { raw(&V, sizeof V); }

  void str(const std::string &S) {
    u64(S.size());
    raw(S.data(), S.size());
  }

  void i64vec(const std::vector<int64_t> &V) {
    u64(V.size());
    raw(V.data(), V.size() * sizeof(int64_t));
  }

  void f64vec(const std::vector<double> &V) {
    u64(V.size());
    raw(V.data(), V.size() * sizeof(double));
  }

  /// Length-prefixed raw blob, 8-aligned so readers can vend in-place
  /// views with natural scalar alignment.
  void blob(const void *Data, size_t Bytes) {
    u64(Bytes);
    alignTo(8);
    raw(Data, Bytes);
  }

  /// Pads with zero bytes to the next multiple of \p A (a power of two,
  /// at most 8).
  void alignTo(size_t A) {
    static const uint8_t Zeros[8] = {};
    raw(Zeros, (A - Size % A) % A);
  }

  void raw(const void *Data, size_t Bytes) {
    Size += Bytes;
    const auto *P = static_cast<const uint8_t *>(Data);
    if (Out) {
      if (Bytes >= kDirectBytes) {
        flush();
        emit(P, Bytes);
        return;
      }
      if (Buf.size() + Bytes > kStageBytes)
        flush();
    }
    Buf.insert(Buf.end(), P, P + Bytes);
  }

  /// Hands the staged bytes to the sink (nothing to do in memory).
  /// Returns false once any sink call has failed.
  bool flush() {
    if (Out && !Buf.empty()) {
      emit(Buf.data(), Buf.size());
      Buf.clear();
    }
    return !Failed;
  }

  /// Bytes written so far, staged or not.
  size_t size() const { return Size; }
  /// The stream of an in-memory writer.
  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() {
    Size = 0;
    return std::move(Buf);
  }

private:
  void emit(const void *Data, size_t Bytes) {
    if (!Failed && !Out(Data, Bytes))
      Failed = true;
  }

  std::vector<uint8_t> Buf;
  size_t Size = 0;
  Sink Out;
  bool Failed = false;
};

/// Bounds-checked reader over an untrusted byte span. After the first
/// failed read, every later read returns a zero value and ok() stays
/// false; err() carries the offset of the first failure.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Bytes)
      : Base(static_cast<const uint8_t *>(Data)), Len(Bytes) {}

  bool ok() const { return Err.isOk(); }
  const Status &err() const { return Err; }
  size_t offset() const { return Pos; }
  size_t remaining() const { return ok() ? Len - Pos : 0; }
  bool atEnd() const { return Pos == Len; }

  uint8_t u8() { return scalar<uint8_t>("u8"); }
  uint16_t u16() { return scalar<uint16_t>("u16"); }
  uint32_t u32() { return scalar<uint32_t>("u32"); }
  uint64_t u64() { return scalar<uint64_t>("u64"); }
  int32_t i32() { return scalar<int32_t>("i32"); }
  int64_t i64() { return scalar<int64_t>("i64"); }
  double f64() { return scalar<double>("f64"); }

  std::string str() {
    const uint64_t N = u64();
    if (!checkCount(N, 1, "string"))
      return {};
    std::string S(reinterpret_cast<const char *>(Base + Pos),
                  static_cast<size_t>(N));
    Pos += static_cast<size_t>(N);
    return S;
  }

  std::vector<int64_t> i64vec() { return vec<int64_t>("i64vec"); }
  std::vector<double> f64vec() { return vec<double>("f64vec"); }

  /// Matches ByteWriter::blob: returns a pointer INTO the underlying span
  /// (8-aligned relative to its start) — the zero-copy path for mmap'd
  /// constant payloads. The caller owns keeping the span alive.
  const void *blob(size_t &Bytes) {
    const uint64_t N = u64();
    alignTo(8);
    if (!checkCount(N, 1, "blob")) {
      Bytes = 0;
      return nullptr;
    }
    const void *P = Base + Pos;
    Pos += static_cast<size_t>(N);
    Bytes = static_cast<size_t>(N);
    return P;
  }

  void alignTo(size_t A) {
    while (ok() && Pos % A != 0) {
      if (Pos >= Len) {
        fail("alignment padding");
        return;
      }
      ++Pos;
    }
  }

  /// Latches a deserialization failure found by semantic validation (bad
  /// enum value, impossible count) at the current offset.
  void fail(const std::string &What) {
    if (Err.isOk())
      Err = Status::error(
          StatusCode::InvalidArgument,
          formatString("artifact deserialization failed at byte %zu: %s",
                       Pos, What.c_str()));
  }

private:
  template <typename T> T scalar(const char *Name) {
    if (!checkCount(1, sizeof(T), Name))
      return T();
    T V;
    std::memcpy(&V, Base + Pos, sizeof(T));
    Pos += sizeof(T);
    return V;
  }

  template <typename T> std::vector<T> vec(const char *Name) {
    const uint64_t N = u64();
    if (!checkCount(N, sizeof(T), Name) || N == 0)
      return {};
    std::vector<T> V(static_cast<size_t>(N));
    std::memcpy(V.data(), Base + Pos, V.size() * sizeof(T));
    Pos += V.size() * sizeof(T);
    return V;
  }

  /// True when \p N elements of \p Elem bytes fit in the remaining span.
  bool checkCount(uint64_t N, size_t Elem, const char *What) {
    if (!ok())
      return false;
    if (N > (Len - Pos) / Elem) {
      fail(formatString("%s length %llu exceeds remaining %zu bytes", What,
                        (unsigned long long)N, Len - Pos));
      return false;
    }
    return true;
  }

  const uint8_t *Base;
  size_t Len;
  size_t Pos = 0;
  Status Err;
};

} // namespace gc

#endif // GC_SUPPORT_SERIAL_H
