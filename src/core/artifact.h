//===- artifact.h - Compiled-partition (de)serialization --------*- C++ -*-===//
///
/// \file
/// The payload half of the persistent compiled-artifact cache: turning a
/// core::CompiledPartition into a self-contained byte payload and back.
/// runtime::ArtifactCache owns the file envelope (header, checksum, mmap,
/// atomic stores); this codec owns what the payload *means*.
///
/// A serialized artifact carries everything execution needs and nothing
/// the compiler needs: the optimized Graph IR (boundary + constants, for
/// binding resolution), the fold function's output ids, the entry
/// function's buffer table and baked constants
/// (no Tensor IR body — the bytecode replaces it), the bytecode Program
/// with kernel calls recorded symbolically (tir::Intrinsic, relinked to
/// function pointers at load), the execution-time bindings, the
/// body-derived statistics that can no longer be recomputed, and the fold
/// function's outputs — the packed / compensated constant weights — so a
/// disk-warm process skips constant preprocessing on first execution.
///
/// Deserialization treats the payload as untrusted input: every read is
/// bounds-checked (support/serial.h), every enum range-validated, every
/// cross-reference (tensor ids, buffer ids, baked indices, binding
/// targets, buffer byte extents against their backing tensors) verified,
/// and the resulting graph and Program run through the static verifiers
/// unconditionally before the partition is handed out. A corrupt payload
/// yields a located Status — never undefined behavior — and the caller
/// falls back to a fresh compile.
///
/// Constants are not copied out of the payload: graph constant data and
/// baked function constants become TensorData views into the mmap'd span,
/// pinned by the partition (CompiledPartition::MappedPin) for its
/// lifetime. ByteWriter/ByteReader 8-align blobs so those views satisfy
/// natural scalar alignment.
///
//===----------------------------------------------------------------------===//

#ifndef GC_CORE_ARTIFACT_H
#define GC_CORE_ARTIFACT_H

#include "core/compiler.h"
#include "kernels/cpu_features.h"
#include "support/status.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace gc {

class ByteWriter;

namespace core {

/// Version of the payload encoding this binary reads and writes. Bumped on
/// any layout change; also folded into buildHash() so stale entries miss
/// on the cache key before the payload version check ever runs.
///
/// v2 appended the folded-constants section: the fold function's outputs
/// (packed / compensated constant weights) ride in the payload, so a warm
/// load pre-populates the partition's ConstCache with zero-copy views and
/// the first execution skips the fold entirely.
///
/// v3 removed the GeluTile intrinsic (later intrinsic ids shift down),
/// added EpilogueTile with its step list after each call's scalars, and
/// writes only a call's NumBufs buffer references.
///
/// v4 renumbered the intrinsics: the 24 with a row in tir/intrinsics.h's
/// table come first, and the 19 retired ids past them are rejected.
///
/// v5 retired 15 more intrinsics (the 9 live ones are renumbered from 0)
/// and dropped the fold graph: a loaded partition never runs it, and the
/// optimized graph already holds every tensor it names.
///
/// v6 made the bytecode integer-only: a register is one i64, a call
/// carries no f64 scalars and no per-scalar type byte, and the 19 float,
/// conversion, load and store opcodes are retired (the 13 that remain are
/// renumbered from 0).
constexpr uint32_t kArtifactPayloadVersion = 6;

/// Identity hash of this binary's compilation pipeline: payload version,
/// compiler identification and build timestamp. Two processes agree on it
/// only when they run the same build, which fences the native-endian,
/// struct-layout-trusting payload encoding off from foreign producers.
uint64_t buildHash();

/// The artifact cache key: FNV-1a over the canonical graph fingerprint,
/// every CompileOptions field that changes what compilePartition emits,
/// the resolved worker-thread count (lowering specializes loop structure
/// per thread count), the kernel dispatch \p Tier (an avx512 process must
/// never serve its artifact to a scalar one — the tiers pick different
/// blocking and pack layouts), and buildHash().
uint64_t artifactCacheKey(uint64_t GraphFingerprint,
                          const CompileOptions &Opts, int Threads,
                          kernels::KernelTier Tier);

/// Convenience overload keyed on the process's active kernel tier.
uint64_t artifactCacheKey(uint64_t GraphFingerprint,
                          const CompileOptions &Opts, int Threads);

/// Serializer/deserializer for CompiledPartition payloads. Stateless; a
/// struct (befriended by CompiledPartition) rather than free functions so
/// the partition exposes its internals to exactly one named type.
struct ArtifactCodec {
  /// Writes \p P as a self-contained payload (no file envelope) into
  /// \p W. The bytecode program ships; the Tensor IR body is not
  /// serialized. Runs \p P's fold function through ensureFolded() when it
  /// has not run yet, so the partition keeps the folded weights it ships.
  /// A cache-writing compile hands this to runtime::ArtifactCache::store,
  /// which streams it into the entry's file.
  static void encode(CompiledPartition &P, ByteWriter &W);

  /// encode() into memory: the payload as one byte vector.
  static std::vector<uint8_t> serialize(CompiledPartition &P);

  /// Rebuilds a ready-to-execute partition from an untrusted payload
  /// span. \p Pin is whatever owns the span's lifetime (the mmap'd cache
  /// entry, or a test's buffer) and is retained by the partition for its
  /// zero-copy constant views; \p Pool is the execution thread pool to
  /// attach (must not be null). Fails with a located Status on any
  /// malformed, truncated or semantically inconsistent payload, and runs
  /// verify::verifyGraph + verify::verifyLoadedProgram unconditionally
  /// before returning.
  static Expected<std::shared_ptr<CompiledPartition>>
  deserialize(const void *Payload, size_t Bytes, std::shared_ptr<void> Pin,
              std::shared_ptr<runtime::ThreadPool> Pool);
};

} // namespace core
} // namespace gc

#endif // GC_CORE_ARTIFACT_H
