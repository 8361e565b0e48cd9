//===- artifact_cache.h - Persistent compiled-artifact store ----*- C++ -*-===//
///
/// \file
/// The on-disk half of the persistent compiled-artifact cache: a directory
/// of versioned, checksummed artifact files keyed by 64-bit cache keys
/// (core::artifactCacheKey — graph fingerprint + pipeline options + thread
/// count + kernel tier + build hash). This layer knows nothing about what
/// an artifact *contains*; it owns the file format envelope, mmap loading,
/// crash-safe atomic stores, cross-process per-key locking, and the LRU
/// byte-cap garbage collection. core::ArtifactCodec owns the payload.
///
/// On-disk layout (one directory, flat):
///   <key:016x>.gca        one artifact: 40-byte header + payload
///   <key:016x>.lock       flock target serializing compile-and-store
///   *.gca.tmp.<pid>       in-flight writes (renamed into place; stale
///                         ones from crashed writers are swept by GC)
///
/// Header (40 bytes, native-endian like the payload):
///   u32 magic 'GCAC' | u32 format version | u64 cache key
///   u64 payload bytes | u64 FNV-1a payload checksum | u64 reserved(0)
///
/// A load mmaps the file, re-validates every header field INCLUDING the
/// full payload checksum, and hands the payload span to the codec — a
/// truncated, bit-flipped, version-skewed or zero-length entry is rejected
/// here with a located Status and the caller falls back to a fresh
/// compile. Stores stream the payload into a temp file, fsync, and
/// atomically rename, so concurrent readers only ever observe complete
/// entries and a crashed writer leaves no partial artifact under the
/// final name.
///
/// Environment (resolved by defaultCacheMode, defaultCacheDir and
/// defaultCacheMaxBytes, used by core::CompileOptions):
///   GC_CACHE=off|read|rw      mode (default off)
///   GC_CACHE_DIR=<path>       cache directory (default
///                             $XDG_CACHE_HOME/gc-artifacts or
///                             $HOME/.cache/gc-artifacts, else off)
///   GC_CACHE_MAX_BYTES=<n>    LRU byte cap (default 256 MiB; <= 0 means
///                             unlimited)
///
//===----------------------------------------------------------------------===//

#ifndef GC_RUNTIME_ARTIFACT_CACHE_H
#define GC_RUNTIME_ARTIFACT_CACHE_H

#include "runtime/mapped_file.h"
#include "support/status.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gc {

class ByteWriter;

namespace runtime {

/// What the process is allowed to do with the on-disk cache.
enum class CacheMode : uint8_t {
  Off,       ///< never touch the disk
  Read,      ///< load existing entries, never write
  ReadWrite, ///< load, and store freshly compiled artifacts
};

/// Resolves GC_CACHE ("off" | "read" | "rw", default off; unknown values
/// warn under GC_VERBOSE and fall back to off).
CacheMode defaultCacheMode();
/// Resolves GC_CACHE_DIR (possibly empty; see header comment for the
/// fallback chain).
std::string defaultCacheDir();
/// Resolves GC_CACHE_MAX_BYTES (default 256 MiB; <= 0 means unlimited).
int64_t defaultCacheMaxBytes();

/// A successfully loaded and envelope-validated artifact: the payload span
/// plus the mapping that owns it. Deserialized partitions keep the Map
/// pin alive for as long as they vend zero-copy views into it.
struct LoadedArtifact {
  std::shared_ptr<MappedFile> Map;
  const void *Payload = nullptr;
  size_t PayloadBytes = 0;
};

/// One artifact cache directory. Thread-safe (stateless between calls
/// except the directory itself); cross-process safe (atomic rename +
/// per-key flock).
class ArtifactCache {
public:
  struct Config {
    CacheMode Mode = CacheMode::Off;
    std::string Dir;
    int64_t MaxBytes = 256ll << 20;
  };

  /// Creates the cache over \p Cfg, creating the directory (parents
  /// included) when writable mode asks for it. A config with mode Off or
  /// an empty directory yields a disabled cache (enabled() == false) —
  /// callers can construct unconditionally and test once.
  explicit ArtifactCache(Config Cfg);

  bool enabled() const { return Enabled; }
  bool writable() const {
    return Enabled && Cfg.Mode == CacheMode::ReadWrite;
  }
  const std::string &dir() const { return Cfg.Dir; }

  /// Loads and envelope-validates entry \p Key: header magic/version/key
  /// agreement, payload length against the file size, and the full FNV-1a
  /// payload checksum. A missing entry and a corrupt entry are both
  /// errors (distinguishable by message); neither crashes. On success the
  /// entry's mtime is bumped so LRU eviction sees the use.
  Expected<LoadedArtifact> load(uint64_t Key) const;

  /// Writes one artifact payload into the writer it is given.
  using PayloadWriter = std::function<void(ByteWriter &)>;

  /// Stores the payload \p Write produces under \p Key crash-safely. A
  /// temp file in the same directory gets a placeholder header; the
  /// payload then streams into it through a ByteWriter sink, checksummed
  /// as it goes (Fnv1aBulk), so it is never held in memory whole. The
  /// final header is written over the placeholder, then fsync and atomic
  /// rename. Then runs the byte-cap GC. Fails on I/O errors, an empty
  /// payload, or when not writable, without corrupting anything and
  /// without leaving the temp file behind. The "cache.write" fault seam
  /// fires on entry and before each sink write.
  Status store(uint64_t Key, const PayloadWriter &Write) const;

  /// Stores an in-memory \p Payload through the streamed store.
  Status store(uint64_t Key, const void *Payload, size_t Bytes) const;

  /// Acquires the cross-process compile lock for \p Key, waiting at most
  /// GC_CACHE_LOCK_MS milliseconds (default 2000; <= 0 means a single
  /// non-blocking attempt) before failing with Unavailable. A stuck or
  /// slow holder therefore delays a compile by a bounded amount; callers
  /// treat lock failure as "compile in-process without the cache", never
  /// as a compile failure. Pattern: miss -> lockEntry -> re-load (another
  /// process may have stored while we waited) -> compile -> store ->
  /// release.
  Expected<std::shared_ptr<FileLock>> lockEntry(uint64_t Key) const;

  /// True when entry \p Key exists (no validation).
  bool contains(uint64_t Key) const;
  /// Removes entry \p Key if present (never fails; used by tests).
  void evict(uint64_t Key) const;

  /// Total bytes of *.gca entries currently in the directory.
  int64_t totalBytes() const;

  /// Enforces Config::MaxBytes: deletes oldest-mtime entries until the
  /// directory fits, and sweeps stale temp files from crashed writers.
  /// Safe to run concurrently with loads in other processes (their
  /// mappings survive the unlink). Called by store(); exposed for tests.
  void collectGarbage() const;

  /// Path of entry \p Key ("<dir>/<key:016x>.gca"); exposed so tests can
  /// corrupt entries byte-precisely.
  std::string entryPath(uint64_t Key) const;

  /// Path of the compile lock for \p Key ("<dir>/<key:016x>.lock");
  /// exposed so tests can hold the lock and exercise the bounded-wait
  /// fallback.
  std::string lockPath(uint64_t Key) const;

private:
  Config Cfg;
  bool Enabled = false;
};

} // namespace runtime
} // namespace gc

#endif // GC_RUNTIME_ARTIFACT_CACHE_H
