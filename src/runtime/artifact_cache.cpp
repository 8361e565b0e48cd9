//===- artifact_cache.cpp - Persistent compiled-artifact store ---------------===//

#include "runtime/artifact_cache.h"

#include "support/env.h"
#include "support/fault.h"
#include "support/serial.h"
#include "support/str.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace gc {
namespace runtime {

namespace {

/// Envelope of one artifact file. All fields native-endian; the payload
/// follows immediately (the header is 8-aligned and 40 bytes, so payload
/// offsets inherit 8-alignment for zero-copy constant views).
struct ArtifactHeader {
  uint32_t Magic = kMagic;
  uint32_t Version = kFormatVersion;
  uint64_t Key = 0;
  uint64_t PayloadBytes = 0;
  uint64_t Checksum = 0;
  uint64_t Reserved = 0;

  static constexpr uint32_t kMagic = 0x43414347u; // "GCAC" little-endian
  /// v2: Checksum switched from fnv1aBytes to the 4-lane fnv1aBytesBulk
  /// digest (the envelope hashes every payload byte on each load, and the
  /// serial chain was the warm-start bottleneck for weight-heavy
  /// artifacts).
  static constexpr uint32_t kFormatVersion = 2;
};
static_assert(sizeof(ArtifactHeader) == 40, "artifact header layout");
static_assert(sizeof(ArtifactHeader) % 8 == 0,
              "payload must start 8-aligned for zero-copy constant views");

Status ioError(const char *What, const std::string &Path, int Err = errno) {
  return Status::error(StatusCode::Internal,
                       formatString("artifact cache: %s '%s': %s", What,
                                    Path.c_str(), std::strerror(Err)));
}

/// write(2) until all \p Bytes are out, retrying on EINTR.
bool writeAll(int Fd, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const uint8_t *>(Data);
  while (Bytes > 0) {
    const ssize_t W = ::write(Fd, P, Bytes);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += W;
    Bytes -= static_cast<size_t>(W);
  }
  return true;
}

Status corruptError(const std::string &Path, const std::string &Why) {
  return Status::error(
      StatusCode::InvalidArgument,
      formatString("artifact cache: rejecting '%s': %s", Path.c_str(),
                   Why.c_str()));
}

/// mkdir -p. Empty path components are skipped; EEXIST is success.
bool makeDirs(const std::string &Path) {
  std::string Cur;
  for (size_t I = 0; I <= Path.size(); ++I) {
    if (I < Path.size() && Path[I] != '/') {
      Cur.push_back(Path[I]);
      continue;
    }
    if (I < Path.size())
      Cur.push_back('/');
    if (Cur.empty() || Cur == "/")
      continue;
    if (::mkdir(Cur.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
  }
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

bool endsWith(const std::string &S, const char *Suffix) {
  const size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

} // namespace

CacheMode defaultCacheMode() {
  const std::string Mode = getEnvString("GC_CACHE", "off");
  if (Mode == "off")
    return CacheMode::Off;
  if (Mode == "read")
    return CacheMode::Read;
  if (Mode == "rw")
    return CacheMode::ReadWrite;
  if (verboseAtLeast(1))
    std::fprintf(stderr,
                 "gc: GC_CACHE='%s' is not off|read|rw; cache disabled\n",
                 Mode.c_str());
  return CacheMode::Off;
}

std::string defaultCacheDir() {
  std::string Dir = getEnvString("GC_CACHE_DIR", "");
  if (!Dir.empty())
    return Dir;
  const std::string Xdg = getEnvString("XDG_CACHE_HOME", "");
  if (!Xdg.empty())
    return Xdg + "/gc-artifacts";
  const std::string Home = getEnvString("HOME", "");
  if (!Home.empty())
    return Home + "/.cache/gc-artifacts";
  return "";
}

int64_t defaultCacheMaxBytes() {
  return getEnvInt("GC_CACHE_MAX_BYTES", 256ll << 20);
}

ArtifactCache::ArtifactCache(Config Cfg) : Cfg(std::move(Cfg)) {
  if (this->Cfg.Mode == CacheMode::Off || this->Cfg.Dir.empty())
    return;
  // Read-only mode over a missing directory simply stays disabled: every
  // load would miss anyway, and creating directories a read-only user
  // never writes to would be surprising.
  if (this->Cfg.Mode == CacheMode::Read) {
    struct stat St;
    Enabled = ::stat(this->Cfg.Dir.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
    return;
  }
  Enabled = makeDirs(this->Cfg.Dir);
  if (!Enabled && verboseAtLeast(1))
    std::fprintf(stderr,
                 "gc: cannot create GC_CACHE_DIR '%s'; cache disabled\n",
                 this->Cfg.Dir.c_str());
}

std::string ArtifactCache::entryPath(uint64_t Key) const {
  return formatString("%s/%016llx.gca", Cfg.Dir.c_str(),
                      (unsigned long long)Key);
}

std::string ArtifactCache::lockPath(uint64_t Key) const {
  return formatString("%s/%016llx.lock", Cfg.Dir.c_str(),
                      (unsigned long long)Key);
}

Expected<LoadedArtifact> ArtifactCache::load(uint64_t Key) const {
  if (!Enabled)
    return Status::error(StatusCode::Unsupported, "artifact cache disabled");
  if (fault::shouldFail(fault::kCacheOpen))
    return fault::failStatus(fault::kCacheOpen, StatusCode::Unavailable,
                             "artifact-cache entry open");
  const std::string Path = entryPath(Key);
  Expected<std::shared_ptr<MappedFile>> MapOr = MappedFile::open(Path);
  if (!MapOr)
    return MapOr.status();
  if (fault::shouldFail(fault::kCacheMmap))
    return fault::failStatus(fault::kCacheMmap, StatusCode::Unavailable,
                             "artifact-cache entry mmap");
  const std::shared_ptr<MappedFile> &Map = *MapOr;
  if (Map->size() < sizeof(ArtifactHeader))
    return corruptError(
        Path, formatString("%zu bytes is smaller than the %zu-byte header",
                           Map->size(), sizeof(ArtifactHeader)));
  ArtifactHeader H;
  std::memcpy(&H, Map->data(), sizeof H);
  if (H.Magic != ArtifactHeader::kMagic)
    return corruptError(Path, formatString("bad magic 0x%08x", H.Magic));
  if (H.Version != ArtifactHeader::kFormatVersion)
    return corruptError(
        Path, formatString("format version %u, this build expects %u",
                           H.Version, ArtifactHeader::kFormatVersion));
  if (H.Key != Key)
    return corruptError(
        Path, formatString("entry key %016llx does not match file name",
                           (unsigned long long)H.Key));
  if (H.PayloadBytes != Map->size() - sizeof(ArtifactHeader))
    return corruptError(
        Path,
        formatString("payload length %llu disagrees with file size %zu",
                     (unsigned long long)H.PayloadBytes, Map->size()));
  if (H.PayloadBytes == 0)
    return corruptError(Path, "zero-length payload");
  if (H.Reserved != 0)
    return corruptError(
        Path, formatString("reserved header field is %016llx, expected 0",
                           (unsigned long long)H.Reserved));
  const void *Payload =
      static_cast<const uint8_t *>(Map->data()) + sizeof(ArtifactHeader);
  const uint64_t Sum =
      fnv1aBytesBulk(Payload, static_cast<size_t>(H.PayloadBytes));
  if (Sum != H.Checksum)
    return corruptError(
        Path, formatString("payload checksum %016llx != header %016llx",
                           (unsigned long long)Sum,
                           (unsigned long long)H.Checksum));
  // Mark the use for LRU eviction. Best-effort: a read-only directory
  // still serves hits.
  ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);
  LoadedArtifact A;
  A.Map = Map;
  A.Payload = Payload;
  A.PayloadBytes = static_cast<size_t>(H.PayloadBytes);
  return A;
}

Status ArtifactCache::store(uint64_t Key, const PayloadWriter &Write) const {
  if (!writable())
    return Status::error(StatusCode::Unsupported,
                         "artifact cache is not writable");
  if (fault::shouldFail(fault::kCacheWrite))
    return fault::failStatus(fault::kCacheWrite, StatusCode::Unavailable,
                             "artifact-cache store");
  const std::string Final = entryPath(Key);
  const std::string Tmp =
      formatString("%s.tmp.%ld", Final.c_str(), (long)::getpid());
  const int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (Fd < 0)
    return ioError("create temp", Tmp);
  const auto Abandon = [&](Status S) {
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return S;
  };
  // The placeholder reserves the header's bytes; the real one, which
  // needs the payload's length and checksum, overwrites it at the end.
  ArtifactHeader H;
  H.Key = Key;
  if (!writeAll(Fd, &H, sizeof H))
    return Abandon(ioError("write", Tmp));
  Fnv1aBulk Sum;
  int WriteErrno = 0;
  bool Injected = false;
  ByteWriter W([&](const void *Data, size_t Bytes) {
    if (fault::shouldFail(fault::kCacheWrite)) {
      Injected = true;
      return false;
    }
    Sum.update(Data, Bytes);
    if (writeAll(Fd, Data, Bytes))
      return true;
    WriteErrno = errno;
    return false;
  });
  Write(W);
  if (!W.flush())
    return Abandon(Injected ? fault::failStatus(fault::kCacheWrite,
                                                StatusCode::Unavailable,
                                                "artifact-cache store write")
                            : ioError("write", Tmp, WriteErrno));
  if (W.size() == 0)
    return Abandon(Status::error(
        StatusCode::InvalidArgument,
        "artifact cache: refusing to store empty payload"));
  H.PayloadBytes = W.size();
  H.Checksum = Sum.digest();
  if (::pwrite(Fd, &H, sizeof H, 0) != static_cast<ssize_t>(sizeof H) ||
      ::fsync(Fd) != 0)
    return Abandon(ioError("write", Tmp));
  ::close(Fd);
  // Atomic publish: a rename over an existing entry replaces it in one
  // step; concurrent readers see either the old complete file (their
  // mapping stays valid) or the new complete file, never a mix.
  if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
    const Status S = ioError("rename", Final);
    ::unlink(Tmp.c_str());
    return S;
  }
  collectGarbage();
  return Status::ok();
}

Status ArtifactCache::store(uint64_t Key, const void *Payload,
                            size_t Bytes) const {
  return store(Key, [&](ByteWriter &W) { W.raw(Payload, Bytes); });
}

Expected<std::shared_ptr<FileLock>>
ArtifactCache::lockEntry(uint64_t Key) const {
  if (!Enabled)
    return Status::error(StatusCode::Unsupported, "artifact cache disabled");
  if (fault::shouldFail(fault::kCacheLock))
    return fault::failStatus(fault::kCacheLock, StatusCode::Unavailable,
                             "artifact-cache compile lock");
  // Re-read per call (not cached) so tests can vary the bound; lockEntry
  // runs once per cold compile, where a getenv is noise.
  const int64_t TimeoutMs =
      std::max<int64_t>(0, getEnvInt("GC_CACHE_LOCK_MS", 2000));
  return FileLock::acquireTimed(lockPath(Key), TimeoutMs);
}

bool ArtifactCache::contains(uint64_t Key) const {
  if (!Enabled)
    return false;
  struct stat St;
  return ::stat(entryPath(Key).c_str(), &St) == 0;
}

void ArtifactCache::evict(uint64_t Key) const {
  if (Enabled)
    ::unlink(entryPath(Key).c_str());
}

int64_t ArtifactCache::totalBytes() const {
  if (!Enabled)
    return 0;
  int64_t Total = 0;
  DIR *D = ::opendir(Cfg.Dir.c_str());
  if (!D)
    return 0;
  while (const dirent *E = ::readdir(D)) {
    const std::string Name = E->d_name;
    if (!endsWith(Name, ".gca"))
      continue;
    struct stat St;
    if (::stat((Cfg.Dir + "/" + Name).c_str(), &St) == 0)
      Total += static_cast<int64_t>(St.st_size);
  }
  ::closedir(D);
  return Total;
}

void ArtifactCache::collectGarbage() const {
  if (!Enabled)
    return;
  struct Entry {
    std::string Path;
    int64_t Bytes = 0;
    struct timespec MTime = {0, 0};
  };
  std::vector<Entry> Entries;
  int64_t Total = 0;
  const std::time_t Now = std::time(nullptr);
  DIR *D = ::opendir(Cfg.Dir.c_str());
  if (!D)
    return;
  while (const dirent *E = ::readdir(D)) {
    const std::string Name = E->d_name;
    const std::string Path = Cfg.Dir + "/" + Name;
    // Stale-entry sweep: temp files a crashed writer left behind. Ten
    // minutes is far beyond any in-flight store (they are ms-scale).
    if (Name.find(".gca.tmp.") != std::string::npos) {
      struct stat St;
      if (::stat(Path.c_str(), &St) == 0 && Now - St.st_mtime > 600)
        ::unlink(Path.c_str());
      continue;
    }
    if (!endsWith(Name, ".gca"))
      continue;
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0)
      continue;
    Entry En;
    En.Path = Path;
    En.Bytes = static_cast<int64_t>(St.st_size);
#ifdef __APPLE__
    En.MTime = St.st_mtimespec;
#else
    En.MTime = St.st_mtim;
#endif
    Total += En.Bytes;
    Entries.push_back(std::move(En));
  }
  ::closedir(D);
  if (Cfg.MaxBytes <= 0 || Total <= Cfg.MaxBytes)
    return;
  // Oldest mtime first (loads bump mtime, so this is LRU). Unlinking an
  // entry another process has mapped is safe; its mapping survives.
  std::sort(Entries.begin(), Entries.end(), [](const Entry &A, const Entry &B) {
    if (A.MTime.tv_sec != B.MTime.tv_sec)
      return A.MTime.tv_sec < B.MTime.tv_sec;
    return A.MTime.tv_nsec < B.MTime.tv_nsec;
  });
  for (const Entry &En : Entries) {
    if (Total <= Cfg.MaxBytes)
      break;
    if (::unlink(En.Path.c_str()) == 0)
      Total -= En.Bytes;
  }
}

} // namespace runtime
} // namespace gc
