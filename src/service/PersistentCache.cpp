//===- PersistentCache.cpp - On-disk memo cache for check/estimate -*- C++ -*-//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "service/PersistentCache.h"

#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/StableHash.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define DAHLIA_HAVE_FLOCK 1
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

using namespace dahlia;
using namespace dahlia::service;

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'D', 'A', 'H', 'C'};

//===----------------------------------------------------------------------===//
// Little-endian byte stream helpers
//===----------------------------------------------------------------------===//

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (I * 8)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (I * 8)) & 0xff));
}

void putDouble(std::string &Out, double D) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(D));
  std::memcpy(&Bits, &D, sizeof(Bits));
  putU64(Out, Bits);
}

/// Bounds-checked reader over the loaded file image.
struct Reader {
  const unsigned char *P;
  size_t Len;
  size_t Pos = 0;
  bool Bad = false;

  bool need(size_t N) {
    if (Pos + N > Len) {
      Bad = true;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(P[Pos + I]) << (I * 8);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(P[Pos + I]) << (I * 8);
    Pos += 8;
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    return D;
  }
  uint8_t u8() {
    if (!need(1))
      return 0;
    return P[Pos++];
  }
};

/// Serialized size of one estimate record: 7 × u64/double + II + 2 flags.
constexpr size_t kEstimateRecordBytes = 8 * 8 + 2;
constexpr size_t kVerdictRecordBytes = 8 + 1;

void putEstimate(std::string &Out, const hlsim::Estimate &E) {
  putDouble(Out, E.Cycles);
  putDouble(Out, E.RuntimeMs);
  putU64(Out, static_cast<uint64_t>(E.Lut));
  putU64(Out, static_cast<uint64_t>(E.Ff));
  putU64(Out, static_cast<uint64_t>(E.Bram));
  putU64(Out, static_cast<uint64_t>(E.Dsp));
  putU64(Out, static_cast<uint64_t>(E.LutMem));
  putDouble(Out, E.II);
  Out.push_back(E.Incorrect ? 1 : 0);
  Out.push_back(E.Predictable ? 1 : 0);
}

hlsim::Estimate getEstimate(Reader &R) {
  hlsim::Estimate E;
  E.Cycles = R.f64();
  E.RuntimeMs = R.f64();
  E.Lut = static_cast<int64_t>(R.u64());
  E.Ff = static_cast<int64_t>(R.u64());
  E.Bram = static_cast<int64_t>(R.u64());
  E.Dsp = static_cast<int64_t>(R.u64());
  E.LutMem = static_cast<int64_t>(R.u64());
  E.II = R.f64();
  E.Incorrect = R.u8() != 0;
  E.Predictable = R.u8() != 0;
  return E;
}

/// Reads one shard file; std::nullopt when it is missing or undecodable.
std::optional<ShardImage> readShardFile(const std::string &Path,
                                        uint32_t WantVersion) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  return ShardImage::decode(Bytes, WantVersion);
}

/// Advisory cross-process lock on one shard directory, held for the
/// read-union-write of a save. flock-based, so it composes with the
/// in-process stripe mutex (which flock alone would not replace: flock
/// is per open file description, not per thread). No-op on platforms
/// without flock — saves there are last-writer-wins, as before v4.
class ShardFileLock {
public:
  explicit ShardFileLock(const std::string &ShardDir) {
#ifdef DAHLIA_HAVE_FLOCK
    Fd = ::open((fs::path(ShardDir) / "memo.lock").c_str(),
                O_CREAT | O_RDWR, 0644);
    if (Fd >= 0) {
      // How long saves sit waiting on other processes' shard locks.
      static metrics::Histogram &Wait =
          metrics::histogram("cache.flock_wait_ms");
      auto Start = std::chrono::steady_clock::now();
      ::flock(Fd, LOCK_EX);
      Wait.recordMs(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count());
    }
#else
    (void)ShardDir;
#endif
  }
  ~ShardFileLock() {
#ifdef DAHLIA_HAVE_FLOCK
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
#endif
  }

private:
  int Fd = -1;
};

/// Atomically installs one shard file (write temp, then rename).
bool writeShardFile(const std::string &Path, uint32_t Version,
                    const ShardImage &Img) {
  std::string Out = Img.encode(Version);
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OutFile(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutFile)
      return false;
    OutFile.write(Out.data(), static_cast<std::streamsize>(Out.size()));
    if (!OutFile)
      return false;
  }
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return false;
  }
  return true;
}

std::string shardDirName(unsigned Index) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "shard-%02u", Index);
  return Buf;
}

/// Merges two key-sorted, key-unique vectors; \p Over wins collisions.
template <typename T>
std::vector<std::pair<uint64_t, T>>
mergeByKey(const std::vector<std::pair<uint64_t, T>> &Base,
           const std::vector<std::pair<uint64_t, T>> &Over) {
  std::vector<std::pair<uint64_t, T>> Out;
  Out.reserve(Base.size() + Over.size());
  // set_union takes a key present in both ranges from the first range.
  std::set_union(Over.begin(), Over.end(), Base.begin(), Base.end(),
                 std::back_inserter(Out), [](const auto &A, const auto &B) {
                   return A.first < B.first;
                 });
  return Out;
}

template <typename T>
bool keysAscending(const std::vector<std::pair<uint64_t, T>> &V) {
  return std::adjacent_find(V.begin(), V.end(), [](const auto &A,
                                                   const auto &B) {
           return A.first >= B.first;
         }) == V.end();
}

} // namespace

//===----------------------------------------------------------------------===//
// ShardImage codec
//===----------------------------------------------------------------------===//

std::string ShardImage::encode(uint32_t Version) const {
  std::string Out;
  Out.reserve(16 + Verdicts.size() * kVerdictRecordBytes + 8 +
              Estimates.size() * kEstimateRecordBytes + 8);
  Out.append(kMagic, 4);
  putU32(Out, Version);
  putU64(Out, Verdicts.size());
  for (const auto &[Key, Accepted] : Verdicts) {
    putU64(Out, Key);
    Out.push_back(Accepted ? 1 : 0);
  }
  putU64(Out, Estimates.size());
  for (const auto &[Key, Est] : Estimates) {
    putU64(Out, Key);
    putEstimate(Out, Est);
  }
  putU64(Out, stableHash(Out));
  return Out;
}

std::optional<ShardImage> ShardImage::decode(std::string_view Bytes,
                                             uint32_t WantVersion,
                                             std::string *Err) {
  auto Fail = [&](std::string Why) -> std::optional<ShardImage> {
    if (Err)
      *Err = std::move(Why);
    return std::nullopt;
  };
  // Header: magic + version + two counts + trailing checksum over
  // everything before it.
  if (Bytes.size() < 4 + 4 + 8 + 8 + 8)
    return Fail("cache image of " + std::to_string(Bytes.size()) +
                " bytes is shorter than its header");
  if (std::memcmp(Bytes.data(), kMagic, 4) != 0)
    return Fail("cache image has bad magic");

  // The body reader stops at the checksum, so a count field can never
  // read into it.
  size_t BodyLen = Bytes.size() - 8;
  const auto *Data = reinterpret_cast<const unsigned char *>(Bytes.data());
  Reader R{Data, BodyLen};
  R.Pos = 4;
  uint32_t Version = R.u32();
  if (Version != WantVersion)
    return Fail("cache image format version " + std::to_string(Version) +
                ", expected " + std::to_string(WantVersion));

  // Verify the checksum before trusting any count field.
  Reader Tail{Data, Bytes.size()};
  Tail.Pos = BodyLen;
  if (Tail.u64() != stableHash(Bytes.substr(0, BodyLen)))
    return Fail("cache image checksum mismatch");

  ShardImage Img;
  uint64_t NumVerdicts = R.u64();
  if (R.Bad || NumVerdicts > (BodyLen - R.Pos) / kVerdictRecordBytes)
    return Fail("cache image verdict count exceeds its payload");
  Img.Verdicts.reserve(NumVerdicts);
  for (uint64_t I = 0; I != NumVerdicts; ++I) {
    uint64_t Key = R.u64();
    bool Accepted = R.u8() != 0;
    Img.Verdicts.emplace_back(Key, Accepted);
  }

  uint64_t NumEstimates = R.u64();
  if (R.Bad || NumEstimates > (BodyLen - R.Pos) / kEstimateRecordBytes)
    return Fail("cache image estimate count exceeds its payload");
  Img.Estimates.reserve(NumEstimates);
  for (uint64_t I = 0; I != NumEstimates; ++I) {
    uint64_t Key = R.u64();
    Img.Estimates.emplace_back(Key, getEstimate(R));
  }
  if (R.Bad || R.Pos != BodyLen)
    return Fail("cache image length does not match its counts");
  if (!keysAscending(Img.Verdicts) || !keysAscending(Img.Estimates))
    return Fail("cache image keys are not in ascending order");
  return Img;
}

ShardImage dahlia::service::mergeImages(const ShardImage &Base,
                                        const ShardImage &Over) {
  return ShardImage{mergeByKey(Base.Verdicts, Over.Verdicts),
                    mergeByKey(Base.Estimates, Over.Estimates)};
}

PersistentCache::PersistentCache(std::string D, PersistentCacheOptions O)
    : Dir(std::move(D)), Opts(O) {
  if (Opts.Version == 0)
    Opts.Version = kPersistentCacheFormatVersion;
  Opts.Shards = std::clamp(Opts.Shards, 1u, 64u);
  ShardLocks = std::make_unique<std::mutex[]>(Opts.Shards);
}

std::string PersistentCache::shardPath(unsigned Index) const {
  return (fs::path(Dir) / shardDirName(Index) / "memo.bin").string();
}

std::string PersistentCache::shardPathFor(uint64_t Key) const {
  return shardPath(shardOf(Key));
}

bool PersistentCache::load(dse::DseCache &Into,
                           PersistentCacheLoadStats *Stats) const {
  TRACE_SPAN("cache.load");
  // Read every shard file present, not just indices below this handle's
  // shard count: entry keys are self-describing, so a directory written
  // with a different stripe count still loads completely.
  std::vector<std::string> Paths;
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    if (!It->is_directory(EC))
      continue;
    std::string Name = It->path().filename().string();
    if (Name.rfind("shard-", 0) == 0)
      Paths.push_back((It->path() / "memo.bin").string());
  }
  std::sort(Paths.begin(), Paths.end()); // Deterministic load order.

  PersistentCacheLoadStats Local;
  for (const std::string &Path : Paths) {
    std::optional<ShardImage> Img = readShardFile(Path, Opts.Version);
    if (!Img)
      continue; // Corrupt/mismatched shard: the others still serve.
    ++Local.ShardsLoaded;
    Local.Verdicts += Img->Verdicts.size();
    Local.Estimates += Img->Estimates.size();
    for (const auto &[Key, Accepted] : Img->Verdicts)
      Into.insertVerdict(Key, Accepted);
    for (const auto &[Key, Est] : Img->Estimates)
      Into.insertEstimate(Key, Est);
  }
  if (Stats)
    *Stats = Local;
  static metrics::Counter &Loads = metrics::counter("cache.shard_loads");
  static metrics::Counter &LoadedEntries =
      metrics::counter("cache.entries_loaded");
  Loads.inc(Local.ShardsLoaded);
  LoadedEntries.inc(Local.Verdicts + Local.Estimates);
  return Local.ShardsLoaded != 0;
}

bool PersistentCache::save(const dse::DseCache &From) const {
  TRACE_SPAN("cache.save");
  std::error_code EC;
  fs::create_directories(Dir, EC); // Existing directory is not an error.

  // A pre-v4 root memo.bin (or one left by an older run) is dead weight
  // now; drop it so the directory holds exactly the sharded layout.
  fs::remove(fs::path(Dir) / "memo.bin", EC);
  fs::remove(fs::path(Dir) / "memo.bin.tmp", EC);

  // Splits an image by shard. The split is order-preserving, so each
  // part stays key-sorted.
  auto Partition = [&](const ShardImage &Img) {
    std::vector<ShardImage> Parts(Opts.Shards);
    for (const auto &KV : Img.Verdicts)
      Parts[shardOf(KV.first)].Verdicts.push_back(KV);
    for (const auto &KE : Img.Estimates)
      Parts[shardOf(KE.first)].Estimates.push_back(KE);
    return Parts;
  };
  std::vector<ShardImage> Fresh = Partition(
      ShardImage{From.snapshotVerdicts(), From.snapshotEstimates()});

  // Stale stripes left by a run with a larger shard count hold live
  // entries; fold them into this save's union (under the current
  // partition, and under the snapshot, which wins collisions) before they
  // are removed below — deleting without merging would erase another
  // writer's published work.
  std::vector<fs::path> StaleDirs;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    if (!It->is_directory(EC))
      continue;
    std::string Name = It->path().filename().string();
    if (Name.rfind("shard-", 0) != 0)
      continue;
    unsigned Index = static_cast<unsigned>(
        std::strtoul(Name.c_str() + 6, nullptr, 10));
    if (Index < Opts.Shards)
      continue;
    StaleDirs.push_back(It->path());
    if (std::optional<ShardImage> Stale = readShardFile(
            (It->path() / "memo.bin").string(), Opts.Version)) {
      std::vector<ShardImage> Parts = Partition(*Stale);
      for (unsigned S = 0; S != Opts.Shards; ++S)
        Fresh[S] = mergeImages(Parts[S], Fresh[S]);
    }
  }

  // Per-shard entry budget (ceil): the global cap, apportioned.
  size_t ShardBudget =
      (Opts.MaxEntries + Opts.Shards - 1) / Opts.Shards;

  bool AllOk = true;
  static metrics::Counter &Saves = metrics::counter("cache.shard_saves");
  for (unsigned S = 0; S != Opts.Shards; ++S) {
    TRACE_SPAN("cache.shard_save");
    Saves.inc();
    std::lock_guard<std::mutex> Lock(ShardLocks[S]);
    std::string Path = shardPath(S);
    fs::create_directories(fs::path(Path).parent_path(), EC);
    // Cross-process exclusion for the read-union-write below: without
    // it, two processes saving the same shard concurrently would each
    // merge over the same stale base and the loser's entries vanish.
    ShardFileLock FileLock(fs::path(Path).parent_path().string());

    // Union-on-save: fold the shard's current on-disk entries under the
    // fresh snapshot (the snapshot wins on collisions) so concurrent
    // writers extend rather than clobber each other. An invalid shard
    // file loads as empty.
    ShardImage Merged = mergeImages(
        readShardFile(Path, Opts.Version).value_or(ShardImage()), Fresh[S]);

    // Eviction cap: verdicts (one byte of payload each, and each one
    // stands for a full type-check) win over estimates; within a class
    // the highest-keyed entries go first. The union is key-sorted, so
    // truncation is deterministic.
    if (Merged.Verdicts.size() > ShardBudget)
      Merged.Verdicts.resize(ShardBudget);
    size_t EstBudget = ShardBudget - Merged.Verdicts.size();
    if (Merged.Estimates.size() > EstBudget)
      Merged.Estimates.resize(EstBudget);

    if (!writeShardFile(Path, Opts.Version, Merged))
      AllOk = false;
  }

  // The stale stripes' contents now live in the current partition (or
  // were invalid); remove the directories so they cannot resurrect
  // evicted entries later. Skipped if any write failed — better a
  // duplicate entry than a lost one.
  if (AllOk)
    for (const fs::path &P : StaleDirs) {
      std::error_code RmEC;
      fs::remove_all(P, RmEC);
    }
  return AllOk;
}
