//===- PersistentCacheTest.cpp - On-disk memo cache tests -------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The robustness contract of service::PersistentCache (format v4,
// sharded): round-trips are lossless, saves union with what concurrent
// writers already published, a version mismatch or truncated/corrupt
// shard loads as empty without taking the healthy shards down, legacy
// single-file caches rebuild cleanly, concurrent readers and in-process
// concurrent savers are safe, and the entry cap evicts deterministically.
//
//===----------------------------------------------------------------------===//

#include "service/PersistentCache.h"
#include "support/StableHash.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

using namespace dahlia;
using namespace dahlia::dse;
using namespace dahlia::service;

namespace fs = std::filesystem;

namespace {

class PersistentCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = (fs::temp_directory_path() /
           ("dahlia-pcache-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()))
              .string();
    fs::remove_all(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }

  /// Options pinning one shard: the exact single-file semantics (used by
  /// the truncation/corruption/eviction tests that poke file internals).
  static PersistentCacheOptions oneShard() {
    PersistentCacheOptions O;
    O.Shards = 1;
    return O;
  }

  /// Every existing shard file under \p Dir.
  static std::vector<std::string> shardFiles(const std::string &Dir) {
    std::vector<std::string> Files;
    std::error_code EC;
    for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
         It.increment(EC)) {
      fs::path Memo = It->path() / "memo.bin";
      if (It->is_directory() && fs::exists(Memo))
        Files.push_back(Memo.string());
    }
    return Files;
  }

  /// True when any *.tmp litter exists anywhere under \p Dir.
  static bool anyTmpFiles(const std::string &Dir) {
    std::error_code EC;
    for (fs::recursive_directory_iterator It(Dir, EC), End; !EC && It != End;
         It.increment(EC))
      if (It->path().extension() == ".tmp")
        return true;
    return false;
  }

  std::string Dir;
};

hlsim::Estimate estimateFor(uint64_t I) {
  hlsim::Estimate E;
  E.Cycles = static_cast<double>(I) * 3 + 1;
  E.RuntimeMs = static_cast<double>(I) * 0.5;
  E.Lut = static_cast<int64_t>(I * 7);
  E.Ff = static_cast<int64_t>(I * 11);
  E.Bram = static_cast<int64_t>(I % 5);
  E.Dsp = static_cast<int64_t>(I % 3);
  E.LutMem = static_cast<int64_t>(I % 17);
  E.II = 1.0 + static_cast<double>(I % 4);
  E.Incorrect = I % 7 == 0;
  E.Predictable = I % 2 == 0;
  return E;
}

/// Fills \p C with \p NumVerdicts verdicts and \p NumEstimates estimates.
/// (DseCache is neither copyable nor movable — mutexes and atomics.)
void fillCache(DseCache &C, size_t NumVerdicts, size_t NumEstimates,
               uint64_t KeyBase = 0) {
  for (size_t I = 0; I != NumVerdicts; ++I)
    C.insertVerdict(KeyBase + 1000 + I, I % 3 == 0);
  for (size_t I = 0; I != NumEstimates; ++I)
    C.insertEstimate(KeyBase + 9000 + I, estimateFor(I));
}

/// Builds a filled cache and saves it through \p P.
bool saveCache(const PersistentCache &P, size_t NumVerdicts,
               size_t NumEstimates, uint64_t KeyBase = 0) {
  DseCache C;
  fillCache(C, NumVerdicts, NumEstimates, KeyBase);
  return P.save(C);
}

bool equalEstimates(const hlsim::Estimate &A, const hlsim::Estimate &B) {
  return A.Cycles == B.Cycles && A.RuntimeMs == B.RuntimeMs &&
         A.Lut == B.Lut && A.Ff == B.Ff && A.Bram == B.Bram &&
         A.Dsp == B.Dsp && A.LutMem == B.LutMem && A.II == B.II &&
         A.Incorrect == B.Incorrect && A.Predictable == B.Predictable;
}

bool equalImages(const ShardImage &A, const ShardImage &B) {
  if (A.Verdicts != B.Verdicts || A.Estimates.size() != B.Estimates.size())
    return false;
  for (size_t I = 0; I != A.Estimates.size(); ++I)
    if (A.Estimates[I].first != B.Estimates[I].first ||
        !equalEstimates(A.Estimates[I].second, B.Estimates[I].second))
      return false;
  return true;
}

TEST_F(PersistentCacheTest, DiskFormatIsPinned) {
  // The shard file bytes of a fixed entry set, hashed. The literal was
  // generated before the codec was shared with the wire, so a change to
  // the encoder that alters the on-disk bytes (and would orphan existing
  // caches without a version bump) fails here.
  DseCache C;
  fillCache(C, 40, 25);
  C.insertVerdict(0xfedcba9876543210ull, true);
  C.insertEstimate(0x8000000000000001ull, estimateFor(12345));
  PersistentCache P(Dir, oneShard());
  ASSERT_TRUE(P.save(C));
  std::ifstream In(P.shardPath(0), std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(Bytes.size(), 2325u);
  EXPECT_EQ(stableHash(Bytes), 0x923dfc1b7f904df8ull);

  // The file is exactly the encoding of the snapshot, and the codec
  // round-trips it.
  ShardImage Snap{C.snapshotVerdicts(), C.snapshotEstimates()};
  EXPECT_EQ(Snap.encode(), Bytes);
  std::optional<ShardImage> Decoded = ShardImage::decode(Bytes);
  ASSERT_TRUE(Decoded);
  EXPECT_TRUE(equalImages(*Decoded, Snap));
  EXPECT_EQ(Decoded->encode(), Bytes);
  std::optional<ShardImage> Empty = ShardImage::decode(ShardImage().encode());
  ASSERT_TRUE(Empty);
  EXPECT_TRUE(Empty->Verdicts.empty() && Empty->Estimates.empty());
}

TEST_F(PersistentCacheTest, DecodeRejectsMalformedImages) {
  ShardImage Img;
  Img.Verdicts = {{1, true}, {5, false}};
  Img.Estimates = {{3, estimateFor(3)}};
  const std::string Good = Img.encode();
  std::string Err;
  ASSERT_TRUE(ShardImage::decode(Good, kPersistentCacheFormatVersion, &Err))
      << Err;

  std::string BadMagic = Good;
  BadMagic[0] = 'X';
  std::string BadSum = Good;
  BadSum.back() ^= 0x01;
  ShardImage Unsorted;
  Unsorted.Verdicts = {{5, true}, {1, false}};
  for (const std::string &Bytes :
       {Good.substr(0, 20), BadMagic, BadSum, Good + "x",
        Img.encode(kPersistentCacheFormatVersion + 1), Unsorted.encode()}) {
    Err.clear();
    EXPECT_FALSE(ShardImage::decode(Bytes, kPersistentCacheFormatVersion,
                                    &Err));
    EXPECT_FALSE(Err.empty());
  }
}

TEST_F(PersistentCacheTest, MergeIsSortedUniqueAndOverrideWins) {
  ShardImage Base, Over;
  Base.Verdicts = {{1, true}, {4, true}, {9, false}};
  Over.Verdicts = {{2, false}, {4, false}, {10, true}};
  Base.Estimates = {{3, estimateFor(3)}, {7, estimateFor(7)}};
  Over.Estimates = {{7, estimateFor(70)}, {8, estimateFor(8)}};

  ShardImage M = mergeImages(Base, Over);
  const std::vector<std::pair<uint64_t, bool>> WantV = {
      {1, true}, {2, false}, {4, false}, {9, false}, {10, true}};
  EXPECT_EQ(M.Verdicts, WantV);
  ASSERT_EQ(M.Estimates.size(), 3u);
  EXPECT_EQ(M.Estimates[0].first, 3u);
  EXPECT_EQ(M.Estimates[1].first, 7u);
  EXPECT_TRUE(equalEstimates(M.Estimates[1].second, estimateFor(70)));
  EXPECT_EQ(M.Estimates[2].first, 8u);

  // Either side empty is the identity, and merging is idempotent.
  EXPECT_TRUE(equalImages(mergeImages(ShardImage(), Over), Over));
  EXPECT_TRUE(equalImages(mergeImages(Base, ShardImage()), Base));
  EXPECT_TRUE(equalImages(mergeImages(M, M), M));
}

TEST_F(PersistentCacheTest, SaveSnapshotWinsOverDiskOnCollision) {
  PersistentCache P(Dir, oneShard());
  DseCache First;
  First.insertVerdict(42, true);
  First.insertEstimate(43, estimateFor(1));
  ASSERT_TRUE(P.save(First));
  DseCache Second;
  Second.insertVerdict(42, false);
  Second.insertEstimate(43, estimateFor(2));
  ASSERT_TRUE(P.save(Second));

  DseCache Loaded;
  ASSERT_TRUE(P.load(Loaded));
  bool Accepted = true;
  ASSERT_TRUE(Loaded.lookupVerdict(42, Accepted));
  EXPECT_FALSE(Accepted);
  hlsim::Estimate E;
  ASSERT_TRUE(Loaded.lookupEstimate(43, E));
  EXPECT_TRUE(equalEstimates(E, estimateFor(2)));
}

TEST_F(PersistentCacheTest, RoundTripIsLossless) {
  DseCache Original;
  fillCache(Original, 100, 40);
  PersistentCache P(Dir);
  ASSERT_TRUE(P.save(Original));
  EXPECT_FALSE(shardFiles(Dir).empty());
  // Temp files never survive a completed save.
  EXPECT_FALSE(anyTmpFiles(Dir));

  DseCache Loaded;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P.load(Loaded, &Stats));
  EXPECT_EQ(Stats.Verdicts, 100u);
  EXPECT_EQ(Stats.Estimates, 40u);
  EXPECT_GT(Stats.ShardsLoaded, 0u);

  for (size_t I = 0; I != 100; ++I) {
    bool Accepted = false;
    ASSERT_TRUE(Loaded.lookupVerdict(1000 + I, Accepted)) << I;
    EXPECT_EQ(Accepted, I % 3 == 0) << I;
  }
  for (size_t I = 0; I != 40; ++I) {
    hlsim::Estimate E;
    ASSERT_TRUE(Loaded.lookupEstimate(9000 + I, E)) << I;
    EXPECT_TRUE(equalEstimates(E, estimateFor(I))) << I;
  }
}

TEST_F(PersistentCacheTest, ShardedLayoutSpreadsEntries) {
  PersistentCache P(Dir); // Default stripe count (8).
  ASSERT_EQ(P.shardCount(), 8u);
  ASSERT_TRUE(saveCache(P, 64, 64));
  // Sequential keys modulo 8 land in every stripe.
  EXPECT_EQ(shardFiles(Dir).size(), 8u);
  // An entry's shard path is deterministic and inside the directory.
  EXPECT_EQ(P.shardPathFor(1000), P.shardPath(1000 % 8));

  DseCache Loaded;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P.load(Loaded, &Stats));
  EXPECT_EQ(Stats.ShardsLoaded, 8u);
  EXPECT_EQ(Stats.Verdicts, 64u);
  EXPECT_EQ(Stats.Estimates, 64u);
}

TEST_F(PersistentCacheTest, MissingFileLoadsAsEmpty) {
  PersistentCache P(Dir);
  DseCache Into;
  EXPECT_FALSE(P.load(Into));
  EXPECT_EQ(Into.verdictCount(), 0u);
}

TEST_F(PersistentCacheTest, VersionMismatchTriggersCleanRebuild) {
  {
    PersistentCacheOptions Old;
    Old.Version = 1;
    PersistentCache P(Dir, Old);
    ASSERT_TRUE(saveCache(P, 10, 5));
  }
  // A reader expecting a newer format ignores the old files...
  PersistentCacheOptions New;
  New.Version = 2;
  PersistentCache P2(Dir, New);
  DseCache Into;
  EXPECT_FALSE(P2.load(Into));
  EXPECT_EQ(Into.verdictCount(), 0u);
  EXPECT_EQ(Into.estimateCount(), 0u);

  // ...and its next save rebuilds them in the new format (union-on-save
  // cannot resurrect mismatched entries: they fail validation).
  ASSERT_TRUE(saveCache(P2, 3, 2));
  DseCache Fresh;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P2.load(Fresh, &Stats));
  EXPECT_EQ(Stats.Verdicts, 3u);
  EXPECT_EQ(Stats.Estimates, 2u);
}

TEST_F(PersistentCacheTest, LegacyRootFileIsIgnoredAndRemovedOnSave) {
  // A v3-era cache was a single memo.bin at the directory root.
  fs::create_directories(Dir);
  {
    std::ofstream Out(fs::path(Dir) / "memo.bin", std::ios::binary);
    Out << "DAHC-v3-era payload that v4 must not read";
  }
  PersistentCache P(Dir);
  DseCache Into;
  EXPECT_FALSE(P.load(Into)); // No shard dirs: nothing to serve.
  EXPECT_EQ(Into.verdictCount(), 0u);

  ASSERT_TRUE(saveCache(P, 4, 2));
  EXPECT_FALSE(fs::exists(fs::path(Dir) / "memo.bin"));
  EXPECT_FALSE(shardFiles(Dir).empty());
}

TEST_F(PersistentCacheTest, TruncatedFileIsIgnoredWithoutCrashing) {
  PersistentCache P(Dir, oneShard());
  ASSERT_TRUE(saveCache(P, 50, 20));
  std::string Path = P.shardPath(0);
  auto FullSize = fs::file_size(Path);

  // Truncate at every interesting boundary plus a sweep of prefixes.
  std::string Full;
  {
    std::ifstream In(Path, std::ios::binary);
    Full.assign((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(Full.size(), FullSize);
  for (size_t Keep :
       {size_t(0), size_t(3), size_t(4), size_t(7), size_t(8), size_t(15),
        size_t(16), Full.size() / 2, Full.size() - 1}) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Full.data(), static_cast<std::streamsize>(Keep));
    Out.close();
    DseCache Into;
    EXPECT_FALSE(P.load(Into)) << "kept " << Keep << " bytes";
    EXPECT_EQ(Into.verdictCount(), 0u) << Keep;
  }
}

TEST_F(PersistentCacheTest, CorruptPayloadIsIgnoredWithoutCrashing) {
  PersistentCache P(Dir, oneShard());
  ASSERT_TRUE(saveCache(P, 50, 20));
  std::string Path = P.shardPath(0);
  std::string Full;
  {
    std::ifstream In(Path, std::ios::binary);
    Full.assign((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  }
  // Flip one byte in the middle (a record), one in the counts, and one in
  // the checksum itself.
  for (size_t Victim : {Full.size() / 2, size_t(9), Full.size() - 4}) {
    std::string Bad = Full;
    Bad[Victim] = static_cast<char>(Bad[Victim] ^ 0x5a);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bad.data(), static_cast<std::streamsize>(Bad.size()));
    Out.close();
    DseCache Into;
    EXPECT_FALSE(P.load(Into)) << "flipped byte " << Victim;
    EXPECT_EQ(Into.verdictCount(), 0u) << Victim;
  }

  // Garbage that is not even the right magic.
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << "this is not a cache file at all, but it is long enough to parse";
  Out.close();
  DseCache Into;
  EXPECT_FALSE(P.load(Into));
}

TEST_F(PersistentCacheTest, CorruptShardLeavesOthersServing) {
  PersistentCache P(Dir); // 8 stripes.
  ASSERT_TRUE(saveCache(P, 64, 0));

  // Scribble over the shard holding key 1000; its 8 entries vanish, the
  // other 56 still serve (a memo cache is correct under any subset).
  {
    std::ofstream Out(P.shardPathFor(1000),
                      std::ios::binary | std::ios::trunc);
    Out << "scribble";
  }
  DseCache Into;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P.load(Into, &Stats));
  EXPECT_EQ(Stats.ShardsLoaded, 7u);
  EXPECT_EQ(Stats.Verdicts, 56u);
  bool Accepted = false;
  EXPECT_FALSE(Into.lookupVerdict(1000, Accepted));
  EXPECT_TRUE(Into.lookupVerdict(1001, Accepted));

  // The next save heals the scribbled stripe.
  ASSERT_TRUE(saveCache(P, 64, 0));
  DseCache Healed;
  ASSERT_TRUE(P.load(Healed, &Stats));
  EXPECT_EQ(Stats.ShardsLoaded, 8u);
  EXPECT_EQ(Stats.Verdicts, 64u);
}

TEST_F(PersistentCacheTest, ShrinkingShardCountMergesStaleStripes) {
  // A writer with more stripes published entries into shard-04..15; a
  // later writer with fewer stripes must fold them into its partition,
  // not delete them.
  PersistentCacheOptions Big;
  Big.Shards = 16;
  ASSERT_TRUE(saveCache(PersistentCache(Dir, Big), 32, 16));

  PersistentCacheOptions Small;
  Small.Shards = 4;
  PersistentCache P(Dir, Small);
  ASSERT_TRUE(saveCache(P, 8, 4, /*KeyBase=*/100000));

  DseCache Loaded;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P.load(Loaded, &Stats));
  EXPECT_EQ(Stats.Verdicts, 32u + 8u);
  EXPECT_EQ(Stats.Estimates, 16u + 4u);
  bool Accepted = false;
  EXPECT_TRUE(Loaded.lookupVerdict(1031, Accepted)); // From the 16-stripe run.
  EXPECT_TRUE(Loaded.lookupVerdict(101007, Accepted));
  // The stale stripes are gone once their contents migrated.
  EXPECT_EQ(shardFiles(Dir).size(), 4u);
}

TEST_F(PersistentCacheTest, UnionOnSaveMergesDisjointWriters) {
  // Two handles over the same directory, as two processes would hold.
  PersistentCache A(Dir), B(Dir);
  ASSERT_TRUE(saveCache(A, 20, 10, /*KeyBase=*/0));
  ASSERT_TRUE(saveCache(B, 20, 10, /*KeyBase=*/100000));

  // B's save merged with A's published entries instead of clobbering.
  DseCache Loaded;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(PersistentCache(Dir).load(Loaded, &Stats));
  EXPECT_EQ(Stats.Verdicts, 40u);
  EXPECT_EQ(Stats.Estimates, 20u);
  bool Accepted = false;
  EXPECT_TRUE(Loaded.lookupVerdict(1000, Accepted));
  EXPECT_TRUE(Loaded.lookupVerdict(101000, Accepted));
}

TEST_F(PersistentCacheTest, ConcurrentReadersAgree) {
  PersistentCache P(Dir);
  ASSERT_TRUE(saveCache(P, 500, 200));

  constexpr unsigned NumReaders = 8;
  std::vector<DseCache> Caches(NumReaders);
  // Plain ints, not vector<bool>: adjacent bit-packed writes from
  // different threads are a (harmless-looking but real) data race.
  std::vector<int> LoadOk(NumReaders, 0);
  std::vector<std::thread> Readers;
  for (unsigned T = 0; T != NumReaders; ++T)
    Readers.emplace_back([&, T] { LoadOk[T] = P.load(Caches[T]); });
  for (std::thread &T : Readers)
    T.join();

  for (unsigned T = 0; T != NumReaders; ++T) {
    ASSERT_TRUE(LoadOk[T]) << T;
    EXPECT_EQ(Caches[T].verdictCount(), 500u) << T;
    EXPECT_EQ(Caches[T].estimateCount(), 200u) << T;
  }
}

TEST_F(PersistentCacheTest, ConcurrentSaversUnionThroughStripeLocks) {
  // One handle, many threads, disjoint key ranges: the stripe locks
  // serialize the per-shard read-union-write, so every range survives.
  PersistentCache P(Dir);
  constexpr unsigned NumSavers = 4;
  std::vector<std::thread> Savers;
  std::vector<int> SaveOk(NumSavers, 0);
  for (unsigned T = 0; T != NumSavers; ++T)
    Savers.emplace_back([&, T] {
      DseCache C;
      fillCache(C, 50, 25, /*KeyBase=*/T * 100000);
      SaveOk[T] = P.save(C);
    });
  for (std::thread &T : Savers)
    T.join();
  for (unsigned T = 0; T != NumSavers; ++T)
    EXPECT_TRUE(SaveOk[T]) << T;

  DseCache Loaded;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P.load(Loaded, &Stats));
  EXPECT_EQ(Stats.Verdicts, 50u * NumSavers);
  EXPECT_EQ(Stats.Estimates, 25u * NumSavers);
}

TEST_F(PersistentCacheTest, EvictionCapKeepsVerdictsOverEstimates) {
  PersistentCacheOptions O = oneShard();
  O.MaxEntries = 60;
  PersistentCache P(Dir, O);
  ASSERT_TRUE(saveCache(P, 50, 30)); // 80 entries > cap 60.

  DseCache Loaded;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P.load(Loaded, &Stats));
  EXPECT_EQ(Stats.Verdicts, 50u); // All verdicts survive...
  EXPECT_EQ(Stats.Estimates, 10u); // ...estimates absorb the eviction.

  // Eviction is deterministic: the lowest-keyed estimates survive.
  for (uint64_t I = 0; I != 10; ++I) {
    hlsim::Estimate E;
    EXPECT_TRUE(Loaded.lookupEstimate(9000 + I, E)) << I;
  }
  hlsim::Estimate E;
  EXPECT_FALSE(Loaded.lookupEstimate(9000 + 10, E));

  // A cap smaller than the verdict count truncates verdicts too. (A
  // fresh directory: union-on-save would otherwise resurrect survivors.)
  fs::remove_all(Dir);
  PersistentCacheOptions Tiny = oneShard();
  Tiny.MaxEntries = 20;
  PersistentCache P2(Dir, Tiny);
  ASSERT_TRUE(saveCache(P2, 50, 30));
  DseCache Small;
  ASSERT_TRUE(P2.load(Small, &Stats));
  EXPECT_EQ(Stats.Verdicts, 20u);
  EXPECT_EQ(Stats.Estimates, 0u);
}

TEST_F(PersistentCacheTest, SaveOverwritesAtomically) {
  PersistentCache P(Dir, oneShard());
  ASSERT_TRUE(saveCache(P, 10, 0));
  ASSERT_TRUE(saveCache(P, 25, 5)); // Larger snapshot over smaller.
  DseCache Loaded;
  PersistentCacheLoadStats Stats;
  ASSERT_TRUE(P.load(Loaded, &Stats));
  EXPECT_EQ(Stats.Verdicts, 25u);
  EXPECT_EQ(Stats.Estimates, 5u);
  EXPECT_FALSE(anyTmpFiles(Dir));
}

} // namespace
