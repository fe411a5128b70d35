//===- PersistentCache.h - On-disk memo cache for check/estimate -*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persists a \c dse::DseCache (type-check verdicts keyed by source hash,
/// hlsim estimates keyed by spec hash) across process runs, so Figure 7
/// sweeps and long-lived compile-service instances start warm. Since
/// format v4 the cache is *sharded*: a directory (by convention
/// `.dahlia-cache/`) holds K lock-striped shard subdirectories, each with
/// its own versioned binary file, and every entry lives in the shard its
/// \c StableHash key selects:
///
///   .dahlia-cache/
///     shard-00/memo.bin   magic | version | verdicts | estimates | checksum
///     shard-01/memo.bin
///     ...
///     shard-NN/memo.bin.tmp  transient; saves write here, then rename
///
/// Sharding exists for concurrency: the multi-client compile server saves
/// after every disconnect, and multi-process `fig7 --shard i/N` runs all
/// write the same cache directory — with one file they contended on (and
/// overwrote) a single rename target; with K files plus union-on-save,
/// writers touch disjoint shards' locks and *merge* with what concurrent
/// writers already published instead of clobbering it.
///
/// Robustness contract (exercised by PersistentCacheTest):
///   * saves are crash-safe per shard: each snapshot is written to
///     `memo.bin.tmp` and atomically renamed over `memo.bin`, so readers
///     never observe a half-written file;
///   * saves are *unions*: a save first loads each shard's current
///     on-disk entries and merges them under the in-memory snapshot (the
///     snapshot wins on key collisions), so concurrent processes extend
///     rather than erase each other's work;
///   * a missing shard, a version mismatch, or a truncated/corrupt shard
///     file (anything ShardImage::decode rejects: bad magic, bad checksum,
///     counts exceeding the payload, keys out of order) loads as empty —
///     a memo cache is correct under any subset, so the other shards
///     still serve and the next save rebuilds the bad one;
///   * pre-v4 caches (a single `memo.bin` at the directory root) are
///     ignored on load and removed on save — old caches rebuild cleanly
///     (see docs/caching.md for the layout and the intentional
///     re-baselining workflow);
///   * the entry count is capped (\c MaxEntries, apportioned across
///     shards); eviction keeps verdicts (tiny, expensive to recompute)
///     over estimates, dropping the highest-keyed entries first —
///     deterministic, since a memo cache is correct under any subset;
///   * within one process, per-shard stripe locks make concurrent save()
///     calls safe (the compile server saves from its event loop while
///     tests snapshot); concurrent loads were always fine.
///
/// All integers are serialized little-endian regardless of host order, so
/// a cache written on one machine loads on another.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SERVICE_PERSISTENTCACHE_H
#define DAHLIA_SERVICE_PERSISTENTCACHE_H

#include "dse/DseEngine.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dahlia::service {

/// Tunables of the on-disk cache.
struct PersistentCacheOptions {
  /// Total entry cap (verdicts + estimates) enforced at save time,
  /// apportioned evenly across shards.
  size_t MaxEntries = 1u << 20;
  /// Format version written and required on load. Only tests override
  /// this (to exercise the mismatch path); real callers track
  /// \c kFormatVersion implicitly.
  uint32_t Version = 0; ///< 0 = current kFormatVersion.
  /// Shard (stripe) count; clamped to [1, 64]. Tests pin 1 for the exact
  /// single-file eviction semantics.
  unsigned Shards = 8;
};

/// The current on-disk format version. Bump when the record layout — or
/// the key derivation — changes; old files are then ignored and rebuilt.
/// Version 2: estimate keys carry the estimator fidelity
/// (hlsim::fidelityCacheKey), so caches written before the fidelity
/// ladder (whose keys were raw spec hashes) must not be served.
/// Version 3: hlsim::specHash covers multi-nest kernel specs and
/// while-loop markers (and the Exact simulator rung joined the fidelity
/// keyspace), so pre-multi-nest caches hold entries under stale keys and
/// are rebuilt rather than carried along.
/// Version 4: the cache directory is sharded (shard-NN/memo.bin,
/// lock-striped, union-on-save); the single root memo.bin of v3 is no
/// longer read.
inline constexpr uint32_t kPersistentCacheFormatVersion = 4;

/// The entries of one shard file, each vector sorted by key with unique
/// keys (the format's canonical order). This is also the unit the
/// `cache-export`/`cache-import` protocol ops ship, so one encoder and one
/// decoder serve disk and wire.
struct ShardImage {
  std::vector<std::pair<uint64_t, bool>> Verdicts;
  std::vector<std::pair<uint64_t, hlsim::Estimate>> Estimates;

  /// The shard-file bytes: magic | version | verdicts | estimates |
  /// checksum (see docs/caching.md).
  std::string encode(uint32_t Version = kPersistentCacheFormatVersion) const;

  /// Inverse of encode. Rejects (std::nullopt, reason in \p Err) bad
  /// magic, a version other than \p WantVersion, a checksum mismatch
  /// (checked before any count is read), counts exceeding the payload,
  /// keys out of order, and trailing bytes.
  static std::optional<ShardImage>
  decode(std::string_view Bytes,
         uint32_t WantVersion = kPersistentCacheFormatVersion,
         std::string *Err = nullptr);
};

/// Key-sorted union of two images in canonical order; on a key collision
/// the entry of \p Over wins.
ShardImage mergeImages(const ShardImage &Base, const ShardImage &Over);

/// Counters describing one load.
struct PersistentCacheLoadStats {
  size_t Verdicts = 0;
  size_t Estimates = 0;
  size_t ShardsLoaded = 0; ///< Shard files that passed validation.
};

/// Handle to one on-disk cache directory. Loads may run concurrently with
/// anything; saves may run concurrently with each other (stripe locks) in
/// one process, and cross-process writers merge through union-on-save.
class PersistentCache {
public:
  explicit PersistentCache(std::string Dir,
                           PersistentCacheOptions O = PersistentCacheOptions());

  /// Bulk-inserts the on-disk snapshot into \p Into — every shard file
  /// present (whatever its index), skipping invalid ones. Returns true
  /// when at least one shard loaded; with no loadable shard, \p Into is
  /// untouched. Never throws or crashes.
  bool load(dse::DseCache &Into,
            PersistentCacheLoadStats *Stats = nullptr) const;

  /// Merges a snapshot of \p From over each shard's current on-disk
  /// entries and atomically rewrites the shard files (write temp, then
  /// rename, under the shard's stripe lock). Returns false when any
  /// shard's write failed (e.g. unwritable directory).
  bool save(const dse::DseCache &From) const;

  unsigned shardCount() const { return Opts.Shards; }
  /// The shard file entry \p Key would be stored in.
  std::string shardPathFor(uint64_t Key) const;
  /// The shard file of shard \p Index.
  std::string shardPath(unsigned Index) const;
  const std::string &directory() const { return Dir; }

private:
  unsigned shardOf(uint64_t Key) const { return Key % Opts.Shards; }

  std::string Dir;
  PersistentCacheOptions Opts;
  /// Stripe locks, one per shard, so in-process concurrent saves contend
  /// per shard rather than on the whole directory.
  std::unique_ptr<std::mutex[]> ShardLocks;
};

} // namespace dahlia::service

#endif // DAHLIA_SERVICE_PERSISTENTCACHE_H
