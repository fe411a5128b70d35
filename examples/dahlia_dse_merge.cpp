//===- dahlia_dse_merge.cpp - Merge sharded DSE partial fronts --*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Unions the partial Pareto fronts of a sharded sweep back into the
// membership a single-process sweep produces:
//
//   fig7_dse_gemm_blocked --shard 0/3 --json s0.json
//   fig7_dse_gemm_blocked --shard 1/3 --json s1.json
//   fig7_dse_gemm_blocked --shard 2/3 --json s2.json
//   dahlia-dse-merge --out merged.json s0.json s1.json s2.json
//
// The merged "front", "accepted_front", and their hashes are guaranteed
// byte-identical to an unsharded run's: every true front member sits on
// its own shard's partial front (nothing inside a subset can dominate
// it), and locally-undominated extras are eliminated while merging.
// Objectives travel bit-exactly — the JSON serializer emits
// shortest-round-trip doubles.
//
// Inputs are the JSON files fig7-style harnesses write (--shard i/N):
// each must pass dse::parseShardFront (a valid shard spec; duplicate-free
// "front_points" inside that shard's partition), carry the integer counts
// it sums ("space_size", "accepted", "full_estimates"), and agree on
// "shard_count", with distinct "shard_index". Any violation exits 1.
//
//===----------------------------------------------------------------------===//

#include "dse/SearchStrategy.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

using namespace dahlia;

namespace {

const char *kUsage = "usage: dahlia-dse-merge [--out PATH] SHARD.json...\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = nullptr;
  std::vector<const char *> Inputs;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--help")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "dahlia-dse-merge: unknown flag '%s'\n", Argv[I]);
      return usage();
    } else {
      Inputs.push_back(Argv[I]);
    }
  }
  if (Inputs.empty())
    return usage();

  std::vector<dse::FrontPoint> Points;
  std::set<unsigned> SeenShard;
  unsigned ShardCount = 0;
  std::string Bench;
  size_t Explored = 0, Accepted = 0, FullEstimates = 0;

  for (const char *Path : Inputs) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "dahlia-dse-merge: cannot open %s\n", Path);
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string Err;
    std::optional<Json> J = Json::parse(SS.str(), &Err);
    if (!J || !J->isObject()) {
      std::fprintf(stderr, "dahlia-dse-merge: %s: not a JSON object (%s)\n",
                   Path, Err.c_str());
      return 1;
    }
    std::optional<dse::ShardFront> Part = dse::parseShardFront(*J, &Err);
    if (!Part) {
      std::fprintf(stderr, "dahlia-dse-merge: %s: %s\n", Path, Err.c_str());
      return 1;
    }

    std::string B = J->at("bench").asString();
    if (Bench.empty())
      Bench = B;
    else if (!B.empty() && B != Bench) {
      std::fprintf(stderr,
                   "dahlia-dse-merge: %s is from bench '%s'; expected '%s'\n",
                   Path, B.c_str(), Bench.c_str());
      return 1;
    }
    if (ShardCount == 0)
      ShardCount = Part->Shard.Count;
    else if (Part->Shard.Count != ShardCount) {
      std::fprintf(stderr,
                   "dahlia-dse-merge: %s has shard_count %u; expected %u\n",
                   Path, Part->Shard.Count, ShardCount);
      return 1;
    }
    if (!SeenShard.insert(Part->Shard.Index).second) {
      std::fprintf(stderr, "dahlia-dse-merge: duplicate shard %u (%s)\n",
                   Part->Shard.Index, Path);
      return 1;
    }

    // A missing count would sum to a silently wrong total.
    for (auto [Key, Sum] : {std::pair<const char *, size_t *>{"space_size",
                                                              &Explored},
                            {"accepted", &Accepted},
                            {"full_estimates", &FullEstimates}}) {
      if (!J->at(Key).isInt()) {
        std::fprintf(stderr,
                     "dahlia-dse-merge: %s lacks the integer count \"%s\"\n",
                     Path, Key);
        return 1;
      }
      *Sum += static_cast<size_t>(J->at(Key).asInt());
    }
    Points.insert(Points.end(), Part->Points.begin(), Part->Points.end());
  }

  if (SeenShard.size() != ShardCount)
    std::fprintf(stderr,
                 "dahlia-dse-merge: warning: merging %zu of %u shards — "
                 "the front is only exact over the shards provided\n",
                 SeenShard.size(), ShardCount);

  dse::MergedFronts Merged = dse::mergeFrontPoints(Points);

  Json J = Json::object();
  J["bench"] = Bench;
  J["merged_shards"] = SeenShard.size();
  J["shard_count"] = ShardCount;
  J["space_size"] = Explored;
  J["accepted"] = Accepted;
  J["full_estimates"] = FullEstimates;
  J["pareto_points"] = Merged.Front.size();
  J["accepted_pareto_points"] = Merged.AcceptedFront.size();
  J["front"] = dse::indicesToJson(Merged.Front);
  J["front_hash"] = dse::hashString(Merged.FrontHash);
  J["accepted_front"] = dse::indicesToJson(Merged.AcceptedFront);
  J["accepted_front_hash"] = dse::hashString(Merged.AcceptedFrontHash);

  std::string Dump = J.dump();
  if (OutPath) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "dahlia-dse-merge: cannot write %s\n", OutPath);
      return 1;
    }
    Out << Dump << "\n";
    std::printf("merged %zu shards: %zu Pareto points (%zu accepted) -> %s\n",
                SeenShard.size(), Merged.Front.size(),
                Merged.AcceptedFront.size(), OutPath);
  } else {
    std::printf("%s\n", Dump.c_str());
  }
  return 0;
}
