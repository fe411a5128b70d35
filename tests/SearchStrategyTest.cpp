//===- SearchStrategyTest.cpp - Pruned + sharded search tests ---*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The strategy contract: every search strategy — successive halving,
// dominance pruning, and any shard split of either — produces EXACTLY the
// Pareto-front membership of the exhaustive sweep. The enabling property
// is the estimator fidelity ladder (each fidelity is a component-wise
// lower bound of the next), which this file pins directly.
//
//===----------------------------------------------------------------------===//

#include "dse/SearchStrategy.h"

#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace dahlia;
using namespace dahlia::dse;
using namespace dahlia::kernels;

namespace {

/// The Bank21 = Bank22 = 1 slice of the Figure 7 space: 2,000 configs, 11
/// accepted (the analytic count pinned in RegressionAnchorsTest).
std::shared_ptr<std::vector<GemmBlockedConfig>> sliceSpace() {
  auto Space = std::make_shared<std::vector<GemmBlockedConfig>>();
  for (const GemmBlockedConfig &C : gemmBlockedSpace())
    if (C.Bank21 == 1 && C.Bank22 == 1)
      Space->push_back(C);
  return Space;
}

DseProblem sliceProblem(
    const std::shared_ptr<std::vector<GemmBlockedConfig>> &Space) {
  DseProblem P;
  P.Size = Space->size();
  P.Source = [Space](size_t I) { return gemmBlockedDahlia((*Space)[I]); };
  P.Spec = [Space](size_t I) { return gemmBlockedSpec((*Space)[I]); };
  return P;
}

DseResult runStrategy(const DseProblem &P, StrategyKind K,
                      unsigned Threads = 2,
                      std::shared_ptr<DseCache> Cache = nullptr,
                      ShardSpec Shard = ShardSpec()) {
  DseOptions O;
  O.Strategy = K;
  O.Threads = Threads;
  O.Cache = std::move(Cache);
  O.Shard = Shard;
  return DseEngine(O).explore(P);
}

//===----------------------------------------------------------------------===//
// Parsing and partitioning
//===----------------------------------------------------------------------===//

TEST(SearchStrategyParse, StrategyNames) {
  EXPECT_EQ(parseStrategy("exhaustive"), StrategyKind::Exhaustive);
  EXPECT_EQ(parseStrategy(""), StrategyKind::Exhaustive);
  EXPECT_EQ(parseStrategy("halving"), StrategyKind::Halving);
  EXPECT_EQ(parseStrategy("successive-halving"), StrategyKind::Halving);
  EXPECT_EQ(parseStrategy("pareto-prune"), StrategyKind::ParetoPrune);
  EXPECT_EQ(parseStrategy("prune"), StrategyKind::ParetoPrune);
  EXPECT_FALSE(parseStrategy("bayesian").has_value());
  for (StrategyKind K : {StrategyKind::Exhaustive, StrategyKind::Halving,
                         StrategyKind::ParetoPrune})
    EXPECT_EQ(parseStrategy(strategyName(K)), K);
}

TEST(SearchStrategyParse, ShardSpecs) {
  std::optional<ShardSpec> S = parseShard("1/3");
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Index, 1u);
  EXPECT_EQ(S->Count, 3u);
  EXPECT_FALSE(parseShard("3/3"));
  EXPECT_FALSE(parseShard("-1/3"));
  EXPECT_FALSE(parseShard("0/0"));
  EXPECT_FALSE(parseShard("1"));
  EXPECT_FALSE(parseShard("a/b"));
  EXPECT_FALSE(parseShard("1/3x"));
}

TEST(SearchStrategyParse, ShardPartitionCoversSpaceOnce) {
  // Every index lands in exactly one shard, the split is deterministic,
  // and no shard is starved on a space of a few thousand configs.
  ShardSpec S0{0, 3}, S1{1, 3}, S2{2, 3};
  size_t Counts[3] = {0, 0, 0};
  for (size_t I = 0; I != 2000; ++I) {
    unsigned Owner = S0.shardOf(I);
    EXPECT_EQ(Owner, S1.shardOf(I));
    EXPECT_EQ(Owner, S2.shardOf(I));
    ASSERT_LT(Owner, 3u);
    ++Counts[Owner];
  }
  for (size_t C : Counts)
    EXPECT_GT(C, 400u);
}

//===----------------------------------------------------------------------===//
// The fidelity ladder (the foundation of the exactness guarantee)
//===----------------------------------------------------------------------===//

TEST(FidelityLadder, BoundsAreMonotoneAcrossGemmSpace) {
  // Coarse <= Medium <= Full in every minimized objective, for accepted
  // and rule-violating configurations alike. Stride through the full
  // 32,000-config space.
  std::vector<GemmBlockedConfig> Space = gemmBlockedSpace();
  size_t Checked = 0;
  for (size_t I = 0; I < Space.size(); I += 37) {
    hlsim::KernelSpec K = gemmBlockedSpec(Space[I]);
    Objectives C = Objectives::of(hlsim::estimateAt(K, hlsim::Fidelity::Coarse));
    Objectives M = Objectives::of(hlsim::estimateAt(K, hlsim::Fidelity::Medium));
    Objectives F = Objectives::of(hlsim::estimateAt(K, hlsim::Fidelity::Full));
    auto LE = [](const Objectives &A, const Objectives &B) {
      return A.Latency <= B.Latency && A.Lut <= B.Lut && A.Ff <= B.Ff &&
             A.Bram <= B.Bram && A.Dsp <= B.Dsp;
    };
    EXPECT_TRUE(LE(C, M)) << "config " << I;
    EXPECT_TRUE(LE(M, F)) << "config " << I;
    ++Checked;
  }
  EXPECT_GT(Checked, 800u);
}

TEST(FidelityLadder, FullFidelityIsTheDefaultModel) {
  // Fidelity::Full must reproduce the default CostModel bit-for-bit —
  // otherwise every memoized estimate in the system would silently
  // diverge from hlsim::estimate().
  hlsim::KernelSpec K = gemmBlockedSpec(GemmBlockedConfig{2, 4, 1, 3, 2, 4, 6});
  hlsim::Estimate A = hlsim::estimate(K);
  hlsim::Estimate B = hlsim::estimateAt(K, hlsim::Fidelity::Full);
  EXPECT_TRUE(equalObjectives(Objectives::of(A), Objectives::of(B)));
  EXPECT_EQ(A.LutMem, B.LutMem);
  EXPECT_EQ(A.Incorrect, B.Incorrect);
  EXPECT_EQ(A.Predictable, B.Predictable);
}

TEST(FidelityLadder, CacheKeysSeparateRungs) {
  // The fix this PR ships: estimate cache keys carry the fidelity, so a
  // coarse rung can never serve a stale bound to a full-fidelity lookup.
  uint64_t H = 0x1234abcd5678ef00ULL;
  uint64_t KC = hlsim::fidelityCacheKey(H, hlsim::Fidelity::Coarse);
  uint64_t KM = hlsim::fidelityCacheKey(H, hlsim::Fidelity::Medium);
  uint64_t KF = hlsim::fidelityCacheKey(H, hlsim::Fidelity::Full);
  EXPECT_NE(KC, KM);
  EXPECT_NE(KM, KF);
  EXPECT_NE(KC, KF);
  // And none collide with the raw (pre-fidelity) key of the same spec.
  EXPECT_NE(KC, H);
  EXPECT_NE(KM, H);
  EXPECT_NE(KF, H);

  // End to end: a coarse entry in the shared cache is invisible at Full.
  DseCache Cache;
  hlsim::Estimate Bogus;
  Bogus.Lut = -12345;
  Cache.insertEstimate(KC, Bogus);
  hlsim::Estimate Out;
  EXPECT_FALSE(Cache.lookupEstimate(KF, Out));
  EXPECT_TRUE(Cache.lookupEstimate(KC, Out));
  EXPECT_EQ(Out.Lut, -12345);
}

TEST(FidelityLadder, WarmCacheCrossRungRunStaysExact) {
  // A pruned run fills the shared cache with coarse/medium bounds; a
  // subsequent exhaustive run over the same cache must not be poisoned by
  // them — every full-fidelity objective must equal a fresh run's.
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Fresh = runStrategy(P, StrategyKind::Exhaustive, 1);

  auto Cache = std::make_shared<DseCache>();
  DseResult Pruned = runStrategy(P, StrategyKind::Halving, 2, Cache);
  EXPECT_GT(Cache->estimateCount(), 0u);
  DseResult Warm = runStrategy(P, StrategyKind::Exhaustive, 2, Cache);

  EXPECT_EQ(Warm.Front, Fresh.Front);
  EXPECT_EQ(Warm.AcceptedFront, Fresh.AcceptedFront);
  ASSERT_EQ(Warm.Points.size(), Fresh.Points.size());
  for (size_t I = 0; I != Warm.Points.size(); ++I) {
    ASSERT_EQ(Warm.Points[I].Estimated, Fresh.Points[I].Estimated) << I;
    EXPECT_TRUE(equalObjectives(Warm.Points[I].Obj, Fresh.Points[I].Obj))
        << "config " << I << " served a stale cross-rung estimate";
  }
  // The pruned run's own full-fidelity entries DO serve the warm run.
  EXPECT_GT(Warm.Stats.EstimateCacheHits, 0u);
  (void)Pruned;
}

//===----------------------------------------------------------------------===//
// Strategy exactness
//===----------------------------------------------------------------------===//

TEST(SearchStrategy, HalvingNeverDropsATrueParetoMember) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Ex = runStrategy(P, StrategyKind::Exhaustive);
  DseResult Ha = runStrategy(P, StrategyKind::Halving);

  EXPECT_EQ(Ha.Front, Ex.Front);
  EXPECT_EQ(Ha.AcceptedFront, Ex.AcceptedFront);
  EXPECT_EQ(Ha.Stats.Accepted, Ex.Stats.Accepted);
  // Every front member carries genuine full-fidelity objectives.
  for (size_t I : Ha.Front) {
    ASSERT_TRUE(Ha.Points[I].Estimated);
    EXPECT_TRUE(equalObjectives(Ha.Points[I].Obj, Ex.Points[I].Obj)) << I;
  }
  // And it earned that front cheaply: well under the 40% acceptance bound.
  EXPECT_LT(Ha.Stats.Estimated, Ex.Stats.Estimated * 2 / 5);
  EXPECT_EQ(Ha.Stats.Estimated + Ha.Stats.Pruned, Ex.Stats.Estimated);
  EXPECT_GT(Ha.Stats.Pruned, 0u);
}

TEST(SearchStrategy, DominancePruningIsExact) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Ex = runStrategy(P, StrategyKind::Exhaustive);
  DseResult Pr = runStrategy(P, StrategyKind::ParetoPrune);

  EXPECT_EQ(Pr.Front, Ex.Front);
  EXPECT_EQ(Pr.AcceptedFront, Ex.AcceptedFront);
  EXPECT_EQ(Pr.Stats.Accepted, Ex.Stats.Accepted);
  // Exactness accounting: every candidate was either fully estimated or
  // provably dominated — nothing fell through.
  EXPECT_EQ(Pr.Stats.Estimated + Pr.Stats.Pruned, Ex.Stats.Estimated);
  EXPECT_GT(Pr.Stats.Pruned, 0u);
  EXPECT_LT(Pr.Stats.Estimated, Ex.Stats.Estimated / 2);
  EXPECT_EQ(Pr.Stats.Rescued, 0u); // halving-only counter
}

TEST(SearchStrategy, PrunedStrategiesAreThreadCountInvariant) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  for (StrategyKind K : {StrategyKind::Halving, StrategyKind::ParetoPrune}) {
    DseResult Ref = runStrategy(P, K, 1);
    for (unsigned Threads : {2u, 4u}) {
      DseResult R = runStrategy(P, K, Threads);
      EXPECT_EQ(R.Front, Ref.Front) << strategyName(K) << "@" << Threads;
      EXPECT_EQ(R.AcceptedFront, Ref.AcceptedFront)
          << strategyName(K) << "@" << Threads;
      EXPECT_EQ(R.Stats.Estimated, Ref.Stats.Estimated)
          << strategyName(K) << "@" << Threads;
      EXPECT_EQ(R.Stats.Pruned, Ref.Stats.Pruned)
          << strategyName(K) << "@" << Threads;
    }
  }
}

TEST(SearchStrategy, CheckerDirectedSpacesPruneOnlyAcceptedPoints) {
  // EstimateRejected = false (the Figure 8 methodology): rejected configs
  // are never estimated at any fidelity, and the pruned front still
  // matches the exhaustive one.
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  P.EstimateRejected = false;
  DseResult Ex = runStrategy(P, StrategyKind::Exhaustive);
  DseResult Pr = runStrategy(P, StrategyKind::ParetoPrune);
  EXPECT_EQ(Pr.Front, Ex.Front);
  EXPECT_EQ(Pr.AcceptedFront, Ex.AcceptedFront);
  EXPECT_EQ(Pr.Front, Pr.AcceptedFront);
  EXPECT_LE(Pr.Stats.Estimated + Pr.Stats.Pruned, Pr.Stats.Accepted);
  for (size_t I = 0; I != Pr.Points.size(); ++I)
    if (!Pr.Points[I].Accepted)
      EXPECT_FALSE(Pr.Points[I].Estimated) << I;
}

//===----------------------------------------------------------------------===//
// Shard splits and the merge
//===----------------------------------------------------------------------===//

TEST(ShardMerge, ThreeShardsReproduceTheWholeFrontAtAnyThreadCount) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Whole = runStrategy(P, StrategyKind::Exhaustive, 2);
  auto WholeObj = [&](size_t I) -> const Objectives & {
    return Whole.Points[I].Obj;
  };
  uint64_t WholeHash = frontHash(Whole.Front, WholeObj);

  for (unsigned Threads : {1u, 2u, 4u}) {
    std::vector<FrontPoint> Points;
    size_t Explored = 0;
    for (unsigned S = 0; S != 3; ++S) {
      DseResult Part = runStrategy(P, StrategyKind::Exhaustive, Threads,
                                   nullptr, ShardSpec{S, 3});
      Explored += Part.Stats.Explored;
      std::vector<FrontPoint> FP = collectFrontPoints(Part);
      Points.insert(Points.end(), FP.begin(), FP.end());
    }
    EXPECT_EQ(Explored, P.Size) << "shards must cover the space exactly";

    MergedFronts M = mergeFrontPoints(Points);
    EXPECT_EQ(M.Front, Whole.Front) << Threads << " threads/shard";
    EXPECT_EQ(M.AcceptedFront, Whole.AcceptedFront)
        << Threads << " threads/shard";
    EXPECT_EQ(M.FrontHash, WholeHash) << Threads << " threads/shard";
    EXPECT_EQ(M.AcceptedFrontHash, frontHash(Whole.AcceptedFront, WholeObj))
        << Threads << " threads/shard";
  }
}

TEST(ShardMerge, PrunedShardsMergeToTheExactFrontToo) {
  // Strategy and sharding compose: halving inside each shard still yields
  // the exact whole-space front after the merge.
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Whole = runStrategy(P, StrategyKind::Exhaustive, 2);

  std::vector<FrontPoint> Points;
  size_t FullEstimates = 0;
  for (unsigned S = 0; S != 3; ++S) {
    DseResult Part = runStrategy(P, StrategyKind::Halving, 2, nullptr,
                                 ShardSpec{S, 3});
    FullEstimates += Part.Stats.Estimated;
    std::vector<FrontPoint> FP = collectFrontPoints(Part);
    Points.insert(Points.end(), FP.begin(), FP.end());
  }
  MergedFronts M = mergeFrontPoints(Points);
  EXPECT_EQ(M.Front, Whole.Front);
  EXPECT_EQ(M.AcceptedFront, Whole.AcceptedFront);
  EXPECT_LT(FullEstimates, Whole.Stats.Estimated);
}

TEST(ShardMerge, FrontPointsRoundTripThroughJsonBitExactly) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult R = runStrategy(P, StrategyKind::Exhaustive, 2);
  std::vector<FrontPoint> Points = collectFrontPoints(R);
  ASSERT_FALSE(Points.empty());

  // Serialize, reparse from the dumped text, and compare bit-for-bit —
  // this is the property the multi-process merge relies on.
  std::string Dumped = frontPointsToJson(Points).dump();
  std::optional<Json> Parsed = Json::parse(Dumped);
  ASSERT_TRUE(Parsed);
  std::string Err;
  std::optional<std::vector<FrontPoint>> Back =
      frontPointsFromJson(*Parsed, &Err);
  ASSERT_TRUE(Back) << Err;
  ASSERT_EQ(Back->size(), Points.size());
  for (size_t K = 0; K != Points.size(); ++K) {
    EXPECT_EQ((*Back)[K].Index, Points[K].Index);
    EXPECT_EQ((*Back)[K].Accepted, Points[K].Accepted);
    EXPECT_TRUE(equalObjectives((*Back)[K].Obj, Points[K].Obj))
        << "objectives changed across the JSON round-trip at " << K;
  }

  MergedFronts M = mergeFrontPoints(*Back);
  EXPECT_EQ(M.Front, R.Front);
  EXPECT_EQ(M.AcceptedFront, R.AcceptedFront);
}

TEST(ShardMerge, MalformedFrontPointsAreRejectedNotDefaulted) {
  // A point missing an objective must fail the parse — defaulting it to
  // 0 would make it dominate (and erase) the entire merged front.
  auto Parse = [](const std::string &Text) {
    std::optional<Json> J = Json::parse(Text);
    EXPECT_TRUE(J);
    std::string Err;
    auto R = frontPointsFromJson(*J, &Err);
    return std::make_pair(R.has_value(), Err);
  };
  EXPECT_TRUE(Parse(R"([{"index":1,"accepted":true,"latency":2,"lut":3,)"
                    R"("ff":4,"bram":5,"dsp":6}])")
                  .first);
  auto [OkMissing, ErrMissing] = Parse(
      R"([{"index":1,"accepted":true,"latency":2,"lut":3,"ff":4,"bram":5}])");
  EXPECT_FALSE(OkMissing);
  EXPECT_NE(ErrMissing.find("dsp"), std::string::npos);
  EXPECT_FALSE(Parse(R"([{"index":1,"latency":2,"lut":3,"ff":4,"bram":5,)"
                     R"("dsp":6}])")
                   .first); // no verdict
  EXPECT_FALSE(Parse(R"([{"index":1,"accepted":true,"latency":"fast",)"
                     R"("lut":3,"ff":4,"bram":5,"dsp":6}])")
                   .first); // non-numeric objective
  EXPECT_FALSE(Parse(R"([42])").first);
  EXPECT_FALSE(Parse(R"({"index":1})").first); // not an array
}

/// A shard's sweep object with \p Points as its front_points, all of
/// them on its front and the accepted ones on its accepted front.
Json shardSweep(Json Index, Json Count, const std::vector<FrontPoint> &Points) {
  Json S = Json::object();
  S["shard_index"] = std::move(Index);
  S["shard_count"] = std::move(Count);
  S["front_points"] = frontPointsToJson(Points);
  S["front"] = Json::array();
  S["accepted_front"] = Json::array();
  for (const FrontPoint &P : Points) {
    S["front"].push_back(static_cast<int64_t>(P.Index));
    if (P.Accepted)
      S["accepted_front"].push_back(static_cast<int64_t>(P.Index));
  }
  return S;
}

/// The first \p N configs shard \p Shard owns, each with distinct
/// objectives (a latency/LUT trade-off, so all of them are on the front)
/// and alternating verdicts.
std::vector<FrontPoint> ownedPoints(ShardSpec Shard, size_t N) {
  std::vector<FrontPoint> Out;
  for (size_t I = 0; Out.size() != N; ++I)
    if (Shard.shardOf(I) == Shard.Index) {
      FrontPoint P;
      P.Index = I;
      P.Obj.Latency = 100.0 - static_cast<double>(Out.size());
      P.Obj.Lut = 10.0 + static_cast<double>(Out.size());
      P.Accepted = Out.size() % 2 == 0;
      Out.push_back(P);
    }
  return Out;
}

size_t foreignIndex(ShardSpec Shard) {
  size_t I = 0;
  while (Shard.shardOf(I) == Shard.Index)
    ++I;
  return I;
}

TEST(ShardMerge, ShardFrontParserSortsAndRejectsEveryMalformedShard) {
  const ShardSpec Shard{1, 3};
  std::vector<FrontPoint> Points = ownedPoints(Shard, 6);
  std::vector<FrontPoint> Reversed(Points.rbegin(), Points.rend());

  // Valid input: the same sorted points whatever the wire order.
  std::string Err;
  for (const std::vector<FrontPoint> *In : {&Points, &Reversed}) {
    std::optional<ShardFront> F =
        parseShardFront(shardSweep(1, 3, *In), &Err);
    ASSERT_TRUE(F) << Err;
    EXPECT_EQ(F->Shard.Index, 1u);
    EXPECT_EQ(F->Shard.Count, 3u);
    ASSERT_EQ(F->Points.size(), Points.size());
    for (size_t K = 0; K != Points.size(); ++K) {
      EXPECT_EQ(F->Points[K].Index, Points[K].Index);
      EXPECT_EQ(F->Points[K].Accepted, Points[K].Accepted);
      EXPECT_TRUE(equalObjectives(F->Points[K].Obj, Points[K].Obj));
    }
    EXPECT_EQ(frontPointsFingerprint(F->Points),
              frontPointsFingerprint(Points));
  }

  auto Rejects = [&](const Json &Sweep, const std::string &Expect) {
    std::string Why;
    EXPECT_FALSE(parseShardFront(Sweep, &Why)) << Expect;
    EXPECT_NE(Why.find(Expect), std::string::npos) << Why;
  };
  std::vector<FrontPoint> Dup = Points;
  Dup.push_back(Points[2]);
  Dup.back().Obj.Latency = 1.0; // A different vector for the same config.
  Rejects(shardSweep(1, 3, Dup), "duplicate front point for config " +
                                     std::to_string(Points[2].Index));
  std::vector<FrontPoint> Foreign = Points;
  Foreign.push_back(Points[0]);
  Foreign.back().Index = foreignIndex(Shard);
  Rejects(shardSweep(1, 3, Foreign),
          "front point " + std::to_string(Foreign.back().Index) +
              " is outside the shard's partition");
  for (auto [Index, Count] : {std::pair<int, int>{3, 3},
                              {4, 3},
                              {-1, 3},
                              {0, 0}})
    Rejects(shardSweep(Index, Count, {}), "is not a shard spec");
  Rejects(shardSweep("1", 3, Points), "is not a shard spec");
  Json Missing = Json::object();
  Missing["shard_index"] = 1;
  Missing["shard_count"] = 3;
  Rejects(Missing, "carries no front_points");
  Json NotArray = shardSweep(1, 3, Points);
  NotArray["front_points"] = Json::object();
  Rejects(NotArray, "malformed front_points");

  // The points must be exactly the sweep's own front members: a reply
  // listing a member it sent no point for (a truncated front), or a
  // point on neither list, is refused.
  Json Dropped = shardSweep(1, 3, Points);
  Dropped["front_points"] = frontPointsToJson(
      std::vector<FrontPoint>(Points.begin(), Points.end() - 1));
  Rejects(Dropped, "front_points differ from its front and accepted_front");
  Json Extra = shardSweep(1, 3, Points);
  Extra["front"] = Json::array();
  Rejects(Extra, "front_points differ from its front and accepted_front");
  Json NoLists = shardSweep(1, 3, Points);
  NoLists["accepted_front"] = Json();
  Rejects(NoLists, "carries no accepted_front list");
}

TEST(ShardMerge, MergedHashesCoverTheObjectivesTheMergeKept) {
  // Two shards' points in any order merge to the same fronts, and the
  // merged hashes are frontHash over each surviving member's vector.
  std::vector<FrontPoint> A = ownedPoints(ShardSpec{0, 2}, 4);
  std::vector<FrontPoint> B = ownedPoints(ShardSpec{1, 2}, 4);
  B[1].Obj.Latency = 1000.0; // Dominated by A's points: off the front.
  std::vector<FrontPoint> AB = A, BA = B;
  AB.insert(AB.end(), B.begin(), B.end());
  BA.insert(BA.end(), A.rbegin(), A.rend());
  MergedFronts M1 = mergeFrontPoints(AB), M2 = mergeFrontPoints(BA);
  EXPECT_EQ(M1.Front, M2.Front);
  EXPECT_EQ(M1.AcceptedFront, M2.AcceptedFront);
  EXPECT_EQ(M1.FrontHash, M2.FrontHash);
  EXPECT_EQ(M1.AcceptedFrontHash, M2.AcceptedFrontHash);
  EXPECT_EQ(std::count(M1.Front.begin(), M1.Front.end(), B[1].Index), 0);

  auto ObjOf = [&](size_t I) -> const Objectives & {
    for (const FrontPoint &P : AB)
      if (P.Index == I)
        return P.Obj;
    ADD_FAILURE() << "no point " << I;
    return AB.front().Obj;
  };
  EXPECT_EQ(M1.FrontHash, frontHash(M1.Front, ObjOf));
  EXPECT_EQ(M1.AcceptedFrontHash, frontHash(M1.AcceptedFront, ObjOf));
}

TEST(ShardMerge, FingerprintCoversTheAcceptedBit) {
  // Speculative duplicates are cross-checked by fingerprint: a reply that
  // differs only in one point's verdict must not pass as the same shard.
  std::vector<FrontPoint> Points = ownedPoints(ShardSpec{0, 1}, 5);
  uint64_t Base = frontPointsFingerprint(Points);
  EXPECT_EQ(frontPointsFingerprint(Points), Base);
  for (size_t K = 0; K != Points.size(); ++K) {
    std::vector<FrontPoint> Flipped = Points;
    Flipped[K].Accepted = !Flipped[K].Accepted;
    EXPECT_NE(frontPointsFingerprint(Flipped), Base) << K;
  }
  std::vector<FrontPoint> Moved = Points;
  Moved[2].Obj.Dsp += 1.0;
  EXPECT_NE(frontPointsFingerprint(Moved), Base);
}

} // namespace
