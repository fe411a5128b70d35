//===- FuzzTest.cpp - Tier-1 budget for the fuzz harness --------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Tier-1 coverage for src/fuzz/: generator determinism, shrinker
// soundness, a small fixed-seed differential budget that must stay clean,
// both self-test fault injections (the harness must catch an estimator
// off-by-one and a swallowed truncated frame — proof its oracles bite),
// and replay of every checked-in corpus program. The nightly CI leg runs
// the same harness via dahlia-fuzz / dahlia-fuzz-proto with bigger
// budgets and sanitizers; anything it minimizes gets checked in under
// tests/fuzz-corpus/ and replayed here forever.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/ProtoFuzz.h"
#include "service/ServiceClient.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace dahlia;
using namespace dahlia::fuzz;

namespace {

std::string renderSeed(uint64_t Seed) { return generate(Seed).render(); }

//===--------------------------------------------------------------------===//
// Generator
//===--------------------------------------------------------------------===//

TEST(ProgramGen, SameSeedRendersIdentically) {
  for (uint64_t Seed : {1u, 2u, 7u, 42u, 999u})
    EXPECT_EQ(renderSeed(Seed), renderSeed(Seed)) << "seed " << Seed;
}

TEST(ProgramGen, DifferentSeedsDiverge) {
  // Not guaranteed per-pair, but over 20 consecutive seeds at least two
  // distinct programs is a safe determinism smoke bound.
  std::set<std::string> Distinct;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    Distinct.insert(renderSeed(Seed));
  EXPECT_GT(Distinct.size(), 10u);
}

TEST(ProgramGen, EveryProgramDeclaresAnArray) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    GProgram P = generate(Seed);
    EXPECT_FALSE(P.Arrays.empty()) << "seed " << Seed;
    EXPECT_NE(P.render().find("decl "), std::string::npos) << "seed " << Seed;
  }
}

TEST(ProgramGen, MutateSourceIsDeterministic) {
  std::string Src = renderSeed(5);
  EXPECT_EQ(mutateSource(Src, 17), mutateSource(Src, 17));
  // A mutation should usually change the text; seed 17 is pinned to one
  // that does.
  EXPECT_NE(mutateSource(Src, 17), Src);
}

TEST(ProgramGen, ShrinkerPreservesFailureAndNeverGrows) {
  // Synthetic predicate: "fails" iff the program still contains a banked
  // array. The shrinker must keep that property while only shrinking.
  auto StillFails = [](const GProgram &P) {
    for (const GArray &A : P.Arrays)
      if (A.Bank > 1)
        return true;
    return false;
  };
  int Shrunk = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    GProgram P = generate(Seed);
    if (!StillFails(P))
      continue;
    size_t Before = detail::structuralSize(P);
    GProgram Min = shrinkProgram(P, StillFails);
    EXPECT_TRUE(StillFails(Min)) << "seed " << Seed;
    EXPECT_LE(detail::structuralSize(Min), Before) << "seed " << Seed;
    if (detail::structuralSize(Min) < Before)
      ++Shrunk;
  }
  EXPECT_GT(Shrunk, 0) << "shrinker never simplified anything";
}

//===--------------------------------------------------------------------===//
// Differential harness
//===--------------------------------------------------------------------===//

DiffOptions tier1Options() {
  DiffOptions O;
  O.ShrinkBudget = 150; // Keep tier-1 latency down; nightly uses 400.
  return O;
}

TEST(Differential, FixedSeedBudgetIsClean) {
  DiffReport R = runDifferential(1, 40, tier1Options());
  for (const DiffFailure &F : R.Failures)
    ADD_FAILURE() << "seed " << F.Seed << " [" << F.Kind << "] " << F.Detail
                  << "\n"
                  << (F.Minimized.empty() ? F.Program : F.Minimized);
  EXPECT_EQ(R.Stats.Cases, 40u);
  EXPECT_GT(R.Stats.Accepted, 0u);
  EXPECT_GT(R.Stats.Rejected, 0u) << "sabotage paths never exercised";
  EXPECT_GT(R.Stats.LadderChecks, 0u);
}

TEST(Differential, ReportJsonIsDeterministic) {
  DiffOptions O = tier1Options();
  DiffReport A = runDifferential(7, 10, O);
  DiffReport B = runDifferential(7, 10, O);
  EXPECT_EQ(A.toJson().dump(), B.toJson().dump());
}

TEST(Differential, InjectedEstimatorBiasIsCaught) {
  // The acceptance gate: a deliberate +1 on Full-fidelity cycles must
  // surface as ladder-violation failures with minimized repros.
  DiffOptions O = tier1Options();
  O.InjectFullCycleBias = 1;
  DiffReport R = runDifferential(1, 40, O);
  size_t Ladder = 0;
  bool HaveRepro = false;
  for (const DiffFailure &F : R.Failures)
    if (F.Kind == "ladder-violation") {
      ++Ladder;
      HaveRepro |= !F.Minimized.empty();
    }
  EXPECT_GT(Ladder, 0u) << "injected off-by-one went undetected";
  EXPECT_TRUE(HaveRepro) << "no ladder violation carried a minimized repro";
}

TEST(Differential, CorpusReplaysClean) {
  // Every checked-in program (minimized nightly finds + hand-written
  // crash-class seeds) must stay failure-free through the full oracle
  // stack.
  std::filesystem::path Dir = DAHLIA_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(Dir)) << Dir;
  DiffOptions O = tier1Options();
  DiffStats Stats;
  int Replayed = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() != ".fuse")
      continue;
    std::ifstream In(E.path());
    ASSERT_TRUE(In.good()) << E.path();
    std::ostringstream SS;
    SS << In.rdbuf();
    std::optional<DiffFailure> F = checkSource(SS.str(), O, Stats);
    EXPECT_FALSE(F.has_value())
        << E.path() << ": [" << F->Kind << "] " << F->Detail;
    ++Replayed;
  }
  EXPECT_GE(Replayed, 6) << "corpus went missing";
}

//===--------------------------------------------------------------------===//
// Protocol soak (small budget; ServiceTest runs it under TSan too)
//===--------------------------------------------------------------------===//

TEST(ProtoFuzz, SmallSoakIsClean) {
  if (!haveSockets())
    GTEST_SKIP() << "no socket support on this platform";
  ProtoFuzzOptions O;
  O.Rounds = 1;
  ProtoFuzzReport R = runProtoFuzz(O);
  for (const ProtoFailure &F : R.Failures)
    ADD_FAILURE() << "round " << F.Round << " [" << F.Attack << "] "
                  << F.Detail;
  EXPECT_FALSE(R.Stats.Skipped);
  EXPECT_GT(R.Stats.Attacks, 0u);
  EXPECT_GT(R.Stats.WellBehavedBatches, 0u)
      << "well-behaved clients never completed a batch during the soak";
}

TEST(ProtoFuzz, InjectedSwallowedFrameIsCaught) {
  if (!haveSockets())
    GTEST_SKIP() << "no socket support on this platform";
  ProtoFuzzOptions O;
  O.Rounds = 1;
  O.InjectSwallowTruncated = true;
  ProtoFuzzReport R = runProtoFuzz(O);
  size_t Hits = 0;
  for (const ProtoFailure &F : R.Failures)
    if (F.Attack == "truncated-frame")
      ++Hits;
  EXPECT_GT(Hits, 0u) << "swallowed truncated frame went undetected";
}

//===--------------------------------------------------------------------===//
// Cluster dialect (hostile workers vs coordinator; nightly runs more
// rounds via dahlia-fuzz-proto --cluster)
//===--------------------------------------------------------------------===//

TEST(ProtoFuzz, ClusterDialectSmallSoakIsClean) {
  if (!haveSockets())
    GTEST_SKIP() << "no socket support on this platform";
  ClusterFuzzOptions O;
  O.Rounds = 1;
  O.Limit = 60;
  ProtoFuzzReport R = runClusterFuzz(O);
  for (const ProtoFailure &F : R.Failures)
    ADD_FAILURE() << "round " << F.Round << " [" << F.Attack << "] "
                  << F.Detail;
  EXPECT_FALSE(R.Stats.Skipped);
  EXPECT_GT(R.Stats.Attacks, 0u);
}

TEST(ProtoFuzz, ClusterCorpusRepliesDecodeToStructuredErrors) {
  // Minimized wire-level finds from the cluster dialect: each .lines
  // script is a hostile worker's reply stream, pinned forever. Replay
  // through the client decoder — exactly how the coordinator
  // reads a shard — and require a structured error, never an Ok sweep.
  std::filesystem::path Dir = DAHLIA_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(Dir)) << Dir;
  int Replayed = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() != ".lines")
      continue;
    std::ifstream In(E.path());
    ASSERT_TRUE(In.good()) << E.path();
    std::string Wire, Line;
    while (std::getline(In, Line))
      if (!Line.empty() && Line[0] != '#')
        Wire += Line + "\n";

    std::istringstream Responses(Wire);
    std::ostringstream Requests;
    service::ServiceClient C(Responses, Requests);
    service::Request R;
    R.Kind = service::Op::DseSweep;
    R.Space = "gemm-blocked";
    R.Stream = true;
    service::ClientResponse Resp = C.call(std::move(R));
    EXPECT_FALSE(Resp.R.Ok) << E.path() << " decoded as success";
    EXPECT_FALSE(Resp.R.Errors.empty())
        << E.path() << " failed without a structured error";
    ++Replayed;
  }
  EXPECT_GE(Replayed, 2) << "cluster wire corpus went missing";
}

} // namespace
