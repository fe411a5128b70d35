//===- HlsimTest.cpp - HLS estimation substrate tests -----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Tests that the estimation model exhibits the mechanisms the paper's
// Section 2 analysis identifies, with the qualitative shapes of Figure 4.
//
//===----------------------------------------------------------------------===//

#include "hlsim/Estimator.h"

#include "cyclesim/CycleSim.h"
#include "hlsim/KernelAnalysis.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <bit>

using namespace dahlia;
using namespace dahlia::hlsim;
using namespace dahlia::kernels;

namespace {

TEST(Hlsim, BaselineGemmIsPredictable) {
  Estimate E = estimate(gemm512(1, 1));
  EXPECT_TRUE(E.Predictable);
  EXPECT_FALSE(E.Incorrect);
  EXPECT_EQ(E.II, 1);
  // 512^3 iterations at II=1 dominate the cycle count.
  EXPECT_GE(E.Cycles, 512.0 * 512.0 * 512.0);
  EXPECT_LT(E.Cycles, 1.2 * 512.0 * 512.0 * 512.0);
}

TEST(Hlsim, UnrollWithoutPartitioningSerializes) {
  // Mechanism 1 (Fig. 4a): the single-ported BRAM bottlenecks the PEs, so
  // unrolling yields no speedup.
  Estimate U1 = estimate(gemm512(1, 1));
  Estimate U8 = estimate(gemm512(8, 1));
  EXPECT_EQ(U8.II, 8);
  // Runtime does not improve by more than noise.
  EXPECT_GT(U8.Cycles, 0.9 * U1.Cycles);
  // But area still grows (duplicated PEs).
  EXPECT_GT(U8.Lut, U1.Lut);
  EXPECT_FALSE(U8.Predictable);
}

TEST(Hlsim, MatchedUnrollAndPartitioningSpeedsUp) {
  // Fig. 4b predictable points: unroll == banking gives a clean speedup.
  Estimate U1 = estimate(gemm512(1, 8));
  Estimate U8 = estimate(gemm512(8, 8));
  EXPECT_TRUE(U8.Predictable);
  EXPECT_EQ(U8.II, 1);
  EXPECT_LT(U8.Cycles, U1.Cycles / 6.0);
}

TEST(Hlsim, MismatchedUnrollNeedsIndirection) {
  // Fig. 4b unpredictable points: unroll 9 over 8 banks requires muxes.
  Estimate U8 = estimate(gemm512(8, 8));
  Estimate U9 = estimate(gemm512(9, 8));
  EXPECT_FALSE(U9.Predictable);
  EXPECT_GT(U9.Lut, U8.Lut);
  // Reducing the unroll factor from 9 to 8 improves performance — the
  // paper's counterintuitive observation.
  EXPECT_GT(U9.Cycles, U8.Cycles);
}

TEST(Hlsim, PredictableLockstepPointsScaleSmoothly) {
  // Fig. 4c predictable points: banking == unroll, both dividing 512.
  double PrevCycles = 1e18;
  int64_t PrevLut = 0;
  for (int64_t K : {1, 2, 4, 8, 16}) {
    Estimate E = estimate(gemm512Lockstep(K));
    EXPECT_TRUE(E.Predictable) << "k=" << K;
    EXPECT_LT(E.Cycles, PrevCycles) << "k=" << K;
    EXPECT_GT(E.Lut, PrevLut) << "k=" << K;
    PrevCycles = E.Cycles;
    PrevLut = E.Lut;
  }
}

TEST(Hlsim, NonDividingBankingIsUnpredictable) {
  // Fig. 4c unpredictable points: banking does not divide 512.
  for (int64_t K : {3, 5, 6, 7, 9}) {
    Estimate E = estimate(gemm512Lockstep(K));
    EXPECT_FALSE(E.Predictable) << "k=" << K;
  }
}

TEST(Hlsim, NoiseIsDeterministic) {
  Estimate A = estimate(gemm512(9, 8));
  Estimate B = estimate(gemm512(9, 8));
  EXPECT_EQ(A.Lut, B.Lut);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Incorrect, B.Incorrect);
}

TEST(Hlsim, SomeSevereViolationsMisSynthesize) {
  // Across the Fig. 4b sweep a few configurations produce incorrect
  // hardware, as the paper observed.
  int IncorrectCount = 0;
  for (int64_t U = 1; U <= 16; ++U)
    IncorrectCount += estimate(gemm512(U, 8)).Incorrect ? 1 : 0;
  EXPECT_GE(IncorrectCount, 0);
  // Predictable points never mis-synthesize.
  for (int64_t U : {1, 2, 4, 8})
    EXPECT_FALSE(estimate(gemm512(U, 8)).Incorrect) << U;
}

TEST(Hlsim, AblationMuxCost) {
  CostModel NoMux;
  NoMux.ModelMuxCost = false;
  Estimate WithMux = estimate(gemm512(9, 8));
  Estimate WithoutMux = estimate(gemm512(9, 8), NoMux);
  EXPECT_GT(WithMux.Lut, WithoutMux.Lut);
}

TEST(Hlsim, AblationBoundaryCost) {
  CostModel NoBoundary;
  NoBoundary.ModelBoundaryCost = false;
  NoBoundary.ModelHeuristicNoise = false;
  CostModel Base;
  Base.ModelHeuristicNoise = false;
  Estimate With = estimate(gemm512Lockstep(6), Base);
  Estimate Without = estimate(gemm512Lockstep(6), NoBoundary);
  EXPECT_GT(With.Lut, Without.Lut);
}

TEST(Hlsim, AblationPortConflicts) {
  CostModel NoPorts;
  NoPorts.ModelPortConflicts = false;
  Estimate With = estimate(gemm512(8, 1));
  Estimate Without = estimate(gemm512(8, 1), NoPorts);
  EXPECT_GT(With.Cycles, Without.Cycles);
}

TEST(Hlsim, MultiPortedBanksHalveConflicts) {
  KernelSpec K = gemm512(2, 1);
  K.Arrays[0].Ports = 2;
  K.Arrays[1].Ports = 2;
  Estimate E = estimate(K);
  EXPECT_EQ(E.II, 1);
}

TEST(Hlsim, BramCountsFollowBanking) {
  // More banks of the same array need at least as many BRAM tiles.
  Estimate B1 = estimate(gemm512(1, 1));
  Estimate B8 = estimate(gemm512(1, 8));
  EXPECT_GE(B8.Bram, B1.Bram);
}

TEST(Hlsim, SmallArraysBecomeLutMemories) {
  KernelSpec K;
  K.Name = "tiny";
  K.FloatingPoint = false;
  K.Arrays = {{"t", {8}, {1}, 1, 32}};
  K.Loops = {{"i", 8, 1}};
  K.Body = {{"t", {AffineExpr::var("i")}, false}};
  Estimate E = estimate(K);
  EXPECT_EQ(E.Bram, 0);
  EXPECT_GT(E.LutMem, 0);
}

TEST(Hlsim, AffineExprEvaluation) {
  AffineExpr E = AffineExpr::var("i", 8, 3);
  E.Coeffs["j"] = 1;
  std::map<std::string, int64_t> Vals = {{"i", 2}, {"j", 5}};
  EXPECT_EQ(E.eval(Vals), 8 * 2 + 5 + 3);
}

TEST(Hlsim, EstimateIsFastEnoughForExhaustiveDse) {
  // 1000 estimates must complete quickly (the Fig. 7 space has 32k).
  for (int I = 0; I != 1000; ++I) {
    GemmBlockedConfig C;
    C.Unroll1 = 1 + (I % 4);
    estimate(gemmBlockedSpec(C));
  }
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Bit-exactness pins
//===----------------------------------------------------------------------===//

const KernelSpec &kmpRewrite() {
  static const KernelSpec K = [] {
    for (const MachSuiteBenchmark &B : machSuiteBenchmarks())
      if (B.Name == "kmp")
        return B.Rewrite;
    return KernelSpec();
  }();
  return K;
}

TEST(Hlsim, HeuristicConfigHashIsPinned) {
  // Literals computed by the string-building implementation this one
  // replaced; the noise draws of every rule-violating configuration (and
  // so the Figure 7 front hashes) depend on these bytes.
  GemmBlockedConfig Violating;
  Violating.Bank11 = Violating.Bank12 = 3;
  Violating.Unroll1 = Violating.Unroll3 = 2;
  Violating.Unroll2 = 6;
  ASSERT_FALSE(estimate(gemmBlockedSpec(Violating)).Predictable);
  ASSERT_TRUE(estimate(gemmBlockedSpec(GemmBlockedConfig())).Predictable);
  ASSERT_TRUE(kmpRewrite().Loops[0].IsWhile);
  ASSERT_EQ(mdKnnSpec(MdKnnConfig()).nestCount(), 2u);
  EXPECT_EQ(heuristicConfigHash(gemmBlockedSpec(GemmBlockedConfig())),
            0x8f6a1d1351999418ULL);
  EXPECT_EQ(heuristicConfigHash(gemmBlockedSpec(Violating)),
            0x94b0f2e4e9a43d0bULL);
  EXPECT_EQ(heuristicConfigHash(mdKnnSpec(MdKnnConfig())),
            0x24061ec577b07d92ULL);
  EXPECT_EQ(heuristicConfigHash(kmpRewrite()), 0x5c8433a033e1ec0bULL);
}

uint64_t foldEstimate(uint64_t H, const Estimate &E) {
  for (double D : {E.Cycles, E.RuntimeMs, E.II})
    H = stableHashCombine(H, std::bit_cast<uint64_t>(D));
  for (int64_t I : {E.Lut, E.Ff, E.Bram, E.Dsp, E.LutMem})
    H = stableHashCombine(H, static_cast<uint64_t>(I));
  H = stableHashCombine(H, E.Incorrect);
  return stableHashCombine(H, E.Predictable);
}

uint64_t foldSim(uint64_t H, const cyclesim::SimResult &S) {
  for (double D : {S.Cycles, S.II})
    H = stableHashCombine(H, std::bit_cast<uint64_t>(D));
  H = stableHashCombine(H, S.Truncated);
  H = stableHashCombine(H, S.WalkedGroups);
  for (const cyclesim::NestSim &N : S.Nests) {
    for (double D : {N.II, N.EffectiveII, N.Groups, N.Cycles})
      H = stableHashCombine(H, std::bit_cast<uint64_t>(D));
    for (uint64_t U : {N.WalkedGroups, N.ConflictGroups, N.StallCycles})
      H = stableHashCombine(H, U);
    H = stableHashCombine(H, static_cast<uint64_t>(N.MaxPortPressure));
    H = stableHashCombine(H, N.PeriodComplete);
  }
  return H;
}

TEST(Hlsim, EstimatesAndSimulationsArePinnedBitForBit) {
  // Every Estimate field at the three analytic rungs over the Figure 7 and
  // Figure 8 spaces, and every SimResult field over the sim_accuracy
  // corpus, folded into one digest. The literal was generated by the
  // map-based schedule primitive the flat access plans replaced, so a
  // drift in any field of any result fails here.
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Rungs = [&H](const KernelSpec &K) {
    for (Fidelity F : {Fidelity::Coarse, Fidelity::Medium, Fidelity::Full})
      H = foldEstimate(H, estimate(K, costModelFor(F)));
  };
  for (const GemmBlockedConfig &C : gemmBlockedSpace())
    Rungs(gemmBlockedSpec(C));
  for (const Stencil2dConfig &C : stencil2dSpace())
    Rungs(stencil2dSpec(C));
  for (const MdKnnConfig &C : mdKnnSpace())
    Rungs(mdKnnSpec(C));
  for (const MdGridConfig &C : mdGridSpace())
    Rungs(mdGridSpec(C));

  std::vector<KernelSpec> Corpus;
  for (int64_t U = 1; U <= 10; ++U)
    Corpus.push_back(gemm512(U, 1));
  for (int64_t U = 1; U <= 16; ++U)
    Corpus.push_back(gemm512(U, 8));
  for (int64_t K : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16})
    Corpus.push_back(gemm512Lockstep(K));
  GemmBlockedConfig G;
  Corpus.push_back(gemmBlockedSpec(G));
  G.Bank11 = G.Bank12 = G.Bank21 = G.Bank22 = 2;
  G.Unroll1 = G.Unroll2 = G.Unroll3 = 2;
  Corpus.push_back(gemmBlockedSpec(G));
  Stencil2dConfig S;
  Corpus.push_back(stencil2dSpec(S));
  S.FilterBank1 = S.FilterBank2 = 3;
  S.Unroll1 = S.Unroll2 = 3;
  Corpus.push_back(stencil2dSpec(S));
  MdKnnConfig M;
  Corpus.push_back(mdKnnSpec(M));
  M.BankPos = M.BankNlPos = M.BankForce = 4;
  M.UnrollI = M.UnrollJ = 4;
  Corpus.push_back(mdKnnSpec(M));
  MdGridConfig D;
  Corpus.push_back(mdGridSpec(D));
  D.Bank1 = D.Bank2 = D.Bank3 = 2;
  D.Unroll1 = D.Unroll2 = D.Unroll3 = 2;
  Corpus.push_back(mdGridSpec(D));
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks())
    Corpus.push_back(B.Rewrite);
  for (const KernelSpec &K : Corpus)
    H = foldSim(H, cyclesim::simulate(K));
  EXPECT_EQ(H, 0x2954379e015354ebULL);
}

} // namespace
