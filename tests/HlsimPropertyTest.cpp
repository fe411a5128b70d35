//===- HlsimPropertyTest.cpp - Estimator property sweeps --------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Property tests for the HLS estimation substrate: the analytic bank-
// reachability analysis is cross-validated against brute-force iteration,
// predictable subsets behave monotonically, and the noise model touches
// only rule-violating configurations.
//
//===----------------------------------------------------------------------===//

#include "hlsim/Estimator.h"
#include "hlsim/KernelAnalysis.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>

using namespace dahlia::hlsim;
using namespace dahlia::kernels;

namespace {

/// Brute-force: run every iteration of a (small) kernel and record, for
/// each access instance (identified by its unrolled offsets resolved into
/// the index constants), the flat bank it actually touches.
std::set<int64_t> bruteForceBanks(const KernelSpec &K, const Access &A,
                                  const std::vector<int64_t> &PeOffsets) {
  const ArraySpec *Arr = K.findArray(A.Array);
  std::set<int64_t> Banks;
  // Enumerate all sequential iteration points.
  std::vector<int64_t> Groups;
  for (const Loop &L : K.Loops)
    Groups.push_back(L.Trip / L.Unroll);
  std::vector<int64_t> T(K.Loops.size(), 0);
  while (true) {
    std::map<std::string, int64_t> Vals;
    for (size_t L = 0; L != K.Loops.size(); ++L)
      Vals[K.Loops[L].Var] = K.Loops[L].Unroll * T[L] + PeOffsets[L];
    int64_t Flat = 0;
    for (size_t D = 0; D != A.Idx.size(); ++D) {
      int64_t P = Arr->Partition[D];
      int64_t V = A.Idx[D].eval(Vals) % P;
      Flat = Flat * P + (V < 0 ? V + P : V);
    }
    Banks.insert(Flat);
    // Advance the odometer.
    size_t L = K.Loops.size();
    while (L-- > 0) {
      if (++T[L] < Groups[L])
        break;
      T[L] = 0;
      if (L == 0)
        return Banks;
    }
    if (L == SIZE_MAX)
      return Banks;
  }
}

/// A small parameterized kernel shape for the cross-validation.
KernelSpec smallKernel(int64_t Trip, int64_t Unroll, int64_t Partition,
                       int64_t Coeff, int64_t Offset) {
  KernelSpec K;
  K.Name = "prop";
  K.FloatingPoint = false;
  K.Arrays = {{"a", {Trip * std::max<int64_t>(Coeff, 1) + 64},
               {Partition}, 1, 32}};
  K.Loops = {{"i", Trip, Unroll}};
  K.Body = {{"a", {AffineExpr::var("i", Coeff, Offset)}, false}};
  return K;
}

/// Checks, for the unrolled copy at \p PeOffsets of the first nest's
/// first access, that the instance it resolves to is one of the flat
/// plan's instances and that every bank brute-force iteration touches lies
/// inside the plan's reachable set for that instance.
void expectReachCoversBruteForce(const KernelSpec &K,
                                 const std::vector<int64_t> &PeOffsets) {
  const Access &A = K.Body[0];
  BankCounters C(K);
  AccessPlan P;
  lowerNest(K, K.nest(0), C, P);
  const AccessPlan::Access &PA = P.Accesses[0];

  std::map<std::string, int64_t> Vals;
  for (size_t L = 0; L != K.Loops.size(); ++L)
    Vals[K.Loops[L].Var] = PeOffsets[L];
  std::vector<int64_t> Key, Bank;
  for (size_t D = 0; D != A.Idx.size(); ++D) {
    Key.push_back(A.Idx[D].eval(Vals));
    Bank.push_back(floorMod(Key.back(), P.Part[PA.Dim0 + D]));
  }
  bool IsInstance = false;
  for (size_t I = 0; I != PA.Insts; ++I) {
    std::span<const int64_t> Inst = P.instance(PA, I);
    IsInstance |= std::equal(Inst.begin(), Inst.end(), Bank.begin());
  }
  EXPECT_TRUE(IsInstance) << "copy resolves to no plan instance";

  std::vector<int64_t> Reach;
  reachableBanks(P, PA, Key, Reach);
  std::set<int64_t> Reachable(Reach.begin(), Reach.end());
  for (int64_t B : bruteForceBanks(K, A, PeOffsets))
    EXPECT_TRUE(Reachable.count(B)) << "bank " << B << " is unreachable";
}

class ReachCrossValidation
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>> {};

TEST_P(ReachCrossValidation, AnalyticReachCoversBruteForce) {
  auto [Unroll, Partition, Coeff, Offset] = GetParam();
  const int64_t Trip = 24;
  if (Trip % Unroll != 0)
    GTEST_SKIP();
  KernelSpec K = smallKernel(Trip, Unroll, Partition, Coeff, Offset);
  for (int64_t J = 0; J != Unroll; ++J)
    expectReachCoversBruteForce(K, {J});
  Estimate E1 = estimate(K);
  Estimate E2 = estimate(K);
  EXPECT_EQ(E1.Lut, E2.Lut);
  EXPECT_EQ(E1.Cycles, E2.Cycles);
  // The sampled II can never exceed the absolute worst case: every access
  // instance on one bank.
  EXPECT_LE(E1.II, static_cast<double>(Unroll));
  EXPECT_GE(E1.II, 1.0);
}

TEST(ReachCrossValidation, LoopsSharingAVariableNameResolveByName) {
  // An outer and an inner loop both named `i`: the inner one shadows the
  // outer in the index, and the plan gives both loops the coefficient of
  // `i` and one shared group counter, as a lookup by name does.
  for (int64_t Partition : {1, 2, 4, 8})
    for (int64_t Coeff : {1, 3}) {
      KernelSpec K = smallKernel(12, 2, Partition, Coeff, 1);
      K.Loops.insert(K.Loops.begin(), Loop{"i", 4, 1});
      BankCounters C(K);
      AccessPlan P;
      lowerNest(K, K.nest(0), C, P);
      EXPECT_EQ(P.Vars, 1u);
      EXPECT_EQ(P.Var, (std::vector<size_t>{0, 0}));
      EXPECT_EQ(P.coefRow(0)[0], Coeff);
      EXPECT_EQ(P.coefRow(0)[1], Coeff);
      for (int64_t J = 0; J != 2; ++J)
        expectReachCoversBruteForce(K, {0, J});
      Estimate E = estimate(K);
      EXPECT_GE(E.II, 1.0);
      EXPECT_LE(E.II, 2.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReachCrossValidation,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 3, 4, 6),
                       ::testing::Values<int64_t>(1, 2, 4, 8),
                       ::testing::Values<int64_t>(1, 2, 3),
                       ::testing::Values<int64_t>(0, 1, 5)));

class IiExactness : public ::testing::TestWithParam<int64_t> {};

TEST_P(IiExactness, StrideOneMatchedBankingGivesIiOne) {
  // unroll == partition with a stride-1 access: each PE owns one bank.
  int64_t U = GetParam();
  KernelSpec K = smallKernel(24, U, U, 1, 0);
  EXPECT_EQ(estimate(K).II, 1.0) << "u=" << U;
}

TEST_P(IiExactness, UnbankedSerializesToUnrollFactor) {
  int64_t U = GetParam();
  KernelSpec K = smallKernel(24, U, 1, 1, 0);
  EXPECT_EQ(estimate(K).II, static_cast<double>(U)) << "u=" << U;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IiExactness,
                         ::testing::Values<int64_t>(1, 2, 3, 4, 6, 8, 12));

//===----------------------------------------------------------------------===//
// Noise hygiene
//===----------------------------------------------------------------------===//

class NoiseHygiene : public ::testing::TestWithParam<int64_t> {};

TEST_P(NoiseHygiene, PredictablePointsAreNoiseFree) {
  int64_t K = GetParam();
  if (512 % K != 0)
    GTEST_SKIP();
  CostModel NoNoise;
  NoNoise.ModelHeuristicNoise = false;
  Estimate With = estimate(gemm512Lockstep(K));
  Estimate Without = estimate(gemm512Lockstep(K), NoNoise);
  EXPECT_EQ(With.Lut, Without.Lut) << "k=" << K;
  EXPECT_EQ(With.Cycles, Without.Cycles) << "k=" << K;
  EXPECT_FALSE(With.Incorrect);
}

TEST_P(NoiseHygiene, ViolatingPointsArePerturbedButBounded) {
  int64_t K = GetParam();
  if (512 % K == 0)
    GTEST_SKIP();
  CostModel NoNoise;
  NoNoise.ModelHeuristicNoise = false;
  CostModel Model;
  Estimate With = estimate(gemm512Lockstep(K));
  Estimate Without = estimate(gemm512Lockstep(K), NoNoise);
  EXPECT_GE(With.Lut, Without.Lut) << "k=" << K;
  EXPECT_LE(static_cast<double>(With.Lut),
            (1.0 + Model.NoiseAmplitudeArea) *
                    static_cast<double>(Without.Lut) +
                1.0)
      << "k=" << K;
  EXPECT_GE(With.Cycles, Without.Cycles);
  EXPECT_LE(With.Cycles,
            (1.0 + Model.NoiseAmplitudeLatency) * Without.Cycles + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NoiseHygiene,
                         ::testing::Range<int64_t>(1, 17));

//===----------------------------------------------------------------------===//
// Monotonicity of the predictable subset across kernels
//===----------------------------------------------------------------------===//

TEST(HlsimMonotone, GemmBlockedMatchedConfigsScale) {
  double PrevCycles = 1e18;
  for (int64_t U : {1, 2, 4}) {
    GemmBlockedConfig C;
    C.Bank11 = C.Bank12 = C.Bank21 = C.Bank22 = U;
    C.Unroll1 = C.Unroll2 = C.Unroll3 = U;
    Estimate E = estimate(gemmBlockedSpec(C));
    EXPECT_TRUE(E.Predictable) << U;
    EXPECT_LT(E.Cycles, PrevCycles) << U;
    PrevCycles = E.Cycles;
  }
}

TEST(HlsimMonotone, MdKnnMatchedConfigsScale) {
  double PrevCycles = 1e18;
  for (int64_t U : {1, 2, 4}) {
    MdKnnConfig C;
    C.BankPos = C.BankNlPos = C.BankForce = U;
    C.UnrollI = C.UnrollJ = U;
    Estimate E = estimate(mdKnnSpec(C));
    EXPECT_LT(E.Cycles, PrevCycles) << U;
    PrevCycles = E.Cycles;
  }
}

TEST(HlsimMonotone, AreaNeverNegative) {
  for (int64_t U = 1; U <= 16; ++U)
    for (int64_t P : {1, 2, 4, 8}) {
      Estimate E = estimate(gemm512(U, P));
      EXPECT_GT(E.Lut, 0);
      EXPECT_GT(E.Ff, 0);
      EXPECT_GE(E.Bram, 0);
      EXPECT_GE(E.Dsp, 0);
      EXPECT_GT(E.Cycles, 0);
    }
}

} // namespace
