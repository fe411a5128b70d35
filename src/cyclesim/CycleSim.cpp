//===- CycleSim.cpp - Cycle-level banked-memory simulator -------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "cyclesim/CycleSim.h"

#include "hlsim/KernelAnalysis.h"
#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/StableHash.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace dahlia;
using namespace dahlia::cyclesim;
using namespace dahlia::hlsim;

namespace {

/// The walk box of one nest: walked groups per loop, min(sequential
/// groups, conflict-pattern period), aligned with the plan's loops.
std::vector<int64_t> walkCaps(const AccessPlan &P) {
  std::vector<int64_t> Caps;
  for (size_t L = 0; L != P.loops(); ++L) {
    int64_t U = std::max<int64_t>(P.Unroll[L], 1);
    int64_t G = (P.Trip[L] + U - 1) / U;
    G = std::max<int64_t>(G, 1);

    // The bank an affine access resolves to depends on this loop's group
    // counter only modulo partition / gcd(partition, coeff * unroll), so
    // the joint conflict pattern repeats with the lcm of those periods.
    // Walking one period is therefore exactly as informative as walking
    // every group.
    int64_t Period = 1;
    for (size_t D = 0; D != P.Part.size(); ++D) {
      int64_t Pt = P.Part[D];
      int64_t Coef = P.coefRow(D)[L];
      if (Pt <= 1 || Coef == 0)
        continue;
      int64_t Step = std::abs(Coef) * U;
      Period = std::lcm(Period, Pt / std::gcd(Pt, Step));
    }
    Caps.push_back(std::min(G, Period));
  }
  return Caps;
}

} // namespace

SimResult dahlia::cyclesim::simulate(const KernelSpec &K,
                                     const SimOptions &O) {
  TRACE_SPAN("cyclesim.simulate");
  static metrics::Counter &Sims = metrics::counter("cyclesim.simulations");
  Sims.inc();
  const CostModel &CM = O.CM;
  SimResult R;
  uint64_t Budget = std::max<uint64_t>(O.MaxWalkGroups, 1);

  double Cycles = 0;
  AccessPlan Plan;
  BankCounters Counters(K);
  for (size_t NI = 0; NI != K.nestCount(); ++NI) {
    const KernelSpec::NestView N = K.nest(NI);
    lowerNest(K, N, Counters, Plan);
    const std::vector<int64_t> Caps = walkCaps(Plan);
    NestSim S;

    // Walk box: one conflict period per loop (clipped to the loop's real
    // group count), bounded by the remaining global budget.
    uint64_t BoxSize = 1;
    for (int64_t C : Caps) {
      uint64_t U = static_cast<uint64_t>(std::max<int64_t>(C, 1));
      if (BoxSize > (uint64_t(1) << 62) / U) {
        BoxSize = uint64_t(1) << 62; // Saturate; the budget clips below.
        break;
      }
      BoxSize *= U;
    }
    uint64_t Walk = BoxSize;
    if (Walk > Budget) {
      Walk = Budget;
      S.PeriodComplete = false;
      R.Truncated = true;
    }
    Budget -= Walk;

    //===----------------------------------------------------------------===//
    // The cycle walk: issue every group's unrolled body in lockstep and
    // arbitrate the banks (the same arbitration primitive the analytic
    // scan samples — KernelAnalysis.h); the nest's static II is the
    // worst group's arbitration latency (an HLS pipeline is scheduled
    // for its worst-case conflict, not re-timed per iteration).
    //===----------------------------------------------------------------===//
    double II = 1.0;
    std::vector<int64_t> Coord(Caps.size(), 0);
    std::vector<int64_t> SeqIter(Plan.Vars, 0);
    for (uint64_t G = 0; G != Walk; ++G) {
      double Needed =
          arbitrateGroup(Plan, SeqIter, Counters, S.MaxPortPressure);
      II = std::max(II, Needed);
      ++S.WalkedGroups;
      if (Needed > 1.0) {
        ++S.ConflictGroups;
        S.StallCycles += static_cast<uint64_t>(Needed) - 1;
      }
      // Odometer step, innermost loop fastest.
      for (size_t L = Caps.size(); L-- > 0;) {
        Coord[L] = (Coord[L] + 1) % Caps[L];
        SeqIter[Plan.Var[L]] = Coord[L];
        if (Coord[L] != 0)
          break;
      }
    }
    // Budget-truncated walks clamp against the analytic sampled scan so
    // Full <= Exact survives even the pathological case.
    if (!S.PeriodComplete)
      II = std::max(II, sampledConflictII(Plan, CM.PortConflictSamples,
                                          Counters));
    if (N.HasAccumulator && K.FloatingPoint)
      II = std::max(II, 1.0 + CM.AccumulatorII);
    S.II = II;
    R.II = std::max(R.II, II);

    //===----------------------------------------------------------------===//
    // Nest latency under the derived static schedule — the shared
    // nestShape, so the only difference between Full and Exact cycles is
    // sampled-vs-observed II.
    //===----------------------------------------------------------------===//
    NestShape Shape = nestShape(N, CM.LoopOverheadCycles);
    S.Groups = Shape.Groups;
    S.EffectiveII = std::max(II, N.IterationLatency);
    S.Cycles = Shape.Groups * S.EffectiveII + Shape.OuterOverhead;
    Cycles += Shape.Groups * S.EffectiveII + Shape.OuterOverhead;
    R.WalkedGroups += S.WalkedGroups;
    R.Nests.push_back(std::move(S));
  }
  Cycles += CM.PipelineDepth;
  Cycles += K.ExtraSerialCycles;

  // Rule-violating configurations run on the same erratically-synthesized
  // hardware the analytic model perturbs, so the simulated schedule
  // inherits the identical deterministic multiplier (>= 1, shared via
  // KernelAnalysis.h) — without it the Full rung could overtake Exact on
  // noisy points.
  if (CM.ModelHeuristicNoise &&
      !(unrollDividesBanking(K) && bankingDividesSizes(K)))
    Cycles *= heuristicLatencyMultiplier(K, CM.NoiseAmplitudeLatency);

  // Conflict-period walk accounting: how many iteration groups the
  // simulator actually executed (vs. the analytic scan's fixed samples).
  static metrics::Counter &Walked =
      metrics::counter("cyclesim.walked_groups");
  static metrics::Counter &Truncs = metrics::counter("cyclesim.truncations");
  Walked.inc(R.WalkedGroups);
  if (R.Truncated)
    Truncs.inc();

  R.Cycles = Cycles;
  return R;
}

hlsim::Estimate dahlia::cyclesim::exactEstimate(const KernelSpec &K) {
  return exactEstimate(K, simulate(K));
}

hlsim::Estimate dahlia::cyclesim::exactEstimate(const KernelSpec &K,
                                                const SimResult &S) {
  hlsim::Estimate E = hlsim::estimate(K); // Full-fidelity area model.
  E.Cycles = S.Cycles;
  E.II = S.II;
  E.RuntimeMs = S.Cycles / (K.ClockMHz * 1e3);
  return E;
}
