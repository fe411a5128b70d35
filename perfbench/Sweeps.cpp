//===- Sweeps.cpp - The sweep workloads: fig7, fig8 and the cluster -------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// fig7-exhaustive: the full 32,000-config gemm-blocked space, exhaustive,
// cold memo cache, one engine thread per hardware thread. The Full hlsim
// estimate is most of the per-config work, so estimator changes show here.
//
// fig8-accepted: the three Fig 8 spaces (41,252 configs) estimating only
// accepted configs, cold cache. About 1% of configs are estimated, so the
// lexer, parser and checker do nearly all the work: the control for
// estimator changes and the target for front-end changes. One pass is
// sub-second and noisy, so a run repeats cold passes and reports medians.
//
// cluster-halving: a ClusterCoordinator over 4 in-process workers (each a
// TcpServer + CompileService with 1 sweep thread) running the full
// gemm-blocked space with the halving strategy and the exact top rung,
// default shards, speculation on, on a fresh (cold) fleet per sweep.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "cluster/Cluster.h"

#include <malloc.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

/// The configs every warm-up sweep covers.
constexpr size_t kWarmupConfigs = 2000;
/// Set-up ends with a cold sweep of this many configs per space, so lazy
/// initialization on the first operation counts as set-up.
constexpr size_t kSetupConfigs = 256;
constexpr int kMinSweeps = 3;

//===----------------------------------------------------------------------===//
// Checking sweeps against the expected results
//===----------------------------------------------------------------------===//

/// Checks a sweep of the first \p Size configs of \p D: every verdict,
/// every accepted config's Full objectives and, for a whole-space sweep,
/// both front hashes.
void checkSweep(const SpaceDesc &D, size_t Size, const dse::DseResult &Res,
                const Expected &E, RunReport &R) {
  const SpaceExpect &X = E.of(D.Name);
  std::string Why = std::string(D.Name) + " sweep: ";
  bool Ok = true;
  for (size_t I = 0; I != Size && Ok; ++I) {
    if (Res.Points[I].Accepted != (X.Accepted[I] != 0)) {
      Ok = false;
      Why += "verdict of config " + std::to_string(I) + " differs";
    } else if (X.Accepted[I] &&
               !dse::equalObjectives(Res.Points[I].Obj, X.Objs.at(I).Full)) {
      Ok = false;
      Why += "objectives of config " + std::to_string(I) + " differ";
    }
  }
  if (Ok && Size == X.Size) {
    auto ObjOf = [&](size_t I) -> const dse::Objectives & {
      return Res.Points[I].Obj;
    };
    Ok = dse::hashString(dse::frontHash(Res.Front, ObjOf)) == X.FrontHash &&
         dse::hashString(dse::frontHash(Res.AcceptedFront, ObjOf)) ==
             X.AcceptedFrontHash;
    if (!Ok)
      Why += "front hash differs";
  }
  R.check(Ok, Why);
}

size_t expectedAccepted(const SpaceExpect &X, size_t Limit) {
  size_t N = 0;
  for (size_t I = 0; I != std::min(Limit, X.Size); ++I)
    N += X.Accepted[I];
  return N;
}

/// Runs \p Sweep (returning the configs it explored and its seconds)
/// until \p O.Seconds have passed and at least kMinSweeps ran, then sets
/// the end-to-end metrics. Returns the number of sweeps.
size_t measureSweeps(const RunOptions &O, const std::vector<double> &Setups,
                     RunReport &R,
                     const std::function<std::pair<size_t, double>()> &Sweep) {
  std::vector<double> Rates, Ms;
  uint64_t Start = nowNs();
  double Busy = 0;
  while (Rates.size() < kMinSweeps || secondsSince(Start) < O.Seconds) {
    auto [Configs, Seconds] = Sweep();
    Rates.push_back(static_cast<double>(Configs) / Seconds);
    Ms.push_back(Seconds * 1e3);
    Busy += Seconds;
  }
  R.set("configs_per_s", median(Rates), "1/s");
  R.set("requests_per_s", static_cast<double>(Ms.size()) / Busy, "1/s");
  R.set("latency_p50_ms", median(Ms), "ms");
  R.set("latency_p99_ms", percentile(Ms, 0.99), "ms");
  R.set("setup_s", median(Setups), "s");
  R.set("peak_rss_mb", peakRssMb(), "MB");
  return Ms.size();
}

//===----------------------------------------------------------------------===//
// Engine sweeps (fig7-exhaustive, fig8-accepted)
//===----------------------------------------------------------------------===//

std::vector<const SpaceDesc *> workloadSpaces(const std::string &Workload) {
  if (Workload == "fig7-exhaustive")
    return {&space("gemm-blocked")};
  return {&space("stencil2d"), &space("md-knn"), &space("md-grid")};
}

/// What a sweep workload builds before its first timed operation.
struct SweepSetup {
  std::vector<const SpaceDesc *> Spaces;
  std::vector<dse::DseProblem> Problems;
  dse::DseOptions Opts;
};

SweepSetup makeSetup(const std::string &Workload, unsigned Threads) {
  SweepSetup S;
  S.Spaces = workloadSpaces(Workload);
  for (const SpaceDesc *D : S.Spaces)
    S.Problems.push_back(D->Problem());
  S.Opts.Threads = Threads;
  return S;
}

struct PassResult {
  double Seconds = 0;
  size_t Configs = 0;
  dse::DseStats Stats; ///< Summed over the pass's spaces.
  std::vector<dse::DseResult> Results;
};

/// One cold sweep of every space of \p S (the first \p Limit configs of
/// each when nonzero). Only the explore calls are timed; each result is
/// checked afterwards.
PassResult runPass(const SweepSetup &S, size_t Limit, const Expected &E,
                   RunReport &R, bool Keep = false) {
  PassResult Out;
  for (size_t K = 0; K != S.Spaces.size(); ++K) {
    dse::DseProblem P = S.Problems[K];
    if (Limit && Limit < P.Size)
      P.Size = Limit;
    uint64_t Start = nowNs();
    dse::DseResult Res = dse::DseEngine(S.Opts).explore(P);
    Out.Seconds += secondsSince(Start);
    Out.Configs += P.Size;
    checkSweep(*S.Spaces[K], P.Size, Res, E, R);
    const dse::DseStats &St = Res.Stats;
    Out.Stats.Explored += St.Explored;
    Out.Stats.Accepted += St.Accepted;
    Out.Stats.Estimated += St.Estimated;
    Out.Stats.LowFidelityEstimates += St.LowFidelityEstimates;
    Out.Stats.Pruned += St.Pruned;
    Out.Stats.ExactEstimates += St.ExactEstimates;
    Out.Stats.EstimateCacheHits += St.EstimateCacheHits;
    Out.Stats.VerdictCacheHits += St.VerdictCacheHits;
    if (Keep)
      Out.Results.push_back(std::move(Res));
  }
  return Out;
}

/// Wraps a problem's callbacks in kernels.source / kernels.spec spans (the
/// traced sweep: spans from the benchmark's side of the engine's calls).
dse::DseProblem tracedProblem(const dse::DseProblem &P, size_t SpaceNo) {
  dse::DseProblem T = P;
  T.Source = [Src = P.Source, SpaceNo](size_t I) {
    SpanScope S("kernels.source", configTrace(SpaceNo, I));
    return Src(I);
  };
  T.Spec = [Spec = P.Spec, SpaceNo](size_t I) {
    SpanScope S("kernels.spec", configTrace(SpaceNo, I));
    return Spec(I);
  };
  return T;
}

/// A one-thread cold sweep of exactly the configs of \p Sample (a
/// sub-problem per space), untraced and unchecked: the accounting check's
/// reference wall time and call counts.
PassResult runSampleSweep(const SweepSetup &S,
                          const std::vector<ConfigRef> &Sample) {
  PassResult Out;
  dse::DseOptions Opts;
  Opts.Threads = 1;
  for (size_t K = 0; K != S.Spaces.size(); ++K) {
    auto Idx = std::make_shared<std::vector<size_t>>();
    for (const ConfigRef &C : Sample)
      if (C.Space == S.Spaces[K])
        Idx->push_back(C.Index);
    const dse::DseProblem &Full = S.Problems[K];
    dse::DseProblem P;
    P.Size = Idx->size();
    P.EstimateRejected = Full.EstimateRejected;
    P.Source = [Idx, Src = Full.Source](size_t I) { return Src((*Idx)[I]); };
    P.Spec = [Idx, Spec = Full.Spec](size_t I) { return Spec((*Idx)[I]); };
    uint64_t Start = nowNs();
    dse::DseResult Res = dse::DseEngine(Opts).explore(P);
    Out.Seconds += secondsSince(Start);
    Out.Configs += P.Size;
    Out.Stats.Explored += Res.Stats.Explored;
    Out.Stats.Accepted += Res.Stats.Accepted;
    Out.Stats.Estimated += Res.Stats.Estimated;
    Out.Stats.EstimateCacheHits += Res.Stats.EstimateCacheHits;
    Out.Stats.VerdictCacheHits += Res.Stats.VerdictCacheHits;
  }
  return Out;
}

void reportDseStats(const dse::DseStats &St, RunReport &R) {
  auto Ratio = [](size_t A, size_t B) {
    return B ? static_cast<double>(A) / static_cast<double>(B) : 0.0;
  };
  R.set("dse.verdict_hit_ratio", Ratio(St.VerdictCacheHits, St.Explored),
        "ratio");
  R.set("dse.estimate_hit_ratio", Ratio(St.EstimateCacheHits, St.Estimated),
        "ratio");
  R.set("dse.full_estimate_fraction", Ratio(St.Estimated, St.Explored),
        "ratio");
  R.set("dse.low_fidelity_estimates",
        static_cast<double>(St.LowFidelityEstimates), "count");
  R.set("dse.pruned", static_cast<double>(St.Pruned), "count");
  R.set("dse.exact_estimates", static_cast<double>(St.ExactEstimates),
        "count");
}

void runSweepWorkload(const RunOptions &O, const Expected &E, RunReport &R) {
  unsigned Threads = hardwareThreads();
  std::vector<double> Setups;
  SweepSetup S;
  for (int I = 0; I != kSetupRepeats; ++I) {
    uint64_t Start = nowNs();
    S = makeSetup(O.Workload, Threads);
    runPass(S, kSetupConfigs, E, R);
    Setups.push_back(secondsSince(Start));
  }
  bool Fig7 = O.Workload == "fig7-exhaustive";
  // Warm-up (discarded): a cold sweep of the first configs of each space
  // (fig7) or one whole cold pass (fig8, whose passes are sub-second).
  runPass(S, Fig7 ? kWarmupConfigs : 0, E, R);

  if (!O.Trace) {
    size_t Sweeps = measureSweeps(O, Setups, R, [&] {
      PassResult P = runPass(S, 0, E, R);
      return std::pair{P.Configs, P.Seconds};
    });
    R.Notes.push_back(O.Workload + ": " + std::to_string(Sweeps) +
                      " cold sweeps of " + std::to_string(S.Problems.size()) +
                      " space(s) on " + std::to_string(Threads) +
                      " threads; latency is per sweep");
    return;
  }

  // Traced run. (1) Tracing overhead: untraced passes against passes
  // whose Source/Spec callbacks record spans on every engine thread,
  // alternating (fig8 passes are short, so it takes three of each).
  SweepSetup TracedSetup = S;
  for (size_t K = 0; K != S.Problems.size(); ++K)
    TracedSetup.Problems[K] = tracedProblem(
        S.Problems[K], static_cast<size_t>(S.Spaces[K] - spaces().data()));
  PassResult Plain;
  std::vector<double> PlainRates, TracedRates;
  for (int I = 0; I != (Fig7 ? 1 : 3); ++I) {
    Plain = runPass(S, 0, E, R, /*Keep=*/true);
    PlainRates.push_back(static_cast<double>(Plain.Configs) / Plain.Seconds);
    setTracing(true);
    PassResult Traced = runPass(TracedSetup, 0, E, R);
    setTracing(false);
    TracedRates.push_back(static_cast<double>(Traced.Configs) /
                          Traced.Seconds);
  }
  R.set("bench.trace_overhead_share",
        1 - median(TracedRates) / median(PlainRates), "ratio");
  reportDseStats(Plain.Stats, R);

  // (2) Layer replays on a seeded sample, each space in proportion to its
  // size as the sweep weighs them.
  std::mt19937_64 Rng(O.Seed);
  std::vector<ConfigRef> Sample;
  size_t Total = 0;
  for (const dse::DseProblem &P : S.Problems)
    Total += P.Size;
  for (size_t K = 0; K != S.Spaces.size(); ++K) {
    size_t Share = (Fig7 ? 600 : 3000) * S.Problems[K].Size / Total;
    std::vector<ConfigRef> Part = sampleConfigs(*S.Spaces[K], 0, Share, Rng);
    Sample.insert(Sample.end(), Part.begin(), Part.end());
  }
  // (3) The accounting check's wall time: a one-thread sweep of the same
  // sample, right before and right after the replay (the machine's speed
  // drifts), with its own call counts.
  bool EstimateRejected = S.Problems.front().EstimateRejected;
  PassResult Serial = runSampleSweep(S, Sample);
  setTracing(true);
  replayConfigs(Sample, EstimateRejected, 40, R);
  setTracing(false);
  Serial.Seconds = (Serial.Seconds + runSampleSweep(S, Sample).Seconds) / 2;

  std::vector<std::pair<size_t, dse::Objectives>> Points;
  std::vector<dse::FrontPoint> Front;
  for (size_t K = 0; K != Plain.Results.size(); ++K) {
    const dse::DseResult &Res = Plain.Results[K];
    size_t SpaceNo = static_cast<size_t>(S.Spaces[K] - spaces().data());
    for (size_t I = 0; I != Res.Points.size(); ++I)
      if (Res.Points[I].Estimated)
        Points.emplace_back(configTrace(SpaceNo, I), Res.Points[I].Obj);
    for (dse::FrontPoint P : dse::collectFrontPoints(Res)) {
      P.Index = configTrace(SpaceNo, P.Index);
      Front.push_back(P);
    }
  }
  setTracing(true);
  replayFrontInserts(Points);
  replayMerge(Front);
  // The service control stream: every k-th sampled config, so each space
  // keeps its share.
  std::vector<ConfigRef> Few;
  for (size_t I = 0; I < Sample.size(); I += Sample.size() / 150 + 1)
    Few.push_back(Sample[I]);
  std::vector<Planned> Stream = controlStream(Few, E, 20);
  replayService(Stream);
  controlTcp(Stream, E, R);
  controlCluster(*S.Spaces.front(), E, R);
  setTracing(false);

  std::map<std::string, LayerTotals> T = finishSpans(O);
  reportLayers(T, R);
  R.set("dse.unattributed_share",
        unattributedShare(
            T, countsOf(Serial.Stats, EstimateRejected), Serial.Seconds),
        "ratio");
}

//===----------------------------------------------------------------------===//
// Cluster
//===----------------------------------------------------------------------===//

/// In-process workers, each a LoopbackServer with 1 sweep thread.
class Fleet {
public:
  explicit Fleet(size_t N) {
    for (size_t I = 0; I != N; ++I)
      Workers.push_back(std::make_unique<LoopbackServer>(1));
  }

  bool ok() const {
    return std::all_of(Workers.begin(), Workers.end(),
                       [](const auto &W) { return W->ok(); });
  }

  std::vector<cluster::WorkerSpec> specs() const {
    std::vector<cluster::WorkerSpec> Ws;
    for (const auto &W : Workers) {
      cluster::WorkerSpec S;
      S.Port = W->port();
      Ws.push_back(S);
    }
    return Ws;
  }

  void stop() {
    for (const auto &W : Workers)
      W->stop();
  }

  /// Each worker's time inside epochs (read after stop()).
  std::vector<double> busySeconds() const {
    std::vector<double> B;
    for (const auto &W : Workers)
      B.push_back(W->service().stats().BusySeconds);
    return B;
  }

private:
  std::vector<std::unique_ptr<LoopbackServer>> Workers;
};

struct ClusterRun {
  cluster::ClusterResult Res;
  double FleetSeconds = 0; ///< Fleet construction.
  double Seconds = 0;      ///< The coordinator's run.
  std::vector<double> Busy;
  EstimatorCounts Counts;
};

/// One sweep on a fresh fleet.
ClusterRun runCluster(size_t Workers, const cluster::ClusterOptions &Base) {
  ClusterRun Out;
  uint64_t Start = nowNs();
  auto F = std::make_unique<Fleet>(Workers);
  cluster::ClusterOptions O = Base;
  O.Workers = F->specs();
  Out.FleetSeconds = secondsSince(Start);
  if (!F->ok()) {
    Out.Res.Errors.push_back("fleet did not start");
    return Out;
  }
  EstimatorCounts Before = EstimatorCounts::now();
  Start = nowNs();
  {
    SpanScope S("cluster.run", 0);
    Out.Res = cluster::ClusterCoordinator(std::move(O)).run();
  }
  Out.Seconds = secondsSince(Start);
  Out.Counts = EstimatorCounts::now() - Before;
  F->stop();
  Out.Busy = F->busySeconds();
  // Hand the dead fleet's memory back: the workers' threads leave it in
  // per-thread malloc arenas, and without this the process's peak RSS
  // grows with the number of sweeps a run happens to fit.
  F.reset();
  malloc_trim(0);
  return Out;
}

cluster::ClusterOptions halvingOptions(size_t Limit) {
  cluster::ClusterOptions O;
  O.Space = "gemm-blocked";
  O.Strategy = "halving";
  O.ExactTopRung = true;
  O.SweepThreads = 1;
  O.Limit = Limit;
  return O;
}

/// Checks a cluster sweep of the first \p Limit configs (0 = all) of
/// \p D: the run succeeded, explored and accepted what the expected file
/// says and, for a whole-space halving sweep, reproduced the
/// single-machine exact-top-rung front with the expected Exact
/// objectives on its accepted members.
void checkCluster(const SpaceDesc &D, size_t Limit, const ClusterRun &C,
                  bool ExactFront, const Expected &E, RunReport &R) {
  const SpaceExpect &X = E.of(D.Name);
  size_t Size = Limit ? std::min(Limit, X.Size) : X.Size;
  const cluster::ClusterResult &Res = C.Res;
  std::string Why = std::string("cluster sweep of ") + D.Name + ": ";
  bool Ok = Res.Ok && Res.Stats.Explored == Size &&
            Res.Stats.Accepted == expectedAccepted(X, Size);
  if (!Ok)
    Why += Res.Errors.empty() ? "explored/accepted counts differ"
                              : Res.Errors.front();
  if (Ok && ExactFront) {
    Ok = Res.FrontHash == E.ExactFrontHash &&
         Res.AcceptedFrontHash == E.ExactAcceptedFrontHash;
    for (const dse::FrontPoint &P : Res.Points)
      if (P.Accepted &&
          (!X.Accepted[P.Index] ||
           !dse::equalObjectives(P.Obj, X.Objs.at(P.Index).Exact)))
        Ok = false;
    if (!Ok)
      Why += "front differs from the expected exact-top-rung front";
  }
  R.check(Ok, Why);
}

void reportCluster(const ClusterRun &C, RunReport &R) {
  const cluster::ClusterStats &St = C.Res.Stats;
  R.set("cluster.dispatches", static_cast<double>(St.Dispatches), "count");
  R.set("cluster.speculative_dispatches",
        static_cast<double>(St.SpeculativeDispatches), "count");
  R.set("cluster.useful_dispatch_ratio",
        St.Dispatches ? static_cast<double>(St.ShardsDone) / St.Dispatches
                      : 0,
        "ratio");
  R.set("cluster.retries", static_cast<double>(St.Retries), "count");
  double Sum = 0, Max = 0, Min = C.Busy.empty() ? 0 : C.Busy.front();
  for (double B : C.Busy) {
    Sum += B;
    Max = std::max(Max, B);
    Min = std::min(Min, B);
  }
  R.set("cluster.worker_busy_share",
        C.Seconds > 0 && !C.Busy.empty() ? Sum / (C.Seconds * C.Busy.size())
                                         : 0,
        "ratio");
  R.set("cluster.worker_busy_spread", Min > 0 ? Max / Min : 0, "ratio");
  R.set("cluster.coordinator_s", C.Seconds - Max, "s");
}

} // namespace

void controlCluster(const SpaceDesc &Space, const Expected &E, RunReport &R) {
  cluster::ClusterOptions O;
  O.Space = Space.Name;
  O.SweepThreads = 1;
  O.Limit = kWarmupConfigs;
  ClusterRun C = runCluster(2, O);
  checkCluster(Space, kWarmupConfigs, C, false, E, R);
  reportCluster(C, R);
}

void runFig7Exhaustive(const RunOptions &O, const Expected &E, RunReport &R) {
  runSweepWorkload(O, E, R);
}

void runFig8Accepted(const RunOptions &O, const Expected &E, RunReport &R) {
  runSweepWorkload(O, E, R);
}

void runClusterHalving(const RunOptions &O, const Expected &E, RunReport &R) {
  constexpr size_t kWorkers = 4;
  const SpaceDesc &Gemm = space("gemm-blocked");
  // Set-up: the fleet and a cluster sweep of the first few configs.
  std::vector<double> Setups;
  for (int I = 0; I != kSetupRepeats; ++I) {
    ClusterRun C = runCluster(kWorkers, halvingOptions(kSetupConfigs));
    checkCluster(Gemm, kSetupConfigs, C, false, E, R);
    Setups.push_back(C.FleetSeconds + C.Seconds);
  }
  ClusterRun Warm = runCluster(kWorkers, halvingOptions(kWarmupConfigs));
  checkCluster(Gemm, kWarmupConfigs, Warm, false, E, R);

  if (!O.Trace) {
    size_t Sweeps = measureSweeps(O, Setups, R, [&] {
      ClusterRun C = runCluster(kWorkers, halvingOptions(0));
      checkCluster(Gemm, 0, C, true, E, R);
      return std::pair{C.Res.Stats.Explored, C.Seconds};
    });
    R.Notes.push_back("cluster-halving: " + std::to_string(Sweeps) +
                      " cold cluster sweeps over " +
                      std::to_string(kWorkers) +
                      " workers; latency is per sweep");
    return;
  }

  // Traced run: an untraced sweep, then the same sweep inside a span.
  ClusterRun Plain = runCluster(kWorkers, halvingOptions(0));
  checkCluster(Gemm, 0, Plain, true, E, R);
  setTracing(true);
  ClusterRun Traced = runCluster(kWorkers, halvingOptions(0));
  checkCluster(Gemm, 0, Traced, true, E, R);
  R.set("bench.trace_overhead_share", 1 - Plain.Seconds / Traced.Seconds,
        "ratio");
  reportCluster(Plain, R);
  const cluster::ClusterStats &St = Plain.Res.Stats;
  // The shards' DseStats summed (ClusterStats), with the rung counts it
  // does not carry taken from the estimator counters.
  dse::DseStats Sum;
  Sum.Explored = St.Explored;
  Sum.Accepted = St.Accepted;
  Sum.Estimated = St.Estimated;
  Sum.Pruned = St.Pruned;
  Sum.VerdictCacheHits = St.VerdictCacheHits;
  Sum.EstimateCacheHits = St.EstimateCacheHits;
  Sum.LowFidelityEstimates =
      static_cast<size_t>(Plain.Counts.Coarse + Plain.Counts.Medium);
  Sum.ExactEstimates = static_cast<size_t>(Plain.Counts.Exact);
  reportDseStats(Sum, R);

  std::mt19937_64 Rng(O.Seed);
  std::vector<ConfigRef> Sample = sampleConfigs(Gemm, 0, 600, Rng);
  std::vector<std::pair<size_t, dse::Objectives>> Points;
  for (const dse::FrontPoint &P : Plain.Res.Points)
    Points.emplace_back(P.Index, P.Obj);
  replayConfigs(Sample, true, 40, R);
  replayFrontInserts(Points);
  replayMerge(Plain.Res.Points);
  std::vector<ConfigRef> Few(Sample.begin(), Sample.begin() + 150);
  std::vector<Planned> Stream = controlStream(Few, E, 20);
  replayService(Stream);
  controlTcp(Stream, E, R);
  setTracing(false);

  std::map<std::string, LayerTotals> T = finishSpans(O);
  reportLayers(T, R);
  // Accounting over the workers' busy time (each sweeps on one thread).
  CallCounts C = countsOf(Sum, /*EstimateRejected=*/true);
  C.Coarse = Plain.Counts.Coarse;
  C.Medium = Plain.Counts.Medium;
  double Busy = 0;
  for (double B : Plain.Busy)
    Busy += B;
  R.set("dse.unattributed_share", unattributedShare(T, C, Busy), "ratio");
}

} // namespace perfbench
