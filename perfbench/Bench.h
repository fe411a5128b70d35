//===- Bench.h - Shared pieces of the repository benchmark ------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep spaces the workloads draw from, the expected-results file
/// every run is checked against, and the run context (options, metrics,
/// attempted/failed counts) the workloads fill in.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "dse/DseEngine.h"
#include "service/Protocol.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using namespace dahlia;

//===----------------------------------------------------------------------===//
// Spaces
//===----------------------------------------------------------------------===//

/// One of the paper's four fixed design spaces.
struct SpaceDesc {
  const char *Name; ///< The dse-sweep protocol name ("gemm-blocked", ...).
  dse::DseProblem (*Problem)();
  /// The session rewrite that turns any parsed config of this space into
  /// config \p I (every banked memory and every unrolled loop is named).
  service::Rewrite (*RewriteTo)(size_t I);
};

/// gemm-blocked (Fig 7), stencil2d, md-knn, md-grid (Fig 8), in that order.
const std::vector<SpaceDesc> &spaces();
const SpaceDesc &space(const std::string &Name);

//===----------------------------------------------------------------------===//
// Expected results
//===----------------------------------------------------------------------===//

/// The fig7 front hashes committed in the repository's regression
/// baselines; the expected file must carry exactly these.
inline constexpr const char *kFig7FrontHash = "0x9631c78d9cd7f284";
inline constexpr const char *kFig7AcceptedFrontHash = "0x7b9561025c211f7d";

struct AcceptedExpect {
  dse::Objectives Full, Exact;          ///< DSE spec at Full / Exact.
  dse::Objectives SvcEstimate, SvcSimulate; ///< Service estimate/simulate.
};

struct SpaceExpect {
  size_t Size = 0;
  std::vector<uint8_t> Accepted; ///< Type-checker verdict per config.
  std::vector<size_t> AcceptedList;
  std::map<size_t, AcceptedExpect> Objs; ///< Keyed by accepted index.
  std::string FrontHash, AcceptedFrontHash; ///< Exhaustive sweep.
};

struct Expected {
  std::map<std::string, SpaceExpect> Spaces;
  /// gemm-blocked under halving + exact top rung (cluster-halving).
  std::string ExactFrontHash, ExactAcceptedFrontHash;

  const SpaceExpect &of(const std::string &Space) const {
    return Spaces.at(Space);
  }
  bool load(const std::string &Path, std::string &Err);
};

/// Recomputes every expected result from the current code and writes the
/// file. Fails (returns false) when the fig7 hashes differ from the
/// committed baselines or when a session re-check disagrees with a fresh
/// check of the same config.
bool generateExpected(const std::string &Path);

//===----------------------------------------------------------------------===//
// Run context
//===----------------------------------------------------------------------===//

/// Set-up is measured this many times per run; the median is reported.
inline constexpr int kSetupRepeats = 15;

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir;       ///< Where spans and request logs go.
  bool DropReply = false;   ///< Self-test: service-mixed loses one reply.
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run reports.
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Human-readable lines printed before the result object.
  std::vector<std::string> Notes;

  void set(const std::string &Name, double V, const std::string &Unit) {
    Metrics[Name] = {V, Unit};
  }
  /// Records one checked operation; \p Ok false counts it as failed and
  /// keeps \p Why for the log.
  void check(bool Ok, const std::string &Why);
};

double median(std::vector<double> V);
/// Nearest-rank percentile, \p Q in [0, 1].
double percentile(std::vector<double> V, double Q);
double peakRssMb();
unsigned hardwareThreads();

/// Seconds of steady-clock time since \p StartNs.
double secondsSince(uint64_t StartNs);

/// The end-to-end workloads. Each fills the end-to-end metrics (trace off)
/// or the per-layer metrics (trace on) of \p R.
void runFig7Exhaustive(const RunOptions &O, const Expected &E, RunReport &R);
void runFig8Accepted(const RunOptions &O, const Expected &E, RunReport &R);
void runClusterHalving(const RunOptions &O, const Expected &E, RunReport &R);
void runServiceMixed(const RunOptions &O, const Expected &E, RunReport &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
