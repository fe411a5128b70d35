//===- Layers.h - Per-layer replays of the traced run -----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer measurements. Each replay calls one
/// module's public functions on the workload's own inputs, on one thread,
/// inside spans (Spans.h); reportLayers turns the spans' self times into
/// the per-layer metrics. Every workload's traced run goes through the
/// same replays, so a layer a workload does not stress still reads the
/// same on it (the control). Also here: the request streams, reply checks
/// and in-process servers that service-mixed and the controls share.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"
#include "Spans.h"

#include "dse/SearchStrategy.h"
#include "service/Protocol.h"
#include "service/TcpServer.h"

#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One configuration of one space. \c Trace is the id its spans carry.
struct ConfigRef {
  const SpaceDesc *Space = nullptr;
  size_t Index = 0;
  uint64_t Trace = 0;
};

/// Trace id of config \p I of space number \p SpaceNo (unique per run).
inline uint64_t configTrace(size_t SpaceNo, size_t I) {
  return (static_cast<uint64_t>(SpaceNo) << 32) | I;
}

/// \p N configs drawn without replacement from the first \p Limit configs
/// of \p Space (all of them when \p Limit is 0), in seeded order.
std::vector<ConfigRef> sampleConfigs(const SpaceDesc &Space, size_t Limit,
                                     size_t N, std::mt19937_64 &Rng);

/// The engine's per-config call sequence on one thread (source, pipeline
/// check and, for a config the engine estimates, spec, spec hash and Full
/// estimate), then the layers inside and beside it (lex, parse, sema,
/// spec extraction, the Coarse and Medium rungs and, for the first
/// \p MaxSimulations configs, the cycle-level simulator), then the memo
/// cache with the sample's verdict and estimate keys. Sets
/// sema.accept_ratio in \p R.
void replayConfigs(const std::vector<ConfigRef> &Sample,
                   bool EstimateRejected, size_t MaxSimulations,
                   RunReport &R);

/// ParetoFront::insertEx over \p Points in order (one batch span).
void replayFrontInserts(
    const std::vector<std::pair<size_t, dse::Objectives>> &Points);

/// mergeFrontPoints over \p Points (one span).
void replayMerge(const std::vector<dse::FrontPoint> &Points);

/// What a request asks about one config.
enum class Form { Check, Session, Recheck, Estimate, Simulate };

/// "check", "session", "recheck", "estimate" or "simulate".
const char *formName(Form F);

/// One request of a stream: its id, form and config, so its reply can be
/// checked against the expected results. A Session request establishes
/// the space's session (named after the space) from config 0; a Recheck
/// rewrites that session's parse into config \c Index.
struct Planned {
  int64_t Id = 0;
  Form F = Form::Check;
  const SpaceDesc *Space = nullptr;
  size_t Index = 0;
};

/// The protocol request \p P describes.
service::Request requestOf(const Planned &P);

/// A control request stream over \p Sample: one session per space, then
/// per config a check and a session re-check, then an estimate and a
/// simulate for about \p MaxEstimates accepted configs of the same spaces.
std::vector<Planned> controlStream(const std::vector<ConfigRef> &Sample,
                                   const Expected &E, size_t MaxEstimates);

/// Checks one reply against the expected results; sets \p Why on a
/// mismatch.
bool checkReply(const Planned &P, const service::Response &Resp,
                const Expected &E, std::string &Why);

/// Request::toJson().dump(), CompileService::handle (fresh single-thread
/// service) and decodeResponse over \p Stream, in order. Returns the
/// share of the time in handle that the lower layers it called (lex,
/// parse, check, spec extraction, estimator, simulator; re-run afterwards
/// on the same inputs) do not account for.
double replayService(const std::vector<Planned> &Stream);

/// Calls into the layers below the engine, for the accounting check
/// (dse.unattributed_share).
struct CallCounts {
  double Sources = 0, Checks = 0, Specs = 0;
  double Coarse = 0, Medium = 0, Full = 0, Exact = 0;
  double CacheLookups = 0, CacheInserts = 0, FrontInserts = 0;
};

/// Estimator calls counted by the library's process-wide metrics
/// registry (every in-process worker included); subtract two readings
/// to count a phase.
struct EstimatorCounts {
  double Coarse = 0, Medium = 0, Full = 0, Exact = 0, Pruned = 0;
  static EstimatorCounts now();
  EstimatorCounts operator-(const EstimatorCounts &B) const {
    return {Coarse - B.Coarse, Medium - B.Medium, Full - B.Full,
            Exact - B.Exact, Pruned - B.Pruned};
  }
};

/// The counts of an exhaustive or pruned sweep from its DseStats.
CallCounts countsOf(const dse::DseStats &S, bool EstimateRejected);

/// 1 - sum(replayed per-call self time x count) / \p WallSeconds.
double unattributedShare(const std::map<std::string, LayerTotals> &T,
                         const CallCounts &C, double WallSeconds);

/// Fills every per-layer metric that comes from the replays' spans.
void reportLayers(const std::map<std::string, LayerTotals> &T, RunReport &R);

/// An in-process compile server: a CompileService with \p Threads epoch
/// threads behind a TcpServer that runs on its own loop thread.
class LoopbackServer {
public:
  explicit LoopbackServer(unsigned Threads);
  ~LoopbackServer() { stop(); }
  LoopbackServer(const LoopbackServer &) = delete;
  LoopbackServer &operator=(const LoopbackServer &) = delete;

  /// True when the server is listening (or was, before stop()).
  bool ok() const { return Started; }
  int port() const { return Tcp.port(); }
  /// Stops and joins the loop thread; the stats stay readable.
  void stop();

  const service::CompileService &service() const { return Svc; }
  const service::TcpServer &tcp() const { return Tcp; }

private:
  service::CompileService Svc;
  service::TcpServer Tcp;
  bool Started = false;
  std::thread Loop;
};

/// The service's transport layers on a control stream: a loopback
/// TcpServer (2 epoch threads) answering \p Stream over 4 closed-loop
/// connections. Fills the service.* metrics that come from ServiceStats,
/// TcpServerStats and reply latencies, and checks every reply.
void controlTcp(const std::vector<Planned> &Stream, const Expected &E,
                RunReport &R);

/// The cluster layers on a control sweep: 2 in-process workers, the
/// first 2,000 configs of \p Space, exhaustive. Fills the cluster.*
/// metrics and checks the merged accepted set.
void controlCluster(const SpaceDesc &Space, const Expected &E, RunReport &R);

/// Sets the replays' spans aside in \p O.OutDir and returns their totals.
std::map<std::string, LayerTotals> finishSpans(const RunOptions &O);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
