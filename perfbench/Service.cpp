//===- Service.cpp - service-mixed: a closed loop against TcpServer -------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// One generator thread drives 4 loopback connections to an in-process
// TcpServer + CompileService (2 epoch threads). Each connection has one
// request outstanding and sends the next as soon as the reply arrives
// (closed loop, no think time), so a slower server receives less load.
// The request stream is drawn with the run's seed from the four spaces'
// sources: 60% check, 20% session re-check, 15% estimate and 5% simulate
// on accepted configs; each request repeats an earlier one with
// probability 0.5. Every reply is checked against the expected results.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "service/ServiceClient.h"
#include "support/Socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <thread>

namespace perfbench {

namespace {

constexpr unsigned kConnections = 4;
constexpr unsigned kEpochThreads = 2;
/// A connection whose reply takes longer than this is given up on: its
/// request counts as a missing reply.
constexpr double kReplyTimeoutSeconds = 30;

/// A compile server with closed-loop client connections.
class ServerHarness {
public:
  ServerHarness() : Server(kEpochThreads) {
    if (!Server.ok())
      return;
    for (unsigned I = 0; I != kConnections; ++I) {
      int Fd = connectLoopback(Server.port());
      if (Fd < 0)
        return;
      Fds.push_back(Fd);
    }
  }
  ~ServerHarness() { stop(); }
  ServerHarness(const ServerHarness &) = delete;
  ServerHarness &operator=(const ServerHarness &) = delete;

  bool ok() const { return Fds.size() == kConnections; }

  /// Closes the client connections and stops the server; stats stay
  /// readable afterwards.
  void stop() {
    for (int Fd : Fds)
      closeFd(Fd);
    Fds.clear();
    Server.stop();
  }

  LoopbackServer Server;
  std::vector<int> Fds;
};

/// One request as the generator sent it.
struct Record {
  Planned P;
  uint64_t SendNs = 0, RecvNs = 0;
  double ServerMs = 0;
  bool Replied = false;
};

struct LoopLog {
  std::vector<Record> Records;
};

bool sendLine(int Fd, const std::string &Line) {
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::send(Fd, Line.data() + Off, Line.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Drives the closed loop until \p Next returns false and every reply is
/// in. Each connection keeps one request outstanding. Replies are checked
/// into \p R; with \p DropReply the reply to the 100th request is thrown
/// away (the self-test), which must show up as a missing reply.
void closedLoop(ServerHarness &H, const std::function<bool(Planned &)> &Next,
                const Expected &E, RunReport &R, LoopLog &Log,
                bool DropReply) {
  struct Conn {
    int Fd;
    std::string In;
    bool Busy = false;
    size_t Rec = 0;
  };
  std::vector<Conn> Conns;
  for (int Fd : H.Fds)
    Conns.push_back({Fd, {}, false, 0});
  bool More = true;
  uint64_t LastProgress = nowNs();
  size_t Dropped = 0;
  for (;;) {
    for (Conn &C : Conns) {
      if (C.Busy || !More)
        continue;
      Planned P;
      if (!Next(P)) {
        More = false;
        break;
      }
      std::string Line = requestOf(P).toJson().dump() + "\n";
      Record Rec;
      Rec.P = P;
      Rec.SendNs = nowNs();
      C.Rec = Log.Records.size();
      Log.Records.push_back(Rec);
      C.Busy = sendLine(C.Fd, Line);
      if (!C.Busy)
        C.Fd = -1; // Connection lost: the request stays unanswered.
    }
    Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                               [](const Conn &C) { return C.Fd < 0; }),
                Conns.end());
    std::vector<pollfd> Pfds;
    std::vector<Conn *> Polled;
    for (Conn &C : Conns)
      if (C.Busy) {
        Pfds.push_back({C.Fd, POLLIN, 0});
        Polled.push_back(&C);
      }
    if (Pfds.empty())
      break;
    int N = ::poll(Pfds.data(), Pfds.size(), 0);
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0) {
      if (secondsSince(LastProgress) > kReplyTimeoutSeconds)
        break;
      continue;
    }
    for (size_t I = 0; I != Pfds.size(); ++I) {
      if (!(Pfds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Conn &C = *Polled[I];
      char Buf[1 << 14];
      ssize_t Got = ::read(C.Fd, Buf, sizeof(Buf));
      uint64_t Now = nowNs();
      if (Got <= 0) {
        C.Busy = false; // Connection lost: its request stays unanswered.
        C.Fd = -1;
        continue;
      }
      C.In.append(Buf, static_cast<size_t>(Got));
      size_t Nl = C.In.find('\n');
      if (Nl == std::string::npos)
        continue;
      std::string Line = C.In.substr(0, Nl);
      C.In.erase(0, Nl + 1);
      C.Busy = false;
      LastProgress = Now;
      Record &Rec = Log.Records[C.Rec];
      if (DropReply && C.Rec == 99 && !Dropped++)
        continue;
      Rec.RecvNs = Now;
      Rec.Replied = true;
      service::ClientResponse CR = service::decodeResponse(Line);
      Rec.ServerMs = CR.R.LatencyMs;
      recordSpan("client.request", static_cast<uint64_t>(CR.R.Id),
                 Rec.SendNs, Rec.RecvNs);
      std::string Why;
      R.check(checkReply(Rec.P, CR.R, E, Why), Why);
    }
    Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                               [](const Conn &C) { return C.Fd < 0; }),
                Conns.end());
  }
  for (const Record &Rec : Log.Records)
    if (!Rec.Replied)
      R.check(false, "missing reply to request " + std::to_string(Rec.P.Id));
}

/// The seeded service-mixed request stream.
class MixedStream {
public:
  MixedStream(uint64_t Seed, const Expected &E) : Rng(Seed), E(E) {}

  /// The session-establishing checks every re-check relies on.
  std::vector<Planned> sessions() {
    std::vector<Planned> Out;
    for (const SpaceDesc &D : spaces())
      Out.push_back({++NextId, Form::Session, &D, 0});
    return Out;
  }

  Planned next() {
    Planned P;
    std::uniform_real_distribution<double> U(0, 1);
    if (!History.empty() && U(Rng) < 0.5) {
      P = History[std::uniform_int_distribution<size_t>(
          0, History.size() - 1)(Rng)];
    } else {
      size_t S =
          std::uniform_int_distribution<size_t>(0, spaces().size() - 1)(Rng);
      const SpaceDesc &D = spaces()[S];
      const SpaceExpect &X = E.of(D.Name);
      double Op = U(Rng);
      P.Space = &D;
      if (Op < 0.80) {
        P.F = Op < 0.60 ? Form::Check : Form::Recheck;
        P.Index = std::uniform_int_distribution<size_t>(0, X.Size - 1)(Rng);
      } else {
        P.F = Op < 0.95 ? Form::Estimate : Form::Simulate;
        P.Index = X.AcceptedList[std::uniform_int_distribution<size_t>(
            0, X.AcceptedList.size() - 1)(Rng)];
      }
      History.push_back(P);
    }
    P.Id = ++NextId;
    return P;
  }

private:
  std::mt19937_64 Rng;
  const Expected &E;
  std::vector<Planned> History;
  int64_t NextId = 0;
};

/// Sends \p Plans (each once) through \p H.
void sendAll(ServerHarness &H, const std::vector<Planned> &Plans,
             const Expected &E, RunReport &R, LoopLog &Log) {
  size_t I = 0;
  closedLoop(
      H,
      [&](Planned &P) {
        if (I == Plans.size())
          return false;
        P = Plans[I++];
        return true;
      },
      E, R, Log, false);
}

/// Records with send time in [FromNs, ToNs) that got a reply.
std::vector<const Record *> window(const LoopLog &Log, uint64_t FromNs,
                                  uint64_t ToNs) {
  std::vector<const Record *> Out;
  for (const Record &Rec : Log.Records)
    if (Rec.Replied && Rec.SendNs >= FromNs && Rec.SendNs < ToNs)
      Out.push_back(&Rec);
  return Out;
}

/// The transport and service-stat metrics of one closed loop.
void reportTransport(const ServerHarness &H, const LoopLog &Log,
                     double WallSeconds, RunReport &R) {
  std::vector<double> Server, Wait;
  for (const Record &Rec : Log.Records) {
    if (!Rec.Replied)
      continue;
    double ClientMs = static_cast<double>(Rec.RecvNs - Rec.SendNs) * 1e-6;
    Server.push_back(Rec.ServerMs);
    Wait.push_back(ClientMs - Rec.ServerMs);
  }
  const service::ServiceStats &S = H.Server.service().stats();
  service::TcpServerStats T = H.Server.tcp().stats();
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  R.set("service.server_latency_p50_ms", median(Server), "ms");
  R.set("service.wait_p50_ms", median(Wait), "ms");
  R.set("service.busy_share", Ratio(S.BusySeconds, WallSeconds), "ratio");
  R.set("service.cache_hit_ratio", S.cacheHitRate(), "ratio");
  R.set("service.parse_reuse_ratio",
        Ratio(static_cast<double>(S.ParseReuses),
              static_cast<double>(S.Requests)),
        "ratio");
  R.set("service.lines_per_epoch",
        Ratio(static_cast<double>(T.RequestLines),
              static_cast<double>(T.Epochs)),
        "count");
  R.set("service.coalesced_share",
        Ratio(static_cast<double>(T.CoalescedEpochs),
              static_cast<double>(T.Epochs)),
        "ratio");
  R.set("service.bytes_per_request",
        Ratio(static_cast<double>(T.BytesRead + T.BytesWritten),
              static_cast<double>(T.RequestLines)),
        "bytes");
}

/// Writes the per-request log of a run: seed, op, config, send and
/// receive times.
void writeRequestLog(const RunOptions &O, const LoopLog &Log) {
  std::ofstream Out(O.OutDir + "/requests-" + O.Workload + "-seed" +
                    std::to_string(O.Seed) + ".tsv");
  Out << "# seed " << O.Seed << "\nid\top\tspace\tconfig\tsend_ns\trecv_ns"
      << "\tserver_ms\n";
  for (const Record &Rec : Log.Records) {
    const Planned &P = Rec.P;
    Out << P.Id << '\t' << formName(P.F) << '\t' << P.Space->Name << '\t'
        << P.Index << '\t' << Rec.SendNs << '\t'
        << (Rec.Replied ? Rec.RecvNs : 0) << '\t' << Rec.ServerMs << '\n';
  }
}

/// A started server whose sessions are established: the set-up every
/// service-mixed phase needs before its first timed request.
std::unique_ptr<ServerHarness> startServer(MixedStream &Stream,
                                           const Expected &E, RunReport &R) {
  auto H = std::make_unique<ServerHarness>();
  if (!H->ok()) {
    R.check(false, "server did not start");
    return nullptr;
  }
  LoopLog Log;
  sendAll(*H, Stream.sessions(), E, R, Log);
  return H;
}

/// One timed closed-loop phase of the mixed stream on a started server:
/// \p WarmSeconds of discarded warm-up, then \p Seconds measured.
struct MixedRun {
  LoopLog Log;
  std::vector<const Record *> Measured;
  uint64_t MeasureFrom = 0;
};

void runMixed(ServerHarness &H, MixedStream &Stream, double WarmSeconds,
              double Seconds, const Expected &E, RunReport &R, bool DropReply,
              MixedRun &Out) {
  uint64_t Start = nowNs();
  uint64_t MeasureFrom = Start + static_cast<uint64_t>(WarmSeconds * 1e9);
  uint64_t Stop = MeasureFrom + static_cast<uint64_t>(Seconds * 1e9);
  closedLoop(
      H,
      [&](Planned &P) {
        if (nowNs() >= Stop)
          return false;
        P = Stream.next();
        return true;
      },
      E, R, Out.Log, DropReply);
  Out.Measured = window(Out.Log, MeasureFrom, Stop);
  Out.MeasureFrom = MeasureFrom;
}

/// Per one-second window of a measured phase (by send time): replies per
/// second and the latency median and p99. Reporting the median over the
/// windows keeps a stall of the shared host from moving a whole run's
/// tail.
struct WindowStats {
  std::vector<double> Rates, P50, P99;
};

WindowStats perSecond(const MixedRun &Run) {
  std::map<uint64_t, std::vector<double>> Windows;
  for (const Record *Rec : Run.Measured)
    Windows[(Rec->SendNs - Run.MeasureFrom) / 1000000000].push_back(
        static_cast<double>(Rec->RecvNs - Rec->SendNs) * 1e-6);
  WindowStats W;
  for (auto &[Second, Lat] : Windows) {
    W.Rates.push_back(static_cast<double>(Lat.size()));
    W.P50.push_back(median(Lat));
    W.P99.push_back(percentile(Lat, 0.99));
  }
  return W;
}

service::ServiceOptions serviceOptions(unsigned Threads) {
  service::ServiceOptions SO;
  SO.Threads = Threads;
  return SO;
}

} // namespace

LoopbackServer::LoopbackServer(unsigned Threads)
    : Svc(serviceOptions(Threads)), Tcp(Svc) {
  std::string Err;
  if (!Tcp.start(&Err)) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n", Err.c_str());
    return;
  }
  Started = true;
  Loop = std::thread([this] { Tcp.run(); });
}

void LoopbackServer::stop() {
  if (!Loop.joinable())
    return;
  Tcp.stop();
  Loop.join();
}

void controlTcp(const std::vector<Planned> &Stream, const Expected &E,
                RunReport &R) {
  ServerHarness H;
  if (!H.ok()) {
    R.check(false, "control server did not start");
    return;
  }
  LoopLog Log;
  uint64_t Start = nowNs();
  // Sessions first: every re-check of the stream relies on them.
  std::vector<Planned> Sessions, Rest;
  for (const Planned &P : Stream)
    (P.F == Form::Session ? Sessions : Rest).push_back(P);
  sendAll(H, Sessions, E, R, Log);
  sendAll(H, Rest, E, R, Log);
  double Wall = secondsSince(Start);
  H.stop();
  reportTransport(H, Log, Wall, R);
}

void runServiceMixed(const RunOptions &O, const Expected &E, RunReport &R) {
  // Set-up: server construction, start, the 4 connections and the
  // session-establishing requests, measured several times; the last
  // server serves the run.
  MixedStream Stream(O.Seed, E);
  std::vector<double> Setups;
  std::unique_ptr<ServerHarness> H;
  for (int I = 0; I != kSetupRepeats; ++I) {
    H.reset();
    uint64_t Start = nowNs();
    H = startServer(Stream, E, R);
    Setups.push_back(secondsSince(Start));
    if (!H)
      return;
  }
  double Warm = std::min(2.0, 0.2 * O.Seconds);

  if (!O.Trace) {
    MixedRun Run;
    runMixed(*H, Stream, Warm, O.Seconds, E, R, O.DropReply, Run);
    H->stop();
    WindowStats W = perSecond(Run);
    R.set("requests_per_s", median(W.Rates), "1/s");
    R.set("configs_per_s", median(W.Rates), "1/s");
    R.set("latency_p50_ms", median(W.P50), "ms");
    R.set("latency_p99_ms", median(W.P99), "ms");
    R.set("setup_s", median(Setups), "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    std::map<std::string, size_t> Mix;
    for (const Record &Rec : Run.Log.Records)
      ++Mix[formName(Rec.P.F)];
    std::string MixLine = "service-mixed: seed " + std::to_string(O.Seed) +
                          ", " + std::to_string(Run.Log.Records.size()) +
                          " requests sent, " +
                          std::to_string(Run.Measured.size()) +
                          " latency samples after warm-up in " +
                          std::to_string(W.Rates.size()) +
                          " one-second windows; mix";
    for (const auto &[Op, N] : Mix)
      MixLine += " " + Op + "=" + std::to_string(N);
    R.Notes.push_back(MixLine);
    writeRequestLog(O, Run.Log);
    return;
  }

  // Traced run: the same loop untraced and then traced, each on a fresh
  // server for half the time, so the overhead compares like with like.
  double Half = O.Seconds / 2;
  MixedRun Plain;
  runMixed(*H, Stream, Warm, Half, E, R, false, Plain);
  H->stop();
  MixedStream TracedStream(O.Seed, E);
  std::unique_ptr<ServerHarness> TracedServer = startServer(TracedStream, E, R);
  if (!TracedServer)
    return;
  ServerHarness &Traced = *TracedServer;
  EstimatorCounts Before = EstimatorCounts::now();
  setTracing(true);
  MixedRun Run;
  uint64_t Start = nowNs();
  runMixed(Traced, TracedStream, Warm, Half, E, R, false, Run);
  double Wall = secondsSince(Start);
  EstimatorCounts Counts = EstimatorCounts::now() - Before;
  Traced.stop();
  reportTransport(Traced, Run.Log, Wall, R);
  double PlainRate = median(perSecond(Plain).Rates);
  R.set("bench.trace_overhead_share",
        PlainRate > 0 ? 1 - median(perSecond(Run).Rates) / PlainRate : 0,
        "ratio");

  // Layer replays on the configs and requests the traced loop sent.
  std::vector<Planned> Sent;
  for (const Record &Rec : Run.Log.Records)
    if (Sent.size() < 3000)
      Sent.push_back(Rec.P);
  double Unattributed = replayService(Sent);
  std::vector<ConfigRef> Sample;
  std::set<uint64_t> Seen, Estimated;
  std::vector<std::pair<size_t, dse::Objectives>> Points;
  std::vector<dse::FrontPoint> Front;
  for (const Record &Rec : Run.Log.Records) {
    const Planned &P = Rec.P;
    size_t SpaceNo = static_cast<size_t>(P.Space - spaces().data());
    uint64_t Trace = configTrace(SpaceNo, P.Index);
    if (Sample.size() < 400 && Seen.insert(Trace).second)
      Sample.push_back({P.Space, P.Index, Trace});
    if (P.F == Form::Estimate && Estimated.insert(Trace).second) {
      const AcceptedExpect &X = E.of(P.Space->Name).Objs.at(P.Index);
      Points.emplace_back(Trace, X.SvcEstimate);
      Front.push_back({Trace, X.SvcEstimate, true});
    }
  }
  replayConfigs(Sample, false, 40, R);
  replayFrontInserts(Points);
  replayMerge(Front);
  controlCluster(spaces()[0], E, R);
  setTracing(false);

  std::map<std::string, LayerTotals> T = finishSpans(O);
  reportLayers(T, R);
  size_t Requests = Run.Log.Records.size();
  auto PerRequest = [&](double N) { return Requests ? N / Requests : 0.0; };
  const dse::DseCache &Cache = *Traced.Server.service().cache();
  size_t Verdicts = 0, Estimates = 0;
  for (const Record &Rec : Run.Log.Records)
    (Rec.P.F == Form::Estimate || Rec.P.F == Form::Simulate ? Estimates
                                                              : Verdicts) += 1;
  R.set("dse.verdict_hit_ratio",
        Verdicts ? static_cast<double>(Cache.verdictHits()) / Verdicts : 0,
        "ratio");
  R.set("dse.estimate_hit_ratio",
        Estimates ? static_cast<double>(Cache.estimateHits()) / Estimates : 0,
        "ratio");
  R.set("dse.full_estimate_fraction", PerRequest(Counts.Full), "ratio");
  R.set("dse.low_fidelity_estimates", Counts.Coarse + Counts.Medium, "count");
  R.set("dse.exact_estimates", Counts.Exact, "count");
  R.set("dse.pruned", Counts.Pruned, "count");
  R.set("dse.unattributed_share", Unattributed, "ratio");
}

} // namespace perfbench
