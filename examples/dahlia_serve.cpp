//===- dahlia_serve.cpp - The streaming compile server ----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// A long-lived front end over CompileService speaking the line-delimited
// JSON protocol of src/service/Protocol.h (see docs/protocol.md):
//
//   dahlia-serve                      serve stdin -> stdout
//   dahlia-serve --port 9000          concurrent TCP server on 127.0.0.1
//                                     (--port 0 picks an ephemeral port;
//                                     the bound port is announced on
//                                     stderr either way)
//   ... --threads N                   epoch worker threads
//   ... --batch N                     epoch size cap (default 64)
//   ... --cache-dir DIR               persistent memo cache (default
//                                     .dahlia-cache; "" disables)
//   ... --no-memoize                  disable the in-memory memo cache too
//   ... --write-buffer BYTES          per-connection write-buffer cap, the
//                                     TCP back-pressure threshold
//                                     (default 1 MiB)
//   ... --max-connections N           concurrent TCP connection cap
//                                     (default 256)
//   ... --stats                       print lifetime stats JSON to stderr
//                                     at exit
//   ... --trace-out FILE              record spans into the journal and
//                                     write them as a Chrome trace-event
//                                     JSON file at shutdown (load it in
//                                     Perfetto; see docs/observability.md)
//   ... --metrics-port P              serve the metrics registry on
//                                     127.0.0.1:P (0 picks an ephemeral
//                                     port, announced on stderr): an HTTP
//                                     GET /metrics answers JSON, or
//                                     Prometheus text exposition with
//                                     ?format=prom (or an Accept header
//                                     preferring text/plain); a bare
//                                     connect still gets one JSON line
//   ... --journal-out FILE            record the structured JSONL search
//                                     journal of every dse-sweep served;
//                                     explain it with dahlia-dse-report
//   ... --slow-request-ms N           log one structured JSON line to
//                                     stderr for every request slower
//                                     than N ms
//   ... --help                        this summary
//
// SIGINT/SIGTERM stop the TCP server gracefully: connections drain, the
// persistent cache saves, and --trace-out flushes before exit.
//
// TCP mode multiplexes every connection on one event loop
// (service::TcpServer): request lines from different clients coalesce
// into the same parallel epoch, and large dse-sweep/simulate responses
// stream back as chunked line-JSON under the bounded write buffer.
// stdin/stdout mode serves a single stream with the same epoch batching.
//
//===----------------------------------------------------------------------===//

#include "service/TcpServer.h"

#include "dse/Journal.h"
#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/Socket.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define DAHLIA_HAVE_SOCKETS 1
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace dahlia;
using namespace dahlia::service;

namespace {

const char *kUsage =
    "usage: dahlia-serve [--port P] [--threads N] [--batch N] "
    "[--cache-dir DIR] [--no-memoize] [--write-buffer BYTES] "
    "[--max-connections N] [--stats] [--trace-out FILE] "
    "[--journal-out FILE] [--metrics-port P] [--slow-request-ms N] "
    "[--help]\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

/// The running TCP server, for the signal handler. EventLoop::stop only
/// stores an atomic flag and writes one byte to the loop's self-pipe —
/// both async-signal-safe — so a SIGINT mid-epoch still drains cleanly.
std::atomic<TcpServer *> GServer{nullptr};

void onSignal(int) {
  if (TcpServer *S = GServer.load())
    S->stop();
}

#ifdef DAHLIA_HAVE_SOCKETS
/// One --metrics-port connection. The endpoint sniffs the protocol for
/// compatibility: an HTTP `GET /metrics` gets a proper HTTP response —
/// the JSON snapshot by default, Prometheus text exposition when the
/// request carries `?format=prom` (or an Accept header preferring
/// text/plain or OpenMetrics) — while a bare TCP connect that sends
/// nothing (the original contract) still gets one raw JSON line.
void serveMetricsConnection(int Fd) {
  // Give an HTTP client a beat to send its request line; a bare connect
  // sends nothing, times out, and falls through to the raw JSON line.
  struct timeval Tv;
  Tv.tv_sec = 0;
  Tv.tv_usec = 100 * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  char Buf[4096];
  ssize_t N = ::recv(Fd, Buf, sizeof(Buf) - 1, 0);
  std::string Req = N > 0 ? std::string(Buf, static_cast<size_t>(N))
                          : std::string();

  std::string Out;
  bool IsGet = Req.rfind("GET ", 0) == 0;
  bool IsHead = Req.rfind("HEAD ", 0) == 0;
  if (IsGet || IsHead) {
    bool WantProm = Req.find("format=prom") != std::string::npos;
    if (!WantProm) {
      // Content negotiation: an Accept header that asks for text/plain
      // or OpenMetrics (and not JSON) selects the Prometheus form.
      size_t A = Req.find("Accept:");
      if (A != std::string::npos) {
        std::string Accept = Req.substr(A, Req.find('\r', A) - A);
        WantProm = (Accept.find("text/plain") != std::string::npos ||
                    Accept.find("openmetrics") != std::string::npos) &&
                   Accept.find("application/json") == std::string::npos;
      }
    }
    std::string Body =
        WantProm ? metrics::prometheusText() : metrics::snapshot().dump() + "\n";
    Out = "HTTP/1.1 200 OK\r\nContent-Type: ";
    Out += WantProm ? "text/plain; version=0.0.4; charset=utf-8"
                    : "application/json";
    Out += "\r\nContent-Length: " + std::to_string(Body.size()) +
           "\r\nConnection: close\r\n\r\n";
    if (!IsHead)
      Out += Body;
  } else {
    Out = metrics::snapshot().dump() + "\n";
  }

  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t W = ::write(Fd, Out.data() + Off, Out.size() - Off);
    if (W <= 0)
      break;
    Off += static_cast<size_t>(W);
  }
  ::close(Fd);
}
#endif

/// Blocking accept loop of the --metrics-port endpoint. Detached; lives
/// until process exit.
void serveMetricsEndpoint(int ListenFd) {
#ifdef DAHLIA_HAVE_SOCKETS
  while (true) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    serveMetricsConnection(Fd);
  }
#else
  (void)ListenFd;
#endif
}

} // namespace

int main(int Argc, char **Argv) {
  ServiceOptions Opts;
  Opts.CacheDir = ".dahlia-cache";
  TcpServerOptions TcpOpts;
  int Port = -1; // -1 = stdio mode; 0 is a valid (ephemeral) TCP port.
  int MetricsPort = -1; // -1 = no metrics endpoint.
  bool PrintStats = false;
  std::string TraceOut;
  std::string JournalOut;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--help")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (!std::strcmp(Argv[I], "--port") && I + 1 < Argc) {
      // Strict parse: atoi would turn a typo like "9O00" into 0, which
      // is the (valid) ephemeral-port request — only a literal number
      // may select it.
      char *End = nullptr;
      long P = std::strtol(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || P < 0 || P > 65535) {
        std::fprintf(stderr, "dahlia-serve: invalid --port\n");
        return 2;
      }
      Port = static_cast<int>(P);
    } else if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc) {
      Opts.Threads = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (!std::strcmp(Argv[I], "--batch") && I + 1 < Argc) {
      int N = std::atoi(Argv[++I]);
      if (N <= 0) {
        std::fprintf(stderr, "dahlia-serve: invalid --batch\n");
        return 2;
      }
      Opts.MaxBatch = static_cast<size_t>(N);
    } else if (!std::strcmp(Argv[I], "--cache-dir") && I + 1 < Argc) {
      Opts.CacheDir = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--no-memoize")) {
      Opts.Memoize = false;
      Opts.CacheDir.clear();
    } else if (!std::strcmp(Argv[I], "--write-buffer") && I + 1 < Argc) {
      long long N = std::atoll(Argv[++I]);
      if (N <= 0) {
        std::fprintf(stderr, "dahlia-serve: invalid --write-buffer\n");
        return 2;
      }
      TcpOpts.MaxWriteBuffer = static_cast<size_t>(N);
    } else if (!std::strcmp(Argv[I], "--max-connections") && I + 1 < Argc) {
      int N = std::atoi(Argv[++I]);
      if (N <= 0) {
        std::fprintf(stderr, "dahlia-serve: invalid --max-connections\n");
        return 2;
      }
      TcpOpts.MaxConnections = static_cast<size_t>(N);
    } else if (!std::strcmp(Argv[I], "--stats")) {
      PrintStats = true;
    } else if (!std::strcmp(Argv[I], "--trace-out") && I + 1 < Argc) {
      TraceOut = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--journal-out") && I + 1 < Argc) {
      JournalOut = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--metrics-port") && I + 1 < Argc) {
      char *End = nullptr;
      long P = std::strtol(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || P < 0 || P > 65535) {
        std::fprintf(stderr, "dahlia-serve: invalid --metrics-port\n");
        return 2;
      }
      MetricsPort = static_cast<int>(P);
    } else if (!std::strcmp(Argv[I], "--slow-request-ms") && I + 1 < Argc) {
      char *End = nullptr;
      double Ms = std::strtod(Argv[++I], &End);
      if (End == Argv[I] || *End != '\0' || Ms < 0) {
        std::fprintf(stderr, "dahlia-serve: invalid --slow-request-ms\n");
        return 2;
      }
      Opts.SlowRequestMs = Ms;
    } else {
      return usage();
    }
  }

  if (!JournalOut.empty() && !eventlog::journalStart(JournalOut)) {
    std::fprintf(stderr, "dahlia-serve: cannot write journal '%s'\n",
                 JournalOut.c_str());
    return 2;
  }
  if (!TraceOut.empty() && JournalOut.empty())
    eventlog::journalStartBuffered();

  if (MetricsPort >= 0) {
    int MetricsFd = listenLoopback(MetricsPort);
    if (MetricsFd < 0) {
      std::fprintf(stderr,
                   "dahlia-serve: bind/listen for --metrics-port failed\n");
      return 1;
    }
    std::fprintf(stderr, "dahlia-serve: metrics on 127.0.0.1:%d\n",
                 boundPort(MetricsFd));
    std::thread(serveMetricsEndpoint, MetricsFd).detach();
  }

  int Rc = 0;
  {
    CompileService Svc(Opts);
    if (Port >= 0) {
      TcpOpts.Port = Port;
      TcpServer Server(Svc, TcpOpts);
      std::string Err;
      if (!Server.start(&Err)) {
        std::fprintf(stderr, "dahlia-serve: %s\n", Err.c_str());
        Rc = 1;
      } else {
        std::fprintf(stderr, "dahlia-serve: listening on 127.0.0.1:%d\n",
                     Server.port());
        GServer.store(&Server);
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        Server.run();
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);
        GServer.store(nullptr);
      }
    } else {
      Svc.serveStream(std::cin, std::cout);
    }
    if (PrintStats)
      std::fprintf(stderr, "%s\n", Svc.stats().toJson().dump().c_str());
  } // ~CompileService saves the persistent cache.

  // Stop after the service is destroyed so the shutdown cache-save spans
  // make it into the journal and the trace.
  if (TraceOut.empty()) {
    eventlog::journalStop();
  } else if (!dse::journal::writeSpanTrace(TraceOut, JournalOut)) {
    std::fprintf(stderr, "dahlia-serve: cannot write trace '%s'\n",
                 TraceOut.c_str());
    Rc = Rc ? Rc : 1;
  }
  return Rc;
}
