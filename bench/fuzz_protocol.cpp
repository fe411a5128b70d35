//===- fuzz_protocol.cpp - dahlia-fuzz-proto: hostile-client soak ---------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The protocol fuzzer and hostile-client soak for the compile server.
// Boots a real TcpServer + CompileService in-process, then throws seeded
// rounds of hostile connections at it — garbage frames, truncated JSON,
// oversized lines, byte-dribbled requests, deeply nested JSON bombs,
// half-open connections, abandoned sockets, request floods, blank-line
// storms — while well-behaved ServiceClient threads keep running real
// compile batches the whole time. The oracle (src/fuzz/ProtoFuzz.h) is
// liveness + the one-response-per-request contract: hostile traffic may
// be rejected, but it must never stall, crash, or corrupt a well-behaved
// client. Run it under ASan/TSan and the whole client/server dance is in
// one process, so the sanitizers see everything.
//
//   dahlia-fuzz-proto --seed 1 --rounds 8        # one deterministic soak
//   dahlia-fuzz-proto --self-test                # prove the oracle bites
//
// Exit codes: 0 clean (or sockets unavailable — reported as skipped),
// 1 failures found, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "dse/Journal.h"
#include "fuzz/ProtoFuzz.h"
#include "support/EventLog.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace dahlia;
using namespace dahlia::fuzz;

namespace {

const char *kUsage =
    "usage: dahlia-fuzz-proto [--seed N] [--rounds N] [--time-budget SECONDS]\n"
    "                         [--cluster] [--limit N] [--json PATH]\n"
    "                         [--self-test] [--trace-out PATH] [--help]\n"
    "\n"
    "  --seed N          seed for the attack schedule (default 1)\n"
    "  --rounds N        hostile rounds per soak; each round runs every\n"
    "                    attack once (default 4)\n"
    "  --time-budget S   rerun soaks with stepped seeds until S seconds\n"
    "                    elapse (nightly mode)\n"
    "  --cluster         cluster dialect: hostile workers (garbage or\n"
    "                    duplicate chunks, premature stream_end, killed or\n"
    "                    scripted workers) against a real DSE cluster\n"
    "                    coordinator; the oracle is liveness plus\n"
    "                    exact-front-or-structured-error\n"
    "  --limit N         cluster dialect sweep size per run (default 80)\n"
    "  --json PATH       write the JSON report to PATH ('-' = stdout)\n"
    "  --self-test       prove the harness catches a swallowed truncated\n"
    "                    frame (exit 0 iff it does)\n"
    "  --trace-out PATH  write a Chrome trace of the soak\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

int selfTest(const ProtoFuzzOptions &Base) {
  ProtoFuzzOptions Clean = Base;
  Clean.Rounds = 2;
  Clean.InjectSwallowTruncated = false;
  ProtoFuzzReport Healthy = runProtoFuzz(Clean);
  if (Healthy.Stats.Skipped) {
    std::printf("dahlia-fuzz-proto --self-test SKIPPED: no socket support "
                "on this platform\n");
    return 0;
  }
  if (!Healthy.clean()) {
    std::fprintf(stderr,
                 "dahlia-fuzz-proto --self-test: baseline soak is not clean "
                 "(%zu failures) — fix those first\n",
                 Healthy.Failures.size());
    std::printf("%s\n", Healthy.toJson().dump().c_str());
    return 1;
  }
  // A server that silently swallows a truncated frame (simulated by the
  // harness suppressing its own probe) must be flagged.
  ProtoFuzzOptions Broken = Base;
  Broken.Rounds = 2;
  Broken.InjectSwallowTruncated = true;
  ProtoFuzzReport Caught = runProtoFuzz(Broken);
  size_t Hits = 0;
  for (const ProtoFailure &F : Caught.Failures)
    if (F.Attack == "truncated-frame")
      ++Hits;
  if (Hits == 0) {
    std::fprintf(stderr,
                 "dahlia-fuzz-proto --self-test: FAILED — an injected "
                 "swallowed-truncated-frame fault went undetected\n");
    return 1;
  }
  std::printf("dahlia-fuzz-proto --self-test OK: injected swallowed "
              "truncated frame caught %zu time(s)\n",
              Hits);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ProtoFuzzOptions O;
  ClusterFuzzOptions CO;
  double TimeBudget = 0;
  const char *JsonOut = nullptr;
  const char *TraceOut = nullptr;
  bool SelfTest = false;
  bool Cluster = false;
  bool RoundsSet = false;

  for (int I = 1; I < Argc; ++I) {
    auto Val = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "dahlia-fuzz-proto: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--help")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (!std::strcmp(Argv[I], "--seed")) {
      O.Seed = std::strtoull(Val("--seed"), nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--rounds")) {
      O.Rounds = static_cast<int>(std::strtol(Val("--rounds"), nullptr, 10));
      RoundsSet = true;
    } else if (!std::strcmp(Argv[I], "--cluster")) {
      Cluster = true;
    } else if (!std::strcmp(Argv[I], "--limit")) {
      CO.Limit = static_cast<size_t>(
          std::strtoull(Val("--limit"), nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--time-budget")) {
      TimeBudget = std::strtod(Val("--time-budget"), nullptr);
    } else if (!std::strcmp(Argv[I], "--json")) {
      JsonOut = Val("--json");
    } else if (!std::strcmp(Argv[I], "--self-test")) {
      SelfTest = true;
    } else if (!std::strcmp(Argv[I], "--trace-out")) {
      TraceOut = Val("--trace-out");
    } else {
      std::fprintf(stderr, "dahlia-fuzz-proto: unknown argument '%s'\n",
                   Argv[I]);
      return usage();
    }
  }

  if (TraceOut)
    eventlog::journalStartBuffered();

  int Rc = 0;
  if (SelfTest) {
    Rc = selfTest(O);
  } else {
    CO.Seed = O.Seed;
    if (RoundsSet)
      CO.Rounds = O.Rounds;
    ProtoFuzzReport R;
    ProtoFuzzOptions Step = O;
    ClusterFuzzOptions ClusterStep = CO;
    auto Start = std::chrono::steady_clock::now();
    while (true) {
      ProtoFuzzReport Soak =
          Cluster ? runClusterFuzz(ClusterStep) : runProtoFuzz(Step);
      R.Stats.Skipped = Soak.Stats.Skipped;
      R.Stats.Rounds += Soak.Stats.Rounds;
      R.Stats.Attacks += Soak.Stats.Attacks;
      R.Stats.HostileConnections += Soak.Stats.HostileConnections;
      R.Stats.HostileBytes += Soak.Stats.HostileBytes;
      R.Stats.WellBehavedBatches += Soak.Stats.WellBehavedBatches;
      for (ProtoFailure &F : Soak.Failures)
        R.Failures.push_back(std::move(F));
      if (R.Stats.Skipped)
        break;
      Step.Seed += 1; // Each extra soak explores a fresh attack schedule.
      ClusterStep.Seed += 1;
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
      if (TimeBudget <= 0 || Elapsed >= TimeBudget)
        break;
      std::fprintf(stderr,
                   "dahlia-fuzz-proto: %llu attacks, %zu failure(s), "
                   "%.0fs/%.0fs\n",
                   static_cast<unsigned long long>(R.Stats.Attacks),
                   R.Failures.size(), Elapsed, TimeBudget);
    }
    std::string Dump = R.toJson().dump();
    std::printf("%s\n", Dump.c_str());
    if (JsonOut && std::strcmp(JsonOut, "-")) {
      std::ofstream Out(JsonOut);
      if (Out)
        Out << Dump << "\n";
      else
        std::fprintf(stderr, "dahlia-fuzz-proto: cannot write %s\n", JsonOut);
    }
    if (!R.clean())
      Rc = 1;
  }

  if (TraceOut && !dse::journal::writeSpanTrace(TraceOut))
    std::fprintf(stderr, "dahlia-fuzz-proto: trace write failed: %s\n",
                 TraceOut);
  return Rc;
}
