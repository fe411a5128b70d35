//===- main.cpp - The repository benchmark's entry point ------------------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Runs one workload and prints, as its last stdout line, one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
// this binary and forwards its arguments; perfbench/README.md describes the
// workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expected FILE] [--out-dir DIR] [--drop-reply]
//   perfbench --generate-expected FILE
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expected FILE] [--out-dir DIR] "
               "[--drop-reply]\n"
               "       perfbench --generate-expected FILE\n"
               "workloads: fig7-exhaustive fig8-accepted service-mixed "
               "cluster-halving\n");
  return 2;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string ExpectedPath = "perfbench/expected.json";
  O.OutDir = ".";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    double N = 0;
    if (A == "--generate-expected" && HasValue)
      return generateExpected(Argv[I + 1]) ? 0 : 1;
    if (A == "--workload" && HasValue)
      O.Workload = Argv[++I];
    else if (A == "--seed" && HasValue && parseNumber(Argv[++I], N) && N >= 0)
      O.Seed = static_cast<uint64_t>(N);
    else if (A == "--seconds" && HasValue && parseNumber(Argv[++I], N) &&
             N > 0)
      O.Seconds = N;
    else if (A == "--trace" && HasValue && parseNumber(Argv[++I], N))
      O.Trace = N != 0;
    else if (A == "--expected" && HasValue)
      ExpectedPath = Argv[++I];
    else if (A == "--out-dir" && HasValue)
      O.OutDir = Argv[++I];
    else if (A == "--drop-reply")
      O.DropReply = true;
    else
      return usage();
  }

  void (*Run)(const RunOptions &, const Expected &, RunReport &) = nullptr;
  if (O.Workload == "fig7-exhaustive")
    Run = runFig7Exhaustive;
  else if (O.Workload == "fig8-accepted")
    Run = runFig8Accepted;
  else if (O.Workload == "service-mixed")
    Run = runServiceMixed;
  else if (O.Workload == "cluster-halving")
    Run = runClusterHalving;
  else
    return usage();

  Expected E;
  std::string Err;
  if (!E.load(ExpectedPath, Err)) {
    std::fprintf(stderr, "perfbench: expected results: %s\n", Err.c_str());
    return 2;
  }

  RunReport R;
  Run(O, E, R);

  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const auto &[Name, M] : R.Metrics)
    std::printf("%-34s %16.6g  %s\n", Name.c_str(), M.Value, M.Unit.c_str());
  // error_rate is an end-to-end metric of every workload, but it is 0 on
  // a correct run, so the result object carries it as attempted/failed.
  std::printf("%-34s %16.6g  %s   (%llu of %llu checked ops failed)\n",
              "error_rate",
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0,
              "ratio", static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));

  Json Metrics = Json::object();
  for (const auto &[Name, M] : R.Metrics) {
    Json V = Json::object();
    V["value"] = M.Value;
    V["unit"] = M.Unit;
    Metrics[Name] = std::move(V);
  }
  Json Result = Json::object();
  Result["correct"] = R.Failed == 0 && R.Attempted > 0;
  Result["attempted"] = R.Attempted;
  Result["failed"] = R.Failed;
  Result["metrics"] = std::move(Metrics);
  std::printf("%s\n", Result.dump().c_str());
  std::fflush(stdout);
  return R.Failed == 0 && R.Attempted > 0 ? 0 : 1;
}
