//===- fuzz_differential.cpp - dahlia-fuzz: differential fuzz CLI ---------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The nightly differential fuzz driver. Generates seeded random Dahlia
// programs (src/fuzz/ProgramGen.h) and runs each through every oracle the
// repo has — type checker, Filament interpreter, the analytic estimator
// at Coarse/Medium/Full, and the exact cycle simulator — flagging any
// disagreement outside the proven fidelity-ladder contract as a
// structured failure (src/fuzz/Differential.h documents the taxonomy).
//
//   dahlia-fuzz --seed 1 --count 500              # one fixed batch
//   dahlia-fuzz --seed 1 --time-budget 300        # as many as fit in 300s
//   dahlia-fuzz --replay repro.fuse               # one saved program
//   dahlia-fuzz --corpus tests/fuzz-corpus        # every *.fuse in a dir
//   dahlia-fuzz --self-test                       # prove the oracles bite
//
// Reports are deterministic for a given seed (no timings), so
// `dahlia-fuzz --seed S --count N --json out.json` is bit-reproducible.
// Failing runs write each minimized repro program to --artifacts DIR as
// seed_<S>.fuse next to the JSON report.
//
// Exit codes: 0 clean, 1 failures found, 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "dse/Journal.h"
#include "fuzz/Differential.h"
#include "support/EventLog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace dahlia;
using namespace dahlia::fuzz;

namespace {

const char *kUsage =
    "usage: dahlia-fuzz [--seed N] [--count N] [--time-budget SECONDS]\n"
    "                   [--replay FILE.fuse] [--corpus DIR]\n"
    "                   [--artifacts DIR] [--json PATH] [--fuel N]\n"
    "                   [--no-shrink] [--self-test] [--trace-out PATH]\n"
    "                   [--help]\n"
    "\n"
    "  --seed N          base seed; case i uses seed N+i (default 1)\n"
    "  --count N         generated cases to run (default 200)\n"
    "  --time-budget S   keep running batches of --count until S seconds\n"
    "                    elapse (nightly mode; report covers all batches)\n"
    "  --replay FILE     check one saved program instead of generating\n"
    "  --corpus DIR      replay every *.fuse under DIR (non-recursive)\n"
    "  --artifacts DIR   write minimized repros + report.json here on\n"
    "                    failure (default fuzz-artifacts)\n"
    "  --json PATH       write the JSON report to PATH ('-' = stdout)\n"
    "  --fuel N          interpreter step budget per program\n"
    "  --no-shrink       report unminimized failing programs\n"
    "  --self-test       prove the harness catches an injected estimator\n"
    "                    off-by-one (exit 0 iff it does)\n"
    "  --trace-out PATH  write a Chrome trace of the run\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << Text;
  return true;
}

/// Dumps the report and, per failure, a replayable minimized program.
void writeArtifacts(const std::string &Dir, const DiffReport &R) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    std::fprintf(stderr, "dahlia-fuzz: cannot create %s: %s\n", Dir.c_str(),
                 Ec.message().c_str());
    return;
  }
  writeFile(Dir + "/report.json", R.toJson().dump() + "\n");
  for (const DiffFailure &F : R.Failures) {
    std::string Name = Dir + "/seed_" + std::to_string(F.Seed) + "_" +
                       F.Kind + ".fuse";
    const std::string &Best = F.Minimized.empty() ? F.Program : F.Minimized;
    writeFile(Name, Best);
  }
  std::fprintf(stderr, "dahlia-fuzz: wrote %zu repro(s) under %s\n",
               R.Failures.size(), Dir.c_str());
}

int selfTest(const DiffOptions &Base) {
  // A healthy toolchain must be clean on the probe seeds...
  DiffOptions Clean = Base;
  Clean.InjectFullCycleBias = 0;
  DiffReport Healthy = runDifferential(1, 60, Clean);
  if (!Healthy.clean()) {
    std::fprintf(stderr,
                 "dahlia-fuzz --self-test: baseline run is not clean "
                 "(%zu failures) — fix those first\n",
                 Healthy.Failures.size());
    std::printf("%s\n", Healthy.toJson().dump().c_str());
    return 1;
  }
  // ...and a deliberately broken estimator (Full cycles biased +1) must
  // trip the ladder oracle with a usable minimized repro.
  DiffOptions Broken = Base;
  Broken.InjectFullCycleBias = 1;
  DiffReport Caught = runDifferential(1, 60, Broken);
  size_t LadderHits = 0;
  bool HaveRepro = false;
  for (const DiffFailure &F : Caught.Failures)
    if (F.Kind == "ladder-violation") {
      ++LadderHits;
      if (!F.Minimized.empty())
        HaveRepro = true;
    }
  if (LadderHits == 0) {
    std::fprintf(stderr,
                 "dahlia-fuzz --self-test: FAILED — an injected +1 bias on "
                 "Full-fidelity cycles went undetected over 60 cases\n");
    return 1;
  }
  if (!HaveRepro) {
    std::fprintf(stderr,
                 "dahlia-fuzz --self-test: FAILED — ladder violations were "
                 "flagged but none carried a minimized repro\n");
    return 1;
  }
  std::printf("dahlia-fuzz --self-test OK: injected estimator off-by-one "
              "caught %zu time(s), shrinker produced repros\n",
              LadderHits);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seed = 1;
  uint64_t Count = 200;
  double TimeBudget = 0;
  const char *Replay = nullptr;
  const char *Corpus = nullptr;
  std::string Artifacts = "fuzz-artifacts";
  const char *JsonOut = nullptr;
  const char *TraceOut = nullptr;
  bool SelfTest = false;
  DiffOptions O;

  for (int I = 1; I < Argc; ++I) {
    auto Val = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "dahlia-fuzz: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--help")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (!std::strcmp(Argv[I], "--seed")) {
      Seed = std::strtoull(Val("--seed"), nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--count")) {
      Count = std::strtoull(Val("--count"), nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--time-budget")) {
      TimeBudget = std::strtod(Val("--time-budget"), nullptr);
    } else if (!std::strcmp(Argv[I], "--replay")) {
      Replay = Val("--replay");
    } else if (!std::strcmp(Argv[I], "--corpus")) {
      Corpus = Val("--corpus");
    } else if (!std::strcmp(Argv[I], "--artifacts")) {
      Artifacts = Val("--artifacts");
    } else if (!std::strcmp(Argv[I], "--json")) {
      JsonOut = Val("--json");
    } else if (!std::strcmp(Argv[I], "--fuel")) {
      O.InterpFuel = std::strtoull(Val("--fuel"), nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--no-shrink")) {
      O.Shrink = false;
    } else if (!std::strcmp(Argv[I], "--self-test")) {
      SelfTest = true;
    } else if (!std::strcmp(Argv[I], "--trace-out")) {
      TraceOut = Val("--trace-out");
    } else {
      std::fprintf(stderr, "dahlia-fuzz: unknown argument '%s'\n", Argv[I]);
      return usage();
    }
  }

  if (TraceOut)
    eventlog::journalStartBuffered();

  int Rc = 0;
  if (SelfTest) {
    Rc = selfTest(O);
  } else if (Replay || Corpus) {
    // Corpus/replay mode: oracle-check saved programs; no generation.
    std::vector<std::string> Files;
    if (Replay)
      Files.push_back(Replay);
    if (Corpus) {
      std::error_code Ec;
      for (const auto &E :
           std::filesystem::directory_iterator(Corpus, Ec))
        if (E.path().extension() == ".fuse")
          Files.push_back(E.path().string());
      if (Ec) {
        std::fprintf(stderr, "dahlia-fuzz: cannot read %s: %s\n", Corpus,
                     Ec.message().c_str());
        return 2;
      }
      std::sort(Files.begin(), Files.end());
    }
    if (Files.empty()) {
      std::fprintf(stderr, "dahlia-fuzz: no programs to replay\n");
      return 2;
    }
    DiffReport R;
    for (const std::string &Path : Files) {
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "dahlia-fuzz: cannot open %s\n", Path.c_str());
        return 2;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      if (std::optional<DiffFailure> F =
              checkSource(SS.str(), O, R.Stats)) {
        F->Detail = Path + ": " + F->Detail;
        R.Failures.push_back(std::move(*F));
      }
    }
    std::printf("%s\n", R.toJson().dump().c_str());
    if (!R.clean()) {
      writeArtifacts(Artifacts, R);
      Rc = 1;
    }
    if (JsonOut && std::strcmp(JsonOut, "-"))
      writeFile(JsonOut, R.toJson().dump() + "\n");
  } else {
    // Generative mode: one batch, or batches until the time budget ends.
    DiffReport R;
    uint64_t Base = Seed;
    auto Start = std::chrono::steady_clock::now();
    while (true) {
      DiffReport Batch = runDifferential(Base, Count, O);
      R.Stats.Cases += Batch.Stats.Cases;
      R.Stats.Accepted += Batch.Stats.Accepted;
      R.Stats.Rejected += Batch.Stats.Rejected;
      R.Stats.Interpreted += Batch.Stats.Interpreted;
      R.Stats.OutOfFuel += Batch.Stats.OutOfFuel;
      R.Stats.LadderChecks += Batch.Stats.LadderChecks;
      R.Stats.ExactMatches += Batch.Stats.ExactMatches;
      R.Stats.Mutants += Batch.Stats.Mutants;
      for (DiffFailure &F : Batch.Failures)
        R.Failures.push_back(std::move(F));
      Base += Count;
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
      if (TimeBudget <= 0 || Elapsed >= TimeBudget)
        break;
      std::fprintf(stderr,
                   "dahlia-fuzz: %llu cases, %zu failure(s), %.0fs/%.0fs\n",
                   static_cast<unsigned long long>(R.Stats.Cases),
                   R.Failures.size(), Elapsed, TimeBudget);
    }
    std::string Dump = R.toJson().dump();
    std::printf("%s\n", Dump.c_str());
    if (JsonOut && std::strcmp(JsonOut, "-"))
      writeFile(JsonOut, Dump + "\n");
    if (!R.clean()) {
      writeArtifacts(Artifacts, R);
      Rc = 1;
    }
  }

  if (TraceOut && !dse::journal::writeSpanTrace(TraceOut))
    std::fprintf(stderr, "dahlia-fuzz: trace write failed: %s\n", TraceOut);
  return Rc;
}
