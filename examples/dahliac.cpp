//===- dahliac.cpp - The Dahlia compiler driver -----------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// A command-line driver mirroring the original `fuse` compiler, built on
// the CompilerPipeline driver layer:
//
//   dahliac FILE [-o OUT] [--kernel NAME]   emit annotated HLS C++
//   dahliac FILE --check                    type-check only
//   dahliac FILE --lower                    print the Filament core term
//   dahliac FILE --run                      lower and execute under the
//                                           checked semantics (memories
//                                           zero-initialized; final memory
//                                           contents written to -o or
//                                           stdout, with the hlsim cycle
//                                           estimate for cross-checking)
//   dahliac FILE --estimate                 print the hlsim estimate only
//   dahliac FILE --simulate                 run the cycle-level banked-
//                                           memory simulator (the Exact
//                                           estimation rung) and print the
//                                           observed schedule next to the
//                                           analytic estimate
//   dahliac ... --time                      report per-stage wall clock
//   dahliac ... --json                      emit one JSON object on stdout
//                                           (diagnostics, estimate, timings;
//                                           same serializer as dahlia-serve)
//                                           and exit non-zero on any error
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerPipeline.h"
#include "driver/SpecExtractor.h"
#include "dse/Journal.h"
#include "filament/Interp.h"
#include "filament/Syntax.h"
#include "service/Protocol.h"
#include "support/EventLog.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace dahlia;
using namespace dahlia::driver;
namespace fil = dahlia::filament;

namespace {

const char *kUsage =
    "usage: dahliac FILE [-o OUT] [--kernel NAME] [--time] "
    "[--json] [--trace-out FILE] [--journal-out FILE] "
    "[--check | --lower | --run | --estimate | --simulate]\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

/// Closes the journal on every exit path, so even a failed compile leaves
/// a well-framed (begin/end) --journal-out file behind, and renders the
/// journal's spans to --trace-out.
struct JournalOutput {
  std::string JournalPath, TracePath;
  ~JournalOutput() {
    if (TracePath.empty()) {
      eventlog::journalStop();
    } else if (!dse::journal::writeSpanTrace(TracePath, JournalPath)) {
      std::fprintf(stderr, "dahliac: cannot write trace '%s'\n",
                   TracePath.c_str());
    }
  }
};

void printTimings(const CompileResult &R) {
  std::fprintf(stderr, "timings:");
  for (const StageTiming &T : R.Timings)
    std::fprintf(stderr, " %s=%.3fms", stageName(T.S), T.Seconds * 1e3);
  std::fprintf(stderr, " total=%.3fms\n", R.totalSeconds() * 1e3);
}

/// Renders the final memory contents of a completed run, one memory per
/// line, first 16 elements in logical row-major order.
void printMemories(std::FILE *Out, const LoweredProgram &L,
                   const fil::Store &S) {
  for (const auto &[Name, Info] : L.Mems) {
    std::fprintf(Out, "%s:", Name.c_str());
    int64_t Total = 1;
    for (int64_t Sz : Info.DimSizes)
      Total *= Sz;
    int Printed = 0;
    for (int64_t Flat = 0; Flat < Total && Printed < 16; ++Flat) {
      std::vector<int64_t> Idx(Info.DimSizes.size());
      int64_t Rem = Flat;
      for (size_t D = Info.DimSizes.size(); D-- > 0;) {
        Idx[D] = Rem % Info.DimSizes[D];
        Rem /= Info.DimSizes[D];
      }
      auto [Bank, Off] = Info.locate(Idx);
      std::fprintf(Out, " %s",
                   fil::valueToString(
                       S.Mems.at(Bank).at(static_cast<size_t>(Off)))
                       .c_str());
      ++Printed;
    }
    std::fprintf(Out, Total > 16 ? " ...\n" : "\n");
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const char *File = nullptr;
  const char *OutFile = nullptr;
  std::string KernelName = "kernel";
  bool Time = false;
  bool EmitJson = false;
  JournalOutput JournalOut;
  enum { EmitCpp, CheckOnly, Lower, Run, Estimate, Simulate } Mode = EmitCpp;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--help")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (!std::strcmp(Argv[I], "--check")) {
      Mode = CheckOnly;
    } else if (!std::strcmp(Argv[I], "--lower")) {
      Mode = Lower;
    } else if (!std::strcmp(Argv[I], "--run")) {
      Mode = Run;
    } else if (!std::strcmp(Argv[I], "--estimate")) {
      Mode = Estimate;
    } else if (!std::strcmp(Argv[I], "--simulate")) {
      Mode = Simulate;
    } else if (!std::strcmp(Argv[I], "--time")) {
      Time = true;
    } else if (!std::strcmp(Argv[I], "--json")) {
      EmitJson = true;
    } else if (!std::strcmp(Argv[I], "--trace-out") && I + 1 < Argc) {
      JournalOut.TracePath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--journal-out") && I + 1 < Argc) {
      if (!eventlog::journalStart(Argv[++I])) {
        std::fprintf(stderr, "dahliac: cannot write journal '%s'\n",
                     Argv[I]);
        return 2;
      }
      JournalOut.JournalPath = Argv[I];
    } else if (!std::strcmp(Argv[I], "-o") && I + 1 < Argc) {
      OutFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--kernel") && I + 1 < Argc) {
      KernelName = Argv[++I];
    } else if (Argv[I][0] == '-') {
      return usage();
    } else if (!File) {
      File = Argv[I];
    } else {
      return usage();
    }
  }
  if (!File)
    return usage();
  if (!JournalOut.TracePath.empty() && !eventlog::journalActive())
    eventlog::journalStartBuffered();

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "dahliac: cannot open '%s'\n", File);
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  PipelineOptions Opts;
  Opts.InputName = File;
  Opts.Emit.KernelName = KernelName;
  CompilerPipeline Pipeline(Opts);

  Stage Last = Mode == CheckOnly ? Stage::Check
               : Mode == Lower   ? Stage::Lower
               : Mode == Run     ? Stage::Interp
               : Mode == Estimate ? Stage::Estimate
               : Mode == Simulate ? Stage::Simulate
                                  : Stage::Emit;
  CompileResult R = Pipeline.run(Source, Last);
  if (Time)
    printTimings(R);

  // --json: one machine-readable object on stdout (the same serializers
  // dahlia-serve uses), non-zero exit whenever diagnostics were reported.
  if (EmitJson) {
    Json J = Json::object();
    J["file"] = File;
    J["mode"] = Mode == CheckOnly ? "check"
                : Mode == Lower   ? "lower"
                : Mode == Run     ? "run"
                : Mode == Estimate ? "estimate"
                : Mode == Simulate ? "simulate"
                                   : "emit";
    J["ok"] = R.ok();
    J["diagnostics"] = service::toJson(R.Diags);
    J["timings_ms"] = service::timingsToJson(R);
    if (R.Est)
      J["estimate"] = service::toJson(*R.Est);
    if (R.Sim)
      J["sim"] = service::toJson(*R.Sim);
    if (Mode == Lower && R.Lowered)
      J["lowered"] = fil::printCmd(*R.Lowered->Program);
    if (Mode == EmitCpp && R.HlsCpp)
      J["hls_cpp"] = *R.HlsCpp;
    if (Mode == Run && R.Run) {
      Json RunJ = Json::object();
      RunJ["steps"] = R.Run->Steps;
      RunJ["completed"] = bool(R.Run->Result);
      J["run"] = std::move(RunJ);
    }
    std::printf("%s\n", J.dump().c_str());
    return R.Diags.hasErrors() ? 1 : 0;
  }

  if (!R) {
    R.Diags.printAll(stderr, File);
    return 1;
  }

  // -o redirects whatever the mode produces; stdout otherwise.
  std::FILE *Out = stdout;
  if (OutFile && Mode != CheckOnly) {
    Out = std::fopen(OutFile, "w");
    if (!Out) {
      std::fprintf(stderr, "dahliac: cannot write '%s'\n", OutFile);
      return 1;
    }
  }

  switch (Mode) {
  case CheckOnly:
    std::printf("%s: well-typed\n", File);
    break;
  case Lower:
    std::fprintf(Out, "%s\n", fil::printCmd(*R.Lowered->Program).c_str());
    break;
  case Run: {
    std::fprintf(Out, "completed in %llu steps\n",
                 static_cast<unsigned long long>(R.Run->Steps));
    // Cross-check against the hlsim cost model: the estimated completed
    // cycle count for the same (already checked) program's kernel spec.
    Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog, KernelName);
    if (Spec) {
      hlsim::Estimate Est = hlsim::estimate(*Spec);
      std::fprintf(Out, "hlsim estimate: %.0f cycles (II=%.1f)\n",
                   Est.Cycles, Est.II);
    } else {
      std::fprintf(Out, "hlsim estimate: unavailable (%s)\n",
                   Spec.error().str().c_str());
    }
    printMemories(Out, *R.Lowered, R.Run->Final);
    break;
  }
  case Estimate:
    std::fprintf(Out,
                 "cycles=%.0f II=%.1f lut=%lld ff=%lld bram=%lld dsp=%lld\n",
                 R.Est->Cycles, R.Est->II, static_cast<long long>(R.Est->Lut),
                 static_cast<long long>(R.Est->Ff),
                 static_cast<long long>(R.Est->Bram),
                 static_cast<long long>(R.Est->Dsp));
    break;
  case Simulate: {
    const cyclesim::SimResult &S = *R.Sim;
    std::fprintf(Out,
                 "simulated: cycles=%.0f II=%.1f (%zu nest%s, %llu groups "
                 "walked%s)\n",
                 S.Cycles, S.II, S.Nests.size(),
                 S.Nests.size() == 1 ? "" : "s",
                 static_cast<unsigned long long>(S.WalkedGroups),
                 S.Truncated ? ", truncated" : "");
    for (size_t N = 0; N != S.Nests.size(); ++N) {
      const cyclesim::NestSim &NS = S.Nests[N];
      std::fprintf(Out,
                   "  nest %zu: %.0f groups at II=%.1f -> %.0f cycles "
                   "(%llu conflict groups, max port pressure %lld)\n",
                   N, NS.Groups, NS.EffectiveII, NS.Cycles,
                   static_cast<unsigned long long>(NS.ConflictGroups),
                   static_cast<long long>(NS.MaxPortPressure));
    }
    // The analytic estimate next to it: the simulator is the exact top
    // rung of the same ladder, so estimate <= simulated always holds.
    std::fprintf(Out, "estimate:  cycles=%.0f II=%.1f (analytic "
                      "lower bound; sim/est = %.3fx)\n",
                 R.Est->Cycles, R.Est->II,
                 R.Est->Cycles > 0 ? S.Cycles / R.Est->Cycles : 0.0);
    break;
  }
  case EmitCpp:
    std::fprintf(Out, "%s", R.HlsCpp->c_str());
    break;
  }
  if (Out != stdout)
    std::fclose(Out);
  return 0;
}
