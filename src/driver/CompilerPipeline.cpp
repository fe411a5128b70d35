//===- CompilerPipeline.cpp - Staged compile driver -------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerPipeline.h"

#include "driver/SpecExtractor.h"
#include "parser/Parser.h"
#include "sema/TypeChecker.h"
#include "support/EventLog.h"
#include "support/Metrics.h"

#include <chrono>
#include <sstream>

using namespace dahlia;
using namespace dahlia::driver;

const char *dahlia::driver::stageName(Stage S) {
  switch (S) {
  case Stage::Parse:
    return "parse";
  case Stage::Check:
    return "check";
  case Stage::Lower:
    return "lower";
  case Stage::Interp:
    return "interp";
  case Stage::Emit:
    return "emit";
  case Stage::Estimate:
    return "estimate";
  case Stage::Simulate:
    return "simulate";
  }
  return "?";
}

bool DiagnosticEngine::hasKind(ErrorKind K) const {
  for (const Error &E : Errors)
    if (E.kind() == K)
      return true;
  return false;
}

std::string DiagnosticEngine::render(std::string_view InputName) const {
  std::ostringstream OS;
  for (const Error &E : Errors) {
    if (!InputName.empty())
      OS << InputName << ": ";
    OS << E.str() << '\n';
  }
  return OS.str();
}

void DiagnosticEngine::printAll(std::FILE *Out,
                                std::string_view InputName) const {
  std::fputs(render(InputName).c_str(), Out);
}

double CompileResult::seconds(Stage S) const {
  for (const StageTiming &T : Timings)
    if (T.S == S)
      return T.Seconds;
  return 0;
}

double CompileResult::totalSeconds() const {
  double Sum = 0;
  for (const StageTiming &T : Timings)
    Sum += T.Seconds;
  return Sum;
}

std::string CompileResult::firstError() const {
  return Diags.hasErrors() ? Diags.errors().front().str() : std::string();
}

namespace {

/// Runs \p Body as stage \p S under the stage's span; returns its
/// wall-clock seconds.
template <typename Fn> double runStage(Stage S, Fn &&Body) {
  TRACE_SPAN(stageName(S));
  static metrics::Counter &Stages = metrics::counter("pipeline.stages_run");
  Stages.inc();
  auto Start = std::chrono::steady_clock::now();
  Body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Runs \p Body as stage \p S of \p R, recording its wall-clock time.
template <typename Fn>
void timedStage(CompileResult &R, Stage S, Fn &&Body) {
  R.Timings.push_back({S, runStage(S, Body)});
}

} // namespace

CompileResult CompilerPipeline::run(std::string_view Source,
                                    Stage Last) const {
  CompileResult R;

  timedStage(R, Stage::Parse, [&] {
    Result<Program> P = parseProgram(Source);
    if (P)
      R.Prog = P.take();
    else
      R.Diags.report(P.error());
  });
  if (!R.ok() || Last == Stage::Parse)
    return R;

  timedStage(R, Stage::Check,
             [&] { R.Diags.reportAll(typeCheck(*R.Prog)); });
  if (!R.ok() || Last == Stage::Check)
    return R;

  if (Last == Stage::Lower || Last == Stage::Interp) {
    timedStage(R, Stage::Lower, [&] {
      Result<LoweredProgram> L = lowerProgram(*R.Prog);
      if (L)
        R.Lowered = L.take();
      else
        R.Diags.report(L.error());
    });
    if (!R.ok() || Last == Stage::Lower)
      return R;

    timedStage(R, Stage::Interp, [&] {
      filament::Store Init = Opts.Fill ? R.Lowered->makeStore(Opts.Fill)
                                       : R.Lowered->makeZeroStore();
      filament::SmallStepper M(std::move(Init), filament::Rho(),
                               R.Lowered->Program);
      InterpOutcome Out;
      Out.Result = M.run(Opts.InterpFuel);
      Out.Steps = M.stepsTaken();
      Out.Final = M.store();
      if (Out.Result.St == filament::EvalResult::Stuck)
        R.Diags.report(Error(ErrorKind::Semantics,
                             "checked execution stuck: " + Out.Result.Why));
      else if (Out.Result.St == filament::EvalResult::OutOfFuel)
        R.Diags.report(
            Error(ErrorKind::Semantics, "interpreter step budget exceeded"));
      R.Run = std::move(Out);
    });
    return R;
  }

  if (Last == Stage::Emit) {
    timedStage(R, Stage::Emit, [&] {
      Result<std::string> Cpp = emitHlsCpp(*R.Prog, Opts.Emit);
      if (Cpp)
        R.HlsCpp = Cpp.take();
      else
        R.Diags.report(Cpp.error());
    });
    return R;
  }

  timedStage(R, Stage::Estimate, [&] {
    Result<hlsim::KernelSpec> Spec = extractKernelSpec(*R.Prog);
    if (Spec) {
      R.Spec = Spec.take();
      R.Est = hlsim::estimate(*R.Spec);
    } else {
      R.Diags.report(Spec.error());
    }
  });
  if (!R.ok() || Last == Stage::Estimate)
    return R;

  timedStage(R, Stage::Simulate,
             [&] { R.Sim = cyclesim::simulate(*R.Spec); });
  return R;
}

bool CompilerPipeline::accepts(std::string_view Source) const {
  std::optional<Program> Prog;
  runStage(Stage::Parse, [&] {
    Result<Program> P = parseProgram(Source);
    if (P)
      Prog = P.take();
  });
  bool Accepted = false;
  if (Prog)
    runStage(Stage::Check, [&] { Accepted = typeChecks(*Prog); });
  return Accepted;
}

bool dahlia::driver::checksSource(std::string_view Src) {
  return CompilerPipeline().accepts(Src);
}

bool dahlia::driver::checksSource(std::string_view Src,
                                  std::string &FirstError) {
  CompileResult R = CompilerPipeline().check(Src);
  if (!R)
    FirstError = R.firstError();
  return bool(R);
}

std::vector<Error> dahlia::driver::checkBareCommand(std::string_view Src) {
  Result<CmdPtr> C = parseCommand(Src);
  if (!C)
    return {C.error()};
  CmdPtr Cmd = C.take();
  return typeCheck(*Cmd);
}
