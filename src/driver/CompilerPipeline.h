//===- CompilerPipeline.h - Staged compile driver ---------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point for sequencing compiler stages. Every consumer
/// of the compiler — the `dahliac` CLI, the figure harnesses, the DSE
/// engine, and the tests — drives compilation through \c CompilerPipeline
/// instead of hand-chaining `parseProgram -> typeCheck -> ...` with ad-hoc
/// error plumbing:
///
///   * \c DiagnosticEngine collects every user-visible \c Error a stage
///     reports, replacing the scattered `std::vector<Error>` /
///     `Result<T>` hand-offs at call sites;
///   * \c CompileResult carries the artifacts of all executed stages
///     (AST, lowered core program, interpreter outcome, HLS C++,
///     hlsim estimate) plus per-stage wall-clock timings;
///   * \c CompilerPipeline runs a prefix of the stage graph
///
///       Parse -> Check -> { Lower -> Interp, Emit, Estimate -> Simulate }
///
///     and stops at the first failing stage.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_DRIVER_COMPILERPIPELINE_H
#define DAHLIA_DRIVER_COMPILERPIPELINE_H

#include "backend/EmitHLS.h"
#include "cyclesim/CycleSim.h"
#include "hlsim/Estimator.h"
#include "lower/Desugar.h"
#include "support/Error.h"

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dahlia::driver {

/// The stages of the compile flow. \c Lower, \c Emit and \c Estimate are
/// alternative continuations after \c Check; \c Interp implies \c Lower
/// and \c Simulate (the cycle-level simulator) implies \c Estimate.
enum class Stage { Parse, Check, Lower, Interp, Emit, Estimate, Simulate };

/// Short stage name ("parse", "check", ...).
const char *stageName(Stage S);

/// Accumulates the user-visible failures of a compile. One engine lives in
/// each \c CompileResult; stages report into it instead of returning their
/// own error containers.
class DiagnosticEngine {
public:
  void report(Error E) { Errors.push_back(std::move(E)); }
  void reportAll(std::vector<Error> Es) {
    for (Error &E : Es)
      Errors.push_back(std::move(E));
  }

  bool hasErrors() const { return !Errors.empty(); }
  size_t errorCount() const { return Errors.size(); }
  const std::vector<Error> &errors() const { return Errors; }
  bool hasKind(ErrorKind K) const;

  /// All diagnostics, one per line, each prefixed with \p InputName when
  /// non-empty ("file.fuse: 3:1: affine error: ...").
  std::string render(std::string_view InputName = {}) const;
  void printAll(std::FILE *Out, std::string_view InputName = {}) const;

  void clear() { Errors.clear(); }

private:
  std::vector<Error> Errors;
};

/// Wall-clock seconds spent in one executed stage.
struct StageTiming {
  Stage S = Stage::Parse;
  double Seconds = 0;
};

/// Outcome of running a lowered program under the checked Filament
/// semantics.
struct InterpOutcome {
  filament::EvalResult Result;
  uint64_t Steps = 0;
  filament::Store Final; ///< Memory/register contents at termination.
};

/// Artifacts and diagnostics of one pipeline invocation. Stages that did
/// not run (or failed) leave their slot empty.
struct CompileResult {
  std::optional<Program> Prog;           ///< After Parse (typed after Check).
  std::optional<LoweredProgram> Lowered; ///< After Lower.
  std::optional<InterpOutcome> Run;      ///< After Interp.
  std::optional<std::string> HlsCpp;     ///< After Emit.
  std::optional<hlsim::KernelSpec> Spec; ///< After Estimate (extraction).
  std::optional<hlsim::Estimate> Est;    ///< After Estimate.
  std::optional<cyclesim::SimResult> Sim; ///< After Simulate.
  DiagnosticEngine Diags;
  std::vector<StageTiming> Timings; ///< One entry per executed stage.

  bool ok() const { return !Diags.hasErrors(); }
  explicit operator bool() const { return ok(); }

  /// Seconds spent in \p S (0 when the stage did not run).
  double seconds(Stage S) const;
  double totalSeconds() const;

  /// First diagnostic rendered, or "" when the compile succeeded.
  /// Convenience for test failure messages.
  std::string firstError() const;
};

/// Configuration shared by every stage of a pipeline instance.
struct PipelineOptions {
  std::string InputName; ///< Prefix for rendered diagnostics (file name).
  EmitOptions Emit;
  uint64_t InterpFuel = 1u << 26;
  /// Initial memory fill for the Interp stage; null means all-zero.
  int64_t (*Fill)(const std::string &, int64_t) = nullptr;
};

/// A reusable, configured compile driver. Immutable and stateless across
/// invocations, so one instance may be shared by concurrent callers.
class CompilerPipeline {
public:
  CompilerPipeline() = default;
  explicit CompilerPipeline(PipelineOptions O) : Opts(std::move(O)) {}

  /// Runs every stage up to and including \p Last, stopping early at the
  /// first stage that reports errors.
  CompileResult run(std::string_view Source, Stage Last) const;

  // Shorthands for the common stop points.
  CompileResult parse(std::string_view Src) const {
    return run(Src, Stage::Parse);
  }
  CompileResult check(std::string_view Src) const {
    return run(Src, Stage::Check);
  }
  CompileResult lower(std::string_view Src) const {
    return run(Src, Stage::Lower);
  }
  CompileResult interp(std::string_view Src) const {
    return run(Src, Stage::Interp);
  }
  CompileResult emitHls(std::string_view Src) const {
    return run(Src, Stage::Emit);
  }
  CompileResult estimate(std::string_view Src) const {
    return run(Src, Stage::Estimate);
  }
  CompileResult simulate(std::string_view Src) const {
    return run(Src, Stage::Simulate);
  }

  /// Whether \p Src parses and type-checks: `bool(check(Src))`, under
  /// the same stage spans, but the check stops at the first diagnostic
  /// and no CompileResult is built. The DSE's per-config verdict.
  bool accepts(std::string_view Src) const;

  const PipelineOptions &options() const { return Opts; }

private:
  PipelineOptions Opts;
};

/// True when \p Src parses and type-checks cleanly
/// (CompilerPipeline::accepts). The terse predicate acceptance tests use.
bool checksSource(std::string_view Src);

/// As above; on failure \p FirstError receives the first diagnostic.
bool checksSource(std::string_view Src, std::string &FirstError);

/// Parses and type-checks \p Src as a bare command sequence (no interface
/// memories) — the form the sema and paper-example tests exercise. Parse
/// failures surface as Parse-kind diagnostics.
std::vector<Error> checkBareCommand(std::string_view Src);

} // namespace dahlia::driver

#endif // DAHLIA_DRIVER_COMPILERPIPELINE_H
