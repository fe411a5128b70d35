//===- Differential.h - Cross-oracle differential fuzz harness --*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzz harness: runs generated Dahlia programs through
/// every oracle the repo has — type checker, Filament interpreter,
/// analytic hlsim estimator at each fidelity, and the exact cycle
/// simulator — and flags any disagreement outside the proven contract as
/// a structured, replayable failure.
///
/// Oracle-disagreement taxonomy (docs/fuzzing.md documents each kind):
///
///   * `check-nondet`   — type-checking the same source twice produced
///                        different diagnostics (or a different verdict),
///                        or the early-stopping verdict path
///                        (CompilerPipeline::accepts) disagreed;
///   * `interp-stuck`   — a program the checker accepted got stuck under
///                        the checked Filament semantics (the soundness
///                        theorem says this must never happen);
///   * `lower-failed`   — desugaring rejected a checked program;
///   * `estimate-failed`— spec extraction/estimation rejected a checked
///                        program;
///   * `ladder-violation` — some objective broke the component-wise bound
///                        Coarse <= Medium <= Full <= Exact;
///   * `est-nondet` / `sim-nondet` — estimator or simulator returned
///                        different numbers for the same spec;
///   * `mutant-check-nondet` — frontend verdict on a byte-mutated source
///                        changed between two runs or paths.
///
/// Estimator==simulator equality is NOT an oracle: only the lower bound
/// is proven for arbitrary programs (bench/sim_accuracy.cpp proves
/// equality on the shipped kernels specifically). The harness tracks
/// equality as a statistic (`exact_matches`) instead — which is also why
/// the self-test's injected +1 bias on Full cycles is detectable: on the
/// frequent Full==Exact programs, Full+1 strictly exceeds Exact and trips
/// `ladder-violation`.
///
/// Failures carry the rendered program, the seed, and (when the failing
/// input came from the structured generator) a shrinker-minimized
/// reproduction. Reports serialize to deterministic JSON with no
/// timestamps or timings, so `dahlia-fuzz --seed S` is bit-reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_FUZZ_DIFFERENTIAL_H
#define DAHLIA_FUZZ_DIFFERENTIAL_H

#include "fuzz/ProgramGen.h"
#include "support/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dahlia::fuzz {

/// Harness knobs. Defaults match the tier-1 FuzzTest budget; the nightly
/// leg only raises the case count.
struct DiffOptions {
  GenOptions Gen;
  /// Interpreter step budget per program. Generated trip counts are tiny,
  /// so exceeding this is recorded but is not a failure.
  uint64_t InterpFuel = 1u << 22;
  /// Run checker/estimator/simulator twice per program and demand
  /// identical output.
  bool CheckDeterminism = true;
  /// Byte-mutated frontend probes derived from each generated program.
  int MutantsPerCase = 1;
  /// Shrink failing generated programs before reporting.
  bool Shrink = true;
  int ShrinkBudget = 400;
  /// Self-test fault injection: added to the Full-fidelity cycle estimate
  /// before the ladder comparison. A non-zero bias must produce
  /// `ladder-violation` failures on a healthy toolchain — that is how the
  /// harness proves it can catch a real estimator off-by-one
  /// (`dahlia-fuzz --self-test`).
  double InjectFullCycleBias = 0;
};

/// One oracle disagreement, replayable via its seed (or its embedded
/// program text for corpus entries).
struct DiffFailure {
  uint64_t Seed = 0;
  std::string Kind;      ///< Taxonomy slug (see file comment).
  std::string Detail;    ///< Human-readable specifics.
  std::string Program;   ///< The source that failed.
  std::string Minimized; ///< Shrunk reproduction ("" when not shrinkable).

  Json toJson() const;
};

/// Aggregate counters for one run. Deliberately timing-free: the JSON
/// report must be byte-identical for a given seed.
struct DiffStats {
  uint64_t Cases = 0;        ///< Generated programs evaluated.
  uint64_t Accepted = 0;     ///< Programs the type checker admitted.
  uint64_t Rejected = 0;     ///< Deterministic frontend rejections.
  uint64_t Interpreted = 0;  ///< Accepted programs that ran to completion.
  uint64_t OutOfFuel = 0;    ///< Interpreter budget exhaustions (not bugs).
  uint64_t LadderChecks = 0; ///< Fidelity-ladder comparisons performed.
  uint64_t ExactMatches = 0; ///< Full.Cycles == Exact.Cycles observations.
  uint64_t Mutants = 0;      ///< Byte-mutated frontend probes evaluated.

  Json toJson() const;
};

/// One full run: stats plus every failure found.
struct DiffReport {
  DiffStats Stats;
  std::vector<DiffFailure> Failures;

  bool clean() const { return Failures.empty(); }
  /// Deterministic JSON (stable key order, no timings).
  Json toJson() const;
};

/// Runs \p Count generated cases with seeds SeedBase, SeedBase+1, ... so
/// any single case replays as `runDifferential(SeedBase + i, 1, O)`.
DiffReport runDifferential(uint64_t SeedBase, uint64_t Count,
                           const DiffOptions &O = {});

/// Evaluates one source text against every oracle (the corpus-replay
/// entry point). Returns the failure when one trips; \p Stats accumulates
/// regardless. No shrinking — the caller owns the program text.
std::optional<DiffFailure> checkSource(const std::string &Src,
                                       const DiffOptions &O, DiffStats &Stats,
                                       uint64_t Seed = 0);

} // namespace dahlia::fuzz

#endif // DAHLIA_FUZZ_DIFFERENTIAL_H
