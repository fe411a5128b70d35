//===- Differential.cpp - Cross-oracle differential fuzz harness ----------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"

#include "cyclesim/CycleSim.h"
#include "driver/CompilerPipeline.h"
#include "hlsim/Estimator.h"
#include "support/EventLog.h"

#include <cmath>
#include <sstream>

using namespace dahlia;
using namespace dahlia::fuzz;

namespace {

/// Component-wise ladder comparison tolerance. The contract is exact
/// (lower fidelity <= higher), but cycles are doubles assembled through
/// different code paths; a strict relative epsilon keeps legitimate
/// last-bit noise out while still catching the self-test's +1 bias.
bool exceeds(double Lo, double Hi) {
  return Lo > Hi + 1e-6 + 1e-9 * std::fabs(Hi);
}

struct LadderPoint {
  const char *Name;
  hlsim::Estimate E;
};

/// First objective where \p Lo exceeds \p Hi, or nullptr.
const char *ladderBreak(const hlsim::Estimate &Lo, const hlsim::Estimate &Hi) {
  if (exceeds(Lo.Cycles, Hi.Cycles))
    return "cycles";
  if (Lo.Lut > Hi.Lut)
    return "lut";
  if (Lo.Ff > Hi.Ff)
    return "ff";
  if (Lo.Bram > Hi.Bram)
    return "bram";
  if (Lo.Dsp > Hi.Dsp)
    return "dsp";
  return nullptr;
}

bool sameEstimate(const hlsim::Estimate &A, const hlsim::Estimate &B) {
  return A.Cycles == B.Cycles && A.RuntimeMs == B.RuntimeMs &&
         A.Lut == B.Lut && A.Ff == B.Ff && A.Bram == B.Bram &&
         A.Dsp == B.Dsp && A.LutMem == B.LutMem && A.II == B.II &&
         A.Incorrect == B.Incorrect && A.Predictable == B.Predictable;
}

bool sameSim(const cyclesim::SimResult &A, const cyclesim::SimResult &B) {
  return A.Cycles == B.Cycles && A.II == B.II &&
         A.Truncated == B.Truncated && A.WalkedGroups == B.WalkedGroups &&
         A.Nests.size() == B.Nests.size();
}

DiffFailure makeFailure(uint64_t Seed, std::string Kind, std::string Detail,
                        std::string Program) {
  DiffFailure F;
  F.Seed = Seed;
  F.Kind = std::move(Kind);
  F.Detail = std::move(Detail);
  F.Program = std::move(Program);
  return F;
}

driver::CompilerPipeline pipelineFor(const DiffOptions &O) {
  driver::PipelineOptions PO;
  PO.InputName = "fuzz";
  PO.InterpFuel = O.InterpFuel;
  return driver::CompilerPipeline(std::move(PO));
}

} // namespace

Json DiffFailure::toJson() const {
  Json J = Json::object();
  J["seed"] = static_cast<int64_t>(Seed);
  J["kind"] = Kind;
  J["detail"] = Detail;
  J["program"] = Program;
  if (!Minimized.empty())
    J["minimized"] = Minimized;
  return J;
}

Json DiffStats::toJson() const {
  Json J = Json::object();
  J["cases"] = static_cast<int64_t>(Cases);
  J["accepted"] = static_cast<int64_t>(Accepted);
  J["rejected"] = static_cast<int64_t>(Rejected);
  J["interpreted"] = static_cast<int64_t>(Interpreted);
  J["out_of_fuel"] = static_cast<int64_t>(OutOfFuel);
  J["ladder_checks"] = static_cast<int64_t>(LadderChecks);
  J["exact_matches"] = static_cast<int64_t>(ExactMatches);
  J["mutants"] = static_cast<int64_t>(Mutants);
  return J;
}

Json DiffReport::toJson() const {
  Json J = Json::object();
  J["stats"] = Stats.toJson();
  Json Fails = Json::array();
  for (const DiffFailure &F : Failures)
    Fails.push_back(F.toJson());
  J["failures"] = std::move(Fails);
  J["clean"] = clean();
  return J;
}

std::optional<DiffFailure>
dahlia::fuzz::checkSource(const std::string &Src, const DiffOptions &O,
                          DiffStats &Stats, uint64_t Seed) {
  TRACE_SPAN("fuzz.checkSource");
  ++Stats.Cases;
  driver::CompilerPipeline P = pipelineFor(O);

  // Oracle 1: the frontend verdict, and its determinism.
  driver::CompileResult C1 = P.check(Src);
  if (O.CheckDeterminism) {
    driver::CompileResult C2 = P.check(Src);
    if (C1.ok() != C2.ok() || P.accepts(Src) != C1.ok() ||
        C1.Diags.render("f") != C2.Diags.render("f"))
      return makeFailure(Seed, "check-nondet",
                         "two checks of identical source disagreed: [" +
                             C1.Diags.render("f") + "] vs [" +
                             C2.Diags.render("f") + "]",
                         Src);
  }
  if (!C1.ok()) {
    ++Stats.Rejected;
    return std::nullopt; // Deterministic rejection is a pass.
  }
  ++Stats.Accepted;

  // Oracle 2: the soundness theorem — checked programs never get stuck.
  driver::CompileResult RI = P.interp(Src);
  if (RI.Run) {
    switch (RI.Run->Result.St) {
    case filament::EvalResult::OK:
      ++Stats.Interpreted;
      break;
    case filament::EvalResult::OutOfFuel:
      ++Stats.OutOfFuel; // Budget, not a bug.
      break;
    case filament::EvalResult::Stuck:
      return makeFailure(Seed, "interp-stuck",
                         "checker accepted but evaluation got stuck: " +
                             RI.firstError(),
                         Src);
    }
  } else if (!RI.ok()) {
    return makeFailure(Seed, "lower-failed",
                       "lowering rejected a checked program: " +
                           RI.firstError(),
                       Src);
  }

  // Oracle 3: the estimation fidelity ladder over the extracted spec.
  driver::CompileResult RE = P.estimate(Src);
  if (!RE.ok() || !RE.Spec)
    return makeFailure(Seed, "estimate-failed",
                       "estimation rejected a checked program: " +
                           RE.firstError(),
                       Src);
  const hlsim::KernelSpec &K = *RE.Spec;

  LadderPoint Ladder[] = {
      {"coarse", hlsim::estimateAt(K, hlsim::Fidelity::Coarse)},
      {"medium", hlsim::estimateAt(K, hlsim::Fidelity::Medium)},
      {"full", hlsim::estimateAt(K, hlsim::Fidelity::Full)},
      {"exact", hlsim::estimateAt(K, hlsim::Fidelity::Exact)},
  };
  // Self-test fault injection: a deliberately broken Full model must trip
  // the ladder oracle (see DiffOptions::InjectFullCycleBias).
  Ladder[2].E.Cycles += O.InjectFullCycleBias;

  ++Stats.LadderChecks;
  for (int I = 0; I + 1 < 4; ++I)
    if (const char *Obj = ladderBreak(Ladder[I].E, Ladder[I + 1].E)) {
      std::ostringstream D;
      D << Ladder[I].Name << "." << Obj << " > " << Ladder[I + 1].Name << "."
        << Obj << " (";
      if (std::string_view(Obj) == "cycles")
        D << Ladder[I].E.Cycles << " > " << Ladder[I + 1].E.Cycles;
      else
        D << "component bound broken";
      D << ")";
      return makeFailure(Seed, "ladder-violation", D.str(), Src);
    }
  if (!exceeds(Ladder[2].E.Cycles, Ladder[3].E.Cycles) &&
      !exceeds(Ladder[3].E.Cycles, Ladder[2].E.Cycles))
    ++Stats.ExactMatches;

  // Oracle 4: estimator and simulator determinism on the same spec.
  if (O.CheckDeterminism) {
    hlsim::Estimate F2 = hlsim::estimateAt(K, hlsim::Fidelity::Full);
    // Compare against the unbiased Full estimate.
    hlsim::Estimate F1 = Ladder[2].E;
    F1.Cycles -= O.InjectFullCycleBias;
    if (!sameEstimate(F1, F2))
      return makeFailure(Seed, "est-nondet",
                         "two Full-fidelity estimates of one spec differ",
                         Src);
    cyclesim::SimResult S1 = cyclesim::simulate(K);
    cyclesim::SimResult S2 = cyclesim::simulate(K);
    if (!sameSim(S1, S2))
      return makeFailure(Seed, "sim-nondet",
                         "two simulations of one spec differ", Src);
  }
  return std::nullopt;
}

DiffReport dahlia::fuzz::runDifferential(uint64_t SeedBase, uint64_t Count,
                                         const DiffOptions &O) {
  TRACE_SPAN("fuzz.runDifferential");
  DiffReport R;
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t Seed = SeedBase + I;
    GProgram P = generate(Seed, O.Gen);
    std::string Src = P.render();

    if (std::optional<DiffFailure> F = checkSource(Src, O, R.Stats, Seed)) {
      if (O.Shrink) {
        // An edit "still fails" when it reproduces the same failure kind;
        // kinds are specific enough that chasing a different bug during
        // shrinking is not a risk worth the looser predicate.
        const std::string Kind = F->Kind;
        GProgram Min = shrinkProgram(
            P,
            [&](const GProgram &Cand) {
              DiffStats Scratch;
              std::optional<DiffFailure> CF =
                  checkSource(Cand.render(), O, Scratch, Seed);
              return CF && CF->Kind == Kind;
            },
            O.ShrinkBudget);
        F->Minimized = Min.render();
      }
      R.Failures.push_back(std::move(*F));
    }

    // Frontend robustness probes: byte-mutated source must be handled
    // deterministically (and without crashing — a crash fails the whole
    // run, which is the point).
    for (int M = 0; M < O.MutantsPerCase; ++M) {
      std::string Mut = mutateSource(Src, Seed * 31 + static_cast<uint64_t>(M));
      ++R.Stats.Mutants;
      driver::CompilerPipeline Pipe = pipelineFor(O);
      driver::CompileResult M1 = Pipe.check(Mut);
      driver::CompileResult M2 = Pipe.check(Mut);
      if (M1.ok() != M2.ok() || Pipe.accepts(Mut) != M1.ok() ||
          M1.Diags.render("m") != M2.Diags.render("m"))
        R.Failures.push_back(makeFailure(
            Seed, "mutant-check-nondet",
            "frontend verdict on mutated source is nondeterministic", Mut));
    }
  }
  return R;
}
