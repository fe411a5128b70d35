//===- Layers.cpp - Per-layer replays of the traced run -------------------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "cyclesim/CycleSim.h"
#include "driver/CompilerPipeline.h"
#include "driver/SpecExtractor.h"
#include "hlsim/Estimator.h"
#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "sema/TypeChecker.h"
#include "service/CompileService.h"
#include "service/ServiceClient.h"
#include "support/Metrics.h"
#include "support/StableHash.h"

#include <algorithm>
#include <numeric>
#include <optional>

namespace perfbench {

namespace {

/// Keeps replayed results observable so no call is optimized away.
volatile uint64_t Sink = 0;
void keep(uint64_t V) { Sink = Sink + V; }

const dse::DseProblem &problemOf(const SpaceDesc &S) {
  static std::map<const SpaceDesc *, dse::DseProblem> Problems;
  auto It = Problems.find(&S);
  if (It == Problems.end())
    It = Problems.emplace(&S, S.Problem()).first;
  return It->second;
}

double perCallNs(const std::map<std::string, LayerTotals> &T,
                 const std::string &Name) {
  auto It = T.find(Name);
  return It == T.end() ? 0 : It->second.selfPerCallNs();
}

} // namespace

std::vector<ConfigRef> sampleConfigs(const SpaceDesc &Space, size_t Limit,
                                     size_t N, std::mt19937_64 &Rng) {
  size_t SpaceNo = static_cast<size_t>(&Space - spaces().data());
  size_t Size = problemOf(Space).Size;
  if (Limit && Limit < Size)
    Size = Limit;
  std::vector<size_t> Idx(Size);
  std::iota(Idx.begin(), Idx.end(), 0);
  std::shuffle(Idx.begin(), Idx.end(), Rng);
  Idx.resize(std::min(N, Size));
  std::vector<ConfigRef> Out;
  for (size_t I : Idx)
    Out.push_back({&Space, I, configTrace(SpaceNo, I)});
  return Out;
}

void replayConfigs(const std::vector<ConfigRef> &Sample,
                   bool EstimateRejected, size_t MaxSimulations,
                   RunReport &R) {
  driver::CompilerPipeline Pipeline;
  std::vector<uint64_t> VerdictKeys, EstimateKeys;
  std::vector<std::optional<hlsim::KernelSpec>> Specs;
  std::vector<std::string> Sources;
  // Pass 1: the engine's own per-config sequence (ExhaustiveStrategy):
  // source, pipeline check, and for a config it estimates (accepted, or
  // any when rejected configs are estimated) its spec, spec hash and Full
  // estimate.
  for (const ConfigRef &C : Sample) {
    const dse::DseProblem &P = problemOf(*C.Space);
    uint64_t T = C.Trace;
    SpanScope Root("replay.config", T);
    std::string Src;
    {
      SpanScope S("kernels.source", T);
      Src = P.Source(C.Index);
    }
    VerdictKeys.push_back(stableHash(Src));
    bool Accepted = false;
    {
      SpanScope S("driver.check", T);
      Accepted = Pipeline.check(Src).ok();
    }
    Sources.push_back(std::move(Src));
    Specs.emplace_back();
    if (!Accepted && !EstimateRejected)
      continue;
    {
      SpanScope S("kernels.spec", T);
      Specs.back() = P.Spec(C.Index);
    }
    const hlsim::KernelSpec &K = *Specs.back();
    uint64_t H = 0;
    {
      SpanScope S("hlsim.spec_hash", T);
      H = hlsim::specHash(K);
    }
    EstimateKeys.push_back(hlsim::fidelityCacheKey(H, hlsim::Fidelity::Full));
    SpanScope S("hlsim.full", T);
    keep(static_cast<uint64_t>(
        hlsim::estimateAt(K, hlsim::Fidelity::Full).Cycles));
  }

  // Pass 2: the layers inside those calls, and the rungs the pruned
  // strategies and the exact top rung add.
  size_t Accepted = 0;
  for (size_t I = 0; I != Sample.size(); ++I) {
    uint64_t T = Sample[I].Trace;
    const std::string &Src = Sources[I];
    if (!Specs[I]) // Not estimated in pass 1.
      Specs[I] = problemOf(*Sample[I].Space).Spec(Sample[I].Index);
    SpanScope Root("replay.layers", T);
    {
      SpanScope S("lexer.lex", T, Src.size());
      Result<std::vector<Token>> Toks = lex(Src);
      keep(Toks ? Toks->size() : 0);
    }
    {
      // parseProgram lexes internally; its self time is this span minus
      // the lexer.lex span of the same source (see reportLayers).
      SpanScope S("parser.parse", T);
      Result<Program> Prog = parseProgram(Src);
      if (Prog) {
        SpanScope Sema("sema.check", T);
        std::vector<Error> Errs = typeCheck(*Prog);
        Accepted += Errs.empty();
        if (Errs.empty()) {
          SpanScope X("driver.extract_spec", T);
          Result<hlsim::KernelSpec> Spec = driver::extractKernelSpec(*Prog);
          keep(Spec ? Spec->Loops.size() : 0);
        }
      }
    }
    for (auto [F, Name] :
         {std::pair{hlsim::Fidelity::Coarse, "hlsim.coarse"},
          std::pair{hlsim::Fidelity::Medium, "hlsim.medium"}}) {
      SpanScope S(Name, T);
      keep(static_cast<uint64_t>(hlsim::estimateAt(*Specs[I], F).Cycles));
    }
    if (I < MaxSimulations) {
      SpanScope S("cyclesim.simulate", T);
      keep(static_cast<uint64_t>(cyclesim::exactEstimate(*Specs[I]).Cycles));
    }
  }

  R.set("sema.accept_ratio",
        Sample.empty() ? 0 : static_cast<double>(Accepted) / Sample.size(),
        "ratio");

  // The memo cache with the sample's keys, as a cold sweep uses it: a
  // missing lookup, an insert, and (on a repeat) a hit.
  dse::DseCache Cache;
  hlsim::Estimate Est;
  bool Verdict = false;
  uint64_t Calls = 2 * (VerdictKeys.size() + EstimateKeys.size());
  {
    SpanScope S("dse.cache_lookup", 0, Calls);
    for (int Pass = 0; Pass != 2; ++Pass) {
      for (uint64_t K : VerdictKeys)
        keep(Cache.lookupVerdict(K, Verdict));
      for (uint64_t K : EstimateKeys)
        keep(Cache.lookupEstimate(K, Est));
      if (Pass == 0) {
        SpanScope Ins("dse.cache_insert", 0, Calls / 2);
        for (uint64_t K : VerdictKeys)
          Cache.insertVerdict(K, (K & 1) != 0);
        for (uint64_t K : EstimateKeys)
          Cache.insertEstimate(K, Est);
      }
    }
  }
}

void replayFrontInserts(
    const std::vector<std::pair<size_t, dse::Objectives>> &Points) {
  dse::ParetoFront F;
  SpanScope S("dse.front_insert", 0, Points.size());
  for (const auto &[I, O] : Points)
    keep(F.insertEx(I, O).Entered);
}

void replayMerge(const std::vector<dse::FrontPoint> &Points) {
  SpanScope S("cluster.merge", 0);
  keep(dse::mergeFrontPoints(Points).Front.size());
}

const char *formName(Form F) {
  switch (F) {
  case Form::Check:
    return "check";
  case Form::Session:
    return "session";
  case Form::Recheck:
    return "recheck";
  case Form::Estimate:
    return "estimate";
  case Form::Simulate:
    return "simulate";
  }
  return "?";
}

service::Request requestOf(const Planned &P) {
  service::Request Q;
  Q.Id = P.Id;
  Q.Kind = P.F == Form::Estimate   ? service::Op::Estimate
           : P.F == Form::Simulate ? service::Op::Simulate
                                   : service::Op::Check;
  if (P.F == Form::Session || P.F == Form::Recheck)
    Q.Session = P.Space->Name;
  if (P.F == Form::Recheck)
    Q.Rw = P.Space->RewriteTo(P.Index);
  else
    Q.Source = problemOf(*P.Space).Source(P.F == Form::Session ? 0 : P.Index);
  return Q;
}

std::vector<Planned> controlStream(const std::vector<ConfigRef> &Sample,
                                   const Expected &E, size_t MaxEstimates) {
  std::vector<Planned> Out;
  int64_t Id = 0;
  for (const SpaceDesc &D : spaces())
    if (std::any_of(Sample.begin(), Sample.end(),
                    [&](const ConfigRef &C) { return C.Space == &D; }))
      Out.push_back({++Id, Form::Session, &D, 0});
  std::vector<const SpaceDesc *> Used;
  for (const ConfigRef &C : Sample) {
    Out.push_back({++Id, Form::Check, C.Space, C.Index});
    Out.push_back({++Id, Form::Recheck, C.Space, C.Index});
    if (std::find(Used.begin(), Used.end(), C.Space) == Used.end())
      Used.push_back(C.Space);
  }
  // Estimates and simulations need accepted configs, which a small sample
  // may lack: take them evenly spaced from each used space's accepted list.
  for (const SpaceDesc *D : Used) {
    const std::vector<size_t> &Acc = E.of(D->Name).AcceptedList;
    size_t N = std::min(Acc.size(), MaxEstimates / Used.size() + 1);
    for (size_t K = 0; K != N; ++K) {
      size_t I = Acc[K * Acc.size() / N];
      Out.push_back({++Id, Form::Estimate, D, I});
      Out.push_back({++Id, Form::Simulate, D, I});
    }
  }
  return Out;
}

bool checkReply(const Planned &P, const service::Response &Resp,
                const Expected &E, std::string &Why) {
  const SpaceExpect &X = E.of(P.Space->Name);
  size_t Config = P.F == Form::Session ? 0 : P.Index;
  Why = std::string(formName(P.F)) + " of " + P.Space->Name + " config " +
        std::to_string(Config) + ": ";
  if (Resp.Id != P.Id) {
    Why += "reply id " + std::to_string(Resp.Id) + " for request " +
           std::to_string(P.Id);
    return false;
  }
  for (const Error &Err : Resp.Errors)
    if (Err.kind() == ErrorKind::Internal) {
      Why += "internal error: " + Err.message();
      return false;
    }
  bool Accepted = X.Accepted[Config] != 0;
  if (Resp.Ok != Accepted || (!Resp.Ok && Resp.Errors.empty())) {
    Why += Resp.Ok ? "accepted, expected a rejection"
                   : "rejected, expected acceptance";
    return false;
  }
  if (P.F == Form::Estimate || P.F == Form::Simulate) {
    const AcceptedExpect &O = X.Objs.at(Config);
    const dse::Objectives &Want =
        P.F == Form::Estimate ? O.SvcEstimate : O.SvcSimulate;
    if (!Resp.Est ||
        !dse::equalObjectives(dse::Objectives::of(*Resp.Est), Want)) {
      Why += "objectives differ from the expected file";
      return false;
    }
  }
  return true;
}

double replayService(const std::vector<Planned> &Stream) {
  service::ServiceOptions SO;
  SO.Threads = 1;
  service::CompileService Svc(SO);
  driver::CompilerPipeline Pipeline;
  uint64_t HandleNs = 0, LayerNs = 0;
  for (const Planned &P : Stream) {
    const service::Request Q = requestOf(P);
    uint64_t T = static_cast<uint64_t>(Q.Id);
    SpanScope Root("replay.request", T);
    {
      SpanScope S("service.encode", T);
      keep(Q.toJson().dump().size());
    }
    const char *Handle = P.F == Form::Recheck    ? "service.handle_recheck"
                         : P.F == Form::Estimate ? "service.handle_estimate"
                         : P.F == Form::Simulate ? "service.handle_simulate"
                                                 : "service.handle_check";
    service::Response Resp;
    {
      SpanScope S(Handle, T);
      uint64_t Start = nowNs();
      Resp = Svc.handle(Q);
      HandleNs += nowNs() - Start;
    }
    {
      std::string Line = Resp.toJson().dump();
      SpanScope S("service.decode", T);
      keep(service::decodeResponse(Line).R.Ok);
    }
    // The accounting check: re-run, untraced, the lower-layer calls this
    // request made inside handle (from its cached / parse-reused flags;
    // simulate always runs the simulator).
    bool Simulate = Q.Kind == service::Op::Simulate;
    if (Resp.Cached && !Simulate)
      continue;
    if (Resp.ParseReused) {
      Result<Program> Prog =
          parseProgram(problemOf(*P.Space).Source(P.Index));
      uint64_t Start = nowNs();
      keep(Prog ? typeCheck(*Prog).size() : 0);
      LayerNs += nowNs() - Start;
      continue;
    }
    uint64_t Start = nowNs();
    driver::CompileResult Checked = Pipeline.check(Q.Source);
    if (Checked.ok() && Q.Kind != service::Op::Check) {
      Result<hlsim::KernelSpec> Spec = driver::extractKernelSpec(*Checked.Prog);
      if (Spec && Simulate) {
        cyclesim::SimResult Sim = cyclesim::simulate(*Spec);
        if (!Resp.Cached)
          keep(static_cast<uint64_t>(cyclesim::exactEstimate(*Spec, Sim).Lut));
      } else if (Spec) {
        keep(static_cast<uint64_t>(hlsim::estimate(*Spec).Lut));
      }
    }
    LayerNs += nowNs() - Start;
  }
  return HandleNs ? 1.0 - static_cast<double>(LayerNs) / HandleNs : 0;
}

EstimatorCounts EstimatorCounts::now() {
  auto V = [](const char *Name) {
    return static_cast<double>(metrics::counter(Name).value());
  };
  return {V("hlsim.estimates.coarse"), V("hlsim.estimates.medium"),
          V("hlsim.estimates.full"), V("hlsim.estimates.exact"),
          V("dse.configs_pruned")};
}

CallCounts countsOf(const dse::DseStats &S, bool EstimateRejected) {
  CallCounts C;
  double Explored = static_cast<double>(S.Explored);
  double Estimated = static_cast<double>(S.Estimated);
  C.Sources = Explored;
  C.Checks = Explored - static_cast<double>(S.VerdictCacheHits);
  C.Full = Estimated - static_cast<double>(S.EstimateCacheHits);
  C.Exact = static_cast<double>(S.ExactEstimates);
  C.Coarse = static_cast<double>(S.LowFidelityEstimates);
  C.Specs = Estimated + C.Coarse + C.Exact;
  C.CacheLookups = Explored + C.Specs;
  C.CacheInserts = C.Checks + C.Full + C.Coarse + C.Exact;
  // Every estimated point enters the overall front; accepted ones the
  // accepted front too (all estimated points are accepted when rejected
  // configs are not estimated).
  C.FrontInserts =
      Estimated + (EstimateRejected ? static_cast<double>(S.Accepted)
                                    : Estimated);
  return C;
}

double unattributedShare(const std::map<std::string, LayerTotals> &T,
                         const CallCounts &C, double WallSeconds) {
  // driver.check covers lex, parse and sema; spec extraction is not on
  // the engine's path. Coarse stands for both low-fidelity rungs (the
  // stats do not split them).
  double Ns = C.Sources * perCallNs(T, "kernels.source") +
              C.Checks * perCallNs(T, "driver.check") +
              C.Specs * (perCallNs(T, "kernels.spec") +
                         perCallNs(T, "hlsim.spec_hash")) +
              C.Coarse * perCallNs(T, "hlsim.coarse") +
              C.Medium * perCallNs(T, "hlsim.medium") +
              C.Full * perCallNs(T, "hlsim.full") +
              C.Exact * perCallNs(T, "cyclesim.simulate") +
              C.CacheLookups * perCallNs(T, "dse.cache_lookup") +
              C.CacheInserts * perCallNs(T, "dse.cache_insert") +
              C.FrontInserts * perCallNs(T, "dse.front_insert");
  return WallSeconds > 0 ? 1.0 - Ns * 1e-9 / WallSeconds : 0;
}

void reportLayers(const std::map<std::string, LayerTotals> &T, RunReport &R) {
  auto Us = [&](const char *Name) { return perCallNs(T, Name) * 1e-3; };
  R.set("kernels.source_us", Us("kernels.source"), "us");
  R.set("kernels.spec_us", Us("kernels.spec"), "us");
  auto Lex = T.find("lexer.lex");
  double LexSpans = Lex == T.end() ? 0 : static_cast<double>(Lex->second.Spans);
  double LexUs = LexSpans ? Lex->second.SelfNs * 1e-3 / LexSpans : 0;
  R.set("lexer.lex_us", LexUs, "us");
  // The lexer span's call count is the bytes it lexed.
  R.set("lexer.mb_per_s",
        Lex == T.end() || Lex->second.SelfNs <= 0
            ? 0
            : static_cast<double>(Lex->second.Calls) * 1e3 / Lex->second.SelfNs,
        "MB/s");
  R.set("parser.parse_us", std::max(0.0, Us("parser.parse") - LexUs), "us");
  R.set("sema.check_us", Us("sema.check"), "us");
  R.set("driver.check_us", Us("driver.check"), "us");
  R.set("driver.extract_spec_us", Us("driver.extract_spec"), "us");
  R.set("hlsim.coarse_us", Us("hlsim.coarse"), "us");
  R.set("hlsim.medium_us", Us("hlsim.medium"), "us");
  R.set("hlsim.full_us", Us("hlsim.full"), "us");
  R.set("hlsim.spec_hash_us", Us("hlsim.spec_hash"), "us");
  R.set("cyclesim.simulate_us", Us("cyclesim.simulate"), "us");
  R.set("dse.cache_lookup_ns", perCallNs(T, "dse.cache_lookup"), "ns");
  R.set("dse.cache_insert_ns", perCallNs(T, "dse.cache_insert"), "ns");
  R.set("dse.front_insert_ns", perCallNs(T, "dse.front_insert"), "ns");
  R.set("service.encode_us", Us("service.encode"), "us");
  R.set("service.decode_us", Us("service.decode"), "us");
  R.set("service.handle_check_us", Us("service.handle_check"), "us");
  R.set("service.handle_recheck_us", Us("service.handle_recheck"), "us");
  R.set("service.handle_estimate_us", Us("service.handle_estimate"), "us");
  R.set("service.handle_simulate_us", Us("service.handle_simulate"), "us");
  R.set("cluster.merge_us", Us("cluster.merge"), "us");
}

std::map<std::string, LayerTotals> finishSpans(const RunOptions &O) {
  std::vector<Span> Spans = collectSpans();
  writeSpans(Spans, O.OutDir + "/spans-" + O.Workload + "-seed" +
                        std::to_string(O.Seed) + ".json");
  return layerTotals(Spans);
}

} // namespace perfbench
