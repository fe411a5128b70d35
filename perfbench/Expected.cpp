//===- Expected.cpp - Spaces, expected results, run helpers ---------------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "dse/SearchStrategy.h"
#include "kernels/Kernels.h"
#include "service/CompileService.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

using kernels::GemmBlockedConfig;
using kernels::MdGridConfig;
using kernels::MdKnnConfig;
using kernels::Stencil2dConfig;

//===----------------------------------------------------------------------===//
// Spaces
//===----------------------------------------------------------------------===//

namespace {

template <typename Config> const Config &configAt(size_t I);

template <> const GemmBlockedConfig &configAt(size_t I) {
  static const std::vector<GemmBlockedConfig> S = kernels::gemmBlockedSpace();
  return S.at(I);
}
template <> const Stencil2dConfig &configAt(size_t I) {
  static const std::vector<Stencil2dConfig> S = kernels::stencil2dSpace();
  return S.at(I);
}
template <> const MdKnnConfig &configAt(size_t I) {
  static const std::vector<MdKnnConfig> S = kernels::mdKnnSpace();
  return S.at(I);
}
template <> const MdGridConfig &configAt(size_t I) {
  static const std::vector<MdGridConfig> S = kernels::mdGridSpace();
  return S.at(I);
}

service::Rewrite gemmRewrite(size_t I) {
  const GemmBlockedConfig &C = configAt<GemmBlockedConfig>(I);
  service::Rewrite Rw;
  Rw.Banks = {{"m1", {C.Bank11, C.Bank12}},
              {"m2", {C.Bank11, C.Bank12}},
              {"prod", {C.Bank21, C.Bank22}}};
  Rw.Unrolls = {{"i", C.Unroll1}, {"j", C.Unroll2}, {"k", C.Unroll3}};
  return Rw;
}

service::Rewrite stencilRewrite(size_t I) {
  const Stencil2dConfig &C = configAt<Stencil2dConfig>(I);
  service::Rewrite Rw;
  Rw.Banks = {{"orig", {C.OrigBank1, C.OrigBank2}},
              {"filter", {C.FilterBank1, C.FilterBank2}}};
  Rw.Unrolls = {{"k1", C.Unroll1}, {"k2", C.Unroll2}};
  return Rw;
}

service::Rewrite mdKnnRewrite(size_t I) {
  const MdKnnConfig &C = configAt<MdKnnConfig>(I);
  service::Rewrite Rw;
  Rw.Banks = {{"position", {C.BankPos}},
              {"nlpos", {C.UnrollI, C.BankNlPos}},
              {"nl", {C.BankNl, 1}},
              {"force", {C.BankForce}}};
  Rw.Unrolls = {{"i", C.UnrollI}, {"j", C.UnrollJ}};
  return Rw;
}

service::Rewrite mdGridRewrite(size_t I) {
  const MdGridConfig &C = configAt<MdGridConfig>(I);
  service::Rewrite Rw;
  Rw.Banks = {{"pos", {C.Bank1, C.Bank2, C.Bank3, 1}},
              {"frc", {C.Bank1, C.Bank2, C.Bank3, 1}}};
  Rw.Unrolls = {{"i", C.Unroll1}, {"j", C.Unroll2}, {"k", C.Unroll3}};
  return Rw;
}

} // namespace

const std::vector<SpaceDesc> &spaces() {
  static const std::vector<SpaceDesc> S = {
      {"gemm-blocked", kernels::gemmBlockedProblem, gemmRewrite},
      {"stencil2d", kernels::stencil2dProblem, stencilRewrite},
      {"md-knn", kernels::mdKnnProblem, mdKnnRewrite},
      {"md-grid", kernels::mdGridProblem, mdGridRewrite},
  };
  return S;
}

const SpaceDesc &space(const std::string &Name) {
  for (const SpaceDesc &S : spaces())
    if (Name == S.Name)
      return S;
  throw std::out_of_range("unknown space " + Name);
}

//===----------------------------------------------------------------------===//
// Expected results
//===----------------------------------------------------------------------===//

namespace {

Json objJson(const dse::Objectives &O) {
  Json A = Json::array();
  for (double V : {O.Latency, O.Lut, O.Ff, O.Bram, O.Dsp})
    A.push_back(V);
  return A;
}

bool objFromJson(const Json &J, dse::Objectives &O) {
  const Json::Array &A = J.asArray();
  if (A.size() != 5)
    return false;
  O = {A[0].asDouble(), A[1].asDouble(), A[2].asDouble(), A[3].asDouble(),
       A[4].asDouble()};
  return true;
}

std::string hashOf(const dse::DseResult &R, const std::vector<size_t> &M) {
  return dse::hashString(dse::frontHash(
      M, [&](size_t I) -> const dse::Objectives & { return R.Points[I].Obj; }));
}

} // namespace

bool Expected::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<Json> J = Json::parse(SS.str(), &Err);
  if (!J)
    return false;
  ExactFrontHash = J->at("fig7_exact_top_rung").at("front_hash").asString();
  ExactAcceptedFrontHash =
      J->at("fig7_exact_top_rung").at("accepted_front_hash").asString();
  for (const SpaceDesc &D : spaces()) {
    const Json &S = J->at("spaces").at(D.Name);
    SpaceExpect &X = Spaces[D.Name];
    X.Size = static_cast<size_t>(S.at("size").asInt());
    X.FrontHash = S.at("front_hash").asString();
    X.AcceptedFrontHash = S.at("accepted_front_hash").asString();
    X.Accepted.assign(X.Size, 0);
    for (const Json &A : S.at("accepted").asArray()) {
      int64_t I = A.at("index").asInt(-1);
      if (I < 0 || static_cast<size_t>(I) >= X.Size) {
        Err = std::string("bad accepted index in ") + D.Name;
        return false;
      }
      AcceptedExpect &O = X.Objs[static_cast<size_t>(I)];
      if (!objFromJson(A.at("full"), O.Full) ||
          !objFromJson(A.at("exact"), O.Exact) ||
          !objFromJson(A.at("service_estimate"), O.SvcEstimate) ||
          !objFromJson(A.at("service_simulate"), O.SvcSimulate)) {
        Err = std::string("bad objectives in ") + D.Name;
        return false;
      }
      X.Accepted[static_cast<size_t>(I)] = 1;
      X.AcceptedList.push_back(static_cast<size_t>(I));
    }
    if (X.Size == 0 || X.AcceptedList.empty()) {
      Err = std::string("missing space ") + D.Name;
      return false;
    }
  }
  if (ExactFrontHash.empty()) {
    Err = "missing fig7_exact_top_rung";
    return false;
  }
  return true;
}

bool generateExpected(const std::string &Path) {
  Json Out = Json::object();
  Out["comment"] =
      "Expected results of the repository benchmark, generated once by "
      "`perfbench --generate-expected` from the code the benchmark was "
      "defined on. Every run checks its outputs against this file.";
  Json SpacesJ = Json::object();
  bool Ok = true;
  for (const SpaceDesc &D : spaces()) {
    dse::DseProblem P = D.Problem();
    dse::DseResult R = dse::DseEngine().explore(P);
    service::CompileService Svc;

    Json S = Json::object();
    S["size"] = P.Size;
    S["front_hash"] = hashOf(R, R.Front);
    S["accepted_front_hash"] = hashOf(R, R.AcceptedFront);
    Json Acc = Json::array();
    for (size_t I = 0; I != P.Size; ++I) {
      if (!R.Points[I].Accepted)
        continue;
      Json A = Json::object();
      A["index"] = I;
      A["full"] = objJson(R.Points[I].Obj);
      A["exact"] = objJson(dse::Objectives::of(
          hlsim::estimateAt(P.Spec(I), hlsim::Fidelity::Exact)));
      for (auto [Kind, Key] : {std::pair{service::Op::Estimate,
                                         "service_estimate"},
                               std::pair{service::Op::Simulate,
                                         "service_simulate"}}) {
        service::Request Q;
        Q.Kind = Kind;
        Q.Source = P.Source(I);
        service::Response Resp = Svc.handle(Q);
        if (!Resp.Ok || !Resp.Est) {
          std::fprintf(stderr, "%s config %zu: service %s failed\n", D.Name,
                       I, service::opName(Kind));
          Ok = false;
          continue;
        }
        A[Key] = objJson(dse::Objectives::of(*Resp.Est));
      }
      Acc.push_back(std::move(A));
    }
    S["accepted"] = std::move(Acc);

    // A session re-check must agree with a fresh check of the same
    // config; service-mixed relies on it for its recheck answers.
    service::Request Est;
    Est.Kind = service::Op::Check;
    Est.Session = "gen";
    Est.Source = P.Source(0);
    Svc.handle(Est);
    size_t Mismatch = 0;
    for (size_t I = 0; I != P.Size; ++I) {
      service::Request Q;
      Q.Kind = service::Op::Check;
      Q.Session = "gen";
      Q.Rw = D.RewriteTo(I);
      if (Svc.handle(Q).Ok != R.Points[I].Accepted)
        ++Mismatch;
    }
    std::printf("%-13s %6zu configs, %4zu accepted, front %s / %s, "
                "recheck mismatches %zu\n",
                D.Name, P.Size, R.Stats.Accepted,
                S.at("front_hash").asString().c_str(),
                S.at("accepted_front_hash").asString().c_str(), Mismatch);
    Ok = Ok && Mismatch == 0;
    if (D.Name == std::string("gemm-blocked") &&
        (S.at("front_hash").asString() != kFig7FrontHash ||
         S.at("accepted_front_hash").asString() != kFig7AcceptedFrontHash)) {
      std::fprintf(stderr, "fig7 front hashes differ from the baselines\n");
      Ok = false;
    }
    SpacesJ[D.Name] = std::move(S);
  }
  Out["spaces"] = std::move(SpacesJ);

  dse::DseOptions O;
  O.Strategy = dse::StrategyKind::Halving;
  O.ExactTopRung = true;
  dse::DseResult R = dse::DseEngine(O).explore(kernels::gemmBlockedProblem());
  Json X = Json::object();
  X["front_hash"] = hashOf(R, R.Front);
  X["accepted_front_hash"] = hashOf(R, R.AcceptedFront);
  std::printf("fig7 halving + exact top rung: front %s / %s\n",
              X.at("front_hash").asString().c_str(),
              X.at("accepted_front_hash").asString().c_str());
  Out["fig7_exact_top_rung"] = std::move(X);

  if (!Ok)
    return false;
  std::ofstream F(Path);
  F << Out.dump() << "\n";
  return bool(F);
}

//===----------------------------------------------------------------------===//
// Run helpers
//===----------------------------------------------------------------------===//

void RunReport::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Notes.size() < 20)
    Notes.push_back("FAILED: " + Why);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

} // namespace perfbench
