//===- fig8b_md_knn.cpp - Figure 8b harness ---------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Regenerates Figure 8b: md-knn. The paper observes two Pareto frontiers
// an order of magnitude apart, selected by the memory banking, with the
// outer unroll factor trading area for latency within each regime.
//
// Writes BENCH_fig8_md_knn.json to the working directory: throughput, the
// accepted count and the accepted front's hash. md-knn estimates only the
// ~1% of configurations the checker accepts, so its configs/sec measures
// the front end (lex, parse, check) that CI's bench-regression gate floors.
//
//===----------------------------------------------------------------------===//

#include "Fig8Common.h"

#include "dse/SearchStrategy.h"
#include "kernels/Kernels.h"
#include "support/Json.h"

#include <algorithm>
#include <fstream>

using namespace dahlia;
using namespace dahlia::bench;
using namespace dahlia::kernels;

int main() {
  std::vector<MdKnnConfig> Space = mdKnnSpace();
  dse::DseResult R = runDahliaDirectedDse<MdKnnConfig>(
      "Figure 8b: md-knn Dahlia-directed DSE", Space, mdKnnProblem(),
      "outer_unroll", [](const MdKnnConfig &C) { return C.UnrollI; },
      "525/16384 (3%)", "37");

  // The two-regime structure: compare best latency for banking 1 vs 4,
  // straight from the engine's evaluated points (no re-sweep).
  banner("Frontier split by banking (paper: two regimes an order of "
         "magnitude apart)");
  double Best1 = 1e18, Best4 = 1e18;
  for (size_t I = 0; I != Space.size(); ++I) {
    if (!R.Points[I].Accepted)
      continue;
    const MdKnnConfig &C = Space[I];
    double Cycles = R.Points[I].Obj.Latency;
    if (C.BankPos == 1 && C.BankNlPos == 1)
      Best1 = std::min(Best1, Cycles);
    if (C.BankPos == 4 && C.BankNlPos == 4)
      Best4 = std::min(Best4, Cycles);
  }
  std::printf("best cycles, banking=1: %.0f\n", Best1);
  std::printf("best cycles, banking=4: %.0f\n", Best4);
  std::printf("banking regime speedup: %.1fx\n", Best1 / Best4);

  const char *JsonPath = "BENCH_fig8_md_knn.json";
  Json J = Json::object();
  J["bench"] = "fig8b_md_knn";
  J["space_size"] = R.Stats.Explored;
  J["accepted"] = R.Stats.Accepted;
  J["accepted_pareto_points"] = R.AcceptedFront.size();
  J["threads"] = R.Stats.Threads;
  J["seconds"] = R.Stats.Seconds;
  J["configs_per_sec"] = R.Stats.configsPerSecond();
  J["accepted_front_hash"] = dse::hashString(dse::frontHash(
      R.AcceptedFront,
      [&](size_t I) -> const dse::Objectives & { return R.Points[I].Obj; }));
  std::ofstream(JsonPath) << J.dump() << "\n";
  std::printf("metrics written to %s\n", JsonPath);
  return 0;
}
