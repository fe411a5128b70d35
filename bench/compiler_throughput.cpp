//===- compiler_throughput.cpp - Compiler performance (E10) -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// google-benchmark timings for the compiler pipeline (the paper's artifact
// is 5,200 LoC of Scala; Section 5.1). Throughput here bounds the cost of
// type-checker-in-the-loop design-space exploration: the Fig. 7 sweep
// runs 32,000 parse+check cycles. All stage sequencing goes through the
// CompilerPipeline driver layer, so these numbers include the driver's
// own (small) dispatch and timing overhead — exactly what DSE pays.
// The *Knn benchmarks repeat lex, check and the verdict-only check on the
// default md-knn source, so the per-layer numbers cover the Figure 8
// sweeps as well as gemm.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerPipeline.h"
#include "hlsim/Estimator.h"
#include "kernels/Kernels.h"
#include "lexer/Lexer.h"

#include <benchmark/benchmark.h>

using namespace dahlia;
using namespace dahlia::driver;
using namespace dahlia::kernels;

namespace {

const std::string &gemmSource() {
  static std::string Src = gemmBlockedDahlia(GemmBlockedConfig());
  return Src;
}

const std::string &knnSource() {
  static std::string Src = mdKnnDahlia(MdKnnConfig());
  return Src;
}

const CompilerPipeline &pipeline() {
  static CompilerPipeline P;
  return P;
}

void lexSource(benchmark::State &State, const std::string &Src) {
  for (auto _ : State) {
    auto Toks = lex(Src);
    benchmark::DoNotOptimize(Toks);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Src.size()));
}

void BM_Lex(benchmark::State &State) { lexSource(State, gemmSource()); }
BENCHMARK(BM_Lex);

void BM_LexKnn(benchmark::State &State) { lexSource(State, knnSource()); }
BENCHMARK(BM_LexKnn);

void BM_Parse(benchmark::State &State) {
  for (auto _ : State) {
    CompileResult R = pipeline().parse(gemmSource());
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Parse);

void BM_TypeCheck(benchmark::State &State) {
  for (auto _ : State) {
    CompileResult R = pipeline().check(gemmSource());
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_TypeCheck);

void BM_CheckKnn(benchmark::State &State) {
  for (auto _ : State) {
    CompileResult R = pipeline().check(knnSource());
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_CheckKnn);

void BM_VerdictKnn(benchmark::State &State) {
  // The DSE's per-config question: accept or reject, stopping at the
  // first diagnostic (CompilerPipeline::accepts).
  for (auto _ : State) {
    bool Accepted = pipeline().accepts(knnSource());
    benchmark::DoNotOptimize(Accepted);
  }
}
BENCHMARK(BM_VerdictKnn);

void BM_EmitHls(benchmark::State &State) {
  for (auto _ : State) {
    CompileResult R = pipeline().emitHls(gemmSource());
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_EmitHls);

void BM_LowerToFilament(benchmark::State &State) {
  for (auto _ : State) {
    CompileResult R = pipeline().lower(gemmSource());
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_LowerToFilament);

void BM_RejectingCheck(benchmark::State &State) {
  // Rejection speed matters as much as acceptance speed during DSE.
  GemmBlockedConfig C;
  C.Bank11 = 4;
  C.Unroll1 = 2; // mismatched: rejected.
  std::string Src = gemmBlockedDahlia(C);
  for (auto _ : State) {
    CompileResult R = pipeline().check(Src);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_RejectingCheck);

void BM_EstimateKernel(benchmark::State &State) {
  hlsim::KernelSpec K = gemmBlockedSpec(GemmBlockedConfig());
  for (auto _ : State) {
    auto E = hlsim::estimate(K);
    benchmark::DoNotOptimize(E);
  }
}
BENCHMARK(BM_EstimateKernel);

void BM_PipelineEstimate(benchmark::State &State) {
  // Parse + check + spec extraction + estimate: the full cost of asking
  // "what would this source cost?" without a hand-written kernel spec.
  for (auto _ : State) {
    CompileResult R = pipeline().estimate(gemmSource());
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_PipelineEstimate);

} // namespace

BENCHMARK_MAIN();
