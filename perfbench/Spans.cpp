//===- Spans.cpp - In-memory span recorder for the traced run -------------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::atomic<bool> Enabled{false};

/// One thread's spans. Owned by the registry so buffers of threads that
/// already exited (engine pool workers) are still collected.
struct Buffer {
  std::vector<Span> Spans;
  std::vector<int64_t> Open; ///< Stack of open span indices.
};

std::mutex RegistryM;
std::vector<std::shared_ptr<Buffer>> Registry;

Buffer &threadBuffer() {
  thread_local std::shared_ptr<Buffer> B = [] {
    auto N = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> Lock(RegistryM);
    Registry.push_back(N);
    return N;
  }();
  return *B;
}

} // namespace

void setTracing(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool tracing() { return Enabled.load(std::memory_order_relaxed); }

SpanScope::SpanScope(const char *Name, uint64_t Trace, uint64_t Calls) {
  if (!tracing())
    return;
  Buffer &B = threadBuffer();
  Span S;
  S.Name = Name;
  S.Trace = Trace;
  S.Parent = B.Open.empty() ? -1 : B.Open.back();
  S.Calls = Calls;
  Index = static_cast<int64_t>(B.Spans.size());
  B.Open.push_back(Index);
  S.StartNs = nowNs();
  B.Spans.push_back(S);
}

SpanScope::~SpanScope() {
  if (Index < 0)
    return;
  uint64_t End = nowNs();
  Buffer &B = threadBuffer();
  B.Spans[static_cast<size_t>(Index)].EndNs = End;
  B.Open.pop_back();
}

void recordSpan(const char *Name, uint64_t Trace, uint64_t StartNs,
                uint64_t EndNs) {
  if (!tracing())
    return;
  Span S;
  S.Name = Name;
  S.Trace = Trace;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  threadBuffer().Spans.push_back(S);
}

std::vector<Span> collectSpans() {
  std::lock_guard<std::mutex> Lock(RegistryM);
  std::vector<Span> Out;
  for (const std::shared_ptr<Buffer> &B : Registry) {
    int64_t Base = static_cast<int64_t>(Out.size());
    for (Span S : B->Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Out.push_back(S);
    }
  }
  return Out;
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);

  std::map<std::string, LayerTotals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Dur = static_cast<double>(S.EndNs - S.StartNs);
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<uint64_t, uint64_t>> Iv;
    for (size_t C : Children[I])
      Iv.emplace_back(std::max(Spans[C].StartNs, S.StartNs),
                      std::min(Spans[C].EndNs, S.EndNs));
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0;
    uint64_t CurB = 0, CurE = 0;
    bool Have = false;
    for (auto [B, E] : Iv) {
      if (E <= B)
        continue;
      if (Have && B <= CurE) {
        CurE = std::max(CurE, E);
        continue;
      }
      if (Have)
        Covered += static_cast<double>(CurE - CurB);
      CurB = B;
      CurE = E;
      Have = true;
    }
    if (Have)
      Covered += static_cast<double>(CurE - CurB);
    LayerTotals &T = Out[S.Name];
    T.SelfNs += Dur - Covered;
    T.Calls += S.Calls;
    ++T.Spans;
  }
  return Out;
}

bool writeSpans(const std::vector<Span> &Spans, const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name
        << "\",\"trace\":" << S.Trace << ",\"parent\":" << S.Parent
        << ",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"calls\":" << S.Calls << "}";
  }
  Out << "\n]\n";
  return bool(Out);
}

} // namespace perfbench
