//===- Spans.h - In-memory span recorder for the traced run -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: spans are opened around calls into the
/// library's public functions (never inside src/), kept in per-thread
/// in-memory buffers, and written out once when the run ends. A span that
/// times a batch of identical calls carries the call count, so per-call
/// costs of nanosecond operations are not swamped by the clock reads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t nowNs();

struct Span {
  const char *Name = "";
  uint64_t Trace = 0;  ///< Request id or config index the span belongs to.
  int64_t Parent = -1; ///< Index into the same collected vector; -1 = root.
  uint64_t StartNs = 0, EndNs = 0;
  uint64_t Calls = 1;  ///< Calls the span times (batch spans > 1).
};

/// Turns recording on or off process-wide (off by default: the untraced
/// runs pay one relaxed load per scope).
void setTracing(bool On);
bool tracing();

/// Records one span on the calling thread for its lifetime. Scopes nest
/// per thread: the innermost open scope is the parent.
class SpanScope {
public:
  explicit SpanScope(const char *Name, uint64_t Trace = 0, uint64_t Calls = 1);
  ~SpanScope();
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int64_t Index = -1;
};

/// Records a finished root span on the calling thread (for intervals
/// that do not nest, such as a request from send to reply).
void recordSpan(const char *Name, uint64_t Trace, uint64_t StartNs,
                uint64_t EndNs);

/// Every recorded span of every thread, parents re-indexed into the
/// returned vector. Call after all recording threads have finished.
std::vector<Span> collectSpans();

/// Per-name totals: self time (duration minus the union of the direct
/// children's intervals) and calls.
struct LayerTotals {
  double SelfNs = 0;
  uint64_t Calls = 0, Spans = 0;
  double selfPerCallNs() const { return Calls ? SelfNs / Calls : 0; }
};
std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &Spans);

/// Writes \p Spans as a JSON array of
/// {"name","trace","parent","start_ns","end_ns","calls"} objects.
bool writeSpans(const std::vector<Span> &Spans, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
