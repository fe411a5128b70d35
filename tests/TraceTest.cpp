//===- TraceTest.cpp - Span tracing and metrics registry tests --*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The span contract of support/EventLog.h and the metrics contract of
// support/Metrics.h: spans recorded into the journal nest correctly across
// threads and render through SearchJournal::chromeTrace as well-formed
// Chrome trace-event JSON (named tracks, trace-id args, synthetic
// connection tracks, spans beside the search events of a sweep), a
// disabled TRACE_SPAN records and allocates nothing, a buffered journal
// keeps at most 2^18 spans per thread, and the metrics registry's
// counters/gauges/histograms aggregate and snapshot as documented in
// docs/observability.md.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"
#include "support/Metrics.h"

#include "dse/Journal.h"
#include "dse/SearchStrategy.h"
#include "kernels/Kernels.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

using namespace dahlia;

//===----------------------------------------------------------------------===//
// Global allocation counting (for the disabled-mode zero-allocation test)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<size_t> GAllocCount{0};
}

void *operator new(std::size_t N) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Every test leaves the journal stopped, so tests compose in any order
/// within the binary. Spans are recorded into a buffered journal and
/// rendered through the same path a binary's --trace-out takes.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override { eventlog::journalStop(); }
  void TearDown() override { eventlog::journalStop(); }

  /// Stops the journal and returns its span-only Chrome rendering.
  static Json spanTrace() {
    std::string Path = testing::TempDir() + "trace_test.json";
    EXPECT_TRUE(dse::journal::writeSpanTrace(Path));
    std::ifstream In(Path);
    std::stringstream Text;
    Text << In.rdbuf();
    std::remove(Path.c_str());
    std::optional<Json> J = Json::parse(Text.str());
    EXPECT_TRUE(J.has_value());
    return J ? *J : Json();
  }

  /// All "ph":"X" events named \p Name.
  static std::vector<Json> spansNamed(const Json &Root,
                                      const std::string &Name) {
    std::vector<Json> Out;
    for (const Json &E : Root.at("traceEvents").asArray())
      if (E.at("ph").asString() == "X" && E.at("name").asString() == Name)
        Out.push_back(E);
    return Out;
  }

  /// The thread_name metadata value for \p Tid, or "" when absent.
  static std::string threadNameOf(const Json &Root, int64_t Tid) {
    for (const Json &E : Root.at("traceEvents").asArray())
      if (E.at("ph").asString() == "M" &&
          E.at("name").asString() == "thread_name" &&
          E.at("tid").asInt() == Tid)
        return E.at("args").at("name").asString();
    return {};
  }
};

//===----------------------------------------------------------------------===//
// Span recording
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, SpansNestWithinOneThread) {
  eventlog::journalStartBuffered();
  {
    TRACE_SPAN("outer");
    TRACE_SPAN("inner");
  }

  Json Root = spanTrace();
  std::vector<Json> Outer = spansNamed(Root, "outer");
  std::vector<Json> Inner = spansNamed(Root, "inner");
  ASSERT_EQ(Outer.size(), 1u);
  ASSERT_EQ(Inner.size(), 1u);

  // Same thread, and the inner interval is contained in the outer one.
  EXPECT_EQ(Outer[0].at("tid").asInt(), Inner[0].at("tid").asInt());
  int64_t OS = Outer[0].at("ts").asInt(), OD = Outer[0].at("dur").asInt();
  int64_t IS = Inner[0].at("ts").asInt(), ID = Inner[0].at("dur").asInt();
  EXPECT_LE(OS, IS);
  EXPECT_LE(IS + ID, OS + OD);
}

TEST_F(TraceTest, ThreadsRecordOntoDistinctNamedTracks) {
  eventlog::journalStartBuffered();
  constexpr unsigned N = 4;
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != N; ++W)
    Workers.emplace_back([W] {
      eventlog::setThreadName("worker-" + std::to_string(W));
      TRACE_SPAN("work");
    });
  for (std::thread &T : Workers)
    T.join();

  Json Root = spanTrace();
  std::vector<Json> Work = spansNamed(Root, "work");
  ASSERT_EQ(Work.size(), N);

  // Every span sits on its own tid, and each tid carries its name.
  std::vector<int64_t> Tids;
  for (const Json &S : Work)
    Tids.push_back(S.at("tid").asInt());
  std::sort(Tids.begin(), Tids.end());
  EXPECT_EQ(std::unique(Tids.begin(), Tids.end()), Tids.end());
  unsigned Named = 0;
  for (int64_t Tid : Tids)
    if (threadNameOf(Root, Tid).rfind("worker-", 0) == 0)
      ++Named;
  EXPECT_EQ(Named, N);
}

TEST_F(TraceTest, SpansCarryTheScopedTraceId) {
  eventlog::journalStartBuffered();
  {
    eventlog::TraceIdScope Scope(42);
    EXPECT_EQ(eventlog::currentTraceId(), 42u);
    {
      eventlog::TraceIdScope Inner(7);
      EXPECT_EQ(eventlog::currentTraceId(), 7u);
      TRACE_SPAN("tagged");
    }
    EXPECT_EQ(eventlog::currentTraceId(), 42u); // Restored on scope exit.
  }
  EXPECT_EQ(eventlog::currentTraceId(), 0u);

  std::vector<Json> Tagged = spansNamed(spanTrace(), "tagged");
  ASSERT_EQ(Tagged.size(), 1u);
  EXPECT_EQ(Tagged[0].at("args").at("trace_id").asInt(), 7);
}

TEST_F(TraceTest, SyntheticTracksRenderAsNamedRows) {
  eventlog::journalStartBuffered();
  { TRACE_SPAN("on-thread"); }
  {
    eventlog::TraceIdScope Scope(3);
    eventlog::emitSpan("server.connection", eventlog::nowUs(), 5, "conn-9");
  }

  Json Root = spanTrace();
  std::vector<Json> Conn = spansNamed(Root, "server.connection");
  std::vector<Json> Thread = spansNamed(Root, "on-thread");
  ASSERT_EQ(Conn.size(), 1u);
  ASSERT_EQ(Thread.size(), 1u);
  int64_t Track = Conn[0].at("tid").asInt();
  EXPECT_NE(Track, Thread[0].at("tid").asInt()); // Its own row.
  EXPECT_EQ(Conn[0].at("dur").asInt(), 5);
  EXPECT_EQ(Conn[0].at("args").at("trace_id").asInt(), 3);
  EXPECT_EQ(threadNameOf(Root, Track), "conn-9");
}

TEST_F(TraceTest, DisabledTracingRecordsAndAllocatesNothing) {
  ASSERT_FALSE(eventlog::enabled());
  // Warm-up: any lazy statics the span path touches initialize here.
  { TRACE_SPAN("warmup"); }
  uint64_t Events = eventlog::journalEventCount();

  size_t Before = GAllocCount.load(std::memory_order_relaxed);
  for (int I = 0; I != 10000; ++I) {
    TRACE_SPAN("disabled");
  }
  size_t After = GAllocCount.load(std::memory_order_relaxed);

  EXPECT_EQ(After - Before, 0u);
  eventlog::emitSpan("ignored", 0, 1, "conn-1");
  EXPECT_EQ(eventlog::journalEventCount(), Events);
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  eventlog::journalStartBuffered();
  eventlog::setThreadName("main");
  { TRACE_SPAN("alpha"); }
  { TRACE_SPAN("beta"); }

  Json Root = spanTrace();
  ASSERT_TRUE(Root.isObject());
  EXPECT_EQ(Root.at("displayTimeUnit").asString(), "ms");
  const std::vector<Json> &Events = Root.at("traceEvents").asArray();
  ASSERT_GE(Events.size(), 3u); // Two spans + the thread_name record.
  for (const Json &E : Events) {
    const std::string &Ph = E.at("ph").asString();
    ASSERT_TRUE(Ph == "X" || Ph == "M");
    EXPECT_FALSE(E.at("name").asString().empty());
    EXPECT_EQ(E.at("pid").asInt(), 1);
    EXPECT_GT(E.at("tid").asInt(), 0);
    if (Ph == "X") {
      EXPECT_GE(E.at("ts").asInt(), 0);
      EXPECT_GE(E.at("dur").asInt(), 0);
    } else {
      EXPECT_EQ(E.at("name").asString(), "thread_name");
      EXPECT_FALSE(E.at("args").at("name").asString().empty());
    }
  }
}

TEST_F(TraceTest, RestartDropsEverything) {
  eventlog::journalStartBuffered();
  { TRACE_SPAN("doomed"); }
  eventlog::emitSpan("doomed", eventlog::nowUs(), 1, "doomed-track");
  eventlog::journalStop();
  EXPECT_EQ(eventlog::journalLines().size(), 4u); // begin, 2 spans, end

  eventlog::journalStartBuffered();
  eventlog::journalStop();
  EXPECT_EQ(eventlog::journalLines().size(), 2u); // begin, end
  Json Root = spanTrace();
  EXPECT_TRUE(spansNamed(Root, "doomed").empty());
  EXPECT_TRUE(Root.at("traceEvents").asArray().empty());
}

TEST_F(TraceTest, BufferedJournalKeepsAtMost2To18SpansPerThread) {
  constexpr size_t Cap = size_t(1) << 18;
  metrics::Counter &Dropped = metrics::counter("journal.dropped_spans");
  uint64_t DroppedBefore = Dropped.value();
  eventlog::journalStartBuffered();
  for (size_t I = 0; I != Cap + 5; ++I)
    eventlog::emitSpan("flood", 0, 1);
  // Another thread has its own allowance.
  std::thread([] { eventlog::emitSpan("other", 0, 1); }).join();
  eventlog::journalStop();

  EXPECT_EQ(eventlog::journalLines().size(), Cap + 1 + 2);
  EXPECT_EQ(Dropped.value() - DroppedBefore, 5u);
}

//===----------------------------------------------------------------------===//
// One timeline: spans beside the search events they paid for
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, HalvingSweepJournalRendersSpansBesideSearchEvents) {
  dse::DseProblem P = kernels::gemmBlockedProblem();
  P.Size = 200;
  dse::DseOptions O;
  O.Strategy = dse::StrategyKind::Halving;
  O.Threads = 2;
  eventlog::journalStartBuffered();
  dse::DseEngine(O).explore(P);
  eventlog::journalStop();

  // The full rendering: the strategy's span on the same timeline as the
  // prunes it decided.
  std::optional<dse::journal::SearchJournal> J =
      dse::journal::SearchJournal::parse(eventlog::journalLines());
  ASSERT_TRUE(J);
  EXPECT_TRUE(J->checkConsistent().empty());
  std::optional<Json> Full = Json::parse(J->chromeTrace());
  ASSERT_TRUE(Full);
  size_t Prunes = 0;
  for (const Json &E : Full->at("traceEvents").asArray())
    Prunes += E.at("ph").asString() == "i" && E.at("name").asString() == "prune";
  EXPECT_GT(Prunes, 0u) << "a 200-config halving sweep must prune something";
  EXPECT_EQ(spansNamed(*Full, "dse.halving").size(), 1u);

  // The span-only rendering a --trace-out file holds.
  Json Spans = spanTrace();
  for (const Json &E : Spans.at("traceEvents").asArray())
    EXPECT_TRUE(E.at("ph").asString() == "X" || E.at("ph").asString() == "M")
        << E.dump();
  EXPECT_EQ(spansNamed(Spans, "dse.halving").size(), 1u);
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CountersAndGaugesAggregate) {
  metrics::Counter &C = metrics::counter("test.counter");
  C.reset();
  C.inc();
  C.inc(9);
  EXPECT_EQ(C.value(), 10u);
  // Same name resolves to the same object.
  EXPECT_EQ(&metrics::counter("test.counter"), &C);

  metrics::Gauge &G = metrics::gauge("test.gauge");
  G.reset();
  G.set(5);
  G.setMax(3); // Below the current value: no effect.
  EXPECT_EQ(G.value(), 5);
  G.setMax(12);
  EXPECT_EQ(G.value(), 12);
}

TEST(MetricsTest, HistogramQuantilesLandInTheRecordedRange) {
  metrics::Histogram &H = metrics::histogram("test.histogram");
  H.reset();
  // 90 fast (1ms) and 10 slow (100ms) samples: p50 ~ 1ms, p99 ~ 100ms.
  for (int I = 0; I != 90; ++I)
    H.recordUs(1000);
  for (int I = 0; I != 10; ++I)
    H.recordUs(100000);
  EXPECT_EQ(H.count(), 100u);
  EXPECT_NEAR(H.maxMs(), 100.0, 0.01);
  EXPECT_NEAR(H.meanMs(), 10.9, 0.1);
  // Log-bucketed: quantiles are approximate (8 sub-buckets per octave,
  // <= ~12% error); assert the right bucket neighborhood, not equality.
  EXPECT_GT(H.percentileMs(0.5), 0.5);
  EXPECT_LT(H.percentileMs(0.5), 2.0);
  EXPECT_GT(H.percentileMs(0.99), 50.0);
  EXPECT_LT(H.percentileMs(0.99), 200.0);
  EXPECT_LE(H.percentileMs(0.5), H.percentileMs(0.95));
  EXPECT_LE(H.percentileMs(0.95), H.percentileMs(0.99));
}

TEST(MetricsTest, SnapshotSerializesEveryRegisteredKind) {
  metrics::counter("test.snap_counter").reset();
  metrics::counter("test.snap_counter").inc(3);
  metrics::gauge("test.snap_gauge").set(-4);
  metrics::Histogram &H = metrics::histogram("test.snap_hist");
  H.reset();
  H.recordMs(2.0);

  Json S = metrics::snapshot();
  ASSERT_TRUE(S.isObject());
  EXPECT_EQ(S.at("counters").at("test.snap_counter").asInt(), 3);
  EXPECT_EQ(S.at("gauges").at("test.snap_gauge").asInt(), -4);
  const Json &HJ = S.at("histograms").at("test.snap_hist");
  EXPECT_EQ(HJ.at("count").asInt(), 1);
  EXPECT_GT(HJ.at("p50_ms").asDouble(), 0.0);
  EXPECT_GT(HJ.at("p95_ms").asDouble(), 0.0);
  EXPECT_GT(HJ.at("p99_ms").asDouble(), 0.0);
  EXPECT_GT(HJ.at("max_ms").asDouble(), 0.0);
  EXPECT_GT(HJ.at("mean_ms").asDouble(), 0.0);

  std::vector<std::string> Names = metrics::registeredNames();
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end()));
  EXPECT_NE(std::find(Names.begin(), Names.end(), "test.snap_counter"),
            Names.end());
}

TEST(MetricsTest, ResetAllZeroesTheRegistry) {
  metrics::counter("test.reset_me").inc(7);
  metrics::resetAll();
  EXPECT_EQ(metrics::counter("test.reset_me").value(), 0u);
}

} // namespace
