//===- EventLog.cpp - Structured JSONL event journal ----------------------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

namespace dahlia::eventlog {

std::atomic<bool> Enabled{false};

namespace {

/// Ring bound: emitters wait (rather than drop) once this many lines
/// are queued ahead of the flusher. Journal completeness is the point
/// of the tool, so back-pressure beats loss; `journal.stalls` counts
/// how often emission outran the disk.
constexpr size_t MaxRingLines = 1u << 15;

/// The flusher drains the ring once this many lines are queued, or every
/// FlushTick when fewer are: waking it per record would cost every emit
/// a futex wake and the file a write per line.
constexpr size_t FlushBatchLines = 1024;
constexpr std::chrono::milliseconds FlushTick{50};

/// Spans one thread may keep in a buffered journal, which has no flusher
/// to bound it; a long traced run keeps its first 2^18 spans per thread.
constexpr size_t MaxBufferedSpansPerThread = 1u << 18;

/// Nonzero while a buffered journal is active: a number unique to that
/// journal, so per-thread span counts reset when a new one starts.
std::atomic<uint64_t> BufferedGeneration{0};

/// Per-thread span state: the track name (set, or "thread-N" while the
/// thread has none), the spans this thread has put into the current
/// buffered journal, and the trace ID.
struct ThreadState {
  std::string Name;
  std::string AutoName;
  uint64_t Generation = 0;
  size_t BufferedSpans = 0;
  uint64_t TraceId = 0;
};

ThreadState &threadState() {
  thread_local ThreadState S;
  return S;
}

std::chrono::steady_clock::time_point clockEpoch() {
  static const std::chrono::steady_clock::time_point T0 =
      std::chrono::steady_clock::now();
  return T0;
}

/// The process journal. Leaked (never destroyed) for the same reason as
/// the metrics registry: emitting threads may still be running during
/// static destruction, and a leaked singleton keeps every access valid.
struct Journal {
  std::mutex M;
  std::condition_variable DataCV;  ///< flusher waits for records / stop
  std::condition_variable SpaceCV; ///< emitters wait for ring space
  std::deque<std::string> Ring;
  std::vector<std::string> Kept; ///< buffered mode retains lines here
  std::ofstream Out;
  std::thread Flusher;
  uint64_t Seq = 0;
  uint64_t Emitted = 0; ///< survives stop so tools can read the total
  bool Active = false;
  bool Buffered = false;
  bool StopFlag = false;
};

Journal &journal() {
  static Journal *J = new Journal();
  return *J;
}

void flusherMain() {
  Journal &J = journal();
  std::unique_lock<std::mutex> L(J.M);
  for (;;) {
    J.DataCV.wait_for(L, FlushTick, [&] {
      return J.StopFlag || J.Ring.size() >= FlushBatchLines;
    });
    if (J.Ring.empty()) {
      if (J.StopFlag)
        return;
      continue;
    }
    std::deque<std::string> Batch;
    Batch.swap(J.Ring);
    J.SpaceCV.notify_all();
    L.unlock();
    for (const std::string &Line : Batch)
      J.Out << Line << '\n';
    J.Out.flush(); // keep the file tail-able while a sweep runs
    L.lock();
  }
}

} // namespace

void Record::key(const char *K) {
  Buf += ",\"";
  Buf += K;
  Buf += "\":";
}

Record &Record::field(const char *K, bool V) {
  key(K);
  Buf += V ? "true" : "false";
  return *this;
}
Record &Record::field(const char *K, int V) {
  key(K);
  Buf += std::to_string(V);
  return *this;
}
Record &Record::field(const char *K, unsigned V) {
  key(K);
  Buf += std::to_string(V);
  return *this;
}
Record &Record::field(const char *K, long V) {
  key(K);
  Buf += std::to_string(V);
  return *this;
}
Record &Record::field(const char *K, unsigned long V) {
  key(K);
  Buf += std::to_string(V);
  return *this;
}
Record &Record::field(const char *K, long long V) {
  key(K);
  Buf += std::to_string(V);
  return *this;
}
Record &Record::field(const char *K, unsigned long long V) {
  key(K);
  Buf += std::to_string(V);
  return *this;
}
Record &Record::field(const char *K, double V) {
  key(K);
  Buf += Json(V).dump(); // shortest-round-trip, matches the wire format
  return *this;
}
Record &Record::field(const char *K, const char *V) {
  key(K);
  Buf += Json(V).dump(); // escaped
  return *this;
}
Record &Record::field(const char *K, const std::string &V) {
  key(K);
  Buf += Json(V).dump();
  return *this;
}
Record &Record::raw(const char *K, const std::string &JsonFragment) {
  key(K);
  Buf += JsonFragment;
  return *this;
}

namespace {

/// Stamps the envelope onto \p Payload and queues the line. The caller
/// holds the journal mutex and has checked that the journal is active.
void appendLocked(Journal &J, const char *Kind, const std::string &Payload) {
  uint64_t TraceId = currentTraceId();
  std::string Line;
  Line.reserve(Payload.size() + 64);
  Line += "{\"seq\":";
  Line += std::to_string(J.Seq++);
  Line += ",\"ts_us\":";
  Line += std::to_string(nowUs());
  Line += ",\"kind\":\"";
  Line += Kind;
  Line += '"';
  if (TraceId) {
    Line += ",\"trace_id\":";
    Line += std::to_string(TraceId);
  }
  Line += Payload;
  Line += '}';
  ++J.Emitted;
  static metrics::Counter &Events = metrics::counter("journal.events");
  Events.inc();
  if (J.Buffered) {
    J.Kept.push_back(std::move(Line));
  } else {
    J.Ring.push_back(std::move(Line));
    if (J.Ring.size() == FlushBatchLines)
      J.DataCV.notify_one();
  }
}

} // namespace

void emit(const char *Kind, Record &R) {
  if (!enabled())
    return;
  Journal &J = journal();
  std::unique_lock<std::mutex> L(J.M);
  if (!J.Active)
    return;
  if (!J.Buffered && J.Ring.size() >= MaxRingLines) {
    static metrics::Counter &Stalls = metrics::counter("journal.stalls");
    Stalls.inc();
    J.SpaceCV.wait(L,
                   [&] { return J.Ring.size() < MaxRingLines || !J.Active; });
    if (!J.Active)
      return;
  }
  appendLocked(J, Kind, R.Buf);
}

namespace {

/// Readies \p J for a new journal; the caller holds the journal mutex.
void resetLocked(Journal &J, bool Buffered) {
  static uint64_t Generations = 0;
  J.Ring.clear();
  J.Kept.clear();
  J.Seq = 0;
  J.Emitted = 0;
  J.Active = true;
  J.Buffered = Buffered;
  J.StopFlag = false;
  BufferedGeneration.store(Buffered ? ++Generations : 0,
                           std::memory_order_relaxed);
}

void enableAndBegin() {
  nowUs(); // pin the clock origin before the first record
  Enabled.store(true, std::memory_order_relaxed);
  eventlog::emit("journal-begin", Record().field("schema", kSchemaVersion));
}

} // namespace

bool journalStart(const std::string &Path) {
  journalStop();
  Journal &J = journal();
  {
    std::lock_guard<std::mutex> L(J.M);
    J.Out.clear();
    J.Out.open(Path, std::ios::out | std::ios::trunc);
    if (!J.Out)
      return false;
    resetLocked(J, /*Buffered=*/false);
  }
  J.Flusher = std::thread(flusherMain);
  enableAndBegin();
  return true;
}

void journalStartBuffered() {
  journalStop();
  {
    std::lock_guard<std::mutex> L(journal().M);
    resetLocked(journal(), /*Buffered=*/true);
  }
  enableAndBegin();
}

void journalStop() {
  Journal &J = journal();
  bool HadFlusher;
  {
    std::lock_guard<std::mutex> L(J.M);
    if (!J.Active)
      return;
    // Stamp the end record and close the journal in one critical
    // section: anything emitted after it sees !Active and is dropped, so
    // the count (which includes journal-end itself) is exact and nothing
    // lands after the trailer.
    appendLocked(J, "journal-end",
                 ",\"events\":" + std::to_string(J.Emitted + 1));
    J.Active = false;
    J.StopFlag = true;
    HadFlusher = J.Flusher.joinable();
    Enabled.store(false, std::memory_order_relaxed);
    BufferedGeneration.store(0, std::memory_order_relaxed);
    J.DataCV.notify_all();
    J.SpaceCV.notify_all();
  }
  if (HadFlusher)
    J.Flusher.join();
  std::lock_guard<std::mutex> L(J.M);
  if (J.Out.is_open())
    J.Out.close();
}

bool journalActive() {
  Journal &J = journal();
  std::lock_guard<std::mutex> L(J.M);
  return J.Active;
}

uint64_t journalEventCount() {
  Journal &J = journal();
  std::lock_guard<std::mutex> L(J.M);
  return J.Emitted;
}

std::vector<std::string> journalLines() {
  Journal &J = journal();
  std::lock_guard<std::mutex> L(J.M);
  return J.Kept;
}

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - clockEpoch())
          .count());
}

uint64_t currentTraceId() { return threadState().TraceId; }

TraceIdScope::TraceIdScope(uint64_t Id) : Prev(threadState().TraceId) {
  threadState().TraceId = Id;
}
TraceIdScope::~TraceIdScope() { threadState().TraceId = Prev; }

void setThreadName(const std::string &Name) { threadState().Name = Name; }

void setThreadNameIfUnset(const std::string &Name) {
  if (threadState().Name.empty())
    threadState().Name = Name;
}

void emitSpan(const char *Name, uint64_t StartUs, uint64_t DurUs,
              const std::string &Track) {
  if (!enabled())
    return;
  ThreadState &TS = threadState();
  if (uint64_t G = BufferedGeneration.load(std::memory_order_relaxed)) {
    if (std::exchange(TS.Generation, G) != G)
      TS.BufferedSpans = 0;
    if (++TS.BufferedSpans > MaxBufferedSpansPerThread) {
      static metrics::Counter &Dropped =
          metrics::counter("journal.dropped_spans");
      Dropped.inc();
      return;
    }
  }
  if (Track.empty() && TS.Name.empty() && TS.AutoName.empty()) {
    static std::atomic<uint64_t> NextThread{1};
    TS.AutoName = "thread-" + std::to_string(NextThread.fetch_add(1));
  }
  const std::string &T =
      !Track.empty() ? Track : !TS.Name.empty() ? TS.Name : TS.AutoName;
  eventlog::emit("span", Record()
                             .field("name", Name)
                             .field("start_us", StartUs)
                             .field("dur_us", DurUs)
                             .field("track", T));
}

void Span::begin(const char *Name) {
  SpanName = Name;
  StartUs = nowUs();
}

void Span::end() { emitSpan(SpanName, StartUs, nowUs() - StartUs); }

} // namespace dahlia::eventlog
