//===- EventLog.h - Structured JSONL event journal --------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process's one recorder: an append-only, schema-versioned JSONL
/// journal. The exploration stack emits per-config lifecycle records
/// through it — enumerated, rung promotion, estimates at each fidelity
/// (with cache provenance), prunes with machine-readable reasons,
/// Pareto-front entries and evictions — and every layer brackets its
/// interesting regions with \c TRACE_SPAN, one `span` record per closed
/// scope. So a span sits on the same timeline as the prune it paid for;
/// `dahlia-dse-report` replays the file, and \c SearchJournal::chromeTrace
/// (dse/Journal.h) renders it for Perfetto.
///
/// Cost model:
///
///   * disabled (the default): one relaxed atomic load and a branch per
///     call site — callers guard record construction behind
///     \c eventlog::enabled(), and a disabled span reads no clock, so
///     nothing allocates;
///   * enabled: the emitting thread serializes its record into a small
///     string, stamps seq / ts_us / trace_id under the journal mutex,
///     and appends to a bounded ring that a background thread drains to
///     the file. When the ring is full the emitter waits for the flusher
///     (`journal.stalls` counts it). A buffered journal keeps every
///     record in memory, except spans past 2^18 per thread
///     (`journal.dropped_spans`).
///
/// Records look like
///
///   {"seq":17,"ts_us":123456,"kind":"estimate","trace_id":9,
///    "config":4211,"fidelity":"medium","cache_hit":true}
///
/// `seq` is a strictly increasing journal-wide sequence number, `ts_us`
/// is on the nowUs() clock (as are a span's `start_us`/`dur_us`), and
/// `trace_id` (present when nonzero) is the emitting thread's
/// currentTraceId(). The first record of every journal is
/// `journal-begin` carrying `schema` (kSchemaVersion); the last is
/// `journal-end` carrying the final event count. Event kinds and their
/// fields are documented in docs/observability.md, and
/// docs/check_docs.py scrapes every `eventlog::emit("...")` literal
/// under src/ to keep that table honest. Building with
/// -DDAHLIA_ENABLE_TRACE=OFF compiles \c TRACE_SPAN away entirely.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SUPPORT_EVENTLOG_H
#define DAHLIA_SUPPORT_EVENTLOG_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dahlia::eventlog {

/// Journal format version, stamped into every `journal-begin` record.
/// Bump when an event kind changes meaning or a field is removed;
/// adding fields or kinds is backward compatible by construction
/// (consumers skip unknown keys and kinds).
constexpr int kSchemaVersion = 1;

/// Global runtime switch. Read with a relaxed load at every emission
/// site; flipped by journalStart*/journalStop.
extern std::atomic<bool> Enabled;

inline bool enabled() { return Enabled.load(std::memory_order_relaxed); }

/// A record under construction: field() calls append `,"key":value`
/// fragments to one preallocated string, so an event costs a single
/// allocation instead of a Json tree. Only build one behind an
/// enabled() guard:
///
///   if (eventlog::enabled())
///     eventlog::emit("prune", eventlog::Record()
///                                 .field("config", I)
///                                 .field("reason", "dominated")
///                                 .field("dominator", D));
class Record {
public:
  Record() { Buf.reserve(160); }

  Record &field(const char *Key, bool V);
  Record &field(const char *Key, int V);
  Record &field(const char *Key, unsigned V);
  Record &field(const char *Key, long V);
  Record &field(const char *Key, unsigned long V);
  Record &field(const char *Key, long long V);
  Record &field(const char *Key, unsigned long long V);
  Record &field(const char *Key, double V);
  Record &field(const char *Key, const char *V);
  Record &field(const char *Key, const std::string &V);
  /// Appends \p JsonFragment verbatim as the value (pre-serialized
  /// arrays/objects, e.g. a front membership list).
  Record &raw(const char *Key, const std::string &JsonFragment);

private:
  friend void emit(const char *Kind, Record &R);
  void key(const char *Key);
  std::string Buf;
};

/// Appends one record to the journal. \p Kind must be a literal matching
/// `[a-z][a-z0-9-]*` (docs/check_docs.py scrapes these). No-op when the
/// journal is disabled — but prefer guarding the Record construction
/// with enabled() so disabled call sites allocate nothing.
void emit(const char *Kind, Record &R);
inline void emit(const char *Kind, Record &&R) { emit(Kind, R); }

/// Opens \p Path for writing and starts journaling into it (background
/// flush thread). Writes the `journal-begin` header. Returns false when
/// the file cannot be opened. If a journal is already active it is
/// stopped first.
bool journalStart(const std::string &Path);

/// Starts an in-memory journal, read with journalLines() after
/// journalStop().
void journalStartBuffered();

/// Emits `journal-end` and closes the journal in one critical section (a
/// racing record lands before the trailer and is counted, or is
/// dropped), then drains the ring and joins the flusher. Safe to call
/// when no journal is active.
void journalStop();

/// True between journalStart*() and journalStop().
bool journalActive();

/// Total records emitted into the current (or, after stop, the last)
/// journal, including begin/end.
uint64_t journalEventCount();

/// The buffered journal's lines (buffered mode only; call after
/// journalStop()). File-mode journals return an empty vector.
std::vector<std::string> journalLines();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Microseconds on the journal clock (monotonic, process-relative).
uint64_t nowUs();

/// The calling thread's trace ID; records emitted while it is nonzero
/// carry `"trace_id"` in their envelope. Set via TraceIdScope.
uint64_t currentTraceId();

/// RAII: sets the calling thread's trace ID for the scope's duration,
/// restoring the previous one on exit.
class TraceIdScope {
public:
  explicit TraceIdScope(uint64_t Id);
  ~TraceIdScope();

  TraceIdScope(const TraceIdScope &) = delete;
  TraceIdScope &operator=(const TraceIdScope &) = delete;

private:
  uint64_t Prev;
};

/// Labels the calling thread's spans ("dse-worker-3", "tcp-server").
/// An unnamed thread's spans carry "thread-N".
void setThreadName(const std::string &Name);

/// Labels the calling thread only if it has no name yet. Pool workers
/// claim their label this way: the work-stealing pool enlists the
/// calling thread as worker 0, and an already-named host thread (the
/// server's event loop) must keep its identity.
void setThreadNameIfUnset(const std::string &Name);

/// Emits one `span` record: \p Name over [\p StartUs, \p StartUs +
/// \p DurUs) on the nowUs() clock, on track \p Track — the calling
/// thread's name when empty, or a track for something that is not a
/// thread (a server connection's "conn-N"). No-op when the journal is off.
void emitSpan(const char *Name, uint64_t StartUs, uint64_t DurUs,
              const std::string &Track = std::string());

/// RAII span: records [construction, destruction) on the calling
/// thread's track. \p Name must outlive the span (string literals). A
/// span opened while the journal is off, or closed after it stops, is
/// not recorded.
class Span {
public:
  explicit Span(const char *Name) {
    if (enabled())
      begin(Name);
  }
  ~Span() {
    if (SpanName)
      end();
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  // Out of line so a disabled span inlines to one load and a branch.
  void begin(const char *Name);
  void end();

  const char *SpanName = nullptr;
  uint64_t StartUs = 0;
};

} // namespace dahlia::eventlog

#if defined(DAHLIA_NO_TRACE)
#define TRACE_SPAN(Name)
#else
#define DAHLIA_TRACE_CAT2(A, B) A##B
#define DAHLIA_TRACE_CAT(A, B) DAHLIA_TRACE_CAT2(A, B)
/// Brackets the enclosing scope with a named span. Near-zero cost while
/// the journal is off; compiled away under -DDAHLIA_ENABLE_TRACE=OFF.
#define TRACE_SPAN(Name)                                                       \
  ::dahlia::eventlog::Span DAHLIA_TRACE_CAT(TraceSpan_, __LINE__)(Name)
#endif

#endif // DAHLIA_SUPPORT_EVENTLOG_H
