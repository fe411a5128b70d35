//===- ProtoFuzz.h - Protocol fuzzer + hostile-client soak ------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The protocol fuzzer: boots an in-process TcpServer and throws hostile
/// traffic at it — garbage bytes, truncated frames, oversized lines,
/// byte-interleaved writes, deeply nested JSON, half-open connections,
/// abandoned batches, no-read floods — while well-behaved clients run
/// validated request batches on the same server the whole time.
///
/// The properties asserted, per attack and at the end of the soak:
///
///   * every complete, non-empty request line gets exactly one response
///     line (malformed lines get an `ok:false` error response — the
///     server never silently swallows a frame);
///   * an oversized line gets one error response and then a close, never
///     unbounded buffering;
///   * no hostile connection can crash the server or stall the
///     well-behaved clients' in-flight batches (their responses keep
///     validating throughout);
///   * after everything, a fresh client still gets a correct answer (the
///     final liveness probe).
///
/// The harness runs server and clients in one process so ASan/TSan see
/// both sides; a crash anywhere fails the whole run. Determinism: all
/// hostile payloads derive from ProtoFuzzOptions::Seed via SplitMix64.
///
/// Self-test (`dahlia-fuzz-proto --self-test`): InjectSwallowTruncated
/// simulates a server that drops truncated frames without answering (the
/// harness discards the error response the real server sent). A healthy
/// harness must convert that into a `truncated-frame` failure — proving
/// the truncated-frame oracle has teeth.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_FUZZ_PROTOFUZZ_H
#define DAHLIA_FUZZ_PROTOFUZZ_H

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dahlia::fuzz {

/// Soak knobs. Defaults are the tier-1 ServiceTest budget; the nightly
/// leg raises Rounds.
struct ProtoFuzzOptions {
  uint64_t Seed = 1;
  /// Hostile rounds; each round runs the full attack catalog once.
  int Rounds = 4;
  /// Concurrent well-behaved clients validating batches for the whole
  /// soak.
  int WellBehaved = 2;
  /// Per-line byte cap configured on the server under test. Small, so
  /// the oversized-line attack is cheap.
  size_t MaxLineBytes = 1 << 16;
  /// Per-read timeout for hostile-side response reads. A server that
  /// stops answering turns into timeouts, which are failures.
  int RecvTimeoutMs = 10000;
  /// Self-test fault injection: pretend the server never answered the
  /// truncated frame (see file comment).
  bool InjectSwallowTruncated = false;
};

/// One property violation observed during the soak.
struct ProtoFailure {
  int Round = 0;
  std::string Attack; ///< Catalog slug ("garbage", "truncated-frame", ...).
  std::string Detail;

  Json toJson() const;
};

/// Aggregate counters. Timing-free so reports are reproducible.
struct ProtoFuzzStats {
  bool Skipped = false; ///< No sockets on this platform; nothing ran.
  uint64_t Rounds = 0;
  uint64_t Attacks = 0;            ///< Attack executions.
  uint64_t HostileConnections = 0; ///< Connections the attacks opened.
  uint64_t HostileBytes = 0;       ///< Bytes of hostile payload sent.
  uint64_t WellBehavedBatches = 0; ///< Validated batches completed.

  Json toJson() const;
};

struct ProtoFuzzReport {
  ProtoFuzzStats Stats;
  std::vector<ProtoFailure> Failures;

  bool clean() const { return Failures.empty(); }
  Json toJson() const;
};

/// Runs the soak. Boots its own CompileService + TcpServer on an
/// ephemeral loopback port; returns after the final liveness probe.
ProtoFuzzReport runProtoFuzz(const ProtoFuzzOptions &O = {});

/// Cluster-dialect knobs (`dahlia-fuzz-proto --cluster`): hostile
/// *workers* against a real ClusterCoordinator instead of hostile
/// clients against a server.
struct ClusterFuzzOptions {
  uint64_t Seed = 1;
  /// Hostile rounds; each round runs the whole worker-fault catalog once
  /// (one coordinator run per catalog entry, every parameter seeded).
  int Rounds = 2;
  /// Sweep size per coordinator run. Small: the oracle needs many runs,
  /// not big ones.
  size_t Limit = 80;
};

/// The cluster dialect: every round pairs one honest TcpServer worker
/// with one fault-injecting worker (garbage chunks, duplicate chunks,
/// duplicate/garbled scripted replies, premature stream_end, truncated
/// frames, mid-stream kills — modes and trigger windows drawn from the
/// seed) and drives a sharded sweep through a real ClusterCoordinator.
///
/// The oracle, per run:
///   * liveness — the coordinator returns (retry caps bound every fault);
///   * exact-front-or-structured-error — a run that claims success must
///     reproduce the single-machine front hash bit-for-bit, and a failed
///     run must carry a non-empty structured error list; a wrong front
///     or a silent failure is a finding;
///   * the honest worker answers a fresh probe after every round.
///
/// Minimized wire-level findings are pinned as `cluster_*.lines` scripts
/// in tests/fuzz-corpus/, replayed by FuzzTest through the client decoder
/// the coordinator uses.
ProtoFuzzReport runClusterFuzz(const ClusterFuzzOptions &O = {});

} // namespace dahlia::fuzz

#endif // DAHLIA_FUZZ_PROTOFUZZ_H
