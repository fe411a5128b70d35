//===- Protocol.cpp - Compile service wire protocol -------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

using namespace dahlia;
using namespace dahlia::service;

const char *dahlia::service::opName(Op O) {
  switch (O) {
  case Op::Check:
    return "check";
  case Op::Estimate:
    return "estimate";
  case Op::Lower:
    return "lower";
  case Op::Simulate:
    return "simulate";
  case Op::DseSweep:
    return "dse-sweep";
  case Op::Metrics:
    return "metrics";
  case Op::Watch:
    return "watch";
  case Op::CacheExport:
    return "cache-export";
  case Op::CacheImport:
    return "cache-import";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Request
//===----------------------------------------------------------------------===//

std::optional<Request> Request::fromJson(const std::string &Line,
                                         std::string *Err) {
  std::optional<Json> J = Json::parse(Line, Err);
  if (!J)
    return std::nullopt;
  if (!J->isObject()) {
    if (Err)
      *Err = "request must be a JSON object";
    return std::nullopt;
  }

  Request R;
  R.Id = J->at("id").asInt();

  const std::string &OpStr = J->at("op").asString();
  if (OpStr == "check" || OpStr.empty()) { // check is the default op
    R.Kind = Op::Check;
  } else if (OpStr == "estimate") {
    R.Kind = Op::Estimate;
  } else if (OpStr == "lower") {
    R.Kind = Op::Lower;
  } else if (OpStr == "simulate") {
    R.Kind = Op::Simulate;
  } else if (OpStr == "dse-sweep") {
    R.Kind = Op::DseSweep;
  } else if (OpStr == "metrics") {
    R.Kind = Op::Metrics;
  } else if (OpStr == "watch") {
    R.Kind = Op::Watch;
  } else if (OpStr == "cache-export") {
    R.Kind = Op::CacheExport;
  } else if (OpStr == "cache-import") {
    R.Kind = Op::CacheImport;
  } else {
    if (Err)
      *Err = "unknown op '" + OpStr + "'";
    return std::nullopt;
  }

  R.Source = J->at("source").asString();
  R.Session = J->at("session").asString();
  R.Space = J->at("space").asString();
  R.Strategy = J->at("strategy").asString();
  R.Shard = J->at("shard").asString();
  R.ExactTopRung = J->at("exact").asBool();
  R.Stream = J->at("stream").asBool();
  int64_t Limit = J->at("limit").asInt();
  int64_t Threads = J->at("threads").asInt();
  if (Limit < 0 || Threads < 0 || Threads > 4096) {
    if (Err)
      *Err = "'limit'/'threads' out of range";
    return std::nullopt;
  }
  R.Limit = static_cast<size_t>(Limit);
  R.Threads = static_cast<unsigned>(Threads);
  int64_t TraceId = J->at("trace_id").asInt();
  if (TraceId < 0) {
    if (Err)
      *Err = "'trace_id' out of range";
    return std::nullopt;
  }
  R.TraceId = static_cast<uint64_t>(TraceId);
  double IntervalMs = J->at("interval_ms").asDouble();
  int64_t Count = J->at("count").asInt();
  if (IntervalMs < 0 || Count < 0 || Count > (1 << 20)) {
    if (Err)
      *Err = "'interval_ms'/'count' out of range";
    return std::nullopt;
  }
  R.WatchIntervalMs = IntervalMs;
  R.WatchCount = static_cast<uint64_t>(Count);

  if (J->contains("rewrite")) {
    const Json &RwJ = J->at("rewrite");
    if (!RwJ.isObject()) {
      if (Err)
        *Err = "rewrite must be an object";
      return std::nullopt;
    }
    Rewrite Rw;
    for (const auto &[Mem, Factors] : RwJ.at("banks").asObject()) {
      std::vector<int64_t> F;
      for (const Json &B : Factors.asArray())
        F.push_back(B.asInt());
      Rw.Banks[Mem] = std::move(F);
    }
    for (const auto &[Iter, Factor] : RwJ.at("unrolls").asObject())
      Rw.Unrolls[Iter] = Factor.asInt();
    R.Rw = std::move(Rw);
  }

  if (R.Kind == Op::CacheImport)
    R.CachePayload = J->at("cache");

  if (R.Kind == Op::DseSweep) {
    if (R.Space.empty()) {
      if (Err)
        *Err = "dse-sweep requires a 'space'";
      return std::nullopt;
    }
  } else if (R.Kind == Op::Metrics || R.Kind == Op::Watch ||
             R.Kind == Op::CacheExport || R.Kind == Op::CacheImport) {
    // Registry scrapes, progress watches, and cache shipping need no
    // source.
  } else if (!R.Source.empty() && R.Rw) {
    // Ambiguous: would the rewrite apply to this source or not? Make the
    // client pick one (establish with source, then rewrite by session).
    if (Err)
      *Err = "request cannot carry both 'source' and 'rewrite'";
    return std::nullopt;
  } else if (R.Source.empty() && !(R.Rw && !R.Session.empty())) {
    if (Err)
      *Err = "request requires 'source' (or 'session' + 'rewrite')";
    return std::nullopt;
  }
  return R;
}

Json Request::toJson() const {
  Json J = Json::object();
  J["id"] = Id;
  J["op"] = opName(Kind);
  if (!Source.empty())
    J["source"] = Source;
  if (!Session.empty())
    J["session"] = Session;
  if (Rw) {
    Json RwJ = Json::object();
    Json BanksJ = Json::object();
    for (const auto &[Mem, Factors] : Rw->Banks) {
      Json Arr = Json::array();
      for (int64_t F : Factors)
        Arr.push_back(F);
      BanksJ[Mem] = std::move(Arr);
    }
    Json UnrollsJ = Json::object();
    for (const auto &[Iter, Factor] : Rw->Unrolls)
      UnrollsJ[Iter] = Factor;
    RwJ["banks"] = std::move(BanksJ);
    RwJ["unrolls"] = std::move(UnrollsJ);
    J["rewrite"] = std::move(RwJ);
  }
  if (Kind == Op::DseSweep) {
    J["space"] = Space;
    if (Limit)
      J["limit"] = Limit;
    if (Threads)
      J["threads"] = Threads;
    if (!Strategy.empty())
      J["strategy"] = Strategy;
    if (!Shard.empty())
      J["shard"] = Shard;
    if (ExactTopRung)
      J["exact"] = true;
  }
  if (Kind == Op::Watch) {
    if (WatchIntervalMs > 0)
      J["interval_ms"] = WatchIntervalMs;
    if (WatchCount)
      J["count"] = WatchCount;
  }
  if (Kind == Op::CacheExport && !Shard.empty())
    J["shard"] = Shard;
  if (Kind == Op::CacheImport)
    J["cache"] = CachePayload;
  if (Stream)
    J["stream"] = true;
  if (TraceId)
    J["trace_id"] = TraceId;
  return J;
}

//===----------------------------------------------------------------------===//
// Response
//===----------------------------------------------------------------------===//

Json Response::toJson() const {
  Json J = Json::object();
  J["id"] = Id;
  J["op"] = opName(Kind);
  J["ok"] = Ok;
  J["latency_ms"] = LatencyMs;
  if (Cached)
    J["cached"] = true;
  if (ParseReused)
    J["parse_reused"] = true;
  if (!Errors.empty()) {
    Json Arr = Json::array();
    for (const Error &E : Errors)
      Arr.push_back(service::toJson(E));
    J["errors"] = std::move(Arr);
  }
  if (Est)
    J["estimate"] = service::toJson(*Est);
  if (Sim)
    J["sim"] = service::toJson(*Sim);
  if (!Lowered.empty())
    J["lowered"] = Lowered;
  if (Kind == Op::DseSweep && Sweep.isObject())
    J["sweep"] = Sweep;
  if (Kind == Op::Metrics && Metrics.isObject())
    J["metrics"] = Metrics;
  if (Kind == Op::Watch && Watch.isObject())
    J["watch"] = Watch;
  if ((Kind == Op::CacheExport || Kind == Op::CacheImport) &&
      !Cache.isNull())
    J["cache"] = Cache;
  if (TraceId)
    J["trace_id"] = TraceId;
  return J;
}

//===----------------------------------------------------------------------===//
// ResponseStream
//===----------------------------------------------------------------------===//

Json dahlia::service::jsonWithoutKey(const Json &J, const std::string &Key) {
  Json::Object O = J.asObject();
  O.erase(Key);
  return Json(std::move(O));
}

ResponseStream::ResponseStream(const std::optional<Request> &Req,
                               Response Resp)
    : R(std::move(Resp)) {
  // The bulky array moves out of the retained response: a stream queued
  // behind a slow connection holds its payload once, not twice, and the
  // terminal line serializes cheaply.
  bool Stream = Req && Req->Stream && R.Ok;
  if (Stream && R.Kind == Op::DseSweep) {
    ChunkKey = "front_point";
    Chunks = R.Sweep.at("front_points").asArray();
    R.Sweep = jsonWithoutKey(R.Sweep, "front_points");
  } else if (Stream && R.Kind == Op::Simulate && R.Sim) {
    ChunkKey = "nest";
    Chunks = service::toJson(*R.Sim).at("nests").asArray();
    R.Sim->Nests.clear();
  }
  // Anything else renders as the plain response: an empty chunk list with
  // an empty ChunkKey degenerates to header-less single-line output.
  if (ChunkKey.empty())
    Idx = Chunks.size() + 1; // Jump straight to the terminal line.
}

std::optional<std::string> ResponseStream::next() {
  if (done())
    return std::nullopt;

  if (Idx == 0) { // Header.
    ++Idx;
    Json H = Json::object();
    H["id"] = R.Id;
    H["op"] = opName(R.Kind);
    H["stream"] = true;
    return H.dump();
  }

  if (Idx <= Chunks.size()) { // One payload record per line.
    Json C = Json::object();
    C["id"] = R.Id;
    C[ChunkKey] = Chunks[Idx - 1];
    ++Idx;
    return C.dump();
  }

  // Terminal summary: the batch response minus the streamed array
  // (already detached in the constructor; the sim object still carries
  // an empty "nests" key to drop). The plain (non-streaming) degenerate
  // case lands here directly and emits the unmodified response.
  ++Idx;
  Json J = R.toJson();
  if (ChunkKey.empty())
    return J.dump();
  if (J.contains("sim"))
    J["sim"] = jsonWithoutKey(J.at("sim"), "nests");
  J["stream_end"] = true;
  return J.dump();
}

//===----------------------------------------------------------------------===//
// Shared serializers
//===----------------------------------------------------------------------===//

Json dahlia::service::toJson(const Error &E) {
  Json J = Json::object();
  J["kind"] = errorKindName(E.kind());
  J["message"] = E.message();
  J["line"] = static_cast<int64_t>(E.loc().Line);
  J["col"] = static_cast<int64_t>(E.loc().Col);
  return J;
}

Json dahlia::service::toJson(const driver::DiagnosticEngine &D) {
  Json Arr = Json::array();
  for (const Error &E : D.errors())
    Arr.push_back(toJson(E));
  return Arr;
}

Json dahlia::service::toJson(const hlsim::Estimate &E) {
  Json J = Json::object();
  J["cycles"] = E.Cycles;
  J["runtime_ms"] = E.RuntimeMs;
  J["ii"] = E.II;
  J["lut"] = E.Lut;
  J["ff"] = E.Ff;
  J["bram"] = E.Bram;
  J["dsp"] = E.Dsp;
  J["lutmem"] = E.LutMem;
  J["incorrect"] = E.Incorrect;
  J["predictable"] = E.Predictable;
  return J;
}

Json dahlia::service::toJson(const cyclesim::SimResult &S) {
  Json J = Json::object();
  J["cycles"] = S.Cycles;
  J["ii"] = S.II;
  J["truncated"] = S.Truncated;
  J["walked_groups"] = S.WalkedGroups;
  Json Nests = Json::array();
  for (const cyclesim::NestSim &N : S.Nests) {
    Json NJ = Json::object();
    NJ["ii"] = N.II;
    NJ["effective_ii"] = N.EffectiveII;
    NJ["groups"] = N.Groups;
    NJ["cycles"] = N.Cycles;
    NJ["walked_groups"] = N.WalkedGroups;
    NJ["conflict_groups"] = N.ConflictGroups;
    NJ["stall_cycles"] = N.StallCycles;
    NJ["max_port_pressure"] = N.MaxPortPressure;
    NJ["period_complete"] = N.PeriodComplete;
    Nests.push_back(std::move(NJ));
  }
  J["nests"] = std::move(Nests);
  return J;
}

hlsim::Estimate dahlia::service::estimateFromJson(const Json &E) {
  hlsim::Estimate Est;
  Est.Cycles = E.at("cycles").asDouble();
  Est.RuntimeMs = E.at("runtime_ms").asDouble();
  Est.II = E.at("ii").asDouble();
  Est.Lut = E.at("lut").asInt();
  Est.Ff = E.at("ff").asInt();
  Est.Bram = E.at("bram").asInt();
  Est.Dsp = E.at("dsp").asInt();
  Est.LutMem = E.at("lutmem").asInt();
  Est.Incorrect = E.at("incorrect").asBool();
  Est.Predictable = E.at("predictable").asBool();
  return Est;
}

std::string dahlia::service::cacheImageToWire(const ShardImage &Img) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string Bytes = Img.encode();
  std::string Hex(Bytes.size() * 2, '0');
  for (size_t I = 0; I != Bytes.size(); ++I) {
    auto B = static_cast<unsigned char>(Bytes[I]);
    Hex[2 * I] = kDigits[B >> 4];
    Hex[2 * I + 1] = kDigits[B & 0xf];
  }
  return Hex;
}

std::optional<ShardImage>
dahlia::service::cacheImageFromWire(const Json &Cache, std::string *Err) {
  auto Fail = [&](std::string Why) -> std::optional<ShardImage> {
    if (Err)
      *Err = std::move(Why);
    return std::nullopt;
  };
  if (!Cache.isString())
    return Fail("'cache' must be a hex string");
  const std::string &Hex = Cache.asString();
  if (Hex.size() % 2 != 0)
    return Fail("'cache' hex has odd length " + std::to_string(Hex.size()));
  auto Nibble = [](char C) {
    return C >= '0' && C <= '9'   ? C - '0'
           : C >= 'a' && C <= 'f' ? C - 'a' + 10
                                  : -1;
  };
  std::string Bytes(Hex.size() / 2, '\0');
  for (size_t I = 0; I != Bytes.size(); ++I) {
    int Hi = Nibble(Hex[2 * I]), Lo = Nibble(Hex[2 * I + 1]);
    if (Hi < 0 || Lo < 0)
      return Fail("'cache' has a non-hex digit at offset " +
                  std::to_string(Hi < 0 ? 2 * I : 2 * I + 1));
    Bytes[I] = static_cast<char>(Hi << 4 | Lo);
  }
  return ShardImage::decode(Bytes, kPersistentCacheFormatVersion, Err);
}

Json dahlia::service::timingsToJson(const driver::CompileResult &R) {
  Json J = Json::object();
  for (const driver::StageTiming &T : R.Timings)
    J[driver::stageName(T.S)] = T.Seconds * 1e3;
  J["total"] = R.totalSeconds() * 1e3;
  return J;
}
