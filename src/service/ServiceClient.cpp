//===- ServiceClient.cpp - Client helper for the compile service -*- C++ -*-=//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "service/ServiceClient.h"

#include <istream>
#include <map>
#include <ostream>
#include <set>

using namespace dahlia;
using namespace dahlia::service;

namespace {

/// Digs a human-readable message out of a JSON payload that is not a
/// well-formed protocol response: the server's own words beat a generic
/// "unparseable" (the error-shape contract of docs/protocol.md).
std::string serverMessageIn(const Json &J) {
  if (!J.at("errors").asArray().empty()) {
    const Json &First = J.at("errors").asArray().front();
    if (First.isString())
      return First.asString();
    if (!First.at("message").asString().empty())
      return First.at("message").asString();
  }
  if (!J.at("message").asString().empty())
    return J.at("message").asString();
  if (J.at("error").isString() && !J.at("error").asString().empty())
    return J.at("error").asString();
  if (!J.at("error").at("message").asString().empty())
    return J.at("error").at("message").asString();
  return {};
}

} // namespace

ClientResponse dahlia::service::decodeResponse(const std::string &Line) {
  ClientResponse C;
  std::optional<Json> J = Json::parse(Line);
  if (!J) {
    C.R.Ok = false;
    std::string Snippet = Line.substr(0, 80);
    C.R.Errors.push_back(Error(
        ErrorKind::Internal, "malformed response line (not JSON): \"" +
                                 Snippet + (Line.size() > 80 ? "…" : "") +
                                 "\""));
    return C;
  }
  if (!J->isObject() || !J->contains("id") || !J->contains("op") ||
      !J->contains("ok")) {
    // Valid JSON, but not a protocol response. Surface whatever message
    // the payload carries instead of swallowing it.
    C.Raw = *J;
    C.R.Ok = false;
    std::string Msg = serverMessageIn(*J);
    C.R.Id = J->at("id").asInt();
    C.R.Errors.push_back(Error(
        ErrorKind::Internal,
        Msg.empty() ? "malformed response: JSON lacks id/op/ok fields"
                    : "server error: " + Msg));
    return C;
  }
  C.Raw = *J;
  C.R.Id = J->at("id").asInt();
  const std::string &OpStr = J->at("op").asString();
  for (Op O : {Op::Estimate, Op::Lower, Op::Simulate, Op::DseSweep,
               Op::Metrics, Op::Watch, Op::CacheExport, Op::CacheImport})
    if (OpStr == opName(O))
      C.R.Kind = O;
  C.R.Ok = J->at("ok").asBool();
  C.R.Cached = J->at("cached").asBool();
  C.R.ParseReused = J->at("parse_reused").asBool();
  C.R.LatencyMs = J->at("latency_ms").asDouble();
  for (const Json &E : J->at("errors").asArray()) {
    ErrorKind Kind = ErrorKind::Internal;
    const std::string &KindStr = E.at("kind").asString();
    for (ErrorKind K :
         {ErrorKind::Lex, ErrorKind::Parse, ErrorKind::Type,
          ErrorKind::Affine, ErrorKind::Banking, ErrorKind::Unroll,
          ErrorKind::View, ErrorKind::Semantics, ErrorKind::Internal})
      if (KindStr == errorKindName(K))
        Kind = K;
    C.R.Errors.push_back(
        Error(Kind, E.at("message").asString(),
              SourceLoc(static_cast<uint32_t>(E.at("line").asInt()),
                        static_cast<uint32_t>(E.at("col").asInt()))));
  }
  if (J->contains("estimate"))
    C.R.Est = estimateFromJson(J->at("estimate"));
  if (J->contains("sim")) {
    const Json &S = J->at("sim");
    cyclesim::SimResult Sim;
    Sim.Cycles = S.at("cycles").asDouble();
    Sim.II = S.at("ii").asDouble();
    Sim.Truncated = S.at("truncated").asBool();
    Sim.WalkedGroups = static_cast<uint64_t>(S.at("walked_groups").asInt());
    for (const Json &N : S.at("nests").asArray()) {
      cyclesim::NestSim NS;
      NS.II = N.at("ii").asDouble();
      NS.EffectiveII = N.at("effective_ii").asDouble();
      NS.Groups = N.at("groups").asDouble();
      NS.Cycles = N.at("cycles").asDouble();
      NS.WalkedGroups = static_cast<uint64_t>(N.at("walked_groups").asInt());
      NS.ConflictGroups =
          static_cast<uint64_t>(N.at("conflict_groups").asInt());
      NS.StallCycles = static_cast<uint64_t>(N.at("stall_cycles").asInt());
      NS.MaxPortPressure = N.at("max_port_pressure").asInt();
      NS.PeriodComplete = N.at("period_complete").asBool();
      Sim.Nests.push_back(NS);
    }
    C.R.Sim = std::move(Sim);
  }
  C.R.Lowered = J->at("lowered").asString();
  if (J->contains("sweep"))
    C.R.Sweep = J->at("sweep");
  if (J->contains("metrics"))
    C.R.Metrics = J->at("metrics");
  if (J->contains("watch"))
    C.R.Watch = J->at("watch");
  if (J->contains("cache"))
    C.R.Cache = J->at("cache");
  int64_t TraceId = J->at("trace_id").asInt();
  if (TraceId > 0)
    C.R.TraceId = static_cast<uint64_t>(TraceId);
  return C;
}

ServiceClient::ServiceClient(CompileService &Svc) : Local(&Svc) {}
ServiceClient::ServiceClient(std::istream &InS, std::ostream &OutS)
    : In(&InS), Out(&OutS) {}
ServiceClient::~ServiceClient() = default;

namespace {

/// Accumulates the wire lines of one logical response, reassembling
/// streamed sequences (header, chunks, terminal) into the
/// batch-equivalent JSON. Feed lines in order; a completed reply pops out
/// of take(), decoded, after feed() returns true.
class StreamAssembler {
public:
  /// Returns true when \p Line completed a logical reply.
  bool feed(const std::string &Line) {
    std::optional<Json> J = Json::parse(Line);
    if (!J || !J->isObject()) {
      // Not JSON at all: pass through; decodeResponse reports it.
      Done = {Line, false, 0};
      return true;
    }

    if (!InStream) {
      if (J->at("stream").asBool() && !J->contains("stream_end")) {
        // Stream header: start collecting.
        InStream = true;
        Chunks.clear();
        SeenPointIndices.clear();
        Poison.clear();
        return false;
      }
      // A JSON object that is neither a protocol response (id/op/ok) nor
      // an error payload (errors/message/error — which decodeResponse
      // surfaces verbatim) is an unknown record kind: a structured error
      // reply, never a guess.
      if (!(J->contains("op") && J->contains("ok")) &&
          !J->contains("errors") && !J->contains("message") &&
          !J->contains("error")) {
        Done = {errorLine(*J, "unknown record: " + Line.substr(0, 120)),
                false, 0};
        return true;
      }
      Done = {Line, false, 0};
      return true;
    }

    // Inside a stream: chunk or terminal.
    if (J->contains("stream_end")) {
      InStream = false;
      if (!Poison.empty()) {
        Done = {errorLine(*J, Poison), true, Chunks.size()};
        return true;
      }
      Done = {reassemble(*J), true, Chunks.size()};
      return true;
    }
    if (J->contains("front_point")) {
      const Json &P = J->at("front_point");
      int64_t Idx = P.at("index").asInt(-1);
      if (!SeenPointIndices.insert(Idx).second) {
        if (Poison.empty())
          Poison = "duplicate front_point chunk for config " +
                   std::to_string(Idx);
        return false; // First-wins: the duplicate is not collected.
      }
      Chunks.push_back(P);
    } else if (J->contains("nest")) {
      Chunks.push_back(J->at("nest"));
    } else if (J->contains("progress")) {
      Chunks.push_back(J->at("progress"));
    } else if (Poison.empty()) {
      Poison = "unknown stream chunk: " + Line.substr(0, 120);
    }
    return false;
  }

  ClientResponse take() {
    std::string Line = std::move(Done.Line);
    ClientResponse C = decodeResponse(Line);
    C.Streamed = Done.Streamed;
    C.StreamChunks = Done.Chunks;
    return C;
  }

  /// True between a stream header and its terminal summary — an EOF here
  /// means the server died with a response in flight.
  bool midStream() const { return InStream; }
  size_t pendingChunks() const { return Chunks.size(); }

private:
  /// Builds an ok=false protocol reply carrying \p Msg, echoing whatever
  /// id/op the offending record had so callBatch can still slot it.
  static std::string errorLine(const Json &J, const std::string &Msg) {
    Json O = Json::object();
    O["id"] = J.at("id").asInt();
    O["op"] = J.at("op").isString() ? J.at("op").asString()
                                    : std::string("check");
    O["ok"] = false;
    O["latency_ms"] = 0.0;
    Json E = Json::object();
    E["kind"] = errorKindName(ErrorKind::Internal);
    E["message"] = Msg;
    E["line"] = 0;
    E["col"] = 0;
    Json Errs = Json::array();
    Errs.push_back(std::move(E));
    O["errors"] = std::move(Errs);
    return O.dump();
  }

  /// Rebuilds the batch response from the terminal summary + chunks. The
  /// inverse of ResponseStream: front points go back into the sweep when
  /// the batch form carries them (sharded sweeps), nests always go back
  /// into the sim object.
  std::string reassemble(const Json &Terminal) {
    Json R = jsonWithoutKey(Terminal, "stream_end");
    const std::string &OpStr = R.at("op").asString();
    if (OpStr == "dse-sweep" && R.at("sweep").isObject()) {
      // The terminal's front membership must be covered by the
      // collected chunks — a premature stream_end would otherwise
      // reassemble a silently truncated front.
      if (R.at("ok").asBool()) {
        for (const char *Key : {"front", "accepted_front"})
          for (const Json &I : R.at("sweep").at(Key).asArray())
            if (!SeenPointIndices.count(I.asInt(-1)))
              return errorLine(
                  Terminal,
                  "stream ended before front_point chunk for config " +
                      std::to_string(I.asInt(-1)) +
                      " arrived (premature stream_end?)");
      }
      if (R.at("sweep").at("shard_count").asInt() > 1) {
        Json Sweep = R.at("sweep");
        Json Points = Json::array();
        for (Json &C : Chunks)
          Points.push_back(std::move(C));
        Sweep["front_points"] = std::move(Points);
        R["sweep"] = std::move(Sweep);
      }
    } else if (OpStr == "simulate" && R.at("sim").isObject()) {
      Json Sim = R.at("sim");
      Json Nests = Json::array();
      for (Json &C : Chunks)
        Nests.push_back(std::move(C));
      Sim["nests"] = std::move(Nests);
      R["sim"] = std::move(Sim);
    } else if (OpStr == "watch") {
      // A live watch has no batch equivalent; the collected progress
      // records are the stream's whole payload.
      Json Recs = Json::array();
      for (Json &C : Chunks)
        Recs.push_back(std::move(C));
      R["progress_records"] = std::move(Recs);
    }
    return R.dump();
  }

  bool InStream = false;
  std::vector<Json> Chunks;
  std::set<int64_t> SeenPointIndices;
  std::string Poison; ///< First violation inside the stream.
  struct {
    std::string Line; ///< Batch-equivalent JSON (reassembled if streamed).
    bool Streamed = false;
    size_t Chunks = 0;
  } Done;
};

} // namespace

std::vector<ClientResponse>
ServiceClient::exchange(const std::vector<std::string> &Lines) {
  std::vector<ClientResponse> Result;
  StreamAssembler Asm;
  auto FeedLine = [&](const std::string &Line) {
    if (Asm.feed(Line))
      Result.push_back(Asm.take());
  };

  if (Local) {
    // The in-process transport renders streamed responses through the
    // same chunked wire form the TCP server emits, so tests exercise the
    // full round trip.
    for (CompileService::BatchEntry &E : Local->processBatchEx(Lines)) {
      ResponseStream S(E.Req, std::move(E.Resp));
      while (std::optional<std::string> Line = S.next())
        FeedLine(*Line);
    }
    return Result;
  }

  for (const std::string &L : Lines)
    *Out << L << '\n';
  *Out << '\n'; // Blank line: flush the epoch.
  Out->flush();
  std::string Line;
  while (Result.size() != Lines.size() && std::getline(*In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (!Line.empty())
      FeedLine(Line);
  }

  // EOF (or a read error) before every reply arrived: the server died or
  // closed the connection mid-exchange. Leaving the missing slots as
  // default-constructed responses would be indistinguishable from "the
  // request was never made" — synthesize a structured error per missing
  // reply so callers see exactly what was lost.
  if (Result.size() != Lines.size()) {
    std::string Why = "connection closed before response (" +
                      std::to_string(Result.size()) + " of " +
                      std::to_string(Lines.size()) + " replies received";
    if (Asm.midStream())
      Why += "; mid-stream after " + std::to_string(Asm.pendingChunks()) +
             " chunks";
    Why += ")";
    Response Dead;
    Dead.Ok = false;
    Dead.Errors.push_back(Error(ErrorKind::Internal, Why));
    ClientResponse DeadReply = decodeResponse(Dead.toJson().dump());
    while (Result.size() != Lines.size())
      Result.push_back(DeadReply);
  }
  return Result;
}

ClientResponse ServiceClient::call(Request R) {
  // callBatch answers every slot (a lost reply is a structured error).
  return std::move(callBatch({std::move(R)}).front());
}

std::vector<ClientResponse> ServiceClient::callBatch(std::vector<Request> Rs) {
  std::vector<std::string> Lines;
  std::map<int64_t, size_t> IdToIndex;
  Lines.reserve(Rs.size());
  for (size_t I = 0; I != Rs.size(); ++I) {
    Rs[I].Id = NextId++;
    IdToIndex[Rs[I].Id] = I;
    Lines.push_back(Rs[I].toJson().dump());
  }

  std::vector<ClientResponse> Decoded(Rs.size());
  size_t Cursor = 0;
  for (ClientResponse &C : exchange(Lines)) {
    auto It = IdToIndex.find(C.R.Id);
    size_t Slot = It != IdToIndex.end() ? It->second : Cursor;
    if (Slot < Decoded.size())
      Decoded[Slot] = std::move(C);
    ++Cursor;
  }
  return Decoded;
}

ClientResponse ServiceClient::check(const std::string &Source,
                                    const std::string &Session) {
  Request R;
  R.Kind = Op::Check;
  R.Source = Source;
  R.Session = Session;
  return call(std::move(R));
}

ClientResponse ServiceClient::recheck(const std::string &Session,
                                      const Rewrite &Rw) {
  Request R;
  R.Kind = Op::Check;
  R.Session = Session;
  R.Rw = Rw;
  return call(std::move(R));
}

ClientResponse ServiceClient::estimate(const std::string &Source) {
  Request R;
  R.Kind = Op::Estimate;
  R.Source = Source;
  return call(std::move(R));
}

ClientResponse ServiceClient::lower(const std::string &Source) {
  Request R;
  R.Kind = Op::Lower;
  R.Source = Source;
  return call(std::move(R));
}

ClientResponse ServiceClient::dseSweep(const std::string &Space, size_t Limit,
                                       unsigned Threads) {
  Request R;
  R.Kind = Op::DseSweep;
  R.Space = Space;
  R.Limit = Limit;
  R.Threads = Threads;
  return call(std::move(R));
}

ClientResponse ServiceClient::cacheExport(const std::string &Slice) {
  Request R;
  R.Kind = Op::CacheExport;
  R.Shard = Slice;
  return call(std::move(R));
}

ClientResponse ServiceClient::cacheImport(Json Payload) {
  Request R;
  R.Kind = Op::CacheImport;
  R.CachePayload = std::move(Payload);
  return call(std::move(R));
}

ClientResponse ServiceClient::metrics() {
  Request R;
  R.Kind = Op::Metrics;
  return call(std::move(R));
}

ClientResponse ServiceClient::watch(bool Stream, uint64_t Count,
                                    double IntervalMs) {
  Request R;
  R.Kind = Op::Watch;
  R.Stream = Stream;
  R.WatchCount = Count;
  R.WatchIntervalMs = IntervalMs;
  return call(std::move(R));
}
