//===- Json.cpp - Minimal JSON value, parser, and serializer ----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace dahlia;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

void escapeTo(std::ostringstream &OS, const std::string &S) {
  OS << '"';
  // Bytes that need no escape are written in runs, not one at a time:
  // protocol payloads carry strings of hundreds of kilobytes.
  size_t Run = 0;
  for (size_t I = 0; I != S.size(); ++I) {
    auto C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    OS.write(S.data() + Run, static_cast<std::streamsize>(I - Run));
    Run = I + 1;
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\b':
      OS << "\\b";
      break;
    case '\f':
      OS << "\\f";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\r':
      OS << "\\r";
      break;
    case '\t':
      OS << "\\t";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      OS << Buf;
    }
    }
  }
  OS.write(S.data() + Run, static_cast<std::streamsize>(S.size() - Run));
  OS << '"';
}

void dumpTo(std::ostringstream &OS, const Json &J) {
  if (J.isNull()) {
    OS << "null";
  } else if (J.isBool()) {
    OS << (J.asBool() ? "true" : "false");
  } else if (J.isInt()) {
    OS << J.asInt();
  } else if (J.isDouble()) {
    double D = J.asDouble();
    if (!std::isfinite(D)) {
      OS << "null"; // JSON has no Inf/NaN; null is the conventional stand-in.
      return;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    // Trim to the shortest representation that round-trips.
    for (int Prec = 1; Prec < 17; ++Prec) {
      char Short[40];
      std::snprintf(Short, sizeof(Short), "%.*g", Prec, D);
      if (std::strtod(Short, nullptr) == D) {
        OS << Short;
        return;
      }
    }
    OS << Buf;
  } else if (J.isString()) {
    escapeTo(OS, J.asString());
  } else if (J.isArray()) {
    OS << '[';
    bool First = true;
    for (const Json &E : J.asArray()) {
      if (!First)
        OS << ',';
      First = false;
      dumpTo(OS, E);
    }
    OS << ']';
  } else {
    OS << '{';
    bool First = true;
    for (const auto &[K, V] : J.asObject()) {
      if (!First)
        OS << ',';
      First = false;
      escapeTo(OS, K);
      OS << ':';
      dumpTo(OS, V);
    }
    OS << '}';
  }
}

} // namespace

std::string Json::dump() const {
  std::ostringstream OS;
  dumpTo(OS, *this);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(std::string_view Text, std::string *Err) : Text(Text), Err(Err) {}

  std::optional<Json> run() {
    std::optional<Json> J = value(0);
    if (!J)
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after value");
    return J;
  }

private:
  std::optional<Json> fail(const std::string &Why) {
    if (Err && Err->empty())
      *Err = Why + " at offset " + std::to_string(Pos);
    return std::nullopt;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  std::optional<Json> value(int Depth) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case 'n':
      return literal("null") ? std::optional<Json>(Json(nullptr))
                             : fail("invalid literal");
    case 't':
      return literal("true") ? std::optional<Json>(Json(true))
                             : fail("invalid literal");
    case 'f':
      return literal("false") ? std::optional<Json>(Json(false))
                              : fail("invalid literal");
    case '"':
      return string();
    case '[':
      return array(Depth);
    case '{':
      return object(Depth);
    default:
      return number();
    }
  }

  /// Containers recurse through value(); a hostile line of 100k '['s
  /// would otherwise overflow the stack long before any size cap fires.
  /// 192 frames is far beyond any legitimate protocol payload and well
  /// inside the smallest default thread stack.
  static constexpr int MaxDepth = 192;

  std::optional<Json> number() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsDouble = true;
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos == Start || (Pos == Start + 1 && Text[Start] == '-'))
      return fail("invalid number");
    std::string Num(Text.substr(Start, Pos - Start));
    if (!IsDouble) {
      errno = 0;
      char *End = nullptr;
      long long I = std::strtoll(Num.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0')
        return Json(static_cast<int64_t>(I));
      // Out-of-range integers degrade to double.
    }
    return Json(std::strtod(Num.c_str(), nullptr));
  }

  std::optional<Json> string() {
    ++Pos; // opening quote
    std::string Out;
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Json(std::move(Out));
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= H - '0';
          else if (H >= 'a' && H <= 'f')
            Code |= H - 'a' + 10;
          else if (H >= 'A' && H <= 'F')
            Code |= H - 'A' + 10;
          else
            return fail("invalid \\u escape");
        }
        // Encode as UTF-8 (surrogate pairs are passed through as two
        // 3-byte sequences; the protocol never emits them).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
  }

  std::optional<Json> array(int Depth) {
    ++Pos; // '['
    if (Depth >= MaxDepth)
      return fail("value nesting exceeds " + std::to_string(MaxDepth));
    Json::Array Out;
    skipWs();
    if (consume(']'))
      return Json(std::move(Out));
    while (true) {
      std::optional<Json> E = value(Depth + 1);
      if (!E)
        return std::nullopt;
      Out.push_back(std::move(*E));
      skipWs();
      if (consume(']'))
        return Json(std::move(Out));
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
  }

  std::optional<Json> object(int Depth) {
    ++Pos; // '{'
    if (Depth >= MaxDepth)
      return fail("value nesting exceeds " + std::to_string(MaxDepth));
    Json::Object Out;
    skipWs();
    if (consume('}'))
      return Json(std::move(Out));
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected string key in object");
      std::optional<Json> K = string();
      if (!K)
        return std::nullopt;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      std::optional<Json> V = value(Depth + 1);
      if (!V)
        return std::nullopt;
      Out[K->asString()] = std::move(*V);
      skipWs();
      if (consume('}'))
        return Json(std::move(Out));
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
  }

  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace

std::optional<Json> Json::parse(std::string_view Text, std::string *Err) {
  if (Err)
    Err->clear();
  return Parser(Text, Err).run();
}
