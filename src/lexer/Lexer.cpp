//===- Lexer.cpp - Dahlia lexer ---------------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include <array>
#include <charconv>
#include <cstdlib>
#include <cstring>

using namespace dahlia;

const char *dahlia::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Ident:
    return "identifier";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::FloatLit:
    return "float literal";
  case TokKind::KwLet:
    return "'let'";
  case TokKind::KwView:
    return "'view'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwUnroll:
    return "'unroll'";
  case TokKind::KwCombine:
    return "'combine'";
  case TokKind::KwDef:
    return "'def'";
  case TokKind::KwDecl:
    return "'decl'";
  case TokKind::KwTrue:
    return "'true'";
  case TokKind::KwFalse:
    return "'false'";
  case TokKind::KwBank:
    return "'bank'";
  case TokKind::KwBy:
    return "'by'";
  case TokKind::KwShrink:
    return "'shrink'";
  case TokKind::KwSuffix:
    return "'suffix'";
  case TokKind::KwShift:
    return "'shift'";
  case TokKind::KwSplit:
    return "'split'";
  case TokKind::KwSkip:
    return "'skip'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Semi:
    return "';'";
  case TokKind::Colon:
    return "':'";
  case TokKind::Comma:
    return "','";
  case TokKind::Assign:
    return "':='";
  case TokKind::Equal:
    return "'='";
  case TokKind::SeqSep:
    return "'---'";
  case TokKind::DotDot:
    return "'..'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::PlusEq:
    return "'+='";
  case TokKind::MinusEq:
    return "'-='";
  case TokKind::StarEq:
    return "'*='";
  case TokKind::SlashEq:
    return "'/='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Ge:
    return "'>='";
  case TokKind::AndAnd:
    return "'&&'";
  case TokKind::OrOr:
    return "'||'";
  }
  return "unknown token";
}

namespace {

/// Character classes of the scanner's dispatch table. They agree with
/// <cctype> in the C locale: Space is isspace() minus '\n', Word is
/// isalpha() plus '_', Digit is isdigit(). Every byte >= 0x80 is Invalid.
enum CharClass : uint8_t { Invalid, Space, Newline, Word, Digit, Punct };

constexpr std::array<CharClass, 256> makeCharClasses() {
  std::array<CharClass, 256> T{};
  for (char C : std::string_view(" \t\v\f\r"))
    T[static_cast<unsigned char>(C)] = Space;
  T['\n'] = Newline;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = Word;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = Word;
  T['_'] = Word;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = Digit;
  for (char C : std::string_view("(){}[];,:.-+*/%=!<>&|"))
    T[static_cast<unsigned char>(C)] = Punct;
  return T;
}

constexpr std::array<CharClass, 256> CharClasses = makeCharClasses();

CharClass classOf(char C) {
  return CharClasses[static_cast<unsigned char>(C)];
}

bool isWordChar(char C) {
  CharClass K = classOf(C);
  return K == Word || K == Digit;
}

TokKind keywordKind(std::string_view W) {
  switch (W.size()) {
  case 2:
    if (W == "if")
      return TokKind::KwIf;
    if (W == "by")
      return TokKind::KwBy;
    break;
  case 3:
    if (W == "let")
      return TokKind::KwLet;
    if (W == "for")
      return TokKind::KwFor;
    if (W == "def")
      return TokKind::KwDef;
    break;
  case 4:
    if (W == "view")
      return TokKind::KwView;
    if (W == "else")
      return TokKind::KwElse;
    if (W == "decl")
      return TokKind::KwDecl;
    if (W == "true")
      return TokKind::KwTrue;
    if (W == "bank")
      return TokKind::KwBank;
    if (W == "skip")
      return TokKind::KwSkip;
    break;
  case 5:
    if (W == "while")
      return TokKind::KwWhile;
    if (W == "false")
      return TokKind::KwFalse;
    if (W == "shift")
      return TokKind::KwShift;
    if (W == "split")
      return TokKind::KwSplit;
    break;
  case 6:
    if (W == "unroll")
      return TokKind::KwUnroll;
    if (W == "shrink")
      return TokKind::KwShrink;
    if (W == "suffix")
      return TokKind::KwSuffix;
    break;
  case 7:
    if (W == "combine")
      return TokKind::KwCombine;
    break;
  default:
    break;
  }
  return TokKind::Ident;
}

} // namespace

Result<std::vector<Token>> dahlia::lex(std::string_view Source) {
  const char *P = Source.data();
  const char *const End = P + Source.size();
  // Columns are byte offsets from the start of the line, so a location is
  // computed from the cursor instead of being tracked per character.
  const char *LineStart = P;
  uint32_t Line = 1;
  auto LocOf = [&](const char *At) {
    return SourceLoc(Line, static_cast<uint32_t>(At - LineStart) + 1);
  };
  auto Next = [&](const char *At) { return At + 1 < End ? At[1] : '\0'; };

  std::vector<Token> Toks;
  // The DSE kernels' sources average about three bytes per token.
  Toks.reserve(Source.size() / 3 + 1);

  while (P != End) {
    const char *Start = P;
    SourceLoc Loc = LocOf(P);
    // Appends the token spelled [Start, P).
    auto Emit = [&](TokKind K) -> Token & {
      return Toks.emplace_back(
          Token{K, std::string_view(Start, P - Start), 0, 0, Loc});
    };
    switch (classOf(*P)) {
    case Space:
      ++P;
      continue;
    case Newline:
      LineStart = ++P;
      ++Line;
      continue;
    case Word:
      while (++P != End && isWordChar(*P))
        ;
      Emit(keywordKind(std::string_view(Start, P - Start)));
      continue;
    case Digit: {
      auto SkipDigits = [&] {
        while (P != End && classOf(*P) == Digit)
          ++P;
      };
      SkipDigits();
      bool IsFloat = false;
      // Accept a fractional part, but not the range operator "..".
      if (P != End && *P == '.' && classOf(Next(P)) == Digit) {
        IsFloat = true;
        ++P;
        SkipDigits();
      }
      // An exponent needs a digit; otherwise the 'e' starts the next token.
      if (P != End && (*P == 'e' || *P == 'E')) {
        const char *Exp = P + 1;
        if (Exp != End && (*Exp == '+' || *Exp == '-'))
          ++Exp;
        if (Exp != End && classOf(*Exp) == Digit) {
          IsFloat = true;
          P = Exp;
          SkipDigits();
        }
      }
      Token &T = Emit(IsFloat ? TokKind::FloatLit : TokKind::IntLit);
      if (IsFloat) {
        T.FloatValue = std::strtod(std::string(T.Text).c_str(), nullptr);
      } else if (std::from_chars(Start, P, T.IntValue).ec != std::errc()) {
        return Error(ErrorKind::Lex, "integer literal out of range", Loc);
      }
      continue;
    }
    case Punct:
      break;
    case Invalid:
      return Error(ErrorKind::Lex,
                   std::string("unexpected character '") + *P + "'", Loc);
    }

    char C = *P, C1 = Next(P);
    auto Op = [&](TokKind K, int Len) {
      P += Len;
      Emit(K);
    };
    // A one-character operator, or its two-character form when '=' follows.
    auto OpEq = [&](TokKind Plain, TokKind WithEq) {
      if (C1 == '=')
        Op(WithEq, 2);
      else
        Op(Plain, 1);
    };
    switch (C) {
    case '(':
      Op(TokKind::LParen, 1);
      continue;
    case ')':
      Op(TokKind::RParen, 1);
      continue;
    case '{':
      Op(TokKind::LBrace, 1);
      continue;
    case '}':
      Op(TokKind::RBrace, 1);
      continue;
    case '[':
      Op(TokKind::LBracket, 1);
      continue;
    case ']':
      Op(TokKind::RBracket, 1);
      continue;
    case ';':
      Op(TokKind::Semi, 1);
      continue;
    case ',':
      Op(TokKind::Comma, 1);
      continue;
    case ':':
      OpEq(TokKind::Colon, TokKind::Assign);
      continue;
    case '.':
      if (C1 != '.')
        break;
      Op(TokKind::DotDot, 2);
      continue;
    case '-':
      if (C1 == '-' && Next(P + 1) == '-')
        Op(TokKind::SeqSep, 3);
      else
        OpEq(TokKind::Minus, TokKind::MinusEq);
      continue;
    case '+':
      OpEq(TokKind::Plus, TokKind::PlusEq);
      continue;
    case '*':
      OpEq(TokKind::Star, TokKind::StarEq);
      continue;
    case '/':
      if (C1 == '/') {
        const void *NL = std::memchr(P, '\n', End - P);
        P = NL ? static_cast<const char *>(NL) : End;
      } else if (C1 == '*') {
        for (P += 2;; ++P) {
          if (P == End)
            return Error(ErrorKind::Lex, "unterminated block comment", Loc);
          if (*P == '*' && Next(P) == '/')
            break;
          if (*P == '\n') {
            LineStart = P + 1;
            ++Line;
          }
        }
        P += 2;
      } else {
        OpEq(TokKind::Slash, TokKind::SlashEq);
      }
      continue;
    case '%':
      Op(TokKind::Percent, 1);
      continue;
    case '=':
      OpEq(TokKind::Equal, TokKind::EqEq);
      continue;
    case '!':
      if (C1 != '=')
        break;
      Op(TokKind::NotEq, 2);
      continue;
    case '<':
      OpEq(TokKind::Lt, TokKind::Le);
      continue;
    case '>':
      OpEq(TokKind::Gt, TokKind::Ge);
      continue;
    case '&':
      if (C1 != '&')
        break;
      Op(TokKind::AndAnd, 2);
      continue;
    case '|':
      if (C1 != '|')
        break;
      Op(TokKind::OrOr, 2);
      continue;
    default:
      break;
    }
    return Error(ErrorKind::Lex,
                 std::string("unexpected character '") + C + "'", Loc);
  }
  Toks.push_back({TokKind::Eof, std::string_view(), 0, 0, LocOf(P)});
  return Toks;
}
