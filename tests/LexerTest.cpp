//===- LexerTest.cpp - Lexer unit tests -------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include "kernels/Kernels.h"
#include "support/StableHash.h"

#include <gtest/gtest.h>

#include <bit>

using namespace dahlia;

namespace {

std::vector<TokKind> kindsOf(std::string_view Src) {
  Result<std::vector<Token>> R = lex(Src);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  std::vector<TokKind> Kinds;
  if (R)
    for (const Token &T : *R)
      Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, EmptyInput) {
  auto Kinds = kindsOf("");
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], TokKind::Eof);
}

TEST(Lexer, Keywords) {
  auto Kinds = kindsOf("let view if else while for unroll combine def decl "
                       "true false bank by shrink suffix shift split skip");
  std::vector<TokKind> Expected = {
      TokKind::KwLet,    TokKind::KwView,    TokKind::KwIf,
      TokKind::KwElse,   TokKind::KwWhile,   TokKind::KwFor,
      TokKind::KwUnroll, TokKind::KwCombine, TokKind::KwDef,
      TokKind::KwDecl,   TokKind::KwTrue,    TokKind::KwFalse,
      TokKind::KwBank,   TokKind::KwBy,      TokKind::KwShrink,
      TokKind::KwSuffix, TokKind::KwShift,   TokKind::KwSplit,
      TokKind::KwSkip,   TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, SeqSeparatorVersusMinus) {
  auto Kinds = kindsOf("a --- b - c -= d");
  std::vector<TokKind> Expected = {TokKind::Ident,   TokKind::SeqSep,
                                   TokKind::Ident,   TokKind::Minus,
                                   TokKind::Ident,   TokKind::MinusEq,
                                   TokKind::Ident,   TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, RangeVersusFloat) {
  Result<std::vector<Token>> R = lex("0..10 1.5");
  ASSERT_TRUE(bool(R));
  ASSERT_GE(R->size(), 5u);
  EXPECT_EQ((*R)[0].Kind, TokKind::IntLit);
  EXPECT_EQ((*R)[0].IntValue, 0);
  EXPECT_EQ((*R)[1].Kind, TokKind::DotDot);
  EXPECT_EQ((*R)[2].Kind, TokKind::IntLit);
  EXPECT_EQ((*R)[2].IntValue, 10);
  EXPECT_EQ((*R)[3].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ((*R)[3].FloatValue, 1.5);
}

TEST(Lexer, AssignVersusColon) {
  auto Kinds = kindsOf("x := 1; y : bit<32>");
  std::vector<TokKind> Expected = {
      TokKind::Ident, TokKind::Assign, TokKind::IntLit, TokKind::Semi,
      TokKind::Ident, TokKind::Colon,  TokKind::Ident,  TokKind::Lt,
      TokKind::IntLit, TokKind::Gt,    TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, Comments) {
  auto Kinds = kindsOf("a // line comment --- ignored\nb /* block\n * x */ c");
  std::vector<TokKind> Expected = {TokKind::Ident, TokKind::Ident,
                                   TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, UnterminatedBlockCommentIsError) {
  Result<std::vector<Token>> R = lex("a /* never closed");
  EXPECT_FALSE(bool(R));
  if (!R)
    EXPECT_EQ(R.error().kind(), ErrorKind::Lex);
}

TEST(Lexer, UnknownCharacterIsError) {
  Result<std::vector<Token>> R = lex("a $ b");
  EXPECT_FALSE(bool(R));
  // Bytes outside ASCII are not letters, whatever the locale says.
  R = lex("a \xc3\xa9 b");
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "unexpected character '\xc3'");
  EXPECT_EQ(R.error().loc(), SourceLoc(1, 3));
}

TEST(Lexer, ReducerOperators) {
  auto Kinds = kindsOf("a += b -= c *= d /= e");
  std::vector<TokKind> Expected = {
      TokKind::Ident, TokKind::PlusEq,  TokKind::Ident, TokKind::MinusEq,
      TokKind::Ident, TokKind::StarEq,  TokKind::Ident, TokKind::SlashEq,
      TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, ComparisonOperators) {
  auto Kinds = kindsOf("a == b != c <= d >= e < f > g && h || i");
  std::vector<TokKind> Expected = {
      TokKind::Ident, TokKind::EqEq,   TokKind::Ident, TokKind::NotEq,
      TokKind::Ident, TokKind::Le,     TokKind::Ident, TokKind::Ge,
      TokKind::Ident, TokKind::Lt,     TokKind::Ident, TokKind::Gt,
      TokKind::Ident, TokKind::AndAnd, TokKind::Ident, TokKind::OrOr,
      TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, SourceLocations) {
  Result<std::vector<Token>> R = lex("let\n  x = 1;");
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0].Loc, SourceLoc(1, 1));
  EXPECT_EQ((*R)[1].Loc, SourceLoc(2, 3));
  EXPECT_EQ((*R)[2].Loc, SourceLoc(2, 5));
}

TEST(Lexer, PhysicalAccessBraces) {
  auto Kinds = kindsOf("A{0}[1]");
  std::vector<TokKind> Expected = {
      TokKind::Ident,  TokKind::LBrace,   TokKind::IntLit, TokKind::RBrace,
      TokKind::LBracket, TokKind::IntLit, TokKind::RBracket, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, RewoundExponentKeepsColumns) {
  // "1ex" is the integer 1 followed by the identifier "ex": the 'e' is not
  // an exponent, so the scanner backs up, and the column must back up too.
  Result<std::vector<Token>> R = lex("1ex e");
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->size(), 4u);
  EXPECT_EQ((*R)[0].Kind, TokKind::IntLit);
  EXPECT_EQ((*R)[0].IntValue, 1);
  EXPECT_EQ((*R)[1].Kind, TokKind::Ident);
  EXPECT_EQ((*R)[1].Text, "ex");
  EXPECT_EQ((*R)[1].Loc, SourceLoc(1, 2));
  EXPECT_EQ((*R)[2].Loc, SourceLoc(1, 5));
  EXPECT_EQ((*R)[3].Loc, SourceLoc(1, 6));

  R = lex("2E+y");
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[1].Kind, TokKind::Ident);
  EXPECT_EQ((*R)[1].Loc, SourceLoc(1, 2));
  EXPECT_EQ((*R)[2].Kind, TokKind::Plus);
  EXPECT_EQ((*R)[2].Loc, SourceLoc(1, 3));
}

TEST(Lexer, OutOfRangeIntegerIsError) {
  Result<std::vector<Token>> R = lex("9223372036854775807");
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0].IntValue, INT64_MAX);

  for (const char *Src :
       {"x := 99999999999999999999;", "x := 9223372036854775808;"}) {
    R = lex(Src);
    ASSERT_FALSE(bool(R)) << Src;
    EXPECT_EQ(R.error().kind(), ErrorKind::Lex);
    EXPECT_EQ(R.error().message(), "integer literal out of range");
    EXPECT_EQ(R.error().loc(), SourceLoc(1, 6));
  }
}

uint64_t foldTokens(uint64_t H, std::string_view Src) {
  Result<std::vector<Token>> R = lex(Src);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  if (!R)
    return H;
  for (const Token &T : *R) {
    H = stableHashCombine(H, static_cast<uint64_t>(T.Kind));
    H = stableHashCombine(H, stableHash(T.Text));
    H = stableHashCombine(H, static_cast<uint64_t>(T.IntValue));
    H = stableHashCombine(H, std::bit_cast<uint64_t>(T.FloatValue));
    H = stableHashCombine(H, T.Loc.Line);
    H = stableHashCombine(H, T.Loc.Col);
  }
  return H;
}

TEST(Lexer, DseSpaceTokensArePinnedBitForBit) {
  // Every token of every configuration's Dahlia source across the four
  // DSE spaces (Figures 7 and 8), folded into one digest. The literal was
  // generated by the previous, map-and-copy lexer, so any drift in a
  // token's kind, spelling, value or location fails here.
  using namespace dahlia::kernels;
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const GemmBlockedConfig &C : gemmBlockedSpace())
    H = foldTokens(H, gemmBlockedDahlia(C));
  for (const Stencil2dConfig &C : stencil2dSpace())
    H = foldTokens(H, stencil2dDahlia(C));
  for (const MdKnnConfig &C : mdKnnSpace())
    H = foldTokens(H, mdKnnDahlia(C));
  for (const MdGridConfig &C : mdGridSpace())
    H = foldTokens(H, mdGridDahlia(C));
  EXPECT_EQ(H, 0x6f8009932a3b2fc1ULL);
}

} // namespace
