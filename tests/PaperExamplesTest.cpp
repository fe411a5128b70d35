//===- PaperExamplesTest.cpp - Verbatim paper listings ----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Every code listing from Section 3 of the paper, as close to verbatim as
// the grammar allows, with the acceptance/rejection and semantics the
// prose describes. SemaTest covers the same rules piecewise; this suite
// pins the listings themselves, plus cross-cutting behaviours (physical vs
// logical addressing equivalence, end-to-end execution of the listings).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerPipeline.h"
#include "filament/Interp.h"
#include "parser/Parser.h"
#include "sema/TypeChecker.h"

#include <gtest/gtest.h>

using namespace dahlia;
namespace fil = dahlia::filament;

namespace {

/// Checks \p Src as a bare command, and asserts that the early-stopping
/// verdict (typeChecks) agrees with the full check.
std::vector<Error> check(std::string_view Src) {
  std::vector<Error> Errs = driver::checkBareCommand(Src);
  bool ParseFailed = !Errs.empty() && (Errs.front().kind() == ErrorKind::Parse ||
                                       Errs.front().kind() == ErrorKind::Lex);
  EXPECT_FALSE(ParseFailed) << Errs.front().str();
  if (Result<CmdPtr> C = parseCommand(Src)) {
    EXPECT_EQ(typeChecks(**C), Errs.empty()) << Src;
  }
  return Errs;
}

/// Parses, checks, and lowers through the pipeline; asserts success.
LoweredProgram lowerOK(std::string_view Src) {
  driver::CompileResult R = driver::CompilerPipeline().lower(Src);
  EXPECT_TRUE(R.ok()) << R.firstError();
  return R.ok() ? std::move(*R.Lowered) : LoweredProgram{};
}

//===----------------------------------------------------------------------===//
// Section 3.1 listings
//===----------------------------------------------------------------------===//

TEST(Paper31, MemoryDeclarationAndSubscript) {
  // "let A: float[10];" ... "A[5] := 4.2".
  EXPECT_TRUE(check("let A: float[10]; A[5] := 4.2;").empty());
}

TEST(Paper31, ListingOkThenCopyError) {
  // let x = A[0]; // OK: x is a float.
  // let B = A;    // Error: cannot copy memories.
  std::vector<Error> Errs =
      check("let A: float[10]; let x = A[0]; let B = A;");
  ASSERT_EQ(Errs.size(), 1u);
  EXPECT_EQ(Errs[0].kind(), ErrorKind::Affine);
  EXPECT_NE(Errs[0].message().find("cannot copy"), std::string::npos);
}

TEST(Paper31, ReadThenWriteListing) {
  // let x = A[0]; // OK
  // A[1] := 1;    // Error: Previous read consumed A.
  std::vector<Error> Errs =
      check("let A: float[10]; let x = A[0]; A[1] := 1;");
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs[0].kind(), ErrorKind::Affine);
}

TEST(Paper31, IdenticalReadListing) {
  EXPECT_TRUE(check("let A: float[10];\n"
                    "let x = A[0];\n"
                    "let y = A[0]; // OK: Reading the same address.")
                  .empty());
}

TEST(Paper31, EquivalentTempRewriteAlsoChecks) {
  // "let tmp = A[0]; let x = tmp; let y = tmp;"
  EXPECT_TRUE(check("let A: float[10];\n"
                    "let tmp = A[0]; let x = tmp; let y = tmp;")
                  .empty());
}

//===----------------------------------------------------------------------===//
// Section 3.2 listings
//===----------------------------------------------------------------------===//

TEST(Paper32, OrderedCompositionListing) {
  EXPECT_TRUE(check("let A: float[10];\nlet x = A[0]\n---\nA[1] := 1;")
                  .empty());
}

TEST(Paper32, CompositeListingRejectsFinalRead) {
  std::vector<Error> Errs =
      check("let A: float[10]; let B: float[10];\n"
            "{\n"
            "  let x = A[0] + 1\n"
            "  ---\n"
            "  B[1] := A[1] + x // OK\n"
            "};\n"
            "let y = B[0]; // Error: B already consumed.");
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs[0].kind(), ErrorKind::Affine);
  EXPECT_NE(Errs[0].message().find("'B'"), std::string::npos);
}

TEST(Paper32, LocalVariablesListing) {
  // "let x = 0; x := x + 1; let y = x; // All OK"
  EXPECT_TRUE(check("let x = 0; x := x + 1; let y = x;").empty());
}

TEST(Paper32, RegisterInferenceListingChecksAndRuns) {
  // "let x = A[0] + 1 --- B[0] := A[1] + x" — x crosses a time step.
  const char *Src = "decl A: bit<32>[2];\n"
                    "decl B: bit<32>[2];\n"
                    "let x = A[0] + 1\n"
                    "---\n"
                    "B[0] := A[1] + x;";
  LoweredProgram L = lowerOK(Src);
  ASSERT_TRUE(L.Program);
  fil::Store S = L.makeStore(
      +[](const std::string &, int64_t I) { return 5 + I; });
  fil::SmallStepper M(S, fil::Rho(), L.Program);
  ASSERT_TRUE(bool(M.run()));
  auto [Bank, Off] = L.Mems["B"].locate({0});
  // B[0] = A[1] + (A[0] + 1) = 6 + 6 = 12.
  EXPECT_EQ(std::get<int64_t>(M.store().Mems.at(Bank).at(
                static_cast<size_t>(Off))),
            12);
}

//===----------------------------------------------------------------------===//
// Section 3.3 listings
//===----------------------------------------------------------------------===//

TEST(Paper33, PhysicalBankAccessListing) {
  EXPECT_TRUE(check("let A: float[10 bank 2];\n"
                    "A{0}[0] := 1;\n"
                    "A{1}[0] := 2; // OK: Accessing a different bank.")
                  .empty());
}

TEST(Paper33, LogicalEqualsPhysicalAddressing) {
  // "A[1] is equivalent to A{1}[0]": they consume the same bank, so using
  // both in one time step conflicts; across time steps it is fine.
  EXPECT_FALSE(check("let A: float[10 bank 2];\n"
                     "A[1] := 1; A{1}[0] := 2;")
                   .empty());
  EXPECT_TRUE(check("let A: float[10 bank 2];\n"
                    "A[1] := 1\n---\nA{1}[0] := 2;")
                  .empty());
}

TEST(Paper33, MultiPortListing) {
  EXPECT_TRUE(check("let A: float{2}[10];\n"
                    "let x = A[0];\n"
                    "A[1] := x + 1;")
                  .empty());
}

TEST(Paper33, TwoDimensionalListing) {
  // "let M: float[4 bank 2][4 bank 2];" and "M{3}[0] represents the
  // element logically located at M[1][1]".
  EXPECT_FALSE(check("let M: float[4 bank 2][4 bank 2];\n"
                     "M[1][1] := 1; M{3}[0] := 2;")
                   .empty());
  EXPECT_TRUE(check("let M: float[4 bank 2][4 bank 2];\n"
                    "M[1][1] := 1; M{0}[0] := 2;")
                  .empty());
}

TEST(Paper33, PhysicalAndLogicalAgreeAtRuntime) {
  // Writing through M{3}[0] must land at M[1][1] in the lowered layout.
  const char *Src = "decl M: bit<32>[4 bank 2][4 bank 2];\n"
                    "M{3}[0] := 42;";
  LoweredProgram L = lowerOK(Src);
  ASSERT_TRUE(L.Program);
  fil::SmallStepper M(L.makeZeroStore(), fil::Rho(), L.Program);
  ASSERT_TRUE(bool(M.run()));
  auto [Bank, Off] = L.Mems["M"].locate({1, 1});
  EXPECT_EQ(std::get<int64_t>(
                M.store().Mems.at(Bank).at(static_cast<size_t>(Off))),
            42);
}

//===----------------------------------------------------------------------===//
// Section 3.4 listings
//===----------------------------------------------------------------------===//

TEST(Paper34, UnrollEquivalenceListing) {
  // "for (let i = 0..10) unroll 2 { f(i) }" is equivalent to a sequential
  // loop over two copies — both must type-check against a 2-banked array.
  EXPECT_TRUE(check("let A: float[10 bank 2];\n"
                    "for (let i = 0..10) unroll 2 { A[i] := 1.0; }")
                  .empty());
}

TEST(Paper34, InsufficientBanksListing) {
  std::vector<Error> Errs =
      check("let A: float[10];\n"
            "for (let i = 0..10) unroll 2 {\n"
            "  A[i] := 1.0; // Error: Insufficient banks.\n"
            "}");
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs[0].kind(), ErrorKind::Unroll);
  EXPECT_NE(Errs[0].message().find("insufficient banks"),
            std::string::npos);
}

TEST(Paper34, IndexTypesConsumeAllBanks) {
  // "for (let i = 0..8) unroll 4 { A[i] }": idx{0..4} consumes banks
  // 0,1,2,3 — a second access to any bank conflicts.
  EXPECT_FALSE(check("let A: float[8 bank 4];\n"
                     "for (let i = 0..8) unroll 4 {\n"
                     "  let x = A[i]; let y = A[0];\n"
                     "}")
                   .empty());
}

//===----------------------------------------------------------------------===//
// Section 3.5 listing: the dot product
//===----------------------------------------------------------------------===//

TEST(Paper35, DotProductListingsAndExecution) {
  // Rejected form: "for (let i = 0..10) unroll 2 { dot += A[i] * B[i] }".
  EXPECT_FALSE(check("let A: float[10 bank 2]; let B: float[10 bank 2];\n"
                     "let dot = 0.0;\n"
                     "for (let i = 0..10) unroll 2 { dot += A[i] * B[i]; }")
                   .empty());
  // Accepted form with the combine block; execute it end to end.
  const char *Src = "decl A: bit<32>[10 bank 2];\n"
                    "decl B: bit<32>[10 bank 2];\n"
                    "decl out: bit<32>[1];\n"
                    "let dot = 0;\n"
                    "{\n"
                    "for (let i = 0..10) unroll 2 {\n"
                    "  let v = A[i] * B[i];\n"
                    "} combine {\n"
                    "  dot += v;\n"
                    "}\n"
                    "}\n"
                    "---\n"
                    "out[0] := dot;";
  LoweredProgram L = lowerOK(Src);
  ASSERT_TRUE(L.Program);
  // A[i] = i+1, B[i] = 2 -> dot = 2 * (1+...+10) = 110.
  fil::Store S = L.makeZeroStore();
  for (int64_t I = 0; I != 10; ++I) {
    auto [BA, OA] = L.Mems["A"].locate({I});
    auto [BB, OB] = L.Mems["B"].locate({I});
    S.Mems[BA][static_cast<size_t>(OA)] = fil::Value(I + 1);
    S.Mems[BB][static_cast<size_t>(OB)] = fil::Value(int64_t(2));
  }
  fil::SmallStepper M(S, fil::Rho(), L.Program);
  ASSERT_TRUE(bool(M.run()));
  auto [Bank, Off] = L.Mems["out"].locate({0});
  EXPECT_EQ(std::get<int64_t>(
                M.store().Mems.at(Bank).at(static_cast<size_t>(Off))),
            110);
}

//===----------------------------------------------------------------------===//
// Section 3.6 listings
//===----------------------------------------------------------------------===//

TEST(Paper36, ShrinkListing) {
  EXPECT_TRUE(check("let A: float[8 bank 4];\n"
                    "view sh = shrink A[by 2]; // sh: float[8 bank 2]\n"
                    "for (let i = 0..8) unroll 2 {\n"
                    "  let x = sh[i]; // OK: sh has 2 banks.\n"
                    "}")
                  .empty());
}

TEST(Paper36, SuffixListing) {
  EXPECT_TRUE(check("let A: float[8 bank 2];\n"
                    "for (let i = 0..4) {\n"
                    "  view s = suffix A[by 2 * i];\n"
                    "  let x = s[1]; // reads A[2*i + 1]\n"
                    "}")
                  .empty());
}

TEST(Paper36, ShiftListing) {
  EXPECT_TRUE(check("let A: float[12 bank 4];\n"
                    "for (let i = 0..3) {\n"
                    "  view r = shift A[by i * i]; // r: float[12 bank 4]\n"
                    "  for (let j = 0..4) unroll 4 {\n"
                    "    let x = r[j]; // accesses A[i*i + j]\n"
                    "  }\n"
                    "}")
                  .empty());
}

TEST(Paper36, BlockedDotProductWithoutSplitRejected) {
  // The paper's pre-split attempt: suffix views of shrink views under an
  // unrolled outer loop cannot prove disjointness.
  EXPECT_FALSE(check("let A, B: float[12 bank 4];\n"
                     "view shA, shB = shrink A[by 2], B[by 2];\n"
                     "let sum = 0.0;\n"
                     "for (let i = 0..6) unroll 2 {\n"
                     "  view vA, vB = suffix shA[by 2 * i], shB[by 2 * i];\n"
                     "  for (let j = 0..2) unroll 2 {\n"
                     "    let v = vA[j] + vB[j];\n"
                     "  } combine {\n"
                     "    sum += v;\n"
                     "  }\n"
                     "}")
                   .empty());
}

TEST(Paper36, SplitListingAccepted) {
  EXPECT_TRUE(check("let A: float[12 bank 4]; let B: float[12 bank 4];\n"
                    "view split_A = split A[by 2];\n"
                    "view split_B = split B[by 2];\n"
                    "let sum = 0.0;\n"
                    "for (let i = 0..6) unroll 2 {\n"
                    "  for (let j = 0..2) unroll 2 {\n"
                    "    let v = split_A[j][i] * split_B[j][i];\n"
                    "  } combine {\n"
                    "    sum += v;\n"
                    "  }\n"
                    "}")
                  .empty());
}

TEST(Paper36, StencilWindowListing) {
  // The stencil2d port shape from Section 5.3.
  EXPECT_TRUE(check("let orig: float[126 bank 3][63 bank 3];\n"
                    "let filter: float[3 bank 3][3 bank 3];\n"
                    "for (let row = 0..124) {\n"
                    "  for (let col = 0..61) {\n"
                    "    view window = shift orig[by row][by col];\n"
                    "    for (let k1 = 0..3) unroll 3 {\n"
                    "      for (let k2 = 0..3) unroll 3 {\n"
                    "        let mul = filter[k1][k2] * window[k1][k2];\n"
                    "      }\n"
                    "    }\n"
                    "  }\n"
                    "}")
                  .empty())
      << "window fan-out over shifted banks";
}

} // namespace
