//===- ASTPrinter.h - Dahlia pretty printer ---------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders ASTs back into Dahlia surface syntax. The printer output
/// re-parses to an equivalent AST (checked by round-trip tests).
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_AST_ASTPRINTER_H
#define DAHLIA_AST_ASTPRINTER_H

#include "ast/AST.h"

#include <string>

namespace dahlia {

/// Renders \p E in surface syntax.
std::string printExpr(const Expr &E);

/// Appends the rendering of \p E to \p Out, reusing its capacity.
void appendExpr(std::string &Out, const Expr &E);

/// Renders \p C in surface syntax, indented by \p Indent levels.
std::string printCmd(const Cmd &C, unsigned Indent = 0);

/// Renders a whole program.
std::string printProgram(const Program &P);

} // namespace dahlia

#endif // DAHLIA_AST_ASTPRINTER_H
