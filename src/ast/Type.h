//===- Type.h - Dahlia surface types ----------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of the Dahlia surface language (Section 3 of the paper):
///
///   * scalar value types: bool, float, double, bit<n>, ubit<n>;
///   * index types idx{l..h} given to unrolled loop iterators, encoding the
///     set of bank offsets an access through the iterator touches;
///   * memory types mem t[n1 bank m1][n2 bank m2]...{k ports}, the affine
///     resources of the type system.
///
/// Types are immutable and shared via \c TypeRef.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_AST_TYPE_H
#define DAHLIA_AST_TYPE_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dahlia {

class Type;
using TypeRef = std::shared_ptr<const Type>;

/// Discriminator for \c Type.
enum class TypeKind {
  Bool,
  Float,
  Double,
  Bit,   ///< bit<n> (signed) or ubit<n> (unsigned).
  Idx,   ///< Index type for unrolled loop iterators.
  Mem,   ///< Banked memory; the affine resource of the system.
  Void,  ///< Result of commands / functions without a return value.
};

/// One dimension of a memory type: \c Size elements split round-robin into
/// \c Banks equally sized banks. The checker requires Banks to divide Size
/// (Section 3.3: "the banking factor m must evenly divide the size n").
struct MemDim {
  int64_t Size = 0;
  int64_t Banks = 1;

  bool operator==(const MemDim &RHS) const = default;
};

/// An immutable Dahlia type.
class Type {
public:
  // Factories -----------------------------------------------------------

  static TypeRef getBool();
  static TypeRef getFloat();
  static TypeRef getDouble();
  static TypeRef getVoid();
  /// bit<Width> when \p IsSigned, ubit<Width> otherwise.
  static TypeRef getBit(unsigned Width, bool IsSigned = true);
  /// Index type idx{Lo..Hi} with dynamic range [DynLo, DynHi). Accessing a
  /// banked dimension with an iterator of this type touches banks
  /// {u mod B : u in [Lo, Hi)}.
  static TypeRef getIdx(int64_t Lo, int64_t Hi, int64_t DynLo = 0,
                        int64_t DynHi = 0);
  /// Memory of \p Elem elements with the given dimensions and read/write
  /// \p Ports per bank.
  static TypeRef getMem(TypeRef Elem, std::vector<MemDim> Dims,
                        unsigned Ports = 1);

  // Observers ------------------------------------------------------------

  TypeKind kind() const { return Kind; }
  bool isBool() const { return Kind == TypeKind::Bool; }
  bool isFloat() const { return Kind == TypeKind::Float; }
  bool isDouble() const { return Kind == TypeKind::Double; }
  bool isBit() const { return Kind == TypeKind::Bit; }
  bool isIdx() const { return Kind == TypeKind::Idx; }
  bool isMem() const { return Kind == TypeKind::Mem; }
  bool isVoid() const { return Kind == TypeKind::Void; }
  /// Scalar numeric types that participate in arithmetic.
  bool isNumeric() const {
    return Kind == TypeKind::Float || Kind == TypeKind::Double ||
           Kind == TypeKind::Bit || Kind == TypeKind::Idx;
  }

  // Bit accessors.
  unsigned bitWidth() const {
    assert(isBit() && "not a bit type");
    return Width;
  }
  bool isSignedBit() const {
    assert(isBit() && "not a bit type");
    return Signed;
  }

  // Idx accessors.
  int64_t idxLo() const {
    assert(isIdx() && "not an idx type");
    return Lo;
  }
  int64_t idxHi() const {
    assert(isIdx() && "not an idx type");
    return Hi;
  }
  int64_t idxDynLo() const {
    assert(isIdx() && "not an idx type");
    return DynLo;
  }
  int64_t idxDynHi() const {
    assert(isIdx() && "not an idx type");
    return DynHi;
  }

  // Mem accessors.
  const TypeRef &memElem() const {
    assert(isMem() && "not a memory type");
    return Elem;
  }
  const std::vector<MemDim> &memDims() const {
    assert(isMem() && "not a memory type");
    return Dims;
  }
  unsigned memPorts() const {
    assert(isMem() && "not a memory type");
    return Ports;
  }
  /// Product of per-dimension bank counts (flattened bank id space).
  int64_t memTotalBanks() const;
  /// Product of per-dimension sizes.
  int64_t memTotalSize() const;

  /// Structural equality.
  bool equals(const Type &RHS) const;

  /// Whether a value of type \p From can be used where \c this is expected
  /// (idx types widen to bit/float; bit widths widen; bit -> float is
  /// permitted, matching Dahlia's lenient numeric subtyping).
  bool accepts(const Type &From) const;

  /// Renders in surface syntax, e.g. "float[8 bank 4]" or "ubit<32>".
  std::string str() const;

private:
  /// Restricts construction to the factories while still letting them
  /// use std::make_shared (one allocation for the type and its count).
  struct Key {
    explicit Key() = default;
  };

public:
  Type(Key, TypeKind Kind) : Kind(Kind) {}

private:
  static std::shared_ptr<Type> make(TypeKind Kind) {
    return std::make_shared<Type>(Key(), Kind);
  }

  TypeKind Kind;
  // Bit.
  unsigned Width = 0;
  bool Signed = true;
  // Idx.
  int64_t Lo = 0, Hi = 0, DynLo = 0, DynHi = 0;
  // Mem.
  TypeRef Elem;
  std::vector<MemDim> Dims;
  unsigned Ports = 1;
};

} // namespace dahlia

#endif // DAHLIA_AST_TYPE_H
