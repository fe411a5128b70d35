//===- Type.cpp - Dahlia surface types --------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "ast/Type.h"

#include <sstream>

using namespace dahlia;

TypeRef Type::getBool() {
  static const TypeRef T = make(TypeKind::Bool);
  return T;
}

TypeRef Type::getFloat() {
  static const TypeRef T = make(TypeKind::Float);
  return T;
}

TypeRef Type::getDouble() {
  static const TypeRef T = make(TypeKind::Double);
  return T;
}

TypeRef Type::getVoid() {
  static const TypeRef T = make(TypeKind::Void);
  return T;
}

TypeRef Type::getBit(unsigned Width, bool IsSigned) {
  auto Build = [&] {
    std::shared_ptr<Type> T = make(TypeKind::Bit);
    T->Width = Width;
    T->Signed = IsSigned;
    return T;
  };
  // bit<32> is the type of every integer literal; share one instance.
  if (Width == 32 && IsSigned) {
    static const TypeRef Bit32 = Build();
    return Bit32;
  }
  return Build();
}

TypeRef Type::getIdx(int64_t Lo, int64_t Hi, int64_t DynLo, int64_t DynHi) {
  assert(Lo <= Hi && "idx static interval inverted");
  std::shared_ptr<Type> T = make(TypeKind::Idx);
  T->Lo = Lo;
  T->Hi = Hi;
  T->DynLo = DynLo;
  T->DynHi = DynHi;
  return T;
}

TypeRef Type::getMem(TypeRef Elem, std::vector<MemDim> Dims, unsigned Ports) {
  assert(Elem && !Elem->isMem() && "memories of memories are not allowed");
  assert(!Dims.empty() && "memory needs at least one dimension");
  std::shared_ptr<Type> T = make(TypeKind::Mem);
  T->Elem = std::move(Elem);
  T->Dims = std::move(Dims);
  T->Ports = Ports;
  return T;
}

int64_t Type::memTotalBanks() const {
  assert(isMem() && "not a memory type");
  int64_t Total = 1;
  for (const MemDim &D : Dims)
    Total *= D.Banks;
  return Total;
}

int64_t Type::memTotalSize() const {
  assert(isMem() && "not a memory type");
  int64_t Total = 1;
  for (const MemDim &D : Dims)
    Total *= D.Size;
  return Total;
}

bool Type::equals(const Type &RHS) const {
  if (Kind != RHS.Kind)
    return false;
  switch (Kind) {
  case TypeKind::Bool:
  case TypeKind::Float:
  case TypeKind::Double:
  case TypeKind::Void:
    return true;
  case TypeKind::Bit:
    return Width == RHS.Width && Signed == RHS.Signed;
  case TypeKind::Idx:
    return Lo == RHS.Lo && Hi == RHS.Hi && DynLo == RHS.DynLo &&
           DynHi == RHS.DynHi;
  case TypeKind::Mem:
    return Ports == RHS.Ports && Dims == RHS.Dims &&
           Elem->equals(*RHS.Elem);
  }
  return false;
}

bool Type::accepts(const Type &From) const {
  if (equals(From))
    return true;
  switch (Kind) {
  case TypeKind::Bit:
    // Any integer-ish value fits in a bit type: idx iterators and other bit
    // widths (Dahlia widens implicitly; we accept and let the backend pick
    // widths).
    return From.isIdx() || From.isBit();
  case TypeKind::Float:
    return From.isBit() || From.isIdx();
  case TypeKind::Double:
    return From.isBit() || From.isIdx() || From.isFloat();
  case TypeKind::Idx:
    // idx types are created by the checker only; nothing converts *to* them.
    return false;
  default:
    return false;
  }
}

std::string Type::str() const {
  std::ostringstream OS;
  switch (Kind) {
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Float:
    return "float";
  case TypeKind::Double:
    return "double";
  case TypeKind::Void:
    return "void";
  case TypeKind::Bit:
    OS << (Signed ? "bit" : "ubit") << '<' << Width << '>';
    return OS.str();
  case TypeKind::Idx:
    OS << "idx{" << Lo << ".." << Hi << '}';
    return OS.str();
  case TypeKind::Mem:
    OS << Elem->str();
    if (Ports != 1)
      OS << '{' << Ports << '}';
    for (const MemDim &D : Dims) {
      OS << '[' << D.Size;
      if (D.Banks != 1)
        OS << " bank " << D.Banks;
      OS << ']';
    }
    return OS.str();
  }
  return "<invalid>";
}
