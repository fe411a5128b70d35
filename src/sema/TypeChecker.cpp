//===- TypeChecker.cpp - Time-sensitive affine type checker -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "sema/TypeChecker.h"

#include "ast/ASTPrinter.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <deque>
#include <optional>
#include <string_view>

using namespace dahlia;

namespace {

//===----------------------------------------------------------------------===//
// Diagnostic text
//===----------------------------------------------------------------------===//

void appendPart(std::string &S, std::string_view Text) { S.append(Text); }

void appendPart(std::string &S, std::integral auto V) {
  char Buf[24];
  S.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Concatenates text and decimal integers into one diagnostic message.
template <typename... Ts> std::string cat(const Ts &...Parts) {
  std::string S;
  (appendPart(S, Parts), ...);
  return S;
}

/// Products and sums of copy counts saturate instead of wrapping: a nest
/// of unrolled loops may fan an access out to more than 2^32 copies.
uint64_t satMul(uint64_t A, uint64_t B) {
  uint64_t R;
  return __builtin_mul_overflow(A, B, &R) ? UINT64_MAX : R;
}

uint64_t satAdd(uint64_t A, uint64_t B) {
  uint64_t R;
  return __builtin_add_overflow(A, B, &R) ? UINT64_MAX : R;
}

//===----------------------------------------------------------------------===//
// Index classification
//===----------------------------------------------------------------------===//

/// How an index expression addresses a banked dimension.
struct IndexInfo {
  enum Kind {
    Literal,  ///< Statically known value: touches exactly one bank.
    Interval, ///< Unrolled iterator idx{Lo..Hi}: touches Hi-Lo banks.
    Dynamic,  ///< Anything else: bank unknown at compile time.
  } K = Dynamic;
  int64_t Value = 0;          ///< Literal value.
  int64_t Lo = 0, Hi = 0;     ///< Interval bounds.
};

/// Multiset of consumed banks of one dimension (or of the flattened bank
/// space): (bank id, access count) pairs sorted by bank id.
class BankMultiset {
public:
  using Entry = std::pair<int64_t, uint64_t>;

  void add(int64_t Bank, uint64_t Count) {
    if (Entries.empty() || Entries.back().first < Bank) {
      Entries.emplace_back(Bank, Count);
      return;
    }
    auto It = std::lower_bound(
        Entries.begin(), Entries.end(), Bank,
        [](const Entry &E, int64_t B) { return E.first < B; });
    if (It != Entries.end() && It->first == Bank)
      It->second = satAdd(It->second, Count);
    else
      Entries.insert(It, {Bank, Count});
  }

  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.end(); }

private:
  std::vector<Entry> Entries;
};

/// Attempts to fold \p E to a compile-time integer constant.
std::optional<int64_t> tryConstFold(const Expr &E) {
  if (const auto *I = E.as<IntLitExpr>())
    return I->value();
  const auto *B = E.as<BinOpExpr>();
  if (!B)
    return std::nullopt;
  std::optional<int64_t> L = tryConstFold(B->lhs());
  std::optional<int64_t> R = tryConstFold(B->rhs());
  if (!L || !R)
    return std::nullopt;
  switch (B->op()) {
  case BinOpKind::Add:
    return *L + *R;
  case BinOpKind::Sub:
    return *L - *R;
  case BinOpKind::Mul:
    return *L * *R;
  case BinOpKind::Div:
    return *R == 0 ? std::nullopt : std::optional<int64_t>(*L / *R);
  case BinOpKind::Mod:
    return *R == 0 ? std::nullopt : std::optional<int64_t>(*L % *R);
  default:
    return std::nullopt;
  }
}

/// Whether \p E mentions the variable \p Name.
bool mentionsVar(const Expr &E, std::string_view Name) {
  switch (E.kind()) {
  case ExprKind::Var:
    return E.as<VarExpr>()->name() == Name;
  case ExprKind::BinOp: {
    const auto &B = *E.as<BinOpExpr>();
    return mentionsVar(B.lhs(), Name) || mentionsVar(B.rhs(), Name);
  }
  case ExprKind::Access: {
    const auto &A = *E.as<AccessExpr>();
    for (const ExprPtr &I : A.indices())
      if (mentionsVar(*I, Name))
        return true;
    return false;
  }
  case ExprKind::PhysAccess: {
    const auto &A = *E.as<PhysAccessExpr>();
    return mentionsVar(A.bank(), Name) || mentionsVar(A.offset(), Name);
  }
  case ExprKind::App: {
    const auto &A = *E.as<AppExpr>();
    for (const ExprPtr &Arg : A.args())
      if (mentionsVar(*Arg, Name))
        return true;
    return false;
  }
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Checker state
//===----------------------------------------------------------------------===//

/// The route an access reaches its root memory through: DirectRoute, or
/// a shift view's rotation on top of a parent route, interned per checker.
/// A shift view's bank rotation is unknown, so within a time step every
/// access of one memory must go through the same route.
using RouteId = uint32_t;
constexpr RouteId DirectRoute = 0;

/// The affine consumption state of one logical time step: for each
/// (memory slot, route) pair touched, the ports consumed of every
/// flattened bank. Rows and their counters live in two flat vectors, in
/// the same order, so copying a snapshot reuses the destination's
/// capacity instead of allocating nodes.
class AffineDelta {
public:
  /// The \p Banks counters of (\p Slot, \p Route), appended as zeros when
  /// the pair has consumed nothing yet.
  unsigned *counters(uint32_t Slot, RouteId Route, size_t Banks) {
    if (const Row *R = find(Slot, Route))
      return &Counts[R->Begin];
    Rows.push_back({Slot, Route, Counts.size(), Banks});
    Counts.resize(Counts.size() + Banks, 0);
    return &Counts[Rows.back().Begin];
  }

  /// Whether memory \p Slot has consumed a port through a route other
  /// than \p Route.
  bool consumedOnOtherRoute(uint32_t Slot, RouteId Route) const {
    for (const Row &R : Rows)
      if (R.Slot == Slot && R.Route != Route &&
          std::any_of(Counts.begin() + R.Begin,
                      Counts.begin() + R.Begin + R.Banks,
                      [](unsigned C) { return C != 0; }))
        return true;
    return false;
  }

  /// Pointwise maximum of consumption; the result treats a resource as
  /// consumed if either side consumed it (set-intersection of
  /// availability in the paper's formulation).
  void mergeMax(const AffineDelta &From) {
    for (const Row &R : From.Rows) {
      const unsigned *Src = &From.Counts[R.Begin];
      if (const Row *Dst = find(R.Slot, R.Route)) {
        assert(Dst->Banks == R.Banks && "one memory, two bank counts");
        for (size_t I = 0; I != R.Banks; ++I)
          Counts[Dst->Begin + I] = std::max(Counts[Dst->Begin + I], Src[I]);
        continue;
      }
      Rows.push_back({R.Slot, R.Route, Counts.size(), R.Banks});
      Counts.insert(Counts.end(), Src, Src + R.Banks);
    }
  }

  /// Drops the state of slots >= \p FirstSlot: memories whose scope ended.
  void dropSlotsFrom(uint32_t FirstSlot) {
    size_t KeptRows = 0, KeptCounts = 0;
    for (const Row &R : Rows) {
      if (R.Slot >= FirstSlot)
        continue;
      std::copy(Counts.begin() + R.Begin, Counts.begin() + R.Begin + R.Banks,
                Counts.begin() + KeptCounts);
      Rows[KeptRows++] = {R.Slot, R.Route, KeptCounts, R.Banks};
      KeptCounts += R.Banks;
    }
    Rows.resize(KeptRows);
    Counts.resize(KeptCounts);
  }

  void clear() {
    Rows.clear();
    Counts.clear();
  }

private:
  struct Row {
    uint32_t Slot;
    RouteId Route;
    size_t Begin; ///< First counter in Counts.
    size_t Banks; ///< Counter count: the memory's flattened banks.
  };
  std::vector<Row> Rows;
  std::vector<unsigned> Counts;

  const Row *find(uint32_t Slot, RouteId Route) const {
    for (const Row &R : Rows)
      if (R.Slot == Slot && R.Route == Route)
        return &R;
    return nullptr;
  }
};

/// The read capabilities acquired in the current time step, keyed by the
/// printed access ("A[i][0]"). Copies reuse the destination's strings.
using ReadCapSet = std::vector<std::string>;

bool holds(const ReadCapSet &Caps, std::string_view Key) {
  return std::find(Caps.begin(), Caps.end(), Key) != Caps.end();
}

/// Maps an under-dimension of a view to the view dimensions feeding it.
/// Split views map two view dims onto one underlying dim; all other views
/// map one-to-one.
struct UnderDimMap {
  int ViewDimA = -1;
  int ViewDimB = -1;  ///< -1 unless this under-dim was split.
  int64_t Factor = 1; ///< shrink/split factor for this dim.
};

/// Checker-side record of a declared view.
struct ViewInfo {
  ViewKind VK = ViewKind::Shrink;
  std::string_view Under; ///< Immediate underlying memory or view name.
  TypeRef Ty;             ///< The view's own memory type.
  bool Rotated = false;
  std::vector<UnderDimMap> DimMaps; ///< Indexed by underlying dimension.
  /// Suffix/shift offset expressions (borrowed from the AST); accesses
  /// through a view whose offsets mention an unrolled iterator are
  /// distinct per copy and must consume banks per copy.
  std::vector<const Expr *> Offsets;
};

/// A name binding in the variable scopes. Names are borrowed from the AST.
struct Binding {
  enum Kind { Var, Mem, View, CombineReg } K = Var;
  std::string_view Name;
  TypeRef Ty;
  size_t ForDepthAtDef = 0; ///< Enclosing for-loop count at definition.
  uint32_t Slot = 0;        ///< Valid when K == Mem: dense affine-state id.
  ViewInfo VI;              ///< Valid when K == View.
};

/// Snapshot of the per-time-step affine state.
struct StepSnapshot {
  AffineDelta Delta;
  ReadCapSet ReadCaps;
};

/// The time-sensitive affine type checker.
class Checker {
public:
  /// With \p StopAtFirst the checker records only the first diagnostic
  /// and then unwinds: the accept/reject verdict the DSE asks for.
  explicit Checker(bool StopAtFirst = false) : StopAtFirst(StopAtFirst) {}

  std::vector<Error> runProgram(Program &P) {
    for (FuncDef &F : P.Funcs) {
      auto It = std::find_if(Funcs.begin(), Funcs.end(),
                             [&](const auto &E) { return E.first == F.Name; });
      if (It != Funcs.end()) {
        diag(ErrorKind::Type, "function '" + F.Name + "' redefined", F.Loc);
        It->second = &F;
      } else {
        Funcs.emplace_back(F.Name, &F);
      }
    }
    // Each function body is checked in its own closed world.
    for (FuncDef &F : P.Funcs)
      checkFunction(F);
    // The kernel body runs against the interface memories.
    pushScope();
    for (const ExternDecl &D : P.Decls) {
      if (!D.Ty || !D.Ty->isMem()) {
        diag(ErrorKind::Type,
             "interface declaration '" + D.Name + "' must be a memory type",
             D.Loc);
        continue;
      }
      declareMemory(D.Name, D.Ty, D.Loc);
    }
    if (P.Body)
      checkCmd(*P.Body);
    popScope();
    return std::move(Errors);
  }

  std::vector<Error> runCommand(Cmd &C) {
    pushScope();
    checkCmd(C);
    popScope();
    return std::move(Errors);
  }

private:
  const bool StopAtFirst;
  bool Stopped = false; ///< Set by the first diagnostic under StopAtFirst.
  std::vector<Error> Errors;
  /// Every live binding, innermost last; a scope is a suffix of it.
  std::vector<Binding> Bindings;
  struct ScopeMark {
    size_t FirstBinding;
    uint32_t FirstSlot;
  };
  std::vector<ScopeMark> Scopes;
  /// Slot of the next declared memory. Slots are dense: a scope's
  /// memories release theirs when it ends.
  uint32_t NextSlot = 0;
  std::vector<std::pair<std::string_view, FuncDef *>> Funcs;
  AffineDelta Delta;
  ReadCapSet ReadCaps;
  /// Interned shift routes; RouteId I + 1 is Routes[I].
  struct RouteTag {
    std::string_view View;
    RouteId Parent;
  };
  std::vector<RouteTag> Routes;
  /// Snapshot buffers by nesting depth; see Scratch.
  std::deque<StepSnapshot> SnapshotPool;
  size_t SnapshotsInUse = 0;
  /// Reused buffer for read-capability keys.
  std::string Sig;
  /// Innermost-last stack of enclosing for loops: (iterator, unroll).
  std::vector<std::pair<std::string_view, int64_t>> ForStack;
  /// ForStack depth at entry to the outermost enclosing while body, or
  /// NotInWhile. Unrolled copies of a while each run their own sequential
  /// loop — iteration schedules may diverge — so reads inside a while
  /// cannot share one broadcast fetch across the copies enclosing it and
  /// must consume bank ports per copy, like writes.
  static constexpr size_t NotInWhile = static_cast<size_t>(-1);
  size_t WhileForDepth = NotInWhile;
  bool InCombine = false;
  bool InReducerRHS = false;

  //===--------------------------------------------------------------------===//
  // Diagnostics and scope management
  //===--------------------------------------------------------------------===//

  void diag(ErrorKind K, std::string Msg, SourceLoc Loc) {
    if (Stopped)
      return;
    Errors.emplace_back(K, std::move(Msg), Loc);
    Stopped = StopAtFirst;
  }

  void pushScope() { Scopes.push_back({Bindings.size(), NextSlot}); }

  void popScope() {
    assert(!Scopes.empty() && "scope underflow");
    ScopeMark M = Scopes.back();
    Scopes.pop_back();
    Bindings.erase(Bindings.begin() + M.FirstBinding, Bindings.end());
    // Memories die with their scope; drop their affine state.
    if (NextSlot != M.FirstSlot) {
      Delta.dropSlotsFrom(M.FirstSlot);
      NextSlot = M.FirstSlot;
    }
  }

  Binding *lookup(std::string_view Name) {
    for (size_t I = Bindings.size(); I-- != 0;)
      if (Bindings[I].Name == Name)
        return &Bindings[I];
    return nullptr;
  }

  bool declare(std::string_view Name, Binding B, SourceLoc Loc) {
    if (lookup(Name)) {
      diag(ErrorKind::Type, cat("'", Name, "' is already defined"), Loc);
      return false;
    }
    B.Name = Name;
    Bindings.push_back(std::move(B));
    return true;
  }

  void declareMemory(std::string_view Name, TypeRef Ty, SourceLoc Loc) {
    if (!validateMemType(*Ty, Loc))
      return;
    Binding B;
    B.K = Binding::Mem;
    B.Ty = Ty;
    B.ForDepthAtDef = ForStack.size();
    B.Slot = NextSlot;
    if (declare(Name, std::move(B), Loc))
      ++NextSlot; // Fresh, unconsumed.
  }

  /// Enforces the declaration-side banking rule: every banking factor must
  /// evenly divide its dimension's size (Section 3.3).
  bool validateMemType(const Type &Ty, SourceLoc Loc) {
    assert(Ty.isMem() && "expected memory type");
    bool OK = true;
    for (const MemDim &D : Ty.memDims()) {
      if (D.Size < 1) {
        diag(ErrorKind::Banking, "memory dimension size must be positive",
             Loc);
        OK = false;
      }
      if (D.Banks < 1) {
        diag(ErrorKind::Banking, "banking factor must be positive", Loc);
        OK = false;
      } else if (D.Size >= 1 && D.Size % D.Banks != 0) {
        diag(ErrorKind::Banking,
             cat("banking factor ", D.Banks,
                 " does not evenly divide dimension size ", D.Size),
             Loc);
        OK = false;
      }
    }
    return OK;
  }

  //===--------------------------------------------------------------------===//
  // Affine state snapshots
  //===--------------------------------------------------------------------===//

  /// A snapshot buffer borrowed from the pool for one construct. Nested
  /// constructs borrow deeper buffers, and sibling constructs reuse the
  /// same ones, so snapshots keep their capacity across the program.
  class Scratch {
  public:
    explicit Scratch(Checker &C) : C(C), S(C.borrowSnapshot()) {}
    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;
    ~Scratch() { --C.SnapshotsInUse; }
    StepSnapshot *operator->() { return &S; }

  private:
    Checker &C;
    StepSnapshot &S;
  };

  StepSnapshot &borrowSnapshot() {
    if (SnapshotsInUse == SnapshotPool.size())
      SnapshotPool.emplace_back();
    return SnapshotPool[SnapshotsInUse++];
  }

  void save(Scratch &S) const {
    S->Delta = Delta;
    S->ReadCaps = ReadCaps;
  }

  RouteId internRoute(std::string_view View, RouteId Parent) {
    for (size_t I = 0; I != Routes.size(); ++I)
      if (Routes[I].View == View && Routes[I].Parent == Parent)
        return static_cast<RouteId>(I + 1);
    Routes.push_back({View, Parent});
    return static_cast<RouteId>(Routes.size());
  }

  //===--------------------------------------------------------------------===//
  // Bank consumption
  //===--------------------------------------------------------------------===//

  /// Computes which banks of a dimension an index expression touches.
  /// \p Banks and \p Size describe the dimension being accessed (of the
  /// memory or view named \p MemName). Returns nullopt after diagnosing.
  std::optional<BankMultiset> banksForDim(const IndexInfo &Info,
                                          int64_t Banks, int64_t Size,
                                          const std::string &MemName,
                                          SourceLoc Loc) {
    BankMultiset Set;
    switch (Info.K) {
    case IndexInfo::Literal: {
      if (Info.Value < 0 || Info.Value >= Size) {
        diag(ErrorKind::Type,
             cat("index ", Info.Value, " out of bounds for dimension of size ",
                 Size, " of '", MemName, "'"),
             Loc);
        return std::nullopt;
      }
      Set.add(Info.Value % Banks, 1);
      return Set;
    }
    case IndexInfo::Interval: {
      int64_t S = Info.Hi - Info.Lo;
      if (S <= 1) {
        // A sequential iterator touches one statically unknown bank; be
        // conservative and reserve one port of every bank.
        for (int64_t B = 0; B != Banks; ++B)
          Set.add(B, 1);
        return Set;
      }
      if (S != Banks) {
        diag(ErrorKind::Unroll,
             cat("insufficient banks: unroll factor ", S,
                 " does not match banking factor ", Banks, " of '", MemName,
                 "' (use a shrink view for lower unrolling)"),
             Loc);
        return std::nullopt;
      }
      // Lockstep copies touch each bank exactly once, whatever the shared
      // dynamic base offset is.
      for (int64_t B = 0; B != Banks; ++B)
        Set.add(B, 1);
      return Set;
    }
    case IndexInfo::Dynamic: {
      if (Banks == 1) {
        Set.add(0, 1);
        return Set;
      }
      diag(ErrorKind::Unroll,
           "banked memory '" + MemName +
               "' accessed with an arbitrary index expression; use a simple "
               "index or a memory view",
           Loc);
      return std::nullopt;
    }
    }
    return std::nullopt;
  }

  IndexInfo classifyIndex(const Expr &E) {
    IndexInfo Info;
    if (std::optional<int64_t> C = tryConstFold(E)) {
      Info.K = IndexInfo::Literal;
      Info.Value = *C;
      return Info;
    }
    if (E.type() && E.type()->isIdx()) {
      Info.K = IndexInfo::Interval;
      Info.Lo = E.type()->idxLo();
      Info.Hi = E.type()->idxHi();
      return Info;
    }
    Info.K = IndexInfo::Dynamic;
    return Info;
  }

  /// Translates per-dimension bank multisets of an access through
  /// \p Target (a memory or a possibly nested view) down to the root
  /// memory. Returns the root memory's binding and sets \p Route to the
  /// access route.
  const Binding &translateToRoot(const Binding &Target,
                                 std::vector<BankMultiset> &PerDim,
                                 RouteId &Route) {
    Route = DirectRoute;
    const Binding *B = &Target;
    while (B->K != Binding::Mem) {
      assert(B->K == Binding::View && "expected view binding");
      const ViewInfo &VI = B->VI;
      if (VI.Rotated)
        Route = internRoute(B->Name, Route);
      std::vector<BankMultiset> Out(VI.DimMaps.size());
      const std::vector<MemDim> &ViewDims = B->Ty->memDims();
      for (size_t UD = 0; UD != VI.DimMaps.size(); ++UD) {
        const UnderDimMap &M = VI.DimMaps[UD];
        const BankMultiset &InA = PerDim[M.ViewDimA];
        switch (VI.VK) {
        case ViewKind::Shrink: {
          // View bank b is backed by underlying banks {b + j*Bv}.
          int64_t Bv = ViewDims[M.ViewDimA].Banks;
          for (const auto &[Bank, Count] : InA)
            for (int64_t J = 0; J != M.Factor; ++J)
              Out[UD].add(Bank + J * Bv, Count);
          break;
        }
        case ViewKind::Suffix:
        case ViewKind::Shift:
          // Bank-preserving (suffix: identical; shift: uniformly rotated,
          // guarded by the route tag).
          Out[UD] = InA;
          break;
        case ViewKind::Split: {
          if (M.ViewDimB < 0) {
            Out[UD] = InA;
            break;
          }
          // Under bank = a * (B/f) + b for view banks (a, b).
          const BankMultiset &InB = PerDim[M.ViewDimB];
          int64_t Bb = ViewDims[M.ViewDimB].Banks;
          for (const auto &[BankA, CountA] : InA)
            for (const auto &[BankB, CountB] : InB)
              Out[UD].add(BankA * Bb + BankB, satMul(CountA, CountB));
          break;
        }
        }
      }
      PerDim = std::move(Out);
      B = lookup(VI.Under);
      assert(B && "access target vanished during translation");
    }
    return *B;
  }

  /// Flattens per-dimension multisets into flattened-bank-id multisets
  /// using row-major bank strides.
  static BankMultiset flattenBanks(const std::vector<BankMultiset> &PerDim,
                                   const std::vector<MemDim> &Dims) {
    BankMultiset Flat;
    Flat.add(0, 1);
    for (size_t D = 0; D != PerDim.size(); ++D) {
      BankMultiset Next;
      for (const auto &[Acc, CountAcc] : Flat)
        for (const auto &[Bank, Count] : PerDim[D])
          Next.add(Acc * Dims[D].Banks + Bank, satMul(CountAcc, Count));
      Flat = std::move(Next);
    }
    return Flat;
  }

  /// The number of identical copies an access inside unrolled loops fans
  /// out to: the product of unroll factors of enclosing for loops whose
  /// iterator the access does not mention.
  uint64_t copyMultiplicity(const Expr &AccessExpr) {
    uint64_t M = 1;
    for (const auto &[Iter, Factor] : ForStack)
      if (Factor > 1 && !mentionsVar(AccessExpr, Iter))
        M = satMul(M, static_cast<uint64_t>(Factor));
    return M;
  }

  /// Iterators already counted into a read's copy multiplicity.
  using CountedIters = std::vector<std::string_view>;

  static bool counted(const CountedIters &Counted, std::string_view Iter) {
    return std::find(Counted.begin(), Counted.end(), Iter) != Counted.end();
  }

  /// Reads through a view whose offsets mention an unrolled iterator are
  /// distinct per copy (each copy owns its own window into the same
  /// banks), so they consume bank ports per copy instead of sharing one
  /// fetch. This is exactly why the paper's pre-split blocked dot product
  /// is rejected (Section 3.6).
  uint64_t viewCopyMultiplicity(const AccessExpr &A, CountedIters &Counted) {
    uint64_t M = 1;
    for (Binding *B = lookup(A.mem()); B && B->K == Binding::View;
         B = lookup(B->VI.Under)) {
      for (const Expr *Off : B->VI.Offsets) {
        if (!Off)
          continue;
        for (const auto &[Iter, Factor] : ForStack) {
          if (Factor <= 1 || counted(Counted, Iter))
            continue;
          bool InIndices = false;
          for (const ExprPtr &I : A.indices())
            InIndices = InIndices || mentionsVar(*I, Iter);
          if (!InIndices && mentionsVar(*Off, Iter)) {
            M = satMul(M, static_cast<uint64_t>(Factor));
            Counted.push_back(Iter);
          }
        }
      }
    }
    return M;
  }

  /// The extra fan-out a read inside a while body pays: the product of
  /// unroll factors of for loops enclosing the outermost while whose
  /// iterator the access does not mention (those already counted in
  /// \p Counted are skipped). 1 outside any while. Copies of a while run
  /// as independent sequential loops, so there is no lockstep time step
  /// on which identical fetches could be broadcast — each copy needs its
  /// own port.
  uint64_t whileLaneFanout(const Expr &AccessExpr,
                           const CountedIters &Counted) {
    if (WhileForDepth == NotInWhile)
      return 1;
    uint64_t M = 1;
    size_t E = WhileForDepth < ForStack.size() ? WhileForDepth
                                               : ForStack.size();
    for (size_t I = 0; I != E; ++I) {
      const auto &[Iter, Factor] = ForStack[I];
      if (Factor > 1 && !counted(Counted, Iter) &&
          !mentionsVar(AccessExpr, Iter))
        M = satMul(M, static_cast<uint64_t>(Factor));
    }
    return M;
  }

  /// Copy multiplicity for a logical read. Reads normally broadcast —
  /// unrolled copies issuing the identical fetch share one capability —
  /// except through per-copy view windows (viewCopyMultiplicity) and
  /// inside while bodies (whileLaneFanout), where they consume ports per
  /// copy.
  uint64_t readCopyMultiplicity(const AccessExpr &A) {
    CountedIters Counted;
    uint64_t M = viewCopyMultiplicity(A, Counted);
    return satMul(M, whileLaneFanout(A, Counted));
  }

  /// Consumes affine resources for one memory access. \p Mem is the root
  /// memory, \p Flat the flattened consumed-bank multiset, \p Route the
  /// access route, \p Need the per-bank multiplicity factor (1 for
  /// reads, copy multiplicity for writes).
  void consume(const Binding &Mem, const BankMultiset &Flat, RouteId Route,
               uint64_t Need, SourceLoc Loc) {
    assert(Mem.K == Binding::Mem && "consume on non-memory");
    unsigned Ports = Mem.Ty->memPorts();
    int64_t TotalBanks = Mem.Ty->memTotalBanks();
    if (Delta.consumedOnOtherRoute(Mem.Slot, Route)) {
      diag(ErrorKind::Affine,
           cat("memory '", Mem.Name,
               "' is accessed through conflicting routes in the same "
               "logical time step"),
           Loc);
      return;
    }
    unsigned *V =
        Delta.counters(Mem.Slot, Route, static_cast<size_t>(TotalBanks));
    // Validate first, then commit, so errors do not corrupt the state.
    for (const auto &[Bank, Count] : Flat) {
      assert(Bank >= 0 && Bank < TotalBanks && "bank id out of range");
      if (satAdd(V[Bank], satMul(Count, Need)) > Ports) {
        std::string Msg = cat("memory '", Mem.Name, "' bank ", Bank,
                              " already consumed in this logical time step");
        if (Need > 1)
          Msg += cat(" (access fans out to ", Need, " unrolled copies)");
        diag(ErrorKind::Affine, std::move(Msg), Loc);
        return;
      }
    }
    for (const auto &[Bank, Count] : Flat)
      V[Bank] += static_cast<unsigned>(Count * Need);
  }

  //===--------------------------------------------------------------------===//
  // Expression checking
  //===--------------------------------------------------------------------===//

  TypeRef checkExpr(Expr &E, bool AllowMemRef = false) {
    TypeRef Ty = checkExprImpl(E, AllowMemRef);
    E.setType(Ty);
    return Ty;
  }

  TypeRef checkExprImpl(Expr &E, bool AllowMemRef) {
    if (Stopped)
      return Type::getFloat();
    switch (E.kind()) {
    case ExprKind::IntLit:
      return Type::getBit(32, true);
    case ExprKind::FloatLit:
      return Type::getFloat();
    case ExprKind::BoolLit:
      return Type::getBool();
    case ExprKind::Var: {
      auto &V = *E.as<VarExpr>();
      Binding *B = lookup(V.name());
      if (!B) {
        diag(ErrorKind::Type, "use of undefined name '" + V.name() + "'",
             V.loc());
        return Type::getFloat();
      }
      if (B->K == Binding::Mem || B->K == Binding::View) {
        if (!AllowMemRef) {
          diag(ErrorKind::Affine,
               "cannot copy memory '" + V.name() +
                   "'; memories are affine resources",
               V.loc());
        }
        return B->Ty;
      }
      if (B->K == Binding::CombineReg && !InReducerRHS) {
        diag(ErrorKind::Type,
             "combine register '" + V.name() +
                 "' may only be used inside a reducer",
             V.loc());
      }
      return B->Ty;
    }
    case ExprKind::BinOp:
      return checkBinOp(*E.as<BinOpExpr>());
    case ExprKind::Access:
      return checkAccess(*E.as<AccessExpr>(), /*IsWrite=*/false);
    case ExprKind::PhysAccess:
      return checkPhysAccess(*E.as<PhysAccessExpr>(), /*IsWrite=*/false);
    case ExprKind::App:
      return checkApp(*E.as<AppExpr>());
    }
    return Type::getFloat();
  }

  TypeRef checkBinOp(BinOpExpr &B) {
    TypeRef L = checkExpr(B.lhs());
    TypeRef R = checkExpr(B.rhs());
    if (isLogical(B.op())) {
      if (!L->isBool() || !R->isBool())
        diag(ErrorKind::Type,
             std::string("logical operator '") + binOpSpelling(B.op()) +
                 "' requires boolean operands",
             B.loc());
      return Type::getBool();
    }
    if (isComparison(B.op())) {
      bool OK = (L->isNumeric() && R->isNumeric()) ||
                (L->isBool() && R->isBool() &&
                 (B.op() == BinOpKind::Eq || B.op() == BinOpKind::Neq));
      if (!OK)
        diag(ErrorKind::Type,
             std::string("incomparable operand types for '") +
                 binOpSpelling(B.op()) + "': " + L->str() + " and " +
                 R->str(),
             B.loc());
      return Type::getBool();
    }
    // Arithmetic.
    if (!L->isNumeric() || !R->isNumeric()) {
      diag(ErrorKind::Type,
           std::string("arithmetic operator '") + binOpSpelling(B.op()) +
               "' requires numeric operands, got " + L->str() + " and " +
               R->str(),
           B.loc());
      return Type::getFloat();
    }
    // idx +- constant keeps the (shifted) index interval so accesses like
    // A[j + 8] remain bank-analyzable (Section 3.6).
    if (L->isIdx()) {
      std::optional<int64_t> C = tryConstFold(B.rhs());
      if (C && B.op() == BinOpKind::Add)
        return Type::getIdx(L->idxLo() + *C, L->idxHi() + *C,
                            L->idxDynLo() + *C, L->idxDynHi() + *C);
      if (C && B.op() == BinOpKind::Sub)
        return Type::getIdx(L->idxLo() - *C, L->idxHi() - *C,
                            L->idxDynLo() - *C, L->idxDynHi() - *C);
    }
    if (R->isIdx() && B.op() == BinOpKind::Add)
      if (std::optional<int64_t> C = tryConstFold(B.lhs()))
        return Type::getIdx(R->idxLo() + *C, R->idxHi() + *C,
                            R->idxDynLo() + *C, R->idxDynHi() + *C);
    if (L->isDouble() || R->isDouble())
      return Type::getDouble();
    if (L->isFloat() || R->isFloat())
      return Type::getFloat();
    if (L->isBit() && R->isBit())
      return Type::getBit(std::max(L->bitWidth(), R->bitWidth()),
                          L->isSignedBit() || R->isSignedBit());
    // idx op idx and other integer mixes degrade to a dynamic integer.
    return Type::getBit(32, true);
  }

  /// Shared access-path logic for reads and writes of logical accesses.
  /// Returns the element type.
  TypeRef checkAccess(AccessExpr &A, bool IsWrite) {
    Binding *B = lookup(A.mem());
    if (!B) {
      diag(ErrorKind::Type, "use of undefined memory '" + A.mem() + "'",
           A.loc());
      return Type::getFloat();
    }
    if (B->K != Binding::Mem && B->K != Binding::View) {
      diag(ErrorKind::Type, "'" + A.mem() + "' is not a memory", A.loc());
      return Type::getFloat();
    }
    const Type &MemTy = *B->Ty;
    const std::vector<MemDim> &Dims = MemTy.memDims();
    if (A.indices().size() != Dims.size()) {
      diag(ErrorKind::Type,
           cat("memory '", A.mem(), "' has ", Dims.size(),
               " dimension(s) but is accessed with ", A.indices().size(),
               " index(es)"),
           A.loc());
      return MemTy.memElem();
    }
    // Type and classify every index.
    std::vector<BankMultiset> PerDim;
    bool Failed = false;
    for (size_t D = 0; D != Dims.size(); ++D) {
      Expr &Idx = *A.indices()[D];
      TypeRef IdxTy = checkExpr(Idx);
      if (!IdxTy->isBit() && !IdxTy->isIdx()) {
        diag(ErrorKind::Type,
             "memory index must be an integer, got " + IdxTy->str(),
             Idx.loc());
        Failed = true;
        continue;
      }
      std::optional<BankMultiset> Banks = banksForDim(
          classifyIndex(Idx), Dims[D].Banks, Dims[D].Size, A.mem(), Idx.loc());
      if (!Banks) {
        Failed = true;
        continue;
      }
      PerDim.push_back(std::move(*Banks));
    }
    if (Failed)
      return MemTy.memElem();

    // Reads of the same location within a time step share one capability.
    Sig.clear();
    appendExpr(Sig, A);
    if (!IsWrite && holds(ReadCaps, Sig))
      return MemTy.memElem();

    RouteId Route;
    const Binding &Root = translateToRoot(*B, PerDim, Route);
    BankMultiset Flat = flattenBanks(PerDim, Root.Ty->memDims());
    uint64_t Need = IsWrite ? copyMultiplicity(A) : readCopyMultiplicity(A);
    consume(Root, Flat, Route, Need, A.loc());
    if (!IsWrite)
      ReadCaps.push_back(Sig);
    return MemTy.memElem();
  }

  TypeRef checkPhysAccess(PhysAccessExpr &A, bool IsWrite) {
    Binding *B = lookup(A.mem());
    if (!B) {
      diag(ErrorKind::Type, "use of undefined memory '" + A.mem() + "'",
           A.loc());
      return Type::getFloat();
    }
    if (B->K == Binding::View) {
      diag(ErrorKind::View,
           "physical bank access into view '" + A.mem() + "' is not allowed",
           A.loc());
      return B->Ty->isMem() ? B->Ty->memElem() : Type::getFloat();
    }
    if (B->K != Binding::Mem) {
      diag(ErrorKind::Type, "'" + A.mem() + "' is not a memory", A.loc());
      return Type::getFloat();
    }
    const Type &MemTy = *B->Ty;
    checkExpr(const_cast<Expr &>(A.bank()));
    TypeRef OffTy = checkExpr(const_cast<Expr &>(A.offset()));
    if (!OffTy->isBit() && !OffTy->isIdx())
      diag(ErrorKind::Type, "bank offset must be an integer", A.loc());
    std::optional<int64_t> Bank = tryConstFold(A.bank());
    if (!Bank) {
      diag(ErrorKind::Type,
           "physical bank index into '" + A.mem() + "' must be static",
           A.loc());
      return MemTy.memElem();
    }
    if (*Bank < 0 || *Bank >= MemTy.memTotalBanks()) {
      diag(ErrorKind::Banking,
           cat("bank ", *Bank, " out of range for '", A.mem(), "' with ",
               MemTy.memTotalBanks(), " bank(s)"),
           A.loc());
      return MemTy.memElem();
    }
    Sig.clear();
    appendExpr(Sig, A);
    if (!IsWrite && holds(ReadCaps, Sig))
      return MemTy.memElem();
    BankMultiset Flat;
    Flat.add(*Bank, 1);
    uint64_t Need = IsWrite ? copyMultiplicity(A) : whileLaneFanout(A, {});
    consume(*B, Flat, DirectRoute, Need, A.loc());
    if (!IsWrite)
      ReadCaps.push_back(Sig);
    return MemTy.memElem();
  }

  TypeRef checkApp(AppExpr &A) {
    auto It = std::find_if(Funcs.begin(), Funcs.end(), [&](const auto &E) {
      return E.first == A.callee();
    });
    if (It == Funcs.end()) {
      diag(ErrorKind::Type, "call to undefined function '" + A.callee() + "'",
           A.loc());
      for (const ExprPtr &Arg : A.args())
        checkExpr(*Arg, /*AllowMemRef=*/true);
      return Type::getFloat();
    }
    const FuncDef &F = *It->second;
    if (A.args().size() != F.Params.size())
      diag(ErrorKind::Type,
           cat("function '", A.callee(), "' expects ", F.Params.size(),
               " argument(s) but got ", A.args().size()),
           A.loc());
    size_t N = std::min(A.args().size(), F.Params.size());
    for (size_t I = 0; I != N; ++I) {
      Expr &Arg = *A.args()[I];
      const FuncParam &P = F.Params[I];
      if (P.Ty->isMem()) {
        auto *V = Arg.as<VarExpr>();
        Binding *B = V ? lookup(V->name()) : nullptr;
        if (!V || !B || B->K != Binding::Mem) {
          diag(ErrorKind::Affine,
               "argument for memory parameter '" + P.Name +
                   "' must name a memory",
               Arg.loc());
          checkExpr(Arg, /*AllowMemRef=*/true);
          continue;
        }
        Arg.setType(B->Ty);
        if (!P.Ty->equals(*B->Ty)) {
          diag(ErrorKind::Type,
               "memory argument type " + B->Ty->str() +
                   " does not match parameter type " + P.Ty->str(),
               Arg.loc());
          continue;
        }
        // Passing a memory consumes it whole: the callee may use every bank
        // and port. Every unrolled copy of the call needs the whole memory,
        // so the multiplicity is the full unroll product.
        uint64_t M = 1;
        for (const auto &[Iter, Factor] : ForStack) {
          (void)Iter;
          if (Factor > 1)
            M = satMul(M, static_cast<uint64_t>(Factor));
        }
        BankMultiset Flat;
        unsigned Ports = B->Ty->memPorts();
        for (int64_t Bank = 0; Bank != B->Ty->memTotalBanks(); ++Bank)
          Flat.add(Bank, Ports);
        consume(*B, Flat, DirectRoute, M, Arg.loc());
        continue;
      }
      TypeRef ArgTy = checkExpr(Arg);
      if (!P.Ty->accepts(*ArgTy))
        diag(ErrorKind::Type,
             "argument type " + ArgTy->str() +
                 " is not convertible to parameter type " + P.Ty->str(),
             Arg.loc());
    }
    return F.RetTy ? F.RetTy : Type::getVoid();
  }

  //===--------------------------------------------------------------------===//
  // Command checking
  //===--------------------------------------------------------------------===//

  void checkCmd(Cmd &C) {
    if (Stopped)
      return;
    switch (C.kind()) {
    case CmdKind::Let:
      return checkLet(*C.as<LetCmd>());
    case CmdKind::View:
      return checkView(*C.as<ViewCmd>());
    case CmdKind::If:
      return checkIf(*C.as<IfCmd>());
    case CmdKind::While:
      return checkWhile(*C.as<WhileCmd>());
    case CmdKind::For:
      return checkFor(*C.as<ForCmd>());
    case CmdKind::Assign:
      return checkAssign(*C.as<AssignCmd>());
    case CmdKind::ReduceAssign:
      return checkReduceAssign(*C.as<ReduceAssignCmd>());
    case CmdKind::Store:
      return checkStore(*C.as<StoreCmd>());
    case CmdKind::Expr:
      checkExpr(C.as<ExprCmd>()->expr());
      return;
    case CmdKind::Seq:
      return checkSeq(*C.as<SeqCmd>());
    case CmdKind::Par: {
      // Unordered composition threads the affine context through.
      for (CmdPtr &Sub : C.as<ParCmd>()->cmds())
        checkCmd(*Sub);
      return;
    }
    case CmdKind::Block: {
      pushScope();
      checkCmd(C.as<BlockCmd>()->body());
      popScope();
      return;
    }
    case CmdKind::Skip:
      return;
    }
  }

  void checkLet(LetCmd &L) {
    TypeRef Ty = L.declType();
    if (Ty && Ty->isMem()) {
      if (L.init()) {
        diag(ErrorKind::Type,
             "memory '" + L.name() + "' cannot have an initializer", L.loc());
        return;
      }
      declareMemory(L.name(), Ty, L.loc());
      return;
    }
    TypeRef InitTy;
    if (L.init())
      InitTy = checkExpr(*L.init());
    if (!Ty)
      Ty = InitTy;
    else if (InitTy && !Ty->accepts(*InitTy))
      diag(ErrorKind::Type,
           "initializer type " + InitTy->str() +
               " is not convertible to declared type " + Ty->str(),
           L.loc());
    if (!Ty) {
      diag(ErrorKind::Type,
           "cannot infer a type for '" + L.name() + "'", L.loc());
      Ty = Type::getFloat();
    }
    Binding B;
    B.K = Binding::Var;
    B.Ty = Ty;
    B.ForDepthAtDef = ForStack.size();
    declare(L.name(), std::move(B), L.loc());
  }

  void checkView(ViewCmd &V) {
    Binding *UB = lookup(V.mem());
    if (!UB || (UB->K != Binding::Mem && UB->K != Binding::View)) {
      diag(ErrorKind::View,
           "view over undefined memory '" + V.mem() + "'", V.loc());
      return;
    }
    const Type &UTy = *UB->Ty;
    const std::vector<MemDim> &UDims = UTy.memDims();
    if (V.params().size() != UDims.size()) {
      diag(ErrorKind::View,
           cat("view '", V.name(), "' has ", V.params().size(),
               " [by ...] parameter(s) but '", V.mem(), "' has ",
               UDims.size(), " dimension(s)"),
           V.loc());
      return;
    }

    ViewInfo VI;
    VI.VK = V.viewKind();
    VI.Under = V.mem();
    std::vector<MemDim> NewDims;
    std::vector<UnderDimMap> DimMaps(UDims.size());
    bool OK = true;

    for (size_t D = 0; D != UDims.size(); ++D) {
      const ViewDimParam &P = V.params()[D];
      const MemDim &UD = UDims[D];
      switch (V.viewKind()) {
      case ViewKind::Shrink: {
        if (P.Factor < 1 || UD.Banks % P.Factor != 0) {
          diag(ErrorKind::View,
               cat("shrink factor ", P.Factor,
                   " must evenly divide banking factor ", UD.Banks),
               V.loc());
          OK = false;
          break;
        }
        DimMaps[D] = {static_cast<int>(NewDims.size()), -1, P.Factor};
        NewDims.push_back({UD.Size, UD.Banks / P.Factor});
        break;
      }
      case ViewKind::Suffix: {
        if (!checkSuffixOffset(*P.Offset, UD.Banks, V.loc()))
          OK = false;
        VI.Offsets.push_back(P.Offset.get());
        DimMaps[D] = {static_cast<int>(NewDims.size()), -1, 1};
        NewDims.push_back(UD);
        break;
      }
      case ViewKind::Shift: {
        TypeRef OffTy = checkExpr(*P.Offset);
        if (!OffTy->isBit() && !OffTy->isIdx()) {
          diag(ErrorKind::View, "shift offset must be an integer", V.loc());
          OK = false;
        }
        VI.Offsets.push_back(P.Offset.get());
        VI.Rotated = true;
        DimMaps[D] = {static_cast<int>(NewDims.size()), -1, 1};
        NewDims.push_back(UD);
        break;
      }
      case ViewKind::Split: {
        if (P.Factor < 1 || UD.Banks % P.Factor != 0 ||
            UD.Size % P.Factor != 0) {
          diag(ErrorKind::View,
               cat("split factor ", P.Factor,
                   " must evenly divide banking factor ", UD.Banks,
                   " and size ", UD.Size),
               V.loc());
          OK = false;
          break;
        }
        if (P.Factor == 1) {
          DimMaps[D] = {static_cast<int>(NewDims.size()), -1, 1};
          NewDims.push_back(UD);
          break;
        }
        // [n bank B] splits into [f bank f][n/f bank B/f].
        DimMaps[D] = {static_cast<int>(NewDims.size()),
                      static_cast<int>(NewDims.size()) + 1, P.Factor};
        NewDims.push_back({P.Factor, P.Factor});
        NewDims.push_back({UD.Size / P.Factor, UD.Banks / P.Factor});
        break;
      }
      }
    }
    if (!OK)
      return;
    VI.Ty = Type::getMem(UTy.memElem(), std::move(NewDims), UTy.memPorts());
    VI.DimMaps = std::move(DimMaps);
    Binding B;
    B.K = Binding::View;
    B.Ty = VI.Ty;
    B.ForDepthAtDef = ForStack.size();
    B.VI = std::move(VI);
    declare(V.name(), std::move(B), V.loc());
  }

  /// An aligned suffix offset must be a provable multiple of the banking
  /// factor: either a constant multiple or `k * e` with k a multiple of
  /// the banking factor (Section 3.6).
  bool checkSuffixOffset(Expr &Off, int64_t Banks, SourceLoc Loc) {
    TypeRef Ty = checkExpr(Off);
    if (!Ty->isBit() && !Ty->isIdx()) {
      diag(ErrorKind::View, "suffix offset must be an integer", Loc);
      return false;
    }
    if (Banks == 1)
      return true;
    if (std::optional<int64_t> C = tryConstFold(Off)) {
      if (*C % Banks == 0)
        return true;
      diag(ErrorKind::View,
           cat("suffix offset ", *C, " is not a multiple of banking factor ",
               Banks, "; use a shift view"),
           Loc);
      return false;
    }
    if (const auto *B = Off.as<BinOpExpr>(); B && B->op() == BinOpKind::Mul) {
      std::optional<int64_t> L = tryConstFold(B->lhs());
      std::optional<int64_t> R = tryConstFold(B->rhs());
      if ((L && *L % Banks == 0) || (R && *R % Banks == 0))
        return true;
    }
    diag(ErrorKind::View,
         "suffix offset must be a static multiple of the banking factor "
         "(k * e with k the banking factor); use a shift view for "
         "unrestricted offsets",
         Loc);
    return false;
  }

  void checkIf(IfCmd &I) {
    TypeRef CondTy = checkExpr(I.cond());
    if (!CondTy->isBool())
      diag(ErrorKind::Type, "if condition must be boolean", I.loc());
    Scratch PostCond(*this);
    save(PostCond);
    pushScope();
    checkCmd(const_cast<Cmd &>(I.thenCmd()));
    popScope();
    Scratch ThenDelta(*this);
    std::swap(ThenDelta->Delta, Delta);
    Delta = PostCond->Delta;
    ReadCaps = PostCond->ReadCaps;
    if (I.elseCmd()) {
      pushScope();
      checkCmd(const_cast<Cmd &>(*I.elseCmd()));
      popScope();
    }
    // Conservatively treat resources consumed by either branch as consumed.
    Delta.mergeMax(ThenDelta->Delta);
    ReadCaps = PostCond->ReadCaps;
  }

  void checkWhile(WhileCmd &W) {
    TypeRef CondTy = checkExpr(W.cond());
    if (!CondTy->isBool())
      diag(ErrorKind::Type, "while condition must be boolean", W.loc());
    Scratch PostCond(*this);
    PostCond->ReadCaps = ReadCaps;
    size_t SavedWhileDepth = WhileForDepth;
    if (WhileForDepth == NotInWhile)
      WhileForDepth = ForStack.size();
    pushScope();
    checkCmd(const_cast<Cmd &>(W.body()));
    popScope();
    WhileForDepth = SavedWhileDepth;
    // Iterations are sequential; capabilities acquired in the body do not
    // outlive it.
    ReadCaps = PostCond->ReadCaps;
  }

  void checkFor(ForCmd &F) {
    if (F.hi() <= F.lo()) {
      diag(ErrorKind::Type, "for range must be non-empty", F.loc());
      return;
    }
    int64_t Trip = F.hi() - F.lo();
    if (F.unroll() < 1) {
      diag(ErrorKind::Unroll, "unroll factor must be positive", F.loc());
      return;
    }
    if (Trip % F.unroll() != 0) {
      diag(ErrorKind::Unroll,
           cat("unroll factor ", F.unroll(),
               " must evenly divide the loop trip count ", Trip),
           F.loc());
      return;
    }

    pushScope();
    Binding IterB;
    IterB.K = Binding::Var;
    IterB.Ty = Type::getIdx(0, F.unroll(), F.lo(), F.hi());
    IterB.ForDepthAtDef = ForStack.size();
    declare(F.iter(), std::move(IterB), F.loc());
    ForStack.emplace_back(F.iter(), F.unroll());

    // The entry state: its capabilities return after the loop, and a
    // combine block starts again from its resources.
    Scratch Entry(*this);
    Entry->ReadCaps = ReadCaps;
    if (F.combine())
      Entry->Delta = Delta;

    // The body gets its own scope; remember its top-level lets so the
    // combine block can see them as combine registers.
    pushScope();
    const Cmd *BodyInner = &F.body();
    if (const auto *Blk = BodyInner->as<BlockCmd>())
      BodyInner = &Blk->body();
    checkCmd(const_cast<Cmd &>(*BodyInner));
    std::vector<std::pair<std::string_view, TypeRef>> BodyLets;
    if (F.combine())
      for (size_t I = Scopes.back().FirstBinding; I != Bindings.size(); ++I)
        if (Bindings[I].K == Binding::Var)
          BodyLets.emplace_back(Bindings[I].Name, Bindings[I].Ty);
    popScope();

    // Without a combine block the merge below is with the body's own
    // state, a no-op.
    if (F.combine()) {
      Scratch BodyDelta(*this);
      std::swap(BodyDelta->Delta, Delta);
      // The combine block runs in a later logical time step of each
      // iteration group: resources replenish.
      Delta = Entry->Delta;
      ReadCaps = Entry->ReadCaps;
      pushScope();
      for (const auto &[Name, Ty] : BodyLets) {
        Binding B;
        B.K = Binding::CombineReg;
        B.Name = Name;
        B.Ty = Ty;
        B.ForDepthAtDef = ForStack.size();
        Bindings.push_back(std::move(B));
      }
      bool SavedCombine = InCombine;
      InCombine = true;
      const Cmd *CombInner = F.combine();
      if (const auto *Blk = CombInner->as<BlockCmd>())
        CombInner = &Blk->body();
      checkCmd(const_cast<Cmd &>(*CombInner));
      InCombine = SavedCombine;
      popScope();
      Delta.mergeMax(BodyDelta->Delta);
    }
    ReadCaps = Entry->ReadCaps;

    ForStack.pop_back();
    popScope();
  }

  void checkAssign(AssignCmd &A) {
    Binding *B = lookup(A.name());
    if (!B) {
      diag(ErrorKind::Type, "assignment to undefined name '" + A.name() + "'",
           A.loc());
      checkExpr(A.value());
      return;
    }
    if (B->K == Binding::Mem || B->K == Binding::View) {
      diag(ErrorKind::Type,
           "cannot assign to memory '" + A.name() + "'; use a subscript",
           A.loc());
      checkExpr(A.value());
      return;
    }
    if (B->K == Binding::CombineReg) {
      diag(ErrorKind::Type,
           "cannot assign to combine register '" + A.name() + "'", A.loc());
      checkExpr(A.value());
      return;
    }
    // The doall restriction: for-loop bodies may not write variables
    // defined outside the loop (Section 3.5); reductions must go through
    // combine blocks.
    if (!InCombine && B->ForDepthAtDef < ForStack.size()) {
      diag(ErrorKind::Type,
           "cannot assign to '" + A.name() +
               "' defined outside the enclosing doall for loop; use a "
               "combine block for reductions",
           A.loc());
    }
    TypeRef ValTy = checkExpr(A.value());
    if (!B->Ty->accepts(*ValTy) && !B->Ty->isIdx())
      diag(ErrorKind::Type,
           "cannot assign value of type " + ValTy->str() +
               " to variable of type " + B->Ty->str(),
           A.loc());
  }

  void checkReduceAssign(ReduceAssignCmd &R) {
    Binding *B = lookup(R.name());
    if (!B || B->K == Binding::Mem || B->K == Binding::View) {
      diag(ErrorKind::Type,
           "reducer target '" + R.name() + "' must be a scalar variable",
           R.loc());
      checkExpr(R.value());
      return;
    }
    if (InCombine) {
      // Built-in reducer folding the combine registers of the unrolled
      // bodies into the accumulator (Section 3.5).
      bool Saved = InReducerRHS;
      InReducerRHS = true;
      TypeRef ValTy = checkExpr(R.value());
      InReducerRHS = Saved;
      if (!B->Ty->accepts(*ValTy))
        diag(ErrorKind::Type,
             "cannot reduce value of type " + ValTy->str() +
                 " into accumulator of type " + B->Ty->str(),
             R.loc());
      return;
    }
    // Outside combine blocks, x += e is sugar for x := x op e and obeys the
    // same doall restriction.
    if (B->ForDepthAtDef < ForStack.size()) {
      diag(ErrorKind::Type,
           "cannot reduce into '" + R.name() +
               "' defined outside the enclosing doall for loop; use a "
               "combine block",
           R.loc());
    }
    TypeRef ValTy = checkExpr(R.value());
    if (!B->Ty->accepts(*ValTy))
      diag(ErrorKind::Type,
           "cannot reduce value of type " + ValTy->str() +
               " into accumulator of type " + B->Ty->str(),
           R.loc());
  }

  void checkStore(StoreCmd &S) {
    // Evaluate the value first (its reads happen in the same time step).
    TypeRef ValTy = checkExpr(S.value());
    TypeRef ElemTy;
    if (auto *A = S.target().as<AccessExpr>()) {
      ElemTy = checkAccess(*A, /*IsWrite=*/true);
      A->setType(ElemTy);
    } else if (auto *PA = S.target().as<PhysAccessExpr>()) {
      ElemTy = checkPhysAccess(*PA, /*IsWrite=*/true);
      PA->setType(ElemTy);
    } else {
      diag(ErrorKind::Type, "store target must be a memory access", S.loc());
      return;
    }
    if (!ElemTy->accepts(*ValTy))
      diag(ErrorKind::Type,
           "cannot store value of type " + ValTy->str() +
               " into memory of element type " + ElemTy->str(),
           S.loc());
  }

  void checkSeq(SeqCmd &S) {
    // Ordered composition: every step starts from the entry resources;
    // afterwards, anything consumed by any step counts as consumed. The
    // first step shares the surrounding time step's read capabilities;
    // `---` discards capabilities for the later steps (Section 3.1).
    // Consumption only grows within a step, so the first step's state
    // already covers the entry state and seeds the merge.
    Scratch Entry(*this);
    save(Entry);
    Scratch Merged(*this);
    bool First = true;
    for (CmdPtr &Step : S.cmds()) {
      if (Stopped)
        break;
      if (!First) {
        Delta = Entry->Delta;
        ReadCaps.clear();
      }
      checkCmd(*Step);
      if (First)
        std::swap(Merged->Delta, Delta);
      else
        Merged->Delta.mergeMax(Delta);
      First = false;
    }
    if (!First)
      std::swap(Delta, Merged->Delta);
    ReadCaps = Entry->ReadCaps;
  }

  void checkFunction(FuncDef &F) {
    // Closed world: the function sees only its parameters.
    AffineDelta SavedDelta = std::move(Delta);
    ReadCapSet SavedCaps = std::move(ReadCaps);
    auto SavedFor = std::move(ForStack);
    size_t SavedWhileDepth = WhileForDepth;
    Delta.clear();
    ReadCaps.clear();
    ForStack.clear();
    WhileForDepth = NotInWhile;
    pushScope();
    for (const FuncParam &P : F.Params) {
      if (P.Ty->isMem()) {
        declareMemory(P.Name, P.Ty, F.Loc);
        continue;
      }
      Binding B;
      B.K = Binding::Var;
      B.Ty = P.Ty;
      declare(P.Name, std::move(B), F.Loc);
    }
    if (F.Body)
      checkCmd(*F.Body);
    popScope();
    Delta = std::move(SavedDelta);
    ReadCaps = std::move(SavedCaps);
    ForStack = std::move(SavedFor);
    WhileForDepth = SavedWhileDepth;
  }
};

} // namespace

std::vector<Error> dahlia::typeCheck(Program &P) {
  return Checker().runProgram(P);
}

std::vector<Error> dahlia::typeCheck(Cmd &C) {
  return Checker().runCommand(C);
}

bool dahlia::typeChecks(Program &P) {
  return Checker(/*StopAtFirst=*/true).runProgram(P).empty();
}

bool dahlia::typeChecks(Cmd &C) {
  return Checker(/*StopAtFirst=*/true).runCommand(C).empty();
}
