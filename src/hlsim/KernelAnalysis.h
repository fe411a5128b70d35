//===- KernelAnalysis.h - Shared kernel-spec analyses -----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural analyses over \c KernelSpec shared by the analytic estimator
/// (hlsim/Estimator.cpp) and the cycle-level simulator (cyclesim/): the
/// flat access plan and the bank arbitration over it, the two unwritten
/// rules, and the deterministic per-configuration hash behind the
/// "black-box heuristic" noise. Keeping one implementation is what lets
/// the simulator serve as the exact top rung of the fidelity ladder: both
/// layers agree on what the hardware looks like and differ only in how the
/// schedule is derived (sampled scan vs. exhaustive execution).
///
/// The schedule primitive works on an \c AccessPlan: one loop nest lowered
/// once per estimate into flat integer arrays.
///   - Loop variables become dense indices. Loops that share a name share
///     one index, so a group counter written for either is the one both
///     read, exactly as a name-keyed map would resolve it.
///   - Each access dimension becomes an \c int64_t coefficient row (one
///     entry per loop, the same coefficient for every loop carrying the
///     variable's name) plus a constant.
///   - Each access's hardware instances become one deduplicated flat
///     array of per-dimension constants, in lexicographic order.
///   - Each array gets an offset into one bank-counter vector; a group's
///     bank pressure is counted there and reset through a touched list.
///
/// Every result is bit-identical to evaluating the model directly over
/// the spec, which the plan guarantees by construction:
///   - instances keep lexicographic order, because the estimator's mux
///     area is a floating-point sum taken in that order;
///   - bank fan-in is summed array by array in array-name order and bank
///     by bank in ascending order, for the same reason;
///   - processing elements are enumerated lexicographically and capped at
///     \c PeCap, so very wide unrolls see the same prefix of copies.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_HLSIM_KERNELANALYSIS_H
#define DAHLIA_HLSIM_KERNELANALYSIS_H

#include "hlsim/Kernel.h"

#include "support/StableHash.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string_view>
#include <vector>

namespace dahlia::hlsim {

inline int64_t floorMod(int64_t A, int64_t B) { return ((A % B) + B) % B; }

/// Unrolled copies enumerated per nest; wider unrolls keep the first
/// \c PeCap copies in lexicographic order.
inline constexpr int64_t PeCap = 2048;

/// One bank counter per bank of every array of a spec, addressed through
/// per-array offsets. \c arbitrateGroup counts a group's requests here and
/// leaves every counter zero again.
struct BankCounters {
  std::vector<int64_t> Offset; ///< First counter of each K.Arrays entry.
  std::vector<int64_t> Count;
  /// Counters raised since the last reset, with the port count of their
  /// array.
  std::vector<std::pair<int64_t, unsigned>> Touched;
  /// Per-dimension sequential shift of the access being arbitrated.
  std::vector<int64_t> Shift;

  BankCounters() = default;
  explicit BankCounters(const KernelSpec &K) {
    int64_t Total = 0;
    Offset.reserve(K.Arrays.size());
    for (const ArraySpec &A : K.Arrays) {
      Offset.push_back(Total);
      Total += A.totalBanks();
    }
    Count.assign(static_cast<size_t>(Total), 0);
  }
};

/// One loop nest lowered to flat integer arrays (see the file comment).
struct AccessPlan {
  /// One body access. Its dimensions are rows [Dim0, Dim0 + Dims) of the
  /// per-dimension tables; its instances are Insts rows of Dims entries
  /// starting at Inst[Inst0].
  struct Access {
    int64_t Bank0 = 0; ///< The array's first counter in BankCounters.
    unsigned Ports = 1;
    unsigned ElemBits = 32;
    size_t Dims = 0;
    size_t Dim0 = 0;
    size_t Inst0 = 0;
    size_t Insts = 0;
  };

  // Per loop, outermost first.
  std::vector<int64_t> Trip;
  std::vector<int64_t> Unroll;
  std::vector<size_t> Var; ///< Dense variable index of the loop's name.
  size_t Vars = 0;

  std::vector<Access> Accesses; ///< Aligned with *N.Body.

  // Per access dimension.
  std::vector<int64_t> Coef; ///< Row of Trip.size() coefficients.
  std::vector<int64_t> Const;
  std::vector<int64_t> Part;      ///< Cyclic partition factor.
  std::vector<int64_t> ReachStep; ///< Bank stride the sequential walk
                                  ///< reaches (divides Part).

  /// Deduplicated instance keys, each entry reduced mod its Part: only
  /// the bank a key selects matters once instances are distinct.
  std::vector<int64_t> Inst;

  size_t loops() const { return Trip.size(); }

  std::span<const int64_t> coefRow(size_t Dim) const {
    return {Coef.data() + Dim * loops(), loops()};
  }

  std::span<const int64_t> instance(const Access &A, size_t I) const {
    return {Inst.data() + A.Inst0 + I * A.Dims, A.Dims};
  }
};

/// Lowers nest \p N of \p K into \p P, reusing P's storage. An access's
/// hardware instances are the distinct index constants its unrolled
/// copies resolve to: copies whose index expressions do not mention an
/// unrolled iterator collapse into one instance — HLS shares the fetch
/// (read fan-out) or merges the update (reduction), exactly like Dahlia's
/// read capabilities and combine registers.
inline void lowerNest(const KernelSpec &K, const KernelSpec::NestView &N,
                      const BankCounters &C, AccessPlan &P) {
  const std::vector<Loop> &Loops = *N.Loops;
  const size_t NL = Loops.size();
  P.Trip.clear();
  P.Unroll.clear();
  P.Var.clear();
  P.Vars = 0;
  for (size_t L = 0; L != NL; ++L) {
    P.Trip.push_back(Loops[L].Trip);
    P.Unroll.push_back(Loops[L].Unroll);
    size_t Same = 0;
    while (Loops[Same].Var != Loops[L].Var)
      ++Same;
    P.Var.push_back(Same == L ? P.Vars++ : P.Var[Same]);
  }

  P.Accesses.clear();
  P.Coef.clear();
  P.Const.clear();
  P.Part.clear();
  P.ReachStep.clear();
  for (const Access &A : *N.Body) {
    const ArraySpec *Arr = K.findArray(A.Array);
    assert(Arr && "access to unknown array");
    assert(A.Idx.size() == Arr->DimSizes.size() && "access arity mismatch");
    AccessPlan::Access PA;
    PA.Bank0 = C.Offset[static_cast<size_t>(Arr - K.Arrays.data())];
    PA.Ports = Arr->Ports;
    PA.ElemBits = Arr->ElemBits;
    PA.Dims = A.Idx.size();
    PA.Dim0 = P.Const.size();
    for (size_t D = 0; D != A.Idx.size(); ++D) {
      const AffineExpr &Idx = A.Idx[D];
      const int64_t Pt = Arr->Partition[D];
      int64_t G = 0;
      for (size_t L = 0; L != NL; ++L) {
        auto It = Idx.Coeffs.find(Loops[L].Var);
        int64_t Co = It == Idx.Coeffs.end() ? 0 : It->second;
        P.Coef.push_back(Co);
        // The sequential part of this loop steps the index by
        // Coeff * Unroll; if the loop iterates more than once per group
        // it contributes stride variation.
        if (Loops[L].Trip / std::max<int64_t>(Loops[L].Unroll, 1) > 1)
          G = std::gcd(G, std::abs(Co) * Loops[L].Unroll);
      }
      P.Const.push_back(Idx.Const);
      P.Part.push_back(Pt);
      P.ReachStep.push_back(G == 0 ? Pt : std::gcd(G, Pt));
    }
    P.Accesses.push_back(PA);
  }

  // The unrolled copies in lexicographic order (innermost loop fastest),
  // capped at PeCap: a mixed-radix odometer over the unrolled loops.
  std::vector<size_t> Unrolled;
  int64_t Pes = 1;
  bool Capped = false;
  for (size_t L = 0; L != NL; ++L) {
    int64_t U = Loops[L].Unroll;
    if (U <= 1)
      continue;
    Unrolled.push_back(L);
    if (Pes > PeCap / U) {
      Pes = PeCap;
      Capped = true;
    } else {
      Pes *= U;
    }
  }

  P.Inst.clear();
  std::vector<size_t> Walked;
  std::vector<int64_t> Pe(NL, 0);
  std::vector<int64_t> Keys;
  std::vector<size_t> Order;
  for (AccessPlan::Access &PA : P.Accesses) {
    const size_t Dims = PA.Dims;
    // Copies that differ only in loops this access never mentions resolve
    // to the same key, so an uncapped enumeration walks just the loops it
    // mentions; a capped one must walk the exact capped prefix.
    int64_t Rows = Pes;
    Walked.clear();
    if (Capped) {
      Walked = Unrolled;
    } else {
      Rows = 1;
      for (size_t L : Unrolled)
        for (size_t D = 0; D != Dims; ++D)
          if (P.coefRow(PA.Dim0 + D)[L] != 0) {
            Walked.push_back(L);
            Rows *= Loops[L].Unroll;
            break;
          }
    }
    Keys.clear();
    std::fill(Pe.begin(), Pe.end(), 0);
    for (int64_t I = 0; I != Rows; ++I) {
      for (size_t D = 0; D != Dims; ++D) {
        std::span<const int64_t> Row = P.coefRow(PA.Dim0 + D);
        int64_t Key = P.Const[PA.Dim0 + D];
        for (size_t L : Walked)
          Key += Row[L] * Pe[L];
        Keys.push_back(Key);
      }
      for (size_t J = Walked.size(); J-- > 0;) {
        size_t L = Walked[J];
        if (++Pe[L] != Loops[L].Unroll)
          break;
        Pe[L] = 0;
      }
    }
    // Deduplicate in lexicographic order (often already strictly
    // ascending, e.g. when each dimension follows one unrolled loop).
    const size_t N = static_cast<size_t>(Rows);
    auto Row = [&](size_t R) { return Keys.begin() + R * Dims; };
    auto Less = [&](size_t X, size_t Y) {
      return std::lexicographical_compare(Row(X), Row(X) + Dims, Row(Y),
                                          Row(Y) + Dims);
    };
    auto NotAscending = [&](size_t X, size_t Y) { return !Less(X, Y); };
    Order.resize(N);
    std::iota(Order.begin(), Order.end(), size_t(0));
    if (std::adjacent_find(Order.begin(), Order.end(), NotAscending) !=
        Order.end())
      std::sort(Order.begin(), Order.end(), Less);
    PA.Inst0 = P.Inst.size();
    PA.Insts = 0;
    for (size_t I = 0; I != N; ++I) {
      if (I != 0 && NotAscending(Order[I - 1], Order[I]))
        continue;
      for (size_t D = 0; D != Dims; ++D)
        P.Inst.push_back(floorMod(Row(Order[I])[D], P.Part[PA.Dim0 + D]));
      ++PA.Insts;
    }
  }
}

/// Writes into \p Banks the flat banks instance \p Key of access \p A can
/// reach over the whole sequential walk. Per dimension these are the
/// residues (K + m*g) mod P in ascending order, where g is the gcd of P
/// with the strides the free (sequential) loop iteration contributes; the
/// flat set is their row-major product.
inline void reachableBanks(const AccessPlan &P, const AccessPlan::Access &A,
                           std::span<const int64_t> Key,
                           std::vector<int64_t> &Banks) {
  Banks.assign(1, 0);
  for (size_t D = 0; D != A.Dims; ++D) {
    const int64_t Pt = P.Part[A.Dim0 + D];
    const int64_t G = P.ReachStep[A.Dim0 + D];
    const int64_t R0 = floorMod(Key[D], G);
    const int64_t Count = Pt / G;
    const size_t Prev = Banks.size();
    Banks.resize(Prev * static_cast<size_t>(Count));
    // Expand in place from the back so row-major order is kept.
    for (size_t F = Prev; F-- > 0;) {
      const int64_t Base = Banks[F] * Pt;
      for (int64_t M = Count; M-- > 0;)
        Banks[F * static_cast<size_t>(Count) + static_cast<size_t>(M)] =
            Base + R0 + M * G;
    }
  }
}

/// Per-bank arbitration of one lockstep-issued group of plan \p P at the
/// sequential iteration point \p SeqIter (one group counter per dense
/// loop variable): returns the cycles the worst bank needs to serve the
/// group's requests (>= 1) and reports the worst raw request count
/// through \p MaxPressure. \p C is left all-zero.
///
/// This is THE schedule primitive of the fidelity ladder: the analytic
/// estimator evaluates it at a sampled spread of points, the cycle-level
/// simulator at every group of the conflict period — sharing one
/// implementation is what makes "sampled max <= exhaustive max" (and so
/// Full <= Exact) a structural property rather than a testing hope.
inline double arbitrateGroup(const AccessPlan &P,
                             std::span<const int64_t> SeqIter,
                             BankCounters &C, int64_t &MaxPressure) {
  for (const AccessPlan::Access &A : P.Accesses) {
    // Sequential contribution shared by all instances this cycle.
    if (C.Shift.size() < A.Dims)
      C.Shift.resize(A.Dims);
    int64_t *S = C.Shift.data();
    for (size_t D = 0; D != A.Dims; ++D) {
      std::span<const int64_t> Row = P.coefRow(A.Dim0 + D);
      int64_t Seq = 0;
      for (size_t L = 0; L != P.loops(); ++L)
        Seq += Row[L] * P.Unroll[L] * SeqIter[P.Var[L]];
      S[D] = floorMod(Seq, P.Part[A.Dim0 + D]);
    }
    // (Key + Seq) mod P from the two residues: one compare, no division.
    const int64_t *Key = P.Inst.data() + A.Inst0;
    for (size_t I = 0; I != A.Insts; ++I, Key += A.Dims) {
      int64_t Flat = 0;
      for (size_t D = 0; D != A.Dims; ++D) {
        const int64_t Pt = P.Part[A.Dim0 + D];
        int64_t Bank = Key[D] + S[D];
        Flat = Flat * Pt + (Bank >= Pt ? Bank - Pt : Bank);
      }
      if (++C.Count[static_cast<size_t>(A.Bank0 + Flat)] == 1)
        C.Touched.emplace_back(A.Bank0 + Flat, A.Ports);
    }
  }
  double Needed = 1.0;
  for (auto [Bank, Ports] : C.Touched) {
    int64_t &Count = C.Count[static_cast<size_t>(Bank)];
    MaxPressure = std::max(MaxPressure, Count);
    Needed = std::max(Needed, std::ceil(static_cast<double>(Count) / Ports));
    Count = 0;
  }
  C.Touched.clear();
  return Needed;
}

/// The sampled port-conflict initiation interval of plan \p P: a
/// deterministic spread of \p Samples real schedule points (a prefix in
/// the sample count, so the result is monotone in \p Samples — the
/// ladder's Coarse/Medium/Full ordering relies on this).
inline double sampledConflictII(const AccessPlan &P, int Samples,
                                BankCounters &C) {
  double II = 1.0;
  int64_t Ignored = 1;
  std::vector<int64_t> SeqIter(P.Vars, 0);
  for (int Sample = 0; Sample != Samples; ++Sample) {
    int Stride = 1;
    for (size_t L = 0; L != P.loops(); ++L) {
      int64_t Groups = P.Trip[L] / std::max<int64_t>(P.Unroll[L], 1);
      SeqIter[P.Var[L]] = Groups > 0 ? (Sample * Stride) % Groups : 0;
      Stride += 2;
    }
    II = std::max(II, arbitrateGroup(P, SeqIter, C, Ignored));
  }
  return II;
}

/// One nest's loop-control structure: the sequential group count and the
/// per-level control overhead. Shared by the analytic estimator and the
/// cycle-level simulator — both compute nest latency as
/// Groups * effective-II + OuterOverhead, and the Full <= Exact ladder
/// bound needs the two to agree bit-for-bit.
struct NestShape {
  double Groups = 1;
  double OuterOverhead = 0;
};

inline NestShape nestShape(const KernelSpec::NestView &N,
                           double LoopOverheadCycles) {
  NestShape S;
  double Prefix = 1;
  for (const Loop &L : *N.Loops) {
    double G = std::ceil(static_cast<double>(L.Trip) /
                         static_cast<double>(L.Unroll));
    S.Groups *= G;
    S.OuterOverhead += Prefix * LoopOverheadCycles;
    Prefix *= G;
  }
  return S;
}

/// The paper's first unwritten rule: every unroll factor used to index a
/// banked dimension must divide that dimension's banking factor.
inline bool unrollDividesBanking(const KernelSpec &K) {
  for (size_t NI = 0; NI != K.nestCount(); ++NI) {
    KernelSpec::NestView N = K.nest(NI);
    for (const Access &A : *N.Body) {
      const ArraySpec *Arr = K.findArray(A.Array);
      if (!Arr)
        continue;
      for (size_t D = 0; D != A.Idx.size(); ++D) {
        int64_t P = Arr->Partition[D];
        for (const Loop &L : *N.Loops) {
          if (L.Unroll <= 1)
            continue;
          if (!A.Idx[D].Coeffs.count(L.Var))
            continue;
          if (P % L.Unroll != 0)
            return false;
        }
      }
    }
  }
  return true;
}

/// The paper's second unwritten rule: banking factors divide array sizes
/// and unroll factors divide trip counts.
inline bool bankingDividesSizes(const KernelSpec &K) {
  for (const ArraySpec &Arr : K.Arrays)
    for (size_t D = 0; D != Arr.DimSizes.size(); ++D)
      if (Arr.DimSizes[D] % Arr.Partition[D] != 0)
        return false;
  for (size_t NI = 0; NI != K.nestCount(); ++NI)
    for (const Loop &L : *K.nest(NI).Loops)
      if (L.Trip % L.Unroll != 0)
        return false;
  return true;
}

/// Deterministic per-configuration hash used for heuristic noise: FNV-1a
/// over the configuration's text form (name, then '|var:trip:unroll[w]'
/// per loop and '|name:size p part...' per array), streamed piece by piece
/// so no string is built. The stream is unchanged for single-nest,
/// for-only specs, so pre-multi-nest noise draws (and the Figure 7
/// baselines built on them) are preserved.
inline uint64_t heuristicConfigHash(const KernelSpec &K) {
  uint64_t H = stableHash(K.Name);
  auto Put = [&H](std::string_view Piece) { H = stableHash(Piece, H); };
  auto Num = [&Put](int64_t V) {
    char Buf[24];
    char *End = std::to_chars(Buf, Buf + sizeof Buf, V).ptr;
    Put({Buf, static_cast<size_t>(End - Buf)});
  };
  for (size_t NI = 0; NI != K.nestCount(); ++NI)
    for (const Loop &L : *K.nest(NI).Loops) {
      Put("|");
      Put(L.Var);
      Put(":");
      Num(L.Trip);
      Put(":");
      Num(L.Unroll);
      if (L.IsWhile)
        Put("w");
    }
  for (const ArraySpec &A : K.Arrays) {
    Put("|");
    Put(A.Name);
    for (size_t D = 0; D != A.DimSizes.size(); ++D) {
      Put(":");
      Num(A.DimSizes[D]);
      Put("p");
      Num(A.Partition[D]);
    }
  }
  return H;
}

/// The deterministic latency perturbation (>= 1) applied to
/// rule-violating configurations — the same draw at every fidelity,
/// simulator included, so noise never inverts the ladder.
inline double heuristicLatencyMultiplier(const KernelSpec &K,
                                         double NoiseAmplitudeLatency) {
  uint64_t H = heuristicConfigHash(K);
  double U2 = stableHashUnit(stableHashCombine(H, 0x9e3779b97f4a7c15ULL));
  return 1.0 + NoiseAmplitudeLatency * U2;
}

} // namespace dahlia::hlsim

#endif // DAHLIA_HLSIM_KERNELANALYSIS_H
