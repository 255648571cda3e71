//===- learner/SkStringsReference.cpp - The sk-strings oracle --------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "learner/SkStringsReference.h"

#include "learner/Quotient.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <set>
#include <vector>

using namespace cable;

namespace {

/// Sentinel symbol marking end-of-trace inside a k-string.
constexpr uint32_t EndSymbol = ~uint32_t(0);

/// A k-string: a symbol sequence (possibly ending in EndSymbol) with its
/// probability from some state.
using KString = std::vector<uint32_t>;
using KStringDist = std::map<KString, double>;

/// Union-find over PTA states.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  size_t find(size_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  void merge(size_t A, size_t B) { Parent[find(B)] = find(A); }

private:
  std::vector<size_t> Parent;
};

/// The quotient of a PTA under a union-find partition, with aggregated
/// counts (thin wrapper over quotientAutomaton).
CountedAutomaton quotient(const CountedAutomaton &PTA, UnionFind &Classes,
                          std::vector<StateId> &RepOf) {
  std::vector<uint32_t> ClassKeyOf(PTA.numStates());
  for (size_t S = 0; S < PTA.numStates(); ++S)
    ClassKeyOf[S] = static_cast<uint32_t>(Classes.find(S));
  return quotientAutomaton(PTA, ClassKeyOf, &RepOf);
}

/// Enumerates the k-string distribution of \p State in \p Q: strings of
/// exactly K symbols, or fewer followed by EndSymbol, weighted by path
/// probability.
KStringDist kStrings(const CountedAutomaton &Q, StateId State, unsigned K,
                     size_t MaxStrings) {
  KStringDist Out;
  struct Item {
    StateId S;
    KString Prefix;
    double P;
  };
  std::vector<Item> Worklist{{State, {}, 1.0}};
  while (!Worklist.empty()) {
    Item It = std::move(Worklist.back());
    Worklist.pop_back();
    if (Out.size() > MaxStrings)
      break;
    uint64_t Total = Q.totalCount(It.S);
    if (Total == 0) {
      // No data at this state (possible mid-merge); treat as terminating.
      KString Str = It.Prefix;
      Str.push_back(EndSymbol);
      Out[Str] += It.P;
      continue;
    }
    if (uint64_t F = Q.finalCount(It.S)) {
      KString Str = It.Prefix;
      Str.push_back(EndSymbol);
      Out[Str] += It.P * static_cast<double>(F) / static_cast<double>(Total);
    }
    if (It.Prefix.size() == K)
      continue;
    for (size_t EI : Q.outgoing(It.S)) {
      const CountedAutomaton::Edge &E = Q.edge(EI);
      KString Str = It.Prefix;
      Str.push_back(E.Symbol);
      double P =
          It.P * static_cast<double>(E.Count) / static_cast<double>(Total);
      if (Str.size() == K) {
        Out[Str] += P;
      } else {
        Worklist.push_back(Item{E.To, std::move(Str), P});
      }
    }
  }
  return Out;
}

/// The top-s fraction of \p Dist by probability mass: the smallest prefix
/// of the descending-probability list whose mass reaches S * total.
std::set<KString> topStrings(const KStringDist &Dist, double S) {
  std::vector<std::pair<double, const KString *>> Sorted;
  double Total = 0;
  for (const auto &[Str, P] : Dist) {
    Sorted.emplace_back(P, &Str);
    Total += P;
  }
  std::sort(Sorted.begin(), Sorted.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first > B.first;
              return *A.second < *B.second; // Deterministic tie-break.
            });
  std::set<KString> Out;
  double Mass = 0;
  for (const auto &[P, Str] : Sorted) {
    if (Mass >= S * Total && !Out.empty())
      break;
    Out.insert(*Str);
    Mass += P;
  }
  return Out;
}

/// True if every string of \p Top appears in \p Dist.
bool coveredBy(const std::set<KString> &Top, const KStringDist &Dist) {
  for (const KString &Str : Top)
    if (!Dist.count(Str))
      return false;
  return true;
}

bool skEquivalent(const CountedAutomaton &Q, StateId A, StateId B,
                  const SkStringsOptions &Options) {
  KStringDist DA = kStrings(Q, A, Options.K, Options.MaxStringsPerState);
  KStringDist DB = kStrings(Q, B, Options.K, Options.MaxStringsPerState);
  std::set<KString> TA = topStrings(DA, Options.S);
  std::set<KString> TB = topStrings(DB, Options.S);
  switch (Options.Agreement) {
  case SkStringsOptions::Variant::AND:
    return coveredBy(TA, DB) && coveredBy(TB, DA);
  case SkStringsOptions::Variant::OR:
    return coveredBy(TA, DB) || coveredBy(TB, DA);
  case SkStringsOptions::Variant::LAX:
    for (const KString &Str : TA)
      if (TB.count(Str))
        return true;
    return false;
  }
  return false;
}

} // namespace

CountedAutomaton
cable::learnSkStringsReference(const std::vector<Trace> &Traces,
                               const SkStringsOptions &Options) {
  assert(Options.S > 0 && Options.S <= 1 && "s must be in (0, 1]");
  CountedAutomaton PTA = CountedAutomaton::buildPTA(Traces);
  UnionFind Classes(PTA.numStates());

  // Red-blue merging over PTA classes. Reds are established states; blues
  // are non-red classes reachable from a red in one step. Merge the first
  // blue into the first sk-equivalent red, else promote it.
  std::vector<size_t> Reds{Classes.find(0)};
  for (;;) {
    std::vector<StateId> RepOf;
    CountedAutomaton Q = quotient(PTA, Classes, RepOf);

    // Quotient ids of red roots.
    std::vector<StateId> RedIds;
    std::vector<bool> IsRed(Q.numStates(), false);
    for (size_t R : Reds) {
      StateId Id = RepOf[R];
      if (!IsRed[Id]) {
        IsRed[Id] = true;
        RedIds.push_back(Id);
      }
    }

    // First blue: smallest quotient id reachable from a red, not red.
    StateId Blue = static_cast<StateId>(-1);
    for (StateId R : RedIds)
      for (size_t EI : Q.outgoing(R)) {
        StateId To = Q.edge(EI).To;
        if (!IsRed[To] && (Blue == static_cast<StateId>(-1) || To < Blue))
          Blue = To;
      }
    if (Blue == static_cast<StateId>(-1))
      break; // Everything red: done.

    // A PTA root for the blue class (smallest member).
    size_t BlueRoot = static_cast<size_t>(-1);
    for (size_t S = 0; S < PTA.numStates(); ++S)
      if (RepOf[S] == Blue) {
        BlueRoot = S;
        break;
      }
    assert(BlueRoot != static_cast<size_t>(-1) && "blue class has no member");

    bool Merged = false;
    for (StateId R : RedIds) {
      if (skEquivalent(Q, R, Blue, Options)) {
        // Merge blue's class into the red's class.
        size_t RedRoot = static_cast<size_t>(-1);
        for (size_t S = 0; S < PTA.numStates(); ++S)
          if (RepOf[S] == R) {
            RedRoot = S;
            break;
          }
        Classes.merge(RedRoot, BlueRoot);
        Merged = true;
        break;
      }
    }
    if (!Merged)
      Reds.push_back(Classes.find(BlueRoot));
  }

  std::vector<StateId> RepOf;
  return quotient(PTA, Classes, RepOf);
}
