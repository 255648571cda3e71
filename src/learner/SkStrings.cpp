//===- learner/SkStrings.cpp - The sk-strings FA learner ------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Red-blue merging on a quotient that is updated in place, with each red
// class's k-string table cached until a merge comes within k steps of it.
// The output is byte-identical to learnSkStringsReference, which rebuilds
// everything every iteration; docs/ALGORITHMS.md explains why.
//
// The blue-fringe invariant does most of the work: only blue classes are
// ever merged, and always into a red class, so every non-red class is a
// single PTA state whose whole subtree is untouched. A blue state therefore
// has exactly one in-edge, from its PTA parent's (red) class, and merging
// it re-targets that one edge and folds its out-edges into the red.
//
//===----------------------------------------------------------------------===//

#include "learner/SkStrings.h"

#include "learner/Quotient.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

using namespace cable;

namespace {

Metrics::Counter &Iterations = Metrics::counter("learner.sk-iterations");
Metrics::Counter &Merges = Metrics::counter("learner.sk-merges");
Metrics::Counter &EquivalenceTests =
    Metrics::counter("learner.sk-equivalence-tests");
Metrics::Counter &TablesBuilt = Metrics::counter("learner.sk-tables-built");

/// Sentinel symbol marking end-of-trace inside a k-string.
constexpr uint32_t EndSymbol = ~uint32_t(0);

/// A k-string packed into one key: symbol i in 32-bit slot i, slot 0 most
/// significant, zero padding after EndSymbol. k-strings are prefix-free
/// (a string shorter than k ends in EndSymbol), so the integer order of
/// the keys is the lexicographic order of the strings.
template <typename Key> Key withSymbol(Key Prefix, unsigned Slot,
                                       unsigned Slots, uint32_t Symbol) {
  return Prefix | Key(Symbol) << (32 * (Slots - 1 - Slot));
}

/// Beyond four slots a key is the zero-padded symbol vector itself.
using WideKey = std::vector<uint32_t>;
WideKey withSymbol(WideKey Prefix, unsigned Slot, unsigned, uint32_t Symbol) {
  Prefix[Slot] = Symbol;
  return Prefix;
}

/// One quotient edge: every PTA edge with the same source class, target
/// class and symbol, folded.
struct QEdge {
  uint32_t To;
  EventId Symbol;
  uint64_t Count;
  /// The smallest PTA edge index in the group. Out-lists are sorted by
  /// it, which is the edge order quotientAutomaton produces.
  uint32_t First;
};

/// Adds \p E to the First-sorted \p Out, folding it into an edge with the
/// same target and symbol: the counts add and the smaller First wins.
void addEdge(std::vector<QEdge> &Out, QEdge E) {
  auto Same = std::find_if(Out.begin(), Out.end(), [&](const QEdge &O) {
    return O.To == E.To && O.Symbol == E.Symbol;
  });
  if (Same != Out.end()) {
    E.Count += Same->Count;
    E.First = std::min(E.First, Same->First);
    Out.erase(Same);
  }
  auto At = std::upper_bound(
      Out.begin(), Out.end(), E.First,
      [](uint32_t First, const QEdge &O) { return First < O.First; });
  Out.insert(At, E);
}

/// A state's k-strings (sorted) and its top-s subset (sorted).
template <typename Key> struct KTable {
  std::vector<Key> Keys, Top;
  bool Valid = false;
};

template <typename Key> class Learner {
public:
  Learner(const CountedAutomaton &PTA, const SkStringsOptions &Options);

  /// Runs red-blue merging to the end; returns each PTA state's class.
  std::vector<uint32_t> run();

  uint64_t NumIterations = 0, NumMerges = 0, NumTests = 0, NumTables = 0;

private:
  KTable<Key> build(uint32_t State);
  const KTable<Key> &redTable(uint32_t Red);
  bool equivalent(const KTable<Key> &A, const KTable<Key> &B) const;
  void merge(uint32_t Red, uint32_t Blue);
  void invalidateNear(uint32_t Red);

  const CountedAutomaton &PTA;
  const SkStringsOptions &Options;
  /// Slots per key: k, or 1 at k = 0 (whose only string is EndSymbol).
  const unsigned Slots;

  /// Per PTA state; the class fields are meaningful for class roots.
  std::vector<uint32_t> ClassOf, PTAParent;
  std::vector<std::vector<QEdge>> Out;
  std::vector<uint64_t> Final, Total;
  /// Of a red class: the PTA parents of its members, resolved through
  /// ClassOf when used. Every predecessor of a red class is red.
  std::vector<std::vector<uint32_t>> Preds;
  std::vector<KTable<Key>> Tables;

  // Scratch reused across table builds and merges.
  struct Item {
    uint32_t State;
    unsigned Depth;
    Key Prefix;
    double P;
  };
  std::vector<Item> Worklist;
  std::vector<std::pair<Key, double>> Entries;
  std::vector<uint32_t> Order, Frontier, Next, Seen;
  uint32_t Stamp = 0;
};

template <typename Key>
Learner<Key>::Learner(const CountedAutomaton &PTA,
                      const SkStringsOptions &Options)
    : PTA(PTA), Options(Options), Slots(std::max(Options.K, 1u)) {
  const size_t N = PTA.numStates();
  ClassOf.resize(N);
  PTAParent.assign(N, 0);
  Out.resize(N);
  Final.resize(N);
  Total.resize(N);
  Preds.resize(N);
  Tables.resize(N);
  Seen.assign(N, 0);
  for (uint32_t S = 0; S < N; ++S) {
    ClassOf[S] = S;
    Final[S] = Total[S] = PTA.finalCount(S);
    for (size_t EI : PTA.outgoing(S)) {
      const CountedAutomaton::Edge &E = PTA.edge(EI);
      Out[S].push_back(
          QEdge{E.To, E.Symbol, E.Count, static_cast<uint32_t>(EI)});
      Total[S] += E.Count;
      PTAParent[E.To] = S;
    }
  }
}

template <typename Key> std::vector<uint32_t> Learner<Key>::run() {
  // Reds in promotion order; blues by smallest PTA state, which is the
  // smallest quotient id because quotientAutomaton numbers classes by
  // first member.
  std::vector<uint32_t> Reds{0};
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>> Blues;
  auto AddChildren = [&](uint32_t S) {
    for (size_t EI : PTA.outgoing(S))
      Blues.push(PTA.edge(EI).To);
  };
  AddChildren(0);
  while (!Blues.empty()) {
    uint32_t Blue = Blues.top();
    Blues.pop();
    ++NumIterations;
    KTable<Key> BlueTable = build(Blue);
    bool Merged = false;
    for (uint32_t Red : Reds) {
      ++NumTests;
      if (equivalent(redTable(Red), BlueTable)) {
        merge(Red, Blue);
        Merged = true;
        break;
      }
    }
    if (!Merged) {
      Reds.push_back(Blue);
      Preds[Blue] = {PTAParent[Blue]};
      Tables[Blue] = std::move(BlueTable);
    }
    AddChildren(Blue);
  }
  return ClassOf;
}

/// Enumerates \p State's k-strings: exactly k symbols, or fewer followed by
/// EndSymbol, weighted by path probability. The walk, the order in which
/// each string's probabilities add up, the cap check and the top-s
/// selection all follow the reference step for step, so the doubles and
/// the selected set come out bit-identical.
template <typename Key> KTable<Key> Learner<Key>::build(uint32_t State) {
  ++NumTables;
  const unsigned K = Options.K;
  Entries.clear();
  auto Add = [&](const Key &Str, double P) {
    auto It = std::lower_bound(
        Entries.begin(), Entries.end(), Str,
        [](const std::pair<Key, double> &E, const Key &S) {
          return E.first < S;
        });
    if (It != Entries.end() && It->first == Str)
      It->second += P;
    else
      Entries.insert(It, {Str, P});
  };

  Key Empty{};
  if constexpr (std::is_same_v<Key, WideKey>)
    Empty.assign(Slots, 0);
  Worklist.clear();
  Worklist.push_back(Item{State, 0, std::move(Empty), 1.0});
  while (!Worklist.empty()) {
    Item It = std::move(Worklist.back());
    Worklist.pop_back();
    if (Entries.size() > Options.MaxStringsPerState)
      break;
    uint64_t T = Total[It.State];
    if (T == 0) {
      // No data at this state; treat as terminating.
      Add(withSymbol(It.Prefix, It.Depth, Slots, EndSymbol), It.P);
      continue;
    }
    if (uint64_t F = Final[It.State])
      Add(withSymbol(It.Prefix, It.Depth, Slots, EndSymbol),
          It.P * static_cast<double>(F) / static_cast<double>(T));
    if (It.Depth == K)
      continue;
    for (const QEdge &E : Out[It.State]) {
      Key Str = withSymbol(It.Prefix, It.Depth, Slots, E.Symbol);
      double P = It.P * static_cast<double>(E.Count) / static_cast<double>(T);
      if (It.Depth + 1 == K)
        Add(Str, P);
      else
        Worklist.push_back(Item{E.To, It.Depth + 1, std::move(Str), P});
    }
  }

  // Top-s: the smallest prefix of the descending-probability list, ties by
  // key, whose mass reaches s times the total (summed in key order).
  // Entries are in key order, so an index tie-break is a key tie-break.
  double Sum = 0;
  for (const auto &Entry : Entries)
    Sum += Entry.second;
  Order.resize(Entries.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    if (Entries[A].second != Entries[B].second)
      return Entries[A].second > Entries[B].second;
    return A < B;
  });
  KTable<Key> Table;
  Table.Valid = true;
  double Mass = 0;
  for (uint32_t I : Order) {
    if (Mass >= Options.S * Sum && !Table.Top.empty())
      break;
    Table.Top.push_back(Entries[I].first);
    Mass += Entries[I].second;
  }
  std::sort(Table.Top.begin(), Table.Top.end());
  Table.Keys.reserve(Entries.size());
  for (auto &Entry : Entries)
    Table.Keys.push_back(std::move(Entry.first));
  return Table;
}

template <typename Key>
const KTable<Key> &Learner<Key>::redTable(uint32_t Red) {
  if (!Tables[Red].Valid)
    Tables[Red] = build(Red);
  return Tables[Red];
}

template <typename Key>
bool Learner<Key>::equivalent(const KTable<Key> &A,
                              const KTable<Key> &B) const {
  auto CoveredBy = [](const KTable<Key> &Top, const KTable<Key> &All) {
    return std::includes(All.Keys.begin(), All.Keys.end(), Top.Top.begin(),
                         Top.Top.end());
  };
  switch (Options.Agreement) {
  case SkStringsOptions::Variant::AND:
    return CoveredBy(A, B) && CoveredBy(B, A);
  case SkStringsOptions::Variant::OR:
    return CoveredBy(A, B) || CoveredBy(B, A);
  case SkStringsOptions::Variant::LAX:
    for (auto I = A.Top.begin(), J = B.Top.begin();
         I != A.Top.end() && J != B.Top.end();) {
      if (*I == *J)
        return true;
      if (*I < *J)
        ++I;
      else
        ++J;
    }
    return false;
  }
  return false;
}

template <typename Key>
void Learner<Key>::merge(uint32_t Red, uint32_t Blue) {
  ++NumMerges;
  // The one in-edge of Blue now enters Red.
  uint32_t Pred = ClassOf[PTAParent[Blue]];
  std::vector<QEdge> &PredOut = Out[Pred];
  auto In = std::find_if(PredOut.begin(), PredOut.end(),
                         [&](const QEdge &E) { return E.To == Blue; });
  assert(In != PredOut.end() && "blue state has no in-edge");
  QEdge Retargeted = *In;
  PredOut.erase(In);
  Retargeted.To = Red;
  addEdge(PredOut, Retargeted);

  for (const QEdge &E : Out[Blue])
    addEdge(Out[Red], E);
  Out[Blue] = {};
  Final[Red] += Final[Blue];
  Total[Red] += Total[Blue];
  ClassOf[Blue] = Red;
  Preds[Red].push_back(PTAParent[Blue]);
  invalidateNear(Red);
}

/// Drops the cached table of every class with a path of length at most k
/// to \p Red. Radius k, not k - 1: a folded edge into Red at distance 1
/// contributes p * (c1 + c2) / T where it used to contribute
/// p * c1 / T + p * c2 / T, so a table k steps back can change in its
/// last bits.
template <typename Key> void Learner<Key>::invalidateNear(uint32_t Red) {
  ++Stamp;
  Seen[Red] = Stamp;
  Tables[Red].Valid = false;
  Frontier.assign(1, Red);
  for (unsigned D = 0; D < Options.K && !Frontier.empty(); ++D) {
    Next.clear();
    for (uint32_t X : Frontier) {
      std::vector<uint32_t> &Ps = Preds[X];
      for (uint32_t &P : Ps)
        P = ClassOf[P];
      std::sort(Ps.begin(), Ps.end());
      Ps.erase(std::unique(Ps.begin(), Ps.end()), Ps.end());
      for (uint32_t P : Ps)
        if (Seen[P] != Stamp) {
          Seen[P] = Stamp;
          Tables[P].Valid = false;
          Next.push_back(P);
        }
    }
    std::swap(Frontier, Next);
  }
}

template <typename Key>
CountedAutomaton learnWith(const CountedAutomaton &PTA,
                           const SkStringsOptions &Options) {
  Learner<Key> L(PTA, Options);
  std::vector<uint32_t> ClassOf = L.run();
  Iterations.add(L.NumIterations);
  Merges.add(L.NumMerges);
  EquivalenceTests.add(L.NumTests);
  TablesBuilt.add(L.NumTables);
  return quotientAutomaton(PTA, ClassOf);
}

} // namespace

CountedAutomaton cable::learnSkStrings(const std::vector<Trace> &Traces,
                                       const SkStringsOptions &Options) {
  assert(Options.S > 0 && Options.S <= 1 && "s must be in (0, 1]");
  TraceSpan Span("skstrings-learn", static_cast<int64_t>(Traces.size()));
  CountedAutomaton PTA = CountedAutomaton::buildPTA(Traces);
  if (Options.K <= 2)
    return learnWith<uint64_t>(PTA, Options);
  if (Options.K <= 4)
    return learnWith<unsigned __int128>(PTA, Options);
  return learnWith<WideKey>(PTA, Options);
}

Automaton cable::learnSkStringsFA(const std::vector<Trace> &Traces,
                                  const EventTable &Table,
                                  const SkStringsOptions &Options) {
  return learnSkStrings(Traces, Options).toAutomaton(Table);
}
