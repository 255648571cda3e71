//===- bench/skstrings_learner.cpp - Incremental sk-strings speedup --------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The sk-strings learner is the dominant layer of the mine/debug/re-mine
// loop. This bench times learnSkStrings (incremental quotient, cached
// k-string tables) against learnSkStringsReference (quotient rebuilt every
// iteration, tables rebuilt every test) on the sets that loop learns from:
// each of the 17 protocols' scenario set and its good families (the
// unique correct scenarios grouped by first event), with the miner's
// options (k = 2, s = 1.0, AND).
//
// Counters: `identical` is 1 only if every learned automaton matches the
// reference byte for byte; `speedup` is the median reference pass over
// the median incremental pass, one pass learning every set once.
// CABLE_BENCH_QUICK=1 runs 3 passes instead of 7.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "learner/SkStringsReference.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

using namespace cable;
using namespace cable::bench;

namespace {

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// The scenario set the miner learns from, then the good families the
/// re-miner learns from.
std::vector<std::vector<Trace>> learnerInputs(const ProtocolModel &Model) {
  uint64_t Seed = 0xcbf29ce484222325ULL;
  for (char C : Model.Name) {
    Seed ^= static_cast<unsigned char>(C);
    Seed *= 0x100000001b3ULL;
  }
  RNG Rand(Seed);
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  TraceSet Runs = Gen.generateRuns(Rand);
  ExtractorOptions Extract;
  Extract.SeedNames = Model.Seeds;
  TraceSet Scenarios = extractScenarios(Runs, Extract);
  TraceSet Unique = Scenarios.dedup();
  Oracle Truth(Model, Unique.table());
  std::map<int64_t, std::vector<Trace>> Families;
  for (const Trace &T : Unique.traces())
    if (Truth.isCorrect(T, Unique.table()))
      Families[T.empty() ? -1 : Unique.table().event(T[0]).Name].push_back(T);
  std::vector<std::vector<Trace>> Sets{Scenarios.traces()};
  for (auto &[First, Family] : Families)
    Sets.push_back(std::move(Family));
  return Sets;
}

bool identical(const CountedAutomaton &A, const CountedAutomaton &B) {
  if (A.numStates() != B.numStates() || A.numEdges() != B.numEdges())
    return false;
  for (StateId S = 0; S < A.numStates(); ++S)
    if (A.finalCount(S) != B.finalCount(S) || A.outgoing(S) != B.outgoing(S))
      return false;
  for (size_t I = 0; I < A.numEdges(); ++I) {
    const CountedAutomaton::Edge &X = A.edge(I), &Y = B.edge(I);
    if (X.From != Y.From || X.To != Y.To || X.Symbol != Y.Symbol ||
        X.Count != Y.Count)
      return false;
  }
  return true;
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main() {
  BenchReport Report("skstrings_learner");
  SkStringsOptions Options;
  Options.S = 1.0;

  struct Protocol {
    std::string Name;
    std::vector<std::vector<Trace>> Sets;
    std::vector<double> RefMs, FastMs;
  };
  std::vector<Protocol> Protocols;
  size_t Sets = 0, Traces = 0;
  for (const ProtocolModel &Model : allProtocols()) {
    Protocols.push_back({Model.Name, learnerInputs(Model), {}, {}});
    Sets += Protocols.back().Sets.size();
    for (const std::vector<Trace> &Set : Protocols.back().Sets)
      Traces += Set.size();
  }

  bool Identical = true;
  const int Passes = BenchReport::quick() ? 3 : 7;
  std::vector<double> RefPass, FastPass;
  for (int Pass = 0; Pass < Passes; ++Pass) {
    double Ref = 0, Fast = 0;
    for (Protocol &P : Protocols) {
      double RefMs = 0, FastMs = 0;
      for (const std::vector<Trace> &Set : P.Sets) {
        auto T0 = std::chrono::steady_clock::now();
        CountedAutomaton Want = learnSkStringsReference(Set, Options);
        RefMs += msSince(T0);
        T0 = std::chrono::steady_clock::now();
        CountedAutomaton Got = learnSkStrings(Set, Options);
        FastMs += msSince(T0);
        Identical &= identical(Got, Want);
      }
      P.RefMs.push_back(RefMs);
      P.FastMs.push_back(FastMs);
      Ref += RefMs;
      Fast += FastMs;
    }
    Report.sample("reference-pass", Ref);
    Report.sample("incremental-pass", Fast);
    RefPass.push_back(Ref);
    FastPass.push_back(Fast);
  }

  double Speedup = median(RefPass) / median(FastPass);
  Report.counter("identical", Identical ? 1 : 0);
  Report.counter("speedup", Speedup);
  Report.counter("sets", static_cast<double>(Sets));
  Report.counter("traces", static_cast<double>(Traces));

  std::printf("sk-strings learner: reference vs incremental "
              "(k=2, s=1.0, AND; %zu sets, %zu traces, %d passes)\n\n",
              Sets, Traces, Passes);
  TablePrinter T({{"Specification", 14},
                  {"Sets", 5},
                  {"Reference-ms", 13},
                  {"Incremental-ms", 15},
                  {"Speedup", 8}});
  for (const Protocol &P : Protocols) {
    double Ref = median(P.RefMs), Fast = median(P.FastMs);
    T.addRow({P.Name, cell(P.Sets.size()), cell1(Ref), cell1(Fast),
              cell1(Ref / Fast)});
  }
  T.print();
  std::printf("\npass median: reference %.1f ms, incremental %.1f ms -> "
              "speedup %.1fx; identical: %s\n",
              median(RefPass), median(FastPass), Speedup,
              Identical ? "yes" : "NO");
  Report.write();
  return Identical ? 0 : 1;
}
