//===- bench/trace_layers.cpp - The relation R and extraction speedup ------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The two trace-side layers of the mine/debug/re-mine loop, each against
// its oracle, on the inputs that loop feeds them: 16 instances of each of
// the 17 protocols (272 run sets, generated from the seeds the loop uses).
//
// - Extraction: extractScenarios (posting lists) against
//   extractScenariosReference (rescans), on each run set with the miner's
//   options.
// - The relation R: one RelationScanner over a session's classes against
//   executedTransitionsReference per class, on each (mined FA, scenarios)
//   pair, the FA mined by sk-strings (k = 2, s = 1.0, AND) from the
//   scenarios.
//
// Counters: `relation_identical` and `extract_identical` are 1 only if
// every row and every extraction (traces and event table) matches the
// oracle; `relation_speedup` and `extract_speedup` are the median oracle
// pass over the median shipped pass, one pass covering all 272 inputs.
// CABLE_BENCH_QUICK=1 runs 3 passes instead of 7.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "fa/AutomatonReference.h"
#include "miner/ScenarioExtractorReference.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace cable;
using namespace cable::bench;

namespace {

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

uint64_t nameSeed(const std::string &Name) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

bool sameExtraction(const TraceSet &A, const TraceSet &B) {
  if (A.traces() != B.traces() ||
      A.table().numNames() != B.table().numNames() ||
      A.table().numEvents() != B.table().numEvents())
    return false;
  for (NameId N = 0; N < A.table().numNames(); ++N)
    if (A.table().nameText(N) != B.table().nameText(N))
      return false;
  for (EventId E = 0; E < A.table().numEvents(); ++E)
    if (!(A.table().event(E) == B.table().event(E)))
      return false;
  return true;
}

/// One instance of a protocol: its runs, the scenarios extracted from
/// them, their classes and the FA mined from the scenarios.
struct Instance {
  const ProtocolModel *Model;
  TraceSet Runs, Scenarios;
  std::vector<Trace> Classes;
  Automaton Mined;
};

constexpr size_t InstancesPerProtocol = 16;

} // namespace

int main() {
  BenchReport Report("trace_layers");
  ExtractorOptions Extract;
  SkStringsOptions Learn;
  Learn.S = 1.0;

  std::vector<Instance> Instances;
  size_t Runs = 0, Scenarios = 0, Classes = 0;
  for (size_t K = 0; K < InstancesPerProtocol; ++K)
    for (const ProtocolModel &Model : allProtocols()) {
      Instance In;
      In.Model = &Model;
      RNG Rand(nameSeed(K ? Model.Name + "#" + std::to_string(K)
                          : Model.Name));
      EventTable Table;
      WorkloadGenerator Gen(Model, Table);
      In.Runs = Gen.generateRuns(Rand);
      Extract.SeedNames = Model.Seeds;
      In.Scenarios = extractScenarios(In.Runs, Extract);
      In.Classes = In.Scenarios.computeClasses().Representatives;
      In.Mined = learnSkStringsFA(In.Scenarios.traces(), In.Scenarios.table(),
                                  Learn);
      Runs += In.Runs.size();
      Scenarios += In.Scenarios.size();
      Classes += In.Classes.size();
      Instances.push_back(std::move(In));
    }

  bool RelationIdentical = true, ExtractIdentical = true;
  const int Passes = BenchReport::quick() ? 3 : 7;
  std::vector<double> RelRef, RelFast, ExtRef, ExtFast;
  for (int Pass = 0; Pass < Passes; ++Pass) {
    double RelRefMs = 0, RelFastMs = 0, ExtRefMs = 0, ExtFastMs = 0;
    for (const Instance &In : Instances) {
      // Extraction, both extractors on the instance's runs with the
      // options its scenarios were extracted with.
      Extract.SeedNames = In.Model->Seeds;
      auto T0 = std::chrono::steady_clock::now();
      TraceSet Want = extractScenariosReference(In.Runs, Extract);
      ExtRefMs += msSince(T0);
      T0 = std::chrono::steady_clock::now();
      TraceSet Got = extractScenarios(In.Runs, Extract);
      ExtFastMs += msSince(T0);
      ExtractIdentical &= sameExtraction(Got, Want);

      // The relation over the session's classes.
      const EventTable &Table = In.Scenarios.table();
      std::vector<BitVector> Rows;
      T0 = std::chrono::steady_clock::now();
      for (const Trace &T : In.Classes)
        Rows.push_back(executedTransitionsReference(In.Mined, T, Table));
      RelRefMs += msSince(T0);
      T0 = std::chrono::steady_clock::now();
      RelationScanner Scanner(In.Mined, Table);
      size_t Same = 0;
      for (size_t Obj = 0; Obj < In.Classes.size(); ++Obj)
        Same += Scanner.executed(In.Classes[Obj]) == Rows[Obj];
      RelFastMs += msSince(T0);
      RelationIdentical &= Same == In.Classes.size();
    }
    Report.sample("relation-reference-pass", RelRefMs);
    Report.sample("relation-scanner-pass", RelFastMs);
    Report.sample("extract-reference-pass", ExtRefMs);
    Report.sample("extract-postings-pass", ExtFastMs);
    RelRef.push_back(RelRefMs);
    RelFast.push_back(RelFastMs);
    ExtRef.push_back(ExtRefMs);
    ExtFast.push_back(ExtFastMs);
  }

  double RelationSpeedup = median(RelRef) / median(RelFast);
  double ExtractSpeedup = median(ExtRef) / median(ExtFast);
  Report.counter("relation_identical", RelationIdentical ? 1 : 0);
  Report.counter("relation_speedup", RelationSpeedup);
  Report.counter("extract_identical", ExtractIdentical ? 1 : 0);
  Report.counter("extract_speedup", ExtractSpeedup);
  Report.counter("instances", static_cast<double>(Instances.size()));
  Report.counter("runs", static_cast<double>(Runs));
  Report.counter("scenarios", static_cast<double>(Scenarios));
  Report.counter("classes", static_cast<double>(Classes));

  std::printf("trace-side layers against their oracles (%zu instances, %zu "
              "runs, %zu scenarios, %zu classes, %d passes)\n\n",
              Instances.size(), Runs, Scenarios, Classes, Passes);
  TablePrinter T({{"Layer", 12},
                  {"Reference-ms", 13},
                  {"Shipped-ms", 11},
                  {"Speedup", 8},
                  {"Identical", 10}});
  T.addRow({"relation", cell1(median(RelRef)), cell1(median(RelFast)),
            cell1(RelationSpeedup), RelationIdentical ? "yes" : "NO"});
  T.addRow({"extraction", cell1(median(ExtRef)), cell1(median(ExtFast)),
            cell1(ExtractSpeedup), ExtractIdentical ? "yes" : "NO"});
  T.print();
  Report.write();
  return RelationIdentical && ExtractIdentical ? 0 : 1;
}
