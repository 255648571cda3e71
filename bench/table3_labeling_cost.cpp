//===- bench/table3_labeling_cost.cpp - Reproduces Table 3 -----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 3: the cost (inspections + label operations, §4.2) of obtaining
// the expert's labeling with each method:
//
//   Baseline  — 2 ops per class of identical traces (no lattice);
//   Expert    — simulated expert (mostly top-down, steered by
//               discriminating transitions);
//   Top-down / Bottom-up — the automatic traversals; like the paper,
//               the lowest cost over their nondeterministic orderings
//               (64 sampled orders);
//   Random    — arithmetic mean of 1024 trials (as in the paper);
//   Optimal   — exhaustive search; '-' when the state cap is hit, like
//               the paper's evaluation program on its largest four specs.
//
// Shapes to check against the paper: Expert well under Baseline overall
// (less than a third of the decisions on average; 28 vs 224 on the
// XtFree-like row), near-parity on specs with <10 unique traces,
// Bottom-up == Baseline on loop-free specs, Top-down and Random beating
// Baseline nearly everywhere.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Metrics.h"

#include <cstdio>

using namespace cable;
using namespace cable::bench;

int main() {
  cable::bench::BenchReport Report("table3_labeling_cost");
  std::printf("Table 3: cost of labeling, by method "
              "(Random = mean of 1024 trials)\n\n");

  TablePrinter T({{"Specification", 14},
                  {"Unique", 6},
                  {"Baseline", 8},
                  {"Expert", 6},
                  {"Top-down", 8},
                  {"Bottom-up", 9},
                  {"Random", 7},
                  {"Optimal", 7}});

  double ExpertTotal = 0, BaselineTotal = 0;
  for (SpecEvaluation &E : evaluateAllProtocols()) {
    Session &S = *E.S;

    // One timing section per strategy family (one sample per protocol);
    // the Optimal search's inserted states are counters.
    size_t BaselineCost = 0;
    {
      BenchTimer Timer(Report, "baseline");
      BaselineMethod Baseline;
      BaselineCost = Baseline.run(S, E.Target).total();
    }

    StrategyCost ExpertCost;
    {
      BenchTimer Timer(Report, "expert");
      ExpertSimStrategy Expert;
      ExpertCost = Expert.run(S, E.Target);
    }

    // The paper reports the lowest cost over Top-down's and Bottom-up's
    // nondeterministic orderings; sample 64 randomized orders each.
    LowestSummary TDCost, BUCost;
    {
      BenchTimer Timer(Report, "top-down");
      TDCost = measureLowestCost(
          S, E.Target, 64, 0x7D, [](RNG Rand) -> std::unique_ptr<Strategy> {
            return std::make_unique<TopDownStrategy>(Rand);
          });
    }
    {
      BenchTimer Timer(Report, "bottom-up");
      BUCost = measureLowestCost(
          S, E.Target, 64, 0xB0, [](RNG Rand) -> std::unique_ptr<Strategy> {
            return std::make_unique<BottomUpStrategy>(Rand);
          });
    }

    RandomSummary Random;
    {
      BenchTimer Timer(Report, "random");
      Random = measureRandomMean(S, E.Target, 1024, 0xCAB1E);
    }

    StrategyCost OptCost;
    const char *States = "strategy.optimal-states-inserted";
    uint64_t StatesBefore = Metrics::counterValue(States);
    {
      BenchTimer Timer(Report, "optimal");
      OptimalStrategy Optimal(/*StateCap=*/250'000);
      OptCost = Optimal.run(S, E.Target);
    }
    Report.counter(
        "optimal_states." + E.Model.Name,
        static_cast<double>(Metrics::counterValue(States) - StatesBefore));

    auto Fmt = [](const StrategyCost &C) {
      return C.Finished ? cell(C.total()) : std::string("-");
    };
    auto FmtLow = [](const LowestSummary &C) {
      return C.Finished ? cell(C.LowestTotal) : std::string("-");
    };
    T.addRow({E.Model.Name, cell(S.numObjects()), cell(BaselineCost),
              Fmt(ExpertCost), FmtLow(TDCost), FmtLow(BUCost),
              Random.Finished ? cell1(Random.MeanTotal) : std::string("-"),
              Fmt(OptCost)});

    if (ExpertCost.Finished) {
      ExpertTotal += static_cast<double>(ExpertCost.total());
      BaselineTotal += static_cast<double>(BaselineCost);
    }
  }

  T.print();
  std::printf("\nTotals: Expert %.0f vs Baseline %.0f ops "
              "(ratio %.2f; paper: < 1/3 on average).\n"
              "'-' = did not finish (Optimal state cap, like the paper's "
              "four largest specs).\n",
              ExpertTotal, BaselineTotal, ExpertTotal / BaselineTotal);
  Report.write();
  return 0;
}
