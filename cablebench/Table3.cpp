//===- cablebench/Table3.cpp - Workload `table3` --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// A researcher regenerating the paper's Table 3: for each of the 17
// protocols at paper scale, open a session and run Baseline, Expert,
// Top-down x64, Bottom-up x64, Random x1024 and Optimal (state cap 250k),
// with the trial counts of bench/table3_labeling_cost. Nearly all of the
// time goes to the strategies and their label-state reads; session opens
// take about 0.25% of a pass.
//
// The traces are the paper's: every protocol is generated from the seed
// bench/table3_labeling_cost uses (protocolSeed(name, 0)), so the pinned
// Table 3 rows hold at every workload seed. The workload seed drives the
// randomized trials instead: it is mixed into the root seeds of the
// Top-down, Bottom-up and Random orders, and seed 0 gives exactly the
// bench's roots (0x7D, 0xB0, 0xCAB1E).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "miner/ScenarioExtractor.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/ReferenceFA.h"

#include <set>

using namespace cable;
using namespace cablebench;

namespace {

/// runStrategy, counted as one operation.
StrategyCost run(Strategy &Strat, const char *Layer, Session &S,
                 const ReferenceLabeling &Target, PassLog &Log, Tracer &T) {
  double Ms = 0;
  StrategyCost Cost = runStrategy(Strat, Layer, S, Target, Log, T, Ms);
  Log.op(Ms);
  return Cost;
}

/// One Table 3 row; "unfinished" cells are kept as SIZE_MAX.
struct Row {
  size_t Unique = 0, Baseline = 0, Expert = 0, TopDown = 0, BottomUp = 0,
         Optimal = 0;
  double RandomMean = 0;
  bool operator==(const Row &) const = default;
};

constexpr size_t Unfinished = SIZE_MAX;

struct Spec {
  const ProtocolModel *Model = nullptr;
  TraceSet Scenarios;
  Automaton ReferenceFA;
  std::unique_ptr<Oracle> Truth;
};

class Table3 : public Workload {
public:
  void setup(uint64_t Seed) override;
  void pass(PassLog &Log, Tracer &T) override;

private:
  /// Lowest cost over \p Trials randomized runs, as measureLowestCost.
  template <typename StrategyT>
  size_t lowest(const char *Layer, uint64_t RootSeed, size_t Trials,
                Session &S, const ReferenceLabeling &Target, PassLog &Log,
                Tracer &T);

  /// Root seed of a family of randomized trials under the workload seed.
  uint64_t trialSeed(uint64_t BenchRoot) const {
    return Seed == 0 ? BenchRoot : protocolSeed("trials", Seed) ^ BenchRoot;
  }

  uint64_t Seed = 0;
  std::vector<Spec> Specs;
  /// The first pass's rows; every later pass must reproduce them.
  std::vector<Row> Pinned;
};

void Table3::setup(uint64_t WorkloadSeed) {
  Seed = WorkloadSeed;
  Specs.clear();
  for (const ProtocolModel &Model : allProtocols()) {
    Spec Sp;
    Sp.Model = &Model;
    RNG Rand(protocolSeed(Model.Name, 0));
    EventTable Table;
    WorkloadGenerator Gen(Model, Table);
    TraceSet Runs = Gen.generateRuns(Rand);
    ExtractorOptions Extract;
    Extract.SeedNames = Model.Seeds;
    Extract.TransitiveValues = true;
    Sp.Scenarios = extractScenarios(Runs, Extract);
    Sp.ReferenceFA = makeProtocolReferenceFA(Sp.Scenarios.traces(),
                                             Sp.Scenarios.table(), Model);
    Sp.Truth = std::make_unique<Oracle>(Model, Sp.Scenarios.table());
    Specs.push_back(std::move(Sp));
  }
}

template <typename StrategyT>
size_t Table3::lowest(const char *Layer, uint64_t RootSeed, size_t Trials,
                      Session &S, const ReferenceLabeling &Target,
                      PassLog &Log, Tracer &T) {
  RNG Root(RootSeed);
  size_t Best = Unfinished;
  for (size_t Trial = 0; Trial < Trials; ++Trial) {
    StrategyT Strat(Root.fork());
    StrategyCost Cost = run(Strat, Layer, S, Target, Log, T);
    if (Cost.Finished && Cost.total() < Best)
      Best = Cost.total();
  }
  return Best;
}

void Table3::pass(PassLog &Log, Tracer &T) {
  std::vector<Row> Rows;
  size_t ExpertTotal = 0, BaselineTotal = 0;
  std::set<std::string> OptimalUnfinished;
  for (Spec &Sp : Specs) {
    const std::string &Name = Sp.Model->Name;
    double OpenMs = 0;
    std::unique_ptr<Session> S =
        openSession(Sp.Scenarios, Sp.ReferenceFA, Log, T, OpenMs);
    Log.open(OpenMs);
    if (!S)
      return;
    ReferenceLabeling Target =
        makeReferenceLabeling(*S, Sp.Truth->labelNames(*S));

    Row R;
    R.Unique = S->numObjects();
    BaselineMethod Baseline;
    R.Baseline = run(Baseline, "baseline", *S, Target, Log, T).total();
    Log.check(R.Baseline == 2 * R.Unique,
              Name + ": Baseline is not 2 x unique traces");

    ExpertSimStrategy Expert;
    StrategyCost ExpertCost = run(Expert, "expert", *S, Target, Log, T);
    R.Expert = ExpertCost.Finished ? ExpertCost.total() : Unfinished;
    if (ExpertCost.Finished) {
      ExpertTotal += ExpertCost.total();
      BaselineTotal += R.Baseline;
    }

    R.TopDown = lowest<TopDownStrategy>("topdown", trialSeed(0x7D), 64, *S,
                                        Target, Log, T);
    R.BottomUp = lowest<BottomUpStrategy>("bottomup", trialSeed(0xB0), 64,
                                          *S, Target, Log, T);

    // Arithmetic mean of 1024 trials, as measureRandomMean.
    RNG Root(trialSeed(0xCAB1E));
    double RandomTotal = 0;
    for (size_t Trial = 0; Trial < 1024 && R.RandomMean >= 0; ++Trial) {
      RandomStrategy Random(Root.fork());
      StrategyCost Cost = run(Random, "random", *S, Target, Log, T);
      if (!Cost.Finished)
        R.RandomMean = -1;
      RandomTotal += static_cast<double>(Cost.total());
    }
    if (R.RandomMean >= 0)
      R.RandomMean = RandomTotal / 1024;

    OptimalStrategy Optimal(/*StateCap=*/250'000);
    StrategyCost OptCost = run(Optimal, "optimal", *S, Target, Log, T);
    R.Optimal = OptCost.Finished ? OptCost.total() : Unfinished;
    if (!OptCost.Finished)
      OptimalUnfinished.insert(Name);
    Rows.push_back(R);
  }

  if (Pinned.empty())
    Pinned = Rows;
  Log.check(Rows == Pinned, "table3: rows differ from the first pass");
  // Today's Table 3 (bench/table3_labeling_cost). Expert, Baseline and
  // Optimal do not depend on the trial seeds, so these hold at every seed.
  {
    Log.check(ExpertTotal == 252 && BaselineTotal == 1070,
              "table3: totals are Expert " + std::to_string(ExpertTotal) +
                  " vs Baseline " + std::to_string(BaselineTotal) +
                  ", pinned 252 vs 1070");
    Log.check(OptimalUnfinished ==
                  std::set<std::string>{"RegionsBig", "XtFree"},
              "table3: Optimal '-' rows are not exactly RegionsBig, XtFree");
  }
}

} // namespace

std::unique_ptr<Workload> cablebench::makeTable3() {
  return std::make_unique<Table3>();
}
