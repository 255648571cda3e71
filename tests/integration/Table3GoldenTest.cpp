//===- tests/integration/Table3GoldenTest.cpp ------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden lock on Table 3. Every protocol's session is built exactly the
/// way bench/table3_labeling_cost builds it (seed from the protocol name,
/// generate runs, extract scenarios, protocol reference FA, oracle
/// labeling), and the deterministic columns are pinned: unique traces,
/// Baseline cost and simulated-Expert cost, plus the 1070/252 totals, and
/// the lowest Top-down and Bottom-up costs over the bench's 64 seeded
/// orders. Those two walk node ids and child-list order, so they also
/// catch a lattice renumbering the other columns cannot see. A change
/// that moves any of these numbers moves the paper's Table 3.
///
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "cable/Strategies.h"
#include "miner/ScenarioExtractor.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/Protocols.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

using namespace cable;

namespace {

struct GoldenRow {
  const char *Name;
  size_t Unique;
  size_t Baseline;
  size_t Expert;
  size_t TopDown;
  size_t BottomUp;
};

/// Table 3 in Table 1 order, as bench/table3_labeling_cost prints it.
constexpr GoldenRow Table3[] = {
    {"XGetSelOwner", 3, 6, 5, 5, 4},
    {"XSetSelOwner", 11, 22, 24, 17, 18},
    {"XtOwnSel", 12, 24, 20, 20, 20},
    {"XInternAtom", 22, 44, 7, 8, 16},
    {"PrsTransTbl", 3, 6, 7, 7, 6},
    {"PrsAccelTbl", 10, 20, 6, 6, 8},
    {"RmvTimeOut", 5, 10, 12, 14, 10},
    {"Quarks", 21, 42, 7, 7, 14},
    {"RegionsAlloc", 39, 78, 18, 42, 56},
    {"RegionsBig", 108, 216, 25, 86, 132},
    {"XFreeGC", 47, 94, 33, 31, 62},
    {"XPutImage", 51, 102, 17, 34, 64},
    {"XSetFont", 37, 74, 15, 29, 46},
    {"XtFree", 137, 274, 17, 100, 184},
    {"XOpenDisplay", 7, 14, 13, 13, 12},
    {"XCreatePixmap", 13, 26, 13, 20, 24},
    {"XSaveContext", 9, 18, 13, 13, 12},
};

/// One Table 3 row's session and oracle labeling, built exactly as the
/// bench builds them: seeded from the protocol name (FNV-1a), scenarios
/// extracted from generated runs, protocol reference FA.
struct RowSession {
  std::unique_ptr<Session> S;
  ReferenceLabeling Target;
};

RowSession buildRow(const ProtocolModel &Model) {
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
  Extract.TransitiveValues = true;
  TraceSet Scenarios = extractScenarios(Runs, Extract);
  Automaton Ref =
      makeProtocolReferenceFA(Scenarios.traces(), Scenarios.table(), Model);
  RowSession Row;
  Row.S = std::make_unique<Session>(std::move(Scenarios), std::move(Ref));
  Row.Target = Oracle(Model, Row.S->table()).referenceLabeling(*Row.S);
  return Row;
}

/// The lowest total over the bench's 64 seeded orders of \p Make.
size_t lowestOf64(RowSession &Row, uint64_t Seed,
                  std::unique_ptr<Strategy> (*Make)(RNG)) {
  LowestSummary Low = measureLowestCost(*Row.S, Row.Target, 64, Seed, Make);
  EXPECT_TRUE(Low.Finished);
  return Low.LowestTotal;
}

} // namespace

TEST(Table3GoldenTest, UniqueBaselineAndExpertCostsArePinned) {
  const std::vector<ProtocolModel> &Models = allProtocols();
  ASSERT_EQ(Models.size(), std::size(Table3));

  size_t BaselineTotal = 0, ExpertTotal = 0;
  for (size_t I = 0; I < Models.size(); ++I) {
    const ProtocolModel &Model = Models[I];
    const GoldenRow &Want = Table3[I];
    SCOPED_TRACE(Model.Name);
    ASSERT_EQ(Model.Name, Want.Name);

    RowSession Row = buildRow(Model);
    Session &S = *Row.S;
    size_t Baseline = BaselineMethod().run(S, Row.Target).total();
    StrategyCost Expert = ExpertSimStrategy().run(S, Row.Target);
    ASSERT_TRUE(Expert.Finished);

    EXPECT_EQ(S.numObjects(), Want.Unique);
    EXPECT_EQ(Baseline, Want.Baseline);
    EXPECT_EQ(Expert.total(), Want.Expert);
    BaselineTotal += Baseline;
    ExpertTotal += Expert.total();
  }
  EXPECT_EQ(BaselineTotal, 1070u);
  EXPECT_EQ(ExpertTotal, 252u);
}

TEST(Table3GoldenTest, TopDownAndBottomUpLowestCostsArePinned) {
  const std::vector<ProtocolModel> &Models = allProtocols();
  ASSERT_EQ(Models.size(), std::size(Table3));

  for (size_t I = 0; I < Models.size(); ++I) {
    const GoldenRow &Want = Table3[I];
    SCOPED_TRACE(Want.Name);
    ASSERT_EQ(Models[I].Name, Want.Name);

    RowSession Row = buildRow(Models[I]);
    EXPECT_EQ(lowestOf64(Row, 0x7D,
                         [](RNG R) -> std::unique_ptr<Strategy> {
                           return std::make_unique<TopDownStrategy>(R);
                         }),
              Want.TopDown);
    EXPECT_EQ(lowestOf64(Row, 0xB0,
                         [](RNG R) -> std::unique_ptr<Strategy> {
                           return std::make_unique<BottomUpStrategy>(R);
                         }),
              Want.BottomUp);
  }
}
