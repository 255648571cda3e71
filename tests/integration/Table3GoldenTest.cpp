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
/// Baseline cost and simulated-Expert cost, plus the 1070/252 totals.
/// A change that moves any of these numbers moves the paper's Table 3.
///
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "cable/Strategies.h"
#include "miner/Miner.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/Protocols.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace cable;

namespace {

struct GoldenRow {
  const char *Name;
  size_t Unique;
  size_t Baseline;
  size_t Expert;
};

/// Table 3 in Table 1 order, as bench/table3_labeling_cost prints it.
constexpr GoldenRow Table3[] = {
    {"XGetSelOwner", 3, 6, 5},     {"XSetSelOwner", 11, 22, 24},
    {"XtOwnSel", 12, 24, 20},      {"XInternAtom", 22, 44, 7},
    {"PrsTransTbl", 3, 6, 7},      {"PrsAccelTbl", 10, 20, 6},
    {"RmvTimeOut", 5, 10, 12},     {"Quarks", 21, 42, 7},
    {"RegionsAlloc", 39, 78, 18},  {"RegionsBig", 108, 216, 25},
    {"XFreeGC", 47, 94, 33},       {"XPutImage", 51, 102, 17},
    {"XSetFont", 37, 74, 15},      {"XtFree", 137, 274, 17},
    {"XOpenDisplay", 7, 14, 13},   {"XCreatePixmap", 13, 26, 13},
    {"XSaveContext", 9, 18, 13},
};

/// The bench's per-protocol seed: FNV-1a over the protocol name.
uint64_t protocolSeed(const std::string &Name) {
  uint64_t Seed = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    Seed ^= static_cast<unsigned char>(C);
    Seed *= 0x100000001b3ULL;
  }
  return Seed;
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

    RNG Rand(protocolSeed(Model.Name));
    EventTable Table;
    WorkloadGenerator Gen(Model, Table);
    TraceSet Runs = Gen.generateRuns(Rand);

    ExtractorOptions Extract;
    Extract.SeedNames = Model.Seeds;
    Extract.TransitiveValues = true;
    TraceSet Scenarios = extractScenarios(Runs, Extract);
    Automaton Ref =
        makeProtocolReferenceFA(Scenarios.traces(), Scenarios.table(), Model);
    Session S(std::move(Scenarios), std::move(Ref));
    ReferenceLabeling Target = Oracle(Model, S.table()).referenceLabeling(S);

    size_t Baseline = BaselineMethod().run(S, Target).total();
    StrategyCost Expert = ExpertSimStrategy().run(S, Target);
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
